"""
Dense two-frame optical flow via polynomial expansion.

Each frame neighborhood is modeled as a quadratic polynomial
``f(x) ~ x'Ax + b'x + c`` fit by weighted least squares under a Gaussian
applicability window. Displacement between two frames is recovered by
equating the expansion coefficients, solved coarse-to-fine over an image
pyramid with iterative warping refinement.

Coordinate convention: ``u`` is horizontal (column) displacement, ``v`` is
vertical (row) displacement, both in pixels per frame, such that
``prev(y, x) ~ next(y + v, x + u)``.

Frames may come as a stack: the building blocks (``poly_expand``,
``pyramid_downsample``) accept any ``(..., H, W)`` array and filter only the
last two axes, and ``farneback_flow`` takes one ``prev`` frame with a
``(K, H, W)`` stack of the K frames that follow it, i.e. K consecutive
frame pairs. Every frame is then expanded once, and each filter, warp and
solve runs once per stack; the flow of each pair is bit-identical to a
separate two-frame call.

The kernels compute the same IEEE operations, on the same operands in the
same order, as the plain array expressions their comments and docstrings
give (``a11 = 0.5 * (prev.a11 + warped.a11)`` and so on), but in place:
each step writes into a buffer with ``out=`` instead of allocating its
result. Work that two expressions share is done once: ``poly_expand``'s
three horizontal filter passes feed its six vertical ones, and the five
window sums of a flow update are one stacked ``uniform_filter`` call.
Scratch buffers come from a per-thread workspace that keeps one buffer
from call to call (``_Workspace``), so a worker that runs many blocks of
one shape allocates them once. Nothing handed back to a caller lies in
that buffer.

The iterative solve runs in float32, as OpenCV's
``calcOpticalFlowFarneback`` (the flow of the Pooled Time Series papers)
computes it: ``farneback_flow`` rounds each level's expansion once into a
float32 array, and the warp, the flow updates and the upsampled ``u, v``
are float32 from there, so it returns float32 fields. The solve is
memory-bound elementwise work, so half the bytes is most of its time. The
frames, the pyramid and ``poly_expand`` stay float64. ``_warp_expansion``
and ``_flow_update`` take their dtype from ``u``; every constant they mix
with their fields is cast to that dtype first, so numpy's older
value-based casting and its NEP 50 promotion pick the same loops.

``scipy.ndimage`` is imported by the functions that filter, not by this
module, so that importing potsim costs no scipy in commands that run no
flow.
"""

from __future__ import annotations

import functools
import math
import threading
from contextlib import contextmanager

import numpy as np

from .frames import _frozen, resize_bilinear
from .params import FarnebackParams

# Per-pixel 2x2 systems with determinant below this resolve to zero
# displacement (untextured regions).
SINGULAR_DET_EPS = 1e-9

# The precision of the iterative solve and of the fields farneback_flow
# returns; the state dir's fingerprint records it.
FLOW_DTYPE = np.float32

_MIN_PYRAMID_DIM = 8

# Each array the workspace hands out starts a multiple of this many bytes
# (a cache line) into its buffer.
_ALIGN = 64


class _Workspace(threading.local):
    """Scratch memory of the flow kernels, one buffer per thread, kept from
    call to call.

    ``scope()`` yields ``take(shape, dtype)``, which lays arrays end to end
    in the buffer; they are given back together when the scope closes. So
    scopes stack: a kernel's scratch lies above its caller's, and two
    kernels called one after the other reuse the same memory. A request
    past the buffer's end gets a fresh array, and when the outermost scope
    closes the buffer grows to the most bytes ever in use. After the first
    block of a shape nothing is allocated; a smaller stack or pyramid level
    uses the front of the buffer.
    """

    def __init__(self):
        self.buffer = np.empty(0, dtype=np.uint8)
        self.top = 0  # bytes in use
        self.high = 0  # most bytes in use at once

    @contextmanager
    def scope(self):
        mark = self.top
        try:
            yield self.take
        finally:
            self.top = mark
            if mark == 0 and self.high > self.buffer.size:
                self.buffer = np.empty(self.high, dtype=np.uint8)

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        start = self.top
        self.top += -(-math.prod(shape) * dtype.itemsize // _ALIGN) * _ALIGN
        self.high = max(self.high, self.top)
        if self.top > self.buffer.size:
            return np.empty(shape, dtype)
        return np.ndarray(shape, dtype, buffer=self.buffer, offset=start)


_WORKSPACE = _Workspace()


# The weighted projections onto the basis 1, x, y, x^2, y^2, xy, as
# (horizontal, vertical) kernel indices into (w, w * offset, w * offset^2).
_PROJECTION_KERNELS = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))

# The rows of the solved coefficients that poly_expand keeps, in its field
# order: x^2 (a11), xy (2 * a12), y^2 (a22), x (b1), y (b2); row 0, the
# constant c, is never solved.
_EXPANSION_ROWS = [3, 5, 4, 1, 2]


def validate_params(params: FarnebackParams) -> None:
    """``params.validate()``, then the expansion's fit of its ``poly_n`` and
    ``poly_sigma``: a ValueError where either fails."""
    params.validate()
    _expansion_fit(params.poly_n, params.poly_sigma)


@functools.lru_cache(maxsize=16)
def _expansion_fit(poly_n: int, poly_sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window offsets, their Gaussian weights and the inverse of the
    6x6 normal matrix of ``poly_expand``'s fit, as read-only arrays made
    once per setting. A ValueError, which is not cached, where that
    matrix cannot be inverted: a ``poly_sigma`` so small that every weight
    off the centre is 0, or so large that its square overflows; and where
    the poly_n x poly_n window does not fit in memory."""
    radius = (poly_n - 1) // 2
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    try:
        w = np.exp(-(offsets**2) / (2.0 * poly_sigma**2))
    except OverflowError:
        raise ValueError(f"poly_sigma {poly_sigma} overflows the expansion's weights") from None
    try:
        # Basis order: 1, x, y, x^2, y^2, xy  (x = column offset, y = row offset)
        xg, yg = np.meshgrid(offsets, offsets, indexing="xy")
        basis = np.stack([np.ones_like(xg), xg, yg, xg**2, yg**2, xg * yg]).reshape(6, -1)
        gram = (basis * np.outer(w, w).ravel()) @ basis.T
    except MemoryError as exc:
        raise ValueError(f"poly_n {poly_n} makes a window too large to fit in memory: {exc}") from None
    try:
        gram_inv = np.linalg.inv(gram)
        if np.isfinite(gram_inv).all():
            _frozen(offsets, w, gram_inv)
            return offsets, w, gram_inv
    except np.linalg.LinAlgError:
        pass
    raise ValueError(
        f"poly_sigma {poly_sigma} with poly_n {poly_n} leaves the expansion's normal matrix singular"
    )


def poly_expand(
    frame: np.ndarray, poly_n: int, poly_sigma: float, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Fit the per-pixel quadratic model over a Gaussian window.

    The fit is a weighted least squares over a ``poly_n`` x ``poly_n``
    neighborhood with Gaussian weights of std ``poly_sigma``; borders use the
    same window with edge replication. Because the weights do not vary per
    pixel, the normal matrix is constant and the fit reduces to six separable
    correlations followed by a fixed 6x6 solve. A ``(..., H, W)`` stack is
    expanded frame by frame along its last two axes.

    Returns the five fields (a11, a12, a22, b1, b2) as one ``(5, ..., H, W)``
    array: ``out`` if given, else a new one. The symmetric 2x2 matrix A is
    (a11, a12, a22); b is the gradient-like 2-vector (b1 along x, b2 along
    y). The constant term c cancels in the displacement (Farneback, SCIA
    2003), so it is not kept. The six correlations share their three
    horizontal passes, so nine 1-D passes run.
    """
    from scipy import ndimage

    frame = np.asarray(frame, dtype=np.float64)
    offsets, w, gram_inv = _expansion_fit(poly_n, poly_sigma)
    kernels = (w, w * offsets, w * offsets**2)
    if out is None:
        out = np.empty((5,) + frame.shape)
    with _WORKSPACE.scope() as take:
        across = take((3,) + frame.shape)
        proj = take((6,) + frame.shape)
        for kernel, dst in zip(kernels, across):
            ndimage.correlate1d(frame, kernel, axis=-1, output=dst, mode="nearest")
        for (kx, ky), dst in zip(_PROJECTION_KERNELS, proj):
            ndimage.correlate1d(across[kx], kernels[ky], axis=-2, output=dst, mode="nearest")
        np.einsum("ij,j...->i...", gram_inv[_EXPANSION_ROWS], proj, out=out)
    np.multiply(0.5, out[1], out=out[1])
    return out


def pyramid_downsample(frame: np.ndarray, scale: float) -> np.ndarray:
    """Gaussian pre-smooth then bilinearly resample a frame by ``scale``.

    Smoothing std follows sigma = 0.6 * sqrt(1/scale^2 - 1); output
    dimensions are round(dim * scale) with a floor of 8 pixels. A
    ``(..., H, W)`` stack is smoothed and resampled along its last two axes.
    """
    from scipy import ndimage

    if not 0.0 < scale < 1.0:
        raise ValueError(f"scale must be in (0, 1), got {scale}")
    frame = np.asarray(frame, dtype=np.float64)
    sigma = 0.6 * np.sqrt(1.0 / scale**2 - 1.0)
    sigmas = (0.0,) * (frame.ndim - 2) + (sigma, sigma)
    blurred = ndimage.gaussian_filter(frame, sigmas, mode="nearest")
    src_h, src_w = frame.shape[-2:]
    out_w = max(_MIN_PYRAMID_DIM, int(round(src_w * scale)))
    out_h = max(_MIN_PYRAMID_DIM, int(round(src_h * scale)))
    return resize_bilinear(blurred, out_w, out_h)


def _warp_expansion(
    exp: np.ndarray, u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Sample the five fields of an expansion bilinearly at the displaced
    positions, border-clamped.

    ``exp`` is a ``(5, ..., H, W)`` expansion, whose fields share their
    shape with ``u`` and ``v``. Indices and weights are computed once for
    all five fields, with the arithmetic of
    ``ndimage.map_coordinates(order=1, mode="nearest")`` so that the result
    is bit-identical to it: the upper weight is one minus the lower, and the
    four terms are summed left to right from 0.0. The warped fields are
    written into ``out``, a ``(5, ..., H, W)`` array, or a new one. It
    computes in ``u.dtype``; ``exp``, ``v`` and ``out`` share it.
    """
    h, w = u.shape[-2:]
    real = u.dtype.type
    if out is None:
        out = np.empty((5,) + u.shape, u.dtype)
    with _WORKSPACE.scope() as take:
        wy0, wx0, wy1, wx1 = take((4,) + u.shape, u.dtype)
        base, index, down = take((3,) + u.shape, np.intp)
        right = take(u.shape, np.bool_)
        # cy = clip(row + v, 0, h - 1), cx = clip(column + u, 0, w - 1)
        np.add(np.arange(h, dtype=u.dtype)[:, None], v, out=wy0)
        np.clip(wy0, real(0.0), real(h - 1.0), out=wy0)
        np.add(np.arange(w, dtype=u.dtype), u, out=wx0)
        np.clip(wx0, real(0.0), real(w - 1.0), out=wx0)
        y0, x0 = np.floor(wy0, out=wy1), np.floor(wx0, out=wx1)
        # flat index of the upper-left neighbour in the (..., H, W) fields; the
        # lower and right neighbours are clamped to it at the border
        np.copyto(base, y0, casting="unsafe")
        base *= w
        np.copyto(index, x0, casting="unsafe")
        base += index
        base += np.arange(u.size // (h * w)).reshape(u.shape[:-2] + (1, 1)) * (h * w)
        np.less(y0, h - 1, out=right)
        np.multiply(right, w, out=down)
        np.less(x0, w - 1, out=right)
        # wy0 = 1 - (cy - y0), wy1 = 1 - wy0, and the same along x
        one = real(1.0)
        np.subtract(one, np.subtract(wy0, y0, out=wy0), out=wy0)
        np.subtract(one, np.subtract(wx0, x0, out=wx0), out=wx0)
        np.subtract(one, wy0, out=wy1)
        np.subtract(one, wx0, out=wx1)

        term = take(u.shape, u.dtype)
        flats = [f.reshape(-1) for f in exp]
        # a non-finite value times a zero weight is NaN, silently, as in map_coordinates
        with np.errstate(invalid="ignore"):
            for corner, (wy, wx) in enumerate(((wy0, wx0), (wy0, wx1), (wy1, wx0), (wy1, wx1))):
                # the corner's flat index: base, base + right, base + down,
                # base + down + right
                if corner == 0:
                    corner_index = base
                elif corner == 1:
                    corner_index = np.add(base, right, out=index)
                elif corner == 2:
                    corner_index = np.add(base, down, out=index)
                else:
                    corner_index += right
                for flat, dst in zip(flats, out):
                    # the indices are in range by construction, and "clip"
                    # takes into ``out`` without a buffer
                    flat.take(corner_index, out=term, mode="clip")
                    term *= wy
                    term *= wx
                    if corner == 0:  # summing from 0.0 turns a -0.0 sum into 0.0
                        np.add(real(0.0), term, out=dst)
                    else:
                        dst += term
    return out


def _flow_update(
    prev_exp: np.ndarray,
    next_exp: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    winsize: int,
) -> None:
    """One displacement solve given the current flow estimate, written into
    ``u`` and ``v``.

    The next-frame expansion is warped by the current flow; the constraint
    A_avg * d = delta_b (with the warp compensation term A_avg * d0 folded
    into delta_b) is turned into per-pixel normal equations, box-averaged
    over winsize x winsize, and solved. Near-singular pixels get zero flow.
    ``u`` and ``v`` are ``(K, H, W)`` stacks, one frame per pair, and the
    expansions ``(5, K, H, W)``, all of ``u.dtype``, in which it computes.
    Each comment gives the expression a block computes in place, operand
    for operand.
    """
    from scipy import ndimage

    real = u.dtype.type
    prev_a11, prev_a12, prev_a22, prev_b1, prev_b2 = prev_exp
    with _WORKSPACE.scope() as take:
        tmp = take(u.shape, u.dtype)
        a11, a12, a22, db1, db2 = _warp_expansion(
            next_exp, u, v, out=take((5,) + u.shape, u.dtype)
        )
        # a11 = 0.5 * (prev.a11 + w11), and a12, a22 alike
        for avg, prev in ((a11, prev_a11), (a12, prev_a12), (a22, prev_a22)):
            np.add(prev, avg, out=avg)
            np.multiply(real(0.5), avg, out=avg)
        # db1 = -0.5 * (wb1 - prev.b1) + a11 * u + a12 * v
        # db2 = -0.5 * (wb2 - prev.b2) + a12 * u + a22 * v
        for db, prev, au, av in ((db1, prev_b1, a11, a12), (db2, prev_b2, a12, a22)):
            np.subtract(db, prev, out=db)
            np.multiply(real(-0.5), db, out=db)
            db += np.multiply(au, u, out=tmp)
            db += np.multiply(av, v, out=tmp)

        # Normal equations of A d = db, accumulated over the averaging window.
        normal = take((5,) + u.shape, u.dtype)
        g11, g12, g22, h1, h2 = normal
        np.multiply(a12, a12, out=g22)
        np.add(np.multiply(a11, a11, out=g11), g22, out=g11)  # a11 * a11 + a12 * a12
        np.multiply(a12, np.add(a11, a22, out=g12), out=g12)  # a12 * (a11 + a22)
        g22 += np.multiply(a22, a22, out=tmp)  # a12 * a12 + a22 * a22
        np.multiply(a11, db1, out=h1)
        h1 += np.multiply(a12, db2, out=tmp)  # a11 * db1 + a12 * db2
        np.multiply(a12, db1, out=h2)
        h2 += np.multiply(a22, db2, out=tmp)  # a12 * db1 + a22 * db2
        window = (1,) * (normal.ndim - 2) + (winsize, winsize)
        ndimage.uniform_filter(normal, size=window, mode="nearest", output=normal)

        # det = g11 * g22 - g12 * g12; singular = not (det >= SINGULAR_DET_EPS)
        det = np.multiply(g11, g22, out=take(u.shape, u.dtype))
        det -= np.multiply(g12, g12, out=tmp)
        singular = np.greater_equal(det, real(SINGULAR_DET_EPS), out=take(u.shape, np.bool_))
        np.logical_not(singular, out=singular)
        np.copyto(det, real(1.0), where=singular)
        # u = (g22 * h1 - g12 * h2) / det, v = (g11 * h2 - g12 * h1) / det,
        # and 0.0 where singular
        for new, ga, hb, hc in ((u, g22, h1, h2), (v, g11, h2, h1)):
            np.multiply(ga, hb, out=new)
            new -= np.multiply(g12, hc, out=tmp)
            new /= det
            np.copyto(new, real(0.0), where=singular)


def farneback_flow(
    prev: np.ndarray, next: np.ndarray, params: FarnebackParams | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate dense flow from ``prev`` to ``next`` coarse-to-fine: the
    pair ``u, v`` of horizontal and vertical displacement fields.

    ``next`` is one ``(H, W)`` frame, giving ``(H, W)`` fields, or a
    ``(K, H, W)`` stack of the K frames that follow ``prev``. The fields
    then have shape ``(K, H, W)``: their ``[k]`` is the flow of the
    consecutive pair ``(next[k - 1], next[k])`` (``(prev, next[0])`` for
    k = 0), bit-identical to a two-frame call on that pair. Each frame is
    expanded once per pyramid level, in float64, and the solve runs in
    ``FLOW_DTYPE`` (float32), the dtype of the fields returned.
    """
    if params is None:
        params = FarnebackParams()
    validate_params(params)
    prev = np.asarray(prev, dtype=np.float64)
    next = np.asarray(next, dtype=np.float64)
    if prev.ndim != 2 or next.ndim not in (2, 3):
        raise ValueError(
            f"expected an (H, W) prev and an (H, W) or (K, H, W) next, got "
            f"shapes {prev.shape} and {next.shape}"
        )
    if prev.shape != next.shape[-2:]:
        raise ValueError(f"frame shapes differ: {prev.shape} vs {next.shape}")

    with _WORKSPACE.scope() as take:
        stack = take((1 + (len(next) if next.ndim == 3 else 1),) + prev.shape)
        stack[0] = prev
        stack[1:] = next
        pyramid = [stack]
        for _ in range(params.levels - 1):
            pyramid.append(pyramid_downsample(pyramid[-1], params.pyr_scale))

        # u and v: new arrays at each level, not in the workspace, so the
        # flow handed back is the caller's own
        u = v = None
        scale = FLOW_DTYPE(params.pyr_scale)
        for level in reversed(pyramid):
            h, w = level.shape[-2:]
            if u is None:
                u = np.zeros((len(level) - 1, h, w), FLOW_DTYPE)
                v = np.zeros((len(level) - 1, h, w), FLOW_DTYPE)
            else:
                u = resize_bilinear(u, w, h)
                u /= scale
                v = resize_bilinear(v, w, h)
                v /= scale
            with _WORKSPACE.scope() as take_level:
                # expanded in float64, then rounded once to the solve's dtype
                exp = take_level((5,) + level.shape, FLOW_DTYPE)
                with _WORKSPACE.scope() as take_exact:
                    exact = take_exact((5,) + level.shape)
                    poly_expand(level, params.poly_n, params.poly_sigma, out=exact)
                    np.copyto(exp, exact, casting="same_kind")
                for _ in range(params.iterations):
                    _flow_update(exp[:, :-1], exp[:, 1:], u, v, params.winsize)

    np.nan_to_num(u, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
    np.nan_to_num(v, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
    if next.ndim == 2:
        return u[0], v[0]
    return u, v
