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

``scipy.ndimage`` is imported by the functions that filter, not by this
module, so that importing potsim costs no scipy in commands that run no
flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import resize_bilinear

# Per-pixel 2x2 systems with determinant below this resolve to zero
# displacement (untextured regions).
SINGULAR_DET_EPS = 1e-9

_MIN_PYRAMID_DIM = 8


@dataclass(frozen=True)
class FarnebackParams:
    """Tuning knobs for the pyramidal polynomial-expansion flow."""

    pyr_scale: float = 0.5
    levels: int = 3
    winsize: int = 15
    iterations: int = 3
    poly_n: int = 5
    poly_sigma: float = 1.1

    def validate(self) -> None:
        if not 0.0 < self.pyr_scale < 1.0:
            raise ValueError(f"pyr_scale must be in (0, 1), got {self.pyr_scale}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.winsize < 3 or self.winsize % 2 == 0:
            raise ValueError(f"winsize must be odd and >= 3, got {self.winsize}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.poly_n < 3 or self.poly_n % 2 == 0:
            raise ValueError(f"poly_n must be odd and >= 3, got {self.poly_n}")
        if not self.poly_sigma > 0.0:  # also rejects NaN
            raise ValueError(f"poly_sigma must be > 0, got {self.poly_sigma}")


@dataclass
class PolyExpansion:
    """Per-pixel quadratic model coefficients.

    The symmetric 2x2 matrix A is stored as (a11, a12, a22); b is the
    gradient-like 2-vector (b1 along x, b2 along y). The constant term c
    cancels in the displacement (Farneback, SCIA 2003), so it is not kept.
    All arrays share the shape of the expanded frame or frame stack.
    """

    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray
    b1: np.ndarray
    b2: np.ndarray


@dataclass
class FlowField:
    """Per-pixel displacement between two frames, or for each of K
    consecutive frame pairs.

    ``u`` and ``v`` have shape ``(H, W)`` for one pair and ``(K, H, W)``
    for K consecutive pairs, where ``[k]`` is the flow of the k-th pair.
    """

    u: np.ndarray  # horizontal displacement (pixels/frame)
    v: np.ndarray  # vertical displacement (pixels/frame)


def poly_expand(frame: np.ndarray, poly_n: int, poly_sigma: float) -> PolyExpansion:
    """Fit the per-pixel quadratic model over a Gaussian window.

    The fit is a weighted least squares over a ``poly_n`` x ``poly_n``
    neighborhood with Gaussian weights of std ``poly_sigma``; borders use the
    same window with edge replication. Because the weights do not vary per
    pixel, the normal matrix is constant and the fit reduces to six separable
    correlations followed by a fixed 6x6 solve; A and b are kept. A
    ``(..., H, W)`` stack is expanded frame by frame along its last two axes.
    """
    from scipy import ndimage

    frame = np.asarray(frame, dtype=np.float64)
    radius = (poly_n - 1) // 2
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-(offsets**2) / (2.0 * poly_sigma**2))

    # Basis order: 1, x, y, x^2, y^2, xy  (x = column offset, y = row offset)
    xg, yg = np.meshgrid(offsets, offsets, indexing="xy")
    basis = np.stack(
        [np.ones_like(xg), xg, yg, xg**2, yg**2, xg * yg]
    ).reshape(6, -1)
    weights2d = np.outer(w, w).ravel()
    gram = (basis * weights2d) @ basis.T
    gram_inv = np.linalg.inv(gram)

    k0, k1, k2 = w, w * offsets, w * offsets**2

    def corr(kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        tmp = ndimage.correlate1d(frame, kx, axis=-1, mode="nearest")
        return ndimage.correlate1d(tmp, ky, axis=-2, mode="nearest")

    # Weighted moment projections onto each basis function.
    proj = np.stack(
        [
            corr(k0, k0),  # 1
            corr(k1, k0),  # x
            corr(k0, k1),  # y
            corr(k2, k0),  # x^2
            corr(k0, k2),  # y^2
            corr(k1, k1),  # xy
        ]
    )
    r = np.einsum("ij,j...->i...", gram_inv, proj)
    return PolyExpansion(a11=r[3], a12=0.5 * r[5], a22=r[4], b1=r[1], b2=r[2])


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
    exp: PolyExpansion, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Sample (a11, a12, a22, b1, b2) bilinearly at the displaced positions,
    border-clamped.

    The fields and ``u``, ``v`` share one ``(..., H, W)`` shape. Indices and
    weights are computed once for all five fields, with the arithmetic of
    ``ndimage.map_coordinates(order=1, mode="nearest")`` so that the result
    is bit-identical to it: the upper weight is one minus the lower, and the
    four terms are summed left to right from 0.0.
    """
    h, w = u.shape[-2:]
    cy = np.clip(np.arange(h, dtype=np.float64)[:, None] + v, 0.0, h - 1.0)
    cx = np.clip(np.arange(w, dtype=np.float64) + u, 0.0, w - 1.0)
    y0, x0 = np.floor(cy), np.floor(cx)
    wy0 = np.subtract(1.0, np.subtract(cy, y0, out=cy), out=cy)
    wx0 = np.subtract(1.0, np.subtract(cx, x0, out=cx), out=cx)
    wy1, wx1 = 1.0 - wy0, 1.0 - wx0
    # flat index of the upper-left neighbour in the (..., H, W) fields; the
    # lower and right neighbours are clamped to it at the border
    frame_base = np.arange(u.size // (h * w)).reshape(u.shape[:-2] + (1, 1)) * (h * w)
    i00 = y0.astype(np.intp) * w + x0.astype(np.intp) + frame_base
    down = (y0 < h - 1) * w
    right = x0 < w - 1
    i01 = i00 + right
    i10 = i00 + down
    i11 = i10 + right
    corners = ((i00, wy0, wx0), (i01, wy0, wx1), (i10, wy1, wx0), (i11, wy1, wx1))

    def warp(field: np.ndarray) -> np.ndarray:
        flat = field.reshape(-1)
        out = np.zeros(u.shape)  # summing from 0.0 turns a -0.0 sum into 0.0
        for index, wy, wx in corners:
            term = flat.take(index)
            term *= wy
            term *= wx
            out += term
        return out

    # a non-finite value times a zero weight is NaN, silently, as in map_coordinates
    with np.errstate(invalid="ignore"):
        return tuple(warp(f) for f in (exp.a11, exp.a12, exp.a22, exp.b1, exp.b2))


def _flow_update(
    prev_exp: PolyExpansion,
    next_exp: PolyExpansion,
    u: np.ndarray,
    v: np.ndarray,
    winsize: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One displacement solve given the current flow estimate.

    The next-frame expansion is warped by the current flow; the constraint
    A_avg * d = delta_b (with the warp compensation term A_avg * d0 folded
    into delta_b) is turned into per-pixel normal equations, box-averaged
    over winsize x winsize, and solved. Near-singular pixels get zero flow.
    All arrays are ``(K, H, W)`` stacks, one frame per pair.
    """
    from scipy import ndimage

    w11, w12, w22, wb1, wb2 = _warp_expansion(next_exp, u, v)
    a11 = 0.5 * (prev_exp.a11 + w11)
    a12 = 0.5 * (prev_exp.a12 + w12)
    a22 = 0.5 * (prev_exp.a22 + w22)
    db1 = -0.5 * (wb1 - prev_exp.b1) + a11 * u + a12 * v
    db2 = -0.5 * (wb2 - prev_exp.b2) + a12 * u + a22 * v

    # Normal equations of A d = db, accumulated over the averaging window.
    g11 = a11 * a11 + a12 * a12
    g12 = a12 * (a11 + a22)
    g22 = a12 * a12 + a22 * a22
    h1 = a11 * db1 + a12 * db2
    h2 = a12 * db1 + a22 * db2

    box = lambda f: ndimage.uniform_filter(f, size=(1, winsize, winsize), mode="nearest")
    g11, g12, g22 = box(g11), box(g12), box(g22)
    h1, h2 = box(h1), box(h2)

    det = g11 * g22 - g12 * g12
    ok = det >= SINGULAR_DET_EPS
    safe_det = np.where(ok, det, 1.0)
    new_u = np.where(ok, (g22 * h1 - g12 * h2) / safe_det, 0.0)
    new_v = np.where(ok, (g11 * h2 - g12 * h1) / safe_det, 0.0)
    return new_u, new_v


def _expansion_slice(exp: PolyExpansion, index) -> PolyExpansion:
    return PolyExpansion(*(f[index] for f in (exp.a11, exp.a12, exp.a22, exp.b1, exp.b2)))


def farneback_flow(
    prev: np.ndarray, next: np.ndarray, params: FarnebackParams | None = None
) -> FlowField:
    """Estimate dense flow from ``prev`` to ``next`` coarse-to-fine.

    ``next`` is one ``(H, W)`` frame, or a ``(K, H, W)`` stack of the K
    frames that follow ``prev``. The flow then has shape ``(K, H, W)``: its
    ``[k]`` is the flow of the consecutive pair ``(next[k - 1], next[k])``
    (``(prev, next[0])`` for k = 0), bit-identical to a two-frame call on
    that pair. Each frame is expanded once per pyramid level.
    """
    if params is None:
        params = FarnebackParams()
    params.validate()
    prev = np.asarray(prev, dtype=np.float64)
    next = np.asarray(next, dtype=np.float64)
    if prev.ndim != 2 or next.ndim not in (2, 3):
        raise ValueError(
            f"expected an (H, W) prev and an (H, W) or (K, H, W) next, got "
            f"shapes {prev.shape} and {next.shape}"
        )
    if prev.shape != next.shape[-2:]:
        raise ValueError(f"frame shapes differ: {prev.shape} vs {next.shape}")
    stack = np.concatenate([prev[None], next.reshape((-1,) + prev.shape)])

    pyramid = [stack]
    for _ in range(params.levels - 1):
        pyramid.append(pyramid_downsample(pyramid[-1], params.pyr_scale))

    u = v = None
    for level in reversed(pyramid):
        h, w = level.shape[-2:]
        if u is None:
            u = np.zeros((len(level) - 1, h, w))
            v = np.zeros((len(level) - 1, h, w))
        else:
            u = resize_bilinear(u, w, h) / params.pyr_scale
            v = resize_bilinear(v, w, h) / params.pyr_scale
        exp = poly_expand(level, params.poly_n, params.poly_sigma)
        prev_exp = _expansion_slice(exp, slice(None, -1))
        next_exp = _expansion_slice(exp, slice(1, None))
        for _ in range(params.iterations):
            u, v = _flow_update(prev_exp, next_exp, u, v, params.winsize)

    u = np.nan_to_num(u, nan=0.0, posinf=0.0, neginf=0.0)
    v = np.nan_to_num(v, nan=0.0, posinf=0.0, neginf=0.0)
    if next.ndim == 2:
        u, v = u[0], v[0]
    return FlowField(u=u, v=v)
