"""The in-place flow kernels and the separable bilinear blend against the
plain array expressions they replace, byte for byte.

Each ``oracle_*`` function below is the earlier, allocating form of a
kernel, kept as the reference: the rewritten kernels must perform the same
IEEE operations on the same operands in the same order, so any difference
in any bit fails here.
"""

import numpy as np
import pytest
from scipy import ndimage

from potsim import flow
from potsim.flow import (
    SINGULAR_DET_EPS,
    FarnebackParams,
    _flow_update,
    _warp_expansion,
    farneback_flow,
    poly_expand,
)
from potsim.frames import _axis_taps, _blend, resize_bilinear

PARAMS = [
    FarnebackParams(),
    FarnebackParams(poly_n=7, poly_sigma=1.5),
    FarnebackParams(levels=4, winsize=5, iterations=1),
]
PARAM_IDS = ["default", "poly7", "levels4"]

# (K + 1 frames, H, W): one pair, a perfbench-sized block, odd sizes
STACKS = [(2, 24, 40), (5, 64, 64), (4, 33, 17)]


def oracle_blend(frame, rows, cols):
    y0, y1, fy = rows.lo[:, None], rows.hi[:, None], rows.frac[:, None]
    x0, x1, fx = cols.lo, cols.hi, cols.frac
    top = frame[..., y0, x0] * (1 - fx) + frame[..., y0, x1] * fx
    bot = frame[..., y1, x0] * (1 - fx) + frame[..., y1, x1] * fx
    return top * (1 - fy) + bot * fy


def oracle_resize(frame, out_w, out_h):
    src_h, src_w = frame.shape[-2:]
    if (out_w, out_h) == (src_w, src_h):
        return frame.copy()
    return oracle_blend(frame, _axis_taps(src_h, out_h), _axis_taps(src_w, out_w))


def oracle_poly_expand(frame, poly_n, poly_sigma):
    radius = (poly_n - 1) // 2
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-(offsets**2) / (2.0 * poly_sigma**2))
    xg, yg = np.meshgrid(offsets, offsets, indexing="xy")
    basis = np.stack([np.ones_like(xg), xg, yg, xg**2, yg**2, xg * yg]).reshape(6, -1)
    weights2d = np.outer(w, w).ravel()
    gram = (basis * weights2d) @ basis.T
    gram_inv = np.linalg.inv(gram)
    k0, k1, k2 = w, w * offsets, w * offsets**2

    def corr(kx, ky):
        tmp = ndimage.correlate1d(frame, kx, axis=-1, mode="nearest")
        return ndimage.correlate1d(tmp, ky, axis=-2, mode="nearest")

    proj = np.stack(
        [corr(k0, k0), corr(k1, k0), corr(k0, k1), corr(k2, k0), corr(k0, k2), corr(k1, k1)]
    )
    r = np.einsum("ij,j...->i...", gram_inv, proj)
    return np.stack([r[3], 0.5 * r[5], r[4], r[1], r[2]])  # a11, a12, a22, b1, b2


def oracle_warp_expansion(exp, u, v):
    h, w = u.shape[-2:]
    cy = np.clip(np.arange(h, dtype=np.float64)[:, None] + v, 0.0, h - 1.0)
    cx = np.clip(np.arange(w, dtype=np.float64) + u, 0.0, w - 1.0)
    y0, x0 = np.floor(cy), np.floor(cx)
    wy0 = np.subtract(1.0, np.subtract(cy, y0, out=cy), out=cy)
    wx0 = np.subtract(1.0, np.subtract(cx, x0, out=cx), out=cx)
    wy1, wx1 = 1.0 - wy0, 1.0 - wx0
    frame_base = np.arange(u.size // (h * w)).reshape(u.shape[:-2] + (1, 1)) * (h * w)
    i00 = y0.astype(np.intp) * w + x0.astype(np.intp) + frame_base
    down = (y0 < h - 1) * w
    right = x0 < w - 1
    i01 = i00 + right
    i10 = i00 + down
    i11 = i10 + right
    corners = ((i00, wy0, wx0), (i01, wy0, wx1), (i10, wy1, wx0), (i11, wy1, wx1))

    def warp(field):
        flat = field.reshape(-1)
        out = np.zeros(u.shape)
        for index, wy, wx in corners:
            term = flat.take(index)
            term *= wy
            term *= wx
            out += term
        return out

    with np.errstate(invalid="ignore"):
        return tuple(warp(f) for f in exp)


def oracle_flow_update(prev_exp, next_exp, u, v, winsize):
    p11, p12, p22, pb1, pb2 = prev_exp
    w11, w12, w22, wb1, wb2 = oracle_warp_expansion(next_exp, u, v)
    a11 = 0.5 * (p11 + w11)
    a12 = 0.5 * (p12 + w12)
    a22 = 0.5 * (p22 + w22)
    db1 = -0.5 * (wb1 - pb1) + a11 * u + a12 * v
    db2 = -0.5 * (wb2 - pb2) + a12 * u + a22 * v
    g11 = a11 * a11 + a12 * a12
    g12 = a12 * (a11 + a22)
    g22 = a12 * a12 + a22 * a22
    h1 = a11 * db1 + a12 * db2
    h2 = a12 * db1 + a22 * db2

    def box(f):
        return ndimage.uniform_filter(f, size=(1, winsize, winsize), mode="nearest")

    g11, g12, g22 = box(g11), box(g12), box(g22)
    h1, h2 = box(h1), box(h2)
    det = g11 * g22 - g12 * g12
    ok = det >= SINGULAR_DET_EPS
    safe_det = np.where(ok, det, 1.0)
    new_u = np.where(ok, (g22 * h1 - g12 * h2) / safe_det, 0.0)
    new_v = np.where(ok, (g11 * h2 - g12 * h1) / safe_det, 0.0)
    return new_u, new_v


def oracle_pyramid_downsample(frame, scale):
    sigma = 0.6 * np.sqrt(1.0 / scale**2 - 1.0)
    sigmas = (0.0,) * (frame.ndim - 2) + (sigma, sigma)
    blurred = ndimage.gaussian_filter(frame, sigmas, mode="nearest")
    src_h, src_w = frame.shape[-2:]
    out_w = max(8, int(round(src_w * scale)))
    out_h = max(8, int(round(src_h * scale)))
    return oracle_resize(blurred, out_w, out_h)


def oracle_farneback_flow(prev, next, params):
    stack = np.concatenate([prev[None], next.reshape((-1,) + prev.shape)])
    pyramid = [stack]
    for _ in range(params.levels - 1):
        pyramid.append(oracle_pyramid_downsample(pyramid[-1], params.pyr_scale))
    u = v = None
    for level in reversed(pyramid):
        h, w = level.shape[-2:]
        if u is None:
            u = np.zeros((len(level) - 1, h, w))
            v = np.zeros((len(level) - 1, h, w))
        else:
            u = oracle_resize(u, w, h) / params.pyr_scale
            v = oracle_resize(v, w, h) / params.pyr_scale
        exp = oracle_poly_expand(level, params.poly_n, params.poly_sigma)
        for _ in range(params.iterations):
            u, v = oracle_flow_update(exp[:, :-1], exp[:, 1:], u, v, params.winsize)
    u = np.nan_to_num(u, nan=0.0, posinf=0.0, neginf=0.0)
    v = np.nan_to_num(v, nan=0.0, posinf=0.0, neginf=0.0)
    return u, v


def assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def random_stack(shape, seed):
    return np.random.default_rng(seed).uniform(0.0, 255.0, size=shape)


class TestBlend:
    # (H, W) -> (out_h, out_w): up, down, mixed, and axes of one pixel on
    # either side
    CASES = [
        ((24, 40), (64, 64)),
        ((64, 64), (32, 32)),
        ((33, 17), (8, 50)),
        ((1, 40), (5, 40)),
        ((24, 1), (24, 7)),
        ((24, 40), (1, 1)),
        ((24, 40), (1, 13)),
        ((7, 9), (19, 1)),
    ]

    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    @pytest.mark.parametrize("src, dst", CASES)
    def test_matches_oracle(self, lead, src, dst):
        frame = np.random.default_rng(sum(src + dst)).normal(0.0, 100.0, size=lead + src)
        frame.flat[::5] = -0.0
        rows, cols = _axis_taps(src[0], dst[0]), _axis_taps(src[1], dst[1])
        assert_same_bytes(_blend(frame, rows, cols), oracle_blend(frame, rows, cols))
        assert_same_bytes(resize_bilinear(frame, dst[1], dst[0]), oracle_resize(frame, dst[1], dst[0]))


class TestPolyExpand:
    @pytest.mark.parametrize("shape", STACKS)
    @pytest.mark.parametrize("poly_n, poly_sigma", [(5, 1.1), (7, 1.5)])
    def test_matches_oracle(self, shape, poly_n, poly_sigma):
        frames = random_stack(shape, seed=shape[1])
        expected = oracle_poly_expand(frames, poly_n, poly_sigma)
        out = np.full((5,) + shape, np.nan)
        for exp in (poly_expand(frames, poly_n, poly_sigma),
                    poly_expand(frames, poly_n, poly_sigma, out=out)):
            assert_same_bytes(exp, expected)
        assert exp is out

    def test_second_call_leaves_the_first_unchanged(self):
        first = poly_expand(random_stack((3, 32, 32), seed=1), 5, 1.1)
        kept = first.copy()
        poly_expand(random_stack((3, 32, 32), seed=2), 5, 1.1)
        assert_same_bytes(first, kept)


def random_expansion(shape, seed):
    return poly_expand(random_stack(shape, seed), 5, 1.1)


class TestWarpExpansion:
    @pytest.mark.parametrize("shape", STACKS)
    def test_matches_oracle(self, shape):
        rng = np.random.default_rng(shape[2])
        k = shape[0] - 1
        exp = random_expansion(shape, seed=3)[:, 1:]
        u = rng.uniform(-8.0, 8.0, size=(k,) + shape[1:])
        v = rng.uniform(-8.0, 8.0, size=(k,) + shape[1:])
        u[:, ::4] = np.round(u[:, ::4])
        v[:, :2] = -0.0
        expected = oracle_warp_expansion(exp, u, v)
        out = np.empty((5,) + u.shape)
        for warped in (_warp_expansion(exp, u, v), _warp_expansion(exp, u, v, out=out)):
            for actual, reference in zip(warped, expected):
                assert_same_bytes(actual, reference)


class TestFlowUpdate:
    @pytest.mark.parametrize("shape", STACKS)
    @pytest.mark.parametrize("winsize", [5, 15])
    def test_matches_oracle(self, shape, winsize):
        rng = np.random.default_rng(winsize)
        k = shape[0] - 1
        exp = random_expansion(shape, seed=4)
        prev_exp, next_exp = exp[:, :-1], exp[:, 1:]
        u = rng.uniform(-3.0, 3.0, size=(k,) + shape[1:])
        v = rng.uniform(-3.0, 3.0, size=(k,) + shape[1:])
        u[:, :3] = 0.0
        expected_u, expected_v = oracle_flow_update(prev_exp, next_exp, u, v, winsize)
        _flow_update(prev_exp, next_exp, u, v, winsize)
        assert_same_bytes(u, expected_u)
        assert_same_bytes(v, expected_v)


class TestFarnebackFlow:
    @pytest.mark.parametrize("shape", STACKS)
    @pytest.mark.parametrize("params", PARAMS, ids=PARAM_IDS)
    def test_matches_oracle(self, shape, params):
        frames = random_stack(shape, seed=sum(shape))
        expected_u, expected_v = oracle_farneback_flow(frames[0], frames[1:], params)
        u, v = farneback_flow(frames[0], frames[1:], params)
        assert_same_bytes(u, expected_u)
        assert_same_bytes(v, expected_v)

    def test_second_call_leaves_the_first_unchanged(self):
        frames = random_stack((5, 64, 64), seed=5)
        first_u, first_v = farneback_flow(frames[0], frames[1:])
        kept = first_u.copy(), first_v.copy()
        for shape, seed in (((5, 64, 64), 6), ((3, 64, 64), 7), ((2, 16, 16), 8)):
            other = random_stack(shape, seed)
            farneback_flow(other[0], other[1:])
        assert_same_bytes(first_u, kept[0])
        assert_same_bytes(first_v, kept[1])
        workspace = flow._WORKSPACE.buffer
        assert workspace.size > 0
        assert not np.shares_memory(first_u, workspace)
        assert not np.shares_memory(first_v, workspace)
