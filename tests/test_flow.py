import warnings

import numpy as np
import pytest
from scipy import ndimage

from conftest import gaussian_blob, smooth_texture
from potsim.descriptors import compute_series
from potsim.flow import (
    FarnebackParams,
    _expansion_fit,
    _warp_expansion,
    farneback_flow,
    poly_expand,
    pyramid_downsample,
)


def random_stack(k, h=24, w=40, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 255.0, size=(k, h, w))


def assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestPolyExpand:
    def test_constant_frame(self):
        exp = poly_expand(np.full((16, 16), 42.0), 5, 1.1)
        assert exp.shape == (5, 16, 16)
        np.testing.assert_allclose(exp, 0.0, atol=1e-12)

    def test_linear_ramp(self):
        ramp = np.tile(np.arange(32, dtype=float), (32, 1))
        a11, _, _, b1, b2 = poly_expand(ramp, 5, 1.1)
        interior = (slice(4, -4), slice(4, -4))
        np.testing.assert_allclose(b1[interior], 1.0, atol=1e-9)
        np.testing.assert_allclose(b2[interior], 0.0, atol=1e-9)
        np.testing.assert_allclose(a11[interior], 0.0, atol=1e-9)

    def test_quadratic_bowl(self):
        x = np.tile(np.arange(32, dtype=float), (32, 1))
        a11 = poly_expand(x**2, 5, 1.1)[0]
        interior = (slice(4, -4), slice(4, -4))
        np.testing.assert_allclose(a11[interior], 1.0, atol=1e-6)

    def test_brightness_shift_changes_only_c(self):
        frame = smooth_texture(24, seed=5)
        base = poly_expand(frame, 5, 1.1)
        shifted = poly_expand(frame + 17.0, 5, 1.1)
        np.testing.assert_allclose(shifted, base, atol=1e-10)


    def test_stack_matches_per_frame(self):
        stack = random_stack(3)
        exp = poly_expand(stack, 5, 1.1)
        for k in range(3):
            single = poly_expand(stack[k], 5, 1.1)
            assert_same_bytes(exp[:, k], single)


class TestPyramidDownsample:
    def test_constant(self):
        out = pyramid_downsample(np.full((32, 32), 9.0), 0.5)
        np.testing.assert_allclose(out, 9.0)
        assert out.shape == (16, 16)

    def test_half_scale_dimensions(self):
        assert pyramid_downsample(np.zeros((128, 128)), 0.5).shape == (64, 64)

    def test_minimum_size(self):
        assert pyramid_downsample(np.zeros((10, 10)), 0.5).shape == (8, 8)

    def test_impulse_mass_conserved(self):
        # blur preserves mass exactly; decimation scales the sample sum by
        # the sampling density, compensated here via the actual grid ratio.
        img = np.zeros((128, 128))
        img[64, 64] = 1000.0
        out = pyramid_downsample(img, 0.5)
        spacing = (128 - 1) / (out.shape[0] - 1)
        assert out.sum() * spacing**2 == pytest.approx(1000.0, rel=0.02)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            pyramid_downsample(np.zeros((8, 8)), 1.5)

    def test_stack_matches_per_frame(self):
        stack = random_stack(3)
        out = pyramid_downsample(stack, 0.5)
        for k in range(3):
            assert_same_bytes(out[k], pyramid_downsample(stack[k], 0.5))


class TestWarpExpansion:
    """The shared gather against one map_coordinates call per field."""

    def reference(self, field, u, v):
        h, w = field.shape
        yy, xx = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
        coords = np.stack([np.clip(yy + v, 0.0, h - 1.0), np.clip(xx + u, 0.0, w - 1.0)])
        return ndimage.map_coordinates(field, coords, order=1, mode="nearest")

    def test_matches_map_coordinates_bytewise(self):
        rng = np.random.default_rng(3)
        k, h, w = 2, 24, 40
        fields = rng.normal(size=(5, k, h, w))
        fields[0, 0, 5, 7] = np.nan
        fields[1, 1, 10, 20] = np.inf
        fields[2, :, :6, :6] = -0.0  # all four terms -0.0 near the corner
        fields[3, 1, -4:, -4:] = -0.0
        # displacements past every border, integer ones (zero weights) and -0.0
        u = rng.uniform(-60.0, 60.0, size=(k, h, w))
        v = rng.uniform(-40.0, 40.0, size=(k, h, w))
        u[:, ::3] = np.round(u[:, ::3])
        v[:, 1::3] = np.round(v[:, 1::3])
        # coordinates in (0, 1) with all mantissa bits in use, where
        # 1 - (1 - frac) differs from frac
        u[:, :, 0] = rng.uniform(0.0, 1.0, size=(k, h)) ** 3
        v[:, 0, :] = rng.uniform(0.0, 1.0, size=(k, w)) ** 3
        u[:, :8, :8] = -0.0
        v[:, :8, :8] = 0.0
        u[0, -1, -1] = 1e9
        v[1, 0, 0] = -1e9
        warped = _warp_expansion(fields, u, v)
        for field, out in zip(fields, warped):
            for i in range(k):
                assert_same_bytes(out[i], self.reference(field[i], u[i], v[i]))


class TestFlowStack:
    def test_matches_separate_pair_calls(self):
        params = FarnebackParams()
        for k in (1, 3):
            frames = random_stack(k + 1, seed=k)
            u, v = farneback_flow(frames[0], frames[1:], params)
            assert u.shape == v.shape == (k, 24, 40)
            for i in range(k):
                pair_u, pair_v = farneback_flow(frames[i], frames[i + 1], params)
                assert_same_bytes(u[i], pair_u)
                assert_same_bytes(v[i], pair_v)

    @pytest.mark.parametrize("shape", [(2, 23, 40), (2, 24, 41), (1, 2, 24, 40)])
    def test_bad_stack_shape(self, shape):
        with pytest.raises(ValueError):
            farneback_flow(np.zeros((24, 40)), np.zeros(shape))


class TestFarnebackFlow:
    def test_zero_motion(self):
        tex = smooth_texture(64, seed=2)
        u, v = farneback_flow(tex, tex)
        assert max(np.abs(u).max(), np.abs(v).max()) <= 1e-3

    def test_both_constant(self):
        u, v = farneback_flow(np.full((32, 32), 77.0), np.full((32, 32), 77.0))
        np.testing.assert_array_equal(u, 0.0)
        np.testing.assert_array_equal(v, 0.0)

    def test_blob_shift(self):
        prev = gaussian_blob(60, 64, 128, sigma=6.0)
        nxt = gaussian_blob(63, 64, 128, sigma=6.0)
        u, v = farneback_flow(prev, nxt)
        gy, gx = np.gradient(prev)
        textured = np.hypot(gx, gy) > 5
        mean = np.array([u[textured].mean(), v[textured].mean()])
        assert np.hypot(*(mean - [3.0, 0.0])) <= 0.5

    @pytest.mark.parametrize("shift", [1, 2, 3, 4])
    def test_translation_recovery(self, shift):
        tex = smooth_texture(128, seed=11)
        nxt = np.roll(tex, shift, axis=1)
        u, v = farneback_flow(tex, nxt)
        gy, gx = np.gradient(tex)
        textured = np.hypot(gx, gy) > 1.0
        textured[:10] = textured[-10:] = False
        textured[:, :10] = textured[:, -10:] = False
        err = np.hypot(u[textured] - shift, v[textured]).mean()
        assert err <= 0.5

    def test_horizontal_flip_negates_u(self):
        tex = smooth_texture(96, seed=4)
        nxt = np.roll(tex, 2, axis=1)
        u, v = farneback_flow(tex, nxt)
        flipped_u, flipped_v = farneback_flow(tex[:, ::-1], nxt[:, ::-1])
        interior = (slice(12, -12), slice(12, -12))
        assert np.abs(u[:, ::-1] + flipped_u)[interior].max() <= 1e-3
        assert np.abs(v[:, ::-1] - flipped_v)[interior].max() <= 1e-3

    def test_finite_output(self):
        rng = np.random.default_rng(0)
        prev = rng.uniform(0, 255, size=(40, 40))
        nxt = rng.uniform(0, 255, size=(40, 40))
        u, v = farneback_flow(prev, nxt)
        assert np.isfinite(u).all()
        assert np.isfinite(v).all()

    def test_float32_flow_float64_series(self):
        """The solve, and so the fields returned, is float32; the series
        built from them are float64. On 0/255 binary noise, where the
        systems are least smooth, the flow is finite and no overflow or
        invalid-value warning is raised at any size."""
        rng = np.random.default_rng(13)
        for size in (8, 32, 128):
            frames = 255.0 * rng.integers(0, 2, size=(3, size, size))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                u, v = farneback_flow(frames[0], frames[1:])
                hof, hog = compute_series(frames)
            assert u.dtype == v.dtype == np.float32
            assert np.isfinite(u).all() and np.isfinite(v).all()
            assert hof.dtype == hog.dtype == np.float64
            assert hof.shape == hog.shape == (2, 200)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            farneback_flow(np.zeros((8, 8)), np.zeros((8, 9)))


class TestFarnebackParams:
    def test_defaults_valid(self):
        FarnebackParams().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pyr_scale": 1.0},
            {"levels": 0},
            {"winsize": 4},
            {"iterations": 0},
            {"poly_n": 4},
            {"poly_sigma": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FarnebackParams(**kwargs).validate()

    def test_expansion_fit_is_cached_read_only(self):
        """The fit is made once per (poly_n, poly_sigma), so validate() and
        poly_expand, which run on every flow call, reuse it; its arrays
        cannot be written to."""
        fit = _expansion_fit(7, 1.5)
        assert _expansion_fit(7, 1.5) is fit
        for array in fit:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_failed_expansion_fit_is_not_cached(self):
        size = _expansion_fit.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="singular"):
                _expansion_fit(5, 0.01)
        assert _expansion_fit.cache_info().currsize == size
