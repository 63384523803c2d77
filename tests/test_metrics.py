"""Power Doppler, velocity estimation, and image-quality metrics.

Frozen references: 10*log10(99) = 19.9563519459755 dB for the CNR example,
and a 0.1 rad/frame phase ramp at 1 kHz, 7.5 MHz, 1540 m/s giving
1.6339907490767922 mm/s from the lag-one autocorrelator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microflow import metrics


def crandn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestPowerDoppler:
    def test_unit_magnitude(self):
        b = np.exp(1j * np.linspace(0, 5, 24)).reshape(6, 4)
        pd = metrics.power_doppler(b, 3, 2)
        np.testing.assert_allclose(pd.values, 1.0, rtol=1e-12)

    def test_zero_input(self):
        pd = metrics.power_doppler(np.zeros((6, 5), dtype=complex), 2, 3)
        assert np.all(pd.values == 0.0)

    def test_matches_two_loop_recompute(self):
        rng = np.random.default_rng(0)
        b = crandn(rng, (12, 7))
        pd = metrics.power_doppler(b, 4, 3)
        expected = np.zeros((4, 3))
        for iz in range(4):
            for ix in range(3):
                row = iz + 4 * ix  # column-major pixel order
                expected[iz, ix] = np.mean(np.abs(b[row, :]) ** 2)
        np.testing.assert_allclose(pd.values, expected, rtol=1e-12)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(1)
        b = crandn(rng, (10, 6))
        base = metrics.power_doppler(b, 5, 2).values
        scaled = metrics.power_doppler(3.0 * b, 5, 2).values
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics.power_doppler(np.ones((10, 3), dtype=complex), 4, 3)


class TestDopplerVelocity:
    def test_constant_phase_is_zero(self):
        b = np.full((5, 8), 2.0 * np.exp(0.7j))
        v, low = metrics.doppler_velocity(b, 1000.0, 7.5e6)
        # hardware fused multiplies leave ~1e-16 in the autocorrelation phase
        np.testing.assert_allclose(v, 0.0, atol=1e-12)
        assert not low.any()

    def test_phase_ramp_frozen_value(self):
        t = np.arange(16)
        b = np.exp(1j * 0.1 * t)[None, :] * np.ones((3, 1))
        v, low = metrics.doppler_velocity(b, 1000.0, 7.5e6)
        np.testing.assert_allclose(v, 1.6339907490767922, rtol=1e-12)
        assert not low.any()

    def test_sign_convention(self):
        # phase decreasing over time: scatterer receding, negative velocity
        t = np.arange(10)
        b = np.exp(-1j * 0.2 * t)[None, :]
        v, _ = metrics.doppler_velocity(b, 1000.0, 7.5e6)
        assert v[0] < 0

    def test_nyquist_bound(self):
        rng = np.random.default_rng(2)
        b = crandn(rng, (40, 12))
        v, _ = metrics.doppler_velocity(b, 1000.0, 7.5e6)
        bound = 1540.0 * 1000.0 / (4.0 * 7.5e6) * 1e3
        assert bound == pytest.approx(51.333333333333336, rel=1e-12)
        assert np.max(np.abs(v)) <= bound * (1 + 1e-12)

    def test_zero_autocorrelation_flagged(self):
        b = np.array([[1.0, 1.0, -1.0]], dtype=complex)
        v, low = metrics.doppler_velocity(b, 1000.0, 7.5e6)
        assert v[0] == 0.0
        assert low[0]

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        b = crandn(rng, (15, 9))
        v0, _ = metrics.doppler_velocity(b, 1000.0, 7.5e6)
        v1, _ = metrics.doppler_velocity(2.5 * b, 1000.0, 7.5e6)
        v2, _ = metrics.doppler_velocity(np.exp(0.4j) * b, 1000.0, 7.5e6)
        np.testing.assert_allclose(v1, v0, rtol=1e-12)
        np.testing.assert_allclose(v2, v0, rtol=1e-9, atol=1e-12)

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError):
            metrics.doppler_velocity(np.ones((4, 1), dtype=complex), 1000.0, 7.5e6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("prf, f0", [(1000.0, 1e-300), (1e306, 1.0)])
    def test_overflowing_velocity_scale_rejected(self, prf, f0):
        b = np.array([[1.0, 1j, -1.0]])
        with pytest.raises(ValueError, match="velocity scale overflows"):
            metrics.doppler_velocity(b, prf, f0)


def two_region_pd(mean_blood, mean_tissue, tissue_spread):
    """8x8 PD image: left half blood at a constant, right half tissue +- spread."""
    values = np.zeros((8, 8))
    values[:, :4] = mean_blood
    values[:, 4:] = mean_tissue
    values[::2, 4:] += tissue_spread
    values[1::2, 4:] -= tissue_spread
    blood = np.zeros((8, 8), dtype=bool)
    blood[:, :4] = True
    tissue = ~blood
    pd = metrics.PowerDopplerImage(values=values)
    return pd, blood, tissue


class TestContrastMetrics:
    def test_cnr_frozen_value(self):
        pd, blood, tissue = two_region_pd(100.0, 1.0, 1.0)
        # tissue std is exactly 1 (half the pixels +1, half -1)
        assert metrics.cnr(pd, blood, tissue) == \
            pytest.approx(19.9563519459755, rel=1e-12)

    def test_snr_twenty_db(self):
        pd, blood, tissue = two_region_pd(100.0, 1.0, 1.0)
        assert metrics.snr(pd, blood, tissue) == pytest.approx(20.0, rel=1e-12)

    def test_psl_thirty_db(self):
        pd, blood, tissue = two_region_pd(1000.0, 1.0, 0.0)
        # max over blood 1000, mean tissue 1
        assert metrics.psl(pd, blood, tissue) == pytest.approx(30.0, rel=1e-12)

    def test_population_std_convention(self):
        values = np.zeros((1, 4))
        values[0, 2:] = [3.0, 7.0]
        pd = metrics.PowerDopplerImage(values=values)
        blood = np.array([[True, True, False, False]])
        tissue = ~blood
        values[0, :2] = 50.0
        expected = 10.0 * np.log10((50.0 - 5.0) / 2.0)  # std([3,7]) = 2, ddof 0
        assert metrics.cnr(pd, blood, tissue) == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance(self):
        pd, blood, tissue = two_region_pd(100.0, 1.0, 1.0)
        scaled = metrics.PowerDopplerImage(values=7.5 * pd.values)
        for fn in (metrics.cnr, metrics.snr, metrics.psl):
            assert fn(scaled, blood, tissue) == \
                pytest.approx(fn(pd, blood, tissue), rel=1e-12)

    def test_matches_recompute(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.5, 2.0, (10, 10))
        values[:5, :5] += 30.0
        blood = np.zeros((10, 10), dtype=bool)
        blood[:5, :5] = True
        tissue = np.zeros((10, 10), dtype=bool)
        tissue[5:, 5:] = True
        pd = metrics.PowerDopplerImage(values=values)
        mb = values[blood].mean()
        mt = values[tissue].mean()
        st = values[tissue].std()
        assert metrics.cnr(pd, blood, tissue) == \
            pytest.approx(10 * np.log10((mb - mt) / st), rel=1e-12)
        assert metrics.snr(pd, blood, tissue) == \
            pytest.approx(10 * np.log10(mb / st), rel=1e-12)
        assert metrics.psl(pd, blood, tissue) == \
            pytest.approx(10 * np.log10(values[blood].max() / mt), rel=1e-12)

    def test_degenerate_rois_rejected(self):
        pd, blood, tissue = two_region_pd(100.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="tissue"):
            metrics.cnr(pd, blood, tissue)  # zero tissue std
        with pytest.raises(ValueError):
            metrics.cnr(pd, blood, np.zeros((8, 8), dtype=bool))  # empty
        with pytest.raises(ValueError, match="disjoint"):
            metrics.cnr(pd, blood, blood)

    def test_no_contrast_rejected(self):
        pd, blood, tissue = two_region_pd(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            metrics.cnr(pd, blood, tissue)


class TestRSquared:
    def test_identity_fit(self):
        rng = np.random.default_rng(5)
        truth = rng.uniform(-30, 30, (6, 6))
        mask = np.ones((6, 6), dtype=bool)
        r2, slope, intercept = metrics.r_squared(truth, truth, mask)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert slope == pytest.approx(1.0, rel=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-10)

    def test_linear_attenuation(self):
        rng = np.random.default_rng(6)
        truth = rng.uniform(-30, 30, (5, 5))
        mask = np.ones((5, 5), dtype=bool)
        r2, slope, _ = metrics.r_squared(0.8 * truth, truth, mask)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert slope == pytest.approx(0.8, rel=1e-12)

    def test_noisy_fit_matches_recompute(self):
        rng = np.random.default_rng(7)
        truth = rng.uniform(-25, 25, 200)
        estimate = 0.7 * truth + 1.5 + rng.normal(0, 2.0, 200)
        mask = np.ones(200, dtype=bool)
        r2, slope, intercept = metrics.r_squared(estimate, truth, mask)
        coef = np.polyfit(truth, estimate, 1)
        fitted = np.polyval(coef, truth)
        ss_res = np.sum((estimate - fitted) ** 2)
        ss_tot = np.sum((estimate - estimate.mean()) ** 2)
        assert slope == pytest.approx(coef[0], rel=1e-10)
        assert intercept == pytest.approx(coef[1], rel=1e-10)
        assert r2 == pytest.approx(1.0 - ss_res / ss_tot, rel=1e-10)
        assert 0.0 <= r2 <= 1.0

    def test_affine_rescaling_of_estimate(self):
        rng = np.random.default_rng(8)
        truth = rng.uniform(-25, 25, 100)
        estimate = truth + rng.normal(0, 3.0, 100)
        mask = np.ones(100, dtype=bool)
        r2_a, _, _ = metrics.r_squared(estimate, truth, mask)
        r2_b, _, _ = metrics.r_squared(4.0 * estimate - 7.0, truth, mask)
        assert r2_b == pytest.approx(r2_a, rel=1e-10)

    def test_mask_applies(self):
        truth = np.array([1.0, 2.0, 3.0, 100.0])
        estimate = np.array([1.0, 2.0, 3.0, -50.0])
        mask = np.array([True, True, True, False])
        r2, slope, _ = metrics.r_squared(estimate, truth, mask)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert slope == pytest.approx(1.0, rel=1e-12)

    def test_constant_truth_rejected(self):
        with pytest.raises(ValueError):
            metrics.r_squared(np.arange(4.0), np.ones(4), np.ones(4, dtype=bool))

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            metrics.r_squared(np.arange(4.0), np.arange(4.0),
                              np.zeros(4, dtype=bool))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_under_mask_rejected(self, bad):
        truth = np.array([1.0, 2.0, bad, 4.0])
        with pytest.raises(ValueError, match="non-finite"):
            metrics.r_squared(np.arange(4.0), truth, np.ones(4, dtype=bool))
        with pytest.raises(ValueError, match="non-finite"):
            metrics.r_squared(truth, np.arange(4.0), np.ones(4, dtype=bool))
        mask = np.array([True, True, False, True])
        assert metrics.r_squared(truth, truth, mask)[0] == pytest.approx(1.0)


def _defined(fn, *args):
    """fn(*args), or None where the metric is undefined for this image."""
    try:
        return fn(*args)
    except ValueError:
        return None


class TestPowerOfTwoScaleInvariance:
    """Scaling the blood by c = 2**j changes no rounding: power scales by
    exactly c**2 and every ratio and phase stays bit-identical."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(-40, 40), nz=st.integers(1, 6),
           nx=st.integers(2, 6), nt=st.integers(2, 12), boost=st.floats(0.0, 10.0))
    def test_exact_under_power_of_two_scaling(self, seed, j, nz, nx, nt, boost):
        rng = np.random.default_rng(seed)
        blood = rng.random((nz, nx)) < 0.5
        blood[0, 0], blood[-1, -1] = True, False
        tissue = ~blood & (rng.random((nz, nx)) < 0.8)
        tissue[-1, -1] = True
        gain = 1.0 + boost * blood.ravel(order="F")
        b = crandn(rng, (nz * nx, nt)) * gain[:, None]
        c = 2.0 ** j
        pd, pd_scaled = (metrics.power_doppler(m, nz, nx) for m in (b, c * b))
        assert np.array_equal(pd_scaled.values, c * c * pd.values)
        for fn in (metrics.cnr, metrics.snr, metrics.psl):
            assert _defined(fn, pd_scaled, blood, tissue) == _defined(fn, pd, blood, tissue)
        (v, low), (v_scaled, low_scaled) = (metrics.doppler_velocity(m, 1000.0, 7.5e6)
                                            for m in (b, c * b))
        assert np.array_equal(v_scaled, v) and np.array_equal(low_scaled, low)
