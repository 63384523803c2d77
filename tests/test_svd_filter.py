import numpy as np
import pytest

from microflow import svdfilt


def crandn(r, shape):
    return r.standard_normal(shape) + 1j * r.standard_normal(shape)


def two_component_matrix(seed, s1=100.0, s2=1.0):
    r = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(crandn(r, (8, 2)))
    q2, _ = np.linalg.qr(crandn(r, (6, 2)))
    return q1, q2, s1 * np.outer(q1[:, 0], q2[:, 0].conj()) + s2 * np.outer(q1[:, 1], q2[:, 1].conj())


class TestSvdClutterFilter:
    def test_keep_everything(self):
        r = np.random.default_rng(0)
        d = crandn(r, (7, 5))
        b = svdfilt.svd_clutter_filter(d, svdfilt.SvdCutoffs(low_cut=0))
        assert np.linalg.norm(b - d) <= 1e-10 * np.linalg.norm(d)

    def test_empty_band_rejected(self):
        d = crandn(np.random.default_rng(1), (5, 4))
        with pytest.raises(ValueError):
            svdfilt.svd_clutter_filter(d, svdfilt.SvdCutoffs(low_cut=4))

    def test_removes_dominant_component(self):
        q1, q2, d = two_component_matrix(2)
        b = svdfilt.svd_clutter_filter(d, svdfilt.SvdCutoffs(low_cut=1))
        want = 1.0 * np.outer(q1[:, 1], q2[:, 1].conj())
        assert np.linalg.norm(b - want) <= 1e-10 * np.linalg.norm(d)

    def test_linearity(self):
        r = np.random.default_rng(3)
        d = crandn(r, (9, 6))
        cut = svdfilt.SvdCutoffs(low_cut=2, high_cut=5)
        b1 = svdfilt.svd_clutter_filter(d, cut)
        b2 = svdfilt.svd_clutter_filter(3.5 * d, cut)
        assert np.allclose(b2, 3.5 * b1, rtol=1e-9, atol=1e-12 * np.linalg.norm(d))

    def test_energy_split(self):
        r = np.random.default_rng(4)
        d = crandn(r, (10, 7))
        cut = svdfilt.SvdCutoffs(low_cut=3)
        kept = svdfilt.svd_clutter_filter(d, cut)
        removed = d - kept
        total = np.linalg.norm(d) ** 2
        assert abs(np.linalg.norm(kept) ** 2 + np.linalg.norm(removed) ** 2 - total) <= 1e-9 * total

    def test_band_validation(self):
        d = crandn(np.random.default_rng(5), (5, 4))
        for bad in (svdfilt.SvdCutoffs(-1), svdfilt.SvdCutoffs(2, 2), svdfilt.SvdCutoffs(0, 5)):
            with pytest.raises(ValueError):
                svdfilt.svd_clutter_filter(d, bad)


class TestEstimateLowCut:
    def test_scan_case(self):
        assert svdfilt.estimate_low_cut(np.array([100.0, 50.0, 0.5, 0.1])) == 2

    def test_flat_spectrum_clamps_high(self):
        assert svdfilt.estimate_low_cut(np.array([5.0, 5.0, 5.0, 5.0])) == 3

    def test_immediate_drop_clamps_low(self):
        assert svdfilt.estimate_low_cut(np.array([1.0, 1e-9])) == 1

    def test_fraction_override(self):
        s = np.array([100.0, 60.0, 30.0, 1.0])
        assert svdfilt.estimate_low_cut(s, fraction=0.5) == 2
        assert svdfilt.estimate_low_cut(s, fraction=0.02) == 3

    @pytest.mark.parametrize("fraction", [0.0, -0.5, np.nan, np.inf])
    def test_fraction_must_be_positive_and_finite(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            svdfilt.estimate_low_cut(np.array([100.0, 50.0, 0.5]), fraction)
        # band_filter checks it even when a given low_cut leaves it unused
        with pytest.raises(ValueError, match="fraction"):
            svdfilt.band_filter(np.eye(3, dtype=complex), low_cut=1, fraction=fraction)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            svdfilt.estimate_low_cut(np.array([]))
        with pytest.raises(ValueError):
            svdfilt.estimate_low_cut(np.array([1.0, 2.0, 0.5]))
        with pytest.raises(ValueError):
            svdfilt.estimate_low_cut(np.array([0.0, 0.0]))
