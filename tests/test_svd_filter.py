import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert np.array_equal(b, d) and b.dtype == d.dtype

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

    @pytest.mark.parametrize("low_cut, high_cut", [(-1, None), (3, 3), (200, None), (500, None),
                                                   (0, 201)])
    def test_band_refused_before_any_factorization(self, monkeypatch, low_cut, high_cut):
        def refuse(*args, **kwargs):
            raise AssertionError("factorized before the band was checked")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        d = np.ones((300, 200), dtype=np.complex64)
        with pytest.raises(ValueError, match="cutoff band .* invalid for rank 200"):
            svdfilt.band_filter(d, low_cut=low_cut, high_cut=high_cut)

    def test_wide_input_filters_through_its_transpose(self):
        d = crandn(np.random.default_rng(6), (5, 9))
        b = svdfilt.svd_clutter_filter(d, svdfilt.SvdCutoffs(1, 4))
        assert np.array_equal(b, svdfilt.svd_clutter_filter(d.T, svdfilt.SvdCutoffs(1, 4)).T)
        u, s, vh = np.linalg.svd(d, full_matrices=False)
        want = (u[:, 1:4] * s[1:4]) @ vh[1:4]
        assert np.linalg.norm(b - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
    @pytest.mark.parametrize("shape", [(9, 5), (5, 9)])
    def test_blood_keeps_the_reconstructions_dtype_and_c_order(self, dtype, shape):
        # a real input stays real, and a wide one's blood is not a transposed view
        r = np.random.default_rng(7)
        d = (crandn(r, shape) if np.iscomplexobj(dtype(0)) else r.standard_normal(shape))
        b = svdfilt.svd_clutter_filter(d.astype(dtype), svdfilt.SvdCutoffs(1, 4))
        assert b.dtype == dtype and b.flags.c_contiguous


def exact_band(seed, shape, s, low_cut, high_cut):
    """P diag(s) Q^H with orthonormal P and Q, and its band low_cut+1 .. high_cut."""
    r = np.random.default_rng(seed)
    p, _ = np.linalg.qr(crandn(r, (shape[0], s.size)))
    q, _ = np.linalg.qr(crandn(r, (shape[1], s.size)))
    band = slice(low_cut, high_cut)
    return (p * s) @ q.conj().T, (p[:, band] * s[band]) @ q[:, band].conj().T


def svd_error_bound(x, low_cut, high_cut):
    """The band_filter docstring's error bound for its SVD fallback on x.

    The same Davis-Kahan form as the Gram route's, with
    eta = (sqrt(rows) + n) * eps * s_1 (s_c + s_(c+1)) at each cut, plus the
    reconstruction's own rounding, (sqrt(rows) + n) * eps * s_1.
    """
    s = np.linalg.svd(x, compute_uv=False)
    unit = (np.sqrt(max(x.shape)) + s.size) * np.finfo(np.float64).eps * s[0]
    err = unit
    for c in (low_cut, high_cut):
        if 0 < c < s.size:
            err += unit * (s[c - 1] + s[c]) / (s[c - 1] - s[c])
    return err / np.linalg.norm(s[low_cut:high_cut])


class TestGramRoute:
    def test_steep_spectrum_takes_the_svd(self, monkeypatch):
        # the Gram route alone is about 1e-5 off here: G's rounding swamps s_41 ** 2
        x, want = exact_band(0, (500, 50), np.geomspace(1.0, 1e-7, 50), 40, 50)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        blood, _ = svdfilt.band_filter(x, low_cut=40)
        assert calls
        assert np.linalg.norm(blood - want) <= 1e-9 * np.linalg.norm(want)

    def test_desk_spectra_stay_on_the_gram_route(self, monkeypatch, desk_ensemble):
        wide = desk_ensemble.astype(np.complex128)
        u, s, vh = np.linalg.svd(wide, full_matrices=False)
        low = svdfilt.estimate_low_cut(s)
        want = ((u[:, low:] * s[low:]) @ vh[low:]).astype(np.complex64)

        def refuse(*args, **kwargs):
            raise AssertionError("fell back to the SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        blood, got_low = svdfilt.band_filter(desk_ensemble)
        assert got_low == low
        assert blood.dtype == np.complex64
        assert np.linalg.norm(blood - want) <= 1e-8 * np.linalg.norm(want)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 120), cols=st.integers(2, 40),
           floor_exp=st.floats(-7.0, -0.1), low_frac=st.floats(0.0, 1.0),
           high_frac=st.one_of(st.none(), st.floats(0.0, 1.0)),
           single=st.booleans(), scale_exp=st.floats(-3.0, 3.0))
    def test_blood_within_the_documented_bound(self, seed, rows, cols, floor_exp, low_frac,
                                               high_frac, single, scale_exp):
        rank = min(rows, cols)
        s = np.geomspace(1.0, 10.0 ** floor_exp, rank) * 10.0 ** scale_exp
        low = min(int(low_frac * rank), rank - 1)
        high = rank if high_frac is None else low + 1 + int(high_frac * (rank - low - 1))
        x, want = exact_band(seed, (rows, cols), s, low, high)
        if single:
            # the exact band of the matrix the filter sees, to the SVD's accuracy
            x = x.astype(np.complex64)
            u, sv, vh = np.linalg.svd(x.astype(np.complex128), full_matrices=False)
            want = (u[:, low:high] * sv[low:high]) @ vh[low:high]
        wide = x.astype(np.complex128)
        tall = wide.T if rows < cols else wide
        lam = np.linalg.eigvalsh(tall.conj().T @ tall)[::-1]
        gram = svdfilt._gram_error_bound(lam, low, high, tall.shape[0])
        svd_bound = svd_error_bound(wide, low, high)
        blood, _ = svdfilt.band_filter(x, low_cut=low, high_cut=None if high == rank else high)
        assert blood.dtype == x.dtype
        # the route's bound, the reference's own error, a floor for the
        # products' rounding and, in single precision, the narrowing
        route = gram if gram <= svdfilt.GRAM_TARGET else svd_bound
        tol = route + svd_bound + 1e-12 + (2.0 ** -23 if single else 0.0)
        err = np.linalg.norm(blood.astype(np.complex128) - want) / np.linalg.norm(want)
        assert err <= tol


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
