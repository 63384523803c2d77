"""Singular-value-band clutter filter: drop leading (tissue) components, keep a band."""

from dataclasses import dataclass

import numpy as np

# Relative blood error the Gram route may reach, by its first-order bound;
# where the bound misses it, band_filter takes an SVD of the data instead.
GRAM_TARGET = 1e-8


@dataclass
class SvdCutoffs:
    """Kept band of singular components; high_cut None means full rank."""

    low_cut: int
    high_cut: int | None = None


def svd_clutter_filter(d_mat, cut):
    """Reconstruct d_mat from singular components low_cut+1 .. high_cut (1-indexed)."""
    return band_filter(d_mat, cut.low_cut, cut.high_cut)[0]


def band_filter(d_mat, low_cut=None, high_cut=None, fraction=0.01):
    """svd_clutter_filter from one eigendecomposition, which also picks low_cut when it is None.

    X is the input widened to double precision, complex128 for a complex
    input; a wide input is filtered through its transpose, so G = X^H X is
    n = min(shape) square. One np.linalg.eigh of
    G gives the right singular vectors V and the spectrum s = sqrt(eig(G)),
    clipped at 0, in descending order; a missing low_cut is
    estimate_low_cut(s, fraction). The blood is X - (X V_t) V_t^H, V_t the
    low_cut leading vectors, or (X V_band) V_band^H with a high cut: a
    tall ensemble's cost is two thin products, and no basis of its rows is
    formed. fraction and the band are checked before G is formed. Keeping
    the whole band returns a copy of the input, bit for bit. The blood is
    C-ordered and in X's dtype, narrowed back for a single-precision input,
    as the SVD's reconstruction was.

    Forming G squares the condition number. By Weyl, each computed
    eigenvalue lam_i lies within eta = (sqrt(rows) + n) * eps * lam_1 of
    G's: sqrt(rows) * eps * lam_1 for the rounding of G's inner products,
    taken as a random walk, and n * eps * lam_1 for eigh's backward error
    on the n x n G. By the
    Davis-Kahan sin-theta argument, weighted by X's singular values, a cut
    between components c and c + 1 moves the blood by at most

        eta * (s_c + s_(c+1)) / (lam_c - lam_(c+1) - 2 eta)

    in Frobenius norm, to first order, with s_i = sqrt(lam_i + eta). The
    sum over the band's cuts, divided by the smallest blood norm the
    spectrum allows, sqrt(sum(lam_band) - len(band) * eta), is the relative
    error bound. Where it exceeds GRAM_TARGET (1e-8), or a gap is not wider
    than 2 eta, the band comes from an economy SVD of X instead; the SVD's
    own error has the same form with eta = (sqrt(rows) + n) * eps * s_1
    (s_c + s_(c+1)), a factor s_1 / (s_c + s_(c+1)) smaller. The low cut
    is read off the Gram spectrum either way: each s_i there is within
    eta / (2 s_i^2) of the SVD's relatively, about 1e-10 at the default
    fraction's threshold of 0.01 s_1 with 10^4 rows and n = 100.

    Returns:
        (blood, low_cut): the band reconstruction and the low cut it used.
    """
    _check_fraction(fraction)
    d_mat = np.asarray(d_mat)
    if d_mat.ndim != 2:
        raise ValueError(f"expected a 2-d Casorati matrix, got {d_mat.ndim} dimensions")
    rank = min(d_mat.shape)
    hi = rank if high_cut is None else high_cut
    _check_band(0 if low_cut is None else low_cut, hi, rank)
    work = np.result_type(d_mat.dtype, np.float64)
    out = d_mat.dtype if d_mat.dtype in (np.float32, np.complex64) else work
    if low_cut == 0 and hi == rank:
        return d_mat.astype(out), 0
    wide = d_mat.shape[0] < d_mat.shape[1]
    x = (d_mat.T if wide else d_mat).astype(work, copy=False)
    lam, vecs = np.linalg.eigh(x.conj().T @ x)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    if low_cut is None:
        low_cut = estimate_low_cut(np.sqrt(np.maximum(lam, 0.0)), fraction)
        _check_band(low_cut, hi, rank)
    band = slice(low_cut, hi)
    if _gram_error_bound(lam, low_cut, hi, x.shape[0]) > GRAM_TARGET:
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        blood = (u[:, band] * s[band]) @ vh[band]
    elif hi == rank:
        top = vecs[:, :low_cut]
        blood = (x @ top) @ top.conj().T
        blood = np.subtract(x, blood, out=blood)
    else:
        blood = (x @ vecs[:, band]) @ vecs[:, band].conj().T
    return np.ascontiguousarray(blood.T if wide else blood, dtype=out), low_cut


def _gram_error_bound(lam, low_cut, high_cut, n_rows):
    """band_filter's first-order relative blood error bound for its Gram route.

    lam holds the computed eigenvalues of G = X^H X in descending order,
    n_rows is the length of G's inner products, and the band is components
    low_cut + 1 .. high_cut (1-indexed). Returns inf where a gap at a cut is
    not wider than twice the eigenvalues' error or the band may be empty.
    """
    eta = (np.sqrt(n_rows) + lam.size) * np.finfo(np.float64).eps * lam[0]
    band_sq = float(lam[low_cut:high_cut].sum()) - (high_cut - low_cut) * eta
    err = 0.0
    for c in (low_cut, high_cut):
        if 0 < c < lam.size:
            gap = lam[c - 1] - lam[c] - 2.0 * eta
            if not gap > 0:
                return np.inf
            err += eta * np.sqrt(np.maximum(lam[c - 1:c + 1] + eta, 0.0)).sum() / gap
    return err / np.sqrt(band_sq) if band_sq > 0 else np.inf


def estimate_low_cut(singular_values, fraction=0.01):
    """Count of leading components to drop: first spot the spectrum falls below fraction*s1."""
    _check_fraction(fraction)
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0:
        raise ValueError("empty singular value list")
    if s.size == 1:
        raise ValueError("need at least two singular values to split a band")
    if not s[0] > 0:
        raise ValueError("leading singular value must be positive")
    if np.any(np.diff(s) > 1e-12 * s[0]):
        raise ValueError("singular values must be non-increasing")
    below = np.nonzero(s[1:] < fraction * s[0])[0]
    k = int(below[0] + 1) if below.size else s.size - 1
    return min(max(k, 1), s.size - 1)


def _check_band(low_cut, high_cut, rank):
    """Refuse a band (low_cut, high_cut] that is empty or outside [0, rank]."""
    if not 0 <= low_cut < high_cut <= rank:
        raise ValueError(f"cutoff band ({low_cut}, {high_cut}] invalid for rank {rank}")


def _check_fraction(fraction):
    """Refuse a spectrum fraction that is not positive and finite."""
    if not 0 < fraction < np.inf:
        raise ValueError(f"fraction must be positive and finite, got {fraction}")
