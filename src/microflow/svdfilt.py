"""Singular-value-band clutter filter: drop leading (tissue) components, keep a band."""

from dataclasses import dataclass

import numpy as np


@dataclass
class SvdCutoffs:
    """Kept band of singular components; high_cut None means full rank."""

    low_cut: int
    high_cut: int | None = None


def svd_clutter_filter(d_mat, cut):
    """Reconstruct d_mat from singular components low_cut+1 .. high_cut (1-indexed)."""
    return band_filter(d_mat, cut.low_cut, cut.high_cut)[0]


def band_filter(d_mat, low_cut=None, high_cut=None, fraction=0.01):
    """svd_clutter_filter from one SVD, which also picks low_cut when it is None.

    A missing low_cut is estimate_low_cut(s, fraction) of that SVD's spectrum
    s, so the data is factorized once. fraction is checked before the SVD
    whether or not it is used. The SVD is the economy one: a full
    left basis would cost O(rows**2) memory on tall matrices. A complex64
    input is factorized in complex128, and its blood narrowed back.

    Returns:
        (blood, low_cut): the band reconstruction and the low cut it used.
    """
    _check_fraction(fraction)
    d_mat = np.asarray(d_mat)
    narrow = d_mat.dtype == np.complex64
    u, s, vh = np.linalg.svd(d_mat.astype(np.complex128) if narrow else d_mat,
                             full_matrices=False)
    low_cut = estimate_low_cut(s, fraction) if low_cut is None else low_cut
    hi = s.size if high_cut is None else high_cut
    if not 0 <= low_cut < hi <= s.size:
        raise ValueError(f"cutoff band ({low_cut}, {hi}] invalid for rank {s.size}")
    band = slice(low_cut, hi)
    blood = (u[:, band] * s[band]) @ vh[band]
    return (blood.astype(np.complex64) if narrow else blood), low_cut


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


def _check_fraction(fraction):
    """Refuse a spectrum fraction that is not positive and finite."""
    if not 0 < fraction < np.inf:
        raise ValueError(f"fraction must be positive and finite, got {fraction}")
