"""Power Doppler formation, velocity estimation, and image-quality metrics.

Velocity uses the lag-one autocorrelation (Kasai) estimator with positive
values toward the probe. Contrast metrics follow the usual dB ratios over
blood and tissue regions of interest; standard deviations are population
(ddof 0) throughout. Power and velocity sum over a column-major complex128
copy of the blood matrix, whatever its precision and memory order, so a
filter's metrics equal those of its blood estimate read back from a
dataset file.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class PowerDopplerImage:
    """Nonnegative per-pixel power averaged over an ensemble of frames."""

    values: np.ndarray
    ensemble: int


def power_doppler(b, nz, nx):
    """Average power of the blood signal per pixel.

    Parameters
    ----------
    b : ndarray
        Casorati matrix (nz*nx, ensemble), pixels in column-major order.
    nz, nx : int
        Image dimensions.

    Returns
    -------
    PowerDopplerImage
    """
    b = np.asarray(b, dtype=np.complex128, order="F")
    if b.ndim != 2 or b.shape[0] != nz * nx:
        raise ValueError(f"matrix of shape {b.shape} does not unpack as {nz}x{nx} pixels")
    if b.shape[1] < 1:
        raise ValueError("need at least one frame")
    power = np.mean(np.abs(b) ** 2, axis=1)
    return PowerDopplerImage(values=power.reshape(nz, nx, order="F"),
                             ensemble=b.shape[1])


def doppler_velocity(b, prf, f0, c=1540.0):
    """Axial velocity per pixel from the lag-one autocorrelation phase.

    v = (c * prf / (4 pi f0)) * arg(sum_t B(t+1) conj(B(t))), converted to
    mm/s. Positive velocities point toward the probe. prf is the pulse
    repetition frequency of the ensemble actually fed in; pass the frame
    rate when operating on a frame sequence.

    Parameters
    ----------
    b : ndarray
        Casorati matrix (pixels, ensemble), ensemble >= 2.
    prf, f0 : float
        Repetition and center frequency, Hz.
    c : float
        Speed of sound, m/s.

    Returns
    -------
    (velocity, low_confidence)
        mm/s per pixel, and a flag marking pixels whose autocorrelation
        magnitude vanished (their velocity is reported as 0).
    """
    b = np.asarray(b, dtype=np.complex128, order="F")
    if b.ndim != 2 or b.shape[1] < 2:
        raise ValueError("velocity estimation needs an ensemble of at least 2 frames")
    autocorr = np.sum(b[:, 1:] * np.conj(b[:, :-1]), axis=1)
    low_confidence = np.abs(autocorr) == 0.0
    phase = np.where(low_confidence, 0.0, np.angle(autocorr))
    return c * prf / (4.0 * np.pi * f0) * phase * 1e3, low_confidence


def check_rois(pd, blood, tissue):
    """Return both ROI masks as booleans; refuse masks that miss the image
    shape, are empty or overlap."""
    blood = np.asarray(blood, dtype=bool)
    tissue = np.asarray(tissue, dtype=bool)
    if blood.shape != pd.values.shape or tissue.shape != pd.values.shape:
        raise ValueError("ROI masks must match the image shape")
    if not blood.any() or not tissue.any():
        raise ValueError("ROI masks must be non-empty")
    if np.any(blood & tissue):
        raise ValueError("blood and tissue ROIs must be disjoint")
    return blood, tissue


def cnr(pd, blood, tissue):
    """Contrast-to-noise ratio 10*log10((mean_b - mean_t) / std_t) in dB."""
    blood, tissue = check_rois(pd, blood, tissue)
    std_t = pd.values[tissue].std()
    if std_t == 0.0:
        raise ValueError("tissue ROI has zero variance; CNR undefined")
    contrast = pd.values[blood].mean() - pd.values[tissue].mean()
    if contrast <= 0.0:
        raise ValueError(
            f"blood mean does not exceed tissue mean (difference {contrast:.3e}); "
            "CNR undefined")
    return 10.0 * np.log10(contrast / std_t)


def snr(pd, blood, tissue):
    """Signal-to-noise ratio 10*log10(mean_b / std_t) in dB."""
    blood, tissue = check_rois(pd, blood, tissue)
    std_t = pd.values[tissue].std()
    if std_t == 0.0:
        raise ValueError("tissue ROI has zero variance; SNR undefined")
    mean_b = pd.values[blood].mean()
    if mean_b <= 0.0:
        raise ValueError("blood ROI has zero mean power; SNR undefined")
    return 10.0 * np.log10(mean_b / std_t)


def psl(pd, blood, tissue):
    """Peak-to-sidelobe level 10*log10(max_b / mean_t) in dB."""
    blood, tissue = check_rois(pd, blood, tissue)
    mean_t = pd.values[tissue].mean()
    if mean_t <= 0.0:
        raise ValueError("tissue ROI has zero mean power; PSL undefined")
    peak = pd.values[blood].max()
    if peak <= 0.0:
        raise ValueError("blood ROI has zero peak power; PSL undefined")
    return 10.0 * np.log10(peak / mean_t)


def r_squared(estimate, truth, mask):
    """Least-squares fit of estimate against truth over the mask.

    Returns
    -------
    (r2, slope, intercept)
        Coefficient of determination of the fitted line and its
        parameters.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask selects no pixels")
    x = np.asarray(truth, dtype=float)[mask].ravel()
    y = np.asarray(estimate, dtype=float)[mask].ravel()
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values under the mask; fit undefined")
    if np.ptp(x) == 0.0:
        raise ValueError("truth is constant over the mask; fit undefined")
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    ss_res = float(np.sum(residual ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0, float(slope), float(intercept)
    return 1.0 - ss_res / ss_tot, float(slope), float(intercept)
