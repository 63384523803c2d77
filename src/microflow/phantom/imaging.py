"""Simplified IQ synthesis: PSF convolution with a demodulated axial carrier.

Each scatterer deposits its complex reflectivity amp * exp(-i 4 pi f0 z / c)
onto the pixel grid with bilinear weights, and the frame is blurred by a
separable Gaussian point spread function (default FWHM of two wavelengths
axially and three laterally). Complex white noise is added per frame at the
requested SNR over the clean signal power. This stands in for a full
plane-wave acoustic simulation; speckle statistics come from the random
scatterer positions, amplitudes and carrier phases.
"""

import logging
from dataclasses import dataclass

import numpy as np

from ..casorati import SOUND_SPEED, FrameSequence

AXIAL_FWHM_WAVELENGTHS = 2.0
LATERAL_FWHM_WAVELENGTHS = 3.0
_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))
_NOISE_STREAM = 4
ROI_CLEARANCE_MM = 1.0        # tissue ROI exclusion beyond each vessel's radius and ends
ROI_BOUNDARY_MARGIN_MM = 2.0  # tissue ROI shrink of both ellipse semi-axes
_log = logging.getLogger(__name__)


def wavelength_mm(center_freq):
    """Acoustic wavelength in mm at SOUND_SPEED."""
    return SOUND_SPEED / center_freq * 1e3


def psf_fwhm_mm(center_freq):
    """(axial, lateral) full width at half maximum of the PSF envelope, mm."""
    lam = wavelength_mm(center_freq)
    return AXIAL_FWHM_WAVELENGTHS * lam, LATERAL_FWHM_WAVELENGTHS * lam


@dataclass
class GroundTruth:
    """Per-pixel truth of one synthesis.

    flow_mask is the vessel lumen on the (nz, nx) pixel grid. axial_velocity
    is in mm/s, positive toward the probe (the Doppler sign convention),
    evaluated from the undeformed vessel geometry.
    """

    flow_mask: np.ndarray
    axial_velocity: np.ndarray


def _gaussian_kernel(sigma):
    """scipy.ndimage's truncated Gaussian kernel for sigma, in pixels.

    exp(-0.5 / sigma^2 * k^2) over k = -r .. r with r = int(4 sigma + 0.5),
    divided by its sum, formed as gaussian_filter forms it, so a blur with
    it has gaussian_filter's bits.
    """
    r = int(4.0 * sigma + 0.5)
    k = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * k ** 2)
    return phi / phi.sum()


def _psf_kernels(scene):
    """(axial, lateral) PSF blur kernels of the scene."""
    return tuple(_gaussian_kernel(fwhm * _FWHM_TO_SIGMA / scene.pixel_mm)
                 for fwhm in psf_fwhm_mm(scene.center_freq))


def _blur(img, kernel, axis):
    """img correlated with a symmetric kernel along axis, zero outside the grid.

    The loop is scipy.ndimage.correlate1d's for a symmetric kernel, in its
    order: out = x w_0, then out += (x[i - j] + x[i + j]) w_j for
    j = r .. 1, on a copy of img padded with r zeros at both ends. So each
    output has the bits of gaussian_filter(..., mode="constant"), signed
    zeros included. The copy holds the blur axis first, so every shifted
    window is one contiguous block; windows along a last axis take about
    four times as long per pass. The result is a view of it in img's axis
    order.
    """
    r = len(kernel) // 2
    x = np.moveaxis(img, axis, 0)
    n = len(x)
    padded = np.zeros((n + 2 * r,) + x.shape[1:])
    padded[r:r + n] = x
    out = padded[r:r + n] * kernel[r]
    tmp = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(padded[r - j:r - j + n], padded[r + j:r + j + n], out=tmp)
        out += np.multiply(tmp, kernel[r - j], out=tmp)
    return np.moveaxis(out, 0, axis)


def _render_frame(positions, amplitudes, scene, kernels):
    """Deposit scatterers bilinearly and blur with the separable PSF.

    The scatterers with no corner in the grid are dropped first, so every
    corner left lies within one pixel of the grid. The deposit goes into the
    grid padded by that pixel on each side, with no per-corner masks, and
    the padding is cropped before the blur. np.bincount adds each bin's
    weights in input order, so each pixel's sum is the same as a masked
    deposit's. The real and imaginary parts are blurred together, along z
    with the axial kernel of _psf_kernels and then along x with the lateral
    one, by _blur.
    """
    nz, nx = scene.nz, scene.nx
    nxp = nx + 2
    size = (nz + 2) * nxp
    acc = np.zeros((2, size))  # real and imaginary parts, blurred in one call
    if len(positions):
        gx = (positions[:, 0] - scene.x0) / scene.pixel_mm
        gz = (positions[:, 1] - scene.z0) / scene.pixel_mm
        ix0 = np.floor(gx).astype(int)
        iz0 = np.floor(gz).astype(int)
        near = (iz0 >= -1) & (iz0 < nz) & (ix0 >= -1) & (ix0 < nx)
        if not near.all():
            positions, amplitudes = positions[near], amplitudes[near]
            gx, gz, ix0, iz0 = gx[near], gz[near], ix0[near], iz0[near]
        phase = -4.0 * np.pi * scene.center_freq \
            * (positions[:, 1] * 1e-3) / SOUND_SPEED
        values = amplitudes * np.exp(1j * phase)
        wx = gx - ix0
        wz = gz - iz0
        wx1, wz1 = 1.0 - wx, 1.0 - wz
        base = (iz0 + 1) * nxp + ix0 + 1
        for dz, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            w = (wz if dz else wz1) * (wx if dx else wx1)
            flat = base + (dz * nxp + dx)
            acc[0] += np.bincount(flat, w * values.real, minlength=size)
            acc[1] += np.bincount(flat, w * values.imag, minlength=size)
    kernel_z, kernel_x = kernels
    img = _blur(_blur(acc.reshape(2, nz + 2, nxp)[:, 1:-1, 1:-1], kernel_z, 1), kernel_x, 2)
    return img[0] + 1j * img[1]


def _vessel_walk(scene, clearance_mm=0.0):
    """Rasterize every vessel on the pixel grid in one pass.

    Returns
    -------
    (grid_x, grid_z, flow_mask, velocity, near)
        Pixel coordinates in mm, the lumen mask, the toward-probe velocity
        map, and the pixels within clearance_mm of any vessel beyond its
        radius and ends.
    """
    xs = scene.x0 + np.arange(scene.nx) * scene.pixel_mm
    zs = scene.z0 + np.arange(scene.nz) * scene.pixel_mm
    grid_x, grid_z = np.meshgrid(xs, zs)
    mask = np.zeros((scene.nz, scene.nx), dtype=bool)
    near = np.zeros_like(mask)
    velocity = np.zeros((scene.nz, scene.nx))
    for e in range(len(scene.edge_len)):
        dx, dz = scene.edge_dir[e]
        rel_x = grid_x - scene.edge_start[e, 0]
        rel_z = grid_z - scene.edge_start[e, 1]
        s = rel_x * dx + rel_z * dz
        r = rel_x * (-dz) + rel_z * dx
        inside = (s >= 0) & (s <= scene.edge_len[e]) \
            & (np.abs(r) <= scene.edge_radius[e])
        profile = scene.edge_vmax[e] * (1.0 - (r / scene.edge_radius[e]) ** 2)
        toward_probe = -profile * dz
        take = inside & (np.abs(toward_probe) > np.abs(velocity))
        velocity[take] = toward_probe[take]
        mask |= inside
        near |= (s >= -clearance_mm) \
            & (s <= scene.edge_len[e] + clearance_mm) \
            & (np.abs(r) <= scene.edge_radius[e] + clearance_mm)
    return grid_x, grid_z, mask, velocity, near


def roi_masks(scene):
    """Blood and tissue evaluation masks from the scene geometry.

    The blood mask is the vessel lumen on the pixel grid. The tissue mask
    keeps pixels inside the deformed ellipse with both semi-axes shrunk by
    ROI_BOUNDARY_MARGIN_MM (2 mm), while excluding everything within
    ROI_CLEARANCE_MM (1 mm) of any vessel beyond its radius and ends, so
    the two regions are disjoint and the tissue sample is not contaminated
    by PSF leakage from the lumen.

    Returns
    -------
    (blood_mask, tissue_mask)
        Boolean (nz, nx) arrays.
    """
    semi_x, semi_z = scene.ellipse_axes
    ax = semi_x - ROI_BOUNDARY_MARGIN_MM
    az = semi_z - ROI_BOUNDARY_MARGIN_MM
    if ax <= 0 or az <= 0:
        raise ValueError("boundary margin swallows the whole ellipse")

    grid_x, grid_z, blood, _, near = _vessel_walk(scene, ROI_CLEARANCE_MM)
    theta = np.deg2rad(scene.rotation_deg)
    local_x = grid_x * np.cos(theta) + grid_z * np.sin(theta)
    local_z = -grid_x * np.sin(theta) + grid_z * np.cos(theta)
    inside = (local_x / ax) ** 2 + (local_z / az) ** 2 <= 1.0
    return blood, inside & ~near


def synthesize_iq(scene, frames, frame_rate=None, noise_snr_db=None):
    """Render the scene into a noisy IQ sequence with ground truth.

    Every 200th rendered frame is logged at INFO.

    Parameters
    ----------
    scene : PhantomScene
    frames : int
        Frame count.
    frame_rate : float or None
        Hz; None takes the scene's rate.
    noise_snr_db : float or None
        SNR of the added complex white noise over the clean signal power;
        np.inf disables noise, while NaN and -inf are refused. None takes
        the scene's setting.

    Returns
    -------
    (FrameSequence, GroundTruth)
        The emitted complex128 sequence, tissue plus blood plus noise, and
        the lumen mask and axial velocity map.
    """
    if frames < 1:
        raise ValueError("need at least one frame")
    rate = scene.frame_rate if frame_rate is None else float(frame_rate)
    if not 0 < rate < np.inf:
        raise ValueError(f"frame_rate must be positive and finite, got {rate}")
    snr_db = scene.snr_db if noise_snr_db is None else float(noise_snr_db)
    if not snr_db > -np.inf:
        raise ValueError(f"snr_db is {snr_db}, expected a number or inf "
                         f"(no noise)")
    try:
        noise_ratio = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db={snr_db} is too low: the noise power overflows") from None

    emitted = np.empty((scene.nz, scene.nx, frames), dtype=np.complex128)
    kernels = _psf_kernels(scene)
    for k in range(frames):
        tissue_xy, flow_xy = scene.positions_at(k / rate)
        np.add(_render_frame(tissue_xy, scene.tissue_amp, scene, kernels),
               _render_frame(flow_xy, scene.flow_amp, scene, kernels), out=emitted[:, :, k])
        if (k + 1) % 200 == 0:
            _log.info("rendered %d/%d frames", k + 1, frames)

    if not np.isinf(snr_db):
        power = np.mean(np.abs(emitted) ** 2)
        sigma = np.sqrt(power * noise_ratio / 2.0)
        for k in range(frames):
            rng = np.random.default_rng([scene.seed, _NOISE_STREAM, k])
            emitted[:, :, k] += sigma * (rng.standard_normal((scene.nz, scene.nx))
                                         + 1j * rng.standard_normal((scene.nz, scene.nx)))

    seq = FrameSequence(voxels=emitted, frame_rate=rate,
                        center_freq=scene.center_freq, prf=scene.prf)
    _, _, mask, velocity, _ = _vessel_walk(scene)
    return seq, GroundTruth(flow_mask=mask, axial_velocity=velocity)
