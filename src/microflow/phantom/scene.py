"""Phantom scene assembly and motion.

The tissue region is a short cylinder of radius 17.5 mm squeezed axially by
the deformation diag(1, 1, 0.8) and rotated by a random angle within
[-10, 10] degrees, viewed as its lateral-axial midplane ellipse. Flow units
are arranged radially inside it, each hydraulically solved and rescaled to
its sampled root velocity.

The simulation is quasi-2D: scatterers live in the imaging plane at 10 per
2-D resolution cell, the planar density of a slab 10 / (189 * cell area) mm
thick (about 0.21 mm at 7.5 MHz) holding the volumetric 189 per mm^3. Tissue
scatterer amplitudes average 20 times the flow amplitudes.

Motion combines a parametric compression cycle, strain
eps(t) = strain_max * sin^2(pi * cycle_hz * t) applied as axial squeeze
u_z = -eps * z with lateral bulge u_x = 0.5 * eps * x, and Poiseuille
advection of the flow scatterers along their vessel with recycling at the
outlet.

Deterministic RNG streams off the scene seed: 0 placement/rotation,
(1, slot) per-unit geometry, 2 tissue scatterers, 3 flow scatterers;
imaging adds (4, frame) for noise.
"""

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry, hydraulics, imaging

AMPLITUDE_RATIO = 20.0  # mean tissue amplitude over mean flow amplitude
AXIAL_SQUEEZE = 0.8     # deformation matrix diag(1, 1, 0.8), axial entry
GRID_MARGIN_MM = 2.0    # imaging grid margin beyond the tissue boundary
INNER_OFFSET_MM = 3.0   # center to each unit's root inlet, radially

_log = logging.getLogger(__name__)


def area_density_mm2():
    """Planar scatterer density: 10 per 2-D resolution cell of PhantomScene's probe."""
    fwhm_z, fwhm_x = imaging.psf_fwhm_mm(PhantomScene.center_freq)
    return 10.0 / (fwhm_z * fwhm_x)


@dataclass
class PhantomScene:
    """Immutable description of one randomized phantom.

    Positions are (x, z) in mm with z the axial depth (away from the
    probe). Flow scatterers are parameterized by their vessel edge, the
    arc length s0 along it, and the signed radial offset r; the edge_*
    arrays form a flat table over all vessels of all units. The first
    positions_at call caches the flow terms that do not depend on time.
    """

    seed: int
    ellipse_axes: np.ndarray
    rotation_deg: float
    pixel_mm: float
    x0: float
    z0: float
    nx: int
    nz: int
    tissue_pos: np.ndarray
    tissue_amp: np.ndarray
    flow_s0: np.ndarray
    flow_r: np.ndarray
    flow_amp: np.ndarray
    flow_edge_idx: np.ndarray
    edge_start: np.ndarray
    edge_dir: np.ndarray
    edge_len: np.ndarray
    edge_radius: np.ndarray
    edge_vmax: np.ndarray
    strain_max: float = 0.02
    cycle_hz: float = 1.0 / 3.0
    snr_db: float = 25.0
    frame_rate: float = 1000.0
    prf: float = 5000.0
    center_freq: float = 7.5e6

    def strain_at(self, t):
        """Axial strain of the compression cycle at time t (seconds)."""
        return self.strain_max * np.sin(np.pi * self.cycle_hz * t) ** 2

    def positions_at(self, t):
        """Scatterer positions at time t.

        Returns
        -------
        (tissue, flow)
            Arrays of (x, z) positions in mm. Tissue follows the strain
            field; flow scatterers advect along their vessel with the
            parabolic profile v(r) = v_max (1 - (r/R)^2), re-entering at
            the inlet on exit, and ride the same strain field.
        """
        if t < 0:
            raise ValueError("time must be nonnegative")
        eps = self.strain_at(t)
        stretch = np.array([1.0 + 0.5 * eps, 1.0 - eps])
        tissue = self.tissue_pos * stretch
        if len(self.flow_s0) == 0:
            return tissue, np.zeros((0, 2))
        start, dirs, length, speed, offset = self._flow_paths
        s = (self.flow_s0 + speed * t) % length
        base = start + s[:, None] * dirs + offset
        return tissue, base * stretch

    @cached_property
    def _flow_paths(self):
        """Each flow scatterer's edge start, direction and length, speed, and r times the normal."""
        idx = self.flow_edge_idx
        dirs = self.edge_dir[idx]
        speed = self.edge_vmax[idx] * (1.0 - (self.flow_r / self.edge_radius[idx]) ** 2)
        normal = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
        return self.edge_start[idx], dirs, self.edge_len[idx], speed, self.flow_r[:, None] * normal


def _sample_in_ellipse(rng, semi_x, semi_z, count):
    """Uniform points inside an axis-aligned ellipse, by rejection."""
    points = np.zeros((0, 2))
    while len(points) < count:
        batch = max(count, 256)
        cand = rng.uniform(-1.0, 1.0, (batch, 2))
        keep = cand[(cand ** 2).sum(axis=1) <= 1.0]
        points = np.vstack([points, keep])
    return points[:count] * np.array([semi_x, semi_z])


def build_phantom(seed, n_units=8, cylinder_radius_mm=17.5, pixel_mm=0.2):
    """Assemble a randomized scene and its solved flow networks.

    A one-line summary is logged at INFO.

    Parameters
    ----------
    seed : int
        Master seed; every random draw derives from it.
    n_units : int
        Flow units, placed at evenly spaced angles around the center.
    cylinder_radius_mm : float
        Radius of the tissue cylinder before deformation; the midplane
        ellipse has semi-axes (radius, 0.8 * radius).
    pixel_mm : float
        Imaging grid pitch; the grid covers the rotated ellipse plus
        GRID_MARGIN_MM.

    Returns
    -------
    (PhantomScene, list of FlowNetwork)
    """
    if n_units < 1 or not (0 < cylinder_radius_mm < np.inf and 0 < pixel_mm < np.inf):
        raise ValueError("n_units must be at least 1, and cylinder_radius_mm and "
                         "pixel_mm positive and finite")
    placement = np.random.default_rng([seed, 0])
    rotation_deg = placement.uniform(-10.0, 10.0)
    variants = placement.integers(1, 9, size=n_units)

    semi_x = cylinder_radius_mm
    semi_z = AXIAL_SQUEEZE * cylinder_radius_mm
    theta = np.deg2rad(rotation_deg)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])

    networks = []
    edge_start, edge_dir, edge_len, edge_radius, edge_vmax = [], [], [], [], []
    for slot in range(n_units):
        unit = geometry.sample_flow_unit([seed, 1, slot], int(variants[slot]))
        net = hydraulics.scale_to_target(hydraulics.build_network(unit),
                                         unit.target_v1)
        networks.append(net)
        phi = theta + 2.0 * np.pi * slot / n_units
        outward = np.array([np.cos(phi), np.sin(phi)])
        tangent = np.array([-np.sin(phi), np.cos(phi)])
        root = INNER_OFFSET_MM * outward
        for e, (p0, p1) in enumerate(geometry.unit_segments(unit)):
            w0 = root + p0[0] * tangent + p0[1] * outward
            w1 = root + p1[0] * tangent + p1[1] * outward
            length = unit.vessels[e].length
            edge_start.append(w0)
            edge_dir.append((w1 - w0) / length)
            edge_len.append(length)
            edge_radius.append(unit.vessels[e].radius)
            edge_vmax.append(net.v_max[e])
    edge_start = np.array(edge_start)
    edge_dir = np.array(edge_dir)
    edge_len = np.array(edge_len)
    edge_radius = np.array(edge_radius)
    edge_vmax = np.array(edge_vmax)

    density = area_density_mm2()
    tissue_rng = np.random.default_rng([seed, 2])
    n_tissue = int(round(density * np.pi * semi_x * semi_z))
    local = _sample_in_ellipse(tissue_rng, semi_x, semi_z, n_tissue)
    tissue_pos = local @ rot.T
    tissue_amp = np.abs(tissue_rng.standard_normal(n_tissue))

    flow_rng = np.random.default_rng([seed, 3])
    flow_s0, flow_r, flow_amp, flow_edge_idx = [], [], [], []
    for e in range(len(edge_len)):
        n_e = int(round(density * edge_len[e] * 2.0 * edge_radius[e]))
        flow_s0.append(flow_rng.uniform(0.0, edge_len[e], n_e))
        flow_r.append(flow_rng.uniform(-edge_radius[e], edge_radius[e], n_e))
        flow_amp.append(np.abs(flow_rng.standard_normal(n_e)) / AMPLITUDE_RATIO)
        flow_edge_idx.append(np.full(n_e, e, dtype=int))

    half_w = np.hypot(semi_x * np.cos(theta), semi_z * np.sin(theta))
    half_h = np.hypot(semi_x * np.sin(theta), semi_z * np.cos(theta))
    x0 = -(half_w + GRID_MARGIN_MM)
    z0 = -(half_h + GRID_MARGIN_MM)
    nx = int(np.ceil(2.0 * (half_w + GRID_MARGIN_MM) / pixel_mm)) + 1
    nz = int(np.ceil(2.0 * (half_h + GRID_MARGIN_MM) / pixel_mm)) + 1

    built = PhantomScene(
        seed=seed,
        ellipse_axes=np.array([semi_x, semi_z]),
        rotation_deg=rotation_deg,
        pixel_mm=pixel_mm,
        x0=x0, z0=z0, nx=nx, nz=nz,
        tissue_pos=tissue_pos,
        tissue_amp=tissue_amp,
        flow_s0=np.concatenate(flow_s0),
        flow_r=np.concatenate(flow_r),
        flow_amp=np.concatenate(flow_amp),
        flow_edge_idx=np.concatenate(flow_edge_idx),
        edge_start=edge_start,
        edge_dir=edge_dir,
        edge_len=edge_len,
        edge_radius=edge_radius,
        edge_vmax=edge_vmax,
    )
    _log.info("phantom seed %s: %s units, %d tissue + %d flow scatterers, "
              "grid %dx%d at %s mm", seed, n_units, len(tissue_pos),
              len(built.flow_s0), nz, nx, pixel_mm)
    return built, networks
