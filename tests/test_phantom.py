"""Scene assembly, motion, and IQ synthesis.

Frozen references: wavelength 0.20533... mm at 7.5 MHz in 1540 m/s tissue,
and pure-kinematics advection distances checked against v_max * dt.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microflow import casorati
from microflow.phantom import geometry, hydraulics, imaging, scene


def mini_scene(with_flow=True, strain_max=0.02, snr_db=np.inf, v_max=25.0,
               seed=9, n_tissue=300):
    """Small handmade scene: one straight vessel along +z in a 33x33 grid."""
    rng = np.random.default_rng(seed)
    if with_flow:
        n = 200
        flow_s0 = rng.uniform(0.0, 6.0, n)
        flow_r = rng.uniform(-1.25, 1.25, n)
        flow_amp = 0.05 * np.abs(rng.standard_normal(n))
        flow_edge_idx = np.zeros(n, dtype=int)
    else:
        flow_s0 = np.zeros(0)
        flow_r = np.zeros(0)
        flow_amp = np.zeros(0)
        flow_edge_idx = np.zeros(0, dtype=int)
    tissue_pos = rng.uniform(-3.5, 3.5, (n_tissue, 2))
    return scene.PhantomScene(
        seed=seed,
        ellipse_axes=np.array([30.0, 24.0]),
        rotation_deg=0.0,
        pixel_mm=0.25,
        x0=-4.0, z0=-4.0, nx=33, nz=33,
        tissue_pos=tissue_pos,
        tissue_amp=np.abs(rng.standard_normal(n_tissue)),
        flow_s0=flow_s0, flow_r=flow_r, flow_amp=flow_amp,
        flow_edge_idx=flow_edge_idx,
        edge_start=np.array([[0.0, -3.0]]),
        edge_dir=np.array([[0.0, 1.0]]),
        edge_len=np.array([6.0]),
        edge_radius=np.array([1.25]),
        edge_vmax=np.array([v_max]),
        strain_max=strain_max,
        snr_db=snr_db,
    )


def clean_parts(sc, frames):
    """Noise-free tissue-only and flow-only sequences of one scene."""
    tissue, _ = imaging.synthesize_iq(
        dataclasses.replace(sc, flow_amp=np.zeros_like(sc.flow_amp)), frames,
        sc.frame_rate, np.inf)
    flow, _ = imaging.synthesize_iq(
        dataclasses.replace(sc, tissue_amp=np.zeros_like(sc.tissue_amp)), frames,
        sc.frame_rate, np.inf)
    return tissue, flow


class TestBuildPhantom:
    def test_deterministic(self):
        a, nets_a = scene.build_phantom(3, n_units=2, cylinder_radius_mm=10.0)
        b, nets_b = scene.build_phantom(3, n_units=2, cylinder_radius_mm=10.0)
        np.testing.assert_array_equal(a.tissue_pos, b.tissue_pos)
        np.testing.assert_array_equal(a.tissue_amp, b.tissue_amp)
        np.testing.assert_array_equal(a.flow_s0, b.flow_s0)
        np.testing.assert_array_equal(a.edge_vmax, b.edge_vmax)
        assert a.rotation_deg == b.rotation_deg
        for na, nb in zip(nets_a, nets_b):
            np.testing.assert_array_equal(na.q_e, nb.q_e)

    @pytest.mark.parametrize("sizes", [{"n_units": 0},
                                       {"cylinder_radius_mm": np.nan},
                                       {"cylinder_radius_mm": np.inf},
                                       {"pixel_mm": 0.0}, {"pixel_mm": np.nan}])
    def test_sizes_must_be_positive_and_finite(self, sizes):
        with pytest.raises(ValueError, match="positive and finite"):
            scene.build_phantom(3, **sizes)

    def test_volume_density(self):
        sc, _ = scene.build_phantom(0, n_units=2, cylinder_radius_mm=12.0)
        semi_x, semi_z = sc.ellipse_axes
        area = np.pi * semi_x * semi_z
        density = len(sc.tissue_pos) / area
        assert abs(density - scene.area_density_mm2()) <= 0.05 * scene.area_density_mm2()

    def test_amplitude_ratio(self):
        sc, _ = scene.build_phantom(1, n_units=2, cylinder_radius_mm=12.0)
        ratio = np.mean(sc.tissue_amp) / np.mean(sc.flow_amp)
        assert 18.0 <= ratio <= 22.0

    def test_tissue_inside_rotated_ellipse(self):
        sc, _ = scene.build_phantom(2, n_units=2, cylinder_radius_mm=12.0)
        theta = np.deg2rad(sc.rotation_deg)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        local = sc.tissue_pos @ rot  # inverse rotation applied to rows
        semi_x, semi_z = sc.ellipse_axes
        q = (local[:, 0] / semi_x) ** 2 + (local[:, 1] / semi_z) ** 2
        assert np.max(q) <= 1.0 + 1e-12
        assert abs(sc.rotation_deg) <= 10.0

    def test_deformed_cylinder_axes(self):
        sc, _ = scene.build_phantom(4, n_units=2, cylinder_radius_mm=17.5)
        assert sc.ellipse_axes[0] == pytest.approx(17.5)
        assert sc.ellipse_axes[1] == pytest.approx(0.8 * 17.5)

    def test_networks_rescaled_to_sampled_targets(self):
        sc, nets = scene.build_phantom(5, n_units=3, cylinder_radius_mm=12.0)
        assert len(nets) == 3
        for net in nets:
            assert 20.0 <= net.v_max[0] <= 30.0
        # per-edge table mirrors the solved networks
        assert len(sc.edge_vmax) == sum(len(n.unit.vessels) for n in nets)
        assert np.all(sc.edge_vmax > 0)

    def test_flow_scatterers_inside_lumen(self):
        sc, _ = scene.build_phantom(6, n_units=2, cylinder_radius_mm=12.0)
        assert len(sc.flow_s0) > 0
        radius = sc.edge_radius[sc.flow_edge_idx]
        length = sc.edge_len[sc.flow_edge_idx]
        assert np.all(np.abs(sc.flow_r) <= radius)
        assert np.all((sc.flow_s0 >= 0) & (sc.flow_s0 <= length))


class TestAdvanceScene:
    def test_time_zero_is_initial(self):
        sc = mini_scene()
        tissue0, flow0 = sc.positions_at(0.0)
        tissue1, flow1 = sc.positions_at(0.0)
        np.testing.assert_array_equal(tissue0, tissue1)
        np.testing.assert_array_equal(flow0, flow1)
        np.testing.assert_array_equal(tissue0, sc.tissue_pos)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mini_scene().positions_at(-1e-3)

    def test_tissue_periodicity(self):
        sc = mini_scene()
        base, _ = sc.positions_at(0.0)
        cycled, _ = sc.positions_at(3.0)
        assert np.max(np.abs(cycled - base)) <= 1e-9
        # mid-cycle is genuinely displaced
        mid, _ = sc.positions_at(1.5)
        assert np.max(np.abs(mid - base)) > 1e-3

    def test_compression_direction(self):
        sc = mini_scene()
        mid, _ = sc.positions_at(1.5)  # peak strain 2%
        z0 = sc.tissue_pos[:, 1]
        x0 = sc.tissue_pos[:, 0]
        np.testing.assert_allclose(mid[:, 1], z0 * (1.0 - 0.02), rtol=1e-12)
        np.testing.assert_allclose(mid[:, 0], x0 * (1.0 + 0.01), rtol=1e-12)

    def test_centerline_advection_speed(self):
        sc = mini_scene(with_flow=False, strain_max=0.0)
        sc.flow_s0 = np.array([1.0])
        sc.flow_r = np.array([0.0])
        sc.flow_amp = np.array([0.05])
        sc.flow_edge_idx = np.array([0])
        _, p0 = sc.positions_at(0.0)
        _, p1 = sc.positions_at(0.05)
        moved = p1[0] - p0[0]
        np.testing.assert_allclose(moved, 25.0 * 0.05 * sc.edge_dir[0],
                                   atol=1e-12)

    def test_parabolic_profile(self):
        sc = mini_scene(with_flow=False, strain_max=0.0)
        sc.flow_s0 = np.array([1.0, 1.0])
        sc.flow_r = np.array([0.0, 1.25 / 2.0])
        sc.flow_amp = np.array([0.05, 0.05])
        sc.flow_edge_idx = np.array([0, 0])
        _, p0 = sc.positions_at(0.0)
        _, p1 = sc.positions_at(0.1)
        dz_center = p1[0, 1] - p0[0, 1]
        dz_half = p1[1, 1] - p0[1, 1]
        assert dz_half == pytest.approx(dz_center * (1.0 - 0.25), rel=1e-12)

    def test_recycling_wraps_arc_length(self):
        sc = mini_scene(with_flow=False, strain_max=0.0)
        sc.flow_s0 = np.array([5.0])
        sc.flow_r = np.array([0.0])
        sc.flow_amp = np.array([0.05])
        sc.flow_edge_idx = np.array([0])
        _, pos = sc.positions_at(0.1)  # 5.0 + 2.5 -> wraps to 1.5
        expected = sc.edge_start[0] + 1.5 * sc.edge_dir[0]
        np.testing.assert_allclose(pos[0], expected, atol=1e-12)


class TestSynthesizeIq:
    def test_wavelength_and_psf_frozen(self):
        lam = imaging.wavelength_mm(7.5e6)
        assert lam == pytest.approx(0.20533333333333334, rel=1e-12)
        fz, fx = imaging.psf_fwhm_mm(7.5e6)
        assert fz == pytest.approx(0.41066666666666668, rel=1e-12)
        assert fx == pytest.approx(0.616, rel=1e-12)

    @pytest.mark.parametrize("frame_rate", [0.0, -1000.0, np.nan, np.inf])
    def test_frame_rate_must_be_positive_and_finite(self, frame_rate):
        with pytest.raises(ValueError, match="frame_rate"):
            imaging.synthesize_iq(mini_scene(), 2, frame_rate)

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_nan_or_negative_infinite_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            imaging.synthesize_iq(mini_scene(), 2, noise_snr_db=snr_db)

    def test_infinite_snr_is_noise_free(self):
        sc = mini_scene()
        seq, _ = imaging.synthesize_iq(sc, 4, sc.frame_rate, np.inf)
        tissue, flow = clean_parts(sc, 4)
        np.testing.assert_array_equal(seq.voxels, tissue.voxels + flow.voxels)

    def test_requested_snr_achieved(self):
        sc = mini_scene(snr_db=25.0)
        seq, _ = imaging.synthesize_iq(sc, 40, sc.frame_rate, 25.0)
        clean, _ = imaging.synthesize_iq(sc, 40, sc.frame_rate, np.inf)
        noise = seq.voxels - clean.voxels
        snr = 10.0 * np.log10(np.linalg.norm(clean.voxels) ** 2
                              / np.linalg.norm(noise) ** 2)
        assert abs(snr - 25.0) <= 0.2

    @pytest.mark.parametrize("snr_db", [25.0, np.inf])
    def test_synthesis_peak_is_at_most_three_times_the_output(self, snr_db):
        sc = mini_scene(snr_db=snr_db)
        imaging.synthesize_iq(sc, 1, sc.frame_rate, snr_db)
        tracemalloc.start()
        try:
            seq, _ = imaging.synthesize_iq(sc, 12, sc.frame_rate, snr_db)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * seq.voxels.nbytes

    def test_static_scene_is_rank_one(self):
        sc = mini_scene(with_flow=False, strain_max=0.0)
        seq, _ = imaging.synthesize_iq(sc, 5, sc.frame_rate, np.inf)
        d = casorati.to_casorati(seq)
        for t in range(1, d.shape[1]):
            np.testing.assert_array_equal(d[:, t], d[:, 0])

    def test_in_grid_and_masked_renders_agree(self):
        """Scatterers outside the grid, near it or far from it, leave the
        deposit of those inside it bit for bit as it was."""
        sc = mini_scene(with_flow=False)
        kernels = imaging._psf_kernels(sc)
        in_grid = imaging._render_frame(sc.tissue_pos, sc.tissue_amp, sc, kernels)
        outside = np.array([[40.0, 0.0], [0.0, -40.0], [-4.3, 0.0], [0.0, 4.3]])
        masked = imaging._render_frame(np.vstack([sc.tissue_pos, outside]),
                                       np.concatenate([sc.tissue_amp, np.ones(4)]), sc, kernels)
        assert np.array_equal(masked, in_grid)
        assert np.any(in_grid)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nz=st.integers(1, 80), nx=st.integers(1, 90),
           sigma_z=st.floats(0.05, 8.0), sigma_x=st.floats(0.05, 8.0))
    @example(seed=0, nz=1, nx=1, sigma_z=0.05, sigma_x=0.12)    # radius 0 on both axes
    @example(seed=1, nz=3, nx=90, sigma_z=8.0, sigma_x=0.05)    # radius 32 across 3 rows
    @example(seed=2, nz=80, nx=5, sigma_z=0.124, sigma_x=7.9)   # radius 0 and 32
    def test_blur_is_scipy_gaussian_filter_bit_for_bit(self, seed, nz, nx, sigma_z, sigma_x):
        """scipy is the reference only: the renderer's blur gives the bytes of
        gaussian_filter(..., mode="constant"), zeros of both signs included."""
        from scipy import ndimage
        r = np.random.default_rng(seed)
        img = r.standard_normal((2, nz, nx)) * 10.0 ** r.uniform(-20, 20, (2, nz, nx))
        img[r.random(img.shape) < 0.2] = 0.0
        img[r.random(img.shape) < 0.2] = -0.0
        got = imaging._blur(imaging._blur(img, imaging._gaussian_kernel(sigma_z), 1),
                            imaging._gaussian_kernel(sigma_x), 2)
        want = ndimage.gaussian_filter(img, (0, sigma_z, sigma_x), mode="constant")
        assert got.tobytes() == want.tobytes()

    def test_deterministic_noise(self):
        sc = mini_scene(snr_db=20.0)
        seq_a, _ = imaging.synthesize_iq(sc, 3, sc.frame_rate, 20.0)
        seq_b, _ = imaging.synthesize_iq(sc, 3, sc.frame_rate, 20.0)
        np.testing.assert_array_equal(seq_a.voxels, seq_b.voxels)
        sc2 = mini_scene(snr_db=20.0, seed=10)
        seq_c, _ = imaging.synthesize_iq(sc2, 3, sc2.frame_rate, 20.0)
        assert not np.array_equal(seq_a.voxels, seq_c.voxels)

    def test_metadata_carried(self):
        sc = mini_scene()
        seq, _ = imaging.synthesize_iq(sc, 3, sc.frame_rate, np.inf)
        assert seq.voxels.shape == (sc.nz, sc.nx, 3)
        assert seq.frame_rate == sc.frame_rate
        assert seq.center_freq == sc.center_freq
        assert seq.prf == sc.prf

    def test_carrier_phase_at_scatterer(self):
        sc = mini_scene(with_flow=False, strain_max=0.0, n_tissue=1)
        # drop the scatterer exactly on a grid node
        sc.tissue_pos = np.array([[0.0, 1.0]])
        sc.tissue_amp = np.array([1.0])
        seq, _ = imaging.synthesize_iq(sc, 1, sc.frame_rate, np.inf)
        iz = int(round((1.0 - sc.z0) / sc.pixel_mm))
        ix = int(round((0.0 - sc.x0) / sc.pixel_mm))
        value = seq.voxels[iz, ix, 0]
        expected = -4.0 * np.pi * sc.center_freq * 1.0e-3 / casorati.SOUND_SPEED
        delta = (np.angle(value) - expected) % (2.0 * np.pi)
        assert min(delta, 2.0 * np.pi - delta) <= 1e-9

    def test_psf_width_measured(self):
        sc = mini_scene(with_flow=False, strain_max=0.0, n_tissue=1)
        sc.tissue_pos = np.array([[0.0, 0.0]])
        sc.tissue_amp = np.array([1.0])
        sc.pixel_mm = 0.05
        sc.x0 = sc.z0 = -2.0
        sc.nx = sc.nz = 81
        seq, _ = imaging.synthesize_iq(sc, 1, sc.frame_rate, np.inf)
        img = np.abs(seq.voxels[:, :, 0])
        iz, ix = np.unravel_index(np.argmax(img), img.shape)
        axial = img[:, ix] / img[iz, ix]
        above = np.nonzero(axial >= 0.5)[0]
        fwhm_axial = (above[-1] - above[0]) * sc.pixel_mm
        assert fwhm_axial == pytest.approx(0.4107, abs=2 * sc.pixel_mm)
        lateral = img[iz, :] / img[iz, ix]
        above = np.nonzero(lateral >= 0.5)[0]
        fwhm_lateral = (above[-1] - above[0]) * sc.pixel_mm
        assert fwhm_lateral == pytest.approx(0.616, abs=2 * sc.pixel_mm)

    def test_ground_truth_mask_and_velocity(self):
        sc = mini_scene(with_flow=True, strain_max=0.0)
        _, truth = imaging.synthesize_iq(sc, 2, sc.frame_rate, np.inf)
        assert truth.flow_mask.shape == (sc.nz, sc.nx)
        ix = int(round((0.0 - sc.x0) / sc.pixel_mm))
        iz = int(round((0.0 - sc.z0) / sc.pixel_mm))
        assert truth.flow_mask[iz, ix]
        # vessel runs along +z (away from probe): toward-probe velocity is negative
        assert truth.axial_velocity[iz, ix] == pytest.approx(-25.0, abs=0.5)
        # outside the lumen the mask is off and velocity zero
        assert not truth.flow_mask[iz, 0]
        assert truth.axial_velocity[iz, 0] == 0.0

    def test_moving_blood_changes_columns(self):
        sc = mini_scene(with_flow=True, strain_max=0.0)
        tissue, flow = clean_parts(sc, 3)
        b = casorati.to_casorati(flow)
        assert not np.array_equal(b[:, 0], b[:, 1])
        t = casorati.to_casorati(tissue)
        np.testing.assert_array_equal(t[:, 0], t[:, 1])


class TestRoiMasks:
    def test_disjoint_and_nonempty(self):
        sc = mini_scene()
        blood, tissue = imaging.roi_masks(sc)
        assert blood.any() and tissue.any()
        assert not np.any(blood & tissue)

    def test_blood_is_the_lumen(self):
        sc = mini_scene()
        blood, _ = imaging.roi_masks(sc)
        xs = sc.x0 + np.arange(sc.nx) * sc.pixel_mm
        zs = sc.z0 + np.arange(sc.nz) * sc.pixel_mm
        gx, gz = np.meshgrid(xs, zs)
        expected = (np.abs(gx) <= 1.25) & (gz >= -3.0) & (gz <= 3.0)
        np.testing.assert_array_equal(blood, expected)

    def test_tissue_respects_clearance(self):
        sc = mini_scene()
        _, tissue = imaging.roi_masks(sc)
        xs = sc.x0 + np.arange(sc.nx) * sc.pixel_mm
        gx = np.broadcast_to(xs, (sc.nz, sc.nx))
        # the ellipse is much larger than the grid, so tissue is exactly
        # the complement of the widened vessel band
        np.testing.assert_array_equal(tissue, np.abs(gx) > 2.25)

    def test_boundary_margin_applies(self):
        # the 2 mm margin shrinks the 5 x 4.5 mm semi-axes to 3 x 2.5 mm
        sc = dataclasses.replace(mini_scene(), ellipse_axes=np.array([5.0, 4.5]))
        _, tissue = imaging.roi_masks(sc)
        xs = sc.x0 + np.arange(sc.nx) * sc.pixel_mm
        zs = sc.z0 + np.arange(sc.nz) * sc.pixel_mm
        gx, gz = np.meshgrid(xs, zs)
        shrunk = (gx / 3.0) ** 2 + (gz / 2.5) ** 2 <= 1.0
        np.testing.assert_array_equal(tissue, shrunk & (np.abs(gx) > 2.25))
        assert tissue.any()

    def test_margin_swallowing_ellipse_rejected(self):
        sc = dataclasses.replace(mini_scene(), ellipse_axes=np.array([1.5, 1.0]))
        with pytest.raises(ValueError):
            imaging.roi_masks(sc)
