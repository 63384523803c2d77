"""Sign-off suite: one test per numbered acceptance criterion.

Every test prints a single summary line, "criterion N: PASS (...)" or
"criterion N: FAIL (...)", so a run with ``pytest -s tests/test_acceptance.py``
doubles as the acceptance report. The same line is the assertion message on
failure. Criteria 5 and 7 synthesize a two-unit flow phantom; criterion 5,
which also trains a network, takes a few minutes of CPU and is marked slow.

Shared figures used below:
  * recovery instances: 500x100 Casorati-shaped matrices, rank-3 tissue,
    blood on a 2% support at 5x the tissue RMS entry scale, 30 dB noise;
  * phantom comparison: seed 7, two flow units, 10 mm vessel, 0.2 mm pixels,
    1,200 training frames, two held-out 200-frame evaluation ensembles.
"""

import dataclasses
import time

import numpy as np
import pytest

import test_formats
from microflow import config as config_mod
from microflow import formats, irls, metrics, pipeline, svdfilt, unfolded
from microflow.casorati import to_casorati
from microflow.phantom import geometry, hydraulics, imaging
from microflow.phantom import scene as phantom_scene
from solver_reference import finite_difference_gradient, solver_weights


def report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def crandn(r, shape, scale=1.0):
    return scale * (r.standard_normal(shape) + 1j * r.standard_normal(shape))


def recovery_instance(seed, ns=500, nt=100, rank=3, support=0.02, boost=5.0,
                      snr_db=30.0):
    """D = T + B0 + N with known blood component B0."""
    r = np.random.default_rng(seed)
    t = crandn(r, (ns, rank)) @ crandn(r, (nt, rank)).conj().T
    entry_scale = np.linalg.norm(t) / np.sqrt(ns * nt)
    b0 = np.zeros((ns, nt), dtype=complex)
    hits = r.choice(ns * nt, size=int(round(support * ns * nt)), replace=False)
    b0.flat[hits] = boost * entry_scale * np.exp(2j * np.pi * r.random(hits.size))
    clean = t + b0
    sigma = np.sqrt(np.mean(np.abs(clean) ** 2) * 10.0 ** (-snr_db / 10.0) / 2.0)
    return b0, clean + crandn(r, (ns, nt), scale=sigma)


@pytest.fixture(scope="module")
def recovery_runs():
    """Ten seeded recovery solves, shared by the first two criteria."""
    cfg = irls.IrlsConfig(d=6, lambda_c=1.0, lambda_b=0.005)
    runs = []
    for seed in range(10):
        b0, d_mat = recovery_instance(seed)
        start = time.perf_counter()
        dec, trace = irls.run_irls(d_mat, cfg)
        seconds = time.perf_counter() - start
        rel = np.linalg.norm(dec.blood_b - b0) / np.linalg.norm(b0)
        runs.append({"rel": rel, "seconds": seconds, "trace": trace})
    return runs


def test_criterion_1_blood_recovery(recovery_runs):
    worst_rel = max(run["rel"] for run in recovery_runs)
    total_time = sum(run["seconds"] for run in recovery_runs)
    ok = worst_rel <= 0.1 and total_time < 30.0
    report(1, ok, f"max relative blood error {worst_rel:.4f} (limit 0.1), "
                  f"{total_time:.2f}s for all 10 seeds (limit 30s)")


def test_criterion_2_solver_convergence(recovery_runs):
    worst_iters = max(run["trace"].iterations for run in recovery_runs)
    converged = all(run["trace"].convergence[-1] < 1e-6 for run in recovery_runs)
    worst_slack = max(
        float(np.max(run["trace"].objective / run["trace"].objective_pre - 1.0))
        for run in recovery_runs)
    ok = converged and worst_iters <= 100 and worst_slack <= 1e-9
    report(2, ok, f"all converged below 1e-6 in <= {worst_iters} iterations "
                  f"(limit 100), worst objective increase {worst_slack:.2e} "
                  f"(slack 1e-9)")


def test_criterion_3_unfolding_matches_solver():
    worst = 0.0
    for i in range(20):
        r = np.random.default_rng(4000 + i)
        ns = int(r.integers(8, 65))
        nt = int(r.integers(4, 33))
        d = int(r.integers(1, 1 + min(5, ns, nt)))
        k = int(r.integers(1, 6))
        t = crandn(r, (ns, 2)) @ crandn(r, (nt, 2)).conj().T
        entry = np.linalg.norm(t) / np.sqrt(ns * nt)
        b = np.zeros((ns, nt), dtype=complex)
        hits = r.choice(ns * nt, size=max(1, int(0.03 * ns * nt)), replace=False)
        b.flat[hits] = 5.0 * entry * np.exp(2j * np.pi * r.random(hits.size))
        d_mat = t + b + 0.01 * entry * crandn(r, (ns, nt))

        cfg = irls.IrlsConfig(d=d, lambda_c=0.03, lambda_b=0.01, max_iter=k,
                              tol=1e-300)
        dec, _ = irls.run_irls(d_mat, cfg)
        theta = [np.append(unfolded.inv_softplus(0.01),
                           unfolded.inv_softplus(2.0 * 0.03 * w))
                 for w in solver_weights(d_mat, cfg)]
        net = unfolded.UnfoldedNetwork(theta=theta, epsilon=cfg.epsilon)
        fwd = unfolded.infer(net, d_mat)
        rel_b = (np.linalg.norm(fwd.blood_b - dec.blood_b)
                 / np.linalg.norm(dec.blood_b))
        tissue = dec.basis_u @ dec.coeffs_v.conj().T
        rel_t = (np.linalg.norm(fwd.basis_u @ fwd.coeffs_v.conj().T - tissue)
                 / np.linalg.norm(tissue))
        worst = max(worst, rel_b, rel_t)
    ok = worst <= 1e-10
    report(3, ok, f"20 frozen-layer forward passes, worst relative deviation "
                  f"{worst:.2e} (limit 1e-10)")


def test_criterion_4_gradient_agreement():
    worst_rel = 0.0
    worst_half = 0.0
    for seed in (50, 51, 52):
        r = np.random.default_rng(seed)
        d_mat = crandn(r, (12, 8))
        cfg_init = irls.IrlsConfig(d=2, lambda_c=0.05, lambda_b=0.5)
        net = unfolded.init_network(d_mat, k=2, d=2, lambda_b_init=0.5,
                                    cfg=cfg_init)
        g_an = unfolded._analytic_loss_grad(net, d_mat)[1]
        g_fd = finite_difference_gradient(net, d_mat)
        scale = np.max(np.abs(g_fd))
        rel = np.abs(g_an - g_fd) / np.maximum(np.abs(g_fd), 1e-6 * scale)
        worst_rel = max(worst_rel, float(np.max(rel)))

        fd_half = finite_difference_gradient(net, d_mat, fd_step=5e-6)
        rel_half = np.abs(fd_half - g_an) / np.maximum(np.abs(fd_half),
                                                       1e-6 * scale)
        worst_half = max(worst_half, float(np.max(rel_half)))
    ok = worst_rel <= 1e-4 and worst_half <= 1e-4
    report(4, ok, f"analytic vs central differences, worst per-component "
                  f"relative error {worst_rel:.2e} at the default step and "
                  f"{worst_half:.2e} at half step (limit 1e-4)")


def desk_phantom(snr_db):
    scene, _ = phantom_scene.build_phantom(7, n_units=2,
                                           cylinder_radius_mm=10.0,
                                           pixel_mm=0.2)
    return dataclasses.replace(scene, snr_db=snr_db)


@pytest.mark.slow
def test_criterion_5_training_beats_baselines():
    start = time.perf_counter()
    scene = desk_phantom(snr_db=25.0)
    seq, truth = imaging.synthesize_iq(scene, 1600)
    del truth
    blood_roi, tissue_roi = imaging.roi_masks(scene)
    frame_count = to_casorati(seq)
    del seq
    train_frames = frame_count[:, :1200]
    ensembles = [frame_count[:, 1200:1400], frame_count[:, 1400:1600]]

    def cnr_of(blood):
        pd = metrics.power_doppler(blood, scene.nz, scene.nx)
        return metrics.cnr(pd, blood_roi, tissue_roi)

    svd_cnrs = []
    for ens in ensembles:
        cut = svdfilt.estimate_low_cut(np.linalg.svd(ens, compute_uv=False))
        cutoffs = svdfilt.SvdCutoffs(low_cut=cut)
        svd_cnrs.append(cnr_of(svdfilt.svd_clutter_filter(ens, cutoffs)))

    solver_cfg = irls.IrlsConfig(d=10, lambda_c=1.0, lambda_b=0.02)
    irls_cnrs = [cnr_of(irls.run_irls(ens, solver_cfg)[0].blood_b)
                 for ens in ensembles]

    net = unfolded.init_network(train_frames, k=15, d=10, lambda_b_init=0.02,
                                cfg=solver_cfg)
    train_cfg = unfolded.TrainConfig(learning_rate=1e-4, wc_learning_rate=0.01,
                                     batch_frames=200, max_epochs=6, patience=5,
                                     seed=0, grad_mode="analytic")
    net, history = unfolded.train(net, train_frames, None, train_cfg)
    net_cnrs = [cnr_of(unfolded.infer(net, ens).blood_b) for ens in ensembles]

    svd_cnr = float(np.mean(svd_cnrs))
    irls_cnr = float(np.mean(irls_cnrs))
    net_cnr = float(np.mean(net_cnrs))
    elapsed = time.perf_counter() - start
    margin = net_cnr - irls_cnr
    margin_note = "" if margin >= 1.0 else ", below the soft target"
    ok = (net_cnr >= irls_cnr and irls_cnr >= svd_cnr and net_cnr >= svd_cnr
          and elapsed < 900.0)
    report(5, ok, f"held-out CNR: trained network {net_cnr:.2f} dB, solver "
                  f"baseline {irls_cnr:.2f} dB, subspace filter {svd_cnr:.2f} dB; "
                  f"margin {margin:+.2f} dB (+1 dB target{margin_note}), "
                  f"validation loss {history.val_loss[0]:.1f} -> "
                  f"{history.val_loss[history.best_epoch]:.1f}, "
                  f"{elapsed:.0f}s (limit 900s)")


def test_criterion_6_hydraulic_network():
    worst_residual = 0.0
    for seed in range(1000):
        unit = geometry.sample_flow_unit(seed, seed % 8 + 1)
        net = hydraulics.build_network(unit)
        residual = np.max(np.abs(net.a_nh.T @ net.q_e))
        worst_residual = max(worst_residual,
                             residual / np.max(np.abs(net.q_e)))

    def vessel(parent, length, angle, radius, built):
        hierarchy = 1 if parent is None else built[parent].hierarchy + 1
        built.append(geometry.Vessel(hierarchy=hierarchy, parent=parent,
                                     length=length, angle=angle, radius=radius))

    built = []
    vessel(None, 3.5, 0.0, 1.25, built)
    r2 = 1.25 / np.sqrt(2.0)
    vessel(0, 3.5, -30.0, r2, built)
    vessel(0, 3.5, 30.0, r2, built)
    r3 = r2 / np.sqrt(2.0)
    for parent, angle in ((1, -60.0), (1, 0.0), (2, 60.0), (2, 0.0)):
        vessel(parent, 3.5, angle, r3, built)
    symmetric = geometry.FlowUnit(variant_id=8, vessels=built, target_v1=25.0)
    net = hydraulics.build_network(symmetric)
    q = np.abs(net.q_e)
    split_err = max(abs(q[1] - q[0] / 2.0), abs(q[2] - q[0] / 2.0),
                    *(abs(q[e] - q[0] / 4.0) for e in range(3, 7))) / q[0]

    single = geometry.FlowUnit(
        variant_id=0, target_v1=25.0,
        vessels=[geometry.Vessel(hierarchy=1, parent=None, length=3.5,
                                 angle=0.0, radius=1.25)])
    xi = 1.0 / hydraulics.edge_conductance(single)[0]
    xi_ok = (xi == pytest.approx(14602529.690658635, rel=1e-12)
             and xi == pytest.approx(1.460e7, rel=1e-3))

    short = geometry.FlowUnit(
        variant_id=0, target_v1=25.0,
        vessels=[geometry.Vessel(hierarchy=1, parent=None, length=1.0,
                                 angle=0.0, radius=1.25)])
    c = hydraulics.edge_conductance(short)
    v_peak = hydraulics.edge_velocities(c, np.array([1.0]),
                                        np.array([1.25e-3]))[0]
    v_ok = v_peak == pytest.approx(97.65625, rel=1e-12)

    ok = worst_residual <= 1e-10 and split_err <= 1e-12 and xi_ok and v_ok
    report(6, ok, f"conservation residual {worst_residual:.2e} over 1000 units "
                  f"(limit 1e-10), symmetric split error {split_err:.2e} "
                  f"(limit 1e-12), resistance spot {xi:.6e}, "
                  f"peak velocity spot {v_peak}")


def test_criterion_7_velocity_recovery():
    scene = desk_phantom(snr_db=np.inf)
    seq, truth = imaging.synthesize_iq(scene, 400)
    d_mat = to_casorati(seq)
    cfg = irls.IrlsConfig(d=10, lambda_c=1.0, lambda_b=0.02)
    dec, _ = irls.run_irls(d_mat, cfg)
    velocity, _ = metrics.doppler_velocity(dec.blood_b, seq.frame_rate,
                                           seq.center_freq)
    image = velocity.reshape(scene.nz, scene.nx, order="F")
    r2, slope, _ = metrics.r_squared(image, truth.axial_velocity,
                                     truth.flow_mask)
    ok = r2 >= 0.8 and 0.6 <= slope <= 1.1
    report(7, ok, f"noise-free phantom: R^2 {r2:.3f} (floor 0.8), slope "
                  f"{slope:.3f} (range 0.6 to 1.1) over "
                  f"{int(truth.flow_mask.sum())} flow pixels")


def test_criterion_8_metric_hand_values():
    values = np.zeros((8, 8))
    values[:, :4] = 100.0
    values[:, 4:] = 1.0
    values[::2, 4:] += 1.0
    values[1::2, 4:] -= 1.0
    blood = np.zeros((8, 8), dtype=bool)
    blood[:, :4] = True
    tissue = ~blood
    pd = metrics.PowerDopplerImage(values=values)

    cnr_err = abs(metrics.cnr(pd, blood, tissue) - 10.0 * np.log10(99.0))
    snr_err = abs(metrics.snr(pd, blood, tissue) - 20.0)
    peak = metrics.PowerDopplerImage(values=np.where(blood, 1000.0, 1.0))
    psl_err = abs(metrics.psl(peak, blood, tissue) - 30.0)

    scale_err = 0.0
    for alpha in (1e-6, 3.7, 1e6):
        scaled = metrics.PowerDopplerImage(values=alpha * values)
        scale_err = max(
            scale_err,
            abs(metrics.cnr(scaled, blood, tissue) - metrics.cnr(pd, blood, tissue)),
            abs(metrics.snr(scaled, blood, tissue) - metrics.snr(pd, blood, tissue)))

    ok = max(cnr_err, snr_err, psl_err) <= 1e-9 and scale_err <= 1e-9
    report(8, ok, f"hand values: CNR err {cnr_err:.1e}, SNR err {snr_err:.1e}, "
                  f"PSL err {psl_err:.1e} (limit 1e-9 dB each); scale "
                  f"invariance drift {scale_err:.1e}")


def test_criterion_9_determinism_and_formats(tmp_path):
    cfg = {"method": "svd", "seed": 3, "ensemble": 12,
           "output": str(tmp_path / "run"),
           "simulate": {"n_units": 1, "frames": 24, "cylinder_radius_mm": 8.0,
                        "pixel_mm": 0.4, "snr_db": 20.0}}
    pipeline.run_pipeline(cfg)
    report_bytes = (tmp_path / "run" / "report.json").read_bytes()
    blood_bytes = (tmp_path / "run" / "blood.umi").read_bytes()
    pipeline.run_pipeline(cfg)
    rerun_identical = (
        (tmp_path / "run" / "report.json").read_bytes() == report_bytes
        and (tmp_path / "run" / "blood.umi").read_bytes() == blood_bytes)

    golden_dataset = bytes.fromhex(test_formats.GOLDEN_UMI1_HEX)
    src = tmp_path / "golden.umi"
    src.write_bytes(golden_dataset)
    out = tmp_path / "roundtrip.umi"
    formats.write_dataset(formats.read_dataset(src), out)
    dataset_ok = out.read_bytes() == golden_dataset

    golden_model = bytes.fromhex(test_formats.GOLDEN_U2M1_HEX)
    src_model = tmp_path / "golden.u2m"
    src_model.write_bytes(golden_model)
    out_model = tmp_path / "roundtrip.u2m"
    formats.write_model(formats.read_model(src_model), out_model)
    model_ok = out_model.read_bytes() == golden_model

    ok = rerun_identical and dataset_ok and model_ok
    report(9, ok, f"rerun report and blood output byte-identical: "
                  f"{rerun_identical}; dataset and model golden round trips "
                  f"bit-exact: {dataset_ok and model_ok}")
