"""The benchmark's workloads: inputs made from a seed, and one closed-loop pass.

Each workload calls microflow's public functions directly, through a
``Tracer`` so that a traced run can record a span per call. A pass returns
its wall time, the latencies of its steps, exact counts that must repeat on
every pass, quality figures scored against known truth, and the messages of
any correctness check that failed.

Why these three:

* ``recovery`` is many small solves (500x100, d=6), the criterion-1 set.
  Per-call overhead, the d x d Gram solves and the BLAS thread hand-off
  dominate. svdfilt, unfolded, phantom and formats do no work here.
* ``desk`` is the README session on a phantom: simulate, write and read the
  dataset, then the SVD, IRLS and unfolded filters on tall 5670x100
  ensembles, the Doppler metrics, and the output files. Full-matrix passes
  dominate, and the SVD gains from a second BLAS thread.
* ``train`` is the analytic-gradient training step of the unfolded network,
  whose adjoint pass keeps several matrices per layer; it runs the network in
  reverse where ``desk`` only runs it forward.
"""

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from microflow import formats, irls, metrics, svdfilt, unfolded
from microflow.casorati import FrameSequence, from_casorati, to_casorati
from microflow.phantom import imaging
from microflow.phantom import scene as phantom_scene

# Desk phantom: the README's two-unit phantom at 0.2 mm pixels and 25 dB,
# with a 6 mm radius (70x81 = 5670 pixels) so that a whole session takes a
# few seconds and a run holds several sessions.
PHANTOM = {"n_units": 2, "cylinder_radius_mm": 6.0, "pixel_mm": 0.2}
PHANTOM_SEED = 7
SNR_DB = 25.0
ENSEMBLE = 100
N_ENSEMBLES = 2
K_LAYERS = 15
NET_CFG = irls.IrlsConfig(d=10, lambda_c=1.0, lambda_b=0.02)
# The solver runs a fixed budget of 10 iterations (about its converged count
# on the desk phantom), so the work per session does not swing with the
# phantom drawn from the seed; run-to-convergence behaviour is what
# ``recovery`` measures.
DESK_IRLS = irls.IrlsConfig(d=10, lambda_c=1.0, lambda_b=0.02, max_iter=10, tol=1e-300)
RECOVERY_IRLS = irls.IrlsConfig(d=6, lambda_c=1.0, lambda_b=0.005)
RECOVERY_INSTANCES = 10
TRAIN_FRAMES = 150
TRAIN_CFG = unfolded.TrainConfig(learning_rate=1e-4, wc_learning_rate=1e-2,
                                 batch_frames=100, max_epochs=1, patience=2,
                                 seed=0, grad_mode="analytic")


@dataclass
class PassResult:
    """What one pass measured and checked.

    samples maps a step name to the seconds of each of its calls; counts are
    exact and must match between passes; failures lists failed checks.
    """

    session_s: float = 0.0
    samples: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def timed(self, step, start):
        self.samples.setdefault(step, []).append(time.perf_counter() - start)


def digest(*arrays):
    """SHA-256 over array bytes (or JSON for plain data), in order."""
    h = hashlib.sha256()
    for a in arrays:
        if isinstance(a, np.ndarray):
            h.update(np.ascontiguousarray(a).tobytes())
        else:
            h.update(json.dumps(a, sort_keys=True).encode())
    return h.hexdigest()


def _crandn(r, shape, scale=1.0):
    return scale * (r.standard_normal(shape) + 1j * r.standard_normal(shape))


def recovery_instance(seed, ns=500, nt=100, rank=3, support=0.02, boost=5.0, snr_db=30.0):
    """D = T + B0 + N: rank-3 tissue, 2% blood at 5x the tissue RMS, 30 dB noise."""
    r = np.random.default_rng(seed)
    t = _crandn(r, (ns, rank)) @ _crandn(r, (nt, rank)).conj().T
    entry_scale = np.linalg.norm(t) / np.sqrt(ns * nt)
    b0 = np.zeros((ns, nt), dtype=complex)
    hits = r.choice(ns * nt, size=int(round(support * ns * nt)), replace=False)
    b0.flat[hits] = boost * entry_scale * np.exp(2j * np.pi * r.random(hits.size))
    clean = t + b0
    sigma = np.sqrt(np.mean(np.abs(clean) ** 2) * 10.0 ** (-snr_db / 10.0) / 2.0)
    return b0, clean + _crandn(r, (ns, nt), scale=sigma)


def _phantom(seed, tr):
    return tr.call("phantom.build_phantom", phantom_scene.build_phantom,
                   seed=PHANTOM_SEED + seed, **PHANTOM)[0]


class Recovery:
    name = "recovery"
    solver = "irls"
    synth_frames = 0
    fps = {"irls_fps": ("irls", 100)}
    tails = {"solve_tail_ms": "irls"}
    quality_units = {"rel_err_max": "ratio"}

    def setup(self, seed, tr):
        """Instances seeded 10*seed .. 10*seed+9; seed 0 gives criterion 1's 0-9."""
        n = RECOVERY_INSTANCES
        data = [recovery_instance(n * seed + i) for i in range(n)]
        return data, digest(*[a for pair in data for a in pair])

    def run_pass(self, data, tr, workdir):
        res = PassResult()
        start = time.perf_counter()
        outcomes = []
        with tr.stage("solve"):
            for b0, d_mat in data:
                t0 = time.perf_counter()
                dec, trace = tr.call("irls.run_irls", irls.run_irls, d_mat, RECOVERY_IRLS)
                res.timed("irls", t0)
                outcomes.append((b0, dec.blood_b, trace))
        res.session_s = time.perf_counter() - start
        worst = 0.0
        for i, (b0, blood, trace) in enumerate(outcomes):
            rel = float(np.linalg.norm(blood - b0) / np.linalg.norm(b0))
            worst = max(worst, rel)
            if not rel <= 0.1:
                res.failures.append(f"instance {i}: relative blood error {rel:.4f} > 0.1")
            if not trace.convergence[-1] < RECOVERY_IRLS.tol:
                res.failures.append(f"instance {i}: not converged "
                                    f"({trace.convergence[-1]:.2e} >= {RECOVERY_IRLS.tol})")
        res.counts["irls.iterations"] = sum(t.iterations for _, _, t in outcomes)
        res.quality["rel_err_max"] = worst
        return res


def _scores(b, scene, truth, blood_roi, tissue_roi, tr):
    """CNR and velocity R^2 of one blood estimate; NaN where a metric is undefined."""
    pd = tr.call("metrics.power_doppler", metrics.power_doppler, b, scene.nz, scene.nx)
    out = {}
    for key, fn in (("cnr", metrics.cnr), ("snr", metrics.snr), ("psl", metrics.psl)):
        try:
            out[key] = float(tr.call(f"metrics.{key}", fn, pd, blood_roi, tissue_roi))
        except ValueError:
            out[key] = float("nan")
    vel, _ = tr.call("metrics.doppler_velocity", metrics.doppler_velocity,
                     b, scene.frame_rate, scene.center_freq)
    out["r2"] = float(tr.call("metrics.r_squared", metrics.r_squared,
                              vel.reshape(scene.nz, scene.nx, order="F"),
                              truth.axial_velocity, truth.flow_mask)[0])
    return pd, out


class Desk:
    name = "desk"
    solver = "irls"
    synth_frames = ENSEMBLE * N_ENSEMBLES
    fps = {"simulate_fps": ("synthesize", ENSEMBLE * N_ENSEMBLES), "svd_fps": ("svd", ENSEMBLE),
           "irls_fps": ("irls", ENSEMBLE), "infer_fps": ("infer", ENSEMBLE)}
    tails = {}
    quality_units = {"cnr_svd_db": "dB", "cnr_irls_db": "dB", "cnr_infer_db": "dB",
                     "r2_irls": "ratio"}

    def setup(self, seed, tr):
        """The program receives only phantom parameters; it synthesizes the data."""
        params = {"seed": PHANTOM_SEED + seed, **PHANTOM, "frames": ENSEMBLE * N_ENSEMBLES,
                  "noise_snr_db": SNR_DB}
        return seed, digest(params)

    def run_pass(self, seed, tr, workdir):
        res = PassResult()
        start = time.perf_counter()
        with tr.stage("simulate"):
            scene = _phantom(seed, tr)
            t0 = time.perf_counter()
            seq, truth = tr.call("phantom.synthesize_iq", imaging.synthesize_iq, scene,
                                 frames=ENSEMBLE * N_ENSEMBLES, noise_snr_db=SNR_DB)
            res.timed("synthesize", t0)
            blood_roi, tissue_roi = tr.call("phantom.roi_masks", imaging.roi_masks, scene)
        with tr.stage("dataset_io"):
            path = workdir / "dataset.umi"
            tr.call("formats.write_dataset", formats.write_dataset, seq, path)
            seq = tr.call("formats.read_dataset", formats.read_dataset, path)
        d_all = to_casorati(seq)
        net = None
        estimates = []
        low_cuts, iterations = [], []
        for e in range(N_ENSEMBLES):
            d_mat = d_all[:, e * ENSEMBLE:(e + 1) * ENSEMBLE]
            with tr.stage("svd"):
                t0 = time.perf_counter()
                # The CLI's svd path takes the spectrum with numpy before
                # choosing the cutoff; it is counted to the svdfilt layer.
                spectrum = tr.call("svdfilt.spectrum", np.linalg.svd, d_mat, compute_uv=False)
                low = tr.call("svdfilt.estimate_low_cut", svdfilt.estimate_low_cut, spectrum, 0.01)
                b_svd = tr.call("svdfilt.svd_clutter_filter", svdfilt.svd_clutter_filter,
                                d_mat, svdfilt.SvdCutoffs(low_cut=low))
                res.timed("svd", t0)
            with tr.stage("irls"):
                t0 = time.perf_counter()
                dec, trace = tr.call("irls.run_irls", irls.run_irls, d_mat, DESK_IRLS)
                res.timed("irls", t0)
            with tr.stage("unfolded"):
                if net is None:
                    net = tr.call("unfolded.init_network", unfolded.init_network,
                                  d_mat, K_LAYERS, NET_CFG.d, NET_CFG.lambda_b, NET_CFG)
                t0 = time.perf_counter()
                b_net = tr.call("unfolded.infer", unfolded.infer, net, d_mat).blood_b
                res.timed("infer", t0)
            low_cuts.append(low)
            iterations.append(trace.iterations)
            estimates.append({"svd": b_svd, "irls": dec.blood_b, "infer": b_net})
        scores = {}
        with tr.stage("metrics"):
            for est in estimates:
                for label, b in est.items():
                    pd, scores_e = _scores(b, scene, truth, blood_roi, tissue_roi, tr)
                    scores.setdefault(label, []).append(scores_e)
                    if label == "irls":
                        power = pd.values
        with tr.stage("write"):
            blood = np.concatenate([est["irls"] for est in estimates], axis=1)
            blood_seq = FrameSequence(from_casorati(blood, scene.nz, scene.nx),
                                      seq.frame_rate, seq.center_freq, seq.prf)
            tr.call("formats.write_dataset", formats.write_dataset, blood_seq,
                    workdir / "blood.umi")
            tr.call("formats.write_csv", formats.write_csv, power, workdir / "power.csv")
            tr.call("formats.write_pgm", formats.write_pgm, power, workdir / "power.pgm")
        res.session_s = time.perf_counter() - start

        for e, est in enumerate(estimates):
            for label, b in est.items():
                if not np.all(np.isfinite(b)):
                    res.failures.append(f"ensemble {e}: {label} blood estimate is not finite")
        back = formats.read_dataset(workdir / "blood.umi").voxels
        if not np.array_equal(back, blood_seq.voxels.astype(np.complex64)):
            res.failures.append("blood.umi does not read back as the complex64 estimate")
        res.counts["svdfilt.low_cut"] = sum(low_cuts)
        res.counts["irls.iterations"] = sum(iterations)
        res.counts["formats.dataset_mb"] = path.stat().st_size / 2 ** 20
        for label in ("svd", "irls", "infer"):
            res.quality[f"cnr_{label}_db"] = float(np.mean([s["cnr"] for s in scores[label]]))
        res.quality["r2_irls"] = float(np.mean([s["r2"] for s in scores["irls"]]))
        return res


class Train:
    name = "train"
    solver = "train"
    synth_frames = TRAIN_FRAMES
    # One pass trains one epoch: a single 100-frame batch (the last 30 of the
    # 150 frames validate), preceded and followed by a validation pass.
    fps = {"train_fps": ("train", TRAIN_CFG.batch_frames)}
    tails = {}
    quality_units = {"val_loss": "loss"}

    def setup(self, seed, tr):
        scene = _phantom(seed, tr)
        seq, _ = tr.call("phantom.synthesize_iq", imaging.synthesize_iq, scene,
                         frames=TRAIN_FRAMES, noise_snr_db=SNR_DB)
        data = to_casorati(seq)
        return data, digest(data)

    def run_pass(self, data, tr, workdir):
        res = PassResult()
        start = time.perf_counter()
        with tr.stage("train"):
            net = tr.call("unfolded.init_network", unfolded.init_network,
                          data, K_LAYERS, NET_CFG.d, NET_CFG.lambda_b, NET_CFG)
            t0 = time.perf_counter()
            _, history = tr.call("unfolded.train", unfolded.train, net, data, None, TRAIN_CFG)
            res.timed("train", t0)
        res.session_s = time.perf_counter() - start
        losses = history.train_loss + history.val_loss
        if not np.all(np.isfinite(losses)):
            res.failures.append(f"non-finite loss in {losses}")
        best = min(history.val_loss)
        if not best <= history.val_loss[0]:
            res.failures.append(f"best validation loss {best:.6e} above the initial "
                                f"{history.val_loss[0]:.6e}")
        n_fit = TRAIN_FRAMES - max(1, int(round(0.2 * TRAIN_FRAMES)))
        res.counts["unfolded.steps"] = len(history.train_loss) * (n_fit // TRAIN_CFG.batch_frames)
        res.quality["val_loss"] = float(best)
        return res


WORKLOADS = {w.name: w for w in (Recovery(), Desk(), Train())}
