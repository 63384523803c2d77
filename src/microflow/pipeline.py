"""End-to-end runs: load or simulate data, filter, evaluate, render.

run_pipeline drives one complete pass over a dataset and leaves a
deterministic set of artifacts in the output directory: the blood estimate
(blood.umi), the power image as CSV and log-compressed PGM, the velocity
image as CSV, and a JSON report with the metrics and the echoed
configuration. Reports never contain timestamps or absolute paths, so
rerunning the same configuration reproduces them byte for byte.

Failures carry the stage they occurred in (config, input, simulate,
filter, train, evaluate, render) so callers can map them to exit codes.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import formats, metrics, svdfilt, unfolded
from .casorati import SolverError, from_casorati, to_casorati
from .irls import run_irls
from .phantom import imaging
from .phantom import scene as phantom_scene

STAGE_EXIT_CODES = {
    "config": 2,
    "input": 3,
    "simulate": 4,
    "filter": 5,
    "train": 6,
    "evaluate": 7,
    "render": 8,
}

_METRIC_KEYS = ("cnr_db", "snr_db", "psl_db", "r_squared", "slope",
                "intercept")

_TRUTH_FILES = {"velocity": "truth_velocity.csv",
                "flow_mask": "truth_flow_mask.csv",
                "tissue_mask": "truth_tissue_mask.csv"}


class PipelineError(RuntimeError):
    """A pipeline stage failed; stage names the culprit."""

    def __init__(self, stage, message):
        super().__init__(f"{stage} stage: {message}")
        self.stage = stage


@dataclasses.dataclass
class PipelineResult:
    """In-memory view of one pipeline run."""

    report: dict
    blood: np.ndarray
    power: np.ndarray
    velocity: np.ndarray
    output_dir: Path


def _validated(cfg):
    try:
        return config_mod.validate_config(cfg)
    except ValueError as exc:
        raise PipelineError("config", str(exc)) from exc


def _output_dir(cfg):
    if "output" not in cfg:
        raise PipelineError("config", "an output directory is required")
    out = Path(cfg["output"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def simulate_dataset(cfg, verbose=False):
    """Build a phantom per the simulate section and synthesize IQ data.

    Returns (FrameSequence, truth dict); the truth dict carries the
    axial-velocity map plus the blood and tissue evaluation masks.
    """
    sim = cfg.get("simulate", {})
    seed = cfg.get("seed", 0)
    try:
        scene, _ = phantom_scene.build_phantom(
            seed, **{key: sim[key] for key in ("n_units", "cylinder_radius_mm",
                                               "pixel_mm") if key in sim},
            verbose=verbose)
        snr_db = sim.get("snr_db", scene.snr_db)
        seq, gt = imaging.synthesize_iq(
            scene, sim.get("frames", 200), frame_rate=sim.get("frame_rate"),
            noise_snr_db=np.inf if snr_db is None else snr_db,
            verbose=verbose)
        blood_mask, tissue_mask = imaging.roi_masks(scene)
    except (ValueError, OverflowError, np.linalg.LinAlgError) as exc:
        raise PipelineError("simulate", str(exc)) from exc
    truth = {"velocity": gt.axial_velocity, "flow_mask": blood_mask,
             "tissue_mask": tissue_mask}
    return seq, truth


def _load_truth(dirpath):
    truth = {}
    for key, name in _TRUTH_FILES.items():
        path = Path(dirpath) / name
        if not path.exists():
            raise PipelineError("input", f"truth file {path} not found")
        img = formats.read_csv(path)
        truth[key] = img > 0.5 if key.endswith("mask") else img
    return truth


def _write_truth(outdir, truth):
    for key, name in _TRUTH_FILES.items():
        formats.write_csv(truth[key].astype(float), outdir / name)
    return {f"truth_{key}": name for key, name in _TRUTH_FILES.items()}


def _read_input(path):
    """Input stage: read a dataset file and reject non-finite voxels."""
    try:
        seq = formats.read_dataset(path)
    except (OSError, ValueError) as exc:
        raise PipelineError("input", str(exc)) from exc
    bad = int(np.count_nonzero(~np.isfinite(seq.voxels)))
    if bad:
        raise PipelineError("input", f"dataset {path} holds {bad} "
                                     f"non-finite voxel values")
    return seq


def _acquire(cfg, verbose=False):
    """Input stage: read a dataset file or synthesize one."""
    if "input" in cfg:
        seq = _read_input(cfg["input"])
        truth = _load_truth(cfg["truth"]) if "truth" in cfg else None
        return seq, truth, False
    if "simulate" in cfg:
        seq, truth = simulate_dataset(cfg, verbose=verbose)
        return seq, truth, True
    raise PipelineError("config",
                        "either an input dataset or a simulate section "
                        "is required")


def _train_network(d_mat, cfg, verbose=False):
    """Train stage: initialize from the data and fit the layer parameters."""
    shape = {**config_mod.NETWORK_DEFAULTS, **cfg.get("train", {})}
    try:
        net = unfolded.init_network(d_mat, shape["k_layers"], shape["d"],
                                    shape["lambda_b_init"],
                                    config_mod.irls_config(cfg))
        net, history = unfolded.train(net, d_mat, None,
                                      config_mod.train_config(cfg),
                                      verbose=verbose)
    except (ValueError, RuntimeError) as exc:
        raise PipelineError("train", str(exc)) from exc
    return net, history


def _filter(d_mat, cfg, outdir, verbose=False):
    """Filter stage: estimate the blood component with the chosen method.

    Returns (blood matrix, extra report entries, extra artifact names).
    """
    if "method" not in cfg:
        raise PipelineError("config", "a filtering method is required")
    method = cfg["method"]
    extra_report = {}
    extra_artifacts = {}
    try:
        if method == "svd":
            blood, low = svdfilt.band_filter(d_mat, **cfg.get("svd", {}))
            extra_report["svd_low_cut"] = low
        elif method == "irls":
            decomp, trace = run_irls(d_mat, config_mod.irls_config(cfg),
                                     verbose=verbose)
            blood = decomp.blood_b
            extra_report["irls_iterations"] = int(trace.iterations)
        elif method == "unfolded":
            if "model" in cfg:
                try:
                    net = formats.read_model(cfg["model"])
                except (OSError, ValueError) as exc:
                    raise PipelineError("input", str(exc)) from exc
            elif "train" in cfg:
                net, history = _train_network(d_mat, cfg, verbose=verbose)
                formats.write_model(net, outdir / "model.u2m")
                extra_artifacts["model"] = "model.u2m"
                extra_report["training"] = {
                    "best_epoch": int(history.best_epoch),
                    "initial_val_loss": float(history.val_loss[0]),
                    "best_val_loss": float(
                        history.val_loss[history.best_epoch]),
                }
            else:
                raise ValueError("unfolded filtering needs a model file "
                                 "or a train section")
            blood = unfolded.infer(net, d_mat).blood_b
        else:
            raise ValueError(f"unknown method {method!r}")
    except PipelineError:
        raise
    except (ValueError, np.linalg.LinAlgError, SolverError) as exc:
        raise PipelineError("filter", str(exc)) from exc
    return blood, extra_report, extra_artifacts


def _evaluate(blood, seq, truth, cfg):
    """Evaluate stage: power and velocity images plus scalar metrics."""
    ensemble = min(cfg.get("ensemble", 200), blood.shape[1])
    b_ens = blood[:, blood.shape[1] - ensemble:]
    try:
        power = metrics.power_doppler(b_ens, seq.nz, seq.nx)
        velocity_flat, low_conf = metrics.doppler_velocity(
            b_ens, seq.frame_rate, seq.center_freq)
        velocity = velocity_flat.reshape(seq.nz, seq.nx, order="F")
        scalars = dict.fromkeys(_METRIC_KEYS)
        if truth is not None:
            blood_roi = truth["flow_mask"]
            tissue_roi = truth["tissue_mask"]
            scalars["cnr_db"] = float(metrics.cnr(power, blood_roi,
                                                  tissue_roi))
            scalars["snr_db"] = float(metrics.snr(power, blood_roi,
                                                  tissue_roi))
            scalars["psl_db"] = float(metrics.psl(power, blood_roi,
                                                  tissue_roi))
            r2, slope, intercept = metrics.r_squared(
                velocity, truth["velocity"], blood_roi)
            scalars["r_squared"] = float(r2)
            scalars["slope"] = float(slope)
            scalars["intercept"] = float(intercept)
        scalars["low_confidence_fraction"] = float(low_conf.mean())
        scalars["ensemble"] = ensemble
    except ValueError as exc:
        raise PipelineError("evaluate", str(exc)) from exc
    return power.values, velocity, scalars


def _write_report(outdir, cfg, seq, **entries):
    """Write report.json: the config, its hash, the dataset summary and entries.

    Returns the report dict.
    """
    report = {
        "config": cfg,
        "config_hash": config_mod.config_hash(cfg),
        "dataset": {"nz": int(seq.nz), "nx": int(seq.nx), "nt": int(seq.nt),
                    "frame_rate": float(seq.frame_rate),
                    "center_freq": float(seq.center_freq),
                    "prf": float(seq.prf)},
        **entries,
    }
    blob = json.dumps(report, sort_keys=True, indent=2) + "\n"
    (outdir / "report.json").write_text(blob)
    return report


def run_pipeline(cfg, verbose=False):
    """Run input, filter, evaluate, and render stages for one config.

    Returns a PipelineResult; artifacts land in cfg["output"]. Raises
    PipelineError with the failing stage attached.
    """
    cfg = _validated(cfg)
    outdir = _output_dir(cfg)

    seq, truth, simulated = _acquire(cfg, verbose=verbose)
    d_mat = to_casorati(seq)

    blood, extra_report, artifacts = _filter(d_mat, cfg, outdir,
                                             verbose=verbose)
    power, velocity, scalars = _evaluate(blood, seq, truth, cfg)

    try:
        if simulated:
            formats.write_dataset(seq, outdir / "dataset.umi")
            artifacts["dataset"] = "dataset.umi"
            artifacts.update(_write_truth(outdir, truth))
        formats.write_dataset(
            dataclasses.replace(seq, voxels=from_casorati(blood, seq.nz,
                                                          seq.nx)),
            outdir / "blood.umi")
        formats.write_csv(power, outdir / "power.csv")
        formats.write_pgm(power, outdir / "power.pgm",
                          comment=f"cfg:{config_mod.config_hash(cfg)}",
                          **cfg.get("render", {}))
        formats.write_csv(velocity, outdir / "velocity.csv")
    except (OSError, ValueError) as exc:
        raise PipelineError("render", str(exc)) from exc
    artifacts.update({"blood": "blood.umi", "power_csv": "power.csv",
                      "power_pgm": "power.pgm",
                      "velocity_csv": "velocity.csv",
                      "report": "report.json"})

    report = _write_report(outdir, cfg, seq, method=cfg["method"],
                           metrics=scalars, artifacts=artifacts,
                           **extra_report)
    return PipelineResult(report=report, blood=blood, power=power,
                          velocity=velocity, output_dir=outdir)


def run_simulate(cfg, verbose=False):
    """Simulate subcommand: dataset plus truth bundle plus report."""
    cfg = _validated(cfg)
    outdir = _output_dir(cfg)
    seq, truth = simulate_dataset(cfg, verbose=verbose)
    try:
        formats.write_dataset(seq, outdir / "dataset.umi")
        artifacts = {"dataset": "dataset.umi", "report": "report.json"}
        artifacts.update(_write_truth(outdir, truth))
    except (OSError, ValueError) as exc:
        raise PipelineError("simulate", str(exc)) from exc
    return _write_report(outdir, cfg, seq, artifacts=artifacts)


def run_train(cfg, verbose=False):
    """Train subcommand: fit a network on a dataset, save the model file.

    cfg["output"] names the model file itself, not a directory.
    """
    cfg = _validated(cfg)
    if "output" not in cfg:
        raise PipelineError("config", "an output model path is required")
    if "input" not in cfg:
        raise PipelineError("config", "an input dataset is required")
    seq = _read_input(cfg["input"])
    net, history = _train_network(to_casorati(seq), cfg, verbose=verbose)
    model_path = Path(cfg["output"])
    model_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        formats.write_model(net, model_path)
    except (OSError, ValueError) as exc:
        raise PipelineError("train", str(exc)) from exc
    return net, history


def run_evaluate(cfg, verbose=False):
    """Evaluate subcommand: metrics for an already-filtered dataset.

    cfg["input"] is the blood estimate (UMI1), cfg["truth"] the directory
    holding the truth bundle written by simulate.
    """
    cfg = _validated(cfg)
    outdir = _output_dir(cfg)
    if "input" not in cfg:
        raise PipelineError("config", "an input blood dataset is required")
    if "truth" not in cfg:
        raise PipelineError("config", "a truth directory is required")
    seq = _read_input(cfg["input"])
    truth = _load_truth(cfg["truth"])
    if truth["velocity"].shape != (seq.nz, seq.nx):
        raise PipelineError("evaluate",
                            f"truth shape {truth['velocity'].shape} does "
                            f"not match the dataset grid "
                            f"({seq.nz}, {seq.nx})")
    blood = to_casorati(seq)
    power, velocity, scalars = _evaluate(blood, seq, truth, cfg)
    try:
        formats.write_csv(power, outdir / "power.csv")
        formats.write_csv(velocity, outdir / "velocity.csv")
    except OSError as exc:
        raise PipelineError("render", str(exc)) from exc
    return _write_report(outdir, cfg, seq, metrics=scalars,
                         artifacts={"power_csv": "power.csv",
                                    "velocity_csv": "velocity.csv",
                                    "report": "report.json"})


def run_render(cfg, mode, verbose=False):
    """Render subcommand: convert a CSV image to PGM or copy it as CSV."""
    cfg = _validated(cfg)
    if "input" not in cfg:
        raise PipelineError("config", "an input image is required")
    if "output" not in cfg:
        raise PipelineError("config", "an output path is required")
    try:
        image = formats.read_csv(cfg["input"])
    except (OSError, ValueError) as exc:
        raise PipelineError("input", str(exc)) from exc
    out = Path(cfg["output"])
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        if mode == "pgm":
            formats.write_pgm(image, out,
                              comment=f"cfg:{config_mod.config_hash(cfg)}",
                              **cfg.get("render", {}))
        elif mode == "csv":
            formats.write_csv(image, out)
        else:
            raise ValueError(f"unknown render mode {mode!r}")
    except (OSError, ValueError) as exc:
        raise PipelineError("render", str(exc)) from exc
    return out
