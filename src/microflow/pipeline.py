"""End-to-end runs: load or simulate data, filter, evaluate, render.

run_pipeline drives one complete pass over a dataset and leaves a
deterministic set of artifacts in the output directory: the blood estimate
(blood.umi), the power image as CSV and log-compressed PGM, the velocity
image as CSV, and a JSON report with the metrics and the echoed
configuration. Reports never contain timestamps or absolute paths, so
rerunning the same configuration reproduces them byte for byte.

Failures carry the stage they occurred in (config, input, simulate,
filter, train, evaluate, render) so callers can map them to exit codes.
The one place that decides which exceptions count as a stage failure is
the ``stage`` context manager. The one place that decides which settings a
run needs is ``_validated``; every run_* function calls it before it
reads any data, and creates its output path only after its input files
are read, so a failed read leaves no output behind.
"""

import contextlib
import dataclasses
import json
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import formats, metrics, svdfilt, unfolded
from .casorati import from_casorati, to_casorati
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

# How the config stage names a required setting that a run lacks.
_SETTING_NAMES = {"input": "an input file (--input)", "output": "an output path (--output)",
                  "method": "a method (--method)", "model": "a model file (--model)",
                  "truth": "a truth directory (--truth)", "simulate": "a simulate section",
                  "train": "a train section"}

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


@contextlib.contextmanager
def stage(name):
    """Report the failures bad input can cause as PipelineError(name, ...).

    Those are ValueError (which covers LinAlgError, JSONDecodeError and
    UnicodeDecodeError), ArithmeticError, OSError, RuntimeError (which
    covers SolverError and training aborts) and MemoryError (an array too
    large to allocate, such as a simulate request for more pixels than the
    machine holds). A PipelineError raised inside passes through unchanged,
    so stages nest; any other exception is a bug and keeps its traceback.
    """
    try:
        yield
    except PipelineError:
        raise
    except (ValueError, ArithmeticError, OSError, RuntimeError, MemoryError) as exc:
        raise PipelineError(name, str(exc)) from exc


def _validated(cfg, *needs):
    """Config stage: the validated config, holding a key of each tuple in needs,
    and a model or train section too where a needed method is unfolded."""
    with stage("config"):
        cfg = config_mod.validate_config(cfg)
    if ("method",) in needs and cfg.get("method") == "unfolded":
        needs += (("model", "train"),)
    for keys in needs:
        if not any(key in cfg for key in keys):
            raise PipelineError("config", " or ".join(map(_SETTING_NAMES.get, keys))
                                + " is required")
    return cfg


def _output(cfg, is_file=False):
    """Config stage: the output path, created as a directory, or for a file
    its parent created and the path itself not a directory."""
    path = Path(cfg["output"])
    with stage("config"):
        if is_file and path.is_dir():
            raise ValueError(f"output {path} is a directory")
        (path.parent if is_file else path).mkdir(parents=True, exist_ok=True)
    return path


def simulate_dataset(cfg):
    """Build a phantom per the simulate section and synthesize IQ data.

    The voxels are narrowed to complex64 here, as the dataset file stores
    them, so filtering a simulated run equals filtering its dataset.umi.

    Returns (FrameSequence, truth dict); the truth dict carries the
    axial-velocity map plus the blood and tissue evaluation masks.
    """
    sim = cfg.get("simulate", {})
    seed = cfg.get("seed", 0)
    with stage("simulate"):
        scene, _ = phantom_scene.build_phantom(
            seed, **{key: sim[key] for key in ("n_units", "cylinder_radius_mm",
                                               "pixel_mm") if key in sim})
        snr_db = sim.get("snr_db", scene.snr_db)
        seq, gt = imaging.synthesize_iq(
            scene, sim.get("frames", 200), frame_rate=sim.get("frame_rate"),
            noise_snr_db=np.inf if snr_db is None else snr_db)
        seq.voxels = formats.complex64_voxels(seq.voxels)
        blood_mask, tissue_mask = imaging.roi_masks(scene)
    truth = {"velocity": gt.axial_velocity, "flow_mask": blood_mask,
             "tissue_mask": tissue_mask}
    return seq, truth


def _load_truth(dirpath):
    truth = {}
    for key, name in _TRUTH_FILES.items():
        path = Path(dirpath) / name
        if not path.exists():
            raise PipelineError("input", f"truth file {path} not found")
        with stage("input"):
            img = formats.read_csv(path)
        truth[key] = img > 0.5 if key.endswith("mask") else img
    return truth


def _write_truth(outdir, truth):
    for key, name in _TRUTH_FILES.items():
        formats.write_csv(truth[key].astype(float), outdir / name)
    return {f"truth_{key}": name for key, name in _TRUTH_FILES.items()}


def _read_input(path):
    """Input stage: read a dataset file."""
    with stage("input"):
        return formats.read_dataset(path)


def _acquire(cfg):
    """Input stage: the model an unfolded run names, then the dataset, read
    or synthesized: (network or None, sequence, truth or None, simulated)."""
    net = None
    if cfg["method"] == "unfolded" and "model" in cfg:
        with stage("input"):
            net = formats.read_model(cfg["model"])
    if "input" not in cfg:
        return (net, *simulate_dataset(cfg), True)
    seq = _read_input(cfg["input"])
    truth = _load_truth(cfg["truth"]) if "truth" in cfg else None
    return net, seq, truth, False


def _train_network(d_mat, cfg):
    """Train stage: initialize from the data and fit the layer parameters."""
    shape = {**config_mod.NETWORK_DEFAULTS, **cfg.get("train", {})}
    with stage("train"):
        net = unfolded.init_network(d_mat, shape["k_layers"], shape["d"],
                                    shape["lambda_b_init"],
                                    config_mod.irls_config(cfg))
        return unfolded.train(net, d_mat, None, config_mod.train_config(cfg))


def _filter(d_mat, cfg, net, outdir):
    """Filter stage: estimate the blood component with the chosen method.

    An unfolded run without a saved network trains one. Returns (blood
    matrix, extra report entries, extra artifact names).
    """
    method = cfg["method"]
    extra_report = {}
    extra_artifacts = {}
    with stage("filter"):
        if method == "svd":
            blood, low = svdfilt.band_filter(d_mat, **cfg.get("svd", {}))
            extra_report["svd_low_cut"] = low
        elif method == "irls":
            decomp, trace = run_irls(d_mat, config_mod.irls_config(cfg))
            blood = decomp.blood_b
            extra_report["irls_iterations"] = int(trace.iterations)
        else:
            if net is None:
                net, history = _train_network(d_mat, cfg)
                formats.write_model(net, outdir / "model.u2m")
                extra_artifacts["model"] = "model.u2m"
                extra_report["training"] = {
                    "best_epoch": int(history.best_epoch),
                    "initial_val_loss": float(history.val_loss[0]),
                    "best_val_loss": float(
                        history.val_loss[history.best_epoch]),
                }
            blood = unfolded.infer(net, d_mat).blood_b
    return blood, extra_report, extra_artifacts


def _evaluate(blood, seq, truth, cfg):
    """Evaluate stage: power and velocity images plus scalar metrics."""
    ensemble = min(cfg.get("ensemble", 200), blood.shape[1])
    b_ens = blood[:, blood.shape[1] - ensemble:]
    with stage("evaluate"):
        if truth is not None and truth["velocity"].shape != (seq.nz, seq.nx):
            raise ValueError(f"truth shape {truth['velocity'].shape} does "
                             f"not match the dataset grid ({seq.nz}, {seq.nx})")
        power = metrics.power_doppler(b_ens, seq.nz, seq.nx)
        velocity_flat, low_conf = metrics.doppler_velocity(
            b_ens, seq.frame_rate, seq.center_freq)
        velocity = velocity_flat.reshape(seq.nz, seq.nx, order="F")
        scalars = dict.fromkeys(_METRIC_KEYS)
        if truth is not None:
            blood_roi, tissue_roi = metrics.check_rois(
                power, truth["flow_mask"], truth["tissue_mask"])
            if not np.all(np.isfinite(truth["velocity"][blood_roi])):
                raise ValueError("truth velocity is non-finite inside the blood mask")
            for key, ratio in (("cnr_db", metrics.cnr), ("snr_db", metrics.snr),
                               ("psl_db", metrics.psl)):
                # the masks are valid, so a ValueError means this image
                # leaves the ratio undefined; the report keeps it null
                with contextlib.suppress(ValueError):
                    scalars[key] = float(ratio(power, blood_roi, tissue_roi))
            # the truth is finite, so a ValueError means the fit is undefined
            # (say, a constant truth); its three keys stay null
            with contextlib.suppress(ValueError):
                r2, slope, intercept = metrics.r_squared(velocity, truth["velocity"], blood_roi)
                scalars.update(r_squared=float(r2), slope=float(slope), intercept=float(intercept))
        scalars["low_confidence_fraction"] = float(low_conf.mean())
        scalars["ensemble"] = ensemble
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


def run_pipeline(cfg):
    """Run input, filter, evaluate, and render stages for one config.

    Returns a PipelineResult; artifacts land in cfg["output"]. Raises
    PipelineError with the failing stage attached.
    """
    cfg = _validated(cfg, ("output",), ("input", "simulate"), ("method",))
    net, seq, truth, simulated = _acquire(cfg)
    outdir = _output(cfg)
    d_mat = to_casorati(seq)

    blood, extra_report, artifacts = _filter(d_mat, cfg, net, outdir)
    power, velocity, scalars = _evaluate(blood, seq, truth, cfg)

    with stage("render"):
        # the only writer that checks a setting goes first, so a refused one leaves no files
        formats.write_pgm(power, outdir / "power.pgm",
                          comment=f"cfg:{config_mod.config_hash(cfg)}",
                          **cfg.get("render", {}))
        if simulated:
            formats.write_dataset(seq, outdir / "dataset.umi")
            artifacts["dataset"] = "dataset.umi"
            artifacts.update(_write_truth(outdir, truth))
        formats.write_dataset(
            dataclasses.replace(seq, voxels=from_casorati(blood, seq.nz,
                                                          seq.nx)),
            outdir / "blood.umi")
        formats.write_csv(power, outdir / "power.csv")
        formats.write_csv(velocity, outdir / "velocity.csv")
        artifacts.update({"blood": "blood.umi", "power_csv": "power.csv",
                          "power_pgm": "power.pgm",
                          "velocity_csv": "velocity.csv",
                          "report": "report.json"})
        report = _write_report(outdir, cfg, seq, method=cfg["method"],
                               metrics=scalars, artifacts=artifacts,
                               **extra_report)
    return PipelineResult(report=report, blood=blood, power=power,
                          velocity=velocity, output_dir=outdir)


def run_infer(cfg):
    """Infer subcommand: run_pipeline with method unfolded and a model file required."""
    return run_pipeline(_validated({**cfg, "method": "unfolded"}, ("model",)))


def run_simulate(cfg):
    """Simulate subcommand: dataset plus truth bundle plus report."""
    cfg = _validated(cfg, ("output",))
    outdir = _output(cfg)
    seq, truth = simulate_dataset(cfg)
    with stage("simulate"):
        formats.write_dataset(seq, outdir / "dataset.umi")
        artifacts = {"dataset": "dataset.umi", "report": "report.json"}
        artifacts.update(_write_truth(outdir, truth))
        return _write_report(outdir, cfg, seq, artifacts=artifacts)


def run_train(cfg):
    """Train subcommand: fit a network on a dataset, save the model file.

    cfg["output"] names the model file itself, not a directory.
    """
    cfg = _validated(cfg, ("output",), ("input",))
    seq = _read_input(cfg["input"])
    model_path = _output(cfg, is_file=True)
    net, history = _train_network(to_casorati(seq), cfg)
    with stage("train"):
        formats.write_model(net, model_path)
    return net, history


def run_evaluate(cfg):
    """Evaluate subcommand: metrics for an already-filtered dataset.

    cfg["input"] is the blood estimate (UMI1), cfg["truth"] the directory
    holding the truth bundle written by simulate.
    """
    cfg = _validated(cfg, ("output",), ("input",), ("truth",))
    seq = _read_input(cfg["input"])
    truth = _load_truth(cfg["truth"])
    outdir = _output(cfg)
    power, velocity, scalars = _evaluate(to_casorati(seq), seq, truth, cfg)
    with stage("render"):
        formats.write_csv(power, outdir / "power.csv")
        formats.write_csv(velocity, outdir / "velocity.csv")
        return _write_report(outdir, cfg, seq, metrics=scalars,
                             artifacts={"power_csv": "power.csv",
                                        "velocity_csv": "velocity.csv",
                                        "report": "report.json"})


def run_render(cfg, mode):
    """Render subcommand: convert a CSV image to PGM or copy it as CSV."""
    cfg = _validated(cfg, ("input",), ("output",))
    with stage("input"):
        image = formats.read_csv(cfg["input"])
    out = _output(cfg, is_file=True)
    with stage("render"):
        if mode == "pgm":
            formats.write_pgm(image, out,
                              comment=f"cfg:{config_mod.config_hash(cfg)}",
                              **cfg.get("render", {}))
        elif mode == "csv":
            formats.write_csv(image, out)
        else:
            raise ValueError(f"unknown render mode {mode!r}")
    return out
