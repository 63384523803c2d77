"""Run configuration: JSON schema validation and content hashing.

A run configuration is a plain JSON object. Every key is optional (each
setting's default lives with the function or settings object that takes
it, and the pipeline reports missing required inputs itself), but unknown
keys are rejected so typos fail before anything executes. The
configuration hash is the SHA-256 of the canonical JSON encoding (sorted
keys, no whitespace) and is embedded in run artifacts so outputs can be
traced back to the exact settings that produced them.
"""

import hashlib
import json

import jsonschema

from .irls import IrlsConfig
from .unfolded import TrainConfig

# The irls and train sections' limits live in IrlsConfig and TrainConfig
# alone; the schema below only types their fields, and validate_config builds
# both objects to check them. The defaults here have no other home: the
# solver's required fields and the network shape handed to init_network.
_IRLS_DEFAULTS = {"d": 6, "lambda_c": 1.0, "lambda_b": 0.01}
NETWORK_DEFAULTS = {"k_layers": 10, "d": 10, "lambda_b_init": 6.0}

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "method": {"enum": ["svd", "irls", "unfolded"]},
        "seed": {"type": "integer", "minimum": 0},
        "input": {"type": "string"},
        "output": {"type": "string"},
        "model": {"type": "string"},
        "truth": {"type": "string"},
        "ensemble": {"type": "integer", "minimum": 2},
        "simulate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_units": {"type": "integer", "minimum": 1},
                "frames": {"type": "integer", "minimum": 1},
                "cylinder_radius_mm": _POSITIVE,
                "pixel_mm": _POSITIVE,
                "snr_db": {"type": ["number", "null"]},
                "frame_rate": _POSITIVE,
            },
        },
        "irls": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "d": {"type": "integer"},
                "lambda_c": {"type": "number"},
                "lambda_b": {"type": "number"},
                "epsilon": {"type": "number"},
                "rho": {"type": "number"},
                "max_iter": {"type": "integer"},
                "tol": {"type": "number"},
                "normalize": {"type": "boolean"},
            },
        },
        "svd": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "low_cut": {"type": ["integer", "null"], "minimum": 0},
                "high_cut": {"type": ["integer", "null"], "minimum": 1},
                "fraction": _POSITIVE,
            },
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "k_layers": {"type": "integer"},
                "d": {"type": "integer"},
                "lambda_b_init": {"type": "number"},
                "learning_rate": {"type": "number"},
                "wc_learning_rate": {"type": ["number", "null"]},
                "batch_frames": {"type": "integer"},
                "max_epochs": {"type": "integer"},
                "patience": {"type": "integer"},
                "seed": {"type": "integer"},
                "grad_mode": {"type": "string"},
            },
        },
        "render": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dynamic_range_db": _POSITIVE,
            },
        },
    },
}


def validate_config(cfg):
    """Validate a configuration dict against the schema and solver limits.

    Returns the dict unchanged on success, raises ValueError otherwise.
    """
    try:
        jsonschema.validate(cfg, SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "".join(f"[{p!r}]" for p in exc.absolute_path)
        raise ValueError(f"invalid config{path and ' at ' + path}: "
                         f"{exc.message}") from exc
    for section, build in (("irls", irls_config), ("train", train_config)):
        try:
            build(cfg)
        except ValueError as exc:
            raise ValueError(f"invalid config at [{section!r}]: {exc}") from exc
    return cfg


def irls_config(cfg):
    """Solver settings of a validated config: its irls section over defaults."""
    return IrlsConfig(**{**_IRLS_DEFAULTS, **cfg.get("irls", {})})


def train_config(cfg):
    """Optimizer settings of a config: its train section minus the network shape."""
    return TrainConfig(**{key: value for key, value in cfg.get("train", {}).items()
                          if key not in NETWORK_DEFAULTS})


def config_hash(cfg):
    """SHA-256 hex digest of the canonical JSON encoding of a config."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_config(path):
    """Load and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: "
                             f"{exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return validate_config(cfg)
