"""Run configuration: JSON schema validation and content hashing.

A run configuration is a plain JSON object. Every key is optional (the
pipeline applies defaults and reports missing required inputs itself), but
unknown keys are rejected so typos fail before anything executes. The
configuration hash is the SHA-256 of the canonical JSON encoding (sorted
keys, no whitespace) and is embedded in run artifacts so outputs can be
traced back to the exact settings that produced them.
"""

import hashlib
import json

import jsonschema

from .irls import IrlsConfig

# The irls section's limits live in IrlsConfig alone; the schema below only
# types its fields, and validate_config builds the IrlsConfig to check them.
_IRLS_DEFAULTS = {"d": 6, "lambda_c": 1.0, "lambda_b": 0.01}

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
                "k_layers": {"type": "integer", "minimum": 1},
                "d": {"type": "integer", "minimum": 1},
                "lambda_b_init": _POSITIVE,
                "learning_rate": _POSITIVE,
                "wc_learning_rate": {"type": ["number", "null"],
                                     "exclusiveMinimum": 0},
                "batch_frames": {"type": "integer", "minimum": 2},
                "max_epochs": {"type": "integer", "minimum": 1},
                "patience": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "grad_mode": {"enum": ["finite_difference", "analytic"]},
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
    try:
        irls_config(cfg)
    except ValueError as exc:
        raise ValueError(f"invalid config at ['irls']: {exc}") from exc
    return cfg


def irls_config(cfg):
    """Solver settings of a validated config: its irls section over defaults."""
    return IrlsConfig(**{**_IRLS_DEFAULTS, **cfg.get("irls", {})})


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
