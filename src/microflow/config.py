"""Run configuration: typed validation and content hashing.

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
from typing import NamedTuple

from .irls import IrlsConfig
from .unfolded import TrainConfig

# The irls and train sections' limits and the solver defaults live in
# IrlsConfig and TrainConfig alone; validate_config builds both objects to
# check them. The network shape handed to init_network has no other home; its
# layers start at the solver's blood penalty.
NETWORK_DEFAULTS = {"k_layers": 10, "d": 10, "lambda_b_init": IrlsConfig.lambda_b}


class Field(NamedTuple):
    """One config value's type: int, float (any number), str or a tuple of
    allowed strings. minimum is set only where no callee checks a limit."""

    kind: object
    nullable: bool = False
    minimum: int | None = None


_INT, _NUM, _STR = Field(int), Field(float), Field(str)

FIELDS = {
    "method": Field(("svd", "irls", "unfolded")),
    "seed": Field(int, minimum=0),
    "input": _STR, "output": _STR, "model": _STR, "truth": _STR,
    "ensemble": Field(int, minimum=2),
    "simulate": {"n_units": _INT, "frames": _INT, "cylinder_radius_mm": _NUM,
                 "pixel_mm": _NUM, "snr_db": Field(float, nullable=True),
                 "frame_rate": _NUM},
    "irls": {"d": _INT, "lambda_c": _NUM, "lambda_b": _NUM, "epsilon": _NUM,
             "max_iter": _INT, "tol": _NUM},
    "svd": {"low_cut": Field(int, nullable=True),
            "high_cut": Field(int, nullable=True), "fraction": _NUM},
    "train": {"k_layers": _INT, "d": _INT, "lambda_b_init": _NUM,
              "learning_rate": _NUM,
              "wc_learning_rate": Field(float, nullable=True),
              "batch_frames": _INT, "max_epochs": _INT, "patience": _INT,
              "seed": _INT, "grad_mode": _STR},
    "render": {"dynamic_range_db": _NUM},
}

_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _typed(value, field, prefix):
    """value checked against its field; an integral float becomes int."""
    kind = field.kind
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if value is None or isinstance(kind, tuple):
        ok = field.nullable if value is None else value in kind
    else:  # booleans are not numbers
        ok = (not isinstance(value, bool)
              and isinstance(value, (int, float) if kind is float else kind))
    if not ok:
        want = _KIND_NAMES.get(kind) or f"one of {kind}"
        raise ValueError(f"{prefix} must be {want}"
                         f"{' or null' if field.nullable else ''}, got {value!r}")
    if field.minimum is not None and value < field.minimum:
        raise ValueError(f"{prefix} must be at least {field.minimum}, got {value}")
    return value


def _checked(values, fields, where="invalid config"):
    """A copy of one config level with each value checked against fields."""
    if not isinstance(values, dict):
        raise ValueError(f"{where}: expected an object, got {values!r}")
    out = {}
    for key, value in values.items():
        field = fields.get(key)
        if field is None:
            raise ValueError(f"{where}: unknown key {key!r}")
        out[key] = (_checked(value, field, f"invalid config at [{key!r}]")
                    if isinstance(field, dict)
                    else _typed(value, field, f"{where}: {key}"))
    return out


def validate_config(cfg):
    """Check a configuration dict against FIELDS and the solver limits.

    Returns a copy with integral floats in integer fields made ints; raises
    ValueError otherwise.
    """
    cfg = _checked(cfg, FIELDS)
    for section, build in (("irls", irls_config), ("train", train_config)):
        try:
            build(cfg)
        except ValueError as exc:
            raise ValueError(f"invalid config at [{section!r}]: {exc}") from exc
    return cfg


def irls_config(cfg):
    """Solver settings of a validated config: its irls section over defaults."""
    return IrlsConfig(**cfg.get("irls", {}))


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
