"""Run-configuration validation and hashing."""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microflow import config, irls, unfolded

README = Path(__file__).resolve().parents[1] / "README.md"


def full_config():
    return {
        "method": "irls",
        "seed": 7,
        "input": "data/in.umi",
        "output": "out",
        "model": "net.u2m",
        "truth": "truthdir",
        "ensemble": 200,
        "simulate": {
            "n_units": 2,
            "frames": 100,
            "cylinder_radius_mm": 12.0,
            "pixel_mm": 0.2,
            "snr_db": 25.0,
            "frame_rate": 1000.0,
        },
        "irls": {
            "d": 6,
            "lambda_c": 1.0,
            "lambda_b": 0.1,
            "epsilon": 1e-8,
            "max_iter": 100,
            "tol": 1e-6,
        },
        "svd": {"low_cut": 3, "high_cut": None, "fraction": 2.0},
        "train": {
            "k_layers": 10,
            "d": 10,
            "lambda_b_init": 6.0,
            "learning_rate": 0.01,
            "wc_learning_rate": None,
            "batch_frames": 200,
            "max_epochs": 50,
            "patience": 5,
            "seed": 0,
            "grad_mode": "analytic",
        },
        "render": {"dynamic_range_db": 40.0},
    }


class TestValidation:
    def test_empty_config_valid(self):
        assert config.validate_config({}) == {}

    def test_full_config_valid(self):
        cfg = full_config()
        assert config.validate_config(cfg) == cfg

    def test_unknown_top_level_key(self):
        cfg = {"method": "svd", "extra_knob": 1}
        with pytest.raises(ValueError, match="extra_knob"):
            config.validate_config(cfg)

    @pytest.mark.parametrize("section, key", [({"d": 4, "momentum": 0.9}, "momentum"),
                                              ({"rho": 1.0}, "rho")])
    def test_unknown_nested_key(self, section, key):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            config.validate_config({"irls": section})

    def test_bad_method(self):
        with pytest.raises(ValueError):
            config.validate_config({"method": "wavelet"})

    def test_bad_type(self):
        with pytest.raises(ValueError):
            config.validate_config({"seed": "seven"})

    def test_bad_range(self):
        with pytest.raises(ValueError):
            config.validate_config({"irls": {"d": 0}})

    @pytest.mark.parametrize("section", [{"lambda_c": float("nan")},
                                         {"lambda_b": float("inf")},
                                         {"epsilon": 0.0}])
    def test_irls_limits_come_from_solver_config(self, section):
        with pytest.raises(ValueError, match=r"\['irls'\]"):
            config.validate_config({"irls": section})

    @pytest.mark.parametrize("section", [{"learning_rate": float("nan")},
                                         {"learning_rate": float("inf")},
                                         {"learning_rate": -0.1},
                                         {"wc_learning_rate": -1.0},
                                         {"wc_learning_rate": float("nan")},
                                         {"seed": -1}, {"max_epochs": 0},
                                         {"batch_frames": 0}, {"patience": 0},
                                         {"grad_mode": "autodiff"},
                                         {"grad_mode": "finite_difference"}])
    def test_train_limits_come_from_train_config(self, section):
        with pytest.raises(ValueError, match=r"\['train'\]"):
            config.validate_config({"train": section})

    def test_train_config_limits_are_the_only_ones(self):
        cfg = {"train": {"learning_rate": 0, "batch_frames": 1}}
        assert config.validate_config(cfg) == cfg
        assert config.train_config(cfg) == unfolded.TrainConfig(
            learning_rate=0, batch_frames=1)

    def test_wc_learning_rate_resolves_once(self):
        assert unfolded.TrainConfig(learning_rate=0.5).wc_learning_rate == 0.005
        assert unfolded.TrainConfig(learning_rate=0.5, wc_learning_rate=0.2).wc_learning_rate == 0.2
        assert config.train_config({"train": {"wc_learning_rate": None}}).wc_learning_rate == 1e-4

    def test_sections_name_exactly_the_settings_fields(self):
        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}
        assert set(config.FIELDS["irls"]) == names(irls.IrlsConfig)
        network = set(config.NETWORK_DEFAULTS)
        assert set(config.FIELDS["train"]) == names(unfolded.TrainConfig) | network
        assert not names(unfolded.TrainConfig) & network

    def test_network_shape_is_not_a_train_setting(self):
        cfg = {"train": {"k_layers": 3, "d": 2, "lambda_b_init": 0.5}}
        assert config.train_config(cfg) == unfolded.TrainConfig()
        assert config.train_config(cfg).grad_mode == "analytic"

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            config.validate_config([1, 2, 3])

    def test_readme_example_validates(self):
        example = re.search(r"`run\.json` holds.*?```json\n(.*?)```",
                            README.read_text(), re.S)
        cfg = json.loads(example.group(1))
        assert config.validate_config(cfg) == cfg


class TestTyping:
    INT_FIELDS = [(section, key) for section, fields in config.FIELDS.items()
                  if isinstance(fields, dict)
                  for key, field in fields.items() if field.kind is int]

    @pytest.mark.parametrize("section, key", INT_FIELDS)
    def test_integral_float_becomes_int(self, section, key):
        cfg = {section: {key: 4.0}}
        out = config.validate_config(cfg)
        assert out == cfg and type(out[section][key]) is int
        assert type(cfg[section][key]) is float  # the input is left alone

    @pytest.mark.parametrize("section, key", INT_FIELDS)
    @pytest.mark.parametrize("value", [4.5, True, float("nan"), float("inf"), "4"])
    def test_integer_fields_refuse_other_values(self, section, key, value):
        with pytest.raises(ValueError, match=rf"at \['{section}'\]: {key} must be"):
            config.validate_config({section: {key: value}})

    @pytest.mark.parametrize("cfg", [{"irls": {"lambda_c": True}},
                                     {"render": {"dynamic_range_db": False}},
                                     {"svd": {"low_cut": True}},
                                     {"train": {"grad_mode": 0}},
                                     {"input": 3}, {"method": None}])
    def test_booleans_are_not_numbers_and_types_are_exact(self, cfg):
        with pytest.raises(ValueError, match="must be"):
            config.validate_config(cfg)

    def test_null_only_where_allowed(self):
        cfg = {"simulate": {"snr_db": None}, "train": {"wc_learning_rate": None},
               "svd": {"low_cut": None, "high_cut": None}}
        assert config.validate_config(cfg) == cfg
        for section, key in (("simulate", "frames"), ("irls", "tol"),
                             ("render", "dynamic_range_db")):
            with pytest.raises(ValueError, match="must be"):
                config.validate_config({section: {key: None}})

    @pytest.mark.parametrize("cfg", [{"seed": -1}, {"ensemble": 1},
                                     {"ensemble": 1.0}])
    def test_seed_and_ensemble_limits_stay_in_the_table(self, cfg):
        with pytest.raises(ValueError, match="must be at least"):
            config.validate_config(cfg)

    @pytest.mark.parametrize("cfg", [{"svd": {"fraction": float("nan")}},
                                     {"render": {"dynamic_range_db": -1.0}},
                                     {"simulate": {"n_units": 0,
                                                   "pixel_mm": float("nan"),
                                                   "frame_rate": float("inf")}},
                                     {"svd": {"low_cut": -1}}])
    def test_other_limits_belong_to_the_callees(self, cfg):
        assert config.validate_config(cfg) == cfg


_FUZZ_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-3, 300),
                        st.integers(-3, 300).map(float),
                        st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from(["svd", "irls", "analytic",
                                         "finite_difference", "", "x"]))
_FUZZ_OWN = {int: st.integers(1, 40).flatmap(lambda i: st.sampled_from([i, float(i)])),
             float: st.floats(0.0, 2.0), bool: st.booleans(),
             str: st.sampled_from(["analytic", "finite_difference", "in.umi"])}


def _fuzz_level(fields):
    """Any subset of the known keys and an unknown one, with fuzzed values."""
    def value(field):
        if isinstance(field, dict):
            return st.one_of(_fuzz_level(field), _FUZZ_VALUE)
        own = (st.sampled_from(field.kind) if isinstance(field.kind, tuple)
               else _FUZZ_OWN[field.kind])
        return st.one_of(own, _FUZZ_VALUE)
    return st.fixed_dictionaries({}, optional={
        **{key: value(field) for key, field in fields.items()},
        "no_such_key": _FUZZ_VALUE})


def _integral_floats(cfg):
    """cfg with every integer setting spelled as a float."""
    return {key: _integral_floats(value) if isinstance(value, dict)
            else float(value) if type(value) is int else value
            for key, value in cfg.items()}


@settings(max_examples=400, deadline=None)
@given(_fuzz_level(config.FIELDS))
@example(_integral_floats(full_config()))
def test_fuzzed_sections_validate_or_raise_value_error(cfg):
    try:
        out = config.validate_config(cfg)
    except ValueError as exc:
        assert str(exc).startswith("invalid config")
        return
    assert out == cfg
    levels = [(out, config.FIELDS)] + [(out.get(name, {}), fields)
                                       for name, fields in config.FIELDS.items()
                                       if isinstance(fields, dict)]
    for values, fields in levels:
        for key, value in values.items():
            if getattr(fields[key], "kind", None) is int:
                assert value is None or type(value) is int, key
    for section, built in (("irls", config.irls_config(out)),
                           ("train", config.train_config(out))):
        for key, field in config.FIELDS[section].items():
            if field.kind is int and hasattr(built, key):
                assert type(getattr(built, key)) is int, (section, key)


class TestHash:
    def test_matches_canonical_sha256(self):
        cfg = {"method": "svd", "seed": 3, "svd": {"low_cut": 2}}
        blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        expected = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert config.config_hash(cfg) == expected

    def test_key_order_invariant(self):
        a = {"seed": 1, "method": "irls"}
        b = {"method": "irls", "seed": 1}
        assert config.config_hash(a) == config.config_hash(b)

    def test_value_sensitivity(self):
        a = {"seed": 1}
        b = {"seed": 2}
        assert config.config_hash(a) != config.config_hash(b)

    def test_hex_digest_shape(self):
        h = config.config_hash({})
        assert len(h) == 64
        int(h, 16)


class TestLoad:
    def test_round_trip(self, tmp_path):
        cfg = full_config()
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert config.load_config(path) == cfg

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            config.load_config(path)

    def test_invalid_schema_from_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nonsense": True}))
        with pytest.raises(ValueError, match="nonsense"):
            config.load_config(path)

    def test_list_document_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            config.load_config(path)
