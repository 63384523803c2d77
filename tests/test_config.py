"""Run-configuration validation and hashing."""

import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microflow import config, unfolded

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
            "rho": 1.0,
            "max_iter": 100,
            "tol": 1e-6,
            "normalize": True,
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

    def test_unknown_nested_key(self):
        cfg = {"irls": {"d": 4, "momentum": 0.9}}
        with pytest.raises(ValueError, match="momentum"):
            config.validate_config(cfg)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            config.validate_config({"method": "wavelet"})

    def test_bad_type(self):
        with pytest.raises(ValueError):
            config.validate_config({"seed": "seven"})

    def test_bad_range(self):
        with pytest.raises(ValueError):
            config.validate_config({"irls": {"d": 0}})

    @pytest.mark.parametrize("section", [{"rho": 1.5}, {"rho": 0.0},
                                         {"lambda_c": float("nan")},
                                         {"lambda_b": float("inf")},
                                         {"epsilon": 0.0}])
    def test_irls_limits_come_from_solver_config(self, section):
        with pytest.raises(ValueError, match=r"\['irls'\]"):
            config.validate_config({"irls": section})

    def test_irls_rho_two_still_accepted(self):
        cfg = {"irls": {"rho": 2.0}}
        assert config.validate_config(cfg) == cfg
        assert config.irls_config(cfg).rho == 2.0

    @pytest.mark.parametrize("section", [{"learning_rate": float("nan")},
                                         {"learning_rate": float("inf")},
                                         {"learning_rate": -0.1},
                                         {"wc_learning_rate": -1.0},
                                         {"wc_learning_rate": float("nan")},
                                         {"seed": -1}, {"max_epochs": 0},
                                         {"batch_frames": 0}, {"patience": 0},
                                         {"grad_mode": "autodiff"}])
    def test_train_limits_come_from_train_config(self, section):
        with pytest.raises(ValueError, match=r"\['train'\]"):
            config.validate_config({"train": section})

    def test_train_config_limits_are_the_only_ones(self):
        cfg = {"train": {"learning_rate": 0, "batch_frames": 1}}
        assert config.validate_config(cfg) == cfg
        assert config.train_config(cfg) == unfolded.TrainConfig(
            learning_rate=0, batch_frames=1)

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


_FUZZ_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-3, 300),
                        st.floats(allow_nan=True, allow_infinity=True),
                        st.sampled_from(["analytic", "finite_difference", ""]))
_FUZZ_KEYS = {
    "train": ["k_layers", "d", "lambda_b_init", "learning_rate",
              "wc_learning_rate", "batch_frames", "max_epochs", "patience",
              "seed", "grad_mode"],
    "svd": ["low_cut", "high_cut", "fraction"],
    "render": ["dynamic_range_db"],
}


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({
    section: st.dictionaries(st.sampled_from(keys), _FUZZ_VALUE)
    for section, keys in _FUZZ_KEYS.items()}))
def test_fuzzed_sections_validate_or_raise_value_error(cfg):
    try:
        config.validate_config(cfg)
    except ValueError:
        pass


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
