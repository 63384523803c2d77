"""Pipeline orchestration and the command line front end."""

import json
import logging
import re
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microflow import cli, config, formats, pipeline, svdfilt, unfolded
from microflow.casorati import FrameSequence, to_casorati

EXIT_CODES = {0, *pipeline.STAGE_EXIT_CODES.values()}


def tiny_dataset(tmp_path, nz=6, nx=5, nt=12, seed=0):
    rng = np.random.default_rng(seed)
    voxels = (rng.standard_normal((nz, nx, nt))
              + 1j * rng.standard_normal((nz, nx, nt)))
    seq = FrameSequence(voxels=voxels, frame_rate=1000.0,
                        center_freq=7.5e6, prf=5000.0)
    path = tmp_path / "in.umi"
    formats.write_dataset(seq, path)
    return path, formats.read_dataset(path)


def tiny_truth(dirpath, nz=6, nx=5, velocity=None):
    """Write a truth bundle for an nz x nx grid; velocity overrides its CSV."""
    dirpath.mkdir(exist_ok=True)
    flow = np.zeros((nz, nx))
    flow[:2] = 1.0
    formats.write_csv(flow, dirpath / "truth_flow_mask.csv")
    formats.write_csv(1.0 - flow, dirpath / "truth_tissue_mask.csv")
    if velocity is None:
        formats.write_csv(np.arange(nz * nx, dtype=float).reshape(nz, nx),
                          dirpath / "truth_velocity.csv")
    else:
        (dirpath / "truth_velocity.csv").write_bytes(velocity)
    return dirpath


def written_blood(outdir):
    """The blood estimate a run wrote to blood.umi, as a Casorati matrix."""
    return to_casorati(formats.read_dataset(Path(outdir) / "blood.umi"))


def sim_section(frames=10):
    return {
        "n_units": 1,
        "frames": frames,
        "cylinder_radius_mm": 8.0,
        "pixel_mm": 0.4,
        "snr_db": 20.0,
    }


class TestRunPipeline:
    def test_svd_keep_all_reproduces_input(self, tmp_path):
        path, seq = tiny_dataset(tmp_path)
        cfg = {"method": "svd", "svd": {"low_cut": 0},
               "input": str(path), "output": str(tmp_path / "out"),
               "ensemble": 4}
        pipeline.run_pipeline(cfg)
        assert np.array_equal(written_blood(tmp_path / "out"), to_casorati(seq))

    def test_auto_low_cut_from_the_filter_factorization(self, tmp_path):
        rng = np.random.default_rng(3)
        tissue = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 16))
        voxels = (50.0 * tissue + rng.standard_normal((30, 16))
                  + 1j * rng.standard_normal((30, 16))).reshape(6, 5, 16, order="F")
        path = tmp_path / "in.umi"
        formats.write_dataset(FrameSequence(voxels=voxels, frame_rate=1000.0,
                                            center_freq=7.5e6, prf=5000.0), path)
        d_mat = to_casorati(formats.read_dataset(path))
        cfg = {"method": "svd", "input": str(path), "output": str(tmp_path / "out")}
        report = pipeline.run_pipeline(cfg)
        low = svdfilt.estimate_low_cut(np.linalg.svd(d_mat, compute_uv=False))
        assert report["svd_low_cut"] == low == 3
        want = svdfilt.svd_clutter_filter(d_mat, svdfilt.SvdCutoffs(low))
        blood = written_blood(tmp_path / "out")
        assert np.linalg.norm(blood - want) <= 1e-12 * np.linalg.norm(want)

    def test_integral_float_cutoffs_accepted(self, tmp_path):
        path, seq = tiny_dataset(tmp_path)
        cfg = {"method": "svd", "svd": {"low_cut": 1.0, "high_cut": 5.0},
               "input": str(path), "output": str(tmp_path / "out")}
        report = pipeline.run_pipeline(cfg)
        want = svdfilt.svd_clutter_filter(to_casorati(seq), svdfilt.SvdCutoffs(1, 5))
        assert np.array_equal(written_blood(tmp_path / "out"), want)
        assert report["svd_low_cut"] == 1

    def test_report_contents_without_truth(self, tmp_path):
        path, _ = tiny_dataset(tmp_path)
        outdir = tmp_path / "out"
        cfg = {"method": "svd", "svd": {"low_cut": 1},
               "input": str(path), "output": str(outdir), "ensemble": 4}
        returned = pipeline.run_pipeline(cfg)
        report = json.loads((outdir / "report.json").read_text())
        assert report == returned
        assert report["config_hash"] == config.config_hash(cfg)
        assert report["config"] == cfg
        assert report["dataset"]["nt"] == 12
        assert report["metrics"]["cnr_db"] is None
        for name in ("blood.umi", "power.csv", "power.pgm", "velocity.csv",
                     "report.json"):
            assert (outdir / name).exists()
            assert name in report["artifacts"].values()

    def test_pgm_artifact_embeds_config_hash(self, tmp_path):
        path, _ = tiny_dataset(tmp_path)
        outdir = tmp_path / "out"
        cfg = {"method": "svd", "svd": {"low_cut": 0},
               "input": str(path), "output": str(outdir), "ensemble": 4}
        pipeline.run_pipeline(cfg)
        raw = (outdir / "power.pgm").read_bytes()
        assert f"# cfg:{config.config_hash(cfg)}\n".encode() in raw

    def test_simulated_run_produces_metrics(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = {"method": "svd", "simulate": sim_section(), "seed": 5,
               "output": str(outdir), "ensemble": 8}
        m = pipeline.run_pipeline(cfg)["metrics"]
        for key in ("cnr_db", "snr_db", "psl_db", "r_squared", "slope"):
            assert isinstance(m[key], float), key
        assert (outdir / "dataset.umi").exists()
        assert (outdir / "truth_velocity.csv").exists()
        assert (outdir / "truth_flow_mask.csv").exists()
        assert (outdir / "truth_tissue_mask.csv").exists()
        truth = formats.read_csv(outdir / "truth_velocity.csv")
        assert formats.read_csv(outdir / "power.csv").shape == truth.shape
        assert formats.read_csv(outdir / "velocity.csv").shape == truth.shape

    def test_byte_identical_reports_on_rerun(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = {"method": "svd", "simulate": sim_section(), "seed": 5,
               "output": str(outdir), "ensemble": 8}
        pipeline.run_pipeline(cfg)
        first = (outdir / "report.json").read_bytes()
        first_blood = (outdir / "blood.umi").read_bytes()
        pipeline.run_pipeline(cfg)
        assert (outdir / "report.json").read_bytes() == first
        assert (outdir / "blood.umi").read_bytes() == first_blood

    def test_irls_method_runs(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = {"method": "irls",
               "irls": {"d": 3, "lambda_b": 0.05, "max_iter": 20},
               "simulate": sim_section(), "seed": 5,
               "output": str(outdir), "ensemble": 8}
        report = pipeline.run_pipeline(cfg)
        assert np.isfinite(report["metrics"]["cnr_db"])

    def test_unfolded_train_then_model_reuse(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = {"method": "unfolded",
               "train": {"k_layers": 2, "d": 2, "lambda_b_init": 1.0,
                         "learning_rate": 0.05, "batch_frames": 4,
                         "max_epochs": 2, "patience": 2, "seed": 0,
                         "grad_mode": "analytic"},
               "simulate": sim_section(frames=16), "seed": 5,
               "output": str(outdir), "ensemble": 8}
        pipeline.run_pipeline(cfg)
        model_path = outdir / "model.u2m"
        assert model_path.exists()
        net = formats.read_model(model_path)
        assert net.theta.shape == (2, 3)

        outdir2 = tmp_path / "out2"
        cfg2 = {"method": "unfolded", "model": str(model_path),
                "input": str(outdir / "dataset.umi"), "truth": str(outdir),
                "output": str(outdir2), "ensemble": 8}
        report2 = pipeline.run_pipeline(cfg2)
        assert written_blood(outdir2).shape == written_blood(outdir).shape
        assert isinstance(report2["metrics"]["cnr_db"], float)

    def test_published_training_scale_config_runs(self, tmp_path):
        # the sizing used for the in-silico study: 10 layers, subspace 10,
        # initial sparsity weight 6, batches of 200 frames
        outdir = tmp_path / "out"
        cfg = {"method": "unfolded",
               "train": {"k_layers": 10, "d": 10, "lambda_b_init": 6.0,
                         "learning_rate": 0.01, "batch_frames": 200,
                         "max_epochs": 1, "patience": 1, "seed": 0,
                         "grad_mode": "analytic"},
               "simulate": sim_section(frames=260), "seed": 5,
               "output": str(outdir), "ensemble": 50}
        config.validate_config(cfg)
        report = pipeline.run_pipeline(cfg)
        net = formats.read_model(outdir / "model.u2m")
        assert net.theta.shape == (10, 11)
        assert np.all(np.isfinite(net.theta))
        assert np.isfinite(report["metrics"]["cnr_db"])


class TestPipelineErrors:
    def test_missing_output_is_config_error(self, tmp_path):
        path, _ = tiny_dataset(tmp_path)
        with pytest.raises(pipeline.PipelineError) as err:
            pipeline.run_pipeline({"method": "svd", "input": str(path)})
        assert err.value.stage == "config"

    def test_unknown_key_is_config_error(self, tmp_path):
        with pytest.raises(pipeline.PipelineError) as err:
            pipeline.run_pipeline({"bogus": 1, "output": str(tmp_path)})
        assert err.value.stage == "config"

    def test_no_input_or_simulate_is_config_error(self, tmp_path):
        with pytest.raises(pipeline.PipelineError) as err:
            pipeline.run_pipeline({"method": "svd",
                                   "output": str(tmp_path / "o")})
        assert err.value.stage == "config"

    def test_missing_input_file_is_input_error(self, tmp_path):
        cfg = {"method": "svd", "input": str(tmp_path / "absent.umi"),
               "output": str(tmp_path / "o")}
        with pytest.raises(pipeline.PipelineError) as err:
            pipeline.run_pipeline(cfg)
        assert err.value.stage == "input"

    def test_corrupt_dataset_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.umi"
        bad.write_bytes(b"JUNKJUNKJUNK")
        cfg = {"method": "svd", "input": str(bad),
               "output": str(tmp_path / "o")}
        with pytest.raises(pipeline.PipelineError) as err:
            pipeline.run_pipeline(cfg)
        assert err.value.stage == "input"

    def test_oversized_subspace_is_filter_error(self, tmp_path):
        path, _ = tiny_dataset(tmp_path, nt=8)
        cfg = {"method": "irls", "irls": {"d": 50}, "input": str(path),
               "output": str(tmp_path / "o"), "ensemble": 4}
        with pytest.raises(pipeline.PipelineError) as err:
            pipeline.run_pipeline(cfg)
        assert err.value.stage == "filter"

    def test_unfolded_without_model_or_train(self, tmp_path):
        path, _ = tiny_dataset(tmp_path)
        cfg = {"method": "unfolded", "input": str(path),
               "output": str(tmp_path / "o"), "ensemble": 4}
        with pytest.raises(pipeline.PipelineError) as err:
            pipeline.run_pipeline(cfg)
        assert err.value.stage == "config"
        assert not (tmp_path / "o").exists()


class TestCli:
    def test_simulate_filter_evaluate_render(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(
            {"simulate": sim_section(frames=12), "seed": 3}))
        simdir = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--output", str(simdir)]) == 0
        assert (simdir / "dataset.umi").exists()
        assert (simdir / "truth_flow_mask.csv").exists()

        fdir = tmp_path / "filt"
        assert cli.main(["filter", "--input", str(simdir / "dataset.umi"),
                         "--output", str(fdir), "--method", "svd"]) == 0
        assert (fdir / "blood.umi").exists()

        edir = tmp_path / "eval"
        assert cli.main(["evaluate", "--input", str(fdir / "blood.umi"),
                         "--truth", str(simdir),
                         "--output", str(edir), "--ensemble", "8"]) == 0
        report = json.loads((edir / "report.json").read_text())
        assert isinstance(report["metrics"]["cnr_db"], float)
        assert isinstance(report["metrics"]["r_squared"], float)

        pgm = tmp_path / "power.pgm"
        assert cli.main(["render", "--input", str(fdir / "power.csv"),
                         "--output", str(pgm), "--mode", "pgm"]) == 0
        assert pgm.read_bytes().startswith(b"P5\n")

    def test_train_and_infer(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "simulate": sim_section(frames=16), "seed": 4,
            "train": {"k_layers": 2, "d": 2, "lambda_b_init": 1.0,
                      "learning_rate": 0.05, "batch_frames": 4,
                      "max_epochs": 2, "patience": 2, "seed": 0,
                      "grad_mode": "analytic"}}))
        simdir = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--output", str(simdir)]) == 0
        model = tmp_path / "net.u2m"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--input", str(simdir / "dataset.umi"),
                         "--output", str(model)]) == 0
        assert model.exists()
        idir = tmp_path / "inf"
        assert cli.main(["infer", "--model", str(model),
                         "--input", str(simdir / "dataset.umi"),
                         "--output", str(idir)]) == 0
        assert (idir / "blood.umi").exists()

    def test_render_csv_mode(self, tmp_path):
        img = np.arange(6.0).reshape(2, 3)
        src = tmp_path / "img.csv"
        formats.write_csv(img, src)
        dst = tmp_path / "copy.csv"
        assert cli.main(["render", "--input", str(src),
                         "--output", str(dst), "--mode", "csv"]) == 0
        np.testing.assert_array_equal(formats.read_csv(dst), img)

    def test_normalize_setting_is_an_unknown_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"irls": {"normalize": True}}))
        rc = cli.main(["filter", "--config", str(cfg_path), "--method", "irls",
                       "--input", str(tiny_dataset(tmp_path)[0]),
                       "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown key 'normalize'" in err and err.count("\n") == 1

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"no_such_option": 1}))
        rc = cli.main(["simulate", "--config", str(cfg_path),
                       "--output", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_input_exit_code(self, tmp_path):
        rc = cli.main(["filter", "--input", str(tmp_path / "absent.umi"),
                       "--output", str(tmp_path / "o"), "--method", "svd"])
        assert rc == 3
        assert not (tmp_path / "o").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(
            {"simulate": sim_section(frames=4), "seed": 1}))
        simdir = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--output", str(simdir), "--seed", "9"]) == 0
        report = json.loads((simdir / "report.json").read_text())
        assert report["config"]["seed"] == 9

    def test_method_flag_overrides_config(self, tmp_path):
        path, _ = tiny_dataset(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"method": "irls"}))
        outdir = tmp_path / "out"
        assert cli.main(["filter", "--config", str(cfg_path),
                         "--input", str(path), "--output", str(outdir),
                         "--method", "svd", "--ensemble", "4"]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["config"]["method"] == "svd"

    def test_rank_deficient_irls_is_filter_exit_code(self, tmp_path, capsys):
        frame = np.random.default_rng(1).standard_normal((8, 6, 1))
        seq = FrameSequence(voxels=np.repeat(frame, 20, axis=2) + 0j,
                            frame_rate=1000.0, center_freq=7.5e6, prf=5000.0)
        path = tmp_path / "constant.umi"
        formats.write_dataset(seq, path)
        rc = cli.main(["filter", "--input", str(path),
                       "--output", str(tmp_path / "o"), "--method", "irls"])
        err = capsys.readouterr().err
        assert rc == 5
        assert "rank deficient" in err and err.count("\n") == 1

    def test_overflowing_penalty_is_one_filter_line(self, tmp_path, capsys):
        path, _ = tiny_dataset(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"irls": {"lambda_c": 1e307}}))
        rc = cli.main(["filter", "--config", str(cfg_path), "--input", str(path),
                       "--output", str(tmp_path / "o"), "--method", "irls"])
        err = capsys.readouterr().err
        assert rc == 5
        assert "non-finite iterate" in err and err.count("\n") == 1

    def test_default_initial_blood_penalty_is_the_solver_default(self, tmp_path):
        path, _ = tiny_dataset(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"train": {"k_layers": 2, "d": 2, "learning_rate": 0,
                                                  "batch_frames": 4, "max_epochs": 1}}))
        model = tmp_path / "net.u2m"
        assert cli.main(["train", "--config", str(cfg_path), "--input", str(path),
                         "--output", str(model)]) == 0
        lambda_b = unfolded.softplus(formats.read_model(model).theta[:, 0])
        np.testing.assert_allclose(lambda_b, 0.01, rtol=1e-12)

    def test_malformed_u2m2_model_is_input_exit_code(self, tmp_path, capsys):
        path, seq = tiny_dataset(tmp_path)
        irls_cfg = config.irls_config({"irls": {"d": 2}})
        net = unfolded.init_network(to_casorati(seq), k=2, d=2,
                                    lambda_b_init=1.0, cfg=irls_cfg)
        model = tmp_path / "net.u2m"
        formats.write_model(net, model)
        raw = bytearray(model.read_bytes())
        assert raw[:4] == b"U2M2"
        raw[24] = 9  # the normalize flag must be 1
        model.write_bytes(bytes(raw))
        rc = cli.main(["infer", "--model", str(model), "--input", str(path),
                       "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "normalize flag" in err and err.count("\n") == 1

    def test_zero_layer_model_is_input_exit_code(self, tmp_path, capsys):
        path, _ = tiny_dataset(tmp_path)
        model = tmp_path / "net.u2m"
        model.write_bytes(b"U2M1" + struct.pack("<3Id", 1, 0, 2, 1e-8))
        rc = cli.main(["infer", "--model", str(model), "--input", str(path),
                       "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "layer count 0" in err and err.count("\n") == 1
        assert "Traceback" not in err

    def test_non_finite_voxel_is_input_exit_code(self, tmp_path, capsys):
        path, _ = tiny_dataset(tmp_path)
        raw = bytearray(path.read_bytes())
        # voxel (2, 3, 4) of the 6x5 grid, axial index fastest
        struct.pack_into("<f", raw, 44 + 8 * (2 + 6 * 3 + 30 * 4), np.nan)
        path.write_bytes(bytes(raw))
        rc = cli.main(["filter", "--input", str(path),
                       "--output", str(tmp_path / "o"), "--method", "svd"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "non-finite" in err and err.count("\n") == 1

    def test_solver_limit_is_config_exit_code(self, tmp_path, capsys):
        path, _ = tiny_dataset(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"irls": {"tol": -1.0}}))
        rc = cli.main(["filter", "--config", str(cfg_path),
                       "--input", str(path), "--output", str(tmp_path / "o"),
                       "--method", "irls"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "tol" in err and err.count("\n") == 1

    def test_non_finite_learning_rate_is_config_exit_code(self, tmp_path, capsys):
        path, _ = tiny_dataset(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"train": {"learning_rate": NaN}}')
        rc = cli.main(["train", "--config", str(cfg_path), "--input", str(path),
                       "--output", str(tmp_path / "model.u2m")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "['train']" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command, section, key, value",
                             [("train", "train", "batch_frames", 4),
                              ("train", "train", "k_layers", 2),
                              ("filter", "irls", "max_iter", 5)])
    def test_integral_float_setting_matches_integer_spelling(
            self, tmp_path, command, section, key, value):
        path, _ = tiny_dataset(tmp_path)
        written = []
        for spelling in (value, float(value)):
            cfg = {"irls": {"d": 2, "max_iter": 5},
                   "train": {"k_layers": 2, "d": 2, "batch_frames": 4,
                             "max_epochs": 1, "patience": 1}}
            cfg[section][key] = spelling
            cfg_path = tmp_path / f"{spelling!r}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"out-{spelling!r}"
            args = [command, "--config", str(cfg_path), "--input", str(path)]
            if command == "train":
                args += ["--output", str(out / "net.u2m")]
            else:
                args += ["--output", str(out), "--method", "irls",
                         "--ensemble", "4"]
            assert cli.main(args) == 0
            written.append((out / ("net.u2m" if command == "train"
                                   else "blood.umi")).read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("value", ["4.5", "true"])
    def test_non_integral_setting_is_config_exit_code(self, tmp_path, capsys,
                                                      value):
        path, _ = tiny_dataset(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"train": {"batch_frames": %s}}' % value)
        rc = cli.main(["train", "--config", str(cfg_path), "--input", str(path),
                       "--output", str(tmp_path / "model.u2m")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "invalid config at ['train']: batch_frames" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("section, rc", [('"render": {"dynamic_range_db": NaN}', 8),
                                             ('"svd": {"fraction": NaN}', 5),
                                             ('"svd": {"low_cut": 1, "fraction": NaN}', 5)])
    def test_nan_limit_fails_in_its_stage(self, tmp_path, capsys, section, rc):
        path, _ = tiny_dataset(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{%s}" % section)
        outdir = tmp_path / "o"
        assert cli.main(["filter", "--config", str(cfg_path), "--input", str(path),
                         "--output", str(outdir), "--method", "svd"]) == rc
        err = capsys.readouterr().err
        assert "nan" in err and err.count("\n") == 1
        assert list(outdir.iterdir()) == []

    def test_refused_render_setting_leaves_no_simulated_files(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"simulate": sim_section(frames=4), "seed": 1,
                                        "render": {"dynamic_range_db": float("nan")}}))
        outdir = tmp_path / "o"
        assert cli.main(["filter", "--config", str(cfg_path), "--output", str(outdir),
                         "--method", "svd"]) == 8
        assert "nan" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    # pixel_mm 1e-6 asks for a 9.55 PiB frame stack, beyond the 128 TiB a
    # 64-bit process can address, so allocation fails before touching memory
    @pytest.mark.parametrize("key, value, message",
                             [("cylinder_radius_mm", 1e300, "infinity"),
                              ("snr_db", -1e308, "snr_db"),
                              ("pixel_mm", 1e-6, "Unable to allocate")])
    def test_overflowing_simulate_setting_is_simulate_exit_code(
            self, tmp_path, capsys, key, value, message):
        sim = sim_section(frames=2)
        sim[key] = value
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"simulate": sim}))
        rc = cli.main(["simulate", "--config", str(cfg_path),
                       "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 4
        assert message in err and err.count("\n") == 1
        assert "Traceback" not in err

    def test_finite_difference_grad_mode_is_config_exit_code(self, tmp_path, capsys):
        # the svd method never trains, so only the config stage can refuse it
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(
            {"simulate": sim_section(frames=4), "seed": 1,
             "train": {"grad_mode": "finite_difference"}}))
        rc = cli.main(["filter", "--config", str(cfg_path),
                       "--output", str(tmp_path / "o"), "--method", "svd"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "grad_mode" in err and err.count("\n") == 1

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit):
            cli.main(["defragment"])


class TestPrecisionBoundary:
    """Data is complex64 from the file boundary on, in every run mode."""

    SETTINGS = {"simulate": sim_section(frames=24), "seed": 5,
                "irls": {"d": 3, "lambda_b": 0.05, "max_iter": 20},
                "train": {"k_layers": 2, "d": 2, "lambda_b_init": 1.0,
                          "learning_rate": 0.05, "batch_frames": 8,
                          "max_epochs": 1, "patience": 1, "seed": 0}}

    @pytest.fixture(params=["svd", "irls", "unfolded"])
    def simulated_run(self, request, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(self.SETTINGS))
        sim = tmp_path / "sim"
        args = ["filter", "--config", str(cfg_path), "--method", request.param,
                "--ensemble", "16"]
        assert cli.main([*args, "--output", str(sim)]) == 0
        return args, sim

    def test_simulated_run_equals_filtering_its_dataset(self, simulated_run, tmp_path):
        args, sim = simulated_run
        again = tmp_path / "again"
        assert cli.main([*args, "--input", str(sim / "dataset.umi"),
                         "--truth", str(sim), "--output", str(again)]) == 0
        names = ["blood.umi", "power.csv", "velocity.csv"]
        names += ["model.u2m"] if (sim / "model.u2m").exists() else []
        for name in names:
            assert (again / name).read_bytes() == (sim / name).read_bytes(), name

    def test_report_metrics_equal_evaluating_its_blood(self, simulated_run, tmp_path):
        _, sim = simulated_run
        scored = tmp_path / "scored"
        assert cli.main(["evaluate", "--input", str(sim / "blood.umi"),
                         "--truth", str(sim), "--ensemble", "16",
                         "--output", str(scored)]) == 0
        want = json.loads((sim / "report.json").read_text())["metrics"]
        got = json.loads((scored / "report.json").read_text())["metrics"]
        assert isinstance(want["cnr_db"], float)
        assert got == want


class TestProgress:
    """--verbose sends the progress log to stderr; stdout holds the result."""

    def run_filter(self, tmp_path, capsys, *flags):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"simulate": sim_section(frames=4),
                                        "seed": 5,
                                        "irls": {"d": 2, "max_iter": 3}}))
        outdir = tmp_path / "o"
        assert cli.main(["filter", "--config", str(cfg_path), "--method",
                         "irls", "--output", str(outdir), *flags]) == 0
        log = logging.getLogger("microflow")
        assert log.handlers == [] and log.level == logging.NOTSET
        out, err = capsys.readouterr()
        assert out == f"filtered with irls; artifacts in {outdir}\n"
        report = json.loads((outdir / "report.json").read_text())
        return err, report["irls_iterations"]

    def test_verbose_progress_goes_to_stderr_once(self, tmp_path, capsys):
        for _ in range(2):
            err, iterations = self.run_filter(tmp_path, capsys, "--verbose")
            lines = err.splitlines()
            assert len(lines) == 1 + iterations
            assert re.fullmatch(r"phantom seed 5: 1 units, \d+ tissue \+ \d+ "
                                r"flow scatterers, grid \d+x\d+ at 0\.4 mm",
                                lines[0])
            for k, line in enumerate(lines[1:], start=1):
                assert re.fullmatch(rf"iter {k:3d}  change \d\.\d{{3}}e[+-]\d+"
                                    rf"  objective \d\.\d{{6}}e[+-]\d+", line)

    def test_quiet_without_the_flag(self, tmp_path, capsys):
        err, _ = self.run_filter(tmp_path, capsys)
        assert err == ""


class TestStageBoundary:
    """Missing settings, bad output paths, truth bundles, model files and
    header values fail in a stage."""

    def subcommand_args(self, tmp_path, command):
        path, seq = tiny_dataset(tmp_path)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "simulate": sim_section(frames=4),
            "train": {"k_layers": 2, "d": 2, "batch_frames": 4,
                      "max_epochs": 1, "patience": 1}}))
        image = tmp_path / "img.csv"
        formats.write_csv(np.arange(6.0).reshape(2, 3), image)
        model = tmp_path / "net.u2m"
        formats.write_model(unfolded.init_network(
            to_casorati(seq), k=2, d=2, lambda_b_init=1.0,
            cfg=config.irls_config({"irls": {"d": 2}})), model)
        return {
            "simulate": ["--config", str(cfg_path)],
            "filter": ["--input", str(path), "--method", "svd"],
            "train": ["--config", str(cfg_path), "--input", str(path)],
            "infer": ["--input", str(path), "--model", str(model)],
            "evaluate": ["--input", str(path), "--truth",
                         str(tiny_truth(tmp_path / "truth"))],
            "render": ["--input", str(image), "--mode", "pgm"],
        }[command]

    REQUIRED = {"filter": ("input", "method", "output"),
                "infer": ("input", "model", "output"),
                "train": ("input", "output"),
                "evaluate": ("input", "truth", "output"),
                "render": ("input", "output")}

    @pytest.mark.parametrize("command, missing", [
        (command, key) for command, keys in REQUIRED.items() for key in keys])
    def test_missing_setting_is_refused_before_any_output(self, tmp_path, capsys,
                                                          command, missing):
        args = self.subcommand_args(tmp_path, command)
        output = tmp_path / "new" / {"train": "m.u2m", "render": "p.pgm"}.get(command, "out")
        args += ["--output", str(output), "--verbose"]
        at = args.index(f"--{missing}")
        del args[at:at + 2]
        before = sorted(tmp_path.rglob("*"))
        rc = cli.main([command, *args])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith(f"microflow {command}: config stage:")
        assert f"(--{missing})" in err
        assert not (tmp_path / "new").exists()
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command, section", [("filter", {}),
                                                  ("infer", {"train": {"k_layers": 2, "d": 2}})])
    def test_unfolded_without_a_model_does_no_work(self, tmp_path, capsys, command, section):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"simulate": sim_section(frames=4), **section}))
        outdir = tmp_path / "new" / "out"
        rc = cli.main([command, "--config", str(cfg_path), "--method", "unfolded",
                       "--output", str(outdir), "--verbose"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "config stage" in err and "(--model)" in err
        assert "phantom" not in err
        assert not (tmp_path / "new").exists()

    def test_unreadable_model_fails_before_the_phantom_is_built(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"simulate": sim_section(frames=4)}))
        model = tmp_path / "bad.u2m"
        model.write_bytes(b"junk")
        rc = cli.main(["filter", "--config", str(cfg_path), "--method", "unfolded",
                       "--model", str(model), "--output", str(tmp_path / "o"), "--verbose"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1 and "input stage" in err
        assert "phantom" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, setting", [
        ("filter", "input"), ("infer", "input"), ("infer", "model"), ("train", "input"),
        ("evaluate", "input"), ("evaluate", "truth"), ("render", "input")])
    def test_unreadable_input_leaves_no_output(self, tmp_path, capsys, command, setting):
        args = self.subcommand_args(tmp_path, command)
        args[args.index(f"--{setting}") + 1] = str(tmp_path / "absent")
        output = tmp_path / "new" / {"train": "m.u2m", "render": "p.pgm"}.get(command, "out")
        rc = cli.main([command, *args, "--output", str(output)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1 and "input stage" in err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", ["simulate", "filter", "train",
                                         "infer", "evaluate", "render"])
    def test_output_blocked_by_file_is_config_exit_code(self, tmp_path, capsys,
                                                        command):
        blocker = tmp_path / "afile"
        blocker.write_text("in the way\n")
        output = blocker / "x" if command in ("train", "render") else blocker
        rc = cli.main([command, *self.subcommand_args(tmp_path, command),
                       "--output", str(output)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config stage" in err and err.count("\n") == 1
        assert blocker.read_text() == "in the way\n"

    @pytest.mark.parametrize("command", ["train", "render"])
    def test_output_file_naming_a_directory_is_config_exit_code(self, tmp_path, capsys,
                                                                command):
        output = tmp_path / "modeldir"
        output.mkdir()
        rc = cli.main([command, *self.subcommand_args(tmp_path, command),
                       "--output", str(output)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config stage" in err and "is a directory" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(output.iterdir()) == []

    @pytest.mark.parametrize("command", ["filter", "evaluate"])
    def test_malformed_truth_csv_is_input_exit_code(self, tmp_path, capsys,
                                                    command):
        path, _ = tiny_dataset(tmp_path)
        truth = tiny_truth(tmp_path / "truth", velocity=b"garbage,x\n")
        args = [command, "--input", str(path), "--truth", str(truth),
                "--output", str(tmp_path / "o"), "--ensemble", "4"]
        if command == "filter":
            args += ["--method", "svd"]
        rc = cli.main(args)
        err = capsys.readouterr().err
        assert rc == 3
        assert "garbage" in err and err.count("\n") == 1

    @pytest.mark.parametrize("value", [b"inf", b"nan"])
    def test_non_finite_truth_velocity_is_one_line(self, tmp_path, capfd, value):
        path, _ = tiny_dataset(tmp_path)
        row = b",".join([value] * 5)
        truth = tiny_truth(tmp_path / "truth", velocity=b"\n".join([row] * 6))
        rc = cli.main(["evaluate", "--input", str(path), "--truth", str(truth),
                       "--output", str(tmp_path / "o"), "--ensemble", "4"])
        err = capfd.readouterr().err
        assert rc == 7
        assert "non-finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("field, name, value", [(0, "frame_rate", 0.0),
                                                    (1, "center_freq", np.nan),
                                                    (2, "prf", np.inf)])
    def test_bad_header_rate_is_input_exit_code(self, tmp_path, capsys,
                                                field, name, value):
        path, _ = tiny_dataset(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 20 + 8 * field, value)
        path.write_bytes(bytes(raw))
        outdir = tmp_path / "o"
        rc = cli.main(["filter", "--input", str(path), "--output", str(outdir),
                       "--method", "svd", "--ensemble", "4"])
        err = capsys.readouterr().err
        assert rc == 3
        assert f"{name} is" in err and err.count("\n") == 1
        assert not (outdir / "report.json").exists()

    @pytest.mark.parametrize("theta", [(np.nan, 0.5), (0.5, np.inf)])
    def test_non_finite_model_parameter_is_input_exit_code(self, tmp_path,
                                                           capsys, theta):
        path, _ = tiny_dataset(tmp_path)
        model = tmp_path / "net.u2m"
        model.write_bytes(b"U2M1" + struct.pack("<3Id", 1, 1, 1, 1e-8)
                          + struct.pack("<2d", *theta))
        outdir = tmp_path / "o"
        rc = cli.main(["infer", "--model", str(model), "--input", str(path),
                       "--output", str(outdir)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "layer 0 has a non-finite" in err and err.count("\n") == 1
        assert not (outdir / "blood.umi").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["evaluate", "render"])
    def test_empty_csv_is_input_exit_code(self, tmp_path, capsys, command):
        if command == "evaluate":
            path, _ = tiny_dataset(tmp_path)
            truth = tiny_truth(tmp_path / "truth", velocity=b"")
            args = ["--input", str(path), "--truth", str(truth),
                    "--output", str(tmp_path / "o"), "--ensemble", "4"]
        else:
            empty = tmp_path / "empty.csv"
            empty.write_text("")
            args = ["--input", str(empty), "--output", str(tmp_path / "x.pgm")]
        rc = cli.main([command, *args])
        err = capsys.readouterr().err
        assert rc == 3
        assert "holds no data" in err and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_overflowing_noise_writes_no_dataset(self, tmp_path, capsys):
        sim = {**sim_section(frames=2), "snr_db": -800.0}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"simulate": sim}))
        outdir = tmp_path / "o"
        rc = cli.main(["simulate", "--config", str(cfg_path),
                       "--output", str(outdir)])
        err = capsys.readouterr().err
        assert rc == 4
        assert "not finite as complex64" in err and err.count("\n") == 1
        assert not (outdir / "dataset.umi").exists()

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_nan_snr_db_is_simulate_exit_code(self, tmp_path, capsys, snr_db):
        sim = {**sim_section(frames=2), "snr_db": snr_db}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"simulate": sim}))
        outdir = tmp_path / "o"
        rc = cli.main(["simulate", "--config", str(cfg_path),
                       "--output", str(outdir)])
        err = capsys.readouterr().err
        assert rc == 4
        assert "snr_db" in err and err.count("\n") == 1
        assert not (outdir / "dataset.umi").exists()


class TestUndefinedRatios:
    """A contrast ratio the image leaves undefined is null, not a failed run."""

    @pytest.fixture(scope="class")
    def dim_vessel(self, tmp_path_factory):
        # at this seed the blood region's mean power stays below the tissue's
        tmp = tmp_path_factory.mktemp("dim")
        cfg = tmp / "sim.json"
        cfg.write_text(json.dumps({"simulate": sim_section(frames=60), "seed": 5}))
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp / "sim")]) == 0
        return tmp / "sim"

    def test_evaluate_reports_undefined_cnr_as_null(self, tmp_path, dim_vessel):
        outdir = tmp_path / "ev"
        assert cli.main(["evaluate", "--input", str(dim_vessel / "dataset.umi"),
                         "--truth", str(dim_vessel), "--output", str(outdir)]) == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "power.csv", "report.json", "velocity.csv"]
        scores = json.loads((outdir / "report.json").read_text())["metrics"]
        assert scores["cnr_db"] is None
        assert all(isinstance(scores[key], float)
                   for key in ("snr_db", "psl_db", "r_squared"))

    def test_filter_keeping_only_the_clutter_writes_all_artifacts(self, tmp_path, dim_vessel):
        cfg = tmp_path / "svd.json"
        cfg.write_text(json.dumps({"svd": {"low_cut": 0, "high_cut": 1}}))
        outdir = tmp_path / "fs"
        assert cli.main(["filter", "--config", str(cfg), "--method", "svd",
                         "--input", str(dim_vessel / "dataset.umi"),
                         "--truth", str(dim_vessel), "--output", str(outdir)]) == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "blood.umi", "power.csv", "power.pgm", "report.json", "velocity.csv"]
        assert json.loads((outdir / "report.json").read_text())["metrics"]["cnr_db"] is None

    @pytest.fixture(scope="class")
    def small_vessel(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("small")
        cfg = tmp / "sim.json"
        section = dict(sim_section(frames=30), cylinder_radius_mm=4.0)
        cfg.write_text(json.dumps({"simulate": section, "seed": 1}))
        assert cli.main(["simulate", "--config", str(cfg), "--output", str(tmp / "sim")]) == 0
        return tmp / "sim"

    def evaluate_with_velocity(self, sim, tmp_path, velocity):
        truth = tmp_path / "truth"
        shutil.copytree(sim, truth)
        formats.write_csv(velocity, truth / "truth_velocity.csv")
        return cli.main(["evaluate", "--input", str(sim / "dataset.umi"),
                         "--truth", str(truth), "--output", str(tmp_path / "ev")])

    def test_constant_truth_velocity_reports_null_fit(self, tmp_path, small_vessel):
        velocity = formats.read_csv(small_vessel / "truth_velocity.csv")
        assert self.evaluate_with_velocity(small_vessel, tmp_path, np.zeros_like(velocity)) == 0
        outdir = tmp_path / "ev"
        assert sorted(p.name for p in outdir.iterdir()) == [
            "power.csv", "report.json", "velocity.csv"]
        scores = json.loads((outdir / "report.json").read_text())["metrics"]
        assert all(scores[key] is None for key in ("r_squared", "slope", "intercept"))

    def test_nan_truth_velocity_in_the_blood_mask_fails(self, tmp_path, small_vessel, capsys):
        velocity = formats.read_csv(small_vessel / "truth_velocity.csv")
        flow = formats.read_csv(small_vessel / "truth_flow_mask.csv") > 0.5
        velocity[tuple(np.argwhere(flow)[0])] = np.nan
        assert self.evaluate_with_velocity(small_vessel, tmp_path, velocity) == 7
        err = capsys.readouterr().err
        assert "non-finite" in err and err.count("\n") == 1
        assert not (tmp_path / "ev" / "report.json").exists()

    def test_overlapping_masks_still_fail_in_evaluate(self, tmp_path, capsys):
        path, _ = tiny_dataset(tmp_path)
        truth = tiny_truth(tmp_path / "truth")
        formats.write_csv(np.ones((6, 5)), truth / "truth_tissue_mask.csv")
        outdir = tmp_path / "o"
        rc = cli.main(["evaluate", "--input", str(path), "--truth", str(truth),
                       "--output", str(outdir), "--ensemble", "4"])
        err = capsys.readouterr().err
        assert rc == 7
        assert "disjoint" in err and err.count("\n") == 1
        assert not (outdir / "report.json").exists()


# Each strategy below starts from a valid file and corrupts a drawn subset
# of its fields, so examples reach every stage and not only the reader.
_BAD_RATES = st.sampled_from([0.0, -1.0, np.nan, np.inf, -np.inf, 1e-300,
                              1e300])
_BAD_DIMS = st.sampled_from([0, 2 ** 31, 2 ** 32 - 1])
_SLACK = st.integers(-24, 24).filter(bool)
_HUGE = 2 ** 31


def _fields(draw, valid, bad):
    """Draw every field from valid, except a drawn subset taken from bad."""
    broken = draw(st.sets(st.sampled_from(sorted(valid)), max_size=3))
    return {name: draw(bad[name] if name in broken else valid[name])
            for name in valid}


def _resized(blob, slack):
    """Truncate (slack < 0) or extend (slack > 0) a file's bytes."""
    return blob[:len(blob) + slack] if slack < 0 else blob + b"\x5a" * slack


@st.composite
def umi_files(draw):
    dim = st.integers(1, 5)
    rate = st.sampled_from([1000.0, 7.5e6, 5000.0])
    f = _fields(draw, {"version": st.just(1), "nz": dim, "nx": dim, "nt": dim,
                       "frame_rate": rate, "center_freq": rate, "prf": rate,
                       "slack": st.just(0)},
                {"version": st.sampled_from([0, 2]), "nz": _BAD_DIMS,
                 "nx": _BAD_DIMS, "nt": _BAD_DIMS, "frame_rate": _BAD_RATES,
                 "center_freq": _BAD_RATES, "prf": _BAD_RATES,
                 "slack": _SLACK})
    dims = [f["nz"], f["nx"], f["nt"]]
    count = int(np.prod(dims)) if max(dims) < _HUGE else 0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    blob = (b"UMI1" + struct.pack("<4I", f["version"], *dims)
            + struct.pack("<3d", f["frame_rate"], f["center_freq"], f["prf"])
            + rng.standard_normal(2 * count).astype("<f4").tobytes())
    return _resized(blob, f["slack"])


@st.composite
def u2m_files(draw):
    f = _fields(draw, {"layout": st.sampled_from([1, 2]),
                       "version": st.just(None), "k": st.integers(1, 3),
                       "d": st.integers(1, 4), "epsilon": st.just(1e-8),
                       "flag": st.integers(0, 1),
                       "n_space": st.sampled_from([0, 30]),
                       "theta": st.floats(-3.0, 3.0), "slack": st.just(0)},
                {"layout": st.just(0), "version": st.integers(0, 3),
                 "k": st.sampled_from([0, 2 ** 32 - 1]),
                 "d": st.sampled_from([0, 13, 2 ** 32 - 1]),
                 "epsilon": st.sampled_from([0.0, -1.0, np.nan, np.inf]),
                 "flag": st.integers(2, 9),
                 "n_space": st.sampled_from([1, 31, 2 ** 40]),
                 "theta": st.sampled_from([np.nan, np.inf, -np.inf, 1e300,
                                           -1e300]),
                 "slack": _SLACK})
    magic = {0: b"UMI1", 1: b"U2M1", 2: b"U2M2"}[f["layout"]]
    version = f["layout"] if f["version"] is None else f["version"]
    k, d = f["k"], f["d"]
    blob = magic + struct.pack("<3Id", version, k, d, f["epsilon"])
    if f["layout"] == 2:
        blob += struct.pack("<IQ", f["flag"], f["n_space"])
    if max(k, d) < _HUGE:
        blob += struct.pack(f"<{k * (1 + d)}d", *[f["theta"]] * (k * (1 + d)))
    return _resized(blob, f["slack"])


_BAD_CSV = st.one_of(
    st.sampled_from([b"", b"garbage,x\n", b"1,2\n3\n", b"\xff\xfe\n",
                     b"nan\n", b"0,0,0,0,0\n"]),
    st.builds(lambda v: b"\n".join([b",".join([v] * 5)] * 6),
              st.sampled_from([b"0", b"1", b"nan", b"inf", b"-1e308"])),
    st.binary(max_size=40))


def assert_stage_exit(rc, outdir):
    """rc is 0 or a stage's exit code; a run that succeeded wrote strict JSON."""
    assert rc in EXIT_CODES
    if rc == 0:
        json.loads((outdir / "report.json").read_text(), parse_constant=lambda
                   token: pytest.fail(f"report.json holds {token}"))


class TestFuzzedFiles:
    """No fuzzed header or truth bundle makes the CLI fail outside a stage."""

    @settings(max_examples=150, deadline=None)
    @given(blob=umi_files(), method=st.sampled_from(["svd", "irls"]))
    def test_fuzzed_dataset_header(self, blob, method):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "in.umi").write_bytes(blob)
            rc = cli.main(["filter", "--input", f"{tmp}/in.umi",
                           "--output", f"{tmp}/o", "--method", method])
            assert_stage_exit(rc, Path(tmp) / "o")

    @settings(max_examples=150, deadline=None)
    @given(blob=u2m_files())
    def test_fuzzed_model_header(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            tiny_dataset(Path(tmp))
            (Path(tmp) / "net.u2m").write_bytes(blob)
            rc = cli.main(["infer", "--input", f"{tmp}/in.umi",
                           "--model", f"{tmp}/net.u2m",
                           "--output", f"{tmp}/o", "--ensemble", "4"])
            assert_stage_exit(rc, Path(tmp) / "o")

    @settings(max_examples=100, deadline=None)
    @given(files=st.dictionaries(st.sampled_from(
        sorted(pipeline._TRUTH_FILES.values())), _BAD_CSV, max_size=3),
        command=st.sampled_from(["filter", "evaluate"]))
    def test_fuzzed_truth_bundle(self, files, command):
        with tempfile.TemporaryDirectory() as tmp:
            tiny_dataset(Path(tmp))
            tiny_truth(Path(tmp))
            for name, blob in files.items():
                (Path(tmp) / name).write_bytes(blob)
            args = [command, "--input", f"{tmp}/in.umi", "--truth", tmp,
                    "--output", f"{tmp}/o", "--ensemble", "4"]
            rc = cli.main(args + (["--method", "svd"]
                                  if command == "filter" else []))
            assert_stage_exit(rc, Path(tmp) / "o")
