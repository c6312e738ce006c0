import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ppunlearn
from ppunlearn.data import ForgetSpec
from ppunlearn.errors import UsageError
from ppunlearn.evaluate import MiaConfig
from ppunlearn.harness import (FIELDS, ExperimentConfig, emit_plot_data,
                               load_summary, run_experiment, sweep_lambda)
from ppunlearn.model import TrainConfig
from ppunlearn.probmatrix import PseudoScheme
from ppunlearn.refine import RefineConfig


def blob_config(out_dir, method="ppu-bias", **overrides):
    cfg = ExperimentConfig(
        dataset={"kind": "blobs", "n_classes": 5, "dim": 8, "n_per_class": 125,
                 "spread": 0.6},
        forget={"mode": "selective", "target_class": 0, "count": 25},
        method=method,
        out_dir=str(out_dir),
        scheme={"kind": "random-softmax"},
        model={"hidden": 32, "epochs": 12, "lr": 0.05, "batch_size": 32,
               "momentum": 0.9},
        finetune={"epochs": 3, "lr": 0.02, "batch_size": 32, "momentum": 0.9},
        seeds={"data": 3, "model": 1, "protocol": 2},
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestConfig:
    def test_hash_stable_under_reordering(self, tmp_path):
        cfg = blob_config(tmp_path)
        d = cfg.to_dict()
        shuffled = dict(reversed(list(d.items())))
        cfg2 = ExperimentConfig.from_dict(shuffled)
        assert cfg.config_hash() == cfg2.config_hash()

    def test_hash_ignores_out_dir(self, tmp_path):
        a = blob_config(tmp_path / "a")
        b = blob_config(tmp_path / "b")
        assert a.config_hash() == b.config_hash()

    def test_hash_distinguishes_configs(self, tmp_path):
        a = blob_config(tmp_path)
        b = blob_config(tmp_path, lam=2.0)
        c = blob_config(tmp_path, method="ppu-privacy")
        assert len({a.config_hash(), b.config_hash(), c.config_hash()}) == 3

    def test_validation_lists_every_problem(self, tmp_path):
        cfg = blob_config(tmp_path, method="magic", lam=-1.0,
                          selection="nearest")
        cfg.dataset = {"kind": "parquet"}
        problems = cfg.validate()
        joined = " ".join(problems)
        for fragment in ("method", "lam", "selection", "dataset.kind"):
            assert fragment in joined
        with pytest.raises(UsageError):
            run_experiment(cfg)

    def test_unknown_field_rejected(self):
        with pytest.raises(UsageError):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_every_default(self, tmp_path):
        # only the required keys: every other value is a section default
        plan = ExperimentConfig.from_dict({
            "dataset": {"kind": "blobs"}, "forget": {"mode": "class"},
            "method": "ppu-privacy", "out_dir": str(tmp_path),
            "scheme": {"kind": "random-softmax"}, "model": {},
            "finetune": {}, "refine": {}, "evals": {}, "mia": {},
            "seeds": {"data": 3, "model": 4, "protocol": 5}}).check()
        assert plan.model == TrainConfig(0.05, 20, 32, 0.9, seed=4,
                                         loss="cross-entropy")
        assert plan.finetune == TrainConfig(0.05, 20, 32, 0.9, seed=5,
                                            loss="kl")
        assert plan.hidden == 32
        assert plan.refine == RefineConfig(1e-6, 10_000)
        assert plan.mia == MiaConfig(5, seed=5)
        assert plan.forget == ForgetSpec("class", target_class=0, seed=5)
        assert plan.scheme == PseudoScheme("random-softmax", seed=5)
        assert plan.dataset == ("blobs", {"n_classes": 5, "dim": 8,
                                          "n_per_class": 125, "spread": 0.6,
                                          "seed": 3})
        assert plan.evals == {"errors": True, "mia": False, "timing": False}

    def test_eta_is_only_checked(self, tmp_path):
        # the refine solve reads no step size: a numeric or a per-row eta
        # passes the check and leaves the refine settings at their defaults
        for eta in (4.0, "4.0/n"):
            plan = blob_config(tmp_path, refine={"eta": eta}).check()
            assert plan.refine == RefineConfig()

    def test_readme_documents_the_config(self):
        # the README's minimal config is valid, and its field reference
        # lists exactly the keys the parse reads, with their numeric and
        # boolean defaults
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        minimal = readme.split("A minimal config:")[1]
        minimal = minimal.split("```json")[1].split("```")[0]
        ExperimentConfig.from_dict(json.loads(minimal)).check()
        reference = readme.split("### Config reference")[1].split("\n\n#")[0]
        documented = set()
        for row in reference.splitlines():
            if row.startswith("| `"):
                cells = [cell.strip(" `") for cell in row.split("|")]
                for section, key in re.findall(r"`(\w+)\.(\w+)`",
                                               row.split("|")[1]):
                    documented.add((section, key))
                    if re.fullmatch(r"[-\d.e]+|true|false", cells[4]):
                        assert FIELDS[section][key][1] == json.loads(
                            cells[4]), (section, key)
        assert documented == {(section, key)
                              for section, keys in FIELDS.items()
                              for key in keys}


class TestRunExperiment:
    def test_run_and_reproduce(self, tmp_path):
        cfg = blob_config(tmp_path / "run")
        s1 = run_experiment(cfg)
        s2 = run_experiment(blob_config(tmp_path / "run2"))
        assert s1.config_hash == s2.config_hash
        assert s1.eval_report == s2.eval_report
        assert s1.method == "ppu-bias"
        assert s1.eval_report["counts"]["forget"] == 25

    def test_resume_from_partial_run(self, tmp_path):
        run_dir = tmp_path / "run"
        cfg = blob_config(run_dir)
        s1 = run_experiment(cfg)
        # wipe the eval stage and summary; resume must regenerate identically
        stages = json.loads((run_dir / "stages.json").read_text())
        stages["completed"].remove("eval")
        (run_dir / "stages.json").write_text(json.dumps(stages))
        (run_dir / "summary.json").unlink()
        s2 = run_experiment(blob_config(run_dir))
        assert s1.eval_report == s2.eval_report
        assert s1.selected_epoch == s2.selected_epoch

    def test_resume_recomputes_method_identically(self, tmp_path):
        # interrupt after the original-model stage: the re-run must execute
        # the method stage again and land on the same summary
        run_dir = tmp_path / "run"
        s1 = run_experiment(blob_config(run_dir))
        (run_dir / "stages.json").write_text(
            json.dumps({"completed": ["data", "original"]}))
        for name in ("summary.json", "method.json", "unlearned.ckpt"):
            (run_dir / name).unlink()
        s2 = run_experiment(blob_config(run_dir))
        assert s1.eval_report == s2.eval_report
        assert s1.selected_epoch == s2.selected_epoch
        assert s1.flags == s2.flags

    def test_wrong_config_for_run_dir(self, tmp_path):
        run_dir = tmp_path / "run"
        run_experiment(blob_config(run_dir))
        with pytest.raises(UsageError):
            run_experiment(blob_config(run_dir, lam=3.0))

    def test_csv_dataset(self, tmp_path):
        # a csv dataset runs as the blobs it holds
        from ppunlearn.data import gen_blobs
        ds = gen_blobs(5, 8, 125, 0.6, seed=3)
        path = tmp_path / "blobs.csv"
        path.write_text("".join(
            ",".join(map(repr, row)) + f",{label}\n"
            for row, label in zip(ds.inputs.tolist(), ds.labels.tolist())))
        from_csv = run_experiment(blob_config(
            tmp_path / "csv", dataset={"kind": "csv", "path": str(path)}))
        from_blobs = run_experiment(blob_config(tmp_path / "blobs"))
        assert from_csv.eval_report == from_blobs.eval_report

    def test_baseline_methods(self, tmp_path):
        for kind in ("original", "retrain", "finetune"):
            cfg = blob_config(tmp_path / kind, method=f"baseline:{kind}")
            summary = run_experiment(cfg)
            assert summary.method == f"baseline:{kind}"
            assert summary.eval_report is not None

    def test_mia_toggle(self, tmp_path):
        cfg = blob_config(tmp_path / "mia", method="baseline:original")
        cfg.dataset = dict(cfg.dataset, n_per_class=200)
        cfg.forget = {"mode": "selective", "target_class": 0, "count": 40}
        cfg.evals = {"errors": True, "mia": True}
        summary = run_experiment(cfg)
        assert summary.mia_report is not None
        assert 0.0 <= summary.mia_report["mean_accuracy"] <= 100.0

    def test_summary_regenerable(self, tmp_path):
        run_dir = tmp_path / "run"
        s1 = run_experiment(blob_config(run_dir))
        s2 = load_summary(run_dir)
        assert s1.to_dict() == s2.to_dict()


class TestRunDirectoryArtifacts:
    def test_privacy_run_persists_checkpoints_and_refined_matrix(self, tmp_path):
        from ppunlearn.probmatrix import load_probmatrix
        run_dir = tmp_path / "priv"
        cfg = blob_config(run_dir, method="ppu-privacy")
        cfg.refine = {"eta": "1.0/n"}
        run_experiment(cfg)
        ckpts = sorted((run_dir / "checkpoints").iterdir())
        assert [p.name for p in ckpts if p.suffix == ".ckpt"] == [
            "epoch_001.ckpt", "epoch_002.ckpt", "epoch_003.ckpt"]
        refined = load_probmatrix(run_dir / "refined.pmx")
        assert refined.n_rows == 440
        record = json.loads((run_dir / "refined.json").read_text())
        assert {"objective", "iterations", "residuals", "alpha",
                "eta_schedule", "converged"} <= set(record)

    def test_checkpoint_sidecars_hold_only_error_rates(self, tmp_path):
        run_dir = tmp_path / "priv"
        run_experiment(blob_config(run_dir, method="ppu-privacy"))
        trajectory = json.loads((run_dir / "method.json").read_text())[
            "trajectory"]
        assert all("retain_kl" in entry for entry in trajectory)
        for entry in trajectory:
            sidecar = json.loads((run_dir / "checkpoints" /
                                  f"epoch_{entry['epoch']:03d}.ckpt.json")
                                 .read_text())
            assert sidecar["error_rates"] == {
                k: entry[k] for k in ("forget", "retain", "test")}

    @pytest.mark.parametrize("method", ["ppu-bias", "ppu-privacy",
                                        "adaptive"])
    def test_streamed_checkpoints_equal_the_full_set(self, tmp_path,
                                                     monkeypatch, method):
        # the files written as the epochs complete hold the bytes that
        # saving finetune_kl's default set afterwards would write
        from ppunlearn import pipeline
        from ppunlearn.model import finetune_kl, save_model
        from ppunlearn.pipeline import ERROR_METRICS
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, {k: v for k, v in kwargs.items()
                                 if k != "on_entry"}))
            return finetune_kl(*args, **kwargs)

        monkeypatch.setattr(pipeline, "finetune_kl", recording)
        run_dir = tmp_path / "run"
        run_experiment(blob_config(run_dir, method=method))
        (args, kwargs), = calls
        full = finetune_kl(*args, **kwargs)
        assert len(full) == 3
        assert sorted(p.name for p in (run_dir / "checkpoints").iterdir()) \
            == sorted(f"epoch_{k:03d}.ckpt{ext}" for k in (1, 2, 3)
                      for ext in ("", ".json"))
        for entry in full.entries:
            name = f"epoch_{entry.epoch:03d}.ckpt"
            save_model(entry.params, tmp_path / name, epoch=entry.epoch,
                       error_rates={k: entry.metrics[k]
                                    for k in ERROR_METRICS})
            for ext in ("", ".json"):
                assert (run_dir / "checkpoints" / (name + ext)).read_bytes() \
                    == (tmp_path / (name + ext)).read_bytes()

    def test_json_records_share_one_format(self, tmp_path):
        # every JSON record of a run directory comes from one writer:
        # indent 2, sorted keys, one trailing newline
        run_dir = tmp_path / "priv"
        run_experiment(blob_config(run_dir, method="ppu-privacy"))
        records = sorted(run_dir.rglob("*.json"))
        assert [str(p.relative_to(run_dir)) for p in records] == [
            "checkpoints/epoch_001.ckpt.json",
            "checkpoints/epoch_002.ckpt.json",
            "checkpoints/epoch_003.ckpt.json", "config.json",
            "dataset.manifest.json", "method.json", "original.ckpt.json",
            "refined.json", "stages.json", "summary.json",
            "unlearned.ckpt.json"]
        for path in records:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2,
                                      sort_keys=True) + "\n", path.name

    def test_original_sidecar_records_the_trained_epochs(self, tmp_path):
        # a model section without "epochs" trains the default 20 epochs,
        # and the sidecar says so
        cfg = blob_config(tmp_path / "default", method="baseline:original")
        cfg.model = {"hidden": 16, "lr": 0.05}
        run_experiment(cfg)
        explicit = blob_config(tmp_path / "explicit",
                               method="baseline:original")
        explicit.model = {"hidden": 16, "lr": 0.05, "epochs": 20}
        run_experiment(explicit)
        for name in ("original.ckpt", "original.ckpt.json"):
            assert (tmp_path / "default" / name).read_bytes() == \
                (tmp_path / "explicit" / name).read_bytes()
        sidecar = json.loads(
            (tmp_path / "default" / "original.ckpt.json").read_text())
        assert sidecar["epoch"] == 20

    def test_zero_epoch_run_writes_no_checkpoints(self, tmp_path):
        run_dir = tmp_path / "run"
        cfg = blob_config(run_dir, method="ppu-privacy")
        cfg.finetune = dict(cfg.finetune, epochs=0)
        run_experiment(cfg)
        assert (run_dir / "unlearned.ckpt").exists()
        assert not (run_dir / "checkpoints").exists()

    def test_bench_three_methods_three_rows(self, tmp_path):
        run_dir = tmp_path / "bench"
        cfg = blob_config(run_dir)
        cfg.evals = {"errors": True, "timing": True}
        cfg.timing_repetitions = 2
        summary = run_experiment(cfg)
        assert len(summary.timings) == 3
        paths = emit_plot_data(run_dir)
        timing_csv = (run_dir / "plot_timing.csv").read_text()
        lines = timing_csv.strip().split("\n")
        assert lines[0] == "method,mean_seconds,std_error"
        assert len(lines) == 4  # header + one row per method

    def test_bench_leaves_run_directory_untouched(self, tmp_path):
        from ppunlearn.data import load_dataset, make_forget_split
        from ppunlearn.harness import bench_methods
        from ppunlearn.model import load_model
        run_dir = tmp_path / "priv"
        cfg = blob_config(run_dir, method="ppu-privacy")
        cfg.refine = {"eta": "1.0/n"}
        cfg.timing_repetitions = 1
        run_experiment(cfg)

        def state():
            # content plus inode and mtime, so an identical rewrite shows
            return {f: (f.read_bytes(), f.stat().st_ino, f.stat().st_mtime_ns)
                    for f in run_dir.rglob("*") if f.is_file()}

        before = state()
        ds = load_dataset(run_dir / "dataset")
        plan = cfg.check()
        split = make_forget_split(ds, plan.forget)
        original, _ = load_model(run_dir / "original.ckpt")
        records = bench_methods(plan, ds, split, original)
        assert [r.label for r in records] == [
            "ppu-privacy", "baseline:retrain", "baseline:finetune"]
        assert state() == before


class TestAtomicWrites:
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        # json.dump has written part of the payload when it meets the
        # object it cannot encode
        from ppunlearn.harness import _write_json
        path = tmp_path / "method.json"
        _write_json(path, {"a": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            _write_json(path, {"a": 2, "b": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["method.json"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        from ppunlearn.model import ModelLayout, init_model, save_model
        params = init_model(ModelLayout(2, 3, 2), seed=0)
        with pytest.raises(TypeError):
            save_model(params, tmp_path / "m.ckpt",
                       error_rates={"forget": object()})
        # the binary is complete and in place; the sidecar never appeared
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_dataset_bytes_match_a_direct_savez(self, tmp_path):
        from ppunlearn.data import gen_blobs, save_dataset
        ds = gen_blobs(3, 4, 30, 0.5, seed=9)
        save_dataset(ds, tmp_path / "ds")
        np.savez(tmp_path / "direct.npz", inputs=ds.inputs, labels=ds.labels,
                 **{f"split_{k}": v for k, v in ds.splits.items()})
        assert (tmp_path / "ds.npz").read_bytes() == \
            (tmp_path / "direct.npz").read_bytes()


class TestSweep:
    def test_single_lambda_matches_single_run(self, tmp_path):
        cfg = blob_config(tmp_path / "sweep")
        rows = sweep_lambda(cfg, [1.0])
        single = run_experiment(blob_config(tmp_path / "single", lam=1.0))
        assert len(rows) == 1
        assert rows[0][1] == single.eval_report["retain_error"]
        assert rows[0][2] == single.eval_report["forget_error"]

    def test_child_runs_persisted(self, tmp_path):
        cfg = blob_config(tmp_path / "sweep")
        rows = sweep_lambda(cfg, [1.0, 2.0, 0.5])
        assert len(rows) == 3
        assert (tmp_path / "sweep" / "lam_1" / "summary.json").exists()
        assert (tmp_path / "sweep" / "lam_2" / "summary.json").exists()
        assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == [
            "lam_0.5", "lam_1", "lam_2", "sweep_lambda.csv"]
        table = (tmp_path / "sweep" / "sweep_lambda.csv").read_bytes()
        assert table == (b"lam,retain_error,forget_error\n"
                         b"1,0.7228915663,0\n"
                         b"2,0.2409638554,0\n"
                         b"0.5,0.7228915663,0\n")

    def test_sweep_needs_ppu_method(self, tmp_path):
        cfg = blob_config(tmp_path, method="baseline:retrain")
        with pytest.raises(UsageError):
            sweep_lambda(cfg, [1.0])

    def test_seed_sweep(self, tmp_path):
        from ppunlearn.harness import sweep_seeds
        cfg = blob_config(tmp_path / "seeds")
        rows = sweep_seeds(cfg, [3, 4])
        assert [r[0] for r in rows] == [3, 4]
        assert (tmp_path / "seeds" / "seed_3" / "summary.json").exists()
        assert sorted(p.name for p in (tmp_path / "seeds").iterdir()) == [
            "seed_3", "seed_4", "sweep_seeds.csv"]
        assert (tmp_path / "seeds" / "sweep_seeds.csv").read_bytes() == (
            b"seed,retain_error,forget_error\n"
            b"3,0.2409638554,4\n"
            b"4,0.2409638554,0\n")


class TestEmitPlotData:
    def test_series_files(self, tmp_path):
        run_dir = tmp_path / "run"
        run_experiment(blob_config(run_dir))
        paths = emit_plot_data(run_dir)
        forget_csv = (run_dir / "plot_forget_error.csv").read_text()
        lines = forget_csv.strip().split("\n")
        assert lines[0] == "epoch,forget_error"
        assert len(lines) == 1 + 3  # one point per fine-tune epoch

    def test_re_emission_byte_identical(self, tmp_path):
        run_dir = tmp_path / "run"
        run_experiment(blob_config(run_dir))
        emit_plot_data(run_dir)
        first = (run_dir / "plot_forget_error.csv").read_bytes()
        emit_plot_data(run_dir)
        assert (run_dir / "plot_forget_error.csv").read_bytes() == first

    def test_incomplete_run_explains_missing_stage(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "stages.json").write_text(
            json.dumps({"completed": ["data", "original"]}))
        with pytest.raises(UsageError, match="method"):
            emit_plot_data(run_dir)


class TestCli:
    def test_generate_train_unlearn_report(self, tmp_path):
        from ppunlearn.cli import main
        cfg = blob_config(tmp_path / "run")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["unlearn", "--config", str(cfg_path)]) == 0
        assert main(["eval", "--run-dir", str(tmp_path / "run")]) == 0
        assert main(["report", "--run-dir", str(tmp_path / "run")]) == 0
        assert main(["mia", "--run-dir", str(tmp_path / "run")]) == 0

    def test_generate_data_and_train(self, tmp_path):
        from ppunlearn.cli import main
        ds_path = tmp_path / "ds"
        assert main(["generate-data", "--out", str(ds_path), "--per-class",
                     "50", "--dim", "4"]) == 0
        assert main(["train", "--dataset", str(ds_path), "--out",
                     str(tmp_path / "m.ckpt"), "--epochs", "5"]) == 0
        assert (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["generate-data", "--classes", "1"], "--classes"),
        (["generate-data", "--spread", "nan"], "--spread"),
        (["generate-data", "--per-class", "5"], "--per-class"),
        (["generate-data", "--seed", "-1"], "--seed"),
        (["train", "--hidden", "0"], "--hidden"),
        (["train", "--lr", "0"], "lr"),
        (["train", "--batch-size", "0"], "batch_size"),
        (["train", "--seed", "-1"], "seed"),
    ])
    def test_bad_flag_exit_code(self, tmp_path, capsys, argv, flag):
        # checked before anything is read or written; train's training
        # flags are named as TrainConfig names them, like a config's fields
        from ppunlearn.cli import main
        ds = tmp_path / "ds"
        assert main(["generate-data", "--out", str(ds), "--per-class",
                     "20"]) == 0
        capsys.readouterr()
        if argv[0] == "train":
            argv = [*argv, "--dataset", str(ds)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert f"error: {flag}: must be" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    def test_validation_exit_code(self, tmp_path):
        from ppunlearn.cli import main
        bad = tmp_path / "bad.json"
        cfg = blob_config(tmp_path / "x")
        d = cfg.to_dict()
        d["method"] = "nonsense"
        bad.write_text(json.dumps(d))
        assert main(["unlearn", "--config", str(bad)]) == 2

    def test_nonconvergence_exit_code(self, tmp_path):
        from ppunlearn.cli import main
        cfg = blob_config(tmp_path / "nc", method="ppu-privacy")
        cfg.refine = {"max_iters": 2, "eta": 1e-12}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["unlearn", "--config", str(cfg_path)]) == 4

    def test_privacy_refine_converges_by_default(self, tmp_path):
        from ppunlearn.cli import main
        d = blob_config(tmp_path / "run", method="ppu-privacy").to_dict()
        del d["refine"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        assert main(["unlearn", "--config", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["refine_diagnostics"]["converged"]
        assert "refine_not_converged" not in summary["flags"]

    @pytest.mark.parametrize("field, value, name", [
        ("dataset", 5, "dataset"),
        ("evals", True, "evals"),
        ("lam", "1", "lam"),
        ("refine", {"eta": "abc"}, "refine.eta"),
        ("refine", {"eta": "x/n"}, "refine.eta"),
        ("refine", {"tol": "x"}, "refine.tol"),
        ("refine", {"tol": True}, "refine.tol"),
        ("refine", {"tol": 0}, "refine.tol"),
        ("refine", {"max_iters": "5"}, "refine.max_iters"),
        ("refine", {"max_iters": True}, "refine.max_iters"),
        ("refine", {"max_iters": 5.0}, "refine.max_iters"),
        ("adaptive_style", "x", "adaptive_style"),
        ("lam", True, "lam"),
        ("model", {"hidden": "32"}, "model.hidden"),
        ("model", {"epochs": 2.0}, "model.epochs"),
        ("model", {"lr": True}, "model.lr"),
        ("finetune", {"batch_size": "32"}, "finetune.batch_size"),
        ("finetune", {"batch_size": 8.5}, "finetune.batch_size"),
        ("finetune", {"epochs": True}, "finetune.epochs"),
        ("finetune", {"momentum": "0.9"}, "finetune.momentum"),
        ("refine", {"eta": True}, "refine.eta"),
        ("model", {"hidden": 0}, "model.hidden"),
        ("finetune", {"lr": 0}, "finetune.lr"),
        ("model", {"epochs": -1}, "model.epochs"),
        ("finetune", {"batch_size": 0}, "finetune.batch_size"),
        ("finetune", {"momentum": 1.0}, "finetune.momentum"),
        ("forget", {"mode": "selective", "target_class": 0, "count": "25"},
         "forget.count"),
        ("forget", {"mode": "selective", "target_class": 0, "count": 0},
         "forget.count"),
        ("forget", {"mode": "selective", "target_class": 0}, "forget.count"),
        ("forget", {"mode": "class", "target_class": "0"},
         "forget.target_class"),
        ("forget", {"mode": "class", "target_class": 0, "seed": 1.5},
         "forget.seed"),
        ("dataset", {"kind": "blobs", "dim": "8"}, "dataset.dim"),
        ("dataset", {"kind": "blobs", "n_classes": 5.0}, "dataset.n_classes"),
        ("dataset", {"kind": "blobs", "n_per_class": True},
         "dataset.n_per_class"),
        ("dataset", {"kind": "blobs", "spread": "0.6"}, "dataset.spread"),
        ("scheme", {"kind": "random-softmax", "seed": "7"}, "scheme.seed"),
        ("seeds", {"data": "3", "model": 1, "protocol": 2}, "seeds.data"),
        ("seeds", {"data": 3, "model": -1, "protocol": 2}, "seeds.model"),
        ("mia", {"repetitions": "5"}, "mia.repetitions"),
        ("mia", {"repetitions": 0}, "mia.repetitions"),
        ("timing_repetitions", 2.0, "timing_repetitions"),
        ("timing_repetitions", 0, "timing_repetitions"),
        ("forget", {"target_class": 0, "count": 25}, "forget.mode"),
        ("model", {"hiden": 64}, "model.hiden"),
        ("finetune", {"epoch": 5}, "finetune.epoch"),
        ("finetune", {"hidden": 16}, "finetune.hidden"),
        ("evals", {"errors": "false"}, "evals.errors"),
        ("evals", {"errors": True, "mia": "no"}, "evals.mia"),
        ("evals", {"errors": True, "timing": 0}, "evals.timing"),
        ("out_dir", 5, "out_dir"),
        ("model", {"lr": float("nan")}, "model.lr"),
        ("dataset", {"kind": "blobs", "spread": float("inf")},
         "dataset.spread"),
        ("lam", float("inf"), "lam"),
        ("refine", {"eta": 0}, "refine.eta"),
        ("refine", {"eta": -1}, "refine.eta"),
        ("refine", {"eta": "0/n"}, "refine.eta"),
        ("refine", {"eta": "-4/n"}, "refine.eta"),
    ])
    def test_wrong_type_config_exit_code(self, tmp_path, capsys, monkeypatch,
                                         field, value, name):
        from ppunlearn.cli import main
        # relative output paths go under the root; a wrong-type out_dir must
        # reach the config check before anything joins it to the root
        monkeypatch.setenv("PPUNLEARN_OUT_ROOT", str(tmp_path / "root"))
        d = blob_config(tmp_path / "run", method="ppu-privacy").to_dict()
        d[field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        assert main(["unlearn", "--config", str(cfg_path)]) == 2
        assert f"{name}: must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        # mia validates a run directory's config.json the same way
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "config.json").write_text(json.dumps(d))
        assert main(["mia", "--run-dir", str(tmp_path / "run")]) == 2
        assert f"{name}: must be" in capsys.readouterr().err

    def test_sweep_field_rejected(self, tmp_path, capsys):
        # no run reads the field, so a sweep in it would be ignored silently
        from ppunlearn.cli import main
        cfg = blob_config(tmp_path / "run", sweep={"lam": [1, 2]})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["unlearn", "--config", str(cfg_path)]) == 2
        assert "ppunlearn sweep" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("forget, message", [
        ({"mode": "selective", "target_class": 7, "count": 25},
         "target class 7 not in [0, 5)"),
        ({"mode": "selective", "target_class": 0, "count": 500},
         "cannot forget 500 samples: class 0 has only 88 train points"),
    ])
    def test_forget_spec_outside_the_dataset_exit_code(self, tmp_path, capsys,
                                                       forget, message):
        from ppunlearn.cli import main
        cfg = blob_config(tmp_path / "run", forget=forget)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["unlearn", "--config", str(cfg_path)]) == 2
        assert f"forget: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, stage", [
        ("mia", "method"), ("eval", "eval"), ("report", "eval")])
    def test_incomplete_run_exit_code(self, tmp_path, capsys, command, stage):
        from ppunlearn.cli import main
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "config.json").write_text(
            json.dumps(blob_config(run_dir).to_dict()))
        (run_dir / "stages.json").write_text(
            json.dumps({"completed": ["data", "original"]}))
        assert main([command, "--run-dir", str(run_dir)]) == 2
        assert f"stage {stage!r} missing" in capsys.readouterr().err

    @pytest.mark.parametrize("name, payload, commands", [
        ("stages.json", [], ("eval", "report", "mia", "unlearn")),
        ("stages.json", {"completed": "eval"}, ("eval", "mia", "unlearn")),
        ("method.json", [], ("report", "unlearn")),
        ("summary.json", 5, ("eval", "report")),
        ("summary.json", {"eval_report": {}}, ("eval", "report")),
        ("original.ckpt.json", [], ("unlearn",)),
        ("unlearned.ckpt.json", [], ("mia", "unlearn")),
        ("original.ckpt.json", {"seed": 1.5}, ("unlearn",)),
    ])
    def test_run_record_of_another_shape_exit_code(self, tmp_path, capsys,
                                                    name, payload, commands):
        # a record that decodes, but not to what the run wrote there
        from ppunlearn.cli import main
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(blob_config(tmp_path / "run").to_dict()))
        assert main(["unlearn", "--config", str(cfg_path)]) == 0
        path = tmp_path / "run" / name
        path.write_text(json.dumps(payload))
        for command in commands:
            capsys.readouterr()
            args = (["--config", str(cfg_path)] if command == "unlearn"
                    else ["--run-dir", str(tmp_path / "run")])
            assert main([command, *args]) == 3
            assert str(path) in capsys.readouterr().err

    def test_runtime_exit_code(self, tmp_path):
        from ppunlearn.cli import main
        assert main(["eval", "--run-dir", str(tmp_path / "missing")]) != 0

    def test_truncated_run_file_exit_code(self, tmp_path, capsys):
        # a crash mid-write leaves a truncated JSON file in the run directory
        from ppunlearn.cli import main
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(blob_config(tmp_path / "run").to_dict()))
        assert main(["unlearn", "--config", str(cfg_path)]) == 0
        for name in ("stages.json", "config.json", "method.json"):
            run_dir = tmp_path / name
            shutil.copytree(tmp_path / "run", run_dir)
            path = run_dir / name
            path.write_bytes(path.read_bytes()[:9])
            capsys.readouterr()
            assert main(["unlearn", "--config", str(cfg_path),
                         "--out-dir", str(run_dir)]) == 3
            assert str(path) in capsys.readouterr().err

    @staticmethod
    def _edit_npz(path, **changes):
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        for key, value in changes.items():
            if value is None:
                del arrays[key]
            else:
                arrays[key] = value(arrays[key])
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @staticmethod
    def _set_nan(inputs):
        inputs = inputs.copy()
        inputs[0, 0] = np.nan
        return inputs

    @pytest.mark.parametrize("case,named,says", [
        ("truncated", "dataset.npz", "not a readable dataset"),
        ("no-labels", "dataset.npz", "labels"),
        ("no-n_classes", "dataset.manifest.json", "n_classes"),
        ("nan-input", "dataset.npz", "finite"),
        ("edited-input", "dataset.npz", "content hash"),
    ])
    def test_corrupt_dataset_exit_code(self, tmp_path, capsys, case, named,
                                       says):
        # a resumed run loads the dataset its data stage wrote
        from ppunlearn.cli import main
        from ppunlearn.data import _content_hash
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(blob_config(tmp_path / "run").to_dict()))
        assert main(["unlearn", "--config", str(cfg_path)]) == 0
        npz = tmp_path / "run" / "dataset.npz"
        manifest_path = tmp_path / "run" / "dataset.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if case == "truncated":
            npz.write_bytes(npz.read_bytes()[:len(npz.read_bytes()) // 2])
        elif case == "no-labels":
            self._edit_npz(npz, labels=None)
        elif case == "no-n_classes":
            del manifest["n_classes"]
        elif case == "nan-input":
            # with a matching hash, so that only the finiteness check fails
            self._edit_npz(npz, inputs=self._set_nan)
            with np.load(npz) as z:
                manifest["provenance"]["content_hash"] = _content_hash(
                    z["inputs"], z["labels"])
        else:
            self._edit_npz(npz, inputs=lambda x: x + 1.0)
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["unlearn", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert named in err and says in err

    @pytest.mark.parametrize("bad_row, line", [
        (b"0.5,\xff1.0,0\n", "line 3"),
        (b"0.5,1.0,nan\n", "line 3"),
        (b"0.5,inf,1\n", "line 3"),
    ])
    def test_unreadable_csv_exit_code(self, tmp_path, capsys, bad_row, line):
        from ppunlearn.cli import main
        path = tmp_path / "data.csv"
        path.write_bytes(b"1.0,2.0,0\n3.0,4.0,1\n" + bad_row)
        cfg = blob_config(tmp_path / "run",
                          dataset={"kind": "csv", "path": str(path)})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["unlearn", "--config", str(cfg_path)]) == 3
        assert line in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_sweep_command(self, tmp_path):
        from ppunlearn.cli import main
        cfg = blob_config(tmp_path / "sweep")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["sweep", "--config", str(cfg_path), "--lam", "1,2"]) == 0
        # the same sweep and table as ``sweep_lambda``
        assert (tmp_path / "sweep" / "sweep_lambda.csv").read_bytes() == (
            b"lam,retain_error,forget_error\n"
            b"1,0.7228915663,0\n"
            b"2,0.2409638554,0\n")
        # a value that does not parse is rejected before any child runs
        cfg.out_dir = str(tmp_path / "bad")
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["sweep", "--config", str(cfg_path), "--lam", "1,x"]) == 2
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("axis, values, forget, says", [
        ("--lam", "1,-2", None, "lam: must be a positive number, not -2.0"),
        ("--seeds", "3,4", {"mode": "selective", "target_class": 0,
                            "count": 500}, "forget: cannot forget 500"),
        ("--lam", "1,1.0000001", None,
         "lam sweep: values [1.0, 1.0000001] share a run directory"),
    ])
    def test_invalid_sweep_writes_nothing(self, tmp_path, capsys, axis,
                                          values, forget, says):
        from ppunlearn.cli import main
        cfg = blob_config(tmp_path / "sweep")
        cfg.forget = forget or cfg.forget
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["sweep", "--config", str(cfg_path), axis, values]) == 2
        assert says in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_sweep_wrong_type_out_dir_exit_code(self, tmp_path, capsys,
                                                monkeypatch):
        from ppunlearn.cli import main
        from ppunlearn.harness import sweep_seeds
        monkeypatch.setenv("PPUNLEARN_OUT_ROOT", str(tmp_path / "root"))
        cfg = blob_config(tmp_path / "sweep")
        cfg.out_dir = 5
        with pytest.raises(UsageError, match="out_dir: must be a non-empty "
                                             "string, not 5"):
            sweep_seeds(cfg, [3, 4])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        for axis in ("--lam", "--seeds"):
            assert main(["sweep", "--config", str(cfg_path), axis, "3"]) == 2
            assert "out_dir: must be a non-empty string, not 5" in (
                capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_sweep_without_error_evals_exit_code(self, tmp_path, capsys):
        # the sweep table holds error rates, which such runs do not compute
        from ppunlearn.cli import main
        cfg = blob_config(tmp_path / "sweep",
                          evals={"errors": False, "mia": False})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["sweep", "--config", str(cfg_path), "--seeds",
                     "3,4"]) == 2
        assert "evals.errors" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_unlearn_overrides(self, tmp_path):
        from ppunlearn.cli import main
        cfg = blob_config(tmp_path / "base")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "overridden"
        assert main(["unlearn", "--config", str(cfg_path),
                     "--lam", "2.0", "--epochs", "2", "--seed", "9",
                     "--out-dir", str(out)]) == 0
        saved = json.loads((out / "config.json").read_text())
        assert saved["lam"] == 2.0
        assert saved["finetune"]["epochs"] == 2
        assert saved["seeds"] == {"data": 9, "model": 10, "protocol": 11}

    def test_out_root_env(self, tmp_path, monkeypatch):
        from ppunlearn.cli import main
        monkeypatch.setenv("PPUNLEARN_OUT_ROOT", str(tmp_path))
        cfg = blob_config("rooted_run")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["unlearn", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "rooted_run" / "summary.json").exists()

    def test_malformed_config_file_exit_code(self, tmp_path, capsys):
        from ppunlearn.cli import main
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"dataset": ')
        for command in ("unlearn", "bench", "sweep"):
            capsys.readouterr()
            assert main([command, "--config", str(cfg_path)]) == 3
            assert f"{cfg_path}: not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, message", [
        ({}, "missing config fields: "
             "['dataset', 'forget', 'method', 'out_dir']"),
        ([], "a config is a JSON object, not list"),
    ])
    def test_incomplete_config_exit_code(self, tmp_path, capsys, payload,
                                         message):
        from ppunlearn.cli import main
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main(["unlearn", "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        # the config.json of a run directory is read the same way
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "config.json").write_text(json.dumps(payload))
        assert main(["mia", "--run-dir", str(run_dir)]) == 2
        assert message in capsys.readouterr().err

    def test_refine_without_iterations_exit_code(self, tmp_path, capsys):
        from ppunlearn.cli import main
        cfg = blob_config(tmp_path / "run", method="ppu-privacy")
        cfg.refine = {"max_iters": 0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["unlearn", "--config", str(cfg_path)]) == 2
        assert "max_iters >= 1, got 0" in capsys.readouterr().err

    def test_bench_times_against_the_run_original(self, tmp_path, monkeypatch):
        # with no "epochs" in the model section, bench must train the same
        # original model that run_experiment trains and saves
        from ppunlearn import harness
        from ppunlearn.cli import main
        from ppunlearn.model import load_model
        cfg = blob_config(tmp_path / "run", method="baseline:original")
        cfg.model = {"hidden": 16, "lr": 0.05}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        received = []

        def capture(cfg, ds, split, original):
            received.append(original)
            return []

        monkeypatch.setattr(harness, "bench_methods", capture)
        assert main(["bench", "--config", str(cfg_path)]) == 0
        run_experiment(cfg)
        saved, _ = load_model(tmp_path / "run" / "original.ckpt")
        assert len(received) == 1
        for a, b in zip(received[0].tensors(), saved.tensors()):
            assert np.array_equal(a, b)

    def test_threads_env_applied_before_numpy_loads(self):
        # BLAS sizes its thread pool when NumPy loads, so PPUNLEARN_THREADS
        # only works if the package applies it before its first import
        script = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None
sys.meta_path.insert(0, Spy())
from ppunlearn.cli import main
print(seen[0])
"""
        src = os.path.dirname(os.path.dirname(ppunlearn.__file__))
        env = {k: v for k, v in os.environ.items() if k not in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env.update(PPUNLEARN_THREADS="1", PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=60)
        assert out.stdout.split() == ["1"]
