import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ppunlearn
from ppunlearn.errors import UsageError
from ppunlearn.harness import (ExperimentConfig, emit_plot_data, load_summary,
                               run_experiment, sweep_lambda)


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
        from ppunlearn.harness import _forget_spec, bench_methods
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
        split = make_forget_split(ds, _forget_spec(cfg))
        original, _ = load_model(run_dir / "original.ckpt")
        records = bench_methods(cfg, ds, split, original)
        assert [r.label for r in records] == [
            "ppu-privacy", "baseline:retrain", "baseline:finetune"]
        assert state() == before


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
    ])
    def test_wrong_type_config_exit_code(self, tmp_path, capsys, field,
                                         value, name):
        from ppunlearn.cli import main
        d = blob_config(tmp_path / "run", method="ppu-privacy").to_dict()
        d[field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        assert main(["unlearn", "--config", str(cfg_path)]) == 2
        assert f"{name}: must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_sweep_field_rejected(self, tmp_path, capsys):
        # no run reads the field, so a sweep in it would be ignored silently
        from ppunlearn.cli import main
        cfg = blob_config(tmp_path / "run", sweep={"lam": [1, 2]})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["unlearn", "--config", str(cfg_path)]) == 2
        assert "ppunlearn sweep" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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
