import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ppunlearn
from ppunlearn.errors import UsageError
from ppunlearn.evaluate import evaluate_model
from ppunlearn.model import (CheckpointEntry, CheckpointSet, ModelLayout,
                             TrainConfig, forward_probs, init_model)
from ppunlearn.pipeline import (UnlearnTask, adaptive_post, ppu_bias,
                                ppu_privacy, select_checkpoint)
from ppunlearn.probmatrix import PseudoScheme, kl_rows
from ppunlearn.refine import RefineConfig


def kl_cfg(epochs=5, lr=0.02, seed=5, batch_size=32, momentum=0.9):
    return TrainConfig(lr=lr, epochs=epochs, batch_size=batch_size,
                       momentum=momentum, seed=seed, loss="kl")


class TestSelectCheckpoint:
    def _cps(self, forget_errors):
        p = init_model(ModelLayout(2, 2, 2), seed=0)
        entries = [CheckpointEntry(i + 1, p, {"forget": fe})
                   for i, fe in enumerate(forget_errors)]
        return CheckpointSet(entries)

    def test_single_checkpoint(self):
        epoch, _ = select_checkpoint(self._cps([42.0]), reference=10.0)
        assert epoch == 1

    def test_nearest_to_reference(self):
        epoch, _ = select_checkpoint(self._cps([0.0, 10.0, 24.0, 60.0]),
                                     reference=25.0)
        assert epoch == 3

    def test_tie_goes_to_earlier_epoch(self):
        epoch, _ = select_checkpoint(self._cps([20.0, 30.0]), reference=25.0)
        assert epoch == 1

    def test_empty_set_rejected(self):
        with pytest.raises(UsageError):
            select_checkpoint(CheckpointSet([]))

    def test_output_distance_criterion(self):
        p = init_model(ModelLayout(2, 2, 2), seed=0)
        entries = [CheckpointEntry(1, p, {"forget": 0.0, "retain_kl": 0.5}),
                   CheckpointEntry(2, p, {"forget": 9.0, "retain_kl": 0.1})]
        epoch, _ = select_checkpoint(CheckpointSet(entries), "output-distance")
        assert epoch == 2

    def test_output_distance_needs_metric(self):
        with pytest.raises(UsageError):
            select_checkpoint(self._cps([1.0]), "output-distance")

    def test_unknown_criterion_rejected(self):
        with pytest.raises(UsageError, match="unknown selection criterion"):
            select_checkpoint(self._cps([1.0]), "forget-error")


class TestBiasMode:
    def test_retain_targets_are_model_outputs(self, small_blobs, small_split,
                                              small_model):
        # only forget rows get substituted; verify through a 0-epoch run plus
        # direct target reconstruction
        from ppunlearn.pipeline import _train_positions
        from ppunlearn.probmatrix import pseudo_generate, replace_rows
        train_idx, fpos, rpos = _train_positions(small_blobs, small_split)
        outputs = forward_probs(small_model, small_blobs.inputs[train_idx])
        pseudo = pseudo_generate(len(fpos), 5, PseudoScheme("uniform"))
        targets = replace_rows(outputs, fpos, pseudo)
        assert np.array_equal(targets.values[rpos], outputs.values[rpos])
        assert targets.values[fpos] == pytest.approx(0.2)

    def test_zero_epochs_identity(self, small_blobs, small_split, small_model):
        task = UnlearnTask(small_blobs, small_split, "bias",
                           PseudoScheme("uniform"), kl_cfg(epochs=0))
        rep = ppu_bias(small_model, task)
        assert rep.selected_epoch is None
        assert rep.trajectory == []
        for ta, tb in zip(rep.params.tensors(), small_model.tensors()):
            assert np.array_equal(ta, tb)

    def test_trajectory_shape_and_selection(self, small_blobs, small_split,
                                            small_model):
        task = UnlearnTask(small_blobs, small_split, "bias",
                           PseudoScheme("random-softmax", seed=7), kl_cfg(4))
        rep = ppu_bias(small_model, task)
        assert len(rep.trajectory) == 4
        assert rep.selected_epoch == 4  # bias mode keeps the last epoch
        assert rep.method == "ppu-bias"
        assert rep.refine_summary is None
        for entry in rep.trajectory:
            assert {"forget", "retain", "test", "kl_loss", "epoch"} <= set(entry)
        assert all(v >= 0 for v in rep.timings.values())

    def test_mode_mismatch(self, small_blobs, small_split, small_model):
        task = UnlearnTask(small_blobs, small_split, "bias",
                           PseudoScheme("uniform"), kl_cfg(1))
        with pytest.raises(UsageError):
            ppu_privacy(small_model, task)

    def test_determinism(self, small_blobs, small_split, small_model):
        task = UnlearnTask(small_blobs, small_split, "bias",
                           PseudoScheme("random-softmax", seed=7), kl_cfg(3))
        a = ppu_bias(small_model, task)
        b = ppu_bias(small_model, task)
        assert a.deterministic_fields() == b.deterministic_fields()
        for ta, tb in zip(a.params.tensors(), b.params.tensors()):
            assert np.array_equal(ta, tb)


class TestPrivacyMode:
    def test_requires_refine_config(self, small_blobs, small_split):
        with pytest.raises(UsageError):
            UnlearnTask(small_blobs, small_split, "privacy",
                        PseudoScheme("uniform"), kl_cfg(1))

    def test_end_to_end_fixed_point(self, small_blobs, small_split, small_model):
        # pseudo rows equal to the original forget outputs leave the
        # constraints satisfied: refinement returns its targets unchanged in
        # one iteration and the fine-tune sits at a loss minimum
        from ppunlearn.model import finetune_kl
        from ppunlearn.pipeline import _train_positions
        from ppunlearn.probmatrix import class_mass, replace_rows
        from ppunlearn.refine import problem_from_outputs, refine
        train_idx, fpos, rpos = _train_positions(small_blobs, small_split)
        X = small_blobs.inputs[train_idx]
        outputs = forward_probs(small_model, X)
        targets = replace_rows(outputs, fpos, outputs.take(fpos))
        problem = problem_from_outputs(outputs, targets, fpos, rpos)
        result = refine(problem)
        assert result.converged
        assert result.iterations == 1
        assert result.objective == 0.0
        assert np.array_equal(result.matrix.values, targets.values)
        cps = finetune_kl(small_model, X, result.matrix, kl_cfg(2, lr=0.001))
        assert cps.initial_loss <= 1e-12
        final = cps.entries[-1].params
        for ta, tb in zip(final.tensors(), small_model.tensors()):
            assert np.allclose(ta, tb, atol=1e-6)

    def test_report_contract(self, small_blobs, small_split, small_model):
        task = UnlearnTask(small_blobs, small_split, "privacy",
                           PseudoScheme("uniform"), kl_cfg(2),
                           refine_cfg=RefineConfig(eta=1.0 / 440))
        rep = ppu_privacy(small_model, task)
        assert rep.refine_summary is not None
        assert rep.selected_epoch in [e["epoch"] for e in rep.trajectory]
        assert "selection_reference" in rep.flags

    def test_cut_off_reports_residual_of_returned_matrix(
            self, small_blobs, small_split, small_model):
        # a warm start close to the class masses, cut off after one step
        # that lands farther away: the warm start is returned, and the
        # summary reports its residual, not the last iterate's
        from ppunlearn.pipeline import _train_positions
        from ppunlearn.probmatrix import ProbMatrix, class_mass
        train_idx, _, _ = _train_positions(small_blobs, small_split)
        outputs = forward_probs(small_model, small_blobs.inputs[train_idx])
        warm = ProbMatrix(0.999 * outputs.values + 0.001 / outputs.n_classes)
        task = UnlearnTask(small_blobs, small_split, "privacy",
                           PseudoScheme("uniform"), kl_cfg(0),
                           refine_cfg=RefineConfig(max_iters=2,
                                                   warm_start=warm))
        rep = ppu_privacy(small_model, task)
        residuals = rep.refine_result.dual.residuals
        assert not rep.refine_summary["converged"]
        assert len(residuals) == 2 and residuals[1] > residuals[0]
        assert rep.refine_result.matrix is warm
        recomputed = np.abs(class_mass(warm) - class_mass(outputs)).max()
        assert rep.refine_summary["final_residual"] == recomputed

    def test_mass_always_feasible(self, small_blobs, small_split, small_model):
        from ppunlearn.pipeline import _train_positions
        from ppunlearn.probmatrix import class_mass
        train_idx, fpos, rpos = _train_positions(small_blobs, small_split)
        outputs = forward_probs(small_model, small_blobs.inputs[train_idx])
        mass = class_mass(outputs)
        assert mass.sum() == pytest.approx(len(train_idx), abs=1e-6)

    def test_retain_kl_metric_present(self, small_blobs, small_split,
                                      small_model):
        task = UnlearnTask(small_blobs, small_split, "privacy",
                           PseudoScheme("uniform"), kl_cfg(3),
                           refine_cfg=RefineConfig(eta=1.0 / 440),
                           selection="output-distance")
        rep = ppu_privacy(small_model, task)
        assert all("retain_kl" in e for e in rep.trajectory)


class TestAdaptive:
    def test_degenerate_predecessor_matches_bias(self, small_blobs,
                                                 small_split, small_model):
        scheme = PseudoScheme("random-softmax", seed=7)
        bias_task = UnlearnTask(small_blobs, small_split, "bias", scheme,
                                kl_cfg(3))
        ad_task = UnlearnTask(small_blobs, small_split, "adaptive", scheme,
                              kl_cfg(3), adaptive_style="bias")
        a = ppu_bias(small_model, bias_task)
        b = adaptive_post(small_model, ad_task)
        for ta, tb in zip(a.params.tensors(), b.params.tensors()):
            assert np.array_equal(ta, tb)

    def test_zero_epochs_returns_predecessor(self, small_blobs, small_split,
                                             small_model):
        task = UnlearnTask(small_blobs, small_split, "adaptive",
                           PseudoScheme("uniform"), kl_cfg(0),
                           adaptive_style="bias")
        rep = adaptive_post(small_model, task)
        for ta, tb in zip(rep.params.tensors(), small_model.tensors()):
            assert np.array_equal(ta, tb)


class TestTaskValidation:
    def test_unknown_mode(self, small_blobs, small_split):
        with pytest.raises(UsageError):
            UnlearnTask(small_blobs, small_split, "erase",
                        PseudoScheme("uniform"), kl_cfg(1))

    def test_ce_loss_rejected(self, small_blobs, small_split):
        with pytest.raises(UsageError):
            UnlearnTask(small_blobs, small_split, "bias",
                        PseudoScheme("uniform"),
                        TrainConfig(lr=0.1, epochs=1, loss="cross-entropy"))

    def test_bad_lambda(self, small_blobs, small_split):
        with pytest.raises(UsageError):
            UnlearnTask(small_blobs, small_split, "bias",
                        PseudoScheme("uniform"), kl_cfg(1), lam=0.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda(self, small_blobs, small_split, lam):
        # ppu_bias would otherwise train non-finite weights
        with pytest.raises(UsageError, match="lambda must be finite"):
            UnlearnTask(small_blobs, small_split, "bias",
                        PseudoScheme("uniform"), kl_cfg(1), lam=lam)


class TestFusedSnapshot:
    """Each trajectory entry equals an independent recomputation from that
    epoch's checkpoint with the public evaluation functions."""

    @pytest.mark.parametrize("style", ["bias", "privacy"])
    def test_trajectory_matches_recomputation(self, small_blobs, small_split,
                                              small_model, style):
        from ppunlearn.evaluate import error_rate
        from ppunlearn.model import kl_loss
        from ppunlearn.pipeline import _train_positions
        from ppunlearn.probmatrix import pseudo_generate, replace_rows
        ds, split = small_blobs, small_split
        scheme = PseudoScheme("random-softmax", seed=7)
        task = UnlearnTask(ds, split, style, scheme, kl_cfg(4), lam=0.5,
                           refine_cfg=RefineConfig(eta=1.0 / 440))
        run = ppu_privacy if style == "privacy" else ppu_bias
        checkpoints = []
        rep = run(small_model, task, on_checkpoint=checkpoints.append)

        train_idx, fpos, rpos = _train_positions(ds, split)
        X = ds.inputs[train_idx]
        if style == "privacy":
            targets = rep.refine_result.matrix
        else:
            pseudo = pseudo_generate(len(fpos), ds.n_classes, scheme)
            targets = replace_rows(forward_probs(small_model, X), fpos, pseudo)
        weights = np.ones(len(train_idx))
        weights[rpos] = task.lam
        subsets = {"forget": ds.arrays_at(split.forget_idx),
                   "retain": ds.arrays_at(split.retain_idx),
                   "test": ds.split_arrays("test")}
        xr = subsets["retain"][0]
        source_retain = forward_probs(small_model, xr)

        assert len(rep.trajectory) == len(checkpoints) == 4
        for entry, cp in zip(rep.trajectory, checkpoints):
            p = cp.params
            expected = {"epoch": cp.epoch,
                        "kl_loss": kl_loss(p, X, targets, weights)}
            for name, (sx, sy) in subsets.items():
                expected[name] = error_rate(p, sx, sy)
            if style == "privacy":
                expected["retain_kl"] = float(
                    kl_rows(forward_probs(p, xr), source_retain).mean())
            assert entry == expected


class TestStreamedSelection:
    """The pipeline selects while the checkpoints stream in, and keeps only
    the selected one."""

    @staticmethod
    def _entries(scores, key):
        p = init_model(ModelLayout(2, 2, 2), seed=0)
        return [CheckpointEntry(i + 1, p, {key: s})
                for i, s in enumerate(scores)]

    @pytest.mark.parametrize("criterion,key,scores", [
        ("forget-error-proxy", "forget", [40.0, 12.0, 31.0, 22.0, 28.0]),
        ("forget-error-proxy", "forget", [30.0, 20.0, 22.0, 20.0, 28.0]),
        ("forget-error-proxy", "forget", [30.0, float("nan"), 25.0, np.nan]),
        ("output-distance", "retain_kl", [0.5, 0.1, 0.3, 0.05, 0.2]),
        ("output-distance", "retain_kl", [0.5, 0.1, 0.1, 0.3]),
        ("output-distance", "retain_kl", [0.2, 0.1, np.nan, 0.0]),
    ], ids=["proxy", "proxy-tie", "proxy-nan", "distance", "distance-tie",
            "distance-nan"])
    def test_online_pick_equals_select_checkpoint(self, criterion, key,
                                                  scores):
        # both pick np.argmin over the scores: the first minimum, or the
        # first NaN
        from ppunlearn.pipeline import _RunningSelection, _selection_score
        entries = self._entries(scores, key)
        running = _RunningSelection(_selection_score(criterion, 25.0))
        for entry in entries:
            running.offer(entry)
        epoch, params = select_checkpoint(CheckpointSet(entries), criterion,
                                          reference=25.0)
        score = (np.abs(np.array(scores) - 25.0)
                 if criterion == "forget-error-proxy" else np.array(scores))
        expected = entries[int(np.argmin(score))]
        assert running.entry is expected
        assert epoch == expected.epoch and params is expected.params

    def test_without_score_the_last_entry_is_kept(self):
        from ppunlearn.pipeline import _RunningSelection
        running = _RunningSelection()
        for entry in self._entries([3.0, 1.0, 2.0], "forget"):
            running.offer(entry)
        assert running.entry.epoch == 3

    @pytest.mark.parametrize("selection", ["forget-error-proxy",
                                           "output-distance"])
    def test_privacy_run_selects_as_select_checkpoint_would(
            self, small_blobs, small_split, small_model, selection):
        task = UnlearnTask(small_blobs, small_split, "privacy",
                           PseudoScheme("random-softmax", seed=7), kl_cfg(6),
                           refine_cfg=RefineConfig(), selection=selection)
        streamed = []
        rep = ppu_privacy(small_model, task, on_checkpoint=streamed.append)
        epoch, params = select_checkpoint(
            CheckpointSet(streamed), selection,
            rep.flags["selection_reference"])
        assert rep.selected_epoch == epoch
        assert rep.params is params
        assert [cp.epoch for cp in rep.checkpoints.entries] == [epoch]

    def test_held_memory_does_not_grow_with_epochs(self):
        # few rows and a wide hidden layer, so that a weight copy (≈ 260 KB)
        # outweighs each epoch's trajectory record many times over
        import tracemalloc
        from ppunlearn import ForgetSpec, gen_blobs, make_forget_split
        ds = gen_blobs(n_classes=3, dim=4, n_per_class=10, spread=0.6, seed=3)
        split = make_forget_split(ds, ForgetSpec("selective", 0, 3, seed=1))
        model = init_model(ModelLayout(4, 4096, 3), seed=1)
        copy_bytes = sum(t.nbytes for t in model.tensors())

        def peak(epochs):
            task = UnlearnTask(ds, split, "bias", PseudoScheme("uniform"),
                               kl_cfg(epochs))
            tracemalloc.start()
            try:
                rep = ppu_bias(model, task)
                return tracemalloc.get_traced_memory()[1], rep
            finally:
                tracemalloc.stop()

        peak(2)  # first-call allocations (lazy imports) out of the way
        short, _ = peak(4)
        long, rep = peak(100)
        # holding every epoch's weights would add 96 copies
        assert long - short < 2 * copy_bytes
        assert rep.selected_epoch == 100 and len(rep.checkpoints) == 1


class TestDeterminism:
    def test_sequential_blas_runs_are_byte_identical(self, tmp_path):
        # the determinism contract: fixed seeds and single-threaded BLAS
        # give bitwise-equal results across processes
        script = """
import json, sys
import ppunlearn as pl
ds = pl.gen_blobs(n_classes=3, dim=4, n_per_class=40, spread=0.6, seed=3)
split = pl.make_forget_split(ds, pl.ForgetSpec("selective", target_class=0,
                                               count=8, seed=103))
model = pl.train_ce(pl.init_model(pl.ModelLayout(4, 16, 3), seed=1),
                    *ds.split_arrays("train"),
                    pl.TrainConfig(lr=0.05, epochs=10, batch_size=16, seed=2))
task = pl.UnlearnTask(ds, split, "privacy",
                      pl.PseudoScheme("random-softmax", seed=7),
                      pl.TrainConfig(lr=0.02, epochs=4, batch_size=16, seed=5,
                                     loss="kl"),
                      refine_cfg=pl.RefineConfig(eta=1.0 / 84))
report = pl.ppu_privacy(model, task)
pl.save_model(report.params, sys.argv[1] + "/unlearned.ckpt",
              epoch=report.selected_epoch)
with open(sys.argv[1] + "/trajectory.json", "w") as fh:
    json.dump(report.trajectory, fh, sort_keys=True)
"""
        outputs = self._run_twice(tmp_path, script,
                                  ("unlearned.ckpt", "trajectory.json"))
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0]["trajectory.json"])) == 4

    def test_sequential_blas_training_is_byte_identical(self, tmp_path):
        # the path of the original model and of Retrain, at the acceptance
        # network's widths and with a short last batch
        script = """
import sys
import ppunlearn as pl
ds = pl.gen_blobs(n_classes=5, dim=48, n_per_class=30, spread=0.6, seed=3)
start = pl.init_model(pl.ModelLayout(48, 512, 5), seed=1)
model = pl.train_ce(start, *ds.split_arrays("train"),
                    pl.TrainConfig(lr=0.05, epochs=3, batch_size=32, seed=2))
assert (model.w1 != start.w1).any()
pl.save_model(model, sys.argv[1] + "/model.ckpt")
"""
        outputs = self._run_twice(tmp_path, script, ("model.ckpt",))
        assert outputs[0] == outputs[1]

    @staticmethod
    def _run_twice(tmp_path, script, files):
        """The named output files of two processes that each run ``script``
        with one BLAS thread and their output directory as argument."""
        src = os.path.dirname(os.path.dirname(ppunlearn.__file__))
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=src)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                           check=True, timeout=60)
            outputs.append({f: (out / f).read_bytes() for f in files})
        return outputs
