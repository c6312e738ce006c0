import json
import struct
import threading

import numpy as np
import pytest

from ppunlearn import model as model_module
from ppunlearn.errors import (DataError, LayoutError, ShapeError, TargetError,
                              UsageError)
from ppunlearn.model import (CheckpointSet, CheckpointEntry, ModelLayout,
                             ModelParams, TrainConfig, _loss_and_grads,
                             finetune_kl, forward_probs, init_model, kl_loss,
                             load_model, measure, predict_labels, save_model,
                             train_ce)
from ppunlearn.probmatrix import ProbMatrix, kl_rows

from oracles import (finite_diff_grads, forward_reference,
                     logistic_regression_error, sgd_epochs_reference)


def two_blob_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(-2.0, 0.5, (n // 2, 2)),
                   rng.normal(2.0, 0.5, (n // 2, 2))])
    y = np.repeat([0, 1], n // 2)
    return X, y


class TestInitModel:
    def test_deterministic(self):
        a = init_model(ModelLayout(2, 4, 2), seed=7)
        b = init_model(ModelLayout(2, 4, 2), seed=7)
        for ta, tb in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_seed_sensitivity(self):
        a = init_model(ModelLayout(2, 4, 2), seed=7)
        b = init_model(ModelLayout(2, 4, 2), seed=8)
        assert not np.array_equal(a.w1, b.w1)

    def test_scale(self):
        p = init_model(ModelLayout(16, 8, 3), seed=0)
        assert np.abs(p.w1).max() <= 1.0 / 4.0
        assert np.abs(p.w2).max() <= 1.0 / np.sqrt(8)

    def test_bad_layout(self):
        with pytest.raises(LayoutError):
            ModelLayout(0, 4, 2)
        with pytest.raises(LayoutError):
            ModelLayout(2, -1, 2)

    def test_draws_each_tensor_in_checkpoint_order(self):
        # the draws of the original per-tensor init, into one vector
        p = init_model(ModelLayout(6, 5, 3), seed=9)
        rng = np.random.default_rng(9)
        s1, s2 = 1.0 / np.sqrt(6), 1.0 / np.sqrt(5)
        want = (rng.uniform(-s1, s1, (6, 5)), rng.uniform(-s1, s1, 5),
                rng.uniform(-s2, s2, (5, 3)), rng.uniform(-s2, s2, 3))
        for got, ref in zip(p.tensors(), want):
            assert got.tobytes() == ref.tobytes()


class TestModelParams:
    LAYOUT = ModelLayout(3, 5, 4)   # 15 + 5 + 20 + 4 = 44 weights

    @pytest.mark.parametrize("flat", [
        np.zeros(43), np.zeros(45), np.zeros((44, 1)), np.zeros((4, 11)),
        np.zeros(44, dtype=np.float32), np.zeros(44, dtype=np.int64)])
    def test_rejects_a_vector_that_does_not_fit_the_layout(self, flat):
        with pytest.raises(ShapeError, match=r"\(44,\) float64"):
            ModelParams(self.LAYOUT, 0, flat)

    def test_tensors_are_views_of_flat(self):
        flat = np.arange(44.0)
        p = ModelParams(self.LAYOUT, 0, flat)
        assert p.flat is flat
        assert [t.shape for t in p.tensors()] == [(3, 5), (5,), (5, 4), (4,)]
        assert all(np.shares_memory(t, flat) for t in p.tensors())
        assert np.array_equal(np.concatenate([t.ravel() for t in p.tensors()]),
                              flat)
        flat[:] = -1.0
        assert all((t == -1.0).all() for t in p.tensors())

    def test_copy_shares_no_memory(self):
        p = init_model(self.LAYOUT, seed=2)
        q = p.copy()
        assert (q.layout, q.seed) == (p.layout, p.seed)
        assert q.flat.tobytes() == p.flat.tobytes()
        for a in (q.flat, *q.tensors()):
            assert not any(np.shares_memory(a, b)
                           for b in (p.flat, *p.tensors()))
        q.flat[:] = 0.0
        assert q.w1.sum() == 0.0 and p.w1.any()


class TestForwardProbs:
    def test_zero_weights_give_uniform(self):
        p = init_model(ModelLayout(3, 5, 4), seed=0)
        for t in p.tensors():
            t[...] = 0.0
        out = forward_probs(p, np.random.default_rng(0).normal(size=(6, 3)))
        assert out.values == pytest.approx(np.full((6, 4), 0.25), abs=1e-15)

    def test_duplicated_input_rows(self):
        p = init_model(ModelLayout(3, 5, 4), seed=1)
        x = np.random.default_rng(1).normal(size=3)
        out = forward_probs(p, np.tile(x, (5, 1)))
        assert np.array_equal(out.values, np.tile(out.values[0], (5, 1)))

    def test_rows_sum_to_one(self, rng):
        p = init_model(ModelLayout(4, 6, 3), seed=2)
        out = forward_probs(p, rng.normal(size=(50, 4)))
        assert np.abs(out.values.sum(axis=1) - 1.0).max() <= 1e-12

    def test_width_mismatch(self):
        p = init_model(ModelLayout(4, 6, 3), seed=2)
        with pytest.raises(ShapeError):
            forward_probs(p, np.zeros((5, 3)))

    def test_buffered_pass_matches_bitwise(self, rng):
        p = init_model(ModelLayout(48, 512, 5), seed=3)
        X = rng.normal(size=(437, 48))
        out = (np.full((437, 512), np.nan), np.full((437, 5), np.nan))
        for _ in range(2):     # the second pass overwrites the first
            a1, logits = model_module._forward(p, X, out)
            assert a1 is out[0] and logits is out[1]
            ref_a1 = np.tanh(X @ p.w1 + p.b1)
            assert np.array_equal(a1, ref_a1)
            assert np.array_equal(logits, ref_a1 @ p.w2 + p.b2)
            p.w1 *= 0.5


class TestFrozenForward:
    @pytest.mark.parametrize("rows", [1, 25, 125, 440, 2000, 7000])
    @pytest.mark.parametrize("d, hidden, k", [(48, 512, 5), (8, 32, 5),
                                              (6, 40, 4), (3, 6, 4)])
    def test_matches_the_unfolded_pass_bitwise(self, rows, d, hidden, k):
        rng = np.random.default_rng(rows + hidden)
        params = init_model(ModelLayout(d, hidden, k), seed=5)
        params.b1 += rng.uniform(-1.0, 1.0, hidden)
        params.b2 += rng.uniform(-1.0, 1.0, k)
        assert params.b1.all() and params.b2.all()
        X = rng.normal(size=(rows, d))
        ref_a1, ref_logits, ref_probs = forward_reference(params, X)
        a1, logits = model_module._forward(params, X)
        assert a1.tobytes() == ref_a1.tobytes()
        assert logits.tobytes() == ref_logits.tobytes()
        assert forward_probs(params, X).values.tobytes() == (
            ProbMatrix(ref_probs).values.tobytes())
        assert np.array_equal(predict_labels(params, X),
                              ref_logits.argmax(axis=1))


class TestTrainCe:
    def test_separable_blobs_reach_low_error(self):
        X, y = two_blob_data()
        # independent linear oracle must already solve this data
        assert logistic_regression_error(X, y) <= 1.0
        cfg = TrainConfig(lr=0.1, epochs=50, batch_size=32, seed=5)
        params = train_ce(init_model(ModelLayout(2, 4, 2), seed=3), X, y, cfg)
        err = 100.0 * np.mean(predict_labels(params, X) != y)
        assert err <= 1.0

    def test_zero_epochs_identity(self):
        X, y = two_blob_data(40)
        start = init_model(ModelLayout(2, 4, 2), seed=3)
        out = train_ce(start, X, y, TrainConfig(lr=0.1, epochs=0, seed=5))
        for ta, tb in zip(start.tensors(), out.tensors()):
            assert np.array_equal(ta, tb)

    def test_deterministic(self):
        X, y = two_blob_data(60)
        cfg = TrainConfig(lr=0.05, epochs=10, batch_size=16, seed=9)
        a = train_ce(init_model(ModelLayout(2, 4, 2), seed=3), X, y, cfg)
        b = train_ce(init_model(ModelLayout(2, 4, 2), seed=3), X, y, cfg)
        for ta, tb in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_label_out_of_range(self):
        X, y = two_blob_data(20)
        y = y.copy()
        y[0] = 5
        with pytest.raises(DataError):
            train_ce(init_model(ModelLayout(2, 4, 2), seed=0), X, y,
                     TrainConfig(lr=0.1, epochs=1))

    def test_wrong_loss_kind(self):
        X, y = two_blob_data(20)
        with pytest.raises(UsageError):
            train_ce(init_model(ModelLayout(2, 4, 2), seed=0), X, y,
                     TrainConfig(lr=0.1, epochs=1, loss="kl"))

    def test_one_backward_pass_per_sgd_step(self, monkeypatch):
        calls = []
        real = model_module._loss_and_grads

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(model_module, "_loss_and_grads", counting)
        X, y = two_blob_data(30)
        cfg = TrainConfig(lr=0.05, epochs=3, batch_size=8, seed=9)
        train_ce(init_model(ModelLayout(2, 4, 2), seed=3), X, y, cfg)
        assert len(calls) == 3 * 4  # epochs * ceil(30 / 8)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(UsageError):
            TrainConfig(lr=0.0, epochs=1)
        with pytest.raises(UsageError):
            TrainConfig(lr=0.1, epochs=1, batch_size=0)
        with pytest.raises(UsageError):
            TrainConfig(lr=0.1, epochs=1, momentum=1.0)
        with pytest.raises(UsageError):
            TrainConfig(lr=0.1, epochs=1, loss="hinge")
        for lr in (float("nan"), float("inf")):
            with pytest.raises(UsageError, match="lr"):
                TrainConfig(lr=lr, epochs=1)


class TestFinetuneKl:
    def test_own_outputs_are_fixed_point(self, rng):
        X = rng.normal(size=(30, 3))
        params = init_model(ModelLayout(3, 6, 4), seed=4)
        targets = forward_probs(params, X)
        cfg = TrainConfig(lr=0.01, epochs=3, batch_size=8, seed=1, loss="kl")
        assert kl_loss(params, X, targets) == pytest.approx(0.0, abs=1e-15)
        cps = finetune_kl(params, X, targets, cfg)
        final = cps.entries[-1].params
        for ta, tb in zip(params.tensors(), final.tensors()):
            assert np.allclose(ta, tb, atol=1e-9)

    def test_onehot_targets_match_cross_entropy_loss(self, rng):
        # D_KL(onehot || q) = -log q_label, so the KL loss must equal the CE
        # loss for the same parameters
        X, y = two_blob_data(40, seed=2)
        params = init_model(ModelLayout(2, 5, 2), seed=6)
        T = np.zeros((40, 2))
        T[np.arange(40), y] = 1.0
        kl = kl_loss(params, X, ProbMatrix(T))
        ce, _ = _loss_and_grads(params, X, T, "cross-entropy")
        # the floored one-hot target changes the KL by O(floor) only
        assert kl == pytest.approx(ce, abs=1e-9)

    def test_checkpoints_and_metrics(self, rng):
        # one entry per epoch, whose metrics are left to the caller
        X = rng.normal(size=(24, 3))
        params = init_model(ModelLayout(3, 6, 4), seed=4)
        targets = forward_probs(params, X)
        cfg = TrainConfig(lr=0.01, epochs=5, batch_size=8, seed=1, loss="kl")
        cps = finetune_kl(params, X, targets, cfg)
        assert len(cps) == 5
        assert [e.epoch for e in cps.entries] == [1, 2, 3, 4, 5]
        for e in cps.entries:
            assert e.metrics == {}

    def test_on_entry_streams_the_default_entries(self, rng):
        X = rng.normal(size=(24, 3))
        params = init_model(ModelLayout(3, 6, 4), seed=4)
        targets = forward_probs(params, X)
        cfg = TrainConfig(lr=0.5, epochs=4, batch_size=8, seed=1, loss="kl")
        full = finetune_kl(params, X, targets, cfg)
        streamed = []
        rest = finetune_kl(params, X, targets, cfg, on_entry=streamed.append)
        assert len(rest) == 0
        assert [e.epoch for e in streamed] == [1, 2, 3, 4]
        for a, b in zip(full.entries, streamed):
            assert a.metrics == b.metrics
            for ta, tb in zip(a.params.tensors(), b.params.tensors()):
                assert np.array_equal(ta, tb)

    def test_positional_eval_sets_match_input_matrices(self, rng):
        # ``measure`` reads its subsets by position into the inputs
        X = rng.normal(size=(24, 3))
        y = rng.integers(0, 4, size=24)
        rows = np.array([5, 0, 17, 17, 3])
        params = init_model(ModelLayout(3, 6, 4), seed=4)
        cfg = TrainConfig(lr=0.5, epochs=3, batch_size=8, seed=1, loss="kl")
        ref = forward_probs(params, X[rows])
        cps = finetune_kl(params, X, np.full((24, 4), 0.25), cfg)
        for e in cps.entries:
            metrics = measure(e.params, X, {"by_pos": (rows, y[rows]),
                                            "drift": (rows, ref)})
            assert metrics["by_pos"] == 100.0 * float(
                np.mean(predict_labels(e.params, X[rows]) != y[rows]))
            out = forward_probs(e.params, X[rows])
            assert metrics["drift"] == float(kl_rows(out, ref).mean())

    def test_one_backward_pass_per_sgd_step(self, rng, monkeypatch):
        # every _loss_and_grads call is an SGD step
        calls = []
        real = model_module._loss_and_grads

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(model_module, "_loss_and_grads", counting)
        X = rng.normal(size=(30, 3))
        params = init_model(ModelLayout(3, 6, 4), seed=4)
        cfg = TrainConfig(lr=0.01, epochs=3, batch_size=8, seed=1, loss="kl")
        cps = finetune_kl(params, X, np.full((30, 4), 0.25), cfg,
                          row_weights=rng.uniform(0.5, 2.0, 30))
        assert len(cps) == 3
        assert len(calls) == 3 * 4  # epochs * ceil(30 / 8)

    def _pipelined_run(self, rng):
        # each snapshot is measured in the entry consumer as it arrives, as
        # the pipeline measures it
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 4, size=40)
        rows = np.array([3, 0, 39, 7, 7, 21])
        params = init_model(ModelLayout(3, 6, 4), seed=4)
        targets = ProbMatrix(rng.dirichlet(np.ones(4), size=40))
        weights = rng.uniform(0.5, 2.0, 40)
        eval_sets = {"forget": (rows, y[rows]),
                     "retain": (np.arange(8, 40), y[8:]),
                     "drift": (np.arange(20), forward_probs(params, X[:20]))}
        cfg = TrainConfig(lr=0.5, epochs=4, batch_size=8, seed=1, loss="kl")
        entries = []

        def measured(entry):
            entry.metrics = measure(entry.params, X, eval_sets)
            entries.append(entry)

        finetune_kl(params, X, targets, cfg, row_weights=weights,
                    on_entry=measured)
        return X, eval_sets, CheckpointSet(entries)

    def test_no_forward_pass_outside_the_sgd_workspace(self, rng,
                                                       monkeypatch):
        # fine-tuning measures nothing: its only forward passes are the SGD
        # steps', written into their workspace, and it computes no loss
        passes = []
        real = model_module._forward

        def recording(params, X, out=None):
            passes.append(out)
            return real(params, X, out)

        def forbidden(*args, **kwargs):
            raise AssertionError("fine-tuning measured")

        monkeypatch.setattr(model_module, "_forward", recording)
        for name in ("measure", "kl_loss", "_mean_loss"):
            monkeypatch.setattr(model_module, name, forbidden)
        X = rng.normal(size=(40, 3))
        params = init_model(ModelLayout(3, 6, 4), seed=4)
        cfg = TrainConfig(lr=0.5, epochs=3, batch_size=8, seed=1, loss="kl")
        cps = finetune_kl(params, X, np.full((40, 4), 0.25), cfg,
                          row_weights=rng.uniform(0.5, 2.0, 40))
        assert len(cps) == 3
        assert len(passes) == 3 * 5  # epochs * ceil(40 / 8)
        assert all(out is not None and out[0].shape == (8, 6)
                   and out[1].shape == (8, 4) for out in passes)

    def test_pipelined_snapshots_match_synchronous_recomputation(self, rng):
        X, eval_sets, cps = self._pipelined_run(rng)
        assert [e.epoch for e in cps.entries] == [1, 2, 3, 4]
        snaps = [e.params for e in cps.entries]
        assert all(a is not b and a.w1 is not b.w1
                   for a, b in zip(snaps, snaps[1:]))
        self._assert_recomputed(X, eval_sets, cps)

    @staticmethod
    def _assert_recomputed(X, eval_sets, cps):
        for e in cps.entries:
            p = e.params
            expected = {}
            for name, (rows, ref) in eval_sets.items():
                if isinstance(ref, ProbMatrix):
                    expected[name] = float(kl_rows(
                        forward_probs(p, X[rows]), ref).mean())
                else:
                    expected[name] = 100.0 * float(
                        np.mean(predict_labels(p, X[rows]) != ref))
            assert e.metrics == expected
            assert list(e.metrics) == [*eval_sets]

    def test_kl_rows_runs_on_the_calling_thread(self, rng, monkeypatch):
        threads = []
        real = model_module.kl_rows

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(model_module, "kl_rows", recording)
        self._pipelined_run(rng)
        assert threads and set(threads) == {threading.get_ident()}

    def test_training_exception_joins_worker(self, rng, monkeypatch):
        steps = []
        real = model_module._loss_and_grads

        def failing(*args, **kwargs):
            steps.append(1)
            if len(steps) == 7:  # inside epoch 2, after epoch 1's snapshot
                raise FloatingPointError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(model_module, "_loss_and_grads", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="injected"):
            self._pipelined_run(rng)
        assert threading.active_count() == before

    @pytest.mark.parametrize("weighted", [False, True])
    def test_kl_loss_is_the_training_loss(self, rng, weighted):
        X = rng.normal(size=(30, 3))
        params = init_model(ModelLayout(3, 6, 4), seed=4)
        targets = ProbMatrix(rng.dirichlet(np.ones(4), size=30))
        w = rng.uniform(0.5, 2.0, 30) if weighted else None
        loss, _ = _loss_and_grads(params, X, targets.values, "kl", w)
        assert kl_loss(params, X, targets, w) == loss

    def test_non_stochastic_targets_rejected(self, rng):
        X = rng.normal(size=(4, 3))
        params = init_model(ModelLayout(3, 6, 2), seed=4)
        with pytest.raises(TargetError):
            finetune_kl(params, X, np.full((4, 2), 0.3),
                        TrainConfig(lr=0.01, epochs=1, loss="kl"))

    @pytest.mark.parametrize("weights", [None, np.ones(0)])
    def test_zero_train_rows_rejected(self, weights):
        with pytest.raises(ShapeError, match=r"inputs of shape \(0, 3\)"):
            finetune_kl(init_model(ModelLayout(3, 4, 2), seed=0),
                        np.zeros((0, 3)), np.zeros((0, 2)),
                        TrainConfig(lr=0.1, epochs=1, loss="kl"),
                        row_weights=weights)

    def test_row_count_mismatch(self, rng):
        X = rng.normal(size=(4, 3))
        params = init_model(ModelLayout(3, 6, 2), seed=4)
        with pytest.raises(ShapeError):
            finetune_kl(params, X, np.full((3, 2), 0.5),
                        TrainConfig(lr=0.01, epochs=1, loss="kl"))

    def test_loss_non_increasing_at_small_lr(self, small_blobs, small_model):
        X, _ = small_blobs.split_arrays("train")
        uniform = np.full((X.shape[0], 5), 0.2)
        cfg = TrainConfig(lr=1e-2, epochs=12, batch_size=32, seed=2, loss="kl")
        cps = finetune_kl(small_model, X, uniform, cfg)
        losses = [kl_loss(p, X, ProbMatrix(uniform))
                  for p in [small_model] + [e.params for e in cps.entries]]
        diffs = np.diff(losses)
        assert (diffs <= 1e-12).all()

    def test_uniform_targets_raise_forget_error_trend(self, small_blobs,
                                                      small_split, small_model):
        # fine-tune everything toward uniform rows: train error must rise
        X, y = small_blobs.split_arrays("train")
        uniform = np.full((X.shape[0], 5), 0.2)
        cfg = TrainConfig(lr=0.05, epochs=10, batch_size=32, seed=2, loss="kl")
        cps = finetune_kl(small_model, X, uniform, cfg)
        errors = [100.0 * float(np.mean(predict_labels(e.params, X) != y))
                  for e in cps.entries]
        assert errors[-1] > errors[0] or errors[0] > 50.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_row_weights_must_be_finite_and_positive(self, rng, bad):
        X = rng.normal(size=(6, 3))
        weights = np.ones(6)
        weights[2] = bad
        with pytest.raises(UsageError, match="finite and positive"):
            finetune_kl(init_model(ModelLayout(3, 6, 2), seed=4), X,
                        np.full((6, 2), 0.5),
                        TrainConfig(lr=0.01, epochs=1, loss="kl"),
                        row_weights=weights)

    def test_epoch_indices_must_increase(self):
        p = init_model(ModelLayout(2, 2, 2), seed=0)
        with pytest.raises(UsageError):
            CheckpointSet([CheckpointEntry(2, p), CheckpointEntry(1, p)])


class TestFrozenSgdLoop:
    @pytest.mark.parametrize("kind", ["cross-entropy", "kl"])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("n, batch_size, momentum, epochs, hidden", [
        (50, 8, 0.9, 3, 40),     # a short last batch
        (48, 16, 0.9, 2, 40),    # full batches only
        (20, 32, 0.9, 3, 40),    # one batch holds every row
        (50, 8, 0.0, 3, 40),     # no momentum
        (50, 8, 0.9, 0, 40),     # no epochs
        (100, 32, 0.9, 2, 512),  # the acceptance network's widths
        (150, 64, 0.9, 2, 512),  # the privacy runs' batch, a short last one
    ])
    def test_matches_the_frozen_loop_bitwise(self, kind, weighted, n,
                                             batch_size, momentum, epochs,
                                             hidden):
        rng = np.random.default_rng(n + batch_size + hidden)
        d, k = (48, 5) if hidden == 512 else (6, 4)
        X = rng.normal(size=(n, d))
        if kind == "cross-entropy":
            T = np.zeros((n, k))
            T[np.arange(n), rng.integers(0, k, size=n)] = 1.0
        else:
            T = rng.dirichlet(np.ones(k), size=n)
        w = rng.uniform(0.5, 2.0, n) if weighted else None
        params = init_model(ModelLayout(d, hidden, k), seed=3)
        cfg = TrainConfig(lr=0.3, epochs=epochs, batch_size=batch_size,
                          momentum=momentum, seed=7, loss=kind)
        want = []
        out = params.copy()
        got = [(e, out.copy()) for e in model_module._sgd_epochs(
            out, X, T, cfg, kind, w)]
        ref = sgd_epochs_reference(params, X, T, cfg, kind, w,
                                   lambda e, p: want.append((e, p.copy())))
        assert [e for e, _ in got] == [e for e, _ in want] == list(
            range(1, epochs + 1))
        for a, b in [(out, ref)] + [(p, q) for (_, p), (_, q)
                                     in zip(got, want)]:
            for ta, tb in zip(a.tensors(), b.tensors()):
                assert ta.tobytes() == tb.tobytes()
        if epochs:
            assert not np.array_equal(out.w1, params.w1)


class TestReturnedParams:
    """The SGD loop's working tensors are views of one flat vector; the
    params it takes and returns must still behave as separate arrays."""

    def _data(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 4, size=30)
        targets = ProbMatrix(rng.dirichlet(np.ones(4), size=30))
        return X, y, targets, init_model(ModelLayout(3, 6, 4), seed=4)

    @staticmethod
    def _bytes(params):
        return [t.tobytes() for t in params.tensors()]

    def test_callers_params_untouched(self, rng):
        X, y, targets, params = self._data(rng)
        before = self._bytes(params)
        train_ce(params, X, y, TrainConfig(lr=0.5, epochs=2, batch_size=8))
        assert self._bytes(params) == before
        finetune_kl(params, X, targets,
                    TrainConfig(lr=0.5, epochs=2, batch_size=8, loss="kl"),
                    row_weights=rng.uniform(0.5, 2.0, 30))
        assert self._bytes(params) == before

    def test_writes_reach_no_other_tensor_or_checkpoint(self, rng):
        X, y, targets, params = self._data(rng)
        trained = train_ce(params, X, y,
                           TrainConfig(lr=0.5, epochs=2, batch_size=8))
        before = self._bytes(trained)
        trained.w1.fill(np.nan)
        assert self._bytes(trained)[1:] == before[1:]

        cps = finetune_kl(params, X, targets,
                          TrainConfig(lr=0.5, epochs=3, batch_size=8,
                                      loss="kl"))
        before = [self._bytes(e.params) for e in cps.entries]
        for i, entry in enumerate(cps.entries):
            for t in entry.params.tensors():
                t.fill(np.nan)
            assert [self._bytes(e.params) for e in cps.entries[i + 1:]] == (
                before[i + 1:])

    def test_save_load_round_trip(self, rng, tmp_path):
        X, y, targets, params = self._data(rng)
        trained = train_ce(params, X, y,
                           TrainConfig(lr=0.5, epochs=2, batch_size=8))
        cps = finetune_kl(trained, X, targets,
                          TrainConfig(lr=0.5, epochs=2, batch_size=8,
                                      loss="kl"))
        for i, p in enumerate([trained, cps.entries[-1].params]):
            save_model(p, tmp_path / f"m{i}.ckpt")
            back, _ = load_model(tmp_path / f"m{i}.ckpt")
            assert self._bytes(back) == self._bytes(p)


class TestGradients:
    @pytest.mark.parametrize("kind", ["cross-entropy", "kl"])
    def test_analytic_matches_finite_differences(self, kind):
        rng = np.random.default_rng(42)
        for trial in range(10):
            d = int(rng.integers(2, 5))
            h = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            n = int(rng.integers(2, 7))
            params = init_model(ModelLayout(d, h, k), seed=trial)
            X = rng.normal(size=(n, d))
            if kind == "cross-entropy":
                T = np.zeros((n, k))
                T[np.arange(n), rng.integers(0, k, size=n)] = 1.0
            else:
                T = rng.dirichlet(np.ones(k), size=n)
            _, grads = _loss_and_grads(params, X, T, kind)
            num = finite_diff_grads(
                lambda p: _loss_and_grads(p, X, T, kind)[0], params)
            for g_a, g_n in zip(grads, num):
                denom = np.maximum(np.maximum(np.abs(g_a), np.abs(g_n)), 1e-6)
                rel = np.abs(g_a - g_n) / denom
                assert rel.max() <= 1e-4


class TestCheckpointIo:
    def test_round_trip(self, tmp_path):
        params = init_model(ModelLayout(3, 5, 4), seed=11)
        path = tmp_path / "model.ckpt"
        save_model(params, path, epoch=7, error_rates={"test": 1.5})
        back, sidecar = load_model(path)
        assert back.layout == params.layout
        for ta, tb in zip(params.tensors(), back.tensors()):
            assert np.array_equal(ta, tb)
        assert sidecar["seed"] == 11
        assert sidecar["epoch"] == 7
        assert sidecar["error_rates"] == {"test": 1.5}

    def test_bytes_match_a_per_tensor_writer(self, tmp_path):
        # the checkpoint format as written one tensor at a time
        params = init_model(ModelLayout(3, 5, 4), seed=11)
        path = tmp_path / "model.ckpt"
        save_model(params, path)
        want = b"UNLMDL01" + struct.pack("<IIII", 1, 3, 5, 4) + b"".join(
            np.ascontiguousarray(t, dtype="<f8").tobytes()
            for t in (params.w1, params.b1, params.w2, params.b2))
        assert path.read_bytes() == want

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(DataError):
            load_model(path)

    def test_truncated(self, tmp_path):
        params = init_model(ModelLayout(3, 5, 4), seed=11)
        path = tmp_path / "model.ckpt"
        save_model(params, path)
        data = path.read_bytes()
        for cut in (12, len(data) // 2, len(data) - 1):  # header, weights
            path.write_bytes(data[:cut])
            with pytest.raises(DataError):
                load_model(path)

    def test_header_sizing_more_weights_than_memory(self, tmp_path):
        # the reader sizes the weights from the header without allocating them
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"UNLMDL01" + struct.pack("<IIII", 1, 2**31, 2**31, 5)
                         + b"\x00" * 64)
        with pytest.raises(DataError, match="truncated"):
            load_model(path)

    def test_trailing_bytes(self, tmp_path):
        params = init_model(ModelLayout(3, 5, 4), seed=11)
        path = tmp_path / "model.ckpt"
        save_model(params, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            load_model(path)

    def test_undecodable_sidecar(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(init_model(ModelLayout(3, 5, 4), seed=11), path, epoch=2)
        sidecar = tmp_path / "model.ckpt.json"
        sidecar.write_bytes(sidecar.read_bytes()[:5])
        with pytest.raises(DataError, match="model.ckpt.json"):
            load_model(path)

    @pytest.mark.parametrize("payload", ["[]", "5", '"seed"', "null"])
    def test_sidecar_of_another_shape(self, tmp_path, payload):
        path = tmp_path / "model.ckpt"
        save_model(init_model(ModelLayout(3, 5, 4), seed=11), path, epoch=2)
        (tmp_path / "model.ckpt.json").write_text(payload)
        with pytest.raises(DataError, match="model.ckpt.json: must hold a "
                                            "JSON object"):
            load_model(path)

    @pytest.mark.parametrize("seed", ["abc", None, [1], 1.5, True])
    def test_sidecar_seed_of_another_type(self, tmp_path, seed):
        path = tmp_path / "model.ckpt"
        save_model(init_model(ModelLayout(3, 5, 4), seed=11), path, epoch=2)
        (tmp_path / "model.ckpt.json").write_text(json.dumps({"seed": seed}))
        with pytest.raises(DataError, match="model.ckpt.json: seed must be "
                                            "an integer"):
            load_model(path)

    def test_non_finite_weight(self, tmp_path):
        params = init_model(ModelLayout(3, 5, 4), seed=11)
        path = tmp_path / "model.ckpt"
        save_model(params, path)
        data = path.read_bytes()
        last = len(data) - 8  # the final entry of b2
        for bad in (np.nan, np.inf, -np.inf):
            path.write_bytes(data[:last] + np.float64(bad).tobytes())
            with pytest.raises(DataError, match="non-finite"):
                load_model(path)
