import time

import numpy as np
import pytest

from ppunlearn.errors import InsufficientDataError, UsageError
from ppunlearn.evaluate import (MiaConfig, _fit_logistic_1d, error_rate,
                                evaluate_model, example_losses, mia_attack,
                                time_stage)
from ppunlearn.model import ModelLayout, init_model

from oracles import logistic_1d_reference


class TestErrorRate:
    def test_perfect_and_constant_wrong(self, small_blobs, small_model):
        xt, yt = small_blobs.split_arrays("train")
        assert error_rate(small_model, xt, yt) == 0.0
        wrong = (yt + 1) % small_blobs.n_classes
        assert error_rate(small_model, xt, wrong) == 100.0

    def test_permutation_invariant(self, small_blobs, small_model, rng):
        xt, yt = small_blobs.split_arrays("test")
        base = error_rate(small_model, xt, yt)
        perm = rng.permutation(len(yt))
        assert error_rate(small_model, xt[perm], yt[perm]) == base

    def test_empty_subset(self, small_model):
        with pytest.raises(UsageError):
            error_rate(small_model, np.empty((0, 8)), np.empty(0, dtype=int))

    def test_evaluate_model_counts(self, small_blobs, small_split, small_model):
        rep = evaluate_model(small_model, small_blobs, small_split)
        assert rep.counts == {"test": 125, "retain": 415, "forget": 25}
        for v in (rep.test_error, rep.retain_error, rep.forget_error):
            assert 0.0 <= v <= 100.0


class TestMiaAttack:
    def test_identical_sets_give_exactly_fifty(self, small_blobs, small_model):
        xt, yt = small_blobs.split_arrays("test")
        rep = mia_attack(small_model, (xt, yt), (xt, yt),
                         MiaConfig(repetitions=5, seed=1))
        assert rep.accuracies == [50.0] * 5
        assert rep.mean_accuracy == 50.0

    def test_same_distribution_near_fifty(self):
        # two disjoint halves of the same held-out split: exchangeable
        # losses, so the attacker should sit near chance with n=500 per side
        from ppunlearn.data import gen_blobs
        from ppunlearn.model import ModelLayout, TrainConfig, init_model, train_ce
        ds = gen_blobs(5, 8, 1000, 1.5, seed=12)
        model = train_ce(init_model(ModelLayout(8, 32, 5), seed=1),
                         *ds.split_arrays("train"),
                         TrainConfig(lr=0.05, epochs=15, batch_size=64, seed=2))
        xt, yt = ds.split_arrays("test")
        # interleave so both sides carry the same class mix
        rep = mia_attack(model, (xt[0::2], yt[0::2]), (xt[1::2], yt[1::2]),
                         MiaConfig(repetitions=5, seed=3))
        assert len(yt) // 2 >= 500
        assert abs(rep.mean_accuracy - 50.0) <= 3.0

    def test_perfect_separation(self, small_model, rng):
        # craft two inputs sets whose loss distributions are disjoint by
        # using correct labels on one side and wrong labels on the other
        from ppunlearn.data import gen_blobs
        ds = gen_blobs(5, 8, 125, 0.6, seed=3)
        xt, yt = ds.split_arrays("train")
        wrong = (yt + 2) % 5
        rep = mia_attack(small_model, (xt, wrong), (xt, yt),
                         MiaConfig(repetitions=3, seed=1))
        assert rep.mean_accuracy >= 99.0

    def test_label_swap_symmetry(self, small_blobs, small_model):
        xf, yf = small_blobs.split_arrays("validation")
        xt, yt = small_blobs.split_arrays("test")
        n = min(len(yf), len(yt))
        a = mia_attack(small_model, (xf[:n], yf[:n]), (xt[:n], yt[:n]),
                       MiaConfig(repetitions=3, seed=4))
        b = mia_attack(small_model, (xt[:n], yt[:n]), (xf[:n], yf[:n]),
                       MiaConfig(repetitions=3, seed=4))
        assert a.mean_accuracy == pytest.approx(b.mean_accuracy, abs=1e-9)

    def test_insufficient_data(self, small_blobs, small_model):
        xt, yt = small_blobs.split_arrays("test")
        with pytest.raises(InsufficientDataError):
            mia_attack(small_model, (xt[:5], yt[:5]), (xt, yt))

    def test_empty_side_rejected(self, small_blobs, small_model):
        xt, yt = small_blobs.split_arrays("test")
        with pytest.raises(UsageError):
            mia_attack(small_model, (xt[:0], yt[:0]), (xt, yt))

    def test_repetition_count_and_determinism(self, small_blobs, small_model):
        xf, yf = small_blobs.split_arrays("validation")
        xt, yt = small_blobs.split_arrays("test")
        cfg = MiaConfig(repetitions=4, seed=2)
        a = mia_attack(small_model, (xf, yf), (xt, yt), cfg)
        b = mia_attack(small_model, (xf, yf), (xt, yt), cfg)
        assert a.repetitions == 4
        assert len(a.accuracies) == 4
        assert a.accuracies == b.accuracies

    def test_losses_are_true_label_ce(self, small_blobs, small_model):
        from ppunlearn.model import forward_probs
        xt, yt = small_blobs.split_arrays("test")
        losses = example_losses(small_model, xt[:10], yt[:10])
        probs = forward_probs(small_model, xt[:10]).values
        manual = -np.log(probs[np.arange(10), yt[:10]])
        assert losses == pytest.approx(manual)


class TestFitLogistic1d:
    def test_matches_frozen_loop_bitwise(self, rng):
        # separable rows run the whole iteration budget; overlapping ones
        # stop at the gradient tolerance, at different steps, while the
        # rows fitted with them go on
        for n in (10, 20, 40):
            y = np.concatenate([np.ones(n), np.zeros(n)])
            rows = [np.concatenate([rng.normal(2.0, 0.5, n),
                                    rng.normal(-2.0, 0.5, n)])]
            rows += [rng.normal(size=2 * n) for _ in range(2)]
            z = np.array([(r - r.mean()) / r.std() for r in rows])
            for max_iters in (1, 37, 5000):
                w, b = _fit_logistic_1d(z, y, max_iters=max_iters)
                for i, row in enumerate(z):
                    assert ((w[i], b[i])
                            == logistic_1d_reference(row, y,
                                                     max_iters=max_iters))


class TestTimeStage:
    def test_noop_thunk(self):
        rec = time_stage("noop", lambda: None)
        assert rec.samples[0] >= 0.0
        assert rec.mean < 1e-3

    def test_five_repetitions(self):
        rec = time_stage("sleepy", lambda: time.sleep(0.002), repetitions=5)
        assert len(rec.samples) == 5
        assert rec.mean >= 0.002
        assert rec.std_error >= 0.0

    def test_single_rep_std_error_zero(self):
        rec = time_stage("x", lambda: None, repetitions=1)
        assert rec.std_error == 0.0
