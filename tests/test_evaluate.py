import time

import numpy as np
import pytest

from ppunlearn.errors import InsufficientDataError, ShapeError, UsageError
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

    @pytest.mark.parametrize("fn", [error_rate, example_losses])
    @pytest.mark.parametrize("labels", [[1], np.zeros(9, dtype=int),
                                        np.zeros((10, 1), dtype=int)])
    def test_one_label_per_input_row(self, small_blobs, small_model, fn,
                                     labels):
        # a single label would broadcast over the rows, and a short list
        # would score only its prefix
        xt, _ = small_blobs.split_arrays("test")
        with pytest.raises(ShapeError, match="for 10 input rows"):
            fn(small_model, xt[:10], np.asarray(labels))

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


def _near_separable_row(rng, n=20):
    """Tightly clustered "in" values with one "out" value just below them
    and one just above: the fit exists but needs |w| of about 2e6, so
    exp(-u) overflows on the far "out" values."""
    zi = -0.25 + 1e-6 * rng.random(n)
    zo = np.concatenate([[zi.min() - 1e-7, zi.max() + 1e-6],
                         rng.uniform(0.5, 4.5, n - 2)])
    return np.concatenate([zi, zo])


def _labels(n):
    return np.concatenate([np.ones(n), np.zeros(n)])


class TestFitLogistic1d:
    def test_doubling_the_newton_cap_changes_no_prediction(self, rng,
                                                           monkeypatch):
        import ppunlearn.evaluate as ev
        n = 20
        rows = [_near_separable_row(rng, n),
                np.concatenate([rng.normal(0.5, 1.0, n),
                                rng.normal(-0.5, 1.0, n)]),
                np.concatenate([rng.normal(2.0, 0.5, n),
                                rng.normal(-2.0, 0.5, n)]),
                rng.normal(size=2 * n)]
        z = np.array(rows)
        y = _labels(n)
        grid = np.sort(np.concatenate([z.ravel(), np.linspace(-5, 5, 2001)]))
        w, b = _fit_logistic_1d(z, y)
        monkeypatch.setattr(ev, "NEWTON_MAX_ITERS", 2 * ev.NEWTON_MAX_ITERS)
        w2, b2 = _fit_logistic_1d(z, y)
        assert np.array_equal(w[:, None] * grid + b[:, None] >= 0.0,
                              w2[:, None] * grid + b2[:, None] >= 0.0)
        assert np.array_equal(w, w2) and np.array_equal(b, b2)
        # a row stops at its own step, whatever the rows fitted with it do
        for i, row in enumerate(z):
            assert _fit_logistic_1d(row[None], y) == (w[i], b[i])

    def test_matches_gradient_descent_run_to_convergence(self, rng):
        # overlapping rows have a maximum-likelihood fit, which GD reaches
        for n in (10, 20, 40):
            y = _labels(n)
            rows = [np.concatenate([rng.normal(0.5, 1.0, n),
                                    rng.normal(-0.5, 1.0, n)]),
                    np.concatenate([rng.normal(-1.0, 1.0, n),
                                    rng.normal(1.0, 1.0, n)]),
                    rng.normal(size=2 * n)]
            z = np.array([(r - r.mean()) / r.std() for r in rows])
            w, b = _fit_logistic_1d(z, y)
            for i, row in enumerate(z):
                ref = logistic_1d_reference(row, y, max_iters=1_000_000)
                assert (w[i], b[i]) == pytest.approx(ref, rel=0, abs=1e-8)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["in-low", "in-high"])
    def test_separable_rows_get_the_midpoint(self, sign):
        zi = sign * np.array([-2.0, -1.5, -0.5, -1.0])
        zo = sign * np.array([0.5, 1.0, 2.5, 0.25])
        touching = zo.copy()
        touching[3] = zi[2]                 # max(in) == min(out), mirrored
        z = np.array([np.concatenate([zi, zo]), np.concatenate([zi, touching])])
        w, b = _fit_logistic_1d(z, _labels(4))
        assert np.all(np.sign(w) == -sign)
        assert list(-b / w) == [sign * -0.125, sign * -0.5]
        # every training value of the strict row on its own side
        assert np.all(w[0] * zi + b[0] > 0) and np.all(w[0] * zo + b[0] < 0)

    def test_near_separable_fit_raises_no_warning(self, rng):
        import warnings
        n = 20
        z = _near_separable_row(rng, n)[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, b = _fit_logistic_1d(z, _labels(n))
        assert np.isfinite(w).all() and np.isfinite(b).all()
        assert np.abs(w * z + b).max() > 710   # exp(-u) did overflow


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

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_repetitions_below_one_rejected(self, repetitions):
        calls = []
        with pytest.raises(UsageError, match="repetitions"):
            time_stage("x", lambda: calls.append(1), repetitions=repetitions)
        assert calls == []
