import numpy as np
import pytest

from ppunlearn.baselines import (BaselineSpec, NegGradResult, finetune_retain,
                                 neggrad_plus, retrain, run_baseline)
from ppunlearn.data import ForgetSpec, gen_blobs, make_forget_split
from ppunlearn.errors import SpecError
from ppunlearn.evaluate import error_rate, evaluate_model
from ppunlearn.model import ModelLayout, TrainConfig

from oracles import (nearest_centroid_fit, nearest_centroid_predict,
                     neggrad_plus_reference)


def ce_cfg(epochs=30, lr=0.05, seed=11):
    return TrainConfig(lr=lr, epochs=epochs, batch_size=32, seed=seed)


class TestRetrain:
    def test_empty_forget_equals_full_training(self, small_blobs):
        from ppunlearn.data import SplitResult
        train = small_blobs.splits["train"]
        split = SplitResult(forget_idx=np.array([], dtype=np.int64),
                            retain_idx=train)
        layout = ModelLayout(8, 32, 5)
        a = retrain(small_blobs, split, ce_cfg(), layout)
        from ppunlearn.model import init_model, train_ce
        b = train_ce(init_model(layout, seed=11),
                     *small_blobs.split_arrays("train"), ce_cfg())
        for ta, tb in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_class_unlearning_forget_error_near_total(self):
        # on separated clusters a model that never saw the class puts ~no
        # mass there; the nearest-centroid oracle confirms the geometry
        ds = gen_blobs(5, 8, 125, 0.4, seed=6)
        split = make_forget_split(ds, ForgetSpec("class", target_class=0))
        xr, yr = ds.arrays_at(split.retain_idx)
        xf, yf = ds.arrays_at(split.forget_idx)
        # a model without class 0 must assign forget rows to classes 1..4;
        # nearest-centroid over the retained classes mislabels all of them
        cents = nearest_centroid_fit(xr, yr - 1, 4)
        oracle_pred = nearest_centroid_predict(cents, xf) + 1
        assert (oracle_pred != 0).all()
        model = retrain(ds, split, ce_cfg(), ModelLayout(8, 32, 5))
        err = error_rate(model, xf, yf)
        assert err >= 95.0

    def test_deterministic(self, small_blobs, small_split):
        layout = ModelLayout(8, 32, 5)
        a = retrain(small_blobs, small_split, ce_cfg(), layout)
        b = retrain(small_blobs, small_split, ce_cfg(), layout)
        for ta, tb in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_empty_retain_rejected(self, small_blobs):
        from ppunlearn.data import SplitResult
        split = SplitResult(forget_idx=small_blobs.splits["train"],
                            retain_idx=np.array([], dtype=np.int64))
        with pytest.raises(SpecError):
            retrain(small_blobs, split, ce_cfg(), ModelLayout(8, 32, 5))


class TestFinetuneRetain:
    def test_zero_epochs_identity(self, small_blobs, small_split, small_model):
        out = finetune_retain(small_model, small_blobs, small_split,
                              ce_cfg(epochs=0))
        for ta, tb in zip(out.tensors(), small_model.tensors()):
            assert np.array_equal(ta, tb)

    def test_no_forgetting_and_retain_improves(self, small_blobs, small_split,
                                               small_model):
        before = evaluate_model(small_model, small_blobs, small_split)
        out = finetune_retain(small_model, small_blobs, small_split,
                              ce_cfg(epochs=10))
        after = evaluate_model(out, small_blobs, small_split)
        assert after.forget_error <= before.forget_error + 5.0
        assert after.retain_error <= before.retain_error + 1e-9


class TestNegGradPlus:
    def test_zero_ascent_weight_reduces_to_descent(self, small_blobs,
                                                   small_split, small_model):
        res = neggrad_plus(small_model, small_blobs, small_split,
                           ce_cfg(epochs=1), iters=50, ascent_weight=0.0)
        assert isinstance(res, NegGradResult)
        assert not res.diverged
        after = evaluate_model(res.params, small_blobs, small_split)
        assert after.retain_error <= 2.0

    def test_raises_forget_error(self):
        ds = gen_blobs(5, 16, 125, 0.8, seed=8)
        split = make_forget_split(ds, ForgetSpec("selective", 0, 25, seed=9))
        from ppunlearn.model import init_model, train_ce
        model = train_ce(init_model(ModelLayout(16, 64, 5), seed=1),
                         *ds.split_arrays("train"), ce_cfg())
        before = evaluate_model(model, ds, split)
        res = neggrad_plus(model, ds, split, ce_cfg(lr=0.02), iters=500,
                           ascent_weight=0.5)
        after = evaluate_model(res.params, ds, split)
        assert after.forget_error > before.forget_error

    def test_deterministic(self, small_blobs, small_split, small_model):
        a = neggrad_plus(small_model, small_blobs, small_split, ce_cfg(),
                         iters=40)
        b = neggrad_plus(small_model, small_blobs, small_split, ce_cfg(),
                         iters=40)
        for ta, tb in zip(a.params.tensors(), b.params.tensors()):
            assert np.array_equal(ta, tb)

    def test_divergence_guard(self, small_blobs, small_split, small_model):
        res = neggrad_plus(small_model, small_blobs, small_split,
                           ce_cfg(lr=5.0), iters=400, ascent_weight=10.0)
        assert res.diverged
        assert res.steps < 400

    @pytest.mark.parametrize("lr, iters, ascent_weight, diverges", [
        (0.05, 60, 0.5, False),
        (5.0, 400, 10.0, True),
    ])
    def test_matches_frozen_loop(self, small_blobs, small_split, small_model,
                                 lr, iters, ascent_weight, diverges):
        cfg = TrainConfig(lr=lr, epochs=1, batch_size=32, momentum=0.9,
                          seed=11)
        res = neggrad_plus(small_model, small_blobs, small_split, cfg,
                           iters=iters, ascent_weight=ascent_weight)
        params, diverged, steps = neggrad_plus_reference(
            small_model, small_blobs, small_split, cfg, iters, ascent_weight)
        assert (res.diverged, res.steps) == (diverged, steps)
        assert diverged == diverges
        for ta, tb in zip(res.params.tensors(), params.tensors()):
            assert np.array_equal(ta, tb)

    @pytest.mark.parametrize("lr, iters, ascent_weight", [
        (0.05, 60, 0.5),
        (5.0, 100, 10.0),
    ])
    def test_matches_frozen_loop_at_acceptance_widths(self, lr, iters,
                                                      ascent_weight):
        # the 48 -> 512 -> 5 network of the acceptance privacy scale
        from ppunlearn.model import init_model, train_ce
        ds = gen_blobs(5, 48, 125, 0.6, seed=3)
        split = make_forget_split(ds, ForgetSpec(
            mode="selective", target_class=0, count=25, seed=103))
        model = train_ce(init_model(ModelLayout(48, 512, 5), seed=1),
                         *ds.split_arrays("train"), ce_cfg(epochs=2))
        cfg = TrainConfig(lr=lr, epochs=1, batch_size=32, momentum=0.9,
                          seed=11)
        res = neggrad_plus(model, ds, split, cfg, iters=iters,
                           ascent_weight=ascent_weight)
        params, diverged, steps = neggrad_plus_reference(
            model, ds, split, cfg, iters, ascent_weight)
        assert (res.diverged, res.steps) == (diverged, steps)
        for ta, tb in zip(res.params.tensors(), params.tensors()):
            assert ta.tobytes() == tb.tobytes()


class TestRunBaseline:
    def test_uniform_report_shape(self, small_blobs, small_split, small_model):
        for kind in ("retrain", "original", "finetune", "neggrad-plus"):
            spec = BaselineSpec(kind, ce_cfg(epochs=2), neggrad_iters=10)
            rep = run_baseline(spec, small_blobs, small_split,
                               original=small_model)
            assert rep.method == f"baseline:{kind}"
            assert rep.trajectory == []
            assert rep.timings["train"] >= 0.0

    def test_original_returns_copy(self, small_blobs, small_split, small_model):
        spec = BaselineSpec("original", ce_cfg())
        rep = run_baseline(spec, small_blobs, small_split, original=small_model)
        assert rep.params is not small_model
        for ta, tb in zip(rep.params.tensors(), small_model.tensors()):
            assert np.array_equal(ta, tb)

    def test_bad_kind(self):
        with pytest.raises(SpecError):
            BaselineSpec("fisher", ce_cfg())
