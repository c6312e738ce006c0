"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 6 and 7 share one set of privacy runs (the stated runtime
budget covers both).
"""

import time

import numpy as np
import pytest

import ppunlearn as pl
from ppunlearn.harness import ExperimentConfig, sweep_lambda
from ppunlearn.baselines import finetune_retain, retrain
from ppunlearn.evaluate import MiaConfig, mia_attack, time_stage
from ppunlearn.model import _loss_and_grads
from ppunlearn.probmatrix import ProbMatrix
from ppunlearn.refine import RefineConfig, RefineProblem, refine

from oracles import finite_diff_grads, pgd_refine

SEEDS = (3, 4, 5, 6, 7)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({name}): {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def random_refine_instance(rng):
    n = int(rng.integers(2, 7))
    k = int(rng.integers(2, 4))
    lam = float(rng.choice([0.5, 1.0, 2.0]))
    targets = ProbMatrix(rng.dirichlet(np.ones(k), size=n))
    mass = rng.dirichlet(np.ones(k), size=n).sum(axis=0)
    n_f = int(rng.integers(1, n))
    perm = rng.permutation(n)
    return RefineProblem(targets, perm[:n_f], perm[n_f:], lam, mass)


def smooth3(xs):
    return [float(np.mean(xs[i:i + 3])) for i in range(len(xs) - 2)]


def train_original(ds, hidden, epochs, lr, seed, batch_size=32):
    layout = pl.ModelLayout(ds.dim, hidden, ds.n_classes)
    cfg = pl.TrainConfig(lr=lr, epochs=epochs, batch_size=batch_size,
                         seed=seed + 2)
    return pl.train_ce(pl.init_model(layout, seed=seed + 1),
                       *ds.split_arrays("train"), cfg)


def test_criterion_1_refine_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_obj = worst_q = worst_resid = 0.0
    for _ in range(100):
        problem = random_refine_instance(rng)
        res = refine(problem, RefineConfig(tol=1e-8, max_iters=100_000))
        assert res.converged
        q_oracle, f_oracle = pgd_refine(problem.targets.values,
                                        problem.row_weights(), problem.mass,
                                        tol=1e-10)
        worst_obj = max(worst_obj, abs(res.objective - f_oracle))
        worst_q = max(worst_q, float(
            np.abs(res.matrix.values - q_oracle).max()))
        worst_resid = max(worst_resid, res.residuals[-1])
    elapsed = time.perf_counter() - t0
    ok = worst_obj <= 1e-4 and worst_q <= 1e-3 and worst_resid <= 1e-6 \
        and elapsed < 10.0
    report(1, "refine oracle equivalence", ok,
           f"dobj={worst_obj:.2e} dq={worst_q:.2e} resid={worst_resid:.2e} "
           f"{elapsed:.1f}s")


def test_criterion_2_uniqueness_probe():
    t0 = time.perf_counter()
    rng = np.random.default_rng(51)
    worst = 0.0
    for _ in range(25):
        problem = random_refine_instance(rng)
        uniform = pl.pseudo_generate(problem.n_rows,
                                     problem.targets.n_classes,
                                     pl.PseudoScheme("uniform"))
        a = refine(problem, RefineConfig(tol=1e-10, max_iters=200_000))
        b = refine(problem, RefineConfig(tol=1e-10, max_iters=200_000,
                                         warm_start=uniform))
        assert a.converged and b.converged
        worst = max(worst, float(
            np.abs(a.matrix.values - b.matrix.values).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report(2, "uniqueness from two warm starts", ok,
           f"max spread={worst:.2e} {elapsed:.1f}s")


def test_criterion_3_feasible_fixed_point():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    targets = ProbMatrix(rng.dirichlet(np.ones(3), size=5))
    problem = RefineProblem(targets, np.arange(2), np.arange(2, 5), 1.0,
                            pl.class_mass(targets))
    res = refine(problem)
    elapsed = time.perf_counter() - t0
    ok = (res.converged and res.iterations == 1 and res.objective == 0.0
          and np.array_equal(res.matrix.values, targets.values)
          and elapsed < 1.0)
    report(3, "feasible start fixed point", ok,
           f"iters={res.iterations} objective={res.objective} {elapsed:.2f}s")


def test_criterion_4_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(20):
        kind = "cross-entropy" if trial % 2 == 0 else "kl"
        d = int(rng.integers(2, 5))
        h = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        params = pl.init_model(pl.ModelLayout(d, h, k), seed=trial)
        X = rng.normal(size=(n, d))
        if kind == "cross-entropy":
            T = np.zeros((n, k))
            T[np.arange(n), rng.integers(0, k, size=n)] = 1.0
        else:
            T = rng.dirichlet(np.ones(k), size=n)
        _, grads = _loss_and_grads(params, X, T, kind)
        numeric = finite_diff_grads(
            lambda p: _loss_and_grads(p, X, T, kind)[0], params, step=1e-6)
        for g_a, g_n in zip(grads, numeric):
            denom = np.maximum(np.maximum(np.abs(g_a), np.abs(g_n)), 1e-6)
            worst = max(worst, float((np.abs(g_a - g_n) / denom).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 5.0
    report(4, "gradient checks", ok,
           f"max rel err={worst:.2e} {elapsed:.1f}s")


def test_criterion_5_bias_removal_trend():
    t0 = time.perf_counter()
    passed = 0
    details = []
    for seed in SEEDS:
        ds = pl.gen_blobs(5, 48, 125, 0.6, seed)
        split = pl.make_forget_split(
            ds, pl.ForgetSpec("selective", 0, 25, seed=seed + 100))
        orig = train_original(ds, hidden=512, epochs=40, lr=0.05, seed=seed)
        before = pl.evaluate_model(orig, ds, split)
        task = pl.UnlearnTask(
            ds, split, "bias", pl.PseudoScheme("random-softmax", seed=seed + 7),
            pl.TrainConfig(lr=0.05, epochs=250, batch_size=32, seed=seed + 5,
                           loss="kl"))
        rep = pl.ppu_bias(orig, task)
        after = pl.evaluate_model(rep.params, ds, split)
        d_forget = after.forget_error - before.forget_error
        d_retain = after.retain_error - before.retain_error
        d_test = after.test_error - before.test_error
        seed_ok = d_forget >= 60.0 and d_retain <= 2.0 and d_test <= 5.0
        passed += seed_ok
        details.append(f"f+{d_forget:.0f}/r+{d_retain:.1f}/t+{d_test:.1f}")
    elapsed = time.perf_counter() - t0
    ok = passed >= 4 and elapsed < 60.0
    report(5, "bias-removal trend", ok,
           f"{passed}/5 seeds [{' '.join(details)}] {elapsed:.1f}s")


@pytest.fixture(scope="module")
def privacy_runs():
    """Shared runs for criteria 6 and 7 (one privacy pipeline per seed)."""
    t0 = time.perf_counter()
    runs = []
    for seed in SEEDS:
        ds = pl.gen_blobs(5, 48, 2000, 6.5, seed)
        split = pl.make_forget_split(
            ds, pl.ForgetSpec("selective", 0, 500, seed=seed + 100))
        n_train = len(ds.splits["train"])
        orig = train_original(ds, hidden=512, epochs=6, lr=0.03, seed=seed,
                              batch_size=64)
        mia_cfg = MiaConfig(repetitions=5, seed=seed + 9)
        mia_before = mia_attack(orig, ds.arrays_at(split.forget_idx),
                                ds.split_arrays("test"), mia_cfg)
        task = pl.UnlearnTask(
            ds, split, "privacy",
            pl.PseudoScheme("random-softmax", seed=seed + 7),
            pl.TrainConfig(lr=0.014, epochs=25, batch_size=64, momentum=0.2,
                           seed=seed + 5, loss="kl"),
            lam=0.5,
            refine_cfg=RefineConfig(eta=4.0 / n_train, max_iters=60_000))
        rep = pl.ppu_privacy(orig, task)
        mia_after = mia_attack(rep.params, ds.arrays_at(split.forget_idx),
                               ds.split_arrays("test"), mia_cfg)
        runs.append({
            "seed": seed,
            "mia_before": mia_before.mean_accuracy,
            "mia_after": mia_after.mean_accuracy,
            "trajectory": [e["forget"] for e in rep.trajectory],
            "reference": rep.flags["selection_reference"],
            "selected_epoch": rep.selected_epoch,
            "refine_converged": rep.refine_summary["converged"],
        })
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_criterion_6_privacy_trend(privacy_runs):
    runs = privacy_runs["runs"]
    elapsed = privacy_runs["elapsed"]
    passed = 0
    details = []
    for run in runs:
        seed_ok = run["mia_before"] >= 58.0 and 45.0 <= run["mia_after"] <= 55.0
        passed += seed_ok
        details.append(f"{run['mia_before']:.0f}->{run['mia_after']:.0f}")
    ok = passed >= 4 and elapsed < 120.0
    report(6, "privacy MIA trend", ok,
           f"{passed}/5 seeds [{' '.join(details)}] {elapsed:.1f}s")


def test_criterion_7_checkpoint_selection_trend(privacy_runs):
    runs = privacy_runs["runs"]
    # the trajectory criterion mirrors a single training curve; it is judged
    # on the canonical (first) seed's run
    canon = runs[0]
    smoothed = smooth3(canon["trajectory"])
    monotone = all(b >= a - 1e-9 for a, b in zip(smoothed, smoothed[1:]))
    sel_errors = []
    for run in runs:
        selected = run["trajectory"][run["selected_epoch"] - 1]
        sel_errors.append(abs(selected - run["reference"]))
    within = max(sel_errors) <= 5.0
    ok = monotone and within
    report(7, "checkpoint-selection trend", ok,
           f"monotone={monotone} max |sel-ref|={max(sel_errors):.1f}")


def test_criterion_8_timing_trend():
    # retrain carries the original training budget; the unlearning pipeline
    # runs its own (much smaller) fine-tune budget
    t0 = time.perf_counter()
    seed = 3
    ds = pl.gen_blobs(5, 48, 125, 0.6, seed)
    split = pl.make_forget_split(
        ds, pl.ForgetSpec("selective", 0, 25, seed=seed + 100))
    layout = pl.ModelLayout(48, 512, 5)
    orig_cfg = pl.TrainConfig(lr=0.05, epochs=100, batch_size=32,
                              seed=seed + 2)
    orig = pl.train_ce(pl.init_model(layout, seed=seed + 1),
                       *ds.split_arrays("train"), orig_cfg)
    task = pl.UnlearnTask(
        ds, split, "bias", pl.PseudoScheme("random-softmax", seed=seed + 7),
        pl.TrainConfig(lr=0.05, epochs=10, batch_size=32, seed=seed + 5,
                       loss="kl"))

    def run_ppu():
        pl.ppu_bias(orig, task)

    def run_retrain():
        retrain(ds, split, orig_cfg, layout)

    run_ppu()  # warm-up excluded
    run_retrain()
    ppu_rec = time_stage("ppu-bias", run_ppu, repetitions=5)
    retrain_rec = time_stage("retrain", run_retrain, repetitions=5)
    elapsed = time.perf_counter() - t0
    ratio = ppu_rec.mean / retrain_rec.mean
    ok = ratio <= 0.5 and elapsed < 60.0
    report(8, "timing trend", ok,
           f"ppu={ppu_rec.mean:.3f}s retrain={retrain_rec.mean:.3f}s "
           f"ratio={ratio:.2f} {elapsed:.1f}s")


def test_criterion_9_lambda_ablation(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        dataset={"kind": "blobs", "n_classes": 5, "dim": 48,
                 "n_per_class": 125, "spread": 0.6},
        forget={"mode": "selective", "target_class": 0, "count": 25,
                "seed": 103},
        method="ppu-bias",
        out_dir=str(tmp_path / "sweep"),
        scheme={"kind": "random-softmax", "seed": 10},
        model={"hidden": 512, "epochs": 40, "lr": 0.05, "batch_size": 32},
        finetune={"epochs": 100, "lr": 0.05, "batch_size": 32},
        seeds={"data": 3, "model": 4, "protocol": 8},
    )
    rows = sweep_lambda(cfg, [1.0, 2.0, 4.0])
    elapsed = time.perf_counter() - t0
    by_lam = {lam: (retain, forget) for lam, retain, forget in rows}
    ok = (by_lam[4.0][0] <= by_lam[1.0][0]
          and by_lam[4.0][1] < by_lam[1.0][1]
          and elapsed < 90.0)
    report(9, "lambda ablation direction", ok,
           " ".join(f"lam={lam:g}:r={r:.1f},f={f:.1f}" for lam, r, f in rows)
           + f" {elapsed:.1f}s")


def test_criterion_10_adaptive_post_processing():
    t0 = time.perf_counter()
    passed = 0
    details = []
    for seed in SEEDS:
        ds = pl.gen_blobs(5, 48, 125, 0.6, seed)
        split = pl.make_forget_split(
            ds, pl.ForgetSpec("selective", 0, 25, seed=seed + 100))
        orig = train_original(ds, hidden=512, epochs=40, lr=0.05, seed=seed)
        pre = finetune_retain(
            orig, ds, split,
            pl.TrainConfig(lr=0.05, epochs=10, batch_size=32, seed=seed + 3))
        ft_eval = pl.evaluate_model(pre, ds, split)
        task = pl.UnlearnTask(
            ds, split, "adaptive",
            pl.PseudoScheme("random-softmax", seed=seed + 7),
            pl.TrainConfig(lr=0.05, epochs=250, batch_size=32, seed=seed + 5,
                           loss="kl"),
            adaptive_style="bias")
        rep = pl.adaptive_post(pre, task)
        after = pl.evaluate_model(rep.params, ds, split)
        floor = max(ft_eval.forget_error, 1e-9)
        seed_ok = (after.forget_error >= 3.0 * floor
                   and after.retain_error - ft_eval.retain_error <= 1.0)
        passed += seed_ok
        details.append(f"{ft_eval.forget_error:.0f}->{after.forget_error:.0f}")
    elapsed = time.perf_counter() - t0
    ok = passed >= 4 and elapsed < 90.0
    report(10, "adaptive post-processing trend", ok,
           f"{passed}/5 seeds [{' '.join(details)}] {elapsed:.1f}s")


def test_criterion_11_invariant_suites(small_blobs, small_split, small_model):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    checks = {}

    # row-stochasticity of generated and forwarded matrices
    m = pl.pseudo_generate(200, 5, pl.PseudoScheme("random-softmax", seed=1))
    probs = pl.forward_probs(small_model, small_blobs.inputs[:100])
    checks["row-stochastic"] = (
        np.abs(m.values.sum(axis=1) - 1.0).max() <= 1e-9
        and np.abs(probs.values.sum(axis=1) - 1.0).max() <= 1e-9)

    # mass conservation
    checks["mass-conservation"] = abs(
        float(pl.class_mass(probs).sum()) - 100.0) <= 1e-6

    # KL non-negativity and exact zero at identity
    vals = ProbMatrix(rng.dirichlet(np.ones(4), size=50))
    kls = [pl.kl_div(vals.row(i), vals.row(j))
           for i in range(10) for j in range(10)]
    checks["kl-non-negative"] = min(kls) >= 0.0 and pl.kl_div(
        vals.row(0), vals.row(0)) == 0.0

    # replace_rows round trip
    q = ProbMatrix(rng.dirichlet(np.ones(3), size=8))
    idx = np.array([1, 4, 6])
    swapped = pl.replace_rows(
        q, idx, pl.pseudo_generate(3, 3, pl.PseudoScheme("uniform")))
    restored = pl.replace_rows(swapped, idx, q.take(idx))
    checks["replace-rows-round-trip"] = np.array_equal(restored.values,
                                                       q.values)

    # MIA symmetry: identical loss distributions -> exactly 50%
    xt, yt = small_blobs.split_arrays("test")
    mia = mia_attack(small_model, (xt, yt), (xt, yt),
                     MiaConfig(repetitions=3, seed=5))
    checks["mia-symmetry"] = mia.mean_accuracy == 50.0

    # determinism of training and pipelines
    cfg = pl.TrainConfig(lr=0.05, epochs=5, batch_size=32, seed=12)
    a = pl.train_ce(pl.init_model(pl.ModelLayout(8, 16, 5), seed=2),
                    *small_blobs.split_arrays("train"), cfg)
    b = pl.train_ce(pl.init_model(pl.ModelLayout(8, 16, 5), seed=2),
                    *small_blobs.split_arrays("train"), cfg)
    checks["determinism"] = all(
        np.array_equal(ta, tb) for ta, tb in zip(a.tensors(), b.tensors()))

    elapsed = time.perf_counter() - t0
    failed = [k for k, v in checks.items() if not v]
    ok = not failed and elapsed < 30.0
    report(11, "invariant suites", ok,
           f"{len(checks)} invariant groups, failed={failed or 'none'} "
           f"{elapsed:.1f}s")
