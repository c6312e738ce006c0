import numpy as np
import pytest

from ppunlearn.errors import (InfeasibleProblemError, NumericalOverflowError,
                              ShapeError, UsageError)
from ppunlearn.probmatrix import (ProbMatrix, PseudoScheme, class_mass,
                                  pseudo_generate, replace_rows)
from ppunlearn.refine import (EXP_CLAMP, DualState, RefineConfig,
                              RefineProblem, dual_step, objective,
                              primal_update, problem_from_outputs, refine)

from oracles import (dual_ascent_reference, pgd_refine, primal_reference,
                     sinkhorn_reference)


def random_instance(rng, n_max=6, k_max=3, lam_choices=(0.5, 1.0, 2.0)):
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(2, k_max + 1))
    lam = float(rng.choice(lam_choices))
    targets = ProbMatrix(rng.dirichlet(np.ones(k), size=n))
    mass = rng.dirichlet(np.ones(k), size=n).sum(axis=0)
    n_f = int(rng.integers(1, n))
    perm = rng.permutation(n)
    return RefineProblem(targets, perm[:n_f], perm[n_f:], lam, mass)


class TestObjective:
    def test_zero_at_targets(self, rng):
        p = random_instance(rng)
        assert objective(p.targets, p) == 0.0

    def test_lambda_weighting(self):
        # one forget row at KL 0.1-ish and one retain row, weighted by lam
        t = ProbMatrix([[0.5, 0.5], [0.5, 0.5]])
        q = ProbMatrix([[0.3, 0.7], [0.3, 0.7]])
        p1 = RefineProblem(t, [0], [1], 1.0, np.array([1.0, 1.0]))
        p2 = RefineProblem(t, [0], [1], 2.0, np.array([1.0, 1.0]))
        per_row = objective(q, p1) / 2.0
        assert objective(q, p2) == pytest.approx(per_row * (1.0 + 2.0))

    def test_single_forget_row_value(self):
        t = ProbMatrix([[0.5, 0.5]])
        q = ProbMatrix([[0.3, 0.7]])
        p = RefineProblem(t, [0], [], 1.0, np.array([1.0, 1.0]))
        assert objective(q, p) == pytest.approx(0.08228287850505178, abs=1e-12)

    def test_shape_mismatch(self, rng):
        p = random_instance(rng)
        q = ProbMatrix(rng.dirichlet(np.ones(p.targets.n_classes + 1),
                                     size=p.n_rows))
        with pytest.raises(ShapeError):
            objective(q, p)


class TestPrimalUpdate:
    def test_zero_dual_returns_targets_bitwise(self, rng):
        p = random_instance(rng)
        dual = DualState(alpha=np.zeros(p.targets.n_classes), eta=0.1)
        q = primal_update(p, dual)
        assert q is p.targets

    def test_hand_computed_row(self):
        t = ProbMatrix([[0.5, 0.5]])
        p = RefineProblem(t, [0], [], 1.0, np.array([0.5, 0.5]))
        dual = DualState(alpha=np.array([np.log(3.0), 0.0]), eta=0.1)
        q = primal_update(p, dual)
        assert q.values[0] == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_shift_invariance(self, rng):
        p = random_instance(rng)
        k = p.targets.n_classes
        alpha = rng.normal(size=k)
        qa = primal_update(p, DualState(alpha=alpha, eta=0.1))
        qb = primal_update(p, DualState(alpha=alpha + 3.7, eta=0.1))
        assert qa.values == pytest.approx(qb.values, abs=1e-12)

    def test_rows_stochastic_always(self, rng):
        for _ in range(50):
            p = random_instance(rng)
            alpha = rng.normal(scale=10.0, size=p.targets.n_classes)
            q = primal_update(p, DualState(alpha=alpha, eta=0.1))
            assert np.abs(q.values.sum(axis=1) - 1.0).max() <= 1e-9
            assert q.values.min() >= 0.0
            assert q.values.max() <= 1.0

    def test_non_finite_dual_rejected(self, rng):
        p = random_instance(rng)
        alpha = np.full(p.targets.n_classes, np.nan)
        with pytest.raises(NumericalOverflowError):
            primal_update(p, DualState(alpha=alpha, eta=0.1))


class TestDualStep:
    def test_zero_residual_leaves_alpha(self):
        q = ProbMatrix([[0.6, 0.4], [0.4, 0.6]])
        dual = DualState(alpha=np.array([0.3, -0.3]), eta=0.5)
        out = dual_step(dual, q, class_mass(q))
        assert out.alpha == pytest.approx(dual.alpha)
        assert out.residuals[-1] == 0.0

    def test_hand_computed_step(self):
        q = ProbMatrix([[0.7, 0.3], [0.5, 0.5]])  # column sums 1.2, 0.8
        dual = DualState(alpha=np.zeros(2), eta=0.5)
        out = dual_step(dual, q, np.array([1.0, 1.0]))
        assert out.alpha == pytest.approx([0.1, -0.1], abs=1e-12)
        assert out.iterations == 1

    def test_alpha_sum_conserved_for_feasible_mass(self, rng):
        q = ProbMatrix(rng.dirichlet(np.ones(3), size=5))
        mass = rng.dirichlet(np.ones(3), size=5).sum(axis=0)
        dual = DualState(alpha=rng.normal(size=3), eta=0.2)
        out = dual_step(dual, q, mass)
        assert out.alpha.sum() == pytest.approx(dual.alpha.sum(), abs=1e-9)


class TestRefine:
    def test_feasible_start_fixed_point(self, rng):
        targets = ProbMatrix(rng.dirichlet(np.ones(3), size=4))
        p = RefineProblem(targets, [0, 1], [2, 3], 1.0, class_mass(targets))
        res = refine(p)
        assert res.converged
        assert res.iterations == 1
        assert res.objective == 0.0
        assert np.array_equal(res.matrix.values, targets.values)

    def test_known_two_by_two_instance(self):
        targets = ProbMatrix([[0.9, 0.1], [0.2, 0.8]])
        p = RefineProblem(targets, [0], [1], 1.0, np.array([1.0, 1.0]))
        res = refine(p, RefineConfig(tol=1e-10, max_iters=100_000))
        assert res.converged
        expected = np.array([[6.0 / 7.0, 1.0 / 7.0], [1.0 / 7.0, 6.0 / 7.0]])
        assert res.matrix.values == pytest.approx(expected, abs=1e-8)
        # independent 1-d root solve over the multiplier ratio t:
        # col-0 balance f(t) = sum_i t p_i0 / (t p_i0 + p_i1) - 1 = 0
        lo, hi = 1e-6, 1e6
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            val = sum(mid * r[0] / (mid * r[0] + r[1])
                      for r in targets.values) - 1.0
            if val > 0:
                hi = mid
            else:
                lo = mid
        t = np.sqrt(lo * hi)
        root_q = np.array([[t * r[0] / (t * r[0] + r[1]),
                            r[1] / (t * r[0] + r[1])] for r in targets.values])
        assert res.matrix.values == pytest.approx(root_q, abs=1e-8)
        # brute-force grid over the free coordinate at step 1e-3: with
        # mass [1, 1] the second row is determined by the first
        grid = np.arange(1e-3, 1.0, 1e-3)
        best = None
        for x in grid:
            q = ProbMatrix(np.array([[x, 1 - x], [1 - x, x]]))
            val = objective(q, p)
            if best is None or val < best[0]:
                best = (val, x)
        assert abs(best[1] - 6.0 / 7.0) <= 2e-3
        assert res.objective <= best[0] + 1e-6

    def test_oracle_equivalence_on_random_instances(self, rng):
        for _ in range(30):
            p = random_instance(rng)
            res = refine(p, RefineConfig(tol=1e-9, max_iters=200_000))
            assert res.converged
            q_or, f_or = pgd_refine(p.targets.values, p.row_weights(), p.mass,
                                    tol=1e-10)
            assert abs(res.objective - f_or) <= 1e-4
            assert np.abs(res.matrix.values - q_or).max() <= 1e-3

    def test_uniqueness_from_two_warm_starts(self, rng):
        for _ in range(10):
            p = random_instance(rng)
            uniform = pseudo_generate(p.n_rows, p.targets.n_classes,
                                      PseudoScheme("uniform"))
            a = refine(p, RefineConfig(tol=1e-10, max_iters=200_000))
            b = refine(p, RefineConfig(tol=1e-10, max_iters=200_000,
                                       warm_start=uniform))
            assert a.converged and b.converged
            assert np.abs(a.matrix.values - b.matrix.values).max() <= 1e-6

    def test_infeasible_mass_rejected(self, rng):
        targets = ProbMatrix(rng.dirichlet(np.ones(3), size=4))
        p = RefineProblem(targets, [0, 1], [2, 3], 1.0,
                          np.array([1.0, 1.0, 1.0]))  # sums to 3, not 4
        with pytest.raises(InfeasibleProblemError):
            refine(p)

    def test_non_convergence_flag(self, rng):
        p = random_instance(rng)
        res = refine(p, RefineConfig(tol=1e-14, max_iters=3))
        assert not res.converged
        assert res.iterations == 3
        assert len(res.dual.residuals) >= 1

    def test_max_iters_below_one_rejected(self, rng):
        # with no iteration there is no iterate to return
        p = random_instance(rng)
        for max_iters in (0, -1):
            with pytest.raises(UsageError, match="max_iters"):
                refine(p, RefineConfig(max_iters=max_iters))

    def test_residual_non_increasing_after_transient(self, rng):
        for _ in range(10):
            p = random_instance(rng)
            res = refine(p, RefineConfig(eta=0.5 / p.n_rows, max_iters=50_000,
                                         tol=1e-8))
            hist = np.asarray(res.dual.residuals)
            start = max(1, len(hist) // 10)
            tail = hist[start:]
            assert (np.diff(tail) <= 1e-12).all()

    def test_lambda_symmetry(self, rng):
        # swapping forget/retain roles while swapping the weights gives the
        # identical optimization problem
        targets = ProbMatrix(rng.dirichlet(np.ones(3), size=5))
        mass = rng.dirichlet(np.ones(3), size=5).sum(axis=0)
        rows_a = np.array([0, 1])
        rows_b = np.array([2, 3, 4])
        lam = 2.0
        p1 = RefineProblem(targets, rows_a, rows_b, lam, mass)
        # scaling all row weights by 1/lam rescales the objective but not
        # the minimizer: weights (1/lam, 1) == (1, lam)/lam
        p2 = RefineProblem(targets, rows_b, rows_a, 1.0 / lam, mass)
        r1 = refine(p1, RefineConfig(tol=1e-10, max_iters=200_000))
        r2 = refine(p2, RefineConfig(tol=1e-10, max_iters=200_000))
        assert np.abs(r1.matrix.values - r2.matrix.values).max() <= 1e-6

    def test_partition_validation(self, rng):
        targets = ProbMatrix(rng.dirichlet(np.ones(3), size=4))
        with pytest.raises(UsageError):
            RefineProblem(targets, [0, 1], [1, 2, 3], 1.0,
                          np.array([2.0, 1.0, 1.0]))
        with pytest.raises(UsageError):
            RefineProblem(targets, [0], [2, 3], 1.0, np.array([2.0, 1.0, 1.0]))


def _loop_case(rng, k, lam, case):
    """One refinement instance and warm start exercising ``case``."""
    n = 24
    values = rng.dirichlet(np.full(k, 0.5), size=n)
    if case == "clamp":
        # class 0 almost absent from the targets: the first full Newton
        # step overshoots far past the exponent clamp
        values[:, 0] *= 1e-9
        values /= values.sum(axis=1, keepdims=True)
    targets = ProbMatrix(values, row_ids=rng.permutation(n))
    mass = rng.dirichlet(np.ones(k), size=n).sum(axis=0)
    perm = rng.permutation(n)
    forget, retain = (perm[:0], perm) if case == "no-forget" else (perm[:6],
                                                                    perm[6:])
    warm = pseudo_generate(n, k, PseudoScheme("random-softmax", seed=5)) \
        if case == "warm-start" else None
    return RefineProblem(targets, forget, retain, lam, mass), warm


def _first_newton_step(p):
    """The full Newton step from alpha = 0 with alpha_K fixed, computed
    here from the row-wise Jacobian sum_i (q_i q_i^T - diag(q_i)) / c_i."""
    q, c = p.targets.values, p.row_weights()
    jac = sum((np.outer(row, row) - np.diag(row)) / ci for row, ci in zip(q, c))
    grad = q.sum(axis=0) - p.mass
    return np.linalg.solve(jac[:-1, :-1], -grad[:-1])


class TestNewtonAgainstOracles:
    """Newton's result equals the independent solvers' at convergence."""

    CASES = ("converged", "warm-start", "no-forget", "clamp")

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 10])
    def test_matches_dual_ascent_to_convergence(self, k):
        rng = np.random.default_rng(100 + k)
        halvings = []
        for lam in (0.5, 1.0, 2.0):
            for case in self.CASES[:3] if k == 1 else self.CASES:
                p, warm = _loop_case(rng, k, lam, case)
                res = refine(p, RefineConfig(tol=1e-10, warm_start=warm))
                ref = dual_ascent_reference(
                    p.targets.values, p.forget_rows, p.retain_rows, p.lam,
                    p.mass, tol=1e-10, max_iters=200_000, eta=8.0 / p.n_rows,
                    warm_start=None if warm is None else warm.values)
                where = f"k={k} lam={lam} case={case}"
                assert res.converged and ref["converged"], where
                gap = np.abs(res.matrix.values - ref["matrix"]).max()
                assert gap <= 1e-9, where
                assert len(res.dual.residuals) == res.iterations, where
                if res.matrix is not warm:
                    assert np.array_equal(res.matrix.row_ids,
                                          p.targets.row_ids), where
                if case == "clamp":
                    first = _first_newton_step(p)
                    assert np.abs(first).max() / min(1.0, p.lam) > EXP_CLAMP
                    halvings.append(len(res.eta_schedule) - 1)
        # the damping rejects some step from an overshooting instance
        assert k == 1 or max(halvings) > 0

    def test_matches_sinkhorn_at_lambda_one(self, rng):
        for _ in range(20):
            n, k = int(rng.integers(2, 41)), int(rng.integers(2, 11))
            targets = ProbMatrix(rng.dirichlet(np.ones(k), size=n))
            mass = rng.dirichlet(np.ones(k), size=n).sum(axis=0)
            n_f = int(rng.integers(0, n))
            perm = rng.permutation(n)
            p = RefineProblem(targets, perm[:n_f], perm[n_f:], 1.0, mass)
            res = refine(p, RefineConfig(tol=1e-12))
            assert res.converged
            q = sinkhorn_reference(targets.values, mass, tol=1e-13)
            assert np.abs(res.matrix.values - q).max() <= 1e-9


def _confident_problem(lam, n=437, k=5, n_forget=25, seed=11):
    """Near one-hot model outputs (logit gap 30) whose 25 forget rows of
    class 0 are replaced by soft pseudo rows.  Dual ascent with step 4/n
    stops short of tol 1e-6 after 60,000 iterations at every lambda here."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % k

    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    outputs = ProbMatrix(softmax(rng.normal(size=(n, k))
                                 + 30.0 * np.eye(k)[labels]))
    forget = np.flatnonzero(labels == 0)[:n_forget]
    pseudo = ProbMatrix(softmax(0.7 * rng.normal(size=(n_forget, k))))
    return problem_from_outputs(outputs, replace_rows(outputs, forget, pseudo),
                                forget, np.setdiff1d(np.arange(n), forget),
                                lam)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_confident_targets_converge(lam):
    p = _confident_problem(lam)
    res = refine(p, RefineConfig(tol=1e-6, max_iters=60_000,
                                 eta=4.0 / p.n_rows))
    assert res.converged
    assert res.iterations <= 20


class TestPrimalBitwise:
    """The primal update is the frozen original one bit for bit."""

    GROUPS = {"forget-only": 1.0, "retain-only": 0.0, "both": 0.4}

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_primal_update_matches_reference(self, k, lam):
        rng = np.random.default_rng(200 + 10 * k + int(4 * lam))
        for groups, share in self.GROUPS.items():
            n = 40
            targets = ProbMatrix(rng.dirichlet(np.full(k, 0.5), size=n),
                                 row_ids=rng.permutation(n))
            perm = rng.permutation(n)
            n_f = int(share * n)
            p = RefineProblem(targets, perm[:n_f], perm[n_f:], lam,
                              class_mass(targets))
            past_clamp = rng.normal(scale=200.0, size=k)
            mixed = past_clamp.copy()
            mixed[0] = 0.3
            for alpha in (np.zeros(k), rng.normal(size=k), past_clamp, mixed):
                q = primal_update(p, DualState(alpha=alpha, eta=0.1))
                ref = primal_reference(targets.values, p.row_weights(), alpha)
                where = f"groups={groups} alpha={alpha}"
                assert q.values.tobytes() == ref.tobytes(), where
                assert np.array_equal(q.row_ids, targets.row_ids), where

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_refined_matrix_is_primal_at_alpha(self, k):
        rng = np.random.default_rng(300 + k)
        for lam in (0.5, 1.0, 2.0):
            for case in ("converged", "no-forget", "clamp"):
                p, _ = _loop_case(rng, k, lam, case)
                for max_iters in (1, 2, 3, 10_000):
                    res = refine(p, RefineConfig(tol=1e-10,
                                                 max_iters=max_iters))
                    ref = primal_reference(p.targets.values, p.row_weights(),
                                           res.dual.alpha)
                    where = f"lam={lam} case={case} max_iters={max_iters}"
                    assert res.matrix.values.tobytes() == ref.tobytes(), where
