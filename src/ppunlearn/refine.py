"""Constrained refinement of pseudo-probability targets.

Given a target matrix (forget rows = pseudo-probabilities, retain rows =
model outputs), the solver minimizes

    sum_{forget i} KL(Q_i || target_i) + lambda * sum_{retain i} KL(Q_i || target_i)

over row-stochastic Q subject to fixed per-class column masses M_k.  For
fixed dual vector alpha the Lagrangian minimizer over each row simplex is
closed form,

    Q_ik  proportional to  target_ik * exp(-alpha_k / c_i),

with c_i = 1 on forget rows and lambda on retain rows, and damped Newton
steps solve the K mass equations sum_i Q_ik = M_k for alpha.  The objective
is strictly convex with linear constraints, so the optimum is unique;
starting at alpha = 0 makes the first iterate equal the targets themselves
(the warm start near the pseudo-probabilities).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (InfeasibleProblemError, NumericalOverflowError,
                     ShapeError, UsageError)
from .fileio import write_json
from .probmatrix import (FLOOR, ProbMatrix, class_mass, dump_probmatrix,
                         kl_rows)

EXP_CLAMP = 50.0
MASS_TOL = 1e-6


@dataclass
class RefineProblem:
    """One refinement instance: targets, row partition, retain weight, masses."""

    targets: ProbMatrix
    forget_rows: np.ndarray
    retain_rows: np.ndarray
    lam: float = 1.0
    mass: np.ndarray = None

    def __post_init__(self):
        self.forget_rows = np.asarray(self.forget_rows, dtype=np.int64)
        self.retain_rows = np.asarray(self.retain_rows, dtype=np.int64)
        n = self.targets.n_rows
        combined = np.concatenate([self.forget_rows, self.retain_rows])
        if not np.array_equal(np.sort(combined), np.arange(n)):
            raise UsageError("forget and retain rows must partition all rows")
        if not 0 < self.lam < np.inf:
            raise UsageError(f"lam: must be finite and > 0, got {self.lam}")
        if self.mass is None:
            raise UsageError("a class-mass vector is required")
        self.mass = np.asarray(self.mass, dtype=np.float64)
        if self.mass.shape != (self.targets.n_classes,):
            raise ShapeError(
                f"mass vector of shape {self.mass.shape} for "
                f"{self.targets.n_classes} classes"
            )
        if self.mass.min() < 0:
            raise UsageError("mass entries must be non-negative")

    @property
    def n_rows(self) -> int:
        return self.targets.n_rows

    def row_weights(self) -> np.ndarray:
        c = np.ones(self.n_rows)
        c[self.retain_rows] = self.lam
        return c


@dataclass
class DualState:
    """Dual vector alpha, step size eta, and the residual trace so far."""

    alpha: np.ndarray
    eta: float
    iterations: int = 0
    residuals: list = field(default_factory=list)

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.eta <= 0:
            raise UsageError(f"step size must be positive, got {self.eta}")


@dataclass
class RefineConfig:
    tol: float = 1e-6
    max_iters: int = 10_000
    eta: float | None = None    # checked only: the solve has no step size
    warm_start: ProbMatrix | None = None

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise UsageError(f"tol: must be finite and > 0, got {self.tol}")
        if self.max_iters < 1:
            raise UsageError("max_iters: must be >= 1 (refinement needs "
                             f"max_iters >= 1, got {self.max_iters})")
        if self.eta is not None and not self.eta > 0:
            raise UsageError(f"eta: must be > 0, got {self.eta}")


@dataclass
class RefineResult:
    matrix: ProbMatrix
    alpha: np.ndarray       # the best iterate's; zeros for the warm start
    residuals: list         # every iterate's sup-norm mass residual
    objective: float
    converged: bool
    iterations: int
    eta_schedule: list = field(default_factory=list)


def objective(Q: ProbMatrix, problem: RefineProblem) -> float:
    """Forget-row KL sum plus lambda times the retain-row KL sum."""
    if Q.values.shape != problem.targets.values.shape:
        raise ShapeError(
            f"Q shape {Q.values.shape} does not match targets "
            f"{problem.targets.values.shape}"
        )
    per_row = kl_rows(Q, problem.targets)
    return float(per_row[problem.forget_rows].sum()
                 + problem.lam * per_row[problem.retain_rows].sum())


def _primal(targets: ProbMatrix, c: np.ndarray,
            alpha: np.ndarray) -> ProbMatrix:
    """Row-wise Lagrangian minimizer Q_ik ~ target_ik * exp(-alpha_k / c_i)
    for row weights ``c``, an (N, 1) column, as a fresh matrix.

    Exponents are clamped to [-EXP_CLAMP, EXP_CLAMP]; anything non-finite
    after clamping aborts.  When every exponent is zero the minimizer is the
    targets, returned as they are.  The row sums are a NumPy sum over the
    row-major (N, K) array, as in ``ndarray.sum(axis=1)``.
    """
    expo = np.clip(-alpha / c, -EXP_CLAMP, EXP_CLAMP)
    if not np.isfinite(expo).all():
        raise NumericalOverflowError("non-finite exponent in primal update")
    if not expo.any():
        return targets
    q = targets.values * np.exp(expo)
    q /= q.sum(axis=1, keepdims=True)
    np.maximum(q, FLOOR, out=q)
    return ProbMatrix._wrap(q, targets.row_ids.copy())


def _mass_residual(q: np.ndarray, mass: np.ndarray):
    """Column-mass residual sum_i Q_ik - M_k and its sup-norm.  The sum runs
    over the row-major (N, K) array in the order of ``class_mass``."""
    grad = np.add.reduce(q, axis=0) - mass
    return grad, float(np.maximum.reduce(np.abs(grad)))


def primal_update(problem: RefineProblem, dual: DualState) -> ProbMatrix:
    """Row-wise Lagrangian minimizer Q_ik ~ target_ik * exp(-alpha_k / c_i).

    Exponents are clamped to [-EXP_CLAMP, EXP_CLAMP]; anything non-finite
    after clamping aborts.  With alpha = 0 the targets are returned bitwise.
    """
    if dual.alpha.shape != (problem.targets.n_classes,):
        raise ShapeError(
            f"dual vector of length {dual.alpha.shape} for "
            f"{problem.targets.n_classes} classes"
        )
    return _primal(problem.targets, problem.row_weights()[:, None], dual.alpha)


def dual_step(dual: DualState, Q: ProbMatrix, mass: np.ndarray) -> DualState:
    """Ascend alpha along the column-mass residual and record its sup-norm.

    The residual trace is shared (not copied) between the old and new state,
    so long solver runs stay linear in the iteration count.
    """
    grad, resid = _mass_residual(Q.values, np.asarray(mass, dtype=np.float64))
    if grad.shape != dual.alpha.shape:
        raise ShapeError(
            f"residual of shape {grad.shape} for dual of shape {dual.alpha.shape}"
        )
    dual.residuals.append(resid)
    return DualState(
        alpha=dual.alpha + dual.eta * grad,
        eta=dual.eta,
        iterations=dual.iterations + 1,
        residuals=dual.residuals,
    )


def refine(problem: RefineProblem, cfg: RefineConfig | None = None) -> RefineResult:
    """Damped Newton steps on alpha until the column masses match.

    Stops when the sup-norm residual drops below ``cfg.tol`` or after
    ``cfg.max_iters`` primal updates; a step that does not lower the
    residual is halved from the same base point (``eta_schedule`` records
    each halving).  The result carries the best (lowest-residual) iterate,
    which is the last one when converged.
    """
    cfg = cfg or RefineConfig()
    n = problem.n_rows
    mass_gap = abs(float(problem.mass.sum()) - n)
    if mass_gap > MASS_TOL:
        raise InfeasibleProblemError(
            f"class masses sum to {problem.mass.sum():.9g} for {n} rows "
            f"(gap {mass_gap:.3g})"
        )
    warm = cfg.warm_start
    if warm is not None and warm.values.shape != problem.targets.values.shape:
        raise ShapeError("warm start shape does not match targets")

    k = problem.targets.n_classes
    c = problem.row_weights()[:, None]
    residuals, eta_schedule = [], [(0, 1.0)]
    # where some exponent -alpha_k / c_i is clamped the minimizer stops
    # moving with alpha, so each Newton step is clipped to stay out of there
    bound = EXP_CLAMP * c.min()
    alpha, base_resid = np.zeros(k), np.inf
    # alpha of the current iterate, and alpha and matrix of the best one;
    # an alpha of None is the warm start
    q_alpha, best_alpha, best, best_resid = None, None, None, np.inf
    for it in range(1, cfg.max_iters + 1):
        if it == 1 and warm is not None:
            q_alpha, Q = None, warm
        else:
            q_alpha, Q = alpha, _primal(problem.targets, c, alpha)
        q = Q.values
        grad, resid = _mass_residual(q, problem.mass)
        residuals.append(resid)
        if resid < best_resid:
            best_alpha, best, best_resid = q_alpha, Q, resid
        if resid <= cfg.tol:
            break
        if k == 1:
            break  # the row sums fix the one class mass; no step moves it
        if resid < base_resid:
            # alpha_K stays 0: the minimizer ignores a common shift of alpha
            # and the masses sum to N.  The Jacobian of the masses in alpha
            # is (Q/c)^T Q - diag(sum_i Q_i / c_i).
            scaled = q / c
            jac = scaled.T @ q
            jac[np.diag_indices(k)] -= scaled.sum(axis=0)
            newton = alpha.copy()
            newton[:-1] -= np.linalg.solve(jac[:-1, :-1], grad[:-1])
            direction = np.clip(newton, -bound, bound) - alpha
            base_alpha, step = alpha, 1.0
            # the warm start is the minimizer for no alpha, so the first
            # step from it is kept whatever its residual
            base_resid = np.inf if q_alpha is None else resid
        else:
            step /= 2.0
            eta_schedule.append((it, step))
        alpha = base_alpha + step * direction

    return RefineResult(
        matrix=best,
        alpha=np.zeros(k) if best_alpha is None else best_alpha,
        residuals=residuals,
        objective=objective(best, problem),
        converged=residuals[-1] <= cfg.tol,
        iterations=len(residuals),
        eta_schedule=eta_schedule,
    )


def problem_from_outputs(outputs: ProbMatrix, targets: ProbMatrix,
                         forget_rows, retain_rows, lam: float = 1.0) -> RefineProblem:
    """Build a problem whose masses come from the original model outputs.

    Using the original outputs guarantees sum_k M_k = N, i.e. feasibility.
    """
    return RefineProblem(
        targets=targets,
        forget_rows=forget_rows,
        retain_rows=retain_rows,
        lam=lam,
        mass=class_mass(outputs),
    )


def save_refine_result(result: RefineResult, prefix) -> None:
    """Persist a result: its matrix as the dump <prefix>.pmx, and every
    other field as the record <prefix>.json."""
    dump_probmatrix(result.matrix, str(prefix) + ".pmx")
    record = dict(vars(result), alpha=result.alpha.tolist())
    del record["matrix"]
    write_json(str(prefix) + ".json", record)
