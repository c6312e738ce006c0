"""Independent reference implementations used only by the tests.

These deliberately avoid the algorithms used by the package: the refinement
oracles are a Euclidean projected-gradient method (exact active-set polytope
projections), the package's original dual ascent and, at lambda = 1,
Sinkhorn matrix scaling; classification oracles are nearest-centroid and a
hand-rolled logistic regression, and gradients are checked by central finite
differences.  The frozen copies of the original primal update, 1-D logistic
fit, NegGrad+ loop, forward pass and SGD loop pin the package's rewrites to
the original arithmetic bit for bit.
"""

import numpy as np


# ---------------------------------------------------------------------------
# transportation-polytope projection

def project_affine_marginals(X, row_sums, col_sums):
    """Closed-form projection onto {Y : Y 1 = row_sums, Y^T 1 = col_sums}."""
    n, k = X.shape
    r = row_sums - X.sum(axis=1)
    c = col_sums - X.sum(axis=0)
    total = r.sum()
    alpha = r / k
    beta = c / n - total / (n * k)
    return X + alpha[:, None] + beta[None, :]


def _equality_projection(X, active, col_sums):
    """Projection of X onto {Y: row sums 1, col sums, Y[active] = 0}.

    On free cells Y = X + a_i + b_j; (a, b) solve a small linear system that
    is consistent whenever a feasible point with those zeros exists.
    """
    n, k = X.shape
    F = ~active
    Fx = np.where(F, X, 0.0)
    A = np.zeros((n + k, n + k))
    A[:n, :n] = np.diag(F.sum(axis=1).astype(float))
    A[:n, n:] = F
    A[n:, :n] = F.T
    A[n:, n:] = np.diag(F.sum(axis=0).astype(float))
    rhs = np.concatenate([1.0 - Fx.sum(axis=1), col_sums - Fx.sum(axis=0)])
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    a, b = sol[:n], sol[n:]
    T = np.where(F, X + a[:, None] + b[None, :], 0.0)
    return T, a, b


def project_polytope(X, col_sums, max_rounds=None):
    """Exact projection onto {Y >= 0, rows sum to 1, columns sum to col_sums}.

    Fast path: the affine projection, exact whenever it lands non-negative.
    Otherwise a primal active-set method: walk from a feasible point toward
    the equality-constrained projection for the current working set, block
    at the first free cell hitting zero, and release active cells whose KKT
    multiplier turns negative.
    """
    X = np.asarray(X, dtype=np.float64)
    col_sums = np.asarray(col_sums, dtype=np.float64)
    n, k = X.shape
    Y = project_affine_marginals(X, np.ones(n), col_sums)
    if Y.min() >= -1e-15:
        return np.maximum(Y, 0.0)

    if max_rounds is None:
        max_rounds = 8 * n * k + 40
    Y = np.tile(col_sums / n, (n, 1))  # feasible interior start
    active = np.zeros((n, k), dtype=bool)
    for _ in range(max_rounds):
        T, a, b = _equality_projection(X, active, col_sums)
        D = T - Y
        if np.abs(D).max() <= 1e-13:
            # at the working-set optimum; check bound multipliers
            mu = np.where(active, -(X + a[:, None] + b[None, :]), np.inf)
            if active.any() and mu.min() < -1e-10:
                i, j = np.unravel_index(np.argmin(mu), mu.shape)
                active[i, j] = False
                continue
            return np.maximum(Y, 0.0)
        # ratio test: largest feasible step along D
        shrink = (~active) & (D < -1e-15)
        tau = 1.0
        if shrink.any():
            ratios = -Y[shrink] / D[shrink]
            tau = min(1.0, float(ratios.min()))
        Y = Y + max(tau, 0.0) * D
        if tau < 1.0:
            # block the cell that hit zero first
            reached = np.where(shrink, Y, np.inf)
            i, j = np.unravel_index(np.argmin(reached), Y.shape)
            Y[i, j] = 0.0
            active[i, j] = True
        else:
            Y = T.copy()
    raise RuntimeError("active-set projection did not converge")


# ---------------------------------------------------------------------------
# projected-gradient refinement oracle

def _kl_objective(Q, targets, weights):
    Qc = np.maximum(Q, 1e-300)
    return float((weights * np.sum(Qc * np.log(Qc / targets), axis=1)).sum())


def pgd_refine(targets, weights, col_sums, tol=1e-10, max_iters=100_000):
    """Minimize sum_i w_i KL(Q_i || targets_i) over the transportation
    polytope by spectral projected gradient (Barzilai-Borwein step with a
    monotone backtracking safeguard).

    Returns (Q, objective).  Stops when the gradient-mapping residual
    ``||Q - P(Q - grad)||_inf`` drops below ``tol`` (zero exactly at the
    constrained optimum).
    """
    targets = np.asarray(targets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n, k = targets.shape
    Q = project_polytope(np.full((n, k), 1.0 / k), col_sums)
    f = _kl_objective(Q, targets, weights)
    step = 1.0
    g_prev = None
    Q_prev = None
    for _ in range(max_iters):
        Qc = np.maximum(Q, 1e-300)
        g = weights[:, None] * (np.log(Qc / targets) + 1.0)
        unit_trial = project_polytope(Q - g, col_sums)
        if np.abs(Q - unit_trial).max() < tol:
            break
        if g_prev is not None:
            s = (Q - Q_prev).ravel()
            y = (g - g_prev).ravel()
            sy = float(s @ y)
            if sy > 1e-16:
                step = float(s @ s) / sy
            step = min(max(step, 1e-10), 1e4)
        # monotone backtracking from the BB step; a step so large the
        # projection cannot resolve it is treated like an ascent step
        trial_step = step
        Q_new, f_new = unit_trial, _kl_objective(unit_trial, targets, weights)
        for _ in range(60):
            try:
                cand = project_polytope(Q - trial_step * g, col_sums)
            except RuntimeError:
                trial_step /= 2.0
                continue
            f_cand = _kl_objective(cand, targets, weights)
            if f_cand <= f + 1e-14:
                Q_new, f_new = cand, f_cand
                break
            trial_step /= 2.0
        if f_new > f:
            break
        Q_prev, g_prev = Q, g
        Q, f = Q_new, f_new
    return Q, f


# ---------------------------------------------------------------------------
# frozen dual-ascent refinement loop

def primal_reference(targets, c, alpha):
    """A frozen copy of the package's original primal update: the row-wise
    minimizer Q_ik ~ target_ik * exp(-alpha_k / c_i) for row weights ``c``,
    built from the full N x K exponent matrix; ``targets`` itself when every
    exponent is zero.  The package's update must match it bit for bit."""
    expo = np.clip(-alpha[None, :] / c[:, None], -50.0, 50.0)
    if not np.isfinite(expo).all():
        raise FloatingPointError("non-finite exponent")
    if not expo.any():
        return targets
    w = targets * np.exp(expo)
    q = w / w.sum(axis=1, keepdims=True)
    return np.maximum(q, 1e-12)


def dual_ascent_reference(targets, forget_rows, retain_rows, lam, mass,
                          tol=1e-6, max_iters=10_000, eta=None,
                          warm_start=None):
    """A frozen copy of the package's original refinement loop, dual ascent
    with a step that halves whenever the residual rises.

    Each iteration builds the N x K exponent matrix, clamps it, forms
    Q_ik ~ target_ik * exp(-alpha_k / c_i), sums the class masses, and then
    sums them again for the dual ascent, exactly as the solver first did.
    Run to convergence, it must reach the Newton solver's optimum.  Returns
    a dict: ``matrix`` (values; ``targets`` itself when alpha was zero),
    ``residuals``, ``alpha``, ``eta``, ``eta_schedule``, ``objective``,
    ``iterations``, ``dual_iterations`` and ``converged``.
    """
    targets = np.asarray(targets, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    forget_rows = np.asarray(forget_rows, dtype=np.int64)
    retain_rows = np.asarray(retain_rows, dtype=np.int64)
    n = targets.shape[0]
    c = np.ones(n)
    c[retain_rows] = lam

    eta = eta if eta is not None else 0.1 / n
    alpha = np.zeros(targets.shape[1])
    residuals, eta_schedule = [], [(0, eta)]
    dual_iterations = 0
    best_q, best_resid = None, np.inf
    converged = False
    iterations = 0
    q = targets
    for it in range(1, max_iters + 1):
        iterations = it
        if it == 1 and warm_start is not None:
            q = warm_start
        else:
            q = primal_reference(targets, c, alpha)
        resid = float(np.abs(q.sum(axis=0) - mass).max())
        if resid < best_resid:
            best_q, best_resid = q, resid
        if resid <= tol:
            residuals.append(resid)
            converged = True
            break
        if residuals and resid > residuals[-1]:
            eta /= 2.0
            eta_schedule.append((it, eta))
        grad = q.sum(axis=0) - mass
        residuals.append(float(np.abs(grad).max()))
        alpha = alpha + eta * grad
        dual_iterations += 1

    final_q = q if converged else best_q
    per_row = np.sum(final_q * np.log(final_q / targets), axis=1)
    objective = float(per_row[forget_rows].sum()
                      + lam * per_row[retain_rows].sum())
    return {"matrix": final_q, "residuals": residuals, "alpha": alpha,
            "eta": eta, "eta_schedule": eta_schedule, "objective": objective,
            "iterations": iterations, "dual_iterations": dual_iterations,
            "converged": converged}


# ---------------------------------------------------------------------------
# matrix scaling at lambda = 1

def sinkhorn_reference(targets, mass, tol=1e-13, max_iters=1_000_000):
    """At lambda = 1 the refined matrix is a diagonal scaling of the targets,
    Q = diag(u) T diag(v), with unit row sums and column sums ``mass``.
    Sinkhorn scaling (iterative proportional fitting; Cuturi 2013) finds u
    and v by alternately fixing the rows and the columns, until the row sums
    are within ``tol`` of 1 after a column update."""
    targets = np.asarray(targets, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    v = np.ones(targets.shape[1])
    for _ in range(max_iters):
        u = 1.0 / (targets @ v)
        v = mass / (targets.T @ u)
        q = u[:, None] * targets * v[None, :]
        if np.abs(q.sum(axis=1) - 1.0).max() <= tol:
            return q
    raise RuntimeError("Sinkhorn scaling did not converge")


# ---------------------------------------------------------------------------
# classification oracles

def nearest_centroid_fit(X, y, n_classes):
    return np.stack([X[y == c].mean(axis=0) for c in range(n_classes)])


def nearest_centroid_predict(centroids, X):
    d = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d.argmin(axis=1)


def logistic_regression_error(X, y, lr=0.5, iters=2000):
    """Training error (percent) of a multinomial logistic regression fit by
    plain full-batch gradient descent; a capacity floor for linear problems."""
    n, d = X.shape
    k = int(y.max()) + 1
    W = np.zeros((d, k))
    b = np.zeros(k)
    T = np.zeros((n, k))
    T[np.arange(n), y] = 1.0
    for _ in range(iters):
        z = X @ W + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        gz = (p - T) / n
        W -= lr * (X.T @ gz)
        b -= lr * gz.sum(axis=0)
    pred = (X @ W + b).argmax(axis=1)
    return 100.0 * float(np.mean(pred != y))


def logistic_1d_reference(z, y, lr=1.0, max_iters=5000, tol=1e-12):
    """A frozen copy of the full-batch gradient descent that first fit the
    membership-inference attacker; where a row's losses overlap, run to
    convergence, it must reach the package's exact fit."""
    w = 0.0
    b = 0.0
    for _ in range(max_iters):
        u = w * z + b
        p = 1.0 / (1.0 + np.exp(-u))
        gw = float(np.mean((p - y) * z))
        gb = float(np.mean(p - y))
        w -= lr * gw
        b -= lr * gb
        if max(abs(gw), abs(gb)) < tol:
            break
    return w, b


def neggrad_plus_reference(model, data, split, cfg, iters, ascent_weight):
    """A frozen copy of the package's original NegGrad+ loop, with its own
    momentum update; returns ``(params, diverged, steps)``.  Only the
    forward pass, the gradients and the divergence signal come from the
    package."""
    from ppunlearn.baselines import _raw_ce
    from ppunlearn.model import _loss_and_grads
    xr, yr = data.arrays_at(split.retain_idx)
    xf, yf = data.arrays_at(split.forget_idx)
    K = model.layout.n_classes
    Tr = np.zeros((len(yr), K))
    Tr[np.arange(len(yr)), yr] = 1.0
    Tf = np.zeros((len(yf), K))
    Tf[np.arange(len(yf)), yf] = 1.0
    params = model.copy()
    rng = np.random.default_rng(cfg.seed)
    vel = [np.zeros_like(t) for t in params.tensors()]
    for step in range(1, iters + 1):
        br = rng.choice(len(yr), size=min(cfg.batch_size, len(yr)), replace=False)
        bf = rng.choice(len(yf), size=min(cfg.batch_size, len(yf)), replace=False)
        if _raw_ce(params, xr[br], yr[br]) > 1e3:
            return params, True, step
        _, grads_r = _loss_and_grads(params, xr[br], Tr[br], "cross-entropy")
        _, grads_f = _loss_and_grads(params, xf[bf], Tf[bf], "cross-entropy")
        for i, (t, gr, gf) in enumerate(zip(params.tensors(), grads_r,
                                            grads_f)):
            vel[i] = cfg.momentum * vel[i] - cfg.lr * (gr - ascent_weight * gf)
            t += vel[i]
    return params, False, iters


# ---------------------------------------------------------------------------
# the forward pass

def forward_reference(params, X):
    """A frozen copy of the package's original forward pass, which added
    each bias after its layer's product: returns ``(a1, logits, probs)``,
    with ``probs`` the plain softmax of the logits.  The package's pass,
    which multiplies b1 in with the inputs, must match it bit for bit."""
    a1 = np.tanh(X @ params.w1 + params.b1)
    logits = a1 @ params.w2 + params.b2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return a1, logits, e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# the SGD loop

def sgd_epochs_reference(params, X, T, cfg, kind, row_weights,
                         after_epoch=None):
    """A frozen copy of the package's original mini-batch SGD loop, with the
    forward pass, softmax, loss, gradients and momentum update it called.
    Each step allocates its temporaries and computes the loss it discards;
    the package's loop must return the same weights, and pass the same
    weights to ``after_epoch(epoch, params)``, bit for bit."""
    floor = 1e-12

    def softmax(logits):
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def normalized_weights(n, row_weights):
        if row_weights is None:
            return np.full(n, 1.0 / n)
        return row_weights / row_weights.sum()

    def mean_loss(probs, T, w, kind):
        if kind == "cross-entropy":
            p_true = np.maximum((probs * T).sum(axis=1), floor)
            return float(-(w * np.log(p_true)).sum())
        P = np.maximum(probs, floor)
        return float((w * np.sum(T * np.log(T / P), axis=1)).sum())

    def loss_and_grads(params, X, T, kind, row_weights=None):
        a1 = np.tanh(X @ params.w1 + params.b1)
        logits = a1 @ params.w2 + params.b2
        probs = softmax(logits)
        w = normalized_weights(X.shape[0], row_weights)
        loss = mean_loss(probs, T, w, kind)
        dlogits = w[:, None] * (probs - T)
        dw2 = a1.T @ dlogits
        db2 = dlogits.sum(axis=0)
        da1 = dlogits @ params.w2.T
        dz1 = da1 * (1.0 - a1 * a1)
        dw1 = X.T @ dz1
        db1 = dz1.sum(axis=0)
        return loss, (dw1, db1, dw2, db2)

    def momentum_step(params, vel, grads, cfg):
        for i, (t, g) in enumerate(zip(params.tensors(), grads)):
            vel[i] = cfg.momentum * vel[i] - cfg.lr * g
            t += vel[i]

    params = params.copy()
    rng = np.random.default_rng(cfg.seed)
    vel = [np.zeros_like(t) for t in params.tensors()]
    n = X.shape[0]
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            bw = None if row_weights is None else row_weights[rows]
            _, grads = loss_and_grads(params, X[rows], T[rows], kind, bw)
            momentum_step(params, vel, grads, cfg)
        if after_epoch is not None:
            after_epoch(epoch, params)
    return params


# ---------------------------------------------------------------------------
# finite differences

def finite_diff_grads(loss_fn, params, step=1e-6):
    """Central finite differences of ``loss_fn(params)`` w.r.t. every tensor.

    ``params`` must expose .tensors(); the loss is re-evaluated with each
    entry perturbed in place.
    """
    grads = []
    for tensor in params.tensors():
        g = np.zeros_like(tensor)
        flat = tensor.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = loss_fn(params)
            flat[i] = orig - step
            f_minus = loss_fn(params)
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g)
    return grads
