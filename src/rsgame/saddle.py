"""Single-state saddle problems of the multiplicative dynamic-programming operator.

At state i with positive function psi (given in log domain), the local game is

    sup_nu inf_mu  exp(c(i,mu,nu)) * sum_j psi(j) P(j|i,mu,nu)

over mixed actions mu, nu. Writing C[u,v] = c(i,u,v) and
Q[u,v] = sum_j psi(j) P(j|i,u,v), the log payoff is

    L(mu, nu) = mu' C nu + log(mu' Q nu),

bilinear inside the exponent and inside the inner sum. Structure used here:

* fixed nu: L is concave in mu (linear plus log of linear), so the infimum
  over the simplex sits at a vertex: pure best responses for player 1.
* fixed mu: L depends on nu only through the two linear functionals
  x = (C' mu) . nu and y = (Q' mu) . nu, so sup_nu L is an exact 2-D
  problem: maximize x + log y over the convex hull of the per-column
  points (x_v, y_v). Segment optima have a closed form, which makes the
  reported duality gap a genuine certificate rather than an iteration
  heuristic.

The value solved here is sup_nu min_u L(delta_u, nu), the leading form of
the dynamic-programming display: a concave maximization over the simplex.
solve_saddle_core takes the first of these stages that certifies:

1. the batched pure path below, on a batch of one;
2. the pure candidate again, with the pair and LP certificate tiers;
3. the exact planar method when |U| = 1;
4. one lower solve (the single point when |V| = 1, exact scalar search
   when |V| = 2, a single-start epigraph SLSQP solve when |V| >= 3), then
   Newton polishing; if its certificate misses the tolerance, the solve
   raises NoConvergence.

Certification. L is concave in BOTH variables, so the two optimization
orders need not coincide: instances exist (see tests) where
inf_mu sup_nu exceeds sup_nu inf_mu by 0.1 in log scale. The reported
`gap` therefore certifies the computed lower value itself: a supergradient
linear program bounds max_nu h from above at the returned point, and the
bound is valid unconditionally (concavity of each pure payoff plus an
activation-slack term). The discrepancy between the two orders for the
best minimizing mixture found is reported separately as `order_gap`; it
vanishes whenever a genuine saddle point exists (pure saddles, constant
psi, singleton actions) and is diagnostic otherwise.

Batched pure path. An operator sweep solves one local game per state;
solve_saddles groups them by action shape, stacks their C and L into
(k, mU, mV) arrays and runs the pure fast path as array operations over
the batch (_pure_saddles): the row shift and the empty-support and dead
row tests, the pure candidate v* = argmax_v min_u (C + log Q)[u, v], the
single-action supergradient certificate at e_v*, and the best pure
minimizer by the exact planar sup with its order gap. A state is settled
there only when the scalar solver would return at that same point, so
every field of its LocalSaddle is bit for bit the scalar result; every
other state (a certificate that needs the pair or LP tier, an order gap
above max(tol, 1e-9), a mixed saddle) goes to solve_saddle_core, whose
own fast path is the batched one on a batch of one.

All tie-breaks pick the lowest action index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._util import NEG_INF

DEFAULT_TOL = 1e-8
_ACTIVE_TOL = 1e-9
_Y_FLOOR = 1e-300


class NoConvergence(RuntimeError):
    def __init__(self, iterations: int, gap: float):
        super().__init__(f"duality gap {gap:.3e} above tolerance after {iterations} iterations")
        self.iterations = iterations
        self.gap = gap


@dataclass
class LocalSaddle:
    """Certified solution of one state's saddle problem (log domain).

    gap bounds the suboptimality of log_value as a maximization of the
    lower-value function; order_gap reports sup_nu L(mu, nu) minus the
    lower value for the returned mu, which is zero exactly when (mu, nu)
    is a saddle point of the mixed extension.
    """

    log_value: float
    mu: np.ndarray
    nu: np.ndarray
    gap: float
    order_gap: float = 0.0
    empty_support: bool = False
    iterations: int = 0


def local_matrices(model, i: int, log_psi: np.ndarray):
    """(C, L) for state i: C costs, L[u,v] = log sum_j psi(j) P(j|i,u,v)."""
    return model.cost[i], model.inner_log_sums([i], log_psi)[0]


def local_payoff_core(C: np.ndarray, L: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """mu' C nu + log(mu' Q nu) with Q = exp(L), computed shift-stably."""
    finite = np.isfinite(L)
    if not finite.any():
        return NEG_INF
    m0 = float(L[finite].max())
    Q = np.exp(L - m0)
    y = float(mu @ Q @ nu)
    if y <= 0.0:
        return NEG_INF
    return float(mu @ C @ nu) + m0 + float(np.log(y))


def local_payoff(model, i: int, log_psi, mu, nu) -> float:
    C, L = local_matrices(model, i, log_psi)
    return local_payoff_core(C, L, np.asarray(mu, float), np.asarray(nu, float))


def _pure_values(C: np.ndarray, Qs: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """f_u(nu) = c_u . nu + log(q_u . nu) for every pure u (shifted Q)."""
    y = Qs @ nu
    with np.errstate(divide="ignore"):
        return C @ nu + np.log(np.maximum(y, 0.0))


def best_response_pure_min_core(C: np.ndarray, L: np.ndarray, nu: np.ndarray):
    finite = np.isfinite(L)
    if not finite.any():
        return 0, NEG_INF
    m0 = float(L[finite].max())
    f = _pure_values(C, np.exp(L - m0), nu) + m0
    u = int(np.argmin(f))  # argmin takes the first minimizer: lowest index
    return u, float(f[u])


def best_response_pure_min(model, i: int, log_psi, nu):
    C, L = local_matrices(model, i, log_psi)
    return best_response_pure_min_core(C, L, np.asarray(nu, float))


# ---------------------------------------------------------------------------
# exact inner maximization over nu for a fixed mu


@functools.lru_cache(maxsize=None)
def _pairs(k: int):
    """Index pairs p < q of k columns in the order (0, 1), (0, 2), ..., (1, 2), ..."""
    p, q = np.triu_indices(k, 1)
    p.flags.writeable = q.flags.writeable = False
    return p, q


def _max_x_plus_log_y_rows(x: np.ndarray, y: np.ndarray):
    """Maximize x.w + log(y.w) over the simplex, exactly, row by row.

    x and y have shape (rows, k). The objective depends on w only through
    the planar point (x.w, y.w) in conv{(x_v, y_v)}; it is increasing in
    both coordinates and concave, so the maximum lies on a vertex or on a
    two-vertex segment, where stationarity x_q - x_p + (y_q - y_p)/y(t) = 0
    solves in closed form. Enumerating all pairs is exact for these sizes;
    the pairs are scanned in order and a segment replaces the incumbent
    only when it beats it by a relative 1e-15.

    Returns (values, weights) of shapes (rows,) and (rows, k). Columns with
    y = 0 contribute only through mixtures; a row whose y is 0 everywhere
    has value -inf at the lowest index vertex.
    """
    r, k = x.shape
    p, q = _pairs(k)
    with np.errstate(all="ignore"):
        vertex_vals = x + np.log(np.maximum(y, 0.0))
        best_v = vertex_vals.argmax(axis=1)
        best_val = vertex_vals[np.arange(r), best_v]
        best_w = (np.arange(k) == best_v[:, None]).astype(float)
        dead = (y <= 0.0).all(axis=1)
        if dead.any():
            best_val[dead] = NEG_INF
            best_w[dead] = _unit(k, 0)
        # every segment's stationary point at once; the incumbent rule is
        # sequential, so only the columns with a feasible segment are scanned
        xp, yp = x[:, p], y[:, p]
        dx = x[:, q] - xp
        dy = y[:, q] - yp
        ystar = -dy / dx
        t = (ystar - yp) / dy
        yv = yp + t * dy
        val = xp + t * dx + np.log(yv)
        # a zero dx or dy degenerates the segment optimum to an endpoint
        feasible = ((dx != 0.0) & (dy != 0.0) & (ystar > 0.0) & (t > 0.0) & (t < 1.0)
                    & (yv > 0.0))
        for c in np.nonzero(feasible.any(axis=0))[0]:
            better = feasible[:, c] & (
                val[:, c] > best_val + 1e-15 * np.maximum(1.0, np.abs(best_val)))
            best_val[better] = val[better, c]
            best_w[better] = 0.0
            best_w[better, p[c]] = 1.0 - t[better, c]
            best_w[better, q[c]] = t[better, c]
    return best_val, best_w


def _max_x_plus_log_y(x: np.ndarray, y: np.ndarray):
    """_max_x_plus_log_y_rows on one row: (value, weights)."""
    val, w = _max_x_plus_log_y_rows(x[None], y[None])
    return float(val[0]), w[0]


def _sup_over_nu(C: np.ndarray, Qs: np.ndarray, mu: np.ndarray):
    """Exact sup_nu of the log payoff for fixed mu (Q already shifted)."""
    return _max_x_plus_log_y(C.T @ mu, Qs.T @ mu)


# ---------------------------------------------------------------------------
# lower problem: maximize h(nu) = min_u f_u(nu) over the nu-simplex


def _h_and_active(C, Qs, nu, atol=_ACTIVE_TOL):
    f = _pure_values(C, Qs, nu)
    h = float(f.min())
    if not np.isfinite(h):
        active = np.nonzero(~np.isfinite(f))[0]
    else:
        active = np.nonzero(f <= h + atol * max(1.0, abs(h)))[0]
    return h, f, active


def _maximize_h_1d(C, Qs):
    """|V| = 2: bisection on the derivative sign of the concave h(t)."""

    def h(t):
        nu = np.array([1.0 - t, t])
        return _pure_values(C, Qs, nu).min()

    def slope(t, eps=1e-9):
        lo = max(0.0, t - eps)
        hi = min(1.0, t + eps)
        return (h(hi) - h(lo)) / (hi - lo)

    lo, hi = 0.0, 1.0
    if slope(0.0) <= 0.0:
        t = 0.0
    elif slope(1.0) >= 0.0:
        t = 1.0
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-16:
                break
        t = 0.5 * (lo + hi)
        # the kink or stationary point may sit a hair off the bisection
        # limit; a tiny golden polish removes the last bits
        span = max(hi - lo, 1e-12)
        ts = np.clip(np.linspace(t - 3 * span, t + 3 * span, 25), 0.0, 1.0)
        t = float(ts[int(np.argmax([h(tt) for tt in ts]))])
    nu = np.array([1.0 - t, t])
    return nu


def _maximize_h_epigraph(C, Qs, nu0):
    """|V| >= 3: SLSQP on max s subject to s <= f_u(nu), nu on the simplex, from nu0."""
    from scipy.optimize import minimize  # deferred: pure-saddle solves never need scipy

    mU, mV = C.shape

    def neg_obj(z):
        return -z[-1]

    def neg_obj_grad(z):
        g = np.zeros(mV + 1)
        g[-1] = -1.0
        return g

    cons = []

    def make_fu(u):
        def fun(z):
            nu = z[:mV]
            y = float(Qs[u] @ nu)
            return C[u] @ nu + np.log(max(y, _Y_FLOOR)) - z[-1]

        def jac(z):
            nu = z[:mV]
            y = max(float(Qs[u] @ nu), _Y_FLOOR)
            g = np.empty(mV + 1)
            g[:mV] = C[u] + Qs[u] / y
            g[-1] = -1.0
            return g

        return {"type": "ineq", "fun": fun, "jac": jac}

    for u in range(mU):
        cons.append(make_fu(u))
    cons.append({
        "type": "eq",
        "fun": lambda z: z[:mV].sum() - 1.0,
        "jac": lambda z: np.concatenate([np.ones(mV), [0.0]]),
    })
    bounds = [(0.0, 1.0)] * mV + [(None, None)]

    h0 = _pure_values(C, Qs, nu0).min()
    if not np.isfinite(h0):
        return nu0
    res = minimize(neg_obj, np.concatenate([nu0, [h0]]), jac=neg_obj_grad, method="SLSQP",
                   bounds=bounds, constraints=cons, options={"maxiter": 300, "ftol": 1e-14})
    nu = np.clip(res.x[:mV], 0.0, None)
    s = nu.sum()
    if s <= 0:
        return nu0
    nu /= s
    # an unusable SLSQP point (no finite lower value) falls back to the start
    return nu if _pure_values(C, Qs, nu).min() > NEG_INF else nu0


def _newton_polish(C, Qs, nu):
    """Refine nu on its detected active sets and recover KKT multipliers.

    Solves the stationarity system (active payoffs equalized, multiplier-
    weighted gradient constant over the support of nu, both sets summing
    to one) by least-squares Newton steps; the payoff often depends on nu
    through few functionals, so the Jacobian can be singular and lstsq is
    the right tool. Returns (nu, mu_multipliers_or_None).
    """
    mU, mV = C.shape
    h, _, A = _h_and_active(C, Qs, nu, atol=1e-7)
    F = np.nonzero(nu > 1e-10)[0]
    nA, nF = len(A), len(F)
    if nF == 0 or not np.isfinite(h):
        return nu, None

    def residual(z):
        nuF = z[:nF]
        lam = z[nF:]
        nu_full = np.zeros(mV)
        nu_full[F] = nuF
        y = Qs[A] @ nu_full
        if np.any(y <= 0):
            return None
        fA = C[A] @ nu_full + np.log(y)
        grads = C[A][:, F] + Qs[A][:, F] / y[:, None]
        gbar = lam @ grads
        return np.concatenate([
            fA - fA.mean(),
            gbar - gbar.mean(),
            [nuF.sum() - 1.0, lam.sum() - 1.0],
        ])

    z = np.concatenate([nu[F], np.full(nA, 1.0 / nA)])
    converged = False
    for _ in range(50):
        res = residual(z)
        if res is None:
            break
        if np.max(np.abs(res)) < 1e-14:
            converged = True
            break
        J = np.empty((len(res), len(z)))
        eps = 1e-7
        for kk in range(len(z)):
            zp = z.copy()
            zp[kk] += eps
            rp = residual(zp)
            J[:, kk] = 0.0 if rp is None else (rp - res) / eps
        try:
            step = np.linalg.lstsq(J, -res, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        z = z + np.clip(step, -0.5, 0.5)
        z = np.maximum(z, 0.0)
    if not converged:
        return nu, None
    cand = np.zeros(mV)
    cand[F] = np.maximum(z[:nF], 0.0)
    if cand.sum() <= 0:
        return nu, None
    cand /= cand.sum()
    if _pure_values(C, Qs, cand).min() < h:
        return nu, None
    lamA = np.maximum(z[nF:], 0.0)
    mu = None
    if lamA.sum() > 0:
        mu = np.zeros(mU)
        mu[A] = lamA / lamA.sum()
    return cand, mu


def _mu_candidates(C, Qs, nu, active, lam_mu, groups=True):
    """Collect minimizer mixtures to certify against the exact sup over nu."""
    mU = C.shape[0]
    cands = []
    for u in active:
        w = np.zeros(mU)
        w[u] = 1.0
        cands.append(w)
    if lam_mu is not None and lam_mu.sum() > 0:
        cands.append(lam_mu / lam_mu.sum())
    if not groups:
        return cands
    from scipy.optimize import linprog

    # mixtures can only straddle pure actions whose one-step mass under nu
    # agrees; group the active set by that mass and equalize the payoff
    # gradient over the support of nu by linear programming
    x = Qs[active] @ nu
    supp = np.nonzero(nu > 1e-12)[0]
    off = np.nonzero(nu <= 1e-12)[0]
    for rtol in (1e-9, 1e-6):
        groups = []
        used = np.zeros(len(active), dtype=bool)
        for a in range(len(active)):
            if used[a]:
                continue
            g = np.nonzero(np.abs(x - x[a]) <= rtol * max(1.0, abs(x[a])))[0]
            used[g] = True
            if len(g) >= 2:
                groups.append(active[g])
        for g in groups:
            xbar = float(np.mean(Qs[g] @ nu))
            if xbar <= 0:
                continue
            D = C[g] + Qs[g] / xbar  # (|g|, mV): gradient rows, linear in mu
            ng = len(g)
            # variables: mu_g (ng), kappa, eps; minimize eps
            n_var = ng + 2
            cost_vec = np.zeros(n_var)
            cost_vec[-1] = 1.0
            A_ub, b_ub = [], []
            for v in supp:
                row = np.zeros(n_var)
                row[:ng] = D[:, v]
                row[ng] = -1.0
                row[-1] = -1.0
                A_ub.append(row)
                b_ub.append(0.0)
                row2 = np.zeros(n_var)
                row2[:ng] = -D[:, v]
                row2[ng] = 1.0
                row2[-1] = -1.0
                A_ub.append(row2)
                b_ub.append(0.0)
            for v in off:
                row = np.zeros(n_var)
                row[:ng] = D[:, v]
                row[ng] = -1.0
                row[-1] = -1.0
                A_ub.append(row)
                b_ub.append(0.0)
            A_eq = np.zeros((1, n_var))
            A_eq[0, :ng] = 1.0
            res = linprog(cost_vec, A_ub=np.asarray(A_ub), b_ub=np.asarray(b_ub),
                          A_eq=A_eq, b_eq=[1.0],
                          bounds=[(0, None)] * ng + [(None, None), (0, None)],
                          method="highs")
            if res.status == 0:
                w = np.zeros(mU)
                w[g] = np.maximum(res.x[:ng], 0.0)
                if w.sum() > 0:
                    cands.append(w / w.sum())
    return cands


def _value_and_grads(C, Qs, nu):
    """Pure payoffs f_u(nu), their gradients, and the one-step masses."""
    y = Qs @ nu
    with np.errstate(divide="ignore"):
        f = C @ nu + np.log(np.maximum(y, 0.0))
    ysafe = np.maximum(y, _Y_FLOOR)
    G = C + Qs / ysafe[:, None]
    return f, G, y


def _pair_bound(slack, A):
    """min over lam in [0,1] of lam s_i + (1-lam) s_j + max_v of the mixed row.

    Piecewise-linear convex in lam; checking endpoints and all crossing
    points of the row lines is exact and avoids an LP call.
    """
    s_i, s_j = slack
    a, b = A  # rows: a_v at lam=1, b_v at lam=0
    cands = [0.0, 1.0]
    for v in range(len(a)):
        for w in range(v + 1, len(a)):
            den = (a[v] - b[v]) - (a[w] - b[w])
            if den != 0.0:
                lam = (b[w] - b[v]) / den
                if 0.0 < lam < 1.0:
                    cands.append(lam)
    best = np.inf
    for lam in cands:
        val = lam * s_i + (1 - lam) * s_j + np.max(lam * a + (1 - lam) * b)
        if val < best:
            best = val
    return best


def _cert_gap(C, Qs, nu, cheap_target=None):
    """Certified bound on max_nu' h(nu') - h(nu), valid unconditionally.

    For any weights lam over pure actions with finite payoff at nu,
    concavity of each f_u gives

        h(nu') <= sum_u lam_u f_u(nu')
               <= h(nu) + sum_u lam_u (f_u(nu) - h(nu))
                  + max_v w_v - w . nu,     w = sum_u lam_u grad f_u(nu).

    Single-action bounds come free; pair mixtures have a closed form; the
    lam-optimal bound over three or more actions is a tiny linear program,
    only reached when the cheaper bounds miss `cheap_target`.
    """
    f, G, y = _value_and_grads(C, Qs, nu)
    h = float(f.min())
    if not np.isfinite(h):
        return np.inf, h
    live = np.nonzero(y > 0)[0]
    slack = f[live] - h
    g0 = G[live] @ nu
    rows = G[live] - g0[:, None]
    per_u = slack + rows.max(axis=1)
    best = max(float(per_u.min()), 0.0)
    if cheap_target is not None and best <= cheap_target:
        return best, h
    k = len(live)
    if k == 1:
        return best, h
    order = np.argsort(per_u)[: min(k, 4)]
    for ii in range(len(order)):
        for jj in range(ii + 1, len(order)):
            i, j = order[ii], order[jj]
            val = _pair_bound((slack[i], slack[j]), (rows[i], rows[j]))
            if val < best:
                best = max(float(val), 0.0)
    if cheap_target is not None and best <= cheap_target:
        return best, h
    if k > 2:
        from scipy.optimize import linprog

        # variables lam (k), tau; minimize slack.lam + tau
        cvec = np.concatenate([slack, [1.0]])
        A_ub = np.concatenate([rows.T, -np.ones((C.shape[1], 1))], axis=1)
        b_ub = np.zeros(C.shape[1])
        A_eq = np.concatenate([np.ones((1, k)), np.zeros((1, 1))], axis=1)
        res = linprog(cvec, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                      bounds=[(0, None)] * k + [(None, None)], method="highs")
        if res.status == 0 and res.fun < best:
            best = max(float(res.fun), 0.0)
    return best, h


def _unit(m: int, k: int) -> np.ndarray:
    e = np.zeros(m)
    e[k] = 1.0
    return e


def _pure_saddles(C: np.ndarray, L: np.ndarray, tol: float):
    """Batched prologue and pure fast path of solve_saddle_core.

    C and L have shape (k, mU, mV): k states with the same action shape.
    Per state it applies, in the scalar solver's order, the empty-support
    test, the dead player-1 row test, the 1 x 1 closed form, and the pure
    candidate v* = argmax_v min_u pure[u, v] with pure = C + log Qs, which
    it accepts when the single-action supergradient bound of _cert_gap is
    within tol and the lowest-index best pure minimizer, measured by the
    exact planar sup over nu, has order gap within max(tol, 1e-9). Every
    step is an array operation over the batch whose per-state float
    operations are the scalar solver's, so an accepted state's LocalSaddle
    is bit for bit what the scalar stages would return.

    Returns (saddles, m0, Qs, v_star): saddles[j] is None for a state left
    to the scalar stages, which continue from its row shift m0, shifted
    masses Qs = exp(L - m0) and candidate column v_star.
    """
    k, mU, mV = C.shape
    saddles = [None] * k
    with np.errstate(all="ignore"):
        finite = np.isfinite(L)
        empty = ~finite.any(axis=(1, 2))
        m0 = np.where(empty, 0.0, np.where(finite, L, NEG_INF).max(axis=(1, 2)))
        Qs = np.exp(L - m0[:, None, None])
        dead = ~(Qs > 0.0).any(axis=2)  # (k, mU)
        v_star = (C + np.log(np.maximum(Qs, 0.0))).min(axis=1).argmax(axis=1)
    collapsed = dead.any(axis=1) & ~empty
    for j in np.nonzero(empty | collapsed)[0]:
        # no mass at all, or player 1 owns an action that sends all mass
        # outside the domain: the multiplicative payoff collapses to zero
        u = int(dead[j].argmax()) if collapsed[j] else 0
        saddles[j] = LocalSaddle(NEG_INF, _unit(mU, u), _unit(mV, 0), 0.0, empty_support=True)
    settled = empty | collapsed
    if mU == 1 and mV == 1:
        for j in np.nonzero(~settled)[0]:
            saddles[j] = LocalSaddle(float(C[j, 0, 0] + L[j, 0, 0]), np.ones(1), np.ones(1), 0.0)
        return saddles, m0, Qs, v_star

    # non-finite costs or masses take the scalar path, whose matrix-vector
    # products (not the gathers below) define the result for them
    ks = np.nonzero(~settled & np.isfinite(C).all(axis=(1, 2)) & (L < np.inf).all(axis=(1, 2)))[0]
    vs = v_star[ks]
    with np.errstate(all="ignore"):
        # f_u(e_v*) and the single-action bound of _cert_gap at the vertex
        # e_v*; a product with a unit vector is exactly a column gather
        y = Qs[ks, :, vs]  # (r, mU)
        f = C[ks, :, vs] + np.log(np.maximum(y, 0.0))
        h = f.min(axis=1)
        G = C[ks] + Qs[ks] / np.maximum(y, _Y_FLOOR)[:, :, None]
        rows = G - G[np.arange(len(ks)), :, vs][:, :, None]
        per_u = np.where(y > 0.0, (f - h[:, None]) + rows.max(axis=2), np.inf)
        cert = np.maximum(per_u.min(axis=1), 0.0)
        keep = np.isfinite(h) & (cert <= tol)
    if not keep.any():
        return saddles, m0, Qs, v_star
    ks, vs, f, h, cert = ks[keep], vs[keep], f[keep], h[keep], cert[keep]

    # pick_mu without groups: over the active pure actions, the lowest
    # index with the smallest exact planar sup over nu
    active = f <= (h + _ACTIVE_TOL * np.maximum(1.0, np.abs(h)))[:, None]
    ri, ui = np.nonzero(active)
    phi = np.full(active.shape, np.inf)
    phi[ri, ui], _ = _max_x_plus_log_y_rows(C[ks[ri], ui], Qs[ks[ri], ui])
    u_best = phi.argmin(axis=1)
    order_tol = max(tol, 1e-9)
    for r, j in enumerate(ks):
        h_r = float(h[r])
        order1 = max(float(phi[r, u_best[r]]) - h_r, 0.0)
        if order1 > order_tol:
            continue  # mixing may be required: the scalar group LPs decide
        saddles[j] = LocalSaddle(h_r + float(m0[j]), _unit(mU, int(u_best[r])),
                                 _unit(mV, int(vs[r])), float(cert[r]), order_gap=order1)
    return saddles, m0, Qs, v_star


def solve_saddles(costs, Ls, tol: float = DEFAULT_TOL) -> list:
    """Local saddles of many states at once, in input order.

    States are grouped by action shape and settled by the batched pure
    path (_pure_saddles); only the states it leaves go to
    solve_saddle_core.
    """
    costs = [np.asarray(C, dtype=float) for C in costs]
    Ls = [np.asarray(L, dtype=float) for L in Ls]
    out = [None] * len(Ls)
    groups = {}
    for j, L in enumerate(Ls):
        groups.setdefault(L.shape, []).append(j)
    for js in groups.values():
        batch, _, _, _ = _pure_saddles(np.stack([costs[j] for j in js]),
                                       np.stack([Ls[j] for j in js]), tol)
        for j, s in zip(js, batch):
            out[j] = s
    for j, s in enumerate(out):
        if s is None:
            out[j] = solve_saddle_core(costs[j], Ls[j], tol=tol)
    return out


def solve_saddle_core(C: np.ndarray, L: np.ndarray, tol: float = DEFAULT_TOL) -> LocalSaddle:
    C = np.asarray(C, dtype=float)
    L = np.asarray(L, dtype=float)
    mU, mV = C.shape

    (settled,), m0, Qs, v_star = _pure_saddles(C[None], L[None], tol)
    if settled is not None:
        return settled
    m0, Qs = float(m0[0]), Qs[0]

    def pick_mu(nu, h, lam_mu, groups):
        """Best minimizing mixture by the exact planar sup; order_gap with it."""
        _, _, active = _h_and_active(C, Qs, nu)
        cands = _mu_candidates(C, Qs, nu, active, lam_mu, groups=groups)
        phis, _ = _max_x_plus_log_y_rows(np.array([C.T @ mu for mu in cands]),
                                         np.array([Qs.T @ mu for mu in cands]))
        best_mu, best_phi = None, np.inf
        for mu, phi in zip(cands, phis):
            if phi < best_phi:
                best_phi, best_mu = float(phi), mu
        if best_mu is None:
            best_mu = _unit(mU, 0)
            best_phi, _ = _sup_over_nu(C, Qs, best_mu)
        return best_mu, max(best_phi - h, 0.0)

    def finish(nu, h, cert, lam_mu):
        mu1, order1 = pick_mu(nu, h, lam_mu, groups=False)
        if order1 > max(tol, 1e-9):
            # mixing may be required; the group LP covers every case in
            # which a saddle point actually exists
            mu2, order2 = pick_mu(nu, h, lam_mu, groups=True)
            if order2 < order1:
                mu1, order1 = mu2, order2
        return LocalSaddle(h + m0, mu1, nu, cert, order_gap=order1)

    # the pure candidate again, with the pair and LP certificate tiers and
    # the group mixtures the batched path leaves out
    nu0 = _unit(mV, int(v_star[0]))
    cert0, h0 = _cert_gap(C, Qs, nu0, cheap_target=tol)
    if cert0 <= tol:
        return finish(nu0, h0, cert0, None)

    # exact planar solve when player 1 has a single action
    if mU == 1:
        _, nu = _sup_over_nu(C, Qs, np.ones(1))
        cert, h = _cert_gap(C, Qs, nu)
        return finish(nu, h, cert, None)

    # full lower solve by the cheapest viable stage, then Newton polishing
    if mV == 1:
        nu = np.ones(1)
    elif mV == 2:
        nu = _maximize_h_1d(C, Qs)
    else:
        nu = _maximize_h_epigraph(C, Qs, np.full(mV, 1.0 / mV))
    nu, lam = _newton_polish(C, Qs, nu)
    cert, h = _cert_gap(C, Qs, nu)
    if not cert <= tol:  # a NaN certificate fails too
        raise NoConvergence(0, cert)
    return finish(nu, h, cert, lam)


def solve_saddle(model, i: int, log_psi, tol: float = DEFAULT_TOL) -> LocalSaddle:
    C, L = local_matrices(model, i, log_psi)
    return solve_saddle_core(C, L, tol=tol)
