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

The value solved here is sup_nu min_u L(delta_u, nu) = max_nu h(nu),
h = min_u f_u with f_u(nu) = c_u . nu + log(q_u . nu), the leading form of
the dynamic-programming display: a concave maximization over the simplex.
solve_saddles has two stages:

1. the batched pure path below, one pass per action shape;
2. for each state it leaves, Kelley's cutting planes on h (_lower_solve),
   started at the pure candidate e_v* of stage 1. Each round adds the
   supergradient cut of every f_u at the iterate and solves the master,
   a small matrix game with one row per cut, by a dense simplex whose
   strategies are solved exactly on its final basis (_matrix_game). If
   the certificate still misses the tolerance after _MAX_ROUNDS rounds,
   the solve raises NoConvergence.

Certification. L is concave in BOTH variables, so the two optimization
orders need not coincide: instances exist (see tests) where
inf_mu sup_nu exceeds sup_nu inf_mu by 0.1 in log scale. The reported
`gap` therefore certifies the computed lower value itself. Every cut
bounds its f_u from above, so for the master's dual weights lam over the
cuts (any lam >= 0 summing to one would do) the best mixed cut,
max_v (lam' M)_v, bounds max_nu h from above; `gap` is that bound minus
h at the returned nu, computed in floats from lam, so its validity never
rests on the accuracy of the master. The returned mu is lam summed per
action: the minimizer's weights that certify the value. How far that mu
is from a saddle point is reported separately as `order_gap`, the exact
planar sup_nu L(mu, nu) minus the lower value; it vanishes whenever a
genuine saddle point exists (pure saddles, constant psi, singleton
actions) and is diagnostic otherwise.

Batched pure path. An operator sweep solves one local game per state.
solve_saddles gathers the states of each action shape from the sweep's
flat C and L (GameModel's row layout) into (k, mU, mV) stacks with one
index each and runs the pure fast path as array operations over the
batch (_pure_saddles): the row shift and the empty-support and dead row
tests, the pure candidate v* = argmax_v min_u (C + log Q)[u, v], the
single-action supergradient certificate at e_v*, and the best pure
minimizer by the exact planar sup with its order gap. Its per-state float
operations do not depend on the batch, so a state it settles gets the
same LocalSaddle bit for bit whether it is solved alone or in a sweep;
every other state (a certificate that needs several actions, an order
gap above max(tol, 1e-9), a mixed saddle) goes to the cutting planes with
the pass's row shift, shifted masses and candidate. solve_saddles is the
one entry: a single game is solved as a batch of one.

All tie-breaks pick the lowest action index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import NEG_INF, unit

DEFAULT_TOL = 1e-8
_ACTIVE_TOL = 1e-9
_Y_FLOOR = 1e-300
_MAX_ROUNDS = 60  # cut rounds of the lower solve


class NoConvergence(RuntimeError):
    def __init__(self, gap: float):
        super().__init__(f"duality gap {gap:.3e} above tolerance")
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


def _pure_values(C: np.ndarray, Qs: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """f_u(nu) = c_u . nu + log(q_u . nu) for every pure u (shifted Q)."""
    y = Qs @ nu
    with np.errstate(divide="ignore"):
        return C @ nu + np.log(np.maximum(y, 0.0))


# ---------------------------------------------------------------------------
# exact inner maximization over nu for a fixed mu


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
    # the column pairs p < q in the order (0, 1), (0, 2), ..., (1, 2), ...
    p, q = np.triu_indices(k, 1)
    with np.errstate(all="ignore"):
        vertex_vals = x + np.log(np.maximum(y, 0.0))
        best_v = vertex_vals.argmax(axis=1)
        best_val = vertex_vals[np.arange(r), best_v]
        best_w = (np.arange(k) == best_v[:, None]).astype(float)
        dead = (y <= 0.0).all(axis=1)
        if dead.any():
            best_val[dead] = NEG_INF
            best_w[dead] = unit(k, 0)
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


# ---------------------------------------------------------------------------
# lower problem: maximize h(nu) = min_u f_u(nu) over the nu-simplex


def _cuts(C, Qs, points, h_floor):
    """Cut rows of every pure f_u at every point: f_u(nu) <= M[k] . nu on the simplex.

    The cut of f_u at a point p is the tangent of log at
    y = max(q_u . p, eps_u), which bounds log from above for every
    eps_u > 0. With eps_u = exp(h_floor - max_v c_u,v), a point where f_u
    falls below h_floor (q_u . p = 0 included) is cut below h_floor, and no
    cut is steeper than q_u / eps_u. Row k is the cut of f_(k % mU) at
    point k // mU.
    """
    t = np.maximum(points @ Qs.T, np.exp(h_floor - C.max(axis=1)))
    M = C + Qs / t[:, :, None] + (np.log(t) - 1.0)[:, :, None]
    return M.reshape(-1, C.shape[1])


def _matrix_game(M: np.ndarray):
    """Optimal strategies (nu, lam) of the matrix game max_nu min_lam lam' M nu.

    A dense primal simplex with Bland's rule finds the optimal basis of
    lam's program max 1'w s.t. (M + s)' w <= 1, w >= 0, where the shift
    s = 1 - max_v min_k M[k, v] makes the game's value at least 1; each
    column w_k is scaled so that its largest coefficient is 1, so a steep
    cut does not swamp the others. The basis names the rows R of M with
    basic w and the columns S whose slack is not basic, |R| = |S|. Both
    strategies are then solved from M itself on that kernel, equalizing
    M[R, S] (Shapley and Snow, 1950), so they are exact on it up to one
    dense solve's rounding, whatever the pivots accumulated, and zero off
    it. Returns both clipped to >= 0, summing to one.
    """
    K, V = M.shape
    A = (M + (1.0 - M.min(axis=0).max())).T
    scale = 1.0 / A.max(axis=0)  # positive: max_v min_k M <= max_v M[k, v] for every k
    T = np.zeros((V + 1, K + V + 1))
    T[:V, :K] = A * scale
    T[:V, K:-1] = np.eye(V)
    T[:V, -1] = 1.0
    T[V, :K] = -scale
    basis = np.arange(K, K + V)
    cost_scale = np.concatenate([scale, np.ones(V)])  # reduced costs compare unscaled
    for _ in range(10 * (K + V)):
        enter = np.flatnonzero(T[V, :-1] < -1e-14 * cost_scale)
        if not len(enter):
            break
        j = enter[0]
        rows = np.flatnonzero(T[:V, j] > 1e-12)
        if not len(rows):
            break
        ratios = T[rows, -1] / T[rows, j]
        tied = rows[ratios == ratios.min()]
        r = tied[np.argmin(basis[tied])]
        pivot = T[r] / T[r, j]
        T -= np.outer(T[:, j], pivot)
        T[r] = pivot
        basis[r] = j
    R = np.sort(basis[basis < K])
    slack_free = np.ones(V, dtype=bool)
    slack_free[basis[basis >= K] - K] = False
    S = np.flatnonzero(slack_free)
    # B nu_S = t 1 and lam_R' B = t 1', each summing to one
    B, border = M[np.ix_(R, S)], np.ones((len(S), 1))
    rhs = np.append(np.zeros(len(S)), 1.0)
    nu, lam = np.zeros(V), np.zeros(K)
    try:
        nu[S] = np.linalg.solve(np.block([[B, -border], [border.T, 0.0]]), rhs)[:-1]
        lam[R] = np.linalg.solve(np.block([[B.T, -border], [border.T, 0.0]]), rhs)[:-1]
    except np.linalg.LinAlgError:
        pass
    nu, lam = np.maximum(nu, 0.0), np.maximum(lam, 0.0)
    if not (nu.sum() > 0.0 and lam.sum() > 0.0):  # a kernel singular in floats: the tableau's values
        nu, lam, in_rows = np.maximum(T[V, K:-1], 0.0), np.zeros(K), basis < K
        lam[basis[in_rows]] = T[:V, -1][in_rows] * scale[basis[in_rows]]
    return nu / nu.sum(), lam / lam.sum()


def _lower_solve(C, Qs, nu, tol):
    """Kelley's cutting planes on h from nu (h(nu) finite), certified by the master's duals.

    Each round adds the cut of every f_u at the iterate (_cuts, floored at
    the best value so far) and solves the master max_nu min_k (M nu)_k, a
    matrix game with one row per cut. Every cut bounds its f_u from above,
    so for any weights lam >= 0 summing to one over the cuts,
    max h <= max_v (lam' M)_v: the master's optimal lam bounds the gap of
    the best iterate whatever the accuracy of the master, and lam summed
    per action is the minimizer mu. When mu is pure, the next iterate is
    the exact planar maximizer of that f_u (once per action); otherwise it
    is the master's nu. The loop stops once the gap is within tol and no
    longer shrinks; after _MAX_ROUNDS rounds above tol it raises
    NoConvergence.

    Returns (nu, h(nu), gap, mu) for the best iterate nu.
    """
    mU = C.shape[0]
    best_nu, best_h = nu, NEG_INF
    points = np.empty((0, C.shape[1]))
    upper, mu, gap, planar_done = np.inf, np.ones(mU), np.inf, set()
    for _ in range(_MAX_ROUNDS):
        h = float(_pure_values(C, Qs, nu).min())
        if h > best_h:
            best_nu, best_h = nu, h
        points = np.concatenate([points, nu[None]])
        rows = _cuts(C, Qs, points, best_h)
        nu, lam = _matrix_game(rows)
        bound = float((lam @ rows).max())
        if bound < upper:
            upper, mu = bound, np.bincount(np.arange(len(lam)) % mU, lam, minlength=mU)
        last, gap = gap, upper - best_h
        if gap <= 0.0 or (gap <= tol and gap >= last):
            break
        (live,) = np.nonzero(mu)
        if len(live) == 1 and live[0] not in planar_done:
            planar_done.add(live[0])
            _, nu = _max_x_plus_log_y(C[live[0]], Qs[live[0]])
    if not gap <= tol:  # a NaN gap fails too
        raise NoConvergence(gap)
    return best_nu, best_h, max(gap, 0.0), mu / mu.sum()


def _pure_saddles(C: np.ndarray, L: np.ndarray, tol: float):
    """Batched prologue and pure fast path of solve_saddles.

    C and L have shape (k, mU, mV): k states with the same action shape.
    Per state it applies the empty-support test, the dead player-1 row
    test, and the pure candidate
    v* = argmax_v min_u pure[u, v] with pure = C + log Qs, which it accepts
    when the best single-action supergradient bound at e_v* is within tol
    and the lowest-index best pure minimizer, measured by the exact planar
    sup over nu, has order gap within max(tol, 1e-9). Every step is an
    array operation over the batch whose per-state float operations do
    not depend on the batch.

    Returns (saddles, m0, Qs, v_star): saddles[j] is None for a state left
    to the cutting planes, which continue from its row shift m0, shifted
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
        saddles[j] = LocalSaddle(NEG_INF, unit(mU, u), unit(mV, 0), 0.0, empty_support=True)
    settled = empty | collapsed

    # non-finite costs or masses go to the cutting planes, whose
    # matrix-vector products (not the gathers below) define the result for them
    ks = np.nonzero(~settled & np.isfinite(C).all(axis=(1, 2)) & (L < np.inf).all(axis=(1, 2)))[0]
    vs = v_star[ks]
    with np.errstate(all="ignore"):
        # f_u(e_v*) and the single-action supergradient bounds at the
        # vertex e_v*; a product with a unit vector is exactly a column gather
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

    # over the active pure actions, the lowest index with the smallest
    # exact planar sup over nu
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
            continue  # mixing may be required: the cutting planes decide
        saddles[j] = LocalSaddle(h_r + float(m0[j]), unit(mU, int(u_best[r])),
                                 unit(mV, int(vs[r])), float(cert[r]), order_gap=order1)
    return saddles, m0, Qs, v_star


def solve_saddles(C, L, shapes, tol: float = DEFAULT_TOL) -> list:
    """Local saddles of many states at once, in input order.

    C and L are flat in row order (GameModel's row layout): state k's
    (mU, mV) = shapes[k] games lie one after another, u-major. The states
    of each action shape are gathered into (k, mU, mV) stacks with one
    index and settled by one batched pure pass (_pure_saddles); each state
    it leaves goes to the cutting planes (_lower_solve) from that pass's
    row shift, shifted masses and pure candidate e_v*.
    """
    shapes = np.asarray(shapes, dtype=np.int64).reshape(-1, 2)
    size = shapes.prod(axis=1)
    start = np.cumsum(size) - size
    out = [None] * len(shapes)
    for mU, mV in np.unique(shapes, axis=0).tolist():
        js = np.flatnonzero((shapes == (mU, mV)).all(axis=1))
        at = start[js, None] + np.arange(mU * mV)
        Cs = C[at].reshape(-1, mU, mV)
        saddles, m0, Qs, v_star = _pure_saddles(Cs, L[at].reshape(-1, mU, mV), tol)
        for r, (j, s) in enumerate(zip(js.tolist(), saddles)):
            out[j] = s if s is not None else _mixed_saddle(Cs[r], Qs[r], float(m0[r]),
                                                           int(v_star[r]), tol)
    return out


def _mixed_saddle(C, Qs, m0, v, tol):
    """The cutting planes from e_v (the uniform nu when some q_u . e_v = 0),
    with the order gap of the returned mu by the exact planar sup over nu."""
    nu0 = unit(C.shape[1], v)
    if not (Qs @ nu0 > 0.0).all():
        nu0 = np.full(C.shape[1], 1.0 / C.shape[1])
    nu, h, gap, mu = _lower_solve(C, Qs, nu0, tol)
    phi, _ = _max_x_plus_log_y(C.T @ mu, Qs.T @ mu)
    return LocalSaddle(h + m0, mu, nu, gap, order_gap=max(phi - h, 0.0))
