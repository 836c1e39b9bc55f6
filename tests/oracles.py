"""Independent reference computations for the test suite.

Everything here is deliberately mechanical (enumeration, section search,
dense linear algebra, power iteration, closed forms) and shares no code
path with the solvers it checks. The helpers at the end are the
exceptions: the readers take one state's transition tensor, costs and
inner sums through the model's own accessors, for tests that compare the
batched code with scalar references, and solve_one_saddle runs the local
solver on one game.
"""

import itertools
import json

import numpy as np

from rsgame._util import NEG_INF, concat_ranges
from rsgame.birth_death import BirthDeathParams
from rsgame.dirichlet import NoConvergence
from rsgame.model import StationaryStrategy
from rsgame.saddle import DEFAULT_TOL, solve_saddles


def simplex_grid(k: int, resolution: int) -> np.ndarray:
    """All weight vectors with denominator `resolution` on the k-simplex."""
    if k == 1:
        return np.ones((1, 1))
    pts = []
    for comp in itertools.combinations(range(resolution + k - 1), k - 1):
        parts = []
        prev = -1
        for c in comp:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + k - 2 - prev)
        pts.append(parts)
    return np.asarray(pts, dtype=float) / float(resolution)


def ternary_max(fn, shape=(), iters=140):
    """Argmaxes over [0, 1] of quasiconcave scalar functions by section
    search, all in lockstep: fn maps an array `shape` + (2,) of the two
    probes of every search to their values, so a step is one call."""
    lo, hi = np.zeros(shape), np.ones(shape)
    for _ in range(iters):
        probes = np.stack([lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0], axis=-1)
        f = fn(probes)
        up = f[..., 0] < f[..., 1]
        lo = np.where(up, probes[..., 0], lo)
        hi = np.where(up, hi, probes[..., 1])
    return 0.5 * (lo + hi)


def lower_values_exact(C, L) -> np.ndarray:
    """lower_value_exact of each game of a stack (B, mU, mV), all of one
    shape, searched in lockstep: each step's probes of every game are one
    numpy call."""
    C = np.asarray(C, dtype=float)
    L = np.asarray(L, dtype=float)
    games, _, mV = C.shape
    finite = np.isfinite(L).any(axis=(1, 2))
    m0 = np.where(finite, np.where(np.isfinite(L), L, -np.inf).max(axis=(1, 2)), 0.0)
    Ct = C.transpose(0, 2, 1)
    Qt = np.exp(L - m0[:, None, None]).transpose(0, 2, 1)

    def h(nu):
        """min over pure u of c_u.nu + log(q_u.nu), for nu of shape (B, ..., mV)."""
        flat = nu.reshape(games, -1, mV)
        with np.errstate(divide="ignore"):
            v = (flat @ Ct + np.log(np.maximum(flat @ Qt, 0.0))).min(axis=2) + m0[:, None]
        return v.reshape(nu.shape[:-1])

    def point(t, s):
        """The weights ((1 - t)(1 - s), (1 - t)s, t): the slice at t of the 3-simplex."""
        return np.stack([(1 - t) * (1 - s), (1 - t) * s, np.broadcast_to(t, s.shape)], axis=-1)

    def slice_max(t):
        s = ternary_max(lambda s: h(point(t[..., None], s)), t.shape)
        return h(point(t, s))

    if mV == 1:
        out = h(np.ones((games, 1)))
    elif mV == 2:
        t = ternary_max(lambda t: h(np.stack([1.0 - t, t], axis=-1)), (games,))
        out = h(np.stack([1.0 - t, t], axis=-1))
    elif mV == 3:
        out = slice_max(ternary_max(slice_max, (games,)))
    else:
        raise ValueError("exact oracle covers |V| <= 3")
    return np.where(finite, out, -np.inf)


def lower_value_exact(C, L):
    """sup over nu of min over pure u of [c_u.nu + log(q_u.nu)], |V| <= 3.

    The inner min is enumerated; the outer max uses nested ternary search,
    exact because affine slices of the simplex keep the function concave.
    """
    return float(lower_values_exact(np.asarray(C)[None], np.asarray(L)[None])[0])


def lower_value_grid(C, L, resolution=300, refine_rounds=40):
    """The literal grid oracle: sup over a nu grid of the exact inner min,
    then pattern refinement around the best point."""
    C = np.asarray(C, dtype=float)
    L = np.asarray(L, dtype=float)
    mU, mV = C.shape
    finite = np.isfinite(L)
    m0 = float(L[finite].max())
    Q = np.exp(L - m0)

    def h_on(NU):
        X = NU @ C.T
        Y = NU @ Q.T
        with np.errstate(divide="ignore"):
            return (X + np.log(np.maximum(Y, 0.0)) + m0).min(axis=1)

    NU = simplex_grid(mV, resolution)
    vals = h_on(NU)
    k = int(np.argmax(vals))
    best_nu, best_val = NU[k], float(vals[k])
    if mV == 1:
        return best_val
    D = simplex_grid(mV, 24)
    radius = 0.2
    for _ in range(refine_rounds):
        cand = (1 - radius) * best_nu[None, :] + radius * D
        vals = h_on(cand)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_nu = float(vals[k]), cand[k]
        else:
            radius *= 0.5
    return best_val


def perron_log_radius(M) -> float:
    """log spectral radius by dense eigenvalues."""
    return float(np.log(np.max(np.abs(np.linalg.eigvals(np.asarray(M, dtype=float))))))


def bilinear_2x2_mixed(A):
    """Optimal mixed strategies of a 2x2 zero-sum matrix game, closed form.

    Returns (p, q, value) with the row player maximizing p' A q. Assumes an
    interior (fully mixed) solution exists.
    """
    A = np.asarray(A, dtype=float)
    (a, b), (c, d) = A
    den = a - b - c + d
    p = (d - c) / den
    q = (d - b) / den
    value = (a * d - b * c) / den
    return np.array([p, 1 - p]), np.array([q, 1 - q]), value


def logsumexp_last_axis(a) -> np.ndarray:
    """log sum exp over the last axis, shifted by each max: -inf where
    every entry is -inf (empty mass)."""
    a = np.asarray(a, dtype=float)
    with np.errstate(all="ignore"):
        amax = a.max(axis=-1, keepdims=True)
        shift = np.where(np.isfinite(amax), amax, 0.0)
        return shift[..., 0] + np.log(np.exp(a - shift).sum(axis=-1))


def model_json_text(doc: dict) -> str:
    """The text write_model_json writes for the model document `doc`
    (model_to_json's dict), built one record at a time: every record is
    json.dumps of its own dict on its own line, every other value
    json.dumps of itself."""
    parts = []
    for key, value in doc.items():
        if key in ("transition", "cost"):
            lines = ",\n    ".join(json.dumps(rec) for rec in value)
            text = f"[\n    {lines}\n  ]" if value else "[]"
        else:
            text = json.dumps(value)
        parts.append(f'  "{key}": {text}')
    return "{\n" + ",\n".join(parts) + "\n}"


def birth_death_params_any_p_hat(p_hat: float, **kwargs) -> BirthDeathParams:
    """BirthDeathParams with the given p_hat, set after a valid construction,
    so a p_hat >= 1/6 (which the constructor refuses: the stability
    condition fails) can reach the checks that must fail on it."""
    params = BirthDeathParams(**kwargs)
    params.p_hat = p_hat
    return params


# ---------------------------------------------------------------------------
# scalar local-game references


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


def best_response_pure_min_core(C: np.ndarray, L: np.ndarray, nu: np.ndarray):
    """Player 1's best pure reply u to nu and its payoff; ties go to the lowest u."""
    finite = np.isfinite(L)
    if not finite.any():
        return 0, NEG_INF
    m0 = float(L[finite].max())
    y = np.exp(L - m0) @ nu
    with np.errstate(divide="ignore"):
        f = C @ nu + np.log(np.maximum(y, 0.0)) + m0
    u = int(np.argmin(f))  # argmin takes the first minimizer: lowest index
    return u, float(f[u])


# ---------------------------------------------------------------------------
# the criterion-2 Perron oracle


class NotUncontrolled(ValueError):
    pass


def uncontrolled_eigen_oracle(model, tol: float = 1e-12, max_iter: int = 200000) -> float:
    """log spectral radius of M(i,j) = e^{c(i)} P(j|i) for singleton actions.

    Dense power iteration with max normalization and a ratio bracket;
    half-step damping guards periodic chains. Independent of the saddle
    machinery on purpose: it exists to cross-check the solver. Raises
    dirichlet.NoConvergence with the last ratio bracket (linear scale)
    when max_iter sweeps do not close it.
    """
    n = model.n_states
    controlled = np.flatnonzero((model.shapes != 1).any(axis=1))
    if controlled.size:
        mu, mv = model.shapes[controlled[0]].tolist()
        raise NotUncontrolled(f"state {controlled[0]} has {mu}x{mv} actions")
    k = model.kernel
    rows = k.entry_rows()  # one row per state
    M = np.zeros((n, n))
    M[rows, k.indices] = np.exp(model.row_cost)[rows] * k.prob
    v = np.ones(n)
    lo, hi = NEG_INF, np.inf
    for sweep in range(1, max_iter + 1):
        w = M @ v
        pos = (v > 0) & (w > 0)
        if not pos.any():
            return NEG_INF
        ratios = w[pos] / v[pos]
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol * max(1.0, hi):
            return float(np.log(0.5 * (lo + hi)))
        scale = w.max()
        if scale <= 0:
            return NEG_INF
        w = w / scale
        if sweep > 200:
            w = 0.5 * (w + v)
            w = w / w.max()
        v = w
    raise NoConvergence((lo, hi), max(max_iter, 0))


# ---------------------------------------------------------------------------
# dense readers of one state of a GameModel, and a strategy


def dense_transition(model, i: int) -> np.ndarray:
    """P(.|i, u, v) as a new dense (mU, mV, n_states) array."""
    k = model.kernel
    rows, _ = model.rows([i])
    lo, hi = k.indptr[rows], k.indptr[rows + 1]
    at, _ = concat_ranges(lo, hi)
    P = np.zeros((len(rows), model.n_states))
    P[np.repeat(np.arange(len(rows)), hi - lo), k.indices[at]] = k.prob[at]
    return P.reshape(*model.shapes[i], model.n_states)


def state_cost(model, i: int) -> np.ndarray:
    """c(i, u, v) of state i as a read-only (mU, mV) view of row_cost."""
    lo, hi = model.kernel.row_start[i:i + 2]
    return model.row_cost[lo:hi].reshape(model.shapes[i])


def local_matrices(model, i: int, log_psi: np.ndarray):
    """(C, L) for state i: C costs, L[u,v] = log sum_j psi(j) P(j|i,u,v)."""
    return state_cost(model, i), model.inner_log_sums([i], log_psi).reshape(model.shapes[i])


def solve_one_saddle(C, L, tol: float = DEFAULT_TOL):
    """saddle.solve_saddles on the one game (C, L)."""
    C = np.asarray(C, dtype=float)
    return solve_saddles(C.ravel(), np.asarray(L, dtype=float).ravel(), [C.shape], tol)[0]


def uniform_strategy(model, player: int):
    """The player's uniform mixed action at every state."""
    return StationaryStrategy([np.full(m, 1.0 / m) for m in model.shapes[:, player - 1].tolist()])
