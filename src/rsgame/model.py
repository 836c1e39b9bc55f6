"""Game model containers, ingestion, validation, and stability checkers.

A model is a finite truncation window over a countable state space: states
0..N-1, per-state finite action sets for both players, a (sub)stochastic
transition kernel and a cost tensor. The kernel is stored only as CSR rows
of its nonzero entries (KernelCSR), so building, ingesting, emitting,
checking and solving a model take memory and time in O(nnz), not in
O(rows x window). Probability mass leaving the window is tracked as exit
mass; Dirichlet solvers treat it as absorption at zero.

The risk parameter theta is folded into the cost tensor at construction
(c <- theta * c), so all downstream code works with theta = 1.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from ._util import concat_ranges, segment_logsumexp

ROW_SUM_TOL = 1e-12
CLOSED_TOL = 1e-12
STRATEGY_TOL = 1e-12
# Drift inequality must hold strictly; slack at or below this fails the check.
LYAPUNOV_SLACK_PASS = 1e-14


class ModelError(ValueError):
    pass


class MissingLyapunovData(ModelError):
    pass


class SchemaError(ModelError):
    pass


@dataclass
class LyapunovData:
    """Weight function and drift data for the blanket stability condition.

    The weight is stored in log domain: window cases of interest have
    W(i) = exp(i^2/6 + 1), which overflows float64 long before useful
    window sizes. Exactly one of `gamma` (bounded-cost drift rate) or
    `ell` (per-state rate, unbounded costs) is present.
    """

    log_W: np.ndarray
    C: float
    K: np.ndarray  # sorted state indices of the finite exception set
    gamma: float | None = None
    ell: np.ndarray | None = None

    def __post_init__(self):
        self.log_W = np.asarray(self.log_W, dtype=float)
        self.K = np.asarray(sorted(set(int(k) for k in np.atleast_1d(self.K))), dtype=int)
        if self.ell is not None:
            self.ell = np.asarray(self.ell, dtype=float)
        if (self.gamma is None) == (self.ell is None):
            raise ModelError("exactly one of gamma or ell must be given")

    @property
    def case(self) -> str:
        return "bounded" if self.gamma is not None else "unbounded"


def _concat(parts: list, dtype=float) -> np.ndarray:
    """np.concatenate that also takes no parts."""
    return np.concatenate(parts + [np.zeros(0, dtype)])


@dataclass
class KernelCSR:
    """The model's transition kernel: the nonzero entries of every (i, u, v)
    row, in CSR form. It is the only kernel storage, so memory and every
    kernel reader grow with nnz, not with rows x window.

    Rows are numbered state by state and u-major inside a state: row
    row_start[i] + u * mV_i + v holds P(.|i, u, v), and its entries lie at
    indptr[row]:indptr[row + 1] of `indices` (next state j, ascending),
    `prob` and `log_prob`. Exact zeros are not stored, so a row without
    mass (exit everywhere) is empty. Negative and non-finite entries are
    stored as given, for validate_model to report; their log is NaN, and
    GameModel.csr refuses such a kernel before any log is read.
    """

    row_start: np.ndarray  # (n_states + 1,)
    indptr: np.ndarray     # (rows + 1,)
    indices: np.ndarray    # (nnz,)
    prob: np.ndarray       # (nnz,)
    log_prob: np.ndarray   # (nnz,)

    @staticmethod
    def from_entries(row_start, rows, cols, prob) -> "KernelCSR":
        """The kernel of entries given in (row, col) order without zeros."""
        row_start = np.asarray(row_start, dtype=np.int64)
        indptr = np.zeros(int(row_start[-1]) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(indptr) - 1), out=indptr[1:])
        prob = np.asarray(prob, dtype=float)
        with np.errstate(all="ignore"):
            log_prob = np.log(prob)
        return KernelCSR(row_start=row_start, indptr=indptr,
                         indices=np.asarray(cols, dtype=np.int64), prob=prob,
                         log_prob=log_prob)

    @staticmethod
    def from_dense(transition) -> "KernelCSR":
        """Converted state by state from (mU_i, mV_i, n) arrays, so no
        temporary outgrows one state's tensor."""
        row_start, rows, cols, prob = [0], [], [], []
        for P in transition:
            flat = P.reshape(-1, P.shape[-1])
            r, j = np.nonzero(flat)
            rows.append(r + row_start[-1])
            cols.append(j)
            prob.append(flat[r, j])
            row_start.append(row_start[-1] + len(flat))
        return KernelCSR.from_entries(row_start, _concat(rows, np.int64),
                                      _concat(cols, np.int64), _concat(prob))

    def entry_rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    @functools.cached_property
    def row_sums(self) -> np.ndarray:
        """sum_j P(j|i,u,v) of every row, in row order."""
        return np.bincount(self.entry_rows(), weights=self.prob,
                           minlength=len(self.indptr) - 1)


@dataclass
class GameModel:
    """Truncation-window game: states, per-state actions, kernel, costs.

    `kernel` is a KernelCSR of the nonzero transition entries, the only
    kernel storage; `dense_transition(i)` rebuilds one state's
    (mU_i, mV_i, n_states) tensor on demand, as a dense reference for
    tests; no solve or simulation reads it. cost[i] has shape (mU_i, mV_i)
    and is already scaled by theta. Arrays are frozen after construction;
    checkers are read-only.

    Dynamic programming reads the log kernel through `csr`, which on first
    use refuses a kernel with a negative or non-finite entry or a row sum
    above 1 + ROW_SUM_TOL (validate_model's thresholds, under which the log
    kernel is defined) and then returns `kernel`; construction and
    ingestion never pay for the check. `inner_log_sums(states, log_psi)`
    returns the matrices L[u, v] = log sum_j psi(j) P(j|i,u,v) of the
    requested states from one segment log-sum-exp over those rows, with
    -inf for empty mass; every operator sweep, drift check and local
    saddle reads L through it.
    """

    n_states: int
    actions_p1: list
    actions_p2: list
    kernel: KernelCSR
    cost: list
    theta: float
    i0: int
    lyapunov: LyapunovData | None = None
    _sound: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        for i in range(self.n_states):
            self.cost[i] = np.ascontiguousarray(self.cost[i], dtype=float)
            self.cost[i].flags.writeable = False
        for name in ("row_start", "indptr", "indices", "prob", "log_prob"):
            getattr(self.kernel, name).flags.writeable = False

    def n_actions(self, i: int) -> tuple[int, int]:
        return len(self.actions_p1[i]), len(self.actions_p2[i])

    def _rows_of(self, i: int) -> slice:
        return slice(int(self.kernel.row_start[i]), int(self.kernel.row_start[i + 1]))

    def row_sums(self, i: int) -> np.ndarray:
        return self.kernel.row_sums[self._rows_of(i)].reshape(self.n_actions(i))

    def max_exit_mass(self) -> float:
        return float((1.0 - self.kernel.row_sums).max())

    def is_closed(self, tol: float = CLOSED_TOL) -> bool:
        exit_mass = 1.0 - self.kernel.row_sums
        return bool(exit_mass.max() <= tol and exit_mass.min() >= -tol)

    def dense_transition(self, i: int) -> np.ndarray:
        """P(.|i, u, v) as a new dense (mU, mV, n_states) array."""
        k = self.kernel
        rows = self._rows_of(i)
        lo, hi = k.indptr[rows.start], k.indptr[rows.stop]
        P = np.zeros((rows.stop - rows.start, self.n_states))
        P[np.repeat(np.arange(len(P)), np.diff(k.indptr[rows.start:rows.stop + 1])),
          k.indices[lo:hi]] = k.prob[lo:hi]
        return P.reshape(*self.n_actions(i), self.n_states)

    def flat_cost(self) -> np.ndarray:
        """c(i, u, v) of every (i, u, v), in kernel row order."""
        return _concat([C.ravel() for C in self.cost])

    def row_actions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, u, v) of every kernel row, in row order: the (i, u, v) of
        the k-th (u, v) slot of the model, state by state."""
        mv = np.array([len(a) for a in self.actions_p2], dtype=np.int64)
        state = np.repeat(np.arange(self.n_states), np.diff(self.kernel.row_start))
        u, v = np.divmod(np.arange(len(state)) - self.kernel.row_start[state], mv[state])
        return state, u, v

    @property
    def csr(self) -> KernelCSR:
        if not self._sound:
            k = self.kernel
            ok = np.isfinite(k.prob) & (k.prob >= 0.0)
            with np.errstate(invalid="ignore"):
                bad_rows = ~(k.row_sums <= 1.0 + ROW_SUM_TOL)
            bad_rows[k.entry_rows()[~ok]] = True
            if bad_rows.any():
                raise self._unsound(int(bad_rows.argmax()), ok)
            self._sound = True
        return self.kernel

    def _unsound(self, r: int, ok: np.ndarray) -> ModelError:
        """The error for kernel row r, the first that csr refuses."""
        k = self.kernel
        state, u, v = (int(a[r]) for a in self.row_actions())
        lo, hi = k.indptr[r], k.indptr[r + 1]
        if ok[lo:hi].all():
            return ModelError(f"unsound kernel: sum_j P(j|{state},{u},{v}) = "
                              f"{float(k.row_sums[r])!r} > 1")
        at = lo + int((~ok[lo:hi]).argmax())
        return ModelError(f"unsound kernel: P({int(k.indices[at])}|{state},{u},{v}) = "
                          f"{float(k.prob[at])!r} is negative or not finite")

    def inner_log_sums(self, states, log_psi) -> list:
        """Per state of `states`, the (mU, mV) matrix log sum_j psi(j) P(j|i,u,v).

        One _util.segment_logsumexp over the CSR entries of all the states'
        rows, shifted by each row's max as _util.logsumexp does. A row with
        no entries, or whose entries all meet log psi = -inf, gives -inf:
        empty mass.
        """
        csr = self.csr
        states = np.asarray(states, dtype=np.int64)
        rows, _ = concat_ranges(csr.row_start[states], csr.row_start[states + 1])
        lo, hi = csr.indptr[rows], csr.indptr[rows + 1]
        at, _ = concat_ranges(lo, hi)
        flat = segment_logsumexp(
            csr.log_prob[at] + np.asarray(log_psi, dtype=float)[csr.indices[at]], hi - lo)
        shapes = [self.n_actions(int(i)) for i in states]
        cuts = np.cumsum([mu * mv for mu, mv in shapes])[:-1]
        return [L.reshape(shape) for L, shape in zip(np.split(flat, cuts), shapes)]


def make_model(
    n_states,
    actions_p1,
    actions_p2,
    transition,
    cost,
    theta=1.0,
    i0=0,
    lyapunov=None,
) -> GameModel:
    """Normalize raw inputs into a GameModel, applying the theta scaling.

    `transition` is a KernelCSR whose rows follow the action sets, or one
    dense (mU_i, mV_i, n) array per state, converted state by state.
    """
    if theta <= 0:
        raise ModelError(f"theta must be strictly positive, got {theta}")
    n = int(n_states)
    a1 = [list(a) for a in actions_p1]
    a2 = [list(a) for a in actions_p2]
    if len(a1) != n or len(a2) != n:
        raise ModelError("actions_p1/actions_p2 must have one entry per state")
    kernel = transition if isinstance(transition, KernelCSR) else None
    dense, co = [], []
    for i in range(n):
        mu, mv = len(a1[i]), len(a2[i])
        if kernel is None:
            P = np.asarray(transition[i], dtype=float)
            if P.shape != (mu, mv, n):
                raise ModelError(f"transition[{i}] must have shape {(mu, mv, n)}, got {P.shape}")
            dense.append(P)
        C = np.asarray(cost[i], dtype=float)
        if C.shape != (mu, mv):
            raise ModelError(f"cost[{i}] must have shape {(mu, mv)}, got {C.shape}")
        co.append(theta * C)
    if kernel is None:
        kernel = KernelCSR.from_dense(dense)
    elif not np.array_equal(kernel.row_start,
                            np.cumsum([0] + [len(a) * len(b) for a, b in zip(a1, a2)])):
        raise ModelError("kernel rows must follow the action sets")
    return GameModel(
        n_states=n,
        actions_p1=a1,
        actions_p2=a2,
        kernel=kernel,
        cost=co,
        theta=float(theta),
        i0=int(i0),
        lyapunov=lyapunov,
    )


@dataclass
class StationaryStrategy:
    """Per-state mixed action weights for one player."""

    weights: list

    def __post_init__(self):
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]

    @staticmethod
    def pure(model: GameModel, player: int, idx) -> "StationaryStrategy":
        counts = [model.n_actions(i)[player - 1] for i in range(model.n_states)]
        if np.isscalar(idx):
            idx = [idx] * model.n_states
        ws = []
        for i, m in enumerate(counts):
            w = np.zeros(m)
            w[int(idx[i])] = 1.0
            ws.append(w)
        return StationaryStrategy(ws)

    @staticmethod
    def uniform(model: GameModel, player: int) -> "StationaryStrategy":
        return StationaryStrategy(
            [np.full(model.n_actions(i)[player - 1], 1.0 / model.n_actions(i)[player - 1])
             for i in range(model.n_states)]
        )

    def validate_for(self, model: GameModel, player: int) -> list[str]:
        problems = []
        if len(self.weights) != model.n_states:
            return [f"strategy has {len(self.weights)} states, model has {model.n_states}"]
        for i, w in enumerate(self.weights):
            m = model.n_actions(i)[player - 1]
            if w.shape != (m,):
                problems.append(f"state {i}: {w.shape[0]} weights for {m} actions")
                continue
            if w.min() < 0:
                problems.append(f"state {i}: negative weight {w.min()}")
            if abs(w.sum() - 1.0) > STRATEGY_TOL:
                problems.append(f"state {i}: weights sum to {w.sum()!r}")
        return problems


# ---------------------------------------------------------------------------
# validation


@dataclass
class Violation:
    kind: str
    coords: tuple
    value: float
    message: str
    severity: str = "error"


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        """Empty report: every invariant holds."""
        return not self.violations

    @property
    def structurally_sound(self) -> bool:
        """No error-severity findings; warning-severity ones may remain.

        Cost-sign findings are warnings: kernels stay well defined under
        negative costs, the sign matters to the stability theory, and
        standard parameterizations violate it near the origin on purpose.
        """
        return all(v.severity != "error" for v in self.violations)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "structurally_sound": self.structurally_sound,
            "violations": [
                {"kind": v.kind, "coords": list(v.coords), "value": v.value,
                 "message": v.message, "severity": v.severity}
                for v in self.violations
            ],
        }


def validate_model(model: GameModel) -> ValidationReport:
    """Diagnostic sweep over every invariant; never raises.

    The report names every offending (i, u, v) coordinate so a bad row can
    be located in the source document directly. The per-entry and per-row
    tests run as array operations over the kernel; only flagged rows are
    visited one by one, state by state and u-major, as they are reported.
    """
    out = []
    if not (0 <= model.i0 < model.n_states):
        out.append(Violation("bad_reference_state", (model.i0,), float(model.i0),
                             f"i0={model.i0} outside 0..{model.n_states - 1}"))
    k = model.kernel
    negative = k.prob < 0
    nonfinite = ~np.isfinite(k.prob)
    with np.errstate(invalid="ignore"):
        over = k.row_sums > 1.0 + ROW_SUM_TOL
    cost = model.flat_cost()
    flagged = over | (cost < 0)
    flagged[k.entry_rows()[negative | nonfinite]] = True
    state, us, vs = model.row_actions()
    empty = [i for i in range(model.n_states) if 0 in model.n_actions(i)]
    for i, r in sorted([(i, -1) for i in empty]
                       + [(int(state[r]), int(r)) for r in np.flatnonzero(flagged)]):
        if r < 0:
            mu, mv = model.n_actions(i)
            if mu == 0:
                out.append(Violation("empty_actions_p1", (i,), 0.0,
                                     f"state {i} has no player-1 actions"))
            if mv == 0:
                out.append(Violation("empty_actions_p2", (i,), 0.0,
                                     f"state {i} has no player-2 actions"))
            continue
        u, v = int(us[r]), int(vs[r])
        seg = slice(int(k.indptr[r]), int(k.indptr[r + 1]))
        p, cols = k.prob[seg], k.indices[seg]
        if negative[seg].any():
            at = int(np.where(negative[seg], p, 0.0).argmin())
            j, val = int(cols[at]), float(p[at])
            out.append(Violation("negative_probability", (i, u, v, j), val,
                                 f"P({j}|{i},{u},{v}) = {val}"))
        if nonfinite[seg].any():
            at = int(nonfinite[seg].argmax())
            j, val = int(cols[at]), float(p[at])
            out.append(Violation("nonfinite_probability", (i, u, v, j), val,
                                 f"P({j}|{i},{u},{v}) = {val} is not finite"))
        if over[r]:
            s = float(k.row_sums[r])
            out.append(Violation("row_sum_exceeds_one", (i, u, v), s,
                                 f"sum_j P(j|{i},{u},{v}) = {s!r} > 1"))
        if cost[r] < 0:
            out.append(Violation("negative_cost", (i, u, v), float(cost[r]),
                                 f"c({i},{u},{v}) = {float(cost[r])} < 0",
                                 severity="warning"))
    if model.lyapunov is not None:
        ly = model.lyapunov
        if ly.log_W.shape != (model.n_states,):
            out.append(Violation("lyapunov_shape", (), 0.0, "W must have one entry per state"))
        else:
            for i in range(model.n_states):
                if ly.log_W[i] < -1e-15:  # W >= 1  <=>  log W >= 0
                    out.append(Violation("lyapunov_W_below_one", (i,), float(np.exp(ly.log_W[i])),
                                         f"W({i}) = {np.exp(ly.log_W[i])} < 1"))
        if ly.ell is not None and ly.ell.shape != (model.n_states,):
            out.append(Violation("lyapunov_shape", (), 0.0, "ell must have one entry per state"))
        if ly.C <= 0:
            out.append(Violation("lyapunov_C_nonpositive", (), float(ly.C), "C must be > 0"))
        for k in ly.K:
            if not (0 <= k < model.n_states):
                out.append(Violation("lyapunov_K_out_of_window", (int(k),), float(k),
                                     f"K contains state {k} outside the window"))
    return ValidationReport(out)


# ---------------------------------------------------------------------------
# Lyapunov drift checker


@dataclass
class LyapunovReport:
    case: str
    passed: bool
    slack: np.ndarray  # per state, log-domain: log RHS - max_{u,v} log LHS
    worst_state: int
    norm_like: dict | None
    gamma_check: dict | None

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "passed": self.passed,
            "slack": [float(s) for s in self.slack],
            "worst_state": self.worst_state,
            "norm_like": self.norm_like,
            "gamma_check": self.gamma_check,
        }


def _drift_slack(model: GameModel, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-domain drift slack and left-hand side on the index array `states`.

    lhs(i) = max over (u,v) of log sum_j W(j) P(j|i,u,v); the right-hand
    side is log(C 1_K(i) + e^{-rate} W(i)) with rate gamma or ell(i).
    Returns (rhs - lhs, lhs).
    """
    ly = model.lyapunov
    lhs = np.array([float(L.max()) for L in model.inner_log_sums(states, ly.log_W)])
    rate = ly.gamma if ly.gamma is not None else ly.ell[states]
    decay = -rate + ly.log_W[states]
    rhs = np.where(np.isin(states, ly.K), np.logaddexp(float(np.log(ly.C)), decay), decay)
    return rhs - lhs, lhs


def _norm_like_tail(d) -> dict:
    """Finite-window surrogate of a norm-like sequence d: the start of its
    nondecreasing tail and the net growth along it. `passed` asks for a
    tail of length >= 2; a constant tail is indistinguishable from slow
    growth on a finite window, so only a decreasing tail fails."""
    last = len(d) - 1
    tail_start = last
    for m in range(last - 1, -1, -1):
        if d[m + 1] >= d[m] - 1e-12:
            tail_start = m
        else:
            break
    return {
        "surrogate": "nondecreasing tail (finite window)",
        "tail_start": int(tail_start),
        "net_growth": float(d[last] - d[tail_start]),
        "passed": bool(tail_start <= last - 1),
    }


def check_lyapunov(model: GameModel) -> LyapunovReport:
    """Check the drift inequality sum_j W(j)P(j|i,u,v) <= C 1_K(i) + e^{-rate} W(i).

    All arithmetic in log domain: the weight function typically grows like
    exp(i^2/6) and is not representable linearly on useful windows. Slack is
    log RHS - log LHS per state (worst action pair); a state passes when its
    slack exceeds LYAPUNOV_SLACK_PASS.

    For the unbounded case the report also carries a finite-window surrogate
    of the norm-like requirement on ell(i) - max_{u,v} c(i,u,v): the sequence
    must have a nondecreasing tail of length >= 2 with strictly positive net
    growth. A tail property can only be sampled on a window; the surrogate is
    flagged as such.
    """
    ly = model.lyapunov
    if ly is None:
        raise MissingLyapunovData("model has no Lyapunov data")
    n = model.n_states
    slack, _ = _drift_slack(model, np.arange(n))
    worst = int(slack.argmin())
    passed = bool(slack[worst] > LYAPUNOV_SLACK_PASS)

    norm_like = None
    gamma_check = None
    if ly.case == "unbounded":
        d = np.array([float(ly.ell[i] - model.cost[i].max()) for i in range(n)])
        norm_like = _norm_like_tail(d)
        norm_like["passed"] = norm_like["passed"] or n == 1
        passed = passed and norm_like["passed"]
    else:
        cmax = max(float(model.cost[i].max()) for i in range(n))
        ok = ly.gamma > cmax
        gamma_check = {"gamma": float(ly.gamma), "max_cost": cmax, "passed": bool(ok)}
        passed = passed and ok

    return LyapunovReport(
        case=ly.case,
        passed=passed,
        slack=slack,
        worst_state=worst,
        norm_like=norm_like,
        gamma_check=gamma_check,
    )


# ---------------------------------------------------------------------------
# irreducibility and reference state


@dataclass
class IrreducibilityReport:
    mode: str
    passed: bool
    guarantee: str
    failing_pair: dict | None = None
    samples: int = 0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "passed": self.passed,
            "guarantee": self.guarantee,
            "failing_pair": self.failing_pair,
            "samples": self.samples,
        }


def _strongly_connected(edges: np.ndarray, n: int) -> bool:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    g = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    ncomp, _ = connected_components(g, directed=True, connection="strong")
    return ncomp == 1


def check_irreducibility(model: GameModel, mode: str = "sufficient",
                         samples: int = 50, seed: int = 0) -> IrreducibilityReport:
    """Graph conditions for irreducibility under every stationary pair.

    sufficient: keep edge i->j only when P(j|i,u,v) > 0 for every pure
    (u,v); strong connectivity of that graph implies irreducibility under
    every strategy pair. sampled: falsifier only, checks strong connectivity
    of the support graph under `samples` random pure stationary pairs.
    Both read the support from the kernel's positive entries.
    """
    n = model.n_states
    k = model.kernel
    row_state = np.repeat(np.arange(n), np.diff(k.row_start))
    if mode == "sufficient":
        # edge i->j when every row of state i has a positive entry at j
        pos = k.prob > 0
        keys, rows = np.unique(row_state[k.entry_rows()[pos]] * n + k.indices[pos],
                               return_counts=True)
        keys = keys[rows == np.diff(k.row_start)[keys // n]]
        edges = np.stack([keys // n, keys % n], axis=1)
        ok = bool(len(edges)) and _strongly_connected(edges, n)
        return IrreducibilityReport(
            mode=mode,
            passed=ok,
            guarantee=("irreducible under every stationary strategy pair"
                       if ok else "sufficient condition failed; no conclusion"),
        )
    if mode == "sampled":
        rng = np.random.default_rng(seed)
        mv = np.array([len(a) for a in model.actions_p2], dtype=np.int64)
        row_len = np.diff(k.indptr)
        for s in range(samples):
            pick1 = [int(rng.integers(model.n_actions(i)[0])) for i in range(n)]
            pick2 = [int(rng.integers(model.n_actions(i)[1])) for i in range(n)]
            rows = k.row_start[:-1] + np.asarray(pick1, dtype=np.int64) * mv + pick2
            at, _ = concat_ranges(k.indptr[rows], k.indptr[rows + 1])
            pos = k.prob[at] > 0
            edges = np.stack([np.repeat(np.arange(n), row_len[rows])[pos],
                              k.indices[at][pos]], axis=1)
            if not len(edges) or not _strongly_connected(edges, n):
                return IrreducibilityReport(
                    mode=mode,
                    passed=False,
                    guarantee="reducible under a sampled pure pair",
                    failing_pair={"p1": pick1, "p2": pick2},
                    samples=s + 1,
                )
        return IrreducibilityReport(
            mode=mode,
            passed=True,
            guarantee=f"no failure among {samples} sampled pure pairs (not a proof)",
            samples=samples,
        )
    raise ModelError(f"unknown mode {mode!r}")


def check_reference_state(model: GameModel) -> bool:
    """True iff every pure (u,v) at i0 reaches every other window state in one step."""
    i0 = model.i0
    if model.n_states == 1:
        return True
    k = model.kernel
    rows = model._rows_of(i0)
    seg = slice(int(k.indptr[rows.start]), int(k.indptr[rows.stop]))
    reach = (k.prob[seg] > 0) & (k.indices[seg] != i0)
    n_rows = rows.stop - rows.start
    entry_row = np.repeat(np.arange(n_rows), np.diff(k.indptr[rows.start:rows.stop + 1]))
    per_row = np.bincount(entry_row[reach], minlength=n_rows)
    return bool((per_row == model.n_states - 1).all())


# ---------------------------------------------------------------------------
# JSON ingestion / emission

_TOP_KEYS = {"states", "actions_p1", "actions_p2", "transition", "cost", "theta", "i0", "lyapunov"}
_LYAP_KEYS = {"W", "logW", "gamma", "ell", "K", "C"}


def _number(val, kind, what: str):
    """kind(val) for kind int or float; any other value is a SchemaError."""
    try:
        return kind(val)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{what} must be a number, got {val!r}") from None


def _numbers(val, kind, what: str) -> np.ndarray:
    if not isinstance(val, list):
        raise SchemaError(f"{what} must be a list of numbers, got {val!r}")
    return np.array([_number(x, kind, what) for x in val], dtype=kind)


def _records(doc: dict, key: str, fields: set) -> list:
    """The record list doc[key]; each record carries exactly `fields`."""
    recs = doc[key]
    if not isinstance(recs, list):
        raise SchemaError(f"{key} must be a list of records, got {recs!r}")
    for rec in recs:
        if not isinstance(rec, dict):
            raise SchemaError(f"{key} record must be an object, got {rec!r}")
        if rec.keys() != fields:
            extra = set(rec) - fields
            if extra:
                raise SchemaError(f"unknown keys in {key} record: {sorted(extra)}")
            raise SchemaError(f"{key} record misses keys {sorted(fields - set(rec))}: {rec}")
    return recs


def _first_bad_record(key: str, recs: list, fields: tuple, n: int, mu: np.ndarray,
                      mv: np.ndarray) -> SchemaError:
    """The SchemaError that the first bad record of doc[key] earns, found
    by checking the records one at a time in document order."""
    for rec in recs:
        try:
            ints = [int(rec[f]) for f in fields[:-1]]
            float(rec[fields[-1]])
        except (TypeError, ValueError, OverflowError):
            return SchemaError(f"{key} record needs numbers: {rec}")
        i, u, v = ints[:3]
        if not all(0 <= s < n for s in (i, *ints[3:])):
            return SchemaError(f"{key} record references state outside window: {rec}")
        if not (0 <= u < mu[i] and 0 <= v < mv[i]):
            return SchemaError(f"{key} record references missing action: {rec}")
    return SchemaError(f"{key} records do not fit the window")


def _record_columns(doc: dict, key: str, fields: tuple, n: int, mu: np.ndarray,
                    mv: np.ndarray, slot_start: np.ndarray) -> list:
    """The records of doc[key], whose keys are `fields` (i, u, v, then
    other ints, then one float), as columns: the (i, u, v) slot of each
    record in kernel row order, then the columns after v.

    Each column is cast with int/float as a record-by-record reader casts
    each value. A value that fails its cast or any record outside the
    window or its state's action sets makes the whole document fail with
    the error of the first bad record.
    """
    recs = _records(doc, key, set(fields))
    kinds = [int] * (len(fields) - 1) + [float]
    try:
        cols = [np.fromiter(map(kind, [rec[f] for rec in recs]), dtype=kind, count=len(recs))
                for f, kind in zip(fields, kinds)]
    except (TypeError, ValueError, OverflowError):
        raise _first_bad_record(key, recs, fields, n, mu, mv) from None
    i, u, v = cols[:3]
    bad = np.zeros(len(recs), dtype=bool)
    for s in [i] + cols[3:-1]:
        bad |= (s < 0) | (s >= n)
    ic = np.where(bad, 0, i)
    if (bad | (u < 0) | (u >= mu[ic]) | (v < 0) | (v >= mv[ic])).any():
        raise _first_bad_record(key, recs, fields, n, mu, mv)
    return [slot_start[i] + u * mv[i] + v] + cols[3:]


def _last_of_runs(keys: np.ndarray) -> np.ndarray:
    """Positions of the last of the elements with each key, in key order."""
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    last = np.ones(len(k), dtype=bool)
    last[:-1] = k[1:] != k[:-1]
    return order[last]


def model_from_json(doc) -> GameModel:
    """Build a model from the interchange document (dict or JSON text).

    Transition records are {i,u,v,j,p} with u,v as 0-based indices into the
    state's action lists; missing records mean zero mass / zero cost. The
    Lyapunov block accepts exactly one of `W` (linear) or `logW`; the log
    form exists because realistic weight functions overflow float64.
    Unknown keys anywhere are rejected, and so is every document whose
    values do not fit its own window: non-numeric fields, records or a
    reference state outside it, a state without actions, Lyapunov arrays
    without one entry per state, K outside the window. Numeric invariants
    (signs, row sums) are left to validate_model.
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise SchemaError(f"a model document is a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown keys: {sorted(unknown)}")
    for req in ("states", "actions_p1", "actions_p2", "transition", "cost", "i0"):
        if req not in doc:
            raise SchemaError(f"missing key: {req}")
    n = _number(doc["states"], int, "states")
    if n < 1:
        raise SchemaError(f"states must be positive, got {n}")
    a1 = doc["actions_p1"]
    a2 = doc["actions_p2"]
    if not all(isinstance(a, list) and len(a) == n and all(isinstance(s, list) for s in a)
               for a in (a1, a2)):
        raise SchemaError("actions_p1/actions_p2 must list actions for every state")
    for i in range(n):
        if not (a1[i] and a2[i]):
            raise SchemaError(f"state {i} needs at least one action for each player")
    i0 = _number(doc["i0"], int, "i0")
    if not (0 <= i0 < n):
        raise SchemaError(f"i0={i0} outside 0..{n - 1}")
    mu = np.array([len(a) for a in a1], dtype=np.int64)
    mv = np.array([len(a) for a in a2], dtype=np.int64)
    slot_start = np.concatenate([[0], np.cumsum(mu * mv)])
    # the kernel's entries in (row, j) order: the last record of each
    # (i, u, v, j) wins, as in a record-by-record fill, and zeros go
    rows, j, p = _record_columns(doc, "transition", ("i", "u", "v", "j", "p"), n, mu, mv,
                                 slot_start)
    keep = _last_of_runs(rows * n + j)
    keep = keep[p[keep] != 0.0]
    kernel = KernelCSR.from_entries(slot_start, rows[keep], j[keep], p[keep])
    slots, c = _record_columns(doc, "cost", ("i", "u", "v", "c"), n, mu, mv, slot_start)
    keep = _last_of_runs(slots)
    flat_cost = np.zeros(int(slot_start[-1]))
    flat_cost[slots[keep]] = c[keep]
    cost = [C.reshape(shape) for C, shape in
            zip(np.split(flat_cost, slot_start[1:-1]), zip(mu.tolist(), mv.tolist()))]
    lyap = None
    if doc.get("lyapunov") is not None:
        lb = doc["lyapunov"]
        if not isinstance(lb, dict):
            raise SchemaError(f"lyapunov must be an object, got {lb!r}")
        unknown = set(lb) - _LYAP_KEYS
        if unknown:
            raise SchemaError(f"unknown keys in lyapunov: {sorted(unknown)}")
        if ("W" in lb) == ("logW" in lb):
            raise SchemaError("lyapunov needs exactly one of W or logW")
        if ("gamma" in lb) == ("ell" in lb):
            raise SchemaError("lyapunov needs exactly one of gamma or ell")
        for req in ("C", "K"):
            if req not in lb:
                raise SchemaError(f"lyapunov needs {req}")
        with np.errstate(divide="ignore", invalid="ignore"):
            log_W = (np.log(_numbers(lb["W"], float, "lyapunov W"))
                     if "W" in lb else _numbers(lb["logW"], float, "lyapunov logW"))
        ell = _numbers(lb["ell"], float, "lyapunov ell") if "ell" in lb else None
        K = _numbers(lb["K"], int, "lyapunov K")
        if len(log_W) != n or (ell is not None and len(ell) != n):
            raise SchemaError("lyapunov W and ell need one entry per state")
        if ((K < 0) | (K >= n)).any():
            raise SchemaError(f"lyapunov K contains states outside 0..{n - 1}")
        lyap = LyapunovData(
            log_W=log_W,
            C=_number(lb["C"], float, "lyapunov C"),
            K=K,
            gamma=_number(lb["gamma"], float, "lyapunov gamma") if "gamma" in lb else None,
            ell=ell,
        )
    return make_model(
        n_states=n,
        actions_p1=a1,
        actions_p2=a2,
        transition=kernel,
        cost=cost,
        theta=_number(doc.get("theta", 1.0), float, "theta"),
        i0=i0,
        lyapunov=lyap,
    )


def _emitted_columns(model: GameModel):
    """Columns (i, u, v, j, p) of the transition records and (i, u, v, c)
    of the cost records the interchange document carries: every stored
    kernel entry and every nonzero cost, in (i, u, v[, j]) order."""
    k = model.kernel
    state, u, v = model.row_actions()
    rows = k.entry_rows()
    cost = model.flat_cost()
    slots = np.flatnonzero(cost != 0.0)
    return ((state[rows], u[rows], v[rows], k.indices, k.prob),
            (state[slots], u[slots], v[slots], cost[slots]))


def _document(model: GameModel, transition, cost) -> dict:
    """The interchange document around the given record lists."""
    doc = {
        "states": model.n_states,
        "actions_p1": [list(map(float, a)) for a in model.actions_p1],
        "actions_p2": [list(map(float, a)) for a in model.actions_p2],
        "transition": transition,
        "cost": cost,
        "theta": 1.0,
        "i0": model.i0,
    }
    if model.lyapunov is not None:
        ly = model.lyapunov
        block = {
            "logW": [float(x) for x in ly.log_W],
            "K": [int(k) for k in ly.K],
            "C": float(ly.C),
        }
        if ly.gamma is not None:
            block["gamma"] = float(ly.gamma)
        else:
            block["ell"] = [float(x) for x in ly.ell]
        doc["lyapunov"] = block
    return doc


def model_to_json(model: GameModel) -> dict:
    """Emit the interchange document. Costs are written already theta-scaled
    with theta set to 1 so a round trip reproduces the internal tensors."""
    (ti, tu, tv, tj, tp), (ci, cu, cv, cc) = (
        [col.tolist() for col in cols] for cols in _emitted_columns(model))
    return _document(
        model,
        [{"i": i, "u": u, "v": v, "j": j, "p": p} for i, u, v, j, p in zip(ti, tu, tv, tj, tp)],
        [{"i": i, "u": u, "v": v, "c": c} for i, u, v, c in zip(ci, cu, cv, cc)])


def _json_floats(a: np.ndarray) -> list:
    """The entries of a float array as json.dumps writes them."""
    return json.dumps(a.tolist())[1:-1].split(", ") if a.size else []


def model_to_json_text(model: GameModel) -> str:
    """model_to_json(model) as JSON text with one record per line.

    The records are formatted straight from the kernel's columns, so the
    text costs O(nnz) string work and no dict per record; json.loads of it
    gives the same value as model_to_json.
    """
    (ti, tu, tv, tj, tp), (ci, cu, cv, cc) = _emitted_columns(model)
    transition = [f'{{"i": {i}, "u": {u}, "v": {v}, "j": {j}, "p": {p}}}' for i, u, v, j, p
                  in zip(ti.tolist(), tu.tolist(), tv.tolist(), tj.tolist(), _json_floats(tp))]
    cost = [f'{{"i": {i}, "u": {u}, "v": {v}, "c": {c}}}' for i, u, v, c
            in zip(ci.tolist(), cu.tolist(), cv.tolist(), _json_floats(cc))]
    parts = []
    for key, value in _document(model, transition, cost).items():
        if key in ("transition", "cost"):
            value = "[\n    " + ",\n    ".join(value) + "\n  ]" if value else "[]"
        else:
            value = json.dumps(value)
        parts.append(f'  "{key}": {value}')
    return "{\n" + ",\n".join(parts) + "\n}"
