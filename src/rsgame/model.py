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
import io
import json
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from ._util import concat_ranges, reachable, segment_logsumexp, unit

ROW_SUM_TOL = 1e-12
CLOSED_TOL = 1e-12
STRATEGY_TOL = 1e-12
# Drift inequality must hold strictly; slack at or below this fails the check.
LYAPUNOV_SLACK_PASS = 1e-14
# records formatted and written at a time by write_model_json
RECORD_CHUNK = 1 << 12
# characters of text that model_from_json reads, and of records it parses, at a time
RECORD_SLICE = 1 << 18
# rows (sampled pairs x states) that check_irreducibility tests at a time
SAMPLED_ROWS = 1 << 16


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

    Row layout: all per-(i, u, v) data is one flat vector in kernel row
    order, (i, u, v) at kernel.row_start[i] + u * mV_i + v. `shapes[i]` is
    (mU_i, mV_i), the one source of action counts; `rows(states)` gives
    the rows of `states`, state after state, and where each state's rows
    start among them, so a per-state reduction is one ufunc.reduceat.
    `row_cost` is c(i, u, v), scaled by theta.
    `inner_log_sums(states, log_psi)` is log sum_j psi(j) P(j|i,u,v) over
    rows(states), one segment log-sum-exp over their CSR entries, -inf for
    empty mass; every operator sweep, drift check and local saddle reads it.

    `kernel` (KernelCSR) is the only kernel storage. Arrays are frozen
    after construction. On first use `csr` refuses the model with the
    first error of validate_model's row scan (a state without actions, a
    negative or non-finite entry, a row sum above 1 + ROW_SUM_TOL, a
    non-finite cost: the cases where the log kernel or the payoff is not
    defined), then returns `kernel`; construction and ingestion never pay
    for the check.
    """

    n_states: int
    actions_p1: list
    actions_p2: list
    kernel: KernelCSR
    row_cost: np.ndarray
    theta: float
    i0: int
    lyapunov: LyapunovData | None = None
    _sound: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.shapes = np.array([list(map(len, self.actions_p1)), list(map(len, self.actions_p2))],
                               dtype=np.int64).T.copy()
        self.row_cost = np.ascontiguousarray(self.row_cost, dtype=float)
        k = self.kernel
        for a in (self.shapes, self.row_cost, k.row_start, k.indptr, k.indices, k.prob,
                  k.log_prob):
            a.flags.writeable = False

    def rows(self, states) -> tuple[np.ndarray, np.ndarray]:
        """The kernel rows of `states`, state after state, and where each one's rows start."""
        states = np.asarray(states, dtype=np.int64)
        return concat_ranges(self.kernel.row_start[states], self.kernel.row_start[states + 1])

    def max_exit_mass(self) -> float:
        return float((1.0 - self.kernel.row_sums).max())

    def is_closed(self) -> bool:
        """Whether every row's exit mass lies within CLOSED_TOL of zero."""
        exit_mass = 1.0 - self.kernel.row_sums
        return bool(exit_mass.max() <= CLOSED_TOL and exit_mass.min() >= -CLOSED_TOL)

    def row_actions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, u, v) of every kernel row, in row order: the (i, u, v) of
        the k-th (u, v) slot of the model, state by state."""
        state = np.repeat(np.arange(self.n_states), np.diff(self.kernel.row_start))
        u, v = np.divmod(np.arange(len(state)) - self.kernel.row_start[state],
                         self.shapes[state, 1])
        return state, u, v

    @property
    def csr(self) -> KernelCSR:
        if not self._sound:
            bad = next((f for f in _row_findings(self) if f.severity == "error"), None)
            if bad is not None:
                raise ModelError(f"unsound model: {bad.message}")
            self._sound = True
        return self.kernel

    def inner_log_sums(self, states, log_psi) -> np.ndarray:
        """log sum_j psi(j) P(j|i,u,v) of every row of `states`, in the
        order of rows(states).

        One _util.segment_logsumexp over the CSR entries of those rows,
        shifted by each row's max as _util.logsumexp does. A row with no
        entries, or whose entries all meet log psi = -inf, gives -inf:
        empty mass.
        """
        csr = self.csr
        rows, _ = self.rows(states)
        lo, hi = csr.indptr[rows], csr.indptr[rows + 1]
        at, _ = concat_ranges(lo, hi)
        return segment_logsumexp(
            csr.log_prob[at] + np.asarray(log_psi, dtype=float)[csr.indices[at]], hi - lo)


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
    `cost` is one (mU_i, mV_i) array per state, or a 1-D array of c(i, u, v)
    in kernel row order.
    """
    if not 0 < theta < np.inf:
        raise ModelError(f"theta must be finite and strictly positive, got {theta}")
    n = int(n_states)
    a1 = [list(a) for a in actions_p1]
    a2 = [list(a) for a in actions_p2]
    if len(a1) != n or len(a2) != n:
        raise ModelError("actions_p1/actions_p2 must have one entry per state")
    kernel = transition if isinstance(transition, KernelCSR) else None
    flat = isinstance(cost, np.ndarray) and cost.ndim == 1
    dense, co = [], []
    for i in range(n):
        mu, mv = len(a1[i]), len(a2[i])
        if kernel is None:
            P = np.asarray(transition[i], dtype=float)
            if P.shape != (mu, mv, n):
                raise ModelError(f"transition[{i}] must have shape {(mu, mv, n)}, got {P.shape}")
            dense.append(P)
        if not flat:
            C = np.asarray(cost[i], dtype=float)
            if C.shape != (mu, mv):
                raise ModelError(f"cost[{i}] must have shape {(mu, mv)}, got {C.shape}")
            co.append(C.ravel())
    row_start = np.cumsum([0] + [len(a) * len(b) for a, b in zip(a1, a2)])
    if kernel is None:
        kernel = KernelCSR.from_dense(dense)
    elif not np.array_equal(kernel.row_start, row_start):
        raise ModelError("kernel rows must follow the action sets")
    if flat and cost.shape != (row_start[-1],):
        raise ModelError(f"cost needs one entry per kernel row, {row_start[-1]}, got {cost.shape}")
    return GameModel(
        n_states=n,
        actions_p1=a1,
        actions_p2=a2,
        kernel=kernel,
        row_cost=theta * (np.asarray(cost, dtype=float) if flat else _concat(co)),
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
        idx = np.broadcast_to(idx, model.n_states).tolist()
        return StationaryStrategy(list(map(unit, model.shapes[:, player - 1].tolist(), idx)))

    def validate_for(self, model: GameModel, player: int) -> list[str]:
        """One message per problem, state by state. The sign, finiteness
        and sum checks run on all well-shaped states at once, as segment
        reductions over the concatenated weights (a non-finite weight makes
        its segment's sum non-finite), and the states they flag are checked
        again one by one for their messages. Segment sums may round apart
        from w.sum(), so that filter flags sums off by half the tolerance."""
        if len(self.weights) != model.n_states:
            return [f"strategy has {len(self.weights)} states, model has {model.n_states}"]
        sizes = model.shapes[:, player - 1]
        ok = np.array([w.shape == (m,) for w, m in zip(self.weights, sizes.tolist())], dtype=bool)
        at = np.flatnonzero(ok)
        if at.size:
            flat = np.concatenate([self.weights[i] for i in at])
            lo = np.cumsum(sizes[at]) - sizes[at]
            ok[at] = ~(np.minimum.reduceat(flat, lo) < 0) & (
                np.abs(np.add.reduceat(flat, lo) - 1.0) <= STRATEGY_TOL / 2)
        problems = []
        for i in np.flatnonzero(~ok).tolist():
            w = self.weights[i]
            m = int(sizes[i])
            if w.shape != (m,):
                problems.append(f"state {i}: {w.shape[0]} weights for {m} actions")
                continue
            if not np.isfinite(w).all():
                problems.append(f"state {i}: non-finite weight {w[~np.isfinite(w)][0]}")
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
                {"kind": v.kind, "coords": list(v.coords),
                 "value": v.value if np.isfinite(v.value) else None,
                 "message": v.message, "severity": v.severity}
                for v in self.violations
            ],
        }


def _row_findings(model: GameModel) -> list:
    """The findings of the action sets, kernel entries, row sums and costs.

    The per-entry and per-row tests run as array operations over the
    kernel; only flagged rows are visited one by one, state by state and
    u-major, as they are reported. GameModel.csr refuses a model with the
    first error-severity finding of this scan.
    """
    out = []
    k = model.kernel
    negative = k.prob < 0
    nonfinite = ~np.isfinite(k.prob)
    with np.errstate(invalid="ignore"):
        over = k.row_sums > 1.0 + ROW_SUM_TOL
    cost = model.row_cost
    flagged = over | ~np.isfinite(cost) | (cost < 0)
    flagged[k.entry_rows()[negative | nonfinite]] = True
    empty = np.flatnonzero((model.shapes == 0).any(axis=1)).tolist()
    state, us, vs = model.row_actions()
    for i, r in sorted([(i, -1) for i in empty]
                       + [(int(state[r]), int(r)) for r in np.flatnonzero(flagged)]):
        if r < 0:
            for p in np.flatnonzero(model.shapes[i] == 0).tolist():
                out.append(Violation(f"empty_actions_p{p + 1}", (i,), 0.0,
                                     f"state {i} has no player-{p + 1} actions"))
            continue
        u, v = int(us[r]), int(vs[r])
        seg = slice(int(k.indptr[r]), int(k.indptr[r + 1]))
        p, cols = k.prob[seg], k.indices[seg]
        if negative[seg].any():
            at = int(np.where(negative[seg], p, 0.0).argmin())
            j, val = int(cols[at]), float(p[at])
            out.append(Violation("negative_probability", (i, u, v, j), val,
                                 f"P({j}|{i},{u},{v}) = {val} is negative"))
        if nonfinite[seg].any():
            at = int(nonfinite[seg].argmax())
            j, val = int(cols[at]), float(p[at])
            out.append(Violation("nonfinite_probability", (i, u, v, j), val,
                                 f"P({j}|{i},{u},{v}) = {val} is not finite"))
        if over[r]:
            s = float(k.row_sums[r])
            out.append(Violation("row_sum_exceeds_one", (i, u, v), s,
                                 f"sum_j P(j|{i},{u},{v}) = {s!r} > 1"))
        c = float(cost[r])
        if not np.isfinite(c):
            out.append(Violation("nonfinite_cost", (i, u, v), c,
                                 f"c({i},{u},{v}) = {c} is not finite"))
        elif c < 0:
            out.append(Violation("negative_cost", (i, u, v), c, f"c({i},{u},{v}) = {c} < 0",
                                 severity="warning"))
    return out


def _lyapunov_findings(model: GameModel) -> list:
    """The findings of the model's Lyapunov data: the shapes of W and ell,
    W >= 1, finite W, ell and gamma, a finite and positive C, K inside the
    window. sound_lyapunov refuses data with the first of them."""
    out = []
    ly = model.lyapunov
    if ly.log_W.shape != (model.n_states,):
        out.append(Violation("lyapunov_shape", (), 0.0, "W must have one entry per state"))
    else:
        # W >= 1  <=>  log W >= 0; a NaN log W fails it too
        low = np.flatnonzero(~(ly.log_W >= -1e-15))
        out += [Violation("lyapunov_W_below_one", (i,), W, f"W({i}) = {W} is not >= 1")
                for i, W in zip(low.tolist(), np.exp(ly.log_W[low]).tolist())]
        out += [Violation("lyapunov_not_finite", (i,), np.inf, f"W({i}) is not finite")
                for i in np.flatnonzero(ly.log_W == np.inf).tolist()]
    if ly.ell is not None and ly.ell.shape != (model.n_states,):
        out.append(Violation("lyapunov_shape", (), 0.0, "ell must have one entry per state"))
    elif ly.ell is not None:
        out += [Violation("lyapunov_not_finite", (i,), float(ly.ell[i]),
                          f"ell({i}) = {ly.ell[i]} is not finite")
                for i in np.flatnonzero(~np.isfinite(ly.ell)).tolist()]
    if ly.gamma is not None and not np.isfinite(ly.gamma):
        out.append(Violation("lyapunov_not_finite", (), float(ly.gamma),
                             f"gamma = {ly.gamma} is not finite"))
    if not (np.isfinite(ly.C) and ly.C > 0):
        out.append(Violation("lyapunov_C_nonpositive", (), float(ly.C),
                             f"C = {ly.C!r} must be finite and > 0"))
    for k in ly.K:
        if not (0 <= k < model.n_states):
            out.append(Violation("lyapunov_K_out_of_window", (int(k),), float(k),
                                 f"K contains state {k} outside the window"))
    return out


def sound_lyapunov(model: GameModel) -> LyapunovData:
    """model.lyapunov, refused with the first of its _lyapunov_findings
    (ModelError), as GameModel.csr refuses a kernel: every reader of the
    data applies validate_model's rule. MissingLyapunovData without data."""
    if model.lyapunov is None:
        raise MissingLyapunovData("model has no Lyapunov data")
    findings = _lyapunov_findings(model)
    if findings:
        raise ModelError(f"unsound Lyapunov data: {findings[0].message}")
    return model.lyapunov


def validate_model(model: GameModel) -> ValidationReport:
    """Diagnostic sweep over every invariant; never raises.

    The report names every offending (i, u, v) coordinate so a bad row can
    be located in the source document directly.
    """
    out = []
    if not (0 <= model.i0 < model.n_states):
        out.append(Violation("bad_reference_state", (model.i0,), float(model.i0),
                             f"i0={model.i0} outside 0..{model.n_states - 1}"))
    out += _row_findings(model)
    if model.lyapunov is not None:
        out += _lyapunov_findings(model)
    return ValidationReport(out)


# ---------------------------------------------------------------------------
# Lyapunov drift checker


@dataclass
class LyapunovReport:
    case: str
    passed: bool
    slack: np.ndarray  # per checked state, log-domain: log RHS - max_{u,v} log LHS
    worst_state: int
    norm_like: dict | None
    gamma_check: dict | None
    lhs: np.ndarray  # per checked state: max_{u,v} log sum_j W(j) P(j|i,u,v)
    drift_passed: bool

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "passed": self.passed,
            "slack": [float(s) for s in self.slack],
            "worst_state": self.worst_state,
            "norm_like": self.norm_like,
            "gamma_check": self.gamma_check,
        }


def check_lyapunov(model: GameModel, states=None) -> LyapunovReport:
    """Check the drift inequality sum_j W(j)P(j|i,u,v) <= C 1_K(i) + e^{-rate} W(i),
    rate gamma or ell(i), on `states` (default: the window).

    All arithmetic in log domain: the weight function typically grows like
    exp(i^2/6) and is not representable linearly on useful windows. Slack is
    log RHS - log LHS per state (worst action pair); the drift passes when
    every slack exceeds LYAPUNOV_SLACK_PASS. The data must pass
    sound_lyapunov.

    Unbounded case: a finite-window surrogate of the norm-like requirement
    on d(i) = ell(i) - max_{u,v} c(i,u,v), the start of its nondecreasing
    tail and the net growth along it, passes with a tail of length >= 2 or
    a single checked state (only a decreasing tail fails: a constant one is
    indistinguishable from slow growth on a window). Bounded case: gamma
    must exceed every cost on `states`.
    """
    ly = sound_lyapunov(model)
    states = np.arange(model.n_states) if states is None else np.asarray(states, dtype=int)
    rows, at = model.rows(states)
    lhs = np.maximum.reduceat(model.inner_log_sums(states, ly.log_W), at)
    decay = ly.log_W[states] - (ly.gamma if ly.case == "bounded" else ly.ell[states])
    slack = np.where(np.isin(states, ly.K), np.logaddexp(np.log(ly.C), decay), decay) - lhs
    worst = int(slack.argmin())
    drift_passed = bool(slack[worst] > LYAPUNOV_SLACK_PASS)
    cmax = np.maximum.reduceat(model.row_cost[rows], at)

    norm_like = gamma_check = None
    if ly.case == "unbounded":
        d = ly.ell[states] - cmax
        last = len(d) - 1
        breaks = np.flatnonzero(~(d[1:] >= d[:-1] - 1e-12))
        tail_start = int(breaks[-1]) + 1 if breaks.size else 0
        norm_like = {
            "surrogate": "nondecreasing tail (finite window)",
            "tail_start": tail_start,
            "net_growth": float(d[last] - d[tail_start]),
            "passed": bool(tail_start < last or last == 0),
        }
        passed = drift_passed and norm_like["passed"]
    else:
        gamma_check = {"gamma": float(ly.gamma), "max_cost": float(cmax.max()),
                       "passed": bool(ly.gamma > cmax.max())}
        passed = drift_passed and gamma_check["passed"]

    return LyapunovReport(
        case=ly.case,
        passed=passed,
        slack=slack,
        worst_state=int(states[worst]),
        norm_like=norm_like,
        gamma_check=gamma_check,
        lhs=lhs,
        drift_passed=drift_passed,
    )


def eigenvalue_upper_bound(model: GameModel) -> dict | None:
    """Lyapunov-derived upper bound on the eigenvalue, from the declared data.

    Unbounded case: the drift inequality folds into sum W P <= e^{k1 - ell} W
    with k1 = max(0, max_{i in K} log(1 + C e^{ell_i}/W_i)), and the norm-like
    gap gives max_c <= ell + k2 with k2 = -min_i d(i) (check_lyapunov); the
    criterion value is then at most k1 + k2. Bounded case: the criterion is
    at most the drift rate gamma. Either way the data must pass sound_lyapunov.
    """
    if model.lyapunov is None:
        return None
    ly = sound_lyapunov(model)
    if ly.case == "bounded":
        return {"case": "bounded", "k1": float(ly.gamma), "k2": 0.0, "upper": float(ly.gamma)}
    k1 = max([0.0] + np.logaddexp(0.0, np.log(ly.C) + ly.ell[ly.K] - ly.log_W[ly.K]).tolist())
    # csr refuses a state without actions, whose reduceat segment would be empty
    k2 = -float((ly.ell - np.maximum.reduceat(model.row_cost, model.csr.row_start[:-1])).min())
    return {"case": "unbounded", "k1": k1, "k2": k2, "upper": k1 + k2}


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


def _strongly_connected(tail, head, n_graphs: int, n: int) -> np.ndarray:
    """Whether each graph of a batch is strongly connected. Graph b has the
    nodes b*n .. b*n + n - 1 and the edges tail -> head among them; it is
    strongly connected when every node reaches its first node and is
    reached from it. One reachability pass over the disjoint union of the
    graphs and their reverses tests them all. A graph without edges fails,
    even on one node."""
    nodes = n_graphs * n
    # the reverse of node x is node nodes + x
    tails = np.concatenate([tail, head + nodes])
    heads = np.concatenate([head, tail + nodes])
    count = np.bincount(tails, minlength=2 * nodes)
    end = np.cumsum(count)
    seen = reachable(end - count, end, heads[np.argsort(tails)],
                     np.arange(0, 2 * nodes, n))
    both = (seen[:nodes] & seen[nodes:]).reshape(n_graphs, n)
    return both.all(axis=1) & (np.bincount(tail // n, minlength=n_graphs) > 0)


def check_irreducibility(model: GameModel, mode: str = "sufficient",
                         samples: int = 50, seed: int = 0) -> IrreducibilityReport:
    """Graph conditions for irreducibility under every stationary pair.

    sufficient: keep edge i->j only when P(j|i,u,v) > 0 for every pure
    (u,v); strong connectivity of that graph implies irreducibility under
    every strategy pair. sampled: falsifier only, checks strong connectivity
    of the support graph under `samples` random pure stationary pairs, and
    raises ValueError for samples < 1, which would pass without a test.
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
        ok = bool(_strongly_connected(keys // n, keys % n, 1, n)[0])
        return IrreducibilityReport(
            mode=mode,
            passed=ok,
            guarantee=("irreducible under every stationary strategy pair"
                       if ok else "sufficient condition failed; no conclusion"),
        )
    if mode == "sampled":
        if samples < 1:
            raise ValueError(f"samples (--samples) must be >= 1, got {samples}")
        rng = np.random.default_rng(seed)
        mv = model.shapes[:, 1]
        highs = model.shapes.T.ravel()
        row_len = np.diff(k.indptr)
        # Samples are tested in chunks of 1, 1, 2, 4, ... of at most
        # SAMPLED_ROWS rows, so an early failure costs about what one
        # sample costs and memory does not grow with samples. A chunk is
        # drawn in one array call, each sample as player 1's action at
        # every state, then player 2's: numpy fills the array entry by
        # entry, the sequence of one scalar call per state and player.
        done = 0
        while done < samples:
            stop = min(samples, done + max(1, min(done, SAMPLED_ROWS // n)))
            picks = rng.integers(np.tile(highs, stop - done))
            picks = picks.reshape(stop - done, 2, n)
            rows = (k.row_start[:-1] + picks[:, 0] * mv + picks[:, 1]).ravel()
            at, _ = concat_ranges(k.indptr[rows], k.indptr[rows + 1])
            pos = k.prob[at] > 0
            tail = np.repeat(np.arange(len(rows)), row_len[rows])[pos]
            head = k.indices[at][pos] + tail // n * n
            ok = _strongly_connected(tail, head, stop - done, n)
            if not ok.all():
                first = int(np.argmin(ok))
                return IrreducibilityReport(
                    mode=mode,
                    passed=False,
                    guarantee="reducible under a sampled pure pair",
                    failing_pair={"p1": picks[first, 0].tolist(), "p2": picks[first, 1].tolist()},
                    samples=done + first + 1,
                )
            done = stop
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
    rows, _ = model.rows([i0])
    lo, hi = k.indptr[rows], k.indptr[rows + 1]
    at, _ = concat_ranges(lo, hi)
    reach = (k.prob[at] > 0) & (k.indices[at] != i0)
    per_row = np.bincount(np.repeat(np.arange(len(rows)), hi - lo)[reach], minlength=len(rows))
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


def _dict_columns(key: str, recs, fields: tuple, n: int, mu: np.ndarray,
                  mv: np.ndarray) -> list:
    """The columns of the record list recs (doc[key] of a parsed document): each
    field of `fields` cast with int (float for the last). A record that is
    not an object with exactly `fields`, a value that fails its cast, or a
    record outside the window or its state's action sets raises the
    SchemaError of the first such record: keys before values, then in
    document order."""
    if not isinstance(recs, list):
        raise SchemaError(f"{key} must be a list of records, got {recs!r}")
    names = set(fields)
    for rec in recs:
        if not isinstance(rec, dict):
            raise SchemaError(f"{key} record must be an object, got {rec!r}")
        if rec.keys() != names:
            extra = set(rec) - names
            if extra:
                raise SchemaError(f"unknown keys in {key} record: {sorted(extra)}")
            raise SchemaError(f"{key} record misses keys {sorted(names - set(rec))}: {rec}")
    mu, mv = mu.tolist(), mv.tolist()
    ints, vals = [], []
    for rec in recs:
        try:
            i, u, v, *js = [int(rec[f]) for f in fields[:-1]]
            vals.append(float(rec[fields[-1]]))
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(f"{key} record needs numbers: {rec}") from None
        if not all(0 <= s < n for s in (i, *js)):
            raise SchemaError(f"{key} record references state outside window: {rec}")
        if not (0 <= u < mu[i] and 0 <= v < mv[i]):
            raise SchemaError(f"{key} record references missing action: {rec}")
        ints += (i, u, v, *js)
    return [*np.array(ints, dtype=int).reshape(-1, len(fields) - 1).T, np.array(vals)]


class _Columns(tuple):
    """A record array that _scan_document read slice by slice: the
    columns _dict_columns gives for the whole array, not yet checked
    against the window."""


def _record_columns(doc: dict, key: str, fields: tuple, n: int, mu: np.ndarray,
                    mv: np.ndarray, slot_start: np.ndarray) -> list:
    """The records of doc[key], whose keys are `fields` (i, u, v, then
    other ints, then one float), as columns: the (i, u, v) slot of each
    record in kernel row order, then the columns after v.

    doc[key] is a record list (_dict_columns) or _Columns read from text.
    _dict_columns names the first record outside the window or its
    state's action sets; _Columns with such a record raise ValueError
    without naming it, and model_from_json then reads the text again
    whole, so that _dict_columns names it.
    """
    cols = doc[key]
    if not isinstance(cols, _Columns):
        cols = _dict_columns(key, cols, fields, n, mu, mv)
    i, u, v = cols[:3]
    bad = np.zeros(len(i), dtype=bool)
    for s in [i, *cols[3:-1]]:
        bad |= (s < 0) | (s >= n)
    ic = np.where(bad, 0, i)
    if (bad | (u < 0) | (u >= mu[ic]) | (v < 0) | (v >= mv[ic])).any():
        raise ValueError(f"{key} records do not fit the window")
    return [slot_start[i] + u * mv[i] + v, *cols[3:]]


_RECORD_FIELDS = {"transition": ("i", "u", "v", "j", "p"), "cost": ("i", "u", "v", "c")}
_SCAN = json.JSONDecoder().scan_once
_WS = json.decoder.WHITESPACE.match
_NUMBER = "0123456789.eE+-"
_NO_NUMBERS = str.maketrans("", "", _NUMBER + " \t\n\r")
_BLANK = str.maketrans('{}":iuvjpc', " " * 10)
_NUMBER_BYTE = np.isin(np.arange(256), list(_NUMBER.encode()))


def _flat_columns(body: str, fields: tuple) -> list:
    """The columns of json.loads("[" + body + "]") as _dict_columns gives
    them, from one json.loads of the body's numbers; raises ValueError or
    OverflowError where that might differ. Exact when the body less
    numbers and whitespace is the record skeleton k times, and each ':'
    follows '"<letter>"' and precedes a number character, directly or
    after one space: then each ','-separated part holds one number, its
    value. Int fields are truncated only below 2**53 in magnitude, where
    that is int(). Each column is an array of its own, so that
    _sliced_columns can free a slice's columns one at a time."""
    skeleton = "{" + ",".join(f'"{f}":' for f in fields) + "}"
    shape = body.translate(_NO_NUMBERS)
    k = (len(shape) + 1) // (len(skeleton) + 1)
    if not k or shape != ",".join(repeat(skeleton, k)):
        raise ValueError("not a slice of records with the canonical keys")
    del shape  # each step frees its arrays before the next allocates
    c = np.frombuffer(body.encode(), np.uint8)
    at = np.flatnonzero(c == ord(":"))
    ok = (c[at - 3] == ord('"')) & (c[at - 1] == ord('"'))
    at += 1
    at += c[at] == ord(" ")  # the value's first character, after at most one space
    if not (ok & _NUMBER_BYTE[c[at]]).all():
        raise ValueError("a record value that is not a number")
    del c, at
    a = np.array(json.loads(f"[{body.translate(_BLANK)}]"), float).reshape(k, -1)
    if np.abs(a[:, :-1]).max() >= 2.0 ** 53:
        raise ValueError("an int field that float64 may not hold exactly")
    return [*(a[:, f].astype(int) for f in range(len(fields) - 1)), a[:, -1].copy()]


class _Text:
    """The text of a model document (str, bytes or an open text file): a
    file is read one chunk of RECORD_SLICE characters at a time, a string
    (which its caller holds whole anyway) as one chunk. `text[pos:]` is
    what is read and not yet consumed."""

    def __init__(self, doc):
        if isinstance(doc, bytes):
            doc = doc.decode(json.detect_encoding(doc), "surrogatepass")
        self.chunks = (iter([doc]) if isinstance(doc, str) else
                       iter(functools.partial(doc.read, RECORD_SLICE), ""))
        self.text, self.pos = "", 0

    def more(self) -> bool:
        """Append the next chunk, dropping the text before pos; False at the end."""
        chunk = next(self.chunks, "")
        if chunk:
            self.text, self.pos = self.text[self.pos:] + chunk, 0
        return bool(chunk)

    def skip(self) -> str:
        """The next character after whitespace, '' at the end of the text."""
        while True:
            self.pos = _WS(self.text, self.pos).end()
            if self.pos < len(self.text) or not self.more():
                return self.text[self.pos:self.pos + 1]

    def value(self):
        """The JSON value at pos. One that does not scan, or that ends less
        than three characters before the text read so far (12 of 123, 1 of
        1e+5), is scanned again with the next chunk, until the text ends."""
        while True:
            try:
                value, end = _SCAN(self.text, self.pos)
            except (ValueError, StopIteration):
                if not self.more():
                    raise
                continue
            if end + 2 < len(self.text) or not self.more():
                self.pos = end
                return value


def _sliced_columns(src: _Text, fields: tuple) -> _Columns:
    """The _Columns of the record array whose '[' is at src.pos.

    The array body, up to the first ']', is cut right after a '},' about
    every RECORD_SLICE characters, and each slice is read by _flat_columns,
    so one slice of records at a time is held, as one flat array of
    numbers. Raises ValueError unless _flat_columns reads every slice:
    then the slices and the commas between them are the body, and the
    array is json.loads of the text up to that ']'.
    """
    src.pos += 1
    parts = [[np.empty(0, int)] for _ in fields[:-1]] + [[np.empty(0)]]
    # a body of whitespace only is the empty array
    done = src.skip() == "]"
    src.pos += done
    while not done:
        text, start = src.text, src.pos
        # the first ']' is looked for only up to the cut, so a slice scans
        # about RECORD_SLICE characters however much text is buffered
        cut = text.find("},", start + RECORD_SLICE)
        close = text.find("]", start, cut if cut >= 0 else len(text))
        end = close if close >= 0 else cut + 1 if cut >= 0 else -1
        if end < 0:
            if not src.more():
                raise ValueError("record array without ']'")
            continue
        for part, col in zip(parts, _flat_columns(text[start:end], fields)):
            part.append(col)
        done = end == close
        src.pos = end + 1
    # one column at a time, each freeing its slices' parts once joined
    return _Columns(np.concatenate(parts.pop(0)) for _ in fields)


def _scan_document(doc) -> dict:
    """json.loads of a model document's text (_Text), except that the
    transition and cost arrays are read by _sliced_columns. Raises
    (ValueError, or what json's scanner raises) on any document where the
    result might differ from json.loads: invalid text, a duplicate
    top-level key, or a record array _sliced_columns refuses."""
    src = _Text(doc)
    if src.skip() != "{":
        raise ValueError("not a JSON object")
    out = {}
    sep = ","
    while sep == ",":
        src.pos += 1
        if src.skip() != '"':
            raise ValueError("expected a key")
        key = src.value()
        if key in out or src.skip() != ":":
            raise ValueError("duplicate key or missing ':'")
        src.pos += 1
        if src.skip() == "[" and key in _RECORD_FIELDS:
            out[key] = _sliced_columns(src, _RECORD_FIELDS[key])
        else:
            out[key] = src.value()
        sep = src.skip()
    src.pos += 1
    if sep != "}" or src.skip():
        raise ValueError("expected ',' or '}' closing the document")
    return out


def _last_of_runs(keys: np.ndarray) -> np.ndarray:
    """Positions of the last of the elements with each key, in key order."""
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    last = np.ones(len(k), dtype=bool)
    last[:-1] = k[1:] != k[:-1]
    return order[last]


def model_from_json(doc) -> GameModel:
    """Build a model from the interchange document: a dict, JSON text
    (str or bytes) or an open text file.

    A file is read one chunk of RECORD_SLICE characters at a time, and
    the records of any text one slice at a time as one flat array of
    numbers (_scan_document), so neither a file's whole text nor its
    records as Python objects are held. Text that this reading refuses,
    valid or not (records with other key orders, strings or literals), is
    read again whole (a file from its start) with json.loads, and its
    records, like those of a dict, one at a time; so every document gives
    the same model, or the same exception and message, as
    model_from_json(json.loads(text)).

    Transition records are {i,u,v,j,p} with u,v as 0-based indices into the
    state's action lists; missing records mean zero mass / zero cost. The
    Lyapunov block accepts exactly one of `W` (linear) or `logW`; the log
    form exists because realistic weight functions overflow float64.
    Unknown keys anywhere are rejected, and so is every document whose
    values do not fit its own window: non-numeric fields, records or a
    reference state outside it, a state without actions, Lyapunov arrays
    without one entry per state, a linear W entry below 0, K outside the
    window. Numeric invariants (signs, row sums) are left to
    validate_model.
    """
    if isinstance(doc, (str, bytes, io.TextIOBase)):
        try:
            return _model_from_doc(_scan_document(doc))
        except (ValueError, TypeError, KeyError, OverflowError, StopIteration, RecursionError):
            pass  # read again below, so the refusal is the dict path's
        if not isinstance(doc, (str, bytes)):
            doc.seek(0)
            doc = doc.read()
        doc = json.loads(doc)
    return _model_from_doc(doc)


def _model_from_doc(doc) -> GameModel:
    """model_from_json on a parsed document."""
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
    rows, j, p = _record_columns(doc, "transition", _RECORD_FIELDS["transition"], n, mu, mv,
                                 slot_start)
    keep = _last_of_runs(rows * n + j)
    keep = keep[p[keep] != 0.0]
    kernel = KernelCSR.from_entries(slot_start, rows[keep], j[keep], p[keep])
    slots, c = _record_columns(doc, "cost", _RECORD_FIELDS["cost"], n, mu, mv, slot_start)
    keep = _last_of_runs(slots)
    cost = np.zeros(int(slot_start[-1]))
    cost[slots[keep]] = c[keep]
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
        if "W" in lb:
            W = _numbers(lb["W"], float, "lyapunov W")
            if (W < 0).any():
                i = int(np.argmax(W < 0))
                raise SchemaError(f"lyapunov W({i}) = {W[i].item()} is below 0")
            with np.errstate(divide="ignore"):  # W = 0 is log W = -inf, a validate finding
                log_W = np.log(W)
        else:
            log_W = _numbers(lb["logW"], float, "lyapunov logW")
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


def _json_float_codes(a: np.ndarray) -> tuple[list, np.ndarray]:
    """(texts, codes): texts[codes[k]] is a[k] as json.dumps writes it,
    each distinct bit pattern (so -0.0 is not 0.0) formatted once."""
    bits, codes = np.unique(a.view(np.int64), return_inverse=True)
    texts = json.dumps(bits.view(np.float64).tolist())[1:-1].split(", ") if a.size else []
    return texts, codes


def write_model_json(model: GameModel, fh) -> None:
    """Write the interchange document as JSON text with one record per line.

    Costs are written already theta-scaled with theta set to 1, so a round
    trip reproduces the internal tensors. The transition records are every
    stored kernel entry and the cost records every nonzero cost, in
    (i, u, v[, j]) order. They are formatted straight from the kernel's
    columns, so the text costs O(nnz) string work and no dict per record,
    and each distinct probability or cost is formatted once. They are
    written RECORD_CHUNK (4096) at a time, so no more than one chunk of
    records is held as text.
    """
    k = model.kernel
    state, u, v = model.row_actions()
    rows = k.entry_rows()
    slots = np.flatnonzero(model.row_cost != 0.0)
    ti, tu, tv, tj = state[rows], u[rows], v[rows], k.indices
    ci, cu, cv = state[slots], u[slots], v[slots]
    tp_text, tp_code = _json_float_codes(k.prob)
    cc_text, cc_code = _json_float_codes(model.row_cost[slots])

    def transition(at):
        return [f'{{"i": {i}, "u": {u}, "v": {v}, "j": {j}, "p": {p}}}' for i, u, v, j, p
                in zip(ti[at].tolist(), tu[at].tolist(), tv[at].tolist(), tj[at].tolist(),
                       map(tp_text.__getitem__, tp_code[at].tolist()))]

    def cost(at):
        return [f'{{"i": {i}, "u": {u}, "v": {v}, "c": {c}}}' for i, u, v, c
                in zip(ci[at].tolist(), cu[at].tolist(), cv[at].tolist(),
                       map(cc_text.__getitem__, cc_code[at].tolist()))]

    doc = {
        "states": model.n_states,
        "actions_p1": [list(map(float, a)) for a in model.actions_p1],
        "actions_p2": [list(map(float, a)) for a in model.actions_p2],
        "transition": (transition, len(rows)),
        "cost": (cost, len(slots)),
        "theta": 1.0,
        "i0": model.i0,
    }
    if model.lyapunov is not None:
        ly = model.lyapunov
        block = {
            "logW": [float(x) for x in ly.log_W],
            "K": [int(s) for s in ly.K],
            "C": float(ly.C),
        }
        if ly.gamma is not None:
            block["gamma"] = float(ly.gamma)
        else:
            block["ell"] = [float(x) for x in ly.ell]
        doc["lyapunov"] = block
    sep = "{\n"
    for key, value in doc.items():
        fh.write(f'{sep}  "{key}": ')
        sep = ",\n"
        if key not in ("transition", "cost"):
            fh.write(json.dumps(value))
            continue
        records, total = value
        lead = "[\n    "
        for lo in range(0, total, RECORD_CHUNK):
            fh.write(lead + ",\n    ".join(records(slice(lo, lo + RECORD_CHUNK))))
            lead = ",\n    "
        fh.write("[]" if not total else "\n  ]")
    fh.write("\n}")


def model_to_json(model: GameModel) -> dict:
    """The interchange document as a dict: json.loads of the text that
    write_model_json writes."""
    buf = io.StringIO()
    write_model_json(model, buf)
    return json.loads(buf.getvalue())
