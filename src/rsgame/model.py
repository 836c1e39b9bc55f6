"""Game model containers, ingestion, validation, and stability checkers.

A model is a finite truncation window over a countable state space: states
0..N-1, per-state finite action sets for both players, a (sub)stochastic
transition tensor and a cost tensor. Probability mass leaving the window is
tracked as exit mass; Dirichlet solvers treat it as absorption at zero.

The risk parameter theta is folded into the cost tensor at construction
(c <- theta * c), so all downstream code works with theta = 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ._util import NEG_INF

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


def _concat_ranges(lo, hi):
    """arange(lo[k], hi[k]) for every k, concatenated, and where each starts."""
    size = hi - lo
    start = np.cumsum(size) - size
    return np.repeat(lo - start, size) + np.arange(int(size.sum())), start


def _unsound_row(i: int, mV: int, rows: np.ndarray, sums: np.ndarray) -> ModelError:
    """The error for the first row of state i that KernelCSR refuses."""
    ok = np.isfinite(rows) & (rows >= 0.0)
    bad = ~ok.all(axis=1) | ~(sums <= 1.0 + ROW_SUM_TOL)
    r = int(bad.argmax())
    u, v = divmod(r, mV)
    if ok[r].all():
        return ModelError(f"unsound kernel: sum_j P(j|{i},{u},{v}) = {float(sums[r])!r} > 1")
    j = int((~ok[r]).argmax())
    return ModelError(f"unsound kernel: P({j}|{i},{u},{v}) = {float(rows[r, j])!r} is negative "
                      "or not finite")


@dataclass
class KernelCSR:
    """Nonzero transition entries of every (i, u, v) row, in CSR form.

    Rows are numbered state by state and u-major inside a state: row
    row_start[i] + u * mV_i + v holds P(.|i, u, v), and its entries lie at
    indptr[row]:indptr[row + 1] of `indices` (next state j, ascending) and
    `log_prob`. A row without mass (exit everywhere) is empty.
    """

    row_start: np.ndarray  # (n_states + 1,)
    indptr: np.ndarray     # (rows + 1,)
    indices: np.ndarray    # (nnz,)
    log_prob: np.ndarray   # (nnz,)

    @staticmethod
    def from_transition(transition) -> "KernelCSR":
        """Built state by state, so no temporary outgrows one state's tensor.

        Raises ModelError, naming the first bad (i, u, v) row, for a
        negative or non-finite entry or a row sum above 1 + ROW_SUM_TOL:
        validate_model's thresholds, under which the log kernel is defined.
        """
        counts, indices, log_prob = [], [], []
        for i, P in enumerate(transition):
            rows = P.reshape(-1, P.shape[-1])
            with np.errstate(all="ignore"):
                sums = rows.sum(axis=1)
            # NaN fails both comparisons; an infinite entry fails the sum test
            if not (rows.min(initial=0.0) >= 0.0 and sums.max(initial=0.0) <= 1.0 + ROW_SUM_TOL):
                raise _unsound_row(i, P.shape[1], rows, sums)
            r, j = np.nonzero(rows)
            counts.append(np.bincount(r, minlength=len(rows)))
            indices.append(j)
            log_prob.append(np.log(rows[r, j]))
        row_start = np.zeros(len(transition) + 1, dtype=np.int64)
        np.cumsum([len(c) for c in counts], out=row_start[1:])
        indptr = np.zeros(int(row_start[-1]) + 1, dtype=np.int64)
        np.cumsum(np.concatenate(counts), out=indptr[1:])
        return KernelCSR(row_start=row_start, indptr=indptr,
                         indices=np.concatenate(indices).astype(np.int64),
                         log_prob=np.concatenate(log_prob))


@dataclass
class GameModel:
    """Truncation-window game: states, per-state actions, kernel, costs.

    transition[i] has shape (mU_i, mV_i, n_states); cost[i] has shape
    (mU_i, mV_i) and is already scaled by theta. Arrays are frozen after
    construction; checkers are read-only.

    Dynamic programming reads the kernel through its sparse layout: `csr`
    is a KernelCSR of the nonzero entries of every (i, u, v) row, built on
    first use and kept on the instance (construction and ingestion never
    pay for it). `inner_log_sums(states, log_psi)` returns the matrices
    L[u, v] = log sum_j psi(j) P(j|i,u,v) of the requested states from one
    segment log-sum-exp over those rows, with -inf for empty mass; every
    operator sweep, drift check and local saddle reads L through it.
    """

    n_states: int
    actions_p1: list
    actions_p2: list
    transition: list
    cost: list
    theta: float
    i0: int
    lyapunov: LyapunovData | None = None
    _csr: KernelCSR | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for i in range(self.n_states):
            self.transition[i] = np.ascontiguousarray(self.transition[i], dtype=float)
            self.cost[i] = np.ascontiguousarray(self.cost[i], dtype=float)
            self.transition[i].flags.writeable = False
            self.cost[i].flags.writeable = False

    def n_actions(self, i: int) -> tuple[int, int]:
        return len(self.actions_p1[i]), len(self.actions_p2[i])

    def row_sums(self, i: int) -> np.ndarray:
        return self.transition[i].sum(axis=2)

    def exit_mass(self, i: int) -> np.ndarray:
        return 1.0 - self.row_sums(i)

    def max_exit_mass(self) -> float:
        return max(float(self.exit_mass(i).max()) for i in range(self.n_states))

    def is_closed(self, tol: float = CLOSED_TOL) -> bool:
        return self.max_exit_mass() <= tol and all(
            float(self.exit_mass(i).min()) >= -tol for i in range(self.n_states)
        )

    def log_transition(self, i: int) -> np.ndarray:
        """Dense log P(.|i, u, v), shape (mU, mV, n); computed on each call."""
        with np.errstate(divide="ignore"):
            lt = np.log(self.transition[i])
        lt.flags.writeable = False
        return lt

    @property
    def csr(self) -> KernelCSR:
        if self._csr is None:
            self._csr = KernelCSR.from_transition(self.transition)
        return self._csr

    def inner_log_sums(self, states, log_psi) -> list:
        """Per state of `states`, the (mU, mV) matrix log sum_j psi(j) P(j|i,u,v).

        One segment log-sum-exp over the CSR entries of all the states'
        rows, shifted by each row's max as _util.logsumexp does. A row with
        no entries, or whose entries all meet log psi = -inf, gives -inf:
        empty mass.
        """
        csr = self.csr
        states = np.asarray(states, dtype=np.int64)
        rows, _ = _concat_ranges(csr.row_start[states], csr.row_start[states + 1])
        lo, hi = csr.indptr[rows], csr.indptr[rows + 1]
        at, start = _concat_ranges(lo, hi)
        flat = np.full(len(rows), NEG_INF)
        full = hi > lo
        if at.size:
            vals = csr.log_prob[at] + np.asarray(log_psi, dtype=float)[csr.indices[at]]
            start = start[full]
            with np.errstate(all="ignore"):
                amax = np.maximum.reduceat(vals, start)
                shift = np.where(np.isfinite(amax), amax, 0.0)
                total = np.add.reduceat(np.exp(vals - np.repeat(shift, (hi - lo)[full])), start)
                flat[full] = shift + np.log(total)
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
    """Normalize raw inputs into a GameModel, applying the theta scaling."""
    if theta <= 0:
        raise ModelError(f"theta must be strictly positive, got {theta}")
    n = int(n_states)
    a1 = [list(a) for a in actions_p1]
    a2 = [list(a) for a in actions_p2]
    if len(a1) != n or len(a2) != n:
        raise ModelError("actions_p1/actions_p2 must have one entry per state")
    tr, co = [], []
    for i in range(n):
        mu, mv = len(a1[i]), len(a2[i])
        P = np.asarray(transition[i], dtype=float)
        C = np.asarray(cost[i], dtype=float)
        if P.shape != (mu, mv, n):
            raise ModelError(f"transition[{i}] must have shape {(mu, mv, n)}, got {P.shape}")
        if C.shape != (mu, mv):
            raise ModelError(f"cost[{i}] must have shape {(mu, mv)}, got {C.shape}")
        tr.append(P)
        co.append(theta * C)
    return GameModel(
        n_states=n,
        actions_p1=a1,
        actions_p2=a2,
        transition=tr,
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
    be located in the source document directly.
    """
    out = []
    if not (0 <= model.i0 < model.n_states):
        out.append(Violation("bad_reference_state", (model.i0,), float(model.i0),
                             f"i0={model.i0} outside 0..{model.n_states - 1}"))
    for i in range(model.n_states):
        mu, mv = model.n_actions(i)
        if mu == 0:
            out.append(Violation("empty_actions_p1", (i,), 0.0, f"state {i} has no player-1 actions"))
        if mv == 0:
            out.append(Violation("empty_actions_p2", (i,), 0.0, f"state {i} has no player-2 actions"))
        if mu == 0 or mv == 0:
            continue
        P = model.transition[i]
        C = model.cost[i]
        for u in range(mu):
            for v in range(mv):
                row = P[u, v]
                neg = row.min()
                if neg < 0:
                    j = int(row.argmin())
                    out.append(Violation("negative_probability", (i, u, v, j), float(neg),
                                         f"P({j}|{i},{u},{v}) = {neg}"))
                s = float(row.sum())
                if s > 1.0 + ROW_SUM_TOL:
                    out.append(Violation("row_sum_exceeds_one", (i, u, v), s,
                                         f"sum_j P(j|{i},{u},{v}) = {s!r} > 1"))
                if C[u, v] < 0:
                    out.append(Violation("negative_cost", (i, u, v), float(C[u, v]),
                                         f"c({i},{u},{v}) = {C[u, v]} < 0",
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
    """
    n = model.n_states
    if mode == "sufficient":
        edges = []
        for i in range(n):
            minrow = model.transition[i].min(axis=(0, 1))
            for j in np.nonzero(minrow > 0)[0]:
                edges.append((i, j))
        ok = bool(edges) and _strongly_connected(np.asarray(edges), n)
        return IrreducibilityReport(
            mode=mode,
            passed=ok,
            guarantee=("irreducible under every stationary strategy pair"
                       if ok else "sufficient condition failed; no conclusion"),
        )
    if mode == "sampled":
        rng = np.random.default_rng(seed)
        for s in range(samples):
            pick1 = [int(rng.integers(model.n_actions(i)[0])) for i in range(n)]
            pick2 = [int(rng.integers(model.n_actions(i)[1])) for i in range(n)]
            edges = []
            for i in range(n):
                row = model.transition[i][pick1[i], pick2[i]]
                for j in np.nonzero(row > 0)[0]:
                    edges.append((i, j))
            if not edges or not _strongly_connected(np.asarray(edges), n):
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
    P = model.transition[i0]
    others = [j for j in range(model.n_states) if j != i0]
    if not others:
        return True
    return bool(P[:, :, others].min() > 0)


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
    transition = []
    cost = []
    for i in range(n):
        mu, mv = len(a1[i]), len(a2[i])
        transition.append(np.zeros((mu, mv, n)))
        cost.append(np.zeros((mu, mv)))
    for rec in _records(doc, "transition", {"i", "u", "v", "j", "p"}):
        try:
            i, u, v, j, p = int(rec["i"]), int(rec["u"]), int(rec["v"]), int(rec["j"]), float(rec["p"])
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(f"transition record needs numbers: {rec}") from None
        if not (0 <= i < n and 0 <= j < n):
            raise SchemaError(f"transition record references state outside window: {rec}")
        if not (0 <= u < len(a1[i]) and 0 <= v < len(a2[i])):
            raise SchemaError(f"transition record references missing action: {rec}")
        transition[i][u, v, j] = p
    for rec in _records(doc, "cost", {"i", "u", "v", "c"}):
        try:
            i, u, v, c = int(rec["i"]), int(rec["u"]), int(rec["v"]), float(rec["c"])
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(f"cost record needs numbers: {rec}") from None
        if not (0 <= i < n):
            raise SchemaError(f"cost record references state outside window: {rec}")
        if not (0 <= u < len(a1[i]) and 0 <= v < len(a2[i])):
            raise SchemaError(f"cost record references missing action: {rec}")
        cost[i][u, v] = c
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
        transition=transition,
        cost=cost,
        theta=_number(doc.get("theta", 1.0), float, "theta"),
        i0=i0,
        lyapunov=lyap,
    )


def model_to_json(model: GameModel) -> dict:
    """Emit the interchange document. Costs are written already theta-scaled
    with theta set to 1 so a round trip reproduces the internal tensors."""
    transition = []
    cost = []
    for i in range(model.n_states):
        P = model.transition[i]
        C = model.cost[i]
        mu, mv = model.n_actions(i)
        for u in range(mu):
            for v in range(mv):
                for j in np.nonzero(P[u, v])[0]:
                    transition.append({"i": i, "u": u, "v": v, "j": int(j), "p": float(P[u, v, j])})
                if C[u, v] != 0.0:
                    cost.append({"i": i, "u": u, "v": v, "c": float(C[u, v])})
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
