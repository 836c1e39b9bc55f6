"""Path simulation and statistical verification of solved games.

Sampling follows the game's path law: at each step the players draw
actions independently from their mixed rules, then the chain draws the
next state. Randomness is counter-based: path k of a run seeded s uses
its own Philox stream keyed (s, k), so results are bit-identical however
paths are batched, and aggregation reduces in fixed path order.

The ergodic-cost estimator is the plug-in form of the multiplicative
criterion: (1/T) log[(1/N) sum_paths exp(sum_t c)] via log-sum-exp. Its
sampling distribution is heavy tailed, so the uncertainty proxy reported
is the spread (standard deviation) of sqrt(N) batch-mean estimates, not a
Gaussian stderr, together with the largest path exponent seen and the
effective sample size of the path weights.

Saddle verification estimates the psi-weighted growth rate
Lambda_T = (1/T) log E_x0[exp(sum_{t<T} c) psi(X_T) / psi(x0)] with the
solve's own eigenfunction psi*, by importance sampling under the
exponential change of measure that draws each next state with
probability proportional to P(j|i,u,v) psi(j) (Asmussen & Glynn,
Stochastic Simulation, 2007, ch. VI). The likelihood ratio telescopes
into the per-step log weight c + log sum_j P psi - log psi(i), so the
same path step runs on different entry weights and costs; the plug-in
estimator is the case psi = 1. When (rho*, psi*) solves the equation for
the simulated pair, Lambda_T = rho* at every T; for any positive psi,
Lambda_T tends to the pair's criterion, so a wrong rho* is still caught.

Each path step reads one uniform from the path's stream and makes one
alias pick (Walker 1977; Vose 1991) in its state's table over the pair's
joint (u, v, j) law: the kernel entry of row (i, u, v) with next state j
has weight mu_i(u) nu_i(v) P(j|i,u,v) and carries the row's step cost.
That is the law of drawing both actions independently and then the next
state, so a step costs O(1) whatever the window or the action sets. The
tables hold one slot per kernel entry the pair can draw, so they are
built in time and memory O(nnz); an open model's rows get one exit entry
each, of the row's exit mass. Every sampler steps all live paths of a
block together and reads each path's uniforms from its stream in chunks
of at most T_CHUNK, transposed to one row of uniforms per step; the
streams are continuous, so the chunking changes no value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import concat_ranges, logsumexp, segment_logsumexp
from .model import CLOSED_TOL, GameModel, StationaryStrategy
from .solver import SolveReport

BLOCK_PATHS = 4096
T_CHUNK = 128
HITTING_CAP = 10**6
# fixed part of every saddle-verification band: the residual tolerance each
# solve is held to, which bounds how far rho* may sit from the exact value
BAND_FLOOR = 1e-6


class OpenModel(RuntimeError):
    """Probability mass can leave the window and no absorbing rule was requested."""


@dataclass
class Deviation:
    """Replace one player's rule at selected states (None = every state)."""

    player: int
    states: list | None
    weights: list

    def apply(self, model: GameModel, strategy: StationaryStrategy) -> StationaryStrategy:
        ws = [w.copy() for w in strategy.weights]
        states = range(model.n_states) if self.states is None else self.states
        for s, w in zip(states, self.weights):
            ws[int(s)] = np.asarray(w, dtype=float)
        return StationaryStrategy(ws)


@dataclass
class SimConfig:
    T: int
    N: int
    seed: int = 0
    start: object = 0  # state index, or a sequence of them where supported
    deviation: Deviation | None = None
    allow_absorption: bool = False
    hitting_cap: int = HITTING_CAP

    def __post_init__(self):
        if self.T < 1 or self.N < 1:
            raise ValueError("need T >= 1 and N >= 1")


@dataclass
class EstimatorReport:
    estimate: float
    spread: float
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"estimate": float(self.estimate), "spread": float(self.spread),
                "diagnostics": self.diagnostics}


@dataclass
class PathBatch:
    states: np.ndarray  # (N, T+1); -1 marks absorption out of the window
    u_idx: np.ndarray   # (N, T)
    v_idx: np.ndarray   # (N, T)
    costs: np.ndarray   # (N, T)

    def to_csv(self) -> str:
        lines = ["path,step,state,u,v,cost"]
        N, T = self.costs.shape
        for p in range(N):
            for t in range(T):
                lines.append(f"{p},{t},{int(self.states[p, t])},{int(self.u_idx[p, t])},"
                             f"{int(self.v_idx[p, t])},{float(self.costs[p, t])!r}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the sampler: per-state alias tables over the pair's kernel entries


def _alias_rows(weights, sizes):
    """Walker/Vose alias tables for consecutive segments of `weights` of the
    given sizes, each renormalized; alias values index `weights`.

    Vose's algorithm runs on all segments in lockstep. A segment's small
    and large stacks share its slice of one index array: small ones grow
    from the left, large ones from the right, both seeded in ascending
    index order with the top at the largest index. Each iteration pops both
    tops of every segment that still has both stacks, with the float
    operations of the one-segment algorithm, and each segment is normalized
    by its sum as ndarray.sum takes it (summed with the other segments of
    its size as rows of one array), so each segment's table is
    bit-identical to building it alone. A segment whose entries all sit on
    one side keeps prob 1 and the alias of its first entry; at most
    max(sizes) - 1 iterations run.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    hi = np.cumsum(sizes)
    lo = hi - sizes
    seg = np.repeat(np.arange(len(sizes)), sizes)
    total = np.ones(len(sizes))
    for m in np.unique(sizes[sizes > 0]):
        at = np.flatnonzero(sizes == m)
        total[at] = weights[lo[at, None] + np.arange(m)].sum(axis=1)
    scaled = (weights / total[seg]) * sizes[seg]
    prob = np.ones(len(weights))
    alias = lo[seg]
    small = scaled < 1.0
    local = np.arange(len(weights)) - alias
    stack = np.lexsort((np.where(small, local, -local), ~small, seg))
    n_small = np.bincount(seg[small], minlength=len(sizes))
    n_large = sizes - n_small
    live = np.flatnonzero((n_small > 0) & (n_large > 0))
    while live.size:
        s = stack[lo[live] + n_small[live] - 1]
        g = stack[hi[live] - n_large[live]]
        n_small[live] -= 1
        n_large[live] -= 1
        p_s = scaled[s]
        prob[s] = p_s
        alias[s] = g
        p_g = scaled[g] - (1.0 - p_s)
        scaled[g] = p_g
        to_small = p_g < 1.0
        rs = live[to_small]
        stack[lo[rs] + n_small[rs]] = g[to_small]
        n_small[rs] += 1
        rl = live[~to_small]
        n_large[rl] += 1
        stack[hi[rl] - n_large[rl]] = g[~to_small]
        live = live[(n_small[live] > 0) & (n_large[live] > 0)]
    return prob, alias


@dataclass
class _Entries:
    """The pair-independent half of the sampler: every stored kernel entry
    in row order, and per kernel row its (i, u, v) and step cost."""

    row: np.ndarray    # (E,) kernel row of each entry, ascending
    j: np.ndarray      # (E,) next state; -1 marks an exit
    p: np.ndarray      # (E,) probability, psi-tilted where asked
    state: np.ndarray  # (rows,) i, u, v and step cost of each kernel row
    u: np.ndarray
    v: np.ndarray
    cost: np.ndarray


def _entries(model: GameModel, log_psi=None) -> _Entries:
    """Kernel entries and step costs for the sampler, built from the CSR.

    Without log_psi these are the path law's own kernel P and cost c, and
    an open model's rows each get one exit entry (j = -1) of mass
    1 - sum_j P. With a log eigenfunction they are its psi-tilted version:
    entry j of row (i, u, v) gets P(j|i,u,v) psi(j) / (P psi)(i,u,v) and the
    row's step cost is c + log (P psi)(i,u,v) - log psi(i), with log (P psi)
    from GameModel.inner_log_sums. Rows with psi(i) = 0 or (P psi) = 0 keep
    the untilted entries; a run that can reach them is refused by its caller.
    """
    k = model.csr
    state, u, v = model.row_actions()
    row, j, p, cost = k.entry_rows(), k.indices, k.prob, model.flat_cost()
    if log_psi is not None:
        log_mass = np.concatenate([L.ravel() for L in
                                   model.inner_log_sums(np.arange(model.n_states), log_psi)])
        tilt = np.isfinite(log_psi[state]) & np.isfinite(log_mass)
        at = np.flatnonzero(tilt[row])
        p = p.copy()
        p[at] = np.exp(k.log_prob[at] + log_psi[j[at]] - log_mass[row[at]])
        cost[tilt] += log_mass[tilt] - log_psi[state[tilt]]
    elif not model.is_closed(CLOSED_TOL):
        row = np.concatenate([row, np.arange(len(state))])
        order = np.argsort(row, kind="stable")  # each exit after its row's entries
        row = row[order]
        j = np.concatenate([j, np.full(len(state), -1)])[order]
        p = np.concatenate([p, 1.0 - k.row_sums])[order]
    return _Entries(row=row, j=j, p=p, state=state, u=u, v=v, cost=cost)


def _row_weights(entries: _Entries, pi1: StationaryStrategy, pi2: StationaryStrategy):
    """mu_i(u) nu_i(v) of every kernel row."""
    mu, nu = (np.concatenate(pi.weights) for pi in (pi1, pi2))
    mu_at, nu_at = (np.cumsum([0] + [len(w) for w in pi.weights[:-1]]) for pi in (pi1, pi2))
    return mu[mu_at[entries.state] + entries.u] * nu[nu_at[entries.state] + entries.v]


@dataclass
class _Table:
    """One pair's sampling table: state i's slots lie at lo[i]:lo[i] + size[i],
    one per entry of positive weight, with that weight, its alias pair,
    kernel row, next state and step cost."""

    lo: np.ndarray
    size: np.ndarray
    weight: np.ndarray
    prob: np.ndarray
    alias: np.ndarray
    row: np.ndarray
    j: np.ndarray
    cost: np.ndarray


def _table(entries: _Entries, pi1: StationaryStrategy, pi2: StationaryStrategy) -> _Table:
    """The pair's alias tables, one per state, over its entries of positive
    weight: time and memory O(nnz)."""
    w = _row_weights(entries, pi1, pi2)[entries.row] * entries.p
    keep = np.flatnonzero(w > 0)
    row = entries.row[keep]
    size = np.bincount(entries.state[row], minlength=len(pi1.weights))
    prob, alias = _alias_rows(w[keep], size)
    return _Table(lo=np.cumsum(size) - size, size=size, weight=w[keep], prob=prob, alias=alias,
                  row=row, j=entries.j[keep], cost=entries.cost[row])


def _step(tab: _Table, s, r):
    """The slot each path draws from its state's table with its uniform r:
    one alias pick, r * size split into a slot and an accept fraction."""
    size = tab.size[s]
    scaled = r * size
    k = np.minimum(scaled.astype(np.int64), size - 1)
    e = tab.lo[s] + k
    return np.where(scaled - k < tab.prob[e], e, tab.alias[e])


def _path_stream(seed: int, path_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(path_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(gens, rows):
    """The next `rows` uniforms of every stream, as a contiguous
    (rows, len(gens)) array: one row of uniforms per step."""
    buf = np.empty((len(gens), rows))
    for k, g in enumerate(gens):
        g.random(out=buf[k])
    return np.ascontiguousarray(buf.T)


def _require_strategies(model, pi1, pi2):
    p1 = pi1.validate_for(model, 1)
    p2 = pi2.validate_for(model, 2)
    if p1 or p2:
        raise ValueError(f"invalid strategies: {p1 + p2}")


def _simulated_pair(model, pi1, pi2, deviation):
    """The validated strategy pair with the configured deviation applied."""
    _require_strategies(model, pi1, pi2)
    if deviation is not None:
        if deviation.player == 1:
            pi1 = deviation.apply(model, pi1)
        else:
            pi2 = deviation.apply(model, pi2)
        _require_strategies(model, pi1, pi2)
    return pi1, pi2


def simulate_paths(model: GameModel, pi1: StationaryStrategy, pi2: StationaryStrategy,
                   cfg: SimConfig) -> PathBatch:
    """Materialize N full trajectories (memory scales with N*T).

    Raises OpenModel on window exit unless cfg.allow_absorption, in which
    case the path parks at state -1 with zero cost afterwards.
    """
    pi1, pi2 = _simulated_pair(model, pi1, pi2, cfg.deviation)
    if not model.is_closed(CLOSED_TOL) and not cfg.allow_absorption:
        raise OpenModel(f"max exit mass {model.max_exit_mass():.3e}; "
                        "pass allow_absorption=True to park exited paths")
    entries = _entries(model)
    tab = _table(entries, pi1, pi2)
    N, T = cfg.N, cfg.T
    gens = [_path_stream(cfg.seed, p) for p in range(N)]

    s = np.full(N, int(cfg.start), dtype=np.int64)
    states = np.empty((N, T + 1), dtype=np.int32)
    states[:, 0] = s
    u_idx = np.full((N, T), -1, dtype=np.int32)
    v_idx = np.full((N, T), -1, dtype=np.int32)
    costs = np.zeros((N, T))
    for done in range(0, T, T_CHUNK):
        for t, r in enumerate(_draws(gens, min(T_CHUNK, T - done)), done):
            live = np.flatnonzero(s >= 0)
            e = _step(tab, s[live], r[live])
            u_idx[live, t] = entries.u[tab.row[e]]
            v_idx[live, t] = entries.v[tab.row[e]]
            costs[live, t] = tab.cost[e]
            s[live] = tab.j[e]
            states[:, t + 1] = s
    return PathBatch(states=states, u_idx=u_idx, v_idx=v_idx, costs=costs)


def _block_exponents(tab: _Table, seed, start, T, lo, hi):
    """Cost exponents sum_t c for paths lo..hi-1, vectorized over the block."""
    gens = [_path_stream(seed, p) for p in range(lo, hi)]
    s = np.full(hi - lo, start, dtype=np.int64)
    expo = np.zeros(hi - lo)
    for done in range(0, T, T_CHUNK):
        for r in _draws(gens, min(T_CHUNK, T - done)):
            e = _step(tab, s, r)
            expo += tab.cost[e]
            s = tab.j[e]
    return expo


def _require_closed(model: GameModel):
    if not model.is_closed(CLOSED_TOL):
        raise OpenModel(f"ergodic estimates need a closed model; "
                        f"max exit mass {model.max_exit_mass():.3e}")


def _growth_estimate(tab: _Table, cfg: SimConfig) -> EstimatorReport:
    """(logsumexp of path exponents - log N) / T on the pair's table, with
    the spread over sqrt(N) contiguous path batches and the effective
    sample size of the path weights w = exp(expo - max expo)."""
    expo = np.concatenate([
        _block_exponents(tab, cfg.seed, int(cfg.start), cfg.T, lo, min(lo + BLOCK_PATHS, cfg.N))
        for lo in range(0, cfg.N, BLOCK_PATHS)])

    estimate = (logsumexp(expo) - np.log(cfg.N)) / cfg.T
    n_batches = max(1, int(np.sqrt(cfg.N)))
    size = cfg.N // n_batches
    batch_est = []
    for b in range(n_batches):
        lo = b * size
        hi = cfg.N if b == n_batches - 1 else (b + 1) * size
        batch_est.append((logsumexp(expo[lo:hi]) - np.log(hi - lo)) / cfg.T)
    batch_est = np.asarray(batch_est)
    spread = float(batch_est.std(ddof=1)) if len(batch_est) > 1 else 0.0
    w = np.exp(expo - expo.max())
    return EstimatorReport(
        estimate=float(estimate),
        spread=spread,
        diagnostics={
            "max_exponent": float(expo.max()),
            "min_exponent": float(expo.min()),
            "batches": int(n_batches),
            "batch_mean": float(batch_est.mean()),
            "shift_applied": True,
            "ess": float(w.sum() ** 2 / (w ** 2).sum()),
            "top_weight_share": float(w.max() / w.sum()),
        },
    )


def estimate_ergodic_cost(model: GameModel, pi1: StationaryStrategy,
                          pi2: StationaryStrategy, cfg: SimConfig,
                          threads: int = 1) -> EstimatorReport:
    """Plug-in estimate of the per-step multiplicative growth rate.

    estimate = (logsumexp of path exponents - log N) / T. The spread is
    the standard deviation of the same estimator over sqrt(N) contiguous
    path batches; heavy-tailed runs show up as a large spread together
    with a dominant max exponent, a small `ess` and a large
    `top_weight_share`. `threads` is accepted for compatibility and has
    no effect: the path blocks run in one thread.
    """
    pi1, pi2 = _simulated_pair(model, pi1, pi2, cfg.deviation)
    _require_closed(model)
    return _growth_estimate(_table(_entries(model), pi1, pi2), cfg)


def estimate_with_deviations(model: GameModel, pi1: StationaryStrategy,
                             pi2: StationaryStrategy, cfg: SimConfig, player: int,
                             count: int, threads: int = 1):
    """Plug-in estimates for the pair and for `count` deviations of one player.

    Returns (base, deviation estimates). Deviation k replaces `player`'s
    rule by the k-th of _deviation_strategies(model, player, count,
    cfg.seed) and runs on seed cfg.seed + k + 1; each estimate equals the
    one estimate_ergodic_cost gives for that pair and seed, but the kernel
    entries are read once for all runs. `threads` has no effect.
    """
    if player not in (1, 2):
        raise ValueError(f"deviating player must equal 1 or 2, got {player}")
    pi1, pi2 = _simulated_pair(model, pi1, pi2, cfg.deviation)
    _require_closed(model)
    entries = _entries(model)
    base = _growth_estimate(_table(entries, pi1, pi2), cfg)
    rows = []
    for k, dev in enumerate(_deviation_strategies(model, player, count, cfg.seed)):
        a, b = (dev, pi2) if player == 1 else (pi1, dev)
        _require_strategies(model, a, b)
        sub = SimConfig(T=cfg.T, N=cfg.N, seed=cfg.seed + k + 1, start=cfg.start)
        rows.append(_growth_estimate(_table(entries, a, b), sub))
    return base, rows


# ---------------------------------------------------------------------------
# saddle verification


@dataclass
class SaddleVerdict:
    passed: bool
    rho_star: float
    selector_estimate: EstimatorReport
    deviations: list
    equality_ok: bool
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "rho_star": float(self.rho_star),
            "selector_estimate": self.selector_estimate.to_dict(),
            "equality_ok": self.equality_ok,
            "deviations": self.deviations,
            "warnings": self.warnings,
        }


def _pure_strategy_count(model: GameModel, player: int) -> float:
    total = 1.0
    for i in range(model.n_states):
        total *= model.n_actions(i)[player - 1]
        if total > 1e6:
            break
    return total


def _deviation_strategies(model: GameModel, player: int, count: int, seed: int):
    """Pure strategies when few enough, else per-state Dirichlet mixtures.

    A player with singleton action sets everywhere has nothing to deviate
    to; the empty list makes that player's checks vacuous.
    """
    out = []
    n = model.n_states
    sizes = [model.n_actions(i)[player - 1] for i in range(n)]
    if all(m == 1 for m in sizes):
        return out
    if _pure_strategy_count(model, player) <= count:
        def rec(i, acc):
            if i == n:
                out.append(StationaryStrategy.pure(model, player, list(acc)))
                return
            for a in range(sizes[i]):
                rec(i + 1, acc + [a])
        rec(0, [])
        return [s for s in out]
    rng = np.random.default_rng(np.uint64(seed) + np.uint64(7919 * player))
    for _ in range(count):
        ws = [rng.dirichlet(np.ones(m)) for m in sizes]
        out.append(StationaryStrategy(ws))
    return out


def _pair_kernel(entries: _Entries, pi1: StationaryStrategy, pi2: StationaryStrategy):
    """Cost c(i) averaged over the pair's mixed actions, and the pair's
    table, whose slot weights compose the kernel: P(j|i) is the weight of
    state i's slots with next state j."""
    cbar = np.bincount(entries.state, weights=_row_weights(entries, pi1, pi2) * entries.cost,
                       minlength=len(pi1.weights))
    return cbar, _table(entries, pi1, pi2)


def _extend_log_psi(report: SolveReport, cbar, tab: _Table):
    """log psi* on the final domain, extended off it by the pair's equation.

    psi(i) <- exp(cbar(i) - rho*) (Pbar psi)(i) for every state without a
    finite value on the domain, in at most n Jacobi sweeps (enough for
    positivity to spread along every path into the domain), each one
    segment log-sum-exp over those states' slots. States that cannot
    reach a positive value stay at -inf.
    """
    n = len(cbar)
    src = np.asarray(report.log_psi_star, dtype=float)
    dom = np.asarray(report.domain, dtype=int)
    log_psi = np.full(n, -np.inf)
    log_psi[dom] = src[dom]
    free = np.flatnonzero(~np.isfinite(log_psi))
    if free.size:
        at, _ = concat_ranges(tab.lo[free], tab.lo[free] + tab.size[free])
        log_w, j = np.log(tab.weight[at]), tab.j[at]
        base = cbar[free] - report.rho_star
        for _ in range(n):
            new = base + segment_logsumexp(log_w + log_psi[j], tab.size[free])
            if np.array_equal(new, log_psi[free]):
                break
            log_psi[free] = new
    return log_psi


def _reachable(tab: _Table, start: int) -> np.ndarray:
    """The states a closed model's table reaches from `start`, one frontier
    of states at a time, so each slot is read at most once."""
    seen = np.zeros(len(tab.size), dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        at, _ = concat_ranges(tab.lo[frontier], tab.lo[frontier] + tab.size[frontier])
        frontier = np.unique(tab.j[at])
        frontier = frontier[~seen[frontier]]
        seen[frontier] = True
    return seen


def verify_saddle(model: GameModel, report: SolveReport, cfg: SimConfig,
                  deviations: int = 4, threads: int = 1) -> SaddleVerdict:
    """Simulation check of the equilibrium property of the solved pair.

    Every run estimates the psi*-weighted growth rate Lambda_T (module
    docstring) by importance sampling under the psi*-tilted kernel, for
    the selector pair and for stationary deviations of each player (every
    pure strategy when the count permits, Dirichlet-random mixtures
    otherwise). psi* is extended off the final domain by the selector
    pair's own equation. PASS requires the selector-pair estimate to
    match rho_star within 3 spreads plus BAND_FLOOR, no player-2 deviation
    to earn more than rho_star + 3 spreads + BAND_FLOOR, and no player-1
    deviation to pay less than rho_star - 3 spreads - BAND_FLOOR; each
    comparison uses its own run's spread. A run that can reach a state
    where the extended psi* is still zero cannot be weighted: it fails,
    and a warning names those states. Deviation runs draw fresh seeds
    derived from cfg.seed. `threads` is accepted for compatibility and
    has no effect.
    """
    pi1, pi2 = report.selectors
    rho = report.rho_star
    _require_strategies(model, pi1, pi2)
    _require_closed(model)
    plain = _entries(model)
    log_psi = _extend_log_psi(report, *_pair_kernel(plain, pi1, pi2))
    tilted = _entries(model, log_psi)
    zero = ~np.isfinite(log_psi)
    start = int(cfg.start)
    warnings = []

    def weighted(label, a, b, run):
        """The run's estimate, and False when it can reach a zero of psi."""
        covered = True
        if zero.any():
            hit = np.flatnonzero(zero & _reachable(_table(plain, a, b), start))
            if hit.size:
                covered = False
                warnings.append(f"{label}: states {hit.tolist()} are reachable from "
                                f"state {start} but psi* is zero there, so their paths "
                                "cannot be weighted")
        sub = SimConfig(T=cfg.T, N=cfg.N, seed=cfg.seed + run, start=start)
        return covered, _growth_estimate(_table(tilted, a, b), sub)

    covered, base = weighted("selector pair", pi1, pi2, 0)
    equality_ok = covered and abs(base.estimate - rho) <= 3.0 * base.spread + BAND_FLOOR
    results = []
    passed = equality_ok
    run = 0
    for player in (1, 2):
        for dev in _deviation_strategies(model, player, deviations, cfg.seed):
            run += 1
            a, b = (dev, pi2) if player == 1 else (pi1, dev)
            _require_strategies(model, a, b)
            covered, est = weighted(f"player {player} deviation {run}", a, b, run)
            if player == 1:
                ok = covered and est.estimate >= rho - 3.0 * est.spread - BAND_FLOOR
            else:
                ok = covered and est.estimate <= rho + 3.0 * est.spread + BAND_FLOOR
            passed = passed and ok
            results.append({
                "player": player,
                "estimate": float(est.estimate),
                "spread": float(est.spread),
                "ok": bool(ok),
            })
    return SaddleVerdict(
        passed=bool(passed),
        rho_star=float(rho),
        selector_estimate=base,
        deviations=results,
        equality_ok=bool(equality_ok),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# stochastic representation of the eigenfunction


@dataclass
class RepresentationVerdict:
    passed: bool
    inconclusive: bool
    per_start: list
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "inconclusive": self.inconclusive,
                "per_start": self.per_start, "warnings": self.warnings}


def _hitting_terms(tab: _Table, log_psi, rho, target_mask, seed, start, N, cap):
    """Per-path log of exp(sum_{t<tau} (c - rho)) * psi(X_tau); NaN when capped.

    Paths run in blocks of BLOCK_PATHS; the live paths of a block step
    together and leave the live set on entering the target. Draw chunks
    grow geometrically from 4 rows up to T_CHUNK, so the common
    fast-hitting paths cost a handful of uniforms while the buffer of a
    long-lived block stays bounded. Returns the terms and the number of
    capped paths.
    """
    out = np.full(N, np.nan)
    capped = 0
    for lo in range(0, N, BLOCK_PATHS):
        gens = [_path_stream(seed, p) for p in range(lo, min(lo + BLOCK_PATHS, N))]
        live = np.arange(len(gens))
        s = np.full(len(gens), start, dtype=np.int64)
        acc = np.zeros(len(gens))
        steps, chunk = 0, 4
        while live.size and steps < cap:
            draws = _draws([gens[k] for k in live], min(chunk, cap - steps))
            cols = np.arange(live.size)
            for r in draws:
                e = _step(tab, s, r[cols])
                acc += tab.cost[e] - rho
                s = tab.j[e]
                steps += 1
                hit = target_mask[s]
                if hit.any():
                    out[lo + live[hit]] = acc[hit] + log_psi[s[hit]]
                    keep = ~hit
                    live, cols, s, acc = live[keep], cols[keep], s[keep], acc[keep]
                    if not live.size:
                        break
            chunk = min(chunk * 8, T_CHUNK)
        capped += live.size
    return out, capped


def verify_stochastic_representation(model: GameModel, report: SolveReport,
                                     target_set, cfg: SimConfig) -> RepresentationVerdict:
    """Check psi(i) = E[exp(sum_{t<tau} (c - rho)) psi(X_tau)] by simulation.

    tau is the first entry time into the target set, paths run under the
    selector pair from each requested start state outside the set. Paths
    that exceed cfg.hitting_cap are dropped and counted; more than 1% of
    them makes the verdict INCONCLUSIVE rather than a pass or fail.
    """
    pi1, pi2 = report.selectors
    rho = report.rho_star
    log_psi = np.asarray(report.log_psi_star, dtype=float)
    target = sorted(set(int(b) for b in target_set))
    mask = np.zeros(model.n_states, dtype=bool)
    mask[target] = True
    if not model.is_closed(CLOSED_TOL):
        raise OpenModel("representation checks need a closed model")
    for b in target:
        if not np.isfinite(log_psi[b]):
            raise ValueError(f"target state {b} lies outside the solved support")
    starts = cfg.start if isinstance(cfg.start, (list, tuple, np.ndarray)) else [cfg.start]
    warnings = []
    if model.lyapunov is not None and not set(model.lyapunov.K.tolist()) <= set(target):
        # hitting-time integrability is only guaranteed for supersets of the
        # declared exception set; smaller targets are still checkable
        warnings.append("target set does not contain the declared exception set")
    tab = _table(_entries(model), pi1, pi2)

    per_start = []
    all_pass = True
    any_inconclusive = False
    for idx, s0 in enumerate(starts):
        s0 = int(s0)
        if mask[s0]:
            raise ValueError(f"start state {s0} is inside the target set")
        terms, capped = _hitting_terms(tab, log_psi, rho, mask, cfg.seed + 104729 * idx, s0,
                                       cfg.N, cfg.hitting_cap)
        good = terms[~np.isnan(terms)]
        frac_capped = capped / cfg.N
        estimate = float(np.exp(logsumexp(good) - np.log(len(good)))) if len(good) else np.nan
        n_batches = max(1, int(np.sqrt(len(good))))
        size = max(1, len(good) // n_batches)
        batch_est = []
        for b in range(n_batches):
            lo = b * size
            hi = len(good) if b == n_batches - 1 else (b + 1) * size
            if hi > lo:
                batch_est.append(float(np.exp(logsumexp(good[lo:hi]) - np.log(hi - lo))))
        spread = float(np.std(batch_est, ddof=1)) if len(batch_est) > 1 else 0.0
        psi_i = float(np.exp(log_psi[s0]))
        inconclusive = frac_capped > 0.01
        ok = (not inconclusive) and abs(estimate - psi_i) <= 3.0 * spread
        all_pass = all_pass and ok
        any_inconclusive = any_inconclusive or inconclusive
        per_start.append({
            "start": s0,
            "estimate": estimate,
            "psi": psi_i,
            "spread": spread,
            "capped_fraction": frac_capped,
            "ok": bool(ok),
            "inconclusive": bool(inconclusive),
        })
    return RepresentationVerdict(
        passed=bool(all_pass and not any_inconclusive),
        inconclusive=bool(any_inconclusive),
        per_start=per_start,
        warnings=warnings,
    )
