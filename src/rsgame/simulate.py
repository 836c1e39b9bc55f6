"""Path simulation and statistical verification of solved games.

Sampling follows the game's path law: at each step the players draw
actions independently from their mixed rules, then the chain draws the
next state. Randomness is counter-based: path k of a run seeded s uses
its own Philox stream keyed (s, k), so results are bit-identical however
paths are batched or threaded, and aggregation reduces in fixed path
order.

The ergodic-cost estimator is the plug-in form of the multiplicative
criterion: (1/T) log[(1/N) sum_paths exp(sum_t c)] via log-sum-exp. Its
sampling distribution is heavy tailed, so the uncertainty proxy reported
is the spread (standard deviation) of sqrt(N) batch-mean estimates, not a
Gaussian stderr, together with the largest path exponent seen.

Saddle verification estimates the psi-weighted growth rate
Lambda_T = (1/T) log E_x0[exp(sum_{t<T} c) psi(X_T) / psi(x0)] with the
solve's own eigenfunction psi*, by importance sampling under the
exponential change of measure that draws each next state with
probability proportional to P(j|i,u,v) psi(j) (Asmussen & Glynn,
Stochastic Simulation, 2007, ch. VI). The likelihood ratio telescopes
into the per-step log weight c + log sum_j P psi - log psi(i), so the
same path kernel runs on a different cost table and alias table; the
plug-in estimator is the case psi = 1. When (rho*, psi*) solves the
equation for the simulated pair, Lambda_T = rho* at every T; for any
positive psi, Lambda_T tends to the pair's criterion, so a wrong rho*
is still caught.

Each path step reads one uniform triple from the path's stream. Actions
are drawn by inverse CDF: the action index is the number of cumulative
weights at or below the uniform. The estimators draw the next state from
alias tables (Walker 1977; Vose 1991), built for every (i, u, v) row in
one lockstep pass, so a step costs O(1) whatever the window. Path batches
and hitting-time paths take one inverse-CDF step, _step_block, for the
next state too. Every sampler steps all live paths of a block together
and reads each path's uniforms from its stream in chunks of at most
T_CHUNK rows, transposed to one (3, paths) slice per step; the streams
are continuous, so the chunking changes no value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import logsumexp, map_ordered
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


def _padded_tables(model: GameModel):
    """Cumulative next-state rows (padded slots all ones) and costs,
    filled state by state from the kernel's dense rows."""
    n = model.n_states
    mu_max = max(model.n_actions(i)[0] for i in range(n))
    mv_max = max(model.n_actions(i)[1] for i in range(n))
    cum_next = np.ones((n, mu_max, mv_max, n))
    cost = np.zeros((n, mu_max, mv_max))
    for i in range(n):
        mu, mv = model.n_actions(i)
        cum_next[i, :mu, :mv] = np.cumsum(model.dense_transition(i), axis=2)
        cost[i, :mu, :mv] = model.cost[i]
    return cum_next, cost


def _alias_rows(rows):
    """Walker/Vose alias tables for every row of `rows`, each renormalized.

    Vose's algorithm runs on all rows in lockstep. A row's small and large
    stacks share one index array: small ones grow from the left, large ones
    from the right, both seeded in ascending index order with the top at
    the largest index. Each iteration pops both tops of every row that
    still has both stacks, with the float operations of the one-row
    algorithm, so each row's table is bit-identical to building it alone.
    A row whose entries all sit on one side (a uniform row) keeps prob 1
    and alias 0; at most n - 1 iterations run.
    """
    R, n = rows.shape
    scaled = (rows / rows.sum(axis=1, keepdims=True)) * n
    prob = np.ones((R, n))
    alias = np.zeros((R, n), dtype=np.int64)
    col = np.arange(n)
    small = scaled < 1.0
    stack = np.argsort(np.where(small, col, 2 * n - col), axis=1)
    n_small = small.sum(axis=1)
    n_large = n - n_small
    live = np.flatnonzero((n_small > 0) & (n_large > 0))
    while live.size:
        s = stack[live, n_small[live] - 1]
        g = stack[live, n - n_large[live]]
        n_small[live] -= 1
        n_large[live] -= 1
        p_s = scaled[live, s]
        prob[live, s] = p_s
        alias[live, s] = g
        p_g = scaled[live, g] - (1.0 - p_s)
        scaled[live, g] = p_g
        to_small = p_g < 1.0
        rs = live[to_small]
        stack[rs, n_small[rs]] = g[to_small]
        n_small[rs] += 1
        rl = live[~to_small]
        n_large[rl] += 1
        stack[rl, n - n_large[rl]] = g[~to_small]
        live = live[(n_small[live] > 0) & (n_large[live] > 0)]
    return prob, alias


def _step_tables(model: GameModel, log_psi=None):
    """Per-step cost table and O(1)-per-draw next-state alias tables.

    Without log_psi these are the path law's own cost c and kernel P.
    With a log eigenfunction they are its psi-tilted version: next states
    are drawn with probability P(j|i,u,v) psi(j) / (P psi)(i,u,v), and
    the per-step log weight is c + log (P psi)(i,u,v) - log psi(i). Rows
    with psi(i) = 0 or (P psi) = 0 keep the untilted entries; a run that
    can reach them is refused by its caller.

    One uniform splits into a column pick and an accept fraction; the hot
    simulation loop then runs without any window-width gathers. The rows
    are filled state by state from model.dense_transition(i), so the
    tables hold the values a dense kernel would give, bit for bit.
    """
    n = model.n_states
    mu_max = max(model.n_actions(i)[0] for i in range(n))
    mv_max = max(model.n_actions(i)[1] for i in range(n))
    cost = np.zeros((n, mu_max, mv_max))
    # padded (u, v) slots get uniform rows, whose tables stay prob 1, alias 0
    rows = np.ones((n, mu_max, mv_max, n))
    for i in range(n):
        mu, mv = model.n_actions(i)
        rows_i = model.dense_transition(i)
        cost[i, :mu, :mv] = model.cost[i]
        if log_psi is not None and np.isfinite(log_psi[i]):
            with np.errstate(divide="ignore"):
                tilted = np.log(rows_i) + log_psi
            log_mass = logsumexp(tilted, axis=2)
            ok = np.isfinite(log_mass)
            shift = np.where(ok, log_mass, 0.0)[..., None]
            rows_i = np.where(ok[..., None], np.exp(tilted - shift), rows_i)
            cost[i, :mu, :mv] += np.where(ok, log_mass - log_psi[i], 0.0)
        rows[i, :mu, :mv] = rows_i
    return cost, _alias_rows(rows.reshape(-1, n))


def _strategy_cum(model: GameModel, strategy: StationaryStrategy, player: int):
    """Cumulative action weights as an (m_max, n) table, padded with ones:
    row k holds every state's weight of actions 0..k."""
    n = model.n_states
    m_max = max(model.n_actions(i)[player - 1] for i in range(n))
    cum = np.ones((m_max, n))
    for i in range(n):
        w = strategy.weights[i]
        cum[: len(w), i] = np.cumsum(w)
    return cum


def _path_stream(seed: int, path_index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(path_index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(gens, rows):
    """The next `rows` uniform triples of every stream, as a contiguous
    (rows, 3, len(gens)) array: one (3, paths) slice per step."""
    buf = np.empty((len(gens), rows, 3))
    for k, g in enumerate(gens):
        g.random(out=buf[k])
    return np.ascontiguousarray(buf.transpose(1, 2, 0))


def _pick(cum, states, r):
    """Inverse-CDF action for every path: how many of its state's cumulative
    weights lie at or below its uniform, counted one column at a time."""
    k = (cum[0][states] <= r).astype(np.int64)
    for column in cum[1:]:
        k += column[states] <= r
    return k


def _step_block(states, r, cum1, cum2, cum_next, cost_tab, closed):
    """One inverse-CDF step for a block of live paths; returns (u, v, j, cost).

    r holds one uniform triple per path as rows (u draw, v draw, next-state
    draw). An open model's j equals n when the draw falls in the exit mass.
    """
    u = _pick(cum1, states, r[0])
    v = _pick(cum2, states, r[1])
    rows = cum_next[states, u, v]  # (B, n)
    j = (rows <= r[2][:, None]).sum(axis=1)
    c = cost_tab[states, u, v]
    if closed:
        j = np.minimum(j, rows.shape[1] - 1)
    return u, v, j, c


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
    closed = model.is_closed(CLOSED_TOL)
    if not closed and not cfg.allow_absorption:
        raise OpenModel(f"max exit mass {model.max_exit_mass():.3e}; "
                        "pass allow_absorption=True to park exited paths")
    n = model.n_states
    cum_next, cost_tab = _padded_tables(model)
    cum1 = _strategy_cum(model, pi1, 1)
    cum2 = _strategy_cum(model, pi2, 2)
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
            u, v, j, c = _step_block(s[live], r[:, live], cum1, cum2, cum_next,
                                     cost_tab, closed)
            u_idx[live, t] = u
            v_idx[live, t] = v
            costs[live, t] = c
            s[live] = np.where(j < n, j, -1)
            states[:, t + 1] = s
    return PathBatch(states=states, u_idx=u_idx, v_idx=v_idx, costs=costs)


def _block_exponents(cum1, cum2, tables, cost_tab, seed, start, T, lo, hi):
    """Cost exponents sum_t c for paths lo..hi-1, vectorized over the block.

    Next states come from alias tables, so every step is O(block)
    regardless of the window size; prob and alias are read through one
    flat offset per path.
    """
    n = tables[0].shape[-1]
    prob, alias = (tab.ravel() for tab in tables)
    _, mu_max, mv_max = cost_tab.shape
    flat_cost = cost_tab.ravel()
    gens = [_path_stream(seed, p) for p in range(lo, hi)]
    s = np.full(hi - lo, start, dtype=np.int64)
    expo = np.zeros(hi - lo)
    for done in range(0, T, T_CHUNK):
        for r in _draws(gens, min(T_CHUNK, T - done)):
            u = _pick(cum1, s, r[0])
            v = _pick(cum2, s, r[1])
            flat = (s * mu_max + u) * mv_max + v
            expo += flat_cost[flat]
            scaled = r[2] * n
            k_col = np.minimum(scaled.astype(np.int64), n - 1)
            at = flat * n + k_col
            s = np.where(scaled - k_col < prob[at], k_col, alias[at])
    return expo


def _require_closed(model: GameModel):
    if not model.is_closed(CLOSED_TOL):
        raise OpenModel(f"ergodic estimates need a closed model; "
                        f"max exit mass {model.max_exit_mass():.3e}")


def _growth_estimate(model, pi1, pi2, cfg, tables, threads) -> EstimatorReport:
    """(logsumexp of path exponents - log N) / T on the given step tables,
    with the spread over sqrt(N) contiguous path batches."""
    cost_tab, alias = tables
    cum1 = _strategy_cum(model, pi1, 1)
    cum2 = _strategy_cum(model, pi2, 2)
    start = int(cfg.start)

    blocks = [(lo, min(lo + BLOCK_PATHS, cfg.N)) for lo in range(0, cfg.N, BLOCK_PATHS)]
    parts = map_ordered(
        lambda b: _block_exponents(cum1, cum2, alias, cost_tab,
                                   cfg.seed, start, cfg.T, b[0], b[1]),
        blocks, threads=threads)
    expo = np.concatenate(parts)

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
    return EstimatorReport(
        estimate=float(estimate),
        spread=spread,
        diagnostics={
            "max_exponent": float(expo.max()),
            "min_exponent": float(expo.min()),
            "batches": int(n_batches),
            "batch_mean": float(batch_est.mean()),
            "shift_applied": True,
        },
    )


def estimate_ergodic_cost(model: GameModel, pi1: StationaryStrategy,
                          pi2: StationaryStrategy, cfg: SimConfig,
                          threads: int = 1) -> EstimatorReport:
    """Plug-in estimate of the per-step multiplicative growth rate.

    estimate = (logsumexp of path exponents - log N) / T. The spread is
    the standard deviation of the same estimator over sqrt(N) contiguous
    path batches; heavy-tailed runs show up as a large spread together
    with a dominant max exponent.
    """
    pi1, pi2 = _simulated_pair(model, pi1, pi2, cfg.deviation)
    _require_closed(model)
    return _growth_estimate(model, pi1, pi2, cfg, _step_tables(model), threads)


def estimate_with_deviations(model: GameModel, pi1: StationaryStrategy,
                             pi2: StationaryStrategy, cfg: SimConfig, player: int,
                             count: int, threads: int = 1):
    """Plug-in estimates for the pair and for `count` deviations of one player.

    Returns (base, deviation estimates). Deviation k replaces `player`'s
    rule by the k-th of _deviation_strategies(model, player, count,
    cfg.seed) and runs on seed cfg.seed + k + 1; each estimate equals the
    one estimate_ergodic_cost gives for that pair and seed, but the step
    tables are built once for all runs.
    """
    if player not in (1, 2):
        raise ValueError(f"deviating player must equal 1 or 2, got {player}")
    pi1, pi2 = _simulated_pair(model, pi1, pi2, cfg.deviation)
    _require_closed(model)
    tables = _step_tables(model)
    base = _growth_estimate(model, pi1, pi2, cfg, tables, threads)
    rows = []
    for k, dev in enumerate(_deviation_strategies(model, player, count, cfg.seed)):
        a, b = (dev, pi2) if player == 1 else (pi1, dev)
        _require_strategies(model, a, b)
        sub = SimConfig(T=cfg.T, N=cfg.N, seed=cfg.seed + k + 1, start=cfg.start)
        rows.append(_growth_estimate(model, a, b, sub, tables, threads))
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


def _pair_kernel(model: GameModel, pi1: StationaryStrategy, pi2: StationaryStrategy):
    """Cost c(i) and kernel P(.|i) averaged over the pair's mixed actions."""
    n = model.n_states
    cbar = np.empty(n)
    pbar = np.empty((n, n))
    for i in range(n):
        mu, nu = pi1.weights[i], pi2.weights[i]
        cbar[i] = mu @ model.cost[i] @ nu
        pbar[i] = np.einsum("u,v,uvj->j", mu, nu, model.dense_transition(i))
    return cbar, pbar


def _extend_log_psi(report: SolveReport, cbar, pbar):
    """log psi* on the final domain, extended off it by the pair's equation.

    psi(i) <- exp(cbar(i) - rho*) (Pbar psi)(i) for every state without a
    finite value on the domain, in at most n Jacobi sweeps (enough for
    positivity to spread along every path into the domain). States that
    cannot reach a positive value stay at -inf.
    """
    n = len(cbar)
    src = np.asarray(report.log_psi_star, dtype=float)
    dom = np.asarray(report.domain, dtype=int)
    log_psi = np.full(n, -np.inf)
    log_psi[dom] = src[dom]
    free = ~np.isfinite(log_psi)
    if free.any():
        with np.errstate(divide="ignore"):
            log_p = np.log(pbar[free])
        base = cbar[free] - report.rho_star
        for _ in range(n):
            new = base + logsumexp(log_p + log_psi, axis=1)
            if np.array_equal(new, log_psi[free]):
                break
            log_psi[free] = new
    return log_psi


def _reachable(pbar, start: int) -> np.ndarray:
    seen = np.zeros(len(pbar), dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = (pbar[frontier] > 0).any(axis=0) & ~seen
        seen |= frontier
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
    derived from cfg.seed.
    """
    pi1, pi2 = report.selectors
    rho = report.rho_star
    _require_strategies(model, pi1, pi2)
    _require_closed(model)
    cbar, pbar = _pair_kernel(model, pi1, pi2)
    log_psi = _extend_log_psi(report, cbar, pbar)
    tables = _step_tables(model, log_psi)
    zero = ~np.isfinite(log_psi)
    start = int(cfg.start)
    warnings = []

    def weighted(label, a, b, run):
        """The run's estimate, and False when it can reach a zero of psi."""
        covered = True
        if zero.any():
            hit = np.flatnonzero(zero & _reachable(_pair_kernel(model, a, b)[1], start))
            if hit.size:
                covered = False
                warnings.append(f"{label}: states {hit.tolist()} are reachable from "
                                f"state {start} but psi* is zero there, so their paths "
                                "cannot be weighted")
        sub = SimConfig(T=cfg.T, N=cfg.N, seed=cfg.seed + run, start=start)
        return covered, _growth_estimate(model, a, b, sub, tables, threads)

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


def _hitting_terms(cum1, cum2, cum_next, cost_tab, log_psi, rho, target_mask,
                   seed, start, N, cap):
    """Per-path log of exp(sum_{t<tau} (c - rho)) * psi(X_tau); NaN when capped.

    Paths run in blocks of BLOCK_PATHS; the live paths of a block step
    together through _step_block and leave the live set on entering the
    target. Draw chunks grow geometrically from 4 rows up to T_CHUNK, so
    the common fast-hitting paths cost a handful of uniforms while the
    buffer of a long-lived block stays bounded. Returns the terms and the
    number of capped paths.
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
                _, _, s, c = _step_block(s, r[:, cols], cum1, cum2, cum_next, cost_tab, True)
                acc += c - rho
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
    them makes the verdict INCONCLUSIVE rather than a pass or fail. The
    hitting blocks run in one thread.
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
    cum_next, cost_tab = _padded_tables(model)
    cum1 = _strategy_cum(model, pi1, 1)
    cum2 = _strategy_cum(model, pi2, 2)

    per_start = []
    all_pass = True
    any_inconclusive = False
    for idx, s0 in enumerate(starts):
        s0 = int(s0)
        if mask[s0]:
            raise ValueError(f"start state {s0} is inside the target set")
        terms, capped = _hitting_terms(
            cum1, cum2, cum_next, cost_tab, log_psi, rho, mask,
            cfg.seed + 104729 * idx, s0, cfg.N, cfg.hitting_cap)
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
