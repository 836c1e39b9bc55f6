"""Path simulation and statistical verification of solved games.

Sampling follows the game's path law: at each step the players draw
actions independently from their mixed rules, then the chain draws the
next state. Randomness is counter-based (Salmon et al., SC'11): the
uniform of path k at step t of a run seeded s is value k % 4 of numpy's
Philox stream with key (s mod 2^64, 0) and counter (k // 4, t, 0, 0), a
pure function of (s, k, t). Results are therefore bit-identical however
paths are blocked or stepped, and aggregation reduces in fixed path order.

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

Each path step reads one uniform and makes one alias pick (Walker 1977;
Vose 1991) in its state's table over the pair's joint (u, v, j) law: the
kernel entry of row (i, u, v) with next state j has weight
mu_i(u) nu_i(v) P(j|i,u,v) and carries the row's step cost. That is the
law of drawing both actions independently and then the next state, so a
step costs O(1) whatever the window or the action sets. The tables hold
one slot per kernel entry the pair can draw, so they are built in time
and memory O(nnz). The pair's table (its slots, plus the mean cost
cbar(i) = mu_i' C_i nu_i of each state) is the simulator's one reader of
the kernel: every run builds its own, plain or psi-tilted. A model whose
mass can leave the window is refused (OpenModel), so the entries of every
row carry its whole mass. Every sampler steps all live paths of a block
together, and one Philox call per step draws the uniforms of the whole
block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import concat_ranges, logsumexp, reachable, segment_logsumexp
from .model import GameModel, StationaryStrategy
from .solver import SolveReport

BLOCK_PATHS = 4096
HITTING_CAP = 10**6
# fixed part of every saddle-verification band: the residual tolerance each
# solve is held to, which bounds how far rho* may sit from the exact value
BAND_FLOOR = 1e-6


class OpenModel(RuntimeError):
    """Probability mass can leave the window, so paths cannot be sampled."""


@dataclass
class SimConfig:
    T: int
    N: int
    seed: int = 0
    start: object = 0  # state index, or a sequence of them where supported

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
    states: np.ndarray  # (N, T+1)
    u_idx: np.ndarray   # (N, T)
    v_idx: np.ndarray   # (N, T)
    costs: np.ndarray   # (N, T)

    def to_csv(self) -> str:
        """One line per path-step, path after path."""
        N, T = self.costs.shape
        path, step = np.divmod(np.arange(N * T), T)
        columns = map(_repr_each, (path, step, self.states[:, :T].ravel(), self.u_idx.ravel(),
                                   self.v_idx.ravel(), self.costs.ravel()))
        return "\n".join(["path,step,state,u,v,cost", *map(",".join, zip(*columns))]) + "\n"


def _repr_each(a: np.ndarray):
    """repr of each entry of the 1-D array a as the Python int or float it
    holds, computed once per distinct value: per bit pattern for floats, so
    that -0.0 and 0.0 stay apart."""
    keys, at = np.unique(a.view(np.int64) if a.dtype == np.float64 else a, return_inverse=True)
    names = list(map(repr, keys.view(a.dtype).tolist()))
    return map(names.__getitem__, at.tolist())


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
class _Table:
    """One pair's sampling table: state i's slots lie at lo[i]:lo[i] + size[i],
    one per entry of positive weight, with that weight, its alias pair,
    kernel row, next state and step cost; and cbar, the pair's untilted
    mean cost mu_i' C_i nu_i of each state."""

    lo: np.ndarray
    size: np.ndarray
    weight: np.ndarray
    prob: np.ndarray
    alias: np.ndarray
    row: np.ndarray
    j: np.ndarray
    cost: np.ndarray
    cbar: np.ndarray


def _table(model: GameModel, pi1: StationaryStrategy, pi2: StationaryStrategy,
           log_psi=None) -> _Table:
    """The pair's alias tables, one per state, over its kernel entries of
    positive weight mu_i(u) nu_i(v) P(j|i,u,v): time and memory O(nnz).

    Without log_psi the slots carry the path law's own kernel P and cost c.
    With a log eigenfunction they carry its psi-tilted version: entry j of
    row (i, u, v) gets P(j|i,u,v) psi(j) / (P psi)(i,u,v) and the row's
    step cost is c + log (P psi)(i,u,v) - log psi(i), with log (P psi) from
    GameModel.inner_log_sums. Rows with psi(i) = 0 or (P psi) = 0 keep the
    untilted entries; a run that can reach them is refused by its caller.
    cbar is untilted either way.
    """
    k = model.csr
    state, u, v = model.row_actions()
    mu_at, nu_at = (np.cumsum(pi.sizes) - pi.sizes for pi in (pi1, pi2))
    row_weight = pi1.flat[mu_at[state] + u] * pi2.flat[nu_at[state] + v]
    cbar = np.bincount(state, weights=row_weight * model.row_cost, minlength=model.n_states)
    row, j, p, cost = k.entry_rows(), k.indices, k.prob, model.row_cost
    if log_psi is not None:
        log_mass = model.inner_log_sums(np.arange(model.n_states), log_psi)
        tilt = np.isfinite(log_psi[state]) & np.isfinite(log_mass)
        at = np.flatnonzero(tilt[row])
        p, cost = p.copy(), cost.copy()
        p[at] = np.exp(k.log_prob[at] + log_psi[j[at]] - log_mass[row[at]])
        cost[tilt] += log_mass[tilt] - log_psi[state[tilt]]
    w = row_weight[row] * p
    keep = np.flatnonzero(w > 0)
    row = row[keep]
    size = np.bincount(state[row], minlength=model.n_states)
    prob, alias = _alias_rows(w[keep], size)
    return _Table(lo=np.cumsum(size) - size, size=size, weight=w[keep], prob=prob, alias=alias,
                  row=row, j=j[keep], cost=cost[row], cbar=cbar)


def _step(tab: _Table, s, r):
    """The slot each path draws from its state's table with its uniform r:
    one alias pick, r * size split into a slot and an accept fraction."""
    size = tab.size[s]
    scaled = r * size
    k = np.minimum(scaled.astype(np.int64), size - 1)
    e = tab.lo[s] + k
    return np.where(scaled - k < tab.prob[e], e, tab.alias[e])


class _Uniforms:
    """The counter-keyed uniforms of a run seeded `seed` (module docstring)."""

    def __init__(self, seed: int):
        key = (seed & (2**64 - 1), 0)
        self._gen = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
        self._state = {"bit_generator": "Philox", "state": {"counter": None, "key": key},
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def row(self, t: int, lo: int, hi: int) -> np.ndarray:
        """The uniforms of paths lo..hi-1 at step t: one Philox call from an
        empty buffer at the counter of path lo - lo % 4, i.e. from its lane 0."""
        base = lo - lo % 4
        self._state["state"]["counter"] = (base // 4, t, 0, 0)
        self._gen.bit_generator.state = self._state
        return self._gen.random(hi - base)[lo - base:]


def _require(model: GameModel, pi1: StationaryStrategy, pi2: StationaryStrategy, states):
    """The input check of every entry point: both strategies valid for the
    model, every start or target state in 0..n-1 and no mass leaving the
    window."""
    problems = pi1.validate_for(model, 1) + pi2.validate_for(model, 2)
    if problems:
        raise ValueError(f"invalid strategies: {problems}")
    outside = [s for s in map(int, states) if not 0 <= s < model.n_states]
    if outside:
        raise ValueError(f"states {outside} lie outside the window 0..{model.n_states - 1}")
    if not model.is_closed():
        raise OpenModel(f"max exit mass {model.max_exit_mass():.3e} leaves the window; "
                        "paths are sampled on a closed model only")


def simulate_paths(model: GameModel, pi1: StationaryStrategy, pi2: StationaryStrategy,
                   cfg: SimConfig) -> PathBatch:
    """Materialize N full trajectories (memory scales with N*T)."""
    _require(model, pi1, pi2, [cfg.start])
    tab = _table(model, pi1, pi2)
    _, u, v = model.row_actions()
    N, T = cfg.N, cfg.T
    draws = _Uniforms(cfg.seed)

    s = np.full(N, int(cfg.start), dtype=np.int64)
    states = np.empty((N, T + 1), dtype=np.int32)
    states[:, 0] = s
    u_idx = np.empty((N, T), dtype=np.int32)
    v_idx = np.empty((N, T), dtype=np.int32)
    costs = np.empty((N, T))
    for t in range(T):
        e = _step(tab, s, draws.row(t, 0, N))
        u_idx[:, t] = u[tab.row[e]]
        v_idx[:, t] = v[tab.row[e]]
        costs[:, t] = tab.cost[e]
        s = tab.j[e]
        states[:, t + 1] = s
    return PathBatch(states=states, u_idx=u_idx, v_idx=v_idx, costs=costs)


def _block_exponents(tab: _Table, seed, start, T, lo, hi):
    """Cost exponents sum_t c for paths lo..hi-1, vectorized over the block."""
    draws = _Uniforms(seed)
    s = np.full(hi - lo, start, dtype=np.int64)
    expo = np.zeros(hi - lo)
    for t in range(T):
        e = _step(tab, s, draws.row(t, lo, hi))
        expo += tab.cost[e]
        s = tab.j[e]
    return expo


def _batch_log_means(terms) -> np.ndarray:
    """log of the mean of exp(terms) over floor(sqrt(n)) contiguous batches
    of the n terms, the last batch taking the remainder; empty for n = 0."""
    n = len(terms)
    n_batches = int(np.sqrt(n))
    ends = [b * (n // max(1, n_batches)) for b in range(n_batches)] + [n]
    return np.array([logsumexp(terms[lo:hi]) - np.log(hi - lo)
                     for lo, hi in zip(ends, ends[1:])])


def _growth_estimate(tab: _Table, cfg: SimConfig) -> EstimatorReport:
    """(logsumexp of path exponents - log N) / T on the pair's table, with
    the spread over sqrt(N) contiguous path batches and the effective
    sample size of the path weights w = exp(expo - max expo)."""
    expo = np.concatenate([
        _block_exponents(tab, cfg.seed, int(cfg.start), cfg.T, lo, min(lo + BLOCK_PATHS, cfg.N))
        for lo in range(0, cfg.N, BLOCK_PATHS)])

    estimate = (logsumexp(expo) - np.log(cfg.N)) / cfg.T
    batch_est = _batch_log_means(expo) / cfg.T
    spread = float(batch_est.std(ddof=1)) if len(batch_est) > 1 else 0.0
    w = np.exp(expo - expo.max())
    return EstimatorReport(
        estimate=float(estimate),
        spread=spread,
        diagnostics={
            "max_exponent": float(expo.max()),
            "min_exponent": float(expo.min()),
            "batches": len(batch_est),
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
    _require(model, pi1, pi2, [cfg.start])
    return _growth_estimate(_table(model, pi1, pi2), cfg)


def estimate_with_deviations(model: GameModel, pi1: StationaryStrategy,
                             pi2: StationaryStrategy, cfg: SimConfig, player: int,
                             count: int):
    """Plug-in estimates for the pair and for `count` deviations of one player.

    Returns (base, deviation estimates). Deviation k = 1, 2, ... is the
    k-th pair of _deviation_pairs and runs on seed cfg.seed + k; each
    estimate equals the one estimate_ergodic_cost gives for that pair and
    seed. Every deviation is validated before the first run.
    """
    _require(model, pi1, pi2, [cfg.start])
    pairs = _deviation_pairs(model, pi1, pi2, [player], count, cfg.seed)
    base = _growth_estimate(_table(model, pi1, pi2), cfg)
    rows = [_growth_estimate(_table(model, a, b), replace(cfg, seed=cfg.seed + run))
            for run, (_, a, b) in enumerate(pairs, start=1)]
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


def _deviation_strategies(model: GameModel, player: int, count: int, seed: int):
    """Pure strategies when few enough, else per-state Dirichlet mixtures.

    A player with singleton action sets everywhere has nothing to deviate
    to; the empty list makes that player's checks vacuous.
    """
    if player not in (1, 2):
        raise ValueError(f"deviating player must equal 1 or 2, got {player}")
    if count < 0:
        raise ValueError(f"deviation count must be >= 0, got {count}")
    n = model.n_states
    sizes = model.shapes[:, player - 1]
    if (sizes == 1).all():
        return []
    pure = list(itertools.islice(itertools.product(*map(range, sizes.tolist())), count + 1))
    if len(pure) <= count:
        return [StationaryStrategy.pure(model, player, list(idx)) for idx in pure]
    # one gamma draw for all states, normalized as Generator.dirichlet does:
    # a left-to-right sum per state, then each gamma times the sum's inverse
    rng = np.random.default_rng((int(seed) + 7919 * player) % 2**64)
    seg = np.repeat(np.arange(n), sizes)
    slot = np.arange(len(seg)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    out = []
    for _ in range(count):
        g = rng.standard_gamma(1.0, size=len(seg))
        acc = np.zeros(n)
        for k in range(max(sizes)):
            acc[seg[slot == k]] += g[slot == k]
        out.append(StationaryStrategy.from_flat(g * (1.0 / acc)[seg], sizes))
    return out


def _deviation_pairs(model: GameModel, pi1: StationaryStrategy, pi2: StationaryStrategy,
                     players, count: int, seed: int) -> list:
    """(player, a, b) for each deviation of each of `players` in turn: the
    pair (pi1, pi2) with that player's rule replaced by one of its
    _deviation_strategies, validated. Built whole, so a bad player or count
    is refused before any run."""
    pairs = [(p, dev, pi2) if p == 1 else (p, pi1, dev)
             for p in players for dev in _deviation_strategies(model, p, count, seed)]
    for _, a, b in pairs:
        _require(model, a, b, [])
    return pairs


def _extend_log_psi(report: SolveReport, tab: _Table):
    """log psi* on the final domain, extended off it by the pair's equation.

    psi(i) <- exp(cbar(i) - rho*) (Pbar psi)(i) for every state without a
    finite value on the domain, in at most n Jacobi sweeps (enough for
    positivity to spread along every path into the domain), each one
    segment log-sum-exp over those states' slots. States that cannot
    reach a positive value stay at -inf.
    """
    n = len(tab.cbar)
    src = np.asarray(report.log_psi_star, dtype=float)
    dom = np.asarray(report.domain, dtype=int)
    log_psi = np.full(n, -np.inf)
    log_psi[dom] = src[dom]
    free = np.flatnonzero(~np.isfinite(log_psi))
    if free.size:
        at, _ = concat_ranges(tab.lo[free], tab.lo[free] + tab.size[free])
        log_w, j = np.log(tab.weight[at]), tab.j[at]
        base = tab.cbar[free] - report.rho_star
        for _ in range(n):
            new = base + segment_logsumexp(log_w + log_psi[j], tab.size[free])
            if np.array_equal(new, log_psi[free]):
                break
            log_psi[free] = new
    return log_psi


def verify_saddle(model: GameModel, report: SolveReport, cfg: SimConfig,
                  deviations: int = 4) -> SaddleVerdict:
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
    start = int(cfg.start)
    _require(model, pi1, pi2, [start])
    pairs = _deviation_pairs(model, pi1, pi2, (1, 2), deviations, cfg.seed)
    log_psi = _extend_log_psi(report, _table(model, pi1, pi2))
    zero = ~np.isfinite(log_psi)
    warnings = []

    def weighted(label, a, b, run):
        """The run's estimate, and False when it can reach a zero of psi."""
        covered = True
        if zero.any():
            tab = _table(model, a, b)
            hit = np.flatnonzero(zero & reachable(tab.lo, tab.lo + tab.size, tab.j, start))
            if hit.size:
                covered = False
                warnings.append(f"{label}: states {hit.tolist()} are reachable from "
                                f"state {start} but psi* is zero there, so their paths "
                                "cannot be weighted")
        return covered, _growth_estimate(_table(model, a, b, log_psi),
                                         replace(cfg, seed=cfg.seed + run))

    covered, base = weighted("selector pair", pi1, pi2, 0)
    equality_ok = covered and abs(base.estimate - rho) <= 3.0 * base.spread + BAND_FLOOR
    results = []
    passed = equality_ok
    for run, (player, a, b) in enumerate(pairs, start=1):
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


def _hitting_terms(tab: _Table, log_psi, rho, target_mask, seed, start, N):
    """Per-path log of exp(sum_{t<tau} (c - rho)) * psi(X_tau); NaN when
    capped, that is, still outside the target after HITTING_CAP steps.

    Paths run in blocks of BLOCK_PATHS; the live paths of a block step
    together and leave the live set on entering the target. Each step
    draws the uniforms from the first to the last live path and reads the
    live ones. Returns the terms and the number of capped paths.
    """
    out = np.full(N, np.nan)
    capped = 0
    for lo in range(0, N, BLOCK_PATHS):
        draws = _Uniforms(seed)
        live = np.arange(lo, min(lo + BLOCK_PATHS, N))
        s = np.full(live.size, start, dtype=np.int64)
        acc = np.zeros(live.size)
        t = 0
        while live.size and t < HITTING_CAP:
            e = _step(tab, s, draws.row(t, live[0], live[-1] + 1)[live - live[0]])
            acc += tab.cost[e] - rho
            s = tab.j[e]
            t += 1
            hit = target_mask[s]
            if hit.any():
                out[live[hit]] = acc[hit] + log_psi[s[hit]]
                live, s, acc = live[~hit], s[~hit], acc[~hit]
        capped += live.size
    return out, capped


def verify_stochastic_representation(model: GameModel, report: SolveReport,
                                     target_set, cfg: SimConfig) -> RepresentationVerdict:
    """Check psi(i) = E[exp(sum_{t<tau} (c - rho)) psi(X_tau)] by simulation.

    tau is the first entry time into the target set, paths run under the
    selector pair from each requested start state outside the set. Paths
    that exceed HITTING_CAP steps are dropped and counted; more than 1% of
    them makes the verdict INCONCLUSIVE rather than a pass or fail.
    """
    pi1, pi2 = report.selectors
    rho = report.rho_star
    log_psi = np.asarray(report.log_psi_star, dtype=float)
    target = sorted(set(int(b) for b in target_set))
    starts = [int(s) for s in (cfg.start if isinstance(cfg.start, (list, tuple, np.ndarray))
                               else [cfg.start])]
    if not starts:
        raise ValueError("the start list is empty: give at least one start state")
    _require(model, pi1, pi2, starts + target)
    mask = np.zeros(model.n_states, dtype=bool)
    mask[target] = True
    for b in target:
        if not np.isfinite(log_psi[b]):
            raise ValueError(f"target state {b} lies outside the solved support")
    for s0 in starts:
        if mask[s0]:
            raise ValueError(f"start state {s0} is inside the target set")
    warnings = []
    if model.lyapunov is not None and not set(model.lyapunov.K.tolist()) <= set(target):
        # hitting-time integrability is only guaranteed for supersets of the
        # declared exception set; smaller targets are still checkable
        warnings.append("target set does not contain the declared exception set")
    tab = _table(model, pi1, pi2)

    per_start = []
    all_pass = True
    any_inconclusive = False
    for idx, s0 in enumerate(starts):
        terms, capped = _hitting_terms(tab, log_psi, rho, mask, cfg.seed + 104729 * idx, s0,
                                       cfg.N)
        good = terms[~np.isnan(terms)]
        frac_capped = capped / cfg.N
        estimate = float(np.exp(logsumexp(good) - np.log(len(good)))) if len(good) else np.nan
        batch_est = np.exp(_batch_log_means(good))
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
