"""Controlled birth-and-death model on a truncated window.

Player 1 buys extra death pressure (action u), player 2 buys birth
pressure (action v), both from intervals discretized to finite grids.
The kernel has exponentially shrinking sensitivity in the population
size, a heavy drift back to zero, and a per-capita running cost; the
weight function exp(i^2/6 + 1) certifies stability with rate (i+3)/6.

Out-of-window probability mass (the tail of the state-0 row and the
upward move of the top state) is folded back into state 0 so rows stay
exactly stochastic; build_info reports the folded mass and the cost-sign
findings of a parameter set.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .model import (GameModel, KernelCSR, LyapunovData, check_lyapunov, make_model,
                    sound_lyapunov)

P_HAT_LIMIT = 1.0 / 6.0


class WindowTooSmall(ValueError):
    pass


class ParamError(ValueError):
    pass


@dataclass
class BirthDeathParams:
    p_hat: float = 0.1
    delta: float = 0.1
    L1: float = 1.0
    L2: float = 1.0
    grid: int = 5  # points of each player's action grid
    window: int = 60

    def __post_init__(self):
        for name in ("p_hat", "delta", "L1", "L2"):
            if not np.isfinite(getattr(self, name)):
                raise ParamError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta <= 0 or self.delta > min(self.L1, self.L2):
            raise ParamError(f"need 0 < delta <= min(L1, L2), got delta={self.delta}")
        if self.p_hat <= 0:
            raise ParamError("p_hat must be positive")
        if self.p_hat >= P_HAT_LIMIT:
            raise ParamError(f"p_hat={self.p_hat} violates the stability condition p_hat < 1/6")
        if self.grid < 1:
            raise ParamError("action grids need at least one point")
        if self.window < 4:
            raise WindowTooSmall("window must cover states 0..3 for the state-1 row")


@dataclass
class BuildInfo:
    fold_mass_state0: float
    fold_mass_top: float
    negative_cost_entries: int
    min_cost: float


def action_grids(params: BirthDeathParams):
    U = np.linspace(params.delta, params.L1, params.grid)
    V = np.linspace(params.delta, params.L2, params.grid)
    return U, V


def log_weight(i) -> np.ndarray:
    i = np.asarray(i, dtype=float)
    return i * i / 6.0 + 1.0


def rate_ell(i) -> np.ndarray:
    i = np.asarray(i, dtype=float)
    return (i + 3.0) / 6.0


def exception_set(window: int) -> np.ndarray:
    """M = {i : 4 - (i+3)/6 > 0}, intersected with the window."""
    i = np.arange(window)
    return i[4.0 - (i + 3.0) / 6.0 > 0.0]


def drift_constant() -> float:
    """max of the two constants in the stability estimate (exact sums)."""
    j = np.arange(1, 400)
    series = float(np.exp(-2.0) * np.sum(np.exp(-j * j / 6.0) - np.exp(-j * j / 3.0)) + np.e)
    # 4 - (i+3)/6 > 0 iff i < 21, so a window of 24 holds all of M
    m = exception_set(24)
    peak = float(np.exp(log_weight(m[-1]) + 4.0))
    return max(peak, series)


def _costs(params: BirthDeathParams) -> np.ndarray:
    """The (window, mU, mV) costs p_hat * i + u - v."""
    U, V = action_grids(params)
    return params.p_hat * np.arange(params.window)[:, None, None] + U[:, None] - V


def build_info(params: BirthDeathParams) -> BuildInfo:
    """Fold masses and cost-sign findings of the model these parameters build.

    fold_mass_state0 is the state-0 tail beyond the window, fold_mass_top
    the largest upward move of the top state; both are folded into state 0.
    """
    n = params.window
    _, V = action_grids(params)
    jj = np.arange(n, n + 4000)
    denom = 2.0 * (params.L1 + params.L2)
    cost = _costs(params)
    return BuildInfo(
        fold_mass_state0=float(np.sum(np.exp(-jj * jj / 3.0 - 3.0))),
        fold_mass_top=float(max(0.0, *(v * np.exp(-2.0 * float(n - 1)) / denom for v in V))),
        negative_cost_entries=int((cost < 0).sum()),
        min_cost=float(cost.min()),
    )


def _kernel(params: BirthDeathParams) -> KernelCSR:
    """The window's kernel, written as CSR entries state by state.

    Every entry is computed with the float operations of the dense
    per-state formulas (state 0's tail, state 1's birth spread, the
    down/stay/up/reset moves of i >= 2) and exact zeros, such as moves
    that underflow on wide windows, are dropped.
    """
    n = params.window
    U, V = action_grids(params)
    mu, mv = len(U), len(V)
    denom = 2.0 * (params.L1 + params.L2)

    # state 0: action-independent row with super-gaussian tail
    j = np.arange(1, n)
    tail_in = np.exp(-j * j / 3.0 - 3.0)
    row0 = np.zeros(n)
    row0[1:] = tail_in
    row0[0] = 1.0 - tail_in.sum()  # includes the folded tail by construction
    cols0 = np.flatnonzero(row0)

    # state 1: birth pressure spreads mass over 1..3
    m = np.exp(-2.0) * V / denom
    vals1 = np.broadcast_to(np.stack([1.0 - 3.0 * m, m, m, m], axis=1), (mu, mv, 4))

    # states i >= 2: death pressure down, birth pressure up, bulk resets to 0
    i = np.arange(2, n, dtype=float)[:, None, None]
    down = U[:, None] * np.exp(-i) / denom
    up = V * np.exp(-2.0 * i) / denom
    down, up = np.broadcast_arrays(down, up)
    reset = 1.0 - 2.0 * (down + up)
    reset[-1] += up[-1]  # top row: upward move folded into the reset
    vals = np.stack([reset, down, down + up, up], axis=-1)
    vals[-1, ..., 3] = 0.0  # the top row has no upward entry
    cols = np.arange(2, n)[:, None] + np.array([-2, -1, 0, 1])
    cols[:, 0] = 0

    rows_per_state = mu * mv
    values = np.concatenate([np.tile(row0[cols0], rows_per_state), vals1.ravel(), vals.ravel()])
    columns = np.concatenate([np.tile(cols0, rows_per_state),
                              np.tile(np.arange(4), rows_per_state),
                              np.repeat(cols, rows_per_state, axis=0).ravel()])
    rows = np.concatenate([np.repeat(np.arange(rows_per_state), len(cols0)),
                           np.repeat(np.arange(rows_per_state, n * rows_per_state), 4)])
    keep = values != 0.0
    return KernelCSR.from_entries(np.arange(n + 1) * rows_per_state,
                                  rows[keep], columns[keep], values[keep])


def build_birth_death(params: BirthDeathParams) -> GameModel:
    """Window-truncated model with exactly stochastic rows.

    Post-build, every row sums to one within 1e-12 (asserted). The folded
    masses and cost-sign findings are reported by build_info(params).
    """
    n = params.window
    U, V = action_grids(params)
    lyap = LyapunovData(
        log_W=log_weight(np.arange(n)),
        C=drift_constant(),
        K=exception_set(n),
        ell=rate_ell(np.arange(n)),
    )
    model = make_model(
        n_states=n,
        actions_p1=[U.tolist()] * n,
        actions_p2=[V.tolist()] * n,
        transition=_kernel(params),
        cost=_costs(params).ravel(),
        theta=1.0,
        i0=0,
        lyapunov=lyap,
    )
    off = np.flatnonzero(~(np.abs(model.kernel.row_sums - 1.0) <= 1e-12))
    assert not off.size, f"rows {off.tolist()} not stochastic"
    return model


@dataclass
class StabilityReport:
    passed: bool
    drift_passed: bool
    worst_slack: float
    worst_state: int
    state0_vs_C: float
    norm_like: dict
    M: list
    slack: list

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "drift_passed": self.drift_passed,
            "worst_slack": float(self.worst_slack),
            "worst_state": self.worst_state,
            "state0_vs_C": float(self.state0_vs_C),
            "norm_like": self.norm_like,
            "M": [int(m) for m in self.M],
            "slack": [float(s) for s in self.slack],
        }


def verify_stability_estimates(params: BirthDeathParams, i_max: int = 200) -> StabilityReport:
    """Numerical check of the stability estimates for states 0..i_max.

    Runs check_lyapunov on states 0..i_max of the model built on a window
    that covers them: the drift inequality sum_j W(j) P(j|i,u,v) <= C 1_M(i)
    + e^{-ell(i)} W(i) exactly on the grid (log domain) and the
    finite-window norm-like surrogate of ell(i) - max_{u,v} c(i,u,v). It
    adds the state-0 variant of the drift against C alone.
    """
    if i_max < 0:
        raise ParamError(f"i_max (--i-max) must be >= 0, got {i_max}")
    # a copy, not a new BirthDeathParams, so the parameters are not checked again
    wide = copy.copy(params)
    wide.window = max(params.window, i_max + 2)
    model = build_birth_death(wide)
    ly = sound_lyapunov(model)
    rep = check_lyapunov(model, np.arange(i_max + 1))
    state0_vs_C = float(np.log(ly.C)) - float(rep.lhs[0])
    return StabilityReport(
        passed=bool(rep.passed and state0_vs_C > 0.0),
        drift_passed=rep.drift_passed,
        worst_slack=float(rep.slack.min()),
        worst_state=rep.worst_state,
        state0_vs_C=state0_vs_C,
        norm_like=rep.norm_like,
        M=ly.K.tolist(),
        slack=rep.slack.tolist(),
    )
