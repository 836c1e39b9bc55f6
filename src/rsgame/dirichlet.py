"""The finite-domain eigenproblem under the absorbed-at-zero boundary convention.

A DirichletDomain restricts the game to a subset D of the window with
psi = 0 outside; one-step mass leaving D (including mass leaving the
window) contributes nothing. Provides the principal eigenpair by
nonlinear power iteration with a Collatz-Wielandt bracket.

Every sweep reads the inner sums L[i,u,v] = log sum_j psi(j) P(j|i,u,v)
of all its states from one call of GameModel.inner_log_sums, a segment
log-sum-exp over the model's CSR layout of nonzero transition entries,
so a sweep costs O(nnz) for the sums instead of O(rows x window). The
sums and the costs (GameModel.row_cost) of the sweep stay flat in kernel
row order, and saddle.solve_saddles solves its local saddles from them as
one batch, into one columnar saddle.Saddles.

The power iteration alone decides which domain states survive: a sweep
that gives log G = -inf at some states drops them, restarts psi on the
others from that sweep, and sweeps again before it brackets anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import NEG_INF
from .model import GameModel
from .saddle import DEFAULT_TOL, solve_saddles

DEFAULT_MAX_ITER = 5000
DAMP_AFTER = 200


class CollapseToZero(RuntimeError):
    """The iteration kills the reference state: value mass cannot persist."""


class NoConvergence(RuntimeError):
    def __init__(self, bracket, iterations):
        super().__init__(
            f"Collatz-Wielandt bracket {bracket} wider than tolerance after {iterations} sweeps")
        self.bracket = bracket
        self.iterations = iterations


@dataclass
class DirichletDomain:
    """Subset of window states with zero boundary values outside."""

    model: GameModel
    states: np.ndarray

    def __post_init__(self):
        self.states = np.unique(np.asarray(self.states, dtype=int))
        if self.model.i0 not in self.states:  # an empty domain included
            raise ValueError(f"domain must contain the reference state {self.model.i0}")
        if self.states[0] < 0 or self.states[-1] >= self.model.n_states:
            raise ValueError(f"domain exceeds the model window 0..{self.model.n_states - 1}")

    @staticmethod
    def prefix(model: GameModel, size: int) -> "DirichletDomain":
        return DirichletDomain(model, np.arange(int(size)))


@dataclass
class EigenPair:
    """Principal eigenvalue (log scale) and log eigenfunction on the window.

    log_psi is -inf outside the domain and on states the game kills;
    psi(i0) = 1 under the i0 normalization.
    """

    rho: float
    log_psi: np.ndarray
    domain: np.ndarray
    bracket: tuple
    iterations: int
    damping_events: int = 0
    warnings: list = field(default_factory=list)


def apply_operator(model: GameModel, states, log_psi, tol=DEFAULT_TOL):
    """One sweep of the dynamic-programming operator on the given states.

    Returns (log_G over the full window with -inf off `states`, the
    states' saddle.Saddles in the order of `states`).
    """
    C, L = model.row_cost[model.rows(states)[0]], model.inner_log_sums(states, log_psi)
    saddles = solve_saddles(C, L, model.shapes[states], tol=tol)
    log_G = np.full(model.n_states, NEG_INF)
    log_G[states] = saddles.log_value
    return log_G, saddles


def dirichlet_eigenpair(domain: DirichletDomain, tol: float = DEFAULT_TOL,
                        warm_start_log_psi=None) -> EigenPair:
    """Principal eigenpair on the domain by nonlinear power iteration.

    Each sweep applies the saddle operator and renormalizes at i0. The
    operator is order preserving and 1-homogeneous, so the per-state
    ratios log G psi(i) - log psi(i) bracket the principal eigenvalue;
    convergence is declared on the bracket width, which bounds the
    eigenvalue error directly; tol also bounds every local saddle's gap.
    NoConvergence is raised after DEFAULT_MAX_ITER sweeps, read at call
    time. After DAMP_AFTER undamped sweeps a half-step blend guards against
    cycling on periodic structures.

    One rule decides which states survive. A sweep that gives log G = -inf
    at some states (for some player-1 action, no player-2 action keeps mass
    on the surviving states) drops them, sets psi on the others from that
    sweep and sweeps again without a bracket: a bracket is valid only for
    psi positive on exactly the states swept. CollapseToZero is raised
    when i0 dies.
    """
    model = domain.model
    i0 = model.i0
    alive = domain.states
    w = np.zeros(model.n_states) if warm_start_log_psi is None else warm_start_log_psi
    w = np.asarray(w, dtype=float)[alive]
    log_psi = np.full(model.n_states, NEG_INF)
    log_psi[alive] = np.where(np.isfinite(w), w, 0.0)
    log_psi[alive] -= log_psi[i0]

    damping = 0
    bracket = (NEG_INF, np.inf)
    for sweep in range(1, DEFAULT_MAX_ITER + 1):
        log_G, _ = apply_operator(model, alive, log_psi, tol=tol)
        if not np.isfinite(log_G[i0]):
            raise CollapseToZero(f"operator value vanished at the reference state {i0}")
        survive = np.isfinite(log_G[alive])
        alive = alive[survive]
        new_log_psi = np.full(model.n_states, NEG_INF)
        new_log_psi[alive] = log_G[alive] - log_G[i0]
        if not survive.all():
            log_psi = new_log_psi
            continue
        ratios = log_G[alive] - log_psi[alive]
        bracket = (float(ratios.min()), float(ratios.max()))
        if bracket[1] - bracket[0] <= tol:
            rho = 0.5 * (bracket[0] + bracket[1])
            warnings = [f"negative eigenvalue {rho!r} on this domain"] if rho < -tol else []
            return EigenPair(rho=rho, log_psi=new_log_psi, domain=alive, bracket=bracket,
                             iterations=sweep, damping_events=damping, warnings=warnings)
        if sweep > DAMP_AFTER:
            new_log_psi[alive] = 0.5 * (new_log_psi[alive] + log_psi[alive])
            new_log_psi[alive] -= new_log_psi[i0]
            damping += 1
        log_psi = new_log_psi
    raise NoConvergence(bracket, DEFAULT_MAX_ITER)
