"""Truncation-ladder solver for the ergodic game on the full window.

Runs the Dirichlet eigenproblem on an increasing sequence of domains,
warm-starting each rung from the previous eigenfunction, stops when the
eigenvalue and eigenfunction stabilize, and certifies the result through
the equation residual. Also extracts the mini-max stationary selectors and
computes Lyapunov-based eigenvalue bounds when drift data is present.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from ._util import NEG_INF
from .dirichlet import (DEFAULT_TOL, DirichletDomain, EigenPair, apply_operator,
                        dirichlet_eigenpair)
from .model import GameModel, SchemaError, StationaryStrategy, eigenvalue_upper_bound

DEFAULT_TOL_OUTER = 1e-6
BOUNDARY_MASS_WARN = 1e-6


@dataclass
class LadderRung:
    index: int
    domain_size: int
    rho: float
    bracket_width: float
    iterations: int


@dataclass
class SolveReport:
    ladder: list
    rho_star: float
    log_psi_star: np.ndarray
    domain: np.ndarray
    selectors: tuple
    residual: float
    bounds: dict | None
    certified: bool
    diagnostics: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        pi1, pi2 = self.selectors
        with np.errstate(over="ignore"):  # psi above the float range is written as null
            psi = [float(np.exp(x)) for x in self.log_psi_star]
        return {
            "rho_star": float(self.rho_star),
            "log_psi_star": [float(x) for x in self.log_psi_star],
            "psi_star": [None if p == np.inf else p for p in psi],
            "domain": [int(s) for s in self.domain],
            "ladder": [
                {"n": r.index, "domain_size": r.domain_size, "rho_n": float(r.rho),
                 "bracket_width": float(r.bracket_width), "iterations": r.iterations}
                for r in self.ladder
            ],
            "selectors": {
                "p1": [[float(w) for w in ws] for ws in pi1.weights],
                "p2": [[float(w) for w in ws] for ws in pi2.weights],
            },
            "residual": float(self.residual),
            "bounds": self.bounds,
            "certified": self.certified,
            "diagnostics": self.diagnostics,
            "warnings": self.warnings,
        }

    @classmethod
    def from_dict(cls, doc, n_states: int) -> "SolveReport":
        """The report to_dict wrote, read back for a model of n_states
        states; the ladder is not. Raises SchemaError when the document is
        not an object, misses a key simulation needs, or its log_psi_star or
        domain does not fit the window."""
        if not isinstance(doc, dict):
            raise SchemaError("a solve report is a JSON object")
        missing = [k for k in ("rho_star", "log_psi_star", "domain", "selectors", "residual")
                   if k not in doc]
        if missing:
            raise SchemaError(f"solve report misses keys {missing}")
        try:
            rho, res = float(doc["rho_star"]), float(doc["residual"])
            log_psi = np.asarray(doc["log_psi_star"], dtype=float)
            domain = np.asarray(doc["domain"], dtype=int)
            selectors = tuple(StationaryStrategy(doc["selectors"][p]) for p in ("p1", "p2"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"malformed solve report: {exc!r}") from None
        if log_psi.shape != (n_states,):
            raise SchemaError(f"log_psi_star needs {n_states} entries, one per state")
        if domain.ndim != 1 or ((domain < 0) | (domain >= n_states)).any():
            raise SchemaError(f"domain must list states in 0..{n_states - 1}")
        if any(w.ndim != 1 for pi in selectors for w in pi.weights):
            raise SchemaError("selector weights must be lists of numbers, one list per state")
        return cls(ladder=[], rho_star=rho, log_psi_star=log_psi, domain=domain,
                   selectors=selectors, residual=res, bounds=doc.get("bounds"),
                   certified=bool(doc.get("certified", False)),
                   diagnostics=doc.get("diagnostics", {}), warnings=doc.get("warnings", []))

    def trace_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "domain_size", "rho_n", "bracket_width", "iterations"])
        for r in self.ladder:
            w.writerow([r.index, r.domain_size, repr(float(r.rho)),
                        repr(float(r.bracket_width)), r.iterations])
        return buf.getvalue()


def default_ladder(model: GameModel) -> list:
    """Doubling domain sizes capped by the window, always ending at it."""
    n = model.n_states
    size = max(4, model.i0 + 2)
    sizes = []
    while size < n:
        sizes.append(size)
        size *= 2
    sizes.append(n)
    return sizes


def _final_sweep(model: GameModel, rho: float, log_psi, domain, tol):
    """One operator sweep over the domain states with finite log psi.

    Returns (residual, selectors, saddles). The residual is
    max |log G psi(i) - rho - log psi(i)| over those states, None when
    there are none. The selectors are the saddles' (mu, nu) there and the
    lowest-index pure action elsewhere.
    """
    log_psi = np.asarray(log_psi, dtype=float)
    domain = np.atleast_1d(np.asarray(domain, dtype=int))
    states = domain[np.isfinite(log_psi[domain])]
    log_G, saddles = apply_operator(model, states, log_psi, tol=tol)
    pi1, pi2 = StationaryStrategy.pure(model, 1, 0), StationaryStrategy.pure(model, 2, 0)
    for i, s in zip(states, saddles):
        pi1.weights[i], pi2.weights[i] = s.mu, s.nu
    res = float(np.abs(log_G[states] - rho - log_psi[states]).max()) if len(states) else None
    return res, (pi1, pi2), saddles


def residual(model: GameModel, rho: float, log_psi, domain) -> float:
    """max over the domain of |log G psi(i) - rho - log psi(i)|.

    Zero exactly when (rho, psi) solves the equation on the domain under
    the zero-outside convention. Each call runs one operator sweep, the
    same sweep that ends solve_ergodic_game, with every local gap bounded
    by DEFAULT_TOL. Raises ValueError when no domain state has finite
    log psi.
    """
    res, _, _ = _final_sweep(model, rho, log_psi, domain, DEFAULT_TOL)
    if res is None:
        raise ValueError("no domain state has finite log psi; the residual is undefined")
    return res


def extract_selectors(model: GameModel, log_psi, domain):
    """Per-state saddle strategies for the given eigenfunction.

    States outside the domain (or killed by the game) get the lowest-index
    pure action: play there never returns to the supported region under the
    zero-boundary reading, and simulation still needs a defined action.
    """
    return _final_sweep(model, 0.0, log_psi, domain, DEFAULT_TOL)[1]


def _boundary_warnings(model: GameModel, domain) -> list:
    out = []
    domain = np.asarray(domain, dtype=int)
    inside = np.zeros(model.n_states, dtype=bool)
    inside[domain] = True

    def mass_into(states, target) -> np.ndarray:
        """The one-step mass of every row of `states` into `target`."""
        return np.exp(model.inner_log_sums(states, np.where(target, 0.0, NEG_INF)))

    leak = float(np.max(1.0 - mass_into(domain, inside), initial=0.0))
    if not inside.all():
        if leak >= BOUNDARY_MASS_WARN:
            out.append(f"one-step mass {leak:.3e} leaves the final domain; truncation suspect")
    else:
        top = model.n_states - 1
        at_top = np.arange(model.n_states) == top
        into_top = float(np.max(mass_into(domain[domain != top], at_top), initial=0.0))
        if max(leak, into_top) >= BOUNDARY_MASS_WARN:
            out.append(
                f"window boundary receives one-step mass {max(leak, into_top):.3e}; "
                "truncation suspect")
    return out


def solve_ergodic_game(model: GameModel, ladder=None, tol_eig: float = DEFAULT_TOL,
                       tol_outer: float = DEFAULT_TOL_OUTER,
                       threads: int = 1) -> SolveReport:
    """Ladder solve: Dirichlet eigenpairs on growing domains until stable.

    Stops once consecutive rungs agree in eigenvalue (tol_outer) and in
    eigenfunction (log domain, on the smaller domain). tol_eig bounds each
    rung's eigenvalue bracket and every local saddle's gap. One more
    operator sweep over the final domain (the sweep of residual and
    extract_selectors), at the final eigenfunction, gives the
    residual, the selectors and the diagnostics, so a solve runs
    sum(rung.iterations) + 1 sweeps. The report carries the full rung
    trace, selectors, residual and, when drift data exists, the eigenvalue
    bound check. Its diagnostics say how the final sweep was solved: the
    worst certified gap, the worst order gap and the number of states where
    both selectors are pure.

    Raises ValueError unless tol_eig and tol_outer are finite and > 0 and
    the ladder is strictly increasing, every rung a DirichletDomain prefix.
    `threads` is accepted for compatibility and has no effect: the local
    solves hold the interpreter lock, so threads cannot speed them up.
    """
    for name, value in (("tol_eig (--tol)", tol_eig), ("tol_outer (--tol-outer)", tol_outer)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    sizes = list(ladder) if ladder is not None else default_ladder(model)
    if not sizes or any(s2 <= s1 for s1, s2 in zip(sizes, sizes[1:])):
        raise ValueError(f"ladder must be strictly increasing, got {sizes}")
    domains = [DirichletDomain.prefix(model, size) for size in sizes]
    bounds = eigenvalue_upper_bound(model)

    rungs = []
    warnings = []
    prev: EigenPair | None = None
    certified = False
    total_damping = 0
    for k, dom in enumerate(domains, start=1):
        eig = dirichlet_eigenpair(
            dom, tol=tol_eig, warm_start_log_psi=None if prev is None else prev.log_psi)
        rungs.append(LadderRung(k, len(dom.states), eig.rho, eig.bracket[1] - eig.bracket[0],
                                eig.iterations))
        total_damping += eig.damping_events
        warnings.extend(eig.warnings)
        if prev is not None:
            # i0 is in both domains, so `shared` is never empty
            shared = prev.domain[np.isfinite(eig.log_psi[prev.domain])]
            dpsi = np.abs(eig.log_psi[shared] - prev.log_psi[shared]).max()
            if abs(eig.rho - prev.rho) <= tol_outer and dpsi <= tol_outer:
                prev = eig
                certified = True
                break
        prev = eig
    if not certified:
        warnings.append(
            "ladder exhausted before the outer criterion was met; result is window-limited")

    final = prev
    res, selectors, saddles = _final_sweep(model, final.rho, final.log_psi, final.domain, tol_eig)
    warnings.extend(_boundary_warnings(model, final.domain))

    if bounds is not None:
        tol_bound = max(tol_outer, 1e-6)
        for r in rungs:
            if r.rho > bounds["upper"] + tol_bound or r.rho < -tol_bound:
                warnings.append(
                    f"rung {r.index}: rho_n={r.rho!r} outside [0, k1+k2={bounds['upper']!r}]")

    return SolveReport(
        ladder=rungs,
        rho_star=final.rho,
        log_psi_star=final.log_psi,
        domain=final.domain,
        selectors=selectors,
        residual=res,
        bounds=bounds,
        certified=certified,
        diagnostics={
            "rungs": len(rungs),
            "damping_events": total_damping,
            "final_bracket": [float(final.bracket[0]), float(final.bracket[1])],
            # how the final sweep over the final domain was solved
            "max_gap": max(float(s.gap) for s in saddles),
            "max_order_gap": max(float(s.order_gap) for s in saddles),
            "pure_states": sum(1 for s in saddles if s.mu.max() == 1.0 and s.nu.max() == 1.0),
        },
        warnings=warnings,
    )
