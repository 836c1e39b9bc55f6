"""Acceptance gate: one test per release criterion, stated tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The heavy simulation criteria reuse a session-scoped solve
of the default birth-death instance (window 60, ladder 10/20/40/60).

Criterion 6's two-state sub-case is the heavy-tailed one: the plain
plug-in estimator of a multiplicative criterion cannot resolve it at
T=2000, N=20000 (it would need a Binomial tail ~15 sigma out), which is
why saddle verification weights its paths by psi*.
"""

import json
import time

import numpy as np
import pytest

from conftest import (one_state_two_action, random_uncontrolled_chain,
                      uncontrolled_two_state)
from oracles import (birth_death_params_any_p_hat, dense_transition, lower_value_grid,
                     lower_values_exact, perron_log_radius, solve_one_saddle, state_cost,
                     uncontrolled_eigen_oracle)
from rsgame.birth_death import BirthDeathParams, build_birth_death, verify_stability_estimates
from rsgame.dirichlet import apply_operator
from rsgame.model import StationaryStrategy
from rsgame.simulate import (SimConfig, estimate_ergodic_cost, simulate_paths,
                             verify_saddle, verify_stochastic_representation)
from rsgame.solver import residual, solve_ergodic_game


def report(criterion, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {mark} {detail}")


@pytest.fixture(scope="module")
def bd60():
    model = build_birth_death(BirthDeathParams(window=60))
    rep = solve_ergodic_game(model, ladder=[10, 20, 40, 60])
    return model, rep


@pytest.fixture(scope="module")
def bd200():
    model = build_birth_death(BirthDeathParams(window=200))
    t0 = time.time()
    rep = solve_ergodic_game(model, ladder=[25, 50, 100, 200])
    return model, rep, time.time() - t0


def test_criterion_1_residual_on_every_solved_instance(bd60, bd200):
    """Solved instances satisfy the equation to 1e-6 on their final domain."""
    solved = []
    m, rep = bd60
    solved.append(("birth-death-60", m, rep))
    m200, rep200, elapsed = bd200
    solved.append(("birth-death-200", m200, rep200))
    two = uncontrolled_two_state()
    solved.append(("two-state", two, solve_ergodic_game(two, ladder=[2])))
    one = one_state_two_action()
    solved.append(("one-state", one, solve_ergodic_game(one, ladder=[1])))
    worst = max(r.residual for _, _, r in solved)
    recomputed = max(
        residual(mm, rr.rho_star, rr.log_psi_star, rr.domain) for _, mm, rr in solved)
    ok = worst <= 1e-6 and recomputed <= 1e-6 and elapsed < 60.0
    report(1, ok, f"worst residual {worst:.3e}; 200-state solve took {elapsed:.1f}s")
    assert worst <= 1e-6
    assert recomputed <= 1e-6
    assert elapsed < 60.0


def test_criterion_2_perron_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(2, 11))
        m = random_uncontrolled_chain(rng, n)
        rep = solve_ergodic_game(m, ladder=[n], tol_eig=1e-11)
        oracle = uncontrolled_eigen_oracle(m, tol=1e-13)
        worst = max(worst, abs(rep.rho_star - oracle))
        # independent cross-check: dense eigenvalues of the weighted kernel
        M = np.array([np.exp(state_cost(m, i)[0, 0]) * dense_transition(m, i)[0, 0]
                      for i in range(n)])
        assert abs(oracle - perron_log_radius(M)) <= 1e-9
    report(2, worst <= 1e-8, f"worst |rho* - oracle| = {worst:.3e} over 20 chains")
    assert worst <= 1e-8


def test_criterion_3_operator_laws():
    """Monotonicity and 1-homogeneity of the per-state operator to 1e-10."""
    from conftest import random_closed_model
    rng = np.random.default_rng(11)
    model = random_closed_model(rng, n=4, mu=2, mv=3)
    states = list(range(4))
    worst_mono = 0.0
    worst_homog = 0.0
    for _ in range(100):
        lp1 = rng.normal(0.0, 1.0, 4)
        lp2 = lp1 + rng.uniform(0.0, 1.5, 4)
        lam = float(rng.uniform(0.05, 20.0))
        g1, _ = apply_operator(model, states, lp1)
        g2, _ = apply_operator(model, states, lp2)
        gs, _ = apply_operator(model, states, lp1 + np.log(lam))
        worst_mono = max(worst_mono, float(np.max(g1[states] - g2[states])))
        worst_homog = max(worst_homog, float(np.max(np.abs(gs[states] - g1[states] - np.log(lam)))))
    ok = worst_mono <= 1e-10 and worst_homog <= 1e-10
    report(3, ok, f"monotonicity slack {worst_mono:.2e}, homogeneity error {worst_homog:.2e}")
    assert worst_mono <= 1e-10
    assert worst_homog <= 1e-10


def test_criterion_4_duality_gap_and_brute_force():
    """Every solve carries a certified gap below 1e-8, and the value agrees
    with brute force to 1e-5. The section-search oracle is exact for these
    sizes; the literal simplex grid additionally confirms the value is
    never beaten (pattern refinement of a grid can stall at kinks, so the
    grid only certifies one side at full precision)."""
    rng = np.random.default_rng(5)
    worst_gap = 0.0
    worst_err = 0.0
    worst_overshoot = 0.0
    games = {2: [], 3: []}
    for k in range(50):
        size = 2 if k % 2 == 0 else 3
        C = rng.uniform(0.0, 2.0, (size, size))
        L = rng.normal(0.0, 1.5, (size, size))
        s = solve_one_saddle(C, L, tol=1e-8)
        worst_gap = max(worst_gap, s.gap)
        worst_overshoot = max(worst_overshoot, lower_value_grid(C, L, 300) - s.log_value)
        games[size].append((C, L, s.log_value))
    # the oracle searches all games of one size in lockstep
    for batch in games.values():
        C, L, value = map(np.array, zip(*batch))
        worst_err = max(worst_err, float(np.abs(value - lower_values_exact(C, L)).max()))
    ok = worst_gap <= 1e-8 and worst_err <= 1e-5 and worst_overshoot <= 1e-12
    report(4, ok, f"max certified gap {worst_gap:.2e}, "
                  f"max |value - oracle| {worst_err:.2e}, "
                  f"max grid overshoot {worst_overshoot:.2e}")
    assert worst_gap <= 1e-8
    assert worst_err <= 1e-5
    assert worst_overshoot <= 1e-12


def test_criterion_5_eigenvalue_bounds_per_rung(bd60, bd200):
    worst_low = 0.0
    worst_high = -np.inf
    for m, rep in (bd60, bd200[:2]):
        upper = rep.bounds["upper"]
        for rung in rep.ladder:
            worst_low = min(worst_low, rung.rho)
            worst_high = max(worst_high, rung.rho - upper)
    ok = worst_low >= -1e-6 and worst_high <= 1e-6
    report(5, ok, f"min rung rho {worst_low:.3e}, max rung excess over k1+k2 {worst_high:.3e}")
    assert worst_low >= -1e-6
    assert worst_high <= 1e-6


def test_criterion_6_saddle_sim_one_state():
    m = one_state_two_action()
    rep = solve_ergodic_game(m, ladder=[1])
    verdict = verify_saddle(m, rep, SimConfig(T=2000, N=20000, seed=31), deviations=4)
    report("6/one-state", verdict.passed,
           f"estimate {verdict.selector_estimate.estimate!r} vs rho* 1.0")
    assert rep.rho_star == pytest.approx(1.0, abs=1e-12)
    assert verdict.passed


def test_criterion_6_saddle_sim_birth_death(bd60):
    m, rep = bd60
    verdict = verify_saddle(m, rep, SimConfig(T=5000, N=50000, seed=37), deviations=2)
    est = verdict.selector_estimate
    report("6/birth-death", verdict.passed,
           f"estimate {est.estimate:.6f} vs rho* {rep.rho_star:.6f} "
           f"(spread {est.spread:.2e}); deviations "
           + str([(d['player'], d['ok']) for d in verdict.deviations]))
    assert verdict.passed


def test_criterion_6_saddle_sim_two_state_known_red():
    """Asserted as specified (see module docstring).

    A plain plug-in estimator would need the Binomial tail at T/6 above
    its mean, which is ~15 sigma out; N = 20000 paths reach ~4.5 sigma
    (measured 0.3708 +- 0.003 against rho* = 0.4055). The psi*-weighted
    estimate has no such tail and equals rho* at every T.
    """
    m = uncontrolled_two_state()
    rep = solve_ergodic_game(m, ladder=[2])
    verdict = verify_saddle(m, rep, SimConfig(T=2000, N=20000, seed=41))
    est = verdict.selector_estimate
    report("6/two-state", verdict.passed,
           f"estimate {est.estimate:.4f} vs rho* {rep.rho_star:.4f}, "
           f"spread {est.spread:.2e}: estimator bias exceeds every 3-spread band")
    assert verdict.passed, (
        "known spec defect: heavy-tail bias of the pinned estimator at "
        f"T=2000, N=20000 (estimate {est.estimate:.4f}, rho* {rep.rho_star:.4f}, "
        f"spread {est.spread:.2e}); see notes in the repository ledger")


def test_criterion_7_stochastic_representation(bd60):
    # closed-form micro-instance
    p_loop, c1 = 0.6, 0.2
    P0 = np.array([[[1.0, 0.0]]])
    P1 = np.array([[[1.0 - p_loop, p_loop]]])
    from rsgame.model import make_model
    micro = make_model(2, [[0], [0]], [[0], [0]], [P0, P1],
                       [np.zeros((1, 1)), np.full((1, 1), c1)], i0=0)
    micro_rep = solve_ergodic_game(micro, ladder=[2], tol_eig=1e-12)
    v_micro = verify_stochastic_representation(
        micro, micro_rep, [0], SimConfig(T=1, N=20000, seed=3, start=[1]))
    # default birth-death instance, target {0..4}
    m, rep = bd60
    v_bd = verify_stochastic_representation(
        m, rep, list(range(5)), SimConfig(T=1, N=200000, seed=13, start=[5, 6]))
    ok = v_micro.passed and v_bd.passed
    rows = [(r["start"], round(r["estimate"], 6), round(r["psi"], 6)) for r in v_bd.per_start]
    report(7, ok, f"micro pass={v_micro.passed}; birth-death rows {rows}")
    assert v_micro.passed
    assert v_bd.passed


def test_criterion_8_assumption_suite():
    good = verify_stability_estimates(BirthDeathParams(window=60), i_max=200)
    bad = verify_stability_estimates(
        birth_death_params_any_p_hat(0.2, window=60), i_max=200)
    ok = good.passed and bad.drift_passed and not bad.norm_like["passed"]
    report(8, ok, f"defaults worst slack {good.worst_slack:.3f}; "
                  f"p_hat=0.2 norm-like passed={bad.norm_like['passed']}")
    assert good.passed
    assert not bad.norm_like["passed"]
    assert not bad.passed


def test_criterion_9_determinism():
    m = build_birth_death(BirthDeathParams(window=30))
    r1 = solve_ergodic_game(m, ladder=[10, 30], threads=1)
    r2 = solve_ergodic_game(m, ladder=[10, 30], threads=3)
    j1 = json.dumps(r1.to_dict(), sort_keys=True)
    j2 = json.dumps(r2.to_dict(), sort_keys=True)
    pi1, pi2 = r1.selectors
    cfg = SimConfig(T=300, N=2000, seed=77)
    e1 = estimate_ergodic_cost(m, pi1, pi2, cfg, threads=1)
    e2 = estimate_ergodic_cost(m, pi1, pi2, cfg, threads=4)
    b1 = simulate_paths(m, pi1, pi2, SimConfig(T=20, N=50, seed=5)).to_csv()
    b2 = simulate_paths(m, pi1, pi2, SimConfig(T=20, N=50, seed=5)).to_csv()
    ok = j1 == j2 and e1.estimate == e2.estimate and e1.spread == e2.spread and b1 == b2
    report(9, ok, "solve/estimator/paths bit-identical across reruns and thread counts")
    assert j1 == j2
    assert e1.estimate == e2.estimate
    assert e1.spread == e2.spread
    assert b1 == b2


def test_criterion_10_value_state_independence(bd60):
    m, rep = bd60
    pi1, pi2 = rep.selectors
    a = estimate_ergodic_cost(m, pi1, pi2, SimConfig(T=2000, N=20000, seed=51, start=0))
    b = estimate_ergodic_cost(m, pi1, pi2, SimConfig(T=2000, N=20000, seed=52, start=3))
    gap_bd = abs(a.estimate - b.estimate)
    ok_bd = gap_bd <= 3.0 * (a.spread + b.spread)
    two = uncontrolled_two_state()
    t1, t2 = (StationaryStrategy.pure(two, 1, 0), StationaryStrategy.pure(two, 2, 0))
    c = estimate_ergodic_cost(two, t1, t2, SimConfig(T=400, N=8000, seed=53, start=0))
    d = estimate_ergodic_cost(two, t1, t2, SimConfig(T=400, N=8000, seed=54, start=1))
    gap_two = abs(c.estimate - d.estimate)
    ok_two = gap_two <= 3.0 * (c.spread + d.spread)
    report(10, ok_bd and ok_two,
           f"birth-death start gap {gap_bd:.2e} vs band {3*(a.spread+b.spread):.2e}; "
           f"two-state start gap {gap_two:.2e} vs band {3*(c.spread+d.spread):.2e}")
    assert ok_bd
    assert ok_two
