import dataclasses
import hashlib
import json

import numpy as np
import pytest

from conftest import one_state_two_action, pennies_layer_model, uncontrolled_two_state
from rsgame.birth_death import BirthDeathParams, build_birth_death
from rsgame.model import StationaryStrategy, make_model
from rsgame.simulate import (Deviation, OpenModel, SimConfig, _alias_rows, _entries, _step,
                             _table, estimate_ergodic_cost, simulate_paths,
                             verify_saddle, verify_stochastic_representation)
from rsgame.solver import solve_ergodic_game

LOG_1P5 = 0.4054651081081644


def pures(model):
    return (StationaryStrategy.pure(model, 1, 0), StationaryStrategy.pure(model, 2, 0))


def constant_cost_model(kappa=0.37, n=2):
    P = np.full((1, 1, n), 1.0 / n)
    return make_model(n, [[0]] * n, [[0]] * n, [P.copy() for _ in range(n)],
                      [np.full((1, 1), kappa)] * n, i0=0)


# ---------------------------------------------------------------------------
# sampling and the estimator


def test_constant_cost_estimates_exactly():
    kappa = 0.37
    m = constant_cost_model(kappa)
    pi1, pi2 = pures(m)
    est = estimate_ergodic_cost(m, pi1, pi2, SimConfig(T=64, N=300, seed=2))
    assert est.estimate == pytest.approx(kappa, abs=1e-13)
    assert est.spread <= 1e-14
    # every path carries the same weight
    assert est.diagnostics["ess"] == 300
    assert est.diagnostics["top_weight_share"] == 1 / 300


def test_single_step_single_state():
    m = constant_cost_model(0.3, n=1)
    pi1, pi2 = pures(m)
    est = estimate_ergodic_cost(m, pi1, pi2, SimConfig(T=1, N=16, seed=0))
    assert est.estimate == pytest.approx(0.3, abs=1e-15)


def test_estimator_deterministic_and_thread_independent(two_state):
    pi1, pi2 = pures(two_state)
    cfg = SimConfig(T=80, N=700, seed=13)
    a = estimate_ergodic_cost(two_state, pi1, pi2, cfg)
    b = estimate_ergodic_cost(two_state, pi1, pi2, cfg)
    c = estimate_ergodic_cost(two_state, pi1, pi2, cfg, threads=3)
    assert a.estimate == b.estimate == c.estimate
    assert a.spread == b.spread == c.spread


def test_paths_bit_identical_and_csv_stable(two_state):
    pi1, pi2 = pures(two_state)
    cfg = SimConfig(T=6, N=5, seed=42)
    p1 = simulate_paths(two_state, pi1, pi2, cfg)
    p2 = simulate_paths(two_state, pi1, pi2, cfg)
    assert np.array_equal(p1.states, p2.states)
    assert np.array_equal(p1.u_idx, p2.u_idx)
    assert p1.to_csv() == p2.to_csv()
    assert p1.to_csv().splitlines()[0] == "path,step,state,u,v,cost"


def test_deterministic_chain_single_path():
    P0 = np.zeros((1, 1, 2))
    P0[0, 0, 1] = 1.0
    P1 = np.zeros((1, 1, 2))
    P1[0, 0, 0] = 1.0
    m = make_model(2, [[0], [0]], [[0], [0]], [P0, P1], [np.zeros((1, 1))] * 2, i0=0)
    pi1, pi2 = pures(m)
    for seed in (0, 99):
        batch = simulate_paths(m, pi1, pi2, SimConfig(T=6, N=3, seed=seed))
        expected = [0, 1, 0, 1, 0, 1, 0]
        for p in range(3):
            assert batch.states[p].tolist() == expected


def test_next_state_frequencies_binomial(two_state):
    pi1, pi2 = pures(two_state)
    batch = simulate_paths(two_state, pi1, pi2, SimConfig(T=1, N=4000, seed=8))
    frac = (batch.states[:, 1] == 1).mean()
    sigma = 0.5 / np.sqrt(4000)
    assert abs(frac - 0.5) <= 3 * sigma


def test_open_model_rejected():
    P = np.full((1, 1, 2), 0.4)  # row mass 0.8: the rest leaves the window
    m = make_model(2, [[0], [0]], [[0], [0]], [P.copy(), P.copy()],
                   [np.zeros((1, 1))] * 2, i0=0)
    pi1, pi2 = pures(m)
    with pytest.raises(OpenModel):
        estimate_ergodic_cost(m, pi1, pi2, SimConfig(T=5, N=10, seed=0))
    with pytest.raises(OpenModel):
        simulate_paths(m, pi1, pi2, SimConfig(T=5, N=10, seed=0))
    batch = simulate_paths(m, pi1, pi2,
                           SimConfig(T=40, N=6, seed=0, allow_absorption=True))
    assert (batch.states == -1).any()


def test_estimator_consistency_error_shrinks(two_state):
    """Two (T, N) levels inside the resolvable regime: the error shrinks
    and the larger level covers the target within 3 spreads."""
    pi1, pi2 = pures(two_state)
    lo = estimate_ergodic_cost(two_state, pi1, pi2, SimConfig(T=50, N=5000, seed=17))
    hi = estimate_ergodic_cost(two_state, pi1, pi2, SimConfig(T=100, N=20000, seed=17))
    err_lo = abs(lo.estimate - LOG_1P5)
    err_hi = abs(hi.estimate - LOG_1P5)
    assert err_hi <= err_lo + 0.005
    assert err_hi <= 3.0 * hi.spread
    assert lo.diagnostics["max_exponent"] <= 1e4  # log-sum-exp shift regime
    # heavy tail: fewer effective paths than paths, at least 1 / top share
    assert 1.0 / lo.diagnostics["top_weight_share"] <= lo.diagnostics["ess"] < 5000


def test_deviation_replaces_weights(two_state):
    pi1, _ = pures(two_state)
    dev = Deviation(player=1, states=[0], weights=[np.array([1.0])])
    replaced = dev.apply(two_state, pi1)
    assert replaced.weights[0].tolist() == [1.0]


# ---------------------------------------------------------------------------
# saddle verification


def test_verify_saddle_one_state_two_action():
    m = one_state_two_action()
    rep = solve_ergodic_game(m, ladder=[1])
    assert rep.rho_star == pytest.approx(1.0, abs=1e-12)
    verdict = verify_saddle(m, rep, SimConfig(T=300, N=400, seed=5), deviations=3)
    assert verdict.passed
    assert verdict.equality_ok
    p1_devs = [d for d in verdict.deviations if d["player"] == 1]
    assert p1_devs, "player 1 has alternatives and must be probed"
    for d in p1_devs:
        # any extra weight on the costlier action raises the estimate
        assert d["estimate"] >= rep.rho_star - 1e-12


def test_verify_saddle_uncontrolled_trivial_pass():
    m = constant_cost_model(0.25)
    rep = solve_ergodic_game(m, ladder=[2])
    verdict = verify_saddle(m, rep, SimConfig(T=100, N=400, seed=1), deviations=4)
    assert verdict.passed
    assert verdict.deviations == []


def reducible_three_state():
    """States 0 and 1 leak into the absorbing state 2, which a solve on
    the domain {0, 1} leaves with psi = 0."""
    rows = [[0.5, 0.5, 0.0], [0.5, 0.4, 0.1], [0.0, 0.0, 1.0]]
    return make_model(3, [[0]] * 3, [[0]] * 3,
                      [np.array(r).reshape(1, 1, 3) for r in rows],
                      [np.zeros((1, 1))] * 3, i0=0)


def test_verify_saddle_rejects_a_wrong_rho(two_state):
    rep = solve_ergodic_game(two_state, ladder=[2])
    wrong = dataclasses.replace(rep, rho_star=rep.rho_star + 1e-4)
    verdict = verify_saddle(two_state, wrong, SimConfig(T=2000, N=20000, seed=41))
    assert not verdict.equality_ok
    assert not verdict.passed


def test_verify_saddle_rejects_a_truncated_solve():
    """Window 60 solved on the domain {0..3} only: rho* is 0.00695, the
    full-window value 0.00730, and the estimate tracks the latter."""
    m = build_birth_death(BirthDeathParams(window=60))
    full = solve_ergodic_game(m, ladder=[10, 20, 40, 60])
    short = solve_ergodic_game(m, ladder=[4])
    assert full.rho_star - short.rho_star > 3e-4
    verdict = verify_saddle(m, short, SimConfig(T=1000, N=4096, seed=3), deviations=0)
    est = verdict.selector_estimate
    assert not verdict.equality_ok
    assert not verdict.passed
    assert abs(est.estimate - full.rho_star) < abs(est.estimate - short.rho_star)


def test_verify_saddle_refuses_a_reachable_zero_of_psi():
    m = reducible_three_state()
    rep = solve_ergodic_game(m, ladder=[2])
    assert not np.isfinite(rep.log_psi_star[2])
    verdict = verify_saddle(m, rep, SimConfig(T=200, N=2000, seed=1))
    assert not verdict.passed
    assert not verdict.equality_ok
    assert len(verdict.warnings) == 1
    assert "states [2]" in verdict.warnings[0]
    doc = json.loads(json.dumps(verdict.to_dict(), allow_nan=False))
    assert doc["warnings"] == verdict.warnings


def test_plug_in_estimator_is_the_untilted_case(two_state):
    """estimate_ergodic_cost keeps the plug-in estimator bit for bit, and
    verify_saddle with psi = 1 reproduces it."""
    rep = solve_ergodic_game(two_state, ladder=[2])
    pi1, pi2 = rep.selectors
    cfg = SimConfig(T=2000, N=20000, seed=41)
    plug_in = estimate_ergodic_cost(two_state, pi1, pi2, cfg)
    assert plug_in.estimate == 0.37024809571838047
    flat = dataclasses.replace(rep, log_psi_star=np.zeros(2))
    verdict = verify_saddle(two_state, flat, cfg)
    assert verdict.selector_estimate.estimate == plug_in.estimate
    assert verdict.selector_estimate.spread == plug_in.spread


# ---------------------------------------------------------------------------
# stochastic representation


def geometric_model(p_loop=0.6, c1=0.2):
    P0 = np.array([[[1.0, 0.0]]])
    P1 = np.array([[[1.0 - p_loop, p_loop]]])
    return make_model(2, [[0], [0]], [[0], [0]], [P0, P1],
                      [np.zeros((1, 1)), np.full((1, 1), c1)], i0=0)


def test_representation_geometric_closed_form():
    p_loop, c1 = 0.6, 0.2
    m = geometric_model(p_loop, c1)
    rep = solve_ergodic_game(m, ladder=[2], tol_eig=1e-12)
    rho = rep.rho_star
    psi0 = float(np.exp(rep.log_psi_star[0]))
    # sum over k >= 1 of p^{k-1}(1-p) e^{k(c - rho)} psi(0), in closed form
    r = p_loop * np.exp(c1 - rho)
    analytic = psi0 * (1.0 - p_loop) * np.exp(c1 - rho) / (1.0 - r)
    assert r < 1
    assert analytic == pytest.approx(float(np.exp(rep.log_psi_star[1])), abs=1e-9)
    verdict = verify_stochastic_representation(
        m, rep, [0], SimConfig(T=1, N=20000, seed=3, start=[1]))
    row = verdict.per_start[0]
    assert row["ok"]
    assert row["estimate"] == pytest.approx(analytic, abs=3 * row["spread"] + 1e-12)


def test_representation_one_step_expansion(rng):
    """Target set one step away: the estimate matches the hand expansion
    e^{c - rho} sum_{j in B} psi(j) P(j|i)."""
    P = rng.uniform(0.2, 1.0, (3, 3))
    P /= P.sum(axis=1, keepdims=True)
    m = make_model(3, [[0]] * 3, [[0]] * 3,
                   [P[i].reshape(1, 1, 3) for i in range(3)],
                   [np.full((1, 1), 0.1 * i) for i in range(3)], i0=0)
    rep = solve_ergodic_game(m, ladder=[3], tol_eig=1e-12)
    psi = np.exp(rep.log_psi_star)
    hand = float(np.exp(m.cost[2][0, 0] - rep.rho_star) * (P[2, 0] * psi[0] + P[2, 1] * psi[1]))
    # eigen identity: entering {0,1} in one step from 2 reproduces psi(2)
    # up to the continuation mass through state 2 itself
    verdict = verify_stochastic_representation(
        m, rep, [0, 1], SimConfig(T=1, N=30000, seed=7, start=[2]))
    row = verdict.per_start[0]
    assert row["ok"]
    assert row["psi"] == pytest.approx(psi[2], abs=1e-12)
    assert hand <= row["psi"]  # the one-step part is part of the whole


def test_representation_cap_inconclusive():
    m = geometric_model(p_loop=0.95, c1=0.01)
    rep = solve_ergodic_game(m, ladder=[2])
    cfg = SimConfig(T=1, N=500, seed=11, start=[1], hitting_cap=2)
    verdict = verify_stochastic_representation(m, rep, [0], cfg)
    assert verdict.inconclusive
    assert not verdict.passed
    assert verdict.per_start[0]["capped_fraction"] > 0.01
    assert verdict.per_start[0]["capped_fraction"] == 0.914


def test_value_state_independence(two_state):
    pi1, pi2 = pures(two_state)
    a = estimate_ergodic_cost(two_state, pi1, pi2, SimConfig(T=80, N=4000, seed=21, start=0))
    b = estimate_ergodic_cost(two_state, pi1, pi2, SimConfig(T=80, N=4000, seed=22, start=1))
    assert abs(a.estimate - b.estimate) <= 3.0 * (a.spread + b.spread)


def test_logsumexp_handles_huge_exponents():
    # per-path exponents near 1e4: the shifted reduction must not overflow
    m = constant_cost_model(5.0)
    pi1, pi2 = pures(m)
    est = estimate_ergodic_cost(m, pi1, pi2, SimConfig(T=2000, N=64, seed=1))
    assert est.diagnostics["max_exponent"] == pytest.approx(1e4, rel=1e-12)
    assert est.diagnostics["shift_applied"]
    assert np.isfinite(est.estimate)
    assert est.estimate == pytest.approx(5.0, abs=1e-12)


def test_source_fixed_point_matches_exit_time_functional(rng):
    """Monte Carlo spot check of the discounted exit-time representation:
    phi(i) = E[ sum_{t < tau} exp(sum_{s<t} cbar(X_s)) g(X_t) ], with tau
    the first exit from the domain. The sampler below is written directly
    from that formula, independent of the fixed-point solver."""
    from rsgame.dirichlet import DirichletDomain, solve_source_problem

    P = np.zeros((3, 3))
    P[0] = [0.4, 0.4, 0.2]
    P[1] = [0.3, 0.3, 0.4]
    P[2] = [0.0, 0.0, 1.0]  # outside the domain; absorbing
    m = make_model(3, [[0]] * 3, [[0]] * 3,
                   [P[i].reshape(1, 1, 3) for i in range(3)],
                   [np.zeros((1, 1))] * 3, i0=0)
    dom = DirichletDomain(m, [0, 1])
    cbar_val = -0.5
    g = np.array([1.0, 0.5, 0.0])
    phi = solve_source_problem(dom, [np.full((1, 1), cbar_val)] * 3, g, tol=1e-12)

    n_paths = 40000
    totals = np.empty(n_paths)
    for k in range(n_paths):
        s = 0
        disc = 1.0
        acc = 0.0
        while s in (0, 1):
            acc += disc * g[s]
            disc *= np.exp(cbar_val)
            s = rng.choice(3, p=P[s])
        totals[k] = acc
    se = totals.std(ddof=1) / np.sqrt(n_paths)
    assert abs(totals.mean() - phi[0]) <= 3.0 * se


# ---------------------------------------------------------------------------
# samplers: reference alias build and outputs pinned bit for bit


def scalar_vose(row):
    """One-row Walker/Vose alias table, the reference for the lockstep build."""
    n = len(row)
    scaled = (row / row.sum()) * n
    alias = np.zeros(n, dtype=np.int64)
    prob = np.ones(n)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] -= 1.0 - scaled[s]
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    return prob, alias


def test_lockstep_alias_matches_scalar_vose(rng):
    n = 12
    dense = rng.uniform(0.0, 1.0, (40, n))
    sparse = np.where(rng.uniform(size=(40, n)) < 0.75, 0.0, rng.uniform(size=(40, n)))
    sparse[:, 0] += 1e-3  # every row keeps some mass
    ties = np.array([
        np.full(n, 1.0),                          # uniform: every scaled entry is 1.0
        [3.0, 1.0, 1.0, 1.0, 0.0, 0.0] * 2,       # scaled entries exactly 1.0 among others
        [1.0] * 6 + [0.5, 1.5] * 3,
        [0.0] * (n - 1) + [1.0],                  # a point mass
    ])
    segments = list(np.vstack([dense, sparse, ties]))
    segments += [rng.uniform(0.0, 1.0, m) for m in rng.integers(1, 300, 30)]
    segments += [np.array([0.7]), np.array([2.0]), np.array([0.0, 5.0]),
                 np.array([5.0, 0.0, 0.0])]       # length 1 and point masses
    order = rng.permutation(len(segments))        # lengths interleave
    segments = [segments[k] for k in order]
    prob, alias = _alias_rows(np.concatenate(segments), [len(w) for w in segments])
    lo = 0
    for k, row in enumerate(segments):
        ref_prob, ref_alias = scalar_vose(row)
        assert np.array_equal(prob[lo:lo + len(row)], ref_prob), k
        assert np.array_equal(alias[lo:lo + len(row)] - lo, ref_alias), k
        lo += len(row)


def assert_frequencies(counts, expected, N):
    """Every cell's frequency within 4 binomial sigma of its probability."""
    expected = np.asarray(expected)
    assert expected.sum() == pytest.approx(1.0, abs=1e-12)
    sigma = np.sqrt(expected * (1.0 - expected) / N)
    assert np.all(np.abs(counts / N - expected) <= 4.0 * sigma + 1e-12), (counts / N, expected)


def test_one_step_frequencies_mixed_pennies_pair():
    """One step from state 0 draws (u, v, j) with probability mu(u) nu(v) P(j|0,u,v)."""
    m = pennies_layer_model()
    mu, nu = np.array([0.3, 0.7]), np.array([0.8, 0.2])
    pi1 = StationaryStrategy([mu, np.ones(1)])
    pi2 = StationaryStrategy([nu, np.ones(1)])
    N = 40000
    batch = simulate_paths(m, pi1, pi2, SimConfig(T=1, N=N, seed=4))
    cell = (batch.u_idx[:, 0] * 2 + batch.v_idx[:, 0]) * 2 + batch.states[:, 1]
    expected = np.einsum("u,v,uvj->uvj", mu, nu, m.dense_transition(0)).ravel()
    assert_frequencies(np.bincount(cell, minlength=8), expected, N)
    assert np.array_equal(batch.costs[:, 0], m.cost[0][batch.u_idx[:, 0], batch.v_idx[:, 0]])


def test_one_step_frequencies_tilted_birth_death_pair(bd60):
    """Under the psi*-tilted table one step from state i draws (u, v, j)
    with probability mu(u) nu(v) P(j|i,u,v) psi(j) / (P psi)(i,u,v), and
    the step cost is c + log (P psi) - log psi(i)."""
    m, rep = bd60
    pi1, pi2 = rep.selectors
    log_psi = np.asarray(rep.log_psi_star, dtype=float)
    tab = _table(_entries(m, log_psi), pi1, pi2)
    N = 40000
    for i in (0, 3, 7):
        e = _step(tab, np.full(N, i), np.random.default_rng(i).random(N))
        mu, nu = pi1.weights[i], pi2.weights[i]
        P = m.dense_transition(i)
        mass = P @ np.exp(log_psi)
        tilted = P * np.exp(log_psi) / mass[..., None]
        expected = np.einsum("u,v,uvj->uvj", mu, nu, tilted)
        mU, mV = m.n_actions(i)
        state, us, vs = m.row_actions()
        cell = (us[tab.row[e]] * mV + vs[tab.row[e]]) * m.n_states + tab.j[e]
        assert_frequencies(np.bincount(cell, minlength=expected.size), expected.ravel(), N)
        step_cost = m.cost[i] + np.log(mass) - log_psi[i]
        assert np.allclose(tab.cost[e], step_cost[us[tab.row[e]], vs[tab.row[e]]],
                           rtol=0, atol=1e-12)


def test_open_model_exit_frequency():
    """An open model's paths leave the window with the pair's exit mass
    sum_{u,v} mu(u) nu(v) (1 - sum_j P(j|0,u,v)) and park at -1."""
    P0 = np.array([[[0.5, 0.3]], [[0.1, 0.4]]])  # exit masses 0.2 and 0.5
    m = make_model(2, [[0, 1], [0]], [[0], [0]], [P0, np.full((1, 1, 2), 0.5)],
                   [np.zeros((2, 1)), np.zeros((1, 1))], i0=0)
    pi1 = StationaryStrategy([np.array([0.25, 0.75]), np.ones(1)])
    pi2 = StationaryStrategy.pure(m, 2, 0)
    N = 40000
    batch = simulate_paths(m, pi1, pi2, SimConfig(T=3, N=N, seed=6, allow_absorption=True))
    exit_mass = 0.25 * 0.2 + 0.75 * 0.5
    counts = np.bincount(batch.states[:, 1] + 1, minlength=3)
    assert_frequencies(counts, [exit_mass, 0.25 * 0.5 + 0.75 * 0.1, 0.25 * 0.3 + 0.75 * 0.4],
                       N)
    gone = batch.states[:, 1] == -1
    assert (batch.states[gone, 2:] == -1).all()
    assert (batch.u_idx[gone, 1:] == -1).all() and (batch.costs[gone, 1:] == 0).all()


@pytest.fixture(scope="module")
def bd60():
    model = build_birth_death(BirthDeathParams(window=60))
    return model, solve_ergodic_game(model, ladder=[10, 20, 40, 60])


def test_verify_saddle_output_pinned(bd60):
    m, rep = bd60
    verdict = verify_saddle(m, rep, SimConfig(T=40, N=300, seed=3), deviations=2)
    assert verdict.to_dict() == {
        "passed": True,
        "rho_star": 0.007303781489469197,
        "selector_estimate": {
            "estimate": 0.007303781486674632,
            "spread": 4.256318683690492e-17,
            "diagnostics": {"max_exponent": 0.2921512594670158,
                            "min_exponent": 0.29215125946697185, "batches": 17,
                            "batch_mean": 0.0073037814866746395, "shift_applied": True,
                            "ess": 299.99999999999994,
                            "top_weight_share": 0.0033333333333334346},
        },
        "equality_ok": True,
        "deviations": [
            {"player": 1, "estimate": 0.6568199592157111,
             "spread": 0.014093918657505138, "ok": True},
            {"player": 1, "estimate": 0.29691982315288346,
             "spread": 0.022801263374623383, "ok": True},
            {"player": 2, "estimate": -0.39243741506773616,
             "spread": 0.015909587878675545, "ok": True},
            {"player": 2, "estimate": -0.1999487571261623,
             "spread": 0.019699241350583773, "ok": True},
        ],
        "warnings": [],
    }


@pytest.mark.parametrize("target, N, rows", [
    # nearly every path enters {0..4} on its first step
    (range(5), 2000, [(5, 1.6367232396369134, 1.637034321241558, 6.738350395781277e-16),
                      (6, 1.8088589253852752, 1.8090215202842623, 6.738350395781277e-16)]),
    # paths leave through state 0 and climb back: long, refilled live sets
    (range(1, 5), 300, [(5, 1.6251043211534542, 1.637034321241558, 0.06464661582658957),
                        (6, 1.8344532925963855, 1.8090215202842623, 0.05483134686294625)]),
])
def test_representation_rows_pinned(bd60, target, N, rows):
    m, rep = bd60
    verdict = verify_stochastic_representation(
        m, rep, list(target), SimConfig(T=1, N=N, seed=13, start=[5, 6]))
    got = [(r["start"], r["estimate"], r["psi"], r["spread"]) for r in verdict.per_start]
    assert got == rows
    assert all(r["capped_fraction"] == 0.0 for r in verdict.per_start)


def test_path_csv_pinned():
    def digest(model, pi1, pi2, cfg):
        return hashlib.sha256(simulate_paths(model, pi1, pi2, cfg).to_csv().encode()).hexdigest()

    m = build_birth_death(BirthDeathParams(window=30))
    pi1, pi2 = solve_ergodic_game(m, ladder=[10, 30]).selectors
    assert digest(m, pi1, pi2, SimConfig(T=20, N=50, seed=5)) == (
        "b52685f7e6c7d4ea2fd48d5cfdb0a84e7062c3bc5bed16eb8e931df411b80185")
    pennies = pennies_layer_model()
    mixed = solve_ergodic_game(pennies, ladder=[2]).selectors
    assert digest(pennies, *mixed, SimConfig(T=30, N=40, seed=2)) == (
        "bf1129df0dba20850a65050b3969dabd901020045ab58f76f3ec52fd5dba2f44")
    P = np.full((1, 1, 2), 0.4)  # open: a fifth of each row's mass leaves
    leaky = make_model(2, [[0], [0]], [[0], [0]], [P.copy(), P.copy()],
                       [np.zeros((1, 1))] * 2, i0=0)
    assert digest(leaky, *pures(leaky),
                  SimConfig(T=40, N=6, seed=0, allow_absorption=True)) == (
        "3c6390c809ef1b67310bc8f73b7b9832848ab442c04933293159d1b2175d3313")
