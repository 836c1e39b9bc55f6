import dataclasses
import hashlib
import json

import numpy as np
import pytest

from conftest import one_state_two_action, pennies_layer_model, uncontrolled_two_state
from oracles import dense_transition, state_cost
from rsgame.birth_death import BirthDeathParams, build_birth_death
from rsgame.model import StationaryStrategy, make_model
from rsgame import simulate
from rsgame.simulate import (OpenModel, SimConfig, _alias_rows, _deviation_strategies,
                             _entries, _growth_estimate, _step, _table, _Uniforms,
                             estimate_ergodic_cost, estimate_with_deviations, simulate_paths,
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
    """Every sampler refuses a model whose mass leaves the window."""
    P = np.full((1, 1, 2), 0.4)  # row mass 0.8: the rest leaves the window
    m = make_model(2, [[0], [0]], [[0], [0]], [P.copy(), P.copy()],
                   [np.zeros((1, 1))] * 2, i0=0)
    pi1, pi2 = pures(m)
    cfg = SimConfig(T=5, N=10, seed=0)
    with pytest.raises(OpenModel):
        estimate_ergodic_cost(m, pi1, pi2, cfg)
    with pytest.raises(OpenModel):
        estimate_with_deviations(m, pi1, pi2, cfg, 1, 1)
    with pytest.raises(OpenModel):
        simulate_paths(m, pi1, pi2, cfg)


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


def test_entry_points_refuse_states_outside_the_window(two_state):
    """Start and target states must lie in 0..n-1; a negative one is not
    read from the end of the window."""
    pi1, pi2 = pures(two_state)
    rep = solve_ergodic_game(two_state, ladder=[2])
    message = r"states \[{}\] lie outside the window 0\.\.1"
    for start in (-1, 2):
        cfg = SimConfig(T=5, N=10, seed=0, start=start)
        for call in (lambda: estimate_ergodic_cost(two_state, pi1, pi2, cfg),
                     lambda: simulate.estimate_with_deviations(two_state, pi1, pi2, cfg, 1, 1),
                     lambda: simulate_paths(two_state, pi1, pi2, cfg),
                     lambda: verify_saddle(two_state, rep, cfg),
                     lambda: verify_stochastic_representation(
                         two_state, rep, [0], SimConfig(T=1, N=10, start=[start]))):
            with pytest.raises(ValueError, match=message.format(start)):
                call()
    with pytest.raises(ValueError, match=message.format(-1)):
        verify_stochastic_representation(two_state, rep, [-1], SimConfig(T=1, N=10, start=[1]))


def test_negative_deviation_counts_are_refused(two_state):
    pi1, pi2 = pures(two_state)
    rep = solve_ergodic_game(two_state, ladder=[2])
    cfg = SimConfig(T=5, N=10, seed=0)
    with pytest.raises(ValueError, match="deviation count must be >= 0, got -1"):
        simulate.estimate_with_deviations(two_state, pi1, pi2, cfg, 2, -1)
    with pytest.raises(ValueError, match="deviation count must be >= 0, got -1"):
        verify_saddle(two_state, rep, cfg, deviations=-1)


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
    assert plug_in.estimate == 0.3728138163988163
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
    hand = float(np.exp(state_cost(m, 2)[0, 0] - rep.rho_star)
                 * (P[2, 0] * psi[0] + P[2, 1] * psi[1]))
    # eigen identity: entering {0,1} in one step from 2 reproduces psi(2)
    # up to the continuation mass through state 2 itself
    verdict = verify_stochastic_representation(
        m, rep, [0, 1], SimConfig(T=1, N=30000, seed=7, start=[2]))
    row = verdict.per_start[0]
    assert row["ok"]
    assert row["psi"] == pytest.approx(psi[2], abs=1e-12)
    assert hand <= row["psi"]  # the one-step part is part of the whole


def test_representation_refuses_nonfinite_selector_weights():
    m = pennies_layer_model()
    rep = solve_ergodic_game(m)
    rep.selectors[0].weights[0] = np.array([np.nan, 1.0])
    with pytest.raises(ValueError, match="state 0: non-finite weight nan"):
        verify_stochastic_representation(m, rep, [1], SimConfig(T=1, N=10, start=[0]))


def test_representation_refuses_an_empty_start_list():
    m = pennies_layer_model()
    rep = solve_ergodic_game(m)
    with pytest.raises(ValueError, match="the start list is empty"):
        verify_stochastic_representation(m, rep, [1], SimConfig(T=1, N=10, start=[]))


def test_representation_cap_inconclusive(monkeypatch):
    monkeypatch.setattr(simulate, "HITTING_CAP", 2)
    m = geometric_model(p_loop=0.95, c1=0.01)
    rep = solve_ergodic_game(m, ladder=[2])
    cfg = SimConfig(T=1, N=500, seed=11, start=[1])
    verdict = verify_stochastic_representation(m, rep, [0], cfg)
    assert verdict.inconclusive
    assert not verdict.passed
    assert verdict.per_start[0]["capped_fraction"] > 0.01
    assert verdict.per_start[0]["capped_fraction"] == 0.892


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


# ---------------------------------------------------------------------------
# the draw contract: path k's uniform at step t is a function of (seed, k, t)


def reference_uniform(seed, k, t):
    """Value k % 4 of the Philox stream keyed (seed, 0) at counter (k // 4, t)."""
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64),
                            counter=[k // 4, t, 0, 0])
    return np.random.Generator(bits).random(4)[k % 4]


def test_uniform_rows_are_counter_keyed():
    draws = _Uniforms(9)
    full = draws.row(3, 0, 50)
    for lo, hi in ((0, 50), (7, 23), (13, 14), (49, 50)):
        assert np.array_equal(draws.row(3, lo, hi), full[lo:hi])
    assert np.array_equal(full, [reference_uniform(9, k, 3) for k in range(50)])
    # a negative seed is taken mod 2^64
    assert _Uniforms(-1).row(0, 5, 6)[0] == reference_uniform(2**64 - 1, 5, 0)


def test_uniform_rows_differ_across_steps_and_seeds():
    rows = [_Uniforms(s).row(t, 0, 64) for s in (4, 5) for t in (0, 1)]
    for a in range(4):
        for b in range(a):
            assert not np.intersect1d(rows[a], rows[b]).size


def test_uniform_rows_moments():
    """10^6 uniforms over 1000 paths x 1000 steps: mean and variance within
    4 sigma of U(0, 1)'s 1/2 and 1/12."""
    draws = _Uniforms(2024)
    x = np.concatenate([draws.row(t, 0, 1000) for t in range(1000)])
    n = len(x)
    assert abs(x.mean() - 0.5) <= 4.0 * np.sqrt(1.0 / 12.0 / n)
    # the variance estimate has variance (mu_4 - sigma^4) / n = 1 / (180 n)
    assert abs(x.var() - 1.0 / 12.0) <= 4.0 * np.sqrt(1.0 / 180.0 / n)


def test_growth_estimate_independent_of_blocking(monkeypatch):
    m = build_birth_death(BirthDeathParams(window=20))
    tab = _table(_entries(m), *solve_ergodic_game(m, ladder=[10, 20]).selectors)
    cfg = SimConfig(T=30, N=1000, seed=6)
    got = []
    for block in (64, 4096):
        monkeypatch.setattr(simulate, "BLOCK_PATHS", block)
        got.append(_growth_estimate(tab, cfg).to_dict())
    assert got[0] == got[1]


def test_dirichlet_deviations_match_per_state_draws():
    """The one-draw Dirichlet deviations equal Generator.dirichlet state by
    state, bit for bit, on ragged action sets."""
    rng = np.random.default_rng(3)
    n = 40
    mu, mv = rng.integers(1, 12, n), rng.integers(1, 12, n)
    m = make_model(n, [list(range(a)) for a in mu], [list(range(b)) for b in mv],
                   [np.full((mu[i], mv[i], n), 1.0 / n) for i in range(n)],
                   [np.zeros((mu[i], mv[i])) for i in range(n)], i0=0)
    for player, sizes in ((1, mu), (2, mv)):
        for seed in (0, 17):
            ref = np.random.default_rng(np.uint64(seed) + np.uint64(7919 * player))
            for dev in _deviation_strategies(m, player, 3, seed):
                want = [ref.dirichlet(np.ones(k)) for k in sizes]
                assert all(np.array_equal(a, b) for a, b in zip(dev.weights, want))


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
    expected = np.einsum("u,v,uvj->uvj", mu, nu, dense_transition(m, 0)).ravel()
    assert_frequencies(np.bincount(cell, minlength=8), expected, N)
    assert np.array_equal(batch.costs[:, 0],
                          state_cost(m, 0)[batch.u_idx[:, 0], batch.v_idx[:, 0]])


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
        P = dense_transition(m, i)
        mass = P @ np.exp(log_psi)
        tilted = P * np.exp(log_psi) / mass[..., None]
        expected = np.einsum("u,v,uvj->uvj", mu, nu, tilted)
        mU, mV = m.shapes[i]
        state, us, vs = m.row_actions()
        cell = (us[tab.row[e]] * mV + vs[tab.row[e]]) * m.n_states + tab.j[e]
        assert_frequencies(np.bincount(cell, minlength=expected.size), expected.ravel(), N)
        step_cost = state_cost(m, i) + np.log(mass) - log_psi[i]
        assert np.allclose(tab.cost[e], step_cost[us[tab.row[e]], vs[tab.row[e]]],
                           rtol=0, atol=1e-12)


@pytest.fixture(scope="module")
def bd60():
    model = build_birth_death(BirthDeathParams(window=60))
    return model, solve_ergodic_game(model, ladder=[10, 20, 40, 60])


def test_negative_seed_runs_as_its_value_mod_2_64(bd60):
    """Seed -1 draws the Dirichlet deviations and the paths of seed
    2**64 - 1, so both give the same verdict."""
    m, rep = bd60
    first, last = (_deviation_strategies(m, 2, 3, seed) for seed in (-1, 2**64 - 1))
    assert len(first) == 3 and not np.isin(first[0].weights[0], [0.0, 1.0]).all()
    for a, b in zip(first, last):
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    verdicts = [verify_saddle(m, rep, SimConfig(T=20, N=20, seed=seed), deviations=3).to_dict()
                for seed in (-1, 2**64 - 1)]
    assert len(verdicts[0]["deviations"]) == 6 and verdicts[0] == verdicts[1]


def test_verify_saddle_output_pinned(bd60):
    m, rep = bd60
    verdict = verify_saddle(m, rep, SimConfig(T=40, N=300, seed=3), deviations=2)
    assert verdict.to_dict() == {
        "passed": True,
        "rho_star": 0.007303781489469197,
        "selector_estimate": {
            "estimate": 0.007303781486674654,
            "spread": 5.803105406598886e-17,
            "diagnostics": {"max_exponent": 0.29215125946701626,
                            "min_exponent": 0.29215125946697185, "batches": 17,
                            "batch_mean": 0.007303781486674639, "shift_applied": True,
                            "ess": 300.0,
                            "top_weight_share": 0.0033333333333334355},
        },
        "equality_ok": True,
        "deviations": [
            {"player": 1, "estimate": 0.666290653781332,
             "spread": 0.016138287345359787, "ok": True},
            {"player": 1, "estimate": 0.29784474175434805,
             "spread": 0.022030658760096456, "ok": True},
            {"player": 2, "estimate": -0.4007483778517096,
             "spread": 0.011064229118707771, "ok": True},
            {"player": 2, "estimate": -0.21511232816866585,
             "spread": 0.015131976972320549, "ok": True},
        ],
        "warnings": [],
    }


@pytest.mark.parametrize("target, N, rows", [
    # nearly every path enters {0..4} on its first step
    (range(5), 2000, [(5, 1.63724430949868, 1.637034321241558, 0.003491299436440371),
                      (6, 1.8088589253852752, 1.8090215202842623, 6.738350395781277e-16)]),
    # paths leave through state 0 and climb back: long, refilled live sets
    (range(1, 5), 300, [(5, 1.6355728000959198, 1.637034321241558, 0.05762650728071819),
                        (6, 1.815542815544354, 1.8090215202842623, 0.04897810398394084)]),
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
        "7adca4e7719b92a99da43c8e5c79f7fe45942c3037ad4e5d069ccdcc9af8329e")
    pennies = pennies_layer_model()
    mixed = solve_ergodic_game(pennies, ladder=[2]).selectors
    assert digest(pennies, *mixed, SimConfig(T=30, N=40, seed=2)) == (
        "ab000238caf4418e0bcac3e386f7e747e9db72ff78f2e6a463c2d45ba9b32558")
