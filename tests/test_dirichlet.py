import hashlib
import json

import numpy as np
import pytest

from conftest import (pennies_layer_model, random_closed_model, scalar_self_loop,
                      uncontrolled_two_state)
from oracles import perron_log_radius
from rsgame.birth_death import BirthDeathParams, build_birth_death
from rsgame.dirichlet import (CollapseToZero, DirichletDomain, NoConvergence,
                              NonnegativeSourceRequired, NotStrictlyNegative,
                              apply_operator, dirichlet_eigenpair,
                              solve_source_problem, viable_states)
from rsgame.model import make_model
from rsgame.saddle import solve_saddle_core
from rsgame.solver import solve_ergodic_game

LOG_1P5 = 0.4054651081081644  # Perron root of [[.5,.5],[1,1]], by char poly


# ---------------------------------------------------------------------------
# source problem


def test_source_zero_g_gives_zero(two_state):
    dom = DirichletDomain.prefix(two_state, 2)
    cbar = [np.full((1, 1), -0.3)] * 2
    phi = solve_source_problem(dom, cbar, np.zeros(2))
    assert np.all(phi == 0.0)


def test_source_scalar_fixed_point():
    # phi = e^{-1} phi + 1  =>  phi = 1/(1 - e^{-1})
    m = scalar_self_loop(p=1.0, c=0.0)
    dom = DirichletDomain.prefix(m, 1)
    phi = solve_source_problem(dom, [np.full((1, 1), -1.0)], np.array([1.0]), tol=1e-12)
    assert phi[0] == pytest.approx(1.5819767068693265, abs=1e-9)


def test_source_matches_dense_linear_solve(rng):
    # uncontrolled: the fixed point solves (I - e^{cbar} P) phi = g
    P = rng.uniform(0.1, 1.0, (2, 2))
    P /= P.sum(axis=1, keepdims=True)
    m = make_model(2, [[0], [0]], [[0], [0]],
                   [P[0].reshape(1, 1, 2), P[1].reshape(1, 1, 2)],
                   [np.zeros((1, 1))] * 2, i0=0)
    dom = DirichletDomain.prefix(m, 2)
    g = np.array([1.0, 0.0])
    phi = solve_source_problem(dom, [np.full((1, 1), -0.5)] * 2, g, tol=1e-12)
    exact = np.linalg.solve(np.eye(2) - np.exp(-0.5) * P, g)
    assert phi[:2] == pytest.approx(exact, abs=1e-10)


def test_source_without_sweeps_reports_its_bracket(two_state):
    dom = DirichletDomain.prefix(two_state, 2)
    cbar = [np.full((1, 1), -0.3)] * 2
    for max_iter in (0, -3):
        with pytest.raises(NoConvergence) as exc:
            solve_source_problem(dom, cbar, np.ones(2), max_iter=max_iter)
        assert exc.value.bracket == (0.0, np.inf)
        assert exc.value.iterations == 0
        assert "after 0 sweeps" in str(exc.value)


def test_source_requires_strictly_negative_exponent(two_state):
    dom = DirichletDomain.prefix(two_state, 2)
    with pytest.raises(NotStrictlyNegative):
        solve_source_problem(dom, [np.zeros((1, 1))] * 2, np.zeros(2))


def test_source_requires_nonnegative_g(two_state):
    dom = DirichletDomain.prefix(two_state, 2)
    with pytest.raises(NonnegativeSourceRequired):
        solve_source_problem(dom, [np.full((1, 1), -0.5)] * 2, np.array([1.0, -0.1]))


# ---------------------------------------------------------------------------
# eigenpair


def test_eigen_scalar_self_loop():
    p, c = 0.8, 0.35
    m = scalar_self_loop(p, c)
    ep = dirichlet_eigenpair(DirichletDomain.prefix(m, 1))
    assert ep.rho == pytest.approx(c + np.log(p), abs=1e-12)
    assert ep.log_psi[0] == 0.0


def test_eigen_two_state_perron_root(two_state):
    ep = dirichlet_eigenpair(DirichletDomain.prefix(two_state, 2), tol=1e-10)
    assert ep.rho == pytest.approx(LOG_1P5, abs=1e-10)
    M = np.array([[0.5, 0.5], [1.0, 1.0]])
    assert ep.rho == pytest.approx(perron_log_radius(M), abs=1e-10)
    assert np.exp(ep.log_psi) == pytest.approx([1.0, 2.0], abs=1e-9)
    doc = ep.to_dict()
    assert set(doc) == {"rho", "psi", "domain"}
    assert doc["domain"] == [0, 1]


def test_eigen_zero_cost_closed_chain(rng):
    P = rng.uniform(0.1, 1.0, (3, 3))
    P /= P.sum(axis=1, keepdims=True)
    m = make_model(3, [[0]] * 3, [[0]] * 3,
                   [P[i].reshape(1, 1, 3) for i in range(3)],
                   [np.zeros((1, 1))] * 3, i0=0)
    ep = dirichlet_eigenpair(DirichletDomain.prefix(m, 3), tol=1e-12)
    assert ep.rho == pytest.approx(0.0, abs=1e-12)
    assert np.exp(ep.log_psi) == pytest.approx(np.ones(3), abs=1e-10)


def test_collatz_wielandt_sandwich_each_sweep(two_state):
    """Manual sweeps: the running ratio bracket always straddles the limit."""
    log_psi = np.zeros(2)
    for _ in range(6):
        log_G, _ = apply_operator(two_state, [0, 1], log_psi)
        ratios = log_G - log_psi
        assert ratios.min() <= LOG_1P5 + 1e-12
        assert ratios.max() >= LOG_1P5 - 1e-12
        log_psi = log_G - log_G[0]
    ep = dirichlet_eigenpair(DirichletDomain.prefix(two_state, 2))
    assert ep.bracket[0] - 1e-15 <= ep.rho <= ep.bracket[1] + 1e-15


def test_operator_monotone_and_homogeneous_on_domain(rng, two_state):
    states = [0, 1]
    for _ in range(10):
        lp1 = rng.normal(0.0, 1.0, 2)
        lp2 = lp1 + rng.uniform(0.0, 1.0, 2)
        lam = float(rng.uniform(0.2, 5.0))
        g1, _ = apply_operator(two_state, states, lp1)
        g2, _ = apply_operator(two_state, states, lp2)
        g1s, _ = apply_operator(two_state, states, lp1 + np.log(lam))
        assert np.all(g1[states] <= g2[states] + 1e-10)
        assert g1s[states] == pytest.approx(g1[states] + np.log(lam), abs=1e-10)


def test_periodic_chain_converges_with_damping():
    # two-cycle with one costly state: growth rate is the half cost
    P0 = np.zeros((1, 1, 2))
    P0[0, 0, 1] = 1.0
    P1 = np.zeros((1, 1, 2))
    P1[0, 0, 0] = 1.0
    m = make_model(2, [[0], [0]], [[0], [0]], [P0, P1],
                   [np.zeros((1, 1)), np.ones((1, 1))], i0=0)
    ep = dirichlet_eigenpair(DirichletDomain.prefix(m, 2), tol=1e-9, max_iter=2000)
    assert ep.rho == pytest.approx(0.5, abs=1e-8)  # log sqrt(e), by char poly
    assert ep.damping_events > 0


def test_viability_shrinks_to_sustainable_core():
    # state 1 always exits the window; state 0 splits between 0 and 1
    P0 = np.zeros((1, 1, 2))
    P0[0, 0] = [0.5, 0.5]
    P1 = np.zeros((1, 1, 2))  # row sums to zero: everything leaves
    m = make_model(2, [[0], [0]], [[0], [0]], [P0, P1],
                   [np.zeros((1, 1))] * 2, i0=0)
    dom = DirichletDomain.prefix(m, 2)
    assert viable_states(dom).tolist() == [0]
    ep = dirichlet_eigenpair(dom, tol=1e-10)
    assert ep.rho == pytest.approx(np.log(0.5), abs=1e-10)
    assert not np.isfinite(ep.log_psi[1])


def test_collapse_when_reference_state_dies():
    # i0 feeds a state whose mass all leaves the window
    P0 = np.zeros((1, 1, 2))
    P0[0, 0, 1] = 1.0
    P1 = np.zeros((1, 1, 2))
    m = make_model(2, [[0], [0]], [[0], [0]], [P0, P1],
                   [np.zeros((1, 1))] * 2, i0=0)
    with pytest.raises(CollapseToZero):
        dirichlet_eigenpair(DirichletDomain.prefix(m, 2))


def test_domain_validation(two_state):
    with pytest.raises(ValueError):
        DirichletDomain(two_state, [1])  # reference state missing
    with pytest.raises(ValueError):
        DirichletDomain(two_state, [0, 5])  # outside the window


def test_no_convergence_reports_bracket(two_state):
    from rsgame.dirichlet import NoConvergence
    with pytest.raises(NoConvergence) as exc:
        dirichlet_eigenpair(DirichletDomain.prefix(two_state, 2), tol=1e-10, max_iter=1)
    assert exc.value.iterations == 1
    lo, hi = exc.value.bracket
    assert lo <= LOG_1P5 <= hi


# ---------------------------------------------------------------------------
# batched local solves: outputs pinned to the scalar solver's


def saddle_fields(s):
    return (s.log_value, s.mu.tolist(), s.nu.tolist(), s.gap, s.order_gap,
            s.empty_support)


def random_game(seed=1):
    return random_closed_model(np.random.default_rng(seed), n=8, mu=3, mv=3)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


@pytest.mark.parametrize("build, ladder, rho, res, psi_sha, sel_sha", [
    (lambda: build_birth_death(BirthDeathParams(window=60)), [10, 20, 40, 60],
     0.007303781489469197, 2.7949031977669847e-12,
     "15347f5fcc370cf52ef161f550dfd44ae6ed97c6c112b1f2371372b8655554ac",
     "2ec1f7854d261c779c60b7051d50699588c2128f84a5ac044d5515a748544b9c"),
    (random_game, None, 0.42145093050856375, 5.528667523790887e-10,
     "cb1dba74835276a71e9bc00d5ae375e7b94df24931f5d301c185d1acddff6f12",
     "d129b63d0853656535e7ad27ac974e96f8513a2e6d7ad4a6be65f880495c734a"),
], ids=["bd60", "random-3x3"])
def test_solve_outputs_pinned(build, ladder, rho, res, psi_sha, sel_sha):
    """Values of the one-state-at-a-time solver, before the batched path."""
    doc = solve_ergodic_game(build(), ladder=ladder).to_dict()
    assert doc["rho_star"] == rho
    assert doc["residual"] == res
    assert digest(doc["log_psi_star"]) == psi_sha
    assert digest(doc["selectors"]) == sel_sha


def test_apply_operator_matches_scalar_solves_on_ragged_actions():
    model = pennies_layer_model()  # state 0 is 2 x 2, state 1 is 1 x 1
    for log_psi in (np.zeros(2), np.array([0.0, 0.7]), np.array([0.0, -np.inf])):
        log_G, saddles = apply_operator(model, [0, 1], log_psi)
        for i, s in zip([0, 1], saddles):
            C, L = model.cost[i], model.inner_log_sums([i], log_psi)[0]
            assert saddle_fields(s) == saddle_fields(solve_saddle_core(C, L))
            assert log_G[i] == s.log_value


def test_apply_operator_matches_scalar_solves_on_mixed_states():
    model = random_game()
    log_psi = np.random.default_rng(3).normal(0.0, 0.5, model.n_states)
    states = list(range(model.n_states))
    log_G, saddles = apply_operator(model, states, log_psi)
    for i, s in zip(states, saddles):
        C, L = model.cost[i], model.inner_log_sums([i], log_psi)[0]
        assert saddle_fields(s) == saddle_fields(solve_saddle_core(C, L))
        assert log_G[i] == s.log_value
    assert any(s.order_gap > 0 for s in saddles)  # mixed states took the scalar stages
