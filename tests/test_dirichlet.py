import hashlib
import json

import numpy as np
import pytest

from conftest import (pennies_layer_model, random_closed_model, scalar_self_loop,
                      uncontrolled_two_state)
from oracles import local_matrices, perron_log_radius, solve_one_saddle
from rsgame import dirichlet
from rsgame.birth_death import BirthDeathParams, build_birth_death
from rsgame.dirichlet import (CollapseToZero, DirichletDomain, NoConvergence,
                              apply_operator, dirichlet_eigenpair)
from rsgame.model import make_model
from rsgame.solver import solve_ergodic_game

LOG_1P5 = 0.4054651081081644  # Perron root of [[.5,.5],[1,1]], by char poly


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
    assert ep.domain.tolist() == [0, 1]


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
    ep = dirichlet_eigenpair(DirichletDomain.prefix(m, 2), tol=1e-9)
    assert ep.rho == pytest.approx(0.5, abs=1e-8)  # log sqrt(e), by char poly
    assert ep.damping_events > 0


def test_viability_shrinks_to_sustainable_core():
    # state 1 always exits the window; state 0 splits between 0 and 1
    P0 = np.zeros((1, 1, 2))
    P0[0, 0] = [0.5, 0.5]
    P1 = np.zeros((1, 1, 2))  # row sums to zero: everything leaves
    m = make_model(2, [[0], [0]], [[0], [0]], [P0, P1],
                   [np.zeros((1, 1))] * 2, i0=0)
    ep = dirichlet_eigenpair(DirichletDomain.prefix(m, 2), tol=1e-10)
    assert ep.domain.tolist() == [0]
    assert ep.rho == pytest.approx(np.log(0.5), abs=1e-10)
    assert not np.isfinite(ep.log_psi[1])


def test_one_state_dies_per_sweep_in_a_cascade():
    """0 -> {0, 1} -> 2 -> 3, and all of state 3's mass leaves the window.
    Each sweep kills the last state of the chain, and the sweep after it
    brackets nothing: psi is positive only on the survivors from then on.
    Three killing sweeps, then psi = 1 on {0} gives rho = log p exactly (zero
    costs). Bracketing the killing sweep would read rho = 0 on {0, 1, 2}."""
    p = 0.3
    P = [np.zeros((1, 1, 4)) for _ in range(4)]
    P[0][0, 0, :2] = [p, 1.0 - p]
    P[1][0, 0, 2] = 1.0
    P[2][0, 0, 3] = 1.0
    m = make_model(4, [[0]] * 4, [[0]] * 4, P, [np.zeros((1, 1))] * 4, i0=0)
    ep = dirichlet_eigenpair(DirichletDomain.prefix(m, 4), tol=1e-12)
    assert ep.domain.tolist() == [0]
    assert ep.rho == np.log(p)
    assert ep.bracket == (np.log(p), np.log(p))
    assert ep.iterations == 4
    assert ep.log_psi.tolist() == [0.0] + [-np.inf] * 3


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


def test_no_convergence_reports_bracket(two_state, monkeypatch):
    monkeypatch.setattr(dirichlet, "DEFAULT_MAX_ITER", 1)
    with pytest.raises(NoConvergence) as exc:
        dirichlet_eigenpair(DirichletDomain.prefix(two_state, 2), tol=1e-10)
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
    (random_game, None, 0.4214509305085627, 5.528668634013911e-10,
     "5776e066b013d36caad4fdae1d0747b469bfdeb99fe6a17e3e37d83b9b909c37",
     "eb53ee22c84415378622fd6ad339c428ac4c60d2ec26376a19d0b8f27cb839e4"),
], ids=["bd60", "random-3x3"])
def test_solve_outputs_pinned(build, ladder, rho, res, psi_sha, sel_sha):
    """bd60: the one-state-at-a-time solver's values, before the batched
    path. random-3x3: the cutting-plane solver's (mixed local saddles)."""
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
            C, L = local_matrices(model, i, log_psi)
            assert saddle_fields(s) == saddle_fields(solve_one_saddle(C, L))
            assert log_G[i] == s.log_value


def test_apply_operator_matches_scalar_solves_on_mixed_states():
    model = random_game()
    log_psi = np.random.default_rng(3).normal(0.0, 0.5, model.n_states)
    states = list(range(model.n_states))
    log_G, saddles = apply_operator(model, states, log_psi)
    for i, s in zip(states, saddles):
        C, L = local_matrices(model, i, log_psi)
        assert saddle_fields(s) == saddle_fields(solve_one_saddle(C, L))
        assert log_G[i] == s.log_value
    assert any(s.order_gap > 0 for s in saddles)  # mixed states took the cutting planes
