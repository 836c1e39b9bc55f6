import json
import warnings

import numpy as np
import pytest

from conftest import (one_state_two_action, pennies_layer_model,
                      random_closed_model, random_uncontrolled_chain,
                      scalar_self_loop, uncontrolled_two_state)
from oracles import (NotUncontrolled, dense_transition, perron_log_radius, state_cost,
                     uncontrolled_eigen_oracle)
from rsgame import dirichlet
from rsgame.birth_death import BirthDeathParams, build_birth_death
from rsgame.model import make_model
from rsgame.solver import (default_ladder, eigenvalue_upper_bound, extract_selectors,
                           residual, solve_ergodic_game)

LOG_1P5 = 0.4054651081081644


def test_solve_zero_cost_model(rng):
    P = rng.uniform(0.1, 1.0, (3, 3))
    P /= P.sum(axis=1, keepdims=True)
    m = make_model(3, [[0]] * 3, [[0]] * 3,
                   [P[i].reshape(1, 1, 3) for i in range(3)],
                   [np.zeros((1, 1))] * 3, i0=0)
    rep = solve_ergodic_game(m, ladder=[2, 3], tol_eig=1e-10)
    assert rep.rho_star == pytest.approx(0.0, abs=1e-10)
    assert np.exp(rep.log_psi_star) == pytest.approx(np.ones(3), abs=1e-8)
    assert rep.residual <= 1e-9


def test_solve_two_state_chain(two_state):
    rep = solve_ergodic_game(two_state, ladder=[2], tol_eig=1e-10)
    assert rep.rho_star == pytest.approx(LOG_1P5, abs=1e-10)
    assert rep.residual <= 1e-8
    assert rep.rho_star == pytest.approx(uncontrolled_eigen_oracle(two_state), abs=1e-10)
    lo, hi = rep.diagnostics["final_bracket"]
    assert lo - 1e-15 <= rep.rho_star <= hi + 1e-15


def test_solve_birth_death_cross_ladder_consistency():
    m = build_birth_death(BirthDeathParams(window=60))
    a = solve_ergodic_game(m, ladder=[10, 20, 40, 60])
    b = solve_ergodic_game(m, ladder=[15, 30, 60])
    assert abs(a.rho_star - b.rho_star) <= 1e-4
    assert a.residual <= 1e-6 and b.residual <= 1e-6


def test_ladder_solve_runs_one_sweep_after_the_ladder(monkeypatch):
    """The final sweep gives the residual, the selectors and the diagnostics."""
    from rsgame import solver
    sweeps = []
    real = dirichlet.apply_operator

    def counted(*args, **kwargs):
        sweeps.append(len(args[1]))
        return real(*args, **kwargs)

    for module in (dirichlet, solver):  # every module that binds the name
        monkeypatch.setattr(module, "apply_operator", counted)
    rep = solve_ergodic_game(build_birth_death(BirthDeathParams(window=60)),
                             ladder=[10, 20, 40, 60])
    assert len(rep.ladder) >= 2
    assert len(sweeps) == sum(r.iterations for r in rep.ladder) + 1
    assert sweeps[-1] == len(rep.domain)


def test_residual_exact_scalar_pair():
    p, c = 0.9, 0.2
    m = scalar_self_loop(p, c)
    rho = c + np.log(p)
    assert residual(m, rho, np.zeros(1), [0]) <= 1e-12


def test_residual_detects_perturbation(two_state):
    rep = solve_ergodic_game(two_state, ladder=[2], tol_eig=1e-10)
    log_psi = rep.log_psi_star.copy()
    log_psi[1] += 0.1
    # direct recomputation, no solver machinery: the model is uncontrolled
    rho = rep.rho_star
    r0 = np.log(0.5 * np.exp(log_psi[0]) + 0.5 * np.exp(log_psi[1])) - rho - log_psi[0]
    r1 = (np.log(2.0) + np.log(0.5 * np.exp(log_psi[0]) + 0.5 * np.exp(log_psi[1]))
          - rho - log_psi[1])
    expected = max(abs(r0), abs(r1))
    got = residual(two_state, rho, log_psi, [0, 1])
    assert got == pytest.approx(expected, abs=1e-9)
    assert got > 0.03


def test_residual_solved_two_state_small(two_state):
    rep = solve_ergodic_game(two_state, ladder=[2])
    assert rep.residual <= 1e-8


def test_selectors_uncontrolled_point_masses(two_state):
    rep = solve_ergodic_game(two_state, ladder=[2])
    pi1, pi2 = rep.selectors
    for w in pi1.weights + pi2.weights:
        assert w.tolist() == [1.0]


def test_selectors_pennies_layer_under_flat_psi():
    m = pennies_layer_model()
    pi1, pi2 = extract_selectors(m, np.zeros(2), [0, 1])
    assert pi1.weights[0] == pytest.approx([0.5, 0.5], abs=1e-9)
    assert pi2.weights[0] == pytest.approx([0.5, 0.5], abs=1e-9)


def test_final_sweep_on_a_domain_without_finite_log_psi():
    """Selectors fall back to the lowest-index pure pair; the residual is a
    named error, not an empty max."""
    m = pennies_layer_model()
    log_psi = np.array([0.0, -np.inf])
    pi1, pi2 = extract_selectors(m, log_psi, [1])
    assert [w.tolist() for w in pi1.weights + pi2.weights] == [[1.0, 0.0], [1.0]] * 2
    with pytest.raises(ValueError, match="no domain state has finite log psi"):
        residual(m, 0.0, log_psi, [1])


def test_selectors_deterministic_across_resolves():
    m = build_birth_death(BirthDeathParams(window=30))
    r1 = solve_ergodic_game(m, ladder=[10, 20, 30])
    r2 = solve_ergodic_game(m, ladder=[10, 20, 30])
    for a, b in zip(r1.selectors[0].weights, r2.selectors[0].weights):
        assert np.max(np.abs(a - b)) <= 1e-6
    for a, b in zip(r1.selectors[1].weights, r2.selectors[1].weights):
        assert np.max(np.abs(a - b)) <= 1e-6


def test_selectors_invariant_under_psi_scaling(two_state):
    rep = solve_ergodic_game(two_state, ladder=[2])
    lam = 3.7
    s1 = extract_selectors(two_state, rep.log_psi_star, rep.domain)
    s2 = extract_selectors(two_state, rep.log_psi_star + np.log(lam), rep.domain)
    for a, b in zip(s1[0].weights + s1[1].weights, s2[0].weights + s2[1].weights):
        assert np.array_equal(a > 1e-12, b > 1e-12)
        assert a == pytest.approx(b, abs=1e-10)


# ---------------------------------------------------------------------------
# uncontrolled oracle


def test_oracle_identity_chain_constant_cost():
    kappa = 0.7
    m = make_model(2, [[0], [0]], [[0], [0]],
                   [np.eye(2)[0].reshape(1, 1, 2), np.eye(2)[1].reshape(1, 1, 2)],
                   [np.full((1, 1), kappa)] * 2, i0=0)
    assert uncontrolled_eigen_oracle(m) == pytest.approx(kappa, abs=1e-10)


def test_oracle_two_state(two_state):
    assert uncontrolled_eigen_oracle(two_state) == pytest.approx(LOG_1P5, abs=1e-12)


def test_oracle_row_stochastic_root_is_one(rng):
    m = random_uncontrolled_chain(rng, 5)
    m = make_model(5, m.actions_p1, m.actions_p2, m.kernel, np.zeros(5))
    assert uncontrolled_eigen_oracle(m) == pytest.approx(0.0, abs=1e-10)


def test_oracle_matches_dense_eigvals(rng):
    for _ in range(5):
        m = random_uncontrolled_chain(rng, 6)
        M = np.array([np.exp(state_cost(m, i)[0, 0]) * dense_transition(m, i)[0, 0]
                      for i in range(6)])
        assert uncontrolled_eigen_oracle(m) == pytest.approx(perron_log_radius(M), abs=1e-9)


def test_oracle_rejects_controlled(two_state):
    m = one_state_two_action()
    with pytest.raises(NotUncontrolled):
        uncontrolled_eigen_oracle(m)


# ---------------------------------------------------------------------------
# ladder behaviour and report plumbing


def test_ladder_rungs_nonnegative_and_bounded():
    m = build_birth_death(BirthDeathParams(window=40))
    rep = solve_ergodic_game(m, ladder=[10, 20, 40])
    bounds = rep.bounds
    assert bounds is not None and bounds["case"] == "unbounded"
    for rung in rep.ladder:
        assert rung.rho >= -1e-6
        assert rung.rho <= bounds["upper"] + 1e-6
    assert all("outside" not in w for w in rep.warnings)


def test_ladder_trace_csv_format(two_state):
    rep = solve_ergodic_game(two_state, ladder=[2])
    lines = rep.trace_csv().splitlines()
    assert lines[0] == "n,domain_size,rho_n,bracket_width,iterations"
    assert lines[1].startswith("1,2,")


def test_ladder_validation(two_state):
    with pytest.raises(ValueError):
        solve_ergodic_game(two_state, ladder=[2, 2])
    with pytest.raises(ValueError):
        solve_ergodic_game(two_state, ladder=[2, 5])


def test_ladder_exhaustion_flagged(two_state):
    rep = solve_ergodic_game(two_state, ladder=[2], tol_outer=1e-16)
    # a single rung can never meet the two-rung agreement criterion
    assert not rep.certified
    assert any("window-limited" in w for w in rep.warnings)


def test_default_ladder_reaches_window():
    m = build_birth_death(BirthDeathParams(window=37))
    sizes = default_ladder(m)
    assert sizes[-1] == 37
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_upper_bound_bounded_case():
    P = np.full((1, 1, 2), 0.5)
    from rsgame.model import LyapunovData
    ly = LyapunovData(log_W=np.zeros(2), C=1.0, K=np.array([0, 1]), gamma=2.0)
    m = make_model(2, [[0], [0]], [[0], [0]], [P.copy(), P.copy()],
                   [np.full((1, 1), 0.3)] * 2, i0=0, lyapunov=ly)
    bounds = eigenvalue_upper_bound(m)
    assert bounds["upper"] == 2.0


def test_uncontrolled_oracle_reports_its_ratio_bracket(two_state):
    # one sweep from v = 1 gives the ratios (1, 2), which tol = 0 cannot close
    with pytest.raises(dirichlet.NoConvergence) as exc:
        uncontrolled_eigen_oracle(two_state, tol=0.0, max_iter=1)
    assert exc.value.bracket == (1.0, 2.0)
    assert "bracket (1.0, 2.0)" in str(exc.value)
    with pytest.raises(dirichlet.NoConvergence) as exc:
        uncontrolled_eigen_oracle(two_state, max_iter=0)
    assert exc.value.iterations == 0


def test_report_diagnostics_pure_birth_death():
    rep = solve_ergodic_game(build_birth_death(BirthDeathParams(window=60)),
                             ladder=[10, 20, 40, 60])
    diag = rep.to_dict()["diagnostics"]
    assert diag["max_order_gap"] == 0
    assert diag["pure_states"] == len(rep.domain)
    assert 0.0 <= diag["max_gap"] <= 1e-8


def test_report_diagnostics_mixed_random_game():
    model = random_closed_model(np.random.default_rng(1), n=8, mu=3, mv=3)
    rep = solve_ergodic_game(model)
    states = [int(s) for s in rep.domain if np.isfinite(rep.log_psi_star[s])]
    _, saddles = dirichlet.apply_operator(model, states, rep.log_psi_star)
    diag = rep.diagnostics
    assert diag["max_order_gap"] > 0
    assert diag["max_order_gap"] == max(s.order_gap for s in saddles)
    assert diag["max_gap"] == max(s.gap for s in saddles)
    assert diag["pure_states"] == sum(s.mu.max() == 1.0 and s.nu.max() == 1.0 for s in saddles)
    assert diag["pure_states"] < len(states)
    # the selectors are the sweep's own strategies
    pi1, pi2 = rep.selectors
    assert all(np.array_equal(pi1.weights[i], s.mu) and np.array_equal(pi2.weights[i], s.nu)
               for i, s in zip(states, saddles))


def test_report_writes_overflowed_psi_as_null(two_state):
    """psi_star is null where exp(log psi) leaves the float range, with no
    warning; every other entry is exp of its log, 0.0 off the domain."""
    rep = solve_ergodic_game(two_state)
    rep.log_psi_star = np.array([0.5, 800.0, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = rep.to_dict()["psi_star"]
    assert psi == [float(np.exp(0.5)), None, 0.0]
    json.dumps(psi, allow_nan=False)
