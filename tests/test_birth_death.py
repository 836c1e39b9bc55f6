import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (birth_death_params_any_p_hat, dense_transition, logsumexp_last_axis,
                     state_cost)
from rsgame.birth_death import (BirthDeathParams, ParamError, WindowTooSmall,
                                build_birth_death, build_info, drift_constant,
                                exception_set, verify_stability_estimates)
from rsgame.model import (check_irreducibility, check_lyapunov,
                          check_reference_state, validate_model)


@pytest.fixture(scope="module")
def model40():
    return build_birth_death(BirthDeathParams(window=40))


def test_state0_row_values(model40):
    # mass to j >= 1 decays like a squared exponential
    P0 = dense_transition(model40, 0)
    assert P0[0, 0, 1] == pytest.approx(np.exp(-1.0 / 3.0 - 3.0), abs=1e-15)
    for j in range(1, 40):
        expected = np.exp(-j * j / 3.0 - 3.0)
        assert P0[2, 3, j] == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert np.all(P0[0, 0, 1:] > 0)


def test_interior_row_values(model40):
    # i = 2, u = v = 1 (top of the default grids), L1 = L2 = 1
    P = dense_transition(model40, 2)
    assert P[4, 4, 1] == pytest.approx(np.exp(-2.0) / 4.0, abs=1e-15)
    assert P[4, 4, 3] == pytest.approx(np.exp(-4.0) / 4.0, abs=1e-15)
    assert P[4, 4, 2] == pytest.approx((np.exp(-2.0) + np.exp(-4.0)) / 4.0, abs=1e-15)


def test_state1_row_depends_only_on_v(model40):
    P = dense_transition(model40, 1)
    U, V = model40.actions_p1[1], model40.actions_p2[1]
    for b, v in enumerate(V):
        mass = np.exp(-2.0) * v / 4.0
        for a in range(len(U)):
            assert P[a, b, 1] == pytest.approx(mass, abs=1e-15)
            assert P[a, b, 2] == pytest.approx(mass, abs=1e-15)
            assert P[a, b, 3] == pytest.approx(mass, abs=1e-15)
            assert P[a, b, 0] == pytest.approx(1.0 - 3.0 * mass, abs=1e-14)


def test_lyapunov_data_values(model40):
    ly = model40.lyapunov
    assert np.exp(ly.log_W[0]) == pytest.approx(np.e, abs=1e-14)
    assert ly.ell[5] == pytest.approx(8.0 / 6.0)
    assert 0 in ly.K and 1 in ly.K
    assert ly.K.tolist() == list(range(21))  # 4 - (i+3)/6 > 0 iff i < 21


def test_rows_exactly_stochastic(model40):
    assert np.max(np.abs(model40.kernel.row_sums - 1.0)) <= 1e-12


def test_cost_combination_and_sign_surfacing(model40):
    info = build_info(BirthDeathParams(window=40))
    # u - v < 0 wherever the per-capita term is too small: surfaced, not hidden
    assert state_cost(model40, 0)[0, 4] == pytest.approx(0.1 - 1.0)
    assert info.min_cost == pytest.approx(-0.9)
    assert info.negative_cost_entries > 0
    report = validate_model(model40)
    assert report.structurally_sound
    assert not report.ok


def test_validate_takes_no_exp_of_large_weights():
    """log W(i) = i^2/6 + 1 passes log(float max) at i = 66; validate reads
    W itself only where it is below one, so it warns nothing here."""
    model = build_birth_death(BirthDeathParams(window=100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_model(model)
    assert report.structurally_sound
    assert not any(v.kind.startswith("lyapunov") for v in report.violations)


def test_fold_masses_logged(model40):
    info = build_info(BirthDeathParams(window=40))
    assert 0.0 <= info.fold_mass_state0 < 1e-200
    assert 0.0 <= info.fold_mass_top < 1e-30


def test_standard_checkers_pass(model40):
    assert check_lyapunov(model40).passed
    assert check_irreducibility(model40, "sampled", samples=25, seed=0).passed
    assert check_irreducibility(model40, "sufficient").passed
    assert check_reference_state(model40)


def test_drift_chain_intermediate_bound():
    """For i >= 2 the weighted one-step mass stays under
    4 e^{i^2/6 + 1} e^{-i/3 + 1/6}, the intermediate constant of the
    analytic chain of inequalities, here checked numerically up to 200."""
    m = build_birth_death(BirthDeathParams(window=202))
    ly = m.lyapunov
    for i in range(2, 201):
        with np.errstate(divide="ignore"):
            lt = np.log(dense_transition(m, i))
        lhs = logsumexp_last_axis(lt + ly.log_W[None, None, :]).max()
        bound = np.log(4.0) + (i * i / 6.0 + 1.0) + (-i / 3.0 + 1.0 / 6.0)
        assert lhs <= bound + 1e-12


def test_prostab_defaults_pass_to_200():
    rep = verify_stability_estimates(BirthDeathParams(window=60), i_max=200)
    assert rep.passed
    assert rep.drift_passed
    assert rep.worst_slack > 0
    assert rep.state0_vs_C > 0
    assert rep.norm_like["passed"]
    assert 0 in rep.M and 1 in rep.M


def test_prostab_norm_like_fails_for_p_hat_02():
    rep = verify_stability_estimates(
        birth_death_params_any_p_hat(0.2, window=60), i_max=200)
    assert rep.drift_passed  # the kernel does not involve p_hat
    assert not rep.norm_like["passed"]
    assert not rep.passed


def test_param_validation():
    with pytest.raises(WindowTooSmall):
        BirthDeathParams(window=3)
    with pytest.raises(ParamError):
        BirthDeathParams(delta=0.0)
    with pytest.raises(ParamError):
        BirthDeathParams(delta=2.0, L1=1.0, L2=1.0)
    with pytest.raises(ParamError, match=r"^p_hat=0.2 violates the stability condition"):
        BirthDeathParams(p_hat=0.2)


def test_exception_set_definition():
    M = exception_set(100)
    assert M.tolist() == [i for i in range(100) if 4 - (i + 3) / 6 > 0]


def test_drift_constant_is_pinned_and_the_build_stays_small():
    """C = exp(log W(20) + 4), 20 being the last state of M, bit for bit;
    and the window-200 build allocates about what its own model needs
    (1.5 MB traced, where a million-state grid for the end of M took 24 MB)."""
    assert drift_constant() == 1.3317965015749146e+31
    tracemalloc.start()
    try:
        build_birth_death(BirthDeathParams(window=200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
