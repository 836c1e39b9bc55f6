import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsgame
from conftest import random_closed_model
from oracles import (SaddleRow, best_response_pure_min_core, bilinear_2x2_mixed,
                     local_matrices, local_payoff_core, lower_value_exact, lower_value_grid,
                     saddle_rows, simplex_grid, solve_one_saddle)
from rsgame._util import NEG_INF
from rsgame.model import make_model
from rsgame.solver import solve_ergodic_game


def rand_instance(rng, mu, mv, cost_lo=0.0, cost_hi=2.0, l_scale=1.5):
    C = rng.uniform(cost_lo, cost_hi, (mu, mv))
    L = rng.normal(0.0, l_scale, (mu, mv))
    return C, L


# ---------------------------------------------------------------------------
# local payoff


def test_payoff_singleton_identity():
    # psi = 1 on a full row: the log mass term vanishes and only c remains
    C = np.array([[0.7]])
    L = np.array([[0.0]])
    assert local_payoff_core(C, L, np.ones(1), np.ones(1)) == pytest.approx(0.7, abs=1e-15)


def test_payoff_constant_psi_reduces_to_cost(rng):
    C, _ = rand_instance(rng, 3, 2)
    L = np.zeros((3, 2))  # psi = 1 against stochastic rows
    mu = rng.dirichlet(np.ones(3))
    nu = rng.dirichlet(np.ones(2))
    assert local_payoff_core(C, L, mu, nu) == pytest.approx(mu @ C @ nu, abs=1e-12)


def test_payoff_uniform_mix_bilinear_half():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    L = np.zeros((2, 2))
    val = local_payoff_core(C, L, np.full(2, 0.5), np.full(2, 0.5))
    assert val == pytest.approx(0.5, abs=1e-12)


def test_payoff_empty_support_sentinel():
    C = np.zeros((2, 2))
    L = np.full((2, 2), NEG_INF)
    assert local_payoff_core(C, L, np.full(2, 0.5), np.full(2, 0.5)) == NEG_INF


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), t=st.floats(0.0, 1.0))
def test_payoff_bilinearity_of_both_pieces(seed, t):
    """The exponent's cost term and the inner mass are linear in mu."""
    rng = np.random.default_rng(seed)
    C, L = rand_instance(rng, 3, 3)
    nu = rng.dirichlet(np.ones(3))
    mu1 = rng.dirichlet(np.ones(3))
    mu2 = rng.dirichlet(np.ones(3))
    mix = t * mu1 + (1 - t) * mu2
    Q = np.exp(L)

    def pieces(mu):
        return mu @ C @ nu, mu @ Q @ nu

    c_mix, q_mix = pieces(mix)
    c1, q1 = pieces(mu1)
    c2, q2 = pieces(mu2)
    assert c_mix == pytest.approx(t * c1 + (1 - t) * c2, abs=1e-12)
    assert q_mix == pytest.approx(t * q1 + (1 - t) * q2, rel=1e-12)
    # and the composite payoff is exactly their composition
    val = local_payoff_core(C, L, mix, nu)
    assert val == pytest.approx(c_mix + np.log(q_mix), abs=1e-12)


# ---------------------------------------------------------------------------
# pure best response


def test_best_response_prefers_cheaper_action():
    C = np.array([[5.0], [1.0]])
    L = np.zeros((2, 1))
    u, val = best_response_pure_min_core(C, L, np.ones(1))
    assert u == 1
    assert val == pytest.approx(1.0)


def test_best_response_tie_breaks_lowest_index():
    C = np.ones((3, 2))
    L = np.zeros((3, 2))
    u, _ = best_response_pure_min_core(C, L, np.full(2, 0.5))
    assert u == 0


def test_no_mixed_mu_beats_best_pure(rng):
    """Simplex-grid check of the vertex-minimizer property."""
    grid = simplex_grid(3, 19)  # 210 mixtures including the vertices
    for _ in range(10):
        C, L = rand_instance(rng, 3, 3)
        nu = rng.dirichlet(np.ones(3))
        _, pure_val = best_response_pure_min_core(C, L, nu)
        mixed_best = min(local_payoff_core(C, L, m, nu) for m in grid)
        assert mixed_best >= pure_val - 1e-10


# ---------------------------------------------------------------------------
# saddle solver


def test_saddle_singleton_actions():
    C = np.array([[0.3]])
    L = np.array([[np.log(0.8)]])
    s = solve_one_saddle(C, L)
    assert s.log_value == pytest.approx(0.3 + np.log(0.8), abs=1e-14)
    assert s.gap == 0.0
    assert s.mu.tolist() == [1.0]
    assert s.nu.tolist() == [1.0]


def test_saddle_matching_pennies_constant_psi():
    """With psi = 1 the game is the bilinear matrix game on the costs."""
    C = np.array([[1.0, 0.0], [0.0, 1.0]])
    L = np.zeros((2, 2))
    p, q, value = bilinear_2x2_mixed(C)
    s = solve_one_saddle(C, L, tol=1e-8)
    assert s.log_value == pytest.approx(value, abs=1e-10)
    assert s.mu == pytest.approx(p, abs=1e-9)
    assert s.nu == pytest.approx(q, abs=1e-9)
    assert s.order_gap <= 1e-9


def test_saddle_random_2x2_matches_grid_oracle(rng):
    for _ in range(8):
        C, L = rand_instance(rng, 2, 2)
        s = solve_one_saddle(C, L, tol=1e-8)
        assert s.log_value == pytest.approx(lower_value_exact(C, L), abs=1e-9)
        assert s.log_value == pytest.approx(lower_value_grid(C, L, 300), abs=1e-6)


# pinned_local_games trials whose start vertex or later cutting-plane
# points carry zero one-step mass for some action (h = -inf there)
ZERO_MASS_TRIALS = (37, 100, 149, 212, 219, 233, 275)


def test_saddle_gap_certificate(rng):
    """The certificate is nonnegative, below tolerance, and truthful: no
    grid point ever beats the returned value."""
    cases = []
    for trial in range(30):
        mu = int(rng.integers(1, 4))
        mv = int(rng.integers(1, 4))
        cases.append(rand_instance(rng, mu, mv))
    games = list(pinned_local_games())
    cases += [games[t] for t in ZERO_MASS_TRIALS]
    for C, L in cases:
        mu, mv = C.shape
        s = solve_one_saddle(C, L, tol=1e-8)
        assert 0.0 <= s.gap <= 1e-8
        probe = simplex_grid(mv, 40)
        best = max(
            min(local_payoff_core(C, L, np.eye(mu)[u], nu) for u in range(mu))
            for nu in probe)
        assert best <= s.log_value + s.gap + 1e-12


def test_saddle_monotone_in_psi(rng):
    for _ in range(25):
        mu = int(rng.integers(1, 4))
        mv = int(rng.integers(1, 4))
        C, L1 = rand_instance(rng, mu, mv)
        L2 = L1 + rng.uniform(0.0, 1.0, (mu, mv))  # psi grows entrywise
        v1 = solve_one_saddle(C, L1, tol=1e-10).log_value
        v2 = solve_one_saddle(C, L2, tol=1e-10).log_value
        assert v1 <= v2 + 1e-10


def test_saddle_one_homogeneous(rng):
    for _ in range(25):
        mu = int(rng.integers(1, 4))
        mv = int(rng.integers(1, 4))
        C, L = rand_instance(rng, mu, mv)
        lam = float(rng.uniform(0.1, 10.0))
        v = solve_one_saddle(C, L, tol=1e-10).log_value
        v_scaled = solve_one_saddle(C, L + np.log(lam), tol=1e-10).log_value
        assert v_scaled == pytest.approx(v + np.log(lam), abs=1e-10)


def test_saddle_dead_row_collapses_value():
    # player 1 owns an action whose one-step mass vanishes entirely
    C = np.array([[0.5, 0.5], [1.0, 1.0]])
    L = np.array([[0.0, 0.0], [NEG_INF, NEG_INF]])
    s = solve_one_saddle(C, L)
    assert s.log_value == NEG_INF
    assert s.empty_support
    assert s.mu.tolist() == [0.0, 1.0]


def test_saddle_order_gap_reported_not_gated(rng):
    """Instances without a mixed saddle still solve with a certified lower
    value; the order discrepancy lands in order_gap."""
    C = np.array([[0.3909730191640082, 1.3590540184179156],
                  [0.4281845786734404, 0.19831394119762868]])
    L = np.array([[-1.9838116999375184, -0.7292911960485703],
                  [0.6303400642118786, -0.15359505991664457]])
    s = solve_one_saddle(C, L, tol=1e-8)
    assert s.gap <= 1e-8
    assert s.log_value == pytest.approx(lower_value_exact(C, L), abs=1e-9)
    assert s.order_gap > 1e-3  # measured two-order discrepancy ~ 0.106


def test_solver_never_fails_on_random_sweep(rng):
    for _ in range(60):
        mu = int(rng.integers(1, 5))
        mv = int(rng.integers(1, 5))
        C, L = rand_instance(rng, mu, mv)
        s = solve_one_saddle(C, L, tol=1e-8)
        assert isinstance(s, SaddleRow)
        assert np.isfinite(s.log_value)


def test_local_games_read_from_a_model(two_state):
    log_psi = np.zeros(2)
    C, L = local_matrices(two_state, 1, log_psi)
    val = local_payoff_core(C, L, np.ones(1), np.ones(1))
    assert val == pytest.approx(np.log(2.0), abs=1e-12)
    u, bv = best_response_pure_min_core(C, L, np.ones(1))
    assert (u, bv) == (0, pytest.approx(np.log(2.0), abs=1e-12))
    s = solve_one_saddle(*local_matrices(two_state, 0, log_psi))
    assert s.log_value == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# batched pure path


def saddle_fields(s):
    return (s.log_value, s.mu.tolist(), s.nu.tolist(), s.gap, s.order_gap,
            s.empty_support)


def batch_cases():
    """(C, L) states of mixed shapes: settled, degenerate and fallback ones."""
    rng = np.random.default_rng(7)
    bd_like = np.add.outer(np.linspace(0.1, 1.0, 5), -np.linspace(0.1, 1.0, 5))
    cases = [
        (np.array([[0.3]]), np.array([[np.log(0.8)]])),                     # 1 x 1
        (np.array([[0.3]]), np.array([[NEG_INF]])),                          # 1 x 1, empty
        (rng.uniform(0, 1, (1, 3)), rng.normal(0, 1, (1, 3))),              # 1 x k
        (rng.uniform(0, 1, (3, 1)), rng.normal(0, 1, (3, 1))),              # k x 1
        (np.zeros((2, 2)), np.full((2, 2), NEG_INF)),                        # all -inf
        (np.array([[0.5, 0.5], [1.0, 1.0]]),
         np.array([[0.0, 0.0], [NEG_INF, NEG_INF]])),                        # dead row
        (np.ones((2, 2)), np.zeros((2, 2))),                                 # tie for v*
        (np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros((2, 2))),              # mixed: pennies
        (np.array([[0.3909730191640082, 1.3590540184179156],
                   [0.4281845786734404, 0.19831394119762868]]),
         np.array([[-1.9838116999375184, -0.7292911960485703],
                   [0.6303400642118786, -0.15359505991664457]])),            # mixed, order gap
    ]
    for k in range(6):
        cases.append((bd_like + 0.1 * k, -np.abs(rng.normal(0, 1e-3, (5, 5)))))  # pure 5 x 5
    for _ in range(6):
        cases.append(rand_instance(rng, 3, 3))
        cases.append(rand_instance(rng, 2, 2))
    return cases


def test_batched_pure_path_is_batch_independent():
    from rsgame.saddle import _pure_saddles
    cases = batch_cases()
    by_shape = {}
    for C, L in cases:
        by_shape.setdefault(C.shape, []).append((C, L))
    settled = fallback = 0
    for group in by_shape.values():
        alone = [saddle_rows(_pure_saddles(C[None], L[None], 1e-8)[0])[0] for C, L in group]
        for order in (range(len(group)), reversed(range(len(group)))):
            order = list(order)
            stacked, _, _, _ = _pure_saddles(np.stack([group[k][0] for k in order]),
                                             np.stack([group[k][1] for k in order]), 1e-8)
            for k, s in zip(order, saddle_rows(stacked)):
                assert (s is None) == (alone[k] is None)
                if s is not None:
                    assert saddle_fields(s) == saddle_fields(alone[k])
        settled += sum(s is not None for s in alone)
        fallback += sum(s is None for s in alone)
    assert settled >= 10 and fallback >= 2


def test_batched_solves_equal_scalar_solves_in_any_order():
    from rsgame.saddle import solve_saddles
    cases = batch_cases()
    scalar = [saddle_fields(solve_one_saddle(C, L)) for C, L in cases]

    def batch(games):
        """solve_saddles on the games laid out flat, one after another."""
        return solve_saddles(np.concatenate([C.ravel() for C, _ in games]),
                             np.concatenate([L.ravel() for _, L in games]),
                             [C.shape for C, _ in games])

    assert [saddle_fields(s) for s in saddle_rows(batch(cases))] == scalar
    order = np.random.default_rng(1).permutation(len(cases))
    shuffled = batch([cases[k] for k in order])
    assert [saddle_fields(s) for s in saddle_rows(shuffled)] == [scalar[k] for k in order]


def test_batched_path_settles_pure_states_and_leaves_mixed_ones():
    from rsgame.saddle import _pure_saddles
    cases = batch_cases()

    def alone(C, L):
        return saddle_rows(_pure_saddles(C[None], L[None], 1e-8)[0])[0]

    tie = alone(*cases[6])
    assert tie.mu.tolist() == [1.0, 0.0] and tie.nu.tolist() == [1.0, 0.0]  # lowest index
    dead = alone(*cases[5])
    assert dead.empty_support and dead.mu.tolist() == [0.0, 1.0]
    for C, L in cases[7:9]:  # mixed saddles go to the scalar stages
        assert alone(C, L) is None
    bd = [case for case in cases if case[0].shape == (5, 5)]
    out = _pure_saddles(np.stack([C for C, _ in bd]), np.stack([L for _, L in bd]), 1e-8)[0]
    for s in saddle_rows(out):
        assert s is not None and s.order_gap == 0.0 and s.gap <= 1e-8


def test_one_pure_pass_per_action_shape(monkeypatch):
    """solve_saddles runs the batched pure path once per action shape; the
    states it leaves go to the cutting planes without a second pass."""
    from rsgame import saddle
    batches = []

    def counted(C, L, tol):
        batches.append(len(C))
        return pure_saddles(C, L, tol)

    pure_saddles = saddle._pure_saddles
    monkeypatch.setattr(saddle, "_pure_saddles", counted)
    model = random_closed_model(np.random.default_rng(1), n=8, mu=3, mv=3)
    report = solve_ergodic_game(model)
    states = report.domain
    batches.clear()
    out = saddle.solve_saddles(model.row_cost[model.rows(states)[0]],
                               model.inner_log_sums(states, report.log_psi_star),
                               model.shapes[states])
    assert batches == [8]
    assert sum(s.mu.max() < 1.0 for s in saddle_rows(out)) == 6  # mixed states: the cutting planes
    cases = batch_cases()
    batches.clear()
    saddle.solve_saddles(np.concatenate([C.ravel() for C, _ in cases]),
                         np.concatenate([L.ravel() for _, L in cases]),
                         [C.shape for C, _ in cases])
    assert len(batches) == len({C.shape for C, _ in cases})
    assert sum(batches) == len(cases)


def reference_planar_sup(x, y):
    """The one-row loop that _max_x_plus_log_y_rows replaced, kept as the reference."""
    k = len(x)
    if k == 1:
        val = x[0] + (np.log(y[0]) if y[0] > 0 else NEG_INF)
        return float(val), np.ones(1)
    if np.all(y <= 0.0):
        w = np.zeros(k)
        w[0] = 1.0
        return NEG_INF, w
    with np.errstate(divide="ignore"):
        vertex_vals = x + np.log(np.maximum(y, 0.0))
    best_v = int(np.argmax(vertex_vals))
    best_val = float(vertex_vals[best_v])
    best_w = np.zeros(k)
    best_w[best_v] = 1.0
    for p in range(k):
        for q in range(p + 1, k):
            dx = x[q] - x[p]
            dy = y[q] - y[p]
            if dx == 0.0 or dy == 0.0:
                continue
            ystar = -dy / dx
            if ystar <= 0.0:
                continue
            t = (ystar - y[p]) / dy
            if not (0.0 < t < 1.0):
                continue
            yv = y[p] + t * dy
            if yv <= 0.0:
                continue
            val = x[p] + t * dx + np.log(yv)
            if val > best_val + 1e-15 * max(1.0, abs(best_val)):
                best_val = float(val)
                best_w = np.zeros(k)
                best_w[p] = 1.0 - t
                best_w[q] = t
    return best_val, best_w


def test_planar_sup_rows_equal_the_reference_loop():
    from rsgame.saddle import _max_x_plus_log_y, _max_x_plus_log_y_rows
    rng = np.random.default_rng(11)
    for k in range(1, 6):
        x = rng.normal(0, 1, (300, k))
        y = rng.uniform(0, 1, (300, k))
        y[rng.random((300, k)) < 0.3] = 0.0
        y[5] = 0.0  # no mass at all: -inf at the lowest index
        x[7:20] = rng.integers(0, 3, (13, k))  # ties among vertices and segments
        y[7:20] = rng.integers(0, 3, (13, k)) / 2.0
        if k == 2:
            # near-flat vertices: the segment gains eps^2 / 2 over vertex 0,
            # below the 1e-15 relative improvement rule for eps = 1e-8
            for r, eps in enumerate((1e-9, 1e-8, 1e-7), start=20):
                x[r], y[r] = (0.0, -1.0 + eps), (1.0, 2.0)
        vals, ws = _max_x_plus_log_y_rows(x, y)
        for r in range(300):
            val, w = reference_planar_sup(x[r], y[r])
            assert vals[r] == val and ws[r].tolist() == w.tolist()
            val, w = _max_x_plus_log_y(x[r], y[r])
            assert vals[r] == val and ws[r].tolist() == w.tolist()


def pinned_local_games():
    """Seeded local games of every kind the solver meets: mixed, integer
    ties, -inf masses, pure saddles, near-pure ones, dead rows."""
    rng = np.random.default_rng(2024)
    for trial in range(280):
        mu, mv = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        kind = trial % 7
        C = rng.uniform(0.0, 2.0, (mu, mv))
        L = rng.normal(0.0, 1.5, (mu, mv))
        if kind == 1:
            C, L = rng.integers(0, 3, (mu, mv)).astype(float), np.zeros((mu, mv))
        elif kind == 2:
            L[rng.random((mu, mv)) < 0.3] = -np.inf
        elif kind == 3:
            C = 3.0 * np.add.outer(rng.uniform(0, 1, mu), -rng.uniform(0, 1, mv))
            L = rng.normal(0.0, 0.01, (mu, mv))
        elif kind == 4:
            C = np.add.outer(np.linspace(0.1, 1, mu), -np.linspace(0.1, 1, mv)) + 0.1 * (trial % 5)
            L = -np.abs(rng.normal(0.0, 1e-3, (mu, mv)))
        elif kind == 5 and mu > 1:
            L[int(rng.integers(mu))] = -np.inf
        elif kind == 6:
            C = (np.add.outer(rng.uniform(0, 1, mu), -rng.uniform(0, 1, mv))
                 + rng.normal(0, 0.05, (mu, mv)))
            L = rng.normal(0.0, 0.05, (mu, mv))
        yield C, L


def pinned_digest() -> str:
    digest = hashlib.sha256()
    for C, L in pinned_local_games():
        digest.update(repr(saddle_fields(solve_one_saddle(C, L, tol=1e-8))).encode())
    return digest.hexdigest()


def test_local_solves_pinned():
    """Every field of 280 local solves, as the cutting-plane solver returns
    them (225 of them settled by the batched pure path)."""
    assert pinned_digest() == "c73df98c3b923149fbb8d9257daf94bc929d2e5f300f81231c5cf1e0c25dd79a"


def golden_values():
    """The pinned local solves and the random-3x3 solve of tests/test_dirichlet.py."""
    model = random_closed_model(np.random.default_rng(1), n=8, mu=3, mv=3)
    doc = solve_ergodic_game(model).to_dict()
    return [pinned_digest(), doc["rho_star"], doc["residual"], doc["log_psi_star"],
            doc["selectors"]]


def test_mixed_solves_do_not_depend_on_blas_threads():
    """With one BLAS thread the two mixed goldens come out as in this process."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parent),
                                          str(Path(rsgame.__file__).parent.parent),
                                          os.environ.get("PYTHONPATH", "")])}
    code = "import json, test_saddle; print(json.dumps(test_saddle.golden_values()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == json.dumps(golden_values()) + "\n"


def test_mu_and_order_gap_stable_under_last_ulp_changes():
    """One ulp up in every entry of L moves each returned mu by at most 1e-6
    and each order gap by at most 1e-9: on the final-sweep local games of
    the random-3x3 solve and on the pinned games the pure path leaves."""
    from rsgame.saddle import _pure_saddles
    model = random_closed_model(np.random.default_rng(1), n=8, mu=3, mv=3)
    report = solve_ergodic_game(model)
    states = list(report.domain)
    games = [local_matrices(model, i, report.log_psi_star) for i in states]
    games += [(C, L) for C, L in pinned_local_games()
              if np.isnan(_pure_saddles(C[None], L[None], 1e-8)[0].log_value[0])]
    assert len(games) == 8 + 55
    for C, L in games:
        s = solve_one_saddle(C, L)
        up = solve_one_saddle(C, np.nextafter(L, np.inf))
        assert np.abs(s.mu - up.mu).max() <= 1e-6
        assert abs(s.order_gap - up.order_gap) <= 1e-9


def test_cut_cap_raises_no_convergence(monkeypatch):
    """Pennies needs a second round; with one allowed the solve reports its gap."""
    from rsgame import saddle
    monkeypatch.setattr(saddle, "_MAX_ROUNDS", 1)
    with pytest.raises(saddle.NoConvergence, match=r"duality gap 5\.000e-01") as exc:
        solve_one_saddle(np.eye(2), np.zeros((2, 2)))
    assert exc.value.gap == pytest.approx(0.5)


def test_pure_vertex_certificates_that_need_the_scalar_stages():
    """Two vertices the batched path must not settle. (a) 1 x 2 with slope
    1e-6 into a curved segment: the single-action bound is 1e-6 > tol, the
    exact planar solve moves nu by ~1e-6 and certifies gap ~0. (b) The
    vertex e_0 is optimal (an inactive action certifies it) but each
    active pure minimizer has order gap 1e-4; the master's dual weights mix
    them to a saddle point (any mu_0 / mu_1 between 1e-4 and 1e4 is one)."""
    from rsgame.saddle import _pure_saddles
    C = np.array([[0.0, -1.0 + 1e-6]])
    L = np.array([[0.0, np.log(2.0)]])
    assert np.isnan(_pure_saddles(C[None], L[None], 1e-8)[0].log_value[0])
    s = solve_one_saddle(C, L)
    assert s.gap <= 1e-8 and 0.0 < s.nu[1] < 1e-5
    C = np.array([[0.0, 1e-4, -1.0], [0.0, -1.0, 1e-4], [5e-9, -1.0, -1.0]])
    L = np.zeros((3, 3))
    assert np.isnan(_pure_saddles(C[None], L[None], 1e-8)[0].log_value[0])
    s = solve_one_saddle(C, L)
    assert s.nu.tolist() == [1.0, 0.0, 0.0] and s.log_value == 0.0
    assert s.mu[0] > 0.0 and s.mu[1] > 0.0 and s.mu[2] == 0.0  # a mixed minimizer
    assert s.order_gap <= 1e-9
