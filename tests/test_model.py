import io
import json
import re
import struct
import tracemalloc
from collections import OrderedDict, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (one_state_two_action, pennies_layer_model, random_closed_model,
                      scalar_self_loop, uncontrolled_two_state)
from oracles import (birth_death_params_any_p_hat, dense_transition, logsumexp_last_axis,
                     model_json_text, state_cost, uniform_strategy)
from rsgame import cli
from rsgame import model as model_module
from rsgame._util import reachable
from rsgame.birth_death import BirthDeathParams, build_birth_death
from rsgame.model import (STRATEGY_TOL, KernelCSR, LyapunovData, MissingLyapunovData,
                          ModelError, SchemaError, StationaryStrategy, check_irreducibility,
                          check_lyapunov, check_reference_state, eigenvalue_upper_bound,
                          make_model, model_from_json, model_to_json, validate_model,
                          write_model_json)
from rsgame.simulate import SimConfig, estimate_ergodic_cost
from rsgame.solver import solve_ergodic_game


def test_validate_well_formed_two_state(two_state):
    report = validate_model(two_state)
    assert report.ok
    assert report.violations == []


def test_validate_names_row_sum_violation():
    P = np.full((1, 1, 2), 0.75)  # row sums to 1.5
    m = make_model(2, [[0], [0]], [[0], [0]],
                   [P, np.full((1, 1, 2), 0.5)],
                   [np.zeros((1, 1))] * 2, i0=0)
    report = validate_model(m)
    bad = [v for v in report.violations if v.kind == "row_sum_exceeds_one"]
    assert len(bad) == 1
    assert bad[0].coords == (0, 0, 0)
    assert bad[0].value == pytest.approx(1.5)
    assert not report.structurally_sound


def test_validate_names_negative_cost():
    P = np.full((1, 1, 2), 0.5)
    m = make_model(2, [[0], [0]], [[0], [0]], [P.copy(), P.copy()],
                   [np.full((1, 1), -1.0), np.zeros((1, 1))], i0=0)
    report = validate_model(m)
    bad = [v for v in report.violations if v.kind == "negative_cost"]
    assert len(bad) == 1
    assert bad[0].coords == (0, 0, 0)
    assert bad[0].value == -1.0
    # cost-sign findings warn but do not condemn the structure
    assert bad[0].severity == "warning"
    assert report.structurally_sound
    assert not report.ok


def test_validate_negative_probability_and_bad_reference():
    P = np.full((1, 1, 2), 0.75)
    P[0, 0, 1] = -0.25
    m = make_model(2, [[0], [0]], [[0], [0]],
                   [P, np.full((1, 1, 2), 0.5)], [np.zeros((1, 1))] * 2, i0=5)
    kinds = {v.kind for v in validate_model(m).violations}
    assert "negative_probability" in kinds
    assert "bad_reference_state" in kinds


@pytest.mark.parametrize("a1, a2, player", [([[0], [0]], [[0], []], 2),
                                            ([[0], []], [[0], [0]], 1)], ids=["p2", "p1"])
def test_solve_refuses_an_empty_action_set(a1, a2, player):
    """validate reports a state without actions; a solve refuses it by name."""
    m = make_model(2, a1, a2, [np.full((1, 1, 2), 0.5), np.zeros((len(a1[1]), len(a2[1]), 2))],
                   [np.zeros((1, 1)), np.zeros((len(a1[1]), len(a2[1])))])
    assert [v.kind for v in validate_model(m).violations] == [f"empty_actions_p{player}"]
    with pytest.raises(ModelError, match=f"state 1 has no player-{player} actions"):
        solve_ergodic_game(m)


def unsound_models():
    """The broken kernels of the CLI's structural-break test, an empty action
    set and a NaN cost."""
    one_state = {"states": 1, "actions_p1": [[0]], "actions_p2": [[0]],
                 "transition": [{"i": 0, "u": 0, "v": 0, "j": 0, "p": 1.5}], "cost": [], "i0": 0}
    yield model_from_json(one_state)
    two_state = {"states": 2, "actions_p1": [[0], [0]], "actions_p2": [[0], [0]],
                 "transition": [{"i": 0, "u": 0, "v": 0, "j": 0, "p": 1.5},
                                {"i": 0, "u": 0, "v": 0, "j": 1, "p": -0.5},
                                {"i": 1, "u": 0, "v": 0, "j": 0, "p": 1.0}],
                 "cost": [], "i0": 0}
    yield model_from_json(two_state)
    two_state["transition"][:2] = [{"i": 0, "u": 0, "v": 0, "j": 0, "p": 0.5},
                                   {"i": 0, "u": 0, "v": 0, "j": 1, "p": float("nan")}]
    yield model_from_json(two_state)
    yield make_model(2, [[0], []], [[0], [0]], [np.full((1, 1, 2), 0.5), np.zeros((0, 1, 2))],
                     [np.zeros((1, 1)), np.zeros((0, 1))])
    yield make_model(2, [[0], [0]], [[0], [0]], [np.full((1, 1, 2), 0.5)] * 2,
                     [np.zeros((1, 1)), np.full((1, 1), np.nan)])


def test_csr_refuses_with_the_first_error_finding_of_validate():
    """One soundness rule: csr's message is validate_model's first error."""
    for m in unsound_models():
        first = next(v for v in validate_model(m).violations if v.severity == "error")
        with pytest.raises(ModelError) as exc:
            m.csr
        assert str(exc.value) == "unsound model: " + first.message


def test_lyapunov_trivial_bound_passes():
    # W = 1, ell = 0, K = everything, C = 1: the inequality reads sum P <= 2
    P = np.full((1, 1, 2), 0.5)
    ly = LyapunovData(log_W=np.zeros(2), C=1.0, K=np.array([0, 1]), ell=np.zeros(2))
    m = make_model(2, [[0], [0]], [[0], [0]], [P.copy(), P.copy()],
                   [np.zeros((1, 1))] * 2, i0=0, lyapunov=ly)
    rep = check_lyapunov(m)
    assert rep.passed
    assert rep.slack.min() == pytest.approx(np.log(2.0))
    assert rep.norm_like["passed"]


@pytest.mark.parametrize("ell, K, kind, message", [
    ([0.0], [0, 1], "lyapunov_shape", "ell must have one entry per state"),
    ([0.0, 0.0], [0, 5], "lyapunov_K_out_of_window", "K contains state 5 outside the window"),
], ids=["ell-one-entry", "K-outside"])
def test_lyapunov_data_that_does_not_fit_the_window_is_refused(ell, K, kind, message):
    """validate's finding is the refusal of the drift check and of the
    bound (not an IndexError, not a silent pass)."""
    P = np.full((1, 1, 2), 0.5)
    ly = LyapunovData(log_W=np.zeros(2), C=1.0, K=np.array(K), ell=np.array(ell))
    m = make_model(2, [[0], [0]], [[0], [0]], [P.copy(), P.copy()],
                   [np.zeros((1, 1))] * 2, i0=0, lyapunov=ly)
    assert [(v.kind, v.message) for v in validate_model(m).violations] == [(kind, message)]
    for check in (check_lyapunov, eigenvalue_upper_bound):
        with pytest.raises(ModelError) as info:
            check(m)
        assert str(info.value) == f"unsound Lyapunov data: {message}"


def test_lyapunov_missing_data_raises(two_state):
    with pytest.raises(MissingLyapunovData):
        check_lyapunov(two_state)


def test_lyapunov_bounded_cost_case():
    # bounded-cost drift: rate gamma must also dominate the sup of the cost
    P = np.full((1, 1, 2), 0.5)

    def build(gamma, cost):
        ly = LyapunovData(log_W=np.zeros(2), C=1.0, K=np.array([0, 1]), gamma=gamma)
        return make_model(2, [[0], [0]], [[0], [0]], [P.copy(), P.copy()],
                          [np.full((1, 1), cost)] * 2, i0=0, lyapunov=ly)

    good = check_lyapunov(build(gamma=1.0, cost=0.5))
    assert good.case == "bounded"
    assert good.passed
    assert good.gamma_check["passed"]
    # rate below the cost sup: the drift row may hold but the case fails
    bad = check_lyapunov(build(gamma=0.3, cost=0.5))
    assert not bad.gamma_check["passed"]
    assert not bad.passed


def test_lyapunov_birth_death_window_200_passes():
    m = build_birth_death(BirthDeathParams(window=202))
    rep = check_lyapunov(m)
    assert rep.passed
    assert rep.slack.min() > 0


def test_lyapunov_norm_like_fails_for_large_p_hat():
    # slope of ell - max cost is 1/6 - p_hat; p_hat = 0.5 turns it negative
    m = build_birth_death(birth_death_params_any_p_hat(0.5, window=60))
    d = np.array([m.lyapunov.ell[i] - state_cost(m, i).max() for i in range(m.n_states)])
    assert np.all(np.diff(d[2:]) < 0), "oracle: the tail sequence must decrease"
    rep = check_lyapunov(m)
    assert not rep.norm_like["passed"]
    assert not rep.passed


def test_irreducibility_all_positive_sufficient(two_state):
    rep = check_irreducibility(two_state, "sufficient")
    assert rep.passed
    assert "every stationary" in rep.guarantee


def test_irreducibility_edge_deletion_found_by_sampling():
    # player 2's second action removes the only edge 0 -> 1
    P0 = np.zeros((1, 2, 2))
    P0[0, 0] = [0.5, 0.5]
    P0[0, 1] = [1.0, 0.0]
    P1 = np.zeros((1, 1, 2))
    P1[0, 0] = [1.0, 0.0]
    m = make_model(2, [[0], [0]], [[0, 1], [0]], [P0, P1],
                   [np.zeros((1, 2)), np.zeros((1, 1))], i0=0)
    suff = check_irreducibility(m, "sufficient")
    assert not suff.passed
    samp = check_irreducibility(m, "sampled", samples=64, seed=1)
    assert not samp.passed
    assert samp.failing_pair["p2"][0] == 1


def test_irreducibility_sufficient_birth_death_window_50():
    m = build_birth_death(BirthDeathParams(window=50))
    assert check_irreducibility(m, "sufficient").passed


def test_sufficient_implies_sampled(rng):
    for _ in range(5):
        m = random_closed_model(rng, n=4, mu=2, mv=2)
        if check_irreducibility(m, "sufficient").passed:
            assert check_irreducibility(m, "sampled", samples=20, seed=3).passed


def closure(adj):
    """Reflexive-transitive closure of a boolean adjacency matrix."""
    reach = adj | np.eye(len(adj), dtype=bool)
    for _ in range(len(adj)):
        reach = reach | (reach.astype(int) @ reach.astype(int) > 0)
    return reach


def test_reachable_matches_the_closure(rng):
    for _ in range(20):
        n = int(rng.integers(1, 12))
        adj = rng.uniform(size=(n, n)) < rng.uniform(0.05, 0.4)
        src, dst = np.nonzero(adj)
        # every edge listed twice: duplicate successors are reached once
        count = 2 * np.bincount(src, minlength=n)
        end = np.cumsum(count)
        start = int(rng.integers(n))
        got = reachable(end - count, end, np.repeat(dst, 2), start)
        assert got.tolist() == closure(adj)[start].tolist()


def test_sampled_draw_is_the_scalar_draw_sequence():
    """The sampled check draws a chunk of pure pairs in one array call; it
    must equal one scalar call per state and player, sample after sample,
    and chunks must continue the same sequence. A one-action set draws
    nothing."""
    mu = np.array([1, 3, 1, 5, 7, 2**33])
    mv = np.array([2, 1, 1, 7, 3, 1])
    highs = np.concatenate([mu, mv])
    for seed in range(5):
        rng = np.random.default_rng(seed)
        scalar = [int(rng.integers(int(h))) for _ in range(7) for h in highs]
        rng = np.random.default_rng(seed)
        chunks = [rng.integers(np.tile(highs, size)) for size in (1, 1, 2, 3)]
        assert np.concatenate(chunks).tolist() == scalar


def test_sampled_chunks_stop_growing_at_the_row_cap(monkeypatch):
    """Chunks of sampled pairs grow 1, 1, 2, 4, ... only while a chunk
    holds at most 2**16 rows (pairs x states), so memory does not grow
    with the sample count."""
    m = build_birth_death(BirthDeathParams(window=60))
    sizes = []
    connected = model_module._strongly_connected

    def spy(tail, head, n_graphs, n):
        sizes.append(n_graphs)
        return connected(tail, head, n_graphs, n)

    monkeypatch.setattr(model_module, "_strongly_connected", spy)
    report = check_irreducibility(m, "sampled", samples=5000, seed=1)
    assert report.passed and report.samples == 5000
    assert sizes[:5] == [1, 1, 2, 4, 8] and sum(sizes) == 5000
    assert max(sizes) == 2**16 // 60


def sequential_sampled_check(P, mu, mv, samples, seed):
    """One pure pair at a time, each state's actions drawn by scalar calls."""
    rng = np.random.default_rng(seed)
    n = len(P)
    for s in range(samples):
        p1 = [int(rng.integers(mu[i])) for i in range(n)]
        p2 = [int(rng.integers(mv[i])) for i in range(n)]
        adj = np.array([P[i][p1[i], p2[i]] > 0 for i in range(n)])
        if not (adj.any() and closure(adj).all()):
            return {"p1": p1, "p2": p2}, s + 1
    return None, samples


def test_sampled_reports_the_first_failure_in_draw_order():
    """Pair (0, 0) at a trap state holds the chain there, so a sample
    fails only when it picks (0, 0) at a trap: late failures, some past
    the first chunks of the batched check."""
    late = 0
    for g in range(12):
        rng = np.random.default_rng(g)
        n = 5
        mu, mv = rng.integers(2, 5, n), rng.integers(2, 5, n)
        P = [rng.uniform(0.1, 1.0, (mu[i], mv[i], n)) for i in range(n)]
        for i in rng.choice(n, 2, replace=False):
            P[i][0, 0] = 0.0
            P[i][0, 0, i] = 1.0
        P = [p / p.sum(axis=2, keepdims=True) for p in P]
        m = make_model(n, [list(range(k)) for k in mu], [list(range(k)) for k in mv],
                       P, [np.zeros((mu[i], mv[i])) for i in range(n)], i0=0)
        rep = check_irreducibility(m, "sampled", samples=60, seed=g)
        pair, count = sequential_sampled_check(P, mu, mv, 60, g)
        assert (rep.failing_pair, rep.samples, rep.passed) == (pair, count, pair is None)
        late += pair is not None and count > 4
    assert late >= 3


@pytest.mark.parametrize("p, passed", [(1.0, True), (0.0, False)])
def test_irreducibility_on_one_state(p, passed):
    """A single state is strongly connected through its self-loop; with no
    mass it has no edge, and both modes fail it."""
    P = [np.full((2, 1, 1), p)]
    m = make_model(1, [[0, 1]], [[0]], P, [np.zeros((2, 1))], i0=0)
    assert check_irreducibility(m, "sufficient").passed is passed
    samp = check_irreducibility(m, "sampled", samples=5, seed=0)
    assert samp.passed is passed
    assert samp.samples == (5 if passed else 1)
    assert samp.failing_pair == sequential_sampled_check(P, [2], [1], 5, 0)[0]


def test_reference_state_examples():
    m = build_birth_death(BirthDeathParams(window=40))
    assert check_reference_state(m)
    # deterministic 3-cycle: the reference state misses one state entirely
    rows = [np.zeros((1, 1, 3)) for _ in range(3)]
    rows[0][0, 0, 1] = 1.0
    rows[1][0, 0, 2] = 1.0
    rows[2][0, 0, 0] = 1.0
    cyc = make_model(3, [[0]] * 3, [[0]] * 3, rows, [np.zeros((1, 1))] * 3, i0=0)
    assert not check_reference_state(cyc)
    single = make_model(1, [[0]], [[0]], [np.ones((1, 1, 1))],
                        [np.zeros((1, 1))], i0=0)
    assert check_reference_state(single)


def test_theta_rescaling_bit_identical(rng):
    n, mu, mv = 3, 2, 2
    transition = []
    cost = []
    for i in range(n):
        P = rng.uniform(0.05, 1.0, (mu, mv, n))
        P /= P.sum(axis=2, keepdims=True)
        transition.append(P)
        cost.append(rng.uniform(0.0, 1.0, (mu, mv)))
    theta = 2.5
    a = make_model(n, [[0, 1]] * n, [[0, 1]] * n,
                   [p.copy() for p in transition], [c.copy() for c in cost],
                   theta=theta, i0=0)
    b = make_model(n, [[0, 1]] * n, [[0, 1]] * n,
                   [p.copy() for p in transition], [theta * c for c in cost],
                   theta=1.0, i0=0)
    for i in range(n):
        assert np.array_equal(state_cost(a, i), state_cost(b, i))


def test_strategy_validation(two_state):
    good = uniform_strategy(two_state, 1)
    assert good.validate_for(two_state, 1) == []
    bad = StationaryStrategy([np.array([0.7]), np.array([1.0])])
    problems = bad.validate_for(two_state, 1)
    assert any("sum" in p for p in problems)
    misshapen = StationaryStrategy([np.array([0.5, 0.5]), np.array([1.0])])
    assert any("actions" in p for p in misshapen.validate_for(two_state, 1))


def test_strategy_validation_flags_nonfinite_weights():
    """A NaN or infinite weight is a problem; the simulator refuses it
    rather than dropping that action."""
    m = pennies_layer_model()
    pi2 = uniform_strategy(m, 2)
    for bad in (np.nan, np.inf):
        pi1 = StationaryStrategy([np.array([bad, 1.0]), np.array([1.0])])
        assert pi1.validate_for(m, 1) == [f"state 0: non-finite weight {bad}"]
        with pytest.raises(ValueError, match="non-finite weight"):
            estimate_ergodic_cost(m, pi1, pi2, SimConfig(T=10, N=10))


def test_strategy_validation_matches_per_state_checks(rng):
    """The segment-reduction checks report exactly what the per-state loop
    reports, sums at the tolerance's edge included."""
    n = 300
    sizes = rng.integers(1, 9, n)
    m = make_model(n, [list(range(k)) for k in sizes], [[0]] * n,
                   [np.full((k, 1, n), 1.0 / n) for k in sizes],
                   [np.zeros((k, 1)) for k in sizes], i0=0)
    ws = [rng.dirichlet(np.ones(k)) for k in sizes]
    for i in range(0, n, 7):
        ws[i] = ws[i] * (1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * STRATEGY_TOL)
    ws[3] = np.append(ws[3], 0.0)
    ws[5] = ws[5] - 0.25
    ws[11][0] = -0.5
    k = int(np.flatnonzero(sizes > 1)[-1])    # a negative weight in a sum of 1
    ws[k] = np.zeros(sizes[k])
    ws[k][:2] = 1.5, -0.5
    strategy = StationaryStrategy(ws)
    expected = []
    for i, w in enumerate(strategy.weights):
        if w.shape != (sizes[i],):
            expected.append(f"state {i}: {w.shape[0]} weights for {sizes[i]} actions")
            continue
        if w.min() < 0:
            expected.append(f"state {i}: negative weight {w.min()}")
        if abs(w.sum() - 1.0) > STRATEGY_TOL:
            expected.append(f"state {i}: weights sum to {w.sum()!r}")
    assert len(expected) > 10
    assert strategy.validate_for(m, 1) == expected


def test_pure_strategy_weights_are_identity_rows(rng):
    """StationaryStrategy.pure gives row k of the identity for every state."""
    m = ragged_open_model(rng)
    for player in (1, 2):
        sizes = m.shapes[:, player - 1].tolist()
        idx = [int(rng.integers(size)) for size in sizes]
        weights = StationaryStrategy.pure(m, player, idx).weights
        assert all(np.array_equal(w, np.eye(size)[k]) for w, size, k in zip(weights, sizes, idx))


def emitted_text(m) -> str:
    buf = io.StringIO()
    write_model_json(m, buf)
    return buf.getvalue()


def test_emission_chunking_changes_no_byte(monkeypatch):
    """Records written a few at a time give the text written in one chunk."""
    m = build_birth_death(BirthDeathParams(window=12))
    texts = []
    for chunk in (1 << 16, 7, 1):
        monkeypatch.setattr(model_module, "RECORD_CHUNK", chunk)
        texts.append(emitted_text(m))
    assert texts[0] == texts[1] == texts[2]
    assert json.loads(texts[0]) == json.loads(json.dumps(model_to_json(m)))


def odd_floats_model():
    """Kernel entries that repeat with both signs, NaN (two payloads),
    +-inf, +-0.0 and the subnormal +-5e-324; every cost zero, so the
    document has no cost records."""
    nan2 = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    prob = [0.5, -0.25, 0.5, -0.25, float("nan"), nan2, float("inf"), -float("inf"),
            5e-324, -5e-324, 0.0, -0.0, 0.5, 5e-324]
    rows = [0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4]
    cols = [0, 1, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]
    return make_model(3, [[0, 1], [0.5], [-1.0]], [[0.0], [1, 2], [3]],
                      KernelCSR.from_entries([0, 2, 4, 5], rows, cols, prob), np.zeros(5))


@pytest.mark.parametrize("build", [lambda: build_birth_death(BirthDeathParams(window=60)),
                                   lambda: build_birth_death(BirthDeathParams(window=200)),
                                   odd_floats_model],
                         ids=["birth-death-60", "birth-death-200", "odd-floats"])
def test_emission_matches_the_per_record_reference(build):
    """write_model_json formats each distinct value once; its text is byte
    for byte the text of one json.dumps per record."""
    m = build()
    text = emitted_text(m)
    assert text == model_json_text(model_to_json(m))
    if build is odd_floats_model:
        assert '"cost": []' in text
        assert '"p": -0.0}' in text and '"p": 0.0}' in text


def test_records_may_be_dict_subclasses():
    """Records given through the API as dict subclasses are read as dicts;
    one that makes up the keys it misses is refused for its own keys."""
    doc = json.loads(emitted_text(build_birth_death(BirthDeathParams(window=8))))
    want = model_from_json(doc)
    got = model_from_json({**doc, "transition": [OrderedDict(r) for r in doc["transition"]],
                           "cost": [defaultdict(float, r) for r in doc["cost"]]})
    for name in ("indptr", "indices", "prob"):
        assert np.array_equal(getattr(got.kernel, name), getattr(want.kernel, name))
    assert np.array_equal(got.row_cost, want.row_cost)
    renamed = defaultdict(float, {**doc["cost"][1], "x": 1.0})
    del renamed["c"]
    short = defaultdict(float, doc["cost"][2])
    del short["c"]
    for rec, message in ((renamed, "unknown keys in cost record: ['x']"),
                         (short, f"cost record misses keys ['c']: {short}")):
        with pytest.raises(SchemaError) as refused:
            model_from_json({**doc, "cost": doc["cost"][:1] + [rec]})
        assert str(refused.value) == message


def test_json_round_trip(rng):
    m = random_closed_model(rng, n=3, mu=2, mv=2)
    doc = model_to_json(m)
    m2 = model_from_json(json.dumps(doc))
    assert m2.n_states == m.n_states
    for i in range(m.n_states):
        assert np.array_equal(dense_transition(m, i), dense_transition(m2, i))
        assert np.array_equal(state_cost(m, i), state_cost(m2, i))
    assert m2.i0 == m.i0


def test_json_theta_applied_on_ingest():
    doc = {
        "states": 1,
        "actions_p1": [[0]],
        "actions_p2": [[0]],
        "transition": [{"i": 0, "u": 0, "v": 0, "j": 0, "p": 1.0}],
        "cost": [{"i": 0, "u": 0, "v": 0, "c": 2.0}],
        "theta": 0.5,
        "i0": 0,
    }
    m = model_from_json(doc)
    assert state_cost(m, 0)[0, 0] == 1.0


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(bogus=1),
    lambda d: d["transition"][0].update(extra=2),
    lambda d: d["cost"][0].update(extra=2),
])
def test_json_unknown_keys_rejected(mutate):
    doc = {
        "states": 1,
        "actions_p1": [[0]],
        "actions_p2": [[0]],
        "transition": [{"i": 0, "u": 0, "v": 0, "j": 0, "p": 1.0}],
        "cost": [{"i": 0, "u": 0, "v": 0, "c": 0.0}],
        "i0": 0,
    }
    mutate(doc)
    with pytest.raises(SchemaError):
        model_from_json(doc)


def test_json_lyapunov_forms():
    base = {
        "states": 1,
        "actions_p1": [[0]],
        "actions_p2": [[0]],
        "transition": [{"i": 0, "u": 0, "v": 0, "j": 0, "p": 1.0}],
        "cost": [],
        "i0": 0,
    }
    linear = dict(base, lyapunov={"W": [2.0], "gamma": 1.0, "K": [0], "C": 3.0})
    m = model_from_json(linear)
    assert m.lyapunov.log_W[0] == pytest.approx(np.log(2.0))
    logform = dict(base, lyapunov={"logW": [5.0], "ell": [0.1], "K": [0], "C": 3.0})
    m = model_from_json(logform)
    assert m.lyapunov.log_W[0] == 5.0
    both = dict(base, lyapunov={"W": [1.0], "logW": [0.0], "gamma": 1.0, "K": [0], "C": 1.0})
    with pytest.raises(SchemaError):
        model_from_json(both)
    neither_rate = dict(base, lyapunov={"W": [1.0], "K": [0], "C": 1.0})
    with pytest.raises(SchemaError):
        model_from_json(neither_rate)
    unknown = dict(base, lyapunov={"W": [1.0], "gamma": 1.0, "K": [0], "C": 1.0, "zz": 1})
    with pytest.raises(SchemaError):
        model_from_json(unknown)


def test_json_round_trip_of_bounded_lyapunov_data():
    """The bounded case (one rate gamma, no ell) is written as logW, K, C
    and gamma, and read back to the same data."""
    P = np.full((1, 1, 2), 0.5)
    ly = LyapunovData(log_W=np.array([0.0, 0.4]), C=2.5, K=np.array([1]), gamma=0.75)
    m = make_model(2, [[0], [0]], [[0], [0]], [P, P.copy()], [np.full((1, 1), 0.3)] * 2,
                   lyapunov=ly)
    text = emitted_text(m)
    assert json.loads(text)["lyapunov"] == {"logW": [0.0, 0.4], "K": [1], "C": 2.5,
                                            "gamma": 0.75}
    back = model_from_json(text).lyapunov
    assert (back.case, back.ell, back.gamma, back.C) == ("bounded", None, 0.75, 2.5)
    assert back.log_W.tolist() == [0.0, 0.4] and back.K.tolist() == [1]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 4),
       mu=st.integers(1, 3), mv=st.integers(1, 3))
def test_round_trip_preserves_tensors(seed, n, mu, mv):
    m = random_closed_model(np.random.default_rng(seed), n=n, mu=mu, mv=mv)
    m2 = model_from_json(json.dumps(model_to_json(m)))
    for i in range(n):
        assert np.array_equal(dense_transition(m, i), dense_transition(m2, i))
        assert np.array_equal(state_cost(m, i), state_cost(m2, i))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_closed_models_validate_clean(seed):
    m = random_closed_model(np.random.default_rng(seed))
    assert validate_model(m).ok


# ---------------------------------------------------------------------------
# inner-sum kernel against the dense reference


def dense_inner_sums(P, log_psi):
    """The dense form every caller used before the CSR kernel."""
    with np.errstate(divide="ignore"):
        return logsumexp_last_axis(np.log(P) + log_psi)


def assert_matches_dense(model, states, log_psi):
    """Equal -inf pattern; finite entries within the summation-order bound.

    Both forms add the same terms exp(log p + log psi - max), only in
    another order, so their sums of k terms differ by at most (k - 1) eps
    relative, which is (k - 1) eps after the log, plus the rounding of the
    result: 4 spacings of the value. (The value alone does not bound it:
    when the row max and log of the sum nearly cancel, the value is much
    smaller than the terms that were rounded.)
    """
    flat = model.inner_log_sums(states, log_psi)
    _, at = model.rows(states)
    got = [flat[lo:lo + mu * mv].reshape(mu, mv)
           for lo, (mu, mv) in zip(at.tolist(), model.shapes[states].tolist())]
    assert len(got) == len(states) and sum(L.size for L in got) == flat.size
    eps = np.finfo(float).eps
    for i, L in zip(states, got):
        ref = dense_inner_sums(dense_transition(model, i), log_psi)
        assert L.shape == ref.shape == tuple(model.shapes[i])
        assert np.array_equal(L == -np.inf, ref == -np.inf), i
        terms = ((dense_transition(model, i) > 0) & np.isfinite(log_psi)).sum(axis=2)
        bound = 4 * np.spacing(np.abs(ref)) + np.maximum(terms - 1, 0) * eps
        finite = np.isfinite(ref)
        assert np.all(np.abs(L[finite] - ref[finite]) <= bound[finite]), i


def ragged_open_model(rng):
    """Six states with different action sets: state 3 has an all-zero
    (u=1, v=0) row, and state 4 moves only to state 5."""
    shapes = [(2, 3), (1, 1), (3, 2), (2, 2), (2, 1), (1, 2)]
    n = len(shapes)
    transition, cost = [], []
    for i, (mu, mv) in enumerate(shapes):
        P = np.where(rng.uniform(size=(mu, mv, n)) < 0.5, rng.uniform(size=(mu, mv, n)), 0.0)
        P[..., 0] += 0.05
        P /= P.sum(axis=2, keepdims=True)
        transition.append(P)
        cost.append(rng.uniform(size=(mu, mv)))
    transition[3][1, 0] = 0.0
    transition[4][...] = 0.0
    transition[4][..., 5] = 1.0
    return make_model(n, [list(range(mu)) for mu, _ in shapes],
                      [list(range(mv)) for _, mv in shapes], transition, cost, i0=0)


def test_inner_sums_match_dense_reference(rng):
    m = ragged_open_model(rng)
    assert not m.is_closed()
    every = list(range(m.n_states))
    assert_matches_dense(m, every, rng.normal(size=m.n_states))
    # log psi = -inf off the domain {0..4}: state 4's whole support is off it
    on_domain = np.where(np.arange(m.n_states) < 5, rng.normal(size=m.n_states), -np.inf)
    assert_matches_dense(m, every, on_domain)
    assert np.all(m.inner_log_sums([4], on_domain) == -np.inf)
    assert m.inner_log_sums([3], on_domain).reshape(2, 2)[1, 0] == -np.inf  # all-zero row
    # any subset, in any order, reads the same per-state matrices
    assert_matches_dense(m, [5, 2, 0], on_domain)
    assert m.inner_log_sums([], on_domain).shape == (0,)


def test_inner_sums_one_state_and_birth_death(rng):
    for m in (scalar_self_loop(), one_state_two_action()):
        assert_matches_dense(m, [0], np.zeros(1))
        assert_matches_dense(m, [0], np.full(1, -np.inf))
    m = build_birth_death(BirthDeathParams(window=60))
    log_psi = np.where(np.arange(60) < 40, rng.normal(scale=3.0, size=60), -np.inf)
    assert_matches_dense(m, list(range(60)), log_psi)
    assert_matches_dense(m, list(range(60)), m.lyapunov.log_W)


# ---------------------------------------------------------------------------
# columnar ingestion against the record-by-record dense reference


def reference_ingest(doc):
    """Record-by-record ingestion into dense per-state tensors, the way the
    kernel was filled before it was stored in CSR form: (transition, cost),
    or the message of the SchemaError the first bad record earns."""
    n, a1, a2 = doc["states"], doc["actions_p1"], doc["actions_p2"]
    transition = [np.zeros((len(a1[i]), len(a2[i]), n)) for i in range(n)]
    cost = [np.zeros((len(a1[i]), len(a2[i]))) for i in range(n)]
    for rec in doc["transition"]:
        try:
            i, u, v, j, p = (int(rec["i"]), int(rec["u"]), int(rec["v"]), int(rec["j"]),
                             float(rec["p"]))
        except (TypeError, ValueError, OverflowError):
            return f"transition record needs numbers: {rec}"
        if not (0 <= i < n and 0 <= j < n):
            return f"transition record references state outside window: {rec}"
        if not (0 <= u < len(a1[i]) and 0 <= v < len(a2[i])):
            return f"transition record references missing action: {rec}"
        transition[i][u, v, j] = p
    for rec in doc["cost"]:
        try:
            i, u, v, c = int(rec["i"]), int(rec["u"]), int(rec["v"]), float(rec["c"])
        except (TypeError, ValueError, OverflowError):
            return f"cost record needs numbers: {rec}"
        if not (0 <= i < n):
            return f"cost record references state outside window: {rec}"
        if not (0 <= u < len(a1[i]) and 0 <= v < len(a2[i])):
            return f"cost record references missing action: {rec}"
        cost[i][u, v] = c
    return transition, cost


PROBS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -0.25, float("nan"), float("inf")]),
                  st.floats(0.0, 1.0))
JUNK_VALUES = st.sampled_from([None, "x", "2", 1.5, True, -1, 9, 10**30, [0], float("nan")])


@st.composite
def record_documents(draw):
    """Ragged action sets; records in any order, with duplicates, zeros,
    negative and NaN entries, rows left empty (open); sometimes one field
    of one record replaced by a value a reader must refuse or cast."""
    n = draw(st.integers(1, 4))
    a1 = [list(range(draw(st.integers(1, 3)))) for _ in range(n)]
    a2 = [list(range(draw(st.integers(1, 3)))) for _ in range(n)]

    def slot():
        i = draw(st.integers(0, n - 1))
        return i, draw(st.integers(0, len(a1[i]) - 1)), draw(st.integers(0, len(a2[i]) - 1))

    transition = []
    for _ in range(draw(st.integers(0, 12))):
        i, u, v = slot()
        transition.append({"i": i, "u": u, "v": v, "j": draw(st.integers(0, n - 1)),
                           "p": draw(PROBS)})
    cost = []
    for _ in range(draw(st.integers(0, 6))):
        i, u, v = slot()
        cost.append({"i": i, "u": u, "v": v, "c": draw(st.floats(-2.0, 2.0))})
    doc = {"states": n, "actions_p1": a1, "actions_p2": a2, "transition": transition,
           "cost": cost, "i0": 0}
    recs = draw(st.sampled_from([transition, cost]))
    if recs and draw(st.booleans()):
        rec = draw(st.sampled_from(recs))
        rec[draw(st.sampled_from(sorted(rec)))] = draw(JUNK_VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=record_documents())
def test_columnar_ingestion_matches_dense_reference(doc):
    ref = reference_ingest(doc)
    if isinstance(ref, str):
        with pytest.raises(SchemaError) as refused:
            model_from_json(doc)
        assert str(refused.value) == ref
        return
    transition, cost = ref
    m = model_from_json(doc)
    for i in range(m.n_states):
        assert np.array_equal(dense_transition(m, i), transition[i], equal_nan=True)
        assert np.array_equal(state_cost(m, i), cost[i], equal_nan=True)
    want = make_model(m.n_states, doc["actions_p1"], doc["actions_p2"], transition, cost).kernel
    for name in ("row_start", "indptr", "indices", "prob", "log_prob"):
        assert np.array_equal(getattr(m.kernel, name), getattr(want, name), equal_nan=True), name
    assert not (m.kernel.prob == 0).any()
    # emission from the columns: the text is the per-record reference's
    assert emitted_text(m) == model_json_text(model_to_json(m))


# ---------------------------------------------------------------------------
# the sliced reader of JSON text against json.loads and the dict path


def assert_reads_as_json_loads(text, read=None):
    """read() (by default model_from_json(text)) raises the exception type
    and message that json.loads(text) and the dict path raise, or gives
    their model."""
    read = read or (lambda: model_from_json(text))
    try:
        want = model_from_json(json.loads(text))
    except Exception as exc:
        with pytest.raises(Exception) as refused:
            read()
        assert type(refused.value) is type(exc)
        assert str(refused.value) == str(exc)
        return
    got = read()
    pairs = [(got.kernel.indptr, want.kernel.indptr), (got.kernel.indices, want.kernel.indices),
             (got.kernel.prob, want.kernel.prob), (got.row_cost, want.row_cost)]
    assert (got.lyapunov is None) == (want.lyapunov is None)
    if want.lyapunov is not None:
        pairs += [(getattr(got.lyapunov, name), getattr(want.lyapunov, name))
                  for name in ("log_W", "K", "ell", "C", "gamma")]
    for a, b in pairs:
        assert (a is None) == (b is None)
        if a is not None:
            assert np.asarray(a).dtype == np.asarray(b).dtype
            assert np.array_equal(a, b, equal_nan=True)
    assert (got.n_states, got.i0, got.actions_p1, got.actions_p2) == \
        (want.n_states, want.i0, want.actions_p1, want.actions_p2)


def reader_documents():
    """(name, text) pairs: valid documents in several layouts, and
    documents that json.loads or the dict path refuse."""
    mixed = model_to_json(random_closed_model(np.random.default_rng(3), n=3, mu=2, mv=3))
    mixed["lyapunov"] = {"W": [1.0, 2.0, 4.0], "ell": [0.5, 0.25, 0.125], "K": [0], "C": 2.0}
    emitted = emitted_text(model_from_json(mixed))
    out = [("emitted", emitted), ("dumps", json.dumps(mixed)),
           ("compact", json.dumps(mixed, separators=(",", ":"))),
           ("indent-2", json.dumps(mixed, indent=2)),
           ("sort-keys", json.dumps(mixed, sort_keys=True)),
           ("odd-floats", emitted_text(odd_floats_model()))]
    rng = np.random.default_rng(4)
    shuffled = {**mixed, "transition": [dict(sorted(r.items(), key=lambda kv: rng.random()))
                                        for r in mixed["transition"]]}
    shuffled["cost"] = mixed["cost"] + [{**mixed["cost"][0], "c": 9.5}]
    shuffled["transition"] += [{**r, "p": 0.0} for r in mixed["transition"][:3]]
    out.append(("permuted-keys-and-duplicates", json.dumps(shuffled, indent=1)))
    out.append(("duplicate-top-level-key", emitted[:-2] + ',\n  "cost": []\n}'))
    out.append(("escaped-key", emitted.replace('"transition"', '"\\u0074ransition"')))
    labels = {**mixed, "actions_p1": [["]", "},"], [0.0, "a]},{"], ["[", 1.0]]}
    out.append(("bracket-in-label", json.dumps(labels)))
    for key, value in (("p", "]"), ("p", "},"), ("c", "0.5]"), ("j", [1]), ("p", [0.5, [1]])):
        records = "transition" if key in "pj" else "cost"
        doc = {**mixed, records: [dict(r) for r in mixed[records]]}
        doc[records][1][key] = value
        out.append((f"{records}-{key}-{value}", json.dumps(doc)))
    outside = {**mixed, "transition": mixed["transition"] + [{**mixed["transition"][0], "j": 9}]}
    out.append(("record-outside-window", json.dumps(outside)))
    renamed = {**mixed, "cost": [{"x" if k == "c" else k: x for k, x in r.items()}
                                 for r in mixed["cost"]]}
    out.append(("record-key-renamed", json.dumps(renamed)))
    out.append(("leading-comma", emitted.replace('"transition": [\n', '"transition": [,\n')))
    out.append(("trailing-comma", emitted.replace("}\n  ],\n  \"cost\"", "},\n  ],\n  \"cost\"")))
    out.append(("trailing-comma-compact",
                json.dumps(mixed).replace('}], "cost"', '},], "cost"')))
    out.append(("empty-slot", emitted.replace("},\n", "},\n ,\n", 1)))
    empty = {**mixed, "transition": [], "cost": []}
    out.append(("empty-records", json.dumps(empty, indent=2).replace("[]", "[ \n ]")))
    out.append(("extra-data", emitted + " {}"))
    out.append(("bom", "\ufeff" + emitted))
    out.append(("not-an-object", json.dumps([mixed])))
    # one value of the second transition record written otherwise: numbers
    # that json.loads refuses, int fields that int() truncates or that are
    # not exact in float64, and probabilities whose bits must survive
    lines = emitted.split("\n")
    at = lines.index('  "transition": [') + 2
    for name, key, value in (("two-numbers", "j", "1 2"), ("empty-value", "p", ""),
                             ("plus-sign", "p", "+0.5"), ("no-leading-digit", "p", ".5"),
                             ("leading-zero", "j", "01"), ("int-as-float", "i", "1.0"),
                             ("int-as-exponent", "u", "1e0"), ("int-as-fraction", "v", "1.5"),
                             ("int-2**60", "j", str(2**60)), ("negative-zero", "p", "-0.0"),
                             ("subnormal", "p", "5e-324")):
        row = re.sub(f'"{key}": [^,}}]*', f'"{key}": {value}', lines[at], count=1)
        out.append((f"value-{name}", "\n".join(lines[:at] + [row] + lines[at + 1:])))
    # a permuted record, a key with a space, and a number outside its value
    # standing in for an empty one: each has the skeleton's characters
    permuted = dict(reversed(json.loads(lines[at].rstrip(",")).items()))
    for name, row in (("one-permuted-record", f"    {json.dumps(permuted)},"),
                      ("key-with-space", lines[at].replace('"j"', '" j"')),
                      ("number-before-key", re.sub(r', "j": (\d+)', r', \1"j": ', lines[at])),
                      ("number-after-record", re.sub(r'"p": ([^}]*)}', r'"p": }\1', lines[at]))):
        out.append((name, "\n".join(lines[:at] + [row] + lines[at + 1:])))
    return out


READER_DOCUMENTS = reader_documents()

# valid documents whose records are read as flat numbers, slice by slice
FLAT_LAYOUTS = ("emitted", "dumps", "compact", "indent-2", "escaped-key", "bracket-in-label",
                "empty-records", "value-int-as-float", "value-int-as-exponent",
                "value-int-as-fraction", "value-negative-zero", "value-subnormal")
# valid documents whose records are not all flat numbers in the canonical
# key order, so that the whole text is read with json.loads
WHOLE_LAYOUTS = ("sort-keys", "odd-floats", "permuted-keys-and-duplicates",
                 "one-permuted-record")


@pytest.mark.parametrize("name, text", READER_DOCUMENTS, ids=[n for n, _ in READER_DOCUMENTS])
def test_sliced_reader_matches_json_loads(monkeypatch, name, text):
    """With slices of 40 characters, every document gives the model or the
    refusal of json.loads and the dict path, also as bytes and cut short
    at every record boundary; the flat layouts are read without json.loads
    of the whole text, and the sliced reading refuses the whole layouts."""
    monkeypatch.setattr(model_module, "RECORD_SLICE", 40)
    assert_reads_as_json_loads(text)
    for encoding in ("utf-8", "utf-8-sig", "utf-16"):
        assert_reads_as_json_loads(text.encode(encoding))
    cuts = {k + d for k in range(len(text)) if text.startswith("},", k) for d in (1, 2)}
    for cut in sorted(cuts):
        assert_reads_as_json_loads(text[:cut])
    if name in FLAT_LAYOUTS:
        doc = model_module._scan_document(text)
        assert all(isinstance(doc[key], model_module._Columns) for key in ("transition", "cost"))
    if name in WHOLE_LAYOUTS:
        with pytest.raises(ValueError):
            model_module._scan_document(text)


@pytest.mark.parametrize("name, text", READER_DOCUMENTS, ids=[n for n, _ in READER_DOCUMENTS])
def test_file_reads_match_json_loads(monkeypatch, tmp_path, name, text):
    """Read from a file in chunks of 1, 2, 3, 5, 8, 13 and 40 characters,
    through model_from_json(fh) and cli._load_model, every document gives
    the model or the refusal of json.loads and the dict path, also cut
    short inside a '},', in the middle, before the closing ']' of the
    first record array and before its last character. Chunks of one
    character split the text at every point: inside a number, a literal,
    a key, a '},' and a closing ']'. The flat layouts are read whole
    without reading the file again."""
    closing = re.search(r"}\s*]", text)
    cuts = sorted({len(text), text.find("},") + 1, len(text) // 2, len(text) - 1}
                  | ({closing.end() - 1} if closing else set()))
    path = tmp_path / "m.json"

    def from_file():
        with open(path) as fh:
            return model_from_json(fh)

    def sliced():
        with open(path) as fh:
            return model_module._model_from_doc(model_module._scan_document(fh))

    for cut in cuts:
        with open(path, "w") as fh:
            fh.write(text[:cut])
        with open(path) as fh:
            written = fh.read()
        for size in (1, 2, 3, 5, 8, 13, 40):
            monkeypatch.setattr(model_module, "RECORD_SLICE", size)
            assert_reads_as_json_loads(written, from_file)
            assert_reads_as_json_loads(written, lambda: cli._load_model(str(path)))
            if name in FLAT_LAYOUTS and cut == len(text):
                assert_reads_as_json_loads(written, sliced)


@pytest.fixture(scope="module")
def birth_death_400():
    return build_birth_death(BirthDeathParams(window=400))


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_text_holds_one_slice_of_records(birth_death_400):
    """Reading the 3.2 MB window-400 text peaks at about 1.32 times its
    length; one dict per record of a slice took 1.41, and one dict per
    record of the whole text (json.loads) took 4.7."""
    text = emitted_text(birth_death_400)
    assert traced_peak(model_from_json, text) < 1.5 * len(text)


def test_loading_a_file_holds_one_chunk_of_text(birth_death_400, tmp_path):
    """cli._load_model on the 3.2 MB window-400 document peaks at about 1.41
    times the file size; one dict per record of a slice took 1.60, and
    reading the whole text first took 2.4."""
    path = tmp_path / "m.json"
    with open(path, "w") as fh:
        write_model_json(birth_death_400, fh)
    assert traced_peak(cli._load_model, str(path)) < 1.5 * path.stat().st_size


def test_emitted_records_are_read_as_flat_numbers(birth_death_400):
    """The emitted window-400 text, about 12 slices of records, is read by
    _scan_document as flat numbers, without reading it again whole, and
    gives the dict path's model."""
    text = emitted_text(birth_death_400)
    want = model_from_json(json.loads(text))
    doc = model_module._scan_document(text)
    assert all(isinstance(doc[key], model_module._Columns) for key in ("transition", "cost"))
    got = model_module._model_from_doc(doc)
    for a, b in ((got.kernel.indptr, want.kernel.indptr), (got.kernel.indices, want.kernel.indices),
                 (got.kernel.prob, want.kernel.prob), (got.row_cost, want.row_cost)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class CharCount:
    """A text sink that only counts what it is given."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_writing_text_holds_one_chunk_of_records(birth_death_400):
    """Writing the 3.2 MB window-400 text peaks at about 3.2 MiB, mostly
    the record columns; chunks of 65536 records took 10.3 MiB."""
    sink = CharCount()
    assert traced_peak(write_model_json, birth_death_400, sink) < 5 * 2**20
    assert sink.chars == len(emitted_text(birth_death_400))
