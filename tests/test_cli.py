import json

import numpy as np
import pytest

from rsgame import dirichlet, saddle
from rsgame.cli import run


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_example_then_validate_round_trip(workdir, capsys):
    assert run(["example", "birth-death", "--window", "20", "--out", "m.json"]) == 0
    capsys.readouterr()
    assert run(["validate", "m.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["structurally_sound"]
    # the cost-sign findings are reported, not suppressed
    assert any(v["kind"] == "negative_cost" for v in out["violations"])


def test_check_subcommand(workdir, capsys):
    run(["example", "birth-death", "--window", "20", "--out", "m.json"])
    capsys.readouterr()
    assert run(["check", "m.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lyapunov"]["passed"]
    assert doc["irreducibility"]["sufficient"]["passed"]
    assert doc["reference_state"]["passed"]


def test_solve_verify_round_trip(workdir, capsys):
    run(["example", "birth-death", "--window", "20", "--out", "m.json"])
    assert run(["solve", "m.json", "--ladder", "10,20", "--out", "r.json",
                "--trace", "t.csv"]) == 0
    rep = read_json("r.json")
    assert rep["residual"] <= 1e-6
    assert rep["certified"]
    with open("t.csv") as fh:
        assert fh.readline().strip() == "n,domain_size,rho_n,bracket_width,iterations"
    capsys.readouterr()
    code = run(["verify", "m.json", "--report", "r.json", "--saddle",
                "--T", "600", "--N", "3000", "--seed", "2", "--deviations", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["saddle"]["passed"]
    assert code == 0


def test_verify_saddle_fails_on_a_reachable_zero_of_psi(workdir, capsys):
    from rsgame.model import make_model, model_to_json
    rows = [[0.5, 0.5, 0.0], [0.5, 0.4, 0.1], [0.0, 0.0, 1.0]]
    model = make_model(3, [[0]] * 3, [[0]] * 3,
                       [np.array(r).reshape(1, 1, 3) for r in rows],
                       [np.zeros((1, 1))] * 3, i0=0)
    with open("m.json", "w") as fh:
        json.dump(model_to_json(model), fh)
    assert run(["solve", "m.json", "--ladder", "2", "--out", "r.json"]) == 0
    capsys.readouterr()
    code = run(["verify", "m.json", "--report", "r.json", "--saddle",
                "--T", "100", "--N", "500"])
    out = capsys.readouterr().out
    doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
    assert code == 1
    assert not doc["saddle"]["passed"]
    assert "states [2]" in doc["saddle"]["warnings"][0]


def test_verify_representation(workdir, capsys):
    run(["example", "birth-death", "--window", "20", "--out", "m.json"])
    run(["solve", "m.json", "--ladder", "10,20", "--out", "r.json"])
    capsys.readouterr()
    code = run(["verify", "m.json", "--report", "r.json",
                "--representation", "B=0..4", "--starts", "5",
                "--N", "50000", "--seed", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["representation"]["passed"]


def test_simulate_subcommand(workdir, capsys):
    run(["example", "birth-death", "--window", "20", "--out", "m.json"])
    run(["solve", "m.json", "--ladder", "10,20", "--out", "r.json"])
    capsys.readouterr()
    assert run(["simulate", "m.json", "--strategies", "r.json",
                "--T", "100", "--N", "200", "--seed", "9",
                "--deviate", "2:2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "estimate" in doc["base"]
    assert len(doc["deviations"]["estimates"]) == 2


def test_simulate_deviations_build_tables_once(workdir, capsys, monkeypatch):
    from rsgame import simulate
    from rsgame.cli import _load_model, _load_report

    run(["example", "birth-death", "--window", "20", "--out", "m.json"])
    run(["solve", "m.json", "--ladder", "10,20", "--out", "r.json"])
    capsys.readouterr()
    model = _load_model("m.json")
    pi1, pi2 = _load_report("r.json", model).selectors
    T, N, seed = 60, 150, 9
    base = simulate.estimate_ergodic_cost(model, pi1, pi2,
                                          simulate.SimConfig(T=T, N=N, seed=seed)).to_dict()
    rows = [simulate.estimate_ergodic_cost(model, dev, pi2,
                                           simulate.SimConfig(T=T, N=N, seed=seed + k + 1)
                                           ).to_dict()
            for k, dev in enumerate(simulate._deviation_strategies(model, 1, 3, seed))]
    builds = []
    step_tables = simulate._step_tables

    def counted(model, log_psi=None):
        builds.append(log_psi)
        return step_tables(model, log_psi)

    monkeypatch.setattr(simulate, "_step_tables", counted)
    assert run(["simulate", "m.json", "--strategies", "r.json", "--T", str(T),
                "--N", str(N), "--seed", str(seed), "--deviate", "1:3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"base": base, "deviations": {"player": 1, "estimates": rows}}
    assert builds == [None]  # one untilted build serves the pair and every deviation


def test_solve_reports_collapse(workdir, capsys):
    doc = {
        "states": 2,
        "actions_p1": [[0], [0]],
        "actions_p2": [[0], [0]],
        "transition": [{"i": 0, "u": 0, "v": 0, "j": 1, "p": 1.0}],
        "cost": [],
        "i0": 0,
    }
    with open("trap.json", "w") as fh:
        json.dump(doc, fh)
    code = run(["solve", "trap.json"])
    err = capsys.readouterr().err
    assert code == 1
    assert "CollapseToZero" in err


@pytest.mark.parametrize("exc", [dirichlet.NoConvergence((0.1, 0.2), 5000),
                                 saddle.NoConvergence(10000, 1e-3)])
def test_solve_reports_no_convergence(workdir, capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    run(["example", "birth-death", "--window", "12", "--out", "m.json"])
    capsys.readouterr()
    monkeypatch.setattr("rsgame.cli.solve_ergodic_game", fail)
    code = run(["solve", "m.json"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: NoConvergence: {exc}\n"


def test_usage_and_ingestion_errors(workdir, capsys):
    assert run(["solve", "missing.json"]) == 2
    with open("bad.json", "w") as fh:
        fh.write('{"states": 1, "bogus": 2}')
    assert run(["validate", "bad.json"]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["verify", "x.json", "--report", "y.json"]) == 2
    capsys.readouterr()


def test_reports_are_diff_stable(workdir):
    run(["example", "birth-death", "--window", "12", "--out", "m.json"])
    run(["solve", "m.json", "--ladder", "6,12", "--out", "a.json"])
    run(["solve", "m.json", "--ladder", "6,12", "--out", "b.json", "--threads", "3"])
    assert open("a.json").read() == open("b.json").read()
    # full-precision floats survive a parse round trip bit-exactly
    rep = read_json("a.json")
    assert json.loads(json.dumps(rep)) == rep


def test_example_stability_report(workdir, capsys):
    code = run(["example", "birth-death", "--window", "20", "--out", "m.json",
                "--stability-out", "s.json", "--i-max", "60"])
    capsys.readouterr()
    assert code == 0
    doc = read_json("s.json")
    assert doc["passed"]
    assert doc["worst_slack"] > 0
    bad = run(["example", "birth-death", "--window", "20", "--p-hat", "0.2",
               "--out", "m2.json", "--stability-out", "s2.json"])
    capsys.readouterr()
    # p-hat above the admissible range is a parameter error at build time
    assert bad == 2


def test_validate_flags_structural_break(workdir, capsys):
    doc = {
        "states": 1,
        "actions_p1": [[0]],
        "actions_p2": [[0]],
        "transition": [{"i": 0, "u": 0, "v": 0, "j": 0, "p": 1.5}],
        "cost": [],
        "i0": 0,
    }
    with open("broken.json", "w") as fh:
        json.dump(doc, fh)
    assert run(["validate", "broken.json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["structurally_sound"]
