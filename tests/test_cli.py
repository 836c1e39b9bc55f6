import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rsgame import dirichlet, saddle
from rsgame.cli import run

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    # psi* = 0 at state 2, off the solved domain {0, 1}: a representation
    # target that holds it has no psi* to reach, and is refused
    assert run(["verify", "m.json", "--report", "r.json", "--representation", "B=1,2",
                "--starts", "0", "--N", "10"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: target state 2 lies outside the solved support\n")


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


def test_simulate_writes_the_paths_csv(workdir, capsys, bd20):
    """--paths-csv writes simulate_paths' CSV of the same model, selectors
    and run settings, byte for byte, next to the estimate."""
    from rsgame.cli import _load_model
    from rsgame.simulate import SimConfig, simulate_paths
    from rsgame.solver import SolveReport

    model, report = bd20
    assert run(["simulate", model, "--strategies", report, "--T", "7", "--N", "5",
                "--seed", "3", "--start", "2", "--paths-csv", "p.csv"]) == 0
    assert "estimate" in json.loads(capsys.readouterr().out)["base"]
    m = _load_model(model)
    pi1, pi2 = SolveReport.from_dict(read_json(report), m.n_states).selectors
    batch = simulate_paths(m, pi1, pi2, SimConfig(T=7, N=5, seed=3, start=2))
    assert Path("p.csv").read_bytes() == batch.to_csv().encode()


def test_simulate_refuses_nonfinite_strategy_weights(workdir, capsys):
    from conftest import pennies_layer_model
    from rsgame.model import model_to_json

    with open("m.json", "w") as fh:
        json.dump(model_to_json(pennies_layer_model()), fh)
    assert run(["solve", "m.json", "--out", "r.json"]) == 0
    report = read_json("r.json")
    report["selectors"]["p1"][0] = [float("nan"), 1.0]
    with open("r.json", "w") as fh:
        json.dump(report, fh)
    capsys.readouterr()
    assert run(["simulate", "m.json", "--strategies", "r.json", "--T", "10", "--N", "10"]) == 2
    assert "state 0: non-finite weight nan" in capsys.readouterr().err


def test_simulate_deviations_equal_single_pair_estimates(workdir, capsys):
    from rsgame import simulate
    from rsgame.cli import _load_model
    from rsgame.solver import SolveReport

    run(["example", "birth-death", "--window", "20", "--out", "m.json"])
    run(["solve", "m.json", "--ladder", "10,20", "--out", "r.json"])
    capsys.readouterr()
    model = _load_model("m.json")
    pi1, pi2 = SolveReport.from_dict(read_json("r.json"), model.n_states).selectors
    T, N, seed = 60, 150, 9
    base = simulate.estimate_ergodic_cost(model, pi1, pi2,
                                          simulate.SimConfig(T=T, N=N, seed=seed)).to_dict()
    rows = [simulate.estimate_ergodic_cost(model, dev, pi2,
                                           simulate.SimConfig(T=T, N=N, seed=seed + k + 1)
                                           ).to_dict()
            for k, dev in enumerate(simulate._deviation_strategies(model, 1, 3, seed))]
    assert run(["simulate", "m.json", "--strategies", "r.json", "--T", str(T),
                "--N", str(N), "--seed", str(seed), "--deviate", "1:3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"base": base, "deviations": {"player": 1, "estimates": rows}}


@pytest.fixture(scope="module")
def bd20(tmp_path_factory):
    """Paths of the window-20 example and of its solve report."""
    d = tmp_path_factory.mktemp("bd20")
    model, report = str(d / "m.json"), str(d / "r.json")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(["example", "birth-death", "--window", "20", "--out", model]) == 0
        assert run(["solve", model, "--ladder", "10,20", "--out", report]) == 0
    return model, report


def with_key(key, value):
    """The report with `key` set to `value`, or to `value` of its old value."""
    return lambda rep: {**rep, key: value(rep[key]) if callable(value) else value}


@pytest.mark.parametrize("mutation, message", [
    (lambda rep: [], "a solve report is a JSON object"),
    (lambda rep: {}, "solve report misses keys "
                     "['rho_star', 'log_psi_star', 'domain', 'selectors', 'residual']"),
    (lambda rep: {k: v for k, v in rep.items() if k != "selectors"},
     "solve report misses keys ['selectors']"),
    (with_key("rho_star", None), "malformed solve report"),
    (with_key("selectors", [1, 2]), "malformed solve report"),
    (with_key("domain", [1e30]), "malformed solve report"),
    (with_key("log_psi_star", lambda x: x[:-1]), "log_psi_star needs 20 entries"),
    (with_key("domain", lambda x: x + [20]), "domain must list states in 0..19"),
    (with_key("selectors", lambda x: {**x, "p1": [1.0] * 20}),
     "selector weights must be lists of numbers"),
], ids=["not-object", "empty", "no-selectors", "rho-null", "selectors-list", "domain-huge",
        "log-psi-length", "domain-range", "scalar-weights"])
def test_malformed_reports_are_schema_errors(workdir, capsys, bd20, mutation, message):
    model, report = bd20
    with open("r.json", "w") as fh:
        json.dump(mutation(read_json(report)), fh)
    for argv in (["simulate", model, "--strategies", "r.json", "--T", "5", "--N", "5"],
                 ["verify", model, "--report", "r.json", "--saddle", "--T", "5", "--N", "5"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--start", "-1"], "states [-1] lie outside the window 0..19"),
    (["simulate", "--start", "30"], "states [30] lie outside the window 0..19"),
    (["verify", "--representation", "B=0..4", "--starts", "30"],
     "states [30] lie outside the window 0..19"),
    (["verify", "--representation", "B=0..30", "--starts", "5"],
     f"states {list(range(20, 31))} lie outside the window 0..19"),
    (["verify", "--saddle", "--deviations", "-1"], "deviation count must be >= 0, got -1"),
    (["simulate", "--deviate", "2:-1"], "deviation count must be >= 0, got -1"),
    (["simulate", "--deviate", "2"], "bad --deviate spec '2'; expected player:count"),
    (["simulate", "--deviate", "two:3"], "bad --deviate spec 'two:3'; expected player:count"),
    (["verify", "--representation", "B=0..x", "--starts", "5"],
     "bad --representation spec 'B=0..x'; expected B=lo..hi or B=i,j,..."),
    (["verify", "--representation", "B=0..4", "--starts", "5;6"],
     "bad --starts spec '5;6'; expected comma-separated state indices"),
    (["verify", "--representation", "B=0..19"],
     "no state lies outside the target set to start from; give start states with --starts"),
    (["verify", "--representation", "B=0..4", "--starts", "6,3"],
     "start state 3 is inside the target set"),
    (["verify"], "verify needs --saddle and/or --representation"),
], ids=["start-negative", "start-30", "starts-30", "target-30", "deviations-negative",
        "deviate-negative", "deviate-no-count", "deviate-not-int", "target-malformed",
        "starts-malformed", "target-whole-window", "start-in-target", "verify-no-check"])
def test_simulation_inputs_out_of_range_are_usage_errors(capsys, bd20, argv, message):
    model, report = bd20
    flag = "--strategies" if argv[0] == "simulate" else "--report"
    assert run([argv[0], model, flag, report, "--T", "5", "--N", "5", *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


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
                                 saddle.NoConvergence(1e-3)])
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


@pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"),
                                         ("--tol", "inf"), ("--tol-outer", "nan"),
                                         ("--tol-outer", "-1"), ("--tol-outer", "inf")])
def test_solve_refuses_invalid_tolerances(workdir, capsys, flag, value):
    run(["example", "birth-death", "--window", "12", "--out", "m.json"])
    capsys.readouterr()
    code = run(["solve", "m.json", flag, value])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and f"({flag}) must be finite and > 0, got" in err


def test_check_refuses_fewer_than_one_sample(workdir, capsys):
    """State 1 never returns to itself, so one sampled pair already shows
    the chain reducible; zero or negative samples would test nothing."""
    doc = {
        "states": 2,
        "actions_p1": [[0], [0]],
        "actions_p2": [[0], [0]],
        "transition": [{"i": 0, "u": 0, "v": 0, "j": 0, "p": 1.0},
                       {"i": 1, "u": 0, "v": 0, "j": 0, "p": 1.0}],
        "cost": [],
        "i0": 0,
    }
    with open("reducible.json", "w") as fh:
        json.dump(doc, fh)
    assert run(["check", "reducible.json", "--samples", "1"]) == 1
    capsys.readouterr()
    for samples in ("0", "-5"):
        assert run(["check", "reducible.json", "--samples", samples]) == 2
        err = capsys.readouterr().err
        assert err == f"error: samples (--samples) must be >= 1, got {samples}\n"


@pytest.mark.parametrize("flag, value", [("--p-hat", "nan"), ("--p-hat", "inf"),
                                         ("--delta", "nan"), ("--L1", "nan"), ("--L2", "inf"),
                                         ("--p-hat", "0.2")])
def test_example_refuses_nonfinite_parameters(workdir, capsys, flag, value):
    """A NaN p_hat wrote NaN costs, NaN or infinite action bounds failed an
    assertion on the rows, and an infinite p_hat asked for an option no
    command offers. A finite p_hat >= 1/6 is refused by the stability
    condition it violates, not with a keyword to pass."""
    assert run(["example", "birth-death", flag, value, "--out", "bad.json"]) == 2
    name = flag[2:].replace("-", "_")
    err = capsys.readouterr().err
    if np.isfinite(float(value)):
        assert err == f"error: {name}={value} violates the stability condition p_hat < 1/6\n"
    else:
        assert err == f"error: {name} must be finite, got {float(value)}\n"
    assert "allow_" not in err
    assert not os.path.exists("bad.json")


def test_example_document_pinned(workdir, capsys):
    """The window-20 example, one record per line, hashes as it did when
    the kernel was a dense tensor (canonical form: sorted keys)."""
    assert run(["example", "birth-death", "--window", "20", "--out", "m.json"]) == 0
    capsys.readouterr()
    text = Path("m.json").read_text()
    doc = json.loads(text)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "f7f888411ee626487e67052879222a1af2ddf94e2013f2e5faf74be4da630777")
    records = [line for line in text.splitlines() if line.startswith('    {"i": ')]
    assert len(records) == len(doc["transition"]) + len(doc["cost"])


def run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# peak resident set of example -> validate -> check -> solve at window 2000:
# 121 MB measured with the CSR kernel (2-vCPU Linux host, Python 3.11,
# numpy 2.4), 892 MB with the dense per-state tensors it replaced
PIPELINE_2000_PEAK_MB = 250
# peak of example -> solve -> verify --saddle --T 100 --N 512 at window 2000:
# 92 MB measured with the O(nnz) sampling tables (same host), set by the
# example step; the dense (rows, window) alias stack they replaced took
# 1061 MB at window 1000 and grows with the window squared
VERIFY_2000_PEAK_MB = 160
SOLVE_2000 = ["solve", "m", "--ladder", "250,500,1000,2000", "--out", "r"]


def pipeline_peak(tmp_path, *steps):
    """Exit codes of `rsgame example birth-death --window 2000` and then of
    each step, run in one fresh interpreter, and its peak resident set
    (VmHWM) in MB; "m" and "r" in a step stand for the model and report."""
    files = {"m": str(tmp_path / "m.json"), "r": str(tmp_path / "r.json")}
    argvs = [[files.get(a, a) for a in argv]
             for argv in (["example", "birth-death", "--window", "2000", "--out", "m"],) + steps]
    out = run_python(
        "import contextlib, io, json\n"
        "from rsgame.cli import run\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    for argv in {argvs!r}:\n"
        "        codes.append(run(argv))\n"
        "hwm = [line for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
        "print(json.dumps([codes, int(hwm[0].split()[1]) / 1024.0]))\n")
    return json.loads(out)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_wide_window_pipeline_memory(tmp_path):
    codes, peak = pipeline_peak(tmp_path, ["validate", "m"], ["check", "m"], SOLVE_2000)
    # check may report FAIL (exit 1): the wide window's tails underflow
    assert codes in ([0, 0, 0, 0], [0, 0, 1, 0]), codes
    assert peak < PIPELINE_2000_PEAK_MB


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_wide_window_verify_memory(tmp_path):
    codes, peak = pipeline_peak(tmp_path, SOLVE_2000, [
        "verify", "m", "--report", "r", "--saddle", "--T", "100", "--N", "512"])
    assert codes == [0, 0, 0]
    assert peak < VERIFY_2000_PEAK_MB


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
    assert Path("a.json").read_text() == Path("b.json").read_text()
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


def test_example_stability_report_refuses_negative_i_max(workdir, capsys):
    code = run(["example", "birth-death", "--window", "20", "--out", "m.json",
                "--stability-out", "s.json", "--i-max", "-1"])
    assert code == 2
    assert "--i-max" in capsys.readouterr().err
    assert not Path("s.json").exists()


def test_validate_flags_structural_break(workdir, capsys):
    """validate reports an unsound kernel; check and solve refuse it by name."""
    one_state = {
        "states": 1,
        "actions_p1": [[0]],
        "actions_p2": [[0]],
        "transition": [{"i": 0, "u": 0, "v": 0, "j": 0, "p": 1.5}],
        "cost": [],
        "i0": 0,
    }
    two_state = {
        "states": 2,
        "actions_p1": [[0], [0]],
        "actions_p2": [[0], [0]],
        "transition": [{"i": 0, "u": 0, "v": 0, "j": 0, "p": 1.5},
                       {"i": 0, "u": 0, "v": 0, "j": 1, "p": -0.5},
                       {"i": 1, "u": 0, "v": 0, "j": 0, "p": 1.0}],
        "cost": [],
        "i0": 0,
    }
    two_state_nan = copy.deepcopy(two_state)
    two_state_nan["transition"][:2] = [{"i": 0, "u": 0, "v": 0, "j": 0, "p": 0.5},
                                       {"i": 0, "u": 0, "v": 0, "j": 1, "p": "nan"}]
    for doc, message, kind in [
            (one_state, "sum_j P(j|0,0,0) = 1.5 > 1", "row_sum_exceeds_one"),
            (two_state, "P(1|0,0,0) = -0.5 is negative", "negative_probability"),
            (two_state_nan, "P(1|0,0,0) = nan is not finite", "nonfinite_probability")]:
        with open("broken.json", "w") as fh:
            json.dump(doc, fh)
        assert run(["validate", "broken.json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert not out["structurally_sound"]
        assert kind in [v["kind"] for v in out["violations"]]
        for command in ("check", "solve"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
                assert run([command, "broken.json"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: unsound model: ") and message in err


def test_validate_flags_invalid_lyapunov_constant(workdir, capsys):
    """validate reports a C that is not finite and positive; check and solve
    refuse it with that finding before taking its log."""
    doc = {
        "states": 2,
        "actions_p1": [[0], [0]],
        "actions_p2": [[0], [0]],
        "transition": [{"i": 0, "u": 0, "v": 0, "j": 0, "p": 0.5},
                       {"i": 0, "u": 0, "v": 0, "j": 1, "p": 0.5},
                       {"i": 1, "u": 0, "v": 0, "j": 0, "p": 1.0}],
        "cost": [{"i": 1, "u": 0, "v": 0, "c": 0.5}],
        "i0": 0,
        "lyapunov": {"logW": [0.0, 1.0], "ell": [0.5, 0.5], "K": [0, 1], "C": 1.0},
    }
    for C in (-1.0, 0.0, "nan", "inf"):
        doc["lyapunov"]["C"] = C
        with open("bad_c.json", "w") as fh:
            json.dump(doc, fh)
        assert run(["validate", "bad_c.json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert "lyapunov_C_nonpositive" in [v["kind"] for v in out["violations"]]
        for command in ("check", "solve"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
                assert run([command, "bad_c.json"]) == 2
            err = capsys.readouterr().err
            assert err == (f"error: unsound Lyapunov data: C = {float(C)!r} must be finite "
                           "and > 0\n")


def test_negative_linear_W_is_refused_as_given(workdir, capsys):
    """A linear W entry below 0 has no log: the reader refuses it, naming
    the index and the value the document gave, for every command."""
    with open("bad.json", "w") as fh:
        json.dump(dict(two_state_doc(), lyapunov={"W": [1.0, -1.0], "ell": [1, 1], "K": [0],
                                                  "C": 5}), fh)
    for command in ("validate", "check", "solve"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert run([command, "bad.json"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: lyapunov W(1) = -1.0 is below 0\n")


@pytest.mark.parametrize("lyapunov, kind, value, message", [
    ({"W": [1.0, 2.0], "ell": [float("nan"), 1], "K": [0], "C": 5}, "lyapunov_not_finite", None,
     "error: unsound Lyapunov data: ell(0) = nan is not finite\n"),
    ({"W": [1.0, 2.0], "gamma": float("inf"), "K": [0], "C": 5}, "lyapunov_not_finite", None,
     "error: unsound Lyapunov data: gamma = inf is not finite\n"),
    ({"W": [0.5, 1.0], "ell": [1, 1], "K": [0], "C": 5}, "lyapunov_W_below_one", 0.5,
     "error: unsound Lyapunov data: W(0) = 0.5 is not >= 1\n"),
], ids=["ell-nan", "gamma-inf", "W-below-one"])
def test_nonfinite_lyapunov_data_is_refused(workdir, capsys, lyapunov, kind, value, message):
    """A W below one, or a non-finite rate, is a validate finding, and
    check and solve refuse it with that finding instead of writing NaN
    slacks or bounds (or skipping them in a max), or passing a drift check
    on a weight the theory does not allow."""
    with open("bad.json", "w") as fh:
        json.dump(dict(two_state_doc(), lyapunov=lyapunov), fh)
    assert run(["validate", "bad.json"]) == 1
    out = json.loads(capsys.readouterr().out,
                     parse_constant=lambda name: pytest.fail(f"validate wrote {name}"))
    assert [(v["kind"], v["coords"], v["value"]) for v in out["violations"]] == [
        (kind, [] if "gamma" in lyapunov else [0], value)]
    for command in ("check", "solve"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert run([command, "bad.json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == message
        assert "NaN" not in captured.out


def two_state_doc(theta=1.0, c=0.5):
    return {"states": 2, "actions_p1": [[0], [0]], "actions_p2": [[0], [0]],
            "transition": [{"i": 0, "u": 0, "v": 0, "j": 0, "p": 0.5},
                           {"i": 0, "u": 0, "v": 0, "j": 1, "p": 0.5},
                           {"i": 1, "u": 0, "v": 0, "j": 0, "p": 1.0}],
            "cost": [{"i": 0, "u": 0, "v": 0, "c": c}], "theta": theta, "i0": 0}


@pytest.mark.parametrize("field, value", [("theta", float("nan")), ("theta", float("inf")),
                                          ("c", float("nan")), ("c", float("inf"))])
def test_nonfinite_theta_and_costs_are_refused_by_name(workdir, capsys, field, value):
    """A non-finite theta is an input error for every command. A non-finite
    cost is a validate finding, and every command that solves or samples
    refuses it by name instead of blaming the game."""
    with open("good.json", "w") as fh:
        json.dump(two_state_doc(), fh)
    assert run(["solve", "good.json", "--out", "r.json"]) == 0
    with open("bad.json", "w") as fh:
        json.dump(two_state_doc(**{field: value}), fh)
    capsys.readouterr()
    commands = [["check", "bad.json"], ["solve", "bad.json"],
                ["simulate", "bad.json", "--strategies", "r.json", "--T", "5", "--N", "5"],
                ["verify", "bad.json", "--report", "r.json", "--saddle", "--T", "5", "--N", "5"]]
    if field == "theta":
        for argv in [["validate", "bad.json"]] + commands:
            assert run(argv) == 2
            assert capsys.readouterr().err == (f"error: theta must be finite and strictly "
                                               f"positive, got {value}\n")
        return
    assert run(["validate", "bad.json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [(v["kind"], v["value"], v["severity"]) for v in out["violations"]] == [
        ("nonfinite_cost", None, "error")]
    for argv in commands:
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: unsound model: c(0,0,0) = {value} is not finite\n"


def test_validate_output_is_strict_json(workdir, capsys):
    """Non-finite finding values are written as null, not NaN or Infinity."""
    doc = two_state_doc(c=float("-inf"))
    doc["transition"][1]["p"] = float("nan")
    doc["lyapunov"] = {"logW": [0.0, 1.0], "ell": [0.5, 0.5], "K": [0, 1], "C": float("inf")}
    with open("bad.json", "w") as fh:
        json.dump(doc, fh)
    assert run(["validate", "bad.json"]) == 1

    def refuse(name):
        raise AssertionError(f"validate wrote the non-JSON constant {name}")

    out = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert [(v["kind"], v["value"]) for v in out["violations"]] == [
        ("nonfinite_probability", None), ("nonfinite_cost", None),
        ("lyapunov_C_nonpositive", None)]


# ---------------------------------------------------------------------------
# malformed model documents: typed errors and documented exit codes only

JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.lists(st.integers(-1, 2), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
                 st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 5))
MUTATIONS = ["drop_key", "extra_key", "junk_top", "junk_field", "drop_field", "extra_field",
             "out_of_window", "negative_p", "bad_p", "actions_shape", "junk_record",
             "lyapunov_junk", "lyapunov_drop", "lyapunov_extra", "lyapunov_length", "i0", "states"]


@st.composite
def model_docs(draw):
    """A small valid document, then up to two mutations of it."""
    n = draw(st.integers(1, 3))
    a1 = [list(range(draw(st.integers(1, 2)))) for _ in range(n)]
    a2 = [list(range(draw(st.integers(1, 2)))) for _ in range(n)]
    transition, cost = [], []
    for i in range(n):
        for u in a1[i]:
            for v in a2[i]:
                w = [draw(st.integers(0, 3)) for _ in range(n)]
                w[0] += sum(w) == 0
                transition += [{"i": i, "u": u, "v": v, "j": j, "p": w[j] / sum(w)}
                               for j in range(n) if w[j]]
                cost.append({"i": i, "u": u, "v": v, "c": draw(st.floats(-1.0, 1.0))})
    doc = {"states": n, "actions_p1": a1, "actions_p2": a2, "transition": transition,
           "cost": cost, "theta": 1.0, "i0": 0}
    if draw(st.booleans()):
        doc["lyapunov"] = {"logW": [float(i) for i in range(n)], "K": [0], "C": 2.0, "gamma": 0.5}
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        doc = mutate(draw, copy.deepcopy(doc), n, kind)
    return doc


def mutate(draw, doc, n, kind):
    recs = doc.get(draw(st.sampled_from(["transition", "cost"])))
    recs = [r for r in recs if isinstance(r, dict) and r] if isinstance(recs, list) else []
    rec = draw(st.sampled_from(recs)) if recs else None
    if kind == "drop_key" and doc:
        doc.pop(draw(st.sampled_from(sorted(doc))))
    elif kind == "extra_key":
        doc["bogus"] = 1
    elif kind == "junk_top" and doc:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    elif kind == "junk_field" and rec:
        rec[draw(st.sampled_from(sorted(rec)))] = draw(JUNK)
    elif kind == "drop_field" and rec:
        rec.pop(draw(st.sampled_from(sorted(rec))))
    elif kind == "extra_field" and rec:
        rec["w"] = 0
    elif kind == "out_of_window" and rec and set(rec) & set("iuvj"):
        rec[draw(st.sampled_from(sorted(set(rec) & set("iuvj"))))] = draw(st.sampled_from([-1, 3, 7]))
    elif kind in ("negative_p", "bad_p") and rec:
        rec["p"] = -0.5 if kind == "negative_p" else draw(
            st.sampled_from([1.5, 1e308, "0.5", "x", "nan", "inf"]))
    elif kind == "actions_shape":
        doc[draw(st.sampled_from(["actions_p1", "actions_p2"]))] = draw(
            st.sampled_from([[[0]] * (n - 1), [[0]] * (n + 1), [[]] * n, [0] * n]))
    elif kind == "junk_record" and isinstance(doc.get("transition"), list):
        doc["transition"].append(draw(JUNK))
    elif kind.startswith("lyapunov"):
        lb = doc.setdefault("lyapunov", {"logW": [0.0] * n, "K": [0], "C": 2.0, "ell": [0.5] * n})
        keys = ["W", "logW", "gamma", "ell", "K", "C"]
        if not isinstance(lb, dict):
            pass
        elif kind == "lyapunov_junk":
            lb[draw(st.sampled_from(keys))] = draw(JUNK)
        elif kind == "lyapunov_drop" and lb:
            lb.pop(draw(st.sampled_from(sorted(lb))))
        elif kind == "lyapunov_extra":
            lb["bogus"] = 1
        elif kind == "lyapunov_length":
            lb[draw(st.sampled_from(["logW", "ell", "K"]))] = draw(
                st.lists(st.integers(-2, 4), max_size=5))
    elif kind == "i0":
        doc["i0"] = draw(st.sampled_from([-1, 5, 0.5, "0", None]))
    elif kind == "states":
        doc["states"] = draw(st.sampled_from([0, -1, 2, 4, 1.5, "2", None]))
    return doc


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=model_docs())
def test_fuzzed_documents_exit_with_documented_codes(tmp_path_factory, doc):
    path = str(tmp_path_factory.mktemp("fuzz") / "m.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    n = doc.get("states")
    ladder = str(n) if isinstance(n, int) and not isinstance(n, bool) and n > 0 else "1"
    for argv in (["validate", path], ["check", path, "--samples", "3"],
                 ["solve", path, "--ladder", ladder]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)  # an exception escaping here fails the test
        assert code in (0, 1, 2), (argv[0], code)


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "a model document is a JSON object"),
    ({"states": None, "actions_p1": [], "actions_p2": [], "transition": [], "cost": [],
      "i0": 0}, "states must be a number"),
    ({"states": 1, "actions_p1": [[0]], "actions_p2": [[0]],
      "transition": [{"i": 0, "u": 0, "v": 0, "j": 0}], "cost": [], "i0": 0},
     "transition record misses keys ['p']"),
    ({"states": 1, "actions_p1": [[0]], "actions_p2": [[0]],
      "transition": [{"i": 0, "u": 0, "v": 0, "j": 0, "p": None}], "cost": [], "i0": 0},
     "transition record needs numbers"),
    ({"states": 1, "actions_p1": [[0]], "actions_p2": [[0]], "transition": [], "cost": 5,
      "i0": 0}, "cost must be a list of records"),
    ({"states": 2, "actions_p1": [[0], [0]], "actions_p2": [[0], [0]], "transition": [],
      "cost": [], "i0": 5}, "i0=5 outside 0..1"),
    ({"states": 2, "actions_p1": [[0], []], "actions_p2": [[0], [0]], "transition": [],
      "cost": [], "i0": 0}, "state 1 needs at least one action"),
    ({"states": 2, "actions_p1": [[0], [0]], "actions_p2": [[0], [0]], "transition": [],
      "cost": [], "i0": 0, "lyapunov": {"logW": [0.0, 1.0], "K": [4], "C": 2.0, "gamma": 1.0}},
     "lyapunov K contains states outside 0..1"),
    ({"states": 2, "actions_p1": [[0], [0]], "actions_p2": [[0], [0]], "transition": [],
      "cost": [], "i0": 0, "lyapunov": {"logW": [0.0], "K": [0], "C": 2.0, "gamma": 1.0}},
     "lyapunov W and ell need one entry per state"),
    ({"states": 2, "actions_p1": [[0], [0]], "actions_p2": [[0], [0]], "transition": [],
      "cost": [], "i0": 0, "lyapunov": {"logW": [0.0, 1.0], "K": [0], "gamma": 1.0}},
     "lyapunov needs C"),
], ids=["not-object", "states", "missing-p", "p-none", "cost-not-list", "i0", "no-actions",
        "K-range", "W-length", "no-C"])
def test_malformed_documents_are_schema_errors(workdir, capsys, doc, message):
    with open("m.json", "w") as fh:
        json.dump(doc, fh)
    for command in ("validate", "check", "solve"):
        assert run([command, "m.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
