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
    entries = simulate._entries

    def counted(model, log_psi=None):
        builds.append(log_psi)
        return entries(model, log_psi)

    monkeypatch.setattr(simulate, "_entries", counted)
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


def test_scipy_is_imported_only_where_used():
    """The CLI imports no scipy; a pure-saddle solve needs no scipy.optimize."""
    out = run_python(
        "import contextlib, io, os, sys, tempfile\n"
        "from rsgame.cli import run\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "path = os.path.join(tempfile.mkdtemp(), 'm.json')\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert run(['example', 'birth-death', '--window', '30', '--out', path]) == 0\n"
        "    assert run(['solve', path, '--ladder', '15,30']) == 0\n"
        "print('scipy.optimize' in sys.modules)\n")
    assert out.split("\n")[:2] == ["[]", "False"]


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
            (two_state_nan, "P(1|0,0,0) = nan is negative or not finite",
             "nonfinite_probability")]:
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
            assert err.startswith("error: unsound kernel: ") and message in err


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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
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
