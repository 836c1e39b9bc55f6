"""The benchmark's own test: every workload at reduced size.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that each workload emits exactly the metrics BENCHMARK.json names,
with their units, that a deliberately wrong reference is counted as a
failed operation, and that the benchmark refuses to run without the
program's sources. One known-red test keeps visible the program defect
that made bd-pipeline's representation check use B=1..4.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload run.py accepts, also those BENCHMARK.json leaves out
WORKLOADS = ("bd-pipeline", "mixed-solve", "bd-wide")


def run_bench(cwd, workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "small", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = last_json(run_bench(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_perturbed_reference_counts_as_failure():
    proc = run_bench(ROOT, "bd-wide", 0, "--perturb-rho", "1e-3")
    result = last_json(proc)
    assert result["correct"] is False
    failures = [line for line in proc.stdout.splitlines() if "FAILED pass" in line]
    assert result["failed"] == len(failures) >= 1
    assert all("schedule-agreement: CheckFailed" in line for line in failures)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "bd-pipeline", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_removed_boundary_is_reported_absent():
    sys.path.insert(0, str(HERE))
    from tracing import Tracer

    mod = types.ModuleType("pkg.layer")
    mod.f = lambda x: x + 1
    tracer = Tracer(0)
    tracer.wrap([mod], mod, "f")
    tracer.wrap([mod], mod, "removed")
    assert mod.f(1) == 2
    assert tracer.absent == ["layer.removed"]
    assert [span[0] for span in tracer.spans] == ["layer.f"]


@pytest.mark.xfail(strict=True, reason=(
    "program defect: with B=0..4 almost every path from start 6 goes straight to "
    "state 0, none of the 20000 paths leaves that route on this seed, the batch "
    "spread is exactly 0 and verify reports FAIL although the estimate is within "
    "1e-4 of psi, relative"))
def test_representation_verdict_with_zero_spread_known_red(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import rsgame.cli

    def cli(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = rsgame.cli.run([str(a) for a in argv])
        return code, out.getvalue()

    model, report = tmp_path / "model.json", tmp_path / "report.json"
    assert cli("example", "birth-death", "--window", 200, "--out", model)[0] == 0
    assert cli("solve", model, "--ladder", "25,50,100,200", "--out", report)[0] == 0
    code, out = cli("verify", model, "--report", report, "--representation", "B=0..4",
                    "--starts", "5,6", "--N", 20000, "--seed", 1060888252)
    assert code == 0 and json.loads(out)["representation"]["passed"] is True
