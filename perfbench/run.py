#!/usr/bin/env python3
"""rsgame benchmark: seeded workloads, end-to-end metrics, a traced pass.

    python3 perfbench/run.py --workload bd-pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Every pass runs in a fresh process (perfbench/bench_pass.py)
with one thread, one pass at a time, until ``--seconds`` is spent.

Workloads (why each is here: see BENCHMARK.json):

* ``bd-pipeline``: example -> validate -> check -> solve -> verify on the
  birth-death window 200, through ``rsgame.cli.run``.
* ``bd-wide``: birth-death window 1000, ingested once, solved under the
  three schedules of scripts/ladder_study.py.
* ``mixed-solve``: a seeded dense random 40-state game with 3x3 actions,
  ``rsgame solve`` on its default ladder. It is the only workload whose
  local saddles are mixed (linprog, SLSQP), and it runs the same way, but
  BENCHMARK.json leaves it out: on a shared 2-core host its run-to-run
  spread was the widest of the three, and fewer workloads allow longer runs.

With ``--trace 0`` the passes are untraced and the result carries the
end-to-end metrics (medians over passes). With ``--trace 1`` untraced and
traced passes alternate; the result carries the per-layer metrics
(medians over traced passes) and ``trace.overhead_frac``. The last line
of standard output is the JSON result; the lines before it are for
people: environment, one line per pass, every metric with its unit, the
error rate and the sha256 of every output. Metric names and units come
from BENCHMARK.json. Scratch files go to ``.perfbench_work/<workload>/``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASS_SCRIPT = Path(__file__).resolve().parent / "bench_pass.py"
WORKLOADS = ("bd-pipeline", "mixed-solve", "bd-wide")
SPEC = ROOT / "BENCHMARK.json"
# a pass is single-threaded, BLAS included
PASS_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
PASS_TIMEOUT_S = 120.0
RUN_CAP_S = 150.0


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), None)
    except OSError:
        env["cpu"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    env["cache"] = caches
    return env


def run_pass(args, work: Path, pass_id: int, traced: bool) -> dict:
    out = work / f"pass-{pass_id}.json"
    load_before = os.getloadavg()[0]
    t0 = time.monotonic()
    cmd = [sys.executable, str(PASS_SCRIPT), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--t0", repr(t0),
           "--trace", str(int(traced)), "--pass-id", str(pass_id),
           "--scale", args.scale, "--perturb-rho", repr(args.perturb_rho),
           "--out", str(out)]
    with open(work / f"pass-{pass_id}.log", "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=PASS_ENV, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=PASS_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    elapsed = time.monotonic() - t0
    result = {"pass": pass_id, "traced": traced, "process_s": elapsed,
              "load1": [load_before, os.getloadavg()[0]]}
    if code == 0 and out.exists():
        result.update(json.loads(out.read_text()))
    else:
        result.update({"crashed": code, "attempted": 1, "failed": 1,
                       "failures": [f"pass process ended with {code}; see {work}/pass-{pass_id}.log"]})
    return result


def pass_line(r: dict) -> str:
    kind = "traced" if r["traced"] else "plain"
    if "crashed" in r:
        return f"  pass {r['pass']} {kind}: CRASHED ({r['crashed']})"
    m = r["metrics"]
    return (f"  pass {r['pass']} {kind}: setup {m['setup_s']:.3f} s, solve {m['solve_s']:.3f} s, "
            f"verify {m['verify_s']:.3f} s, wall {m['wall_s']:.3f} s, "
            f"rss {m['peak_rss_mb']:.1f} MB, load1 {r['load1'][0]:.2f}->{r['load1'][1]:.2f}, "
            f"failed {r['failed']}/{r['attempted']}")


def medians(dicts) -> dict:
    return {name: statistics.median(d[name] for d in dicts) for name in dicts[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rsgame benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="small: reduced sizes, for the benchmark's own test")
    ap.add_argument("--perturb-rho", type=float, default=0.0,
                    help="offset added to the reference rho* of the bd-wide agreement "
                         "check; nonzero only to test that the check fails")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rsgame" / "__init__.py").is_file():
        print(f"error: no rsgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = environment()
    print(f"environment: {json.dumps(env)}")
    start = time.monotonic()
    # compile the sources and warm the file cache before anything is timed
    warm = subprocess.run([sys.executable, "-c", "import rsgame.cli"], cwd=ROOT,
                          env={**PASS_ENV, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"error: cannot import rsgame:\n{warm.stderr}", file=sys.stderr)
        return 2

    passes = []
    min_passes = 2  # a median of at least two; with --trace 1, one of each kind
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        r = run_pass(args, work, len(passes), traced)
        passes.append(r)
        print(pass_line(r), flush=True)
        if "crashed" in r and not any("crashed" not in q for q in passes[:-1]):
            print(f"error: the first pass failed to run; see {work}", file=sys.stderr)
            return 1
        # stop before a pass that would overrun the budget; the cap holds
        # even when fewer than min_passes have run
        finish = time.monotonic() + statistics.median(q["process_s"] for q in passes)
        if finish > start + RUN_CAP_S or (len(passes) >= min_passes
                                          and finish > start + args.seconds):
            break

    good = [r for r in passes if "crashed" not in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no complete pass of each kind", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    e2e = medians([r["metrics"] for r in plain])
    if args.trace:
        values = medians([r["layers"] for r in traced])
        values["trace.overhead_frac"] = (
            statistics.median(r["metrics"]["wall_s"] for r in traced) / e2e["wall_s"] - 1.0)
        absent = sorted({a for r in traced for a in r["absent"]})
        if absent:
            print(f"absent boundaries: {', '.join(absent)}")
    else:
        values = e2e
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} plain and "
          f"{len(traced)} traced passes in {time.monotonic() - start:.1f} s")
    for stage in ("solve_s", "verify_s"):
        print(f"  {stage:28s} {e2e[stage]:.6g} s (median, plain passes)")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':28s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for r in passes:
        for failure in r["failures"]:
            print(f"  FAILED pass {r['pass']}: {failure}")
    hashes = [r["hashes"] for r in good]
    identical = all(h == hashes[0] for h in hashes)
    print(f"outputs bit-identical across passes: {identical}")
    for label, digest in sorted(hashes[0].items()):
        print(f"  sha256 {label}: {digest}")

    (work / "run.json").write_text(json.dumps(
        {"environment": env, "args": vars(args), "passes": passes, "metrics": metrics,
         "outputs_identical": identical}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
