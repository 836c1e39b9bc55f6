#!/usr/bin/env python3
"""One benchmark pass, run by perfbench/run.py in a fresh process.

The pass builds its workload's inputs from the seed, runs the program on
them through the public API and the in-process CLI (``rsgame.cli.run``)
with one thread, checks every output, and writes one JSON result file.
``--t0`` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time includes interpreter start and imports.

    python3 perfbench/bench_pass.py --workload bd-pipeline --seed 1 \
        --work .perfbench_work/x --t0 <monotonic> --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import rsgame  # noqa: E402
import rsgame.birth_death  # noqa: E402
import rsgame.cli  # noqa: E402
import rsgame.dirichlet  # noqa: E402
import rsgame.model  # noqa: E402
import rsgame.saddle  # noqa: E402
import rsgame.simulate  # noqa: E402
import rsgame.solver  # noqa: E402
from tracing import Tracer, duration, percentile, self_time  # noqa: E402

RESIDUAL_TOL = 1e-6
AGREEMENT_TOL = 1e-6

# "full" is the benchmark; "small" runs the same steps at reduced size for
# the benchmark's own test.
SIZES = {
    "full": {"bd_window": 200, "bd_ladder": "25,50,100,200",
             "saddle_T": 1000, "saddle_N": 4096, "repr_N": 3000,
             "mixed_states": 40, "mixed_actions": 3, "wide_window": 1000},
    "small": {"bd_window": 60, "bd_ladder": "10,20,40,60",
              "saddle_T": 200, "saddle_N": 512, "repr_N": 1000,
              "mixed_states": 8, "mixed_actions": 3, "wide_window": 120},
}
# The target set leaves out state 0, the state every birth-death row sends
# almost all of its mass to, so each hitting path is a genuinely random
# climb out of 0. With B=0..4 nearly every path from 5 or 6 goes straight
# to 0, the verdict's batch spread is exactly 0 on seeds where no path
# leaves that route, and the program reports FAIL (test_perfbench.py keeps
# that defect visible as a known-red test).
REPR_TARGET = "B=1..4"
REPR_STARTS = "5,6"
# one solve takes about 0.2 s: solve_s is the median of this many
BD_SOLVE_REPEATS = 5


class CheckFailed(Exception):
    pass


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pass:
    """Counts operations and failures, times stages, keeps output hashes."""

    def __init__(self, args, tracer: Tracer | None):
        self.work = Path(args.work)
        self.seed = args.seed
        self.t0 = args.t0
        self.size = SIZES[args.scale]
        self.perturb_rho = args.perturb_rho
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.stages = {"solve": 0.0, "verify": 0.0}
        self.setup_s = None
        self.check_s = 0.0
        self.hashes = {}
        self.json_bytes = 0
        self.model = None

    def op(self, name, fn, *args):
        """One operation: an exception or a failed check counts as one
        failed operation, and the pass goes on."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the pass must survive any program error
            self.failed += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    @contextlib.contextmanager
    def stage(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] += time.perf_counter() - start

    @contextlib.contextmanager
    def checking(self):
        """The benchmark's own checks: untraced, and not counted as program time."""
        start = time.perf_counter()
        paused = self.tracer.pause() if self.tracer else contextlib.nullcontext()
        try:
            with paused:
                yield
        finally:
            self.check_s += time.perf_counter() - start

    @staticmethod
    def run_cli(argv):
        """Run one CLI command in-process: (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rsgame.cli.run([str(a) for a in argv])
        return code, out.getvalue(), err.getvalue()

    def cli(self, argv) -> str:
        code, out, err = self.run_cli(argv)
        if code != 0:
            raise CheckFailed(f"exit code {code}: {err.strip()[-300:]}")
        return out

    def verify(self, key: str, argv):
        """A verify command must exit with 0 and report a PASS verdict."""
        code, out, err = self.run_cli(argv)
        with self.checking():
            self.hashes[f"verify-{key}"] = sha256(out)
            if code not in (0, 1):
                raise CheckFailed(f"exit code {code}: {err.strip()[-300:]}")
            verdict = json.loads(out)[key]
            if code != 0 or verdict["passed"] is not True:
                raise CheckFailed(f"exit code {code}, {key} verdict "
                                  f"{json.dumps(verdict, separators=(',', ':'))[:800]}")

    def ingest(self, path: Path):
        text = path.read_text()
        self.json_bytes = len(text.encode())
        self.model = rsgame.model.model_from_json(text)
        return self.model

    def end_setup(self):
        self.setup_s = time.monotonic() - self.t0

    def check_report(self, label: str, report):
        """Hash the canonical report JSON and recompute its residual.
        ``report`` is a report file written by the CLI or a SolveReport."""
        with self.checking():
            if report is None:
                raise CheckFailed("no report")
            if isinstance(report, Path):
                # json accepts the -Infinity entries that solve reports carry
                doc = json.loads(report.read_text())
            else:
                doc = report.to_dict()
            self.hashes[label] = sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")))
            res = rsgame.solver.residual(
                self.model, float(doc["rho_star"]),
                np.asarray(doc["log_psi_star"], dtype=float),
                np.asarray(doc["domain"], dtype=int))
            if not res <= RESIDUAL_TOL:
                raise CheckFailed(f"recomputed residual {res!r} > {RESIDUAL_TOL}")
            return doc


# ---------------------------------------------------------------------------
# workloads


def bd_pipeline(p: Pass):
    """The README pipeline on the birth-death example, in-process CLI."""
    size = p.size
    model_path, report_path = p.work / "model.json", p.work / "report.json"
    p.op("example", p.cli, ["example", "birth-death", "--window", size["bd_window"],
                            "--out", model_path])
    p.op("ingest", p.ingest, model_path)
    p.end_setup()
    p.op("validate", p.cli, ["validate", model_path])
    p.op("check", p.cli, ["check", model_path, "--seed", p.seed])
    solve_times = []
    for _ in range(BD_SOLVE_REPEATS):
        start = time.perf_counter()
        p.op("solve", p.cli, ["solve", model_path, "--ladder", size["bd_ladder"],
                              "--out", report_path, "--threads", 1])
        solve_times.append(time.perf_counter() - start)
    p.stages["solve"] = statistics.median(solve_times)
    report = p.op("solve-report", p.check_report, "solve", report_path)
    with p.stage("verify"):
        p.op("verify-saddle", p.verify, "saddle", [
            "verify", model_path, "--report", report_path, "--saddle",
            "--T", size["saddle_T"], "--N", size["saddle_N"], "--seed", p.seed,
            "--threads", 1])
        p.op("verify-representation", p.verify, "representation", [
            "verify", model_path, "--report", report_path,
            "--representation", REPR_TARGET, "--starts", REPR_STARTS,
            "--N", size["repr_N"], "--seed", p.seed, "--threads", 1])
    return report


def random_game_doc(rng, n: int, m: int) -> dict:
    """Dense random closed game: transitions U(0.05, 1) normalized per
    row, costs U(0, 1), m x m actions at every state."""
    transition, cost = [], []
    for _ in range(n):
        P = rng.uniform(0.05, 1.0, (m, m, n))
        P /= P.sum(axis=2, keepdims=True)
        transition.append(P)
        cost.append(rng.uniform(0.0, 1.0, (m, m)))
    actions = [list(range(m))] * n
    model = rsgame.model.make_model(n, actions, actions, transition, cost, i0=0)
    return rsgame.model.model_to_json(model)


def mixed_solve(p: Pass):
    """A seeded dense random game with mixed local saddles, CLI solve on
    its default ladder."""
    model_path, report_path = p.work / "model.json", p.work / "report.json"
    rng = np.random.default_rng(p.seed)
    doc = random_game_doc(rng, p.size["mixed_states"], p.size["mixed_actions"])
    model_path.write_text(json.dumps(doc))
    p.op("ingest", p.ingest, model_path)
    p.end_setup()
    with p.stage("solve"):
        p.op("solve", p.cli, ["solve", model_path, "--out", report_path, "--threads", 1])
    return p.op("solve-report", p.check_report, "solve", report_path)


def ladder_schedules(w: int):
    """The three schedules of scripts/ladder_study.py."""
    return [sorted(set(s)) for s in ([max(4, w // 8), max(5, w // 4), max(6, w // 2), w],
                                     [max(4, w // 4), max(6, w // 2), w],
                                     [w])]


def bd_wide(p: Pass):
    """Wide birth-death window, ingested once, solved under three schedules."""
    w = p.size["wide_window"]
    model_path = p.work / "model.json"
    p_hat = 0.09 + 0.02 * float(np.random.default_rng(p.seed).random())
    p.op("example", p.cli, ["example", "birth-death", "--window", w,
                            "--p-hat", repr(p_hat), "--out", model_path])
    model = p.op("ingest", p.ingest, model_path)
    p.end_setup()
    rhos = []
    for k, sched in enumerate(ladder_schedules(w)):
        with p.stage("solve"):
            rep = p.op(f"solve-{k}", lambda s=sched: rsgame.solver.solve_ergodic_game(
                model, ladder=s, threads=1))
        doc = p.op(f"solve-report-{k}", p.check_report, f"solve-{k}", rep)
        if doc is not None:
            rhos.append(float(doc["rho_star"]))

    def agree():
        with p.checking():
            if len(rhos) != 3:
                raise CheckFailed(f"only {len(rhos)} of 3 schedules solved")
            reference = rhos[0] + p.perturb_rho
            spread = max(abs(r - reference) for r in rhos)
            if not spread <= AGREEMENT_TOL:
                raise CheckFailed(f"schedules disagree on rho* by {spread!r}")

    p.op("schedule-agreement", agree)
    return doc


WORKLOADS = {"bd-pipeline": bd_pipeline, "mixed-solve": mixed_solve, "bd-wide": bd_wide}


# ---------------------------------------------------------------------------
# tracing


def install_tracer(tracer: Tracer):
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "rsgame" or name.startswith("rsgame.")]
    r = rsgame

    def pure_and_order_gap(args, kwargs, s):
        return (bool(s.mu.max() >= 1.0 and s.nu.max() >= 1.0), float(s.order_gap))

    def path_steps(args, kwargs, _):
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
        return cfg.T * cfg.N

    def hitting_paths(args, kwargs, _):
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
        starts = cfg.start if isinstance(cfg.start, (list, tuple)) else [cfg.start]
        return cfg.N * len(starts)

    def subcommand(args, kwargs, _):
        argv = list(args[0])
        if argv[0] == "verify":
            return "verify-saddle" if "--saddle" in argv else "verify-representation"
        return argv[0]

    for module, name, observe in [
        (r.model, "model_from_json", None),
        (r.model, "validate_model", None),
        (r.model, "check_lyapunov", None),
        (r.model, "check_irreducibility", None),
        (r.model, "check_reference_state", None),
        (r.birth_death, "build_birth_death", None),
        (r.saddle, "solve_saddle_core", pure_and_order_gap),
        (r.dirichlet, "apply_operator", None),
        (r.dirichlet, "dirichlet_eigenpair", None),
        (r.solver, "solve_ergodic_game", None),
        (r.solver, "residual", None),
        (r.solver, "extract_selectors", None),
        (r.simulate, "estimate_ergodic_cost", path_steps),
        (r.simulate, "verify_saddle", None),
        (r.simulate, "verify_stochastic_representation", hitting_paths),
        (r.cli, "run", subcommand),
    ]:
        tracer.wrap(modules, module, name, observe)


def table_probe_s(p: Pass, report) -> float:
    """Per-call table set-up: the estimator on the same model and
    selectors with T = 1 and N = 1 (median of three calls)."""
    sim = rsgame.simulate
    pi1 = rsgame.model.StationaryStrategy(report["selectors"]["p1"])
    pi2 = rsgame.model.StationaryStrategy(report["selectors"]["p2"])
    times = []
    with p.checking():
        for _ in range(3):
            start = time.perf_counter()
            sim.estimate_ergodic_cost(p.model, pi1, pi2, sim.SimConfig(T=1, N=1, seed=p.seed),
                                      threads=1)
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(t: Tracer, p: Pass, report) -> dict:
    spans = t.named

    def total(label, measure=duration):
        return sum(measure(s) for s in spans(label))

    m = {}
    m["model.from_json_s"] = percentile([duration(s) for s in spans("model.model_from_json")], 50)
    m["model.json_bytes"] = p.json_bytes
    try:
        m["model.dense_mb"] = (sum(P.nbytes for P in p.model.transition)
                               + sum(p.model.log_transition(i).nbytes
                                     for i in range(p.model.n_states))) / 2**20
    except AttributeError:
        t.absent.append("model.GameModel.transition/log_transition")
        m["model.dense_mb"] = 0.0
    m["model.validate_s"] = total("model.validate_model")
    m["model.check_s"] = sum(total(f"model.{f}") for f in (
        "check_lyapunov", "check_irreducibility", "check_reference_state"))
    m["birth_death.build_s"] = total("birth_death.build_birth_death")

    saddles = spans("saddle.solve_saddle_core")
    calls_us = [duration(s) * 1e6 for s in saddles]
    m["saddle.calls"] = len(saddles)
    m["saddle.self_s"] = sum(self_time(s) for s in saddles)
    m["saddle.call_us.p50"] = percentile(calls_us, 50)
    m["saddle.call_us.p99"] = percentile(calls_us, 99)
    observed = [s[5] for s in saddles if s[5] is not None]
    m["saddle.pure_share"] = sum(pure for pure, _ in observed) / len(observed) if observed else 0.0
    m["saddle.max_order_gap"] = max((gap for _, gap in observed), default=0.0)

    sweeps = [s for s in spans("dirichlet.apply_operator")
              if t.parent_name(s) == "dirichlet.dirichlet_eigenpair"]
    m["dirichlet.sweeps"] = len(sweeps)
    m["dirichlet.sweep_ms.p50"] = percentile([duration(s) * 1e3 for s in sweeps], 50)
    m["dirichlet.inner_sum_s"] = total("dirichlet.apply_operator", self_time)

    m["solver.rungs"] = len(spans("dirichlet.dirichlet_eigenpair"))
    m["solver.ladder_s"] = total("dirichlet.dirichlet_eigenpair")
    m["solver.residual_s"] = total("solver.residual")
    m["solver.selectors_s"] = total("solver.extract_selectors")

    estimates = spans("simulate.estimate_ergodic_cost")
    m["simulate.estimates"] = len(estimates)
    m["simulate.path_steps"] = sum(s[5] or 0 for s in estimates)
    m["simulate.estimate_s.p50"] = percentile([duration(s) for s in estimates], 50)
    m["simulate.table_s"] = 0.0
    m["simulate.ns_per_path_step"] = 0.0
    if m["simulate.path_steps"] and report is not None:
        m["simulate.table_s"] = table_probe_s(p, report)
        steps_per_call = m["simulate.path_steps"] / len(estimates)
        m["simulate.ns_per_path_step"] = (
            (m["simulate.estimate_s.p50"] - m["simulate.table_s"]) / steps_per_call * 1e9)
    reps = spans("simulate.verify_stochastic_representation")
    m["simulate.repr_s"] = sum(duration(s) for s in reps)
    hitting_paths = sum(s[5] or 0 for s in reps)
    m["simulate.hitting_us_per_path"] = (m["simulate.repr_s"] / hitting_paths * 1e6
                                         if hitting_paths else 0.0)

    runs = spans("cli.run")
    m["cli.solve_s"] = percentile([duration(s) for s in runs if s[5] == "solve"], 50)
    m["cli.verify_saddle_s"] = sum(duration(s) for s in runs if s[5] == "verify-saddle")
    m["cli.verify_repr_s"] = sum(duration(s) for s in runs if s[5] == "verify-representation")
    m["cli.overhead_s"] = sum(self_time(s) for s in runs)
    return {k: float(v) for k, v in m.items()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass-id", type=int, default=0)
    ap.add_argument("--scale", choices=sorted(SIZES), default="full")
    ap.add_argument("--perturb-rho", type=float, default=0.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(rsgame.__file__).resolve().parents:
        print(f"rsgame was imported from {rsgame.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = Tracer(args.pass_id)
        install_tracer(tracer)
    p = Pass(args, tracer)
    report = WORKLOADS[args.workload](p)
    wall_s = time.monotonic() - args.t0 - p.check_s
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "attempted": p.attempted,
        "failed": p.failed,
        "failures": p.failures,
        "hashes": p.hashes,
        "metrics": {
            "setup_s": p.setup_s,
            "solve_s": p.stages["solve"],
            "verify_s": p.stages["verify"],
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb(),
        },
        "check_s": p.check_s,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, p, report)
        result["absent"] = tracer.absent
        tracer.write(work / f"spans-{args.pass_id}.json")
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
