"""Command-line entry point: ingest, validate, check, solve, simulate, verify.

All structured output is JSON with full-precision floats (repr round-trips
exactly, so reports are diff-stable); ladder traces and path batches go to
CSV. Exit codes: 0 success or PASS, 1 FAIL verdicts or solver failure
(collapse or no convergence), 2 usage and ingestion errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import birth_death as bd
from . import dirichlet, saddle
from .model import (GameModel, SchemaError, StationaryStrategy, check_irreducibility,
                    check_lyapunov, check_reference_state, model_from_json,
                    model_to_json_text, validate_model)
from .simulate import (OpenModel, SimConfig, estimate_ergodic_cost,
                       estimate_with_deviations, simulate_paths, verify_saddle,
                       verify_stochastic_representation)
from .solver import SolveReport, solve_ergodic_game

USAGE_ERROR = 2
FAIL = 1
OK = 0


def _json_default(o):
    if isinstance(o, (np.floating, np.integer, np.bool_)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _emit(doc, path=None):
    _write(json.dumps(doc, indent=2, default=_json_default), path)


def _write(text: str, path=None):
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_model(path: str) -> GameModel:
    with open(path) as fh:
        return model_from_json(fh.read())


def _load_report(path: str, model: GameModel) -> SolveReport:
    with open(path) as fh:
        doc = json.load(fh)
    pi1 = StationaryStrategy([np.asarray(w, dtype=float) for w in doc["selectors"]["p1"]])
    pi2 = StationaryStrategy([np.asarray(w, dtype=float) for w in doc["selectors"]["p2"]])
    return SolveReport(
        ladder=[],
        rho_star=float(doc["rho_star"]),
        log_psi_star=np.asarray(doc["log_psi_star"], dtype=float),
        domain=np.asarray(doc["domain"], dtype=int),
        selectors=(pi1, pi2),
        residual=float(doc["residual"]),
        bounds=doc.get("bounds"),
        certified=bool(doc.get("certified", False)),
        diagnostics=doc.get("diagnostics", {}),
        warnings=doc.get("warnings", []),
    )


def _parse_ladder(text):
    try:
        sizes = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise SchemaError(f"bad ladder spec {text!r}; expected comma-separated integers")
    if not sizes:
        raise SchemaError("empty ladder spec")
    return sizes


def _parse_target_set(text):
    """`B=0..4` or `B=0,1,2` forms."""
    if "=" in text:
        text = text.split("=", 1)[1]
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rsgame")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="report every violated model invariant")
    v.add_argument("model")

    c = sub.add_parser("check", help="stability, irreducibility, reference-state checks")
    c.add_argument("model")
    c.add_argument("--samples", type=int, default=50)
    c.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("solve", help="ladder solve of the ergodic game")
    s.add_argument("model")
    s.add_argument("--ladder", type=str, default=None, help="comma-separated domain sizes")
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--tol-outer", type=float, default=1e-6)
    s.add_argument("--out", type=str, default=None)
    s.add_argument("--trace", type=str, default=None)
    s.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect (the local solves "
                        "run in one thread)")

    m = sub.add_parser("simulate", help="estimate the ergodic cost under stored strategies")
    m.add_argument("model")
    m.add_argument("--strategies", required=True, help="solve report JSON")
    m.add_argument("--T", type=int, default=1000)
    m.add_argument("--N", type=int, default=1000)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--start", type=int, default=0)
    m.add_argument("--deviate", type=str, default=None, help="player:count")
    m.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    m.add_argument("--paths-csv", type=str, default=None,
                   help="also write full trajectories (memory scales with T*N)")

    w = sub.add_parser("verify", help="statistical verification of a solve report")
    w.add_argument("model")
    w.add_argument("--report", required=True)
    w.add_argument("--saddle", action="store_true")
    w.add_argument("--representation", type=str, default=None, help="target set, e.g. B=0..4")
    w.add_argument("--starts", type=str, default=None, help="comma-separated start states")
    w.add_argument("--T", type=int, default=5000)
    w.add_argument("--N", type=int, default=50000)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--deviations", type=int, default=2)
    w.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")

    e = sub.add_parser("example", help="emit a bundled example model")
    e.add_argument("family", choices=["birth-death"])
    e.add_argument("--p-hat", type=float, default=0.1)
    e.add_argument("--delta", type=float, default=0.1)
    e.add_argument("--L1", type=float, default=1.0)
    e.add_argument("--L2", type=float, default=1.0)
    e.add_argument("--grid", type=int, default=5)
    e.add_argument("--window", type=int, default=60)
    e.add_argument("--out", type=str, default=None)
    e.add_argument("--stability-out", type=str, default=None,
                   help="also write the stability-estimate report JSON")
    e.add_argument("--i-max", type=int, default=200,
                   help="largest state covered by the stability report")
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR

    try:
        if args.command == "validate":
            model = _load_model(args.model)
            report = validate_model(model)
            _emit(report.to_dict())
            return OK if report.structurally_sound else FAIL

        if args.command == "check":
            model = _load_model(args.model)
            model.csr  # refuses an unsound kernel (ModelError, exit 2)
            doc = {}
            ok = True
            if model.lyapunov is not None:
                ly = check_lyapunov(model)
                doc["lyapunov"] = ly.to_dict()
                ok = ok and ly.passed
            else:
                doc["lyapunov"] = None
            suff = check_irreducibility(model, "sufficient")
            samp = check_irreducibility(model, "sampled", samples=args.samples, seed=args.seed)
            doc["irreducibility"] = {"sufficient": suff.to_dict(), "sampled": samp.to_dict()}
            ok = ok and (suff.passed or samp.passed)
            ref = check_reference_state(model)
            doc["reference_state"] = {
                "passed": bool(ref),
                "note": ("informational: one-step mass smaller than the floating-point "
                         "floor counts as zero on large windows"),
            }
            _emit(doc)
            return OK if ok else FAIL

        if args.command == "solve":
            model = _load_model(args.model)
            ladder = _parse_ladder(args.ladder) if args.ladder else None
            try:
                report = solve_ergodic_game(
                    model, ladder=ladder, tol_eig=args.tol, tol_local=args.tol,
                    tol_outer=args.tol_outer)
            except (dirichlet.CollapseToZero, dirichlet.NoConvergence,
                    saddle.NoConvergence) as exc:
                print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
                return FAIL
            _emit(report.to_dict(), args.out)
            if args.trace:
                with open(args.trace, "w") as fh:
                    fh.write(report.trace_csv())
            return OK

        if args.command == "simulate":
            model = _load_model(args.model)
            report = _load_report(args.strategies, model)
            pi1, pi2 = report.selectors
            cfg = SimConfig(T=args.T, N=args.N, seed=args.seed, start=args.start)
            if args.deviate:
                player_s, count_s = args.deviate.split(":", 1)
                player, count = int(player_s), int(count_s)
                base, rows = estimate_with_deviations(model, pi1, pi2, cfg, player, count)
                out = {"base": base.to_dict(),
                       "deviations": {"player": player,
                                      "estimates": [r.to_dict() for r in rows]}}
            else:
                out = {"base": estimate_ergodic_cost(model, pi1, pi2, cfg).to_dict()}
            if args.paths_csv:
                batch = simulate_paths(model, pi1, pi2, cfg)
                with open(args.paths_csv, "w") as fh:
                    fh.write(batch.to_csv())
            _emit(out)
            return OK

        if args.command == "verify":
            model = _load_model(args.model)
            report = _load_report(args.report, model)
            doc = {}
            ok = True
            cfg = SimConfig(T=args.T, N=args.N, seed=args.seed)
            if args.saddle:
                verdict = verify_saddle(model, report, cfg, deviations=args.deviations)
                doc["saddle"] = verdict.to_dict()
                ok = ok and verdict.passed
            if args.representation:
                target = _parse_target_set(args.representation)
                if args.starts:
                    starts = [int(x) for x in args.starts.split(",")]
                else:
                    starts = [min(i for i in range(model.n_states) if i not in set(target))]
                rcfg = SimConfig(T=1, N=args.N, seed=args.seed, start=starts)
                verdict = verify_stochastic_representation(model, report, target, rcfg)
                doc["representation"] = verdict.to_dict()
                ok = ok and verdict.passed
            if not doc:
                raise SchemaError("verify needs --saddle and/or --representation")
            _emit(doc)
            return OK if ok else FAIL

        if args.command == "example":
            params = bd.BirthDeathParams(
                p_hat=args.p_hat, delta=args.delta, L1=args.L1, L2=args.L2,
                grid_u=args.grid, grid_v=args.grid, window=args.window)
            model = bd.build_birth_death(params)
            _write(model_to_json_text(model), args.out)
            info = bd.build_info(params)
            if info.negative_cost_entries:
                print(f"warning: {info.negative_cost_entries} cost entries are negative "
                      f"(min {info.min_cost!r}); the running-cost term dominates only for "
                      "larger populations", file=sys.stderr)
            if args.stability_out:
                stab = bd.verify_stability_estimates(params, i_max=args.i_max)
                _emit(stab.to_dict(), args.stability_out)
                if not stab.passed:
                    return FAIL
            return OK
    except (OSError, json.JSONDecodeError, SchemaError, bd.ParamError,
            bd.WindowTooSmall, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OpenModel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
