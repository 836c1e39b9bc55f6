#!/usr/bin/env python3
"""End-to-end experiment on the controlled birth-death model.

Builds the default instance, runs every assumption checker, solves the
ergodic game over a doubling ladder, and verifies the result by
simulation. Prints a compact trace of each stage.

Usage: python scripts/run_birth_death.py [--window 60] [--p-hat 0.1]
"""

import argparse
import time

import numpy as np

from rsgame.birth_death import BirthDeathParams, build_birth_death, verify_stability_estimates
from rsgame.model import (check_irreducibility, check_lyapunov,
                          check_reference_state, validate_model)
from rsgame.simulate import SimConfig, estimate_ergodic_cost, verify_saddle
from rsgame.solver import solve_ergodic_game


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--window", type=int, default=60)
    ap.add_argument("--p-hat", type=float, default=0.1)
    ap.add_argument("--T", type=int, default=2000)
    ap.add_argument("--N", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = BirthDeathParams(window=args.window, p_hat=args.p_hat)
    model = build_birth_death(params)
    print(f"model: {model.n_states} states, "
          f"{model.shapes[0, 0]}x{model.shapes[0, 1]} actions per state")

    val = validate_model(model)
    print(f"validate: ok={val.ok} structurally_sound={val.structurally_sound} "
          f"({len(val.violations)} findings)")
    ly = check_lyapunov(model)
    print(f"drift check: passed={ly.passed} worst slack={ly.slack.min():.3f} "
          f"at state {ly.worst_state}")
    irr = check_irreducibility(model, "sufficient")
    print(f"irreducibility (sufficient): {irr.passed}")
    print(f"reference state positivity: {check_reference_state(model)}")
    stab = verify_stability_estimates(params, i_max=min(200, args.window - 2))
    print(f"stability suite: passed={stab.passed} "
          f"(drift={stab.drift_passed}, norm-like={stab.norm_like['passed']})")

    t0 = time.time()
    report = solve_ergodic_game(model)
    print(f"\nsolve ({time.time() - t0:.1f}s): rho*={report.rho_star!r} "
          f"residual={report.residual:.2e} certified={report.certified}")
    for rung in report.ladder:
        print(f"  rung {rung.index}: |D|={rung.domain_size:4d} "
              f"rho_n={rung.rho:.9f} bracket={rung.bracket_width:.2e} "
              f"sweeps={rung.iterations}")
    if report.bounds:
        print(f"  eigenvalue bound: rho* <= k1+k2 = {report.bounds['upper']:.3f}")
    psi = np.exp(report.log_psi_star[:8])
    print(f"  psi* head: {np.array2string(psi, precision=5)}")

    pi1, pi2 = report.selectors
    t0 = time.time()
    est = estimate_ergodic_cost(model, pi1, pi2,
                                SimConfig(T=args.T, N=args.N, seed=args.seed))
    print(f"\nsimulate ({time.time() - t0:.1f}s): J(selectors) = {est.estimate:.6f} "
          f"+- {est.spread:.2e} vs rho* = {report.rho_star:.6f}")
    t0 = time.time()
    verdict = verify_saddle(model, report,
                            SimConfig(T=args.T, N=args.N, seed=args.seed),
                            deviations=2)
    print(f"saddle verification ({time.time() - t0:.1f}s): "
          f"passed={verdict.passed} equality={verdict.equality_ok}")
    for d in verdict.deviations:
        print(f"  player {d['player']} deviation: J={d['estimate']:.6f} "
              f"(spread {d['spread']:.2e}) ok={d['ok']}")


if __name__ == "__main__":
    main()
