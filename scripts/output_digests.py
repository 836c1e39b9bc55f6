#!/usr/bin/env python3
"""sha256 of the solver's and verifiers' outputs on fixed inputs.

Prints one `name sha256` line for each of 14 outputs: the solve reports
of the birth-death windows 60 and 200, of window 1000 under the three
ladder schedules of scripts/ladder_study.py, of the seeded random
40-state 3x3 game on seeds 1 and 2 and of the pennies model; the
check_lyapunov and verify_stability_estimates documents; the model text
that `rsgame example birth-death` writes for window 200 and for window
1000 with --p-hat 0.1; and `rsgame verify --saddle` and
`rsgame verify --representation` on window 200. Run it against two
source trees and diff the outputs to check that a change keeps them bit
for bit:

    PYTHONPATH=../before/src python scripts/output_digests.py > before.txt
    PYTHONPATH=src python scripts/output_digests.py > after.txt
    diff before.txt after.txt
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from rsgame.birth_death import BirthDeathParams, build_birth_death, verify_stability_estimates
from rsgame.cli import run
from rsgame.model import check_lyapunov, make_model
from rsgame.solver import solve_ergodic_game


def show(name: str, doc) -> None:
    """Print the sha256 of `doc`: a text as it is, anything else as sorted JSON."""
    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True)
    print(name, hashlib.sha256(text.encode()).hexdigest(), flush=True)


def cli(*argv) -> str:
    """stdout of `rsgame argv`, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([str(a) for a in argv])
    if code != 0:
        sys.exit(f"rsgame {' '.join(map(str, argv))} exited {code}")
    return out.getvalue()


def random_game(seed: int, n: int = 40, m: int = 3):
    """Dense random closed game: transitions U(0.05, 1) normalized per row,
    costs U(0, 1), m x m actions at every state (the perfbench recipe)."""
    rng = np.random.default_rng(seed)
    transition, cost = [], []
    for _ in range(n):
        P = rng.uniform(0.05, 1.0, (m, m, n))
        P /= P.sum(axis=2, keepdims=True)
        transition.append(P)
        cost.append(rng.uniform(0.0, 1.0, (m, m)))
    actions = [list(range(m))] * n
    return make_model(n, actions, actions, transition, cost, i0=0)


def pennies():
    """A matching-pennies cost layer at state 0 on an action-blind uniform
    kernel; state 1 is uncontrolled with zero cost."""
    P0 = np.full((2, 2, 2), 0.5)
    P1 = np.full((1, 1, 2), 0.5)
    return make_model(2, [[0, 1], [0]], [[0, 1], [0]], [P0, P1],
                      [np.eye(2), np.zeros((1, 1))], i0=0)


def schedules(w: int) -> list:
    return [sorted(set(s)) for s in ([max(4, w // 8), max(5, w // 4), max(6, w // 2), w],
                                     [max(4, w // 4), max(6, w // 2), w],
                                     [w])]


def main():
    for w, ladder in ((60, [10, 20, 40, 60]), (200, [25, 50, 100, 200])):
        show(f"solve-bd{w}", solve_ergodic_game(build_birth_death(BirthDeathParams(window=w)),
                                                ladder=ladder).to_dict())
    wide = build_birth_death(BirthDeathParams(window=1000))
    for k, ladder in enumerate(schedules(1000)):
        show(f"solve-bd1000-{k}", solve_ergodic_game(wide, ladder=ladder).to_dict())
    for seed in (1, 2):
        show(f"solve-random-seed{seed}", solve_ergodic_game(random_game(seed)).to_dict())
    show("solve-pennies", solve_ergodic_game(pennies()).to_dict())
    show("check-lyapunov-bd200",
         check_lyapunov(build_birth_death(BirthDeathParams(window=200))).to_dict())
    show("stability-estimates", verify_stability_estimates(BirthDeathParams()).to_dict())

    with tempfile.TemporaryDirectory() as tmp:
        model, report = Path(tmp) / "model.json", Path(tmp) / "report.json"
        cli("example", "birth-death", "--window", 200, "--out", model)
        show("example-bd200", model.read_text())
        cli("solve", model, "--ladder", "25,50,100,200", "--out", report)
        show("verify-saddle-bd200", cli(
            "verify", model, "--report", report, "--saddle", "--T", 1000, "--N", 4096,
            "--seed", 1))
        show("verify-representation-bd200", cli(
            "verify", model, "--report", report, "--representation", "B=1..4",
            "--starts", "5,6", "--N", 3000, "--seed", 1))
        cli("example", "birth-death", "--window", 1000, "--p-hat", 0.1, "--out", model)
        show("example-bd1000", model.read_text())


if __name__ == "__main__":
    main()
