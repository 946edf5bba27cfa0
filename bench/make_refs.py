"""Recompute bench/refs.json, the reference values the benchmark checks against.

Run from the repository root (takes about a minute):

    PYTHONPATH=src python3 bench/make_refs.py

- onset_W0: the universal membrane-limit onset depth -2.52 and the +/- 0.08
  band of tests/test_acceptance.test_wrinkling_onset_depth_is_universal.
- membrane_force_W0_-4: dimensionless force 2*pi*c at W0 = -4 from the
  independent shooting oracle tests/shooting_oracle.py, with the 3%
  tolerance tests/test_shell.py applies to the same comparison.
- full_force_W0_-3: full-system (bending) dimensionless force at W0 = -3
  from inflatekit's own solver for the exercise ball (R=0.13 m, h=0.86 mm,
  E=2.3 MPa, nu=0.4) with Pg rescaled to each tau, as computed at the
  commit recorded in the file.  A later solver change must stay within 3%.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from shooting_oracle import solve_membrane_shooting  # noqa: E402

from inflatekit.shell import ShellParams, SolverOptions, solve_indentation  # noqa: E402

BALL = ShellParams(R=0.13, h=8.6e-4, E=2.3e6, nu=0.4, Pg=1300.0)
TAUS = (40.0, 100.0)


def main():
    c, _ivp = solve_membrane_shooting(-4.0)
    full = {}
    for tau in TAUS:
        params = ShellParams(R=BALL.R, h=BALL.h, E=BALL.E, nu=BALL.nu, Pg=BALL.Pg * tau / BALL.tau)
        full[f"{tau:g}"] = solve_indentation(params, -3.0, SolverOptions(membrane_limit=False)).force
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    refs = {
        "onset_W0": {"value": -2.52, "abs_tol": 0.08,
                     "derivation": "membrane-limit onset depth, tests/test_acceptance.py"},
        "membrane_force_W0_-4": {
            "value": 2.0 * math.pi * c, "rel_tol": 0.03,
            "derivation": "2*pi*c from tests/shooting_oracle.solve_membrane_shooting(-4.0)",
        },
        "full_force_W0_-3": {
            "values": full, "rel_tol": 0.03,
            "derivation": "solve_indentation(ball rescaled to tau, -3.0, full system) "
                          f"at commit {commit}",
        },
    }
    out = Path(__file__).with_name("refs.json")
    out.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(refs, indent=2))


if __name__ == "__main__":
    main()
