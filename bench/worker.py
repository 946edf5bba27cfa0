"""One workload in one process: set-up, warm-up, then timed cycles.

Started by bench/run.py with BLAS/OpenMP pinned to one thread and ``src`` on
PYTHONPATH.  Prints one JSON line on stdout.  ``--mode setup`` stops after
set-up; ``--mode measure`` runs whole cycles while the next one is expected
to end within ``--seconds`` (always at least one); ``--mode trace`` runs one
traced cycle and reports per-layer metrics, the traced cycle's wall time and
the estimated tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def timed_cycle(workload, cycle):
    start = time.perf_counter()
    workload.cycle(cycle)
    return time.perf_counter() - start, cycle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work", required=True, help="input/output directory")
    parser.add_argument("--spans", help="where trace mode writes the spans")
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import inflatekit

    expected = ROOT / "src" / "inflatekit"
    if Path(inflatekit.__file__).resolve().parent != expected:
        print(f"error: inflatekit imported from {inflatekit.__file__}, not {expected}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Cycle

    workload = WORKLOADS[args.workload](args.seed, Path(args.work), args.smoke)
    workload.generate()
    workload.warm_up()
    result = {"setup_s": time.monotonic() - args.spawned}
    if args.mode == "measure":
        walls, cycles = [], []
        start = time.perf_counter()
        while True:
            wall, cycle = timed_cycle(workload, Cycle())
            walls.append(wall)
            cycles.append(cycle)
            elapsed = time.perf_counter() - start
            if args.smoke or elapsed + wall > args.seconds:
                break
    if args.mode == "trace":
        from tracer import Tracer, span_cost

        tracer = Tracer()
        tracer.install()
        try:
            wall, traced = timed_cycle(workload, Cycle(tracer))
        finally:
            tracer.uninstall()
        walls, cycles = [wall], [traced]
        layers = tracer.metrics()
        for key in ("estimator.pg_rel_err", "shell.onset_err"):
            layers[key] = traced.diagnostics.get(key, 0.0)
        layers["trace.wall_s"] = wall
        layers["trace.overhead_s"] = layers["trace.spans"] * span_cost()
        result["layers"] = layers
        tracer.dump(args.spans)
    if args.mode != "setup":
        items = [dict(item, cycle=i) for i, cycle in enumerate(cycles) for item in cycle.items]
        result.update(walls=walls, items=items,
                      report={k: list(v) for k, v in workload.report(items).items()})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
