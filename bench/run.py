"""Benchmark of inflatekit: two seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload shell_sweep --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload pipeline --seed 0 --trace 1
    python3 bench/run.py --smoke

Workloads: shell_sweep and pipeline, which runs the virtual_bench,
drop_bounce and field_estimate parts in turn (see bench/DESIGN.md).  Each
run starts the workload in its own single-threaded worker process (BLAS and
OpenMP pinned to one thread), SETUP_RUNS times in all: the first ones only
set up, the last one also measures.  A traced run sets up once.  The package is
imported from ``src`` of this checkout; nothing needs installing.

Output: a report giving every metric by name, unit and sample count, each
failed item with its error type, and the machine, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones from a
traced cycle, plus the tracing overhead.  ``correct`` is false when an item
fails for any reason other than a known program defect named in
bench/DESIGN.md; known-defect failures still count in ``failed``.
``--smoke`` runs every workload once at minimal size with all checks on and
exits 1 unless every workload is correct.

Result files (and the spans of traced runs) go to ``.bench_out/``; inputs
are generated under ``.bench_work/`` and removed after the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("shell_sweep", "pipeline")
SETUP_RUNS = 3
RUN_LIMIT_S = 170.0


class WorkerFailed(Exception):
    """A worker process exited nonzero, timed out or printed no result."""


def machine_info() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu}


def worker_env(work: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = str(work)
    return env


def spawn(args: list, work: Path, deadline: float) -> dict:
    """Run one worker to completion and return the JSON it printed."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), *args, "--work", str(work)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for the worker")
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())], cwd=ROOT,
                              env=worker_env(work), stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, smoke) -> tuple[list, dict]:
    """Set up SETUP_RUNS times (once for smoke or trace) and measure once."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{workload}-seed{seed}-{os.getpid()}"
    out = ROOT / ".bench_out"
    work.mkdir(parents=True, exist_ok=True)
    out.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    if smoke:
        common.append("--smoke")
    try:
        setups = [spawn(common + ["--mode", "setup"], work, deadline)["setup_s"]
                  for _ in range(0 if smoke or trace else SETUP_RUNS - 1)]
        mode = ["--mode", "trace", "--spans", str(out / f"spans-{workload}-seed{seed}.json")]
        result = spawn(common + (mode if trace else ["--mode", "measure"]), work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    setups.append(result["setup_s"])
    return setups, result


def summarize(workload, seed, trace, smoke, setups, result, machine) -> dict:
    """Print the report and return the result object.

    The metric names and units are those BENCHMARK.json declares.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    items = result["items"]
    failures = [it for it in items if not it["ok"]]
    if trace:
        values = result["layers"]
        counts = dict.fromkeys(values, "")
        declared = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(result["walls"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
        counts = {"setup_s": f"n={len(setups)}", "wall_s": f"n={len(result['walls'])}",
                  "peak_rss_mb": "n=1"}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    rows = [(k, m["value"], m["unit"], counts[k]) for k, m in metrics.items()]
    if not trace:
        rows.append(("fail_ratio", len(failures) / len(items), "ratio", f"n={len(items)}"))
        rows += [(k, v, unit, f"n={n}") for k, (v, unit, n) in result["report"].items()]
    versions = " ".join(f"{k}={v}" for k, v in result["versions"].items())
    print(f"# workload={workload} seed={seed} trace={trace} size={'smoke' if smoke else 'full'}")
    print(f"# commit={machine['commit']} nproc={machine['nproc']} "
          f"cpus_usable={machine['cpus_usable']} cpu={machine['cpu']!r} {versions}")
    for name, value, unit, note in rows:
        print(f"{name:32s} {value:14.6g} {unit:6s} {note}")
    for it in failures:
        known = f" [known defect: {it['known_defect']}]" if it.get("known_defect") else ""
        print(f"# failed {it['name']}: {it['error']}: {it['message']}{known}")
    correct = all(it.get("known_defect") for it in failures)
    summary = {"correct": correct, "attempted": len(items), "failed": len(failures),
               "metrics": metrics}
    record = dict(summary, workload=workload, seed=seed, trace=trace, smoke=smoke,
                  setups=setups, machine=machine, **result)
    name = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    (ROOT / ".bench_out" / name).write_text(json.dumps(record, indent=1) + "\n",
                                            encoding="utf-8")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measuring time; whole cycles run while they fit, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at minimal size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "inflatekit" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'inflatekit'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    machine = machine_info()
    try:
        if not args.smoke:
            setups, result = run_workload(args.workload, args.seed, args.seconds,
                                          args.trace, False)
            summary = summarize(args.workload, args.seed, args.trace, False, setups,
                                result, machine)
            print(json.dumps(summary))
            return 0
        summaries = {}
        for workload in WORKLOADS:
            setups, result = run_workload(workload, args.seed, 0.0, 0, True)
            summaries[workload] = summarize(workload, args.seed, 0, True, setups, result,
                                            machine)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{w}.{k}": m for w, s in summaries.items() for k, m in s["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
