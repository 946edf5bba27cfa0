"""Span recorder that wraps inflatekit's public functions from outside.

Spans are recorded at the places where the functions are looked up: the
names ``inflatekit.cli`` imported, the module globals the solvers call
through (``shell.solve_bvp``, ``simulator.step``, ``simulator.signed_volume``,
``estimator.regress_phat``) and ``TriMesh.boundary_edges``.  Nothing inside
the package is edited.  Each span is ``[name, start, end, parent, item]``:
``parent`` is the index of the enclosing span (-1 at top level) and ``item``
the benchmark item that was running.  Spans stay in memory until
``Tracer.dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import types
from time import perf_counter


def _percentile(values, q):
    """Linear-interpolated percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def span_cost(calls: int = 200_000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function."""
    box = types.SimpleNamespace(noop=lambda: None)
    start = perf_counter()
    for _ in range(calls):
        box.noop()
    plain = perf_counter() - start
    Tracer().wrap(box, "noop", "probe.noop")
    start = perf_counter()
    for _ in range(calls):
        box.noop()
    return max(perf_counter() - start - plain, 0.0) / calls


class Tracer:
    """Installs wrappers, keeps spans and counters, restores on uninstall."""

    def __init__(self):
        self.spans = []
        self.item = None
        self.bvp = []  # (nodes, newton iterations, status) per solve_bvp call
        self.steps = []  # (faces of the mesh advanced, seconds) per step call
        self.patch_vertices = []  # vertices in each selected patch
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, on_call=None):
        """Replace ``owner.attr`` by a wrapper recording a span called name.

        on_call(span, args, result) runs after a successful call to take counts.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_call is not None:
                on_call(span, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        from inflatekit import cli, estimator, geometry, measurement, shell, simulator

        for attr in (
            "calibrate_ks", "regress_phat", "run_procedure3",
            "load_mesh", "select_patch", "fit_curvature", "enclosed_volume",
            "parse_series", "serialize_series",
            "critical_depth", "solve_indentation", "solution_to_csv", "wrinkle_count",
            "init_sim", "indent_virtual", "step",
        ):
            module = getattr(cli, attr).__module__.rsplit(".", 1)[-1]
            on_call = {"select_patch": self._count_patch, "step": self._count_step}.get(attr)
            self.wrap(cli, attr, f"{module}.{attr}", on_call)
        self.wrap(cli, "main", "cli.main")
        self.wrap(shell, "solve_bvp", "shell.solve_bvp", self._count_bvp)
        self.wrap(simulator, "step", "simulator.step", self._count_step)
        self.wrap(simulator, "init_sim", "simulator.init_sim")
        self.wrap(simulator, "signed_volume", "geometry.signed_volume")
        self.wrap(estimator, "regress_phat", "estimator.regress_phat")
        self.wrap(measurement, "restitution_coefficient", "measurement.restitution_coefficient")
        self.wrap(geometry.TriMesh, "boundary_edges", "geometry.boundary_edges")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count_bvp(self, span, args, sol):
        self.bvp.append((len(sol.x), int(sol.niter), int(sol.status)))

    def _count_step(self, span, args, state):
        self.steps.append((args[0].mesh.n_faces, span[2] - span[1]))

    def _count_patch(self, span, args, patch):
        self.patch_vertices.append(len(patch.vertex_ids))

    def dump(self, path):
        """Write every span as JSON (one file per run)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, fh)

    def metrics(self) -> dict:
        """Per-layer totals, counts and self time per module."""
        total, calls, child = {}, {}, [0.0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child[parent] += dur
        self_s = {}
        for index, (name, start, end, _parent, _item) in enumerate(self.spans):
            module = name.split(".", 1)[0]
            self_s[module] = self_s.get(module, 0.0) + (end - start) - child[index]

        # step percentiles over the largest mesh advanced: a run mixing mesh
        # sizes would otherwise put the median on the boundary between them
        largest = max((faces for faces, _ in self.steps), default=0)
        big_steps = [dur for faces, dur in self.steps if faces == largest]
        bvp_calls = len(self.bvp)
        out = {
            "shell.bvp_calls": bvp_calls,
            "shell.bvp_nodes_max": max((b[0] for b in self.bvp), default=0),
            "shell.bvp_nodes_sum": sum(b[0] for b in self.bvp),
            "shell.bvp_newton_iters": sum(b[1] for b in self.bvp),
            "shell.bvp_converged_ratio": (
                sum(b[2] == 0 for b in self.bvp) / bvp_calls if bvp_calls else 0.0
            ),
            "shell.bvp_s": total.get("shell.solve_bvp", 0.0),
            "shell.critical_depth_s": total.get("shell.critical_depth", 0.0),
            "shell.solve_indentation_s": total.get("shell.solve_indentation", 0.0),
            "simulator.step_calls": calls.get("simulator.step", 0),
            "simulator.face_updates": sum(faces for faces, _ in self.steps),
            "simulator.step_s": total.get("simulator.step", 0.0),
            "simulator.step_s_p50": _percentile(big_steps, 0.50),
            "simulator.step_s_p99": _percentile(big_steps, 0.99),
            "simulator.init_sim_s": total.get("simulator.init_sim", 0.0),
            "simulator.indent_virtual_s": total.get("simulator.indent_virtual", 0.0),
            "geometry.load_mesh_s": total.get("geometry.load_mesh", 0.0),
            "geometry.select_patch_s": total.get("geometry.select_patch", 0.0),
            "geometry.fit_curvature_s": total.get("geometry.fit_curvature", 0.0),
            "geometry.boundary_edges_s": total.get("geometry.boundary_edges", 0.0),
            "geometry.boundary_edges_calls": calls.get("geometry.boundary_edges", 0),
            "geometry.patch_vertices": sum(self.patch_vertices),
            "geometry.signed_volume_calls": calls.get("geometry.signed_volume", 0),
            "measurement.parse_series_s": total.get("measurement.parse_series", 0.0),
            "estimator.regress_phat_s": total.get("estimator.regress_phat", 0.0),
            "estimator.calibrate_ks_s": total.get("estimator.calibrate_ks", 0.0),
            "estimator.run_procedure3_s": total.get("estimator.run_procedure3", 0.0),
        }
        for module in ("cli", "shell", "simulator", "geometry", "measurement", "estimator"):
            out[f"{module}.self_s"] = self_s.get(module, 0.0)
        out["trace.spans"] = len(self.spans)
        return out
