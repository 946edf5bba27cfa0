"""Command-line pipeline: calibrate, estimate, solve-shell, simulate, mesh-info.

Exit codes: 0 success, 1 I/O failure, 2 invalid input, 3 numerical failure.
All commands are deterministic given identical inputs, so reruns are
idempotent.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    EmptyContactError,
    InflatekitError,
    NonConvergenceError,
    ParseError,
    RankDeficientError,
    RelaxationTimeoutError,
    SimulationInstabilityError,
    TopologyError,
    ValidationError,
)
from .estimator import (
    Calibration,
    CalibrationRecord,
    calibrate_ks,
    regress_phat,
    run_procedure3,
)
from .geometry import enclosed_volume, fit_curvature, load_mesh, select_patch
from .measurement import parse_series, serialize_series
from .shell import (
    DEFAULT_NU,
    ShellParams,
    SolverOptions,
    critical_depth,
    solve_indentation,
    solution_to_csv,
    wrinkle_count,
)
from .simulator import (
    Indenter,
    MaterialSpec,
    Plane,
    ScenarioConfig,
    indent_virtual,
    init_sim,
    step,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    NonConvergenceError,
    SimulationInstabilityError,
    RelaxationTimeoutError,
    RankDeficientError,
    EmptyContactError,
)


def _warn_depth_units(series, path):
    if max(series.depths) > 1.0:
        print(
            f"warning: {path}: depths exceed 1 m; data may be in "
            "millimeters instead of the required meters",
            file=sys.stderr,
        )


def cmd_calibrate(args) -> int:
    if len(args.series) != len(args.pressure):
        raise ValidationError(
            f"got {len(args.series)} --series but {len(args.pressure)} --pressure"
        )
    records = []
    rows = []
    for path, pg in zip(args.series, args.pressure):
        if not (pg > 0):
            raise ValidationError(f"--pressure must be > 0, got {pg}")
        series = parse_series(path, args.radius, args.thickness)
        _warn_depth_units(series, path)
        reg = regress_phat(series)
        records.append(CalibrationRecord(measured_Pg=pg, estimated_Pg_hat=reg.Pg_hat))
        rows.append((path, pg, reg.Pg_hat, reg.r2))
    cal = calibrate_ks(records)
    out = {
        "ks": cal.ks,
        "fit_r2": cal.fit_r2,
        "records": [
            {"measured_Pg": r.measured_Pg, "estimated_Pg_hat": r.estimated_Pg_hat}
            for r in cal.records
        ],
    }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"{'series':40s} {'Pg (Pa)':>10s} {'Pg_hat (Pa)':>12s} {'r2':>8s}")
    for path, pg, pg_hat, r2 in rows:
        print(f"{str(path):40s} {pg:10.1f} {pg_hat:12.1f} {r2:8.4f}")
    print(f"ks = {cal.ks:.4f} (fit r2 = {cal.fit_r2:.4f}) -> {args.out}")
    return EXIT_OK


class _JsonInput:
    """A JSON input file; a structural fault raises an error naming the file."""

    def __init__(self, path):
        self.path = path
        text = Path(path).read_text(encoding="utf-8")
        try:
            self.data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno, path=str(path)) from None

    def check(self, ok, message):
        if not ok:
            raise ValidationError(f"{self.path}: {message}")

    def number(self, value, name, kind=(int, float)):
        # finite as a float: rejects NaN, Infinity and integers beyond its range
        ok = (
            isinstance(value, kind)
            and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
        )
        what = "an integer" if kind is int else "a finite number"
        self.check(ok, f"{name} must be {what}, got {value!r}")
        return value

    def vector(self, value, name):
        self.check(isinstance(value, list) and len(value) == 3, f"{name} must be 3 numbers")
        return tuple(self.number(v, name) for v in value)

    def table(self, value, name, required, optional=()):
        """Check value is an object with the required keys and no keys beyond
        the required and optional ones."""
        self.check(isinstance(value, dict), f"{name} must be an object")
        missing = [key for key in required if key not in value]
        self.check(not missing, f"{name} lacks {missing}")
        unknown = sorted(set(value) - {*required, *optional})
        self.check(not unknown, f"unknown {name} keys {unknown}")
        return value


_CALIBRATION_KEYS = ("ks", "fit_r2", "records")
_RECORD_KEYS = ("measured_Pg", "estimated_Pg_hat")


def _load_calibration(path) -> Calibration:
    """Calibration JSON (as written by ``calibrate``) -> Calibration.

    A malformed structure or value raises ParseError or ValidationError.
    """
    doc = _JsonInput(path)
    data = doc.table(doc.data, "calibration JSON", _CALIBRATION_KEYS)
    doc.check(isinstance(data["records"], list), "records must be a list")
    records = []
    for r in data["records"]:
        doc.table(r, "calibration record", _RECORD_KEYS)
        records.append(
            CalibrationRecord(
                measured_Pg=doc.number(r["measured_Pg"], "measured_Pg"),
                estimated_Pg_hat=doc.number(r["estimated_Pg_hat"], "estimated_Pg_hat"),
            )
        )
    return Calibration(
        ks=doc.number(data["ks"], "ks"),
        records=tuple(records),
        fit_r2=doc.number(data["fit_r2"], "fit_r2"),
    )


def _radius_from_mesh(args) -> float:
    mesh = load_mesh(args.mesh)
    if args.seed_vertex is None:
        raise ValidationError("--seed-vertex is required with --mesh")
    if args.patch_radius is not None:
        hint = args.patch_radius
    else:
        bbox = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
        hint = 0.25 * float(np.linalg.norm(bbox))
    patch = select_patch(mesh, args.seed_vertex, hint)
    return fit_curvature(patch)["radius"]


def cmd_estimate(args) -> int:
    if args.wrinkles is None:
        raise ValidationError(
            "--wrinkles is required: count the radial wrinkles at deep "
            "indentation and pass the integer"
        )
    if args.mesh is not None:
        radius = _radius_from_mesh(args)
    elif args.radius is not None:
        radius = args.radius
    else:
        raise ValidationError("either --mesh (with --seed-vertex) or --radius required")
    series = parse_series(args.series, radius, args.thickness)
    _warn_depth_units(series, args.series)
    cal = _load_calibration(args.calibration)
    est = run_procedure3(series, cal, n=args.wrinkles, nu=args.nu)
    text = est.to_json(indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def cmd_solve_shell(args) -> int:
    params = ShellParams(
        R=args.radius, h=args.thickness, E=args.modulus, nu=args.nu, Pg=args.pressure
    )
    options = SolverOptions(membrane_limit=not args.full)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    diagnostics = {
        "tau": params.tau,
        "n_predicted": wrinkle_count(params).count,
        "membrane_limit": not args.full,
    }
    if args.critical:
        diagnostics["critical_W0"] = critical_depth(params)
    if args.W0 is not None:
        sol = solve_indentation(params, args.W0, options)
        solution_to_csv(sol, out_dir / "profile.csv")
        diagnostics["W0"] = sol.W0
        diagnostics["force"] = sol.force
        diagnostics["force_N"] = sol.force_newtons(params)
        diagnostics["annulus"] = list(sol.annulus) if sol.annulus else None
        diagnostics["bvp_solves"] = sol.bvp_solves
        diagnostics["bvp_iterations"] = sol.bvp_iterations
        diagnostics["max_nodes"] = sol.max_nodes
    (out_dir / "diagnostics.json").write_text(
        json.dumps(diagnostics, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(diagnostics, indent=2))
    return EXIT_OK


_MATERIAL_REQUIRED = ("E", "nu", "h", "density", "Pg0")
_SCENARIO_OPTIONAL = ("indent", "planes", "gravity", "restitution", "dt", "duration", "damping")
_INDENT_OPTIONAL = ("levels", "axis", "speed")


def _parse_scenario(path):
    """Scenario JSON -> (MaterialSpec, ScenarioConfig, indent block or None).

    A malformed structure or value raises ParseError or ValidationError.
    ``indent.speed`` is accepted and ignored: indentation is quasi-static.
    """
    doc = _JsonInput(path)
    check, number, vector, table = doc.check, doc.number, doc.vector, doc.table
    data = doc.data

    table(data, "scenario JSON", ("material",), _SCENARIO_OPTIONAL)
    spec = table(data["material"], "material", _MATERIAL_REQUIRED, ("gas_model",))
    for key in _MATERIAL_REQUIRED:
        number(spec[key], f"material.{key}")
    material = MaterialSpec(**spec)
    indent = data.get("indent")
    indenter = None
    if indent is not None:
        table(indent, "indent", ("vertex", "target_depth"), _INDENT_OPTIONAL)
        number(indent["target_depth"], "indent.target_depth")
        if indent.get("levels") is not None:
            number(indent["levels"], "indent.levels", int)
        indenter = Indenter(
            vertex=number(indent["vertex"], "indent.vertex", int),
            axis=vector(indent.get("axis", [0.0, 0.0, -1.0]), "indent.axis"),
        )
    planes = data.get("planes", [])
    check(isinstance(planes, list), "planes must be a list")
    for plane in planes:
        table(plane, "plane", ("point", "normal"))
    config = ScenarioConfig(
        gravity=vector(data.get("gravity", [0.0, 0.0, -9.81]), "gravity"),
        planes=tuple(
            Plane(
                point=vector(p["point"], "plane point"),
                normal=vector(p["normal"], "plane normal"),
            )
            for p in planes
        ),
        restitution=number(data.get("restitution", 1.0), "restitution"),
        indenter=indenter,
        dt=number(data.get("dt", 1e-4), "dt"),
        duration=number(data.get("duration", 1.0), "duration"),
        damping=number(data.get("damping", 0.0), "damping"),
    )
    return material, config, indent


def cmd_simulate(args) -> int:
    material, config, indent = _parse_scenario(args.scenario)
    mesh = load_mesh(args.mesh)
    state = init_sim(mesh, material)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if indent is not None:
        series = indent_virtual(
            state,
            config,
            target_depth=indent["target_depth"],
            n_levels=indent.get("levels"),
        )
        out_path = out_dir / "series.csv"
        serialize_series(series, out_path)
        print(
            f"indentation series ({len(series.samples)} samples, "
            f"R={series.region_radius:.4g} m) -> {out_path}"
        )
        return EXIT_OK
    n_steps = int(round(config.duration / config.dt))
    sample_every = max(1, n_steps // 1000)
    rows = ["time_s,cx_m,cy_m,cz_m,volume_m3,Pg_pa,kinetic_J"]
    for i in range(n_steps):
        state = step(state, config)
        if i % sample_every == 0 or i == n_steps - 1:
            c = state.centroid
            rows.append(
                f"{state.time!r},{float(c[0])!r},{float(c[1])!r},{float(c[2])!r},"
                f"{state.volume!r},{state.Pg!r},{state.kinetic_energy!r}"
            )
    out_path = out_dir / "trajectory.csv"
    out_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"{n_steps} steps -> {out_path}")
    return EXIT_OK


def cmd_mesh_info(args) -> int:
    mesh = load_mesh(args.mesh)
    # enclosed_volume finds the boundary once and reports it when open
    try:
        volume, boundary = enclosed_volume(mesh), []
    except TopologyError as exc:
        volume, boundary = None, exc.boundary_edges
    info = {
        "n_vertices": mesh.n_vertices,
        "n_faces": mesh.n_faces,
        "watertight": not boundary,
        "n_boundary_edges": len(boundary),
    }
    if volume is not None:
        info["volume_m3"] = volume
        info["equivalent_radius_m"] = (3.0 * volume / (4 * math.pi)) ** (1.0 / 3.0)
    print(json.dumps(info, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inflatekit",
        description="Estimate gauge pressure and elastic modulus of inflated "
        "objects from point-indentation measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit the linear force factor k_s")
    p.add_argument("--series", action="append", required=True, help="series CSV (repeatable)")
    p.add_argument(
        "--pressure",
        action="append",
        type=float,
        required=True,
        help="measured gauge pressure (Pa) paired with each --series",
    )
    p.add_argument("--radius", type=float, required=True, help="local curvature radius R (m)")
    p.add_argument("--thickness", type=float, required=True, help="shell thickness h (m)")
    p.add_argument("--out", required=True, help="calibration JSON output path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("estimate", help="estimate Pg and E for one object")
    p.add_argument("--series", required=True, help="indentation series CSV")
    p.add_argument("--calibration", required=True, help="calibration JSON")
    p.add_argument("--mesh", help="OBJ mesh for curvature-based R")
    p.add_argument("--seed-vertex", type=int, help="patch seed vertex (with --mesh)")
    p.add_argument("--patch-radius", type=float, help="geodesic patch radius hint (m)")
    p.add_argument("--radius", type=float, help="explicit curvature radius R (m)")
    p.add_argument("--thickness", type=float, required=True, help="shell thickness h (m)")
    p.add_argument("--wrinkles", type=int, help="observed radial wrinkle count n")
    p.add_argument("--nu", type=float, default=DEFAULT_NU, help="Poisson ratio")
    p.add_argument("--out", help="estimate JSON output path")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("solve-shell", help="solve the indentation profile / onset depth")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--thickness", type=float, required=True)
    p.add_argument("--modulus", type=float, required=True, help="elastic modulus E (Pa)")
    p.add_argument("--pressure", type=float, required=True, help="gauge pressure Pg (Pa)")
    p.add_argument("--nu", type=float, default=DEFAULT_NU)
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--membrane", dest="full", action="store_false", help="membrane limit (default)"
    )
    group.add_argument(
        "--full", dest="full", action="store_true", help="include bending term"
    )
    p.set_defaults(full=False)
    p.add_argument("--W0", type=float, help="dimensionless indentation depth (<= 0)")
    p.add_argument(
        "--critical",
        action="store_true",
        help="root-find the wrinkling-onset depth; always the membrane-limit value, "
        "also with --full",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_solve_shell)

    p = sub.add_parser("simulate", help="run a forward membrane simulation")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--mesh", required=True, help="watertight OBJ mesh")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mesh-info", help="inspect an OBJ mesh")
    p.add_argument("--mesh", required=True)
    p.set_defaults(func=cmd_mesh_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InflatekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:  # any input file read as text
        print(f"error: input file is not UTF-8 text ({exc.reason})", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
