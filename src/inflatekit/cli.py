"""Command-line pipeline: calibrate, estimate, solve-shell, simulate, mesh-info.

Exit codes: 0 success, 1 I/O failure, 2 invalid input, 3 numerical failure.
All commands are deterministic given identical inputs, so reruns are
idempotent.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    IndexRangeError,
    InflatekitError,
    ParseError,
    SimulationInstabilityError,
    TopologyError,
    ValidationError,
    integer,
    positive,
)
from .estimator import (
    Calibration,
    CalibrationRecord,
    calibrate_ks,
    regress_phat,
    run_procedure3,
)
from .geometry import enclosed_volume, equivalent_radius, fit_curvature, load_mesh, select_patch
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
    _depth_levels,
    indent_virtual,
    init_sim,
    run,
    step,  # not called here: bench/tracer.py wraps cli.step by name
    step_count,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2


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
        positive("--pressure", pg)
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


def _read_json(path):
    """The data of a JSON file; unreadable JSON raises ParseError naming it."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, path=str(path)) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply", path=str(path)) from None
    except ValueError:  # int() refuses an integer of more than 4300 digits
        raise ParseError("JSON integer too long", path=str(path)) from None


def _check(ok, message):
    if not ok:
        raise ValidationError(message)


def _table(value, name, required, optional=()):
    """Check value is an object with the required keys and no keys beyond
    the required and optional ones."""
    _check(isinstance(value, dict), f"{name} must be an object")
    missing = [key for key in required if key not in value]
    _check(not missing, f"{name} lacks {missing}")
    unknown = sorted(set(value) - {*required, *optional})
    _check(not unknown, f"unknown {name} keys {unknown}")
    return value


_CALIBRATION_KEYS = ("ks", "fit_r2", "records")
_RECORD_KEYS = ("measured_Pg", "estimated_Pg_hat")


def _load_calibration(path) -> Calibration:
    """Calibration JSON (as written by ``calibrate``) -> Calibration.

    Checks the JSON structure; the constructors check the values.
    """
    data = _read_json(path)
    try:
        _table(data, "calibration JSON", _CALIBRATION_KEYS)
        _check(isinstance(data["records"], list), "records must be a list")
        for r in data["records"]:
            _table(r, "calibration record", _RECORD_KEYS)
        records = tuple(CalibrationRecord(**r) for r in data["records"])
        return Calibration(ks=data["ks"], records=records, fit_r2=data["fit_r2"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _radius_from_mesh(args) -> float:
    _check(args.seed_vertex is not None, "--seed-vertex is required with --mesh")
    # checked before the read, so that the exit code does not depend on the
    # file, and against the mesh once it is read
    integer("--seed-vertex", args.seed_vertex, 0, math.inf, IndexRangeError)
    hint = None if args.patch_radius is None else positive("--patch-radius", args.patch_radius)
    mesh = load_mesh(args.mesh)
    integer("--seed-vertex", args.seed_vertex, 0, mesh.n_vertices - 1, IndexRangeError)
    if hint is None:
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
    # flags are checked before a file is read, but --seed-vertex's upper bound needs the mesh
    if args.mesh is None:
        _check(args.radius is not None, "either --mesh (with --seed-vertex) or --radius required")
        _check(args.seed_vertex is None, "--seed-vertex applies only with --mesh")
        _check(args.patch_radius is None, "--patch-radius applies only with --mesh")
        radius = args.radius
    else:
        _check(args.radius is None, "--radius applies only without --mesh")
        radius = _radius_from_mesh(args)
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
    diagnostics = {
        "tau": params.tau,
        "n_predicted": wrinkle_count(params).count,
        "membrane_limit": not args.full,
    }
    # a refused --W0 exits before the onset search runs and before --out is made
    if args.W0 is not None:
        sol = solve_indentation(params, args.W0, SolverOptions(membrane_limit=not args.full))
    if args.critical:
        diagnostics["critical_W0"] = critical_depth(params)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.W0 is not None:
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
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioConfig) if f.name != "planes")
_SCENARIO_OPTIONAL = ("indent", "planes", *_CONFIG_KEYS)
_INDENT_OPTIONAL = ("levels", "axis", "speed")


def _parse_scenario(path):
    """Scenario JSON -> (MaterialSpec, ScenarioConfig, indent_virtual keywords or None).

    Checks the JSON structure and that an indent scenario has no planes;
    the constructors check the values, and ``indent.target_depth`` and
    ``levels`` are checked as indent_virtual checks them.  ``indent.speed``
    is accepted and ignored: indentation is quasi-static.
    """
    data = _read_json(path)
    try:
        _table(data, "scenario JSON", ("material",), _SCENARIO_OPTIONAL)
        spec = _table(data["material"], "material", _MATERIAL_REQUIRED, ("gas_model",))
        material = MaterialSpec(**spec)
        indent = data.get("indent")
        if indent is not None:
            _table(indent, "indent", ("vertex", "target_depth"), _INDENT_OPTIONAL)
            indenter = Indenter(indent["vertex"], indent.get("axis", (0.0, 0.0, -1.0)))
            target_depth, n_levels = _depth_levels(
                indent["target_depth"], indent.get("levels"), "levels"
            )
            indent = dict(indenter=indenter, target_depth=target_depth, n_levels=n_levels)
        planes = data.get("planes", [])
        _check(isinstance(planes, list), "planes must be a list")
        _check(not (indent and planes), "the support is a pinned cap; planes are not supported")
        planes = tuple(Plane(**_table(p, "plane", ("point", "normal"))) for p in planes)
        config = ScenarioConfig(planes=planes, **{k: data[k] for k in _CONFIG_KEYS if k in data})
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return material, config, indent


# a blow-up shows as an inf or nan, refused with an error line by the
# simulator's own checks and by the trajectory sampler below; numpy need
# not warn first
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def cmd_simulate(args) -> int:
    material, config, indent = _parse_scenario(args.scenario)
    # indentation is quasi-static: dt and duration play no part in it
    n_steps = step_count(config) if indent is None else 0
    mesh = load_mesh(args.mesh)
    state = init_sim(mesh, material)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if indent is not None:
        series = indent_virtual(state, **indent, gravity=config.gravity)
        out_path = out_dir / "series.csv"
        serialize_series(series, out_path)
        print(
            f"indentation series ({len(series.samples)} samples, "
            f"R={series.region_radius:.4g} m) -> {out_path}"
        )
        return EXIT_OK
    rows = ["time_s,cx_m,cy_m,cz_m,volume_m3,Pg_pa,kinetic_J"]

    def sample(k, state):
        c = state.centroid
        volume = state.volume
        values = (
            state.time, float(c[0]), float(c[1]), float(c[2]), volume,
            state.Pg if volume > 0 else math.nan, state.kinetic_energy,
        )
        # a finite state far out can still overflow these sums
        if not all(map(math.isfinite, values)):
            raise SimulationInstabilityError(
                f"non-finite trajectory value at t = {state.time!r} s", frame=k
            )
        rows.append(",".join(map(repr, values)))

    _final, report = run(state, config, sample, every=max(1, n_steps // 1000))
    out_path = out_dir / "trajectory.csv"
    out_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(
        f"{report.steps} steps, contact episodes per plane "
        f"{list(report.contact_episodes)} -> {out_path}"
    )
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
        info["equivalent_radius_m"] = equivalent_radius(volume)
    print(json.dumps(info, indent=2))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
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
    p.add_argument("--full", action="store_true", help="include bending term (else membrane limit)")
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
    except InflatekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:  # any input file read as text
        print(f"error: input file is not UTF-8 text ({exc.reason})", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
