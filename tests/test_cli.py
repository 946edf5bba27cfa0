"""End-to-end tests of the command-line interface (in-process)."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from inflatekit import cli, errors, geometry, shell
from inflatekit.cli import main
from inflatekit.geometry import TriMesh, icosphere, save_mesh
from inflatekit.measurement import IndentationSample, IndentationSeries, serialize_series

KS = 0.64
R = 0.13
H = 8.6e-4
HUGE_FORCES_ERROR = "forces up to {:.3g} N are too large to fit: their squares overflow double precision"
# int() refuses a JSON integer of more than 4300 digits, and the JSON
# decoder recurses once per level of nesting
LONG_INTEGER_CALIBRATION = '{"ks": 1' + "0" * 5000 + ', "fit_r2": 1.0, "records": []}'
LONG_INTEGER_SCENARIO = (
    '{"material": {"E": 1' + "0" * 5000 + ', "nu": 0.4, "h": 1e-3, "density": 1000.0, "Pg0": 1300.0}}'
)
DEEP_JSON = "[" * 200_000


def write_series(path, Pg, depths=(0.005, 0.010, 0.015), R=R):
    series = IndentationSeries(
        samples=tuple(
            IndentationSample(force=math.pi * KS * R * Pg * w, depth=w) for w in depths
        ),
        object_id=path.stem,
        region_radius=R,
        region_thickness=H,
    )
    serialize_series(series, path)
    return path


def write_calibration(tmp_path):
    s800 = write_series(tmp_path / "cal800.csv", 800.0)
    s2000 = write_series(tmp_path / "cal2000.csv", 2000.0)
    cal_path = tmp_path / "calibration.json"
    code = main(
        [
            "calibrate",
            "--series", str(s800), "--pressure", "800",
            "--series", str(s2000), "--pressure", "2000",
            "--radius", str(R), "--thickness", str(H),
            "--out", str(cal_path),
        ]
    )
    assert code == 0
    return cal_path


class TestCalibrate:
    def test_noiseless_recovers_ks(self, tmp_path, capsys):
        cal_path = write_calibration(tmp_path)
        data = json.loads(cal_path.read_text())
        assert data["ks"] == pytest.approx(KS, rel=1e-9)
        assert data["fit_r2"] == pytest.approx(1.0, abs=1e-12)
        assert len(data["records"]) == 2
        assert "ks = 0.64" in capsys.readouterr().out

    def test_mismatched_series_pressure_counts(self, tmp_path, capsys):
        s = write_series(tmp_path / "one.csv", 800.0)
        code = main(
            [
                "calibrate",
                "--series", str(s),
                "--pressure", "800", "--pressure", "2000",
                "--radius", str(R), "--thickness", str(H),
                "--out", str(tmp_path / "cal.json"),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_single_pressure_is_insufficient(self, tmp_path):
        s = write_series(tmp_path / "one.csv", 800.0)
        code = main(
            [
                "calibrate",
                "--series", str(s), "--pressure", "800",
                "--radius", str(R), "--thickness", str(H),
                "--out", str(tmp_path / "cal.json"),
            ]
        )
        assert code == 2

    def test_millimeter_depths_warn(self, tmp_path, capsys):
        s800 = write_series(tmp_path / "a.csv", 800.0, depths=(5.0, 10.0, 15.0))
        s2000 = write_series(tmp_path / "b.csv", 2000.0, depths=(5.0, 10.0, 15.0))
        code = main(
            [
                "calibrate",
                "--series", str(s800), "--pressure", "800",
                "--series", str(s2000), "--pressure", "2000",
                "--radius", str(R), "--thickness", str(H),
                "--out", str(tmp_path / "cal.json"),
            ]
        )
        assert code == 0
        assert "millimeters" in capsys.readouterr().err

    def test_overflowing_fit_is_validation_error(self, tmp_path, capsys):
        # the squares of forces near 1e300 N overflow: the series is refused
        # before the fit, with no numpy warning and no calibration written
        huge = tmp_path / "huge.csv"
        huge.write_text("force_N,depth_m\n1e300,0.005\n1e300,0.01\n1e300,0.015\n")
        s2000 = write_series(tmp_path / "b.csv", 2000.0)
        cal_path = tmp_path / "cal.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                [
                    "calibrate",
                    "--series", str(huge), "--pressure", "800",
                    "--series", str(s2000), "--pressure", "2000",
                    "--radius", str(R), "--thickness", str(H),
                    "--out", str(cal_path),
                ]
            )
        assert code == 2
        assert capsys.readouterr().err == f"error: {HUGE_FORCES_ERROR.format(1e300)}\n"
        assert not cal_path.exists()

    @pytest.mark.parametrize(
        "radius, thickness, error",
        [
            ("inf", str(H), "region_radius R must be finite and > 0, got inf"),
            ("nan", str(H), "region_radius R must be finite and > 0, got nan"),
            (str(R), "inf", "region_thickness h must be finite and > 0, got inf"),
        ],
    )
    def test_non_finite_geometry_is_named(self, tmp_path, capsys, radius, thickness, error):
        s800 = write_series(tmp_path / "a.csv", 800.0)
        s2000 = write_series(tmp_path / "b.csv", 2000.0)
        cal_path = tmp_path / "cal.json"
        code = main(
            [
                "calibrate",
                "--series", str(s800), "--pressure", "800",
                "--series", str(s2000), "--pressure", "2000",
                "--radius", radius, "--thickness", thickness,
                "--out", str(cal_path),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not cal_path.exists()

    def test_zero_pressure_is_validation_error(self, tmp_path, capsys):
        s800 = write_series(tmp_path / "a.csv", 800.0)
        s2000 = write_series(tmp_path / "b.csv", 2000.0)
        code = main(
            [
                "calibrate",
                "--series", str(s800), "--pressure", "0",
                "--series", str(s2000), "--pressure", "2000",
                "--radius", str(R), "--thickness", str(H),
                "--out", str(tmp_path / "cal.json"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --pressure must be finite and > 0, got 0.0\n"


class TestEstimate:
    def test_round_trip_with_explicit_radius(self, tmp_path, capsys):
        cal_path = write_calibration(tmp_path)
        capsys.readouterr()  # discard the calibrate summary
        target = write_series(tmp_path / "target.csv", 1300.0)
        out_path = tmp_path / "estimate.json"
        code = main(
            [
                "estimate",
                "--series", str(target),
                "--calibration", str(cal_path),
                "--radius", str(R), "--thickness", str(H),
                "--wrinkles", "8",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["Pg_pa"] == pytest.approx(1300.0, rel=1e-9)
        expected_e = math.sqrt(12 * (1 - 0.16)) * (1.33 * R / (8 * H)) ** 2 * 1300.0
        assert data["E_pa"] == pytest.approx(expected_e, rel=1e-9)
        assert data["object_id"] == "target"
        # stdout mirrors the JSON
        assert json.loads(capsys.readouterr().out)["Pg_pa"] == data["Pg_pa"]

    def test_mesh_radius_agrees_with_explicit(self, tmp_path, capsys):
        cal_path = write_calibration(tmp_path)
        capsys.readouterr()  # discard the calibrate summary
        target = write_series(tmp_path / "target.csv", 1300.0)
        mesh_path = tmp_path / "ball.obj"
        save_mesh(icosphere(radius=R, subdivisions=3), mesh_path)
        code = main(
            [
                "estimate",
                "--series", str(target),
                "--calibration", str(cal_path),
                "--mesh", str(mesh_path), "--seed-vertex", "0",
                "--thickness", str(H),
                "--wrinkles", "8",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        # curvature-fitted R within 2% of truth; Pg scales as 1/R
        assert data["Pg_pa"] == pytest.approx(1300.0, rel=0.02)

    # an absent mesh would exit 1 if it were read before the flags are checked
    @pytest.mark.parametrize("present", [True, False], ids=["mesh", "absent-mesh"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            ([], "--seed-vertex is required with --mesh"),
            (["--seed-vertex", "0", "--patch-radius", "nan"],
             "--patch-radius must be finite and > 0, got nan"),
            (["--seed-vertex", "0", "--patch-radius", "-1"],
             "--patch-radius must be finite and > 0, got -1.0"),
            (["--seed-vertex", "-3"], "--seed-vertex must be in [0, inf], got -3"),
        ],
        ids=["no-seed-vertex", "nan-patch-radius", "negative-patch-radius", "negative-seed-vertex"],
    )
    def test_mesh_without_seed_vertex(self, tmp_path, capsys, present, flags, message):
        cal_path = write_calibration(tmp_path)
        target = write_series(tmp_path / "target.csv", 1300.0)
        mesh_path = tmp_path / "ball.obj"
        if present:
            save_mesh(icosphere(radius=R, subdivisions=2), mesh_path)
        capsys.readouterr()
        code = main(
            [
                "estimate",
                "--series", str(target), "--calibration", str(cal_path),
                "--mesh", str(mesh_path), "--thickness", str(H), "--wrinkles", "8", *flags,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    # with the files absent, a flag checked after a read would exit 1
    @pytest.mark.parametrize("present", [True, False], ids=["files", "absent-files"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mesh", "MESH", "--seed-vertex", "0", "--patch-radius", "0.05", "--radius", "5.0"],
             "--radius applies only without --mesh"),
            (["--radius", "0.13", "--seed-vertex", "99999", "--patch-radius", "-1"],
             "--seed-vertex applies only with --mesh"),
            (["--radius", "0.13", "--patch-radius", "0.05"],
             "--patch-radius applies only with --mesh"),
        ],
        ids=["mesh-and-radius", "seed-vertex-with-radius", "patch-radius-with-radius"],
    )
    def test_ignored_flag_is_refused_before_any_file_is_read(
        self, tmp_path, capsys, present, flags, message
    ):
        target, mesh_path = tmp_path / "target.csv", tmp_path / "ball.obj"
        if present:
            write_calibration(tmp_path)
            write_series(target, 1300.0)
            save_mesh(icosphere(radius=R, subdivisions=2), mesh_path)
            capsys.readouterr()
        code = main(
            [
                "estimate",
                "--series", str(target), "--calibration", str(tmp_path / "calibration.json"),
                "--thickness", str(H), "--wrinkles", "8",
                *(str(mesh_path) if flag == "MESH" else flag for flag in flags),
            ]
        )
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_seed_vertex_beyond_the_mesh_is_named(self, tmp_path, capsys):
        cal_path = write_calibration(tmp_path)
        target = write_series(tmp_path / "target.csv", 1300.0)
        mesh_path = tmp_path / "ball.obj"
        save_mesh(icosphere(radius=R, subdivisions=3), mesh_path)
        capsys.readouterr()
        code = main(
            [
                "estimate",
                "--series", str(target), "--calibration", str(cal_path),
                "--mesh", str(mesh_path), "--seed-vertex", "700",
                "--thickness", str(H), "--wrinkles", "8",
            ]
        )
        assert code == 2
        assert capsys.readouterr() == ("", "error: --seed-vertex must be in [0, 641], got 700\n")

    def test_neither_mesh_nor_radius_is_validation_error(self, tmp_path, capsys):
        cal_path = write_calibration(tmp_path)
        target = write_series(tmp_path / "target.csv", 1300.0)
        capsys.readouterr()
        code = main(
            [
                "estimate",
                "--series", str(target), "--calibration", str(cal_path),
                "--thickness", str(H), "--wrinkles", "8",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: either --mesh (with --seed-vertex) or --radius required\n"

    def test_nan_series_row_is_validation_error(self, tmp_path, capsys):
        cal_path = write_calibration(tmp_path)
        target = tmp_path / "target.csv"
        target.write_text("force_N,depth_m\n1,0.01\nnan,0.02\n3,0.03\n")
        capsys.readouterr()
        code = main(
            [
                "estimate",
                "--series", str(target), "--calibration", str(cal_path),
                "--radius", str(R), "--thickness", str(H), "--wrinkles", "8",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {target}:3: force must be finite and > 0, got nan\n"

    def test_infinite_patch_radius_is_validation_error(self, tmp_path, capsys):
        # an infinite patch radius used to select the whole scan and exit 0
        cal_path = write_calibration(tmp_path)
        target = write_series(tmp_path / "target.csv", 1300.0)
        mesh_path = tmp_path / "ball.obj"
        save_mesh(icosphere(radius=R, subdivisions=3), mesh_path)
        capsys.readouterr()
        code = main(
            [
                "estimate",
                "--series", str(target), "--calibration", str(cal_path),
                "--mesh", str(mesh_path), "--seed-vertex", "0", "--patch-radius", "inf",
                "--thickness", str(H), "--wrinkles", "8",
            ]
        )
        assert code == 2
        assert capsys.readouterr() == ("", "error: --patch-radius must be finite and > 0, got inf\n")

    def test_missing_wrinkles_is_validation_error(self, tmp_path, capsys):
        cal_path = write_calibration(tmp_path)
        target = write_series(tmp_path / "target.csv", 1300.0)
        code = main(
            [
                "estimate",
                "--series", str(target), "--calibration", str(cal_path),
                "--radius", str(R), "--thickness", str(H),
            ]
        )
        assert code == 2
        assert "--wrinkles" in capsys.readouterr().err

    def test_overflowing_series_is_validation_error(self, tmp_path, capsys):
        cal_path = write_calibration(tmp_path)
        capsys.readouterr()
        huge = tmp_path / "huge.csv"
        huge.write_text("force_N,depth_m\n1e300,0.005\n2e300,0.01\n3e300,0.015\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                [
                    "estimate",
                    "--series", str(huge), "--calibration", str(cal_path),
                    "--radius", str(R), "--thickness", str(H), "--wrinkles", "8",
                ]
            )
        assert code == 2
        assert capsys.readouterr().err == f"error: {HUGE_FORCES_ERROR.format(3e300)}\n"

    def test_missing_series_file_is_io_error(self, tmp_path):
        cal_path = write_calibration(tmp_path)
        code = main(
            [
                "estimate",
                "--series", str(tmp_path / "absent.csv"),
                "--calibration", str(cal_path),
                "--radius", str(R), "--thickness", str(H), "--wrinkles", "8",
            ]
        )
        assert code == 1


    @pytest.mark.parametrize(
        "text",
        [
            '{"ks": 0.64, "fit_r2": 1.0}',
            '[{"ks": 0.64, "fit_r2": 1.0, "records": []}]',
            '{"ks": 0.64, "fit_r2": 1.0, "records": [], "note": "x"}',
            '{"ks": 0.64, "fit_r2": 1.0, "records": {}}',
            '{"ks": 0.64, "fit_r2": 1.0, "records": [800]}',
            '{"ks": 0.64, "fit_r2": 1.0, "records": [{"measured_Pg": 800}]}',
            '{"ks": 0.64, "fit_r2": 1.0, "records": [{"measured_Pg": 800, "estimated_Pg_hat": Infinity}]}',
            '{"ks": "0.64", "fit_r2": 1.0, "records": []}',
            '{"ks": NaN, "fit_r2": 1.0, "records": []}',
            '{"ks": 0.64, "fit_r2": -Infinity, "records": []}',
            '{"ks": 1' + "0" * 400 + ', "fit_r2": 1.0, "records": []}',
            '{"ks": 0.64,\n "fit_r2": }',
            LONG_INTEGER_CALIBRATION,
            DEEP_JSON,
        ],
        ids=[
            "without-records",
            "top-level-list",
            "unknown-key",
            "records-not-a-list",
            "record-not-an-object",
            "record-without-estimate",
            "infinite-estimate",
            "string-ks",
            "nan-ks",
            "infinite-fit-r2",
            "ks-beyond-float-range",
            "bad-json",
            "integer-of-5001-digits",
            "nested-200000-deep",
        ],
    )
    def test_malformed_calibration_is_validation_error(self, tmp_path, capsys, text):
        cal_path = tmp_path / "calibration.json"
        cal_path.write_text(text)
        target = write_series(tmp_path / "target.csv", 1300.0)
        code = main(
            [
                "estimate",
                "--series", str(target), "--calibration", str(cal_path),
                "--radius", str(R), "--thickness", str(H), "--wrinkles", "8",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {cal_path}")


@pytest.mark.parametrize("text", [LONG_INTEGER_SCENARIO, DEEP_JSON], ids=["long-integer", "deep"])
def test_unreadable_scenario_is_refused_before_the_mesh_is_read(tmp_path, capsys, text):
    # the mesh file is absent: reading it would exit 1
    path = tmp_path / "scenario.json"
    path.write_text(text)
    argv = ["simulate", "--scenario", str(path), "--mesh", str(tmp_path / "absent.obj"),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: JSON ")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
NUMBERS = st.floats() | st.integers(min_value=-(10**400), max_value=10**400)
RECORD = st.fixed_dictionaries({"measured_Pg": NUMBERS, "estimated_Pg_hat": NUMBERS})
# the shape `calibrate` writes, with arbitrary numbers (NaN, inf, huge ints)
WELL_FORMED = st.fixed_dictionaries(
    {"ks": NUMBERS, "fit_r2": NUMBERS, "records": st.lists(RECORD, max_size=2)}
)
# keys missing, unknown or holding values of the wrong type
MANGLED = st.fixed_dictionaries(
    {},
    optional={
        "ks": NUMBERS | JSON_VALUES,
        "fit_r2": NUMBERS | JSON_VALUES,
        "records": st.lists(RECORD | JSON_VALUES, max_size=2) | JSON_VALUES,
        "extra": JSON_VALUES,
    },
)


@given(
    content=(WELL_FORMED | MANGLED | JSON_VALUES).map(json.dumps)
    | st.text(max_size=40)
    | st.binary(max_size=40)
)
# k_s so small that the pressure estimate is huge or overflows
@example(content=json.dumps({"ks": 1e-300, "fit_r2": 1.0, "records": []}))
@example(content=json.dumps({"ks": 1.6e-307, "fit_r2": 1.0, "records": []}))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_any_calibration_file_exits_cleanly(tmp_path, capsys, content):
    cal_path = tmp_path / "calibration.json"
    if isinstance(content, bytes):
        cal_path.write_bytes(content)
    else:
        cal_path.write_text(content, encoding="utf-8")
    target = tmp_path / "target.csv"
    if not target.exists():
        write_series(target, 1300.0)
    capsys.readouterr()
    code = main(
        [
            "estimate",
            "--series", str(target), "--calibration", str(cal_path),
            "--radius", str(R), "--thickness", str(H), "--wrinkles", "8",
        ]
    )
    out, err = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert err.startswith("error: ")


def _assert_clean_exit(code, out, err):
    """Exit code in {0, 1, 2, 3}; an error line without a traceback on
    failure, strict JSON (when given) on success."""
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        if out is not None:
            json.loads(out, parse_constant=_reject_constant)
    else:
        assert any(line.startswith("error: ") for line in err.splitlines())


# a number as an OBJ or CSV field: positive, huge, infinite or NaN floats,
# integers beyond the float and int64 ranges, or a short junk token
POSITIVE = (st.floats(min_value=1e-3, max_value=10.0) | st.floats(min_value=1e-6, max_value=1e308)).map(
    repr
)
FIELD = (
    POSITIVE
    | st.floats().map(repr)
    | st.integers(min_value=-(10**30), max_value=10**30).map(str)
    | st.text(alphabet="0123456789.-+eE/nai ", max_size=6)
)
INDEX = st.integers(-6, 8).map(str)
OBJ_LINE = (
    st.tuples(FIELD, FIELD, FIELD).map(lambda f: " ".join(["v", *f]))
    | st.lists(INDEX, min_size=3, max_size=4).map(lambda f: " ".join(["f", *f]))
    | st.tuples(st.sampled_from("vf"), st.lists(FIELD | INDEX, max_size=5)).map(
        lambda t: " ".join([t[0], *t[1]])
    )
    | st.text(max_size=12)
)
TETRAHEDRON = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n"


@given(
    content=st.lists(OBJ_LINE, max_size=10).map("\n".join)
    | st.lists(OBJ_LINE, max_size=4).map(lambda lines: TETRAHEDRON + "\n".join(lines))
    | st.binary(max_size=40)
)
@example(content="v 1.0 6.0 2.9961552247705263e+307\nf 1 1 1")  # volume overflows to NaN
# the tetrahedron at 1e200 m: its determinants overflow
@example(content="v 0 0 0\nv 1e200 0 0\nv 0 1e200 0\nv 0 0 1e200\n" + TETRAHEDRON[TETRAHEDRON.index("f"):])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_any_obj_file_exits_cleanly(tmp_path, capsys, content):
    mesh_path = tmp_path / "mesh.obj"
    if isinstance(content, bytes):
        mesh_path.write_bytes(content)
    else:
        mesh_path.write_text(content, encoding="utf-8")
    capsys.readouterr()
    code = main(["mesh-info", "--mesh", str(mesh_path)])
    _assert_clean_exit(code, *capsys.readouterr())


SERIES_ROW = st.tuples(FIELD, FIELD).map(",".join) | st.text(max_size=12)
# a header, rows of positive numbers, then a few arbitrary rows
SERIES_CSV = (
    st.tuples(
        st.sampled_from(["force_N,depth_m", "force_N, depth_m", ""]),
        st.lists(st.tuples(POSITIVE, POSITIVE).map(",".join), min_size=3, max_size=5),
        st.lists(SERIES_ROW, max_size=2),
    ).map(lambda doc: "\n".join([doc[0], *doc[1], *doc[2]]))
    | st.text(max_size=40)
    | st.binary(max_size=40)
)


@given(content=SERIES_CSV)
@example(content="force_N,depth_m\n1e300,0.005\n1e300,0.01\n1e300,0.015\n")
# depth squares overflow / underflow
@example(content="force_N,depth_m\n1,1e200\n2,2e200\n3,3e200\n")
@example(content="force_N,depth_m\n1,1e-306\n2,2e-306\n3,3e-306\n")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_any_series_file_exits_cleanly(tmp_path, capsys, content):
    # the fuzzed series is calibrated next to a good one and estimated with
    # a good calibration
    series = tmp_path / "series.csv"
    if isinstance(content, bytes):
        series.write_bytes(content)
    else:
        series.write_text(content, encoding="utf-8")
    good = tmp_path / "good.csv"
    if not good.exists():
        write_series(good, 2000.0)
        write_calibration(tmp_path)
    fuzz_cal = tmp_path / "fuzz_calibration.json"
    capsys.readouterr()
    code = main(
        [
            "calibrate",
            "--series", str(series), "--pressure", "800",
            "--series", str(good), "--pressure", "2000",
            "--radius", str(R), "--thickness", str(H),
            "--out", str(fuzz_cal),
        ]
    )
    _assert_clean_exit(code, fuzz_cal.read_text() if code == 0 else None, capsys.readouterr().err)
    code = main(
        [
            "estimate",
            "--series", str(series), "--calibration", str(tmp_path / "calibration.json"),
            "--radius", str(R), "--thickness", str(H), "--wrinkles", "8",
        ]
    )
    _assert_clean_exit(code, *capsys.readouterr())


# an argv number: ordinary, huge, tiny, zero, negative, infinite or NaN
ARG_FLOAT = (st.floats(min_value=1e-4, max_value=1e7) | st.floats()).map(repr)
# --nu left out (the default), inside (0, 0.5) or any argv number
ARG_NU = st.none() | st.floats(min_value=0.0, max_value=0.5).map(repr) | ARG_FLOAT


def _argv_options(values):
    """["--name=value", ...] for the drawn values that are not None; the =
    form keeps argparse from reading a negative number as an option."""
    return [f"--{name}={value}" for name, value in values.items() if value is not None]


@given(
    values=st.fixed_dictionaries(
        {
            "radius": ARG_FLOAT,
            "thickness": ARG_FLOAT,
            "modulus": ARG_FLOAT,
            "pressure": ARG_FLOAT,
            "nu": ARG_NU,
        }
    )
)
@example(values={"radius": "0.13", "thickness": "1e120", "modulus": "2e6", "pressure": "1300", "nu": None})
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_any_solve_shell_numbers_exit_cleanly(tmp_path, capsys, values):
    # no --W0 and no --critical: only the parameters and tau are computed
    capsys.readouterr()
    code = main(["solve-shell", *_argv_options(values), "--out", str(tmp_path / "shell")])
    assert code in (0, 2)
    _assert_clean_exit(code, *capsys.readouterr())


@given(
    values=st.fixed_dictionaries(
        {
            "radius": ARG_FLOAT,
            "thickness": ARG_FLOAT,
            "wrinkles": st.integers(1, 40) | st.integers(min_value=-(10**400), max_value=10**400),
            "nu": ARG_NU,
        }
    )
)
@example(values={"radius": "1e100", "thickness": "1e-100", "wrinkles": 8, "nu": None})
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_any_estimate_numbers_exit_cleanly(tmp_path, capsys, values):
    target = tmp_path / "target.csv"
    if not target.exists():
        write_series(target, 1300.0)
        write_calibration(tmp_path)
    capsys.readouterr()
    code = main(
        [
            "estimate",
            "--series", str(target), "--calibration", str(tmp_path / "calibration.json"),
            *_argv_options(values),
        ]
    )
    assert code in (0, 2)
    _assert_clean_exit(code, *capsys.readouterr())


@given(pressures=st.tuples(ARG_FLOAT, ARG_FLOAT))
@example(pressures=("inf", "2000.0"))
@example(pressures=("nan", "2000.0"))
@example(pressures=("-800.0", "2000.0"))
@example(pressures=("5e-324", "2000.0"))
@example(pressures=("800.0", "1e308"))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_any_calibrate_pressures_exit_cleanly(tmp_path, capsys, pressures):
    series = [tmp_path / "a.csv", tmp_path / "b.csv"]
    if not series[0].exists():
        write_series(series[0], 800.0)
        write_series(series[1], 2000.0)
    capsys.readouterr()
    code = main(
        [
            "calibrate",
            "--series", str(series[0]), f"--pressure={pressures[0]}",
            "--series", str(series[1]), f"--pressure={pressures[1]}",
            "--radius", str(R), "--thickness", str(H), "--out", str(tmp_path / "cal.json"),
        ]
    )
    assert code in (0, 2)
    _assert_clean_exit(code, None, capsys.readouterr().err)


# a seed vertex of the 642-vertex icosphere: in range, negative or huge
SEED_VERTEX = st.integers(0, 641) | st.integers(-(10**30), -1) | st.integers(642, 10**30)
# a patch radius for an R = 0.13 m sphere: ordinary or any argv number
PATCH_RADIUS = st.floats(min_value=1e-3, max_value=1.0) | st.floats()


@given(seed_vertex=SEED_VERTEX, patch_radius=PATCH_RADIUS)
@example(seed_vertex=-1, patch_radius=0.05)
@example(seed_vertex=10**30, patch_radius=0.05)
@example(seed_vertex=0, patch_radius=0.0)
@example(seed_vertex=0, patch_radius=-0.05)
@example(seed_vertex=0, patch_radius=math.nan)
@example(seed_vertex=0, patch_radius=math.inf)
@example(seed_vertex=0, patch_radius=5e-324)
@example(seed_vertex=0, patch_radius=1e308)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_any_mesh_patch_argv_exits_cleanly(tmp_path, capsys, seed_vertex, patch_radius):
    # one scan for every example: after the first call each load is a
    # cache hit, and the cached mesh carries its edge graph along
    mesh_path = tmp_path / "ball.obj"
    target = tmp_path / "target.csv"
    if not mesh_path.exists():
        save_mesh(icosphere(radius=R, subdivisions=3), mesh_path)
        write_series(target, 1300.0)
        write_calibration(tmp_path)
    capsys.readouterr()
    code = main(
        [
            "estimate",
            "--series", str(target), "--calibration", str(tmp_path / "calibration.json"),
            "--mesh", str(mesh_path), f"--seed-vertex={seed_vertex}",
            f"--patch-radius={patch_radius!r}", "--thickness", str(H), "--wrinkles", "8",
        ]
    )
    _assert_clean_exit(code, *capsys.readouterr())


class TestSolveShell:
    BASE = [
        "solve-shell",
        "--radius", str(R), "--thickness", str(H),
        "--modulus", "2.3e6", "--pressure", "1300",
    ]

    def test_zero_depth_profile_is_flat(self, tmp_path):
        code = main(self.BASE + ["--W0", "0", "--out", str(tmp_path)])
        assert code == 0
        data = np.loadtxt(tmp_path / "profile.csv", delimiter=",", skiprows=1)
        assert np.abs(data[:, 1]).max() < 1e-6  # W column
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["force"] == 0.0
        assert diag["annulus"] is None
        assert (diag["bvp_solves"], diag["bvp_iterations"], diag["max_nodes"]) == (0, 0, 0)
        assert diag["n_predicted"] == 9
        assert diag["tau"] == pytest.approx(41.0, abs=0.5)

    def test_deep_profile_reports_annulus(self, tmp_path):
        code = main(self.BASE + ["--W0", "-4", "--out", str(tmp_path)])
        assert code == 0
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        lo, hi = diag["annulus"]
        assert 0 < lo < hi
        assert diag["force"] > 0
        assert diag["force_N"] == pytest.approx(
            diag["force"] * 1300.0 * (1300.0 * R**3 / (2.3e6 * H)), rel=1e-9
        )
        # the solver's work: one or more solves, the final mesh written out
        rows = len(np.loadtxt(tmp_path / "profile.csv", delimiter=",", skiprows=1))
        assert 1 <= diag["bvp_solves"] <= diag["bvp_iterations"]
        assert diag["max_nodes"] >= rows

    def test_critical_is_the_membrane_onset_for_both_systems(self, tmp_path):
        onsets = []
        for system in ([], ["--full"]):
            out = tmp_path / ("full" if system else "membrane")
            assert main(self.BASE + [*system, "--critical", "--out", str(out)]) == 0
            onsets.append(json.loads((out / "diagnostics.json").read_text())["critical_W0"])
        assert onsets[0] == onsets[1]
        assert onsets[0] == pytest.approx(-2.5306, abs=1e-4)

    def test_positive_depth_rejected(self, tmp_path):
        code = main(self.BASE + ["--W0", "1.5", "--out", str(tmp_path)])
        assert code == 2

    def test_nan_depth_rejected(self, tmp_path, capsys):
        code = main(self.BASE + ["--W0", "nan", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("W0", ["-100.5", "-1000", "-1e300"])
    def test_depth_beyond_the_bound_rejected_at_once(self, tmp_path, capsys, W0):
        start = time.perf_counter()
        code = main(self.BASE + [f"--W0={W0}", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "above the bound 100 = (RHO_INF / 3)^2" in err
        assert not (tmp_path / "profile.csv").exists()

    @pytest.mark.parametrize("critical", [False, True], ids=["", "critical"])
    @pytest.mark.parametrize("W0", ["nan", "inf", "-inf", "0.5", "-100.5", "-1e300"])
    def test_refused_depth_exits_before_any_solve_or_output(
        self, tmp_path, capsys, monkeypatch, W0, critical
    ):
        def no_search(params):
            raise AssertionError("the onset search ran")

        monkeypatch.setattr(cli, "critical_depth", no_search)
        monkeypatch.setattr(shell, "solve_bvp", None)
        out = tmp_path / "shell"
        code = main(self.BASE + [f"--W0={W0}", *(["--critical"] * critical), "--out", str(out)])
        assert code == 2
        _assert_clean_exit(code, *capsys.readouterr())
        assert not out.exists()

    def test_failed_collocation_solve_exits_3(self, tmp_path, capsys, monkeypatch):
        # every solve reports a nonzero status: the step halves down to its
        # floor and the continuation gives up
        solve = shell.solve_bvp

        def failing(*args, **kwargs):
            sol = solve(*args, **kwargs)
            sol.status, sol.message = 1, "forced failure"
            return sol

        monkeypatch.setattr(shell, "solve_bvp", failing)
        code = main(self.BASE + ["--W0=-1", "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == "error: BVP solver failed at W0=-0.001953125 (forced failure)\n"
        assert not (tmp_path / "profile.csv").exists()

    def test_onset_search_without_a_sign_change_exits_3(self, tmp_path, capsys, monkeypatch):
        # a continuation that never leaves the unindented state: its hoop
        # stress is 1/2 everywhere, at W0 = 0 and at -6 alike
        monkeypatch.setattr(shell._ContinuationState, "continue_to", lambda self, W0: None)
        code = main(self.BASE + ["--critical", "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr() == ("", "error: no compressive hoop stress found down to W0 = -6\n")
        assert not (tmp_path / "out").exists()


def _mostly(ordinary, other, one_in=8):
    """ordinary, or other in about one draw in one_in, so that most drawn
    scenarios get past the parser and run."""
    # drawn integers favour the ends of their range: other takes a middle one
    return st.integers(1, one_in).flatmap(lambda i: other if i == one_in // 2 else ordinary)


# a scenario number: ordinary for its key, else any JSON number (NaN, inf,
# zero, negative, huge ints) or other JSON value
def _scenario_number(ordinary):
    return _mostly(ordinary, NUMBERS | JSON_VALUES)


def _vector(ordinary):
    return _mostly(
        st.lists(ordinary, min_size=3, max_size=3),
        st.lists(NUMBERS, min_size=3, max_size=3) | JSON_VALUES,
    )


_MATERIAL_KEYS = ("E", "nu", "h", "density", "Pg0")
SCENARIO_MATERIAL = _mostly(
    st.fixed_dictionaries(
        {
            "E": _scenario_number(st.floats(1e6, 1e8)),
            "nu": _scenario_number(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
            "h": _scenario_number(st.floats(5e-4, 5e-3)),
            "density": _scenario_number(st.floats(100.0, 1e4)),
            "Pg0": _scenario_number(st.floats(100.0, 3000.0)),
        },
        optional={
            "gas_model": _mostly(
                st.sampled_from(["constant_pressure", "isothermal"]),
                st.just("adiabatic") | JSON_VALUES,
            )
        },
    ),
    # keys missing or unknown, or not an object
    st.dictionaries(st.sampled_from([*_MATERIAL_KEYS, "colour"]), NUMBERS) | JSON_VALUES,
)
# none, one or two planes through or near the R = 0.13 m ball centred at
# the origin (a drawn size, as drawn lists are mostly empty)
SCENARIO_PLANE = _mostly(
    st.fixed_dictionaries(
        {
            "point": _vector(st.floats(-0.2, 0.2)),
            # drawn floats favour 0.0; a zero normal is refused, so keep off it
            "normal": _vector(st.floats(0.05, 1.0) | st.floats(-1.0, -0.05)),
        }
    ),
    st.dictionaries(st.sampled_from(["point", "normal", "mu"]), JSON_VALUES) | JSON_VALUES,
)
SCENARIO_PLANES = _mostly(
    st.integers(0, 2).flatmap(lambda n: st.lists(SCENARIO_PLANE, min_size=n, max_size=n)),
    JSON_VALUES,
)
# few and shallow levels: each level is an energy minimisation, and
# the level count has no cap
SCENARIO_INDENT = _mostly(
    st.fixed_dictionaries(
        {
            # vertex 25 is the top of the ball, where the default axis enters
            "vertex": _mostly(
                st.just(25), st.integers(0, 41) | st.integers(-(10**30), 10**30) | JSON_VALUES
            ),
            "target_depth": _scenario_number(st.floats(1e-3, 0.03)),
        },
        optional={
            "levels": _mostly(st.integers(3, 4), st.integers(-1, 2) | st.floats() | JSON_SCALARS),
            "axis": _vector(st.floats(-1.0, 1.0)),
            "speed": JSON_VALUES,
        },
    ),
    st.dictionaries(st.sampled_from(["vertex", "target_depth", "lvels"]), JSON_VALUES) | JSON_VALUES,
)
SCENARIO = _mostly(
    st.tuples(
        st.fixed_dictionaries(
            {"material": SCENARIO_MATERIAL, "planes": SCENARIO_PLANES},
            optional={
                "gravity": _vector(st.floats(-20.0, 20.0)),
                "restitution": _scenario_number(st.floats(0.0, 1.0, exclude_min=True)),
                "dt": _scenario_number(st.floats(1e-5, 1e-3)),
                "duration": _scenario_number(st.floats(0.0, 5e-3)),
            },
        ),
        # an indent block in about one scenario in four, with no planes: the
        # parser refuses planes beside an indent before the mesh is read
        _mostly(st.none(), SCENARIO_INDENT, one_in=4),
    ).map(lambda drawn: drawn[0] if drawn[1] is None else {
        **{key: value for key, value in drawn[0].items() if key != "planes"}, "indent": drawn[1]}),
    # material missing, an unknown key, or not an object
    st.dictionaries(st.sampled_from(["material", "gravity", "duraton"]), JSON_VALUES) | JSON_VALUES,
)
MAX_FUZZ_STEPS = 50


def _finite_number(value):
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _short_run(data):
    """data with a numeric duration cut to at most MAX_FUZZ_STEPS steps of dt
    (both at their defaults when absent)."""
    if isinstance(data, dict):
        dt, duration = data.get("dt", 1e-4), data.get("duration", 1.0)
        if _finite_number(dt) and _finite_number(duration) and 0 < MAX_FUZZ_STEPS * dt < duration:
            return {**data, "duration": MAX_FUZZ_STEPS * dt}
    return data


def _material(**values):
    return {"E": 1e5, "nu": 0.25, "h": 0.0078125, "density": 100.0, "Pg0": 100.0, **values}


@given(data=SCENARIO.map(_short_run))
# a normal whose norm overflows
@example(data={"material": _material(), "duration": 0.005,
               "planes": [{"point": [0, 0, 0], "normal": [0, 0, 1.3407807929942597e154]}]})
# a finite state whose kinetic energy overflows
@example(data={"material": _material(density=3193.0), "duration": 0.005,
               "gravity": [0, 0, 6.045890040829583e157]})
# so stiff that the prestretch lies within 1e-12 of 1
@example(data={"material": _material(E=5.964296096383e14), "duration": 0.005})
# masses that underflow to zero, membrane forces that overflow at init
@example(data={"material": _material(density=5e-324, Pg0=1.0), "duration": 0.005})
@example(data={"material": _material(h=4.232079652783969e301, Pg0=1.0), "duration": 0.005})
# a step far above the stable one: the state blows up
@example(data={"material": _material(E=74355273.75, nu=1e-4, h=1e-4, density=2), "duration": 0.005})
# a load so heavy that the minimiser's trial points overflow
@example(data={"material": _material(E=169126.0, nu=0.125, density=2.2943298603487948e16),
               "indent": {"vertex": 25, "target_depth": 0.015625}})
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_any_scenario_file_exits_cleanly(tmp_path, capsys, data):
    # one 42-vertex ball for every example
    mesh_path = tmp_path / "ball.obj"
    if not mesh_path.exists():
        save_mesh(icosphere(radius=R, subdivisions=1), mesh_path)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    code = main(
        ["simulate", "--scenario", str(scenario), "--mesh", str(mesh_path), "--out", str(tmp_path / "out")]
    )
    assert code in (0, 2, 3)
    _assert_clean_exit(code, None, capsys.readouterr().err)


class TestSimulate:
    def scenario(self, tmp_path, extra=None):
        data = {
            "material": {"E": 2.3e6, "nu": 0.4, "h": 1e-3, "density": 1000.0, "Pg0": 1300.0},
            "gravity": [0.0, 0.0, -9.81],
            "duration": 0.01,
            "dt": 1e-4,
        }
        if extra:
            data.update(extra)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    def test_trajectory_output(self, tmp_path, capsys):
        mesh_path = tmp_path / "ball.obj"
        save_mesh(icosphere(radius=0.13, subdivisions=1), mesh_path)
        code = main(
            [
                "simulate",
                "--scenario", str(self.scenario(tmp_path)),
                "--mesh", str(mesh_path),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "time_s,cx_m,cy_m,cz_m,volume_m3,Pg_pa,kinetic_J"
        assert len(lines) > 10
        # re-parseable numbers, monotonically increasing time
        times = [float(l.split(",")[0]) for l in lines[1:]]
        assert times == sorted(times)

    def test_bad_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "scenario.json"
        bad.write_text('{\n  "material": {,}\n}\n')
        mesh_path = tmp_path / "ball.obj"
        save_mesh(icosphere(radius=0.13, subdivisions=1), mesh_path)
        code = main(
            ["simulate", "--scenario", str(bad), "--mesh", str(mesh_path), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "scenario.json:2" in capsys.readouterr().err

    def test_open_mesh_rejected(self, tmp_path):
        mesh = icosphere(radius=0.13, subdivisions=1)
        open_mesh = TriMesh(vertices=mesh.vertices, faces=mesh.faces[:-1])
        mesh_path = tmp_path / "open.obj"
        save_mesh(open_mesh, mesh_path)
        code = main(
            [
                "simulate",
                "--scenario", str(self.scenario(tmp_path)),
                "--mesh", str(mesh_path),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2


    MATERIAL = {"E": 2.3e6, "nu": 0.4, "h": 1e-3, "density": 1000.0, "Pg0": 1300.0}

    @pytest.mark.parametrize(
        "data",
        [
            [{"material": MATERIAL}],
            {"material": {**MATERIAL, "colour": "red"}},
            {"material": MATERIAL, "indent": {"vertex": 0}},
            {"material": MATERIAL, "indent": {"target_depth": 0.01}},
            {"material": {**MATERIAL, "E": "inf"}},
            {"material": MATERIAL, "duration": -1},
            {"material": {**MATERIAL, "E": math.inf}},
            {"material": MATERIAL, "gravity": [0.0, 0.0, math.nan]},
            {"material": MATERIAL, "duraton": 0.5},
            {"material": MATERIAL, "indent": {"vertex": 0, "target_depth": 0.01, "lvels": 3}},
            {"material": MATERIAL, "planes": [{"point": [0, 0, 0], "normal": [0, 0, 1], "mu": 0.3}]},
            {"material": MATERIAL, "dt": 5e-324, "duration": 1.0},
            {"material": MATERIAL, "dt": 1e-300, "duration": 1.0},
            {"material": MATERIAL, "indent": {"vertex": 42, "target_depth": 0.01, "levels": 3}},
            {"material": MATERIAL, "indent": {"vertex": 0, "target_depth": 0.01, "levels": 2}},
            {"material": MATERIAL, "indent": {"vertex": 0, "target_depth": 0.01, "levels": 100000}},
            {"material": MATERIAL, "indent": {"vertex": 0, "target_depth": 100}},
            # vertex 28 is the bottom of the 42-vertex ball, inside the
            # support cap opposite the default axis (0, 0, -1)
            {"material": MATERIAL, "indent": {"vertex": 28, "target_depth": 0.01, "levels": 3}},
            {"material": MATERIAL, "indent": {"vertex": 0, "target_depth": 0.01},
             "planes": [{"point": [0, 0, -0.13], "normal": [0, 0, 1]}]},
            LONG_INTEGER_SCENARIO,
            DEEP_JSON,
        ],
        ids=[
            "top-level-list",
            "unknown-material-key",
            "indent-without-target-depth",
            "indent-without-vertex",
            "string-modulus",
            "negative-duration",
            "infinite-modulus",
            "nan-gravity",
            "unknown-top-level-key",
            "unknown-indent-key",
            "unknown-plane-key",
            "step-count-overflows",
            "step-count-above-cap",
            "indent-vertex-out-of-range",
            "two-levels",
            "levels-above-cap",
            "derived-levels-above-cap",
            "indent-vertex-in-support-cap",
            "indent-with-planes",
            "modulus-of-5001-digits",
            "nested-200000-deep",
        ],
    )
    def test_malformed_scenario_is_validation_error(self, tmp_path, capsys, data):
        path = tmp_path / "scenario.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        mesh_path = tmp_path / "ball.obj"
        save_mesh(icosphere(radius=0.13, subdivisions=1), mesh_path)
        code = main(
            ["simulate", "--scenario", str(path), "--mesh", str(mesh_path), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_inward_oriented_mesh_rejected(self, tmp_path, capsys):
        mesh = icosphere(radius=0.13, subdivisions=1)
        mesh_path = tmp_path / "inward.obj"
        save_mesh(TriMesh(vertices=mesh.vertices, faces=mesh.faces[:, ::-1]), mesh_path)
        code = main(
            [
                "simulate",
                "--scenario", str(self.scenario(tmp_path)),
                "--mesh", str(mesh_path),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: mesh volume must be positive (outward-oriented faces)\n"

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"indent": {"vertex": 0, "target_depth": 0.01},
              "planes": [{"point": [0, 0, -0.13], "normal": [0, 0, 1]}]},
             "the support is a pinned cap; planes are not supported"),
            # dynamic runs have no viscous drag; a damping rate would change the physics
            ({"damping": 5.0}, "unknown scenario JSON keys ['damping']"),
            ({"indent": {"vertex": 25, "target_depth": -1}},
             "target_depth must be finite and > 0, got -1"),
            ({"indent": {"vertex": 25, "target_depth": 0.01, "levels": 2}},
             "levels must be in [3, inf], got 2"),
            ({"indent": {"vertex": 25, "target_depth": 0.01, "levels": 2.5}},
             "levels must be an integer, got 2.5"),
            # the default level count, one per 5 mm, is above the cap
            ({"indent": {"vertex": 25, "target_depth": 100}},
             "20000 depth levels, above the cap of 1,000"),
        ],
        ids=["indent-with-planes", "damping", "negative-depth", "two-levels", "fractional-levels",
             "default-levels-above-cap"],
    )
    @pytest.mark.parametrize("present", [True, False], ids=["mesh", "absent-mesh"])
    def test_scenario_refused_before_the_mesh_is_read(self, tmp_path, capsys, present, extra, message):
        path = self.scenario(tmp_path, extra)
        mesh_path = tmp_path / "ball.obj"
        if present:
            save_mesh(icosphere(radius=0.13, subdivisions=1), mesh_path)
        code = main(
            ["simulate", "--scenario", str(path), "--mesh", str(mesh_path),
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_indent_ignores_dt_and_duration(self, tmp_path):
        # dt and duration would be refused for a dynamic run
        mesh = icosphere(radius=0.13, subdivisions=1)
        mesh_path = tmp_path / "ball.obj"
        save_mesh(mesh, mesh_path)
        top = int(np.argmax(mesh.vertices[:, 2]))
        extra = {"indent": {"vertex": top, "target_depth": 0.01, "levels": 3}, "dt": 5e-324}
        code = main(
            [
                "simulate",
                "--scenario", str(self.scenario(tmp_path, extra)),
                "--mesh", str(mesh_path),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0

    def test_indent_speed_is_accepted_and_ignored(self, tmp_path):
        mesh = icosphere(radius=0.13, subdivisions=1)
        mesh_path = tmp_path / "ball.obj"
        save_mesh(mesh, mesh_path)
        top = int(np.argmax(mesh.vertices[:, 2]))
        indent = {"vertex": top, "target_depth": 0.01, "levels": 3, "speed": 0.01}
        code = main(
            [
                "simulate",
                "--scenario", str(self.scenario(tmp_path, {"indent": indent})),
                "--mesh", str(mesh_path),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert len((tmp_path / "out" / "series.csv").read_text().splitlines()) == 4


class TestMeshInfo:
    def test_watertight_sphere(self, tmp_path, capsys):
        mesh_path = tmp_path / "ball.obj"
        save_mesh(icosphere(radius=1.0, subdivisions=3), mesh_path)
        assert main(["mesh-info", "--mesh", str(mesh_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["watertight"] is True
        assert info["n_boundary_edges"] == 0
        assert info["volume_m3"] == pytest.approx(4 * math.pi / 3, rel=0.01)
        assert info["equivalent_radius_m"] == pytest.approx(1.0, rel=0.01)

    def test_open_mesh_reports_boundary(self, tmp_path, capsys):
        mesh = icosphere(radius=1.0, subdivisions=1)
        mesh_path = tmp_path / "open.obj"
        save_mesh(TriMesh(vertices=mesh.vertices, faces=mesh.faces[:-1]), mesh_path)
        assert main(["mesh-info", "--mesh", str(mesh_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["watertight"] is False
        assert info["n_boundary_edges"] == 3
        assert "volume_m3" not in info

    def test_nan_vertex_is_validation_error(self, tmp_path, capsys):
        mesh_path = tmp_path / "tet.obj"
        mesh_path.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 nan 0\nv 0 0 1\nf 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n"
        )
        assert main(["mesh-info", "--mesh", str(mesh_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    def test_non_utf8_mesh_is_validation_error(self, tmp_path, capsys):
        mesh_path = tmp_path / "binary.obj"
        mesh_path.write_bytes(b"\xff\xfe\x00v 0 0 0\n")
        assert main(["mesh-info", "--mesh", str(mesh_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_mesh_is_io_error(self, tmp_path):
        assert main(["mesh-info", "--mesh", str(tmp_path / "nope.obj")]) == 1

    def test_bad_record_in_the_second_block_names_its_line(self, tmp_path, capsys):
        lines = [f"v {k} 0 1" for k in range(5000)]
        lines[4300] = "v 0 z 1"
        assert geometry.SAVE_BLOCK_ROWS < 4301 <= 2 * geometry.SAVE_BLOCK_ROWS
        mesh_path = tmp_path / "second_block.obj"
        mesh_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["mesh-info", "--mesh", str(mesh_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {mesh_path}:4301: non-numeric vertex\n")


# every error class of inflatekit.errors, each exiting with its exit_code
ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.InflatekitError)
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_exits_with_the_code_in_the_readme_table(tmp_path, capsys, monkeypatch, cls):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {name: int(code) for name, code in re.findall(r"^\| `(\w+)` \| (\d) \|", readme, re.M)}
    assert set(table) == {c.__name__ for c in ERROR_CLASSES}

    def failing(path):
        raise cls("forced")

    monkeypatch.setattr(cli, "load_mesh", failing)
    code = main(["mesh-info", "--mesh", str(tmp_path / "ball.obj")])
    assert code == cls.exit_code == table[cls.__name__]
    assert capsys.readouterr().err == "error: forced\n"


class TestParserReuse:
    def test_one_process_matches_fresh_processes(self, tmp_path, capsys):
        # the parser is built once per process: an accepted command, a
        # rejected argv and a command with repeated options give the same
        # output and exit code in sequence as each does in a new process
        cal_path = write_calibration(tmp_path)
        target = write_series(tmp_path / "target.csv", 1300.0)
        s800 = write_series(tmp_path / "c800.csv", 800.0)
        s2000 = write_series(tmp_path / "c2000.csv", 2000.0)
        out_path = tmp_path / "cal_again.json"
        argvs = [
            ["estimate", "--series", str(target), "--calibration", str(cal_path),
             "--radius", str(R), "--thickness", str(H), "--wrinkles", "8"],
            ["estimate", "--series", str(target), "--thickness", "thin"],
            ["calibrate", "--series", str(s800), "--pressure", "800",
             "--series", str(s2000), "--pressure", "2000",
             "--radius", str(R), "--thickness", str(H), "--out", str(out_path)],
        ]
        capsys.readouterr()
        in_process = []
        for argv in argvs + argvs[2:]:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            written = out_path.read_text() if out_path.exists() else None
            in_process.append((code, out, err, written))
        assert [run[0] for run in in_process] == [0, 2, 0, 0]
        # the repeated --series of the second calibrate did not add to the first
        assert in_process[3] == in_process[2]
        assert len(json.loads(in_process[3][3])["records"]) == 2
        for argv, run in zip(argvs, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "inflatekit.cli", *argv],
                capture_output=True, text=True, timeout=120,
            )
            assert (fresh.returncode, fresh.stdout, fresh.stderr) == run[:3]


def test_no_command_loads_scipy(tmp_path):
    # a fresh process: the field commands, both kinds of simulate and
    # solve-shell (a profile, the onset search and the full system) leave
    # every scipy module unloaded
    ball = icosphere(radius=R, subdivisions=2)
    save_mesh(ball, tmp_path / "ball.obj")
    save_mesh(ball.with_vertices(ball.vertices + [0.0, 0.0, R + 0.005]), tmp_path / "drop.obj")
    material = {"E": 2.3e6, "nu": 0.4, "h": 1e-3, "density": 1000.0, "Pg0": 1300.0}
    (tmp_path / "drop.json").write_text(json.dumps({
        "material": material, "planes": [{"point": [0, 0, 0], "normal": [0, 0, 1]}],
        "restitution": 0.75, "dt": 1e-4, "duration": 0.01,
    }))
    top = int(np.argmax(ball.vertices[:, 2]))
    (tmp_path / "indent.json").write_text(json.dumps({
        "material": material, "gravity": [0, 0, 0],
        "indent": {"vertex": top, "target_depth": 0.01, "levels": 3},
    }))
    series = write_series(tmp_path / "target.csv", 1300.0)
    calibration = write_calibration(tmp_path)
    commands = [
        ["mesh-info", "--mesh", f"{tmp_path}/ball.obj"],
        ["estimate", "--series", str(series), "--calibration", str(calibration),
         "--mesh", f"{tmp_path}/ball.obj", "--seed-vertex", "0", "--patch-radius", "0.08",
         "--thickness", str(H), "--wrinkles", "8"],
        ["calibrate", "--series", str(write_series(tmp_path / "c800.csv", 800.0)),
         "--pressure", "800", "--series", str(write_series(tmp_path / "c2000.csv", 2000.0)),
         "--pressure", "2000", "--radius", str(R), "--thickness", str(H),
         "--out", f"{tmp_path}/calibration_again.json"],
        ["simulate", "--scenario", f"{tmp_path}/drop.json", "--mesh", f"{tmp_path}/drop.obj",
         "--out", f"{tmp_path}/drop"],
        ["simulate", "--scenario", f"{tmp_path}/indent.json", "--mesh", f"{tmp_path}/ball.obj",
         "--out", f"{tmp_path}/indent"],
    ]
    shell = ["solve-shell", "--radius", str(R), "--thickness", str(H), "--modulus", "2.3e6",
             "--pressure", "1300"]
    commands += [
        [*shell, "--W0=-0.25", "--out", f"{tmp_path}/shallow"],
        [*shell, "--critical", "--out", f"{tmp_path}/onset"],
        [*shell, "--full", "--W0=-0.25", "--critical", "--out", f"{tmp_path}/full"],
    ]
    script = textwrap.dedent("""
        import json, sys
        from inflatekit import cli

        def loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        assert not loaded(), loaded()
        for argv in json.loads(sys.argv[1]):
            assert cli.main(argv) == 0, argv
            assert not loaded(), (argv[0], loaded())
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # -W error::RuntimeWarning: no command may warn on its way to exit 0
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script,
                          json.dumps(commands)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "indent" / "series.csv").exists()
    assert (tmp_path / "drop" / "trajectory.csv").exists()
    assert json.loads((tmp_path / "full" / "diagnostics.json").read_text())["critical_W0"] < 0


def test_solve_shell_runs_where_scipy_cannot_be_imported(tmp_path, capsys):
    # a fresh process in which every scipy import fails, as on an install
    # without scipy: the onset search exits 0 and prints what it prints here
    argv = ["solve-shell", "--radius", str(R), "--thickness", str(H), "--modulus", "2.3e6",
            "--pressure", "1300", "--W0=-1", "--critical", "--out", str(tmp_path / "here")]
    assert main(argv) == 0
    here = capsys.readouterr().out
    script = textwrap.dedent("""
        import sys

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError(f"no module named {name!r}")
                return None

        sys.meta_path.insert(0, NoScipy())
        from inflatekit import cli
        sys.exit(cli.main(sys.argv[1:]))
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script,
                          *argv[:-1], str(tmp_path / "fresh")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == here
