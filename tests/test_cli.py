"""End-to-end tests of the command-line interface (in-process)."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from inflatekit.cli import main
from inflatekit.geometry import TriMesh, icosphere, save_mesh
from inflatekit.measurement import IndentationSample, IndentationSeries, serialize_series

KS = 0.64
R = 0.13
H = 8.6e-4


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
        # forces near 1e300 N overflow the squared residuals: fit_r2 is NaN,
        # which must not be written as the non-standard JSON constant NaN
        huge = tmp_path / "huge.csv"
        huge.write_text("force_N,depth_m\n1e300,0.005\n1e300,0.01\n1e300,0.015\n")
        s2000 = write_series(tmp_path / "b.csv", 2000.0)
        cal_path = tmp_path / "cal.json"
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
        assert capsys.readouterr().err.startswith("error: fit_r2 must be finite")
        assert not cal_path.exists()


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

    def test_mesh_without_seed_vertex(self, tmp_path):
        cal_path = write_calibration(tmp_path)
        target = write_series(tmp_path / "target.csv", 1300.0)
        mesh_path = tmp_path / "ball.obj"
        save_mesh(icosphere(radius=R, subdivisions=2), mesh_path)
        code = main(
            [
                "estimate",
                "--series", str(target), "--calibration", str(cal_path),
                "--mesh", str(mesh_path), "--thickness", str(H), "--wrinkles", "8",
            ]
        )
        assert code == 2

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
        assert capsys.readouterr().err.startswith("error: ")


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
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
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
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
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
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
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
        for system in ("--membrane", "--full"):
            out = tmp_path / system.strip("-")
            assert main(self.BASE + [system, "--critical", "--out", str(out)]) == 0
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
        ],
    )
    def test_malformed_scenario_is_validation_error(self, tmp_path, capsys, data):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        mesh_path = tmp_path / "ball.obj"
        save_mesh(icosphere(radius=0.13, subdivisions=1), mesh_path)
        code = main(
            ["simulate", "--scenario", str(path), "--mesh", str(mesh_path), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

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
