"""Every public constructor and entry point owns its value checks.

Hypothesis draws values of every kind (None, bools, ints far beyond the
float range, nan and infinite floats, short strings, numpy scalars and
short lists of these) for each field of the input types and for each value
argument of the entry points.  A value is either refused with an
InflatekitError or accepted; an accepted number is stored as a float.
"""

import os
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from inflatekit import geometry, simulator
from inflatekit.errors import InflatekitError, ValidationError
from inflatekit.estimator import (
    Calibration,
    CalibrationRecord,
    calibrate_ks,
    estimate_modulus_from_wrinkles,
    estimate_pressure,
    regress_phat,
    run_procedure3,
)
from inflatekit.geometry import (
    SurfacePatch,
    TriMesh,
    enclosed_volume,
    fit_curvature,
    icosphere,
    save_mesh,
    select_patch,
)
from inflatekit.measurement import (
    IndentationSample,
    IndentationSeries,
    restitution_coefficient,
    serialize_series,
)
from inflatekit.shell import (
    ShellParams,
    critical_depth,
    solution_to_csv,
    solve_indentation,
    wrinkle_count,
)
from inflatekit.simulator import (
    Indenter,
    MaterialSpec,
    Plane,
    ScenarioConfig,
    indent_virtual,
    init_sim,
    run,
    step,
)

BIG = 10**5000  # str() refuses an int of more than 4300 digits

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-BIG, max_value=BIG)
    | st.floats()
    | st.text(max_size=4)
    | st.floats().map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
VALUES = SCALARS | st.lists(SCALARS, max_size=4)

RECORDS = (CalibrationRecord(800.0, 512.0), CalibrationRecord(2000.0, 1280.0))
VALID = {
    MaterialSpec: dict(E=2.3e6, nu=0.4, h=1e-3, density=1000.0, Pg0=1300.0,
                       gas_model="constant_pressure"),
    Plane: dict(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0)),
    Indenter: dict(vertex=0, axis=(0.0, 0.0, -1.0)),
    ScenarioConfig: dict(gravity=(0.0, 0.0, -9.81), planes=(), restitution=1.0, dt=1e-4,
                         duration=1.0),
    ShellParams: dict(R=0.13, h=8.6e-4, E=2.3e6, nu=0.4, Pg=1300.0),
    CalibrationRecord: dict(measured_Pg=800.0, estimated_Pg_hat=512.0),
    Calibration: dict(ks=0.64, records=RECORDS, fit_r2=1.0),
    IndentationSample: dict(force=1.0, depth=0.01),
}
FIELDS = [(cls, name) for cls, fields in VALID.items() for name in fields]
VECTORS = {"point", "normal", "axis", "gravity"}
OBJECTS = {"gas_model", "planes", "records"}


def build(cls, name, value):
    return cls(**{**VALID[cls], name: value})


@contextmanager
def warnings_as_errors():
    """Every warning an error, as filterwarnings("error") makes it, but only
    around the code under test: hypothesis's report of a failing example
    imports modules that warn on import."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@given(field=st.sampled_from(FIELDS), value=VALUES)
# the inputs of the public-API probe that used to end in an untyped
# exception or be accepted silently
@example(field=(ScenarioConfig, "gravity"), value=(0, 0))
@example(field=(ScenarioConfig, "gravity"), value="abc")
@example(field=(ScenarioConfig, "gravity"), value=(0.0, True, 0.0))
@example(field=(ScenarioConfig, "planes"), value=((0, 0, 1),))
@example(field=(ScenarioConfig, "dt"), value=None)
@example(field=(ScenarioConfig, "duration"), value=10**400)
@example(field=(Plane, "point"), value=(0, 0))
@example(field=(Plane, "point"), value="abc")
@example(field=(Plane, "normal"), value=(0, 1))
@example(field=(Indenter, "axis"), value=(0, 1))
@example(field=(Indenter, "vertex"), value=1.5)
@example(field=(Indenter, "vertex"), value=True)
@example(field=(MaterialSpec, "E"), value="abc")
@example(field=(MaterialSpec, "E"), value=10**400)
@example(field=(MaterialSpec, "E"), value=True)
@example(field=(Calibration, "fit_r2"), value=None)
@example(field=(IndentationSample, "force"), value="1")
@example(field=(ShellParams, "R"), value="a")
@settings(max_examples=300, deadline=None)
def test_constructor_refuses_or_stores_floats(field, value):
    cls, name = field
    try:
        with warnings_as_errors():
            built = build(cls, name, value)
    except InflatekitError:
        return
    stored = getattr(built, name)
    if name in VECTORS:
        assert type(stored) is tuple and len(stored) == 3
        assert all(type(v) in (float, np.float64) for v in stored)
    elif name == "vertex":
        assert type(stored) is int and stored >= 0
    elif name not in OBJECTS:
        assert type(stored) is float


@pytest.mark.parametrize(
    "cls, name, value, message",
    [
        (MaterialSpec, "E", True, "E must be finite and > 0, got True"),
        (ScenarioConfig, "duration", 10**400, "duration must be a finite number, got 100000... (401 digits)"),
        (ScenarioConfig, "gravity", (0.0, True, 0.0), "gravity[1] must be a finite number, got True"),
        (Plane, "point", "abc", "plane point must be 3 numbers, got 'abc'"),
        (ScenarioConfig, "planes", ((0, 0, 1),), "planes must be a sequence of Plane, got a tuple of 1"),
    ],
    ids=["bool-modulus", "huge-duration", "bool-gravity", "string-point", "tuple-as-plane"],
)
def test_refused_value_is_named_in_the_message(cls, name, value, message):
    with pytest.raises(ValidationError) as err:
        build(cls, name, value)
    assert str(err.value) == message


class _Accepted(Exception):
    """Raised in place of the work an entry point starts once its arguments
    are accepted."""


def _accepted(*args, **kwargs):
    raise _Accepted


# built once: each is read only
BALL = icosphere(radius=0.13, subdivisions=1)
STATE = init_sim(BALL, MaterialSpec(**{**VALID[MaterialSpec], "gas_model": "isothermal"}))
SHORT = ScenarioConfig(duration=3e-4)  # three steps


# vertex 25 is the top of the 42-vertex ball, where the default axis
# (0, 0, -1) enters the surface
def _indent(indenter=Indenter(vertex=25), target_depth=0.01, n_levels=3, state=STATE,
            gravity=(0.0, 0.0, 0.0)):
    # the minimisation of the first level would start here
    with mock.patch.object(simulator, "lbfgs", _accepted):
        indent_virtual(state, indenter, target_depth, n_levels, gravity=gravity)


def _run(state=STATE, config=SHORT, observe=None):
    # the first step would be taken here
    with mock.patch.object(simulator, "_advance", _accepted):
        run(state, config, observe)


def test_the_defaults_of_the_refusal_probes_are_accepted():
    # a probe whose own defaults were refused would pass every draw above
    # without ever reaching the work
    for probe in (_indent, _run):
        with pytest.raises(_Accepted):
            probe()


SERIES = IndentationSeries(
    samples=tuple(IndentationSample(force=0.4 * w, depth=w) for w in (0.005, 0.01, 0.015)),
    object_id="ball", region_radius=0.13, region_thickness=8.6e-4,
)


CAL = Calibration(**VALID[Calibration])
PARAMS = ShellParams(**VALID[ShellParams])
UNINDENTED = solve_indentation(PARAMS, 0.0)  # the exact unindented state: no solve


def _patch(**changes):
    # the whole 42-vertex ball, as select_patch returns it for a large radius
    return SurfacePatch(**{"mesh": BALL, "vertex_ids": tuple(range(42)), "seed": 0,
                           "radius_hint": 1.0, **changes})


def _save_mesh(mesh):
    # the file would be opened here
    with mock.patch.object(geometry, "open", _accepted, create=True):
        save_mesh(mesh, os.devnull)


def _icosphere_subdivisions(value):
    # the first level would be built from the icosahedron
    with mock.patch.object(geometry, "icosahedron", _accepted):
        icosphere(1.0, value)


ENTRY_POINTS = {
    "run every": lambda value: run(STATE, SHORT, every=value),
    "indent_virtual target_depth": lambda value: _indent(target_depth=value),
    "indent_virtual n_levels": lambda value: _indent(n_levels=value),
    "indent_virtual vertex": lambda value: _indent(Indenter(vertex=value)),
    "select_patch seed": lambda value: select_patch(BALL, value, 0.1),
    "select_patch radius_hint": lambda value: select_patch(BALL, 0, value),
    "icosphere radius": lambda value: icosphere(value, 0),
    "icosphere subdivisions": _icosphere_subdivisions,
    # object arguments: checked before any step, minimisation or search
    "run state": lambda value: _run(state=value),
    "run config": lambda value: _run(config=value),
    "run observe": lambda value: _run(observe=value),
    "step state": lambda value: step(value, SHORT),
    "step config": lambda value: step(STATE, value),
    "indent_virtual state": lambda value: _indent(state=value),
    "indent_virtual indenter": lambda value: _indent(indenter=value),
    "indent_virtual gravity": lambda value: _indent(gravity=value),
    "init_sim mesh": lambda value: init_sim(value, STATE._model.material),
    "init_sim material": lambda value: init_sim(BALL, value),
    "select_patch mesh": lambda value: select_patch(value, 0, 0.1),
    "SurfacePatch mesh": lambda value: _patch(mesh=value),
    "SurfacePatch vertex_ids": lambda value: _patch(vertex_ids=value),
    "SurfacePatch seed": lambda value: _patch(seed=value),
    "SurfacePatch radius_hint": lambda value: _patch(radius_hint=value),
    "TriMesh vertices": lambda value: TriMesh(vertices=value, faces=[[0, 1, 2]]),
    "TriMesh faces": lambda value: TriMesh(vertices=np.eye(3), faces=value),
    "estimate_modulus_from_wrinkles n": lambda value: estimate_modulus_from_wrinkles(
        R=0.13, h=8.6e-4, n=value, Pg=1300.0
    ),
    "run_procedure3 n": lambda value: run_procedure3(SERIES, CAL, value),
}


@given(argument=st.sampled_from(sorted(ENTRY_POINTS)), value=VALUES)
@example(argument="run every", value=True)
@example(argument="indent_virtual n_levels", value=3.5)
@example(argument="indent_virtual n_levels", value=BIG)
@example(argument="indent_virtual vertex", value=BIG)
@example(argument="indent_virtual vertex", value=1.5)
@example(argument="select_patch seed", value=1.5)
@example(argument="select_patch seed", value=BIG)
@example(argument="select_patch seed", value=-BIG)
@example(argument="icosphere subdivisions", value=BIG)
@example(argument="icosphere subdivisions", value=-BIG)
@example(argument="icosphere subdivisions", value=True)
# the objects of the public-API probe that used to end in an untyped exception
@example(argument="run config", value=None)
@example(argument="run observe", value=5)
@example(argument="TriMesh vertices", value="abc")
@example(argument="TriMesh faces", value=None)
@example(argument="estimate_modulus_from_wrinkles n", value="8")
@example(argument="run_procedure3 n", value="8")
@example(argument="estimate_modulus_from_wrinkles n", value=True)
# E is finite, but tau = (n / 1.33)^2 overflows
@example(argument="run_procedure3 n", value=np.float64(1.7832384546823655e154))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_entry_point_refuses_or_accepts(argument, value):
    try:
        with warnings_as_errors():
            ENTRY_POINTS[argument](value)
    except (InflatekitError, _Accepted):
        pass


@pytest.mark.parametrize(
    "argument, value",
    [("run every", True), ("icosphere subdivisions", True), ("indent_virtual vertex", True),
     ("select_patch seed", BIG), ("indent_virtual n_levels", 3.5)],
    ids=["bool-every", "bool-subdivisions", "bool-vertex", "huge-seed", "fractional-levels"],
)
def test_entry_point_refuses_with_a_typed_error(argument, value):
    with pytest.raises(ValidationError):
        ENTRY_POINTS[argument](value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _run(config=None), "config must be a ScenarioConfig, got NoneType"),
        (lambda: _run(observe=5), "observe must be callable or None, got int"),
        (lambda: _run(state=BALL), "state must be a SimState, got TriMesh"),
        (lambda: step(STATE, None), "config must be a ScenarioConfig, got NoneType"),
        (lambda: _indent(state=None), "state must be a SimState, got NoneType"),
        (lambda: _indent(indenter={}), "indenter must be an Indenter, got dict"),
        (lambda: _indent(gravity=(0.0, True, 0.0)), "gravity[1] must be a finite number, got True"),
        (lambda: init_sim(BALL.vertices, STATE._model.material), "mesh must be a TriMesh, got ndarray"),
        (lambda: init_sim(BALL, VALID[MaterialSpec]), "material must be a MaterialSpec, got dict"),
        (lambda: select_patch(None, 0, 0.1), "mesh must be a TriMesh, got NoneType"),
        (lambda: TriMesh(vertices="abc", faces=[[0, 1, 2]]), "vertices must be an array of numbers, got str"),
        (lambda: TriMesh(vertices=np.eye(3), faces=None), "faces must be an array of numbers, got NoneType"),
        (lambda: TriMesh(vertices=[[0, 0], [1]], faces=[[0, 1, 2]]), "vertices must be an array of numbers, got list"),
        (lambda: TriMesh(vertices=np.eye(3), faces=[[True, False, True]]), "faces must be an array of numbers, got list"),
        (lambda: estimate_modulus_from_wrinkles(R=0.13, h=8.6e-4, n="8", Pg=1300.0), "n must be a number >= 1, got '8'"),
        (lambda: estimate_modulus_from_wrinkles(R=0.13, h=8.6e-4, n=True, Pg=1300.0), "n must be a number >= 1, got True"),
        (lambda: run_procedure3(SERIES, CAL, "8"), "n must be a number >= 1, got '8'"),
        (lambda: fit_curvature(None), "patch must be a SurfacePatch, got NoneType"),
        (lambda: enclosed_volume(None), "mesh must be a TriMesh, got NoneType"),
        (lambda: _save_mesh(None), "mesh must be a TriMesh, got NoneType"),
        (lambda: regress_phat(None), "series must be an IndentationSeries, got NoneType"),
        (lambda: calibrate_ks(None), "records must be an Iterable, got NoneType"),
        (lambda: calibrate_ks(iter(RECORDS + (None,))),
         "records must be a sequence of CalibrationRecord, got a tuple of 3"),
        (lambda: estimate_pressure(SERIES, None), "cal must be a Calibration, got NoneType"),
        (lambda: estimate_pressure(None, CAL), "series must be an IndentationSeries, got NoneType"),
        (lambda: run_procedure3(SERIES, None, 8), "cal must be a Calibration, got NoneType"),
        (lambda: run_procedure3(None, CAL, 8), "series must be an IndentationSeries, got NoneType"),
        (lambda: solve_indentation(None, -1.0), "params must be a ShellParams, got NoneType"),
        (lambda: solve_indentation(PARAMS, -1.0, None), "options must be a SolverOptions, got NoneType"),
        (lambda: critical_depth(None), "params must be a ShellParams, got NoneType"),
        (lambda: wrinkle_count(None), "params must be a ShellParams, got NoneType"),
        (lambda: solution_to_csv(None, os.devnull), "sol must be a ShellSolution, got NoneType"),
        (lambda: UNINDENTED.force_newtons(None), "params must be a ShellParams, got NoneType"),
        (lambda: serialize_series(None, os.devnull), "series must be an IndentationSeries, got NoneType"),
        (lambda: restitution_coefficient(None), "test must be a DropTest, got NoneType"),
        (lambda: _patch(mesh=None), "mesh must be a TriMesh, got NoneType"),
        (lambda: _patch(vertex_ids=None), "vertex_ids must be an array of numbers, got NoneType"),
        (lambda: _patch(vertex_ids=(10**6,) + tuple(range(41))),
         "vertex_ids must be in [0, 41], got min=0, max=1000000"),
        (lambda: _patch(vertex_ids=(2.5,) + tuple(range(41))),
         "vertex_ids must be a sequence of integers, got a tuple of 42"),
        (lambda: _patch(vertex_ids=(-1,) + tuple(range(41))),
         "vertex_ids must be in [0, 41], got min=-1, max=40"),
        (lambda: _patch(seed=True), "seed must be an integer, got True"),
        (lambda: _patch(radius_hint="x"), "radius_hint must be finite and > 0, got 'x'"),
    ],
    ids=["run-config-none", "run-observe-int", "run-mesh-as-state", "step-config-none",
         "indent-state-none", "indent-indenter-dict", "indent-bool-gravity", "init-array-as-mesh",
         "init-dict-as-material",
         "patch-mesh-none", "string-vertices", "faces-none", "ragged-vertices", "bool-faces",
         "string-n", "bool-n", "procedure3-string-n", "fit-patch-none", "volume-mesh-none",
         "save-mesh-none", "regress-series-none", "calibrate-records-none",
         "calibrate-record-none", "pressure-cal-none", "pressure-series-none",
         "procedure3-cal-none", "procedure3-series-none", "solve-params-none",
         "solve-options-none", "critical-params-none", "wrinkle-params-none", "csv-solution-none",
         "force-params-none", "serialize-series-none", "restitution-test-none",
         "surface-patch-mesh-none", "surface-patch-ids-none", "surface-patch-id-too-large",
         "surface-patch-id-fractional", "surface-patch-id-negative", "surface-patch-bool-seed",
         "surface-patch-string-radius"],
)
def test_object_argument_refused_before_any_work(call, message):
    # _Accepted would escape if the work had started
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message
