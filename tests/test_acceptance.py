"""Acceptance gate: end-to-end behavioral criteria for the toolkit.

Each test encodes one externally checkable promise: onset-depth
universality, trivial/membrane-limit solutions, estimator sensitivities,
calibration round-trips (synthetic and fully simulated), geometry oracles,
and simulator physical sanity.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflatekit.estimator import (
    CalibrationRecord,
    calibrate_ks,
    estimate_modulus_from_critical_depth,
    estimate_modulus_from_wrinkles,
    estimate_pressure,
    regress_phat,
)
from inflatekit.geometry import box_mesh, enclosed_volume, fit_curvature, icosphere, select_patch
from inflatekit.measurement import IndentationSample, IndentationSeries
from inflatekit.shell import (
    ShellParams,
    SolverOptions,
    critical_depth,
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

BALL = ShellParams(R=0.13, h=8.6e-4, E=2.3e6, nu=0.4, Pg=1300.0)
KS_REF = 0.64


def rescale_to_tau(params: ShellParams, tau: float) -> ShellParams:
    scale = tau / params.tau
    return ShellParams(R=params.R, h=params.h, E=params.E, nu=params.nu, Pg=params.Pg * scale)


def synthetic_series(Pg, R=0.13, h=8.6e-4, noise=0.0, rng=None, object_id="synthetic"):
    samples = []
    for w in (0.005, 0.010, 0.015, 0.020, 0.025):
        f = math.pi * KS_REF * R * Pg * w
        if noise:
            f *= 1.0 + noise * rng.standard_normal()
        samples.append(IndentationSample(force=f, depth=w))
    return IndentationSeries(
        samples=tuple(samples), object_id=object_id, region_radius=R, region_thickness=h
    )


def test_wrinkling_onset_depth_is_universal():
    # -2.52 +/- 0.08 across two decades of bendability, in under a minute
    start = time.perf_counter()
    for tau in (20.0, 40.0, 400.0):
        params = rescale_to_tau(BALL, tau)
        assert critical_depth(params) == pytest.approx(-2.52, abs=0.08)
    assert time.perf_counter() - start < 60.0


def test_unindented_state_is_trivial():
    sol = solve_indentation(BALL, 0.0)
    assert np.max(np.abs(sol.W)) < 1e-6
    assert np.max(np.abs(sol.Psi - sol.rho / 2.0)) < 1e-4 * sol.rho[-1]


def test_bending_term_negligible_at_high_bendability():
    params = rescale_to_tau(BALL, 100.0)
    membrane = solve_indentation(params, -3.0, SolverOptions(membrane_limit=True))
    full = solve_indentation(params, -3.0, SolverOptions(membrane_limit=False))
    grid = np.linspace(membrane.rho[0], membrane.rho[-1], 2000)
    w_m = np.interp(grid, membrane.rho, membrane.W)
    w_f = np.interp(grid, full.rho, full.W)
    rms = float(np.sqrt(np.mean((w_f - w_m) ** 2))) / 3.0
    assert rms < 0.02


def test_poisson_ratio_sensitivity_is_small():
    e_03 = estimate_modulus_from_wrinkles(R=0.13, h=8.6e-4, n=8, Pg=1300.0, nu=0.3)
    e_04 = estimate_modulus_from_wrinkles(R=0.13, h=8.6e-4, n=8, Pg=1300.0, nu=0.4)
    assert abs(e_04 - e_03) / e_03 == pytest.approx(0.041, abs=0.003)


def test_noisy_calibration_round_trip():
    rng = np.random.default_rng(0)
    pressures = (800.0, 1300.0, 2000.0)
    held_out = 1300.0
    records = []
    for pg in pressures:
        if pg == held_out:
            continue
        reg = regress_phat(synthetic_series(pg, noise=0.03, rng=rng))
        records.append(CalibrationRecord(measured_Pg=pg, estimated_Pg_hat=reg.Pg_hat))
    cal = calibrate_ks(records)
    assert cal.ks == pytest.approx(KS_REF, rel=0.04)
    recovered = estimate_pressure(synthetic_series(held_out, noise=0.03, rng=rng), cal)
    assert recovered == pytest.approx(held_out, rel=0.06)


def test_wrinkle_count_at_reference_bendability():
    result = wrinkle_count(rescale_to_tau(BALL, 40.0))
    assert result.unrounded == pytest.approx(8.41, abs=0.01)
    assert result.count == 8


def test_geometry_oracles():
    mesh = icosphere(radius=1.0, subdivisions=4)
    patch = select_patch(mesh, seed=0, radius_hint=0.5)
    assert fit_curvature(patch)["radius"] == pytest.approx(1.0, rel=0.02)
    assert enclosed_volume(mesh) == pytest.approx(4.0 * math.pi / 3.0, rel=0.01)
    assert enclosed_volume(box_mesh()) == pytest.approx(1.0, abs=1e-12)


class TestSimulatorSanity:
    MATERIAL = MaterialSpec(E=2.3e6, nu=0.4, h=1e-3, density=1000.0, Pg0=1300.0)

    def test_free_fall_kinematics(self):
        state = init_sim(icosphere(radius=0.13, subdivisions=2), self.MATERIAL)
        z0 = state.centroid[2]
        t = 0.5
        final = run(state, ScenarioConfig(duration=t))
        assert z0 - final.centroid[2] == pytest.approx(0.5 * 9.81 * t**2, rel=1e-3)

    def test_pressure_forces_sum_to_zero(self):
        state = init_sim(icosphere(radius=0.13, subdivisions=2), self.MATERIAL)
        f = state._model._pressure_forces(state.mesh.vertices, state.Pg)
        scale = np.linalg.norm(f, axis=1).sum()
        assert np.linalg.norm(f.sum(axis=0)) < 1e-10 * scale

    def test_drop_rebound_height(self):
        e, h0 = 0.75, 0.5
        mesh = icosphere(radius=0.13, subdivisions=2)
        mesh = mesh.with_vertices(mesh.vertices + np.array([0.0, 0.0, h0 + 0.13]))
        state = init_sim(mesh, self.MATERIAL)
        config = ScenarioConfig(
            planes=(Plane(point=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0)),),
            restitution=e,
            duration=1e-4,
        )
        t_fall = math.sqrt(2.0 * h0 / 9.81)
        peak = 0.0
        for _ in range(int(round(2.2 * t_fall / config.dt))):
            state = step(state, config)
            if state.time > 1.1 * t_fall:
                peak = max(peak, float(state.mesh.vertices[:, 2].min()))
        assert peak == pytest.approx(e**2 * h0, rel=0.05)


def test_simulated_indentation_round_trip():
    # full pipeline on a digitized ball with known gauge pressure: virtual
    # indentation at two calibration pressures, then blind recovery of a
    # third from its own indentation series
    start = time.perf_counter()
    mesh = icosphere(radius=0.13, subdivisions=3)
    top = int(np.argmax(mesh.vertices[:, 2]))

    def indent_at(pg):
        material = MaterialSpec(E=2.3e6, nu=0.4, h=3e-3, density=1000.0, Pg0=pg)
        state = init_sim(mesh, material)
        config = ScenarioConfig(
            gravity=(0.0, 0.0, 0.0),
            indenter=Indenter(vertex=top, axis=(0.0, 0.0, -1.0)),
        )
        return indent_virtual(state, config, target_depth=0.035, n_levels=5)

    records = []
    for pg in (800.0, 2000.0):
        reg = regress_phat(indent_at(pg))
        records.append(CalibrationRecord(measured_Pg=pg, estimated_Pg_hat=reg.Pg_hat))
    cal = calibrate_ks(records)

    held_out = indent_at(1300.0)
    reg = regress_phat(held_out)
    assert reg.r2 > 0.95
    assert estimate_pressure(held_out, cal) == pytest.approx(1300.0, rel=0.15)
    assert time.perf_counter() - start < 600.0


@given(
    E=st.floats(min_value=1e5, max_value=1e8),
    Pg=st.floats(min_value=100.0, max_value=1e4),
    R=st.floats(min_value=0.01, max_value=1.0),
    h_ratio=st.floats(min_value=1e-4, max_value=1e-2),
    nu=st.floats(min_value=0.05, max_value=0.45),
)
@settings(max_examples=100, deadline=None)
def test_modulus_routes_are_algebraic_inverses(E, Pg, R, h_ratio, nu):
    # critical-depth and wrinkle-count formulas generated from the same E
    # must both invert back to it exactly
    h = h_ratio * R
    wc = 2.52 * Pg * R**2 / (h * E)
    assert estimate_modulus_from_critical_depth(R=R, h=h, wc=wc, Pg=Pg).E == pytest.approx(
        E, rel=1e-9
    )
    n = 1.33 * (R / h) * math.sqrt(math.sqrt(12.0 * (1.0 - nu**2)) * Pg / E)
    if n >= 1.0:
        assert estimate_modulus_from_wrinkles(R=R, h=h, n=n, Pg=Pg, nu=nu) == pytest.approx(
            E, rel=1e-9
        )
