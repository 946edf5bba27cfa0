"""Tests for the shallow-shell indentation solver.

The [derived] expectations (annulus location, forces, profiles) are
cross-checked live against tests/shooting_oracle.py, an independent
inward shooting solver of the same ODE system built on a different
numerical route (RK45 + nested bisection instead of collocation).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inflatekit import shell
from inflatekit.errors import NonConvergenceError, ValidationError
from inflatekit.shell import (
    ShellParams,
    ShellSolution,
    SolverOptions,
    cap_profile,
    cap_volume_change,
    critical_depth,
    solve_indentation,
    solution_to_csv,
    wrinkle_count,
    _base_grid,
    _ContinuationState,
)

from shooting_oracle import solve_membrane_shooting

BALL = ShellParams(R=0.13, h=8.6e-4, E=2.3e6, nu=0.4, Pg=1300.0)


@pytest.fixture(scope="module")
def sol_m1():
    return solve_indentation(BALL, -1.0)


@pytest.fixture(scope="module")
def sol_m4():
    return solve_indentation(BALL, -4.0)


@pytest.fixture(scope="module")
def oracle_m1():
    return solve_membrane_shooting(-1.0)


@pytest.fixture(scope="module")
def oracle_m4():
    return solve_membrane_shooting(-4.0)


class TestShellParams:
    def test_derived_quantities(self):
        # direct evaluation of B, l_p, tau definitions
        b = BALL.E * BALL.h**3 / (12 * (1 - BALL.nu**2))
        assert BALL.bending_stiffness == pytest.approx(b)
        lp = math.sqrt(BALL.Pg * BALL.R**3 / (BALL.E * BALL.h))
        assert BALL.capillary_length == pytest.approx(lp)
        tau = BALL.Pg * BALL.R**2 / math.sqrt(BALL.E * BALL.h * b)
        assert BALL.tau == pytest.approx(tau)
        # the reference ball sits in the tau ~ 40 regime
        assert 35 < BALL.tau < 45

    @pytest.mark.parametrize(
        "field,value",
        [("R", -1.0), ("h", 0.0), ("E", -2.0), ("E", 1e-160), ("Pg", 0.0), ("nu", 0.6)],
    )
    def test_invalid_parameters(self, field, value):
        kwargs = dict(R=0.13, h=8.6e-4, E=2.3e6, nu=0.4, Pg=1300.0)
        kwargs[field] = value
        with pytest.raises(ValidationError):
            ShellParams(**kwargs)


class TestTrivialSolution:
    def test_unindented_state(self):
        sol = solve_indentation(BALL, 0.0)
        assert np.max(np.abs(sol.W)) < 1e-6
        assert np.max(np.abs(sol.Psi - sol.rho / 2.0)) < 1e-4 * sol.rho[-1]
        assert sol.force == 0.0

    def test_positive_depth_rejected(self):
        with pytest.raises(ValidationError):
            solve_indentation(BALL, 0.5)

    @pytest.mark.parametrize("W0", [math.nan, -math.inf])
    def test_non_finite_depth_rejected(self, W0):
        with pytest.raises(ValidationError):
            solve_indentation(BALL, W0)


class TestShallowIndentation:
    def test_no_compression_at_minus_one(self, sol_m1):
        # compression appears only past the onset depth ~ -2.52
        assert sol_m1.min_hoop_stress() >= 0.0
        assert sol_m1.annulus is None

    def test_force_matches_shooting_oracle(self, sol_m1, oracle_m1):
        c, _ = oracle_m1
        assert sol_m1.force == pytest.approx(2.0 * math.pi * c, rel=0.03)

    def test_profile_matches_shooting_oracle(self, sol_m1, oracle_m1):
        _, ivp = oracle_m1
        for rho in (0.1, 0.5, 1.0, 2.0, 3.0):
            w_oracle = ivp.sol(rho)[3]
            w_pkg = np.interp(rho, sol_m1.rho, sol_m1.W)
            assert abs(w_pkg - w_oracle) < 0.02


class TestDeepIndentation:
    def test_annulus_present_and_off_axis(self, sol_m4):
        assert sol_m4.annulus is not None
        lo, hi = sol_m4.annulus
        assert lo > sol_m4.rho[0]
        assert hi > lo

    def test_annulus_confirmed_by_shooting_oracle(self, sol_m4, oracle_m4):
        # hoop stress along the oracle trajectory is its Psi' component
        _, ivp = oracle_m4
        rho = np.linspace(0.05, 8.0, 800)
        hoop = ivp.sol(rho)[1]
        assert np.min(hoop) < 0.0
        neg = rho[hoop < 0]
        lo, hi = sol_m4.annulus
        assert neg.min() == pytest.approx(lo, rel=0.15)
        assert neg.max() == pytest.approx(hi, rel=0.15)

    def test_force_matches_shooting_oracle(self, sol_m4, oracle_m4):
        c, _ = oracle_m4
        assert sol_m4.force == pytest.approx(2.0 * math.pi * c, rel=0.03)

    def test_profile_matches_shooting_oracle(self, sol_m4, oracle_m4):
        _, ivp = oracle_m4
        for rho in (0.1, 0.5, 1.0, 2.0, 3.0):
            w_oracle = ivp.sol(rho)[3]
            w_pkg = np.interp(rho, sol_m4.rho, sol_m4.W)
            assert abs(w_pkg - w_oracle) < 0.02 * 4.0


class TestWarmStart:
    """Each continuation step restarts from the base grid, so the collocation
    mesh stays sized by the tolerance instead of growing with every step."""

    def test_membrane_mesh_stays_small(self, sol_m4):
        assert len(sol_m4.rho) < 3000

    def test_full_system_mesh_stays_small(self, tau100_pair):
        _, full = tau100_pair
        assert len(full.rho) < 3000

    def test_default_tol_matches_tight_tol_force(self, sol_m4, monkeypatch):
        monkeypatch.setattr(shell, "BVP_TOL", 1e-8)
        tight = solve_indentation(BALL, -4.0)
        assert sol_m4.force == pytest.approx(tight.force, rel=1e-6)


class TestFullSystemGrid:
    """The full-system base grid resolves the elastic length 1/sqrt(tau);
    on the geometric grid alone the far field was refined one or two nodes
    per collocation iteration (82 iterations at tau = 100, W0 = -3)."""

    def test_no_interval_longer_than_the_elastic_spacing(self):
        geometric = np.geomspace(shell.RHO0, shell.RHO_INF, shell.GRID_SIZE)
        for tau in (10.0, 100.0, 400.0):
            rho = _base_grid(False, tau)
            assert rho[0] == shell.RHO0 and rho[-1] == shell.RHO_INF
            assert np.all(np.diff(rho) > 0)
            assert np.diff(rho).max() <= 1.2 / math.sqrt(tau) * (1 + 1e-12)
            # the inner layer keeps the geometric spacing
            k = np.searchsorted(rho, 1.0)
            np.testing.assert_array_equal(rho[:k], geometric[:k])

    def test_membrane_and_low_tau_grids_are_geometric(self):
        geometric = np.geomspace(shell.RHO0, shell.RHO_INF, shell.GRID_SIZE)
        np.testing.assert_array_equal(_base_grid(True, 400.0), geometric)
        # at tau = 1 every geometric interval is shorter than 1.2
        np.testing.assert_array_equal(_base_grid(False, 1.0), geometric)

    def test_tau100_takes_few_iterations(self, tau100_pair):
        _, full = tau100_pair
        assert full.bvp_iterations <= 40

    def test_tau100_force_unchanged(self, tau100_pair):
        _, full = tau100_pair
        assert full.force == pytest.approx(4.775841741894313, rel=1e-8)

    def test_step_doubling_tracks_the_base_grid(self):
        # at tau = 200 the refined meshes exceed 3 * grid_size nodes but stay
        # within three base grids, so the continuation step still doubles
        params = ShellParams(R=0.11, h=1.2e-3, E=1.1e6, nu=0.4, Pg=2000.0)
        params = _rescale_to_tau(params, 200.0)
        sol = solve_indentation(params, -5.0, SolverOptions(membrane_limit=False))
        assert sol.max_nodes > 3 * shell.GRID_SIZE
        assert sol.bvp_solves <= 5

    def test_onset_unchanged(self):
        # the membrane grid did not move, so neither did the onset
        assert critical_depth(BALL) == pytest.approx(-2.5306023445840378, abs=1e-10)

    @pytest.mark.parametrize("tau,nodes", [(40.0, 443), (100.0, 508)])
    def test_base_grid_size(self, tau, nodes):
        # the geometric grid's far-field intervals are split into elastic lengths
        assert len(_base_grid(False, tau)) == nodes
        sol = solve_indentation(_rescale_to_tau(BALL, tau), 0.0, SolverOptions(membrane_limit=False))
        assert len(sol.rho) == nodes


class TestSolverCounts:
    """The counts on the result equal what a wrap of shell.solve_bvp sees."""

    @pytest.mark.parametrize("membrane", [True, False], ids=["membrane", "full"])
    def test_counts_match_a_wrap_of_solve_bvp(self, monkeypatch, membrane):
        calls = []
        solve = shell.solve_bvp

        def counted(*args, **kwargs):
            sol = solve(*args, **kwargs)
            calls.append(sol)
            return sol

        monkeypatch.setattr(shell, "solve_bvp", counted)
        sol = solve_indentation(BALL, -1.5, SolverOptions(membrane_limit=membrane))
        assert sol.bvp_solves == sum(c.status == 0 for c in calls) > 0
        assert sol.bvp_iterations == sum(c.niter for c in calls)
        assert sol.max_nodes == max(len(c.x) for c in calls) >= len(sol.rho)

    @pytest.mark.parametrize("membrane", [True, False], ids=["membrane", "full"])
    def test_unindented_state_reports_zero(self, membrane):
        sol = solve_indentation(BALL, 0.0, SolverOptions(membrane_limit=membrane))
        # the exact unindented state on the base grid of the chosen system
        np.testing.assert_array_equal(sol.rho, _base_grid(membrane, BALL.tau))
        np.testing.assert_array_equal(sol.W, 0.0)
        np.testing.assert_array_equal(sol.Psi, sol.rho / 2.0)
        assert sol.force == 0.0
        assert (sol.bvp_solves, sol.bvp_iterations, sol.max_nodes) == (0, 0, 0)


class TestPinnedSolves:
    """Force and solver counts of indented solves, pinned to the values the
    solver gave while its collocation settings were still options."""

    @pytest.mark.parametrize(
        "tau,W0,membrane,force,counts",
        [
            (None, -1.0, True, 1.0985316056591798, (3, 8, 871)),
            (None, -4.0, True, 6.385091646217934, (5, 14, 903)),
            (40.0, -3.0, False, 4.811342479919389, (4, 18, 1131)),
            (100.0, -3.0, False, 4.775841743804486, (4, 20, 1323)),
        ],
        ids=["membrane-W0-1", "membrane-W0-4", "full-tau40-W0-3", "full-tau100-W0-3"],
    )
    def test_force_and_counts(self, tau, W0, membrane, force, counts):
        params = BALL if tau is None else _rescale_to_tau(BALL, tau)
        sol = solve_indentation(params, W0, SolverOptions(membrane_limit=membrane))
        assert sol.force == pytest.approx(force, rel=1e-12)
        assert (sol.bvp_solves, sol.bvp_iterations, sol.max_nodes) == counts

    def test_membrane_limit_is_the_only_setting(self):
        assert [f.name for f in dataclasses.fields(SolverOptions)] == ["membrane_limit"]
        with pytest.raises(TypeError):
            SolverOptions(tol=1e-8)


def test_force_monotone_in_depth():
    forces = [solve_indentation(BALL, w).force for w in (0.0, -0.5, -1.5, -3.0, -4.5, -6.0)]
    assert all(f2 > f1 for f1, f2 in zip(forces, forces[1:]))


@pytest.fixture(scope="module")
def tau100_pair():
    """Membrane and full-system solutions at W0 = -3 on a tau = 100 shell."""
    params = ShellParams(R=0.11, h=1.2e-3, E=1.1e6, nu=0.4, Pg=2000.0)
    params = _rescale_to_tau(params, 100.0)
    membrane = solve_indentation(params, -3.0, SolverOptions(membrane_limit=True))
    full = solve_indentation(params, -3.0, SolverOptions(membrane_limit=False))
    return membrane, full


def test_full_solution_close_to_membrane_limit(tau100_pair):
    # tau = 100 parameter set; bending changes the profile by < 2 percent
    membrane, full = tau100_pair
    grid = np.linspace(membrane.rho[0], membrane.rho[-1], 2000)
    w_m = np.interp(grid, membrane.rho, membrane.W)
    w_f = np.interp(grid, full.rho, full.W)
    rms = np.sqrt(np.mean((w_f - w_m) ** 2)) / 3.0
    assert rms < 0.02


def _rescale_to_tau(params: ShellParams, tau: float) -> ShellParams:
    """Adjust Pg so the parameter set has exactly the requested tau."""
    scale = tau / params.tau
    return ShellParams(R=params.R, h=params.h, E=params.E, nu=params.nu, Pg=params.Pg * scale)


class TestCriticalDepth:
    def test_onset_near_universal_value(self):
        assert critical_depth(BALL) == pytest.approx(-2.52, abs=0.08)

    def test_universality_under_parameter_change(self):
        # order-of-magnitude change in a dimensional parameter, tau >= 10
        other = ShellParams(R=1.3, h=8.6e-3, E=2.3e6, nu=0.4, Pg=1300.0)
        assert other.tau >= 10
        assert critical_depth(other) == pytest.approx(critical_depth(BALL), abs=2e-3)

    def test_low_tau_warns(self):
        soft = ShellParams(R=0.05, h=5e-3, E=1e6, nu=0.4, Pg=500.0)
        assert soft.tau < 10
        with pytest.warns(UserWarning, match="membrane limit"):
            critical_depth(soft)


class TestContinuation:
    """The step controller lands exactly on each target and halves its step
    after a failed solve; the onset is a root of the minimum hoop stress."""

    def state(self):
        return _ContinuationState(True, BALL.nu, BALL.tau)

    def test_onset_is_a_root_of_min_hoop_stress(self):
        onset = critical_depth(BALL)
        assert solve_indentation(BALL, onset + 1e-3).min_hoop_stress() >= 0.0
        assert solve_indentation(BALL, onset - 1e-3).min_hoop_stress() < 0.0

    def test_ends_exactly_on_each_target(self):
        # -1.1 -> -0.3 is a pair that W0 + (target - W0) misses by rounding
        state = self.state()
        for target in (-1.3, -0.7, -1.1, -0.3):
            state.continue_to(target)
            assert state.W0 == target
            assert state.solution().W0 == target

    def test_failed_steps_are_halved(self, monkeypatch):
        state = self.state()
        solve = state.advance
        attempts = []

        def advance(W0_target):
            attempts.append(W0_target)
            assert len(attempts) < 200, "the step never shrank below 0.1"
            if abs(W0_target - state.W0) > 0.1:
                raise NonConvergenceError("step too long", last_good_w0=state.W0)
            solve(W0_target)

        monkeypatch.setattr(state, "advance", advance)
        state.continue_to(-1.0)
        assert state.W0 == -1.0
        assert state.solution().force == pytest.approx(solve_indentation(BALL, -1.0).force, rel=1e-6)


class TestWrinkleCount:
    def test_reference_ball_regime(self):
        params = _rescale_to_tau(BALL, 40.0)
        result = wrinkle_count(params)
        assert result.unrounded == pytest.approx(1.33 * math.sqrt(40.0), abs=0.01)
        assert result.count == 8

    def test_tau_one(self):
        params = _rescale_to_tau(BALL, 1.0)
        result = wrinkle_count(params)
        assert result.unrounded == pytest.approx(1.33, abs=1e-9)
        assert result.count == 1

    def test_tau_four_hundred_rounds_up(self):
        params = _rescale_to_tau(BALL, 400.0)
        assert wrinkle_count(params).count == 27


class TestCapProfile:
    def test_apex_value(self):
        assert cap_profile(-4.0)(0.0) == pytest.approx(-4.0)

    def test_continuity_at_junction(self):
        cap = cap_profile(-4.0)
        assert cap(2.0) == pytest.approx(0.0)
        assert cap(2.0 + 1e-9) == 0.0

    def test_inside_value(self):
        assert cap_profile(-9.0)(1.0) == pytest.approx(-8.0)

    def test_shallow_depth_warns(self):
        with pytest.warns(UserWarning, match="cap approximation"):
            cap_profile(-0.5)

    def test_positive_depth_rejected(self):
        with pytest.raises(ValidationError):
            cap_profile(1.0)

    @pytest.mark.parametrize("W0", [math.nan, -math.inf])
    def test_non_finite_depth_rejected(self, W0):
        with pytest.raises(ValidationError):
            cap_profile(W0)

    def test_matches_deep_solution_within_15_percent_rms(self, sol_m4):
        # The inverted cap W0 + rho^2 is the deep-indentation limit of the
        # membrane, so the solver profile must approach it as |W0| grows.
        # Metric: uniform-grid RMS of (cap - W) over [rho0, sqrt(|W0|)],
        # normalised by |W0|.  Measured on BALL (membrane limit):
        #   W0   -2     -4     -8     -16    -32    -48    -64
        #   RMS  0.297  0.277  0.250  0.214  0.174  0.151  0.135
        # The 15% of this test's name is first met near W0 = -49.  It is
        # not checked there: |W0| = 49 is about 0.55 m of indentation on
        # the 0.13 m ball, so it would check the dimensionless equations
        # only.
        # Instead the test checks that both the RMS and the solver's value
        # at the cap junction, |W(sqrt(|W0|))|/|W0|, fall strictly with
        # depth.  The shooting oracle agrees with the solver at W0 = -8 to
        # 0.41% of |W0| in profile and 0.56% in force, so the remaining
        # deviation belongs to the approximation, not to the solver.
        rms, junction = [], []
        for sol in (solve_indentation(BALL, -2.0), sol_m4, solve_indentation(BALL, -8.0)):
            depth = abs(sol.W0)
            rc = math.sqrt(depth)
            grid = np.linspace(sol.rho[0], rc, 500)
            w_sol = np.interp(grid, sol.rho, sol.W)
            w_cap = cap_profile(sol.W0)(grid)
            rms.append(np.sqrt(np.mean((w_cap - w_sol) ** 2)) / depth)
            junction.append(abs(np.interp(rc, sol.rho, sol.W)) / depth)
        assert rms[0] > rms[1] > rms[2]
        assert junction[0] > junction[1] > junction[2]


class TestCapVolumeChange:
    def test_reference_value(self):
        # half pi R w0^2 with R = 0.13 m, w0 = 0.01 m
        assert cap_volume_change(BALL, 0.01) == pytest.approx(2.042e-5, rel=1e-3)

    def test_zero_depth_rejected(self):
        with pytest.raises(ValidationError):
            cap_volume_change(BALL, 0.0)

    @given(w0=st.floats(min_value=1e-6, max_value=0.1))
    @settings(max_examples=50, deadline=None)
    def test_quadratic_scaling(self, w0):
        assert cap_volume_change(BALL, 2 * w0) == pytest.approx(
            4 * cap_volume_change(BALL, w0), rel=1e-12
        )


class TestShellSolutionInvariants:
    def test_far_field_enforced(self):
        rho = np.linspace(0.03, 30.0, 500)
        with pytest.raises(ValidationError, match="far field"):
            ShellSolution(
                rho=rho,
                W=np.full_like(rho, -0.5),  # does not decay
                Psi=rho / 2.0,
                hoop_stress=np.full_like(rho, 0.5),
                radial_stress=np.full_like(rho, 0.5),
                W0=-1.0,
                force=1.0,
            )

    def test_csv_export(self, tmp_path, sol_m1):
        path = tmp_path / "profile.csv"
        solution_to_csv(sol_m1, path)
        header = path.read_text().splitlines()[0]
        assert header == "rho,W,Psi,hoop_stress,radial_stress"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[0] == len(sol_m1.rho)
