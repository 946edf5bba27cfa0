"""Tests for the package's own root finder, minimiser and collocation
solver, with scipy as the oracle: brentq must return scipy's float bit for
bit, and solve_bvp scipy's meshes and iteration counts."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inflatekit import _bvp, _solvers, shell, simulator
from inflatekit._bvp import solve_bvp
from inflatekit._solvers import brentq, lbfgs
from inflatekit.errors import NonConvergenceError
from inflatekit.shell import ShellParams, SolverOptions, critical_depth, solve_indentation
from inflatekit.simulator import MaterialSpec


def cubic(c0, c1, c2):
    return lambda x: ((x + c2) * x + c1) * x + c0


FINITE = st.floats(-1e3, 1e3)


class TestBrentq:
    @given(c=st.tuples(FINITE, FINITE, FINITE), a=FINITE, b=FINITE,
           xtol=st.sampled_from([2e-12, 1e-4, 1e-9, 5e-324]))
    @example(c=(0.0, -2.0, 0.0), a=0.0, b=3.0, xtol=2e-12)
    @example(c=(1.0, 0.0, 0.0), a=-3.0, b=0.0, xtol=1e-4)
    @settings(max_examples=400, deadline=None)
    def test_bit_equal_to_scipy(self, c, a, b, xtol):
        f = cubic(*c)
        try:
            want = scipy.optimize.brentq(f, a, b, xtol=xtol)
        except ValueError:  # f(a) and f(b) share a sign
            with pytest.raises(ValueError):
                brentq(f, a, b, xtol=xtol)
            return
        except RuntimeError:
            with pytest.raises(NonConvergenceError):
                brentq(f, a, b, xtol=xtol)
            return
        assert brentq(f, a, b, xtol=xtol).hex() == float(want).hex()

    @given(
        E=st.floats(1e3, 1e12), nu=st.floats(0.01, 0.49), h=st.floats(1e-5, 1e-1),
        Pg0=st.floats(1.0, 1e5), radius=st.floats(1e-3, 10.0),
    )
    @example(E=5.964296096383e14, nu=0.25, h=0.0078125, Pg0=100.0, radius=0.13)
    @settings(max_examples=300, deadline=None)
    def test_prestretch_bit_equal_to_scipy(self, E, nu, h, Pg0, radius):
        material = MaterialSpec(E=E, nu=nu, h=h, density=1000.0, Pg0=Pg0)
        tension = Pg0 * radius / 2.0
        try:
            got = simulator._equibiaxial_stretch(material, tension)
        except simulator.ValidationError:
            return
        with mock.patch.object(simulator, "brentq", scipy.optimize.brentq):
            want = simulator._equibiaxial_stretch(material, tension)
        assert got.hex() == want.hex()

    def test_critical_depth_bit_equal_to_scipy(self, monkeypatch):
        params = ShellParams(R=0.13, h=8.6e-4, E=2.3e6, Pg=1300.0)
        got = critical_depth(params)
        monkeypatch.setattr(shell, "brentq", scipy.optimize.brentq)
        assert got.hex() == critical_depth(params).hex()

    def test_same_signs_refused(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_refused(self):
        with pytest.raises(ValueError, match="nan"):
            brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0)

    def test_iteration_cap(self, monkeypatch):
        f = cubic(-0.3, 0.0, 0.0)
        with pytest.raises(RuntimeError):
            scipy.optimize.brentq(f, 0.0, 1.0, maxiter=2)
        monkeypatch.setattr(_solvers, "BRENTQ_MAXITER", 2)
        with pytest.raises(NonConvergenceError, match="2 iterations"):
            brentq(f, 0.0, 1.0)

    def test_endpoint_root_returned(self):
        assert brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0


def quadratic(scales, target):
    """Value and gradient of sum scales (x - target)^2 / 2."""

    def fun(x):
        d = x - target
        return float(0.5 * scales @ (d * d)), scales * d

    return fun


class TestLbfgs:
    def test_quadratic_minimum_to_the_gradient_tolerance(self):
        scales = np.geomspace(1.0, 1e3, 40)
        target = np.linspace(-1.0, 1.0, 40)
        x, iterations = lbfgs(quadratic(scales, target), np.zeros(40), 1e-8, 1000)
        assert np.abs(scales * (x - target)).max() <= 1e-8
        assert 0 < iterations < 1000

    def test_converged_start_takes_no_iteration(self):
        fun = quadratic(np.ones(3), np.ones(3))
        x, iterations = lbfgs(fun, np.ones(3), 1e-8, 10)
        assert iterations == 0 and np.array_equal(x, np.ones(3))

    def test_rosenbrock_matches_lbfgsb(self):
        def fun(x):
            return scipy.optimize.rosen(x), scipy.optimize.rosen_der(x)

        x0 = np.array([-1.2, 1.0, -0.5, 0.8])
        x, _ = lbfgs(fun, x0, 1e-7, 15_000)
        want = scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B",
                                       options={"gtol": 1e-7, "ftol": 0.0}).x
        np.testing.assert_allclose(x, want, atol=1e-5)
        np.testing.assert_allclose(x, np.ones(4), atol=1e-5)

    def test_iteration_cap_returns(self):
        def fun(x):
            return scipy.optimize.rosen(x), scipy.optimize.rosen_der(x)

        x, iterations = lbfgs(fun, np.array([-1.2, 1.0]), 1e-12, 3)
        assert iterations == 3 and np.isfinite(x).all()

    def test_returns_when_no_step_descends(self):
        # a gradient that does not belong to the value: no step lowers it
        x, iterations = lbfgs(lambda x: (1.0, np.ones_like(x)), np.zeros(2), 1e-8, 100)
        assert iterations == 0 and np.array_equal(x, np.zeros(2))

    def test_non_descent_direction_restarts_from_the_gradient(self):
        # y.y / y.s of the first correction overflows, so the two-loop
        # direction scales to zero, which does not descend; the restart
        # steps along -g to the minimum
        points = {
            (0.0, 0.0): (0.0, (1e-10, 0.0)),
            (-1.0, 0.0): (-1.0, (0.0, 1e150)),
            (-1.0, -1.0): (-1e150, (0.0, 0.0)),
        }

        def fun(x):
            f, g = points.get(tuple(x.tolist()), (math.inf, (0.0, 0.0)))
            return f, np.array(g)

        x, iterations = lbfgs(fun, np.zeros(2), 1e-12, 10)
        assert x.tolist() == [-1.0, -1.0] and iterations == 2

    def test_infinite_values_are_backtracked_from(self):
        # the domain is x > 0: the first trial step of unit length leaves it
        def fun(x):
            if x[0] <= 0:
                return math.inf, np.zeros_like(x)
            return float(x[0] - math.log(x[0])), 1.0 - 1.0 / x

        x, _ = lbfgs(fun, np.array([0.05]), 1e-10, 100)
        assert x[0] == pytest.approx(1.0, abs=1e-9)


def central_jacobian(fun, args, index, step=1e-6):
    """d fun(*args) / d args[index] by central differences, with the input
    axis placed after the output's first axis (the layout of fun_jac)."""
    base = np.asarray(args[index], dtype=float)
    columns = []
    for j in range(base.shape[0]):
        h = step * (1.0 + np.abs(base[j]))
        up, down = base.copy(), base.copy()
        up[j] += h
        down[j] -= h
        plus = fun(*args[:index], up, *args[index + 1:])
        minus = fun(*args[:index], down, *args[index + 1:])
        columns.append((plus - minus) / (2.0 * h))
    return np.stack(columns, axis=1)


def assert_jacobian(analytic, numeric):
    # relative to the largest entry of each output row
    scale = np.abs(numeric).max(axis=1, keepdims=True) + 1.0
    assert np.all(np.abs(analytic - numeric) <= 1e-6 * scale)


MEMBRANE_DEPTHS = [-0.5, -2.0, -8.0]


def membrane_state(rng, m=40):
    """A state near a membrane profile: Psi ~ rho/2 > 0, small slopes."""
    rho = np.sort(rng.uniform(shell.RHO0, shell.RHO_INF, m))
    y = np.vstack([rho / 2.0 * rng.uniform(0.5, 1.5, m), rng.uniform(0.2, 0.8, m),
                   rng.normal(0.0, 0.5, m), rng.normal(0.0, 1.0, m)])
    return rho, y, np.array([rng.uniform(0.1, 5.0)])


class TestShellJacobians:
    """The analytic Jacobians the collocation solver takes agree with central
    differences of the right-hand sides and boundary conditions."""

    @pytest.mark.parametrize("seed", range(5))
    def test_membrane_rhs(self, seed):
        rho, y, p = membrane_state(np.random.default_rng(seed))
        df_dy, df_dp = shell._membrane_jac(rho, y, p)
        assert_jacobian(df_dy, central_jacobian(shell._membrane_rhs, (rho, y, p), 1))
        assert_jacobian(df_dp, central_jacobian(shell._membrane_rhs, (rho, y, p), 2))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("tau", [10.0, 100.0])
    def test_full_rhs(self, seed, tau):
        rng = np.random.default_rng(seed)
        rho, y4, p = membrane_state(rng)
        y = np.vstack([y4[3], rng.normal(0.0, 1.0, len(rho)), rng.normal(0.0, 1.0, len(rho)), y4[:3]])
        rhs, jac = shell._full_rhs_factory(tau)
        df_dy, df_dp = jac(rho, y, p)
        assert_jacobian(df_dy, central_jacobian(rhs, (rho, y, p), 1))
        assert_jacobian(df_dp, central_jacobian(rhs, (rho, y, p), 2))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("membrane", [True, False], ids=["membrane", "full"])
    def test_boundary_conditions(self, seed, membrane):
        rng = np.random.default_rng(seed)
        n = 4 if membrane else 6
        ya, yb = rng.uniform(0.01, 1.0, n), rng.normal(0.0, 1.0, n)
        p = np.array([rng.uniform(0.1, 5.0)])
        bc, bc_jac = (shell._membrane_bc if membrane else shell._full_bc)(-rng.uniform(0, 8), 0.4)
        dya, dyb, dp = bc_jac(ya, yb, p)
        for analytic, index in ((dya, 0), (dyb, 1), (dp, 2)):
            numeric = central_jacobian(bc, (ya, yb, p), index)
            assert analytic.shape == numeric.shape
            assert_jacobian(analytic, numeric)


def harmonic(x, y, p):
    return np.vstack([y[1], -p[0] ** 2 * y[0]]) if len(p) else np.vstack([y[1], -y[0]])


def harmonic_jac(x, y, p):
    k = p[0] if len(p) else 1.0
    df_dy = np.zeros((2, 2, len(x)))
    df_dy[0, 1], df_dy[1, 0] = 1.0, -k * k
    df_dp = np.zeros((2, len(p), len(x)))
    if len(p):
        df_dp[1, 0] = -2.0 * k * y[0]
    return df_dy, df_dp


def sine_bc(ya, yb, p):
    return np.array([ya[0], yb[0] - 1.0])


def sine_bc_jac(ya, yb, p):
    return np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((2, 0))


def eigen_bc(ya, yb, p):
    return np.array([ya[0], yb[0], ya[1] - p[0]])


def eigen_bc_jac(ya, yb, p):
    return (np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0], [0.0], [-1.0]]))


LAYER = 1e-4  # epsilon of epsilon y'' = y


def layer(x, y, p):
    return np.vstack([y[1], y[0] / LAYER])


def layer_jac(x, y, p):
    df_dy = np.zeros((2, 2, len(x)))
    df_dy[0, 1], df_dy[1, 0] = 1.0, 1.0 / LAYER
    return df_dy, np.zeros((2, 0, len(x)))


def layer_bc(ya, yb, p):
    return np.array([ya[0] - 1.0, yb[0]])


def layer_exact(x):
    d = math.sqrt(LAYER)
    # sinh((1 - x)/d) / sinh(1/d), written to stay finite
    return (np.exp(-x / d) - np.exp((x - 2.0) / d)) / (1.0 - math.exp(-2.0 / d))


KNOWN = {
    # name: fun, jac, bc, bc_jac, mesh, guess, p, tol
    "sine": (harmonic, harmonic_jac, sine_bc, sine_bc_jac, np.linspace(0, math.pi / 2, 5),
             lambda x: np.vstack([x, np.ones_like(x)]), None, 1e-6),
    "eigenvalue": (harmonic, harmonic_jac, eigen_bc, eigen_bc_jac, np.linspace(0, 1, 5),
                   lambda x: np.vstack([np.ones_like(x), np.zeros_like(x)]), [6.0], 1e-6),
    "layer": (layer, layer_jac, layer_bc, sine_bc_jac, np.linspace(0, 1, 11),
              lambda x: np.vstack([1.0 - x, -np.ones_like(x)]), None, 1e-3),
}


class TestSolveBvp:
    """The package's collocation solver on problems with known solutions,
    beside scipy.integrate.solve_bvp on the same input."""

    @pytest.mark.parametrize("name", KNOWN)
    def test_known_solution_and_scipy_counts(self, name):
        fun, jac, bc, bc_jac, x, guess, p, tol = KNOWN[name]
        sol = solve_bvp(fun, bc, x, guess(x), p, fun_jac=jac, bc_jac=bc_jac, tol=tol,
                        max_nodes=10_000)
        assert sol.status == 0 and sol.message.startswith("The algorithm converged")
        assert sol.max_rms_residual < tol
        fine = np.linspace(x[0], x[-1], 2001)
        if name == "sine":
            np.testing.assert_allclose(sol.sol(fine)[0], np.sin(fine), atol=1e-6)
            np.testing.assert_allclose(sol.sol(fine, 1)[0], np.cos(fine), atol=1e-5)
        elif name == "eigenvalue":
            assert sol.p[0] == pytest.approx(math.pi, rel=1e-6)
            np.testing.assert_allclose(sol.sol(fine)[0], np.sin(math.pi * fine), atol=1e-6)
        else:
            assert len(sol.x) > 5 * len(x)  # the layer was resolved
            np.testing.assert_allclose(sol.sol(fine)[0], layer_exact(fine), atol=1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = scipy.integrate.solve_bvp(lambda x, y, p=np.empty(0): fun(x, y, p),
                                             lambda ya, yb, p=np.empty(0): bc(ya, yb, p),
                                             x, guess(x), p, tol=tol, max_nodes=10_000)
        assert (sol.status, sol.niter, len(sol.x)) == (want.status, want.niter, len(want.x))
        np.testing.assert_allclose(sol.y, want.y, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(sol.sol(fine), want.sol(fine), rtol=1e-9, atol=1e-10)

    def test_non_increasing_mesh_refused(self):
        fun, jac, bc, bc_jac, _, guess, p, tol = KNOWN["sine"]
        for x in (np.array([0.0, 0.5, 0.5, 1.0]), np.array([0.0, 1.0, 0.5, 1.5])):
            with pytest.raises(ValueError, match="x must be strictly increasing"):
                solve_bvp(fun, bc, x, guess(x), fun_jac=jac, bc_jac=bc_jac)
            with pytest.raises(ValueError, match="strictly increasing"):
                scipy.integrate.solve_bvp(lambda x, y: fun(x, y, p), lambda ya, yb: bc(ya, yb, p),
                                          x, guess(x))

    def test_unmet_boundary_condition_is_status_3_as_in_scipy(self):
        # y' = 0 with y(0)^2 + 1 = 0, which no real y meets: the collocation
        # residual stays zero, so no node is added, and Newton wanders on
        # each mesh (chaotically: the final y is not compared)
        def fun(x, y, p):
            return np.zeros_like(y)

        def jac(x, y, p):
            return np.zeros((1, 1, len(x))), np.zeros((1, 0, len(x)))

        def bc(ya, yb, p):
            return ya**2 + 1.0

        def bc_jac(ya, yb, p):
            return 2.0 * ya[:, None], np.zeros((1, 1)), np.zeros((1, 0))

        x, y = np.linspace(0.0, 1.0, 5), np.ones((1, 5))
        sol = solve_bvp(fun, bc, x, y, fun_jac=jac, bc_jac=bc_jac)
        want = scipy.integrate.solve_bvp(lambda x, y: fun(x, y, None),
                                         lambda ya, yb: bc(ya, yb, None), x, y)
        assert (sol.status, sol.niter, len(sol.x)) == (want.status, want.niter, len(want.x))
        assert (sol.status, sol.niter, sol.message) == (3, _bvp.MAX_ITERATION, want.message)

    def test_node_cap_is_status_1(self):
        fun, jac, bc, bc_jac, x, guess, p, tol = KNOWN["layer"]
        sol = solve_bvp(fun, bc, x, guess(x), fun_jac=jac, bc_jac=bc_jac, tol=tol, max_nodes=30)
        assert sol.status == 1 and len(sol.x) <= 30

    def test_singular_jacobian_is_status_2(self):
        # the boundary conditions never fix y(a): every Jacobian is singular
        def bc(ya, yb, p):
            return np.array([yb[0] - 1.0, yb[0] - 1.0])

        def bc_jac(ya, yb, p):
            return np.zeros((2, 2)), np.array([[1.0, 0.0], [1.0, 0.0]]), np.zeros((2, 0))

        x = np.linspace(0, 1, 5)
        sol = solve_bvp(harmonic, bc, x, np.ones((2, 5)), fun_jac=harmonic_jac, bc_jac=bc_jac)
        assert sol.status == 2 and sol.jacobians == 1

    def test_non_finite_jacobian_is_status_2(self):
        def jac(x, y, p):
            df_dy, df_dp = harmonic_jac(x, y, p)
            df_dy[1, 0, -1] = np.inf
            return df_dy, df_dp

        x = np.linspace(0, math.pi / 2, 5)
        sol = solve_bvp(harmonic, sine_bc, x, np.ones((2, 5)), fun_jac=jac, bc_jac=sine_bc_jac)
        assert sol.status == 2 and sol.jacobians == 1

    @pytest.mark.parametrize("n,k,m", [(2, 0, 2), (3, 1, 9), (4, 2, 64), (6, 1, 301)])
    def test_cyclic_reduction_matches_a_dense_solve(self, n, k, m):
        # blocks of a collocation system on a stiff problem: the modes grow
        # and decay like exp(+-30 x) over the mesh
        rng = np.random.default_rng(m)
        h = np.diff(np.sort(rng.uniform(0, 1, m)))[:, None, None]
        h = np.full((m - 1, 1, 1), 1.0 / (m - 1)) if m < 3 else h
        J = 30.0 * rng.normal(size=(m - 1, n, n))
        A = -np.identity(n) - h / 2 * J
        C = np.identity(n) - h / 2 * J
        P = rng.normal(size=(m - 1, n, k))
        Ba, Bb, Bp = (rng.normal(size=(n + k, w)) for w in (n, n, k))
        dense = np.zeros(((m - 1) * n + n + k, m * n + k))
        for i in range(m - 1):
            dense[i * n:(i + 1) * n, i * n:(i + 2) * n] = np.hstack([A[i], C[i]])
            dense[i * n:(i + 1) * n, m * n:] = P[i]
        dense[(m - 1) * n:] = np.hstack([Ba, np.zeros((n + k, (m - 2) * n)), Bb, Bp])
        r, r_bc = rng.normal(size=(m - 1, n)), rng.normal(size=n + k)
        want = np.linalg.solve(dense, np.concatenate([r.ravel(), r_bc]))
        y, p = _bvp._CyclicReduction(A, C, P, Ba, Bb, Bp).solve(r, r_bc)
        np.testing.assert_allclose(np.concatenate([y.ravel(), p]), want,
                                   rtol=1e-9, atol=1e-9 * np.abs(want).max())


def scipy_solve_bvp(fun, bc, x, y, p=None, *, fun_jac, bc_jac, tol, max_nodes):
    """shell.solve_bvp as it was: scipy's, with finite-difference Jacobians
    (and no factorization count)."""
    sol = scipy.integrate.solve_bvp(fun, bc, x, y, p=p, tol=tol, max_nodes=max_nodes)
    sol.jacobians, sol.max_rms_residual = 0, float(np.max(sol.rms_residuals))
    return sol


def rescale_to_tau(params, tau):
    return ShellParams(R=params.R, h=params.h, E=params.E, nu=params.nu,
                       Pg=params.Pg * tau / params.tau)


BALL = ShellParams(R=0.13, h=8.6e-4, E=2.3e6, Pg=1300.0)


@pytest.mark.parametrize(
    "tau,W0", [(None, -1.0), (None, -4.0), (40.0, -3.0), (100.0, -3.0)],
    ids=["membrane-W0-1", "membrane-W0-4", "full-tau40-W0-3", "full-tau100-W0-3"],
)
def test_shell_solves_match_scipy(monkeypatch, tau, W0):
    params = BALL if tau is None else rescale_to_tau(BALL, tau)
    options = SolverOptions(membrane_limit=tau is None)
    calls = {"package": [], "scipy": []}

    def recorded(solver, key):
        def solve(*args, **kwargs):
            calls[key].append(solver(*args, **kwargs))
            return calls[key][-1]
        return solve

    monkeypatch.setattr(shell, "solve_bvp", recorded(_bvp.solve_bvp, "package"))
    got = solve_indentation(params, W0, options)
    monkeypatch.setattr(shell, "solve_bvp", recorded(scipy_solve_bvp, "scipy"))
    want = solve_indentation(params, W0, options)
    assert got.force == pytest.approx(want.force, rel=1e-10)
    assert (got.bvp_solves, got.bvp_iterations, got.max_nodes) == (
        want.bvp_solves, want.bvp_iterations, want.max_nodes)
    # solve by solve: the same meshes, iterations and force constants (the
    # full steps' Newton iterations stop at the loose STEP_TOL)
    assert [(s.status, s.niter, len(s.x)) for s in calls["package"]] == [
        (s.status, s.niter, len(s.x)) for s in calls["scipy"]]
    for mine, theirs in zip(calls["package"], calls["scipy"]):
        assert mine.p[0] == pytest.approx(theirs.p[0], rel=1e-8)
