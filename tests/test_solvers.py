"""Tests for the package's own root finder and minimiser, with scipy as the
oracle: brentq must return scipy's float bit for bit."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inflatekit import _solvers, shell, simulator
from inflatekit._solvers import brentq, lbfgs
from inflatekit.errors import NonConvergenceError
from inflatekit.shell import ShellParams, critical_depth
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

    def test_infinite_values_are_backtracked_from(self):
        # the domain is x > 0: the first trial step of unit length leaves it
        def fun(x):
            if x[0] <= 0:
                return math.inf, np.zeros_like(x)
            return float(x[0] - math.log(x[0])), 1.0 - 1.0 / x

        x, _ = lbfgs(fun, np.array([0.05]), 1e-10, 100)
        assert x[0] == pytest.approx(1.0, abs=1e-9)
