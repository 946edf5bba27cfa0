"""Independent coarse shooting solver for the membrane shell equations.

Deliberately a different numerical route than the package solver: inward
RK45 integration from a truncated far field, with two scalar root searches
instead of collocation/Newton.  The physical point-load solution has
Psi -> 0 at the axis (the rho^(1/3) cusp), which is exactly the boundary
between trajectories that crash (Psi hits zero early) and trajectories that
swing up to large Psi; a bisection on the decaying-mode amplitude rides
that boundary, and Brent's method on the force constant c matches the
requested apex depth.  Coarse by construction (few-percent accuracy); used
only to cross-check [independent-oracle] expectations in the tests.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

SQRT2 = np.sqrt(2.0)


def _rhs(rho, y, c):
    psi, dpsi, d2psi, w = y
    q = rho**2 / 2.0 - c
    g = rho - q / psi
    dg = (1.0 - rho / psi) + q / psi**2 * dpsi
    d3psi = (
        -2.0 * d2psi / rho
        + dpsi / rho**2
        - psi / rho**3
        + dg
        + g / rho
        - g * dg / rho
    )
    return [dpsi, d2psi, d3psi, g]


def _psi_floor(rho, y, c):
    return y[0] - 1e-6


_psi_floor.terminal = True
_psi_floor.direction = -1


def integrate_inward(c, b, rho0=0.02, rho_inf=10.0, rtol=1e-8):
    """Integrate from rho_inf down to rho0.

    Far-field start: Psi = rho/2 - c/rho plus the outward-decaying
    exponential mode; b is the mode amplitude in units of its total inward
    growth factor over the sweep (so b = O(1) for the physical solution).
    Stops early if Psi collapses.
    """
    a = b * np.exp(-SQRT2 * (rho_inf - rho0))
    y_inf = [
        rho_inf / 2.0 - c / rho_inf + a,
        0.5 + c / rho_inf**2 - SQRT2 * a,
        -2.0 * c / rho_inf**3 + 2.0 * a,
        0.0,
    ]
    return solve_ivp(
        _rhs,
        (rho_inf, rho0),
        y_inf,
        args=(c,),
        method="RK45",
        rtol=rtol,
        atol=1e-12,
        dense_output=True,
        events=_psi_floor,
    )


def _survives(sol, rho0):
    return sol.status == 0 and sol.t[-1] <= rho0 * (1 + 1e-9)


def _boundary_amplitude(c, guess=None, rho0=0.02, rho_inf=10.0):
    """Bisect the mode amplitude to the crash/survive boundary.

    The bracket starts at [-1, 4], or at guess +- 1e-3 when the boundary of
    a nearby c is known, and widens x8 until its lower end crashes and its
    upper end survives.  Stops at a relative bracket width of 1e-8: narrower
    brackets leave the force constant unchanged and only add integrations.
    Returns the surviving end of the bracket and its trajectory.
    """
    b_lo, b_hi = (-1.0, 4.0) if guess is None else (guess - 1e-3, guess + 1e-3)
    sol_lo, sol_hi = (integrate_inward(c, b, rho0, rho_inf) for b in (b_lo, b_hi))
    while _survives(sol_lo, rho0) or not _survives(sol_hi, rho0):
        width = 8.0 * (b_hi - b_lo)
        if width > 1e4:
            raise RuntimeError("bracket failure: no crash/survive boundary")
        if _survives(sol_lo, rho0):
            b_hi, sol_hi, b_lo = b_lo, sol_lo, b_lo - width
            sol_lo = integrate_inward(c, b_lo, rho0, rho_inf)
        else:
            b_lo, b_hi = b_hi, b_hi + width
            sol_hi = integrate_inward(c, b_hi, rho0, rho_inf)
    while b_hi - b_lo > 1e-8 * abs(b_hi):
        b_mid = 0.5 * (b_lo + b_hi)
        if b_mid in (b_lo, b_hi):
            break
        sol = integrate_inward(c, b_mid, rho0, rho_inf)
        if _survives(sol, rho0):
            b_hi, sol_hi = b_mid, sol
        else:
            b_lo = b_mid
    return b_hi, sol_hi


def _apex_depth(sol, rho_eval=0.15):
    """Apex extrapolation W(0) = W(rho) - 1.5 rho W'(rho) on the cusp."""
    psi, _dpsi, _d2psi, w = sol.sol(rho_eval)
    # W' from the first integral is implicit in the trajectory; use the
    # dense-output derivative of W via a small central difference
    h = 1e-4
    w_plus = sol.sol(rho_eval + h)[3]
    w_minus = sol.sol(rho_eval - h)[3]
    slope = (w_plus - w_minus) / (2 * h)
    return w - 1.5 * rho_eval * slope


def solve_membrane_shooting(W0, rho0=0.02, rho_inf=10.0, c_tol=5e-4):
    """Shooting solution at prescribed apex depth W0 (< 0).

    Returns (c, sol): force constant (dimensionless force = 2*pi*c) and the
    inward IVP solution on the cusp manifold.
    """
    if not W0 < 0:
        raise ValueError("W0 must be negative")

    shots = {}  # c -> trajectory on its crash/survive boundary
    b = None

    def apex_miss(c):
        nonlocal b
        b, shots[c] = _boundary_amplitude(c, b, rho0, rho_inf)
        return _apex_depth(shots[c]) - W0

    # apex depth becomes deeper (more negative) as c grows; the bracket
    # holds W0 = -1 to -8
    c = brentq(apex_miss, 0.02, max(1.0, abs(W0)), xtol=c_tol)
    return c, shots[c]
