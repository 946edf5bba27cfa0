"""Axisymmetric pressurized shallow-shell indentation solver.

Solves the nondimensional shell equations for the displacement W(rho) and
Airy-stress derivative Psi(rho) under a point indentation, displacement
controlled: the depth W0 at the inner boundary is prescribed and the
dimensionless point force is recovered as a free parameter of the boundary
value problem via the vertical force-balance first integral.

Membrane limit (bending term dropped, valid for tau >> 1):

    first integral of the normal balance:
        rho*Psi - Psi*W' = rho^2/2 - c        (c = F / (2*pi))
    compatibility:
        Psi''' + 2 Psi''/rho - Psi'/rho^2 + Psi/rho^3
            = lap(W) - (W' W'')/rho

with F the force scaled by P_g * l_p^2.  The full system keeps the
biharmonic bending term with prefactor 1/tau^2 and a clamped slope under
the indenter.  Boundary conditions: zero horizontal displacement at the
load point (rho*Psi' - nu*Psi -> 0), and the far field W -> 0,
Psi -> rho/2 of the unindented pressurized state.

Hoop stress is Psi', radial stress Psi/rho; a compressive (negative) hoop
annulus signals the onset of radial wrinkles.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._bvp import solve_bvp
from ._solvers import brentq
from .errors import NonConvergenceError, ValidationError, instance, number, poisson, positive

_log = logging.getLogger(__name__)

# wrinkle-count scaling n ~ WRINKLE_FACTOR * sqrt(tau)
WRINKLE_FACTOR = 1.33

DEFAULT_NU = 0.4

# Longest full-system base-grid interval, in elastic lengths 1/sqrt(tau):
# coarser far-field intervals all sit near tol, and solve_bvp then refines
# them one or two nodes per iteration.
ELASTIC_LENGTH_SPACING = 1.2

# Collocation settings.  The membrane base grid is GRID_SIZE nodes spaced
# geometrically over [RHO0, RHO_INF]; the full-system one follows it until
# its spacing reaches ELASTIC_LENGTH_SPACING and is uniform beyond.  Each
# continuation step starts again from the base grid and refines until the
# relative collocation residual is below its tolerance, so the tolerance
# alone sets the final mesh.  Only the step that lands on the target reaches
# the result; a full step's solution serves only as the next step's guess on
# the base grid, so full steps stop at the loose STEP_TOL and the landing
# step at BVP_TOL.  Over membrane W0 = -0.5 to -16 and full-system tau = 10
# to 400, STEP_TOL = 1e-3 takes 38% fewer collocation iterations than
# BVP_TOL on every step, with the same solve counts and forces within
# 1e-12 relative.  BVP_TOL = 1e-6 serves both systems: membrane forces at
# 1e-6 and at 1e-8 differ by at most 2.9e-9 relative at W0 = -1, -4 and -8,
# and the full system's inner bending layer over-refines at tighter targets.
GRID_SIZE = 400
RHO_INF = 30.0
RHO0 = 1e-3 * RHO_INF  # inner regularization radius replacing the point-load delta
# deepest |W0| solve_indentation takes: the cap junction sqrt(|W0|) stays in the
# inner third of the domain (on a 2-vCPU Xeon W0 = -256 takes 89 s, -1000 over 120 s)
MAX_DEPTH = (RHO_INF / 3.0) ** 2
BVP_TOL = 1e-6
STEP_TOL = 1e-3
MAX_NODES = 200_000  # caps each refined mesh


@dataclass(frozen=True)
class ShellParams:
    """Local shell patch: radius R, thickness h, modulus E, nu, pressure Pg.

    Pg has no default and is passed by keyword.
    """

    R: float
    h: float
    E: float
    nu: float = DEFAULT_NU
    Pg: float = field(kw_only=True)

    def __post_init__(self):
        for name in ("R", "h", "E", "Pg"):
            object.__setattr__(self, name, positive(name, getattr(self, name)))
        object.__setattr__(self, "nu", poisson("nu", self.nu))
        try:
            tau = self.tau
        except (ZeroDivisionError, OverflowError):  # E h B underflows to 0, R^2 or h^3 overflows
            tau = math.inf
        positive("tau", tau)

    @property
    def bending_stiffness(self) -> float:
        """B = E h^3 / (12 (1 - nu^2))."""
        return self.E * self.h**3 / (12.0 * (1.0 - self.nu**2))

    @property
    def capillary_length(self) -> float:
        """l_p = sqrt(Pg R^3 / (E h))."""
        return math.sqrt(self.Pg * self.R**3 / (self.E * self.h))

    @property
    def tau(self) -> float:
        """Bendability: Pg R^2 / sqrt(E h B)."""
        return self.Pg * self.R**2 / math.sqrt(self.E * self.h * self.bending_stiffness)


@dataclass(frozen=True)
class SolverOptions:
    """Which shell equations to solve.

    ``membrane_limit`` (the default) drops the bending term, valid for
    tau >> 1; ``False`` solves the full system with its 1/tau^2 bending
    term.  The collocation settings are the module constants ``GRID_SIZE``,
    ``RHO_INF``, ``RHO0``, ``BVP_TOL``, ``STEP_TOL`` and ``MAX_NODES``.
    """

    membrane_limit: bool = True


@dataclass(frozen=True)
class ShellSolution:
    """Converged radial profiles on an ascending grid [rho0, rho_inf].

    The solver counts cover the ``solve_bvp`` calls of the continuation:
    ``bvp_solves`` counts the converged ones, ``bvp_iterations`` sums
    ``niter`` over all of them (failed ones included) and ``max_nodes`` is
    the largest final mesh of any.
    """

    rho: np.ndarray
    W: np.ndarray
    Psi: np.ndarray
    hoop_stress: np.ndarray
    W0: float
    force: float  # dimensionless, F / (Pg * l_p^2)
    bvp_solves: int = 0
    bvp_iterations: int = 0
    max_nodes: int = 0

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho[0] <= 0 or np.any(np.diff(rho) <= 0):
            raise ValidationError("rho grid must be strictly increasing from rho0 > 0")
        rho_inf = rho[-1]
        if abs(self.W[-1]) >= 1e-4:
            raise ValidationError(f"far field |W(rho_inf)| = {abs(self.W[-1]):.3g} >= 1e-4")
        # Psi -> rho/2 up to the point-load tail -c/rho (c = force / 2 pi)
        tail = self.force / (2.0 * math.pi * rho_inf)
        if abs(self.Psi[-1] - (rho_inf / 2.0 - tail)) >= 1e-3 * rho_inf:
            raise ValidationError("far field Psi(rho_inf) deviates from rho_inf/2 - c/rho_inf")

    @property
    def radial_stress(self) -> np.ndarray:
        """Psi / rho."""
        return self.Psi / self.rho

    @property
    def annulus(self) -> tuple[float, float] | None:
        """First and last grid radius of negative hoop stress, or None."""
        neg = np.flatnonzero(self.hoop_stress < 0)
        return (float(self.rho[neg[0]]), float(self.rho[neg[-1]])) if neg.size else None

    def force_newtons(self, params: ShellParams) -> float:
        """Dimensional point force for the given shell parameters."""
        instance("params", params, ShellParams)
        return self.force * params.Pg * params.capillary_length**2

    def min_hoop_stress(self) -> float:
        return float(np.min(self.hoop_stress))


def _check_depth(W0: float) -> None:
    # a nan or infinite depth would never end the continuation loop
    if not number("W0", W0) <= 0:
        raise ValidationError(f"W0 must be finite and <= 0, got {W0}")


def _membrane_slopes(rho, y, p):
    """Psi held off 0, q = rho^2/2 - c, and W' = g, W'' = dg from the first
    integral."""
    psi, dpsi = y[0], y[1]
    psi_safe = np.where(np.abs(psi) < 1e-12, 1e-12, psi)
    q = rho**2 / 2.0 - p[0]
    g = rho - q / psi_safe  # W'
    dg = (1.0 - rho / psi_safe) + q / psi_safe**2 * dpsi
    return psi_safe, q, g, dg


def _membrane_rhs(rho, y, p):
    psi, dpsi, d2psi, _w = y
    _, _, g, dg = _membrane_slopes(rho, y, p)
    d3psi = (
        -2.0 * d2psi / rho
        + dpsi / rho**2
        - psi / rho**3
        + dg
        + g / rho
        - g * dg / rho
    )
    return np.vstack([dpsi, d2psi, d3psi, g])


def _membrane_jac(rho, y, p):
    """d(_membrane_rhs)/dy (4, 4, m) and d/dc (4, 1, m)."""
    psi, dpsi = y[0], y[1]
    psi_safe, q, g, dg = _membrane_slopes(rho, y, p)
    # derivatives of g and dg by psi_safe, dpsi and c; psi_safe is constant
    # where it holds psi off 0
    free = psi_safe == psi
    g_psi, g_c = np.where(free, q / psi_safe**2, 0.0), 1.0 / psi_safe
    dg_psi = np.where(free, rho / psi_safe**2 - 2.0 * q / psi_safe**3 * dpsi, 0.0)
    dg_dpsi, dg_c = q / psi_safe**2, -dpsi / psi_safe**2
    inner = 1.0 - g / rho  # d3psi = .. + dg (1 - g / rho) + g / rho
    df_dy = np.zeros((4, 4, len(rho)))
    df_dy[0, 1] = df_dy[1, 2] = 1.0
    df_dy[2, 0] = -1.0 / rho**3 + dg_psi * inner + g_psi * (1.0 - dg) / rho
    df_dy[2, 1] = 1.0 / rho**2 + dg_dpsi * inner
    df_dy[2, 2] = -2.0 / rho
    df_dy[3, 0] = g_psi
    df_dp = np.zeros((4, 1, len(rho)))
    df_dp[2, 0] = dg_c * inner + g_c * (1.0 - dg) / rho
    df_dp[3, 0] = g_c
    return df_dy, df_dp


def _membrane_bc(W0, nu):
    """The boundary residuals at depth W0 and their Jacobian."""
    # The far field approaches the unindented state with the algebraic tail
    # Psi = rho/2 - c/rho forced by the point load; truncating without the
    # tail would inject an O(c) error growing inward as 1/rho.
    # At the inner boundary the membrane has the point-load local behavior
    # W = W(0) + const * rho^(2/3), so the apex depth is extrapolated as
    # W(0) = W(rho0) - (3/2) rho0 W'(rho0); W0 prescribes the apex value.
    def bc(ya, yb, p):
        c = p[0]
        psi0 = ya[0]
        w_slope0 = RHO0 - (RHO0**2 / 2.0 - c) / psi0
        return np.array(
            [
                RHO0 * ya[1] - nu * ya[0],  # regularity at the load point
                ya[3] - 1.5 * RHO0 * w_slope0 - W0,  # prescribed apex depth
                yb[3],  # W -> 0
                yb[0] - (RHO_INF / 2.0 - c / RHO_INF),
                yb[1] - (0.5 + c / RHO_INF**2),
            ]
        )

    def bc_jac(ya, yb, p):
        c = p[0]
        psi0 = ya[0]
        dya, dyb = np.zeros((5, 4)), np.zeros((5, 4))
        dya[0, :2] = -nu, RHO0
        dya[1, 0] = -1.5 * RHO0 * (RHO0**2 / 2.0 - c) / psi0**2
        dya[1, 3] = dyb[2, 3] = dyb[3, 0] = dyb[4, 1] = 1.0
        dp = np.array([[0.0], [-1.5 * RHO0 / psi0], [0.0], [1.0 / RHO_INF], [-1.0 / RHO_INF**2]])
        return dya, dyb, dp

    return bc, bc_jac


def _full_rhs_factory(tau):
    """The full system's right-hand side at bendability tau and its Jacobian."""
    tau2 = tau * tau

    def rhs(rho, y, p):
        w, phi, dphi, psi, dpsi, d2psi = y
        c = p[0]
        q = rho**2 / 2.0 - c
        d2phi = tau2 * (q - rho * psi + psi * phi) / rho - dphi / rho + phi / rho**2
        d3psi = (
            -2.0 * d2psi / rho
            + dpsi / rho**2
            - psi / rho**3
            + dphi
            + phi / rho
            - phi * dphi / rho
        )
        return np.vstack([phi, dphi, d2phi, dpsi, d2psi, d3psi])

    def jac(rho, y, p):
        w, phi, dphi, psi, dpsi, d2psi = y
        df_dy = np.zeros((6, 6, len(rho)))
        df_dy[0, 1] = df_dy[1, 2] = df_dy[3, 4] = df_dy[4, 5] = 1.0
        df_dy[2, 1] = tau2 * psi / rho + 1.0 / rho**2
        df_dy[2, 2] = -1.0 / rho
        df_dy[2, 3] = tau2 * (phi - rho) / rho
        df_dy[5, 1] = (1.0 - dphi) / rho
        df_dy[5, 2] = 1.0 - phi / rho
        df_dy[5, 3] = -1.0 / rho**3
        df_dy[5, 4] = 1.0 / rho**2
        df_dy[5, 5] = -2.0 / rho
        df_dp = np.zeros((6, 1, len(rho)))
        df_dp[2, 0] = -tau2 / rho
        return df_dy, df_dp

    return rhs, jac


def _full_bc(W0, nu):
    """The boundary residuals at depth W0 and their Jacobian."""
    def bc(ya, yb, p):
        return np.array(
            [
                ya[0] - W0,
                ya[1],  # clamped slope under the indenter
                RHO0 * ya[4] - nu * ya[3],
                yb[0],
                yb[1],
                yb[3] - (RHO_INF / 2.0 - p[0] / RHO_INF),
                yb[4] - (0.5 + p[0] / RHO_INF**2),
            ]
        )

    def bc_jac(ya, yb, p):
        dya, dyb = np.zeros((7, 6)), np.zeros((7, 6))
        dya[0, 0] = dya[1, 1] = 1.0
        dya[2, 3:5] = -nu, RHO0
        dyb[3, 0] = dyb[4, 1] = dyb[5, 3] = dyb[6, 4] = 1.0
        dp = np.array([[0.0]] * 5 + [[1.0 / RHO_INF], [-1.0 / RHO_INF**2]])
        return dya, dyb, dp

    return bc, bc_jac


def _base_grid(membrane: bool, tau: float) -> np.ndarray:
    """Geometric grid over [RHO0, RHO_INF]; for the full system, uniform
    from where the geometric spacing would exceed ELASTIC_LENGTH_SPACING
    elastic lengths."""
    rho = np.geomspace(RHO0, RHO_INF, GRID_SIZE)
    if membrane:
        return rho
    h_max = ELASTIC_LENGTH_SPACING / math.sqrt(tau)
    k = int(np.searchsorted(np.diff(rho), h_max, side="right"))
    if k == len(rho) - 1:
        return rho
    n = math.ceil((RHO_INF - rho[k]) / h_max)
    return np.concatenate([rho[:k], np.linspace(rho[k], RHO_INF, n + 1)])


class _ContinuationState:
    """Carries the last converged profile, on the base grid, between depth
    steps.  Picks the equation set once: the right-hand side with its
    Jacobian, bc(W0, nu) giving the boundary residuals with theirs, and the
    rows of W, Psi, Psi'."""

    def __init__(self, membrane: bool, nu: float, tau: float):
        self.nu = nu
        self.W0 = 0.0
        rho = self.x = _base_grid(membrane, tau)
        zeros = np.zeros_like(rho)
        if membrane:
            self.rhs, self.jac, self.bc = _membrane_rhs, _membrane_jac, _membrane_bc
            self.rows = (3, 0, 1)
            self.y = np.vstack([rho / 2.0, np.full_like(rho, 0.5), zeros, zeros])
        else:
            (self.rhs, self.jac), self.bc = _full_rhs_factory(tau), _full_bc
            self.rows = (0, 3, 4)
            self.y = np.vstack([zeros, zeros, zeros, rho / 2.0, np.full_like(rho, 0.5), zeros])
        self.p = np.array([0.0])
        self.sol = None
        self.step = 0.25  # continuation step in |W0|
        self.bvp_solves = self.bvp_iterations = self.max_nodes = 0

    def advance(self, W0_target: float, tol: float) -> None:
        """One collocation solve at W0_target from the stored guess, to the
        relative residual tol."""
        w_row = self.rows[0]
        x = self.x
        y = self.y.copy()
        # shift the depth guess so the inner BC starts near-satisfied
        if self.W0 != W0_target:
            if self.W0 != 0.0:
                y[w_row] *= W0_target / self.W0
            else:
                y[w_row] = W0_target * np.exp(-(x - RHO0))
        p = self.p.copy()
        if p[0] == 0.0 and W0_target != 0.0:
            p[0] = abs(W0_target) / 2.0  # cap-theory force scale
        start = time.perf_counter()
        bc, bc_jac = self.bc(W0_target, self.nu)
        sol = solve_bvp(self.rhs, bc, x, y, p=p, fun_jac=self.jac, bc_jac=bc_jac,
                        tol=tol, max_nodes=MAX_NODES)
        report = {
            "W0": W0_target,
            "tol": tol,
            "status": int(sol.status),
            "nodes": len(sol.x),
            "niter": int(sol.niter),
            "jacobians": sol.jacobians,
            "max_rms_residual": sol.max_rms_residual,
            "wall_s": time.perf_counter() - start,
        }
        _log.debug("solve_bvp %s", report, extra={"bvp": report})
        self.bvp_iterations += int(sol.niter)
        self.max_nodes = max(self.max_nodes, len(sol.x))
        if sol.status != 0:
            raise NonConvergenceError(
                f"BVP solver failed at W0={W0_target} ({sol.message})",
                last_good_w0=self.W0,
            )
        # residual control only ever inserts nodes, so the next step starts
        # again on the base grid from this step's interpolant
        self.y, self.p = sol.sol(x), sol.p
        self.W0 = W0_target
        self.sol = sol
        self.bvp_solves += 1

    def continue_to(self, W0: float) -> None:
        """Step W0 to the target: full steps at STEP_TOL, the landing step at
        BVP_TOL; a full step doubles the step, a failed solve halves it."""
        while self.W0 != W0:
            gap = W0 - self.W0
            full = abs(gap) > self.step
            if full:
                target, tol = self.W0 + math.copysign(self.step, gap), STEP_TOL
            else:
                target, tol = W0, BVP_TOL
            try:
                self.advance(target, tol)
            except NonConvergenceError:
                self.step /= 2.0
                if self.step < 1e-3:
                    raise
                continue
            if full:
                self.step *= 2.0

    def solution(self) -> ShellSolution:
        """The last converged profile; before any solve, the exact unindented
        state W = 0, Psi = rho/2 on the base grid."""
        sol = self.sol
        rho, y, p = (self.x, self.y, self.p) if sol is None else (sol.x, sol.y, sol.p)
        w, psi, dpsi = (y[row] for row in self.rows)
        return ShellSolution(
            rho=rho,
            W=w,
            Psi=psi,
            hoop_stress=dpsi,  # hoop stress is Psi'
            W0=float(self.W0),
            force=2.0 * math.pi * float(p[0]),
            bvp_solves=self.bvp_solves,
            bvp_iterations=self.bvp_iterations,
            max_nodes=self.max_nodes,
        )


def solve_indentation(
    params: ShellParams, W0: float, options: SolverOptions = SolverOptions()
) -> ShellSolution:
    """Solve the indentation BVP at prescribed dimensionless depth W0 <= 0,
    with |W0| at most MAX_DEPTH.

    ``options`` picks the membrane limit (default) or the full system.
    Continuation steps from the unindented state, warm-starting each
    collocation solve from the previous one on a fixed base grid (see
    `_base_grid`; the full-system one resolves the elastic length
    1/sqrt(tau)).  Full steps are solved to ``STEP_TOL`` and only the step
    that lands on W0 to ``BVP_TOL``.  The step starts at 0.25 in |W0|; it
    doubles after each full step and halves after a failed solve.  The
    solution reports the collocation solves, iterations and largest mesh
    the continuation took; at W0 = 0 it is the exact unindented state on
    the base grid, with all counts 0.  Each collocation solve also logs one
    DEBUG record on ``inflatekit.shell`` whose ``bvp`` attribute holds its
    target W0, tolerance, status, final nodes, iterations, Newton Jacobians
    factored, largest RMS relative residual and wall time.
    The dimensionless force comes from the vertical force balance at the
    inner boundary (the first-integral constant).
    """
    instance("params", params, ShellParams)
    instance("options", options, SolverOptions)
    _check_depth(W0)
    if abs(W0) > MAX_DEPTH:
        raise ValidationError(
            f"|W0| = {abs(W0):.4g} is above the bound {MAX_DEPTH:g} = (RHO_INF / 3)^2: "
            "the cap junction sqrt(|W0|) must lie well inside the truncated domain"
        )
    state = _ContinuationState(options.membrane_limit, params.nu, params.tau)
    state.continue_to(float(W0))
    return state.solution()


def critical_depth(params: ShellParams) -> float:
    """Depth W0 at which compressive hoop stress (wrinkling) first appears.

    Always solved in the membrane limit: Brent's method on its minimum hoop
    stress over [-6, 0], to 1e-4 in W0, warm-started through one
    continuation state.  The result is a universal dimensionless constant
    (~ -2.53), independent of the dimensional parameters while tau stays
    large; below tau = 10 it warns.
    """
    instance("params", params, ShellParams)
    if params.tau < 10:
        warnings.warn(
            f"tau = {params.tau:.3g} < 10: membrane limit is questionable",
            stacklevel=2,
        )
    state = _ContinuationState(True, params.nu, params.tau)

    def min_hoop_stress(W0):
        state.continue_to(W0)
        return state.solution().min_hoop_stress()

    # W0 = 0 first: the unindented state needs no solve
    try:
        return float(brentq(min_hoop_stress, 0.0, -6.0, xtol=1e-4))
    except ValueError:  # no sign change: the hoop stress at -6 is >= 0
        raise NonConvergenceError(
            "no compressive hoop stress found down to W0 = -6", last_good_w0=state.W0
        ) from None


@dataclass(frozen=True)
class WrinkleCount:
    count: int
    unrounded: float


def wrinkle_count(params: ShellParams) -> WrinkleCount:
    """Predicted number of radial wrinkles, n ~ 1.33 sqrt(tau).

    Rounds half-up to the nearest integer (the observed count is an
    integer; no rounding rule is physically mandated).
    """
    instance("params", params, ShellParams)
    unrounded = WRINKLE_FACTOR * math.sqrt(params.tau)
    return WrinkleCount(count=int(math.floor(unrounded + 0.5)), unrounded=unrounded)


def cap_profile(W0: float, rho) -> np.ndarray:
    """Inverted-cap displacement profile at rho: W0 + rho^2 inside
    rho <= sqrt(|W0|), 0 outside.

    An asymptotic form for W0 << -1.  In the membrane limit its uniform-grid
    RMS deviation from the solved profile over [rho0, sqrt(|W0|)],
    normalised by |W0|, is about 30% at W0 = -2, 25% at -8 and 17% at -32;
    it drops below 15% only beyond W0 ~ -49.
    """
    _check_depth(W0)
    if abs(W0) < 1.0:
        warnings.warn(
            f"|W0| = {abs(W0):.3g} < 1: cap approximation assumes W0 << -1",
            stacklevel=2,
        )
    rho = np.asarray(rho, dtype=float)
    return np.where(rho <= math.sqrt(abs(W0)), W0 + rho**2, 0.0)


def solution_to_csv(sol: ShellSolution, path) -> None:
    """Export profiles as CSV: rho,W,Psi,hoop_stress,radial_stress."""
    instance("sol", sol, ShellSolution)
    data = np.column_stack([sol.rho, sol.W, sol.Psi, sol.hoop_stress, sol.radial_stress])
    header = "rho,W,Psi,hoop_stress,radial_stress"
    np.savetxt(path, data, delimiter=",", header=header, comments="")
