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

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_bvp
from scipy.optimize import brentq

from .errors import NonConvergenceError, ValidationError

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
# relative collocation residual is below BVP_TOL, so the tolerance alone sets
# the final mesh.  1e-6 serves both systems: membrane forces at 1e-6 and at
# 1e-8 differ by at most 2.9e-9 relative at W0 = -1, -4 and -8, and the full
# system's inner bending layer over-refines at tighter targets.
GRID_SIZE = 400
RHO_INF = 30.0
RHO0 = 1e-3 * RHO_INF  # inner regularization radius replacing the point-load delta
BVP_TOL = 1e-6
MAX_NODES = 200_000  # caps each refined mesh


@dataclass(frozen=True)
class ShellParams:
    """Local shell patch: radius R, thickness h, modulus E, nu, pressure Pg."""

    R: float
    h: float
    E: float
    nu: float = DEFAULT_NU
    Pg: float = 0.0

    def __post_init__(self):
        for name in ("R", "h", "E", "Pg"):
            if not (getattr(self, name) > 0):
                raise ValidationError(f"{name} must be > 0, got {getattr(self, name)}")
        if not (0 < self.nu < 0.5):
            raise ValidationError(f"nu must be in (0, 0.5), got {self.nu}")
        try:
            tau = self.tau
        except ZeroDivisionError:  # E h B underflows to 0 for a vanishing modulus
            tau = math.inf
        if not (math.isfinite(tau) and tau > 0):
            raise ValidationError("tau must be finite and positive")

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
    ``RHO_INF``, ``RHO0``, ``BVP_TOL`` and ``MAX_NODES``.
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
    radial_stress: np.ndarray
    W0: float
    force: float  # dimensionless, F / (Pg * l_p^2)
    annulus: tuple[float, float] | None = None
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
        if self.annulus is not None:
            lo, hi = self.annulus
            inside = (rho >= lo) & (rho <= hi)
            if not np.any(self.hoop_stress[inside] < 0):
                raise ValidationError("annulus interval contains no negative hoop stress")

    def force_newtons(self, params: ShellParams) -> float:
        """Dimensional point force for the given shell parameters."""
        return self.force * params.Pg * params.capillary_length**2

    def min_hoop_stress(self) -> float:
        return float(np.min(self.hoop_stress))


@dataclass(frozen=True)
class CapProfile:
    """Inverted-spherical-cap approximation, valid for W0 << -1.

    In the membrane limit its uniform-grid RMS deviation from the solved
    profile over [rho0, sqrt(|W0|)], normalised by |W0|, is about 30% at
    W0 = -2, 25% at -8 and 17% at -32; it drops below 15% only beyond
    W0 ~ -49.
    """

    W0: float

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        inside = rho <= math.sqrt(abs(self.W0))
        return np.where(inside, self.W0 + rho**2, 0.0)


def _check_depth(W0: float) -> None:
    # a nan or infinite depth would never end the continuation loop
    if not (math.isfinite(W0) and W0 <= 0):
        raise ValidationError(f"W0 must be finite and <= 0, got {W0}")


def _membrane_rhs(rho, y, p):
    psi, dpsi, d2psi, _w = y
    c = p[0]
    psi_safe = np.where(np.abs(psi) < 1e-12, 1e-12, psi)
    q = rho**2 / 2.0 - c
    g = rho - q / psi_safe  # W'
    dg = (1.0 - rho / psi_safe) + q / psi_safe**2 * dpsi
    d3psi = (
        -2.0 * d2psi / rho
        + dpsi / rho**2
        - psi / rho**3
        + dg
        + g / rho
        - g * dg / rho
    )
    return np.vstack([dpsi, d2psi, d3psi, g])


def _membrane_bc_factory(W0, nu, rho0, rho_inf):
    # The far field approaches the unindented state with the algebraic tail
    # Psi = rho/2 - c/rho forced by the point load; truncating without the
    # tail would inject an O(c) error growing inward as 1/rho.
    # At the inner boundary the membrane has the point-load local behavior
    # W = W(0) + const * rho^(2/3), so the apex depth is extrapolated as
    # W(0) = W(rho0) - (3/2) rho0 W'(rho0); W0 prescribes the apex value.
    def bc(ya, yb, p):
        c = p[0]
        psi0 = ya[0]
        w_slope0 = rho0 - (rho0**2 / 2.0 - c) / psi0
        return np.array(
            [
                rho0 * ya[1] - nu * ya[0],  # regularity at the load point
                ya[3] - 1.5 * rho0 * w_slope0 - W0,  # prescribed apex depth
                yb[3],  # W -> 0
                yb[0] - (rho_inf / 2.0 - c / rho_inf),
                yb[1] - (0.5 + c / rho_inf**2),
            ]
        )

    return bc


def _full_rhs_factory(tau):
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

    return rhs


def _full_bc_factory(W0, nu, rho0, rho_inf):
    def bc(ya, yb, p):
        return np.array(
            [
                ya[0] - W0,
                ya[1],  # clamped slope under the indenter
                rho0 * ya[4] - nu * ya[3],
                yb[0],
                yb[1],
                yb[3] - (rho_inf / 2.0 - p[0] / rho_inf),
                yb[4] - (0.5 + p[0] / rho_inf**2),
            ]
        )

    return bc


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
    """Carries the last converged profile, on the base grid, between depth steps."""

    def __init__(self, membrane: bool, nu: float, tau: float):
        self.membrane = membrane
        self.nu = nu
        self.tau = tau
        self.W0 = 0.0
        rho = self.x = _base_grid(membrane, tau)
        zeros = np.zeros_like(rho)
        if membrane:
            self.y = np.vstack([rho / 2.0, np.full_like(rho, 0.5), zeros, zeros])
        else:
            self.y = np.vstack([zeros, zeros, zeros, rho / 2.0, np.full_like(rho, 0.5), zeros])
        self.p = np.array([0.0])
        self.sol = None
        self.step = 0.25  # continuation step in |W0|
        self.bvp_solves = self.bvp_iterations = self.max_nodes = 0

    def advance(self, W0_target: float) -> None:
        """One Newton solve at W0_target from the stored guess."""
        if self.membrane:
            rhs = _membrane_rhs
            bc = _membrane_bc_factory(W0_target, self.nu, RHO0, RHO_INF)
            w_row = 3
        else:
            rhs = _full_rhs_factory(self.tau)
            bc = _full_bc_factory(W0_target, self.nu, RHO0, RHO_INF)
            w_row = 0
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
        sol = solve_bvp(rhs, bc, x, y, p=p, tol=BVP_TOL, max_nodes=MAX_NODES)
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
        """Step W0 to the target: a full step that stays near the base grid
        doubles the step, a failed solve halves it."""
        while self.W0 != W0:
            gap = W0 - self.W0
            full = abs(gap) > self.step
            target = self.W0 + math.copysign(self.step, gap) if full else W0
            try:
                self.advance(target)
            except NonConvergenceError:
                self.step /= 2.0
                if self.step < 1e-3:
                    raise
                continue
            if full and len(self.sol.x) <= 3 * len(self.x):
                self.step *= 2.0

    def solution(self) -> ShellSolution:
        """The last converged profile; before any solve, the exact unindented
        state W = 0, Psi = rho/2 on the base grid."""
        sol = self.sol
        rho, y, p = (self.x, self.y, self.p) if sol is None else (sol.x, sol.y, sol.p)
        if self.membrane:
            psi, dpsi, w = y[0], y[1], y[3]
        else:
            w, psi, dpsi = y[0], y[3], y[4]
        neg = np.where(dpsi < 0)[0]  # hoop stress is Psi'
        annulus = (float(rho[neg[0]]), float(rho[neg[-1]])) if neg.size else None
        return ShellSolution(
            rho=rho,
            W=w,
            Psi=psi,
            hoop_stress=dpsi,
            radial_stress=psi / rho,
            W0=float(self.W0),
            force=2.0 * math.pi * float(p[0]),
            annulus=annulus,
            bvp_solves=self.bvp_solves,
            bvp_iterations=self.bvp_iterations,
            max_nodes=self.max_nodes,
        )


def solve_indentation(
    params: ShellParams, W0: float, options: SolverOptions = SolverOptions()
) -> ShellSolution:
    """Solve the indentation BVP at prescribed dimensionless depth W0 <= 0.

    ``options`` picks the membrane limit (default) or the full system.
    Continuation steps from the unindented state, warm-starting each
    collocation solve from the previous one on a fixed base grid (see
    `_base_grid`; the full-system one resolves the elastic length
    1/sqrt(tau)).  The step starts at 0.25 in |W0|; it doubles after a full
    step whose refined mesh stays within three times the base grid's nodes
    and halves after a failed solve.  The solution reports the collocation
    solves, iterations and largest mesh the continuation took; at W0 = 0 it
    is the exact unindented state on the base grid, with all counts 0.  The
    dimensionless force comes from the vertical force balance at the inner
    boundary (the first-integral constant).
    """
    _check_depth(W0)
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
    unrounded = WRINKLE_FACTOR * math.sqrt(params.tau)
    return WrinkleCount(count=int(math.floor(unrounded + 0.5)), unrounded=unrounded)


def cap_profile(W0: float) -> CapProfile:
    """Inverted-cap displacement profile W0 + rho^2 inside rho <= sqrt(|W0|).

    An asymptotic form for W0 << -1: see `CapProfile` for its measured
    deviation from the solved membrane profile (about 25% RMS at W0 = -8,
    below 15% only beyond W0 ~ -49).
    """
    _check_depth(W0)
    if abs(W0) < 1.0:
        warnings.warn(
            f"|W0| = {abs(W0):.3g} < 1: cap approximation assumes W0 << -1",
            stacklevel=2,
        )
    return CapProfile(W0=float(W0))


def cap_volume_change(params: ShellParams, w0: float) -> float:
    """Enclosed-volume change under indentation depth w0 (m): pi*R*w0^2/2."""
    if not (w0 > 0):
        raise ValidationError(f"w0 must be > 0, got {w0}")
    return 0.5 * math.pi * params.R * w0**2


def solution_to_csv(sol: ShellSolution, path) -> None:
    """Export profiles as CSV: rho,W,Psi,hoop_stress,radial_stress."""
    data = np.column_stack([sol.rho, sol.W, sol.Psi, sol.hoop_stress, sol.radial_stress])
    header = "rho,W,Psi,hoop_stress,radial_stress"
    np.savetxt(path, data, delimiter=",", header=header, comments="")
