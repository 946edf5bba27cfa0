"""Forward simulator for a pressurized closed triangle-mesh membrane.

Explicit (semi-implicit Euler) dynamics of a Neo-Hookean membrane under
internal gauge pressure, gravity and frictionless plane contacts with a
restitution target, and quasi-static point indentation by minimising the
total potential energy.  Serves as the synthetic-data oracle for the
pressure/modulus estimators: indent_virtual emits the same
IndentationSeries the estimator consumes.

The digitized (inflated) mesh is treated as a prestressed equilibrium:
elastic strain is measured from the inflated shape and the initial pressure
load is balanced by a constant per-vertex offset computed at init.  This
sidesteps the (out-of-scope) inverse problem of recovering a deflated rest
shape.

Forces are evaluated component-major: positions are read as a (3, n)
array, so each per-vertex and per-face operation runs over one contiguous
row of n vertices or m faces, and every step makes one gather of the face
corners and one scatter of their forces.  SimState therefore keeps its
(n, 3) positions and velocities Fortran-ordered: their transpose is that
(3, n) array without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._solvers import brentq, lbfgs
from .errors import (
    IndexRangeError,
    InsufficientDataError,
    RelaxationTimeoutError,
    SimulationInstabilityError,
    TopologyError,
    ValidationError,
    instance,
    integer,
    number,
    poisson,
    positive,
    sequence,
    show,
    vector,
)
from .geometry import TriMesh, _face_geometry, equivalent_radius, signed_volume
from .measurement import IndentationSample, IndentationSeries

P_ATM = 101325.0  # Pa

GRAVITY = (0.0, 0.0, -9.81)  # m/s^2

GAS_MODELS = ("constant_pressure", "isothermal")

# vertices closer than this to a plane count as contact (m)
CONTACT_TOL = 1e-4

# det C at or below this marks a collapsed membrane element
DET_C_MIN = 1e-16

# signs of adj(Q) = [[q22, -q12], [-q12, q11]] against Q reversed on both axes
_ADJ_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]


@dataclass(frozen=True)
class MaterialSpec:
    """Membrane material and gas description."""

    E: float  # Pa
    nu: float
    h: float  # m, membrane thickness
    density: float  # kg/m^3 of the membrane material
    Pg0: float  # Pa, initial gauge pressure
    gas_model: str = "constant_pressure"

    def __post_init__(self):
        for name in ("E", "h", "density", "Pg0"):
            object.__setattr__(self, name, positive(name, getattr(self, name)))
        object.__setattr__(self, "nu", poisson("nu", self.nu))
        if self.gas_model not in GAS_MODELS:
            raise ValidationError(
                f"gas_model must be one of {GAS_MODELS}, got {show(self.gas_model)}"
            )

    @property
    def mu(self) -> float:
        """Shear modulus."""
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def lam(self) -> float:
        """Plane-stress first Lame parameter."""
        return self.E * self.nu / (1.0 - self.nu**2)


def _unit_vector(name, value) -> tuple:
    """vector(name, value) / its norm; ValidationError if the norm is 0 or not finite."""
    v = np.array(vector(name, value))
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norm = np.linalg.norm(v)
    if not 0 < norm < math.inf:
        raise ValidationError(f"{name} must be finite and nonzero")
    return tuple(v / norm)


@dataclass(frozen=True)
class Plane:
    """Half-space collider: points with (x - point) . normal < 0 are inside."""

    point: tuple
    normal: tuple

    def __post_init__(self):
        object.__setattr__(self, "normal", _unit_vector("plane normal", self.normal))
        object.__setattr__(self, "point", vector("plane point", self.point))


@dataclass(frozen=True)
class Indenter:
    """Point indenter: drives one mesh vertex along a fixed axis."""

    vertex: int
    axis: tuple = (0.0, 0.0, -1.0)  # direction of advance (into the surface)

    def __post_init__(self):
        object.__setattr__(self, "vertex", integer("indenter vertex", self.vertex, 0, math.inf))
        object.__setattr__(self, "axis", _unit_vector("indenter axis", self.axis))


@dataclass(frozen=True)
class ScenarioConfig:
    """External conditions for a dynamic run (step and run)."""

    gravity: tuple = GRAVITY
    planes: tuple = ()
    restitution: float = 1.0
    dt: float = 1e-4
    duration: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "gravity", vector("gravity", self.gravity))
        object.__setattr__(self, "planes", sequence("planes", self.planes, Plane))
        for name in ("restitution", "duration"):
            object.__setattr__(self, name, number(name, getattr(self, name)))
        object.__setattr__(self, "dt", positive("dt", self.dt))
        if not (0 < self.restitution <= 1):
            raise ValidationError(f"restitution must be in (0, 1], got {self.restitution}")
        if self.duration < 0:
            raise ValidationError(f"duration must be >= 0, got {self.duration}")


def _equibiaxial_stretch(material: MaterialSpec, tension: float) -> float:
    """Stretch ratio at which the Neo-Hookean membrane tension equals
    ``tension`` (N/m) under equibiaxial in-plane stretch."""

    def current_tension(lam):
        lam2 = lam * lam
        nominal = material.mu * (1.0 - 1.0 / lam2) + (
            2.0 * material.lam * math.log(lam) / lam2
        )
        return material.h * nominal

    lo, hi = 1.0 + 1e-12, 10.0
    if current_tension(hi) < tension:
        raise ValidationError(
            "membrane cannot carry the initial pressure: required tension "
            f"{tension:.3g} N/m exceeds the material's capacity"
        )
    if current_tension(lo) >= tension:
        # so stiff that the stretch lies within 1e-12 of 1, where the
        # tension is zero
        lo, hi = 1.0, lo
    return brentq(lambda lam: current_tension(lam) - tension, lo, hi)


class _MembraneModel:
    """Precomputed discretization shared by all states of one simulation.

    Holds only constants, set once in __init__; what a step derives from its
    config is carried by the states it makes (SimState._stepped).
    """

    # a set-up value that overflows is refused below, with no numpy warning
    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def __init__(self, mesh: TriMesh, material: MaterialSpec):
        self.material = material
        self.faces = mesh.faces
        x = mesh.vertices
        i0, i1, i2 = self.faces[:, 0], self.faces[:, 1], self.faces[:, 2]
        e1 = x[i1] - x[i0]
        e2 = x[i2] - x[i0]
        # in-plane material coordinates of each rest triangle
        l1 = np.linalg.norm(e1, axis=1)
        t1 = e1 / l1[:, None]
        proj = np.einsum("fi,fi->f", e2, t1)
        perp = e2 - proj[:, None] * t1
        l2 = np.linalg.norm(perp, axis=1)
        degenerate = (l1 == 0) | (l2 == 0)
        if degenerate.any():
            raise SimulationInstabilityError(
                "degenerate rest triangle", face_id=int(degenerate.argmax()), frame=0
            )
        # Face-corner -> vertex incidence.  Corner k of face f is entry
        # k*m + f; per-corner values are kept component-major, (3, 3, m) =
        # (xyz, corner, face), so every per-face formula below works on
        # contiguous (m,) rows.  Flat index of each (component, corner) into
        # a (3, n) array: the gather and the scatter share it.
        n = mesh.n_vertices
        corner_vertex = self.faces.T.ravel()
        self._corner_index = (corner_vertex + n * np.arange(3)[:, None]).ravel()
        # lumped vertex masses from the digitized (inflated) areal density
        inflated_area = 0.5 * l1 * l2
        self.masses = np.bincount(
            corner_vertex,
            weights=np.tile(material.density * material.h * inflated_area / 3.0, 3),
            minlength=n,
        )
        self.total_mass = float(self.masses.sum())
        rest_volume = signed_volume(mesh)
        if not rest_volume > 0:
            raise ValidationError(
                "mesh volume must be positive (outward-oriented faces)"
            )
        self.rest_volume = rest_volume
        # Prestress: shrink the stress-free reference uniformly so the
        # equibiaxial membrane tension at the inflated shape balances
        # Pg0 * R / 2 for the volume-equivalent sphere.  Without real
        # tension the pressure follower load makes transverse perturbation
        # modes unstable (the membrane has no bending stiffness).
        self.prestretch = _equibiaxial_stretch(
            material, material.Pg0 * equivalent_radius(rest_volume) / 2.0
        )
        l1 = l1 / self.prestretch
        proj = proj / self.prestretch
        l2 = l2 / self.prestretch
        self.rest_area = 0.5 * l1 * l2
        # The rest shape matrix Dm = [[l1, proj], [0, l2]] has the inverse
        # [[a, b], [0, d]].  With Q the Gram matrix of the edges e1, e2,
        # C = Dm^-T Q Dm^-1, so det C = det Q (a d)^2 and trace C = G : Q
        # with G = Dm^-1 Dm^-T, and the nodal forces -rest_area h F S Dm^-T
        # on corners 1 and 2 are [e1, e2] H with
        # H = k (mu G + (lam ln J - mu) Q^-1), k = -rest_area h.
        a, b, d = 1.0 / l1, -proj / (l1 * l2), 1.0 / l2
        self._det_dm_inv_sq = (a * d) ** 2
        g12 = b * d
        self._g = np.array([[a * a + b * b, g12], [g12, d * d]])
        self._k = -self.rest_area * material.h
        self._k_mu_g = self._k * material.mu * self._g
        # constant offset absorbing the residual imbalance at init
        # (zero for a perfect sphere); (n, 3) view of a (3, n) array
        self.pressure_offset = -self._forces(x.T, material.Pg0, 0)[0].T
        if not (
            self.masses.min() > 0
            and math.isfinite(self.total_mass)
            and np.isfinite(self._k_mu_g).all()
            and np.isfinite(self.pressure_offset).all()
        ):
            raise ValidationError(
                "material gives zero masses or non-finite membrane forces on this mesh"
            )

    def _shape(self, xt: np.ndarray):
        """Face corners (3, 3, m) from one gather of the (3, n) positions xt,
        then their edge vectors e (3, 2, m), doubled face vector areas n
        (3, m) and enclosed volume (geometry._face_geometry)."""
        corners = np.take(xt, self._corner_index).reshape(3, 3, -1)
        return (corners, *_face_geometry(corners))

    def _forces(self, xt: np.ndarray, pg: float | None, frame: int | None):
        """Elastic plus pressure forces on the (3, n) positions xt.

        One gather of the face corners, per-face scalars and one scatter.
        pg None takes the gas pressure of xt's own volume.  Returns the
        (3, n) forces, the volume, the edge Gram matrices Q (2, 2, m) and
        ln det C.  A volume at or below zero (pg None) or a collapsed
        element raises SimulationInstabilityError.
        """
        mat = self.material
        corners, e, n, volume = self._shape(xt)
        if pg is None:
            if not volume > 0:
                raise SimulationInstabilityError("enclosed volume collapsed", frame=frame)
            pg = _gas_pressure(self, volume)
        gram = np.einsum("ijm,ikm->jkm", e, e)
        det_q = np.einsum("im,im->m", n, n)  # det Q without its cancellation
        det_c = det_q * self._det_dm_inv_sq
        if det_c.min() <= DET_C_MIN:
            raise SimulationInstabilityError(
                "membrane element collapsed (det C -> 0)",
                face_id=int(np.flatnonzero(det_c <= DET_C_MIN)[0]),
                frame=frame,
            )
        log_det = np.log(det_c)
        # H = k mu G + w adj(Q) with w = k (lam ln J - mu) / det Q
        w = log_det * (0.5 * mat.lam)
        w -= mat.mu
        w *= self._k
        w /= det_q
        h = _ADJ_SIGN * w
        h *= gram[::-1, ::-1]
        h += self._k_mu_g
        # the corner buffer reuses the gathered corners: corners 1 and 2
        # take [e1, e2] H, corner 0 minus their sum, and every corner a
        # third of the pressure force pg n / 2
        np.einsum("cim,ijm->cjm", e, h, out=corners[:, 1:])
        np.add(corners[:, 1], corners[:, 2], out=corners[:, 0])
        pressure = n
        pressure *= pg / 6.0
        np.subtract(pressure, corners[:, 0], out=corners[:, 0])
        corners[:, 1:] += pressure[:, None]
        forces = np.bincount(
            self._corner_index, weights=corners.ravel(), minlength=xt.size
        ).reshape(3, -1)
        return forces, volume, gram, log_det

    def internal_forces(self, x: np.ndarray, pg: float | None = None, frame: int | None = None):
        """Elastic + pressure + prestress offset (sums to ~0 at rest), (n, 3).

        pg defaults to the gas pressure of x's own enclosed volume; that
        volume at or below zero raises SimulationInstabilityError.
        """
        forces = self._forces(x.T, pg, frame)[0]
        forces += self.pressure_offset.T
        return forces.T

    def potential(self, x: np.ndarray, gravity: np.ndarray):
        """Total potential energy at x and its gradient, (float, (n, 3)).

        Membrane energy, gas potential and the work of the prestress offset
        and the (n, 3) gravity loads; inf if an element or the volume
        collapsed.  On a closed mesh the lumped pressure load is dV/dx, so
        the gradient is -(internal_forces(x) + gravity).
        """
        mat = self.material
        try:
            forces, volume, gram, log_det = self._forces(x.T, None, None)
        except SimulationInstabilityError:
            return math.inf, np.zeros_like(x)
        trace_c = (self._g * gram).sum(axis=(0, 1))
        log_j = 0.5 * log_det
        membrane = mat.h * self.rest_area @ (
            0.5 * mat.mu * (trace_c - 2.0) - mat.mu * log_j + 0.5 * mat.lam * log_j**2
        )
        gas = -mat.Pg0 * volume  # -d(gas)/dV is _gas_pressure
        if mat.gas_model == "isothermal":
            # measured from the rest volume, so the energy's round-off stays
            # below the decrease of a step near equilibrium
            v0 = self.rest_volume
            gas = P_ATM * (volume - v0) - (P_ATM + mat.Pg0) * v0 * math.log(volume / v0)
        load = self.pressure_offset.T + gravity.T
        forces += load
        work = float((load * x.T).sum())
        return membrane + gas - work, -forces.T

    def step_constants(self, config: ScenarioConfig):
        """dt / m (n,), the prestress offset plus the weight m g as (3, n),
        and the unit normals (k, 3) and offsets normal . point (k,) of the
        planes of config."""
        normals = np.array([p.normal for p in config.planes]).reshape(-1, 3)
        points = np.array([p.point for p in config.planes]).reshape(-1, 3)
        return (
            config.dt / self.masses,
            self.pressure_offset.T + np.multiply.outer(config.gravity, self.masses),
            normals,
            (normals * points).sum(axis=1),
        )


@dataclass(frozen=True)
class SimState:
    """Snapshot of the membrane simulation at one instant.

    Holds what the integrator advances; the mesh, enclosed volume and gas
    pressure are derived from the (read-only) positions on read.  A state a
    step made carries that step's model, config and step constants.
    """

    vertices: np.ndarray  # (n, 3) m
    velocities: np.ndarray  # (n, 3) m/s
    time: float  # s
    _model: _MembraneModel = field(repr=False, compare=False)
    # per-plane contact bookkeeping: (in_contact, incoming COM normal speed)
    contact_state: tuple = ()
    # ((model, config), step constants) of the step that made this state;
    # contact_state refers to that config's planes (none if no step made it)
    _stepped: tuple = field(default=(None, None), repr=False, compare=False)

    def __post_init__(self):
        n = len(self._model.masses)
        for name in ("vertices", "velocities"):
            a = np.array(getattr(self, name), dtype=float, order="F")
            if a.shape != (n, 3):
                raise ValidationError(f"{name} must have shape ({n}, 3)")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @cached_property
    def mesh(self) -> TriMesh:
        return TriMesh(vertices=self.vertices, faces=self._model.faces)

    @cached_property
    def volume(self) -> float:
        """Enclosed volume, m^3."""
        return self._model._shape(self.vertices.T)[3]

    @property
    def Pg(self) -> float:
        """Gauge pressure of the gas at this volume, Pa."""
        return _gas_pressure(self._model, self.volume)

    @property
    def kinetic_energy(self) -> float:
        m = self._model.masses
        return float(0.5 * np.sum(m * np.sum(self.velocities**2, axis=1)))

    @property
    def centroid(self) -> np.ndarray:
        """Center of mass of the lumped vertex masses."""
        m = self._model.masses
        return (m[:, None] * self.vertices).sum(axis=0) / m.sum()

    @property
    def momentum(self) -> np.ndarray:
        m = self._model.masses
        return (m[:, None] * self.velocities).sum(axis=0)

    @property
    def total_mass(self) -> float:
        return self._model.total_mass


def init_sim(mesh: TriMesh, material: MaterialSpec) -> SimState:
    """Build the initial quiescent state from a watertight inflated mesh."""
    instance("mesh", mesh, TriMesh)
    instance("material", material, MaterialSpec)
    if not mesh.is_watertight:
        raise TopologyError(
            "mesh must be watertight for pressure/volume computations",
            boundary_edges=mesh.boundary_edges(),
        )
    model = _MembraneModel(mesh, material)
    return SimState(vertices=mesh.vertices, velocities=np.zeros((mesh.n_vertices, 3)),
                    time=0.0, _model=model)


def _gas_pressure(model: _MembraneModel, volume: float) -> float:
    mat = model.material
    if mat.gas_model == "isothermal":
        return (P_ATM + mat.Pg0) * model.rest_volume / volume - P_ATM
    return mat.Pg0


def _advance(state: SimState, config: ScenarioConfig, n_steps: int, observe=None, every=1):
    """Advance n_steps semi-implicit Euler steps of size config.dt.

    The one integrator: positions, velocities, time and contact state stay
    local (3, n) arrays and values between steps, and a SimState is built
    only for observe(k, state), called after step k = 1, every every-th
    step after it and step n_steps, and for the result.  Forces are taken at
    the gas pressure of each step's own volume; a volume at or below
    zero, a collapsed element or a non-finite state raises
    SimulationInstabilityError naming the frame, with numpy's warnings off
    (observe runs under the caller's).  Reuses the step constants state
    carries when the same model and config made it; planes other than that
    config's start out of contact.  Returns the final state and the contact
    episodes entered per plane.
    """
    caller = np.geterr() if observe is not None else None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        model = state._model
        dt = config.dt
        made_by, constants = state._stepped
        contact = list(state.contact_state)
        if made_by != (model, config):
            constants = model.step_constants(config)
            if (made_by[1].planes if made_by else ()) != config.planes:
                contact = [(False, 0.0)] * len(config.planes)
        dt_m, load, normals, offsets = constants
        masses, total_mass = model.masses, model.total_mass
        # (3, n) views of the Fortran-ordered (n, 3) state
        x = state.vertices.T
        v = state.velocities.T
        time = state.time
        episodes = [0] * len(normals)

        for k in range(1, n_steps + 1):
            frame = int(round(time / dt))
            forces = model._forces(x, None, frame)[0]
            forces += load
            v = v + dt_m * forces

            # frictionless plane contacts with per-episode restitution
            com_v = v @ masses / total_mass
            x_new = x + dt * v
            for j, n_hat in enumerate(normals):
                dist = n_hat @ x_new - offsets[j]
                was_in, v_in = contact[j]
                if dist.min() < CONTACT_TOL:  # some vertex touches the plane
                    if not was_in:
                        # entering contact: record incoming COM normal speed
                        v_in = max(0.0, -float(com_v @ n_hat))
                        episodes[j] += 1
                    # project penetrating vertices; remove inward normal velocity
                    pen = np.flatnonzero(dist < 0)
                    if pen.size:
                        x_new[:, pen] -= n_hat[:, None] * dist[pen]
                        vn = n_hat @ v[:, pen]
                        inward = vn < 0
                        v[:, pen[inward]] -= n_hat[:, None] * vn[inward]
                    contact[j] = (True, v_in)
                else:
                    if was_in and v_in > 0.0:
                        # separation: set outgoing COM normal speed to e * v_in.  An
                        # episode entered without approach speed (a wobbling vertex
                        # touching down after lift-off) has no bounce to restore.
                        out = float(com_v @ n_hat)
                        shift = config.restitution * v_in - out
                        v = v + shift * n_hat[:, None]
                        x_new = x + dt * v
                    contact[j] = (False, 0.0)

            if not np.isfinite(x_new).all() or not np.isfinite(v).all():
                raise SimulationInstabilityError(
                    "non-finite state after step", frame=frame + 1
                )
            x = x_new
            time = time + dt
            if observe is not None and ((k - 1) % every == 0 or k == n_steps):
                with np.errstate(**caller):
                    observe(k, SimState(vertices=x.T, velocities=v.T, time=time,
                                        contact_state=tuple(contact), _model=model,
                                        _stepped=((model, config), constants)))

        final = SimState(vertices=x.T, velocities=v.T, time=time, contact_state=tuple(contact),
                         _model=model, _stepped=((model, config), constants))
        return final, tuple(episodes)


def step(state: SimState, config: ScenarioConfig) -> SimState:
    """Advance one semi-implicit Euler step of size config.dt (see _advance).

    Deterministic: identical inputs produce bit-identical successors.
    """
    instance("state", state, SimState)
    instance("config", config, ScenarioConfig)
    return _advance(state, config, 1)[0]


# a run of more steps or levels (one minimisation each, up to 77 ms at 642
# vertices on a 2-vCPU Xeon) would not end in any useful time
MAX_STEPS = 10_000_000
MAX_LEVELS = 1_000


def step_count(config: ScenarioConfig) -> int:
    """Steps of size config.dt in config.duration, rounded to the nearest.

    Raises ValidationError when duration / dt is not finite or above
    MAX_STEPS.
    """
    ratio = config.duration / config.dt
    if not ratio <= MAX_STEPS:  # also false for inf and nan
        raise ValidationError(
            f"duration / dt = {ratio:.3g} steps, above the cap of {MAX_STEPS:,}"
        )
    return int(round(ratio))


@dataclass(frozen=True)
class RunReport:
    """What a run did: the steps taken and, per plane of the config, the
    contact episodes it entered (steps touching the plane after one that
    did not)."""

    steps: int
    contact_episodes: tuple


def run(state: SimState, config: ScenarioConfig, observe=None, every: int = 1):
    """Step for config.duration seconds (see step_count).

    Returns (final SimState, RunReport).  observe(k, state), if given, is
    called with the state after step k for k = 1, every every-th step after
    it (k - 1 divisible by every) and the last step.  Bit-identical to
    chaining step over the same number of steps.  Every argument is checked
    before the first step.
    """
    instance("state", state, SimState)
    instance("config", config, ScenarioConfig)
    if not (observe is None or callable(observe)):
        raise ValidationError(f"observe must be callable or None, got {type(observe).__name__}")
    every = integer("every", every, 1, math.inf)
    n_steps = step_count(config)
    final, episodes = _advance(state, config, n_steps, observe, every)
    return final, RunReport(steps=n_steps, contact_episodes=episodes)


RELAX_FORCE_TOL = 1e-4  # N, max net vertex force at quasi-static equilibrium
# L-BFGS stops once every force component on a free vertex is at most
# RELAX_GTOL, so their norm stays below RELAX_FORCE_TOL, or after
# RELAX_MAX_ITER iterations (the defaults of scipy's L-BFGS-B)
RELAX_GTOL = RELAX_FORCE_TOL / 2.0
RELAX_MAX_ITER = 15_000

# Half-angle of the cap of vertices around the antipode of the indentation
# axis that indent_virtual holds fixed as the support.  It sets the virtual
# bench's k_s: at 2,562 vertices and W0 = -1 to -4, a 10-degree cap gives
# 0.27, this 30-degree cap 0.342-0.414 and a 60-degree cap 0.363-0.448.
SUPPORT_CAP_DEG = 30.0


def _depth_levels(target_depth, n_levels, levels_name="n_levels") -> tuple:
    """indent_virtual's target_depth and n_levels, checked, with the default
    level count ceil(target_depth / 5 mm), at least 3; at most MAX_LEVELS.
    An error names the level count levels_name, as the caller's input does."""
    target_depth = positive("target_depth", target_depth, InsufficientDataError)
    if n_levels is None:
        n_levels = max(3, math.ceil(target_depth / 0.005))
    n_levels = integer(levels_name, n_levels, 3, math.inf, InsufficientDataError)
    if n_levels > MAX_LEVELS:
        raise ValidationError(f"{show(n_levels)} depth levels, above the cap of {MAX_LEVELS:,}")
    return target_depth, n_levels


def indent_virtual(
    state: SimState,
    indenter: Indenter,
    target_depth: float,
    n_levels: int | None = None,
    *,
    gravity: tuple = GRAVITY,
) -> IndentationSeries:
    """Quasi-static point indentation; returns the measured force-depth series.

    The indenter vertex is pinned at n_levels equal depth increments along
    the axis (by default ceil(target_depth / 5 mm), at least 3; at most
    MAX_LEVELS).  At each level L-BFGS minimises the total potential over
    the free vertices, starting from the previous level's equilibrium, and
    the constraint reaction force is recorded; a net force of
    RELAX_FORCE_TOL or more left on a free vertex raises
    RelaxationTimeoutError.  The SUPPORT_CAP_DEG cap of vertices around the
    antipode of the indentation axis is held fixed as the support (otherwise
    the pin would simply translate the whole object).  The indenter vertex
    must lie in the mirror cap, within SUPPORT_CAP_DEG of the pole where the
    axis enters the surface, else ValidationError.  R is the
    volume-equivalent sphere radius, h the material thickness.
    """
    instance("state", state, SimState)
    ind = instance("indenter", indenter, Indenter)
    gravity = vector("gravity", gravity)
    target_depth, n_levels = _depth_levels(target_depth, n_levels)
    integer("indenter vertex", ind.vertex, 0, len(state.vertices) - 1, IndexRangeError)

    axis = np.asarray(ind.axis)
    x = state.vertices.copy(order="F")
    model = state._model
    weight = model.masses[:, None] * np.asarray(gravity)
    # support: hold the cap around the axis antipode fixed; the indenter
    # vertex must lie in the mirror cap, around the pole where the axis enters
    centered = x - x.mean(axis=0)
    along = centered @ axis
    cap_edge = np.linalg.norm(centered, axis=1) * math.cos(math.radians(SUPPORT_CAP_DEG))
    free = along < cap_edge
    if not -along[ind.vertex] >= cap_edge[ind.vertex]:
        raise ValidationError(
            f"indenter vertex {ind.vertex} lies more than {SUPPORT_CAP_DEG:g} degrees from the "
            "pole where its axis enters the surface; the axis must point into the surface"
        )
    free[ind.vertex] = False

    def potential(q):
        x[free] = q.reshape(-1, 3)
        energy, grad = model.potential(x, weight)
        return energy, grad[free].ravel()

    samples = []
    for level in range(1, n_levels + 1):
        depth = target_depth * level / n_levels
        x[ind.vertex] = state.vertices[ind.vertex] + depth * axis
        q, iterations = lbfgs(potential, x[free].ravel(), RELAX_GTOL, RELAX_MAX_ITER)
        x[free] = q.reshape(-1, 3)
        f = model.internal_forces(x) + weight
        residual = float(np.linalg.norm(f[free], axis=1).max())
        if not residual < RELAX_FORCE_TOL:
            raise RelaxationTimeoutError(
                f"net vertex force {residual:.3e} N above {RELAX_FORCE_TOL} N at "
                f"depth {depth} after {iterations} iterations"
            )
        # the constraint balances the applied force; the indenter feels -f
        reaction = -float(f[ind.vertex] @ axis)
        if reaction <= 0:
            raise SimulationInstabilityError(
                f"non-positive reaction force {reaction:.3e} N at depth {depth}"
            )
        samples.append(IndentationSample(force=reaction, depth=depth))

    return IndentationSeries(
        samples=tuple(samples),
        object_id="simulated",
        region_radius=equivalent_radius(state.volume),
        region_thickness=model.material.h,
    )
