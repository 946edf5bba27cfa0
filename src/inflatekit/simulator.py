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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.spatial.distance import pdist

from .errors import (
    EmptyContactError,
    InsufficientDataError,
    RelaxationTimeoutError,
    SimulationInstabilityError,
    TopologyError,
    ValidationError,
)
from .geometry import TriMesh, signed_volume
from .measurement import IndentationSample, IndentationSeries

P_ATM = 101325.0  # Pa

GAS_MODELS = ("constant_pressure", "isothermal")

# vertices closer than this to a plane count as contact (m)
CONTACT_TOL = 1e-4

# det C at or below this marks a collapsed membrane element
DET_C_MIN = 1e-16


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
            if not (0 < getattr(self, name) < math.inf):
                raise ValidationError(f"{name} must be finite and > 0")
        if not (0 < self.nu < 0.5):
            raise ValidationError(f"nu must be in (0, 0.5), got {self.nu}")
        if self.gas_model not in GAS_MODELS:
            raise ValidationError(
                f"gas_model must be one of {GAS_MODELS}, got {self.gas_model!r}"
            )

    @property
    def mu(self) -> float:
        """Shear modulus."""
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def lam(self) -> float:
        """Plane-stress first Lame parameter."""
        return self.E * self.nu / (1.0 - self.nu**2)


@dataclass(frozen=True)
class Plane:
    """Half-space collider: points with (x - point) . normal < 0 are inside."""

    point: tuple
    normal: tuple

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        norm = np.linalg.norm(n)
        if not (0 < norm < math.inf and np.isfinite(self.point).all()):
            raise ValidationError("plane point must be finite, normal finite and nonzero")
        object.__setattr__(self, "point", tuple(float(v) for v in self.point))
        object.__setattr__(self, "normal", tuple(n / norm))


@dataclass(frozen=True)
class Indenter:
    """Point indenter: drives one mesh vertex along a fixed axis."""

    vertex: int
    axis: tuple = (0.0, 0.0, -1.0)  # direction of advance (into the surface)

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(a)
        if not 0 < norm < math.inf:
            raise ValidationError("indenter axis must be finite and nonzero")
        object.__setattr__(self, "axis", tuple(a / norm))


@dataclass(frozen=True)
class ScenarioConfig:
    """External conditions for a simulation run."""

    gravity: tuple = (0.0, 0.0, -9.81)
    planes: tuple = ()
    restitution: float = 1.0
    indenter: Indenter | None = None
    dt: float = 1e-4
    duration: float = 1.0
    damping: float = 0.0  # 1/s viscous rate

    def __post_init__(self):
        object.__setattr__(self, "gravity", tuple(float(g) for g in self.gravity))
        object.__setattr__(self, "planes", tuple(self.planes))
        if not np.isfinite(self.gravity).all():
            raise ValidationError("gravity must be finite")
        if not (0 < self.dt < math.inf):
            raise ValidationError("dt must be finite and > 0")
        if not (0 <= self.duration < math.inf):
            raise ValidationError("duration must be finite and >= 0")
        if not (0 < self.restitution <= 1):
            raise ValidationError("restitution must be in (0, 1]")
        if not (0 <= self.damping < math.inf):
            raise ValidationError("damping must be finite and >= 0")


def _equibiaxial_stretch(material: MaterialSpec, tension: float) -> float:
    """Stretch ratio at which the Neo-Hookean membrane tension equals
    ``tension`` (N/m) under equibiaxial in-plane stretch."""

    def current_tension(lam):
        lam2 = lam * lam
        nominal = material.mu * (1.0 - 1.0 / lam2) + (
            2.0 * material.lam * math.log(lam) / lam2
        )
        return material.h * nominal

    hi = 10.0
    if current_tension(hi) < tension:
        raise ValidationError(
            "membrane cannot carry the initial pressure: required tension "
            f"{tension:.3g} N/m exceeds the material's capacity"
        )
    return brentq(lambda lam: current_tension(lam) - tension, 1.0 + 1e-12, hi)


class _MembraneModel:
    """Precomputed discretization shared by all states of one simulation."""

    def __init__(self, mesh: TriMesh, material: MaterialSpec):
        self.material = material
        self.faces = mesh.faces
        x = mesh.vertices
        i0, i1, i2 = self.faces[:, 0], self.faces[:, 1], self.faces[:, 2]
        e1 = x[i1] - x[i0]
        e2 = x[i2] - x[i0]
        # in-plane material coordinates of each rest triangle
        l1 = np.linalg.norm(e1, axis=1)
        if np.any(l1 == 0):
            bad = int(np.nonzero(l1 == 0)[0][0])
            raise SimulationInstabilityError(
                "degenerate rest triangle", face_id=bad, frame=0
            )
        t1 = e1 / l1[:, None]
        proj = np.einsum("fi,fi->f", e2, t1)
        perp = e2 - proj[:, None] * t1
        l2 = np.linalg.norm(perp, axis=1)
        if np.any(l2 == 0):
            bad = int(np.nonzero(l2 == 0)[0][0])
            raise SimulationInstabilityError(
                "degenerate rest triangle", face_id=bad, frame=0
            )
        # Face-corner -> vertex incidence.  Corner k of face f is entry
        # k*m + f; per-corner values are kept component-major, (3, 3, m) =
        # (xyz, corner, face), so every per-face formula below works on
        # contiguous (m,) rows.  All per-vertex sums scatter through it.
        n = mesh.n_vertices
        corner_vertex = self.faces.T.ravel()
        # flat index of each (component, corner) into an (n, 3) array, and
        # into x.T.ravel() for the gather
        self._corner_slot = (3 * corner_vertex + np.arange(3)[:, None]).ravel()
        self._corner_gather = (corner_vertex + n * np.arange(3)[:, None]).ravel()
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
        r_eq = (3.0 * rest_volume / (4.0 * math.pi)) ** (1.0 / 3.0)
        self.prestretch = _equibiaxial_stretch(
            material, material.Pg0 * r_eq / 2.0
        )
        l1 = l1 / self.prestretch
        proj = proj / self.prestretch
        l2 = l2 / self.prestretch
        # rest shape matrix Dm = [[l1, proj], [0, l2]]; its inverse is the
        # upper-triangular [[a, b], [0, d]]
        self.dm_inv = (1.0 / l1, -proj / (l1 * l2), 1.0 / l2)
        self.rest_area = 0.5 * l1 * l2
        # -rest_area * h * Dm^-1, the per-face factors of the nodal forces
        k = -self.rest_area * material.h
        self.force_dm_inv = tuple(k * entry for entry in self.dm_inv)
        # constant offset absorbing the residual imbalance at init
        # (zero for a perfect sphere)
        self.pressure_offset = -self._forces(*self._geometry(x)[:3], material.Pg0, 0)

    def _scatter(self, corner_forces: np.ndarray) -> np.ndarray:
        """Sum (3, 3, m) per-corner forces into (n, 3) vertex forces."""
        n = len(self.masses)
        return np.bincount(
            self._corner_slot, weights=corner_forces.ravel(), minlength=3 * n
        ).reshape(n, 3)

    def _geometry(self, x: np.ndarray):
        """Edge vectors e1 = x1 - x0 and e2 = x2 - x0, doubled face vector
        areas n = e1 x e2 (each (3, m)) and the enclosed volume sum x0.n / 6,
        all from one gather of the face corners."""
        corners = x.T.ravel().take(self._corner_gather).reshape(3, 3, -1)
        x0 = corners[:, 0]
        e1 = corners[:, 1] - x0
        e2 = corners[:, 2] - x0
        n = np.stack([e1[1] * e2[2] - e1[2] * e2[1],
                      e1[2] * e2[0] - e1[0] * e2[2],
                      e1[0] * e2[1] - e1[1] * e2[0]])
        return e1, e2, n, float((x0 * n).sum() / 6.0)

    @staticmethod
    def _pressure_corner_forces(n, pg: float) -> np.ndarray:
        """Pg times face vector area, a third on each corner, (3, 3, m)."""
        third = (pg / 6.0) * n
        return np.broadcast_to(third[:, None, :], (3, 3, third.shape[1]))

    def _strain(self, e1, e2):
        """F = [g1, g2] = [e1, e2] Dm^-1 and C = F^T F: g1, g2, c11, c12, c22, det C."""
        a, b, d = self.dm_inv
        g1 = a * e1
        g2 = b * e1 + d * e2
        c11 = (g1 * g1).sum(axis=0)
        c12 = (g1 * g2).sum(axis=0)
        c22 = (g2 * g2).sum(axis=0)
        return g1, g2, c11, c12, c22, c11 * c22 - c12 * c12

    def _elastic_corner_forces(self, e1, e2, frame: int | None) -> np.ndarray:
        """Neo-Hookean membrane forces on each face corner, (3, 3, m).

        Plane-stress, thickness-integrated.  The 2x2 tensors are written
        out by components: F = [g1, g2] (3-vector columns), C = F^T F,
        S = mu (I - C^-1) + lam ln J C^-1 and P = F S = [p1, p2].
        """
        mat = self.material
        g1, g2, c11, c12, c22, det_c = self._strain(e1, e2)
        collapsed = det_c <= DET_C_MIN
        if collapsed.any():
            raise SimulationInstabilityError(
                "membrane element collapsed (det C -> 0)",
                face_id=int(np.flatnonzero(collapsed)[0]),
                frame=frame,
            )
        # S = mu I + (lam ln J - mu) C^-1 with ln J = ln(det C) / 2 and
        # C^-1 = [[c22, -c12], [-c12, c11]] / det C
        t = (0.5 * mat.lam * np.log(det_c) - mat.mu) / det_c
        s11 = mat.mu + t * c22
        s12 = -t * c12
        s22 = mat.mu + t * c11
        p1 = g1 * s11 + g2 * s12
        p2 = g1 * s12 + g2 * s22
        # nodal forces -rest_area h P Dm^-T on corners 1 and 2; corner 0
        # takes minus their sum
        ka, kb, kd = self.force_dm_inv
        f1 = ka * p1 + kb * p2
        f2 = kd * p2
        return np.stack([-(f1 + f2), f1, f2], axis=1)

    def _forces(self, e1, e2, n, pg: float, frame: int | None) -> np.ndarray:
        """Elastic plus pressure forces, summed per face corner and scattered once."""
        corner = self._elastic_corner_forces(e1, e2, frame) + self._pressure_corner_forces(n, pg)
        return self._scatter(corner)

    def _pressure_forces(self, x: np.ndarray, pg: float) -> np.ndarray:
        """Pg times face vector area, lumped equally to the face's vertices."""
        return self._scatter(self._pressure_corner_forces(self._geometry(x)[2], pg))

    def _elastic_forces(self, x: np.ndarray, frame: int) -> np.ndarray:
        """Neo-Hookean membrane forces (plane-stress, thickness-integrated)."""
        return self._scatter(self._elastic_corner_forces(*self._geometry(x)[:2], frame))

    def internal_forces(self, x: np.ndarray, pg: float | None = None, frame: int | None = None):
        """Elastic + pressure + prestress offset (sums to ~0 at rest).

        pg defaults to the gas pressure of x's own enclosed volume; that
        volume at or below zero raises SimulationInstabilityError.
        """
        e1, e2, n, volume = self._geometry(x)
        if pg is None:
            if not volume > 0:
                raise SimulationInstabilityError("enclosed volume collapsed", frame=frame)
            pg = _gas_pressure(self, volume)
        return self._forces(e1, e2, n, pg, frame) + self.pressure_offset

    def potential(self, x: np.ndarray, gravity: np.ndarray):
        """Total potential energy at x and its gradient, (float, (n, 3)).

        Membrane energy, gas potential and the work of the prestress offset
        and the (n, 3) gravity loads; inf if an element or the volume
        collapsed.  On a closed mesh the lumped pressure load is dV/dx, so
        the gradient is -(internal_forces(x) + gravity).
        """
        mat = self.material
        e1, e2, n, volume = self._geometry(x)
        _, _, c11, _, c22, det_c = self._strain(e1, e2)
        if (det_c <= DET_C_MIN).any() or not volume > 0:
            return math.inf, np.zeros_like(x)
        log_j = 0.5 * np.log(det_c)
        membrane = mat.h * self.rest_area @ (
            0.5 * mat.mu * (c11 + c22 - 2.0) - mat.mu * log_j + 0.5 * mat.lam * log_j**2
        )
        gas = -mat.Pg0 * volume  # -d(gas)/dV is _gas_pressure
        if mat.gas_model == "isothermal":
            gas = P_ATM * volume - (P_ATM + mat.Pg0) * self.rest_volume * math.log(volume)
        load = self.pressure_offset + gravity
        net = self._forces(e1, e2, n, _gas_pressure(self, volume), None) + load
        work = float((load * x).sum())
        return membrane + gas - work, -net


@dataclass(frozen=True)
class SimState:
    """Snapshot of the membrane simulation at one instant.

    Holds what the integrator advances; the mesh, enclosed volume and gas
    pressure are derived from the (read-only) positions on read.
    """

    vertices: np.ndarray  # (n, 3) m
    velocities: np.ndarray  # (n, 3) m/s
    time: float  # s
    _model: _MembraneModel = field(repr=False, compare=False)
    # per-plane contact bookkeeping: (in_contact, incoming COM normal speed)
    contact_state: tuple = ()

    def __post_init__(self):
        n = len(self._model.masses)
        for name in ("vertices", "velocities"):
            a = np.array(getattr(self, name), dtype=float)
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
        return self._model._geometry(self.vertices)[3]

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


def step(state: SimState, config: ScenarioConfig) -> SimState:
    """Advance one semi-implicit Euler step of size config.dt.

    Forces are taken at the gas pressure of the state's own volume; a
    volume at or below zero raises SimulationInstabilityError.
    Deterministic: identical inputs produce bit-identical successors.
    """
    model = state._model
    dt = config.dt
    frame = int(round(state.time / dt))
    x = state.vertices
    v = state.velocities
    m = model.masses[:, None]

    forces = model.internal_forces(x, frame=frame)
    forces += m * np.asarray(config.gravity)
    if config.damping > 0:
        forces -= config.damping * m * v
    v = v + dt * forces / m

    # frictionless plane contacts with per-episode restitution
    prev = state.contact_state
    if len(prev) != len(config.planes):
        prev = ((False, 0.0),) * len(config.planes)
    new_contact = []
    com_v = (model.masses[:, None] * v).sum(axis=0) / model.total_mass
    x_new = x + dt * v
    for k, plane in enumerate(config.planes):
        n_hat = np.asarray(plane.normal)
        p0 = np.asarray(plane.point)
        dist = (x_new - p0) @ n_hat
        touching = dist < CONTACT_TOL
        was_in, v_in = prev[k]
        if touching.any():
            if not was_in:
                # entering contact: record incoming COM normal speed
                v_in = max(0.0, -float(com_v @ n_hat))
            # project penetrating vertices; remove inward normal velocity
            pen = dist < 0
            if pen.any():
                x_new[pen] -= dist[pen, None] * n_hat
                vn = v[pen] @ n_hat
                inward = vn < 0
                v[np.nonzero(pen)[0][inward]] -= vn[inward, None] * n_hat
            new_contact.append((True, v_in))
        else:
            if was_in and v_in > 0.0:
                # separation: set outgoing COM normal speed to e * v_in.  An
                # episode entered without approach speed (a wobbling vertex
                # touching down after lift-off) has no bounce to restore.
                out = float(com_v @ n_hat)
                shift = config.restitution * v_in - out
                v = v + shift * n_hat
                x_new = x + dt * v
            new_contact.append((False, 0.0))

    if not np.isfinite(x_new).all() or not np.isfinite(v).all():
        raise SimulationInstabilityError(
            "non-finite state after step", frame=frame + 1
        )

    return SimState(vertices=x_new, velocities=v, time=state.time + dt,
                    contact_state=tuple(new_contact), _model=model)


def run(state: SimState, config: ScenarioConfig) -> SimState:
    """Step for config.duration seconds."""
    n_steps = int(round(config.duration / config.dt))
    for _ in range(n_steps):
        state = step(state, config)
    return state


RELAX_FORCE_TOL = 1e-4  # N, max net vertex force at quasi-static equilibrium


def equivalent_radius(state: SimState) -> float:
    """Radius of the sphere with the state's enclosed volume."""
    return (3.0 * state.volume / (4.0 * math.pi)) ** (1.0 / 3.0)


def indent_virtual(
    state: SimState,
    config: ScenarioConfig,
    target_depth: float,
    n_levels: int | None = None,
    object_id: str = "simulated",
) -> IndentationSeries:
    """Quasi-static point indentation; returns the measured force-depth series.

    The indenter vertex is pinned at n_levels equal depth increments along
    the axis.  At each level L-BFGS-B minimises the total potential over
    the free vertices, starting from the previous level's equilibrium, and
    the constraint reaction force is recorded; a net force of
    RELAX_FORCE_TOL or more left on a free vertex raises
    RelaxationTimeoutError.  A cap of vertices around the antipode of the
    indentation axis is held fixed as the support (otherwise the pin would
    simply translate the whole object), so ``config.planes`` must be empty.
    R is the volume-equivalent sphere radius, h the material thickness.
    """
    if config.indenter is None:
        raise ValidationError("config.indenter must be set")
    if config.planes:
        raise ValidationError("the support is a pinned cap; planes are not supported")
    if not (0 < target_depth < math.inf):
        raise InsufficientDataError(
            f"target_depth must be finite and > 0 to collect samples, got {target_depth}"
        )
    ind = config.indenter
    if not (0 <= ind.vertex < len(state.vertices)):
        raise ValidationError(f"indenter vertex {ind.vertex} out of range")
    if n_levels is None:
        n_levels = max(3, math.ceil(target_depth / 0.005))
    if n_levels < 3:
        raise InsufficientDataError("need at least 3 depth levels")

    axis = np.asarray(ind.axis)
    x = state.vertices.copy()
    model = state._model
    gravity = model.masses[:, None] * np.asarray(config.gravity)
    # support: hold the 30-degree cap around the axis antipode fixed
    centered = x - x.mean(axis=0)
    along = centered @ axis
    free = along < np.linalg.norm(centered, axis=1) * math.cos(math.radians(30.0))
    free[ind.vertex] = False

    def potential(q):
        x[free] = q.reshape(-1, 3)
        energy, grad = model.potential(x, gravity)
        return energy, grad[free].ravel()

    samples = []
    for level in range(1, n_levels + 1):
        depth = target_depth * level / n_levels
        x[ind.vertex] = state.vertices[ind.vertex] + depth * axis
        # gtol bounds each force component, so the norm stays below the tol
        result = minimize(
            potential,
            x[free].ravel(),
            jac=True,
            method="L-BFGS-B",
            options={"gtol": RELAX_FORCE_TOL / 2.0, "ftol": 0.0},
        )
        x[free] = result.x.reshape(-1, 3)
        f = model.internal_forces(x) + gravity
        residual = float(np.linalg.norm(f[free], axis=1).max())
        if not residual < RELAX_FORCE_TOL:
            raise RelaxationTimeoutError(
                f"net vertex force {residual:.3e} N above {RELAX_FORCE_TOL} N at "
                f"depth {depth} after {result.nit} iterations: {result.message}"
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
        object_id=object_id,
        region_radius=equivalent_radius(state),
        region_thickness=model.material.h,
    )


def measure_deformation(
    state: SimState,
    plane_point=(0.0, 0.0, 0.0),
    plane_normal=(0.0, 0.0, 1.0),
    contact_tol: float = CONTACT_TOL,
) -> dict:
    """Deformation descriptors of a vertically loaded state.

    H: total height; Dl: diameter of the ground-contact set; Du: diameter
    of the rim ring around the vertical axis; d: rim-to-apex depth of the
    sunken region.  The vertical axis passes through the horizontal
    centroid.
    """
    n_hat = np.asarray(plane_normal, dtype=float)
    n_hat = n_hat / np.linalg.norm(n_hat)
    p0 = np.asarray(plane_point, dtype=float)
    x = state.vertices
    height = (x - p0) @ n_hat
    h_total = float(height.max() - height.min())

    on_plane = np.abs((x - p0) @ n_hat) <= contact_tol
    if not on_plane.any():
        raise EmptyContactError("no vertices within tolerance of the ground plane")
    lateral = x - np.outer(height, n_hat)
    pts = lateral[on_plane]
    d_l = float(pdist(pts).max()) if len(pts) > 1 else 0.0

    # rim of the sunken region: the highest ring around the vertical axis
    center = lateral.mean(axis=0)
    radial = np.linalg.norm(lateral - center, axis=1)
    z_max = height.max()
    rim_band = height >= z_max - max(contact_tol, 0.01 * h_total)
    d_u = float(2.0 * radial[rim_band].mean())
    # apex of the dip: the on-axis vertex at the top
    top_half = height >= height.min() + 0.5 * h_total
    idx_top = np.nonzero(top_half)[0]
    apex = idx_top[np.argmin(radial[idx_top])]
    d_depth = float(z_max - height[apex])
    return {"H": h_total, "Du": d_u, "Dl": d_l, "d": d_depth}
