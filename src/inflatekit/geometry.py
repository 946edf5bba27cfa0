"""Triangle meshes and the geometric quantities the procedures need.

Provides an OBJ loader (geometry records only), geodesic-ball patch
selection, least-squares sphere fitting for local curvature, enclosed
volume via the divergence theorem, and analytic test meshes (icosphere,
box grid).

OBJ subset: ``v x y z``, ``f i j k [l ...]`` (fan-triangulated), ``#``
comments. All lengths in meters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import (
    DegenerateFitError,
    IndexRangeError,
    InsufficientPatchError,
    ParseError,
    TopologyError,
    ValidationError,
)

MIN_PATCH_VERTICES = 10

# residual/radius above this is reported as non-uniform curvature
CURVATURE_RESIDUAL_WARN = 0.05


@dataclass(frozen=True)
class TriMesh:
    """Indexed triangle mesh; vertices (n,3) float64, faces (m,3) int64.

    Faces are counter-clockwise when viewed from outside.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValidationError(f"vertices must be (n,3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValidationError(f"faces must be (m,3), got {f.shape}")
        if not np.isfinite(v).all():
            raise ValidationError("vertices must be finite (got inf or nan)")
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise IndexRangeError(
                f"face index out of range [0, {len(v)}): "
                f"min={f.min()}, max={f.max()}"
            )
        v.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def boundary_edges(self):
        """Directed edges not matched by an opposite twin, sorted.

        Empty result means the mesh is watertight and consistently oriented.
        """
        n = self.n_vertices
        a, b = _directed_edges(self.faces)
        # a*n + b orders keys as (a, b) pairs; unique drops repeated edges
        keys = np.unique(a * n + b)
        a, b = np.divmod(keys, n)
        open_ = ~np.isin(b * n + a, keys, assume_unique=True)
        return list(zip(a[open_].tolist(), b[open_].tolist()))

    @property
    def is_watertight(self) -> bool:
        return not self.boundary_edges()

    def with_vertices(self, vertices: np.ndarray) -> "TriMesh":
        """Same connectivity, new vertex positions."""
        return TriMesh(vertices=vertices, faces=self.faces)


def _directed_edges(faces: np.ndarray):
    """Tail and head vertex of every face edge, (0,1), (1,2), (2,0) per face."""
    return faces.ravel(), faces[:, [1, 2, 0]].ravel()


@dataclass(frozen=True)
class SurfacePatch:
    """A set of vertices around a seed, selected by geodesic-ball radius."""

    mesh: TriMesh
    vertex_ids: tuple[int, ...]
    seed: int
    radius_hint: float

    def __post_init__(self):
        if len(self.vertex_ids) < MIN_PATCH_VERTICES:
            raise InsufficientPatchError(
                f"patch has {len(self.vertex_ids)} vertices; "
                f"need >= {MIN_PATCH_VERTICES} for a stable sphere fit"
            )
        if self.seed not in self.vertex_ids:
            raise ValidationError("seed must be a member of the patch")

    def points(self) -> np.ndarray:
        return self.mesh.vertices[list(self.vertex_ids)]


def load_mesh(path) -> TriMesh:
    """Load an OBJ file; polygons with more than 3 vertices are fanned.

    One pass over the lines collects the vertex and face tokens, which are
    then converted in bulk.  Errors name the first offending line, as a
    line-by-line reader would report them.
    """
    path = Path(path)
    coords, v_lines = [], []
    # face index tokens; per face line: line number, index count, vertices
    # defined before it (negative indices count back from there)
    tokens, f_lines, f_sizes, f_seen = [], [], [], []
    truncated = None  # a record too short to parse; collection stops there
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            tag = parts[0]  # "#..." comments and other records fall through
            if tag == "v":
                if len(parts) < 4:
                    truncated = ParseError("vertex needs 3 coordinates", lineno, str(path))
                    break
                coords += parts[1:4]
                v_lines.append(lineno)
            elif tag == "f":
                if len(parts) < 4:
                    truncated = ParseError("face needs >= 3 indices", lineno, str(path))
                    break
                if "/" in raw:
                    # only the vertex index of v/vt/vn triplets is used
                    parts = [p.partition("/")[0] for p in parts]
                tokens += parts[1:]
                f_lines.append(lineno)
                f_sizes.append(len(parts) - 1)
                f_seen.append(len(v_lines))

    # every failure found below lies before `truncated`; the earliest wins,
    # and a non-integer index beats a zero index on the same line
    failures = []
    try:
        vertices = np.fromiter(map(float, coords), np.float64, len(coords))
    except ValueError:
        line = v_lines[_first_bad(coords, float)[0] // 3]
        failures.append((line, ParseError("non-numeric vertex", line, str(path))))
    sizes = np.array(f_sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    try:
        idx = np.fromiter(map(int, tokens), np.int64, len(tokens))
    except (ValueError, OverflowError):
        k, exc = _first_bad(tokens, lambda t: np.int64(int(t)))
        line = f_lines[np.searchsorted(ends, k, side="right")]
        if isinstance(exc, ValueError):
            failures.append((line, ParseError("non-integer face index", line, str(path))))
        else:
            failures.append(
                (line, IndexRangeError(f"{path}:{line}: face index {tokens[k]} overflows"))
            )
    else:
        zero = np.flatnonzero(idx == 0)
        if zero.size:
            line = f_lines[np.searchsorted(ends, zero[0], side="right")]
            failures.append(
                (line, IndexRangeError(f"{path}:{line}: OBJ face indices are 1-based; got 0"))
            )
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    if truncated is not None:
        raise truncated
    if not coords:
        raise ParseError("no vertices in file", None, str(path))

    resolved = np.where(idx > 0, idx - 1, np.repeat(np.array(f_seen, dtype=np.int64), sizes) + idx)
    # fan: polygon (r0, r1, ..., rk) -> triangles (r0, r_j, r_j+1)
    n_tri = sizes - 2
    first = np.repeat(ends - sizes, n_tri)
    fan = np.arange(len(first)) - np.repeat(np.cumsum(n_tri) - n_tri, n_tri)
    faces = np.stack(
        [resolved[first], resolved[first + fan + 1], resolved[first + fan + 2]], axis=1
    )
    return TriMesh(vertices=vertices.reshape(-1, 3), faces=faces)


def _first_bad(tokens, convert):
    """Index of the first token that convert() rejects, and its error."""
    for k, token in enumerate(tokens):
        try:
            convert(token)
        except (ValueError, OverflowError) as exc:
            return k, exc
    raise AssertionError("bulk conversion failed but every token converts")


def save_mesh(mesh: TriMesh, path) -> None:
    """Write an OBJ file (geometry records only)."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def select_patch(mesh: TriMesh, seed: int, radius_hint: float) -> SurfacePatch:
    """All vertices within edge-weighted graph distance radius_hint of seed.

    Graph distance approximates the geodesic ball; exact geodesics are not
    needed at the 5% curvature accuracy this feeds into.
    """
    if not (0 <= seed < mesh.n_vertices):
        raise IndexRangeError(f"seed {seed} out of range [0, {mesh.n_vertices})")
    if not (radius_hint > 0):
        raise ValidationError("radius_hint must be > 0")
    n = mesh.n_vertices
    a, b = _directed_edges(mesh.faces)
    a, b = np.divmod(np.unique(np.minimum(a, b) * n + np.maximum(a, b)), n)
    d = mesh.vertices[a] - mesh.vertices[b]
    # sqrt(d.d) through the dot kernel, so each length equals
    # np.linalg.norm of its edge vector bit for bit
    length = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
    # explicit zero lengths (coincident vertices) stay edges in csgraph
    graph = csr_matrix((length, (a, b)), shape=(n, n))
    dist = dijkstra(graph, directed=False, indices=seed, limit=radius_hint)
    ids = tuple(np.flatnonzero(np.isfinite(dist)).tolist())
    if len(ids) < MIN_PATCH_VERTICES:
        raise InsufficientPatchError(
            f"only {len(ids)} vertices within {radius_hint} of seed {seed}; "
            f"need >= {MIN_PATCH_VERTICES}"
        )
    return SurfacePatch(mesh=mesh, vertex_ids=ids, seed=seed, radius_hint=radius_hint)


def _algebraic_sphere_fit(pts: np.ndarray):
    """Linear least squares for center/radius of |x-c|^2 = R^2."""
    # |x|^2 = 2 c.x + (R^2 - |c|^2); solve for [2c, R^2-|c|^2]
    A = np.hstack([2.0 * pts, np.ones((len(pts), 1))])
    b = np.einsum("ij,ij->i", pts, pts)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    center = sol[:3]
    r2 = sol[3] + center @ center
    if r2 <= 0:
        raise DegenerateFitError("algebraic sphere fit produced nonpositive radius")
    return center, float(np.sqrt(r2))


def fit_curvature(patch: SurfacePatch) -> dict:
    """Sphere-fit the patch; returns {'radius','rms_residual','center'}.

    Algebraic least squares followed by one Gauss-Newton refinement pass on
    the geometric (orthogonal) residuals. Residual/radius above 5% warns
    that the patch curvature is non-uniform.
    """
    pts = patch.points()
    centroid = pts.mean(axis=0)
    spread = pts - centroid
    bbox = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    # coplanarity: smallest singular value of the centered cloud
    sv = np.linalg.svd(spread, compute_uv=False)
    if bbox == 0.0 or sv[-1] <= 1e-9 * bbox:
        raise DegenerateFitError(
            "patch is coplanar within tolerance; sphere radius is unbounded"
        )
    center, radius = _algebraic_sphere_fit(pts)

    # one Gauss-Newton pass on r_i = |x_i - c| - R
    diff = pts - center
    d = np.linalg.norm(diff, axis=1)
    J = np.hstack([-diff / d[:, None], -np.ones((len(pts), 1))])
    r = d - radius
    step, *_ = np.linalg.lstsq(J, -r, rcond=None)
    center = center + step[:3]
    radius = radius + step[3]
    if radius <= 0:
        raise DegenerateFitError("refinement produced nonpositive radius")

    d = np.linalg.norm(pts - center, axis=1)
    rms = float(np.sqrt(np.mean((d - radius) ** 2)))
    if rms / radius > CURVATURE_RESIDUAL_WARN:
        warnings.warn(
            f"sphere-fit residual {rms / radius:.3g} of radius exceeds "
            f"{CURVATURE_RESIDUAL_WARN}; patch curvature is non-uniform",
            stacklevel=2,
        )
    return {"radius": float(radius), "rms_residual": rms, "center": center}


def enclosed_volume(mesh: TriMesh) -> float:
    """Enclosed volume of a watertight mesh by the divergence theorem.

    Returns |sum det(v0,v1,v2)/6|; the sign of the raw sum indicates
    orientation (negative = inward-facing normals).
    """
    boundary = mesh.boundary_edges()
    if boundary:
        raise TopologyError(
            f"mesh is not watertight: {len(boundary)} boundary edge(s), "
            f"first few {boundary[:5]}",
            boundary_edges=boundary,
        )
    volume = abs(signed_volume(mesh))
    # finite coordinates near the float limit can overflow the determinants
    if not np.isfinite(volume):
        raise ValidationError("enclosed volume overflows: vertex coordinates are too large")
    return volume


def signed_volume(mesh: TriMesh) -> float:
    """Signed divergence-theorem volume (positive for outward CCW faces)."""
    # corner coordinates component-major, (xyz, corner, face)
    x, y, z = mesh.vertices.T.take(mesh.faces.T, axis=1)
    det = (
        x[0] * (y[1] * z[2] - z[1] * y[2])
        + y[0] * (z[1] * x[2] - x[1] * z[2])
        + z[0] * (x[1] * y[2] - y[1] * x[2])
    )
    return float(det.sum() / 6.0)


# ---------------------------------------------------------------------------
# analytic test meshes


def icosahedron(radius: float = 1.0) -> TriMesh:
    """Regular icosahedron with vertices on a sphere of the given radius."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    raw = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    raw *= radius / np.linalg.norm(raw[0])
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return TriMesh(vertices=raw, faces=faces)


def icosphere(radius: float = 1.0, subdivisions: int = 3) -> TriMesh:
    """Icosahedron subdivided and projected onto a sphere."""
    if subdivisions < 0:
        raise ValidationError("subdivisions must be >= 0")
    mesh = icosahedron(radius)
    verts = list(map(tuple, mesh.vertices))
    faces = mesh.faces.tolist()
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                p = (np.array(verts[a]) + np.array(verts[b])) / 2.0
                p *= radius / np.linalg.norm(p)
                cache[key] = len(verts)
                verts.append(tuple(p))
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        faces = new_faces
    return TriMesh(vertices=np.array(verts), faces=np.array(faces, dtype=np.int64))


def box_mesh(size=(1.0, 1.0, 1.0), center=(0.0, 0.0, 0.0)) -> TriMesh:
    """Axis-aligned box as 12 outward-oriented triangles."""
    sx, sy, sz = (s / 2.0 for s in size)
    cx, cy, cz = center
    corners = np.array(
        [
            [cx - sx, cy - sy, cz - sz], [cx + sx, cy - sy, cz - sz],
            [cx + sx, cy + sy, cz - sz], [cx - sx, cy + sy, cz - sz],
            [cx - sx, cy - sy, cz + sz], [cx + sx, cy - sy, cz + sz],
            [cx + sx, cy + sy, cz + sz], [cx - sx, cy + sy, cz + sz],
        ]
    )
    quads = [
        [3, 2, 1, 0],  # bottom (z-)
        [4, 5, 6, 7],  # top (z+)
        [0, 1, 5, 4],  # y-
        [2, 3, 7, 6],  # y+
        [1, 2, 6, 5],  # x+
        [3, 0, 4, 7],  # x-
    ]
    faces = []
    for q in quads:
        faces += [[q[0], q[1], q[2]], [q[0], q[2], q[3]]]
    return TriMesh(vertices=corners, faces=np.array(faces, dtype=np.int64))
