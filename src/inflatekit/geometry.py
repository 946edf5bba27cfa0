"""Triangle meshes and the geometric quantities the procedures need.

Provides an OBJ loader (geometry records only), geodesic-ball patch
selection, least-squares sphere fitting for local curvature, enclosed
volume via the divergence theorem, and analytic test meshes (icosphere,
box grid).

OBJ subset: ``v x y z``, ``f i j k [l ...]`` (fan-triangulated), ``#``
comments. All lengths in meters.
"""

from __future__ import annotations

import hashlib
import io
import math
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateFitError,
    IndexRangeError,
    InsufficientPatchError,
    ParseError,
    TopologyError,
    ValidationError,
    instance,
    integer,
    positive,
    show,
)

MIN_PATCH_VERTICES = 10

# residual/radius above this is reported as non-uniform curvature
CURVATURE_RESIDUAL_WARN = 0.05

# bytes the load_mesh cache may hold: the vertex and face arrays of each
# mesh, a bound on its edge graph and MESH_CACHE_ENTRY_BYTES for the Python
# objects around them
MESH_CACHE_BYTES = 64 * 2**20
MESH_CACHE_ENTRY_BYTES = 1024

# lines load_mesh converts per block, and rows save_mesh formats per write
SAVE_BLOCK_ROWS = 4096

# icosphere(r, 8) has 1,310,720 faces; each level quadruples them
MAX_SUBDIVISIONS = 8


@dataclass(frozen=True)
class TriMesh:
    """Indexed triangle mesh; vertices (n,3) float64, faces (m,3) int64.

    Faces are counter-clockwise when viewed from outside.  The arrays are
    read-only and the mesh's own: a caller's array and its flags are left alone.
    """

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v, f = (_numeric(name, getattr(self, name)) for name in ("vertices", "faces"))
        if f.dtype.kind == "f":
            # refuse 2.5, nan and inf instead of truncating them to an index
            with np.errstate(invalid="ignore"):
                cast = f.astype(np.int64)
            if not np.array_equal(cast, f):
                raise ValidationError("face indices must be integers")
            f = cast
        # copied unless already read-only, C-ordered and owning its data
        v, f = (a if a.dtype == t and a.flags.c_contiguous and a.flags.owndata
                and not a.flags.writeable else np.array(a, dtype=t, order="C")
                for a, t in ((v, np.float64), (f, np.int64)))
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
        Each call returns a new list.
        """
        return list(self._boundary_edges)

    @cached_property
    def _boundary_edges(self) -> tuple:
        """The sorted boundary edges as (a, b) pairs, found once per mesh."""
        n = self.n_vertices
        a, b = _directed_edges(self.faces)
        # a*n + b orders keys as (a, b) pairs; sorted, a repeated edge is
        # dropped where it equals its neighbour
        keys = a * n
        keys += b
        del a, b
        keys.sort()
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        a, b = np.divmod(keys, n)
        twin = b * n + a
        # an edge is open where the key at its twin's sorted position differs
        open_ = keys.take(keys.searchsorted(twin), mode="clip") != twin
        return tuple(zip(a[open_].tolist(), b[open_].tolist()))

    @property
    def is_watertight(self) -> bool:
        return not self._boundary_edges

    def with_vertices(self, vertices: np.ndarray) -> "TriMesh":
        """Same connectivity, new vertex positions."""
        return TriMesh(vertices=vertices, faces=self.faces)

    @cached_property
    def _adjacency(self) -> tuple:
        """The edge graph in CSR form, built once: indptr (n + 1,), and the
        neighbours and edge lengths of vertex u at indptr[u]:indptr[u + 1].
        Each edge is stored in both directions."""
        n = self.n_vertices
        a, b = _directed_edges(self.faces)
        a, b = np.divmod(np.unique(np.minimum(a, b) * n + np.maximum(a, b)), n)
        d = self.vertices[a] - self.vertices[b]
        # sqrt(d.d) through the dot kernel, so each length equals
        # np.linalg.norm of its edge vector bit for bit
        length = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
        tails = np.concatenate([a, b])
        order = np.argsort(tails, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
        return indptr, np.concatenate([b, a])[order], np.concatenate([length, length])[order]


def _numeric(name, value) -> np.ndarray:
    """value as an array of integers or floats (not bools, strings or objects)."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting
        array = None
    if array is None or array.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be an array of numbers, got {type(value).__name__}")
    return array


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
        n = instance("mesh", self.mesh, TriMesh).n_vertices
        ids = _numeric("vertex_ids", self.vertex_ids)
        if ids.ndim != 1 or ids.size and ids.dtype.kind not in "iu":
            raise ValidationError(
                f"vertex_ids must be a sequence of integers, got {show(self.vertex_ids)}"
            )
        # a negative id would wrap to a vertex from the end
        if ids.size and not (ids.min() >= 0 and ids.max() < n):
            raise IndexRangeError(
                f"vertex_ids must be in [0, {n - 1}], got min={ids.min()}, max={ids.max()}"
            )
        object.__setattr__(self, "vertex_ids", tuple(ids.tolist()))
        object.__setattr__(self, "seed", integer("seed", self.seed, 0, n - 1, IndexRangeError))
        object.__setattr__(self, "radius_hint", positive("radius_hint", self.radius_hint))
        if len(self.vertex_ids) < MIN_PATCH_VERTICES:
            raise InsufficientPatchError(
                f"patch has {len(self.vertex_ids)} vertices; "
                f"need >= {MIN_PATCH_VERTICES} for a stable sphere fit"
            )
        if self.seed not in self.vertex_ids:
            raise ValidationError("seed must be a member of the patch")

    def points(self) -> np.ndarray:
        return self.mesh.vertices[list(self.vertex_ids)]


class _MeshCache:
    """Least-recently-used meshes keyed by a digest of their file's bytes.

    A mesh is frozen and its arrays are read-only, so every caller can share
    it.  The total charge of the kept meshes stays within max_bytes.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._meshes: OrderedDict[bytes, TriMesh] = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def charge(mesh: TriMesh) -> int:
        # the arrays, and a bound on the edge graph select_patch keeps on the
        # mesh: indptr, and a neighbour and a length per stored edge end, at
        # most 6 per face
        graph = 8 * (mesh.n_vertices + 1) + 16 * 6 * mesh.n_faces
        return mesh.vertices.nbytes + mesh.faces.nbytes + graph + MESH_CACHE_ENTRY_BYTES

    def get(self, key: bytes) -> TriMesh | None:
        with self._lock:
            mesh = self._meshes.get(key)
            if mesh is not None:
                self._meshes.move_to_end(key)
            return mesh

    def put(self, key: bytes, mesh: TriMesh) -> None:
        charge = self.charge(mesh)
        if charge > self.max_bytes:
            return
        with self._lock:
            if key in self._meshes:
                return
            self._meshes[key] = mesh
            self.nbytes += charge
            while self.nbytes > self.max_bytes:
                _, old = self._meshes.popitem(last=False)
                self.nbytes -= self.charge(old)


_MESH_CACHE = _MeshCache(MESH_CACHE_BYTES)


def load_mesh(path) -> TriMesh:
    """Load an OBJ file; polygons with more than 3 vertices are fanned.

    Meshes are cached per process, keyed by a digest of the file's bytes:
    loading the same content again, from any path, returns the same
    (immutable) mesh without parsing, and a rewritten file is parsed anew.
    The cache holds at most MESH_CACHE_BYTES; a larger mesh is not kept.
    Errors are not cached and always name the path passed in.
    """
    path = Path(path)
    data = path.read_bytes()
    key = hashlib.blake2b(data).digest()
    mesh = _MESH_CACHE.get(key)
    if mesh is None:
        mesh = _parse_obj(data, path)
        _MESH_CACHE.put(key, mesh)
    return mesh


def _parse_obj(data: bytes, path: Path) -> TriMesh:
    """Parse the OBJ bytes read from path.

    The lines are read SAVE_BLOCK_ROWS at a time and their records converted
    to arrays one block at a time, so a parse holds the arrays it builds and
    one block of tokens.  When a block does not parse or decode, the lines
    past the blocks that converted are read again one line a block, so the
    error is that of the file's first bad line, as a line-by-line reader
    reports it.
    """
    path = str(path)
    blocks = []
    try:
        # each block of tokens is dropped once it is converted
        for block in _obj_blocks(data, path, SAVE_BLOCK_ROWS):
            blocks.append(_convert_block(*block, path))
    except (ParseError, IndexRangeError, UnicodeDecodeError):
        converted = len(blocks) * SAVE_BLOCK_ROWS
    else:
        vertices = np.concatenate([v.reshape(-1, 3) for v, _ in blocks])
        if not vertices.size:
            raise ParseError("no vertices in file", None, path)
        faces = np.concatenate([f for _, f in blocks])
        vertices.setflags(write=False)  # read-only arrays of their own: no copy
        faces.setflags(write=False)
        return TriMesh(vertices=vertices, faces=faces)
    for block in _obj_blocks(data, path, 1):
        if block[0] > converted:
            _convert_block(*block, path)
    raise AssertionError("a block failed to parse but every line parses")


def _obj_blocks(data: bytes, path: str, rows: int):
    """The v and f records of the OBJ bytes, in blocks of rows lines.

    A block is (line, coords, tokens, f_sizes, f_seen): the number of its
    last line, the coordinate tokens of the vertices, the index tokens of
    the faces, and per face its index count and the vertices defined before
    it (negative indices count back from there).  A record too short to
    parse raises ParseError at its line.
    """
    defined = 0  # vertex records so far; the faces after one vertex share its int
    line = 0
    coords, tokens, f_sizes, f_seen = [], [], [], []
    # decoded lazily with universal newlines, as open() would: one line a
    # block, a decoding error past the first bad line is never reached
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
        for line, raw in enumerate(fh, start=1):
            parts = raw.split()
            tag = parts[0] if parts else None  # blank lines, comments, other records: nothing
            if tag == "v":
                if len(parts) < 4:
                    raise ParseError("vertex needs 3 coordinates", line, path)
                coords += parts[1:4]
                defined += 1
            elif tag == "f":
                if len(parts) < 4:
                    raise ParseError("face needs >= 3 indices", line, path)
                if "/" in raw:
                    # only the vertex index of v/vt/vn triplets is used
                    parts = [p.partition("/")[0] for p in parts]
                tokens += parts[1:]
                f_sizes.append(len(parts) - 1)
                f_seen.append(defined)
            if line % rows == 0:
                yield line, coords, tokens, f_sizes, f_seen
                coords, tokens, f_sizes, f_seen = [], [], [], []
    yield line, coords, tokens, f_sizes, f_seen


def _convert_block(line, coords, tokens, f_sizes, f_seen, path: str):
    """The flat vertex coordinates and (k, 3) faces of one block of records.

    A bad record raises at line, the block's last: a non-numeric vertex,
    then a non-integer or overflowing face index in token order, then a
    zero index.
    """
    try:
        vertices = np.fromiter(map(float, coords), np.float64, len(coords))
    except ValueError:
        raise ParseError("non-numeric vertex", line, path) from None
    try:
        idx = np.fromiter(map(int, tokens), np.int64, len(tokens))
    except ValueError:
        raise ParseError("non-integer face index", line, path) from None
    except OverflowError:
        token = next(t for t in tokens if not -(2**63) <= int(t) < 2**63)
        raise IndexRangeError(f"{path}:{line}: face index {token} overflows") from None
    if (idx == 0).any():
        raise IndexRangeError(f"{path}:{line}: OBJ face indices are 1-based; got 0")

    # 1-based to 0-based, and negative indices counted back, in place
    sizes = np.array(f_sizes, dtype=np.int64)
    np.subtract(idx, 1, out=idx, where=idx > 0)
    np.add(idx, np.repeat(np.array(f_seen, dtype=np.int64), sizes), out=idx, where=idx < 0)
    # fan: polygon (r0, r1, ..., rk) -> triangles (r0, r_j, r_j+1); a triangle is its own fan
    ends = np.cumsum(sizes)
    n_tri = sizes - 2
    first = np.repeat(ends - sizes, n_tri)
    fan = np.arange(len(first)) - np.repeat(np.cumsum(n_tri) - n_tri, n_tri)
    return vertices, np.stack([idx[first], idx[first + fan + 1], idx[first + fan + 2]], axis=1)


def save_mesh(mesh: TriMesh, path) -> None:
    """Write an OBJ file (geometry records only).

    Coordinates are written as repr() of each float, so load_mesh gives back
    the same arrays bit for bit; rows go out SAVE_BLOCK_ROWS at a time.
    """
    instance("mesh", mesh, TriMesh)
    with open(path, "w", encoding="utf-8") as fh:
        # one % format per block: %r of a float is its repr, %d of an int its str
        for i in range(0, mesh.n_vertices, SAVE_BLOCK_ROWS):
            block = mesh.vertices[i:i + SAVE_BLOCK_ROWS]
            fh.write(("v %r %r %r\n" * len(block)) % tuple(block.ravel().tolist()))
        for i in range(0, mesh.n_faces, SAVE_BLOCK_ROWS):
            block = mesh.faces[i:i + SAVE_BLOCK_ROWS] + 1
            fh.write(("f %d %d %d\n" * len(block)) % tuple(block.ravel().tolist()))


def select_patch(mesh: TriMesh, seed: int, radius_hint: float) -> SurfacePatch:
    """All vertices within edge-weighted graph distance radius_hint of seed.

    Graph distance approximates the geodesic ball; exact geodesics are not
    needed at the 5% curvature accuracy this feeds into.
    """
    instance("mesh", mesh, TriMesh)
    seed = integer("seed", seed, 0, mesh.n_vertices - 1, IndexRangeError)
    positive("radius_hint", radius_hint)
    ids = np.flatnonzero(np.isfinite(_graph_distances(mesh, seed, radius_hint)))
    if len(ids) < MIN_PATCH_VERTICES:
        raise InsufficientPatchError(
            f"only {len(ids)} vertices within {radius_hint} of seed {seed}; "
            f"need >= {MIN_PATCH_VERTICES}"
        )
    return SurfacePatch(mesh=mesh, vertex_ids=ids, seed=seed, radius_hint=radius_hint)


def _graph_distances(mesh: TriMesh, seed: int, limit: float) -> np.ndarray:
    """Shortest edge-path distances from seed, inf beyond limit.

    Relaxes a frontier of the vertices whose distance fell in the last pass,
    keeping candidates <= limit, until no distance falls.  A distance is the
    smallest sum d(u) + length(u, v) over the neighbours u of v, added in
    path order, the value Dijkstra's method finds.
    """
    indptr, neighbours, lengths = mesh._adjacency
    dist = np.full(mesh.n_vertices, np.inf)
    dist[seed] = 0.0
    frontier = np.array([seed])
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        # the CSR entries of every frontier vertex, row after row
        edges = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
        heads = neighbours[edges]
        candidate = np.repeat(dist[frontier], counts) + lengths[edges]
        better = (candidate <= limit) & (candidate < dist[heads])
        heads = heads[better]
        np.minimum.at(dist, heads, candidate[better])
        frontier = np.unique(heads)
    return dist


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
    pts = instance("patch", patch, SurfacePatch).points()
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
    boundary = instance("mesh", mesh, TriMesh).boundary_edges()
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


def equivalent_radius(volume: float) -> float:
    """Radius of the sphere of the given volume."""
    return (3.0 * volume / (4.0 * math.pi)) ** (1.0 / 3.0)


def signed_volume(mesh: TriMesh) -> float:
    """Signed divergence-theorem volume (positive for outward CCW faces)."""
    corners = mesh.vertices.T.take(mesh.faces.T, axis=1)
    # near the float limit the volume is inf or NaN; callers check it
    with np.errstate(over="ignore", invalid="ignore"):
        return _face_geometry(corners)[2]


def _face_geometry(corners: np.ndarray):
    """Edge vectors e = (x1 - x0, x2 - x0) as (3, 2, m), doubled face vector
    areas n = e1 x e2 as (3, m) and the enclosed volume sum x0.n / 6 of the
    face corners (3, 3, m) = (xyz, corner, face).

    x0.(e1 x e2) equals x0.(x1 x x2), but the edges are short beside the
    coordinates, so the volume keeps its digits on a mesh far from the origin.
    """
    x0 = corners[:, 0]
    e = corners[:, 1:] - corners[:, :1]
    e1, e2 = e[:, 0], e[:, 1]
    n = np.empty_like(x0)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(e1[j], e2[k], out=n[i])
        n[i] -= e1[k] * e2[j]
    return e, n, float(np.einsum("im,im->", x0, n) / 6.0)


# ---------------------------------------------------------------------------
# analytic test meshes


def icosahedron(radius: float = 1.0) -> TriMesh:
    """Regular icosahedron with vertices on a sphere of the given radius."""
    positive("radius", radius)
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
    """Icosahedron subdivided and projected onto a sphere.

    Each level splits every face into four at its edge midpoints, pushed out
    to the sphere.  subdivisions is an integer in [0, MAX_SUBDIVISIONS].
    """
    subdivisions = integer("subdivisions", subdivisions, 0, MAX_SUBDIVISIONS)
    mesh = icosahedron(radius)
    vertices, faces = mesh.vertices, mesh.faces
    for _ in range(subdivisions):
        vertices, faces = _subdivide(vertices, faces, radius)
    return TriMesh(vertices=vertices, faces=faces)


def _subdivide(vertices: np.ndarray, faces: np.ndarray, radius: float):
    """One icosphere level: a midpoint vertex per edge, four faces per face.

    The midpoints are numbered after the old vertices in the order a walk of
    the edges ab, bc, ca of each face, face by face, first meets them.
    """
    n = len(vertices)
    a, b = _directed_edges(faces)
    # first[k]: the first face edge with the k-th smallest key
    _, first, inverse = np.unique(
        np.minimum(a, b) * n + np.maximum(a, b), return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(n, n + len(order))
    ab, bc, ca = number[inverse].reshape(-1, 3).T
    ends = first[order]
    p = (vertices[a[ends]] + vertices[b[ends]]) / 2.0
    # |p| as sqrt(p.p) through the dot kernel, bit for bit np.linalg.norm(p)
    p *= (radius / np.sqrt((p[:, None, :] @ p[:, :, None]).ravel()))[:, None]
    fa, fb, fc = faces.T
    split = np.stack([fa, ab, ca, ab, fb, bc, ca, bc, fc, ab, bc, ca], axis=1)
    return np.concatenate([vertices, p]), split.reshape(-1, 3)


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
