"""Tests for mesh loading, patch curvature fitting, and enclosed volume."""

import heapq
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from inflatekit import geometry
from inflatekit.errors import (
    DegenerateFitError,
    IndexRangeError,
    InsufficientPatchError,
    ParseError,
    TopologyError,
    ValidationError,
)
from inflatekit.geometry import (
    TriMesh,
    box_mesh,
    enclosed_volume,
    fit_curvature,
    icosahedron,
    icosphere,
    load_mesh,
    save_mesh,
    select_patch,
)


class TestLoadMesh:
    def test_icosahedron_counts(self, tmp_path):
        path = tmp_path / "ico.obj"
        save_mesh(icosahedron(), path)
        mesh = load_mesh(path)
        assert mesh.n_vertices == 12
        assert mesh.n_faces == 20

    def test_zero_face_index_rejected(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
        with pytest.raises(IndexRangeError):
            load_mesh(path)

    def test_quad_cube_fans_to_twelve_triangles(self, tmp_path):
        path = tmp_path / "cube.obj"
        quads = [
            "v 0 0 0", "v 1 0 0", "v 1 1 0", "v 0 1 0",
            "v 0 0 1", "v 1 0 1", "v 1 1 1", "v 0 1 1",
            "f 1 4 3 2", "f 5 6 7 8", "f 1 2 6 5",
            "f 2 3 7 6", "f 3 4 8 7", "f 4 1 5 8",
        ]
        path.write_text("\n".join(quads) + "\n")
        mesh = load_mesh(path)
        assert mesh.n_vertices == 8
        assert mesh.n_faces == 12
        assert enclosed_volume(mesh) == pytest.approx(1.0, abs=1e-12)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_mesh(tmp_path / "nope.obj")

    def test_non_numeric_vertex_reports_line(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v a b c\n")
        with pytest.raises(ParseError) as err:
            load_mesh(path)
        assert err.value.line == 1

    def test_nan_vertex_rejected(self, tmp_path):
        path = tmp_path / "tet.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 nan 0\nv 0 0 1\nf 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n")
        with pytest.raises(ValidationError, match="finite"):
            load_mesh(path)

    def test_save_load_round_trip(self, tmp_path):
        # the noisy scan has 10,242 vertices and 20,480 faces: several
        # write blocks each
        for mesh in (icosphere(radius=0.13, subdivisions=2), noisy_icosphere(5, 9)):
            path = tmp_path / f"{mesh.n_vertices}.obj"
            save_mesh(mesh, path)
            again = load_mesh(path)
            np.testing.assert_array_equal(again.vertices, mesh.vertices)
            np.testing.assert_array_equal(again.faces, mesh.faces)
        assert mesh.n_vertices > 2 * geometry.SAVE_BLOCK_ROWS


class TestSelectPatch:
    def test_icosphere_cap_has_enough_vertices(self):
        mesh = icosphere(radius=1.0, subdivisions=3)
        patch = select_patch(mesh, seed=0, radius_hint=0.5)
        assert len(patch.vertex_ids) >= 10
        assert patch.seed in patch.vertex_ids

    def test_tiny_radius_is_insufficient(self):
        mesh = icosphere(radius=1.0, subdivisions=3)
        with pytest.raises(InsufficientPatchError):
            select_patch(mesh, seed=0, radius_hint=1e-6)

    def test_seed_out_of_range(self):
        mesh = icosphere(radius=1.0, subdivisions=2)
        with pytest.raises(IndexRangeError):
            select_patch(mesh, seed=mesh.n_vertices, radius_hint=0.5)

    @pytest.mark.parametrize(
        "seed",
        [1.5, 2.0, np.float64(3.0), True, np.bool_(True), "3", None],
        ids=["float", "integral-float", "numpy-float", "bool", "numpy-bool", "str", "None"],
    )
    def test_seed_must_be_an_integer(self, seed):
        mesh = icosphere(radius=1.0, subdivisions=2)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            select_patch(mesh, seed, 0.5)

    def test_numpy_integer_seed_accepted(self):
        mesh = icosphere(radius=1.0, subdivisions=3)
        patch = select_patch(mesh, np.int32(5), 0.5)
        assert patch.vertex_ids == select_patch(mesh, 5, 0.5).vertex_ids

    @pytest.mark.parametrize("radius_hint", [math.inf, math.nan, 0.0, -0.5])
    def test_radius_hint_must_be_finite_and_positive(self, radius_hint):
        # an infinite radius used to select the whole mesh
        mesh = icosphere(radius=1.0, subdivisions=2)
        with pytest.raises(ValidationError, match=f"radius_hint must be finite and > 0, got {radius_hint}"):
            select_patch(mesh, seed=0, radius_hint=radius_hint)

    def test_patch_grows_with_radius(self):
        mesh = icosphere(radius=1.0, subdivisions=3)
        small = set(select_patch(mesh, 0, 0.3).vertex_ids)
        large = set(select_patch(mesh, 0, 0.6).vertex_ids)
        assert small <= large
        assert len(large) > len(small)


class TestFitCurvature:
    def test_icosphere_radius_within_two_percent(self):
        mesh = icosphere(radius=1.0, subdivisions=3)
        patch = select_patch(mesh, seed=0, radius_hint=0.5)
        fit = fit_curvature(patch)
        assert fit["radius"] == pytest.approx(1.0, rel=0.02)

    def test_scaling_doubles_radius(self):
        mesh = icosphere(radius=1.0, subdivisions=3)
        patch = select_patch(mesh, seed=0, radius_hint=0.5)
        r1 = fit_curvature(patch)["radius"]
        scaled = TriMesh(vertices=mesh.vertices * 2.0, faces=mesh.faces)
        patch2 = select_patch(scaled, seed=0, radius_hint=1.0)
        r2 = fit_curvature(patch2)["radius"]
        assert r2 == pytest.approx(2.0 * r1, rel=1e-9)

    def test_flat_patch_degenerate(self):
        # planar triangulated grid: no finite sphere fits
        n = 5
        xs, ys = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n))
        vertices = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(n * n)])
        faces = []
        for i in range(n - 1):
            for j in range(n - 1):
                a = i * n + j
                faces.append([a, a + 1, a + n])
                faces.append([a + 1, a + n + 1, a + n])
        mesh = TriMesh(vertices=vertices, faces=np.array(faces))
        patch = select_patch(mesh, seed=n * n // 2, radius_hint=2.0)
        with pytest.raises(DegenerateFitError):
            fit_curvature(patch)

    @settings(max_examples=20, deadline=None)
    @given(
        shift=st.tuples(*[st.floats(min_value=-10, max_value=10) for _ in range(3)]),
    )
    def test_translation_invariance(self, shift):
        mesh = icosphere(radius=1.0, subdivisions=2)
        patch = select_patch(mesh, seed=0, radius_hint=0.7)
        r0 = fit_curvature(patch)["radius"]
        moved = TriMesh(vertices=mesh.vertices + np.asarray(shift), faces=mesh.faces)
        patch2 = select_patch(moved, seed=0, radius_hint=0.7)
        assert fit_curvature(patch2)["radius"] == pytest.approx(r0, rel=1e-7)

    def test_rotation_invariance(self):
        mesh = icosphere(radius=1.0, subdivisions=2)
        patch = select_patch(mesh, seed=0, radius_hint=0.7)
        r0 = fit_curvature(patch)["radius"]
        # rotation by 0.7 rad about z
        c, s = math.cos(0.7), math.sin(0.7)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        rotated = TriMesh(vertices=mesh.vertices @ rot.T, faces=mesh.faces)
        patch2 = select_patch(rotated, seed=0, radius_hint=0.7)
        assert fit_curvature(patch2)["radius"] == pytest.approx(r0, rel=1e-7)


class TestEnclosedVolume:
    def test_unit_cube_exact(self):
        assert enclosed_volume(box_mesh()) == pytest.approx(1.0, abs=1e-12)

    def test_icosphere_close_to_analytic(self):
        mesh = icosphere(radius=1.0, subdivisions=4)
        assert enclosed_volume(mesh) == pytest.approx(4.0 * math.pi / 3.0, rel=0.01)

    def test_open_mesh_topology_error(self):
        mesh = icosphere(radius=1.0, subdivisions=1)
        open_mesh = TriMesh(vertices=mesh.vertices, faces=mesh.faces[:-1])
        with pytest.raises(TopologyError) as err:
            enclosed_volume(open_mesh)
        assert len(err.value.boundary_edges) == 3

    @settings(max_examples=20, deadline=None)
    @given(
        shift=st.tuples(*[st.floats(min_value=-100, max_value=100) for _ in range(3)]),
    )
    def test_translation_invariance(self, shift):
        mesh = icosphere(radius=1.0, subdivisions=2)
        v0 = enclosed_volume(mesh)
        moved = TriMesh(vertices=mesh.vertices + np.asarray(shift), faces=mesh.faces)
        assert enclosed_volume(moved) == pytest.approx(v0, rel=1e-9)

    def test_ball_far_from_the_origin(self):
        # a scan in site coordinates: its corners lie 1 km out, 10^4 times
        # its edge lengths
        ball = icosphere(radius=0.13, subdivisions=3)
        moved = ball.with_vertices(ball.vertices + [1000.0, 500.0, 250.0])
        assert enclosed_volume(moved) == pytest.approx(enclosed_volume(ball), rel=1e-9)


class TestTriMesh:
    def test_face_index_out_of_range(self):
        with pytest.raises(IndexRangeError):
            TriMesh(
                vertices=np.zeros((3, 3)),
                faces=np.array([[0, 1, 3]]),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_rejected(self, bad):
        vertices = icosahedron().vertices.copy()
        vertices[3, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            TriMesh(vertices=vertices, faces=icosahedron().faces)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [2.5, -0.5, math.nan, math.inf, -math.inf, 1e19])
    def test_non_integral_face_index_rejected(self, bad):
        # 2.5 used to be truncated to index 2
        with pytest.raises(ValidationError, match="face indices must be integers"):
            TriMesh(vertices=np.zeros((3, 3)), faces=[[0.0, 1.0, bad]])

    def test_integral_float_faces_accepted(self):
        mesh = TriMesh(vertices=icosahedron().vertices, faces=icosahedron().faces.astype(float))
        assert mesh.faces.dtype == np.int64
        np.testing.assert_array_equal(mesh.faces, icosahedron().faces)

    def test_watertight_flags(self):
        mesh = icosphere(radius=1.0, subdivisions=1)
        assert mesh.is_watertight
        assert not TriMesh(vertices=mesh.vertices, faces=mesh.faces[:-1]).is_watertight


class TestAnalyticMeshArguments:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("radius", [-1.0, 0.0, math.inf, math.nan])
    @pytest.mark.parametrize("build", [icosahedron, lambda r: icosphere(r, 1)],
                             ids=["icosahedron", "icosphere"])
    def test_bad_radius_refused_without_a_warning(self, build, radius):
        with pytest.raises(ValidationError, match="radius"):
            build(radius)

    @pytest.mark.parametrize(
        "subdivisions", [-1, geometry.MAX_SUBDIVISIONS + 1, 20, 2.0, "3", None]
    )
    def test_bad_subdivisions_refused_before_building(self, monkeypatch, subdivisions):
        def unreachable(radius):
            raise AssertionError("icosphere built a mesh for refused subdivisions")

        monkeypatch.setattr(geometry, "icosahedron", unreachable)
        with pytest.raises(ValidationError, match="subdivisions"):
            icosphere(1.0, subdivisions)

    def test_numpy_integer_subdivisions_accepted(self):
        mesh = icosphere(1.0, np.int64(2))
        assert (mesh.n_vertices, mesh.n_faces) == (162, 320)


# ---------------------------------------------------------------------------
# Equivalence with the loop implementations the array code replaced.  The
# references below are the former library code, kept verbatim in logic.


def reference_boundary_edges(faces):
    f = np.asarray(faces)
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    fwd = set(map(tuple, edges.tolist()))
    return sorted(e for e in fwd if (e[1], e[0]) not in fwd)


def reference_unique_boundary_edges(faces, n):
    """The former array boundary pass: np.unique of the edge keys, then
    np.isin of their twins."""
    a, b = faces.ravel(), faces[:, [1, 2, 0]].ravel()
    keys = np.unique(a * n + b)
    a, b = np.divmod(keys, n)
    open_ = ~np.isin(b * n + a, keys, assume_unique=True)
    return tuple(zip(a[open_].tolist(), b[open_].tolist()))


def reference_patch_distances(mesh, seed, radius_hint):
    adj = [[] for _ in range(mesh.n_vertices)]
    v = mesh.vertices
    seen = set()
    for tri in mesh.faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            d = float(np.linalg.norm(v[a] - v[b]))
            adj[a].append((int(b), d))
            adj[b].append((int(a), d))
    dist = {seed: 0.0}
    heap = [(0.0, seed)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, np.inf):
            continue
        for w_vertex, w in adj[u]:
            nd = d + w
            if nd <= radius_hint and nd < dist.get(w_vertex, np.inf):
                dist[w_vertex] = nd
                heapq.heappush(heap, (nd, w_vertex))
    return dist


def reference_load_mesh(path):
    vertices = []
    faces = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise ParseError("vertex needs 3 coordinates", lineno, str(path))
                try:
                    vertices.append([float(x) for x in parts[1:4]])
                except ValueError:
                    raise ParseError("non-numeric vertex", lineno, str(path)) from None
            elif tag == "f":
                if len(parts) < 4:
                    raise ParseError("face needs >= 3 indices", lineno, str(path))
                try:
                    idx = [int(p.split("/")[0]) for p in parts[1:]]
                except ValueError:
                    raise ParseError("non-integer face index", lineno, str(path)) from None
                resolved = []
                for i in idx:
                    if i == 0:
                        raise IndexRangeError(
                            f"{path}:{lineno}: OBJ face indices are 1-based; got 0"
                        )
                    resolved.append(i - 1 if i > 0 else len(vertices) + i)
                for a, b in zip(resolved[1:-1], resolved[2:]):
                    faces.append([resolved[0], a, b])
    if not vertices:
        raise ParseError("no vertices in file", None, str(path))
    return np.array(vertices, dtype=np.float64), np.array(faces, dtype=np.int64).reshape(-1, 3)


def reference_icosphere(radius, subdivisions):
    mesh = icosahedron(radius)
    verts = list(map(tuple, mesh.vertices))
    faces = mesh.faces.tolist()
    for _ in range(subdivisions):
        cache = {}

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
    return np.array(verts), np.array(faces, dtype=np.int64)


def reference_save_mesh(mesh, path):
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def noisy_icosphere(subdivisions, seed):
    mesh = icosphere(radius=1.0, subdivisions=subdivisions)
    rng = np.random.default_rng(seed)
    radial = 1.0 + 0.01 * rng.standard_normal(mesh.n_vertices)
    return TriMesh(vertices=mesh.vertices * radial[:, None], faces=mesh.faces)


def coincident_vertex_mesh():
    """An icosphere plus vertex n, a copy of vertex k joined to the mesh only
    by a zero-length edge (a degenerate face): (mesh, k, n)."""
    mesh = icosphere(radius=1.0, subdivisions=2)
    k, n = max(reference_patch_distances(mesh, 0, 0.8)), mesh.n_vertices
    dup = TriMesh(
        vertices=np.vstack([mesh.vertices, mesh.vertices[k]]),
        faces=np.vstack([mesh.faces, [[k, n, k]]]),
    )
    return dup, k, n


FRONTIER_MESHES = (noisy_icosphere(2, 3), noisy_icosphere(3, 4), coincident_vertex_mesh()[0])


class TestArrayRewritesMatchLoops:
    @pytest.mark.parametrize("subdivisions", [2, 3])
    @pytest.mark.parametrize("mesh_seed", [0, 1])
    def test_select_patch_membership(self, subdivisions, mesh_seed):
        mesh = noisy_icosphere(subdivisions, mesh_seed)
        rng = np.random.default_rng(100 + mesh_seed)
        for seed in rng.choice(mesh.n_vertices, size=4, replace=False).tolist():
            for radius in (0.7, 1.0, 1.4):
                expected = tuple(sorted(reference_patch_distances(mesh, seed, radius)))
                assert select_patch(mesh, seed, radius).vertex_ids == expected

    def test_select_patch_radius_equal_to_a_path_length(self):
        # the ball is closed: a vertex whose distance is exactly the radius
        # belongs to the patch
        mesh = noisy_icosphere(3, 2)
        dist = reference_patch_distances(mesh, 5, 0.6)
        for vertex in sorted(dist, key=dist.get)[20:]:
            assert vertex in select_patch(mesh, 5, dist[vertex]).vertex_ids
        radius = dist[max(dist, key=dist.get)]
        expected = tuple(sorted(reference_patch_distances(mesh, 5, radius)))
        assert select_patch(mesh, 5, radius).vertex_ids == expected

    def test_select_patch_keeps_zero_length_edges(self):
        # vertex n duplicates vertex k and is joined to the mesh only by a
        # zero-length edge (a degenerate face); it is at distance 0 from k
        dup, k, n = coincident_vertex_mesh()
        expected = tuple(sorted(reference_patch_distances(dup, 0, 0.8)))
        assert n in expected
        assert select_patch(dup, 0, 0.8).vertex_ids == expected

    def test_symmetric_graph_gives_the_undirected_distances(self):
        # the adjacency stores each edge in both directions; the frontier
        # distances equal an undirected search of the one-direction graph
        dup, k, n = coincident_vertex_mesh()
        for mesh in (noisy_icosphere(2, 0), noisy_icosphere(3, 1), dup):
            indptr, neighbours, lengths = mesh._adjacency
            tails = np.repeat(np.arange(mesh.n_vertices), np.diff(indptr))
            forward = tails < neighbours
            one_way = csr_matrix(
                (lengths[forward], (tails[forward], neighbours[forward])),
                shape=(mesh.n_vertices, mesh.n_vertices),
            )
            rng = np.random.default_rng(mesh.n_vertices)
            seeds = [0] + rng.choice(mesh.n_vertices, size=3, replace=False).tolist()
            for seed in seeds:
                for radius in (0.3, 0.8, 1.4):
                    want = dijkstra(one_way, directed=False, indices=seed, limit=radius)
                    got = geometry._graph_distances(mesh, seed, radius)
                    assert np.array_equal(got, want)
        # every edge is stored both ways with one length; the zero-length
        # edge of the coincident vertices too
        entries = sorted(zip(tails.tolist(), neighbours.tolist(), lengths.tolist()))
        assert entries == sorted(zip(neighbours.tolist(), tails.tolist(), lengths.tolist()))
        assert (k, n, 0.0) in entries

    @settings(max_examples=80, deadline=None)
    @given(
        which=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        radius=st.floats(0.0, 2.5),
    )
    def test_frontier_distances_equal_dijkstra_and_the_reference(self, which, seed, radius):
        mesh = FRONTIER_MESHES[which]
        seed %= mesh.n_vertices
        indptr, neighbours, lengths = mesh._adjacency
        graph = csr_matrix((lengths, neighbours, indptr), shape=(mesh.n_vertices,) * 2)
        got = geometry._graph_distances(mesh, seed, radius)
        assert np.array_equal(got, dijkstra(graph, directed=True, indices=seed, limit=radius))
        reached = np.flatnonzero(np.isfinite(got)).tolist()
        assert dict(zip(reached, got[reached].tolist())) == reference_patch_distances(
            mesh, seed, radius
        )

    def test_boundary_edges_are_found_once(self, monkeypatch):
        calls = []
        directed_edges = geometry._directed_edges

        def counted(faces):
            calls.append(len(faces))
            return directed_edges(faces)

        monkeypatch.setattr(geometry, "_directed_edges", counted)
        box = box_mesh()
        for mesh in (TriMesh(vertices=box.vertices, faces=box.faces[1:]), box):
            expected = reference_boundary_edges(mesh.faces)
            first = mesh.boundary_edges()
            assert first == expected
            first.append((0, 0))
            assert mesh.boundary_edges() == expected
            assert mesh.boundary_edges() is not mesh.boundary_edges()
            assert mesh.is_watertight == (not expected)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "mesh",
        [
            TriMesh(vertices=box_mesh().vertices, faces=box_mesh().faces[1:]),
            TriMesh(
                vertices=box_mesh().vertices,
                faces=np.vstack([box_mesh().faces[:4], box_mesh().faces[4, ::-1],
                                 box_mesh().faces[5:]]),
            ),
            TriMesh(vertices=icosphere(1.0, 2).vertices, faces=icosphere(1.0, 2).faces[7:]),
            box_mesh(),
        ],
        ids=["box-minus-face", "box-flipped-face", "open-icosphere", "closed-box"],
    )
    def test_boundary_edges_list(self, mesh):
        expected = reference_boundary_edges(mesh.faces)
        got = mesh.boundary_edges()
        assert got == expected
        assert all(type(a) is int and type(b) is int for a, b in got)

    @pytest.mark.parametrize("radius", [0.13, 1.0, 3.0])
    def test_icosphere_bit_for_bit(self, radius):
        for subdivisions in range(6):
            vertices, faces = reference_icosphere(radius, subdivisions)
            mesh = icosphere(radius, subdivisions)
            assert np.array_equal(mesh.vertices, vertices)
            assert np.array_equal(mesh.faces, faces)

    @pytest.mark.parametrize(
        "mesh",
        [icosahedron(), icosphere(0.13, 2), noisy_icosphere(4, 8),
         box_mesh(center=(1e-3, -2.0, 0.5))],
        ids=["icosahedron", "icosphere-2", "noisy-icosphere-4", "box"],
    )
    def test_save_mesh_bytes(self, tmp_path, mesh):
        save_mesh(mesh, tmp_path / "new.obj")
        reference_save_mesh(mesh, tmp_path / "old.obj")
        assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "old.obj").read_bytes()

    def test_load_mixed_obj(self, tmp_path):
        lines = [
            "# mixed OBJ: comments, groups, texture and normal records",
            "o cube",
            "v 0 0 0", "v 1 0 0", "v 1 1 0", "v 0 1 0",
            "",
            "vt 0.0 0.0", "vn 0 0 -1",
            "   v 0 0 1   ", "v\t1 0 1", "v 1 1 1 1.0", "v 0 1 1",
            "g bottom",
            "f 1/1/1 4/1/1 3/1/1 2/1/1",
            "f 5//1 6//1 7//1 8//1",
            "usemtl skin",
            "f -8 -7 -3 -4",
            "f 2/1 3/1 7/1",
            "f -7 -1 -2",
            "f 3 4 8 7",
            "f 4 1 5 8",
            "v 2 2 2",
            "f -1 -2 -3",
        ]
        path = tmp_path / "mixed.obj"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        vertices, faces = reference_load_mesh(path)
        mesh = load_mesh(path)
        np.testing.assert_array_equal(mesh.vertices, vertices)
        np.testing.assert_array_equal(mesh.faces, faces)
        assert mesh.n_faces == 2 + 2 + 2 + 1 + 1 + 2 + 2 + 1

    def test_load_large_obj_bit_for_bit(self, tmp_path):
        path = tmp_path / "scan.obj"
        save_mesh(noisy_icosphere(3, 4), path)
        vertices, faces = reference_load_mesh(path)
        mesh = load_mesh(path)
        np.testing.assert_array_equal(mesh.vertices, vertices)
        np.testing.assert_array_equal(mesh.faces, faces)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\n# c\nf 1 2 x\n", 5),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\n\nf 1 2/3/4 0\n", 5),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 0 x\n", 4),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\nf 1 2 x\n", 4),
            ("v 0 0 0\nv 1 0 0\nf 1 2 0\nv 0 z 1\n", 3),
            ("v 0 0 0\nv 1 0 z\nf 1 2 0\n", 2),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nv 1 1\n", 5),
            ("v 0 0 0\nv 1 0 x\nv 0 1\n", 2),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 /3\n", 5),
            ("v 0 0 0\nv 1/2 0 0\nv 0 1 0\nf 1 2 3\n", 2),
        ],
    )
    def test_load_errors_name_the_first_bad_line(self, tmp_path, body, line):
        path = tmp_path / "bad.obj"
        path.write_text(body, encoding="utf-8")
        with pytest.raises((ParseError, IndexRangeError)) as expected:
            reference_load_mesh(path)
        with pytest.raises(type(expected.value)) as err:
            load_mesh(path)
        assert str(err.value) == str(expected.value)
        assert f":{line}:" in str(err.value)
        if isinstance(err.value, ParseError):
            assert err.value.line == line


    @pytest.mark.parametrize(
        "face, token",
        [
            ("f 1 99999999999999999999 3", "99999999999999999999"),
            ("f 1 -99999999999999999999 3", "-99999999999999999999"),
            ("f 1 99999999999999999999 x", "99999999999999999999"),
            ("f 0 99999999999999999999 3", "99999999999999999999"),
        ],
        ids=["alone", "negative", "before-non-integer", "after-zero"],
    )
    def test_overflowing_index_names_its_line(self, tmp_path, face, token):
        # int64 indices: the line-by-line reference has no such limit.  Like
        # a non-integer index, an overflow is reported before a zero index
        path = tmp_path / "big.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\n# c\nv 0 1 0\n{face}\nf 1 2 x\n", encoding="utf-8")
        with pytest.raises(IndexRangeError) as err:
            load_mesh(path)
        assert str(err.value) == f"{path}:5: face index {token} overflows"


def _open_icosphere():
    mesh = icosphere(1.0, 4)
    keep = np.random.default_rng(3).random(mesh.n_faces) < 0.7
    return TriMesh(vertices=mesh.vertices, faces=mesh.faces[keep])


def _repeated_edges():
    mesh = icosphere(1.0, 2)
    # a doubled face, a flipped copy and a third face on one edge
    extra = [mesh.faces[0], mesh.faces[3], mesh.faces[5, ::-1],
             [mesh.faces[9, 1], mesh.faces[9, 0], 0]]
    return TriMesh(vertices=mesh.vertices, faces=np.vstack([mesh.faces[2:], extra]))


class TestSortedBoundaryPass:
    @pytest.mark.parametrize(
        "build",
        [
            _open_icosphere,
            _repeated_edges,
            lambda: TriMesh(vertices=icosahedron().vertices, faces=np.empty((0, 3), dtype=np.int64)),
            lambda: TriMesh(vertices=np.zeros((0, 3)), faces=np.empty((0, 3), dtype=np.int64)),
            lambda: TriMesh(vertices=np.eye(3), faces=[[0, 1, 2]]),
            lambda: TriMesh(vertices=np.eye(3), faces=[[0, 1, 2], [0, 1, 2], [2, 1, 0]]),
            lambda: noisy_icosphere(4, 2),
        ],
        ids=["open-icosphere", "repeated-edges", "zero-faces", "empty", "one-triangle",
             "doubled-and-flipped", "closed"],
    )
    def test_matches_the_unique_isin_pass(self, build):
        mesh = build()
        expected = reference_unique_boundary_edges(mesh.faces, mesh.n_vertices)
        assert mesh._boundary_edges == expected
        assert mesh.boundary_edges() == reference_boundary_edges(mesh.faces)
        assert mesh.is_watertight == (not expected)


BLOCK = geometry.SAVE_BLOCK_ROWS


def _records(n_vertices, n_faces):
    """n_vertices distinct vertex records, then n_faces triangles over them."""
    lines = [f"v {k % 7} {k // 7 % 13} {k * 0.001!r}" for k in range(n_vertices)]
    lines += [f"f {k + 1} {k + 2} {k + 3}" for k in (j % (n_vertices - 2) for j in range(n_faces))]
    return lines


def _write_blocks(tmp_path, lines, tail=b""):
    """An OBJ file of more than one block of records."""
    assert sum(line.split()[0] in ("v", "f") for line in lines if line.split()) > BLOCK
    path = tmp_path / "blocks.obj"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + tail)
    return path


def _assert_error_as_reference(path, line):
    with pytest.raises((ParseError, IndexRangeError)) as expected:
        reference_load_mesh(path)
    with pytest.raises(type(expected.value)) as err:
        load_mesh(path)
    assert str(err.value) == str(expected.value)
    assert f":{line}:" in str(err.value)
    if isinstance(err.value, ParseError):
        assert err.value.line == line


class TestBlockParsing:
    """Files of several SAVE_BLOCK_ROWS blocks parse as a line-by-line reader
    would read them."""

    @pytest.mark.parametrize(
        "counts, record, bad",
        [
            ((4500, 600), 4300, "v 0 z 1"),
            ((3000, 2000), 4500, "f 1 2 x"),
            ((3000, 2000), 4500, "f 1 0 3"),
        ],
        ids=["non-numeric-vertex", "non-integer-index", "zero-index"],
    )
    def test_first_bad_record_after_the_first_block(self, tmp_path, mesh_cache, counts, record, bad):
        lines = _records(*counts)
        lines[record] = bad
        lines[-10] = "f 1 2 y"  # a later failure in the same block
        _assert_error_as_reference(_write_blocks(tmp_path, lines), record + 1)

    @pytest.mark.parametrize(
        "first, second",
        [("f 1 2 x", "v 0 z 1"), ("v 0 z 1", "f 1 2 x"), ("f 1 0 3", "f 1 2 x"),
         ("f 1 2 x", "f 1 0 3"), ("f 1 0 3", "v 0 z 1")],
        ids=["face-then-vertex", "vertex-then-face", "zero-then-non-integer",
             "non-integer-then-zero", "zero-then-vertex"],
    )
    def test_earliest_failure_in_one_block_wins(self, tmp_path, mesh_cache, first, second):
        # the second block holds faces, then vertices, then faces again
        faces = _records(100, 300)[100:]
        lines = _records(4200, 0) + faces + _records(100, 0) + faces
        lines[4250], lines[4550] = first, second
        _assert_error_as_reference(_write_blocks(tmp_path, lines), 4251)

    def test_negative_indices_and_fans_across_a_block_boundary(self, tmp_path, mesh_cache):
        lines = _records(BLOCK - 16, 0)
        for k in range(60):
            lines += [f"v {k} 0.5 -1", "f -1 -2 -3", "f -4 -3 -2 -1",
                      f"f {k + 1} {k + 3} {k + 2} {k + 5} {k + 4}"]
        lines += _records(BLOCK, BLOCK)[BLOCK:]
        path = _write_blocks(tmp_path, lines)
        vertices, faces = reference_load_mesh(path)
        mesh = load_mesh(path)
        np.testing.assert_array_equal(mesh.vertices, vertices)
        np.testing.assert_array_equal(mesh.faces, faces)
        assert mesh.n_faces == 60 * (1 + 2 + 3) + BLOCK

    @pytest.mark.parametrize(
        "edits, line",
        [
            ({5000: "v 1 1"}, 5001),
            ({5000: "f 1 2"}, 5001),
            ({4900: "v 0 z 1", 5000: "v 1 1"}, 4901),
            ({5000: "v 1 1", 5100: "v 0 z 1"}, 5001),
        ],
        ids=["vertex", "face", "bad-record-before", "bad-record-after"],
    )
    def test_truncated_record_in_the_second_block(self, tmp_path, mesh_cache, edits, line):
        lines = _records(4500, 1000)
        for k, text in edits.items():
            lines[k] = text
        _assert_error_as_reference(_write_blocks(tmp_path, lines), line)

    def test_valid_file_is_read_once(self, tmp_path, mesh_cache, monkeypatch):
        # only a bad record sends the parse back to line 1
        lines = _records(3000, 2000) + ["f 1 2 3 4", "v 0.5 0.5 0.5", "f -1 -2 -3"]
        path = _write_blocks(tmp_path, lines)

        def fail(data, path):
            raise AssertionError("a valid file was read again")

        monkeypatch.setattr(geometry, "_first_error", fail)
        vertices, faces = reference_load_mesh(path)
        mesh = load_mesh(path)
        np.testing.assert_array_equal(mesh.vertices, vertices)
        np.testing.assert_array_equal(mesh.faces, faces)

    def test_bad_record_is_reported_before_later_undecodable_bytes(self, tmp_path, mesh_cache):
        # the block holding the bad record fails before the decoder reaches
        # the bytes that are not UTF-8
        lines = _records(3 * BLOCK, 10)
        lines[5] = "v 0 z 1"
        _assert_error_as_reference(_write_blocks(tmp_path, lines, tail=b"\xff\n"), 6)

    def test_parse_holds_a_few_times_its_arrays(self, tmp_path):
        path = tmp_path / "scan.obj"
        save_mesh(noisy_icosphere(5, 9), path)
        data = path.read_bytes()
        tracemalloc.start()
        try:
            mesh = geometry._parse_obj(data, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mesh.n_vertices == 10242
        assert peak < 4 * (mesh.vertices.nbytes + mesh.faces.nbytes)


@pytest.fixture
def mesh_cache(monkeypatch):
    """An empty load_mesh cache for the test, with the default bound."""
    cache = geometry._MeshCache(geometry.MESH_CACHE_BYTES)
    monkeypatch.setattr(geometry, "_MESH_CACHE", cache)
    return cache


class TestMeshCache:
    def test_same_bytes_at_two_paths_give_the_cached_mesh(self, tmp_path, mesh_cache):
        first, second = tmp_path / "a.obj", tmp_path / "b.obj"
        save_mesh(noisy_icosphere(2, 5), first)
        second.write_bytes(first.read_bytes())
        mesh = load_mesh(first)
        again = load_mesh(second)
        np.testing.assert_array_equal(again.vertices, mesh.vertices)
        np.testing.assert_array_equal(again.faces, mesh.faces)
        assert again is mesh

    def test_file_rewritten_in_place_gives_the_new_mesh(self, tmp_path, mesh_cache):
        path = tmp_path / "scan.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        stat = path.stat()
        before = load_mesh(path)
        # same size and modification time, different content
        path.write_text("v 0 0 0\nv 2 0 0\nv 0 1 0\nf 1 2 3\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        after = load_mesh(path)
        assert before.vertices[1, 0] == 1.0
        assert after.vertices[1, 0] == 2.0

    @pytest.mark.parametrize(
        "body",
        [
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n",
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 0\n",
            "v 0 0 0\nv 1 0\n",
            "# no records\n",
        ],
        ids=["non-integer-index", "zero-index", "truncated-vertex", "no-vertices"],
    )
    def test_errors_are_not_cached(self, tmp_path, mesh_cache, body):
        for name in ("a.obj", "b.obj", "a.obj", "b.obj"):
            path = tmp_path / name
            path.write_text(body, encoding="utf-8")
            with pytest.raises((ParseError, IndexRangeError)) as expected:
                reference_load_mesh(path)
            with pytest.raises(type(expected.value)) as err:
                load_mesh(path)
            assert str(err.value) == str(expected.value)
            assert str(err.value).startswith(f"{path}:")
        assert mesh_cache.nbytes == 0

    def test_cache_stays_within_its_byte_bound(self, tmp_path, monkeypatch):
        meshes = [noisy_icosphere(1, seed) for seed in range(6)]
        cache = geometry._MeshCache(3 * geometry._MeshCache.charge(meshes[0]))
        monkeypatch.setattr(geometry, "_MESH_CACHE", cache)
        loaded = []
        for k, mesh in enumerate(meshes):
            path = tmp_path / f"m{k}.obj"
            save_mesh(mesh, path)
            loaded.append(load_mesh(path))
            assert 0 < cache.nbytes <= cache.max_bytes
        # the three most recently used stay; the oldest is parsed anew
        assert all(load_mesh(tmp_path / f"m{k}.obj") is loaded[k] for k in (3, 4, 5))
        again = load_mesh(tmp_path / "m0.obj")
        assert again is not loaded[0]
        np.testing.assert_array_equal(again.vertices, loaded[0].vertices)
        assert cache.nbytes <= cache.max_bytes

    def test_mesh_larger_than_the_bound_is_not_kept(self, tmp_path, monkeypatch):
        small, large = tmp_path / "small.obj", tmp_path / "large.obj"
        save_mesh(icosahedron(), small)
        save_mesh(noisy_icosphere(2, 7), large)
        cache = geometry._MeshCache(2 * geometry._MeshCache.charge(icosahedron()))
        monkeypatch.setattr(geometry, "_MESH_CACHE", cache)
        kept = load_mesh(small)
        assert load_mesh(large) is not load_mesh(large)
        # the large mesh evicted nothing
        assert load_mesh(small) is kept
        assert cache.nbytes == geometry._MeshCache.charge(kept)

    @pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
    def test_charge_covers_the_edge_graph_select_patch_keeps(self, closed):
        mesh = noisy_icosphere(4, 3)
        if not closed:
            # every third face: many edges have no twin
            mesh = TriMesh(vertices=mesh.vertices, faces=mesh.faces[::3])
        select_patch(mesh, 0, 0.5)
        held = mesh.vertices.nbytes + mesh.faces.nbytes + sum(a.nbytes for a in mesh._adjacency)
        assert held <= geometry._MeshCache.charge(mesh)

    def test_lines_split_as_open_splits_them(self, tmp_path, mesh_cache):
        # universal newlines only: \x0b, \x0c, \x1c, \x85 and \u2028 are
        # whitespace inside a line, not line breaks
        body = "v 0 0 0\r\nv 1 0 0\rv 0 1 0\x0cv 9 9 9\nv 0 0 1\x1cv 8 8 8\u2028\nf 1 2 3\x85 4\x0b\nf 1 2 4\x1c\n"
        path = tmp_path / "breaks.obj"
        path.write_bytes(body.encode("utf-8"))
        vertices, faces = reference_load_mesh(path)
        mesh = load_mesh(path)
        np.testing.assert_array_equal(mesh.vertices, vertices)
        np.testing.assert_array_equal(mesh.faces, faces)
        assert (mesh.n_vertices, mesh.n_faces) == (4, 3)

    def test_decoding_stops_at_a_truncated_record(self, tmp_path, mesh_cache):
        # bytes that are not UTF-8 past the first read chunk are never decoded
        path = tmp_path / "truncated.obj"
        path.write_bytes(b"v 0 0 0\nv 1 0\n" + b"# padding\n" * 2000 + b"\xff\n")
        with pytest.raises(ParseError) as err:
            load_mesh(path)
        assert str(err.value) == f"{path}:2: vertex needs 3 coordinates"

    def test_select_patch_builds_the_graph_once(self, tmp_path, mesh_cache, monkeypatch):
        path = tmp_path / "scan.obj"
        save_mesh(noisy_icosphere(3, 6), path)
        built = []
        directed_edges = geometry._directed_edges

        def counting_directed_edges(faces):
            built.append(len(faces))
            return directed_edges(faces)

        monkeypatch.setattr(geometry, "_directed_edges", counting_directed_edges)
        for seed, radius in [(5, 0.6), (5, 0.6), (17, 1.0), (5, 0.6)]:
            mesh = load_mesh(path)
            expected = tuple(sorted(reference_patch_distances(mesh, seed, radius)))
            assert select_patch(mesh, seed, radius).vertex_ids == expected
        assert len(built) == 1
