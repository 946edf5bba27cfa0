"""Tests for mesh loading, patch curvature fitting, and enclosed volume."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        mesh = icosphere(radius=0.13, subdivisions=2)
        path = tmp_path / "ball.obj"
        save_mesh(mesh, path)
        again = load_mesh(path)
        np.testing.assert_array_equal(again.vertices, mesh.vertices)
        np.testing.assert_array_equal(again.faces, mesh.faces)


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

    def test_watertight_flags(self):
        mesh = icosphere(radius=1.0, subdivisions=1)
        assert mesh.is_watertight
        assert not TriMesh(vertices=mesh.vertices, faces=mesh.faces[:-1]).is_watertight


# ---------------------------------------------------------------------------
# Equivalence with the loop implementations the array code replaced.  The
# references below are the former library code, kept verbatim in logic.


def reference_boundary_edges(faces):
    f = np.asarray(faces)
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    fwd = set(map(tuple, edges.tolist()))
    return sorted(e for e in fwd if (e[1], e[0]) not in fwd)


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


def noisy_icosphere(subdivisions, seed):
    mesh = icosphere(radius=1.0, subdivisions=subdivisions)
    rng = np.random.default_rng(seed)
    radial = 1.0 + 0.01 * rng.standard_normal(mesh.n_vertices)
    return TriMesh(vertices=mesh.vertices * radial[:, None], faces=mesh.faces)


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
        mesh = icosphere(radius=1.0, subdivisions=2)
        k, n = max(reference_patch_distances(mesh, 0, 0.8)), mesh.n_vertices
        vertices = np.vstack([mesh.vertices, mesh.vertices[k]])
        faces = np.vstack([mesh.faces, [[k, n, k]]])
        dup = TriMesh(vertices=vertices, faces=faces)
        expected = tuple(sorted(reference_patch_distances(dup, 0, 0.8)))
        assert n in expected
        assert select_patch(dup, 0, 0.8).vertex_ids == expected

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
