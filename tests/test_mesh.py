import dataclasses
from collections import deque
from itertools import chain

import numpy as np
import pytest

import meshes
import qcflow.mesh as mesh_module
import sequential
from qcflow.errors import (
    MetricError,
    ParseError,
    SurgeryError,
    TopologyError,
)
from qcflow.mesh import (
    build_mesh,
    cut_graph,
    cut_to_disk,
    dual_bfs,
    euler_characteristic,
    load_obj,
    load_objs,
    save_obj,
    slice_along_edges,
)
from qcflow.flow import edge_swap
from qcflow.metric import induced_metric


def test_load_single_triangle(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = load_obj(path)
    assert mesh.n_vertices == 3
    assert mesh.n_faces == 1
    assert np.count_nonzero(mesh.twin < 0) == 3
    assert len(mesh.boundary_loops) == 1


def test_load_tetrahedron(tmp_path, tetra):
    path = tmp_path / "tet.obj"
    save_obj(tetra, path)
    mesh = load_obj(path)
    assert mesh.n_vertices == 4
    assert mesh.n_faces == 4
    assert mesh.boundary_loops == ()


def test_load_rejects_inconsistent_orientation(tmp_path):
    path = tmp_path / "bad.obj"
    # both faces traverse the shared edge 1->2 in the same direction
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 1 2 4\n")
    with pytest.raises(TopologyError):
        load_obj(path)


def test_load_rejects_bad_index(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 7\n")
    with pytest.raises(ParseError):
        load_obj(path)


def test_load_rejects_quad(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(ParseError):
        load_obj(path)


def test_load_rejects_malformed_vertex(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 zero 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(ParseError):
        load_obj(path)


def test_save_load_round_trip(tmp_path, grid9):
    path = tmp_path / "grid.obj"
    save_obj(grid9, path)
    again = load_obj(path)
    assert np.array_equal(again.faces, grid9.faces)
    assert np.abs(again.positions - grid9.positions).max() < 1e-9
    # re-saving reproduces the file byte for byte
    path2 = tmp_path / "grid2.obj"
    save_obj(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_with_uv_round_trip(tmp_path, grid9):
    uv = grid9.positions[:, 0] + 1j * grid9.positions[:, 1]
    path = tmp_path / "uv.obj"
    save_obj(grid9, path, uv=uv)
    text = path.read_text()
    assert text.count("\nvt ") == grid9.n_vertices
    again = load_obj(path)
    assert again.uv is not None
    assert np.abs(again.uv - uv).max() < 1e-9


def test_save_unwritable_path(grid9):
    with pytest.raises(OSError):
        save_obj(grid9, "/nonexistent-dir/x.obj")


def test_euler_characteristic(tetra, grid9):
    assert euler_characteristic(tetra) == 2
    assert euler_characteristic(grid9) == 1
    torus, _ = meshes.torus_grid(8, 8)
    assert euler_characteristic(torus) == 0


def test_halfedge_invariants(grid9, tetra, sphere2):
    for mesh in (grid9, tetra, sphere2):
        h = np.arange(mesh.n_halfedges)
        interior = mesh.twin >= 0
        assert np.array_equal(mesh.twin[mesh.twin[interior]], h[interior])
        nxt = mesh.next(mesh.next(mesh.next(h)))
        assert np.array_equal(nxt, h)
        assert mesh.faces.size == 3 * mesh.n_faces


def test_boundary_loop_of_grid(grid9):
    assert len(grid9.boundary_loops) == 1
    loop = grid9.boundary_loops[0]
    assert len(loop) == 4 * 8
    assert len(set(loop)) == len(loop)


def test_rejects_nonmanifold_edge():
    faces = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(TopologyError) as info:
        build_mesh(faces)
    assert info.value.faces == [0, 2]


# Edges of three or more faces, or two faces in one orientation. The first
# case puts opposite halfedges side by side in the sort by undirected edge
# (0 -> 1, 1 -> 0, 0 -> 1): its repeat is the third face, not a neighbour.
@pytest.mark.parametrize("faces, edge, pair", [
    ([[0, 1, 2], [1, 0, 3], [0, 1, 4]], (0, 1), [0, 2]),
    ([[0, 1, 2], [0, 1, 3]], (0, 1), [0, 1]),
    ([[0, 1, 2], [1, 0, 3], [0, 1, 4], [1, 0, 5]], (0, 1), [0, 2]),
    ([[0, 1, 2], [2, 1, 3], [1, 2, 4], [3, 4, 0]], (1, 2), [0, 2]),
    ([[0, 1, 2], [1, 0, 3], [3, 2, 1], [2, 3, 0], [0, 1, 4]], (0, 1),
     [0, 4]),
], ids=["three-faces", "same-orientation", "four-faces", "flipped-face",
        "closed-plus-one"])
def test_nonmanifold_edge_names_first_repeat(faces, edge, pair):
    with pytest.raises(TopologyError) as info:
        build_mesh(np.array(faces))
    assert str(info.value) == (
        f"oriented edge {edge} shared by faces {pair[0]} and {pair[1]}: "
        "non-manifold or inconsistently oriented")
    assert info.value.faces == pair


@pytest.mark.parametrize("make", [
    meshes.tetrahedron, meshes.subdivided_sphere,
    lambda: meshes.torus_grid(8, 6)[0], meshes.embedded_torus,
    meshes.voxel_torus, meshes.genus2_mesh, meshes.annulus_mesh,
    meshes.sliver_mesh, lambda: meshes.grid_mesh(9, 7),
], ids=["tetra", "sphere", "torus-grid", "embedded-torus", "voxel-torus",
        "genus2", "annulus", "sliver", "grid"])
def test_twins_match_searchsorted_pairing(make):
    mesh = make()
    assert np.array_equal(mesh.twin, sequential.searchsorted_twins(mesh.faces))


def test_twins_of_swapped_mesh_match_searchsorted_pairing(grid9):
    # edge_swap patches the pairing by hand; a fresh build pairs its faces
    # the same way, and so did the reversed-key lookup
    rng = np.random.default_rng(61)
    faces, twin = grid9.faces.copy(), grid9.twin.copy()
    metric = induced_metric(grid9)
    lengths = metric.lengths[grid9.edge_of_halfedge]
    swaps = 0
    for h in rng.permutation(grid9.n_halfedges).tolist():
        try:
            edge_swap(faces, twin, lengths, metric.geometry, h)
        except SurgeryError:  # the grid's axis edges have flat quads
            continue
        swaps += 1
    assert swaps > 20
    mesh = build_mesh(faces)
    twins = sequential.searchsorted_twins(mesh.faces)
    assert np.array_equal(twin, twins)
    assert np.array_equal(mesh.twin, twins)


def test_rejects_repeated_vertex_in_face():
    with pytest.raises(TopologyError) as info:
        build_mesh(np.array([[2, 0, 1], [0, 1, 1]]))
    assert info.value.faces == [1]


@pytest.mark.parametrize("faces, extra, message", [
    (np.array([0, 1, 2]), {}, r"faces must be an \(F, 3\) index array"),
    (np.zeros((0, 3)), {}, "mesh has no faces"),
    (np.array([[0, 1, 2], [2, 1, -1]]), {}, "negative vertex id"),
    (np.array([[0, 1, 2]]), {"positions": np.zeros((3, 2))},
     r"positions must have shape \(3, 3\)"),
    (np.array([[0, 1, 2]]), {"uv": np.zeros((3, 2))},
     r"uv must have shape \(3,\)"),
], ids=["not-triangles", "no-faces", "negative-id", "positions", "uv"])
def test_build_mesh_rejects_malformed_arrays(faces, extra, message):
    with pytest.raises(TopologyError, match=f"^{message}$"):
        build_mesh(faces, **extra)


def test_rejects_bowtie_vertex():
    # two triangle fans sharing only vertex 0
    faces = np.array([[0, 1, 2], [0, 3, 4]])
    with pytest.raises(TopologyError):
        build_mesh(faces)


def test_induced_metric_right_triangle():
    mesh = build_mesh(np.array([[0, 1, 2]]),
                      np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    metric = induced_metric(mesh)
    assert sorted(metric.lengths) == pytest.approx([1.0, 1.0, np.sqrt(2)])


def test_induced_metric_equilateral():
    mesh = build_mesh(np.array([[0, 1, 2]]),
                      np.array([[0.0, 0, 0], [2, 0, 0], [1, np.sqrt(3), 0]]))
    metric = induced_metric(mesh)
    assert metric.lengths == pytest.approx([2.0, 2.0, 2.0])


def test_induced_metric_zero_edge():
    mesh = build_mesh(np.array([[0, 1, 2]]),
                      np.array([[0.0, 0, 0], [0, 0, 0], [0, 1, 0]]))
    with pytest.raises(MetricError, match="zero-length edges") as err:
        induced_metric(mesh)
    assert err.value.faces == [0]


def test_induced_metric_requires_positions():
    with pytest.raises(MetricError) as err:
        induced_metric(build_mesh(np.array([[0, 1, 2]])))
    assert err.type is MetricError
    assert str(err.value) == "mesh has no vertex positions"


def test_cut_tetrahedron_to_disk(tetra):
    disk = cut_to_disk(tetra)
    assert euler_characteristic(disk) == 1
    assert len(disk.boundary_loops) == 1
    assert disk.n_faces == tetra.n_faces


def test_cut_torus_to_disk(torus16):
    mesh, _ = torus16
    disk = cut_to_disk(mesh)
    cut = meshes.cut_record(mesh, disk)
    assert euler_characteristic(disk) == 1
    assert len(disk.boundary_loops) == 1
    # The pruned cut graph deformation-retracts the torus: chi = -1, so it is
    # either a wedge of two loops (one degree-4 vertex) or a theta graph
    # (two degree-3 vertices); every other vertex has degree 2.
    degree = {}
    for e in cut.cut_edges:
        for v in mesh.edges[e]:
            degree[int(v)] = degree.get(int(v), 0) + 1
    assert min(degree.values()) >= 2
    vertices = len(degree)
    assert len(cut.cut_edges) - vertices == 1
    high = sorted(d for d in degree.values() if d > 2)
    assert high in ([4], [3, 3])


def test_cut_open_mesh_rejected(grid9):
    with pytest.raises(TopologyError):
        cut_to_disk(grid9)


CLOSED_BUILDERS = [
    lambda: meshes.tetrahedron(),
    lambda: meshes.subdivided_sphere(1),
    lambda: meshes.subdivided_sphere(2),
    lambda: meshes.subdivided_sphere(3),
    lambda: meshes.torus_grid(5, 4)[0],
    lambda: meshes.torus_grid(12, 7)[0],
    lambda: meshes.embedded_torus(10, 6),
    lambda: meshes.voxel_torus(),
    lambda: meshes.genus2_mesh(),
]


@pytest.mark.parametrize("builder", CLOSED_BUILDERS)
def test_cut_to_disk_property(builder):
    mesh = builder()
    disk = cut_to_disk(mesh)
    assert euler_characteristic(disk) == 1
    assert len(disk.boundary_loops) == 1


@pytest.mark.parametrize("builder", CLOSED_BUILDERS)
def test_cut_graph_is_the_pruned_cut_of_a_closed_mesh(builder):
    # the sequential cut, less the two-edge slit that opens a sphere
    mesh = builder()
    cut = sequential.cut_to_disk(mesh)[1].cut_edges
    expected = cut if euler_characteristic(mesh) != 2 else ()
    assert tuple(cut_graph(mesh).tolist()) == expected


@pytest.mark.parametrize("n, hole", [(9, 1), (9, 3), (17, 5), (33, 11)])
def test_cut_graph_of_an_annulus_is_one_path_between_its_loops(n, hole):
    mesh = meshes.annulus_mesh(n, hole)
    path = cut_graph(mesh)
    assert path.size and (mesh.edge_halfedges[path, 1] >= 0).all()
    # a simple path: every vertex on it has degree 2 but its two ends, and
    # it has one vertex more than edges
    ends = mesh.edges[path]
    on_path, degree = np.unique(ends, return_counts=True)
    assert len(on_path) == len(path) + 1
    assert sorted(degree)[2:] == [2] * (len(on_path) - 2)
    tips = on_path[degree == 1]
    loops = [set(lp) for lp in mesh.boundary_loops]
    # one end on each loop, and no other vertex on either
    assert sorted([int(t) in lp for lp in loops] for t in tips) == \
        [[False, True], [True, False]]
    inner = set(on_path.tolist()) - set(tips.tolist())
    assert not inner & (loops[0] | loops[1])
    disk = slice_along_edges(mesh, path)
    assert euler_characteristic(disk) == 1
    assert len(disk.boundary_loops) == 1


def test_cut_graph_of_a_disk_is_empty(grid9):
    assert cut_graph(grid9).size == 0


def _fifo_levels(mesh):
    """Entry halfedges of a first-in-first-out search of the dual graph from
    face 0, grouped by depth."""
    depth = {0: 0}
    levels = []
    queue = deque([0])
    while queue:
        f = queue.popleft()
        for h in range(3 * f, 3 * f + 3):
            entry = int(mesh.twin[h])
            if entry < 0 or entry // 3 in depth:
                continue
            depth[entry // 3] = d = depth[f] + 1
            if d > len(levels):
                levels.append([])
            levels[d - 1].append(entry)
            queue.append(entry // 3)
    return levels


@pytest.mark.parametrize("builder", [
    lambda: meshes.grid_mesh(17, 9),
    lambda: meshes.annulus_mesh(17, 5),
    lambda: meshes.embedded_torus(24, 16),
    lambda: meshes.genus2_mesh(),
    lambda: cut_to_disk(meshes.embedded_torus(24, 16)),
    lambda: meshes.grid_mesh(33, 33),
    lambda: meshes.grid_mesh(129, 129),
    lambda: cut_to_disk(meshes.embedded_torus(96, 64)),
], ids=["grid", "annulus", "torus", "genus2", "torus-disk", "grid33",
        "grid129", "torus-6k-disk"])
def test_dual_bfs_levels_are_a_fifo_search(builder):
    # The tree's order is the FIFO search's, and the depths its parents
    # give group it into that search's levels; the last three are the
    # meshes of the benchmark's layouts.
    mesh = builder()
    entry = dual_bfs(mesh)
    levels = _fifo_levels(mesh)
    assert entry.tolist() == [0, *chain.from_iterable(levels)]
    depth = {0: 0}
    by_depth = [[] for _ in levels]
    for h in entry[1:].tolist():
        depth[h // 3] = d = depth[int(mesh.twin[h]) // 3] + 1
        by_depth[d - 1].append(h)
    assert by_depth == levels
    assert len(entry) == mesh.n_faces


def test_slice_requires_interior_edge(grid9):
    boundary_edges = np.nonzero(grid9.edge_halfedges[:, 1] < 0)[0]
    with pytest.raises(TopologyError):
        slice_along_edges(grid9, [int(boundary_edges[0])])


def test_cut_rejects_disconnected_mesh():
    torus = meshes.torus_grid(4, 4)[0]
    two = build_mesh(np.vstack([torus.faces, torus.faces + torus.n_vertices]))
    with pytest.raises(TopologyError,
                       match="^cut_to_disk requires a connected mesh$"):
        cut_to_disk(two)


def test_cut_to_disk_rejects_a_cut_that_leaves_no_disk(monkeypatch):
    # a cut graph of one non-contractible loop of the torus opens it into
    # an annulus, which the check after slicing refuses
    mesh = meshes.embedded_torus()
    ring = {frozenset((i, (i + 1) % 12)) for i in range(12)}
    loop = np.array([e for e, (a, b) in enumerate(mesh.edges.tolist())
                     if frozenset((a, b)) in ring])
    assert loop.size == 12
    monkeypatch.setattr(mesh_module, "cut_graph", lambda mesh: loop)
    with pytest.raises(TopologyError,
                       match=r"^internal error: cut mesh is not a disk "
                             r"\(chi=0, boundaries=2\)$"):
        cut_to_disk(mesh)


def test_slice_rejects_isolated_cut_edge(grid9):
    boundary = grid9.boundary_vertex_mask()
    inner = np.nonzero(~boundary[grid9.edges].any(axis=1))[0]
    e = int(inner[0])
    with pytest.raises(TopologyError,
                       match=f"^cut edge {e} is isolated: slicing it would "
                             "not open the mesh$"):
        slice_along_edges(grid9, [e])


def test_slice_edge_copies(torus16):
    mesh, _ = torus16
    cut = meshes.cut_record(mesh, cut_to_disk(mesh))
    for oe, (c1, c2) in cut.edge_copy_pairs.items():
        a, b = mesh.edges[oe]
        assert cut.new_to_orig_vertex[c1[0]] == a
        assert cut.new_to_orig_vertex[c2[0]] == a
        assert cut.new_to_orig_vertex[c1[1]] == b
        assert cut.new_to_orig_vertex[c2[1]] == b


# ---------------------------------------------------------------------------
# Topology contract: numbering and manifold checks


def test_rejects_pinched_vertex():
    # two tetrahedra sharing only vertex 0: an interior vertex with two
    # closed fans
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3],
                      [0, 5, 4], [0, 4, 6], [0, 6, 5], [4, 5, 6]])
    with pytest.raises(TopologyError, match=r"vertex 0 "):
        build_mesh(faces)


def _swapped_grid():
    mesh = meshes.grid_mesh(6, 5, bump=0.2)
    interior = np.nonzero(mesh.edge_halfedges[:, 1] >= 0)[0][7]
    return meshes.flipped(mesh, induced_metric(mesh),
                          [mesh.edges[interior]])[0]


@pytest.mark.parametrize("builder", [
    lambda: meshes.grid_mesh(7, 5),
    lambda: meshes.torus_grid(6, 5)[0],
    lambda: meshes.embedded_torus(9, 6),
    lambda: meshes.subdivided_sphere(2),
    lambda: meshes.annulus_mesh(9, 3),
    lambda: meshes.genus2_mesh(),
    _swapped_grid,
], ids=["grid", "torus", "embedded-torus", "sphere", "annulus", "genus2",
        "edge-swap"])
def test_numbering_invariants(builder):
    mesh = builder()
    h = np.arange(mesh.n_halfedges)
    first, second = mesh.edge_halfedges[:, 0], mesh.edge_halfedges[:, 1]
    # edge ids ascend with their smaller halfedge, oriented like it
    assert np.all(np.diff(first) > 0)
    assert np.array_equal(mesh.edges[:, 0], meshes.origin(mesh, first))
    assert np.array_equal(mesh.edges[:, 1], meshes.dest(mesh, first))
    inner = second >= 0
    assert np.all(first[inner] < second[inner])
    assert np.array_equal(mesh.twin[first], second)
    assert np.array_equal(mesh.edge_of_halfedge[first],
                          np.arange(mesh.n_edges))
    assert np.array_equal(mesh.edge_of_halfedge[second[inner]],
                          np.nonzero(inner)[0])
    # vertex_halfedge: the outgoing boundary halfedge, else the smallest
    # outgoing halfedge
    origin = meshes.origin(mesh, h)
    for v in range(mesh.n_vertices):
        out = h[origin == v]
        boundary_out = out[mesh.twin[out] < 0]
        want = boundary_out[0] if boundary_out.size else out.min()
        assert mesh.vertex_halfedge[v] == want
    # boundary loops start at their smallest vertex, in ascending order, and
    # follow the boundary halfedges
    starts = [loop[0] for loop in mesh.boundary_loops]
    assert starts == sorted(starts)
    boundary = {(int(meshes.origin(mesh, b)), int(meshes.dest(mesh, b)))
                for b in h[mesh.twin < 0]}
    walked = set()
    for loop in mesh.boundary_loops:
        assert loop[0] == min(loop)
        walked |= set(zip(loop, loop[1:] + loop[:1]))
    assert walked == boundary


# ---------------------------------------------------------------------------
# OBJ reader and writer behaviour

_TRI = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
_SQUARE = ("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
           "vt 0 0\nvt 1 0\nvt 1 1\nvt 0 1\n")


# (text, uv) rows that load; the first two vertices are (0, 0, 0) and
# (1, 0, 0) and every "f " is a face.
OBJ_ACCEPTS = [
    ("v 0 0 0\r\nv\t1 0 0\r\nv 0\t1  0\r\n\tf 1 2\t3\r\n", None),
    ("o tri\ng part\ns 1\nusemtl m\n" + _TRI + "vn 0 0 1\nf 1 2 3\n", None),
    (_TRI + "vt 0 0\nvt 1 0\nvt 0 1\nvn 0 0 1\nf 1//1 2//1 3//1\n", None),
    (_TRI + "vt 0 0\nvt 1 0\nvt 0 1\nvn 0 0 1\nf 1/1/1 2/2/1 3/3/1\n",
     [0, 1, 1j]),
    (_SQUARE + "f 1/1 2/2 3/3\nf 1 3 4\n", None),
    ("v 0 0 0 1\nv 1 0 0 1\nv 0 1 0 1\nf 1 2 3\n", None),
    ("v 0\xa00 0\nv\xa01 0\xa0\xa00\nv 0 1 0\nf 1\xa02 3\n", None),
    ("v 0 0 0 # origin\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", None),
    (_TRI + "f 1 2 3\nv 1 1 0\nf 2 4 3\n", None),
    (_SQUARE + "f 1/1 2/2 3/3\nf 1/ 3/ 4/\n", None),
    (_SQUARE + "f 1/1 2/2 3/3\nf 1//1 3//1 4//1\n", None),
]
OBJ_ACCEPT_IDS = ["crlf-tabs", "skipped-records", "no-texture-index",
                  "texture-index", "partial-texture", "vertex-weight",
                  "nbsp-separators", "vertex-comment", "interleaved-records",
                  "empty-texture-index", "normal-only-corners"]


@pytest.mark.parametrize("text, uv", OBJ_ACCEPTS, ids=OBJ_ACCEPT_IDS)
def test_obj_reader_accepts(tmp_path, text, uv):
    path = tmp_path / "m.obj"
    path.write_bytes(text.encode())
    mesh = load_obj(path)
    assert mesh.n_faces == text.count("f ")
    assert mesh.positions[:2].tolist() == [[0, 0, 0], [1, 0, 0]]
    if uv is None:
        assert mesh.uv is None
    else:
        assert np.array_equal(mesh.uv, uv)


_UV3 = _TRI + "vt 0 0\nvt 1 0\nvt 0 1\n"
# (text, line) rows whose faces name a texture index below 1, read as no
# texture by earlier versions.
OBJ_TEXTURE_ID_FAULTS = [
    (_UV3 + "f 1/-3 2/-2 3/-1\n", 7),
    (_UV3 + "f 1/0 2/1 3/2\n", 7),
    (_UV3 + "f 1/1/1 2/2/1 3/0/1\n", 7),
    (_TRI + "f 1/0 2/0 3/0\n", 4),
    (_UV3 + "f 1/1 2/2 3/3\nf 1/ 2/+0 3/\n", 8),
]

# (text, message pattern) rows that raise ParseError.
OBJ_REJECTS = [
    (_SQUARE + "f 1/1 2/2 3/3\nf 1/4 3/3 4/4\n",
     r"vertex 1 has two distinct texture coordinates"),
    (_TRI + "vt 0 0\nf 1/1 2/1 3/9\n", r"references vt 9"),
    (_TRI + "f -3 -2 -1\n", r"m\.obj:4: face index must be >= 1"),
    ("v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n", r"m\.obj:2: vertex needs 3"),
    (_TRI + "vt 0\nf 1 2 3\n", r"m\.obj:4: vt needs 2"),
    (_TRI + "vt 0 x\nf 1 2 3\n", r"m\.obj:4: bad texture coordinate"),
    (_TRI + "f 1 2/x 3\n", r"m\.obj:4: bad face index"),
    (_TRI + "f 1 2 3 4\nv 0 zero 0\n", r"m\.obj:4: only triangular"),
    (_TRI + "v 0 zero 0\nf 1 2 3 4\n", r"m\.obj:4: bad vertex coordinate"),
    ("# nothing\n", r"no vertices"),
    (_TRI, r"no faces"),
    ("v 0 0 0\nv\nv 0 1 0\nf 1 2 3\n", r"m\.obj:2: vertex needs 3"),
    (_TRI + "f 1 2 3 # tri\n", r"m\.obj:4: only triangular"),
    (_TRI + "f 1 2 99999999999999999999\n", r"m\.obj:4: bad face index"),
] + [(text, rf"m\.obj:{line}: texture index must be >= 1")
     for text, line in OBJ_TEXTURE_ID_FAULTS]
OBJ_REJECT_IDS = ["two-texture-coordinates", "texture-index-range",
                  "negative-index", "short-vertex", "short-texture",
                  "bad-texture", "bad-face-index", "first-bad-line-face",
                  "first-bad-line-vertex", "no-vertices", "no-faces",
                  "bare-vertex", "face-comment", "face-index-overflow",
                  "negative-texture-index", "texture-index-zero",
                  "texture-index-zero-vtn", "texture-index-zero-no-vt",
                  "texture-index-plus-zero"]


@pytest.mark.parametrize("text, match", OBJ_REJECTS, ids=OBJ_REJECT_IDS)
def test_obj_reader_rejects(tmp_path, text, match):
    path = tmp_path / "m.obj"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError, match=match):
        load_obj(path)


# Number spellings around the edges of what NumPy's text reader takes:
# where it takes a token it must read Python's value bit for bit (the sign
# of -nan too), and where it refuses one (1_0, non-ASCII digits, integers
# past int64) the row-by-row reader decides.
_FLOAT_TOKENS = ["nan", "-nan", "+nan", "NaN", "nan(1)", "inf", "-inf",
                 "Infinity", "-Infinity", "iNf", "1e400", "-1e400",
                 "1e-400", "4.9e-324", "+1.5", "-0", ".5", "5.", "00012",
                 "1.7976931348623157e308", "1.7976931348623159e308",
                 "0.30000000000000004", "1_0", "1e5_0", "\u0661", "0x10",
                 "1e", ".", "-", "1,5", "1.5j", "1\x002", "1d5"]
_INDEX_TOKENS = ["1", "0001", "+1", "1_0", "\u0661", "1.0", "1e0", "0x1",
                 "3", "4", "9223372036854775807", "9223372036854775808",
                 "99999999999999999999", "x"]
# Separators that str.split splits on, one byte wide.
_SEPARATOR_TOKENS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                     "\x1f"]


def _bulk_obj(v="0", vt="0", face="f 1/1/1 2/2/1 3/3/1", sep=" "):
    """A 3-vertex OBJ in the shapes read in bulk, with the given fields."""
    rows = [f"v {v} 0 0", "v 1 0 0", "v 0 1 0", f"vt 0 {vt}", "vt 1 0",
            "vt 0 1", face]
    return "".join(row.replace(" ", sep) + "\n" for row in rows)


def load_outcome(load, path):
    """Bytes of the mesh ``load`` reads from ``path``, or its error."""
    try:
        mesh = load(path)
    except Exception as exc:  # the same type and message is the contract
        return type(exc), str(exc)
    return (mesh.positions.tobytes(), mesh.faces.tobytes(),
            None if mesh.uv is None else mesh.uv.tobytes())


def _loads(tmp_path, text):
    """:func:`load_outcome` of ``text`` for the reader and for the
    line-by-line reference."""
    path = tmp_path / "m.obj"
    path.write_bytes(text.encode())
    return [load_outcome(load, path)
            for load in (load_obj, sequential.load_obj)]


@pytest.mark.parametrize("token", _FLOAT_TOKENS + _INDEX_TOKENS)
def test_obj_number_tokens_match_sequential(tmp_path, token):
    texts = [_bulk_obj(v=token), _bulk_obj(vt=token)]
    if token in _INDEX_TOKENS:
        t = token
        texts += [_bulk_obj(face=face) for face in (
            f"f {t} 2 3", f"f 1 2 {t}", f"f {t}/1 2/2 3/3", f"f 1/{t} 2/2 3/3",
            f"f {t}/1/1 2/2/1 3/3/1", f"f 1/{t}/1 2/2/1 3/3/1",
            f"f 1/1/1 2/2/1 3/3/{t}")]
    for text in texts:
        new, old = _loads(tmp_path, text)
        assert new == old, text


@pytest.mark.parametrize("sep", _SEPARATOR_TOKENS)
def test_obj_separators_match_sequential(tmp_path, sep):
    for face in ("f 1 2 3", "f 1/1 2/2 3/3", "f 1/1/1 2/2/1 3/3/1"):
        text = _bulk_obj(v="-nan", vt="1e-400", face=face, sep=sep)
        new, old = _loads(tmp_path, text)
        assert new == old
        assert isinstance(new[0], bytes)


def test_obj_reader_rejects_non_utf8(tmp_path):
    path = tmp_path / "m.obj"
    path.write_bytes(_TRI.encode() + b"f 1 2 3 \xff\n")
    with pytest.raises(ParseError, match=r"not UTF-8 text \(byte 32\)"):
        load_obj(path)


def test_trailing_unused_obj_vertex_is_named(tmp_path):
    path = tmp_path / "m.obj"
    path.write_text(_TRI + "v 5 5 5\nf 1 2 3\n")
    with pytest.raises(TopologyError, match=r"unused vertex ids \[3\]"):
        load_obj(path)


def test_obj_writer_float_format(tmp_path):
    pos = np.array([[-0.0, 5e-324, 1.23456789e21],
                    [1.0 / 3.0, -2.5e-7, 7.0],
                    [np.pi, 1e16, -1.0]])
    uv = np.array([-0.0 + 5e-324j, 1.23456789e21 - 1j, np.e + 0j])
    mesh = build_mesh(np.array([[0, 1, 2]]), pos)
    want = "".join(f"v {x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in pos)
    plain, textured = tmp_path / "plain.obj", tmp_path / "uv.obj"
    save_obj(mesh, plain)
    assert plain.read_text() == want + "f 1 2 3\n"
    assert "v -0 4.94065646e-324 1.23456789e+21\n" in want
    save_obj(mesh, textured, uv=uv)
    want += "".join(f"vt {w.real:.9g} {w.imag:.9g}\n" for w in uv)
    assert textured.read_text() == want + "f 1/1 2/2 3/3\n"


def _uv_pair(tmp_path):
    """Paths of a 5 x 4 grid saved with two uvs (shared ``v`` and ``f``
    blocks, different ``vt``) and without uv (``f`` as ``a b c``)."""
    grid = meshes.grid_mesh(5, 4, bump=0.2)
    z = grid.positions[:, 0] + 1j * grid.positions[:, 1]
    paths = [tmp_path / name for name in ("src.obj", "dst.obj", "plain.obj")]
    save_obj(grid, paths[0], uv=z)
    save_obj(grid, paths[1], uv=z + 0.3 * np.conj(z))
    save_obj(grid, paths[2])
    return paths


def _outcomes(paths):
    """:func:`load_outcome` of every path, read by one ``load_objs``."""
    try:
        loaded = load_objs(*paths)
    except Exception as exc:
        return type(exc), str(exc)
    return [load_outcome(lambda _, mesh=mesh: mesh, path)
            for mesh, path in zip(loaded, paths)]


def test_load_objs_reads_each_shared_block_once(tmp_path, monkeypatch):
    paths = _uv_pair(tmp_path)
    paths.append(paths[1])  # the same file twice shares every block
    calls = []
    for name in ("_floats", "_face_ids"):
        convert = getattr(mesh_module, name)
        monkeypatch.setattr(mesh_module, name,
                            lambda block, n, *key, _f=convert:
                            calls.append(block) or _f(block, n, *key))
    outcomes = _outcomes(paths)
    # one v block, the vt blocks of the two uvs and the empty one of the
    # file without, and the f blocks with and without uv
    assert len(calls) == 6
    assert outcomes == [load_outcome(load_obj, path) for path in paths]
    assert outcomes[0][2] != outcomes[1][2] and outcomes[2][2] is None
    calls.clear()
    load_objs(paths[0], paths[1])
    assert len(calls) == 4  # the memo of the call before is gone


def test_load_objs_names_the_first_path_of_a_bad_shared_block(tmp_path):
    # one v block, bad on line 2, shared by both files
    text = _TRI.replace("v 1 0 0", "v 1 x 0") + "f 1 2 3\n"
    paths = [tmp_path / "a.obj", tmp_path / "b.obj"]
    for path in paths:
        path.write_text(text)
    assert _outcomes(paths) == (ParseError, f"{paths[0]}:2: bad vertex "
                                "coordinate")
    assert _outcomes(paths[::-1])[1].startswith(f"{paths[1]}:2: ")


def test_load_objs_names_the_path_of_a_fault_in_a_later_file(tmp_path):
    good, bad = tmp_path / "good.obj", tmp_path / "bad.obj"
    good.write_text(_UV3 + "f 1/1 2/2 3/3\n")
    bad.write_text(_UV3 + "vt 0.5 0.5\nf 1/1 2/2 3/3\nf 1/4 3/3 2/2\n")
    assert _outcomes([good, bad]) == load_outcome(load_obj, bad)
    assert load_outcome(load_obj, bad)[1].startswith(f"{bad}: vertex 1 ")
    bad.write_text(_UV3 + "f 1/1 2/2 3/x\n")
    assert _outcomes([good, bad]) == (ParseError, f"{bad}:7: bad face index")


def test_load_objs_converts_a_block_that_differs_by_one_byte(tmp_path):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    a.write_text(_TRI + "f 1 2 3\n")
    b.write_text(_TRI.replace("v 0 1 0", "v 0 1 1") + "f 1 2 3\n")
    first, second = load_objs(a, b)
    assert first.positions[2, 2] == 0.0 and second.positions[2, 2] == 1.0
    assert _outcomes([a, b]) == [load_outcome(load_obj, p) for p in (a, b)]


def test_load_objs_meshes_share_no_memory(tmp_path):
    paths = _uv_pair(tmp_path)
    loaded = load_objs(*paths, paths[0]) + load_objs(paths[0], paths[1])
    arrays = [value for mesh in loaded for value in (
        getattr(mesh, f.name) for f in dataclasses.fields(mesh))
        if isinstance(value, np.ndarray)]
    assert len(arrays) == 7 * 6 + 5  # five of the six meshes have uv
    for i, x in enumerate(arrays):
        for y in arrays[:i]:
            assert not np.shares_memory(x, y)
