"""The array-built layout, cut and placement code and the bulk text I/O
against the sequential loops they replaced (``sequential.py``): the
arithmetic is unchanged, so every result must be equal bit for bit (the
OBJ writer's bytes included), and every error message equal. The layout's
development is held against its scalar twin bit for bit, also on curved
metrics where the face-by-face layout fails, and against the face-by-face
layout to a stated share of the layout's size. The
corner-angle edge flip is held against the quad layouts it replaced: same
decisions, diagonals equal to rounding. The layout's apex, placed by its
corner angle and moved onto its base by the layout's motion, is held
against the scalar circle intersections, in the face's own frame and over
bases anywhere in the plane or the disk, to a stated share of its distance
from the base's first end, and against the circle intersection in the disk
itself: equal to 1e-12 on fat triangles, both distances to 1e-7 on thin.
The layout refuses exactly the triangles the scalar placements cannot
place.
The line-table OBJ reader is held against the regular-expression reader it
replaced on generated texts of every layout: same arrays bit for bit, or
the same error.
The Hessian assembled by edges and vertices is held against the dense
face-by-face sum to 1e-12 of its largest entry, also on a grid that
``edge_swap`` flipped.
The flat Newton loop of ``run_flow`` is held against the flag-driven loop it
replaced, on every exit: same report, same result bit for bit, or the same
error. The pre-flow surgery loop, which flips in place on halfedge arrays
and builds the mesh once, is held against the loop that rebuilt the mesh
and measured the whole auxiliary metric after every swap: same mesh,
lengths and swap count bit for bit, or the same error. The per-halfedge
auxiliary metric is held against the per-vertex formula it replaced (bit
for bit) and against the cut-chart copy average (to rounding)."""

import functools
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import meshes
import sequential
import test_mesh
from qcflow import embed
from qcflow import mesh as mesh_module
from qcflow.beltrami import auxiliary_metric, field_from_json, field_to_json
from qcflow.embed import layout_euclidean, layout_hyperbolic
from qcflow.errors import (
    BeltramiError,
    FlowError,
    LayoutError,
    MetricError,
    ParseError,
    QcflowError,
    SurgeryError,
)
from qcflow.flow import FlowOptions, assemble_hessian, edge_swap, run_flow
from qcflow.geom import (
    _Disk,
    _Plane,
    mobius_from_origin,
    poincare_circle_to_euclidean,
)
from qcflow.mesh import (
    build_mesh,
    cut_graph,
    cut_to_disk,
    load_obj,
    save_obj,
    slice_along_edges,
)
from qcflow.metric import (
    DiscreteMetric,
    Geometry,
    cosine_law,
    deform_metric,
    induced_metric,
)
from qcflow.pipeline import (
    PresetKind,
    TargetPreset,
    _aux_metric_with_surgery,
    cmd_flatten,
    csv_text,
)

_MESH_FIELDS = ("faces", "twin", "edges", "edge_of_halfedge",
                "edge_halfedges", "vertex_halfedge", "boundary_loops",
                "n_vertices")


def bits(z):
    return np.asarray(z, dtype=np.complex128).tobytes()


def _rectangle_flow(n, bump):
    mesh = meshes.grid_mesh(n, n, bump=bump)
    target = np.zeros(mesh.n_vertices)
    target[list(meshes.grid_corners(n, n))] = np.pi / 2
    res = run_flow(mesh, induced_metric(mesh), target, Geometry.EUCLIDEAN)
    return res.mesh, res.metric


def _closed_disk(mesh, metric, geometry):
    res = run_flow(mesh, metric.retagged(geometry),
                   np.zeros(mesh.n_vertices), geometry)
    disk, cut = cut_to_disk(res.mesh)
    return disk, DiscreteMetric(geometry, cut.push_edge(res.metric.lengths))


def _annulus_disk():
    out = cmd_flatten(meshes.annulus_mesh(9, 3), Geometry.EUCLIDEAN,
                      TargetPreset(PresetKind.ANNULUS))
    return out.mesh, DiscreteMetric(
        Geometry.EUCLIDEAN, out.cut.push_edge(out.flow.metric.lengths))


def _torus_disk():
    mesh, metric = meshes.torus_grid(16, 16)
    return _closed_disk(mesh, metric, Geometry.EUCLIDEAN)


def _genus2_disk():
    mesh = meshes.genus2_mesh()
    return _closed_disk(mesh, induced_metric(mesh), Geometry.HYPERBOLIC)


@functools.cache
def _perfbench_gen():
    """The benchmark's input generator, ``perfbench/gen.py``."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", root / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _genus2_block_disk():
    mesh = _perfbench_gen().genus2_block(4)
    return _closed_disk(mesh, induced_metric(mesh), Geometry.HYPERBOLIC)


def _layouts(metric):
    if metric.geometry == Geometry.HYPERBOLIC:
        return layout_hyperbolic, sequential.layout_hyperbolic
    return layout_euclidean, sequential.layout_euclidean


def _by_faces(metric):
    if metric.geometry == Geometry.HYPERBOLIC:
        return sequential.layout_hyperbolic_by_faces
    return sequential.layout_euclidean_by_faces


_LAYOUT_CASES = {
    "grid9": lambda: (meshes.grid_mesh(9, 9),
                      induced_metric(meshes.grid_mesh(9, 9))),
    "grid33-bump": lambda: _rectangle_flow(33, 0.3),
    "grid129-bump": lambda: _rectangle_flow(129, 0.3),
    "annulus-slit": _annulus_disk,
    "torus-disk": _torus_disk,
    "genus2-disk": _genus2_disk,
    "genus2-block4-disk": _genus2_block_disk,
}


@functools.cache
def _layout_case(name):
    return _LAYOUT_CASES[name]()


@pytest.mark.parametrize("name", _LAYOUT_CASES)
def test_layout_matches_sequential(name):
    mesh, metric = _layout_case(name)
    new, old = _layouts(metric)
    assert bits(new(mesh, metric).coords) == bits(old(mesh, metric).coords)


# The development and the face-by-face layout place a vertex along
# different paths of faces, so they differ where the metric is flat only to
# the flow's tolerance: at most 2.7e-10 of the diagonal of the layout's
# bounding box, on grid33-bump (flow residual 1.5e-10), and below 2.3e-13
# on the others.
_BY_FACES_TOL = 1e-9


@pytest.mark.parametrize("name", _LAYOUT_CASES)
def test_layout_matches_face_by_face(name):
    mesh, metric = _layout_case(name)
    z = _layouts(metric)[0](mesh, metric).coords
    ref = _by_faces(metric)(mesh, metric).coords
    diagonal = np.hypot(np.ptp(ref.real), np.ptp(ref.imag))
    assert np.abs(z - ref).max() <= _BY_FACES_TOL * diagonal


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
@pytest.mark.parametrize("seed", range(3))
def test_layout_failure_matches_sequential(monkeypatch, geometry, seed):
    # With the flatness check off, a curved metric drives some face-by-face
    # placement off its circles, and that layout fails. The development
    # places every corner in its own face's frame, where an admissible
    # triangle always fits, so it lays these metrics out, bit for bit as
    # its scalar twin does.
    for module in (embed, sequential):
        monkeypatch.setattr(module, "_check_flat", lambda mesh, angles: None)
    mesh = meshes.grid_mesh(9, 9)
    metric = meshes.random_admissible_metric(
        mesh, np.random.default_rng(seed), geometry, amplitude=0.8)
    with pytest.raises(LayoutError, match="^cannot place vertex "):
        _by_faces(metric)(mesh, metric)
    new, old = _layouts(metric)
    assert bits(new(mesh, metric).coords) == bits(old(mesh, metric).coords)


def _same_cut(new, old):
    (disk_a, cut_a), (disk_b, cut_b) = new, old
    assert np.array_equal(disk_a.faces, disk_b.faces)
    assert cut_a.cut_edges == cut_b.cut_edges
    assert np.array_equal(cut_a.new_to_orig_vertex, cut_b.new_to_orig_vertex)
    assert np.array_equal(cut_a.new_to_orig_edge, cut_b.new_to_orig_edge)
    assert list(cut_a.edge_copy_pairs.items()) == \
        list(cut_b.edge_copy_pairs.items())


@pytest.mark.parametrize("build", [
    meshes.tetrahedron,
    lambda: meshes.torus_grid(16, 16)[0],
    lambda: meshes.embedded_torus(24, 16),
    meshes.genus2_mesh,
], ids=["tetrahedron", "torus16", "embedded-torus", "genus2"])
def test_cut_to_disk_matches_sequential(build):
    mesh = build()
    _same_cut(cut_to_disk(mesh), sequential.cut_to_disk(mesh))


def test_annulus_slit_matches_sequential():
    mesh = meshes.annulus_mesh(9, 3)
    slit = cut_graph(mesh)
    _same_cut(slice_along_edges(mesh, slit),
              sequential.slice_along_edges(mesh, slit))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except QcflowError as exc:
        return type(exc), str(exc)


def _random_walk(mesh, rng, steps):
    """Interior edges of a random walk on the mesh's vertices."""
    interior = mesh.edge_halfedges[:, 1] >= 0
    v = int(rng.integers(mesh.n_vertices))
    walk = []
    for _ in range(steps):
        at = np.nonzero(interior & (mesh.edges == v).any(axis=1))[0]
        e = int(rng.choice(at))
        walk.append(e)
        v = int(mesh.edges[e, 0] + mesh.edges[e, 1] - v)
    return walk


@pytest.mark.parametrize("seed", range(10))
def test_slice_random_edge_sets_match_sequential(seed):
    # random walks (which open the mesh) and arbitrary interior edge sets
    # (which mostly leave isolated edges), on a grid, whose boundary fans
    # split into one more sector, and on a torus: the same cut or the same
    # error
    rng = np.random.default_rng(seed)
    mesh = meshes.grid_mesh(7, 7) if seed % 2 else meshes.torus_grid(6, 5)[0]
    if seed < 8:
        edges = _random_walk(mesh, rng, int(rng.integers(2, 14)))
    else:
        interior = np.nonzero(mesh.edge_halfedges[:, 1] >= 0)[0]
        edges = rng.choice(interior, size=10, replace=False)
    new = _outcome(slice_along_edges, mesh, edges)
    old = _outcome(sequential.slice_along_edges, mesh, edges)
    if isinstance(old[0], type):
        assert new == old
    else:
        _same_cut(new, old)


def _random_disk_points(rng, n, rmax):
    r = rmax * np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


def test_geom_primitives_match_scalar():
    rng = np.random.default_rng(11)
    c = _random_disk_points(rng, 500, 0.9)
    z = _random_disk_points(rng, 500, 0.9)
    r = rng.uniform(1e-3, 4.0, 500)
    assert bits(mobius_from_origin(c, z)) == bits(
        [sequential.mobius_from_origin(a, b) for a, b in zip(c, z)])
    center, radius = poincare_circle_to_euclidean(c, r)
    old = [sequential.poincare_circle_to_euclidean(a, b) for a, b in zip(c, r)]
    assert bits(center) == bits([o[0] for o in old])
    assert radius.tobytes() == np.array([o[1] for o in old]).tobytes()


_TRIANGLE = build_mesh(np.array([[0, 1, 2]]))


def _space(geometry):
    """The layout's space and the scalar placement over a base."""
    if geometry == Geometry.EUCLIDEAN:
        return _Plane, sequential.place_third_euclidean
    return _Disk, sequential.place_third_hyperbolic


def _distance(geometry, pa, pb):
    if geometry == Geometry.EUCLIDEAN:
        return np.abs(pb - pa)
    return meshes.hyperbolic_distance(pa, pb)


def _layout_apex(geometry, pa, pb, la, lb):
    """The third corner of each triangle over the base ``pa -> pb`` with
    sides ``la`` at ``pa`` and ``lb`` at ``pb``, as the layout places it:
    the apex of the one-face layout, in the face's own frame (its first
    edge from 0 along the positive real axis), moved by the layout's rigid
    motion that sends 0 to ``pa`` and that axis through ``pb``."""
    space = _space(geometry)[0]
    d = _distance(geometry, pa, pb)
    apex = np.empty(len(d), dtype=np.complex128)
    for i in range(len(d)):
        lengths = np.empty(3)
        lengths[_TRIANGLE.edge_of_halfedge] = d[i], lb[i], la[i]
        metric = DiscreteMetric(geometry, lengths)
        apex[i] = _layouts(metric)[0](_TRIANGLE, metric).coords[2]
    return space.apply(space.motion(pa, pb), apex)


def _admissible_triangles(geometry, rng, n, disk=False):
    """``(pa, pb, la, lb, fat)`` for the triangles among ``n`` random ones
    whose corners ``corner_angles`` admits (every corner cosine strictly
    inside (-1, 1)): a third fat, a third near-slivers with ``lb`` just
    above ``|la - d|`` and a third with ``lb`` just below ``la + d``, at
    relative gaps from 1e-10 to 1e-6. ``fat`` marks the fat ones. The base
    runs from 0 along the positive real axis, or with ``disk`` between two
    random points of the disk of radius 0.7."""
    if disk:
        pa = _random_disk_points(rng, n, 0.7)
        pb = _random_disk_points(rng, n, 0.7)
        d = _distance(geometry, pa, pb)
    else:
        d = rng.uniform(0.05, 3.0, n)
        pa = np.zeros(n, dtype=np.complex128)
        pb = _space(geometry)[0].radius(d) + 0j
    la = rng.uniform(0.2, 1.5, n) * d
    lb = rng.uniform(np.abs(la - d) * 1.05, (la + d) * 0.95)
    kind = np.arange(n) % 3
    gap = 10.0 ** rng.uniform(-10.0, -6.0, n)
    lb = np.where(kind == 1, np.abs(la - d) * (1.0 + gap), lb)
    lb = np.where(kind == 2, (la + d) * (1.0 - gap), lb)
    cos = [cosine_law(geometry, a, b, c)
           for a, b, c in ((d, la, lb), (la, lb, d), (lb, d, la))]
    keep = (np.abs(cos) < 1.0).all(axis=0) & (d > 1e-3)
    return pa[keep], pb[keep], la[keep], lb[keep], kind[keep] == 0


def _placement_error(geometry, pa, pb, la, lb):
    """``|apex - scalar|`` over ``radius(la)``, the apex's distance from
    ``pa`` in the frame of the base."""
    space, scalar = _space(geometry)
    old = np.array([scalar(*args) for args in
                    zip(pa, pb, la.tolist(), lb.tolist())])
    return (np.abs(_layout_apex(geometry, pa, pb, la, lb) - old)
            / space.radius(la))


def _check_raises_where_scalar_raises(geometry, pa, pb, la, lb):
    # impossible triangles at 3 and 7 and a degenerate base at 11: the
    # layout refuses exactly the triangles the scalar placement cannot place
    d = _distance(geometry, pa, pb)
    pb, lb = pb.copy(), lb.copy()
    lb[[3, 7]] = la[[3, 7]] + d[[3, 7]] * 1.5
    pb[11] = pa[11]
    scalar = _space(geometry)[1]
    raised = [_raises(LayoutError, scalar, *args)
              for args in zip(pa, pb, la.tolist(), lb.tolist())]
    refused = [_raises(MetricError, _layout_apex, geometry, pa[i:i + 1],
                       pb[i:i + 1], la[i:i + 1], lb[i:i + 1])
               for i in range(len(pa))]
    assert np.flatnonzero(refused).tolist() == [3, 7, 11]
    assert np.flatnonzero(raised).tolist() == [3, 7, 11]


def _raises(error, fn, *args):
    try:
        fn(*args)
    except error:
        return True
    return False


def test_place_third_euclidean_matches_scalar():
    # The layout puts a face's third corner at la e^{i theta} in the face's
    # own frame, where the entry edge runs from 0 to d; the scalar
    # placement intersects the circles about both ends of that edge.
    # Measured on these triangles, relative to la: at most 9.5e-16 on the
    # fat ones and 4.5e-10 on the slivers, whose apex is ill-conditioned
    # under both rules; 3.6e-15 on the fat triangles over random bases.
    geometry = Geometry.EUCLIDEAN
    pa, pb, la, lb, fat = _admissible_triangles(
        geometry, np.random.default_rng(31), 600)
    error = _placement_error(geometry, pa, pb, la, lb)
    assert error[fat].max() <= 1e-14
    assert error[~fat].max() <= 1e-9
    # bases anywhere in the plane, moved there by the layout's motion
    rng = np.random.default_rng(12)
    pa = rng.normal(size=300) + 1j * rng.normal(size=300)
    pb = pa + rng.normal(size=300) + 1j * rng.normal(size=300)
    d = np.abs(pb - pa)
    la = rng.uniform(0.2, 2.0, 300) * d
    lb = rng.uniform(np.abs(la - d) * 1.001, (la + d) * 0.999)
    assert _placement_error(geometry, pa, pb, la, lb).max() <= 1e-14
    _check_raises_where_scalar_raises(geometry, pa[:20], pb[:20], la[:20],
                                      lb[:20])


@pytest.mark.parametrize("disk", [True, False], ids=["disk", "base-frame"])
def test_place_third_hyperbolic_matches_scalar(disk):
    # As in the plane, with the apex at tanh(la / 2) e^{i theta} in the
    # face's frame and the scalar placement in the Mobius frame of the
    # base. Measured, relative to tanh(la / 2): at most 5.1e-13 on the fat
    # ones and 8.5e-8 on the slivers with the base in the frame, 2.5e-14
    # and 1.0e-9 with the base anywhere in the disk of radius 0.7; the
    # bounds are about twice the largest.
    geometry = Geometry.HYPERBOLIC
    pa, pb, la, lb, fat = _admissible_triangles(
        geometry, np.random.default_rng(31 + disk), 600, disk)
    error = _placement_error(geometry, pa, pb, la, lb)
    assert error[fat].max() <= 1e-12
    assert error[~fat].max() <= 2e-7
    _check_raises_where_scalar_raises(geometry, pa[:20], pb[:20], la[:20],
                                      lb[:20])


def _hyperbolic_triangles(frame, rmax=0.7):
    """``(pa, pb, la, lb, thin)``: 600 admissible triangles over random
    bases, in the disk or with ``pa`` at 0 and ``pb`` on the positive real
    axis; a fifth of them thin, ``lb`` within 1e-7 of ``|la - d|``."""
    rng = np.random.default_rng(13 + frame)
    n = 600
    if frame:  # pa at 0, pb on the positive real axis
        pa = np.zeros(n, dtype=np.complex128)
        pb = rng.uniform(0.05, 0.9, n) + 0j
    else:
        pa = _random_disk_points(rng, n, rmax)
        pb = _random_disk_points(rng, n, rmax)
    d = meshes.hyperbolic_distance(pa, pb)
    la = rng.uniform(0.2, 1.5, n) * d
    lb = rng.uniform(np.abs(la - d) * 1.05, (la + d) * 0.95)
    thin = rng.uniform(0.0, 1.0, n) < 0.2
    lb[thin] = np.abs(la[thin] - d[thin]) * (1.0 + 1e-7)
    return pa, pb, la, lb, thin


@pytest.mark.parametrize("frame, rmax", [(False, 0.7), (True, 0.7),
                                         (False, 0.95)],
                         ids=["disk", "base-frame", "disk-0.95"])
def test_place_third_hyperbolic_matches_circles(frame, rmax):
    # The corner-angle apex, moved onto the base by the layout's motion,
    # lands where the intersection of the two circles in the disk (with its
    # cosine-law fallback) does: to 1e-12 on fat triangles (measured at
    # most 2.0e-13, at rmax 0.95); on thin ones, which are ill-conditioned
    # under both constructions, both keep the two distances to 1e-7
    # (measured 3.0e-10).
    pa, pb, la, lb, thin = _hyperbolic_triangles(frame, rmax)
    new = _layout_apex(Geometry.HYPERBOLIC, pa, pb, la, lb)
    old = np.array([sequential.place_third_hyperbolic_circles(*args)
                    for args in zip(pa, pb, la.tolist(), lb.tolist())])
    assert np.abs(new - old)[~thin].max() <= 1e-12
    for p in (new[thin], old[thin]):
        np.testing.assert_allclose(meshes.hyperbolic_distance(pa[thin], p),
                                   la[thin], rtol=1e-7)
        np.testing.assert_allclose(meshes.hyperbolic_distance(pb[thin], p),
                                   lb[thin], rtol=1e-7)


# ---------------------------------------------------------------------------
# Edge flip


_QUAD = build_mesh(np.array([[0, 1, 2], [1, 0, 3]]))
_DIAG = meshes.edge_id(_QUAD, 0, 1)


def _quad_roles():
    """Vertices ``i, j, k, l`` of ``_QUAD`` as :func:`edge_swap` names them:
    the diagonal is ``(i, j)``, between the faces ``(i, j, k)`` and
    ``(j, i, l)``."""
    h1, h2 = (int(h) for h in _QUAD.edge_halfedges[_DIAG])
    return (int(meshes.origin(_QUAD, h1)), int(meshes.dest(_QUAD, h1)),
            int(meshes.dest(_QUAD, _QUAD.next(h1))),
            int(meshes.dest(_QUAD, _QUAD.next(h2))))


def _random_quad_sides(rng, geometry, n):
    """Rows ``(d, l_ik, l_jk, l_il, l_jl)`` of quads whose two faces are
    admissible, from thin to fat, convex and not."""
    if geometry == Geometry.EUCLIDEAN:
        d = np.ones(n)
    else:
        d = rng.uniform(0.05, 3.0, n)
    sides = [d]
    for _ in range(2):
        a = rng.uniform(0.1, 2.0, n) * d
        b = rng.uniform(np.abs(a - d) * 1.001, (a + d) * 0.999)
        sides += [a, b]
    return np.column_stack(sides)


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
def test_edge_flip_matches_quad_layout(geometry):
    # The corner-angle rule takes the decision the layout of the quad took,
    # away from the convexity boundary (angle sums within 1e-6 of pi are
    # skipped), and measures the same new diagonal.
    i, j, k, l = _quad_roles()
    rng = np.random.default_rng(17)
    flips = rejections = 0
    for d, l_ik, l_jk, l_il, l_jl in _random_quad_sides(rng, geometry, 1500):
        th_i = np.arccos(cosine_law(geometry, np.array([l_jk, l_jl]), d,
                                    np.array([l_ik, l_il]))).sum()
        th_j = np.arccos(cosine_law(geometry, np.array([l_ik, l_il]), d,
                                    np.array([l_jk, l_jl]))).sum()
        if min(abs(th_i - np.pi), abs(th_j - np.pi)) < 1e-6:
            continue
        lengths = np.empty(_QUAD.n_edges)
        for pair, x in (((i, j), d), ((i, k), l_ik), ((j, k), l_jk),
                        ((i, l), l_il), ((j, l), l_jl)):
            lengths[meshes.edge_id(_QUAD, *pair)] = x
        try:
            old = sequential.swapped_diagonal(geometry, _DIAG, d, l_ik, l_jk,
                                              l_il, l_jl)
        except SurgeryError:
            old = None
        try:
            mesh, metric = meshes.flipped(
                _QUAD, DiscreteMetric(geometry, lengths), [(i, j)])
        except SurgeryError as exc:
            assert old is None, (d, l_ik, l_jk, l_il, l_jl)
            assert str(exc) == f"non-convex quad at edge ({i}, {j})"
            rejections += 1
            continue
        assert old is not None, (d, l_ik, l_jk, l_il, l_jl)
        new = metric.lengths[meshes.edge_id(mesh, k, l)]
        assert abs(new - old) <= 1e-12 * old
        flips += 1
    assert flips > 300 and rejections > 300


# ---------------------------------------------------------------------------
# Text I/O


def _same_load(path, faulty_line=None):
    """The load of ``path``, checked against the line-by-line reader. That
    reader took a texture index below 1 as no texture; ``faulty_line`` names
    the line of such an index, which is an error now."""
    new = test_mesh.load_outcome(load_obj, path)
    old = test_mesh.load_outcome(sequential.load_obj, path)
    if faulty_line is not None:
        old = (ParseError,
               f"{path}:{faulty_line}: texture index must be >= 1")
    assert new == old
    return new


_TEXTURE_ID_FAULTS = dict(test_mesh.OBJ_TEXTURE_ID_FAULTS)


@pytest.mark.parametrize("text", [text for text, _ in test_mesh.OBJ_ACCEPTS]
                         + [text for text, _ in test_mesh.OBJ_REJECTS])
def test_obj_reader_table_matches_sequential(tmp_path, text):
    path = tmp_path / "m.obj"
    path.write_bytes(text.encode())
    _same_load(path, _TEXTURE_ID_FAULTS.get(text))


@pytest.fixture(scope="module")
def analyze_inputs(tmp_path_factory):
    """The ``analyze-16k`` benchmark inputs of seed 7: 16,641-vertex OBJs
    with and without ``vt`` records, and a mu JSON."""
    out = tmp_path_factory.mktemp("analyze")
    _perfbench_gen().gen_analyze(out, np.random.default_rng(7), smoke=False)
    return out


@pytest.fixture(scope="module")
def analyze_objs(analyze_inputs):
    """The ``analyze-16k`` OBJs of seed 7, plus ``src.obj`` with every
    space a tab and with ``a/t/n`` face corners (one ``vn`` record)."""
    src = (analyze_inputs / "src.obj").read_text()
    (analyze_inputs / "src_tab.obj").write_text(src.replace(" ", "\t"))
    first_face = src.index("\nf ")
    (analyze_inputs / "src_vtn.obj").write_text(
        src[:first_face] + "\nvn 0 0 1"
        + re.sub(r"(\d)(?=[ \n])", r"\1/1", src[first_face:]))
    return {name: analyze_inputs / name for name in (
        "src.obj", "dst.obj", "plain.obj", "src_tab.obj", "src_vtn.obj")}


@pytest.mark.parametrize("name", ["src.obj", "dst.obj", "plain.obj",
                                  "src_tab.obj", "src_vtn.obj"])
def test_obj_reader_matches_sequential_at_scale(analyze_objs, name):
    positions, faces, uv = _same_load(analyze_objs[name])
    assert len(faces) == 2 * 128 * 128 * 3 * 8  # bytes of 32,768 faces
    assert (uv is None) == (name == "plain.obj")


def test_obj_reader_reads_benchmark_shapes_in_bulk(analyze_objs, tmp_path,
                                                   monkeypatch):
    # Every kind of these files, and of src.obj with CRLF line ends, has one
    # of the shapes NumPy's text reader converts; none may fall back to the
    # row-by-row converters.
    def row_by_row(*args):
        raise AssertionError("converted row by row")
    monkeypatch.setattr(mesh_module, "_float_rows", row_by_row)
    monkeypatch.setattr(mesh_module, "_corners", row_by_row)
    crlf = tmp_path / "src_crlf.obj"
    crlf.write_bytes(analyze_objs["src.obj"].read_bytes().replace(b"\n",
                                                                  b"\r\n"))
    for path in [*analyze_objs.values(), crlf]:
        load_obj(path)
    # a vertex weight is off the bulk shapes
    path = tmp_path / "weight.obj"
    path.write_text("v 0 0 0 1\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(AssertionError, match="row by row"):
        load_obj(path)


# Whitespace runs str.split() splits on, and tokens that Python's float and
# int read alike in other spellings.
_SEPARATORS = [" ", "  ", "\t", " \t", "\x0c", "\x0b", "\xa0", "\u3000",
               "\x1f"]
_FLOATS = ["0", "-0", "1", "0.5", ".5", "5.", "+2.5", "1e-3", "1E2", "1_0.5",
           "-7.25e+1", "3.141592653589793", "nan", "-inf", "Infinity"]
_JUNK = ["# comment", "vn 0 0 1", "o part", "g group", "s off", "usemtl m",
         "", "   ", "v1 2 3", "f1 2 3", "vp 0.5", "l 1 2"]
_FAULTS = ["v", "v 1 2", "vt", "vt 1", "vt x 0", "v 0 zero 0", "f", "f 1 2",
           "f 1 2 3 4", "f 1 2 3 # c", "f 0 1 2", "f -1 2 3", "f 1 2 x",
           "f 1 2 99999999999999999999", "f 1/99999999999999999999 2 3",
           "f /1 2 3", "f 1/x 2 3", "f 1 2 999", "f 1/9999 2/1 3/1",
           "v 1 2 3 4", "v 0 0 0 # note", "vt 0 0 0", "f 1/ 2/ 3/",
           "f 1//1 2//1 3//1", "f 1/1/1 2/1/1 3/1/1"]
# Records one space apart that are near the shapes converted in bulk.
_NEAR_BULK = ["f 1/ 2/ 3/", "f 1/1 2/ 3/3", "f 1/1 2 3/3", "f 1 2/2 3",
              "f 1/1 2/2 3/3/3", "f 01/1 02/2 03/3", "f 1/1 2/2",
              "f 12345678901234567890/1 2/2 3/3", "f 1/1 2/2 3/3 4/4",
              "v 1  2 3", "v 1 2 3 ", "v 1 2", "v 1e400 2 3", "vt 1 2 ",
              "vt 1", "vt 1 2 3"]


def _index(rng, k, plain):
    """A spelling of the OBJ index ``k`` that ``int`` reads as ``k``."""
    form = 4 if plain else rng.integers(5)
    if form == 0:
        return f"+{k}"
    if form == 1:
        return f"{k:04d}"
    if form == 2 and k >= 10:
        return f"{str(k)[0]}_{str(k)[1:]}"
    return str(k)


def _corner(rng, form, v, t, plain):
    if form == "mixed":
        form = ["v", "v/t", "v//n", "v/t/n", "v/"][rng.integers(5)]
    v, t = _index(rng, v, plain), _index(rng, t, plain)
    return {"v": v, "v/t": f"{v}/{t}", "v//n": f"{v}//1",
            "v/t/n": f"{v}/{t}/1", "v/": f"{v}/"}[form]


def _perturbed_obj(rng):
    """A 4 x 4 grid OBJ with random line ends, record order, skipped
    records and, in half the cases, one fault. Half the cases also take
    random separators and index spellings; the other half are one space
    apart with plain indices, the shape the reader converts in bulk."""
    mesh = meshes.grid_mesh(4, 4)
    plain = rng.random() < 0.5
    def sep():
        return " " if plain else _SEPARATORS[rng.integers(len(_SEPARATORS))]
    def record(key, fields):
        lead = sep() if not plain and rng.random() < 0.2 else ""
        tail = sep() if not plain and rng.random() < 0.2 else ""
        return lead + key + "".join(sep() + f for f in fields) + tail
    def number(x):
        if rng.random() < 0.3:
            return _FLOATS[rng.integers(len(_FLOATS))]
        return repr(float(x))
    vs = [record("v", [number(x) for x in p]) for p in mesh.positions]
    vts = [record("vt", [number(x) for x in p[:2]]) for p in mesh.positions]
    forms = ["v", "v/t", "v/t"] if plain else ["v", "v/t", "v//n", "v/t/n"]
    form = (forms + ["mixed"])[rng.integers(len(forms) + 1)]
    fs = [record("f", [_corner(rng, form, v + 1, v + 1, plain)
                       for v in face])
          for face in mesh.faces]
    if form == "v" and rng.random() < 0.5:
        vts = []
    # interleave the kinds, keeping each kind's order
    kinds = np.array([0] * len(vs) + [1] * len(vts) + [2] * len(fs))
    if rng.random() < 0.5:
        rng.shuffle(kinds)
    queues = [iter(vs), iter(vts), iter(fs)]
    lines = [next(queues[k]) for k in kinds]
    for _ in range(rng.integers(4)):
        lines.insert(rng.integers(len(lines) + 1),
                     _JUNK[rng.integers(len(_JUNK))])
    if rng.random() < 0.5:
        faults = _FAULTS + _NEAR_BULK * 2 if plain else _FAULTS
        fault = faults[rng.integers(len(faults))]
        lines.insert(rng.integers(len(lines) + 1), fault.replace(" ", sep()))
    end = ["\n", "\r\n", "\r"][rng.integers(3)]
    text = end.join(lines)
    return text + end if rng.random() < 0.8 else text


@pytest.mark.parametrize("seed", range(6))
def test_obj_reader_perturbations_match_sequential(tmp_path, seed):
    rng = np.random.default_rng(100 + seed)
    path = tmp_path / "m.obj"
    for _ in range(50):
        path.write_bytes(_perturbed_obj(rng).encode())
        _same_load(path)


# Corner forms of the generated faces: those read in bulk, then the others.
_BULK_FORMS = ["{v}", "{v}/{t}", "{v}/{t}/1"]
_CORNER_FORMS = _BULK_FORMS + ["{v}//1", "{v}/"]
_PLAIN_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map("%.17g".__mod__),
    st.floats(allow_nan=False, allow_infinity=False).map("%.9g".__mod__),
    st.integers(-9, 9).map(str))
_NUMBERS = st.one_of(_PLAIN_NUMBERS, st.sampled_from(_FLOATS))


@st.composite
def _obj_texts(draw):
    """OBJ texts over a fan of triangles: the kinds in blocks, in any block
    order, or interleaved; skipped records, blank and non-ASCII comment
    lines, faults and near-bulk records between them; in half the texts
    leading blanks, tabs and other separators; LF, CRLF or CR line ends;
    corners ``a``, ``a/t``, ``a//n``, ``a/t/n`` or ``a/``, one form or a
    mix; ``vt`` records for some vertices only; many number spellings."""
    n = draw(st.integers(3, 6))
    canonical = draw(st.booleans())
    numbers = _PLAIN_NUMBERS if canonical else _NUMBERS

    def sep():
        return " " if canonical else draw(st.sampled_from(_SEPARATORS))

    def record(key, fields):
        lead = "" if canonical or draw(st.integers(0, 9)) else sep()
        return lead + key + "".join(sep() + f for f in fields)

    vs = [record("v", [draw(numbers) for _ in range(3)]) for _ in range(n)]
    n_vt = draw(st.integers(0, n + 1))
    vts = [record("vt", [draw(numbers) for _ in range(2)])
           for _ in range(n_vt)]
    form = draw(st.sampled_from(_BULK_FORMS * 2 + _CORNER_FORMS[3:]
                                + ["mixed"]))
    fs = []
    for i in range(2, n):
        corners = []
        for v in (1, i, i + 1):
            f = draw(st.sampled_from(_CORNER_FORMS)) if form == "mixed" \
                else form
            corners.append(f.format(v=v, t=(v - 1) % max(n_vt, 1) + 1))
        fs.append(record("f", corners))
    # Canonical texts keep to LF ends and skipped records, so that most of
    # them read as blocks; the others take every fault and line end.
    extras = st.sampled_from(["# comment", "vn 0 0 1", "o part", ""])
    ends = st.just("\n")
    if not canonical:
        extras = st.sampled_from(_JUNK + ["# caf\u00e9 \u2014 \u00fcber"]
                                 + _FAULTS + _NEAR_BULK)
        ends = st.sampled_from(["\n", "\r\n", "\r"])
    if draw(st.integers(0, 3)):
        lines = []
        for block in draw(st.permutations([vs, vts, fs])):
            lines += draw(st.lists(extras, max_size=1)) + block
        lines += draw(st.lists(extras, max_size=1))
    else:
        lines = draw(st.permutations(vs + vts + fs))
    for _ in range(draw(st.integers(0, 1 if canonical else 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(extras))
    end = draw(ends)
    return end.join(lines) + (end if draw(st.booleans()) else "")


def _same_as_regex_reader(path):
    """The load of ``path``, checked against the regular-expression reader
    bit for bit, error messages included."""
    new = test_mesh.load_outcome(load_obj, path)
    assert new == test_mesh.load_outcome(sequential.regex_load_obj, path)
    return new


@given(text=_obj_texts())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_obj_reader_matches_regex_reader(tmp_path, text):
    path = tmp_path / "m.obj"
    path.write_bytes(text.encode())
    _same_as_regex_reader(path)


@pytest.mark.parametrize("data", [
    b"v 0 0 0\r\nv 1 0 0\r\nv 0 1 0\r\nf 1 2 \xff3\r\n",
    b"v 0 0 0\nv 1 0 0\nv 0 1 0\n# caf\xc3\xa9\nf 1 2 3\n\xe2\x82",
    b"\xef\xbb\xbfv 0 0 0\rv 1 0 0\rv 0 1 0\rf 1 2 3",
], ids=["crlf-bad-byte", "truncated-at-end", "bom-cr"])
def test_obj_reader_decodes_like_text_mode(tmp_path, data):
    # the rows route decodes the bytes it has read as text mode reads the
    # file: the same newlines, byte offset of a bad byte, and BOM
    path = tmp_path / "m.obj"
    path.write_bytes(data)
    _same_as_regex_reader(path)


@pytest.mark.parametrize("text", [
    "v 0\xa00 0\nv 1\t0 0\nv\u30000 1 0\nv 1 1 0\nvt 0 0\nvt\xa01 0\n"
    "vt 0\u30001\nf 1/1\xa02/2 3/3\nf\u30002 4 3\n",
    "v\t0 0 0\r\nv 1\u30000\xa00\r\nv 0 1 0\r\nv 1 1 0\r\nvt 0 0\r\n"
    "vt 1\t0\r\nvt 0 1\r\nf 1/1 2/2\t3/3\r\nf\xa02/2 4/1 3/3",
    "# café\nv 0 0 0\nv 1\t0 0\nvt 0 0\nv 0 1\x0b0\nf 1 2 3\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n# über é",
], ids=["nbsp-ideographic", "crlf-wide-last-line", "comment-only",
        "comment-at-end"])
def test_obj_reader_reads_wide_spaces_as_spaces(tmp_path, text):
    # only the lines with a non-ASCII byte pass through the Unicode
    # whitespace substitution; the reader still matches the regex reader,
    # which substituted over the whole text
    path = tmp_path / "m.obj"
    path.write_bytes(text.encode())
    assert not isinstance(_same_as_regex_reader(path)[0], type)


def _gen_obj(path, pos, faces, uv):
    """An OBJ as ``perfbench/gen.py`` writes it: every float by
    ``np.savetxt`` with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, pos, fmt="v %.17g %.17g %.17g")
        np.savetxt(fh, np.column_stack([uv.real, uv.imag]),
                   fmt="vt %.17g %.17g")
        np.savetxt(fh, np.repeat(faces + 1, 2, axis=1),
                   fmt="f %d/%d %d/%d %d/%d")


def test_obj_reader_reads_canonical_files_as_blocks(tmp_path, monkeypatch):
    # The files save_obj and the benchmark write, and a plain ``f a b c``
    # file, are read one slice and one np.loadtxt per record kind: none may
    # join scattered lines or convert row by row
    def off_block(*args):
        raise AssertionError("read off the blocks")
    for name in ("_float_rows", "_corners", "_join_lines"):
        monkeypatch.setattr(mesh_module, name, off_block)
    mesh = meshes.grid_mesh(17, 9, bump=0.3)
    uv = _uv(mesh, 71)
    save_obj(mesh, tmp_path / "save.obj", uv=uv)
    _gen_obj(tmp_path / "gen.obj", mesh.positions, mesh.faces, uv)
    plain = "# plain\nv 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 3 2 4"
    (tmp_path / "plain.obj").write_text(plain)
    # a tab after a key is read in bulk too
    (tmp_path / "tab.obj").write_text(plain.replace("v 1 1", "v\t1 1"))
    for name in ("save.obj", "gen.obj", "plain.obj", "tab.obj"):
        new = _same_as_regex_reader(tmp_path / name)
        assert isinstance(new[0], bytes), new
    # a vertex after the faces scatters the v lines, which are joined
    path = tmp_path / "scattered.obj"
    path.write_text(plain + "\nv 2 2 0")
    with pytest.raises(AssertionError, match="off the blocks"):
        load_obj(path)


def _uv(mesh, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=mesh.n_vertices) + 1j * rng.normal(
        size=mesh.n_vertices)


@pytest.mark.parametrize("build", [
    lambda: (meshes.tetrahedron(), None),
    lambda: (meshes.grid_mesh(9, 9), _uv(meshes.grid_mesh(9, 9), 31)),
    lambda: (build_mesh(meshes.grid_mesh(9, 9).faces),
             _uv(meshes.grid_mesh(9, 9), 32)),
    lambda: (meshes.grid_mesh(129, 129), _uv(meshes.grid_mesh(129, 129), 33)),
], ids=["tetra", "grid9-uv", "uv-only", "grid129-uv"])
def test_save_obj_matches_sequential(tmp_path, build):
    mesh, uv = build()
    save_obj(mesh, tmp_path / "new.obj", uv=uv)
    sequential.save_obj(mesh, tmp_path / "old.obj", uv=uv)
    new = (tmp_path / "new.obj").read_bytes()
    assert new == (tmp_path / "old.obj").read_bytes()
    assert (b"/" in new) == (uv is not None)


_VALUES = [0.0, -0.0, 1e-300, 5e-324, 1e16, 1.5e300, 0.1, 1 / 3,
           -2.5e-7, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("values", [
    [],
    [complex(a, b) for a in _VALUES for b in _VALUES],
    np.random.default_rng(21).normal(size=500)
    + 1j * np.random.default_rng(22).normal(size=500),
    np.arange(12.0),
], ids=["empty", "special-values", "random", "real"])
def test_text_writers_match_sequential(values):
    values = np.asarray(values)
    assert field_to_json(values) == sequential.field_to_json(values)
    rows = np.column_stack([values.real, values.imag, np.angle(values),
                            np.abs(values), values.real * 1e-9]) \
        if len(values) else np.empty((0, 5))
    assert csv_text(rows) == sequential.csv_text(rows)


def _field_read(read, text, n):
    try:
        return read(text, n).values.tobytes()
    except Exception as exc:
        return type(exc), str(exc)


# texts whose vertex ids are repeated or not JSON integers, or whose values
# are not JSON numbers -> the error
_BAD_IDS = {
    '{"mu": [{"i": 0, "re": 1, "im": 2}, {"i": 0, "re": 3, "im": 4}]}':
        "mu JSON names vertex 0 more than once",
    '{"mu": [{"i": "0", "re": "0.25", "im": true}]}':
        'malformed mu JSON: vertex index "0" is not an integer',
    '{"mu": [{"i": 1.9, "re": 0, "im": 0}, {"i": 0, "re": 0, "im": 0}]}':
        "malformed mu JSON: vertex index 1.9 is not an integer",
    '{"mu": [{"i": true, "re": 0, "im": 0}, {"i": 0, "re": 0, "im": 0}]}':
        "malformed mu JSON: vertex index true is not an integer",
    '{"mu": [{"i": "x", "re": 0}]}':
        'malformed mu JSON: vertex index "x" is not an integer',
    '{"mu": [{"i": 0, "re": [1], "im": 0}]}':
        "malformed mu JSON: re value [1] is not a number",
    '{"mu": [{"i": 0, "re": "0.25", "im": false}]}':
        'malformed mu JSON: re value "0.25" is not a number',
    '{"mu": [{"i": 0, "re": 0.25, "im": false}]}':
        "malformed mu JSON: im value false is not a number",
}


@pytest.mark.parametrize("text", [
    '{"mu": []}',
    '{"mu": [{"i": 1, "re": 0.5, "im": 0}, {"i": 0, "re": -0.0, "im": 1}]}',
    '{"mu": [{"i": 0, "re": 1, "im": 2}, {"i": 0, "re": 3, "im": 4}]}',
    '{"mu": [{"i": 0, "re": NaN, "im": -Infinity}]}',
    '{"mu": [{"i": "0", "re": "0.25", "im": true}]}',
    '{"mu": [{"i": 1.9, "re": 0, "im": 0}, {"i": 0, "re": 0, "im": 0}]}',
    '{"mu": [{"i": true, "re": 0, "im": 0}, {"i": 0, "re": 0, "im": 0}]}',
    '{"mu": [{"i": 0, "re": 0, "im": 0}, {"i": 2, "re": 0, "im": 0}]}',
    '{"mu": [{"i": -1, "re": 0, "im": 0}]}',
    '{"mu": [{"i": 99999999999999999999, "re": 0, "im": 0}]}',
    '{"mu": [{"i": 0, "im": 0}, {"re": 0}]}',
    '{"mu": [{"i": "x", "re": 0}]}',
    '{"mu": [{"i": 0, "re": [1], "im": 0}]}',
    '{"mu": [{"i": 0, "re": "0.25", "im": false}]}',
    '{"mu": [{"i": 0, "re": 0.25, "im": false}]}',
    '{"mu": {"i": 0}}',
    '{"mu": 3}',
    '{"nu": []}',
    '[1, 2]',
    '{"mu": [',
    '',
], ids=lambda text: text[:40])
@pytest.mark.parametrize("n", [None, 0, 1, 2])
def test_field_reader_matches_sequential(text, n):
    new = _field_read(field_from_json, text, n)
    old = _field_read(sequential.field_from_json, text, n)
    if isinstance(old, tuple) and old[0] is OverflowError:
        # an index past 2**63 without n_vertices: the dict code failed to
        # build range(n); the array code reports the missing indices
        old = (BeltramiError,
               "mu JSON must contain every vertex index exactly once")
    if text in _BAD_IDS:
        # the dict code kept the last value of a repeated id, truncated
        # the others to integers (or failed to) and read strings and
        # booleans as values; they are rejected now
        old = (BeltramiError, _BAD_IDS[text])
    assert new == old


def test_mu_json_round_trip_matches_sequential(analyze_inputs):
    text = (analyze_inputs / "g.json").read_text()
    new = field_from_json(text, 129 * 129)
    assert new.values.tobytes() == \
        sequential.field_from_json(text, 129 * 129).values.tobytes()
    assert field_to_json(new) == sequential.field_to_json(new)


# ---------------------------------------------------------------------------
# The Newton loop


def _swapped_grid():
    # a grid whose every seventh edge the kernel flipped, where it could
    mesh = meshes.grid_mesh(9, 9)
    faces, twin = mesh.faces.copy(), mesh.twin.copy()
    metric = induced_metric(mesh)
    lengths = metric.lengths[mesh.edge_of_halfedge]
    flips = 0
    for h in mesh.edge_halfedges[::7, 0].tolist():
        try:
            edge_swap(faces, twin, lengths, metric.geometry, h)
        except SurgeryError:
            continue
        flips += 1
    assert flips > 10
    return build_mesh(faces, mesh.positions)


_HESSIAN_MESHES = {
    "grid9": lambda: meshes.grid_mesh(9, 9),
    "grid33-bump": lambda: meshes.grid_mesh(33, 33, bump=0.3),
    "torus": meshes.embedded_torus,
    "genus2": meshes.genus2_mesh,
    "annulus": lambda: meshes.annulus_mesh(9, 3),
    "swapped": _swapped_grid,
}


@pytest.mark.parametrize("geometry", list(Geometry), ids=lambda g: g.value)
@pytest.mark.parametrize("name", list(_HESSIAN_MESHES))
def test_hessian_matches_face_by_face_sum(name, geometry):
    mesh = _HESSIAN_MESHES[name]()
    metric = meshes.random_admissible_metric(
        mesh, np.random.default_rng(61), geometry)
    H = assemble_hessian(mesh, metric)
    want = sequential.dense_hessian(mesh, metric)
    assert (H - H.T).nnz == 0
    assert np.abs(H.toarray() - want).max() <= 1e-12 * np.abs(want).max()


def _perturbed_rectangle():
    mesh = meshes.grid_mesh(9, 9)
    x = mesh.positions[:, 0]
    u0 = 0.5 * np.sin(3 * np.pi * x)
    metric = DiscreteMetric(
        Geometry.EUCLIDEAN,
        deform_metric(mesh, induced_metric(mesh), u0 - u0.mean()).lengths)
    target = np.zeros(mesh.n_vertices)
    target[list(meshes.grid_corners(9, 9))] = np.pi / 2
    return mesh, metric, target, Geometry.EUCLIDEAN


def _stretched_cone():
    mesh = meshes.grid_mesh(7, 5, w=30.0, h=1.0)
    target = np.zeros(mesh.n_vertices)
    target[2 * 7 + 3] = -5.5
    for c in meshes.grid_corners(7, 5):
        target[c] = np.pi / 2 + 5.5 / 4
    return mesh, induced_metric(mesh), target, Geometry.EUCLIDEAN


def _moved_corner():
    # 3 of curvature moved from the centre vertex to corner 0: no step
    # length along the Newton directions stays admissible
    mesh = meshes.grid_mesh(9, 9)
    target = np.zeros(mesh.n_vertices)
    target[list(meshes.grid_corners(9, 9))] = np.pi / 2
    target[40] -= 3.0
    target[0] += 3.0
    return mesh, induced_metric(mesh), target, Geometry.EUCLIDEAN


def _genus2_hyperbolic():
    mesh = meshes.genus2_mesh()
    return (mesh, induced_metric(mesh), np.zeros(mesh.n_vertices),
            Geometry.HYPERBOLIC)


_INADMISSIBLE = "deformed metric inadmissible at every step length"

# (build, options, error message or None, iterations, swaps, halvings,
# factorizations, cg_iterations), one row per exit of the loop
_FLOW_EXITS = {
    "converged": (_perturbed_rectangle, {}, None, 4, 0, 0, 1, 6),
    "budget": (_perturbed_rectangle, {"max_iterations": 1},
               "flow did not converge within 1 iterations (residual "
               "2.217e-01)", 1, 0, 0, 1, 0),
    "surgery": (_stretched_cone, {"max_iterations": 120}, None,
                12, 2, 19, 2, 104),
    "line-search": (_stretched_cone,
                    {"max_iterations": 120, "surgery": False},
                    "line search failed to reduce the curvature residual",
                    13, 0, 85, 2, 144),
    "surgery-budget": (_stretched_cone, {"max_iterations": 3},
                       "flow did not converge within 3 iterations (residual "
                       "1.932e+00)", 3, 0, 5, 1, 14),
    "inadmissible": (_moved_corner, {}, _INADMISSIBLE, 12, 0, 129, 2, 110),
    "inadmissible-no-surgery": (
        _moved_corner, {"surgery": False},
        _INADMISSIBLE + " and surgery is disabled", 12, 0, 129, 2, 110),
    "hyperbolic": (_genus2_hyperbolic, {}, None, 6, 0, 1, 1, 21),
}


def _flow_outcome(flow, mesh, metric, target, geometry, options):
    try:
        res = flow(mesh, metric, target, geometry, options)
    except FlowError as exc:
        return str(exc), exc.report, None
    return None, res.report, res


@pytest.mark.parametrize("case", list(_FLOW_EXITS))
def test_flow_loop_matches_sequential(case):
    build, opts, message, *counts = _FLOW_EXITS[case]
    mesh, metric, target, geometry = build()
    options = FlowOptions(**opts)
    got, rep, res = _flow_outcome(run_flow, mesh, metric, target, geometry,
                                  options)
    want, ref, expect = _flow_outcome(sequential.run_flow, mesh, metric,
                                      target, geometry, options)
    assert got == want == message
    for name in ("residuals", "iterations", "swaps", "halvings",
                 "factorizations", "cg_iterations", "converged"):
        assert getattr(rep, name) == getattr(ref, name), name
    assert rep.u.tobytes() == ref.u.tobytes()
    assert [rep.iterations, rep.swaps, rep.halvings, rep.factorizations,
            rep.cg_iterations] == counts
    assert rep.converged == (message is None)
    if message is None:
        assert res.u.tobytes() == expect.u.tobytes()
        assert np.array_equal(res.mesh.faces, expect.mesh.faces)
        for got, want in ((res.metric, expect.metric),
                          (res.base, expect.base)):
            assert got.geometry == want.geometry
            assert got.lengths.tobytes() == want.lengths.tobytes()


def _grid9_random_field():
    mesh = meshes.grid_mesh(9, 9)
    rng = np.random.default_rng(77)
    mu = rng.normal(size=mesh.n_vertices) + 1j * rng.normal(
        size=mesh.n_vertices)
    z = mesh.positions[:, 0] + 1j * mesh.positions[:, 1]
    return mesh, z, 0.9 * mu / np.abs(mu).max()


def _bumped_grid_smooth_field(swapped):
    # the conformal chart of the 33x33 bumped grid and the smooth field at
    # k = 0.85, on the input mesh or on the mesh its pre-flow swaps leave
    mesh = meshes.grid_mesh(33, 33, bump=0.3)
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(33, 33))
    z = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset).param.coords
    x, y = mesh.positions[:, 0], mesh.positions[:, 1]
    mu = 0.85 * np.sin(np.pi * x) * np.sin(np.pi * y) * np.exp(2j * np.pi * x)
    if swapped:
        mesh, _, swaps = _aux_metric_with_surgery(
            mesh, induced_metric(mesh), z[mesh.faces], mu)
        assert swaps > 30
    return mesh, z, mu


@pytest.mark.parametrize("build", [
    _grid9_random_field,
    lambda: _bumped_grid_smooth_field(False),
    lambda: _bumped_grid_smooth_field(True),
], ids=["grid9-random", "grid33-bump", "grid33-bump-swapped"])
def test_auxiliary_metric_matches_per_vertex_formula(build):
    mesh, z, mu = build()
    metric = induced_metric(mesh)
    got = auxiliary_metric(metric, z[mesh.faces], mu, mesh)
    want = sequential.auxiliary_metric(metric, z, mu, mesh)
    assert got.lengths.tobytes() == want.lengths.tobytes()


@pytest.mark.parametrize("mesh, kind, geometry, k", [
    (meshes.annulus_mesh(9, 3), PresetKind.ANNULUS, Geometry.EUCLIDEAN, 0.5),
    (meshes.embedded_torus(24, 16), PresetKind.CLOSED_FLAT,
     Geometry.EUCLIDEAN, 0.5),
    (meshes.genus2_mesh(), PresetKind.CLOSED_HYPERBOLIC, Geometry.HYPERBOLIC,
     0.3),
], ids=["annulus", "torus", "genus2"])
def test_auxiliary_metric_averages_cut_copies(mesh, kind, geometry, k):
    # dividing the scaled copy by its length again, as the old pull-back
    # did, rounds; the per-halfedge mean does not
    metric = induced_metric(mesh)
    base = cmd_flatten(mesh, geometry, TargetPreset(kind),
                       metric=metric.retagged(geometry))
    mu = np.full(mesh.n_vertices, k * np.exp(0.25j * np.pi))
    got = auxiliary_metric(metric, base.param.coords[base.mesh.faces], mu,
                           mesh)
    want = sequential.cut_auxiliary_metric(metric, base, mu, mesh)
    np.testing.assert_allclose(got.lengths, want.lengths, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# The pre-flow surgery loop


def _chart(mesh, kind, corners=()):
    """The corner chart ``cmd_qcmap`` reads the auxiliary metric off: the
    ``mu = 0`` layout at every face corner, on the cut mesh for a cut
    layout."""
    base = cmd_flatten(mesh, Geometry.EUCLIDEAN, TargetPreset(kind, corners))
    chart = mesh if base.cut is None else base.mesh
    return base.param.coords[chart.faces]


@functools.lru_cache(maxsize=None)
def _bumped_grid_chart():
    mesh = meshes.grid_mesh(33, 33, bump=0.3)
    return mesh, _chart(mesh, PresetKind.RECTANGLE,
                        meshes.grid_corners(33, 33))


def _sweep_case(kind, k):
    # the fields of the qcmap-sweep benchmark at phase 0
    mesh, corners = _bumped_grid_chart()
    x, y = mesh.positions[:, 0], mesh.positions[:, 1]
    if kind == "const":
        mu = np.full(mesh.n_vertices, k * np.exp(0.25j * np.pi))
    else:
        mu = k * np.sin(np.pi * x) * np.sin(np.pi * y) * np.exp(2j * np.pi * x)
    return mesh, corners, mu


def _cut_chart_case(mesh, kind, k):
    return (mesh, _chart(mesh, kind),
            np.full(mesh.n_vertices, k * np.exp(0.25j * np.pi)))


def _zero_dz_case():
    # a unit square split along (0, 1); the chart stretches that diagonal
    # and puts the other two vertices on one point, so the auxiliary
    # metric breaks both faces at the diagonal and the flip, admissible
    # under the base metric, gives a diagonal with dz = 0
    pos = np.array([[0.0, 0, 0], [1, 1, 0], [0, 1, 0], [1, 0, 0]])
    mesh = build_mesh(np.array([[0, 1, 2], [1, 0, 3]]), pos)
    z = np.array([-0.05, 0.05, 1j, 1j])
    return mesh, z[mesh.faces], np.full(4, 0.9)


_SURGERY_CASES = {
    **{f"{kind}-{k:.2f}": (lambda kind=kind, k=k: _sweep_case(kind, k))
       for kind in ("const", "smooth") for k in (0.5, 0.7, 0.85, 0.95)},
    "annulus-seams": lambda: _cut_chart_case(meshes.annulus_mesh(9, 3),
                                             PresetKind.ANNULUS, 0.7),
    "torus-0.85": lambda: _cut_chart_case(meshes.embedded_torus(24, 16),
                                          PresetKind.CLOSED_FLAT, 0.85),
    "zero-dz": _zero_dz_case,
}


def _surgery_outcome(surgery, mesh, corners, mu):
    try:
        result = surgery(mesh, induced_metric(mesh), corners, mu)
    except BeltramiError as exc:
        return (type(exc), str(exc), exc.faces), None
    return None, result


@pytest.mark.parametrize("case", list(_SURGERY_CASES))
def test_pre_flow_surgery_matches_sequential(case):
    mesh, corners, mu = _SURGERY_CASES[case]()
    got, result = _surgery_outcome(_aux_metric_with_surgery, mesh, corners,
                                   mu)
    want, expect = _surgery_outcome(sequential._aux_metric_with_surgery, mesh,
                                    corners, mu)
    assert got == want
    if case == "zero-dz":
        # the diagonal is named by its id in the mesh built after the loop
        assert want == (BeltramiError, "zero dz on edges [1]", [])
    if want is None:
        (new_mesh, aux, swaps), (ref_mesh, ref_aux, ref_swaps) = result, expect
        assert swaps == ref_swaps
        for name in _MESH_FIELDS:
            np.testing.assert_array_equal(getattr(new_mesh, name),
                                          getattr(ref_mesh, name),
                                          err_msg=name)
        assert aux.lengths.tobytes() == ref_aux.lengths.tobytes()
