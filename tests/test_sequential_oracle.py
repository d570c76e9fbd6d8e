"""The array-built layout, cut and placement code against the sequential
loops it replaced (``sequential.py``): the arithmetic is unchanged, so every
result must be equal bit for bit."""

import numpy as np
import pytest

import meshes
import sequential
from qcflow.embed import layout_euclidean, layout_hyperbolic
from qcflow.errors import QcflowError
from qcflow.flow import run_flow
from qcflow.geom import (
    apex_over_base,
    hyperbolic_distance,
    mobius_from_origin,
    mobius_to_origin,
    place_third_euclidean,
    place_third_hyperbolic,
    poincare_circle_to_euclidean,
)
from qcflow.mesh import cut_to_disk, slice_along_edges
from qcflow.metric import DiscreteMetric, Geometry, induced_metric
from qcflow.pipeline import (
    PresetKind,
    TargetPreset,
    _boundary_slit_path,
    cmd_flatten,
)


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
    return disk, DiscreteMetric(geometry, cut.push_edge(res.metric.lengths),
                                checked=True)


def _annulus_disk():
    out = cmd_flatten(meshes.annulus_mesh(9, 3), Geometry.EUCLIDEAN,
                      TargetPreset(PresetKind.ANNULUS))
    return out.mesh, DiscreteMetric(
        Geometry.EUCLIDEAN, out.cut.push_edge(out.flow.metric.lengths),
        checked=True)


def _torus_disk():
    mesh, metric = meshes.torus_grid(16, 16)
    return _closed_disk(mesh, metric, Geometry.EUCLIDEAN)


def _genus2_disk():
    mesh = meshes.genus2_mesh()
    return _closed_disk(mesh, induced_metric(mesh), Geometry.HYPERBOLIC)


@pytest.mark.parametrize("build", [
    lambda: (meshes.grid_mesh(9, 9), induced_metric(meshes.grid_mesh(9, 9))),
    lambda: _rectangle_flow(33, 0.3),
    _annulus_disk,
    _torus_disk,
    _genus2_disk,
], ids=["grid9", "grid33-bump", "annulus-slit", "torus-disk", "genus2-disk"])
def test_layout_matches_sequential(build):
    mesh, metric = build()
    if metric.geometry == Geometry.HYPERBOLIC:
        new, old = layout_hyperbolic, sequential.layout_hyperbolic
    else:
        new, old = layout_euclidean, sequential.layout_euclidean
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
    slit = _boundary_slit_path(mesh)
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
    assert bits(mobius_to_origin(c, z)) == bits(
        [sequential.mobius_to_origin(a, b) for a, b in zip(c, z)])
    assert bits(mobius_from_origin(c, z)) == bits(
        [sequential.mobius_from_origin(a, b) for a, b in zip(c, z)])
    center, radius = poincare_circle_to_euclidean(c, r)
    old = [sequential.poincare_circle_to_euclidean(a, b) for a, b in zip(c, r)]
    assert bits(center) == bits([o[0] for o in old])
    assert radius.tobytes() == np.array([o[1] for o in old]).tobytes()


def test_place_third_euclidean_matches_scalar():
    rng = np.random.default_rng(12)
    pa = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    pb = pa + rng.normal(size=1000) + 1j * rng.normal(size=1000)
    d = np.abs(pb - pa)
    la = rng.uniform(0.2, 2.0, 1000) * d
    lb = rng.uniform(np.abs(la - d) * 1.001, (la + d) * 0.999)
    old = [sequential.place_third_euclidean(*args)
           for args in zip(pa, pb, la.tolist(), lb.tolist())]
    assert bits(place_third_euclidean(pa, pb, la, lb)) == bits(old)
    # the first impossible element raises what the scalar code raises for it
    lb[[3, 7]] = la[[3, 7]] + d[[3, 7]] * 1.5
    with pytest.raises(QcflowError) as info:
        place_third_euclidean(pa, pb, la, lb)
    with pytest.raises(QcflowError) as scalar:
        sequential.place_third_euclidean(pa[3], pb[3], float(la[3]),
                                         float(lb[3]))
    assert str(info.value) == str(scalar.value)


def test_apex_matches_scalar_base_frame():
    # edge swaps and the layout seed place the apex over a base edge from 0
    # to d, where the scalar code divided Python complex numbers
    rng = np.random.default_rng(14)
    d = rng.uniform(0.01, 5.0, 1000)
    la = rng.uniform(0.2, 2.0, 1000) * d
    lb = rng.uniform(np.abs(la - d) * 1.001, (la + d) * 0.999)
    for args in zip(d.tolist(), la.tolist(), lb.tolist()):
        old = sequential.place_third_euclidean(0.0, args[0] + 0j, *args[1:])
        assert bits(complex(*apex_over_base(*args))) == bits(old)


@pytest.mark.parametrize("frame", [False, True], ids=["disk", "base-frame"])
def test_place_third_hyperbolic_matches_scalar(frame):
    rng = np.random.default_rng(13 + frame)
    n = 1000
    if frame:  # as in edge swaps: pa at 0, pb on the positive real axis
        pa = np.zeros(n, dtype=np.complex128)
        pb = rng.uniform(0.05, 0.9, n) + 0j
    else:
        pa = _random_disk_points(rng, n, 0.7)
        pb = _random_disk_points(rng, n, 0.7)
    d = hyperbolic_distance(pa, pb)
    la = rng.uniform(0.2, 1.5, n) * d
    lb = rng.uniform(np.abs(la - d) * 1.05, (la + d) * 0.95)
    # thin triangles take the cosine-law fallback
    thin = rng.uniform(0.0, 1.0, n) < 0.2
    lb[thin] = np.abs(la[thin] - d[thin]) * (1.0 + 1e-7)
    old = [sequential.place_third_hyperbolic(*args)
           for args in zip(pa, pb, la.tolist(), lb.tolist())]
    assert bits(place_third_hyperbolic(pa, pb, la, lb)) == bits(old)
    # Python scalars, as edge swaps pass them
    scalars = list(zip(pa[:50].tolist(), pb[:50].tolist(), la[:50].tolist(),
                       lb[:50].tolist()))
    assert bits([place_third_hyperbolic(*args) for args in scalars]) == \
        bits([sequential.place_third_hyperbolic(*args) for args in scalars])
