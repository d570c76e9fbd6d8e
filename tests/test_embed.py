import numpy as np
import pytest

import meshes
from qcflow.errors import LayoutError, MetricError
from meshes import embedded_edge_lengths, hyperbolic_distance
from qcflow.embed import (
    TorusPeriods,
    _lattice_basis,
    layout_euclidean,
    layout_hyperbolic,
    torus_periods,
)
from qcflow.flow import run_flow
from qcflow.geom import mobius_from_origin, poincare_circle_to_euclidean
from qcflow.mesh import build_mesh, cut_to_disk
from qcflow.metric import (
    DiscreteMetric,
    Geometry,
    deform_metric,
    induced_metric,
)

HYP_EQUILATERAL_ANGLE = 0.9187978721780274  # see test_metric.py


def test_layout_single_345_triangle():
    mesh = build_mesh(np.array([[0, 1, 2]]),
                      np.array([[0.0, 0, 0], [3, 0, 0], [3, 4, 0]]))
    metric = induced_metric(mesh)
    param = layout_euclidean(mesh, metric)
    z = param.coords
    assert z[0] == 0.0
    assert z[1] == pytest.approx(3.0)
    assert z[1].imag == 0.0
    assert z[2].imag > 0.0
    assert abs(z[1] - z[2]) == pytest.approx(4.0)
    assert abs(z[0] - z[2]) == pytest.approx(5.0)


def test_layout_grid_is_congruent(grid9):
    metric = induced_metric(grid9)
    param = layout_euclidean(grid9, metric)
    z = param.coords
    # all pairwise distances reproduce the planar grid's distances
    plane = grid9.positions[:, 0] + 1j * grid9.positions[:, 1]
    got = np.abs(z[:, None] - z[None, :])
    want = np.abs(plane[:, None] - plane[None, :])
    assert np.abs(got - want).max() < 1e-9


def test_layout_rejects_cone_point():
    # five equilateral triangles around a hub: angle sum 5 pi / 3 != 2 pi
    n = 5
    faces = [[0, 1 + i, 1 + (i + 1) % n] for i in range(n)]
    mesh = build_mesh(np.asarray(faces))
    metric = DiscreteMetric(Geometry.EUCLIDEAN, np.ones(mesh.n_edges))
    with pytest.raises(LayoutError, match="^interior vertex 0 ") as exc:
        layout_euclidean(mesh, metric)
    assert exc.value.faces == list(range(n))


def test_layout_rejects_non_disk(tetra):
    metric = induced_metric(tetra)
    with pytest.raises(LayoutError):
        layout_euclidean(tetra, metric)


def test_layout_rejects_disconnected_mesh(torus16):
    # A triangle (face 0) beside a flat torus: chi = 1 + 0 and one boundary
    # loop pass the disk check, the torus is flat, and the breadth-first
    # walk from face 0 never leaves the triangle.
    torus, torus_metric = torus16
    faces = np.vstack([[[0, 1, 2]], torus.faces + 3])
    mesh = build_mesh(faces)
    metric = DiscreteMetric(Geometry.EUCLIDEAN,
                            np.concatenate([np.ones(3), torus_metric.lengths]))
    with pytest.raises(LayoutError, match="^mesh is not face-connected$"):
        layout_euclidean(mesh, metric)


def test_layout_geometry_mismatch(grid9):
    metric = induced_metric(grid9)
    with pytest.raises(MetricError):
        layout_hyperbolic(grid9, metric)
    with pytest.raises(MetricError):
        layout_euclidean(grid9, metric.retagged(Geometry.HYPERBOLIC))


def test_layout_rejects_inadmissible_metric(grid9):
    # edge 40 longer than the two other sides of its faces together: the
    # layout names those faces before it measures any angle
    lengths = induced_metric(grid9).lengths.copy()
    lengths[40] = 10.0
    h = grid9.edge_halfedges[40]
    with pytest.raises(MetricError, match="^metric inadmissible on faces") as err:
        layout_euclidean(grid9, DiscreteMetric(Geometry.EUCLIDEAN, lengths))
    assert err.value.faces == sorted(h[h >= 0] // 3)


def test_layout_deterministic(grid9):
    metric = induced_metric(grid9)
    a = layout_euclidean(grid9, metric).coords
    b = layout_euclidean(grid9, metric).coords
    assert np.array_equal(a, b)


def test_layout_orientation_positive(grid9):
    metric = induced_metric(grid9)
    z = layout_euclidean(grid9, metric).coords
    tri = z[grid9.faces]
    area2 = np.imag(np.conj(tri[:, 1] - tri[:, 0]) * (tri[:, 2] - tri[:, 0]))
    assert area2.min() > 0.0


def test_hyperbolic_triangle_seeding():
    mesh = build_mesh(np.array([[0, 1, 2]]))
    metric = DiscreteMetric(Geometry.HYPERBOLIC, np.ones(3))
    param = layout_hyperbolic(mesh, metric)
    z = param.coords
    assert z[0] == 0.0
    assert z[1] == pytest.approx(np.tanh(0.5))
    assert z[2] == pytest.approx(np.tanh(0.5) * np.exp(1j * HYP_EQUILATERAL_ANGLE))
    lengths = embedded_edge_lengths(mesh, param)
    assert lengths == pytest.approx(1.0)


def test_hyperbolic_layout_orientation():
    mesh = build_mesh(np.array([[0, 1, 2]]))
    metric = DiscreteMetric(Geometry.HYPERBOLIC, np.ones(3))
    z = layout_hyperbolic(mesh, metric).coords
    area2 = np.imag(np.conj(z[1] - z[0]) * (z[2] - z[0]))
    assert area2 > 0.0


def test_poincare_circle_at_origin():
    c, r = 0.0 + 0j, 0.8
    C, R = poincare_circle_to_euclidean(c, r)
    assert C == 0.0
    assert R == pytest.approx(np.tanh(r / 2))


def test_poincare_circle_small_radius_limit():
    c = 0.5 + 0.2j
    for r in (1e-4, 1e-6):
        C, R = poincare_circle_to_euclidean(c, r)
        assert abs(C - c) < 1e-3 * abs(c)
        assert R < 1e-3
    C, R = poincare_circle_to_euclidean(c, 1e-8)
    assert abs(C - c) == pytest.approx(0.0, abs=1e-7)


def test_poincare_circle_against_mobius_transport():
    c, r = 0.5 + 0j, 1.0
    C, R = poincare_circle_to_euclidean(c, r)
    # transport 100 points at hyperbolic distance r from c and fit the circle
    phis = np.linspace(0.0, 2 * np.pi, 100, endpoint=False)
    pts = mobius_from_origin(c, np.tanh(r / 2) * np.exp(1j * phis))
    assert np.abs(hyperbolic_distance(np.full_like(pts, c), pts)
                  - r).max() < 1e-12
    center_fit = pts.mean()  # not the circle center in general; fit properly
    # algebraic circle fit through three spread points is exact
    p0, p1, p2 = pts[0], pts[33], pts[66]
    ax, ay = p0.real, p0.imag
    bx, by = p1.real, p1.imag
    cx, cy = p2.real, p2.imag
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    fit_center = ux + 1j * uy
    fit_radius = abs(p0 - fit_center)
    assert abs(fit_center - C) < 1e-9
    assert abs(fit_radius - R) < 1e-9
    assert np.abs(np.abs(pts - C) - R).max() < 1e-12


def test_torus_periods_square(torus16):
    mesh, metric = torus16
    res = run_flow(mesh, metric, np.zeros(mesh.n_vertices), Geometry.EUCLIDEAN)
    disk = cut_to_disk(res.mesh)
    lay = layout_euclidean(
        disk, DiscreteMetric(Geometry.EUCLIDEAN, meshes.push_edge(
            res.mesh, disk, res.metric.lengths)))
    periods = torus_periods(res.mesh, disk, lay)
    assert abs(periods.za) == pytest.approx(1.0, abs=1e-6)
    assert abs(periods.zb) == pytest.approx(1.0, abs=1e-6)
    cosine = abs((np.conj(periods.za) * periods.zb).real)
    assert cosine < 1e-6


def test_torus_periods_2to1():
    mesh, metric = meshes.torus_grid(32, 16, w=2.0, h=1.0)
    res = run_flow(mesh, metric, np.zeros(mesh.n_vertices), Geometry.EUCLIDEAN)
    disk = cut_to_disk(res.mesh)
    lay = layout_euclidean(
        disk, DiscreteMetric(Geometry.EUCLIDEAN, meshes.push_edge(
            res.mesh, disk, res.metric.lengths)))
    periods = torus_periods(res.mesh, disk, lay)
    moduli = sorted([abs(periods.za), abs(periods.zb)])
    assert moduli[1] / moduli[0] == pytest.approx(2.0, abs=1e-6)


def test_torus_periods_rejects_sphere(tetra):
    # a sphere's cut graph is a slit, not two loops: after flattening the cut
    # disk, every slit translation is ~0 and period extraction must fail
    disk = cut_to_disk(tetra)
    metric = DiscreteMetric(Geometry.EUCLIDEAN, meshes.push_edge(
        tetra, disk, induced_metric(tetra).lengths))
    target = np.zeros(disk.n_vertices)
    loop = disk.boundary_loops[0]
    target[list(loop)] = 2 * np.pi / len(loop)
    res = run_flow(disk, metric, target, Geometry.EUCLIDEAN)
    lay = layout_euclidean(res.mesh, res.metric)
    with pytest.raises(LayoutError):
        torus_periods(tetra, disk, lay)


@pytest.mark.parametrize("translations, message", [
    ((1.0,), "expected two independent cut loops, found 1 distinct "
             "translations"),
    ((1.0, 1j, 5.0 + 3j), "three cut-loop translations are not "
                          "lattice-consistent"),
    ((1.0, 2.0), "cut-loop translations are linearly dependent"),
], ids=["one-loop", "not-lattice", "dependent"])
def test_torus_periods_rejects_translations(translations, message):
    # the per-cut-edge translations, one per edge, of a layout of diameter 1
    with pytest.raises(LayoutError, match=f"^{message}$"):
        _lattice_basis(np.array(translations, dtype=np.complex128), 1.0)


def test_torus_periods_names_the_faces_of_a_broken_seam(torus16):
    # the first cut edge's first copy moved at one end: no single
    # translation maps it onto the other copy, and the error names the two
    # faces of that edge
    mesh, metric = torus16
    res = run_flow(mesh, metric, np.zeros(mesh.n_vertices), Geometry.EUCLIDEAN)
    disk = cut_to_disk(res.mesh)
    z = layout_euclidean(
        disk, DiscreteMetric(Geometry.EUCLIDEAN, meshes.push_edge(
            res.mesh, disk, res.metric.lengths))).coords
    e, ((v, _), _) = next(iter(
        meshes.cut_record(res.mesh, disk).edge_copy_pairs.items()))
    z[v] += 0.01
    with pytest.raises(LayoutError, match=f"^cut edge {e}: copies differ by "
                       "a non-constant translation ") as exc:
        torus_periods(res.mesh, disk, z)
    assert exc.value.faces == (res.mesh.edge_halfedges[e] // 3).tolist()
    assert v in disk.faces[exc.value.faces]


def test_torus_periods_type_validates_independence():
    with pytest.raises(ValueError):
        TorusPeriods(1.0 + 0j, -2.0 + 0j)


def test_genus2_hyperbolic_layout_isometry(genus2):
    res = run_flow(genus2, induced_metric(genus2),
                   np.zeros(genus2.n_vertices), Geometry.HYPERBOLIC)
    disk = cut_to_disk(res.mesh)
    metric = DiscreteMetric(Geometry.HYPERBOLIC,
                            meshes.push_edge(res.mesh, disk,
                                             res.metric.lengths))
    param = layout_hyperbolic(disk, metric)
    lengths = embedded_edge_lengths(disk, param)
    rel = np.abs(lengths - metric.lengths) / metric.lengths
    assert rel.max() < 1e-7
    assert np.abs(param.coords).max() < 1.0


def test_layout_isometry_under_conformal_refit(grid9):
    # flow to the rectangle target from a perturbed metric, then check the
    # fundamental layout contract on the result
    base = induced_metric(grid9)
    x = grid9.positions[:, 0]
    u0 = 0.3 * np.sin(np.pi * x)
    u0 -= u0.mean()
    metric = DiscreteMetric(Geometry.EUCLIDEAN,
                            deform_metric(grid9, base, u0).lengths)
    target = np.zeros(grid9.n_vertices)
    for c in meshes.grid_corners(9, 9):
        target[c] = np.pi / 2
    res = run_flow(grid9, metric, target, Geometry.EUCLIDEAN)
    param = layout_euclidean(res.mesh, res.metric)
    lengths = embedded_edge_lengths(res.mesh, param)
    rel = np.abs(lengths - res.metric.lengths) / res.metric.lengths
    assert rel.max() < 1e-7


def test_genus2_layout_orientation_and_disk(genus2):
    res = run_flow(genus2, induced_metric(genus2),
                   np.zeros(genus2.n_vertices), Geometry.HYPERBOLIC)
    disk = cut_to_disk(res.mesh)
    metric = DiscreteMetric(Geometry.HYPERBOLIC,
                            meshes.push_edge(res.mesh, disk,
                                             res.metric.lengths))
    z = layout_hyperbolic(disk, metric).coords
    tri = z[disk.faces]
    # orientation of the vertex triple (the geodesic and chord triangles
    # share it)
    area2 = np.imag(np.conj(tri[:, 1] - tri[:, 0]) * (tri[:, 2] - tri[:, 0]))
    assert area2.min() > 0.0


def test_hyperbolic_strip_escapes_the_unit_disk():
    # Strips of equilateral faces with hyperbolic sides 2 have no interior
    # vertex, so they are admissible and flat; their far end runs towards
    # the boundary, which float64 Poincare coordinates resolve only to
    # about 1e-16. Twenty columns still fit; at thirty the far vertices
    # round to |tau| = 1 (or to NaN past a frame there), and the layout
    # names the faces around them: vertices 25-29, 56 and 57, in face 48
    # and the faces of the last four quads.
    def strip(n):
        mesh = meshes.grid_mesh(n, 2)
        return mesh, DiscreteMetric(Geometry.HYPERBOLIC,
                                    np.full(mesh.n_edges, 2.0))

    assert np.abs(layout_hyperbolic(*strip(20)).coords).max() < 1.0
    with pytest.raises(LayoutError, match=(
            r"^layout escaped the unit disk: 7 vertices at \|tau\| >= 1, "
            "where float64 runs out of resolution$")) as exc:
        layout_hyperbolic(*strip(30))
    assert exc.value.faces == [48, *range(50, 58)]


def test_torus_periods_json_contract(torus16):
    mesh, metric = torus16
    res = run_flow(mesh, metric, np.zeros(mesh.n_vertices), Geometry.EUCLIDEAN)
    disk = cut_to_disk(res.mesh)
    lay = layout_euclidean(
        disk, DiscreteMetric(Geometry.EUCLIDEAN, meshes.push_edge(
            res.mesh, disk, res.metric.lengths)))
    doc = torus_periods(res.mesh, disk, lay).to_json_dict()
    assert set(doc) == {"za", "zb"}
    assert len(doc["za"]) == 2 and len(doc["zb"]) == 2
