import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshes
from qcflow.errors import MetricError
from qcflow.mesh import build_mesh, euler_characteristic
from qcflow.metric import (
    DiscreteMetric,
    Geometry,
    check_triangle_inequality,
    corner_angles,
    cosine_law,
    deform_metric,
    face_areas,
    gauss_bonnet_residual,
    induced_metric,
    opposite_side,
    vertex_curvature,
)

# Frozen oracle values for the unit hyperbolic equilateral triangle.
# Angle: bisection on the Poincare-disk distance d(v1, v2(theta)) = 1 with
# v1 = tanh(1/2), v2 = tanh(1/2) e^{i theta} (independent of any cosine law).
# Area: polar quadrature of the density 4/(1-r^2)^2 over the geodesic
# triangle; both at 1e-13 accuracy.
HYP_EQUILATERAL_ANGLE = 0.9187978721780274
HYP_EQUILATERAL_AREA = 0.385199037055711
# 2*asinh(4*sinh(1/2)) evaluated at 40 decimal digits.
HYP_DEFORM_LN2_L1 = 2.9614947410422731

TRIANGLE = build_mesh(np.array([[0, 1, 2]]))


def tri_metric(geometry, l12, l20, l01):
    """Metric on the one-triangle mesh; arguments are the lengths opposite
    vertices 0, 1, 2 (i.e. edges (1,2), (2,0), (0,1))."""
    lengths = np.empty(3)
    lengths[TRIANGLE.edge_of_halfedge[0]] = l01
    lengths[TRIANGLE.edge_of_halfedge[1]] = l12
    lengths[TRIANGLE.edge_of_halfedge[2]] = l20
    return DiscreteMetric(geometry, lengths)


def test_euclidean_equilateral_angles():
    g = tri_metric(Geometry.EUCLIDEAN, 1, 1, 1)
    assert corner_angles(g, TRIANGLE) == pytest.approx(np.pi / 3)


def test_euclidean_pythagoras():
    g = tri_metric(Geometry.EUCLIDEAN, 5, 4, 3)
    angles = corner_angles(g, TRIANGLE)
    assert angles[0, 0] == pytest.approx(np.pi / 2)  # opposite the 5 side


def test_hyperbolic_equilateral_angle_matches_oracle():
    g = tri_metric(Geometry.HYPERBOLIC, 1, 1, 1)
    angles = corner_angles(g, TRIANGLE)
    assert angles == pytest.approx(HYP_EQUILATERAL_ANGLE, abs=1e-12)
    # the oracle cross-check: angle sum equals pi - area
    assert 3 * HYP_EQUILATERAL_ANGLE == pytest.approx(
        np.pi - HYP_EQUILATERAL_AREA, abs=1e-12)


def test_angle_errors_report_faces():
    g = tri_metric(Geometry.EUCLIDEAN, 3, 1, 1)
    with pytest.raises(MetricError) as err:
        corner_angles(g, TRIANGLE)
    assert err.value.faces == [0]


def test_vertex_curvature_flat_grid(grid9):
    g = induced_metric(grid9)
    K = vertex_curvature(corner_angles(g, grid9), grid9)
    interior = ~grid9.boundary_vertex_mask()
    assert np.abs(K[interior]).max() < 1e-12
    # boundary vertices on straight sides are flat; corners carry pi/2
    corners = meshes.grid_corners(9, 9)
    assert K[list(corners)] == pytest.approx(np.pi / 2)
    straight = [v for v in grid9.boundary_loops[0] if v not in corners]
    assert np.abs(K[straight]).max() < 1e-12


def test_vertex_curvature_cube_corner():
    # three right-angled corners around vertex 0
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    mesh = build_mesh(np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1]]), pos)
    K = vertex_curvature(corner_angles(induced_metric(mesh), mesh), mesh)
    assert K[0] == pytest.approx(2 * np.pi - 3 * np.pi / 2)


def test_face_area_345():
    g = tri_metric(Geometry.EUCLIDEAN, 5, 4, 3)
    assert face_areas(g, TRIANGLE) == pytest.approx(6.0)


def test_face_area_equilateral():
    g = tri_metric(Geometry.EUCLIDEAN, 1, 1, 1)
    assert face_areas(g, TRIANGLE) == pytest.approx(np.sqrt(3) / 4)


def test_face_area_rejects_broken_triangle():
    # Heron's product is negative only when a side exceeds the sum of the
    # other two; a flat triangle (3 = 1 + 2) has area 0
    square = meshes.grid_mesh(2, 2)
    lengths = np.full(square.n_edges, 1.0)
    lengths[square.edge_of_halfedge[3:6]] = (1.0, 1.0, 3.0)
    with pytest.raises(MetricError) as info:
        face_areas(DiscreteMetric(Geometry.EUCLIDEAN, lengths), square)
    assert type(info.value) is MetricError
    assert str(info.value) == "triangle inequality violated on faces [1]"
    assert info.value.faces == [1]
    assert face_areas(tri_metric(Geometry.EUCLIDEAN, 3, 1, 2), TRIANGLE) == 0


def test_face_area_hyperbolic_equilateral():
    g = tri_metric(Geometry.HYPERBOLIC, 1, 1, 1)
    assert face_areas(g, TRIANGLE) == pytest.approx(HYP_EQUILATERAL_AREA,
                                                    abs=1e-12)


def test_gauss_bonnet_tetrahedron(tetra):
    g = induced_metric(tetra)
    assert abs(gauss_bonnet_residual(g, tetra)) < 1e-9
    K = vertex_curvature(corner_angles(g, tetra), tetra)
    assert K.sum() == pytest.approx(4 * np.pi)


def test_gauss_bonnet_flat_grid(grid9):
    g = induced_metric(grid9)
    assert abs(gauss_bonnet_residual(g, grid9)) < 1e-9
    K = vertex_curvature(corner_angles(g, grid9), grid9)
    assert K.sum() == pytest.approx(2 * np.pi)


@pytest.mark.parametrize("geometry", [Geometry.EUCLIDEAN, Geometry.HYPERBOLIC])
@pytest.mark.parametrize("builder,seed", [
    (meshes.tetrahedron, 0),
    (lambda: meshes.subdivided_sphere(1), 1),
    (lambda: meshes.grid_mesh(7, 5), 2),
    (lambda: meshes.embedded_torus(8, 6), 3),
    (meshes.genus2_mesh, 4),
])
def test_gauss_bonnet_random_metrics(geometry, builder, seed):
    mesh = builder()
    rng = np.random.default_rng(seed)
    chi = euler_characteristic(mesh)
    for _ in range(5):
        metric = meshes.random_admissible_metric(mesh, rng, geometry)
        res = gauss_bonnet_residual(metric, mesh)
        assert abs(res) < 1e-9 * (1.0 + abs(2 * np.pi * chi))


def test_deform_identity(grid9):
    g = induced_metric(grid9)
    out = deform_metric(grid9, g, np.zeros(grid9.n_vertices))
    assert np.array_equal(out.lengths, g.lengths)
    gh = g.retagged(Geometry.HYPERBOLIC)
    out_h = deform_metric(grid9, gh, np.zeros(grid9.n_vertices))
    assert np.array_equal(out_h.lengths, gh.lengths)


def test_deform_euclidean_ln2():
    g = tri_metric(Geometry.EUCLIDEAN, 1, 1, 1)
    u = np.full(3, np.log(2.0))
    out = deform_metric(TRIANGLE, g, u)
    assert out.lengths == pytest.approx(4.0)


def test_deform_hyperbolic_ln2():
    g = tri_metric(Geometry.HYPERBOLIC, 1, 1, 1)
    u = np.full(3, np.log(2.0))
    out = deform_metric(TRIANGLE, g, u)
    assert out.lengths == pytest.approx(HYP_DEFORM_LN2_L1, abs=1e-12)


def test_deform_round_trip(grid9):
    g = induced_metric(grid9)
    rng = np.random.default_rng(11)
    u = rng.normal(0, 0.3, grid9.n_vertices)
    back = deform_metric(grid9, deform_metric(grid9, g, u), -u)
    rel = np.abs(back.lengths - g.lengths) / g.lengths
    assert rel.max() < 1e-12


def test_deform_overflow():
    g = tri_metric(Geometry.EUCLIDEAN, 1, 1, 1)
    with pytest.raises(MetricError):
        deform_metric(TRIANGLE, g, np.full(3, 400.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_deform_rejects_non_finite_factor(bad):
    g = tri_metric(Geometry.EUCLIDEAN, 1, 1, 1)
    with pytest.raises(MetricError) as info:
        deform_metric(TRIANGLE, g, np.array([0.0, bad, 0.0]))
    assert type(info.value) is MetricError
    assert str(info.value) == "conformal factor contains non-finite values"
    assert info.value.faces == []


def test_triangle_inequality_check():
    ok = tri_metric(Geometry.EUCLIDEAN, 1, 1, 1)
    assert check_triangle_inequality(ok, TRIANGLE) == []
    bad = DiscreteMetric(Geometry.EUCLIDEAN, np.array([1.0, 1.0, 3.0]))
    assert check_triangle_inequality(bad, TRIANGLE) == [0]
    degenerate = DiscreteMetric(Geometry.EUCLIDEAN, np.array([1.0, 1.0, 2.0]))
    assert check_triangle_inequality(degenerate, TRIANGLE) == [0]


def test_metric_rejects_nonpositive():
    with pytest.raises(MetricError):
        DiscreteMetric(Geometry.EUCLIDEAN, np.array([1.0, 0.0, 1.0]))
    with pytest.raises(MetricError):
        DiscreteMetric(Geometry.EUCLIDEAN, np.array([1.0, np.inf, 1.0]))


def test_metric_rejects_2d_lengths():
    with pytest.raises(MetricError) as err:
        DiscreteMetric(Geometry.EUCLIDEAN, np.ones((3, 1)))
    assert err.type is MetricError
    assert str(err.value) == "lengths must be a 1-d array over edge ids"


@st.composite
def triangle_lengths(draw):
    a = draw(st.floats(0.1, 3.0))
    b = draw(st.floats(0.1, 3.0))
    lo = abs(a - b) * 1.02 + 1e-3
    hi = (a + b) * 0.98
    c = draw(st.floats(min(lo, hi), hi))
    return a, b, c


@given(triangle_lengths())
@settings(max_examples=200, deadline=None)
def test_euclidean_angle_sum_is_pi(lengths):
    g = tri_metric(Geometry.EUCLIDEAN, *lengths)
    angles = corner_angles(g, TRIANGLE)
    assert abs(angles.sum() - np.pi) < 1e-12


@given(triangle_lengths())
@settings(max_examples=200, deadline=None)
def test_hyperbolic_angle_sum_below_pi(lengths):
    g = tri_metric(Geometry.HYPERBOLIC, *lengths)
    angles = corner_angles(g, TRIANGLE)
    assert angles.sum() < np.pi
    assert (angles > 0).all()


@given(triangle_lengths(), st.permutations([0, 1, 2]))
@settings(max_examples=100, deadline=None)
def test_corner_angles_relabelling_symmetry(lengths, perm):
    g = tri_metric(Geometry.EUCLIDEAN, *lengths)
    angles = corner_angles(g, TRIANGLE)
    # relabel the face: angles follow their vertices
    rolled = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    if tuple(perm) in rolled:  # only cyclic relabellings preserve orientation
        mesh2 = build_mesh(np.array([perm]))
        lengths2 = np.empty(3)
        for s in range(3):
            a, b = perm[s], perm[(s + 1) % 3]
            edge = {frozenset((0, 1)): lengths[2], frozenset((1, 2)): lengths[0],
                    frozenset((2, 0)): lengths[1]}[frozenset((a, b))]
            lengths2[mesh2.edge_of_halfedge[s]] = edge
        g2 = DiscreteMetric(Geometry.EUCLIDEAN, lengths2)
        angles2 = corner_angles(g2, mesh2)
        for s in range(3):
            assert angles2[0, s] == pytest.approx(angles[0, perm[s]], abs=1e-12)


def test_gauss_bonnet_on_cut_genus2_hyperbolic(genus2):
    # a hyperbolic metric obtained by a coarse flow stays Gauss-Bonnet
    # consistent after cutting the surface open
    from qcflow.flow import FlowOptions, run_flow
    from qcflow.mesh import cut_to_disk
    res = run_flow(genus2, induced_metric(genus2),
                   np.zeros(genus2.n_vertices), Geometry.HYPERBOLIC,
                   FlowOptions(eps=1e-3))
    disk, cut = cut_to_disk(res.mesh)
    metric = DiscreteMetric(Geometry.HYPERBOLIC,
                            cut.push_edge(res.metric.lengths))
    assert abs(gauss_bonnet_residual(metric, disk)) < 1e-9


def test_hyperbolic_cosine_law_on_slivers_matches_mpmath():
    # Slivers with one side a relative 1e-10 to 1e-6 longer than the
    # difference of the other two, whose angles are close to 0 and pi: the
    # cosh form of the numerator loses the ones that cancel and was off by
    # 1.2e-8 rad here. What is left is the rounding of the cosine, which
    # arccos scales by 1 / sin(angle): measured 1.3e-9.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    d = rng.uniform(0.05, 3.0, 400)
    la = rng.uniform(0.2, 1.5, 400) * d
    lb = np.abs(la - d) * (1.0 + 10.0 ** rng.uniform(-10.0, -6.0, 400))
    L = np.column_stack([d, la, lb])
    got = np.arccos(cosine_law(Geometry.HYPERBOLIC, L, np.roll(L, -1, axis=1),
                               np.roll(L, -2, axis=1)))
    ch, sh = mpmath.cosh, mpmath.sinh
    with mpmath.workdps(50):
        worst = max(
            abs(mpmath.acos((ch(b) * ch(c) - ch(a)) / (sh(b) * sh(c)))
                - angle)
            for row, angles in zip(L.tolist(), got.tolist())
            for s, angle in enumerate(angles)
            for a, b, c in [[mpmath.mpf(row[(s + k) % 3]) for k in range(3)]])
    assert worst < 3e-9


def test_hyperbolic_opposite_side_on_small_faces_matches_mpmath():
    # Small faces with thin corners: the arccosh of the cosh products loses
    # the ones that cancel and was off by a relative 1.1e-7 here; the
    # half-length form keeps it to rounding (measured 3.2e-16).
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    b, c = rng.uniform(0.001, 0.05, (2, 300))
    angle = 10.0 ** rng.uniform(-6.0, -1.0, 300)
    got = opposite_side(Geometry.HYPERBOLIC, b, c, angle)
    ch, sh = mpmath.cosh, mpmath.sinh
    with mpmath.workdps(50):
        worst = max(
            abs(x / mpmath.acosh(ch(y) * ch(z) - sh(y) * sh(z) * mpmath.cos(t))
                - 1)
            for x, *row in zip(got.tolist(), b.tolist(), c.tolist(),
                               angle.tolist())
            for y, z, t in [map(mpmath.mpf, row)])
    assert worst < 1e-15


@pytest.mark.parametrize("x", ["nan", "inf", "1e200"])
def test_induced_metric_names_faces_of_non_finite_edges(x):
    # vertex 4 (0-based) is in face 2 only; a length past the float range
    # is as non-finite as a NaN or infinite position
    pos = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                    [float(x), 0, 0]])
    mesh = build_mesh(np.array([[0, 1, 2], [0, 2, 3], [1, 4, 2]]), pos)
    with np.errstate(all="raise"), pytest.raises(
            MetricError, match=r"^non-finite edges \[\d+, \d+\]$") as err:
        induced_metric(mesh)
    assert err.value.faces == [2]
