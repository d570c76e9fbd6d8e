import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import meshes
import qcflow.flow as flow_module
import qcflow.metric as metric_module
from qcflow.errors import FlowError, SolverError, SurgeryError, TopologyError
from qcflow.flow import (
    FlowOptions,
    angle_derivatives,
    assemble_hessian,
    edge_swap,
    longest_edges,
    newton_step,
    renumber,
    run_flow,
)
from qcflow.mesh import build_mesh
from qcflow.metric import (
    DiscreteMetric,
    Geometry,
    corner_angles,
    deform_metric,
    induced_metric,
    vertex_curvature,
)

TRIANGLE = build_mesh(np.array([[0, 1, 2]]))


def fd_jacobian_column(mesh, metric, direction, h=1e-6):
    """Central finite difference of the curvature map along ``direction``."""
    up = vertex_curvature(
        corner_angles(deform_metric(mesh, metric, h * direction), mesh), mesh)
    dn = vertex_curvature(
        corner_angles(deform_metric(mesh, metric, -h * direction), mesh), mesh)
    return (up - dn) / (2.0 * h)


# ---------------------------------------------------------------------------
# angle derivatives


def test_euclidean_equilateral_derivatives():
    g = DiscreteMetric(Geometry.EUCLIDEAN, np.ones(3))
    D = angle_derivatives(g, TRIANGLE)
    off = 1.0 / np.sqrt(3.0)
    for a in range(3):
        for b in range(3):
            expected = -2.0 * off if a == b else off
            assert D[0, a, b] == pytest.approx(expected, abs=1e-14)


def test_euclidean_derivative_rows_sum_to_zero():
    rng = np.random.default_rng(5)
    mesh = meshes.grid_mesh(6, 6)
    metric = meshes.random_admissible_metric(mesh, rng)
    D = angle_derivatives(metric, mesh)
    assert np.abs(D.sum(axis=2)).max() < 1e-12


@pytest.mark.parametrize("geometry", [Geometry.EUCLIDEAN, Geometry.HYPERBOLIC])
def test_single_triangle_derivatives_match_fd(geometry):
    base = DiscreteMetric(geometry, np.ones(3))
    D = angle_derivatives(base, TRIANGLE)
    h = 1e-6
    for b in range(3):
        e = np.zeros(3)
        e[b] = h
        up = corner_angles(deform_metric(TRIANGLE, base, e), TRIANGLE)
        dn = corner_angles(deform_metric(TRIANGLE, base, -e), TRIANGLE)
        fd = (up - dn)[0] / (2.0 * h)
        rel = np.abs(fd - D[0, :, b]) / np.maximum(np.abs(fd), 1e-12)
        assert rel.max() < 1e-5


# ---------------------------------------------------------------------------
# Hessian assembly


def _cotangent_weights_from_positions(mesh):
    """Independent cotangent-weight routine: angles straight from the 3D
    embedding, weight of edge (a, b) = sum of cot(opposite angle) over the
    incident faces."""
    pos = mesh.positions
    weights = np.zeros(mesh.n_edges)
    for f, (a, b, c) in enumerate(mesh.faces):
        for apex, (p, q) in ((c, (a, b)), (a, (b, c)), (b, (c, a))):
            u = pos[p] - pos[apex]
            v = pos[q] - pos[apex]
            cot = float(u @ v) / np.linalg.norm(np.cross(u, v))
            weights[mesh.edge_id(p, q)] += cot
    return weights


def test_hessian_offdiagonals_are_cotangent_weights(grid9):
    metric = induced_metric(grid9)
    H = assemble_hessian(grid9, metric).toarray()
    weights = _cotangent_weights_from_positions(grid9)
    for e, (a, b) in enumerate(grid9.edges):
        assert H[a, b] == pytest.approx(-weights[e], abs=1e-10)


def test_hessian_symmetric_exactly():
    rng = np.random.default_rng(17)
    mesh = meshes.subdivided_sphere(1)
    for geometry in (Geometry.EUCLIDEAN, Geometry.HYPERBOLIC):
        metric = meshes.random_admissible_metric(mesh, rng, geometry)
        H = assemble_hessian(mesh, metric)
        assert (H != H.T).nnz == 0


def test_euclidean_hessian_rows_sum_to_zero():
    rng = np.random.default_rng(23)
    mesh = meshes.grid_mesh(8, 6)
    for _ in range(5):
        metric = meshes.random_admissible_metric(mesh, rng)
        H = assemble_hessian(mesh, metric)
        rows = np.asarray(abs(H).sum(axis=1)).ravel()
        sums = np.asarray(H.sum(axis=1)).ravel()
        assert np.abs(sums).max() < 1e-10 * rows.max()


@pytest.mark.parametrize("geometry", [Geometry.EUCLIDEAN, Geometry.HYPERBOLIC])
def test_hessian_matches_fd_jacobian(geometry):
    rng = np.random.default_rng(29)
    mesh = meshes.subdivided_sphere(1)
    for _ in range(5):
        metric = meshes.random_admissible_metric(mesh, rng, geometry)
        H = assemble_hessian(mesh, metric)
        d = rng.normal(size=mesh.n_vertices)
        fd = fd_jacobian_column(mesh, metric, d)
        Hd = H @ d
        assert np.linalg.norm(fd - Hd) / np.linalg.norm(Hd) < 1e-5


def test_hyperbolic_hessian_positive_definite_small():
    rng = np.random.default_rng(31)
    for mesh in (TRIANGLE, meshes.grid_mesh(4, 4), meshes.tetrahedron()):
        for _ in range(5):
            if mesh is TRIANGLE:
                lengths = rng.uniform(0.5, 1.5, 3)
                while (lengths.max() >= lengths.sum() - lengths.max()):
                    lengths = rng.uniform(0.5, 1.5, 3)
                metric = DiscreteMetric(Geometry.HYPERBOLIC, lengths)
            else:
                metric = meshes.random_admissible_metric(
                    mesh, rng, Geometry.HYPERBOLIC)
            H = assemble_hessian(mesh, metric)
            eig = scipy.linalg.eigvalsh(H.toarray())
            assert eig.min() > 0.0


# ---------------------------------------------------------------------------
# newton_step


def test_newton_step_zero_residual(grid9):
    H = assemble_hessian(grid9, induced_metric(grid9))
    du, factor = newton_step(H, np.zeros(grid9.n_vertices), Geometry.EUCLIDEAN)
    assert not du.any()
    assert factor.lu is None and factor.factorizations == 0


def test_newton_step_zero_mean(grid9):
    rng = np.random.default_rng(37)
    H = assemble_hessian(grid9, induced_metric(grid9))
    for _ in range(5):
        b = rng.normal(size=grid9.n_vertices)
        du, _ = newton_step(H, b, Geometry.EUCLIDEAN)
        assert abs(du.sum()) < 1e-10 * max(1.0, np.abs(du).max())


def _random_laplacian(rng, n=50):
    # random Laplacian-like system: symmetric, zero row sums, PSD
    W = np.zeros((n, n))
    for _ in range(4 * n):
        i, j = rng.integers(0, n, 2)
        if i != j:
            w = rng.uniform(0.1, 2.0)
            W[i, j] += w
            W[j, i] += w
    for i in range(n):  # ring to keep it connected
        j = (i + 1) % n
        W[i, j] += 1.0
        W[j, i] += 1.0
    return np.diag(W.sum(axis=1)) - W


def _path_laplacian(n=6):
    # unit weights: elimination is exact and the last pivot is exactly zero
    # unless a vertex is pinned
    return (np.diag(np.r_[1.0, 2.0 * np.ones(n - 2), 1.0])
            - np.eye(n, k=1) - np.eye(n, k=-1))


def _torus_hessian():
    # closed surface: no boundary, so the pinned vertex is the only
    # regularisation of the constant kernel
    mesh = meshes.embedded_torus()
    return assemble_hessian(mesh, induced_metric(mesh)).toarray()


def test_newton_step_matches_dense_solve():
    rng = np.random.default_rng(41)
    for H in (_random_laplacian(rng), _torus_hessian(), _path_laplacian()):
        b = rng.normal(size=H.shape[0])
        b -= b.mean()
        x, _ = newton_step(sp.csr_matrix(H), b, Geometry.EUCLIDEAN)
        dense = np.linalg.lstsq(H, b, rcond=None)[0]
        dense -= dense.mean()
        assert np.abs(x - dense).max() < 1e-8 * max(1.0, np.abs(dense).max())


def test_newton_step_singular_system_raises():
    # two disconnected blocks: the kernel is two-dimensional, so pinning one
    # vertex leaves the other block singular. With a consistent b, rounding
    # often leaves a tiny nonzero pivot and LU returns a residual-free
    # solution with an arbitrary offset on the second block (seed 0); seed 1
    # hits an exactly zero pivot.
    b = np.concatenate([np.arange(10.0) - 4.5, 4.5 - np.arange(10.0)])
    for seed in range(4):
        block = _random_laplacian(np.random.default_rng(seed), 10)
        H = sp.csr_matrix(scipy.linalg.block_diag(block, block))
        with pytest.raises(SolverError, match="singular"):
            newton_step(H, b, Geometry.EUCLIDEAN)
        # the component check runs before a residual that projects to zero
        # returns, whenever the step would factor
        with pytest.raises(SolverError, match="2 connected components"):
            newton_step(H, np.full(20, 3.0), Geometry.EUCLIDEAN)


def test_newton_step_exactly_singular_raises():
    # factored whole, the path-graph Laplacian hits an exactly zero pivot
    H = sp.csr_matrix(_path_laplacian())
    with pytest.raises(SolverError, match="exactly singular"):
        newton_step(H, np.arange(6.0), Geometry.HYPERBOLIC)


def test_newton_step_hyperbolic_matches_dense(grid9):
    rng = np.random.default_rng(43)
    metric = meshes.random_admissible_metric(grid9, rng, Geometry.HYPERBOLIC)
    H = assemble_hessian(grid9, metric)
    b = rng.normal(size=grid9.n_vertices)
    x, _ = newton_step(H, b, Geometry.HYPERBOLIC)
    dense = np.linalg.solve(H.toarray(), b)
    assert np.abs(x - dense).max() < 1e-8 * np.abs(dense).max()


@pytest.mark.parametrize("geometry", [Geometry.EUCLIDEAN, Geometry.HYPERBOLIC])
def test_newton_step_reuses_factor_nearby(grid9, geometry):
    # the LU at u = 0 preconditions CG at a nearby u: the same factor comes
    # back, and du solves the new system to the forcing tolerance
    rng = np.random.default_rng(53)
    if geometry == Geometry.EUCLIDEAN:
        metric = induced_metric(grid9)
    else:
        metric = meshes.random_admissible_metric(grid9, rng, geometry)
    b = rng.normal(size=grid9.n_vertices)
    _, factor = newton_step(assemble_hessian(grid9, metric), b, geometry)
    lu = factor.lu
    H = assemble_hessian(grid9, deform_metric(
        grid9, metric, 0.03 * rng.normal(size=grid9.n_vertices)))
    du, reused = newton_step(H, b, geometry, factor)
    assert reused is factor and factor.lu is lu
    assert factor.factorizations == 1
    assert 0 < factor.cg_iterations < flow_module._MAX_CG_ITERATIONS
    dense = np.linalg.lstsq(H.toarray(), b, rcond=None)[0]
    if geometry == Geometry.EUCLIDEAN:
        b -= b.mean()
        dense -= dense.mean()
    rtol = min(flow_module._FORCING_CAP, np.abs(b).max())
    assert np.linalg.norm(H @ du - b) <= rtol * np.linalg.norm(b)
    assert np.abs(du - dense).max() < rtol * np.abs(dense).max()


def test_newton_step_replaces_stale_factor(grid9):
    # a factor of an unrelated system of the same size (a random Laplacian,
    # pinned like the grid's) fails the CG budget and is replaced; the
    # direct solve then meets the dense bound
    rng = np.random.default_rng(59)
    n = grid9.n_vertices
    _, factor = newton_step(sp.csr_matrix(_random_laplacian(rng, n)),
                            rng.normal(size=n), Geometry.EUCLIDEAN)
    stale = factor.lu
    H = assemble_hessian(grid9, induced_metric(grid9))
    b = rng.normal(size=n)
    b -= b.mean()
    du, same = newton_step(H, b, Geometry.EUCLIDEAN, factor)
    assert same is factor and factor.lu is not stale
    assert factor.factorizations == 2
    assert factor.cg_iterations == flow_module._MAX_CG_ITERATIONS
    dense = np.linalg.lstsq(H.toarray(), b, rcond=None)[0]
    dense -= dense.mean()
    assert np.abs(du - dense).max() < 1e-8 * max(1.0, np.abs(dense).max())
    # a factor of the wrong size is replaced without a CG run
    _, small = newton_step(sp.csr_matrix(_path_laplacian()), np.arange(6.0),
                           Geometry.EUCLIDEAN)
    du2, _ = newton_step(H, b, Geometry.EUCLIDEAN, small)
    assert small.factorizations == 2 and small.cg_iterations == 0
    assert small.lu.shape == (n - 1, n - 1)
    assert np.array_equal(du2, du)


class _TrackedLU:
    # a weak-referenceable stand-in for SuperLU, which is not
    def __init__(self, lu):
        self.shape, self.solve = lu.shape, lu.solve


def test_refresh_releases_stale_factor_first(grid33, monkeypatch):
    # with a forcing cap that two CG iterations cannot meet, every step
    # after the first finds its factor stale; when splu builds the next LU,
    # no earlier one is alive, in the flow or in a direct newton_step call
    built = []
    splu = flow_module.spla.splu

    def tracked_splu(*args, **kwargs):
        assert all(ref() is None for ref in built)
        lu = _TrackedLU(splu(*args, **kwargs))
        built.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(flow_module.spla, "splu", tracked_splu)
    monkeypatch.setattr(flow_module, "_FORCING_CAP", 1e-30)
    monkeypatch.setattr(flow_module, "_MAX_CG_ITERATIONS", 2)
    metric = induced_metric(grid33)
    x, y = grid33.positions[:, 0], grid33.positions[:, 1]
    u0 = 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y)
    perturbed = DiscreteMetric(
        Geometry.EUCLIDEAN, deform_metric(grid33, metric, u0 - u0.mean()).lengths)
    target = rectangle_target(grid33, meshes.grid_corners(33, 33))
    rep = run_flow(grid33, perturbed, target, Geometry.EUCLIDEAN).report
    assert rep.factorizations == len(built) == rep.iterations >= 2
    assert rep.cg_iterations == (len(built) - 1) * 2
    built.clear()
    H = assemble_hessian(grid33, metric)
    b = target - vertex_curvature(corner_angles(metric, grid33), grid33)
    _, factor = newton_step(H, b, Geometry.EUCLIDEAN)
    newton_step(H, b, Geometry.EUCLIDEAN, factor)
    assert factor.factorizations == len(built) == 2


# ---------------------------------------------------------------------------
# run_flow


def _record_calls(monkeypatch, owner, name, events):
    """Wrap ``owner.name`` to append ``name`` to ``events`` after every call
    that returns."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        events.append(name)
        return result

    monkeypatch.setattr(owner, name, wrapper)


def rectangle_target(mesh, corners):
    K = np.zeros(mesh.n_vertices)
    for c in corners:
        K[c] = np.pi / 2
    return K


def test_flow_already_converged(grid9):
    metric = induced_metric(grid9)
    target = rectangle_target(grid9, meshes.grid_corners(9, 9))
    res = run_flow(grid9, metric, target, Geometry.EUCLIDEAN)
    assert res.report.iterations == 0
    assert res.report.converged
    assert len(res.report.residuals) == 1
    assert not res.u.any()


def test_flow_converges_from_perturbation(grid33):
    metric = induced_metric(grid33)
    x, y = grid33.positions[:, 0], grid33.positions[:, 1]
    u0 = 0.6 * np.sin(2 * np.pi * x) * np.sin(np.pi * y) + 0.35 * np.cos(np.pi * x)
    u0 -= u0.mean()
    perturbed = DiscreteMetric(
        Geometry.EUCLIDEAN,
        deform_metric(grid33, metric, u0).lengths)
    target = rectangle_target(grid33, meshes.grid_corners(33, 33))
    res = run_flow(grid33, perturbed, target, Geometry.EUCLIDEAN)
    rep = res.report
    assert rep.converged
    assert rep.iterations <= 20
    assert rep.residuals[-1] < 1e-8
    assert len(rep.residuals) == rep.iterations + 1
    # damped Newton: the residual never increases across accepted iterations
    assert all(b <= a for a, b in zip(rep.residuals, rep.residuals[1:]))
    # the flow undoes the conformal perturbation (up to a constant)
    recovered = res.u + u0
    assert np.abs(recovered - recovered.mean()).max() < 1e-6


def test_flow_factors_once_per_mesh(grid33, monkeypatch):
    # later Newton steps on the unchanged mesh reuse the first LU
    calls = []
    _record_calls(monkeypatch, flow_module.spla, "splu", calls)
    metric = induced_metric(grid33)
    x, y = grid33.positions[:, 0], grid33.positions[:, 1]
    u0 = 0.6 * np.sin(2 * np.pi * x) * np.sin(np.pi * y) + 0.35 * np.cos(np.pi * x)
    perturbed = DiscreteMetric(
        Geometry.EUCLIDEAN, deform_metric(grid33, metric, u0 - u0.mean()).lengths)
    target = rectangle_target(grid33, meshes.grid_corners(33, 33))
    rep = run_flow(grid33, perturbed, target, Geometry.EUCLIDEAN).report
    assert rep.converged and rep.iterations >= 3
    assert len(calls) == rep.factorizations == 1
    assert rep.cg_iterations > 0


def test_flow_zero_mean_on_closed_mesh():
    mesh, metric = meshes.torus_grid(8, 8)
    rng = np.random.default_rng(47)
    perturbed = meshes.random_admissible_metric(mesh, rng, base=metric,
                                                amplitude=0.1)
    res = run_flow(mesh, perturbed, np.zeros(mesh.n_vertices),
                   Geometry.EUCLIDEAN)
    assert res.report.converged
    assert abs(res.u.sum()) < 1e-8


def test_flow_rejects_gauss_bonnet_violation(grid9):
    metric = induced_metric(grid9)
    bad = np.zeros(grid9.n_vertices)
    bad[0] = 1.0  # sum != 2 pi chi
    with pytest.raises(FlowError):
        run_flow(grid9, metric, bad, Geometry.EUCLIDEAN)


def test_flow_nonconvergence_raises(grid9):
    metric = induced_metric(grid9)
    x = grid9.positions[:, 0]
    u0 = 0.5 * np.sin(3 * np.pi * x)
    perturbed = DiscreteMetric(
        Geometry.EUCLIDEAN,
        deform_metric(grid9, metric, u0 - u0.mean()).lengths)
    target = rectangle_target(grid9, meshes.grid_corners(9, 9))
    with pytest.raises(FlowError) as err:
        run_flow(grid9, perturbed, target, Geometry.EUCLIDEAN,
                 FlowOptions(max_iterations=1))
    assert err.value.report is not None
    assert not err.value.report.converged


def test_flow_hyperbolic_genus2(genus2):
    metric = induced_metric(genus2)
    res = run_flow(genus2, metric, np.zeros(genus2.n_vertices),
                   Geometry.HYPERBOLIC)
    assert res.report.converged
    assert res.metric.geometry == Geometry.HYPERBOLIC
    K = vertex_curvature(corner_angles(res.metric, res.mesh), res.mesh)
    assert np.abs(K).max() < 1e-8


def test_flow_with_surgery_on_stretched_grid():
    mesh = meshes.grid_mesh(7, 5, w=30.0, h=1.0)
    metric = induced_metric(mesh)
    target = np.zeros(mesh.n_vertices)
    target[2 * 7 + 3] = -5.5
    for c in meshes.grid_corners(7, 5):
        target[c] = np.pi / 2 + 5.5 / 4
    res = run_flow(mesh, metric, target, Geometry.EUCLIDEAN,
                   FlowOptions(max_iterations=120))
    assert res.report.converged
    assert res.report.swaps > 0
    # the returned mesh reflects the surgery and the metric satisfies the
    # target on it
    K = vertex_curvature(corner_angles(res.metric, res.mesh), res.mesh)
    assert np.abs(K - target).max() < 1e-8


def test_flow_refactors_after_surgery(monkeypatch):
    # a swap changes the sparsity pattern: the Newton step after it factors
    # afresh instead of reusing the old mesh's LU
    events = []
    for owner, name in ((flow_module.spla, "splu"),
                        (flow_module, "newton_step"),
                        (flow_module, "edge_swap")):
        _record_calls(monkeypatch, owner, name, events)
    mesh = meshes.grid_mesh(7, 5, w=30.0, h=1.0)
    target = np.zeros(mesh.n_vertices)
    target[2 * 7 + 3] = -5.5
    for c in meshes.grid_corners(7, 5):
        target[c] = np.pi / 2 + 5.5 / 4
    rep = run_flow(mesh, induced_metric(mesh), target, Geometry.EUCLIDEAN,
                   FlowOptions(max_iterations=120)).report
    assert rep.swaps > 0
    assert events.count("splu") == rep.factorizations >= 2
    last_swap = len(events) - 1 - events[::-1].index("edge_swap")
    after = events[last_swap + 1:]
    assert after[:2] == ["splu", "newton_step"]


def test_flow_result_metric_is_deformed_base_after_surgery():
    # FlowResult contract: with surgery, base and u live on the swapped mesh
    # and deform exactly to the returned metric
    mesh = meshes.grid_mesh(7, 5, w=30.0, h=1.0)
    metric = induced_metric(mesh)
    target = np.zeros(mesh.n_vertices)
    target[2 * 7 + 3] = -5.5
    for c in meshes.grid_corners(7, 5):
        target[c] = np.pi / 2 + 5.5 / 4
    res = run_flow(mesh, metric, target, Geometry.EUCLIDEAN,
                   FlowOptions(max_iterations=120))
    assert res.report.swaps > 0
    assert np.array_equal(deform_metric(res.mesh, res.base, res.u).lengths,
                          res.metric.lengths)


def test_flow_surgery_disabled_fails_on_stretched_grid():
    # without surgery the same problem degenerates: the exact Newton steps
    # leave the line search unable to reduce the residual
    mesh = meshes.grid_mesh(7, 5, w=30.0, h=1.0)
    metric = induced_metric(mesh)
    target = np.zeros(mesh.n_vertices)
    target[2 * 7 + 3] = -5.5
    for c in meshes.grid_corners(7, 5):
        target[c] = np.pi / 2 + 5.5 / 4
    with pytest.raises(FlowError):
        run_flow(mesh, metric, target, Geometry.EUCLIDEAN,
                 FlowOptions(max_iterations=120, surgery=False))


def stretched_cone():
    """The stretched grid with a cone at vertex 17 and the excess spread
    over its corners, whose flow needs in-flow edge swaps."""
    mesh = meshes.grid_mesh(7, 5, w=30.0, h=1.0)
    target = np.zeros(mesh.n_vertices)
    target[2 * 7 + 3] = -5.5
    for c in meshes.grid_corners(7, 5):
        target[c] = np.pi / 2 + 5.5 / 4
    return mesh, target


@pytest.mark.parametrize("case", ["rectangle-33", "stretched-cone"])
def test_flow_checks_triangle_inequality_once(monkeypatch, case):
    # the flow's own check judges only the initial metric; every later
    # metric is judged by the MetricError of corner_angles
    if case == "rectangle-33":
        mesh = meshes.grid_mesh(33, 33, bump=0.3)
        target = rectangle_target(mesh, meshes.grid_corners(33, 33))
    else:
        mesh, target = stretched_cone()
    calls = []
    _record_calls(monkeypatch, flow_module, "check_triangle_inequality",
                  calls)
    rep = run_flow(mesh, induced_metric(mesh), target, Geometry.EUCLIDEAN,
                   FlowOptions(max_iterations=120)).report
    assert rep.converged
    assert (rep.swaps > 0) == (case == "stretched-cone")
    assert len(calls) == 1


def test_flow_halves_steps_the_cosine_guard_rejects(monkeypatch):
    # a trial whose corner angles fail the cosine guard is inadmissible
    # like one that breaks a triangle inequality: the step is halved, and
    # a flow that cannot finish raises FlowError with its report
    monkeypatch.setattr(metric_module, "_COS_GUARD", -1e-4)
    mesh, target = stretched_cone()
    with pytest.raises(FlowError) as err:
        run_flow(mesh, induced_metric(mesh), target, Geometry.EUCLIDEAN,
                 FlowOptions(max_iterations=120))
    assert err.value.report is not None


def test_flow_reports_inadmissible_metric_after_surgery(monkeypatch):
    # the metric an in-flow swap leaves behind is judged like a trial: when
    # the cosine guard rejects it, the flow ends with FlowError and its
    # report, not a bare MetricError
    monkeypatch.setattr(metric_module, "_COS_GUARD", -1e-3)
    mesh, target = stretched_cone()
    with pytest.raises(FlowError, match="after surgery") as err:
        run_flow(mesh, induced_metric(mesh), target, Geometry.EUCLIDEAN,
                 FlowOptions(max_iterations=120))
    assert err.value.report is not None
    assert err.value.report.swaps > 0
    assert not err.value.report.converged


def test_flow_report_json_contract(grid9):
    metric = induced_metric(grid9)
    target = rectangle_target(grid9, meshes.grid_corners(9, 9))
    res = run_flow(grid9, metric, target, Geometry.EUCLIDEAN)
    doc = res.report.to_json_dict()
    assert set(doc) == {"iterations", "residuals", "swaps", "factorizations",
                        "converged"}
    assert doc["iterations"] == 0
    assert doc["converged"] is True


# ---------------------------------------------------------------------------
# edge_swap


def square_two_triangles(w=1.0, h=1.0):
    pos = np.array([[0.0, 0, 0], [w, 0, 0], [w, h, 0], [0, h, 0]])
    faces = np.array([[0, 2, 3], [2, 0, 1]])  # diagonal 0-2
    return build_mesh(faces, pos)


def test_edge_swap_unit_square():
    mesh = square_two_triangles()
    metric = induced_metric(mesh)
    diag = mesh.edge_id(0, 2)
    new_mesh, new_metric = edge_swap(mesh, metric, diag)
    e = new_mesh.edge_id(1, 3)
    assert e >= 0
    assert new_metric.lengths[e] == pytest.approx(np.sqrt(2.0))
    assert new_mesh.edge_id(0, 2) == -1


def test_edge_swap_2x1_quad():
    # quad (0,0),(2,0),(2,1),(0,1) with diagonal (0,0)-(2,1):
    # the opposite diagonal (2,0)-(0,1) has length sqrt(5)
    mesh = square_two_triangles(w=2.0, h=1.0)
    metric = induced_metric(mesh)
    new_mesh, new_metric = edge_swap(mesh, metric, mesh.edge_id(0, 2))
    e = new_mesh.edge_id(1, 3)
    assert new_metric.lengths[e] == pytest.approx(np.sqrt(5.0))


def test_edge_swap_hyperbolic_symmetric():
    mesh = square_two_triangles()
    lengths = np.full(mesh.n_edges, 0.8)
    diag = mesh.edge_id(0, 2)
    lengths[diag] = 1.1
    metric = DiscreteMetric(Geometry.HYPERBOLIC, lengths)
    new_mesh, new_metric = edge_swap(mesh, metric, diag)
    e = new_mesh.edge_id(1, 3)
    # symmetric rhombus: the two diagonals of a hyperbolic rhombus satisfy
    # cosh d1/2... validated against a direct construction instead: both new
    # faces are admissible and the swap is involutive up to the quad symmetry
    back_mesh, back_metric = edge_swap(new_mesh, new_metric, e)
    d2 = back_mesh.edge_id(0, 2)
    assert back_metric.lengths[d2] == pytest.approx(1.1, rel=1e-9)


def test_edge_swap_boundary_rejected(grid9):
    metric = induced_metric(grid9)
    boundary_edge = int(np.nonzero(grid9.edge_halfedges[:, 1] < 0)[0][0])
    with pytest.raises(SurgeryError):
        edge_swap(grid9, metric, boundary_edge)


def test_edge_swap_duplicate_rejected(tetra):
    metric = induced_metric(tetra)
    # any swap on a tetrahedron would duplicate the opposite edge
    for e in range(tetra.n_edges):
        with pytest.raises(SurgeryError):
            edge_swap(tetra, metric, e)


def test_edge_swap_nonconvex_rejected():
    # quad with a reflex corner: (0,0),(1,0),(0.4,0.1),(0,1), diagonal from
    # (0,0) to (0.4,0.1) ... build directly: faces over the reflex quad
    pos = np.array([[0.0, 0, 0], [1, 0, 0], [0.3, 0.25, 0], [0, 1, 0]])
    faces = np.array([[0, 2, 3], [2, 0, 1]])
    mesh = build_mesh(faces, pos)
    metric = induced_metric(mesh)
    with pytest.raises(SurgeryError):
        edge_swap(mesh, metric, mesh.edge_id(0, 2))


def test_edge_swap_hyperbolic_nonconvex_rejected():
    # both faces have an obtuse corner of about 134 degrees at vertex 0, so
    # the corner-angle sum there exceeds pi
    mesh = square_two_triangles()
    lengths = np.empty(mesh.n_edges)
    for (a, b), x in (((0, 2), 1.0), ((0, 3), 0.2), ((0, 1), 0.2),
                      ((2, 3), 1.15), ((1, 2), 1.15)):
        lengths[mesh.edge_id(a, b)] = x
    metric = DiscreteMetric(Geometry.HYPERBOLIC, lengths)
    with pytest.raises(SurgeryError, match="^non-convex quad at edge "):
        edge_swap(mesh, metric, mesh.edge_id(0, 2))


def _lengths_by_pair(mesh, metric):
    return {frozenset((int(a), int(b))): x
            for (a, b), x in zip(mesh.edges, metric.lengths)}


@pytest.mark.parametrize("mesh, geometry", [
    (meshes.grid_mesh(6, 5, bump=0.2), Geometry.EUCLIDEAN),
    (meshes.embedded_torus(9, 6), Geometry.HYPERBOLIC),
])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_edge_swap_carries_lengths_by_vertex_pair(mesh, geometry, slot):
    # every edge but the new diagonal keeps the length the old metric gave
    # its vertex pair, whichever face slot the swapped edge's first
    # halfedge sits in (rotating the corners of every face moves the slots)
    def candidates(mesh):
        for shift in range(3):
            m = build_mesh(np.roll(mesh.faces, shift, axis=1), mesh.positions)
            metric = induced_metric(m).retagged(geometry)
            for e in range(m.n_edges):
                h1, h2 = (int(h) for h in m.edge_halfedges[e])
                if h2 >= 0 and h1 % 3 == slot:
                    yield m, metric, e, h1, h2

    for mesh, metric, e, h1, h2 in candidates(mesh):
        try:
            new_mesh, new_metric = edge_swap(mesh, metric, e)
        except SurgeryError:
            continue
        break
    else:
        pytest.fail(f"no swappable edge with its first halfedge in slot {slot}")
    k = int(mesh.dest(mesh.next(h1)))
    l = int(mesh.dest(mesh.next(h2)))
    old = _lengths_by_pair(mesh, metric)
    new = _lengths_by_pair(new_mesh, new_metric)
    assert set(old) - set(new) == {frozenset(map(int, mesh.edges[e]))}
    assert set(new) - set(old) == {frozenset((k, l))}
    assert new_metric.geometry == geometry
    for pair, x in new.items():
        if pair != frozenset((k, l)):
            assert x == old[pair]


_MESH_FIELDS = ("faces", "twin", "edges", "edge_of_halfedge",
                "edge_halfedges", "vertex_halfedge")


_CHAIN_MESHES = pytest.mark.parametrize("make, geometry", [
    (lambda: meshes.grid_mesh(9, 7, bump=0.2), Geometry.EUCLIDEAN),
    (lambda: meshes.embedded_torus(9, 6), Geometry.HYPERBOLIC),
    (lambda: meshes.annulus_mesh(9, 3), Geometry.EUCLIDEAN),
    (meshes.genus2_mesh, Geometry.EUCLIDEAN),
    (lambda: meshes.subdivided_sphere(2), Geometry.EUCLIDEAN),
], ids=["grid", "torus", "annulus", "genus2", "sphere"])


def _random_swaps(mesh, metric, seed=11, tries=120):
    """Chain of swaps of random edge ids, each on the previous result:
    yields the mesh before the swap, the swapped edge and the result."""
    rng = np.random.default_rng(seed)
    for e in rng.integers(0, mesh.n_edges, tries).tolist():
        try:
            new_mesh, metric = edge_swap(mesh, metric, e)
        except SurgeryError:
            continue
        yield mesh, e, new_mesh, metric
        mesh = new_mesh


@_CHAIN_MESHES
def test_edge_swap_chain_matches_fresh_build(make, geometry):
    # each swap patches the twin pairing instead of searching for it; the
    # renumbered mesh must equal a from-scratch build of its faces in every
    # field, also after many swaps and for quads with a boundary side
    mesh = make()
    metric = induced_metric(mesh).retagged(geometry)
    swaps = boundary_quads = 0
    for mesh, e, new_mesh, metric in _random_swaps(mesh, metric):
        renumbered, _ = renumber(new_mesh, metric.lengths)
        fresh = build_mesh(new_mesh.faces, positions=mesh.positions)
        for name in _MESH_FIELDS:
            np.testing.assert_array_equal(getattr(renumbered, name),
                                          getattr(fresh, name), err_msg=name)
        assert renumbered.boundary_loops == fresh.boundary_loops
        assert renumbered.n_vertices == fresh.n_vertices
        h1, h2 = mesh.edge_halfedges[e]
        sides = [mesh.next(h1), mesh.prev(h1), mesh.next(h2), mesh.prev(h2)]
        boundary_quads += bool((mesh.twin[sides] < 0).any())
        swaps += 1
    assert swaps >= 20
    assert (boundary_quads > 0) == bool(mesh.boundary_loops)


@_CHAIN_MESHES
def test_edge_swap_keeps_halfedge_invariants(make, geometry):
    # the stable-id mesh a swap returns, before any renumbering, is a valid
    # halfedge mesh: every property HalfedgeMesh promises but the canonical
    # numbering holds after every swap of a chain
    start = make()
    metric = induced_metric(start).retagged(geometry)
    h = np.arange(start.n_halfedges)
    swaps = 0
    for _, e, mesh, metric in _random_swaps(start, metric):
        inner = h[mesh.twin >= 0]
        # twin is an involution between opposite halfedges
        assert np.array_equal(mesh.twin[mesh.twin[inner]], inner)
        assert np.array_equal(mesh.origin(mesh.twin[inner]), mesh.dest(inner))
        # edge_of_halfedge and edge_halfedges agree, smaller halfedge first
        first, second = mesh.edge_halfedges.T
        ids = np.arange(mesh.n_edges)
        assert np.array_equal(mesh.edge_of_halfedge[first], ids)
        assert np.array_equal(mesh.twin[first], second)
        paired = second >= 0
        assert np.all(first[paired] < second[paired])
        assert np.array_equal(mesh.edge_of_halfedge[second[paired]],
                              ids[paired])
        assert np.array_equal(np.bincount(mesh.edge_of_halfedge),
                              1 + paired)
        # each edge is oriented like its smaller halfedge, and the swapped
        # edge joins the new diagonal's ends
        assert np.array_equal(mesh.edges[:, 0], mesh.origin(first))
        assert np.array_equal(mesh.edges[:, 1], mesh.dest(first))
        assert mesh.edge_id(*mesh.edges[e]) == e
        # every vertex_halfedge is outgoing, the boundary one if any
        v = np.arange(mesh.n_vertices)
        assert np.array_equal(mesh.origin(mesh.vertex_halfedge), v)
        boundary = h[mesh.twin < 0]
        assert np.array_equal(mesh.vertex_halfedge[mesh.origin(boundary)],
                              boundary)
        assert mesh.boundary_loops == start.boundary_loops
        swaps += 1
    assert swaps >= 20


def test_edge_swap_pillow_refused_by_face_check():
    # both faces of the closed two-face pillow have the same apex, so the
    # new faces repeat a vertex; the face check runs before the patched
    # pairing is used
    pillow = build_mesh(np.array([[0, 1, 2], [1, 0, 2]]))
    metric = DiscreteMetric(Geometry.EUCLIDEAN, np.ones(pillow.n_edges))
    with pytest.raises(TopologyError,
                       match=r"^repeated vertex id in faces \[0, 1\]$"):
        edge_swap(pillow, metric, 0)


@pytest.mark.parametrize("equal_sides", [False, True])
def test_longest_edges_matches_face_loop(equal_sides):
    # reference: first longest edge of each face, first occurrence kept;
    # faces 12 and 13 share their longest edge, and equal sides tie
    mesh = meshes.grid_mesh(5, 4)
    metric = induced_metric(mesh)
    if equal_sides:
        metric = DiscreteMetric(Geometry.EUCLIDEAN, np.ones(mesh.n_edges))
    faces = [7, 3, 8, 3, 0, 12, 13, 1, 7]
    expected = []
    for f in faces:
        e_local = mesh.edge_of_halfedge[3 * f:3 * f + 3]
        e = int(e_local[np.argmax(metric.lengths[e_local])])
        if e not in expected:
            expected.append(e)
    assert longest_edges(mesh, metric, faces).tolist() == expected


def test_flow_runtime_at_scan_scale():
    # ~20k-vertex curved surface flattens within an order-of-magnitude
    # runtime sanity bound (reference implementations report ~100 s at this
    # vertex count; this one takes well under a minute)
    import time
    mesh = meshes.grid_mesh(141, 141, bump=0.3)
    target = rectangle_target(mesh, meshes.grid_corners(141, 141))
    start = time.monotonic()
    res = run_flow(mesh, induced_metric(mesh), target, Geometry.EUCLIDEAN)
    elapsed = time.monotonic() - start
    assert res.report.converged
    assert elapsed < 60.0
