"""Newton-type optimization of the discrete Yamabe energy in Euclidean and
hyperbolic background geometry: analytic Hessian assembly, sparse LU
Newton solves, step damping, edge-swap surgery and convergence reporting.

Sign convention: the assembled Hessian is the curvature Jacobian
``H = dK/du``, so a Newton iteration solves ``H du = Kbar - K`` and updates
``u += du``. In the Euclidean case every row of H sums to zero (global
scaling leaves angles unchanged) and the system is solved on the zero-mean
subspace with one vertex pinned; in the hyperbolic case H is positive
definite and solved whole.

One solve path: the Hessian is the Hessian of a convex energy (Springborn,
Schroeder & Pinkall 2008), so the pinned or whole system is symmetric
positive definite. :func:`run_flow` factors it once per mesh by sparse LU
and solves later steps by conjugate gradients preconditioned by that LU,
to the inexact-Newton forcing tolerance ``min(1e-3, max|Kbar - K|)``
relative to the right-hand side, which keeps the quadratic rate (Dembo,
Eisenstat & Steihaug 1982). The LU travels in a :class:`NewtonFactor`
record. A factor that misses the tolerance within ``_MAX_CG_ITERATIONS``
iterations is refreshed in place, releasing the stale LU before its
successor is built, and edge-swap surgery drops it, since a swap changes
the sparsity pattern.

Edge-swap surgery has one primitive, :func:`edge_swap`, shared with the
pre-flow surgery of :mod:`qcflow.pipeline`; it flips by corner angles, with
one rule for both background geometries. A swap keeps every edge id: it
rewrites the two faces of the quad and patches at most ten entries of a
copy of each halfedge array, and the flipped edge keeps its id and takes
the new diagonal's length. A surgery loop renumbers once, after its last
swap (:func:`renumber`, which rebuilds the mesh from its faces).
:func:`longest_edges` picks the edges both surgery loops try. In-flow
surgery swaps on the current metric, then rebases it by ``-u``.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    FlowError,
    MetricError,
    SolverError,
    SurgeryError,
    TopologyError,
)
from .mesh import build_mesh, euler_characteristic
from .metric import (
    DiscreteMetric,
    Geometry,
    _violates,
    check_triangle_inequality,
    corner_angles,
    cosine_law,
    deform_metric,
    opposite_lengths,
    opposite_side,
    vertex_curvature,
)

# failed step halvings before edge-swap surgery is attempted
_SURGERY_AFTER_HALVINGS = 5
# step halvings per Newton iteration before the line search gives up
_MAX_HALVINGS = 20
# cap of the inexact-Newton forcing term min(cap, max|b|) of a reused factor
_FORCING_CAP = 1e-3
# conjugate-gradient iterations before a reused factor counts as stale
_MAX_CG_ITERATIONS = 20


class _SciPy:
    """A SciPy module imported at its first attribute read. The first read
    through any of the handles below imports all three modules, so a process
    that builds no Newton system runs on NumPy alone, and a flow pays the
    import in its first :func:`assemble_hessian`, not in a solve. Dunder
    reads (introspection, copying) load nothing."""

    _MODULES = ("scipy.sparse", "scipy.sparse.linalg", "scipy.sparse.csgraph")

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        if attr.startswith("__"):
            raise AttributeError(attr)
        for name in self._MODULES:
            importlib.import_module(name)
        return getattr(sys.modules[self._name], attr)


sp = _SciPy("scipy.sparse")
spla = _SciPy("scipy.sparse.linalg")
csgraph = _SciPy("scipy.sparse.csgraph")


@dataclass(frozen=True)
class FlowOptions:
    """Knobs of the Newton iteration."""

    eps: float = 1e-8
    max_iterations: int = 50
    surgery: bool = True

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class FlowReport:
    """Convergence record; ``residuals`` has ``iterations + 1`` entries
    (the leading one is the initial residual). ``factorizations`` counts
    the sparse LU factorizations of the Newton steps and ``cg_iterations``
    the conjugate-gradient iterations run on reused factors."""

    residuals: list
    iterations: int
    swaps: int
    halvings: int
    factorizations: int
    cg_iterations: int
    u: np.ndarray
    converged: bool

    def to_json_dict(self):
        return {
            "iterations": self.iterations,
            "residuals": [float(r) for r in self.residuals],
            "swaps": self.swaps,
            "factorizations": self.factorizations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class FlowResult:
    """Outcome of :func:`run_flow`. ``mesh`` differs from the input only when
    edge-swap surgery fired; ``base`` is the undeformed metric on that mesh,
    so ``deform_metric(mesh, base, u)`` reproduces ``metric``."""

    mesh: object
    metric: DiscreteMetric
    base: DiscreteMetric
    u: np.ndarray
    report: FlowReport


def angle_derivatives(metric, mesh, angles=None):
    """Per-face matrix ``D[f, a, b] = d(theta_a) / d(u_b)`` of corner-angle
    derivatives with respect to the conformal factors, at the current metric.

    Euclidean: ``d(theta_i)/d(u_j) = cot(theta_k)`` and
    ``d(theta_i)/d(u_i) = -cot(theta_j) - cot(theta_k)``.

    Hyperbolic (with ``c_m = cosh(y_m)`` of the current lengths and the
    symmetric ``A = sin(theta_k) sinh(y_i) sinh(y_j)``):
    ``d(theta_i)/d(u_j) = 2 (c_i + c_j - c_k - 1) / (A (c_k + 1))`` and
    ``d(theta_i)/d(u_i) = -2 (2 c_i c_j c_k - c_j^2 - c_k^2 + c_i c_j
    + c_i c_k - c_j - c_k) / (A (c_j + 1)(c_k + 1))``.
    The factor 2 comes from ``d(y_i)/d(u_j) = 2 tanh(y_i / 2)`` under the
    half-length deformation rule; it is validated against finite differences
    in the test suite.
    """
    if angles is None:
        angles = corner_angles(metric, mesh)
    nf = mesh.n_faces
    D = np.empty((nf, 3, 3))
    others = ((1, 2), (0, 2), (0, 1))
    if metric.geometry == Geometry.EUCLIDEAN:
        cot = np.cos(angles) / np.sin(angles)
        for a in range(3):
            b, k = others[a]
            D[:, a, b] = cot[:, k]
            D[:, a, k] = cot[:, b]
            D[:, a, a] = -cot[:, b] - cot[:, k]
        return D
    y = opposite_lengths(metric, mesh)
    c = np.cosh(y)
    area = np.sin(angles[:, 0]) * np.sinh(y[:, 1]) * np.sinh(y[:, 2])
    for a in range(3):
        b, k = others[a]
        D[:, a, b] = 2.0 * (c[:, a] + c[:, b] - c[:, k] - 1.0) / (area * (c[:, k] + 1.0))
        D[:, a, k] = 2.0 * (c[:, a] + c[:, k] - c[:, b] - 1.0) / (area * (c[:, b] + 1.0))
        num = (2.0 * c[:, a] * c[:, b] * c[:, k]
               - c[:, b] ** 2 - c[:, k] ** 2
               + c[:, a] * c[:, b] + c[:, a] * c[:, k]
               - c[:, b] - c[:, k])
        D[:, a, a] = -2.0 * num / (area * (c[:, b] + 1.0) * (c[:, k] + 1.0))
    return D


def assemble_hessian(mesh, metric, angles=None):
    """Sparse curvature Jacobian ``H = dK/du`` (CSR, symmetric) at
    ``metric``.

    Off-diagonal entries exist only on edges; each face contributes one
    value per unordered corner pair, so symmetry is exact by construction.
    """
    D = angle_derivatives(metric, mesh, angles=angles)
    f = mesh.faces
    rows = [f[:, 0], f[:, 1], f[:, 0], f[:, 2], f[:, 1], f[:, 2],
            f[:, 0], f[:, 1], f[:, 2]]
    cols = [f[:, 1], f[:, 0], f[:, 2], f[:, 0], f[:, 2], f[:, 1],
            f[:, 0], f[:, 1], f[:, 2]]
    w01, w02, w12 = -D[:, 0, 1], -D[:, 0, 2], -D[:, 1, 2]
    vals = [w01, w01, w02, w02, w12, w12,
            -D[:, 0, 0], -D[:, 1, 1], -D[:, 2, 2]]
    n = mesh.n_vertices
    H = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return H.tocsr()


@dataclass
class NewtonFactor:
    """The sparse LU that :func:`newton_step` carries from one Newton step
    to the next on the same mesh. ``lu`` is the factor (``None`` until the
    first factorization, or after a caller drops it because the mesh
    changed); ``factorizations`` and ``cg_iterations`` count the sparse LU
    factorizations and conjugate-gradient iterations spent through it. A
    stale factor is replaced in place, and the old LU is released before
    the new one is built, so a caller that keeps only this record never
    holds two factors."""

    lu: object = None
    factorizations: int = 0
    cg_iterations: int = 0


def newton_step(H, residual, geometry, factor=None):
    """Solve ``H du = residual`` (= Kbar - K) for the Newton direction.
    Returns ``(du, factor)``: the direction and the :class:`NewtonFactor`
    to hand to the next step on the same mesh (``factor`` itself when one
    is given, else a new one).

    Euclidean systems are singular with kernel spanned by the constant
    vector: the right-hand side is projected onto the zero-mean subspace,
    vertex 0 is pinned and the solution is re-centred to zero mean.
    Hyperbolic systems are positive definite and solved whole.

    With no factor, or one without an LU of the system's size, the system
    is factored by ``splu`` and solved directly. With the LU of an earlier
    Hessian on the same mesh it is solved by conjugate gradients (valid
    because the pinned or whole system is symmetric positive definite)
    started at the LU solution and preconditioned by the LU, to the
    inexact-Newton forcing tolerance ``|r| <= min(1e-3, max|b|) |b|``,
    which keeps the quadratic rate. An LU that does not reach it within
    ``_MAX_CG_ITERATIONS`` iterations is stale: it is released and the
    system factored afresh into the same record.

    Raises :class:`SolverError` when the system is singular: a Euclidean
    system on a disconnected mesh (one constant per component spans the
    kernel, and rounding may hide the extra zero pivots; checked whenever
    the step would factor, before a zero residual returns), or a
    degenerate metric.
    """
    b = np.asarray(residual, dtype=np.float64).copy()
    euclidean = geometry == Geometry.EUCLIDEAN
    if euclidean:
        b -= b.mean()
    free = slice(1, None) if euclidean else slice(None)
    A = H[free, free]
    if factor is None:
        factor = NewtonFactor()
    x = np.zeros(H.shape[0])
    y = None
    if factor.lu is not None and factor.lu.shape == A.shape:
        def count(xk):
            factor.cg_iterations += 1

        y, info = spla.cg(
            A, b[free], x0=factor.lu.solve(b[free]),
            rtol=min(_FORCING_CAP, float(np.abs(b).max())), atol=0.0,
            maxiter=_MAX_CG_ITERATIONS,
            M=spla.LinearOperator(A.shape, matvec=factor.lu.solve,
                                  dtype=np.float64),
            callback=count)
        if info:
            y = None
    if y is None:
        if euclidean:
            n_parts = csgraph.connected_components(H, directed=False,
                                                   return_labels=False)
            if n_parts > 1:
                raise SolverError(f"singular Newton system: the mesh has "
                                  f"{n_parts} connected components")
        if not np.any(b):
            return x, factor
        factor.lu = None  # release the stale factor before building the next
        try:
            factor.lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SolverError(f"singular Newton system: {exc}") from exc
        factor.factorizations += 1
        y = factor.lu.solve(b[free])
    x[free] = y
    if not np.all(np.isfinite(x)):
        raise SolverError("singular Newton system: non-finite solution")
    if euclidean:
        x -= x.mean()
    return x, factor


# ---------------------------------------------------------------------------
# Edge-swap surgery


def edge_swap(mesh, metric, edge):
    """Replace the diagonal of the two faces meeting at ``edge`` with the
    opposite diagonal of their quad.

    With ``edge = (i, j)`` between the faces ``(i, j, k)`` and ``(j, i, l)``,
    the quad is convex when the corner-angle sums ``theta_i`` and ``theta_j``
    at both ends of the diagonal are below pi, in either background
    geometry; the new diagonal is the side opposite ``theta_i`` between
    ``l_ik`` and ``l_il``. Raises :class:`SurgeryError` when the edge is on
    the boundary, the swap would duplicate an existing edge, the quad is
    non-convex, or a new face would violate the triangle inequality, and
    :class:`~qcflow.errors.TopologyError` when ``k == l`` (a new face would
    repeat a vertex id).

    Returns the updated mesh and metric; the inputs are not modified. Edge
    ids are stable: the new diagonal keeps the id and takes the length of
    ``edge``, every other edge keeps its id and length, and the faces keep
    theirs. Only the two faces of the quad are rewritten, on copies of the
    input arrays, so the result is not canonically numbered (see
    :class:`~qcflow.mesh.HalfedgeMesh`); :func:`renumber` restores that.
    """
    h1, h2 = (int(x) for x in mesh.edge_halfedges[edge])
    if h2 < 0:
        raise SurgeryError(f"edge {edge} is on the boundary")
    i, j = int(mesh.origin(h1)), int(mesh.dest(h1))
    k = int(mesh.dest(mesh.next(h1)))
    l = int(mesh.dest(mesh.next(h2)))
    if mesh.edge_id(k, l) >= 0:
        raise SurgeryError(f"swap of edge {edge} would duplicate edge "
                           f"({k}, {l})")

    e = mesh.edge_of_halfedge
    g = metric.geometry
    d, l_ik, l_jk, l_il, l_jl = metric.lengths[
        [edge, e[mesh.prev(h1)], e[mesh.next(h1)], e[mesh.next(h2)],
         e[mesh.prev(h2)]]]
    # The corner angles at i, then at j, in both faces; a face that breaks
    # the triangle inequality gives NaN, which fails the convexity test.
    with np.errstate(invalid="ignore"):
        angles = np.arccos(cosine_law(g, np.array([l_jk, l_jl, l_ik, l_il]),
                                      d, np.array([l_ik, l_il, l_jk, l_jl])))
        theta_i, theta_j = angles[:2].sum(), angles[2:].sum()
        new_len = float(opposite_side(g, l_ik, l_il, theta_i))
    if not (theta_i < np.pi and theta_j < np.pi):
        raise SurgeryError(f"non-convex quad at edge {edge}")
    if not np.isfinite(new_len) or new_len <= 0.0:
        raise SurgeryError(f"degenerate new diagonal at edge {edge}")
    f1, f2 = h1 // 3, h2 // 3
    sides = np.array([[l_il, new_len, l_ik], [l_jk, new_len, l_jl]])
    for f, bad in zip((f1, f2), _violates(sides)):
        if bad:
            raise SurgeryError(
                f"swap of edge {edge} produced an invalid face {f}")
    if k == l:
        raise TopologyError(f"repeated vertex id in faces {sorted((f1, f2))}")

    # Face ``f1 = (i, l, k)`` takes its outer sides from the old halfedges
    # ``next(h2)`` and ``prev(h1)``, and face ``f2 = (j, k, l)`` from
    # ``next(h1)`` and ``prev(h2)``; the new diagonal pairs the two middle
    # slots. With four distinct vertices no outer halfedge is the twin of
    # another, so every outer twin lies outside the quad.
    faces = mesh.faces.copy()
    faces[f1] = (i, l, k)
    faces[f2] = (j, k, l)
    b1, b2 = 3 * f1, 3 * f2
    slots = np.array([b1, b1 + 2, b2, b2 + 2])
    old = np.array([mesh.next(h2), mesh.prev(h1), mesh.next(h1),
                    mesh.prev(h2)])
    twin = mesh.twin.copy()
    outer = mesh.twin[old]
    twin[slots] = outer
    twin[b1 + 1], twin[b2 + 1] = b2 + 1, b1 + 1
    twin[outer[outer >= 0]] = slots[outer >= 0]

    # The five edges of the quad list their halfedges smaller first and
    # take the orientation of the smaller one, as build_mesh orders them.
    edge_of_halfedge = e.copy()
    edge_of_halfedge[slots] = e[old]
    edge_of_halfedge[[b1 + 1, b2 + 1]] = edge
    moved = np.append(e[old], edge)
    hs = np.append(slots, b1 + 1)
    first = np.where((twin[hs] < 0) | (hs < twin[hs]), hs, twin[hs])
    edge_halfedges = mesh.edge_halfedges.copy()
    edge_halfedges[moved] = np.column_stack([first, twin[first]])
    corner = faces.ravel()
    edges = mesh.edges.copy()
    edges[moved] = np.column_stack([corner[first],
                                    corner[mesh.next(first)]])

    # A vertex whose outgoing halfedge moved follows it to its new slot; i
    # and j lose the old diagonal and take their side of the new faces.
    # Only interior halfedges leave, so a boundary vertex keeps its
    # outgoing boundary halfedge.
    to_slot = dict(zip(old.tolist() + [h1, h2], slots.tolist() + [b1, b2]))
    vertex_halfedge = mesh.vertex_halfedge.copy()
    for v in (i, j, k, l):
        h = int(vertex_halfedge[v])
        vertex_halfedge[v] = to_slot.get(h, h)

    lengths = metric.lengths.copy()
    lengths[edge] = new_len
    new_mesh = replace(mesh, faces=faces, twin=twin, edges=edges,
                       edge_of_halfedge=edge_of_halfedge,
                       edge_halfedges=edge_halfedges,
                       vertex_halfedge=vertex_halfedge)
    return new_mesh, DiscreteMetric(g, lengths)


def renumber(mesh, lengths):
    """Canonical numbering of a mesh that :func:`edge_swap` left with stable
    edge ids: the mesh :func:`~qcflow.mesh.build_mesh` builds from its
    faces, and ``lengths`` (indexed by the old edge ids) carried to the new
    ids through each edge's smaller halfedge."""
    new = build_mesh(mesh.faces, mesh.positions)
    return new, lengths[mesh.edge_of_halfedge[new.edge_halfedges[:, 0]]]


def longest_edges(mesh, metric, faces):
    """Ids of the longest edge of each listed face, without repeats, in face
    order."""
    faces = np.asarray(faces, dtype=np.int64)
    e_local = mesh.edge_of_halfedge.reshape(-1, 3)[faces]
    pick = np.argmax(metric.lengths[e_local], axis=1)
    longest = e_local[np.arange(len(e_local)), pick]
    _, first = np.unique(longest, return_index=True)
    return longest[np.sort(first)]


def _swap_edges(mesh, current, edges):
    """In-flow surgery: swap each listed edge in turn on the deformed metric
    ``current``, skipping the ones that cannot be swapped, then renumber
    once. Returns the mesh, its swapped metric and the number of swaps."""
    done = 0
    # Swaps keep edge ids, so every listed id names its edge until swapped.
    for e in edges.tolist():
        try:
            mesh, current = edge_swap(mesh, current, e)
        except SurgeryError:
            continue
        done += 1
    if done:
        mesh, lengths = renumber(mesh, current.lengths)
        current = DiscreteMetric(current.geometry, lengths)
    return mesh, current, done


# ---------------------------------------------------------------------------
# The flow proper


def _evaluate(mesh, metric, target):
    """Corner angles, curvature and ``max|target - K|`` of ``metric``; the
    :class:`MetricError` of :func:`corner_angles` is the flow's verdict."""
    angles = corner_angles(metric, mesh)
    K = vertex_curvature(angles, mesh)
    return angles, K, float(np.max(np.abs(target - K)))


def run_flow(mesh, metric, target, geometry, options=FlowOptions()):
    """Drive the discrete metric to the prescribed curvature by damped
    Newton iterations.

    Each iteration deforms the lengths by the accumulated conformal factor,
    assembles the curvature Jacobian, solves for the Newton direction and
    backtracks (halving the step) until the deformed metric is admissible and
    the max-norm residual decreases. After ``5`` failed halvings edge-swap
    surgery is attempted once on the longest edge of every violating face;
    if any swap succeeds, the iteration ends there on the swapped mesh.
    Iteration stops when ``max |Kbar - K| < options.eps``. One
    :class:`NewtonFactor` is handed from step to step (:func:`newton_step`),
    so a mesh is factored once unless the factor goes stale; a swap drops
    its LU.

    ``target`` must satisfy the Euclidean Gauss-Bonnet identity
    ``sum(Kbar) = 2 pi chi`` (to 1e-9); hyperbolic targets are not
    pre-checked since the area term is flow-dependent.

    Returns a :class:`FlowResult`; raises :class:`FlowError` on an infeasible
    target, a failed line search, an inadmissible metric after surgery, or a
    non-converged budget, with the partial report attached.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (mesh.n_vertices,):
        raise ValueError("target must assign one curvature per vertex")
    metric = metric.retagged(geometry)
    violations = check_triangle_inequality(metric, mesh)
    if violations:
        raise MetricError(
            f"initial metric violates triangle inequality on faces "
            f"{violations[:16]}", faces=violations)
    chi = euler_characteristic(mesh)
    if geometry == Geometry.EUCLIDEAN:
        defect = abs(float(target.sum()) - 2.0 * np.pi * chi)
        if defect > 1e-9:
            raise FlowError(
                f"target curvature violates Gauss-Bonnet: sum(Kbar) deviates "
                f"from 2 pi chi by {defect:.3e}")

    base = metric
    u = np.zeros(mesh.n_vertices)
    current = deform_metric(mesh, base, u)
    angles, K, res = _evaluate(mesh, current, target)
    residuals = [res]
    swaps = halvings = iterations = 0
    failure = None
    # The LU of the latest factored Hessian, reused by later Newton steps
    # until surgery changes the mesh.
    factor = NewtonFactor()

    while res >= options.eps and iterations < options.max_iterations:
        H = assemble_hessian(mesh, current, angles=angles)
        du, factor = newton_step(H, target - K, geometry, factor)
        surgery_tried = saw_admissible = False
        for halv in range(_MAX_HALVINGS + 1):
            u_try = u + 0.5 ** halv * du
            try:
                trial = deform_metric(mesh, base, u_try)
                trial_angles, K_try, res_try = _evaluate(mesh, trial, target)
            except MetricError as exc:
                # Only the verdict on ``trial`` names faces; an overflow in
                # deform_metric names none and just halves the step.
                if (exc.faces and options.surgery and not surgery_tried
                        and halv >= _SURGERY_AFTER_HALVINGS):
                    surgery_tried = True
                    mesh, swapped, n_done = _swap_edges(
                        mesh, current, longest_edges(mesh, trial, exc.faces))
                    if n_done:
                        # Connectivity changed: rebase so that u deforms the
                        # new base to the swapped metric, recompute the state
                        # at the unchanged u and restart with a fresh Hessian
                        # and a fresh factor (the sparsity pattern changed).
                        swaps += n_done
                        factor.lu = None
                        try:
                            base = deform_metric(mesh, swapped, -u)
                            current = deform_metric(mesh, base, u)
                            angles, K, res = _evaluate(mesh, current, target)
                        except MetricError as exc:
                            failure = f"metric after surgery inadmissible: {exc}"
                        break
                continue
            saw_admissible = True
            if res_try < res:
                u, current, angles, K, res = (u_try, trial, trial_angles,
                                              K_try, res_try)
                break
        else:  # every step length failed
            halvings += _MAX_HALVINGS + 1
            if saw_admissible:
                failure = "line search failed to reduce the curvature residual"
            else:
                failure = ("deformed metric inadmissible at every step length"
                           + ("" if options.surgery
                              else " and surgery is disabled"))
            break
        halvings += halv
        if failure:
            break
        iterations += 1
        residuals.append(res)

    converged = res < options.eps
    if not converged and failure is None:
        failure = (f"flow did not converge within {options.max_iterations} "
                   f"iterations (residual {res:.3e})")
    report = FlowReport(residuals=residuals, iterations=iterations,
                        swaps=swaps, halvings=halvings,
                        factorizations=factor.factorizations,
                        cg_iterations=factor.cg_iterations, u=u.copy(),
                        converged=converged)
    if failure:
        raise FlowError(failure, report=report)
    return FlowResult(mesh=mesh, metric=current, base=base, u=u,
                      report=report)
