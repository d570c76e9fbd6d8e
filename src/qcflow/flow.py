"""Newton-type optimization of the discrete Yamabe energy in Euclidean and
hyperbolic background geometry: analytic Hessian assembly, sparse LU
Newton solves, step damping, edge-swap surgery and convergence reporting.

Sign convention: the assembled Hessian is the curvature Jacobian
``H = dK/du``, so a Newton iteration solves ``H du = Kbar - K`` and updates
``u += du``. In the Euclidean case every row of H sums to zero (global
scaling leaves angles unchanged) and the system is solved on the zero-mean
subspace with one vertex pinned; in the hyperbolic case H is positive
definite and solved whole.

Start: a Euclidean flow starts at ``u = 0``. Along the constant direction
the hyperbolic energy of Bobenko, Pinkall & Springborn (2015) has the
derivative ``Area(u) - (sum(Kbar) - 2 pi chi)``, so the Gauss-Bonnet area
fixes the overall scale before any Newton step: a hyperbolic flow starts at
the uniform factor that gives the metric about that area
(:func:`_gauss_bonnet_scale`) when the metric there is admissible and
lowers the residual, else at ``u = 0``. ``FlowReport.residuals[0]`` is the
residual at the start.

One assembly path: a Newton step fills only the values of the Hessian's
CSR pattern, which each mesh object builds once
(:attr:`~qcflow.mesh.HalfedgeMesh.adjacency_pattern`); surgery builds a new
mesh object, and so a new pattern.

One solve path: the Hessian is the Hessian of a convex energy (Springborn,
Schroeder & Pinkall 2008), so the pinned or whole system is symmetric
positive definite. :func:`run_flow` factors it once per mesh by sparse LU,
with SuperLU's settings for a symmetric system (symmetric ordering,
diagonal pivots, narrow panels), and solves later steps by conjugate
gradients preconditioned by that LU, to the inexact-Newton forcing
tolerance ``min(1e-3, max|Kbar - K|)`` relative to the right-hand side,
which keeps the quadratic rate (Dembo, Eisenstat & Steihaug 1982). The
tolerance is floored at ``0.5 eps / |Kbar - K|_2``, the safeguard against
oversolving (Kelley 1995, section 6.3; Eisenstat & Walker 1996): CG stops
once the linear residual is below ``eps / 2``, which the stopping test
cannot tell from zero. The LU travels in a :class:`NewtonFactor` record. A
factor that misses the tolerance within ``_MAX_CG_ITERATIONS`` iterations
is refreshed in place, releasing the stale LU before its successor is
built, and edge-swap surgery drops it, since a swap changes the sparsity
pattern.

Edge-swap surgery has one primitive, :func:`edge_swap`, shared with the
pre-flow surgery of :mod:`qcflow.pipeline`: it flips an edge in place on
three arrays, the faces, the twin pairing and one length per halfedge, by
corner angles, with one rule for both background geometries. A surgery
loop flips on copies of its mesh's arrays and ends with one
:func:`~qcflow.mesh.build_mesh` of the flipped faces, whose edges read
their lengths at their smaller halfedges. :func:`longest_edges` picks the
edges both surgery loops try. In-flow surgery swaps on the current
metric, then rebases it by ``-u``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FlowError,
    MetricError,
    SolverError,
    SurgeryError,
    TopologyError,
)
from .mesh import (
    HalfedgeMesh,
    build_mesh,
    csgraph,
    euler_characteristic,
    sp,
    spla,
)
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
# cap of the inexact-Newton forcing term of a reused factor
_FORCING_CAP = 1e-3
# SuperLU settings for a symmetric positive definite system: the symmetric
# ordering, diagonal pivots (so perm_r == perm_c) and panels narrower than
# the default 20, which suit the small supernodes of a mesh Hessian
_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     panel_size=6, options=dict(SymmetricMode=True))
# conjugate-gradient iterations before a reused factor counts as stale
_MAX_CG_ITERATIONS = 20


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
    (the leading one is the residual at the flow's start).
    ``factorizations`` counts the sparse LU factorizations of the Newton
    steps and ``cg_iterations`` the conjugate-gradient iterations run on
    reused factors."""

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

    Only ``data`` is new, on the mesh's ``adjacency_pattern``: halfedge
    values summed onto edges, each filling both of its entries (so symmetry
    is exact), and corner values summed onto vertices.
    """
    D = angle_derivatives(metric, mesh, angles=angles)
    indptr, indices, slot = mesh.adjacency_pattern
    n = mesh.n_vertices
    # halfedge 3f + s runs from corner s to corner s + 1 of face f
    off, diag = -D[:, (0, 1, 0), (1, 2, 2)], -D[:, (0, 1, 2), (0, 1, 2)]
    values = np.r_[np.bincount(mesh.edge_of_halfedge, off.ravel()),
                   np.bincount(mesh.faces.ravel(), diag.ravel())]
    return sp.csr_matrix((values[slot], indices, indptr), shape=(n, n))


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


def newton_step(H, residual, geometry, factor=None, eps=0.0):
    """Solve ``H du = residual`` (= Kbar - K) for the Newton direction.
    Returns ``(du, factor)``: the direction and the :class:`NewtonFactor`
    to hand to the next step on the same mesh (``factor`` itself when one
    is given, else a new one).

    Euclidean systems are singular with kernel spanned by the constant
    vector: the right-hand side is projected onto the zero-mean subspace,
    vertex 0 is pinned (the system is the copy ``H[1:, 1:]``) and the
    solution is re-centred to zero mean. Hyperbolic systems are positive
    definite and solved whole, on ``H`` itself.

    With no factor, or one without an LU of the system's size, the system
    is factored by ``splu`` and solved directly; the system is symmetric
    positive definite, so SuperLU keeps to the diagonal of its symmetric
    ``MMD_AT_PLUS_A`` ordering (``SymmetricMode``, ``diag_pivot_thresh=0``)
    and builds panels of 6 columns instead of its default 20. With the LU
    of an earlier Hessian on the same mesh it is solved by conjugate
    gradients started at the LU solution and preconditioned by the LU, to
    the inexact-Newton forcing tolerance
    ``|r| <= min(1e-3, max(max|b|, 0.5 eps / |b|)) |b|``, which keeps the
    quadratic rate; the floor stops once ``|r| <= eps / 2``, below what
    the flow's stopping test ``max|b| < eps`` can see, and ``eps = 0``
    (the default) drops it. An LU that does not reach the tolerance within
    ``_MAX_CG_ITERATIONS`` iterations is stale: it is released and the
    system factored afresh into the same record.

    Raises :class:`SolverError` when the system is singular: a Euclidean
    system on a disconnected mesh (one constant per component spans the
    kernel, and rounding may hide the extra zero pivots; checked whenever
    the step would factor, before a zero residual returns), or a
    degenerate metric. It also raises when the solution is not finite and,
    before projecting it, on a Euclidean residual that is not finite.
    """
    b = np.asarray(residual, dtype=np.float64).copy()
    euclidean = geometry == Geometry.EUCLIDEAN
    if euclidean:
        if not np.isfinite(b).all():
            raise SolverError("Newton residual is not finite: it has no "
                              "zero-mean projection")
        b -= b.mean()
    free = slice(1, None) if euclidean else slice(None)
    A = H[free, free] if euclidean else H  # H[:, :] would copy H
    if factor is None:
        factor = NewtonFactor()
    x = np.zeros(H.shape[0])
    y = None
    if factor.lu is not None and factor.lu.shape == A.shape:
        def count(xk):
            factor.cg_iterations += 1

        # the forcing term, floored so that the step is not solved past
        # what the flow's stopping test can see
        b_norm = float(np.linalg.norm(b[free]))
        floor = 0.5 * eps / b_norm if b_norm else 0.0
        y, info = spla.cg(
            A, b[free], x0=factor.lu.solve(b[free]),
            rtol=min(_FORCING_CAP, max(float(np.abs(b).max()), floor)),
            atol=0.0,
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
            # A is exactly symmetric, so its transpose, a CSC view of the
            # same arrays, is the CSC form of A
            factor.lu = spla.splu(A.T, **_SPLU_OPTIONS)
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


def edge_swap(faces, twin, lengths, geometry, h, carried=()):
    """Flip, in place, the edge of halfedge ``h`` to the other diagonal of
    its quad, and return the new diagonal's two halfedges, smaller first.

    The mesh is three arrays: ``faces`` (F, 3), ``twin`` (3F,) and
    ``lengths`` (3F,), the length in ``geometry`` of each halfedge's edge.
    Halfedge ``3f + s`` runs from corner ``s`` of face ``f`` to corner
    ``s + 1``. The flip starts from the edge's smaller halfedge ``(i, j)``
    in face ``f1 = (i, j, k)``, whose twin lies in ``f2 = (j, i, l)``; it
    rewrites the rows ``f1 = (i, l, k)`` and ``f2 = (j, k, l)``, their six
    twin slots and the twin slots outside the quad that point into it.
    Every slot of the two faces takes the values of the old slot that
    leaves the same vertex, in ``lengths`` and in each array of
    ``carried``, which are indexed by halfedge too (the chart corners of
    the pre-flow surgery, say); then the two slots of the new diagonal
    take its length in ``lengths``. A carried array of lengths keeps old
    values there until its caller measures the new diagonal.

    The quad is convex when the corner-angle sums ``theta_i`` and
    ``theta_j`` at both ends of the diagonal are below pi, in either
    background geometry; the new diagonal is the side opposite ``theta_i``
    between ``l_ik`` and ``l_il``. Raises :class:`SurgeryError` when the
    edge is on the boundary, ``k`` and ``l`` are already joined (some face
    holds both), the quad is non-convex, the new diagonal is degenerate or
    a new face would violate the triangle inequality, and
    :class:`~qcflow.errors.TopologyError` when ``k == l`` (a new face would
    repeat a vertex id), in that order. A refused flip writes nothing.
    """
    corner, nxt, prv = faces.ravel(), HalfedgeMesh.next, HalfedgeMesh.prev
    h1, h2 = sorted((int(h), int(twin[h])))
    if h1 < 0:
        raise SurgeryError(f"edge ({corner[h2]}, {corner[nxt(h2)]}) is on "
                           "the boundary")
    n1, p1, n2, p2 = nxt(h1), prv(h1), nxt(h2), prv(h2)
    i, j, k, l = corner[[h1, n1, p1, p2]].tolist()
    # Two distinct vertices are joined exactly when some face holds both. No
    # face holds a vertex twice, so k == l never counts as joined.
    if (((faces == k) | (faces == l)).sum(axis=1) == 2).any():
        raise SurgeryError(f"swap of edge ({i}, {j}) would duplicate edge "
                           f"({k}, {l})")

    d, l_ik, l_jk, l_il, l_jl = lengths[[h1, p1, n1, n2, p2]]
    # The corner angles at i, then at j, in both faces; a face that breaks
    # the triangle inequality gives NaN, which fails the convexity test.
    with np.errstate(invalid="ignore"):
        angles = np.arccos(cosine_law(geometry,
                                      np.array([l_jk, l_jl, l_ik, l_il]), d,
                                      np.array([l_ik, l_il, l_jk, l_jl])))
        theta_i, theta_j = angles[:2].sum(), angles[2:].sum()
        new_len = float(opposite_side(geometry, l_ik, l_il, theta_i))
    if not (theta_i < np.pi and theta_j < np.pi):
        raise SurgeryError(f"non-convex quad at edge ({i}, {j})")
    if not np.isfinite(new_len) or new_len <= 0.0:
        raise SurgeryError(f"degenerate new diagonal at edge ({i}, {j})")
    f1, f2 = h1 // 3, h2 // 3
    sides = np.array([[l_il, new_len, l_ik], [l_jk, new_len, l_jl]])
    for f, bad in zip((f1, f2), _violates(sides)):
        if bad:
            raise SurgeryError(
                f"swap of edge ({i}, {j}) produced an invalid face {f}")
    if k == l:
        raise TopologyError(f"repeated vertex id in faces {[f1, f2]}",
                            faces=[f1, f2])

    # With four distinct vertices no outer halfedge is the twin of another,
    # so every outer twin lies outside the quad.
    b1, b2 = 3 * f1, 3 * f2
    faces[f1] = (i, l, k)
    faces[f2] = (j, k, l)
    outside = np.array([b1, b1 + 2, b2, b2 + 2])
    outer = twin[[n2, p1, n1, p2]]
    twin[outside] = outer
    twin[[b1 + 1, b2 + 1]] = b2 + 1, b1 + 1
    twin[outer[outer >= 0]] = outside[outer >= 0]
    # the new slots leave i, l, k and j, k, l; so do these old ones
    slots = [b1, b1 + 1, b1 + 2, b2, b2 + 1, b2 + 2]
    leaving = [n2, p2, p1, n1, p1, p2]
    for values in (lengths, *carried):
        values[slots] = values[leaving]
    lengths[[b1 + 1, b2 + 1]] = new_len
    return b1 + 1, b2 + 1


def longest_edges(twin, lengths, faces):
    """The smaller halfedge of the longest edge of each listed face, without
    repeats, in face order; ``lengths`` has one length per halfedge."""
    faces = np.asarray(faces, dtype=np.int64)
    h = 3 * faces + np.argmax(lengths.reshape(-1, 3)[faces], axis=1)
    h = np.where((twin[h] >= 0) & (twin[h] < h), twin[h], h)
    _, first = np.unique(h, return_index=True)
    return h[np.sort(first)]


def _swap_edges(mesh, current, halfedges):
    """In-flow surgery: flip each listed edge in turn on the deformed metric
    ``current``, skipping the ones that cannot be flipped, then build the
    mesh once. An edge is named by its vertex pair and found when its turn
    comes, since the flips before it move halfedges. Returns the mesh, its
    flipped metric and the number of flips."""
    faces, twin = mesh.faces.copy(), mesh.twin.copy()
    lengths = current.lengths[mesh.edge_of_halfedge]
    corner = faces.ravel()
    succ = HalfedgeMesh.next(np.arange(mesh.n_halfedges))
    done = 0
    for a, b in zip(corner[halfedges].tolist(),
                    corner[succ[halfedges]].tolist()):
        dest = corner[succ]
        h = np.flatnonzero((corner == a) & (dest == b)
                           | (corner == b) & (dest == a))[0]
        try:
            edge_swap(faces, twin, lengths, current.geometry, int(h))
        except SurgeryError:
            continue
        done += 1
    if done:
        mesh = build_mesh(faces, mesh.positions)
        current = DiscreteMetric(current.geometry,
                                 lengths[mesh.edge_halfedges[:, 0]])
    return mesh, current, done


# ---------------------------------------------------------------------------
# The flow proper


def _evaluate(mesh, metric, target):
    """Corner angles, curvature and ``max|target - K|`` of ``metric``; the
    :class:`MetricError` of :func:`corner_angles` is the flow's verdict."""
    angles = corner_angles(metric, mesh)
    K = vertex_curvature(angles, mesh)
    return angles, K, float(np.max(np.abs(target - K)))


def _gauss_bonnet_scale(mesh, base, area):
    """Uniform conformal factor ``u0`` under which the hyperbolic metric
    ``base`` has about the total area ``area``, or None when ``area`` or the
    estimate ``A_E`` below is not a positive finite number.

    A small hyperbolic triangle has about the Euclidean area of the triangle
    with sides ``2 sinh(l / 2)``, and :func:`deform_metric` scales each
    ``sinh(l / 2)`` by ``exp(2 u0)``, so that area by ``exp(4 u0)``: ``u0 =
    log(area / A_E) / 4`` with ``A_E`` the Heron area sum of those
    triangles. A face whose ``2 sinh(l / 2)`` sides break the triangle
    inequality (a large hyperbolic triangle) adds nothing to ``A_E``.
    """
    if not area > 0.0:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c = (2.0 * np.sinh(0.5 * opposite_lengths(base, mesh))).T
        heron = (a + b + c) * (b + c - a) * (c + a - b) * (a + b - c)
        euclidean = 0.25 * float(np.sqrt(np.maximum(heron, 0.0)).sum())
    if not 0.0 < euclidean < np.inf:
        return None
    return 0.25 * (np.log(area) - np.log(euclidean))


def _start(mesh, base, target):
    """The flow's first state ``(u, metric, angles, K, residual)``.

    A Euclidean flow starts at ``u = 0``: a uniform scale changes no angle.
    A hyperbolic flow starts at the uniform factor of
    :func:`_gauss_bonnet_scale` for the Gauss-Bonnet area ``sum(Kbar) - 2 pi
    chi`` when the metric there passes a Newton trial's test (admissible, and
    a lower residual than at ``u = 0``), else at ``u = 0``.
    """
    u = np.zeros(mesh.n_vertices)
    current = deform_metric(mesh, base, u)
    state = (u, current, *_evaluate(mesh, current, target))
    if base.geometry == Geometry.EUCLIDEAN:
        return state
    area = float(target.sum()) - 2.0 * np.pi * euler_characteristic(mesh)
    u0 = _gauss_bonnet_scale(mesh, base, area)
    if u0 is None:
        return state
    u = np.full(mesh.n_vertices, u0)
    try:
        current = deform_metric(mesh, base, u)
        scaled = (u, current, *_evaluate(mesh, current, target))
    except MetricError:
        return state
    return scaled if scaled[-1] < state[-1] else state


def run_flow(mesh, metric, target, geometry, options=FlowOptions()):
    """Drive the discrete metric to the prescribed curvature by damped
    Newton iterations.

    A hyperbolic flow starts at its Gauss-Bonnet scale when that start
    passes a Newton trial's test (:func:`_start`), a Euclidean one at
    ``u = 0``; ``report.residuals[0]`` is the residual there, and ``u``
    is the total factor from the input metric either way.

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

    Returns a :class:`FlowResult`; raises :class:`FlowError` on a target
    that is not finite (naming its first 16 such vertices) or infeasible,
    and, with the partial report attached, on a failed line search, an
    inadmissible metric after surgery, or a non-converged budget.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (mesh.n_vertices,):
        raise ValueError("target must assign one curvature per vertex")
    bad = np.flatnonzero(~np.isfinite(target))
    if bad.size:
        raise FlowError(f"target curvature is not finite at vertices "
                        f"{bad[:16].tolist()}")
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
    u, current, angles, K, res = _start(mesh, base, target)
    residuals = [res]
    swaps = halvings = iterations = 0
    failure = None
    # The LU of the latest factored Hessian, reused by later Newton steps
    # until surgery changes the mesh.
    factor = NewtonFactor()

    while res >= options.eps and iterations < options.max_iterations:
        H = assemble_hessian(mesh, current, angles=angles)
        du, factor = newton_step(H, target - K, geometry, factor,
                                 options.eps)
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
                        mesh, current, longest_edges(
                            mesh.twin, trial.lengths[mesh.edge_of_halfedge],
                            exc.faces))
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
