"""Discrete-metric algebra: cosine laws in Euclidean and hyperbolic
background geometry, corner angles, angle-deficit curvature, areas,
Gauss-Bonnet validation and conformal metric deformation.

Conventions: a metric assigns a positive length to every edge id of a mesh.
Per-vertex scalars (conformal factors, curvatures) are plain float arrays
indexed by vertex id. Corner angles are reported as an (F, 3) array where
column ``s`` is the angle at the face's ``s``-th vertex.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import MetricError
from .mesh import euler_characteristic

# A face is inadmissible when a corner cosine reaches +-(1 + _COS_GUARD): at
# +-1 its angle is 0 or pi, and the cotangents of the flow's Hessian divide
# by sin(angle) = 0.
_COS_GUARD = 0.0


class Geometry(enum.Enum):
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class DiscreteMetric:
    """Edge-length assignment plus background-geometry tag.

    Only the lengths are validated; the per-face triangle inequalities are
    checked by the callers that need them (:func:`check_triangle_inequality`
    or the :class:`MetricError` of :func:`corner_angles`), because the flow
    loop reads the violating faces to trigger damping/surgery.
    """

    geometry: Geometry
    lengths: np.ndarray

    def __post_init__(self):
        lengths = np.ascontiguousarray(self.lengths, dtype=np.float64)
        object.__setattr__(self, "lengths", lengths)
        if lengths.ndim != 1:
            raise MetricError("lengths must be a 1-d array over edge ids")
        if not np.isfinite(lengths).all():
            raise MetricError("metric contains non-finite lengths")
        if lengths.size and lengths.min() <= 0.0:
            raise MetricError("metric contains non-positive lengths")

    def retagged(self, geometry):
        """Same lengths reinterpreted in another background geometry."""
        if geometry == self.geometry:
            return self
        return DiscreteMetric(geometry, self.lengths)


def induced_metric(mesh):
    """Euclidean metric induced by the mesh's 3D embedding. Raises a
    :class:`MetricError` naming the faces of its non-finite edges (a vertex
    position that is not finite, or a length past the float range) or, when
    there are none, of its zero-length edges."""
    if mesh.positions is None:
        raise MetricError("mesh has no vertex positions")
    with np.errstate(invalid="ignore", over="ignore"):
        lengths = np.linalg.norm(mesh.positions[mesh.edges[:, 0]]
                                 - mesh.positions[mesh.edges[:, 1]], axis=1)
    for what, bad in (("non-finite", ~np.isfinite(lengths)),
                      ("zero-length", lengths <= 0.0)):
        edges = np.flatnonzero(bad)
        if edges.size:
            h = mesh.edge_halfedges[edges].ravel()
            raise MetricError(f"{what} edges {edges.tolist()}",
                              faces=np.unique(h[h >= 0] // 3).tolist())
    return DiscreteMetric(Geometry.EUCLIDEAN, lengths)


def opposite_lengths(metric, mesh):
    """(F, 3) array: entry ``[f, s]`` is the length of the edge opposite the
    face's ``s``-th corner."""
    per_halfedge = metric.lengths[mesh.edge_of_halfedge].reshape(-1, 3)
    return per_halfedge[:, [1, 2, 0]]


def check_triangle_inequality(metric, mesh):
    """Face ids violating the strict triangle inequality (empty iff
    admissible)."""
    return np.nonzero(_violates(opposite_lengths(metric, mesh)))[0].tolist()


def _violates(L):
    """Mask of the rows of the ``(n, 3)`` side lengths ``L`` that break the
    strict triangle inequality; each row's sides may come in any order."""
    return (
        (L[:, 0] >= L[:, 1] + L[:, 2])
        | (L[:, 1] >= L[:, 2] + L[:, 0])
        | (L[:, 2] >= L[:, 0] + L[:, 1])
    )


def cosine_law(geometry, a, b, c):
    """Cosine of the angle opposite side ``a`` of the triangle with sides
    ``a, b, c``, elementwise; outside ``[-1, 1]`` when the triangle
    inequality fails."""
    if geometry == Geometry.EUCLIDEAN:
        return (b * b + c * c - a * a) / (2.0 * b * c)
    # cosh b cosh c - cosh a with cosh x = 1 + 2 sinh^2(x / 2): the ones
    # cancel exactly, where on small faces the cosh products lose them.
    a2, b2, c2 = (np.square(np.sinh(0.5 * x)) for x in (a, b, c))
    return 2.0 * (b2 + c2 - a2 + 2.0 * b2 * c2) / (np.sinh(b) * np.sinh(c))


def opposite_side(geometry, b, c, angle):
    """Side opposite ``angle`` between sides ``b`` and ``c``, elementwise:
    the inverse of :func:`cosine_law`."""
    if geometry == Geometry.EUCLIDEAN:
        return np.sqrt(b * b + c * c - 2.0 * b * c * np.cos(angle))
    # cosh a = cosh(b - c) + 2 sinh b sinh c sin^2(angle / 2), with cosh x =
    # 1 + 2 sinh^2(x / 2): the ones cancel exactly, where on small faces the
    # cosh products lose them.
    return 2.0 * np.arcsinh(np.sqrt(
        np.square(np.sinh(0.5 * (b - c)))
        + np.sinh(b) * np.sinh(c) * np.square(np.sin(0.5 * angle))))


def corner_angles(metric, mesh):
    """Corner angles of every face under the metric's cosine law.

    Euclidean faces satisfy angle sum pi; hyperbolic faces have angle sum
    strictly below pi. Raises :class:`MetricError` naming the inadmissible
    faces: those that break the strict triangle inequality or, when none
    does, those with a corner cosine at or beyond +-1, whose angle would be
    0 or pi.
    """
    L = opposite_lengths(metric, mesh)
    violations = np.nonzero(_violates(L))[0].tolist()
    if violations:
        raise MetricError(
            f"triangle inequality violated on faces {violations[:16]}"
            + ("..." if len(violations) > 16 else ""),
            faces=violations)
    cos = cosine_law(metric.geometry, L, np.roll(L, -1, axis=1),
                     np.roll(L, -2, axis=1))
    limit = 1.0 + _COS_GUARD
    if np.abs(cos).max(initial=0.0) >= limit:
        flat = np.flatnonzero(np.abs(cos).max(axis=1) >= limit)
        raise MetricError(
            f"corner angle 0 or pi on faces {flat[:16].tolist()}"
            + ("..." if flat.size > 16 else ""),
            faces=flat.tolist())
    return np.arccos(cos)


def vertex_curvature(angles, mesh):
    """Discrete Gaussian curvature: 2*pi (interior) or pi (boundary) minus
    the incident corner-angle sum."""
    K = np.where(mesh.boundary_vertex_mask(), np.pi, 2.0 * np.pi)
    np.subtract.at(K, mesh.faces.ravel(), np.asarray(angles).ravel())
    return K


def face_areas(metric, mesh, angles=None):
    """Areas of all faces: Heron's formula (Euclidean) or angle deficit
    pi - sum of angles (hyperbolic)."""
    if metric.geometry == Geometry.HYPERBOLIC:
        if angles is None:
            angles = corner_angles(metric, mesh)
        return np.pi - np.asarray(angles).sum(axis=1)
    L = np.sort(opposite_lengths(metric, mesh), axis=1)[:, ::-1]
    a, b, c = L[:, 0], L[:, 1], L[:, 2]
    s = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
    bad = np.nonzero(s < 0.0)[0]
    if bad.size:
        raise MetricError(f"triangle inequality violated on faces {bad.tolist()}",
                          faces=bad)
    return 0.25 * np.sqrt(s)


def gauss_bonnet_residual(metric, mesh):
    """sum(K) + lambda * sum(area) - 2*pi*chi with lambda = 0 (Euclidean)
    or -1 (hyperbolic); approximately zero for every consistent metric."""
    angles = corner_angles(metric, mesh)
    K = vertex_curvature(angles, mesh)
    chi = euler_characteristic(mesh)
    total = float(K.sum())
    if metric.geometry == Geometry.HYPERBOLIC:
        total -= float(face_areas(metric, mesh, angles=angles).sum())
    return total - 2.0 * np.pi * chi


def deform_metric(mesh, base, u):
    """Conformally deform a metric by per-vertex factors ``u``.

    Euclidean: ``L_ab = exp(u_a) * l_ab * exp(u_b)``.
    Hyperbolic: ``L_ab = 2 * asinh(exp(u_a + u_b) * sinh(l_ab / 2))``.

    Only the lengths are checked: the result may violate triangle
    inequalities and callers must validate before using it.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (mesh.n_vertices,):
        raise ValueError("u must assign one factor per vertex")
    if not np.isfinite(u).all():
        raise MetricError("conformal factor contains non-finite values")
    s = u[mesh.edges[:, 0]] + u[mesh.edges[:, 1]]
    with np.errstate(over="raise"):
        try:
            if base.geometry == Geometry.EUCLIDEAN:
                lengths = base.lengths * np.exp(s)
            else:
                lengths = 2.0 * np.arcsinh(np.exp(s) * np.sinh(0.5 * base.lengths))
        except FloatingPointError as exc:
            raise MetricError(f"conformal deformation overflowed: {exc}") from exc
    return DiscreteMetric(base.geometry, lengths)
