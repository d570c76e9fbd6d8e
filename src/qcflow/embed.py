"""Isometric layout of flat and hyperbolic metrics into the plane or the
Poincare disk, plus flat-torus period extraction from a cut-open layout.

The layout develops the metric along the breadth-first dual spanning tree
from face 0: every face is laid out in its own frame, its entry edge from
the origin along the positive real axis and its third corner on the ray at
its corner angle there, all faces at once, and each face's rigid motion
into its parent's frame (a Mobius transformation in the disk) is composed
down to face 0's frame by pointer jumping, in ``ceil(log2(depth))`` array
rounds. Face 0's first edge is the seed; every other vertex is placed by
the first face in breadth-first order that has it opposite its entry edge.
A face's own triangle always fits in its frame, so an admissible flat
metric on a disk always lays out, up to the disk's float64 resolution near
its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beltrami import Parameterization
from .errors import LayoutError, MetricError
from .geom import _Disk, _Plane, _complex
from .mesh import dual_bfs, euler_characteristic
from .metric import (
    Geometry,
    check_triangle_inequality,
    corner_angles,
    cosine_law,
    vertex_curvature,
)

_FLATNESS_TOL = 1e-6
# Torus periods: translations closer than this share of the layout diameter
# are equal.
_PERIOD_TOL = 1e-6


@dataclass(frozen=True)
class TorusPeriods:
    """Deck-lattice translations of a flattened genus-1 surface."""

    za: complex
    zb: complex

    def __post_init__(self):
        if abs((np.conj(self.za) * self.zb).imag) <= 0.0:
            raise ValueError("periods must be linearly independent over R")

    def to_json_dict(self):
        return {"za": [self.za.real, self.za.imag],
                "zb": [self.zb.real, self.zb.imag]}


def _check_disk(mesh):
    chi = euler_characteristic(mesh)
    if chi != 1 or len(mesh.boundary_loops) != 1:
        raise LayoutError(
            f"layout requires a topological disk (chi={chi}, "
            f"boundaries={len(mesh.boundary_loops)})")


def _check_flat(mesh, angles):
    K = vertex_curvature(angles, mesh)
    interior = ~mesh.boundary_vertex_mask()
    if interior.any():
        worst = float(np.max(np.abs(K[interior])))
        if worst > _FLATNESS_TOL:
            v = int(np.argmax(np.abs(np.where(interior, K, 0.0))))
            raise LayoutError(
                f"interior vertex {v} has curvature {worst:.3e}; the metric "
                "must be flat to embed",
                faces=sorted(h // 3 for h in mesh.outgoing_halfedges(v)))


def _layout(mesh, metric, space):
    """Vertex coordinates of a flat disk metric, developed along the
    breadth-first dual spanning tree from face 0 (:func:`dual_bfs`) in
    ``space``, :class:`~qcflow.geom._Plane` or :class:`~qcflow.geom._Disk`.
    Raises unless the mesh is a disk and the metric admissible and flat.

    Every face has its own frame: its entry halfedge (for face 0 its
    halfedge 0) runs from 0 to ``radius(l)`` on the real axis and its third
    corner is ``radius(l_prev) e^{i theta}``, ``l_prev`` the length of the
    halfedge before the entry and ``theta`` the face's corner angle at 0,
    ``cos theta`` by the cosine law as :func:`corner_angles` has it and
    ``sin theta`` its root ``sqrt((1 - cos)(1 + cos))``. In the disk a
    geodesic from 0 is a ray and hyperbolic distance ``l`` from 0 is
    modulus ``tanh(l / 2)``, so the rule is the plane's. A face's motion
    into its parent's frame sends the entry edge onto the twin halfedge
    there. The motions compose to face 0's frame, the layout's, by pointer
    jumping: each round composes every face's motion with its ancestor's
    and doubles the stride, ``ceil(log2(depth))`` rounds in all. Face 0's
    first edge is the seed, from 0 to ``radius(l01)``; every other vertex is
    placed by the first face in breadth-first order that has it opposite
    its entry edge.
    """
    _check_disk(mesh)
    bad = check_triangle_inequality(metric, mesh)
    if bad:
        raise MetricError(f"metric inadmissible on faces {bad[:16]}", faces=bad)
    _check_flat(mesh, corner_angles(metric, mesh))

    entry = dual_bfs(mesh)
    length = metric.lengths[mesh.edge_of_halfedge]
    after, before = mesh.next(entry), mesh.prev(entry)
    # The first face in breadth-first order that has a vertex opposite its
    # entry edge places it (written in reverse, the last write wins).
    vertex = mesh.faces.ravel()[before]
    placer = np.full(mesh.n_vertices, -1)
    placer[vertex[::-1]] = np.arange(len(entry))[::-1]
    seed = mesh.faces[0, :2]
    placer[seed] = -1
    placed = np.flatnonzero(placer >= 0)
    if placed.size + 2 < mesh.n_vertices:
        raise LayoutError("mesh is not face-connected")

    base = space.radius(length[entry])
    # where each halfedge starts in its face's frame; corner_angles has
    # admitted every corner, so |cos| < 1
    start = np.zeros(3 * mesh.n_faces, dtype=np.complex128)
    start[after] = base
    apex = space.radius(length[before])
    cos = cosine_law(metric.geometry, length[after], length[before],
                     length[entry])
    start[before] = _complex(apex * cos,
                             apex * np.sqrt((1.0 - cos) * (1.0 + cos)))
    # In the disk, a vertex that runs out of float64 range fails the
    # unit-disk check.
    with np.errstate(all="ignore"):
        twin = mesh.twin[entry[1:]]
        p, q = space.motion(start[mesh.next(twin)], start[twin])
        p, q = np.r_[1.0 + 0j, p], np.r_[0j, q]  # face 0: the identity
        position = np.empty(mesh.n_faces, dtype=np.intp)
        position[entry // 3] = np.arange(len(entry))
        up = np.r_[0, position[twin // 3]]
        while up.any():
            p, q = space.compose((p[up], q[up]), (p, q))
            up = up[up]

        at = placer[placed]
        z = space.apply((p[at], q[at]), start[before[at]])
    coords = np.empty(mesh.n_vertices, dtype=np.complex128)
    coords[seed] = 0.0, base[0]
    coords[placed] = z
    return coords


def layout_euclidean(mesh, metric):
    """Isometric plane layout of a flat Euclidean metric on a disk.

    The first edge of the first face is seeded from the origin to ``l01``
    on the positive real axis. Every face is laid out in its own frame and
    moved into the first face's by the rigid motions composed along the
    breadth-first dual spanning tree, in log-depth array rounds; each
    further vertex, that face's third corner included, comes from the first
    face in breadth-first order that has it opposite its entry edge. Every
    embedded edge reproduces its metric length (to roundoff-level drift).
    """
    if metric.geometry != Geometry.EUCLIDEAN:
        raise MetricError("layout_euclidean requires a Euclidean metric")
    return Parameterization(_layout(mesh, metric, _Plane), Geometry.EUCLIDEAN)


def layout_hyperbolic(mesh, metric):
    """Poincare-disk layout of a hyperbolically flat metric on a disk.

    Seeds the first edge of the first face at ``tau(v0) = 0`` and
    ``tau(v1) = tanh(l01 / 2)`` and develops the faces as
    :func:`layout_euclidean` does, with Mobius transformations for the
    motions: in its own frame a face's third corner lies on the ray at its
    corner angle, at modulus ``tanh(l / 2)`` for its distance ``l`` from
    the origin. A vertex that rounds to ``|tau| >= 1`` (or to NaN, past a
    frame there) raises a :class:`LayoutError` naming the faces around it.
    """
    if metric.geometry != Geometry.HYPERBOLIC:
        raise MetricError("layout_hyperbolic requires a hyperbolic metric")
    coords = _layout(mesh, metric, _Disk)
    outside = ~(np.abs(coords) < 1.0)  # NaN too
    if outside.any():
        raise LayoutError(
            f"layout escaped the unit disk: {outside.sum()} vertices at "
            "|tau| >= 1, where float64 runs out of resolution",
            faces=np.flatnonzero(outside[mesh.faces].any(axis=1)).tolist())
    return Parameterization(coords, Geometry.HYPERBOLIC)


def torus_periods(mesh, cut, layout):
    """Deck translations of a flattened genus-1 surface cut along two loops.

    Every cut edge has two copies in the cut-open layout; their images must
    differ by a single constant translation per loop (checked against
    ``_PERIOD_TOL`` times the layout diameter). The two shortest independent
    translations are returned as the lattice basis.
    """
    z = np.asarray(getattr(layout, "coords", layout), dtype=np.complex128)
    finite = z[np.isfinite(z)]
    scale = float(np.abs(finite - finite.mean()).max()) * 2.0 or 1.0
    eps, near = _PERIOD_TOL * scale, 10.0 * _PERIOD_TOL * scale

    translations = []
    for oe, ((a1, b1), (a2, b2)) in sorted(cut.edge_copy_pairs.items()):
        t1 = z[a2] - z[a1]
        t2 = z[b2] - z[b1]
        if abs(t1 - t2) > eps:
            raise LayoutError(
                f"cut edge {oe}: copies differ by a non-constant translation "
                f"({t1:.6g} vs {t2:.6g})")
        translations.append(0.5 * (t1 + t2))

    clusters = []  # [sum, count]
    for t in translations:
        if abs(t) <= eps:
            continue
        if t.real < -eps or (abs(t.real) <= eps and t.imag < 0.0):
            t = -t
        for c in clusters:
            if abs(t - c[0] / c[1]) <= near:
                c[0] += t
                c[1] += 1
                break
        else:
            clusters.append([t, 1])
    means = sorted((c[0] / c[1] for c in clusters),
                   key=lambda w: (abs(w), w.real, w.imag))

    if len(means) not in (2, 3):
        raise LayoutError(
            f"expected two independent cut loops, found {len(means)} "
            "distinct translations")
    za, zb = means[0], means[1]
    if len(means) == 3:
        t3 = means[2]
        combos = [za + zb, za - zb]
        if not any(abs(t3 - w) <= near or
                   abs(t3 + w) <= near for w in combos):
            raise LayoutError(
                "three cut-loop translations are not lattice-consistent")
    if abs((np.conj(za) * zb).imag) <= eps * scale:
        raise LayoutError("cut-loop translations are linearly dependent")

    # Lagrange-Gauss reduction: the cut loops give *a* basis of the deck
    # lattice; return the canonical shortest one.
    za, zb = complex(za), complex(zb)
    while True:
        if abs(za) > abs(zb):
            za, zb = zb, za
        shift = round((np.conj(za) * zb).real / abs(za) ** 2)
        if shift == 0:
            break
        zb = zb - shift * za
    return TorusPeriods(za, zb)
