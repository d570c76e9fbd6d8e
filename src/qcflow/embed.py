"""Isometric layout of flat and hyperbolic metrics into the plane or the
Poincare disk, plus flat-torus period extraction from a cut-open layout.

The layout is level-synchronous: it walks the dual graph breadth-first from
face 0 and places all faces of one level in one array batch. Each vertex is
placed once, by the first face in breadth-first order that has it free,
across that face's entry edge; the result is the one a face-by-face
breadth-first loop gives, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beltrami import Parameterization
from .errors import LayoutError, MetricError
from .geom import apex_over_base, place_third_euclidean, place_third_hyperbolic
from .mesh import dual_bfs, euler_characteristic
from .metric import (
    Geometry,
    check_triangle_inequality,
    corner_angles,
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
                "must be flat to embed")


def _layout(mesh, metric, seed, place):
    """Vertex coordinates of a flat disk metric: face 0 is seeded, then each
    breadth-first level of the dual graph is placed in one batch. Raises
    unless the mesh is a disk and the metric admissible and flat.

    A face reached across its entry halfedge (from ``va`` to ``vb``) has
    both of those vertices placed, since they belong to the face it was
    reached from, in an earlier level. Its third corner ``vc`` is placed by
    the first face in breadth-first order that has it opposite its entry
    edge, from ``va``, ``vb`` and the lengths of its edges to them.
    """
    _check_disk(mesh)
    bad = check_triangle_inequality(metric, mesh)
    if bad:
        raise MetricError(f"metric inadmissible on faces {bad[:16]}", faces=bad)
    angles = corner_angles(metric, mesh)
    _check_flat(mesh, angles)

    lengths = metric.lengths
    edge = mesh.edge_of_halfedge
    corner = mesh.faces.ravel()
    coords = np.full(mesh.n_vertices, np.nan + 0j, dtype=np.complex128)
    l01, l12, l20 = (float(lengths[edge[h]]) for h in range(3))
    coords[corner[:3]] = seed(l01, l12, l20, angles[0])

    levels = list(dual_bfs(mesh))
    entry = np.concatenate([np.zeros(0, dtype=np.int64)] + levels)
    opposite = mesh.prev(entry)
    first = np.unique(corner[opposite], return_index=True)[1]
    first = np.sort(first[~np.isin(corner[opposite[first]], corner[:3])])
    entry, opposite = entry[first], opposite[first]
    vc, va, vb = corner[opposite], corner[entry], corner[mesh.next(entry)]
    la, lb = lengths[edge[opposite]], lengths[edge[mesh.next(entry)]]

    ends = np.searchsorted(first, np.cumsum([len(lv) for lv in levels]))
    for start, stop in zip(np.r_[0, ends[:-1]], ends):
        if stop > start:
            at = slice(start, stop)
            coords[vc[at]] = place(coords[va[at]], coords[vb[at]], la[at],
                                   lb[at])

    if len(vc) + 3 < mesh.n_vertices:
        raise LayoutError("mesh is not face-connected")
    return coords


def layout_euclidean(mesh, metric):
    """Isometric plane layout of a flat Euclidean metric on a disk.

    The first face is seeded with its first vertex at the origin and its
    second on the positive real axis; every further vertex is placed, one
    breadth-first level at a time, on the counter-clockwise side of an
    already-embedded edge of the first face in level order that has it free.
    Every embedded edge reproduces its metric length (to roundoff-level
    drift).
    """
    if metric.geometry != Geometry.EUCLIDEAN:
        raise MetricError("layout_euclidean requires a Euclidean metric")

    def seed(l01, l12, l20, _angles):
        return (0.0 + 0j, l01 + 0j, complex(*apex_over_base(l01, l20, l12)))

    coords = _layout(mesh, metric, seed, place_third_euclidean)
    return Parameterization(coords, Geometry.EUCLIDEAN)


def layout_hyperbolic(mesh, metric):
    """Poincare-disk layout of a hyperbolically flat metric on a disk.

    Seeds the first face at ``tau(v0) = 0``, ``tau(v1) = tanh(l01 / 2)``,
    ``tau(v2) = tanh(l02 / 2) e^{i theta_0}`` and propagates one
    breadth-first level at a time, with the same placing-face rule as
    :func:`layout_euclidean`: each vertex is the apex over its entry edge
    in the Mobius frame of that edge (:func:`place_third_hyperbolic`), on
    the side that keeps the face's orientation positive.
    """
    if metric.geometry != Geometry.HYPERBOLIC:
        raise MetricError("layout_hyperbolic requires a hyperbolic metric")

    def seed(l01, l12, l20, face_angles):
        return (0.0 + 0j,
                np.tanh(0.5 * l01) + 0j,
                np.tanh(0.5 * l20) * np.exp(1j * face_angles[0]))

    coords = _layout(mesh, metric, seed, place_third_hyperbolic)
    radius = np.abs(coords)
    if radius.max() >= 1.0:
        raise LayoutError(
            f"layout escaped the unit disk (max |tau| = {radius.max():.6f})")
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
