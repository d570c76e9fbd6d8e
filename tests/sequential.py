"""Sequential reference implementations, kept as test oracles.

These are the scalar twin of the layout's development (the breadth-first
dual tree searched face by face, every face's frame and motion, and the
pointer-jumping rounds, each composition written out in the same real
arithmetic), the per-vertex cut loops with the ``CutGraph`` record they
built (the package now reads a cut off the uncut and the cut mesh by
halfedge slot), the scalar placement primitives
that the array code in ``qcflow.geom``, ``qcflow.embed`` and
``qcflow.mesh`` replaced, and the line-by-line OBJ reader and writer and
entry-by-entry mu JSON and CSV code that the bulk text I/O in
``qcflow.mesh``, ``qcflow.beltrami`` and ``qcflow.pipeline`` replaced. The
new code must reproduce them bit for bit; see
``test_sequential_oracle.py``.

It keeps the face-by-face layout that the development replaced, which
places each vertex from the coordinates of two placed ones, as the
development's independent reference: the two agree to the flatness of the
metric times the layout's size.

It also keeps the quad layouts with which ``qcflow.flow.edge_swap`` used to
decide and measure a flip, before the corner-angle rule replaced them; there
the new code must take the same decisions and agree to rounding.

The face-by-face layout names the face at which a placement fails: its
scalar placements intersect two circles about placed vertices and raise
where they do not meet. The development places every corner in its own
face's frame, on the ray at its corner angle, where an admissible triangle
always fits; in that frame the scalar placements are the independent check
of the corner-angle rule.

And it keeps the construction with which the hyperbolic placement used to
place a vertex in the Poincare disk before the Mobius-frame placement
replaced it: the two Euclidean images of the hyperbolic circles
intersected, one of the two candidates picked by a side test and an
in-disk test, and a law-of-cosines fallback for near-tangent circles. It
intersects the circles in the disk itself, not in the frame of the base,
so it checks the corner-angle apex, moved onto a base anywhere in the
disk, independently.

And it keeps the Hessian as a dense sum of per-face blocks, the assembly
that ``qcflow.flow.assemble_hessian`` does by edges and vertices on a
pattern built once per mesh: the two agree to rounding.

And it keeps the Newton loop of ``qcflow.flow.run_flow`` as it was before
the line search became one ``for`` loop with a single exit: flag-driven
backtracking, a report built at each of its three exits. The flat loop must
give the same report field by field, the same result mesh and metric bit
for bit, or the same ``FlowError`` message and report.

And it keeps the edge swap as it was before flips were made in place on
halfedge arrays: ``edge_swap`` that rebuilds a canonically numbered mesh
from the patched twin pairing after every swap and carries the lengths to
the new ids, the longest-edge pick by edge id, the in-flow loop that names
its edges by vertex pair, and the pre-flow loop that measures the whole
auxiliary metric and checks every face after every swap. The in-place
flips, built into a mesh once per loop, must give the same meshes, lengths
and swap counts bit for bit, or the same error.

And it keeps the OBJ reader as it was before every file was read from a
table of line starts: each kind gathered from the whole text by one
regular expression, and the twin lookup of
``build_mesh`` before its sort by undirected edge. The reader must give the
same arrays bit for bit, or the same error, and the sort the same twins.

And it keeps ``qcflow.beltrami.auxiliary_metric`` as it was when it read a
per-vertex ``z`` one edge at a time, and the push-scale-average step with
which ``qcmap`` used to build the auxiliary metric of a cut chart. On a
single-valued chart the per-halfedge form must give the same lengths bit
for bit; on a cut chart it must agree with the copy average to rounding.
"""

import json
import re
from collections import deque
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter, methodcaller

import numpy as np

from meshes import cut_record, dest, edge_id, hyperbolic_distance, origin
from qcflow import beltrami
from qcflow.beltrami import BeltramiField, Parameterization
from qcflow.embed import _check_disk, _check_flat
from qcflow.errors import (
    BeltramiError,
    FlowError,
    LayoutError,
    MetricError,
    ParseError,
    SurgeryError,
    TopologyError,
)
from qcflow.flow import (
    _MAX_HALVINGS,
    _SURGERY_AFTER_HALVINGS,
    FlowOptions,
    FlowReport,
    FlowResult,
    NewtonFactor,
    _gauss_bonnet_scale,
    angle_derivatives,
    assemble_hessian,
    newton_step,
)
from qcflow.mesh import _vertex_uv, build_mesh, euler_characteristic
from qcflow.metric import (
    DiscreteMetric,
    Geometry,
    check_triangle_inequality,
    corner_angles,
    cosine_law,
    deform_metric,
    opposite_side,
    vertex_curvature,
)
from qcflow.pipeline import _PRE_SURGERY_ROUNDS

# relative slack accepted when a circle-circle intersection is near-tangent
_TANGENT_SLACK = 1e-9


def mobius_to_origin(c, z):
    """The disk automorphism sending ``c`` to 0, applied to ``z``."""
    return (z - c) / (1.0 - np.conj(c) * z)


def mobius_from_origin(c, w):
    """Inverse of :func:`mobius_to_origin`."""
    return (w + c) / (1.0 + np.conj(c) * w)


def poincare_circle_to_euclidean(c, r):
    """Euclidean (center, radius) of the hyperbolic circle (c, r).

    With ``m = tanh(r/2)``: center ``(1 - m^2) c / (1 - m^2 |c|^2)`` and
    radius from ``R^2 = |C|^2 - (|c|^2 - m^2) / (1 - m^2 |c|^2)``.
    """
    c = complex(c)
    m = np.tanh(0.5 * r)
    m2 = m * m
    cc = (c * c.conjugate()).real
    denom = 1.0 - m2 * cc
    center = (1.0 - m2) / denom * c
    r2 = (center * center.conjugate()).real - (cc - m2) / denom
    return center, float(np.sqrt(max(r2, 0.0)))


def place_third_euclidean(pa, pb, la, lb):
    """Point at distance ``la`` from ``pa`` and ``lb`` from ``pb`` on the
    counter-clockwise side of the segment ``pa -> pb``.

    Computed in the local frame of the base edge (equivalently, by the
    law-of-cosines angle construction), which stays well conditioned for
    near-tangent circles.
    """
    chord = pb - pa
    d = abs(chord)
    if d <= 0.0:
        raise LayoutError("degenerate base edge")
    x = (d * d + la * la - lb * lb) / (2.0 * d)
    h2 = la * la - x * x
    if h2 < -_TANGENT_SLACK * la * la:
        raise LayoutError(
            f"circle intersection failed (la={la}, lb={lb}, base={d})")
    y = np.sqrt(max(h2, 0.0))
    return pa + (x + 1j * y) * (chord / d)


def _euclidean_circle_intersection(c1, r1, c2, r2):
    """Both intersection points of two Euclidean circles, or None when
    near-tangent/ill-conditioned."""
    chord = c2 - c1
    d = abs(chord)
    if d <= 0.0:
        return None
    x = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - x * x
    if h2 < _TANGENT_SLACK * r1 * r1:
        return None
    y = np.sqrt(h2)
    u = chord / d
    return c1 + (x + 1j * y) * u, c1 + (x - 1j * y) * u


def place_third_hyperbolic(pa, pb, la, lb):
    """Hyperbolic analogue of :func:`place_third_euclidean`: the point at
    hyperbolic distance ``la`` from ``pa`` and ``lb`` from ``pb`` on the
    counter-clockwise side of the geodesic ``pa -> pb``.

    The plane's placement in the Mobius frame that moves ``pa`` to 0: the
    circle about ``pa`` is the circle of radius ``tanh(la / 2)`` about 0,
    the circle about ``w``, the image of ``pb``, has its Euclidean centre
    on the geodesic ray through ``w``; :func:`place_third_euclidean` places
    the point over that centre and it is mapped back. The centre is a NumPy
    scalar (its scale comes from ``np.tanh``), so the chord divides as in
    the array kernel; Python's complex division differs in the last bit.
    """
    w = mobius_to_origin(pa, pb)
    centre, radius = poincare_circle_to_euclidean(w, lb)
    apex = place_third_euclidean(0.0, centre, np.tanh(0.5 * la), radius)
    return mobius_from_origin(pa, apex)


def place_third_hyperbolic_circles(pa, pb, la, lb):
    """The construction the Mobius-frame placement replaced, kept as an
    independent check of the layout's apex: intersection of hyperbolic
    circles (pa, la) and (pb, lb) on the counter-clockwise side of the
    geodesic ``pa -> pb``.

    The circles are converted to their Euclidean counterparts and
    intersected; the side is selected in the Mobius frame centred at ``pa``
    (where the geodesic is a straight ray). Near-tangent configurations fall
    back to the hyperbolic law-of-cosines construction in that frame.
    """
    C1, R1 = poincare_circle_to_euclidean(pa, la)
    C2, R2 = poincare_circle_to_euclidean(pb, lb)
    ref = mobius_to_origin(pa, pb)
    candidates = _euclidean_circle_intersection(C1, R1, C2, R2)
    if candidates is not None:
        for cand in candidates:
            if abs(cand) >= 1.0:
                continue
            w = mobius_to_origin(pa, cand)
            if (w * ref.conjugate()).imag > 0.0:
                return cand
    # Fallback: angle at pa from the cosine law, laid out in the frame at pa.
    d = float(hyperbolic_distance(pa, pb))
    if d <= 0.0:
        raise LayoutError("degenerate base edge")
    arg = ((np.cosh(d) * np.cosh(la) - np.cosh(lb))
           / (np.sinh(d) * np.sinh(la)))
    if abs(arg) > 1.0 + _TANGENT_SLACK:
        raise LayoutError(
            f"hyperbolic circle intersection failed (la={la}, lb={lb}, base={d})")
    alpha = np.arccos(np.clip(arg, -1.0, 1.0))
    direction = ref / abs(ref)
    w = np.tanh(0.5 * la) * direction * np.exp(1j * alpha)
    return mobius_from_origin(pa, w)


def swapped_diagonal(geometry, edge, d, l_ik, l_jk, l_il, l_jl):
    """New diagonal of the quad over ``edge = (i, j)`` of length ``d``, with
    ``k`` and ``l`` laid out on either side of it; raises
    :class:`SurgeryError` for a degenerate or non-convex quad."""
    if geometry == Geometry.EUCLIDEAN:
        pk = place_third_euclidean(0.0 + 0j, d + 0j, l_ik, l_jk)
        pl = np.conj(place_third_euclidean(0.0 + 0j, d + 0j, l_il, l_jl))
        if pk.imag <= 0.0 or pl.imag >= 0.0:
            raise SurgeryError(f"degenerate quad at edge {edge}")
        cross = (pk.real * (-pl.imag) + pl.real * pk.imag) / (pk.imag - pl.imag)
        if not 0.0 < cross < d:
            raise SurgeryError(f"non-convex quad at edge {edge}")
        new_len = float(abs(pk - pl))
    else:
        base = np.tanh(0.5 * d)
        pk = place_third_hyperbolic(0.0 + 0j, base + 0j, l_ik, l_jk)
        pl = np.conj(place_third_hyperbolic(0.0 + 0j, base + 0j, l_il, l_jl))
        if pk.imag <= 0.0 or pl.imag >= 0.0:
            raise SurgeryError(f"degenerate quad at edge {edge}")
        cross = hyperbolic_segment_real_axis_crossing(pk, pl)
        if cross is None or not 0.0 < cross < base:
            raise SurgeryError(f"non-convex quad at edge {edge}")
        new_len = float(hyperbolic_distance(pk, pl))
    return new_len


def hyperbolic_segment_real_axis_crossing(k, l):
    """Real-axis crossing of the geodesic through ``k`` (upper half disk) and
    ``l`` (lower half disk), or None for the degenerate diameter case.

    The geodesic is the circle through k and l orthogonal to the unit circle;
    orthogonality forces its real-axis intersections x1, x2 to satisfy
    ``x1 * x2 = 1``, so exactly one lies inside the disk.
    """
    kx, ky = k.real, k.imag
    lx, ly = l.real, l.imag
    det = kx * ly - ky * lx
    scale = max(abs(k), abs(l))
    if abs(det) <= 1e-14 * scale * scale:
        # k, 0, l collinear: the geodesic is a diameter through the origin.
        return 0.0 if ky * ly < 0.0 else None
    bk = ((kx * kx + ky * ky) + 1.0) / 2.0
    bl = ((lx * lx + ly * ly) + 1.0) / 2.0
    mx = (bk * ly - bl * ky) / det
    my = (bl * kx - bk * lx) / det
    r2 = mx * mx + my * my - 1.0
    disc = r2 - my * my
    if disc < 0.0:
        return None
    root = np.sqrt(disc)
    for x in (mx - root, mx + root):
        if abs(x) < 1.0:
            return float(x)
    return None


def _layout_by_faces(mesh, metric, radius, place):
    _check_flat(mesh, corner_angles(metric, mesh))

    coords = np.full(mesh.n_vertices, np.nan + 0j, dtype=np.complex128)
    placed = np.zeros(mesh.n_vertices, dtype=bool)
    lengths = metric.lengths

    def place_corner(g, sc):
        # NumPy scalars, not Python complex: the chord division then
        # rounds as the array kernel's does, face 0's included
        va = int(mesh.faces[g, (sc + 1) % 3])
        vb = int(mesh.faces[g, (sc + 2) % 3])
        vc = int(mesh.faces[g, sc])
        la = float(lengths[mesh.edge_of_halfedge[3 * g + sc]])
        lb = float(lengths[mesh.edge_of_halfedge[3 * g + (sc + 2) % 3]])
        try:
            coords[vc] = place(coords[va], coords[vb], la, lb)
        except LayoutError as exc:
            raise LayoutError(
                f"cannot place vertex {vc} of face {g} from vertices "
                f"{va} and {vb}: no triangle with sides la={la}, "
                f"lb={lb} fits over them", faces=[g]) from exc
        placed[vc] = True

    v0, v1 = (int(v) for v in mesh.faces[0, :2])
    coords[v0] = 0.0
    coords[v1] = radius(float(lengths[mesh.edge_of_halfedge[0]]))
    placed[[v0, v1]] = True
    place_corner(0, 2)

    done = np.zeros(mesh.n_faces, dtype=bool)
    done[0] = True
    queue = deque([0])
    while queue:
        f = queue.popleft()
        for s in range(3):
            t = int(mesh.twin[3 * f + s])
            if t < 0:
                continue
            g = t // 3
            if done[g]:
                continue
            free = [sc for sc in range(3) if not placed[mesh.faces[g, sc]]]
            if len(free) > 1:
                continue  # not ready; reached again through another edge
            if len(free) == 1:
                place_corner(g, free[0])
            done[g] = True
            queue.append(g)

    if not placed.all():
        raise LayoutError("mesh is not face-connected")
    return coords


def dual_tree(mesh):
    """Entry halfedges of the breadth-first dual spanning tree from face 0,
    in first-in-first-out order, face by face: face 0 is entered across its
    halfedge 0, every other face across the twin of the first halfedge of
    a face before it that leads into it."""
    entry = {0: 0}
    queue = deque([0])
    while queue:
        f = queue.popleft()
        for h in range(3 * f, 3 * f + 3):
            t = int(mesh.twin[h])
            if t >= 0 and t // 3 not in entry:
                entry[t // 3] = t
                queue.append(t // 3)
    return list(entry.values())


# Complex numbers as (real, imaginary) pairs of floats, with the products
# written out as ``qcflow.geom._cmul`` writes them.

def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _conj(a):
    return a[0], -a[1]


class Plane:
    """Rigid motions ``z -> p z + q`` of the plane, as pairs ``(p, q)``."""

    radius = staticmethod(lambda length: length)

    @staticmethod
    def motion(a, b):
        c = b[0] - a[0], b[1] - a[1]
        d = np.hypot(*c)
        return (c[0] / d, c[1] / d), a

    @staticmethod
    def compose(outer, inner):
        (p, q), (r, s) = outer, inner
        return _mul(p, r), _add(_mul(p, s), q)

    @staticmethod
    def apply(motion, z):
        p, q = motion
        return _add(_mul(p, z), q)


class Disk:
    """Disk automorphisms ``z -> (p z + q) / (conj(q) z + conj(p))``, as
    pairs ``(p, q)`` with ``|p|^2 - |q|^2 = 1``."""

    radius = staticmethod(lambda length: np.tanh(0.5 * length))

    @staticmethod
    def motion(a, b):
        t = _mul(a, _conj(b))
        w = _mul((b[0] - a[0], b[1] - a[1]), (1.0 - t[0], 0.0 - t[1]))
        r = np.hypot(*w)
        p = (r + w[0], w[1]) if w[0] >= 0.0 else (w[1], r - w[0])
        return Disk.normalized(p, _mul(a, _conj(p)))

    @staticmethod
    def compose(outer, inner):
        (p, q), (r, s) = outer, inner
        return Disk.normalized(_add(_mul(p, r), _mul(q, _conj(s))),
                               _add(_mul(p, s), _mul(q, _conj(r))))

    @staticmethod
    def apply(motion, z):
        p, q = motion
        num = _add(_mul(p, z), q)
        den = _add(_mul(_conj(q), z), _conj(p))
        w = _mul(num, _conj(den))
        k = den[0] * den[0] + den[1] * den[1]
        return w[0] / k, w[1] / k

    @staticmethod
    def normalized(p, q):
        n = np.sqrt((p[0] * p[0] + p[1] * p[1]) - (q[0] * q[0] + q[1] * q[1]))
        return (p[0] / n, p[1] / n), (q[0] / n, q[1] / n)


def _develop(mesh, metric, space):
    """The development along the breadth-first dual spanning tree that
    ``qcflow.embed._layout`` computes in arrays, face by face and round by
    round: every face's frame, its motion into its parent's, then rounds of
    pointer jumping, each composing every face's motion with that of the
    face it points to and pointing it where that face points, all faces
    reading the motions of the round before, until every face points at
    face 0. A face's third corner lies on the ray at the corner angle of
    its entry edge's first end, at the radius of the edge before the entry
    edge, with the angle's cosine from the cosine law on NumPy scalars, as
    the array code has it."""
    _check_flat(mesh, corner_angles(metric, mesh))
    lengths = metric.lengths[mesh.edge_of_halfedge]
    entry = dual_tree(mesh)
    position = {h // 3: i for i, h in enumerate(entry)}
    start, apex = {}, []
    for h in entry:
        after, before = mesh.next(h), mesh.prev(h)
        base = space.radius(lengths[h])
        r = space.radius(lengths[before])
        c = cosine_law(metric.geometry, lengths[after], lengths[before],
                       lengths[h])
        apex.append((r * c, r * np.sqrt((1.0 - c) * (1.0 + c))))
        start[h], start[after] = (0.0, 0.0), (base, 0.0)
        start[before] = apex[-1]

    up, motions = [0], [((1.0, 0.0), (0.0, 0.0))]
    for h in entry[1:]:
        t = int(mesh.twin[h])
        up.append(position[t // 3])
        motions.append(space.motion(start[mesh.next(t)], start[t]))
    while any(up):
        motions = [space.compose(motions[u], m) for u, m in zip(up, motions)]
        up = [up[u] for u in up]

    coords = np.full(mesh.n_vertices, np.nan + 0j, dtype=np.complex128)
    v0, v1 = (int(v) for v in mesh.faces[0, :2])
    coords[v0], coords[v1] = 0.0, space.radius(lengths[0])
    placed = {v0, v1}
    for i, h in enumerate(entry):
        v = int(mesh.faces.flat[mesh.prev(h)])
        if v not in placed:
            placed.add(v)
            coords[v] = complex(*space.apply(motions[i], apex[i]))
    if len(placed) < mesh.n_vertices:
        raise LayoutError("mesh is not face-connected")
    return coords


def _checked(mesh, metric, geometry, name):
    if metric.geometry != geometry:
        raise MetricError(f"layout_{geometry.value} requires a {name} metric")
    _check_disk(mesh)
    bad = check_triangle_inequality(metric, mesh)
    if bad:
        raise MetricError(f"metric inadmissible on faces {bad[:16]}", faces=bad)


def _in_disk(mesh, coords):
    outside = ~(np.abs(coords) < 1.0)
    if outside.any():
        raise LayoutError(
            f"layout escaped the unit disk: {outside.sum()} vertices at "
            "|tau| >= 1, where float64 runs out of resolution",
            faces=np.flatnonzero(outside[mesh.faces].any(axis=1)).tolist())
    return Parameterization(coords, Geometry.HYPERBOLIC)


def layout_euclidean(mesh, metric):
    """Isometric plane layout of a flat Euclidean metric on a disk, by the
    scalar twin of the array development (:func:`_develop`)."""
    _checked(mesh, metric, Geometry.EUCLIDEAN, "Euclidean")
    return Parameterization(_develop(mesh, metric, Plane), Geometry.EUCLIDEAN)


def layout_hyperbolic(mesh, metric):
    """Poincare-disk layout of a hyperbolically flat metric on a disk, by
    the scalar twin of the array development (:func:`_develop`)."""
    _checked(mesh, metric, Geometry.HYPERBOLIC, "hyperbolic")
    with np.errstate(all="ignore"):
        coords = _develop(mesh, metric, Disk)
    return _in_disk(mesh, coords)


def layout_euclidean_by_faces(mesh, metric):
    """Isometric plane layout of a flat Euclidean metric on a disk, face by
    face: the layout the development replaced, kept as its independent
    reference.

    The first edge of the first face is seeded from the origin to ``l01``
    on the positive real axis; every further vertex, that face's third
    corner first, is placed breadth-first on the counter-clockwise side of
    an already-embedded edge. Every embedded edge reproduces its metric
    length (to roundoff-level drift).
    """
    _checked(mesh, metric, Geometry.EUCLIDEAN, "Euclidean")
    coords = _layout_by_faces(mesh, metric, lambda l01: l01,
                              place_third_euclidean)
    return Parameterization(coords, Geometry.EUCLIDEAN)


def layout_hyperbolic_by_faces(mesh, metric):
    """Poincare-disk layout of a hyperbolically flat metric on a disk, face
    by face, the independent reference of the development.

    Seeds the first edge of the first face at ``tau(v0) = 0`` and
    ``tau(v1) = tanh(l01 / 2)`` and propagates breadth-first, placing each
    further vertex, that face's third corner first, by the plane's
    placement in the Mobius frame of its entry edge, keeping each face's
    orientation positive.
    """
    _checked(mesh, metric, Geometry.HYPERBOLIC, "hyperbolic")
    coords = _layout_by_faces(mesh, metric, lambda l01: np.tanh(0.5 * l01),
                              place_third_hyperbolic)
    return _in_disk(mesh, coords)


def is_connected(mesh):
    seen = np.zeros(mesh.n_faces, dtype=bool)
    queue = deque([0])
    seen[0] = True
    while queue:
        f = queue.popleft()
        for s in range(3):
            t = mesh.twin[3 * f + s]
            if t >= 0 and not seen[t // 3]:
                seen[t // 3] = True
                queue.append(t // 3)
    return bool(seen.all())


@dataclass(frozen=True)
class CutGraph:
    """Record of a slicing operation.

    ``cut_edges`` are edge ids of the *original* mesh. ``new_to_orig_vertex``
    and ``new_to_orig_edge`` map ids of the cut-open mesh back to the
    original; ``edge_copy_pairs`` lists, for every cut edge in ascending
    order, its two copies as new-vertex endpoint pairs aligned with the
    original edge orientation, the copy along its smaller halfedge first.
    """

    cut_edges: tuple
    new_to_orig_vertex: np.ndarray
    new_to_orig_edge: np.ndarray
    edge_copy_pairs: dict


def slice_along_edges(mesh, edge_ids):
    """Cut the mesh open along a set of interior edges.

    Every vertex incident to ``k`` cut edges is split into ``k`` copies
    (``k+1`` for boundary vertices), one per fan sector delimited by the cut
    edges. Returns the cut-open mesh and the :class:`CutGraph` bookkeeping.
    """
    cut = np.zeros(mesh.n_edges, dtype=bool)
    for e in edge_ids:
        if mesh.edge_halfedges[e, 1] < 0:
            raise TopologyError(f"cannot slice along boundary edge {e}")
        cut[e] = True

    boundary = mesh.boundary_vertex_mask()
    corner_vertex = np.full((mesh.n_faces, 3), -1, dtype=np.int64)
    new_to_orig = []
    for v in range(mesh.n_vertices):
        ring = mesh.outgoing_halfedges(v)
        breaks = [t for t, h in enumerate(ring) if cut[mesh.edge_of_halfedge[h]]]
        if boundary[v]:
            bounds = [0] + [b for b in breaks if b != 0]
            sectors = [ring[bounds[i]:(bounds[i + 1] if i + 1 < len(bounds) else None)]
                       for i in range(len(bounds))]
        elif not breaks:
            sectors = [ring]
        else:
            sectors = []
            for i, b in enumerate(breaks):
                end = breaks[i + 1] if i + 1 < len(breaks) else breaks[0] + len(ring)
                sectors.append([ring[t % len(ring)] for t in range(b, end)])
        for sector in sectors:
            nid = len(new_to_orig)
            new_to_orig.append(v)
            for h in sector:
                corner_vertex[h // 3, h % 3] = nid

    new_to_orig = np.asarray(new_to_orig, dtype=np.int64)
    # Isolated interior cut edges would give duplicate oriented edges in the
    # cut mesh; detect early for a clear message.
    for e in np.nonzero(cut)[0]:
        a, b = mesh.edges[e]
        if (not boundary[a] and not boundary[b]
                and np.count_nonzero(new_to_orig == a) == 1
                and np.count_nonzero(new_to_orig == b) == 1):
            raise TopologyError(
                f"cut edge {int(e)} is isolated: slicing it would not open "
                "the mesh")

    positions = None
    if mesh.positions is not None:
        positions = mesh.positions[new_to_orig]
    new_mesh = build_mesh(corner_vertex, positions=positions)

    pair_to_orig_edge = {}
    for e, (a, b) in enumerate(mesh.edges):
        pair_to_orig_edge[frozenset((int(a), int(b)))] = e
    new_to_orig_edge = np.empty(new_mesh.n_edges, dtype=np.int64)
    copies = {}
    for e2, (a2, b2) in enumerate(new_mesh.edges):
        oa, ob = int(new_to_orig[a2]), int(new_to_orig[b2])
        oe = pair_to_orig_edge[frozenset((oa, ob))]
        new_to_orig_edge[e2] = oe
        if cut[oe]:
            a, b = (int(x) for x in mesh.edges[oe])
            ends = (int(a2), int(b2)) if oa == a else (int(b2), int(a2))
            copies.setdefault(oe, []).append(ends)

    edge_copy_pairs = {}
    for oe, ends in copies.items():
        if len(ends) != 2:
            raise TopologyError(
                f"cut edge {oe} produced {len(ends)} copies instead of 2")
        edge_copy_pairs[int(oe)] = tuple(ends)

    graph = CutGraph(
        cut_edges=tuple(int(e) for e in np.nonzero(cut)[0]),
        new_to_orig_vertex=new_to_orig,
        new_to_orig_edge=new_to_orig_edge,
        edge_copy_pairs=edge_copy_pairs,
    )
    return new_mesh, graph


def cut_to_disk(mesh):
    """Cut a closed connected mesh open into a topological disk.

    The cut graph is the complement of a breadth-first dual spanning tree
    rooted at face 0, pruned of degree-1 vertices; for a sphere (where the
    pruned graph is empty) a two-edge slit inside face 0 is used instead.
    Deterministic for a given face ordering.
    """
    if mesh.boundary_loops:
        raise TopologyError("cut_to_disk requires a closed mesh")
    if not is_connected(mesh):
        raise TopologyError("cut_to_disk requires a connected mesh")

    in_tree = np.zeros(mesh.n_edges, dtype=bool)
    seen = np.zeros(mesh.n_faces, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        f = queue.popleft()
        for s in range(3):
            h = 3 * f + s
            t = int(mesh.twin[h])
            g = t // 3
            if not seen[g]:
                seen[g] = True
                in_tree[mesh.edge_of_halfedge[h]] = True
                queue.append(g)

    cut = ~in_tree
    degree = np.zeros(mesh.n_vertices, dtype=np.int64)
    incident = [[] for _ in range(mesh.n_vertices)]
    for e in np.nonzero(cut)[0]:
        a, b = (int(x) for x in mesh.edges[e])
        degree[a] += 1
        degree[b] += 1
        incident[a].append(int(e))
        incident[b].append(int(e))
    leaves = deque(int(v) for v in np.nonzero(degree == 1)[0])
    while leaves:
        v = leaves.popleft()
        if degree[v] != 1:
            continue
        e = next(x for x in incident[v] if cut[x])
        cut[e] = False
        for w in (int(mesh.edges[e, 0]), int(mesh.edges[e, 1])):
            degree[w] -= 1
            if degree[w] == 1:
                leaves.append(w)

    if not cut.any():
        # Sphere: open a two-edge slit inside face 0.
        cut[mesh.edge_of_halfedge[0]] = True
        cut[mesh.edge_of_halfedge[1]] = True

    disk, graph = slice_along_edges(mesh, np.nonzero(cut)[0])
    if euler_characteristic(disk) != 1 or len(disk.boundary_loops) != 1:
        raise TopologyError(
            "internal error: cut mesh is not a disk "
            f"(chi={euler_characteristic(disk)}, "
            f"boundaries={len(disk.boundary_loops)})")
    return disk, graph


# ---------------------------------------------------------------------------
# Text I/O


def load_obj(path):
    """Line-by-line OBJ reader: per-line token lists grouped by record kind,
    one ``str.partition`` per face corner."""
    try:
        verts, uvs, faces, tex = _convert(_records(_read_lines(path)))
    except ValueError:
        lineno, message = _first_bad_line(_read_lines(path))
        raise ParseError(f"{path}:{lineno}: {message}") from None

    if not len(verts):
        raise ParseError(f"{path}: no vertices")
    if not len(faces):
        raise ParseError(f"{path}: no faces")
    if faces.max() >= len(verts):
        raise ParseError(f"{path}: face references vertex {faces.max() + 1} "
                         f"but only {len(verts)} vertices are defined")

    uv = None
    if len(uvs) and (tex >= 0).all():
        uv = _vertex_uv(path, faces, tex, uvs, len(verts))
    return build_mesh(faces.reshape(-1, 3), positions=verts, uv=uv)


def save_obj(mesh, path, uv=None):
    """Line-by-line OBJ writer: one ``%`` per record, one ``%d`` per face
    corner index."""
    coords = None
    if uv is not None:
        coords = np.asarray(getattr(uv, "coords", uv), dtype=np.complex128)
    pos = mesh.positions
    if pos is None:
        pos = [(z.real, z.imag, 0.0) for z in coords]
    lines = ["v %.9g %.9g %.9g\n" % tuple(p) for p in pos]
    if coords is not None:
        lines += ["vt %.9g %.9g\n" % (z.real, z.imag) for z in coords]
        lines += ["f " + " ".join("%d/%d" % (v + 1, v + 1) for v in face)
                  + "\n" for face in mesh.faces]
    else:
        lines += ["f %d %d %d\n" % tuple(face + 1) for face in mesh.faces]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") \
                from None


def _records(lines):
    """Token rows of the ``v``, ``vt`` and ``f`` records among ``lines``;
    other records are skipped."""
    records = {"v": [], "vt": [], "f": []}
    for key, rows in groupby(filter(None, map(str.split, lines)),
                             itemgetter(0)):
        if key in records:
            records[key].extend(rows)
    return records


def _convert(records):
    """Vertex positions, texture coordinates, and per-corner vertex and
    texture ids of the token rows, converted in bulk. Raises ValueError with
    the fault on a malformed record."""
    verts = _floats(records["v"], 3, "vertex needs 3 coordinates",
                    "bad vertex coordinate")
    uvs = _floats(records["vt"], 2, "vt needs 2 coordinates",
                  "bad texture coordinate").view(np.complex128).ravel()
    faces, tex = _corners(_face_refs(records["f"]))
    return verts, uvs, faces, tex


def _first_bad_line(lines):
    """(lineno, fault) of the first line that fails to convert. Face
    corners are converted one at a time, so a line with several faults
    reports the first."""
    for lineno, line in enumerate(lines, start=1):
        records = _records([line])
        try:
            for ref in _face_refs(records["f"]):
                _corners([ref])
            _convert(records)
        except ValueError as exc:
            return lineno, str(exc)


def _floats(rows, count, short, bad):
    """Fields ``1..count`` of every token row as a (rows, count) array."""
    if rows and min(map(len, rows)) <= count:
        raise ValueError(short)
    fields = chain.from_iterable(map(itemgetter(slice(1, count + 1)), rows))
    try:
        values = np.fromiter(map(float, fields), np.float64, count * len(rows))
    except ValueError:
        raise ValueError(bad) from None
    return values.reshape(-1, count)


def _face_refs(rows):
    """The three corner references of every ``f`` row, flattened."""
    if rows and set(map(len, rows)) != {4}:
        raise ValueError("only triangular faces are supported")
    return list(chain.from_iterable(map(itemgetter(1, 2, 3), rows)))


def _corners(refs):
    """0-based vertex and texture ids (-1 when absent) of the face corner
    references ``v``, ``v/t``, ``v//n`` or ``v/t/n``."""
    try:
        if "/" in "".join(refs):
            parts = list(map(methodcaller("partition", "/"), refs))
            tails = list(map(itemgetter(2), parts))
            if "/" in "".join(tails):
                tails = [t.partition("/")[0] for t in tails]
            vi = _ints(list(map(itemgetter(0), parts)))
            ti = _ints([t or "0" for t in tails])
        else:
            vi = _ints(refs)
            ti = np.zeros(len(refs), dtype=np.int64)
    except (ValueError, OverflowError):
        raise ValueError("bad face index") from None
    if (vi < 1).any():
        raise ValueError("face index must be >= 1")
    return vi - 1, ti - 1


def _ints(strings):
    return np.fromiter(map(int, strings), np.int64, len(strings))


def regex_load_obj(path):
    """The regular-expression OBJ reader, verbatim but for the ``_rx``
    prefix of its names: load an ASCII OBJ file into a
    :class:`HalfedgeMesh`.

    Only ``v``, ``vt`` and triangular ``f`` records are interpreted; other
    record types are skipped. Texture coordinates, when present on every face
    corner, are stored on the mesh as a per-vertex complex array.

    Each record kind is gathered from the whole text by one regular
    expression. When every row has one shape (``v x y z``, ``vt u v``,
    ``f a b c``, ``f a/t b/t c/t`` or ``f a/t/n b/t/n c/t/n``, ASCII, one
    whitespace byte apart), all numbers of the kind are converted by one
    ``np.loadtxt``, NumPy's C tokenizer and converter. Otherwise, or when
    it refuses a token, the kind is converted row by row with Python's
    ``float`` and ``int``, each face corner by ``str.partition``. A
    malformed record sends the reader line by line through the text to name
    the first bad line. Vertex and texture indices must be positive; an
    empty texture field (``v/``, ``v//n``) means no texture.
    """
    text = _rx_read_text(path)
    try:
        verts, uvs = _rx_coordinates(text)
        faces, tex = _rx_face_ids(_RX_F.findall(text))
    except ValueError:
        lineno, message = _rx_first_bad_line(text)
        raise ParseError(f"{path}:{lineno}: {message}") from None

    if not len(verts):
        raise ParseError(f"{path}: no vertices")
    if not len(faces):
        raise ParseError(f"{path}: no faces")
    if faces.max() >= len(verts):
        raise ParseError(f"{path}: face references vertex {faces.max() + 1} "
                         f"but only {len(verts)} vertices are defined")

    uv = None
    if len(uvs) and (tex >= 0).all():
        uv = _vertex_uv(path, faces, tex, uvs, len(verts))
    return build_mesh(faces.reshape(-1, 3), positions=verts, uv=uv)


def _rx_read_text(path):
    """The file's text after a newline, so that every record, the first one
    too, follows a newline (see :func:`_rx_record`)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return "\n" + fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") \
                from None


def _rx_record(key):
    """Pattern whose group 1 is the rest of each line that has ``key`` as
    its first token. ``[^\\S\\n]`` is the whitespace ``str.split`` splits on,
    less the newline. Matching from the newline before the line lets the
    scan skip from line to line."""
    return re.compile(rf"\n[^\S\n]*{key}(?:[^\S\n]+(.*)|$)", re.M)


_RX_V, _RX_VT, _RX_F = _rx_record("v"), _rx_record("vt"), _rx_record("f")
# The ASCII whitespace str.split splits on. In a row's skeleton each byte of
# it but the newline, which ends the row, reads as a space.
_RX_SPACES = b" \t\n\v\f\r\x1c\x1d\x1e\x1f"
_RX_ONE_SPACE = bytes.maketrans(_RX_SPACES.replace(b"\n", b""),
                             b" " * (len(_RX_SPACES) - 1))
# ASCII bytes that str.split does not split on, and the digits.
_RX_NOT_SPACE = bytes(set(range(128)) - set(_RX_SPACES))
_RX_DIGITS = b"0123456789"
# Skeletons of the ``f`` rows read in bulk, by the number of slashes in a
# row: ``a b c``, ``a/t b/t c/t`` and ``a/t/n b/t/n c/t/n``.
_RX_FACE_SHAPES = {0: b"  ", 3: b"/ / /", 6: b"// // //"}


def _rx_all_rows_are(joined, n, shape, drop):
    """Whether ``joined``, ``n`` rows joined by newlines, is ASCII and every
    row reads ``shape`` once the ``drop`` bytes are removed and each other
    whitespace byte is read as a space."""
    return joined.isascii() and (
        joined.encode().translate(_RX_ONE_SPACE, drop)
        == b"\n".join([shape] * n))


def _rx_table(rows, dtype, width):
    """``rows`` as a (len(rows), width) array read by NumPy's C text reader,
    or None when it reads another shape or refuses a token. On the tokens it
    takes it agrees with Python's ``float`` and ``int`` bit for bit; it
    refuses some they take (``1_0``, non-ASCII digits, integers past int64),
    which the caller then converts row by row."""
    if not rows:
        return np.empty((0, width), dtype)
    try:
        values = np.loadtxt(rows, dtype, comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(rows), width) else None


def _rx_coordinates(text):
    """Vertex positions and texture coordinates of the records in ``text``.
    Raises ValueError with the fault on a malformed record."""
    verts = _rx_floats(_RX_V.findall(text), 3, "vertex needs 3 coordinates",
                    "bad vertex coordinate")
    uvs = _rx_floats(_RX_VT.findall(text), 2, "vt needs 2 coordinates",
                  "bad texture coordinate").view(np.complex128).ravel()
    return verts, uvs


def _rx_floats(rows, count, short, bad):
    """The first ``count`` fields of every row as a (rows, count) array.
    Rows of exactly ``count`` fields, one whitespace byte apart, are read
    all at once; otherwise row by row."""
    if _rx_all_rows_are("\n".join(rows), len(rows), b" " * (count - 1),
                     _RX_NOT_SPACE):
        values = _rx_table(rows, np.float64, count)
        if values is not None:
            return values
    return _rx_float_rows(rows, count, short, bad)


def _rx_float_rows(rows, count, short, bad):
    """:func:`_rx_floats` row by row, by ``str.split`` and Python's ``float``."""
    rows = list(map(str.split, rows))
    if rows and min(map(len, rows)) < count:
        raise ValueError(short)
    fields = list(chain.from_iterable(map(itemgetter(slice(count)), rows)))
    try:
        values = np.fromiter(map(float, fields), np.float64, len(fields))
    except ValueError:
        raise ValueError(bad) from None
    return values.reshape(-1, count)


def _rx_face_ids(rows):
    """0-based vertex and texture ids (-1 when absent) of the corners of
    the ``f`` rows. Rows that are all ``a b c``, all ``a/t b/t c/t`` or all
    ``a/t/n b/t/n c/t/n`` (ASCII digits, one whitespace byte apart) are read
    all at once with ``/`` read as a space; otherwise corner by corner."""
    joined = "\n".join(rows)
    shape = _RX_FACE_SHAPES.get(rows[0].count("/") if rows else 0)
    if shape is not None and _rx_all_rows_are(joined, len(rows), shape,
                                           _RX_DIGITS):
        lines = joined.replace("/", " ").split("\n") if b"/" in shape \
            else rows
        ids = _rx_table(lines, np.int64, len(shape) + 1)
        if ids is not None:
            # One row per corner: the vertex id, then any texture and
            # normal ids.
            ids = ids.reshape(-1, (len(shape) + 1) // 3)
            if ids.shape[1] == 1:
                return _rx_one_based(ids[:, 0], "face"), np.full(len(ids), -1)
            return (_rx_one_based(ids[:, 0], "face"),
                    _rx_one_based(ids[:, 1], "texture"))
    return _rx_corners(_rx_face_refs(rows))


def _rx_face_refs(rows):
    """The three corner references of every ``f`` row, flattened."""
    refs = list(map(str.split, rows))
    if refs and set(map(len, refs)) != {3}:
        raise ValueError("only triangular faces are supported")
    return list(chain.from_iterable(refs))


def _rx_corners(refs):
    """0-based vertex and texture ids (-1 when absent) of the face corner
    references ``v``, ``v/t``, ``v//n`` or ``v/t/n``."""
    tails = None
    try:
        if "/" in "".join(refs):
            parts = list(map(methodcaller("partition", "/"), refs))
            tails = list(map(itemgetter(2), parts))
            if "/" in "".join(tails):
                tails = [t.partition("/")[0] for t in tails]
            refs = list(map(itemgetter(0), parts))
            ti = _rx_ints([t or "1" for t in tails])
        vi = _rx_ints(refs)
    except (ValueError, OverflowError):
        raise ValueError("bad face index") from None
    vi = _rx_one_based(vi, "face")
    if tails is None:
        return vi, np.full(len(vi), -1)
    # An empty texture field (``v/``, ``v//n``) is no texture.
    given = np.fromiter(map(bool, tails), bool, len(tails))
    return vi, np.where(given, _rx_one_based(ti, "texture"), -1)


def _rx_one_based(ids, kind):
    """The 1-based OBJ ``ids`` less one; raises ValueError when one is
    below 1 (OBJ's relative negative ids are not supported)."""
    if (ids < 1).any():
        raise ValueError(f"{kind} index must be >= 1")
    return ids - 1


def _rx_ints(strings):
    return np.fromiter(map(int, strings), np.int64, len(strings))


def _rx_first_bad_line(text):
    """(lineno, fault) of the first line of ``text`` (after its leading
    newline) that fails to convert. Face corners are converted one at a
    time, so a line with several faults reports the first."""
    for lineno, line in enumerate(text.split("\n")[1:], start=1):
        line = "\n" + line
        try:
            _rx_coordinates(line)
            for ref in _rx_face_refs(_RX_F.findall(line)):
                _rx_corners([ref])
        except ValueError as exc:
            return lineno, str(exc)


def searchsorted_twins(faces):
    """Twin of every halfedge of ``faces`` (-1 on the boundary) as
    ``build_mesh`` paired them before its sort by undirected edge: the
    oriented edge keys sorted once and each reversed key looked up by
    ``searchsorted``."""
    faces = np.asarray(faces, dtype=np.int64)
    nv = int(faces.max()) + 1
    origin, dest = faces.ravel(), faces[:, [1, 2, 0]].ravel()
    key = origin * nv + dest
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    reverse = dest * nv + origin
    slot = np.minimum(np.searchsorted(sorted_key, reverse), key.size - 1)
    return np.where(sorted_key[slot] == reverse, order[slot], -1)


def field_to_json(mu):
    """One dict per entry, printed by ``json.dumps(indent=2)``."""
    values = mu.values if isinstance(mu, BeltramiField) else np.asarray(mu)
    entries = [{"i": int(i), "re": float(v.real), "im": float(v.imag)}
               for i, v in enumerate(values)]
    return json.dumps({"mu": entries}, indent=2)


def field_from_json(text, n_vertices=None):
    """One dict entry per vertex, checked against ``range(n)``."""
    try:
        doc = json.loads(text)
        entries = doc["mu"]
        pairs = {int(e["i"]): complex(float(e["re"]), float(e["im"]))
                 for e in entries}
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise BeltramiError(f"malformed mu JSON: {exc}") from exc
    n = n_vertices if n_vertices is not None else (max(pairs) + 1 if pairs else 0)
    if sorted(pairs) != list(range(n)):
        raise BeltramiError(
            "mu JSON must contain every vertex index exactly once")
    values = np.array([pairs[i] for i in range(n)], dtype=np.complex128)
    return BeltramiField(values)


def csv_text(rows):
    """One f-string per row."""
    lines = ["re,im,arg,modulus,dilation"]
    for r in rows:
        lines.append(",".join(f"{x:.9g}" for x in r))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The Newton loop


def dense_hessian(mesh, metric):
    """The curvature Jacobian ``dK/du`` as a dense array, summed face by
    face: the 3x3 block ``-D[f]`` of each face's corner-angle derivatives
    (:func:`qcflow.flow.angle_derivatives`) is added at its corners' rows
    and columns in a plain loop."""
    D = angle_derivatives(metric, mesh)
    H = np.zeros((mesh.n_vertices, mesh.n_vertices))
    for f, corners in enumerate(mesh.faces.tolist()):
        for a, row in enumerate(corners):
            for b, col in enumerate(corners):
                H[row, col] -= D[f, a, b]
    return H


def run_flow(mesh, metric, target, geometry, options=FlowOptions()):
    """Flag-driven damped Newton loop: ``accepted`` and ``surgery_progress``
    decide after the line search whether the iteration failed, and each
    halving advances two counters. A hyperbolic flow starts, as the flat
    loop does, at the uniform factor of ``_gauss_bonnet_scale`` when the
    metric there is admissible and has a lower residual than at u = 0."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (mesh.n_vertices,):
        raise ValueError("target must assign one curvature per vertex")
    metric = metric.retagged(geometry)
    violations = check_triangle_inequality(metric, mesh)
    if violations:
        raise MetricError(
            f"initial metric violates triangle inequality on faces "
            f"{violations[:16]}", faces=violations)
    chi = mesh.n_vertices - mesh.n_edges + mesh.n_faces
    if geometry == Geometry.EUCLIDEAN:
        defect = abs(float(target.sum()) - 2.0 * np.pi * chi)
        if defect > 1e-9:
            raise FlowError(
                f"target curvature violates Gauss-Bonnet: sum(Kbar) deviates "
                f"from 2 pi chi by {defect:.3e}")

    base = metric
    u = np.zeros(mesh.n_vertices)
    current = deform_metric(mesh, base, u)
    angles = corner_angles(current, mesh)
    K = vertex_curvature(angles, mesh)
    res = float(np.max(np.abs(target - K)))
    if geometry == Geometry.HYPERBOLIC:
        u0 = _gauss_bonnet_scale(mesh, base,
                                 float(target.sum()) - 2.0 * np.pi * chi)
        if u0 is not None:
            u_try = np.full(mesh.n_vertices, u0)
            try:
                trial = deform_metric(mesh, base, u_try)
                trial_angles = corner_angles(trial, mesh)
            except MetricError:
                pass
            else:
                K_try = vertex_curvature(trial_angles, mesh)
                res_try = float(np.max(np.abs(target - K_try)))
                if res_try < res:
                    u, current, angles, K, res = (u_try, trial, trial_angles,
                                                  K_try, res_try)

    residuals = [res]
    swaps = 0
    halvings = 0
    iterations = 0
    factor = NewtonFactor()

    while res >= options.eps and iterations < options.max_iterations:
        H = assemble_hessian(mesh, current, angles=angles)
        du, factor = newton_step(H, target - K, geometry, factor,
                                 options.eps)

        accepted = False
        surgery_progress = False
        surgery_tried = False
        saw_admissible = False
        halv = 0
        while halv <= _MAX_HALVINGS:
            step = 0.5 ** halv
            u_try = u + step * du
            try:
                trial = deform_metric(mesh, base, u_try)
                trial_violations = check_triangle_inequality(trial, mesh)
            except MetricError:
                trial_violations = None
            if trial_violations:
                if (options.surgery and not surgery_tried
                        and halv >= _SURGERY_AFTER_HALVINGS):
                    surgery_tried = True
                    edges = longest_edges(mesh, trial, trial_violations)
                    mesh, swapped, n_done = _swap_edges(mesh, current, edges)
                    if n_done:
                        swaps += n_done
                        factor.lu = None
                        base = deform_metric(mesh, swapped, -u)
                        current = deform_metric(mesh, base, u)
                        angles = corner_angles(current, mesh)
                        K = vertex_curvature(angles, mesh)
                        res = float(np.max(np.abs(target - K)))
                        surgery_progress = True
                        break
                halv += 1
                halvings += 1
                continue
            if trial_violations is None:
                halv += 1
                halvings += 1
                continue
            saw_admissible = True
            trial_angles = corner_angles(trial, mesh)
            K_try = vertex_curvature(trial_angles, mesh)
            res_try = float(np.max(np.abs(target - K_try)))
            if res_try < res:
                u = u_try
                current = trial
                angles = trial_angles
                K = K_try
                res = res_try
                accepted = True
                break
            halv += 1
            halvings += 1

        if not accepted and not surgery_progress:
            report = _make_report(residuals, iterations, swaps, halvings,
                                  factor, u, False)
            if not saw_admissible:
                detail = (" and surgery is disabled" if not options.surgery
                          else "")
                raise FlowError(
                    "deformed metric inadmissible at every step length"
                    + detail, report=report)
            raise FlowError(
                "line search failed to reduce the curvature residual",
                report=report)

        iterations += 1
        residuals.append(res)

    converged = res < options.eps
    report = _make_report(residuals, iterations, swaps, halvings, factor,
                          u, converged)
    if not converged:
        raise FlowError(
            f"flow did not converge within {options.max_iterations} "
            f"iterations (residual {res:.3e})", report=report)
    return FlowResult(mesh=mesh, metric=current, base=base, u=u,
                      report=report)


def _make_report(residuals, iterations, swaps, halvings, factor, u,
                 converged):
    return FlowReport(residuals=list(residuals), iterations=iterations,
                      swaps=swaps, halvings=halvings,
                      factorizations=factor.factorizations,
                      cg_iterations=factor.cg_iterations, u=u.copy(),
                      converged=converged)


def auxiliary_metric(metric, z, mu, mesh):
    """Per edge: ``dz = z_j - z_i``, ``mu_e = (mu_i + mu_j) / 2``, the length
    scaled by ``|dz + mu_e * conj(dz)| / |dz|``."""
    if metric.geometry != Geometry.EUCLIDEAN:
        raise BeltramiError("auxiliary metric requires a Euclidean base metric")
    zc = np.asarray(getattr(z, "coords", z), dtype=np.complex128)
    values = mu.values if isinstance(mu, BeltramiField) else BeltramiField(mu).values
    if zc.shape != (mesh.n_vertices,) or values.shape != (mesh.n_vertices,):
        raise BeltramiError("z and mu must assign one value per vertex")
    a = mesh.edges[:, 0]
    b = mesh.edges[:, 1]
    dz = zc[b] - zc[a]
    mod = np.abs(dz)
    zero = np.nonzero(mod == 0.0)[0]
    if zero.size:
        raise BeltramiError(f"zero dz on edges {zero.tolist()[:16]}")
    mu_e = 0.5 * (values[a] + values[b])
    scale = np.abs(dz + mu_e * np.conj(dz)) / mod
    return DiscreteMetric(Geometry.EUCLIDEAN, metric.lengths * scale)


def cut_auxiliary_metric(metric, base, mu, mesh):
    """Auxiliary metric of a cut layout ``base`` (a ``FlattenResult`` with a
    cut): the metric and ``mu`` pushed onto the cut mesh, scaled there,
    divided back by the base length, and the copies of each cut edge
    averaged."""
    cut = cut_record(base.flow.mesh, base.mesh)
    mu_cut = BeltramiField(np.asarray(mu)[cut.new_to_orig_vertex])
    metric_cut = DiscreteMetric(Geometry.EUCLIDEAN,
                                metric.lengths[cut.new_to_orig_edge])
    aux_cut = auxiliary_metric(metric_cut, base.param, mu_cut, base.mesh)
    scale_cut = aux_cut.lengths / metric_cut.lengths
    num = np.zeros(mesh.n_edges)
    den = np.zeros(mesh.n_edges)
    np.add.at(num, cut.new_to_orig_edge, scale_cut)
    np.add.at(den, cut.new_to_orig_edge, 1.0)
    return DiscreteMetric(Geometry.EUCLIDEAN, metric.lengths * (num / den))


# ---------------------------------------------------------------------------
# Edge-swap surgery with a canonical rebuild per swap


def edge_swap(mesh, metric, edge):
    """Flip ``edge`` by corner angles, then rebuild the mesh from its faces
    (canonical edge ids) and carry every length but the new diagonal's by
    halfedge index."""
    h1, h2 = (int(x) for x in mesh.edge_halfedges[edge])
    if h2 < 0:
        raise SurgeryError(f"edge {edge} is on the boundary")
    i, j = int(origin(mesh, h1)), int(dest(mesh, h1))
    k = int(dest(mesh, mesh.next(h1)))
    l = int(dest(mesh, mesh.next(h2)))
    if edge_id(mesh, k, l) >= 0:
        raise SurgeryError(f"swap of edge {edge} would duplicate edge "
                           f"({k}, {l})")

    e = mesh.edge_of_halfedge
    g = metric.geometry
    d, l_ik, l_jk, l_il, l_jl = metric.lengths[
        [edge, e[mesh.prev(h1)], e[mesh.next(h1)], e[mesh.next(h2)],
         e[mesh.prev(h2)]]]
    with np.errstate(invalid="ignore"):
        angles = np.arccos(cosine_law(g, np.array([l_jk, l_jl, l_ik, l_il]),
                                      d, np.array([l_ik, l_il, l_jk, l_jl])))
        theta_i, theta_j = angles[:2].sum(), angles[2:].sum()
        new_len = float(opposite_side(g, l_ik, l_il, theta_i))
    if not (theta_i < np.pi and theta_j < np.pi):
        raise SurgeryError(f"non-convex quad at edge {edge}")
    if not np.isfinite(new_len) or new_len <= 0.0:
        raise SurgeryError(f"degenerate new diagonal at edge {edge}")
    for f, sides in ((h1 // 3, (l_il, new_len, l_ik)),
                     (h2 // 3, (l_jk, new_len, l_jl))):
        a, b, c = sorted(sides, reverse=True)
        if a >= b + c:
            raise SurgeryError(
                f"swap of edge {edge} produced an invalid face {f}")

    new_faces = mesh.faces.copy()
    new_faces[h1 // 3] = (i, l, k)
    new_faces[h2 // 3] = (j, k, l)
    f1, f2 = 3 * (h1 // 3), 3 * (h2 // 3)
    slots = np.array([f1, f1 + 2, f2, f2 + 2])
    old = np.array([mesh.next(h2), mesh.prev(h1), mesh.next(h1),
                    mesh.prev(h2)])
    new_mesh = build_mesh(new_faces, positions=mesh.positions)

    source = e.copy()
    source[slots] = e[old]
    source[[f1 + 1, f2 + 1]] = -1
    source = source[new_mesh.edge_halfedges[:, 0]]
    new_lengths = metric.lengths[source]
    new_lengths[source < 0] = new_len
    return new_mesh, DiscreteMetric(g, new_lengths)


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
    """In-flow surgery: swap each listed edge, named by its vertex pair
    because ids change with every rebuild."""
    done = 0
    for a, b in mesh.edges[edges]:
        try:
            mesh, current = edge_swap(mesh, current, edge_id(mesh, a, b))
        except SurgeryError:
            continue
        done += 1
    return mesh, current, done


def _chart_swap(mesh, metric, corners, edge):
    """:func:`edge_swap` that refuses a seam edge of the chart ``corners``
    and carries the corners of the two rewritten faces along."""
    h0, h1 = mesh.edge_halfedges[edge].tolist()
    z = corners.ravel()
    if h1 >= 0 and (z[h0] != z[mesh.next(h1)] or z[mesh.next(h0)] != z[h1]):
        raise SurgeryError(f"edge {edge} is on a seam of the chart")
    new_mesh, metric = edge_swap(mesh, metric, edge)
    quad = [h0 // 3, h1 // 3]
    at = dict(zip(mesh.faces[quad].ravel().tolist(),
                  corners[quad].ravel().tolist()))
    corners = corners.copy()
    corners[quad] = [[at[v] for v in face]
                     for face in new_mesh.faces[quad].tolist()]
    return new_mesh, metric, corners


def _aux_metric_with_surgery(mesh, base_metric, corners, mu):
    """Pre-flow surgery that measures the whole auxiliary metric and checks
    every face again after every swap. It gives up once more faces violate
    than twice the swaps left, as a swap clears at most two of them."""
    cur_mesh, cur_base = mesh, base_metric
    for swaps in range(_PRE_SURGERY_ROUNDS + 1):
        aux = beltrami.auxiliary_metric(cur_base, corners, mu, cur_mesh)
        violations = check_triangle_inequality(aux, cur_mesh)
        if not violations:
            return cur_mesh, aux, swaps
        if len(violations) > 2 * (_PRE_SURGERY_ROUNDS - swaps):
            break
        for e in longest_edges(cur_mesh, aux, violations):
            try:
                cur_mesh, cur_base, corners = _chart_swap(
                    cur_mesh, cur_base, corners, e)
            except SurgeryError:
                continue
            break
        else:
            break
    raise BeltramiError(
        f"auxiliary metric is inadmissible even after edge-swap surgery on "
        f"faces {violations[:16]}", faces=violations)
