"""Sequential reference implementations, kept as test oracles.

These are the face-by-face breadth-first layout, the per-vertex cut loops
and the scalar placement primitives that the array code in ``qcflow.geom``,
``qcflow.embed`` and ``qcflow.mesh`` replaced, and the line-by-line OBJ
reader and entry-by-entry mu JSON and CSV code that the bulk text I/O in
``qcflow.mesh``, ``qcflow.beltrami`` and ``qcflow.pipeline`` replaced. The
new code must reproduce them bit for bit; see ``test_sequential_oracle.py``.

It also keeps the quad layouts with which ``qcflow.flow.edge_swap`` used to
decide and measure a flip, before the corner-angle rule replaced them; there
the new code must take the same decisions and agree to rounding.

And it keeps the construction with which ``place_third_hyperbolic`` used
to place a vertex in the Poincare disk, before the plane's apex over the
base edge, taken in the Mobius frame of that edge, replaced it: the two
Euclidean images of the hyperbolic circles intersected, one of the two
candidates picked by a side test and an in-disk test, and a law-of-cosines
fallback for near-tangent circles. There the new code must agree to 1e-12
on fat triangles and keep both distances to 1e-7 on thin ones.

And it keeps the Newton loop of ``qcflow.flow.run_flow`` as it was before
the line search became one ``for`` loop with a single exit: flag-driven
backtracking, a report built at each of its three exits. The flat loop must
give the same report field by field, the same result mesh and metric bit
for bit, or the same ``FlowError`` message and report.

And it keeps the edge swap as it was before swaps kept their edge ids:
``edge_swap`` that rebuilds a canonically numbered mesh from the patched
twin pairing after every swap and carries the lengths to the new ids, the
in-flow loop that names its edges by vertex pair, and the pre-flow loop
that measures the whole auxiliary metric and checks every face after every
swap. The stable-id swaps, renumbered once per loop, must give the same
meshes, lengths and swap counts bit for bit, or the same error.

And it keeps ``qcflow.beltrami.auxiliary_metric`` as it was when it read a
per-vertex ``z`` one edge at a time, and the push-scale-average step with
which ``qcmap`` used to build the auxiliary metric of a cut chart. On a
single-valued chart the per-halfedge form must give the same lengths bit
for bit; on a cut chart it must agree with the copy average to rounding.
"""

import json
from collections import deque
from itertools import chain, groupby
from operator import itemgetter, methodcaller

import numpy as np

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
    assemble_hessian,
    longest_edges,
    newton_step,
)
from qcflow.geom import _TANGENT_SLACK, apex_over_base, hyperbolic_distance
from qcflow.geom import place_third_hyperbolic as place_third_hyperbolic_array
from qcflow.mesh import CutGraph, _vertex_uv, build_mesh, euler_characteristic
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

    The plane's construction in the Mobius frame of the base edge: the
    circle about ``pa`` is the circle of radius ``tanh(la / 2)`` about 0,
    the circle about ``w``, the image of ``pb``, has its centre on the ray
    through ``w``; the apex over that base is rotated onto the ray and
    mapped back.
    """
    w = mobius_to_origin(pa, pb)
    d = abs(w)
    centre, radius = poincare_circle_to_euclidean(d, lb)
    apex = place_third_euclidean(0.0, centre.real, np.tanh(0.5 * la), radius)
    return mobius_from_origin(pa, apex * (w / d))


def place_third_hyperbolic_circles(pa, pb, la, lb):
    """The construction :func:`place_third_hyperbolic` replaced: intersection
    of hyperbolic circles (pa, la) and (pb, lb) on the counter-clockwise side
    of the geodesic ``pa -> pb``.

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
        pk = complex(*apex_over_base(d, l_ik, l_jk))
        pl = np.conj(complex(*apex_over_base(d, l_il, l_jl)))
        if pk.imag <= 0.0 or pl.imag >= 0.0:
            raise SurgeryError(f"degenerate quad at edge {edge}")
        cross = (pk.real * (-pl.imag) + pl.real * pk.imag) / (pk.imag - pl.imag)
        if not 0.0 < cross < d:
            raise SurgeryError(f"non-convex quad at edge {edge}")
        new_len = float(abs(pk - pl))
    else:
        base = np.tanh(0.5 * d)
        pk = place_third_hyperbolic_array(0.0 + 0j, base + 0j, l_ik, l_jk)
        pl = np.conj(place_third_hyperbolic_array(0.0 + 0j, base + 0j, l_il,
                                                  l_jl))
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


def _layout(mesh, metric, seed, place):
    angles = corner_angles(metric, mesh)
    _check_flat(mesh, angles)

    coords = np.full(mesh.n_vertices, np.nan + 0j, dtype=np.complex128)
    placed = np.zeros(mesh.n_vertices, dtype=bool)
    lengths = metric.lengths

    v0, v1, v2 = (int(v) for v in mesh.faces[0])
    l01 = float(lengths[mesh.edge_of_halfedge[0]])
    l12 = float(lengths[mesh.edge_of_halfedge[1]])
    l20 = float(lengths[mesh.edge_of_halfedge[2]])
    for v, z in zip((v0, v1, v2), seed(l01, l12, l20, angles[0])):
        coords[v] = z
        placed[v] = True

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
                sc = free[0]
                va = int(mesh.faces[g, (sc + 1) % 3])
                vb = int(mesh.faces[g, (sc + 2) % 3])
                vc = int(mesh.faces[g, sc])
                la = float(lengths[mesh.edge_of_halfedge[3 * g + sc]])
                lb = float(lengths[mesh.edge_of_halfedge[3 * g + (sc + 2) % 3]])
                coords[vc] = place(coords[va], coords[vb], la, lb)
                placed[vc] = True
            done[g] = True
            queue.append(g)

    if not placed.all():
        raise LayoutError("mesh is not face-connected")
    return coords


def layout_euclidean(mesh, metric):
    """Isometric plane layout of a flat Euclidean metric on a disk.

    The first face is seeded with vertex 0 at the origin and vertex 1 on the
    positive real axis; every further vertex is placed breadth-first on the
    counter-clockwise side of an already-embedded edge. Every embedded edge
    reproduces its metric length (to roundoff-level drift).
    """
    if metric.geometry != Geometry.EUCLIDEAN:
        raise MetricError("layout_euclidean requires a Euclidean metric")
    _check_disk(mesh)
    bad = check_triangle_inequality(metric, mesh)
    if bad:
        raise MetricError(f"metric inadmissible on faces {bad[:16]}", faces=bad)

    def seed(l01, l12, l20, _angles):
        return (0.0 + 0j,
                l01 + 0j,
                place_third_euclidean(0.0 + 0j, l01 + 0j, l20, l12))

    coords = _layout(mesh, metric, seed, place_third_euclidean)
    return Parameterization(coords, Geometry.EUCLIDEAN)


def layout_hyperbolic(mesh, metric):
    """Poincare-disk layout of a hyperbolically flat metric on a disk.

    Seeds the first face at ``tau(v0) = 0``, ``tau(v1) = tanh(l01 / 2)``,
    ``tau(v2) = tanh(l02 / 2) e^{i theta_0}`` and propagates breadth-first,
    placing each vertex at the apex over its entry edge in the Mobius frame
    of that edge, keeping each face's orientation positive.
    """
    if metric.geometry != Geometry.HYPERBOLIC:
        raise MetricError("layout_hyperbolic requires a hyperbolic metric")
    _check_disk(mesh)
    bad = check_triangle_inequality(metric, mesh)
    if bad:
        raise MetricError(f"metric inadmissible on faces {bad[:16]}", faces=bad)

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


def run_flow(mesh, metric, target, geometry, options=FlowOptions()):
    """Flag-driven damped Newton loop: ``accepted`` and ``surgery_progress``
    decide after the line search whether the iteration failed, and each
    halving advances two counters."""
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

    residuals = [res]
    swaps = 0
    halvings = 0
    iterations = 0
    factor = NewtonFactor()

    while res >= options.eps and iterations < options.max_iterations:
        H = assemble_hessian(mesh, current, angles=angles)
        du, factor = newton_step(H, target - K, geometry, factor)

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
    cut = base.cut
    mu_cut = BeltramiField(np.asarray(mu)[cut.new_to_orig_vertex])
    metric_cut = DiscreteMetric(Geometry.EUCLIDEAN,
                                cut.push_edge(metric.lengths))
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


def _swap_edges(mesh, current, edges):
    """In-flow surgery: swap each listed edge, named by its vertex pair
    because ids change with every rebuild."""
    done = 0
    for a, b in mesh.edges[edges]:
        try:
            mesh, current = edge_swap(mesh, current, mesh.edge_id(a, b))
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
