"""End-to-end parameterization pipelines: target-curvature presets, the
conformal flatten, the quasi-conformal map driven by a Beltrami field, map
estimation/composition/comparison, and a mesh validity report.

All pipelines are deterministic: identical inputs produce bit-identical
outputs.

The pre-flow surgery of ``qcmap`` flips edges in place with the in-flow
surgery's :func:`~qcflow.flow.edge_swap` and builds the mesh once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .beltrami import (
    BeltramiField,
    Parameterization,
    _scale,
    auxiliary_metric,
    compose_beltrami,
    estimate_beltrami,
    map_distance,
)
from .errors import BeltramiError, MetricError, PresetError, SurgeryError
from . import flow
from .flow import FlowOptions, edge_swap, longest_edges, run_flow
from .mesh import (
    _format_rows,
    cut_graph,
    cut_to_disk,
    euler_characteristic,
    slice_along_edges,
)
from .metric import (
    DiscreteMetric,
    Geometry,
    _violates,
    check_triangle_inequality,
    corner_angles,
    gauss_bonnet_residual,
    induced_metric,
)
from .embed import layout_euclidean, layout_hyperbolic, torus_periods

_PRE_SURGERY_ROUNDS = 50


class PresetKind(enum.Enum):
    RECTANGLE = "rectangle"
    ANNULUS = "annulus"
    FREE_DISK = "free-disk"
    CLOSED_FLAT = "closed-flat"
    CLOSED_HYPERBOLIC = "closed-hyperbolic"


@dataclass(frozen=True)
class TargetPreset:
    """Target-curvature recipe plus its parameters (rectangle corners)."""

    kind: PresetKind
    corners: tuple = ()

    def __post_init__(self):
        if self.kind == PresetKind.RECTANGLE:
            if len(set(self.corners)) != 4:
                raise PresetError("rectangle preset needs 4 distinct corner ids")
        elif self.corners:
            raise PresetError(f"{self.kind.value} preset takes no corners")


def _loop_length(mesh, metric, loop):
    """Length of a boundary loop: each vertex's outgoing boundary halfedge
    is the loop edge to its successor. Summed left to right."""
    total = 0.0
    edges = mesh.edge_of_halfedge[mesh.vertex_halfedge[list(loop)]]
    for length in metric.lengths[edges].tolist():
        total += length
    return total


def target_curvature(mesh, preset, metric=None):
    """Per-vertex target curvature for a preset; validates the topology.

    Rectangle: pi/2 at the four corners, zero elsewhere. Annulus: zero in the
    interior, ``2 pi / n`` on each outer-boundary vertex and ``-2 pi / n`` on
    each inner-boundary vertex (outer = metrically longer loop). Free disk:
    ``2 pi / n`` on the single boundary. Closed presets: identically zero.
    """
    chi = euler_characteristic(mesh)
    loops = mesh.boundary_loops
    K = np.zeros(mesh.n_vertices)
    kind = preset.kind
    if kind == PresetKind.RECTANGLE:
        if chi != 1 or len(loops) != 1:
            raise PresetError(
                f"rectangle preset needs a disk (chi={chi}, "
                f"boundaries={len(loops)})")
        boundary = set(loops[0])
        for c in preset.corners:
            if c not in boundary:
                raise PresetError(f"corner {c} is not a boundary vertex")
            K[c] = 0.5 * np.pi
    elif kind == PresetKind.ANNULUS:
        if chi != 0 or len(loops) != 2:
            raise PresetError(
                f"annulus preset needs an annulus (chi={chi}, "
                f"boundaries={len(loops)})")
        if metric is None:
            metric = induced_metric(mesh)
        lens = [_loop_length(mesh, metric, lp) for lp in loops]
        outer = int(np.argmax(lens))
        for idx, lp in enumerate(loops):
            sign = 1.0 if idx == outer else -1.0
            K[list(lp)] = sign * 2.0 * np.pi / len(lp)
    elif kind == PresetKind.FREE_DISK:
        if chi != 1 or len(loops) != 1:
            raise PresetError(
                f"free-disk preset needs a disk (chi={chi}, "
                f"boundaries={len(loops)})")
        K[list(loops[0])] = 2.0 * np.pi / len(loops[0])
    elif kind == PresetKind.CLOSED_FLAT:
        if loops or chi != 0:
            raise PresetError(
                f"closed-flat preset needs a closed genus-1 mesh (chi={chi}, "
                f"boundaries={len(loops)})")
    elif kind == PresetKind.CLOSED_HYPERBOLIC:
        if loops or chi >= 0:
            raise PresetError(
                "closed-hyperbolic preset needs a closed genus >= 2 mesh "
                f"(chi={chi}, boundaries={len(loops)})")
    return K


def preset_geometry(preset):
    return (Geometry.HYPERBOLIC if preset.kind == PresetKind.CLOSED_HYPERBOLIC
            else Geometry.EUCLIDEAN)


def normalize_rectangle(param, mesh, corners):
    """Similarity transform putting corner 0 at the origin and corner 1 at
    1 + 0i (unit width); returns the transformed parameterization and the
    height (the conformal module)."""
    loop = list(mesh.boundary_loops[0])
    pos = {v: i for i, v in enumerate(loop)}
    start = pos[corners[0]]
    ordered = sorted(corners, key=lambda c: (pos[c] - start) % len(loop))
    z = param.coords
    z0 = z[ordered[0]]
    w = z[ordered[1]] - z0
    out = (z - z0) / w
    h2 = out[ordered[2]].imag
    h3 = out[ordered[3]].imag
    return Parameterization(out, param.geometry), 0.5 * (h2 + h3)


@dataclass
class FlattenResult:
    """Everything a pipeline run produces. ``mesh`` is the laid-out mesh
    (re-triangulated if surgery fired, cut open from ``flow.mesh`` for the
    annulus and closed inputs); ``param`` indexes its vertices."""

    mesh: object
    param: Parameterization
    flow: object
    module: float | None = None
    periods: object = None
    report: dict = field(default_factory=dict)


def cmd_flatten(mesh, geometry, preset, options=FlowOptions(), metric=None):
    """Conformal flatten: induced metric -> Yamabe flow -> isometric layout
    -> preset-specific normalization.

    For the rectangle preset the reported ``module`` is the height of the
    unit-width rectangle image; for the annulus it is the inner/outer
    boundary length ratio of the flat metric.
    """
    if geometry != preset_geometry(preset):
        raise PresetError(
            f"{preset.kind.value} preset requires "
            f"{preset_geometry(preset).value} geometry")
    if metric is None:
        metric = induced_metric(mesh)
    target = target_curvature(mesh, preset, metric=metric)
    fr = run_flow(mesh, metric, target, geometry, options)
    kind = preset.kind

    # Annulus and closed surfaces are cut open and the flat metric pushed
    # onto the cut mesh by halfedge; disks are laid out as they are.
    disk, flat = fr.mesh, fr.metric
    module = periods = None
    extra = {}
    if kind == PresetKind.ANNULUS:
        lens = sorted(_loop_length(fr.mesh, fr.metric, lp)
                      for lp in fr.mesh.boundary_loops)
        module = lens[0] / lens[1]
        slit = cut_graph(fr.mesh)
        disk = slice_along_edges(fr.mesh, slit)
        extra = {"slit_edges": len(slit),
                 "boundary_convention": "uniform 2pi/n outer, -2pi/n inner"}
    elif kind in (PresetKind.CLOSED_FLAT, PresetKind.CLOSED_HYPERBOLIC):
        disk = cut_to_disk(fr.mesh)
    if disk is not fr.mesh:
        flat = DiscreteMetric(geometry, fr.metric.lengths[
            fr.mesh.edge_of_halfedge[disk.edge_halfedges[:, 0]]])

    if geometry == Geometry.HYPERBOLIC:
        param = layout_hyperbolic(disk, flat)
    else:
        param = layout_euclidean(disk, flat)
    if kind == PresetKind.RECTANGLE:
        param, module = normalize_rectangle(param, disk, preset.corners)
    elif kind == PresetKind.FREE_DISK:
        z = param.coords
        center = z.mean()
        scale = np.abs(z - center).max()
        param = Parameterization((z - center) / scale, param.geometry)
    elif kind == PresetKind.CLOSED_FLAT:
        periods = torus_periods(fr.mesh, disk, param)

    report = {"geometry": geometry.value, "preset": kind.value,
              "flow": fr.report.to_json_dict()}
    if module is not None:
        report["module"] = module
    if periods is not None:
        report["periods"] = periods.to_json_dict()
    report.update(extra)
    return FlattenResult(mesh=disk, param=param, flow=fr, module=module,
                         periods=periods, report=report)


def _aux_metric_with_surgery(mesh, base_metric, corners, mu, surgery=True):
    """Auxiliary metric on a possibly re-triangulated mesh.

    While the scaled lengths break a triangle inequality, the first longest
    edge of a violating face that can be swapped (under the base metric,
    where the quad is admissible) and is not on a seam of the chart
    ``corners`` (its two faces give one of its ends different coordinates)
    is swapped, up to ``_PRE_SURGERY_ROUNDS`` times, or never when
    ``surgery`` is false. A swap rewrites only the two faces of its quad
    and changes only the new diagonal's length, so it clears at most two
    violations: the loop stops once more faces violate than twice the swaps
    left, which never stops a run that would succeed within the cap.

    The loop flips on copies of the mesh's arrays (:func:`edge_swap`), and
    the flips carry the chart corners and the auxiliary lengths, both
    indexed by halfedge, so after each flip only the new diagonal's
    auxiliary length is measured and only its two faces are checked again.
    After the loop a flipped mesh is built once and its auxiliary metric
    measured in full, which also names a zero-``dz`` diagonal by its edge
    id; flips keep face ids, so the loop's own violation list stands.
    Returns the mesh, its auxiliary metric and the number of swaps made;
    the :class:`BeltramiError` raised otherwise names those violating
    faces.
    """
    if not isinstance(mu, BeltramiField):
        mu = BeltramiField(mu)
    aux = auxiliary_metric(base_metric, corners, mu, mesh)
    violations = check_triangle_inequality(aux, mesh)
    faces, twin = mesh.faces.copy(), mesh.twin.copy()
    corner, z = faces.ravel(), corners.flatten()
    base = base_metric.lengths[mesh.edge_of_halfedge]
    lengths = aux.lengths[mesh.edge_of_halfedge]
    bad = np.zeros(mesh.n_faces, dtype=bool)
    bad[violations] = True
    swaps, rounds = 0, _PRE_SURGERY_ROUNDS if surgery else 0
    while 0 < len(violations) <= 2 * (rounds - swaps):
        for h in longest_edges(twin, lengths, violations).tolist():
            t = twin[h]
            if t >= 0 and (z[h] != z[mesh.next(t)]
                           or z[mesh.next(h)] != z[t]):
                continue  # a seam of the chart
            try:
                diagonal = np.array(edge_swap(faces, twin, base,
                                              Geometry.EUCLIDEAN, h,
                                              (lengths, z)))
            except SurgeryError:
                continue
            break
        else:
            break
        swaps += 1
        dz = z[mesh.next(diagonal)] - z[diagonal]
        if not dz.all():  # the full measure names it by its edge id
            break
        a, b = corner[diagonal[0]], corner[mesh.next(diagonal[0])]
        scale = _scale(dz, 0.5 * (mu.values[a] + mu.values[b]))
        lengths[diagonal] = base[diagonal[0]] * scale.mean()
        quad = diagonal // 3
        bad[quad] = _violates(lengths.reshape(-1, 3)[quad])
        violations = np.nonzero(bad)[0].tolist()
    if swaps:
        # through qcflow.flow, where the in-flow surgery looks it up too
        mesh = flow.build_mesh(faces, mesh.positions)
        base_metric = DiscreteMetric(Geometry.EUCLIDEAN,
                                     base[mesh.edge_halfedges[:, 0]])
        aux = auxiliary_metric(base_metric, z.reshape(-1, 3), mu, mesh)
    if violations:
        raise BeltramiError(
            "auxiliary metric is inadmissible "
            + ("even after edge-swap surgery " if surgery else "")
            + f"on faces {violations[:16]}"
            + ("" if surgery else " and surgery is disabled"),
            faces=violations)
    return mesh, aux, swaps


def cmd_qcmap(mesh, mu, geometry, preset, options=FlowOptions(), metric=None):
    """Quasi-conformal map with prescribed Beltrami field: conformal flatten
    (mu = 0) for the parameter ``z``, auxiliary metric, second flow, layout
    and normalization. With ``mu = 0`` the output equals :func:`cmd_flatten`
    bit-identically. ``z`` is read per face corner, so the presets laid out
    on a cut mesh (closed surfaces and the annulus) take it from the cut
    chart, and no pre-flow swap crosses the chart's seams; with
    ``options.surgery`` off none is made. If the flatten's
    flow swapped edges there, the faces it rewrote have no corners in that
    chart, and a :class:`BeltramiError` names those where mu is nonzero."""
    if not isinstance(mu, BeltramiField):
        mu = BeltramiField(np.asarray(mu))
    if metric is None:
        metric = induced_metric(mesh)
    metric = metric.retagged(Geometry.EUCLIDEAN)
    base = cmd_flatten(mesh, geometry, preset, options,
                       metric=metric.retagged(geometry))
    # Slicing keeps every face and corner slot, so the cut mesh's faces name
    # the input faces' corners in the cut chart, except the faces an in-flow
    # swap of the conformal flatten rewrote: there they belong to other
    # vertices. Where mu is zero on such a face's vertices, its scales are
    # exactly 1 and its corners never enter.
    cut = base.mesh is not base.flow.mesh
    corners = base.param.coords[(base.mesh if cut else mesh).faces]
    if cut:
        moved = np.nonzero((base.flow.mesh.faces != mesh.faces).any(axis=1))[0]
        moved = moved[(mu.values[mesh.faces[moved]] != 0).any(axis=1)]
        if moved.size:
            raise BeltramiError(
                "the conformal flatten swapped edges of faces "
                f"{moved[:16].tolist()}, where mu is nonzero, so the cut "
                "chart has no corners for them", faces=moved.tolist())
    qmesh, aux, swaps = _aux_metric_with_surgery(mesh, metric, corners, mu,
                                                 options.surgery)
    result = cmd_flatten(qmesh, geometry, preset, options,
                         metric=aux.retagged(geometry))
    result.report["pre_flow_swaps"] = swaps
    result.report["mu_max_modulus"] = mu.max_modulus
    result.report["conformal_module_mu0"] = base.module
    return result


def cmd_estimate_mu(src_mesh, dst_mesh):
    """Beltrami coefficient of the map between two parameterized meshes with
    identical connectivity; returns the estimate plus CSV rows
    ``(re, im, arg, modulus, dilation)`` per vertex."""
    if not np.array_equal(src_mesh.faces, dst_mesh.faces):
        raise BeltramiError("source and target must share connectivity")
    if src_mesh.uv is None or dst_mesh.uv is None:
        raise BeltramiError("both OBJ files must carry per-vertex vt records")
    est = estimate_beltrami(_finite_uv(src_mesh, "source"),
                            _finite_uv(dst_mesh, "target"), src_mesh)
    mu = est.vertex_mu.values
    mod = np.abs(mu)
    rows = np.column_stack([mu.real, mu.imag, np.angle(mu), mod,
                            (1.0 + mod) / (1.0 - mod)])
    return est, rows


def _finite_uv(mesh, role):
    """The per-vertex uv of ``mesh``, read from the ``role`` OBJ file;
    raises :class:`BeltramiError` naming the first 16 vertices where it is
    not finite."""
    bad = np.flatnonzero(~np.isfinite(mesh.uv))
    if bad.size:
        raise BeltramiError(
            f"{role} OBJ file has non-finite uv at vertices "
            f"{bad[:16].tolist()}" + ("..." if bad.size > 16 else ""))
    return mesh.uv


def csv_text(rows):
    """The ``(re, im, arg, modulus, dilation)`` rows as CSV with a header,
    every value printed ``%.9g``."""
    line = ",".join(["%.9g"] * rows.shape[1]) + "\n"
    return "re,im,arg,modulus,dilation\n" + _format_rows(line, rows)


def cmd_compose(mu_f, mu_g, f_src_mesh, f_dst_mesh):
    """Composition coefficient ``mu_{g o f}`` with ``tau`` derived from the
    supplied source/image pair of ``f`` (pull-back of ``mu_g`` is
    index-aliased: connectivity is shared across the pipeline)."""
    if not np.array_equal(f_src_mesh.faces, f_dst_mesh.faces):
        raise BeltramiError("f source and image must share connectivity")
    if f_src_mesh.uv is None or f_dst_mesh.uv is None:
        raise BeltramiError("f OBJ files must carry per-vertex vt records")
    est = estimate_beltrami(_finite_uv(f_src_mesh, "f source"),
                            _finite_uv(f_dst_mesh, "f image"), f_src_mesh)
    return compose_beltrami(mu_f, mu_g, est.vertex_tau)


def cmd_compare(a_mesh, b_mesh, ref_mesh, threshold=None):
    """Normalized L1 distance between two parameterizations over a reference
    mesh; returns (distance, max pointwise deviation, within_threshold)."""
    if not (np.array_equal(a_mesh.faces, b_mesh.faces)
            and np.array_equal(a_mesh.faces, ref_mesh.faces)):
        raise BeltramiError("all three meshes must share connectivity")
    if a_mesh.uv is None or b_mesh.uv is None:
        raise BeltramiError("compared OBJ files must carry vt records")
    a = _finite_uv(a_mesh, "first compared")
    b = _finite_uv(b_mesh, "second compared")
    metric = induced_metric(ref_mesh)
    dist = map_distance(a, b, ref_mesh, metric)
    worst = float(np.abs(a - b).max())
    ok = threshold is None or dist < threshold
    return dist, worst, ok


def cmd_check(mesh):
    """Validity report: Euler characteristic, boundary census, and for the
    induced metric its violations (the inadmissible faces that the
    :class:`MetricError` of :func:`induced_metric` or :func:`corner_angles`
    names: a zero-length edge, a broken triangle inequality or a corner
    angle of 0 or pi) or, when there are none, its Gauss-Bonnet residual
    and minimum corner angle."""
    doc = {
        "vertices": mesh.n_vertices,
        "edges": mesh.n_edges,
        "faces": mesh.n_faces,
        "chi": euler_characteristic(mesh),
        "boundaries": len(mesh.boundary_loops),
    }
    if mesh.positions is not None:
        try:
            metric = induced_metric(mesh)
            angles = corner_angles(metric, mesh)
        except MetricError as exc:
            doc["violations"] = exc.faces
        else:
            doc["violations"] = []
            doc["gauss_bonnet_residual"] = gauss_bonnet_residual(metric, mesh)
            doc["min_angle"] = float(angles.min())
    return doc
