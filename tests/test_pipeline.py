import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import meshes
from qcflow import flow, pipeline
from qcflow.beltrami import (
    BeltramiField,
    auxiliary_metric,
    estimate_beltrami,
    field_to_json,
)
from qcflow.cli import main as cli_main
from qcflow.errors import (
    BeltramiError,
    LayoutError,
    MetricError,
    PresetError,
    SurgeryError,
)
from qcflow.flow import FlowOptions
from qcflow.mesh import build_mesh, load_obj, save_obj
from qcflow.metric import Geometry, check_triangle_inequality, induced_metric
from qcflow.pipeline import (
    PresetKind,
    TargetPreset,
    _loop_length,
    cmd_check,
    cmd_compare,
    cmd_compose,
    cmd_estimate_mu,
    cmd_flatten,
    cmd_qcmap,
    target_curvature,
)

RECT9 = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(9, 9))


# ---------------------------------------------------------------------------
# presets


def test_rectangle_target(grid9):
    K = target_curvature(grid9, RECT9)
    assert K.sum() == pytest.approx(2 * np.pi)
    corners = meshes.grid_corners(9, 9)
    assert K[list(corners)] == pytest.approx(np.pi / 2)
    assert np.count_nonzero(K) == 4


def test_rectangle_needs_four_distinct_corners():
    with pytest.raises(PresetError):
        TargetPreset(PresetKind.RECTANGLE, (0, 0, 1, 2))


def test_rectangle_corner_must_be_on_boundary(grid9):
    interior = int(np.nonzero(~grid9.boundary_vertex_mask())[0][0])
    preset = TargetPreset(PresetKind.RECTANGLE, (0, 8, 80, interior))
    with pytest.raises(PresetError):
        target_curvature(grid9, preset)


def test_rectangle_rejects_closed_mesh(tetra):
    with pytest.raises(PresetError):
        target_curvature(tetra, TargetPreset(PresetKind.RECTANGLE, (0, 1, 2, 3)))


def test_annulus_target(annulus):
    K = target_curvature(annulus, TargetPreset(PresetKind.ANNULUS))
    assert abs(K.sum()) < 1e-12
    loops = annulus.boundary_loops
    outer = max(loops, key=len)
    inner = min(loops, key=len)
    assert K[list(outer)] == pytest.approx(2 * np.pi / len(outer))
    assert K[list(inner)] == pytest.approx(-2 * np.pi / len(inner))


@pytest.mark.parametrize("n, hole", [(9, 1), (9, 3), (17, 5), (33, 11)])
def test_loop_length_matches_the_edge_id_walk(n, hole):
    # bit for bit, on the flat metric the annulus module is read from
    fr = cmd_flatten(meshes.annulus_mesh(n, hole), Geometry.EUCLIDEAN,
                     TargetPreset(PresetKind.ANNULUS)).flow
    for loop in fr.mesh.boundary_loops:
        walk = 0.0
        for a, b in zip(loop, loop[1:] + loop[:1]):
            walk += float(fr.metric.lengths[meshes.edge_id(fr.mesh, a, b)])
        assert _loop_length(fr.mesh, fr.metric, loop) == walk


def test_annulus_preset_rejects_disk(grid9):
    with pytest.raises(PresetError):
        target_curvature(grid9, TargetPreset(PresetKind.ANNULUS))


def test_free_disk_preset_rejects_closed_mesh(tetra):
    with pytest.raises(PresetError, match="^free-disk preset needs a disk"):
        target_curvature(tetra, TargetPreset(PresetKind.FREE_DISK))


def test_closed_presets_validate_topology(tetra, grid9, genus2):
    torus, _ = meshes.torus_grid(6, 6)
    assert not target_curvature(torus, TargetPreset(PresetKind.CLOSED_FLAT)).any()
    assert not target_curvature(genus2,
                                TargetPreset(PresetKind.CLOSED_HYPERBOLIC)).any()
    with pytest.raises(PresetError):
        target_curvature(tetra, TargetPreset(PresetKind.CLOSED_FLAT))
    with pytest.raises(PresetError):
        target_curvature(grid9, TargetPreset(PresetKind.CLOSED_HYPERBOLIC))
    with pytest.raises(PresetError):
        target_curvature(torus, TargetPreset(PresetKind.CLOSED_HYPERBOLIC))


def test_preset_geometry_mismatch(grid9):
    with pytest.raises(PresetError):
        cmd_flatten(grid9, Geometry.HYPERBOLIC, RECT9)


# ---------------------------------------------------------------------------
# flatten


def test_flatten_square_module(grid9):
    out = cmd_flatten(grid9, Geometry.EUCLIDEAN, RECT9)
    assert out.module == pytest.approx(1.0, abs=1e-6)
    corners = out.param.coords[list(meshes.grid_corners(9, 9))]
    assert corners[0] == 0.0
    assert corners[1] == pytest.approx(1.0)


def test_flatten_2to1_module():
    mesh = meshes.grid_mesh(17, 9, w=2.0, h=1.0)
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(17, 9))
    out = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset)
    assert out.module == pytest.approx(0.5, abs=1e-6)


def test_flatten_free_disk(grid9):
    out = cmd_flatten(grid9, Geometry.EUCLIDEAN,
                      TargetPreset(PresetKind.FREE_DISK))
    assert out.module is None
    z = out.param.coords
    assert np.abs(z).max() == pytest.approx(1.0)
    # uniform boundary turning gives a convex, nearly round image polygon
    # (side lengths still vary, so it is not an exact circle)
    radii = np.abs(z[list(grid9.boundary_loops[0])])
    assert np.ptp(radii) / radii.mean() < 0.1
    interior = ~grid9.boundary_vertex_mask()
    assert np.abs(z[interior]).max() < radii.min()


def test_flatten_annulus(annulus):
    out = cmd_flatten(annulus, Geometry.EUCLIDEAN,
                      TargetPreset(PresetKind.ANNULUS))
    assert 0.0 < out.module < 1.0
    # layout is isometric for the cut-open flat metric
    lengths = meshes.embedded_edge_lengths(out.mesh, out.param)
    metric_lengths = meshes.push_edge(out.flow.mesh, out.mesh,
                                      out.flow.metric.lengths)
    assert (np.abs(lengths - metric_lengths) / metric_lengths).max() < 1e-7
    assert out.report["module"] == out.module


def test_flatten_torus_periods():
    mesh, metric = meshes.torus_grid(12, 12)
    # positions are absent: drive through run_flow-compatible path by
    # supplying the metric explicitly
    out = cmd_flatten(mesh, Geometry.EUCLIDEAN,
                      TargetPreset(PresetKind.CLOSED_FLAT), metric=metric)
    assert out.periods is not None
    assert abs(abs(out.periods.za) - 1.0) < 1e-6
    assert "periods" in out.report


def test_flatten_genus2_hyperbolic(genus2):
    out = cmd_flatten(genus2, Geometry.HYPERBOLIC,
                      TargetPreset(PresetKind.CLOSED_HYPERBOLIC))
    assert out.param.geometry == Geometry.HYPERBOLIC
    assert np.abs(out.param.coords).max() < 1.0


def test_flatten_above_flatness_tolerance_names_faces():
    # A flow that converges to an eps above the layout's flatness tolerance
    # leaves an interior vertex curved; the layout names the faces around it.
    mesh = meshes.grid_mesh(33, 33, bump=0.3)
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(33, 33))
    with pytest.raises(LayoutError, match="^interior vertex 544 ") as exc:
        cmd_flatten(mesh, Geometry.EUCLIDEAN, preset, FlowOptions(eps=1e-5))
    ring = mesh.outgoing_halfedges(544)
    assert exc.value.faces == sorted(h // 3 for h in ring)
    assert len(exc.value.faces) == 6


def test_flatten_deterministic(grid9, tmp_path):
    a = tmp_path / "a.obj"
    b = tmp_path / "b.obj"
    out1 = cmd_flatten(grid9, Geometry.EUCLIDEAN, RECT9)
    out2 = cmd_flatten(grid9, Geometry.EUCLIDEAN, RECT9)
    save_obj(out1.mesh, a, uv=out1.param)
    save_obj(out2.mesh, b, uv=out2.param)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# qcmap


def test_qcmap_zero_mu_equals_flatten(grid9, tmp_path):
    mu = BeltramiField(np.zeros(grid9.n_vertices, dtype=complex))
    flat = cmd_flatten(grid9, Geometry.EUCLIDEAN, RECT9)
    qc = cmd_qcmap(grid9, mu, Geometry.EUCLIDEAN, RECT9)
    assert np.array_equal(flat.param.coords, qc.param.coords)
    a = tmp_path / "flat.obj"
    b = tmp_path / "qc.obj"
    save_obj(flat.mesh, a, uv=flat.param)
    save_obj(qc.mesh, b, uv=qc.param)
    assert a.read_bytes() == b.read_bytes()


def test_qcmap_rejects_unit_mu(grid9):
    mu = np.zeros(grid9.n_vertices, dtype=complex)
    mu[3] = 1.0
    with pytest.raises(BeltramiError):
        cmd_qcmap(grid9, mu, Geometry.EUCLIDEAN, RECT9)


def test_qcmap_changes_module(grid33):
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(33, 33))
    flat = cmd_flatten(grid33, Geometry.EUCLIDEAN, preset)
    mu = BeltramiField(np.full(grid33.n_vertices, 0.3 + 0j))
    qc = cmd_qcmap(grid33, mu, Geometry.EUCLIDEAN, preset)
    assert abs(qc.module - flat.module) > 1e-3


def test_qcmap_round_trip_on_grid(grid33):
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(33, 33))
    mu0 = 0.15 + 0.15j
    mu = BeltramiField(np.full(grid33.n_vertices, mu0))
    flat = cmd_flatten(grid33, Geometry.EUCLIDEAN, preset)
    qc = cmd_qcmap(grid33, mu, Geometry.EUCLIDEAN, preset)
    est = estimate_beltrami(flat.param, qc.param, grid33)
    err_re = np.abs(est.vertex_mu.values.real - mu0.real)
    err_im = np.abs(est.vertex_mu.values.imag - mu0.imag)
    assert np.median(err_re) < 0.02
    assert np.median(err_im) < 0.02


def test_qcmap_torus_with_consistent_mu():
    mesh, metric = meshes.torus_grid(12, 12)
    mu = BeltramiField(np.full(mesh.n_vertices, 0.1 + 0.05j))
    out = cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN,
                    TargetPreset(PresetKind.CLOSED_FLAT), metric=metric)
    assert out.periods is not None
    # constant mu turns the square torus into a genuinely different lattice
    ratio = abs(out.periods.zb) / abs(out.periods.za)
    assert ratio != pytest.approx(1.0, abs=1e-6)


@pytest.fixture(scope="module")
def rect33x17():
    mesh = meshes.grid_mesh(33, 17, w=2, bump=0.3)
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(33, 17))
    return mesh, preset, cmd_flatten(mesh, Geometry.EUCLIDEAN, preset).module


@pytest.mark.parametrize("k", [0.3, 0.7, 0.85, 0.95, -0.5])
def test_qcmap_real_constant_mu_module_is_exact(rect33x17, k):
    # z -> z + k conj(z) scales x by 1 + k and y by 1 - k, so a real
    # constant mu multiplies the conformal module by (1 - k) / (1 + k); the
    # grid is not square, so that module is not 1 by symmetry
    mesh, preset, module = rect33x17
    mu = BeltramiField(np.full(mesh.n_vertices, k + 0j))
    qc = cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN, preset)
    expected = module * (1 - k) / (1 + k)
    assert abs(qc.module - expected) <= 1e-7 * expected


def _reduced_ratio(za, zb):
    """``zb / za`` in the upper half-plane (a basis is defined only up to
    sign), moved to the fundamental domain of SL(2, Z), where two bases of
    one lattice give the same point."""
    tau = zb / za
    tau = tau if tau.imag > 0 else -tau
    while True:
        tau -= round(tau.real)
        if abs(tau) >= 1:
            return tau
        tau = -1 / tau


@pytest.mark.parametrize("n", [(12, 8), (24, 16)], ids=["12x8", "24x16"])
@pytest.mark.parametrize("mu0", [0.5 * np.exp(0.25j * np.pi),
                                 0.85 * np.exp(0.25j * np.pi), 0.3 - 0.2j],
                         ids=["0.5", "0.85", "0.3-0.2i"])
def test_qcmap_flat_torus_periods_are_affine(n, mu0):
    # on a flat torus a constant mu is the affine map z -> z + mu conj(z),
    # which maps the flat periods onto the quasi-conformal ones
    mesh, metric = meshes.torus_grid(*n, h=0.7)
    preset = TargetPreset(PresetKind.CLOSED_FLAT)
    flat = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset, metric=metric).periods
    mu = BeltramiField(np.full(mesh.n_vertices, mu0))
    qc = cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN, preset, metric=metric).periods
    za, zb = (z + mu0 * np.conj(z) for z in (flat.za, flat.zb))
    assert abs(_reduced_ratio(qc.za, qc.zb) - _reduced_ratio(za, zb)) <= 1e-12


@pytest.mark.parametrize("n", [(24, 16), (48, 32)], ids=["24x16", "48x32"])
@pytest.mark.parametrize("k", [0.3, 0.5])
def test_qcmap_embedded_torus_periods_are_affine(n, k):
    # the conformal flatten makes the embedded torus a flat one, so a
    # constant mu maps its periods by z -> z + mu conj(z) as well
    mesh = meshes.embedded_torus(*n)
    preset = TargetPreset(PresetKind.CLOSED_FLAT)
    flat = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset).periods
    mu0 = k * np.exp(0.25j * np.pi)
    mu = BeltramiField(np.full(mesh.n_vertices, mu0))
    qc = cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN, preset).periods
    za, zb = (z + mu0 * np.conj(z) for z in (flat.za, flat.zb))
    assert abs(_reduced_ratio(qc.za, qc.zb) - _reduced_ratio(za, zb)) <= 1e-8


@pytest.mark.parametrize("field", ["const", "smooth"])
def test_qcmap_round_trip_converges_at_second_order(field):
    # criterion 06's round-trip error |est - mu| on the bumped square, for
    # the sweep's constant and smooth fields at k = 0.5: each halving of
    # the mesh size divides its median and p90 by about 4
    errors = []
    for n in (17, 33, 65):
        mesh = meshes.grid_mesh(n, n, bump=0.3)
        x, y = mesh.positions[:, 0], mesh.positions[:, 1]
        mu = (np.full(mesh.n_vertices, 0.5 * np.exp(0.25j * np.pi))
              if field == "const" else
              0.5 * np.sin(np.pi * x) * np.sin(np.pi * y) * np.exp(2j * np.pi * x))
        preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(n, n))
        flat = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset)
        qc = cmd_qcmap(mesh, BeltramiField(mu), Geometry.EUCLIDEAN, preset)
        est = estimate_beltrami(flat.param, qc.param, mesh)
        err = np.abs(est.vertex_mu.values - mu)
        errors.append([np.median(err), np.percentile(err, 90)])
    errors = np.array(errors)
    order = np.log2(errors[:-1] / errors[1:])
    assert order.min() >= 1.7, order


def test_cli_qcmap_annulus(tmp_path, annulus):
    # the annulus is laid out on a slit disk, and qcmap takes z from that
    # chart: mu = 0 writes flatten's bytes, mu = 0.3 changes the module
    obj = tmp_path / "annulus.obj"
    save_obj(annulus, obj)
    flat = tmp_path / "flat.obj"
    assert cli_main(["flatten", "--input", str(obj), "--preset", "annulus",
                     "--out", str(flat)]) == 0
    modules = []
    for k in (0.0, 0.3):
        mu_path = tmp_path / f"mu-{k}.json"
        mu_path.write_text(field_to_json(
            BeltramiField(np.full(annulus.n_vertices, k + 0j))))
        out = tmp_path / f"qc-{k}.obj"
        report = tmp_path / f"qc-{k}.json"
        assert cli_main(["qcmap", "--input", str(obj), "--mu", str(mu_path),
                         "--preset", "annulus", "--out", str(out),
                         "--report", str(report)]) == 0
        modules.append(json.loads(report.read_text())["module"])
    assert (tmp_path / "qc-0.0.obj").read_bytes() == flat.read_bytes()
    assert abs(modules[1] - modules[0]) > 1e-3


@pytest.mark.parametrize("mesh, kind, geometry", [
    (meshes.embedded_torus(24, 16), PresetKind.CLOSED_FLAT,
     Geometry.EUCLIDEAN),
    (meshes.genus2_mesh(), PresetKind.CLOSED_HYPERBOLIC, Geometry.HYPERBOLIC),
], ids=["closed-flat", "closed-hyperbolic"])
def test_qcmap_zero_mu_equals_flatten_closed(tmp_path, mesh, kind, geometry):
    preset = TargetPreset(kind)
    flat = cmd_flatten(mesh, geometry, preset)
    qc = cmd_qcmap(mesh, np.zeros(mesh.n_vertices), geometry, preset)
    assert qc.report["pre_flow_swaps"] == 0
    a, b = tmp_path / "flat.obj", tmp_path / "qc.obj"
    save_obj(flat.mesh, a, uv=flat.param)
    save_obj(qc.mesh, b, uv=qc.param)
    assert a.read_bytes() == b.read_bytes()


def test_qcmap_reads_a_swapped_disk_flatten_on_the_input_faces():
    # the conformal flatten of this jittered grid swaps edges and rewrites
    # faces 84 and 85; a disk is not cut, so every vertex keeps its id and
    # qcmap reads the chart on the input faces (on the rewritten faces the
    # module would read 0.667600563212915, after 2 in-flow swaps)
    grid = meshes.grid_mesh(12, 12)
    jitter = np.random.default_rng(18).normal(scale=0.35 / 11, size=(144, 3))
    mesh = build_mesh(grid.faces, grid.positions + jitter * [1, 1, 3])
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(12, 12))
    base = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset)
    assert base.mesh is base.flow.mesh
    assert np.flatnonzero((base.mesh.faces != mesh.faces).any(axis=1)) \
        .tolist() == [84, 85]
    qc = cmd_qcmap(mesh, np.full(144, 0.3 * np.exp(0.25j * np.pi)),
                   Geometry.EUCLIDEAN, preset)
    assert qc.module == pytest.approx(0.666814613514725, abs=1e-12)
    assert qc.report["pre_flow_swaps"] == 29
    assert qc.report["flow"]["swaps"] == 3


def test_qcmap_annulus_swaps_leave_the_seam_alone(annulus, monkeypatch):
    # the cut chart gives the two faces of a slit edge different corners, so
    # the pre-flow surgery swaps only off the slit; this field still fails
    base = cmd_flatten(annulus, Geometry.EUCLIDEAN,
                       TargetPreset(PresetKind.ANNULUS))
    slit = {frozenset(annulus.edges[e].tolist())
            for e in meshes.cut_record(base.flow.mesh, base.mesh).cut_edges}
    tried, made = [], []

    def recording_swap(faces, twin, lengths, geometry, h, carried=()):
        tried.append(frozenset(
            faces.ravel()[[h, annulus.next(h)]].tolist()))
        out = flow.edge_swap(faces, twin, lengths, geometry, h, carried)
        made.append(tried[-1])
        return out

    monkeypatch.setattr(pipeline, "edge_swap", recording_swap)
    mu = np.full(annulus.n_vertices, 0.7 * np.exp(0.25j * np.pi))
    with pytest.raises(BeltramiError, match="^auxiliary metric is "
                       "inadmissible even after edge-swap surgery"):
        cmd_qcmap(annulus, mu, Geometry.EUCLIDEAN,
                  TargetPreset(PresetKind.ANNULUS))
    assert made and not slit & set(tried)


def test_chart_swap_refuses_seam_edges(annulus, monkeypatch):
    # each slit edge's two faces give its ends different cut-chart corners,
    # so the pre-flow surgery passes over it even as the longest edge of
    # every violating face, from either halfedge, and flips nothing
    base = cmd_flatten(annulus, Geometry.EUCLIDEAN,
                       TargetPreset(PresetKind.ANNULUS))
    cut = meshes.cut_record(base.flow.mesh, base.mesh).cut_edges
    seam = annulus.edge_halfedges[sorted(cut)].ravel()
    assert (seam >= 0).all()
    asked = []

    def seam_edges(twin, lengths, faces):
        asked.append(list(faces))
        return seam

    def no_swap(*args):
        raise AssertionError(f"seam halfedge {args[4]} was flipped")

    monkeypatch.setattr(pipeline, "longest_edges", seam_edges)
    monkeypatch.setattr(pipeline, "edge_swap", no_swap)
    mu = np.full(annulus.n_vertices, 0.7 * np.exp(0.25j * np.pi))
    with pytest.raises(BeltramiError, match="^auxiliary metric is "
                       "inadmissible even after edge-swap surgery") as info:
        cmd_qcmap(annulus, mu, Geometry.EUCLIDEAN,
                  TargetPreset(PresetKind.ANNULUS))
    assert asked == [info.value.faces]


def test_chart_swap_carries_corners(grid9):
    # in a single-valued chart, the carried corners are the chart's
    # coordinates of the swapped faces
    z = cmd_flatten(grid9, Geometry.EUCLIDEAN, RECT9).param.coords
    metric = induced_metric(grid9)
    swapped = 0
    for h in range(grid9.n_halfedges):
        faces, twin = grid9.faces.copy(), grid9.twin.copy()
        lengths = metric.lengths[grid9.edge_of_halfedge]
        corners = z[grid9.faces].ravel()
        try:
            flow.edge_swap(faces, twin, lengths, metric.geometry, h,
                           (corners,))
        except SurgeryError:
            continue
        swapped += 1
        assert np.array_equal(corners, z[faces].ravel())
    assert swapped > 100


# ---------------------------------------------------------------------------
# estimate / compose / compare / check


def _two_param_objs(tmp_path, mesh, preset, mu0):
    flat = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset)
    mu = BeltramiField(np.full(mesh.n_vertices, mu0))
    qc = cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN, preset)
    src = tmp_path / "src.obj"
    dst = tmp_path / "dst.obj"
    save_obj(flat.mesh, src, uv=flat.param)
    save_obj(qc.mesh, dst, uv=qc.param)
    return src, dst


def test_cmd_estimate_mu(tmp_path, grid9):
    src, dst = _two_param_objs(tmp_path, grid9, RECT9, 0.2 + 0.1j)
    est, rows = cmd_estimate_mu(load_obj(src), load_obj(dst))
    med = np.median(est.vertex_mu.values.real)
    assert med == pytest.approx(0.2, abs=0.02)
    assert rows.shape == (grid9.n_vertices, 5)


def test_cmd_estimate_identity(tmp_path, grid9):
    flat = cmd_flatten(grid9, Geometry.EUCLIDEAN, RECT9)
    p = tmp_path / "p.obj"
    save_obj(flat.mesh, p, uv=flat.param)
    est, rows = cmd_estimate_mu(load_obj(p), load_obj(p))
    assert np.abs(est.vertex_mu.values).max() == 0.0
    assert rows[:, 4] == pytest.approx(1.0)


def test_cmd_estimate_connectivity_mismatch(tmp_path, grid9):
    flat = cmd_flatten(grid9, Geometry.EUCLIDEAN, RECT9)
    p = tmp_path / "p.obj"
    save_obj(flat.mesh, p, uv=flat.param)
    other = meshes.grid_mesh(5, 5)
    flat5 = cmd_flatten(other, Geometry.EUCLIDEAN,
                        TargetPreset(PresetKind.RECTANGLE,
                                     meshes.grid_corners(5, 5)))
    q = tmp_path / "q.obj"
    save_obj(flat5.mesh, q, uv=flat5.param)
    with pytest.raises(BeltramiError):
        cmd_estimate_mu(load_obj(p), load_obj(q))


def test_cmd_compose_identities(tmp_path, grid9):
    flat = cmd_flatten(grid9, Geometry.EUCLIDEAN, RECT9)
    p = tmp_path / "p.obj"
    save_obj(flat.mesh, p, uv=flat.param)
    mesh = load_obj(p)
    zero = BeltramiField(np.zeros(grid9.n_vertices, dtype=complex))
    some = BeltramiField(np.full(grid9.n_vertices, 0.2 - 0.1j))
    # f = identity (src = dst): tau = 1, mu_f = 0 -> output = mu_g
    out = cmd_compose(zero, some, mesh, mesh)
    assert np.abs(out.values - some.values).max() < 1e-12
    out = cmd_compose(some, zero, mesh, mesh)
    assert np.array_equal(out.values, some.values)


def test_cmd_compare(tmp_path, grid9):
    src, dst = _two_param_objs(tmp_path, grid9, RECT9, 0.15 + 0.15j)
    a, b, ref = load_obj(src), load_obj(dst), load_obj(src)
    dist, worst, ok = cmd_compare(a, a, ref)
    assert dist == 0.0 and worst == 0.0 and ok
    dist, worst, ok = cmd_compare(a, b, ref, threshold=1e-12)
    assert dist > 0.0 and not ok


def test_non_finite_uv_names_the_first_16_vertices(grid9):
    good = build_mesh(grid9.faces, grid9.positions,
                      uv=grid9.positions[:, 0] + 0j)
    bad = build_mesh(grid9.faces, grid9.positions,
                     uv=np.full(grid9.n_vertices, complex(np.inf, 0.0)))
    with pytest.raises(BeltramiError) as err:
        cmd_estimate_mu(bad, good)
    assert str(err.value) == ("source OBJ file has non-finite uv at vertices "
                              f"{list(range(16))}...")


def test_cmd_check(tetra, grid9):
    doc = cmd_check(tetra)
    assert doc["chi"] == 2
    assert doc["boundaries"] == 0
    assert abs(doc["gauss_bonnet_residual"]) < 1e-9
    doc = cmd_check(grid9)
    assert doc["chi"] == 1
    assert doc["boundaries"] == 1


def test_cmd_check_sliver():
    sliver = meshes.sliver_mesh(1e-4)
    doc = cmd_check(sliver)
    assert doc["violations"] == []
    assert doc["min_angle"] < 1e-3


def test_zero_angle_faces_are_named():
    # vertex 40 moved to 1e-9 short of vertex 41: both faces on edge 40-41
    # keep the strict triangle inequality, but a cosine of theirs rounds to
    # +-1, a corner of 0 or pi whose cotangent the Newton system would
    # divide by. check lists them; flatten stops at the first flow state
    # and names them, with no RuntimeWarning.
    grid = meshes.grid_mesh(9, 9, bump=0.3)
    pos = grid.positions.copy()
    pos[40] = pos[41] - [1e-9, 0.0, 0.0]
    mesh = build_mesh(grid.faces, pos)
    faces = [f for f in range(mesh.n_faces) if {40, 41} <= set(mesh.faces[f])]
    assert not check_triangle_inequality(induced_metric(mesh), mesh)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        doc = cmd_check(mesh)
        assert doc["violations"] == faces
        assert "min_angle" not in doc
        with pytest.raises(MetricError, match="corner angle 0 or pi") as err:
            cmd_flatten(mesh, Geometry.EUCLIDEAN, RECT9)
    assert err.value.faces == faces


def test_cli_check_reports_coincident_vertices(tmp_path, capsys):
    # vertices 2 and 5 (1-based) coincide, so edge 2-5 of face 2 has length
    # 0: check reports that face as a violation instead of failing
    path = tmp_path / "coincident.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 1 0 0\n"
                    "f 1 2 3\nf 1 3 4\nf 2 5 3\n")
    with pytest.raises(MetricError, match="zero-length edges") as err:
        induced_metric(load_obj(path))
    assert err.value.faces == [2]
    assert cli_main(["check", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == [2]
    assert "min_angle" not in doc


@pytest.mark.parametrize("x", ["nan", "inf"])
def test_check_names_the_faces_of_a_non_finite_vertex(tmp_path, capsys, x):
    # vertex 5 (1-based) is not finite, so its two edges, both in face 2,
    # have no length: check lists that face and drops the Gauss-Bonnet
    # residual, and flatten and qcmap name it, with no RuntimeWarning
    path = tmp_path / "bad.obj"
    path.write_text(f"v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv {x} 0 0\n"
                    "f 1 2 3\nf 1 3 4\nf 2 5 3\n")
    mesh = load_obj(path)
    free = TargetPreset(PresetKind.FREE_DISK)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(["check", "--input", str(path)]) == 0
        for run in (lambda: cmd_flatten(mesh, Geometry.EUCLIDEAN, free),
                    lambda: cmd_qcmap(mesh, np.zeros(5), Geometry.EUCLIDEAN,
                                      free)):
            with pytest.raises(MetricError, match=r"^non-finite edges") as err:
                run()
            assert err.value.faces == [2]
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == [2]
    assert "gauss_bonnet_residual" not in doc and "min_angle" not in doc


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture()
def grid_obj(tmp_path, grid9):
    path = tmp_path / "grid.obj"
    save_obj(grid9, path)
    return path


def test_cli_flatten_and_check(tmp_path, grid_obj):
    out = tmp_path / "flat.obj"
    report = tmp_path / "report.json"
    code = cli_main([
        "flatten", "--input", str(grid_obj), "--preset", "rectangle",
        "--corners", "0,8,80,72", "--out", str(out), "--report", str(report),
    ])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["module"] == pytest.approx(1.0, abs=1e-6)
    assert doc["flow"]["converged"] is True
    assert cli_main(["check", "--input", str(out)]) == 0


def test_cli_qcmap_estimate_compose_compare(tmp_path, grid_obj, grid9):
    mu0 = 0.15 + 0.15j
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(
        field_to_json(BeltramiField(np.full(grid9.n_vertices, mu0))))
    flat = tmp_path / "flat.obj"
    qc = tmp_path / "qc.obj"
    assert cli_main(["flatten", "--input", str(grid_obj), "--preset",
                     "rectangle", "--corners", "0,8,80,72",
                     "--out", str(flat)]) == 0
    assert cli_main(["qcmap", "--input", str(grid_obj), "--mu", str(mu_path),
                     "--preset", "rectangle", "--corners", "0,8,80,72",
                     "--out", str(qc)]) == 0

    est_path = tmp_path / "est.json"
    hist_path = tmp_path / "hist.csv"
    assert cli_main(["estimate-mu", "--src", str(flat), "--dst", str(qc),
                     "--out", str(est_path), "--hist", str(hist_path)]) == 0
    hist = hist_path.read_text().splitlines()
    assert hist[0] == "re,im,arg,modulus,dilation"
    assert len(hist) == grid9.n_vertices + 1

    comp_path = tmp_path / "comp.json"
    assert cli_main(["compose-mu", "--mu-f", str(mu_path), "--mu-g",
                     str(mu_path), "--f-src", str(flat), "--f-dst", str(qc),
                     "--out", str(comp_path)]) == 0

    # identical maps compare at distance zero; different ones fail a tight
    # threshold with exit code 1
    assert cli_main(["compare", "--a", str(flat), "--b", str(flat),
                     "--mesh", str(grid_obj), "--threshold", "1e-12"]) == 0
    assert cli_main(["compare", "--a", str(flat), "--b", str(qc),
                     "--mesh", str(grid_obj), "--threshold", "1e-12"]) == 1


_NUMPY_ONLY_RUN = """
import json, sys
import qcflow.cli as cli
jobs = json.loads(sys.argv[1])
codes = [cli.main(argv) for argv in jobs["numpy"]]
before = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
codes.append(cli.main(jobs["flatten"]))
print(json.dumps({"codes": codes, "scipy_before_flatten": before,
                  "flatten": "scipy.sparse.linalg" in sys.modules}))
"""


def test_cli_loads_scipy_at_the_first_newton_system(tmp_path):
    # a fresh interpreter runs check, estimate-mu, compose-mu and compare on
    # NumPy alone; flatten in the same process then loads SciPy and writes
    # the bytes an in-process run writes. The bump makes the flow take
    # Newton steps: a flat grid already has the rectangle's curvature.
    mesh = meshes.grid_mesh(9, 9, bump=0.3)
    grid_obj = tmp_path / "grid.obj"
    save_obj(mesh, grid_obj)
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(
        field_to_json(BeltramiField(np.full(mesh.n_vertices, 0.2 + 0.1j))))
    flat, qc = tmp_path / "flat.obj", tmp_path / "qc.obj"
    corners = ["--preset", "rectangle", "--corners", "0,8,80,72"]
    assert cli_main(["flatten", "--input", str(grid_obj), *corners,
                     "--out", str(flat)]) == 0
    assert cli_main(["qcmap", "--input", str(grid_obj), "--mu", str(mu_path),
                     *corners, "--out", str(qc)]) == 0
    fresh = tmp_path / "fresh.obj"
    jobs = {
        "numpy": [
            ["check", "--input", str(grid_obj)],
            ["estimate-mu", "--src", str(flat), "--dst", str(qc),
             "--out", str(tmp_path / "est.json"),
             "--hist", str(tmp_path / "hist.csv")],
            ["compose-mu", "--mu-f", str(mu_path), "--mu-g", str(mu_path),
             "--f-src", str(flat), "--f-dst", str(qc),
             "--out", str(tmp_path / "comp.json")],
            ["compare", "--a", str(flat), "--b", str(qc),
             "--mesh", str(grid_obj)],
        ],
        "flatten": ["flatten", "--input", str(grid_obj), *corners,
                    "--out", str(fresh)],
    }
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_RUN,
                          json.dumps(jobs)], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    doc = json.loads(run.stdout.splitlines()[-1])
    assert doc == {"codes": [0] * 5, "scipy_before_flatten": [],
                   "flatten": True}
    assert fresh.read_bytes() == flat.read_bytes()


def test_cli_validation_exit_code(tmp_path, grid_obj):
    out = tmp_path / "x.obj"
    # annulus preset on a disk: validation failure -> exit 1
    code = cli_main(["flatten", "--input", str(grid_obj), "--preset",
                     "annulus", "--out", str(out)])
    assert code == 1


def test_cli_corners_only_with_rectangle(tmp_path, grid_obj, capsys):
    # --corners with another preset is a preset error, not dropped
    out = tmp_path / "x.obj"
    assert cli_main(["flatten", "--input", str(grid_obj), "--preset",
                     "free-disk", "--corners", "0,8,80,72",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: free-disk preset takes no corners\n")
    assert not out.exists()


@pytest.mark.parametrize("corners", ["0,8,x,72", "0,8,80"])
def test_cli_corners_must_be_four_integers(tmp_path, grid_obj, capsys,
                                           corners):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["flatten", "--input", str(grid_obj), "--preset",
                  "rectangle", "--corners", corners,
                  "--out", str(tmp_path / "x.obj")])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(
        "argument --corners: corners must be four integers i,j,k,l\n")


@pytest.mark.parametrize("argv, message", [
    ("estimate-mu --src plain --dst uv --out out",
     "both OBJ files must carry per-vertex vt records"),
    ("compose-mu --mu-f mu --mu-g mu --f-src uv --f-dst other --out out",
     "f source and image must share connectivity"),
    ("compose-mu --mu-f mu --mu-g mu --f-src uv --f-dst plain --out out",
     "f OBJ files must carry per-vertex vt records"),
    ("compare --a uv --b uv --mesh other",
     "all three meshes must share connectivity"),
    ("compare --a plain --b uv --mesh uv",
     "compared OBJ files must carry vt records"),
    ("estimate-mu --src uv --dst inf --out out",
     "target OBJ file has non-finite uv at vertices [3, 40]"),
    ("compose-mu --mu-f mu --mu-g mu --f-src inf --f-dst uv --out out",
     "f source OBJ file has non-finite uv at vertices [3, 40]"),
    ("compare --a uv --b inf --mesh plain",
     "second compared OBJ file has non-finite uv at vertices [3, 40]"),
], ids=["estimate-vt", "compose-connectivity", "compose-vt",
        "compare-connectivity", "compare-vt", "estimate-finite",
        "compose-finite", "compare-finite"])
def test_cli_analysis_input_checks(tmp_path, grid9, capsys, argv, message):
    # the grid with vt records (uv) and without (plain), the same vertices
    # with the faces in reverse order (other), the grid with u infinite at
    # vertex 3 and v at vertex 40 (inf), and a zero mu field
    path = {name: tmp_path / name for name in ("uv", "plain", "other", "inf",
                                               "mu", "out")}
    save_obj(grid9, path["uv"], uv=grid9.positions[:, 0] + 0j)
    bad = grid9.positions[:, 0] + 0j
    bad[3], bad[40] = np.inf, complex(0.5, -np.inf)
    save_obj(grid9, path["inf"], uv=bad)
    save_obj(grid9, path["plain"])
    save_obj(build_mesh(grid9.faces[::-1], grid9.positions), path["other"],
             uv=grid9.positions[:, 0] + 0j)
    path["mu"].write_text(
        field_to_json(BeltramiField(np.zeros(grid9.n_vertices))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli_main([str(path.get(a, a)) for a in argv.split()])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not path["out"].exists()


@pytest.mark.parametrize("faces", ["f 1/1 2/2 3/3\nf 2/2 4/4 3/3\n",
                                   "f 1/1 2/2 4/4\nf 1/1 4/4 3/3\n"],
                         ids=["two-corners", "one-corner"])
def test_cli_shared_nan_vt_reaches_the_finite_check(tmp_path, capsys, faces):
    # vertex 3 takes `vt 1 nan` in two corners or in one: a NaN matches a
    # NaN, so both load, and the analysis commands refuse the non-finite uv
    path = tmp_path / "nan.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\n"
                    "vt 0 0\nvt 1 0\nvt 1 nan\nvt 1 1\n" + faces)
    assert cli_main(["check", "--input", str(path)]) == 0
    capsys.readouterr()
    assert cli_main(["estimate-mu", "--src", str(path), "--dst", str(path),
                     "--out", str(tmp_path / "mu.json")]) == 1
    assert capsys.readouterr().err == (
        "error: source OBJ file has non-finite uv at vertices [2]\n")


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0\nf 1 2 3\n")
    code = cli_main(["check", "--input", str(bad)])
    assert code == 2


def test_cli_missing_file_exit_code(tmp_path):
    code = cli_main(["check", "--input", str(tmp_path / "absent.obj")])
    assert code == 2


def test_cli_failed_write_leaves_no_temp_file(tmp_path, grid_obj):
    # --out names a directory: the write fails after the temporary file is
    # made, and that file must not be left behind
    out = tmp_path / "out.obj"
    out.mkdir()
    before = sorted(os.listdir(tmp_path))
    code = cli_main(["flatten", "--input", str(grid_obj), "--preset",
                     "rectangle", "--corners", "0,8,80,72", "--out", str(out)])
    assert code == 2
    assert sorted(os.listdir(tmp_path)) == before
    assert os.listdir(out) == []


def test_cli_qcmap_error_order(tmp_path, grid_obj, grid9, capsys):
    # OBJ errors come first, then the mu JSON, then the preset
    bad_obj = tmp_path / "bad.obj"
    bad_obj.write_text("v 0 0\nf 1 2 3\n")
    bad_mu = tmp_path / "bad.json"
    bad_mu.write_text("{")
    mu = tmp_path / "mu.json"
    mu.write_text(field_to_json(BeltramiField(np.zeros(grid9.n_vertices))))
    for obj, mu_path, code, message in [
        (bad_obj, bad_mu, 2, f"error: {bad_obj}:1: "),
        (grid_obj, bad_mu, 1, "error: malformed mu JSON: "),
        (grid_obj, mu, 1, "error: rectangle preset requires --corners"),
    ]:
        assert cli_main(["qcmap", "--input", str(obj), "--mu", str(mu_path),
                         "--preset", "rectangle",
                         "--out", str(tmp_path / "o.obj")]) == code
        assert capsys.readouterr().err.startswith(message)


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli_main(["flutten"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag, value", [
    ("--eps", "0"), ("--eps", "nan"), ("--eps", "-1"),
    ("--max-iterations", "0"),
])
def test_cli_flow_flag_out_of_range_is_usage_error(tmp_path, grid_obj,
                                                   capsys, flag, value):
    out = tmp_path / "o.obj"
    with pytest.raises(SystemExit) as err:
        cli_main(["flatten", "--input", str(grid_obj), "--preset",
                  "rectangle", "--corners", "0,8,80,72", flag, value,
                  "--out", str(out)])
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1].startswith("qcflow: error: ")
    assert not out.exists()


def test_cli_outputs_deterministic(tmp_path, grid_obj):
    outs = []
    for tag in ("1", "2"):
        out = tmp_path / f"o{tag}.obj"
        report = tmp_path / f"r{tag}.json"
        assert cli_main(["flatten", "--input", str(grid_obj), "--preset",
                         "rectangle", "--corners", "0,8,80,72",
                         "--out", str(out), "--report", str(report)]) == 0
        outs.append((out.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_flow_flags(tmp_path, grid_obj):
    # --eps 1e-4 is above the layout's flatness tolerance; the 9x9 grid
    # starts flat (residual 2.2e-16), so the layout still succeeds.
    out = tmp_path / "o.obj"
    report = tmp_path / "r.json"
    code = cli_main(["flatten", "--input", str(grid_obj), "--preset",
                     "rectangle", "--corners", "0,8,80,72", "--eps", "1e-4",
                     "--max-iterations", "5", "--no-surgery",
                     "--out", str(out), "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["flow"]["converged"] is True
    assert doc["flow"]["iterations"] <= 5


def test_cli_free_disk_preset(tmp_path, grid_obj):
    out = tmp_path / "disk.obj"
    code = cli_main(["flatten", "--input", str(grid_obj), "--preset",
                     "free-disk", "--out", str(out)])
    assert code == 0
    mesh = load_obj(out)
    assert mesh.uv is not None
    assert np.abs(mesh.uv).max() <= 1.0 + 1e-9


@pytest.mark.parametrize("k", [0.0, 0.5, 0.85])
def test_qcmap_reports_pre_flow_swaps(k):
    mesh = meshes.grid_mesh(33, 33, bump=0.3)
    x, y = mesh.positions[:, 0], mesh.positions[:, 1]
    mu = k * np.sin(np.pi * x) * np.sin(np.pi * y) * np.exp(2j * np.pi * x)
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(33, 33))
    qc = cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN, preset)
    swaps = qc.report["pre_flow_swaps"]
    assert (swaps > 0) == (not np.array_equal(qc.mesh.faces, mesh.faces))
    assert (swaps > 0) == (k == 0.85)


def test_qcmap_pre_flow_surgery_failure_names_faces(monkeypatch):
    # more faces violate than the swap cap can clear, two per swap, so the
    # surgery gives up before its first swap and names the initial faces
    mesh = meshes.grid_mesh(33, 33, bump=0.3)
    mu = np.full(mesh.n_vertices, 0.95 * np.exp(0.25j * np.pi))
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(33, 33))
    tried = []

    def recording_swap(*args):
        tried.append(args)
        return flow.edge_swap(*args)

    monkeypatch.setattr(pipeline, "edge_swap", recording_swap)
    with pytest.raises(BeltramiError,
                       match="^auxiliary metric is inadmissible even after "
                             "edge-swap surgery on faces ") as info:
        cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN, preset)
    faces = np.asarray(info.value.faces)
    assert faces.size > 0
    assert faces.min() >= 0 and faces.max() < mesh.n_faces
    assert "\n" not in str(info.value)
    assert tried == []
    chart = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset).param.coords
    aux = auxiliary_metric(induced_metric(mesh), chart[mesh.faces], mu, mesh)
    assert info.value.faces == check_triangle_inequality(aux, mesh)
    assert len(info.value.faces) == 972


def test_qcmap_pre_flow_surgery_checks_its_last_swap(monkeypatch):
    # the smooth 0.85 field needs 45 swaps on this grid; with the cap at 45
    # the 45th swap must be checked, not thrown away
    monkeypatch.setattr(pipeline, "_PRE_SURGERY_ROUNDS", 45)
    mesh = meshes.grid_mesh(33, 33, bump=0.3)
    x, y = mesh.positions[:, 0], mesh.positions[:, 1]
    mu = 0.85 * np.sin(np.pi * x) * np.sin(np.pi * y) * np.exp(2j * np.pi * x)
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(33, 33))
    qc = cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN, preset)
    assert qc.report["pre_flow_swaps"] == 45


def test_qcmap_no_surgery_makes_no_pre_flow_swap(monkeypatch):
    # the smooth 0.85 field needs 45 pre-flow swaps on this grid; with
    # surgery off qcmap makes none and names the faces that violate
    mesh = meshes.grid_mesh(33, 33, bump=0.3)
    x, y = mesh.positions[:, 0], mesh.positions[:, 1]
    mu = 0.85 * np.sin(np.pi * x) * np.sin(np.pi * y) * np.exp(2j * np.pi * x)
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(33, 33))
    options = FlowOptions(surgery=False)
    tried = []
    monkeypatch.setattr(pipeline, "edge_swap",
                        lambda *args: tried.append(args))
    with pytest.raises(BeltramiError) as info:
        cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN, preset, options)
    assert tried == []
    chart = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset, options).param.coords
    aux = auxiliary_metric(induced_metric(mesh), chart[mesh.faces], mu, mesh)
    faces = check_triangle_inequality(aux, mesh)
    assert info.value.faces == faces != []
    assert str(info.value) == (
        f"auxiliary metric is inadmissible on faces {faces[:16]} and "
        "surgery is disabled")


def test_qcmap_closed_failure_names_faces():
    mesh = meshes.embedded_torus(24, 16)
    mu = np.full(mesh.n_vertices, 0.85 * np.exp(0.25j * np.pi))
    with pytest.raises(BeltramiError) as info:
        cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN,
                  TargetPreset(PresetKind.CLOSED_FLAT))
    faces = info.value.faces
    assert len(faces) > 16
    assert min(faces) >= 0 and max(faces) < mesh.n_faces
    assert str(info.value) == (
        "auxiliary metric is inadmissible even after edge-swap surgery on "
        f"faces {faces[:16]}")


def test_qcmap_refuses_corners_the_flatten_swapped_away():
    # the conformal flatten of this jittered torus swaps one edge in its
    # flow, which rewrites faces 40 and 41; the cut chart then has corners
    # only for the rewritten faces, so a nonzero mu on the input ones is
    # refused, while a zero mu there scales by exactly 1 and never reads
    # them: mu = 0 still gives flatten's uv
    base = meshes.embedded_torus(16, 8, R=2.0, r=0.9)
    jitter = np.random.default_rng(44).normal(scale=0.2,
                                              size=base.positions.shape)
    mesh = build_mesh(base.faces, base.positions + jitter)
    preset = TargetPreset(PresetKind.CLOSED_FLAT)
    flat = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset)
    assert flat.report["flow"]["swaps"] == 1
    mu = np.full(mesh.n_vertices, 0.1 * np.exp(0.25j * np.pi))
    with pytest.raises(BeltramiError) as info:
        cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN, preset)
    assert info.value.faces == [40, 41]
    assert str(info.value) == (
        "the conformal flatten swapped edges of faces [40, 41], where mu is "
        "nonzero, so the cut chart has no corners for them")
    mu[mesh.faces[[40, 41]].ravel()] = 0.0
    assert cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN, preset).periods is not None
    qc = cmd_qcmap(mesh, np.zeros(mesh.n_vertices), Geometry.EUCLIDEAN, preset)
    np.testing.assert_array_equal(qc.param.coords, flat.param.coords)
