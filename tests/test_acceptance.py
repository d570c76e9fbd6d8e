"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or let the plain suite
capture the lines). Budgets are wall-clock upper bounds measured around the
work of the criterion itself.
"""

import functools
import time

import numpy as np
import scipy.linalg

import meshes
from qcflow.beltrami import (
    BeltramiField,
    compose_beltrami,
    estimate_beltrami,
    map_distance,
)
from qcflow.embed import layout_euclidean, torus_periods
from qcflow.errors import FlowError
from qcflow.flow import FlowOptions, _start, assemble_hessian, run_flow
from qcflow.geom import mobius_from_origin, poincare_circle_to_euclidean
from qcflow.mesh import build_mesh, cut_to_disk, save_obj
from qcflow.metric import (
    DiscreteMetric,
    Geometry,
    corner_angles,
    deform_metric,
    gauss_bonnet_residual,
    induced_metric,
    vertex_curvature,
)
from qcflow.pipeline import PresetKind, TargetPreset, cmd_flatten, cmd_qcmap

MU_CONST = 0.15 + 0.15j
# Composed-coefficient reference value reported for the face-scan experiment
# this benchmark mirrors. The composed field depends on the bulk rotation of
# f_z over the domain, which is data-dependent; see the distance criterion
# for the domain-independent accuracy check.
COMPOSED_REFERENCE = 0.34 + 0.12j


def _report(num, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {state} {name}" + (f" ({detail})" if detail else ""))
    return ok


def _small_meshes():
    return [
        meshes.tetrahedron(),
        meshes.subdivided_sphere(1),
        meshes.subdivided_sphere(2),
        meshes.grid_mesh(7, 7),
        meshes.grid_mesh(12, 5),
        meshes.embedded_torus(10, 6),
        meshes.voxel_torus(),
        meshes.genus2_mesh(),
    ]


def _rect_input(nx, ny, w, h, perturbed):
    mesh = meshes.grid_mesh(nx, ny, w=w, h=h)
    metric = induced_metric(mesh)
    if perturbed:
        x = mesh.positions[:, 0] / w
        y = mesh.positions[:, 1] / h
        u0 = 0.6 * np.sin(2 * np.pi * x) * np.sin(np.pi * y) + 0.35 * np.cos(np.pi * x)
        u0 -= u0.mean()
        metric = DiscreteMetric(Geometry.EUCLIDEAN,
                                deform_metric(mesh, metric, u0).lengths)
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(nx, ny))
    return mesh, metric, preset


@functools.lru_cache(maxsize=None)
def _rect_run(nx, ny, w, h, perturbed):
    mesh, metric, preset = _rect_input(nx, ny, w, h, perturbed)
    out = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset, _TIGHT, metric=metric)
    return mesh, out


# The flow tolerance for benchmark runs is tighter than the 1e-8 default:
# residual curvature of size eps compounds along the breadth-first layout, so
# meeting the 1e-7 relative isometry bound on 65-face-deep meshes needs the
# curvature residual well below it (the criteria only require eps < 1e-8).
_TIGHT = FlowOptions(eps=1e-11)


@functools.lru_cache(maxsize=None)
def _qcmap_run(n, mu):
    mesh = meshes.grid_mesh(n, n)
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(n, n))
    field = BeltramiField(np.full(mesh.n_vertices, mu))
    flat = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset, _TIGHT)
    qc = cmd_qcmap(mesh, field, Geometry.EUCLIDEAN, preset, _TIGHT)
    return mesh, preset, flat, qc


def test_criterion_01_hessian_finite_difference_consistency():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    pool = _small_meshes()
    worst = 0.0
    checked = 0
    for trial in range(100):
        mesh = pool[trial % len(pool)]
        geometry = (Geometry.EUCLIDEAN if trial % 2 == 0
                    else Geometry.HYPERBOLIC)
        metric = meshes.random_admissible_metric(mesh, rng, geometry,
                                                 amplitude=0.25)
        H = assemble_hessian(mesh, metric)
        for _ in range(2):
            d = rng.normal(size=mesh.n_vertices)
            h = 1e-6
            up = vertex_curvature(
                corner_angles(deform_metric(mesh, metric, h * d), mesh), mesh)
            dn = vertex_curvature(
                corner_angles(deform_metric(mesh, metric, -h * d), mesh), mesh)
            fd = (up - dn) / (2.0 * h)
            Hd = H @ d
            worst = max(worst, float(np.linalg.norm(fd - Hd)
                                     / np.linalg.norm(Hd)))
            checked += 1
    elapsed = time.monotonic() - start
    ok = worst < 1e-5 and elapsed < 10.0
    assert _report(1, "hessian-fd-consistency", ok,
                   f"{checked} checks, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gauss_bonnet_invariance():
    rng = np.random.default_rng(202)
    worst = 0.0
    # random admissible metrics in both geometries
    for mesh in _small_meshes():
        for geometry in (Geometry.EUCLIDEAN, Geometry.HYPERBOLIC):
            for _ in range(3):
                metric = meshes.random_admissible_metric(mesh, rng, geometry)
                worst = max(worst, abs(gauss_bonnet_residual(metric, mesh)))
    # every Newton iterate of the rectangle benchmark and of the hyperbolic
    # genus-2 flow
    mesh, metric, preset = _rect_input(33, 33, 1.0, 1.0, True)
    g2 = meshes.genus2_mesh()
    g2_metric = induced_metric(g2).retagged(Geometry.HYPERBOLIC)
    g2_target = np.zeros(g2.n_vertices)
    flows = [
        lambda opts: cmd_flatten(mesh, Geometry.EUCLIDEAN, preset, opts,
                                 metric=metric).flow,
        lambda opts: run_flow(g2, g2_metric, g2_target, Geometry.HYPERBOLIC,
                              opts),
    ]
    # a Euclidean flow starts at u = 0, a hyperbolic one at its Gauss-Bonnet
    # scale
    starts = [np.zeros(mesh.n_vertices), _start(g2, g2_metric, g2_target)[0]]
    assert np.all(starts[1] != 0.0)
    count = 0
    for eps, flow, start in zip((_TIGHT.eps, FlowOptions().eps), flows,
                                starts):
        done = flow(FlowOptions(eps=eps))
        # no swaps, so every iterate lives on the input mesh and base
        assert done.report.swaps == 0
        iterates = [start]
        # iterate k is where the same flow stops with a budget of k steps
        for k in range(1, done.report.iterations):
            try:
                flow(FlowOptions(eps=eps, max_iterations=k))
            except FlowError as exc:
                iterates.append(exc.report.u)
        iterates.append(done.u)
        for u in iterates:
            deformed = deform_metric(done.mesh, done.base, u)
            worst = max(worst, abs(gauss_bonnet_residual(deformed, done.mesh)))
        count += len(iterates)
    ok = worst < 1e-9 and count == 4 + 7
    assert _report(2, "gauss-bonnet-invariance", ok,
                   f"worst |residual| {worst:.2e} over {count} iterates")


def test_criterion_03_rectangle_flattening():
    start = time.monotonic()
    # the pristine grid already satisfies the target (angle arithmetic is
    # exact to roundoff), so the substantive run starts from a deterministic
    # conformal perturbation of the same conformal class
    _, pristine = _rect_run(33, 33, 1.0, 1.0, False)
    _, perturbed = _rect_run(33, 33, 1.0, 1.0, True)
    _, two_to_one = _rect_run(65, 33, 2.0, 1.0, True)
    elapsed = time.monotonic() - start
    ok = True
    for out in (pristine, perturbed):
        rep = out.flow.report
        ok &= rep.converged and rep.iterations <= 20
        ok &= rep.residuals[-1] < 1e-8
        ok &= abs(out.module - 1.0) < 1e-4
    ok &= abs(two_to_one.module - 0.5) < 1e-3
    ok &= two_to_one.flow.report.iterations <= 20
    ok &= elapsed < 5.0
    assert _report(
        3, "rectangle-flattening", ok,
        f"h={perturbed.module:.8f} in {perturbed.flow.report.iterations} it, "
        f"h2={two_to_one.module:.8f}, {elapsed:.1f}s")


def test_criterion_04_superlinear_convergence():
    _, out = _rect_run(33, 33, 1.0, 1.0, True)
    res = out.flow.report.residuals
    ok = len(res) >= 4
    ratios = []
    if ok:
        tail = res[-4:]
        ratios = [a / b for a, b in zip(tail, tail[1:])]
        ok = all(r >= 10.0 for r in ratios)
    assert _report(4, "superlinear-convergence", ok,
                   "final ratios " + ", ".join(f"{r:.0f}" for r in ratios))


def test_criterion_05_hyperbolic_convexity():
    start = time.monotonic()
    rng = np.random.default_rng(505)
    pool = [m for m in _small_meshes() if m.n_vertices <= 100]
    pool.append(build_mesh(np.array([[0, 1, 2]])))
    smallest = np.inf
    for trial in range(100):
        mesh = pool[trial % len(pool)]
        if mesh.positions is None:
            lengths = rng.uniform(0.5, 1.5, mesh.n_edges)
            while lengths.max() >= lengths.sum() - lengths.max():
                lengths = rng.uniform(0.5, 1.5, mesh.n_edges)
            metric = DiscreteMetric(Geometry.HYPERBOLIC, lengths)
        else:
            metric = meshes.random_admissible_metric(mesh, rng,
                                                     Geometry.HYPERBOLIC)
        H = assemble_hessian(mesh, metric).toarray()
        smallest = min(smallest, float(scipy.linalg.eigvalsh(H).min()))
    elapsed = time.monotonic() - start
    ok = smallest > 0.0 and elapsed < 10.0
    assert _report(5, "hyperbolic-convexity", ok,
                   f"min eigenvalue {smallest:.3e}, {elapsed:.1f}s")


def test_criterion_06_beltrami_round_trip():
    start = time.monotonic()
    mesh, preset, flat, qc = _qcmap_run(65, MU_CONST)
    est = estimate_beltrami(flat.param, qc.param, mesh)
    values = est.vertex_mu.values
    err_re = np.abs(values.real - MU_CONST.real)
    err_im = np.abs(values.imag - MU_CONST.imag)
    elapsed = time.monotonic() - start
    med = (float(np.median(err_re)), float(np.median(err_im)))
    p90 = (float(np.percentile(err_re, 90)), float(np.percentile(err_im, 90)))
    ok = max(med) < 0.02 and max(p90) < 0.05 and elapsed < 30.0
    assert _report(6, "beltrami-round-trip", ok,
                   f"median ({med[0]:.2e}, {med[1]:.2e}), "
                   f"p90 ({p90[0]:.2e}, {p90[1]:.2e}), {elapsed:.1f}s")


@functools.lru_cache(maxsize=None)
def _composition_run():
    mesh, preset, flat, f_res = _qcmap_run(65, MU_CONST)
    field = BeltramiField(np.full(mesh.n_vertices, MU_CONST))
    d1 = build_mesh(mesh.faces,
                    np.column_stack([f_res.param.coords.real,
                                     f_res.param.coords.imag,
                                     np.zeros(mesh.n_vertices)]))
    g_res = cmd_qcmap(d1, field, Geometry.EUCLIDEAN, preset, _TIGHT)
    est_f = estimate_beltrami(flat.param, f_res.param, mesh)
    mu_h = compose_beltrami(field, field, est_f.vertex_tau)
    h_res = cmd_qcmap(mesh, mu_h, Geometry.EUCLIDEAN, preset, _TIGHT)
    dist = map_distance(h_res.param, g_res.param, mesh, induced_metric(mesh))
    return mesh, mu_h, dist


def test_criterion_07a_composition_distance():
    start = time.monotonic()
    _, _, dist = _composition_run()
    elapsed = time.monotonic() - start
    ok = dist < 1e-3 and elapsed < 60.0
    assert _report(7, "composition-distance", ok,
                   f"d(h, g. f) = {dist:.2e}, {elapsed:.1f}s")


def test_criterion_07b_composed_coefficient_reference_value():
    # Known-red: the composed coefficient's median tracks the bulk rotation
    # of f_z, which is specific to the surface being mapped. On the square
    # grid the bulk rotation is ~0 by symmetry and the median lands at
    # 2 mu / (1 + |mu|^2) ~= 0.287+0.287i, not at the face-scan reference.
    _, mu_h, _ = _composition_run()
    med = complex(np.median(mu_h.values.real), np.median(mu_h.values.imag))
    dev = abs(med - COMPOSED_REFERENCE)
    ok = dev < 0.03
    _report(7, "composed-coefficient-reference", ok,
            f"median {med.real:.3f}{med.imag:+.3f}i vs "
            f"{COMPOSED_REFERENCE.real:.2f}{COMPOSED_REFERENCE.imag:+.2f}i, "
            f"|dev| {dev:.3f}")
    assert ok, (
        f"median composed coefficient {med:.4f} deviates {dev:.3f} from the "
        f"reference {COMPOSED_REFERENCE}; the reference encodes the original "
        "surface's bulk f_z rotation and is not reproducible on a symmetric "
        "grid benchmark (see decision log)")


def test_criterion_08_layout_isometry():
    worst = 0.0

    def check(mesh, metric, param, normalized=False):
        """Every embedded edge reproduces its metric length to 1e-7
        relative; normalized outputs are compared up to their single global
        similarity factor."""
        nonlocal worst
        got = meshes.embedded_edge_lengths(mesh, param)
        if normalized:
            factor = np.median(got / metric.lengths)
        else:
            factor = 1.0
        rel = np.abs(got - factor * metric.lengths) / (factor * metric.lengths)
        worst = max(worst, float(rel.max()))

    # rectangle pipelines (pristine, perturbed, 2:1): normalized output plus
    # the raw layout underneath
    for args in ((33, 33, 1.0, 1.0, False), (33, 33, 1.0, 1.0, True),
                 (65, 33, 2.0, 1.0, True)):
        _, out = _rect_run(*args)
        check(out.mesh, out.flow.metric, out.param, normalized=True)
        raw = layout_euclidean(out.flow.mesh, out.flow.metric)
        check(out.flow.mesh, out.flow.metric, raw)
    # qcmap output
    mesh, preset, flat, qc = _qcmap_run(65, MU_CONST)
    check(qc.mesh, qc.flow.metric, qc.param, normalized=True)
    # annulus
    ann = meshes.annulus_mesh(9, 3)
    out = cmd_flatten(ann, Geometry.EUCLIDEAN, TargetPreset(PresetKind.ANNULUS),
                      _TIGHT)
    cut_metric = DiscreteMetric(Geometry.EUCLIDEAN,
                                out.cut.push_edge(out.flow.metric.lengths))
    check(out.mesh, cut_metric, out.param)
    # flat torus
    tmesh, tmetric = meshes.torus_grid(16, 16)
    tres = run_flow(tmesh, tmetric, np.zeros(tmesh.n_vertices),
                    Geometry.EUCLIDEAN)
    disk, cut = cut_to_disk(tres.mesh)
    dmetric = DiscreteMetric(Geometry.EUCLIDEAN,
                             cut.push_edge(tres.metric.lengths))
    check(disk, dmetric, layout_euclidean(disk, dmetric))
    # genus-2 hyperbolic
    g2 = meshes.genus2_mesh()
    out = cmd_flatten(g2, Geometry.HYPERBOLIC,
                      TargetPreset(PresetKind.CLOSED_HYPERBOLIC), _TIGHT)
    cut_metric = DiscreteMetric(Geometry.HYPERBOLIC,
                                out.cut.push_edge(out.flow.metric.lengths))
    check(out.mesh, cut_metric, out.param)

    ok = worst < 1e-7
    assert _report(8, "layout-isometry", ok, f"worst rel edge error {worst:.2e}")


def test_criterion_09_poincare_conversion_oracle():
    rng = np.random.default_rng(909)
    worst = 0.0
    count = 0
    while count < 1000:
        c = rng.uniform(-0.92, 0.92) + 1j * rng.uniform(-0.92, 0.92)
        if abs(c) >= 0.92:
            continue
        r = rng.uniform(1e-3, 4.0)
        count += 1
        C, R = poincare_circle_to_euclidean(c, r)
        phis = rng.uniform(0.0, 2 * np.pi, 3) + np.array([0.0, 2.1, 4.2])
        pts = mobius_from_origin(c, np.tanh(r / 2) * np.exp(1j * phis))
        ax, ay = pts[0].real, pts[0].imag
        bx, by = pts[1].real, pts[1].imag
        cx, cy = pts[2].real, pts[2].imag
        d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
              + (cx**2 + cy**2) * (ay - by)) / d
        uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
              + (cx**2 + cy**2) * (bx - ax)) / d
        fit_center = ux + 1j * uy
        fit_radius = abs(pts[0] - fit_center)
        worst = max(worst, abs(fit_center - C), abs(fit_radius - R))
    ok = worst < 1e-9
    assert _report(9, "poincare-conversion-oracle", ok,
                   f"1000 circles, worst dev {worst:.2e}")


def test_criterion_10_torus_periods():
    start = time.monotonic()

    def periods_of(nx, ny, w, h):
        mesh, metric = meshes.torus_grid(nx, ny, w=w, h=h)
        res = run_flow(mesh, metric, np.zeros(mesh.n_vertices),
                       Geometry.EUCLIDEAN)
        disk, cut = cut_to_disk(res.mesh)
        dmetric = DiscreteMetric(Geometry.EUCLIDEAN,
                                 cut.push_edge(res.metric.lengths))
        return torus_periods(disk, cut, layout_euclidean(disk, dmetric))

    sq = periods_of(16, 16, 1.0, 1.0)
    rt = periods_of(32, 16, 2.0, 1.0)
    elapsed = time.monotonic() - start
    cosine = abs((np.conj(sq.za) * sq.zb).real) / (abs(sq.za) * abs(sq.zb))
    moduli = sorted([abs(rt.za), abs(rt.zb)])
    ok = (abs(abs(sq.za) - 1.0) < 1e-6 and abs(abs(sq.zb) - 1.0) < 1e-6
          and cosine < 1e-6
          and abs(moduli[1] / moduli[0] - 2.0) < 1e-6
          and elapsed < 10.0)
    assert _report(10, "torus-periods", ok,
                   f"|za|={abs(sq.za):.8f} |zb|={abs(sq.zb):.8f} "
                   f"cos={cosine:.1e} ratio={moduli[1] / moduli[0]:.8f}, "
                   f"{elapsed:.1f}s")


def test_criterion_11_degeneracy_contracts(tmp_path):
    n = 33
    mesh = meshes.grid_mesh(n, n)
    preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(n, n))
    flat = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset)
    zero = BeltramiField(np.zeros(mesh.n_vertices, dtype=complex))
    qc = cmd_qcmap(mesh, zero, Geometry.EUCLIDEAN, preset)
    bit_identical = np.array_equal(flat.param.coords, qc.param.coords)
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    save_obj(flat.mesh, a, uv=flat.param)
    save_obj(qc.mesh, b, uv=qc.param)
    bit_identical &= a.read_bytes() == b.read_bytes()

    est = estimate_beltrami(flat.param, flat.param, mesh)
    identity_mu_zero = (np.abs(est.vertex_mu.values).max() == 0.0
                        and np.abs(est.face_mu).max() == 0.0)
    dist = map_distance(flat.param, flat.param, mesh, induced_metric(mesh))
    ok = bit_identical and identity_mu_zero and dist == 0.0
    assert _report(11, "degeneracy-contracts", ok,
                   f"bit-identical={bit_identical}, mu0={identity_mu_zero}, "
                   f"d={dist}")
