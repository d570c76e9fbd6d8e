"""A standing random sweep of ``cmd_qcmap``: every input either succeeds
with a finite, orientation-preserving uv or raises a typed ``QcflowError``
that names faces or carries the flow's report. Nothing else may escape, a
``RuntimeWarning`` included."""

import warnings

import numpy as np

import meshes
from qcflow.beltrami import BeltramiField
from qcflow.errors import QcflowError
from qcflow.mesh import build_mesh
from qcflow.metric import Geometry
from qcflow.pipeline import PresetKind, TargetPreset, cmd_qcmap


def _jittered_grid(rng, nx, ny, w, bump):
    """``grid_mesh(nx, ny, w=w, bump=bump)`` with its interior vertices
    moved by up to a quarter cell in the plane and lifted back onto the
    bump."""
    mesh = meshes.grid_mesh(nx, ny, w=w, bump=bump)
    pos = mesh.positions.copy()
    inner = ~mesh.boundary_vertex_mask()
    cell = np.array([w / (nx - 1), 1.0 / (ny - 1)])
    pos[inner, :2] += 0.25 * cell * rng.uniform(-1.0, 1.0, (inner.sum(), 2))
    x, y = pos[:, 0], pos[:, 1]
    pos[:, 2] = bump * np.sin(np.pi * x / w) * np.sin(np.pi * y)
    return build_mesh(mesh.faces, pos)


def _random_case(rng):
    nx, ny = (int(n) for n in rng.integers(4, 24, 2))
    w, bump = rng.uniform(0.3, 3.0), rng.uniform(0.0, 0.6)
    mesh = _jittered_grid(rng, nx, ny, w, bump)
    if rng.uniform() < 0.5:
        preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(nx, ny))
    else:
        preset = TargetPreset(PresetKind.FREE_DISK)
    k, theta = rng.uniform(0.0, 0.97), rng.uniform(0.0, 2.0 * np.pi)
    x, y = mesh.positions[:, 0] / w, mesh.positions[:, 1]
    kind = ("constant", "smooth", "random")[rng.integers(3)]
    if kind == "constant":
        mu = np.full(mesh.n_vertices, k * np.exp(1j * theta))
    elif kind == "smooth":
        mu = k * np.sin(np.pi * x) * np.sin(np.pi * y) * np.exp(2j * np.pi * x)
    else:
        n = mesh.n_vertices
        mu = k * rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi *
                                                   rng.uniform(0.0, 1.0, n))
    name = f"{nx}x{ny} w={w:.2f} bump={bump:.2f} {preset.kind.value} " \
        f"{kind} k={k:.3f}"
    return name, mesh, BeltramiField(mu), preset


def _outcome(mesh, mu, preset):
    """``None`` for a run that keeps the rule, else what breaks it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            qc = cmd_qcmap(mesh, mu, Geometry.EUCLIDEAN, preset)
        except QcflowError as exc:
            if exc.faces or getattr(exc, "report", None) is not None:
                return type(exc)
            return f"{type(exc).__name__} names nothing: {exc}"
    uv = qc.param.coords
    if not np.isfinite(uv).all():
        return "non-finite uv"
    a, b, c = (uv[qc.mesh.faces[:, s]] for s in range(3))
    if not ((np.conj(b - a) * (c - a)).imag > 0.0).all():
        return "flipped uv faces"
    return None


def test_qcmap_sweep_succeeds_or_names_what_failed():
    rng = np.random.default_rng(7)
    broken, kinds = [], []
    for _ in range(100):
        name, mesh, mu, preset = _random_case(rng)
        outcome = _outcome(mesh, mu, preset)
        if isinstance(outcome, str):
            broken.append(f"{name}: {outcome}")
        kinds.append(outcome)
    assert broken == []
    # the sweep reaches both exits
    assert kinds.count(None) > 0 and len(kinds) - kinds.count(None) > 0

