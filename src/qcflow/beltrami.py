"""Beltrami-coefficient algebra: field validation, the auxiliary-metric
construction, per-face estimation of the coefficient of a piecewise-linear
map, the composition formula, and the normalized map distance.

A Beltrami field assigns a complex number of modulus strictly below 1 to
every vertex; it prescribes the angular distortion of a quasi-conformal map
(axis ratio ``(1 + |mu|) / (1 - |mu|)``, axis orientation from ``arg mu``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BeltramiError
from .metric import DiscreteMetric, Geometry, face_areas


@dataclass(frozen=True)
class BeltramiField:
    """Per-vertex complex coefficient with ``sup |mu| < 1`` (validated)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise BeltramiError("mu must be a 1-d per-vertex array")
        if not np.isfinite(values).all():
            raise BeltramiError("mu contains non-finite values")
        m = float(np.abs(values).max()) if values.size else 0.0
        if m >= 1.0:
            raise BeltramiError(
                f"sup |mu| = {m:.6f} >= 1 (margin {1.0 - m:.3e}); the field "
                "must be strictly sub-unit")

    @property
    def max_modulus(self):
        return float(np.abs(self.values).max()) if self.values.size else 0.0


@dataclass(frozen=True)
class Parameterization:
    """Per-vertex complex coordinate, in the plane or the Poincare disk."""

    coords: np.ndarray
    geometry: Geometry = Geometry.EUCLIDEAN

    def __post_init__(self):
        coords = np.ascontiguousarray(self.coords, dtype=np.complex128)
        object.__setattr__(self, "coords", coords)
        if not np.isfinite(coords).all():
            raise ValueError("coordinates contain non-finite values")
        if self.geometry == Geometry.HYPERBOLIC and coords.size:
            m = float(np.abs(coords).max())
            if m >= 1.0:
                raise ValueError(
                    f"Poincare-disk coordinates must satisfy |z| < 1 "
                    f"(max {m:.6f})")


def auxiliary_metric(metric, corners, mu, mesh):
    """Metric under which the quasi-conformal map prescribed by ``mu``
    becomes conformal.

    ``corners[f, s]`` is the ``mu = 0`` coordinate ``z`` of corner ``s`` of
    face ``f``; in a chart cut open along some edges, those edges' two faces
    give their ends different coordinates. Halfedge ``3f+s`` reads ``dz =
    z[f, s+1] - z[f, s]`` in its own face, ``mu_e = (mu_i + mu_j) / 2`` and
    the scale ``|dz + mu_e * conj(dz)| / |dz|``. An edge's length is scaled
    by the mean of its halfedges' scales, which equals each of them exactly
    where the chart is single-valued. Since ``sup |mu| < 1`` every scale
    factor lies in ``[1 - |mu_e|, 1 + |mu_e|]`` and is positive. The result
    is returned unchecked: triangle inequalities may fail and the flow's
    surgery must handle that.
    """
    if metric.geometry != Geometry.EUCLIDEAN:
        raise BeltramiError("auxiliary metric requires a Euclidean base metric")
    corners = np.asarray(corners, dtype=np.complex128)
    values = mu.values if isinstance(mu, BeltramiField) else BeltramiField(mu).values
    if corners.shape != mesh.faces.shape or values.shape != (mesh.n_vertices,):
        raise BeltramiError(
            "corners must assign one value per face corner, mu one per vertex")
    e = mesh.edge_of_halfedge
    dz = (np.take(corners, [1, 2, 0], axis=1) - corners).ravel()
    zero = np.nonzero(dz == 0)[0]
    if zero.size:
        raise BeltramiError(
            f"zero dz on edges {np.unique(e[zero]).tolist()[:16]}")
    a, b = mesh.edges.T
    scale = _scale(dz, (0.5 * (values[a] + values[b]))[e])
    # summed from zero in halfedge order, so two equal scales give s exactly
    mean = np.bincount(e, scale) / np.bincount(e)
    return DiscreteMetric(Geometry.EUCLIDEAN, metric.lengths * mean)


def _scale(dz, mu_e):
    """The auxiliary metric's scale ``|dz + mu_e * conj(dz)| / |dz|`` of
    halfedges with nonzero chart offsets ``dz`` on edges with coefficients
    ``mu_e``."""
    return np.abs(dz + mu_e * np.conj(dz)) / np.abs(dz)


@dataclass(frozen=True)
class BeltramiEstimate:
    """Per-face and per-vertex distortion data of a PL map.

    ``face_mu[f] = b / a`` of the affine extension ``w = a z + b conj(z)`` on
    face ``f``; ``face_tau = conj(a) / a``; ``dilation = (1+|mu|)/(1-|mu|)``.
    Vertex fields are source-area-weighted averages of the incident faces
    (``vertex_tau`` renormalized to unit modulus).
    """

    face_mu: np.ndarray
    face_tau: np.ndarray
    face_dilation: np.ndarray
    vertex_mu: BeltramiField
    vertex_tau: np.ndarray


def estimate_beltrami(src, dst, mesh):
    """Beltrami coefficient of the PL map taking ``src`` to ``dst``.

    For each face the unique affine extension ``w = w0 + a (z - z0)
    + b conj(z - z0)`` is solved from the two edge equations and
    ``mu = b / a``. Faces with ``|a|^2 - |b|^2 <= 0`` reverse orientation and
    are reported as errors, as are degenerate source triangles.
    """
    zs = np.asarray(getattr(src, "coords", src), dtype=np.complex128)
    ws = np.asarray(getattr(dst, "coords", dst), dtype=np.complex128)
    f = mesh.faces
    z0, z1, z2 = zs[f[:, 0]], zs[f[:, 1]], zs[f[:, 2]]
    w0, w1, w2 = ws[f[:, 0]], ws[f[:, 1]], ws[f[:, 2]]
    dz1, dz2 = z1 - z0, z2 - z0
    dw1, dw2 = w1 - w0, w2 - w0

    # Solved in explicit real arithmetic: numpy's vectorized complex product
    # is not bitwise commutative, and the identity map must give exactly
    # a = 1, b = 0.
    x1, y1 = dz1.real, dz1.imag
    x2, y2 = dz2.real, dz2.imag
    u1, v1 = dw1.real, dw1.imag
    u2, v2 = dw2.real, dw2.imag
    cross = x1 * y2 - y1 * x2  # twice the signed source area
    area = 0.5 * np.abs(cross)
    size = np.abs(dz1) * np.abs(dz2)
    degenerate = np.nonzero(area <= 1e-14 * size)[0]
    if degenerate.size:
        raise BeltramiError(
            f"degenerate source faces {degenerate.tolist()[:16]}",
            faces=degenerate)

    # a = i * (dw1 conj(dz2) - dw2 conj(dz1)) / (2 cross), likewise b
    na_re = (u1 * x2 + v1 * y2) - (u2 * x1 + v2 * y1)
    na_im = (v1 * x2 - u1 * y2) - (v2 * x1 - u2 * y1)
    nb_re = (x1 * u2 - y1 * v2) - (x2 * u1 - y2 * v1)
    nb_im = (x1 * v2 + y1 * u2) - (x2 * v1 + y2 * u1)
    inv = 0.5 / cross
    a = (-na_im + 1j * na_re) * inv
    b = (-nb_im + 1j * nb_re) * inv
    jac = np.abs(a) ** 2 - np.abs(b) ** 2
    reversed_faces = np.nonzero(jac <= 0.0)[0]
    if reversed_faces.size:
        raise BeltramiError(
            f"orientation reversed on faces {reversed_faces.tolist()[:16]} "
            "(|f_zbar| >= |f_z|)", faces=reversed_faces)

    face_mu = b / a
    face_tau = np.conj(a) / a
    mod = np.abs(face_mu)
    face_dilation = (1.0 + mod) / (1.0 - mod)

    weighted_mu = np.zeros(mesh.n_vertices, dtype=np.complex128)
    weighted_tau = np.zeros(mesh.n_vertices, dtype=np.complex128)
    weight = np.zeros(mesh.n_vertices)
    for s in range(3):
        np.add.at(weighted_mu, f[:, s], area * face_mu)
        np.add.at(weighted_tau, f[:, s], area * face_tau)
        np.add.at(weight, f[:, s], area)
    vertex_mu = weighted_mu / weight
    vertex_tau = weighted_tau / weight
    tau_mod = np.abs(vertex_tau)
    if tau_mod.min() <= 1e-12:
        raise BeltramiError("vertex tau is ambiguous (cancelling phases)")
    vertex_tau = vertex_tau / tau_mod

    return BeltramiEstimate(
        face_mu=face_mu,
        face_tau=face_tau,
        face_dilation=face_dilation,
        vertex_mu=BeltramiField(vertex_mu),
        vertex_tau=vertex_tau,
    )


def compose_beltrami(mu_f, mu_g_pulled, tau):
    """Coefficient of a composition ``g o f`` from the coefficient of ``f``,
    the coefficient of ``g`` pulled back to the source vertices, and the
    unit-modulus ``tau = conj(f_z) / f_z``.

    ``mu = (mu_f + mu_g tau) / (1 + conj(mu_f) mu_g tau)``, applied
    pointwise; the result is validated to be strictly sub-unit.
    """
    fv = mu_f.values if isinstance(mu_f, BeltramiField) else np.asarray(mu_f)
    gv = (mu_g_pulled.values if isinstance(mu_g_pulled, BeltramiField)
          else np.asarray(mu_g_pulled))
    tau = np.asarray(tau, dtype=np.complex128)
    off = np.abs(np.abs(tau) - 1.0)
    if off.size and off.max() > 1e-9:
        raise BeltramiError(
            f"tau must have unit modulus (worst deviation {off.max():.3e})")
    gt = gv * tau
    out = (fv + gt) / (1.0 + np.conj(fv) * gt)
    try:
        return BeltramiField(out)
    except BeltramiError as exc:
        raise BeltramiError(
            f"composed coefficient is not sub-unit ({exc}); "
            "inconsistent inputs") from exc


def map_distance(f, g, mesh, metric):
    """Area-weighted L1 distance between two parameterizations, normalized by
    the 3D bounding-box diagonal times the total area."""
    if mesh.positions is None:
        raise ValueError("map_distance needs 3D positions for the diagonal")
    fc = np.asarray(getattr(f, "coords", f), dtype=np.complex128)
    gc = np.asarray(getattr(g, "coords", g), dtype=np.complex128)
    areas = face_areas(metric, mesh)
    dev = np.abs(fc - gc)[mesh.faces].mean(axis=1)
    diag = float(np.linalg.norm(mesh.positions.max(axis=0)
                                - mesh.positions.min(axis=0)))
    total = float(areas.sum())
    return float((areas * dev).sum() / (diag * total))


# ---------------------------------------------------------------------------
# Serialization: {"mu": [{"i": id, "re": x, "im": y}, ...]}


# One entry of ``json.dumps(..., indent=2)``: ``json`` prints a finite float
# with ``float.__repr__``, which is ``str``.
_ENTRY = '    {\n      "i": %d,\n      "re": %s,\n      "im": %s\n    },\n'


def field_to_json(mu):
    """The field as ``json.dumps({"mu": [{"i": ..., "re": ..., "im": ...},
    ...]}, indent=2)`` prints it, formatted in one call."""
    values = mu.values if isinstance(mu, BeltramiField) else np.asarray(mu)
    if not len(values):
        return json.dumps({"mu": []}, indent=2)
    rows = np.column_stack([np.arange(len(values)), values.real,
                            values.imag]).astype(np.float64)
    cells = rows.ravel().tolist()
    for k in np.flatnonzero(~np.isfinite(rows.ravel())).tolist():
        cells[k] = json.dumps(cells[k])  # NaN, Infinity, -Infinity
    body = (_ENTRY * len(values)) % tuple(cells)
    return '{\n  "mu": [\n' + body[:-2] + "\n  ]\n}"


def _check_entry(e):
    """Raise on the first field of a mu JSON entry that is missing, or is
    not a JSON integer id or a JSON number value: JSON true and false load
    as bool, a subclass of int, and ``float`` would also read strings."""
    if type(e["i"]) is not int:
        raise ValueError(
            f"vertex index {json.dumps(e['i'])} is not an integer")
    for key in ("re", "im"):
        if type(e[key]) not in (float, int):
            raise ValueError(
                f"{key} value {json.dumps(e[key])} is not a number")


def _fields(entries):
    """The ``i``, ``re`` and ``im`` fields of every mu JSON entry, in one
    flat list whose types are checked in bulk; on a fault the entries are
    checked one by one, so that the first bad entry names it."""
    try:
        # a tuple per entry kept alive would cost extra garbage-collector
        # passes
        cells = [x for e in entries for x in (e["i"], e["re"], e["im"])]
        if set(map(type, cells[0::3])) <= {int} and (
                set(map(type, cells[1::3])) | set(map(type, cells[2::3]))
                <= {float, int}):
            return cells
    except (KeyError, TypeError):
        pass
    for e in entries:
        _check_entry(e)


def field_from_json(text, n_vertices=None):
    """The field of a ``{"mu": [{"i": ..., "re": ..., "im": ...}, ...]}``
    text whose ids are JSON integers naming every vertex of ``range(n)``
    exactly once and whose values are JSON numbers; raises
    :class:`BeltramiError` otherwise."""
    try:
        cells = _fields(json.loads(text)["mu"])
        # converted as float() converts them; past the float range an
        # integer overflows
        re = np.array(cells[1::3], dtype=np.float64)
        im = np.array(cells[2::3], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BeltramiError(f"malformed mu JSON: {exc}") from exc
    ids = cells[0::3]
    seen = set()
    repeated = [i for i in ids if i in seen or seen.add(i)]
    if repeated:
        raise BeltramiError(
            f"mu JSON names vertex {repeated[0]} more than once")
    # The indices are distinct, so they are range(n) exactly when they lie
    # in it and there are n of them.
    n = n_vertices if n_vertices is not None else (max(ids) + 1 if ids else 0)
    if len(ids) != n or ids and not (0 <= min(ids) and max(ids) < n):
        raise BeltramiError(
            "mu JSON must contain every vertex index exactly once")
    index = np.array(ids, dtype=np.int64)
    values = np.empty(n, dtype=np.complex128)
    values.real[index] = re
    values.imag[index] = im
    return BeltramiField(values)
