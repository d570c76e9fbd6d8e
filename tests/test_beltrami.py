import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshes
from qcflow.beltrami import (
    BeltramiField,
    Parameterization,
    auxiliary_metric,
    compose_beltrami,
    estimate_beltrami,
    field_from_json,
    field_to_json,
    map_distance,
)
from qcflow.errors import BeltramiError
from qcflow.mesh import build_mesh
from qcflow.metric import Geometry, induced_metric


def grid_param(mesh):
    return Parameterization(mesh.positions[:, 0] + 1j * mesh.positions[:, 1])


def test_validate_zero():
    assert BeltramiField(np.zeros(5, dtype=complex)).max_modulus == 0.0


def test_validate_constant():
    mu = np.full(7, 0.15 + 0.15j)
    assert BeltramiField(mu).max_modulus == pytest.approx(np.sqrt(2) * 0.15)


def test_validate_rejects_unit():
    mu = np.zeros(3, dtype=complex)
    mu[1] = 1.0
    with pytest.raises(BeltramiError):
        BeltramiField(mu)


def test_field_rejects_nan():
    with pytest.raises(BeltramiError):
        BeltramiField(np.array([0.1, np.nan], dtype=complex))


def test_field_rejects_2d_mu():
    with pytest.raises(BeltramiError) as err:
        BeltramiField(np.zeros((3, 1), dtype=complex))
    assert err.type is BeltramiError
    assert str(err.value) == "mu must be a 1-d per-vertex array"


def test_parameterization_hyperbolic_bounds():
    with pytest.raises(ValueError):
        Parameterization(np.array([0.5, 1.2 + 0j]), Geometry.HYPERBOLIC)
    Parameterization(np.array([0.5 + 0j, -0.3j]), Geometry.HYPERBOLIC)


def test_auxiliary_metric_zero_mu_is_identity(grid9):
    metric = induced_metric(grid9)
    z = grid_param(grid9)
    mu = BeltramiField(np.zeros(grid9.n_vertices, dtype=complex))
    out = auxiliary_metric(metric, z.coords[grid9.faces], mu, grid9)
    assert np.array_equal(out.lengths, metric.lengths)


def test_auxiliary_metric_real_stretch():
    mesh = meshes.grid_mesh(2, 2)
    metric = induced_metric(mesh)
    z = grid_param(mesh)
    mu = BeltramiField(np.full(mesh.n_vertices, 0.5 + 0j))
    out = auxiliary_metric(metric, z.coords[mesh.faces], mu, mesh)
    # horizontal edges (real dz) scale by |1 + 0.5| = 1.5
    e = meshes.edge_id(mesh, 0, 1)
    assert out.lengths[e] == pytest.approx(1.5 * metric.lengths[e])
    # vertical edges (imaginary dz): dz + mu conj(dz) = i - 0.5 i -> 0.5x
    e = meshes.edge_id(mesh, 0, 2)
    assert out.lengths[e] == pytest.approx(0.5 * metric.lengths[e])


def test_auxiliary_metric_scale_bounds(grid33):
    metric = induced_metric(grid33)
    z = grid_param(grid33)
    mu0 = 0.15 + 0.15j
    mu = BeltramiField(np.full(grid33.n_vertices, mu0))
    out = auxiliary_metric(metric, z.coords[grid33.faces], mu, grid33)
    scale = out.lengths / metric.lengths
    lo, hi = 1.0 - abs(mu0), 1.0 + abs(mu0)
    assert scale.min() >= lo - 1e-12
    assert scale.max() <= hi + 1e-12


def test_auxiliary_metric_rejects_zero_dz(grid9):
    metric = induced_metric(grid9)
    z = Parameterization(np.zeros(grid9.n_vertices, dtype=complex))
    mu = BeltramiField(np.zeros(grid9.n_vertices, dtype=complex))
    with pytest.raises(BeltramiError):
        auxiliary_metric(metric, z.coords[grid9.faces], mu, grid9)


def test_auxiliary_metric_rejects_hyperbolic(grid9):
    metric = induced_metric(grid9).retagged(Geometry.HYPERBOLIC)
    z = grid_param(grid9)
    mu = BeltramiField(np.zeros(grid9.n_vertices, dtype=complex))
    with pytest.raises(BeltramiError):
        auxiliary_metric(metric, z.coords[grid9.faces], mu, grid9)


def test_auxiliary_metric_rejects_misshaped_corners(grid9):
    # per-vertex coordinates where one per face corner is due
    z = grid_param(grid9)
    mu = BeltramiField(np.zeros(grid9.n_vertices, dtype=complex))
    with pytest.raises(BeltramiError) as err:
        auxiliary_metric(induced_metric(grid9), z.coords, mu, grid9)
    assert err.type is BeltramiError
    assert str(err.value) == ("corners must assign one value per face corner, "
                              "mu one per vertex")


def test_estimate_identity(grid9):
    z = grid_param(grid9)
    est = estimate_beltrami(z, z, grid9)
    assert np.abs(est.face_mu).max() == 0.0
    assert np.abs(est.vertex_mu.values).max() == 0.0
    assert est.face_dilation == pytest.approx(1.0)
    assert est.face_tau == pytest.approx(1.0)


def test_estimate_global_antiholomorphic_stretch(grid9):
    z = grid_param(grid9)
    w = Parameterization(z.coords + 0.2 * np.conj(z.coords))
    est = estimate_beltrami(z, w, grid9)
    assert est.face_mu == pytest.approx(0.2 + 0j, abs=1e-13)
    assert est.vertex_mu.values == pytest.approx(0.2 + 0j, abs=1e-13)


@given(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                          allow_infinity=False),
       st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_estimate_recovers_affine(a, b):
    if abs(a) < 0.1 or abs(b) >= 0.95 * abs(a):
        return
    mesh = meshes.grid_mesh(3, 3)
    z = grid_param(mesh)
    w = Parameterization(a * z.coords + b * np.conj(z.coords))
    est = estimate_beltrami(z, w, mesh)
    assert np.abs(est.face_mu - b / a).max() < 1e-12
    assert np.abs(est.face_tau - np.conj(a) / a).max() < 1e-12


def test_estimate_reports_orientation_reversal(grid9):
    z = grid_param(grid9)
    w = Parameterization(np.conj(z.coords))  # reflection: |b| > |a| = 0
    with pytest.raises(BeltramiError) as err:
        estimate_beltrami(z, w, grid9)
    assert len(err.value.faces) == grid9.n_faces


def test_estimate_reversal_threshold():
    # |b| = |a| exactly is already a reversal (jacobian <= 0)
    mesh = meshes.grid_mesh(3, 3)
    z = grid_param(mesh)
    w = Parameterization(z.coords + np.conj(z.coords))
    with pytest.raises(BeltramiError):
        estimate_beltrami(z, w, mesh)


def test_estimate_rejects_degenerate_source(grid9):
    z = Parameterization(np.zeros(grid9.n_vertices, dtype=complex))
    with pytest.raises(BeltramiError):
        estimate_beltrami(z, z, grid9)


def test_estimate_rejects_cancelling_vertex_tau():
    # An 8-face fan whose rim image winds twice around the centre: every
    # face keeps its orientation, but the face phases of tau cancel at the
    # centre vertex.
    k = np.arange(8)
    fan = build_mesh(np.column_stack([np.zeros(8, int), k + 1,
                                      (k + 1) % 8 + 1]))
    src = np.r_[0, np.exp(2j * np.pi * k / 8)]
    dst = np.r_[0, np.exp(4j * np.pi * k / 8)]
    with pytest.raises(BeltramiError,
                       match=r"vertex tau is ambiguous \(cancelling phases\)"):
        estimate_beltrami(src, dst, fan)


def test_compose_identity_f():
    mu_g = BeltramiField(np.full(5, 0.2 - 0.1j))
    zero = BeltramiField(np.zeros(5, dtype=complex))
    tau = np.ones(5, dtype=complex)
    out = compose_beltrami(zero, mu_g, tau)
    assert np.array_equal(out.values, mu_g.values)


def test_compose_identity_g():
    mu_f = BeltramiField(np.full(5, 0.3 + 0.2j))
    zero = BeltramiField(np.zeros(5, dtype=complex))
    rng = np.random.default_rng(3)
    tau = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    out = compose_beltrami(mu_f, zero, tau)
    assert np.array_equal(out.values, mu_f.values)


def test_compose_rejects_bad_tau():
    mu = BeltramiField(np.full(3, 0.1 + 0j))
    with pytest.raises(BeltramiError):
        compose_beltrami(mu, mu, np.full(3, 0.5 + 0j))


def test_compose_rejects_result_that_rounds_to_unit():
    # Both inputs are sub-unit, but (x + x) / (1 + x x) rounds to 1.
    x = 1 - 2**-53
    with pytest.raises(BeltramiError,
                       match="composed coefficient is not sub-unit"):
        compose_beltrami([x], [x], [1])


def test_compose_moduli_bound():
    # |mu_{g o f}| <= (|mu_f| + |mu_g|) / (1 + |mu_f| |mu_g|)
    rng = np.random.default_rng(9)
    for _ in range(50):
        f = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        tau = np.exp(1j * rng.uniform(0, 2 * np.pi))
        out = compose_beltrami(BeltramiField(np.array([f])),
                               BeltramiField(np.array([g])),
                               np.array([tau]))
        bound = (abs(f) + abs(g)) / (1 + abs(f) * abs(g))
        assert abs(out.values[0]) <= bound + 1e-12


def test_dilation_phase_invariance():
    rng = np.random.default_rng(13)
    mod = rng.uniform(0, 0.95, 20)
    for phi in (0.0, 0.7, 2.1, -1.3):
        k1 = (1 + mod) / (1 - mod)
        k2 = (1 + np.abs(mod * np.exp(1j * phi))) / (1 - np.abs(mod * np.exp(1j * phi)))
        assert k1 == pytest.approx(k2)


def test_map_distance_zero(grid9):
    z = grid_param(grid9)
    metric = induced_metric(grid9)
    assert map_distance(z, z, grid9, metric) == 0.0


def test_map_distance_constant_offset(grid9):
    z = grid_param(grid9)
    metric = induced_metric(grid9)
    c = 0.3 - 0.4j
    g = Parameterization(z.coords + c)
    diag = np.linalg.norm(grid9.positions.max(axis=0)
                          - grid9.positions.min(axis=0))
    expected = abs(c) / diag
    assert map_distance(z, g, grid9, metric) == pytest.approx(expected)


def test_field_json_round_trip():
    rng = np.random.default_rng(21)
    values = 0.5 * (rng.normal(size=9) + 1j * rng.normal(size=9))
    values /= max(1.0, 1.25 * np.abs(values).max())
    field = BeltramiField(values)
    again = field_from_json(field_to_json(field))
    assert np.array_equal(again.values, field.values)


def test_field_json_requires_every_vertex():
    field = BeltramiField(np.zeros(3, dtype=complex))
    text = field_to_json(field).replace('"i": 2', '"i": 5')
    with pytest.raises(BeltramiError):
        field_from_json(text)


@pytest.mark.parametrize("entry, message", [
    ('{"i": 0, "re": "0.25", "im": false}', 're value "0.25" is not a number'),
    ('{"i": 0, "re": 0.25, "im": false}', "im value false is not a number"),
    ('{"i": 0, "re": true, "im": 0}', "re value true is not a number"),
    ('{"i": 0, "re": null, "im": 0}', "re value null is not a number"),
    ('{"i": 0, "re": [1], "im": 0}', "re value \\[1\\] is not a number"),
    ('{"i": 0, "re": {}, "im": "x"}', "re value {} is not a number"),
    ('{"i": 0, "re": 0, "im": 1' + "0" * 400 + "}",
     "int too large to convert to float"),
])
def test_field_json_values_must_be_numbers(entry, message):
    # float() reads JSON strings and booleans; only JSON numbers are values
    with pytest.raises(BeltramiError, match="malformed mu JSON: " + message):
        field_from_json('{"mu": [' + entry + "]}", 1)
    ok = field_from_json('{"mu": [{"i": 0, "re": 0, "im": -2.5e-1}]}', 1)
    assert ok.values.tolist() == [-0.25j]


def test_auxiliary_metric_per_edge_scale_bounds(grid9):
    # with a varying field, each edge scale lies in [1-|mu_e|, 1+|mu_e|]
    metric = induced_metric(grid9)
    z = grid_param(grid9)
    rng = np.random.default_rng(77)
    values = 0.6 * (rng.normal(size=grid9.n_vertices)
                    + 1j * rng.normal(size=grid9.n_vertices))
    values /= max(1.0, 1.1 * np.abs(values).max())
    mu = BeltramiField(values)
    out = auxiliary_metric(metric, z.coords[grid9.faces], mu, grid9)
    a, b = grid9.edges[:, 0], grid9.edges[:, 1]
    mu_e = np.abs(0.5 * (values[a] + values[b]))
    scale = out.lengths / metric.lengths
    assert (scale >= 1.0 - mu_e - 1e-12).all()
    assert (scale <= 1.0 + mu_e + 1e-12).all()
