import numpy as np
import pytest

from qcflow.errors import LayoutError
from qcflow.geom import (
    hyperbolic_distance,
    mobius_from_origin,
    mobius_to_origin,
    place_third_euclidean,
    place_third_hyperbolic,
    poincare_circle_to_euclidean,
)


def random_disk_point(rng, rmax=0.85):
    while True:
        z = rng.uniform(-rmax, rmax) + 1j * rng.uniform(-rmax, rmax)
        if abs(z) < rmax:
            return z


def test_hyperbolic_distance_basics():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = random_disk_point(rng)
        q = random_disk_point(rng)
        r = random_disk_point(rng)
        dpq = float(hyperbolic_distance(p, q))
        assert dpq == pytest.approx(float(hyperbolic_distance(q, p)), abs=1e-12)
        assert float(hyperbolic_distance(p, p)) == 0.0
        # triangle inequality
        assert dpq <= (float(hyperbolic_distance(p, r))
                       + float(hyperbolic_distance(r, q)) + 1e-12)
    # distance from the origin is 2 atanh |z|
    z = 0.3 + 0.4j
    assert float(hyperbolic_distance(0.0, z)) == pytest.approx(
        2 * np.arctanh(0.5))


def test_mobius_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = random_disk_point(rng)
        z = random_disk_point(rng)
        w = mobius_to_origin(c, z)
        assert abs(w) < 1.0
        assert abs(mobius_from_origin(c, w) - z) < 1e-14
        # Mobius maps are hyperbolic isometries
        z2 = random_disk_point(rng)
        d1 = float(hyperbolic_distance(z, z2))
        d2 = float(hyperbolic_distance(mobius_to_origin(c, z),
                                       mobius_to_origin(c, z2)))
        assert d1 == pytest.approx(d2, abs=1e-11)


def test_place_third_euclidean_invariants():
    rng = np.random.default_rng(3)
    for _ in range(200):
        pa = rng.normal() + 1j * rng.normal()
        pb = rng.normal() + 1j * rng.normal()
        d = abs(pb - pa)
        if d < 1e-6:
            continue
        la = rng.uniform(0.2, 2.0) * d
        lb = rng.uniform(abs(la - d) * 1.05 + 1e-9, (la + d) * 0.95)
        p = place_third_euclidean(pa, pb, la, lb)
        assert abs(p - pa) == pytest.approx(la, rel=1e-12)
        assert abs(p - pb) == pytest.approx(lb, rel=1e-12)
        # counter-clockwise side of pa -> pb
        assert ((p - pa) * np.conj(pb - pa)).imag > 0.0


def test_place_third_euclidean_rejects_impossible():
    with pytest.raises(LayoutError):
        place_third_euclidean(0.0, 1.0 + 0j, 0.2, 0.2)


def test_place_third_hyperbolic_invariants():
    rng = np.random.default_rng(4)
    for rmax in (0.7, 0.95):  # genus-2 layouts reach |z| = 0.954
        for _ in range(200):
            pa = random_disk_point(rng, rmax)
            pb = random_disk_point(rng, rmax)
            d = float(hyperbolic_distance(pa, pb))
            if d < 1e-3:
                continue
            la = rng.uniform(0.2, 1.5) * d
            lb = rng.uniform(abs(la - d) * 1.05 + 1e-6, (la + d) * 0.95)
            p = place_third_hyperbolic(pa, pb, la, lb)
            assert abs(p) < 1.0
            assert float(hyperbolic_distance(pa, p)) == pytest.approx(
                la, rel=1e-9)
            assert float(hyperbolic_distance(pb, p)) == pytest.approx(
                lb, rel=1e-9)
            # counter-clockwise in the frame where pa sits at the origin
            w = mobius_to_origin(pa, p)
            ref = mobius_to_origin(pa, pb)
            assert (w * np.conj(ref)).imag > 0.0


def test_place_third_hyperbolic_rejects_impossible():
    with pytest.raises(LayoutError):  # the circles do not meet
        place_third_hyperbolic(0.0, 0.5 + 0j, 0.2, 0.2)
    with pytest.raises(LayoutError):  # degenerate base
        place_third_hyperbolic(0.3 + 0.1j, 0.3 + 0.1j, 0.2, 0.2)


def test_place_third_hyperbolic_fallback_agrees():
    # a nearly degenerate (thin) triangle, where the apex is ill-conditioned,
    # still keeps both distances
    pa, pb = 0.1 + 0.05j, 0.4 - 0.1j
    d = float(hyperbolic_distance(pa, pb))
    la = 0.6 * d
    for lb in (0.4000001 * d, 0.4001 * d):  # close to |la - d|: thin triangle
        p = place_third_hyperbolic(pa, pb, la, lb)
        assert float(hyperbolic_distance(pa, p)) == pytest.approx(la, rel=1e-7)
        assert float(hyperbolic_distance(pb, p)) == pytest.approx(lb, rel=1e-7)


def test_poincare_circle_nested_radii():
    # growing hyperbolic radius grows the Euclidean circle, staying in the disk
    c = 0.4 + 0.3j
    prev = 0.0
    for r in (0.2, 0.5, 1.0, 2.0, 4.0, 8.0):
        C, R = poincare_circle_to_euclidean(c, r)
        assert R > prev
        assert abs(C) + R < 1.0 + 1e-12
        prev = R
