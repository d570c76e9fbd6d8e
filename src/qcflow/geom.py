"""Plane and Poincare-disk primitives used by the embedding.

The hyperbolic plane is modelled as the unit disk with metric
``4 dz dzbar / (1 - z zbar)^2``; distances are
``d(p, q) = 2 atanh |(p - q) / (1 - conj(q) p)|`` and rigid motions are
Mobius transformations ``z -> e^{i t} (z - z0) / (1 - conj(z0) z)``.

Both layouts place a vertex by one rule: the apex over its base edge
(:func:`apex_over_base`), in the plane's frame of that edge or in the
Mobius frame that moves its first end to the origin.
"""

from __future__ import annotations

import numpy as np

from .errors import LayoutError

# relative slack accepted when a circle-circle intersection is near-tangent
_TANGENT_SLACK = 1e-9


def hyperbolic_distance(p, q):
    """Poincare-disk distance, elementwise on arrays."""
    p = np.asarray(p, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    ratio = np.abs(p - q) / np.abs(1.0 - np.conj(q) * p)
    return 2.0 * np.arctanh(ratio)


def _complex(re, im):
    z = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
    z.real = re
    z.imag = im
    return z


def _cmul(a, b):
    """Complex product ``a * b``, written out in real and imaginary parts.

    NumPy's array loops round complex products and complex ``abs``
    differently from its scalar code in the last bit; written out (and with
    ``np.hypot`` for the modulus) an array computes, element by element,
    exactly what the scalar expression does.
    """
    return _complex(a.real * b.real - a.imag * b.imag,
                    a.real * b.imag + a.imag * b.real)


def _abs(z):
    return np.hypot(z.real, z.imag)


def mobius_to_origin(c, z):
    """The disk automorphism sending ``c`` to 0, applied to ``z``;
    elementwise on arrays."""
    c = np.asarray(c, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    return ((z - c) / (1.0 - _cmul(c.conj(), z)))[()]


def mobius_from_origin(c, w):
    """Inverse of :func:`mobius_to_origin`."""
    c = np.asarray(c, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    return ((w + c) / (1.0 + _cmul(c.conj(), w)))[()]


def poincare_circle_to_euclidean(c, r):
    """Euclidean (center, radius) of the hyperbolic circle (c, r);
    elementwise on arrays.

    With ``m = tanh(r/2)``: center ``(1 - m^2) c / (1 - m^2 |c|^2)`` and
    radius from ``R^2 = |C|^2 - (|c|^2 - m^2) / (1 - m^2 |c|^2)``.
    """
    c = np.asarray(c, dtype=np.complex128)
    m = np.tanh(0.5 * np.asarray(r, dtype=np.float64))
    m2 = m * m
    cc = c.real * c.real + c.imag * c.imag
    denom = 1.0 - m2 * cc
    center = _cmul(((1.0 - m2) / denom).astype(np.complex128), c)
    r2 = (center.real * center.real + center.imag * center.imag
          - (cc - m2) / denom)
    return center[()], np.sqrt(np.where(0.0 > r2, 0.0, r2))[()]


def apex_over_base(d, la, lb):
    """Apex ``(x, y)``, ``y >= 0``, of the triangle over the base edge from
    0 to ``d`` on the real axis with sides ``la`` (from 0) and ``lb`` (from
    ``d``); elementwise on arrays.

    Raises :class:`LayoutError` for the first element whose base is
    degenerate or whose circles do not meet (beyond a relative tangency
    slack).
    """
    d, la, lb = (np.asarray(v, dtype=np.float64) for v in (d, la, lb))
    with np.errstate(all="ignore"):  # degenerate bases raise below
        x = (d * d + la * la - lb * lb) / (2.0 * d)
        h2 = la * la - x * x
    bad = (d <= 0.0) | (h2 < -_TANGENT_SLACK * la * la)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        d, la, lb = (float(np.broadcast_to(v, bad.shape).flat[i])
                     for v in (d, la, lb))
        if d <= 0.0:
            raise LayoutError("degenerate base edge")
        raise LayoutError(
            f"circle intersection failed (la={la}, lb={lb}, base={d})")
    return x[()], np.sqrt(np.where(0.0 > h2, 0.0, h2))[()]


def place_third_euclidean(pa, pb, la, lb):
    """Point at distance ``la`` from ``pa`` and ``lb`` from ``pb`` on the
    counter-clockwise side of the segment ``pa -> pb``; elementwise on
    arrays.

    Computed in the local frame of the base edge (:func:`apex_over_base`,
    equivalently the law-of-cosines angle construction), which stays well
    conditioned for near-tangent circles.
    """
    pa = np.asarray(pa, dtype=np.complex128)
    chord = np.asarray(pb, dtype=np.complex128) - pa
    d = _abs(chord)
    x, y = apex_over_base(d, la, lb)
    return (pa + _cmul(_complex(x, y), chord / d))[()]


def place_third_hyperbolic(pa, pb, la, lb):
    """Hyperbolic analogue of :func:`place_third_euclidean`: point at
    hyperbolic distance ``la`` from ``pa`` and ``lb`` from ``pb`` on the
    counter-clockwise side of the geodesic ``pa -> pb``; elementwise on
    arrays.

    The same construction as in the plane, in the Mobius frame of the base
    edge: there ``pa`` sits at 0, the geodesic is the ray through
    ``w = mobius_to_origin(pa, pb)``, the circle about ``pa`` has Euclidean
    radius ``tanh(la / 2)`` and the circle about ``w`` has its Euclidean
    centre on that ray, so :func:`apex_over_base` gives the point (inside
    the disk by construction), which is rotated onto the ray and mapped
    back. Impossible triangles and degenerate bases raise
    :class:`LayoutError` as in the plane, with the frame's Euclidean radii.
    """
    w = mobius_to_origin(pa, pb)
    d = _abs(w)
    centre, radius = poincare_circle_to_euclidean(d, lb)
    x, y = apex_over_base(centre.real, np.tanh(0.5 * la), radius)
    return mobius_from_origin(pa, _cmul(_complex(x, y), w / d))
