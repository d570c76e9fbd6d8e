"""Plane and Poincare-disk primitives used by the embedding.

The hyperbolic plane is modelled as the unit disk with metric
``4 dz dzbar / (1 - z zbar)^2``; distances are
``d(p, q) = 2 atanh |(p - q) / (1 - conj(q) p)|`` and rigid motions are
Mobius transformations ``z -> e^{i t} (z - z0) / (1 - conj(z0) z)``.

A geodesic from the origin is a Euclidean ray and the point at
hyperbolic distance ``l`` from it has modulus ``tanh(l / 2)``, so a layout
can place a face's third corner in the face's own frame, where the entry
edge starts at 0, from its distance and corner angle alone, in both
spaces. :class:`_Plane` and :class:`_Disk` carry each space's part of the
development: the edge radius and the rigid motions that move a face's
frame into its parent's. :func:`mobius_from_origin` and
:func:`poincare_circle_to_euclidean` are the disk's conversions for
callers of the package.
"""

from __future__ import annotations

import numpy as np


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


def mobius_from_origin(c, w):
    """The disk automorphism ``w -> (w + c) / (1 + conj(c) w)``, which
    sends 0 to ``c``, applied to ``w``; elementwise on arrays."""
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


class _Plane:
    """The plane as the layout develops it: an edge of length ``l`` from 0
    runs to ``l`` on the real axis, and the rigid motion ``z -> p z + q``,
    ``|p| = 1``, is the pair ``(p, q)`` of complex arrays."""

    @staticmethod
    def radius(length):
        return length

    @staticmethod
    def motion(a, b):
        """The motion that sends 0 to ``a`` and the positive real axis
        through ``b``."""
        c = b - a
        d = np.hypot(c.real, c.imag)
        return _complex(c.real / d, c.imag / d), a

    @staticmethod
    def compose(outer, inner):
        (p, q), (r, s) = outer, inner
        return _cmul(p, r), _cmul(p, s) + q

    @staticmethod
    def apply(motion, z):
        p, q = motion
        return _cmul(p, z) + q


class _Disk:
    """The Poincare disk as the layout develops it: an edge of hyperbolic
    length ``l`` from 0 runs to ``tanh(l / 2)`` on the real axis, and the
    disk automorphism ``z -> (p z + q) / (conj(q) z + conj(p))`` is the pair
    ``(p, q)``, scaled to ``|p|^2 - |q|^2 = 1``."""

    @staticmethod
    def radius(length):
        return np.tanh(0.5 * length)

    @staticmethod
    def motion(a, b):
        """The automorphism that sends 0 to ``a`` and the positive real axis
        to the geodesic ray from ``a`` through ``b``: ``mobius_from_origin``
        of ``a`` after the turn ``u = w / |w|``, ``w`` the image of ``b``
        in the frame of ``a``. ``p`` is a square root of ``u``, from the
        half-angle sum on the side where it does not cancel."""
        # (b - a) / (1 - conj(a) b) times the positive |1 - conj(a) b|^2
        w = _cmul(b - a, 1.0 - _cmul(a, b.conj()))
        r = np.hypot(w.real, w.imag)
        p = np.where(w.real >= 0.0, _complex(r + w.real, w.imag),
                     _complex(w.imag, r - w.real))
        q = _cmul(a, p.conj())
        return _Disk._normalized(p, q)

    @staticmethod
    def compose(outer, inner):
        (p, q), (r, s) = outer, inner
        return _Disk._normalized(_cmul(p, r) + _cmul(q, s.conj()),
                                 _cmul(p, s) + _cmul(q, r.conj()))

    @staticmethod
    def apply(motion, z):
        p, q = motion
        num = _cmul(p, z) + q
        den = _cmul(q.conj(), z) + p.conj()
        z = _cmul(num, den.conj())
        k = den.real * den.real + den.imag * den.imag
        return _complex(z.real / k, z.imag / k)

    @staticmethod
    def _normalized(p, q):
        n = np.sqrt((p.real * p.real + p.imag * p.imag)
                    - (q.real * q.real + q.imag * q.imag))
        return (_complex(p.real / n, p.imag / n),
                _complex(q.real / n, q.imag / n))
