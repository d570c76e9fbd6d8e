"""The linear Beltrami solver as an independent oracle for ``qcmap``'s
rectangle module (Lui, Lam, Yau & Gu, *Teichmuller mapping (T-Map) and its
applications to landmark matching registration*, SIAM J. Imaging Sci.
2014).

A map ``w = f(z)`` with ``f_zbar = mu f_z`` has real and imaginary parts
that solve ``div(A grad u) = 0`` with, for ``mu = rho + i tau``,

    A = [[(rho - 1)^2 + tau^2, -2 tau], [-2 tau, (1 + rho)^2 + tau^2]]
        / (1 - |mu|^2).

P1 finite elements on ``flatten``'s rectangle chart ``z``, with mu constant
per face, give ``u`` with 0 on the side from corner 3 to corner 0 and 1 on
the side from corner 1 to corner 2; its energy ``h = u^T K u`` is the
module of the image rectangle, the height ``qcmap`` reports for unit width,
and ``u`` itself is the real part of the map ``qcmap`` lays out. The same
solve between the other two sides gives ``E_v = 1 / h`` in the
limit. This checks the chart, the second flow and the layout from outside:
nothing here shares code with the auxiliary metric."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import meshes
from qcflow.beltrami import BeltramiField
from qcflow.metric import Geometry
from qcflow.pipeline import PresetKind, TargetPreset, cmd_flatten, cmd_qcmap


def stiffness(z, faces, mu):
    """The P1 stiffness matrix of ``div(A grad u)`` on the chart ``z`` (one
    complex coordinate per vertex), ``mu`` constant per face."""
    p = z[faces]
    # e[:, i] is the side opposite corner i; its quarter turn, over twice
    # the area, is the gradient of corner i's hat function
    e = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
    area = 0.5 * (np.conj(e[:, 0]) * e[:, 1]).imag
    grad = 1j * e / (2.0 * area[:, None])
    g = np.stack([grad.real, grad.imag], axis=-1)  # (F, 3, 2)
    rho, tau = mu.real, mu.imag
    A = np.array([[(rho - 1.0) ** 2 + tau ** 2, -2.0 * tau],
                  [-2.0 * tau, (rho + 1.0) ** 2 + tau ** 2]]) \
        / (1.0 - np.abs(mu) ** 2)  # (2, 2, F)
    local = area[:, None, None] * np.einsum("fia,abf,fjb->fij", g, A, g)
    rows = np.repeat(faces, 3, axis=1).ravel()
    cols = np.tile(faces, (1, 3)).ravel()
    n = len(z)
    return sp.csr_matrix((local.ravel(), (rows, cols)), shape=(n, n))


def harmonic(K, zero, one):
    """The ``K``-harmonic ``u`` that is 0 on ``zero`` and 1 on ``one``, the
    other vertices free."""
    u = np.zeros(K.shape[0])
    u[one] = 1.0
    free = np.ones(K.shape[0], dtype=bool)
    free[zero] = free[one] = False
    u[free] = spla.spsolve(K[free][:, free].tocsc(), -K[free] @ u)
    return u


def energy(K, zero, one):
    """``u^T K u`` of :func:`harmonic` ``(K, zero, one)``."""
    u = harmonic(K, zero, one)
    return float(u @ (K @ u))


def against_qcmap(field):
    """``qcmap`` against the P1 solve for the field ``field(x, y)`` on the
    bumped n x n squares, n = 17, 33, 65: per n, the module difference
    ``|module - h|``, the map's ``max |Re w - u|`` over the vertices and
    ``|h E_v - 1|``. A mesh's sides are its grid columns and rows."""
    diff, gap, dual = [], [], []
    for n in (17, 33, 65):
        mesh = meshes.grid_mesh(n, n, bump=0.3)
        mu = field(mesh.positions[:, 0], mesh.positions[:, 1])
        preset = TargetPreset(PresetKind.RECTANGLE, meshes.grid_corners(n, n))
        flat = cmd_flatten(mesh, Geometry.EUCLIDEAN, preset)
        qc = cmd_qcmap(mesh, BeltramiField(mu), Geometry.EUCLIDEAN, preset)
        faces = flat.mesh.faces
        K = stiffness(flat.param.coords, faces, mu[faces].mean(axis=1))
        grid = np.arange(n * n).reshape(n, n)  # [row j, column i]
        u = harmonic(K, grid[:, 0], grid[:, -1])
        h = float(u @ (K @ u))
        e_v = energy(K, grid[0], grid[-1])
        diff.append(abs(qc.module - h))
        gap.append(float(np.abs(qc.param.coords.real - u).max()))
        dual.append(abs(h * e_v - 1.0))
    return diff, gap, dual


def observed_order(errors):
    """``log2`` of the ratio of successive errors, each n twice the last."""
    return np.log2(np.array(errors[:-1]) / np.array(errors[1:]))


def test_qcmap_module_matches_linear_beltrami_solver():
    # the smooth field of the qcmap-sweep at k = 0.5 on the bumped square;
    # measured: |qcmap - FEM| 2.0e-3, 5.4e-4, 1.4e-4, max |Re w - u|
    # 3.4e-3, 9.1e-4, 2.3e-4 and |h E_v - 1| 2.5e-3, 6.6e-4, 1.7e-4: all
    # second order
    diff, gap, dual = against_qcmap(
        lambda x, y: 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y)
        * np.exp(2j * np.pi * x))
    assert observed_order(diff).min() >= 1.8, diff
    assert observed_order(gap).min() >= 1.8, gap
    assert dual[0] > dual[1] > dual[2], dual


def test_qcmap_constant_module_matches_linear_beltrami_solver():
    # the constant field 0.5 e^{i pi/4}: the image's corners are acute, and
    # there the P1 solve converges more slowly; measured |qcmap - FEM|
    # 9.35e-3, 3.79e-3, 1.52e-3 (orders 1.30 and 1.32) and |h E_v - 1|
    # 4.3e-2, 1.7e-2, 6.6e-3
    diff, _, dual = against_qcmap(
        lambda x, y: np.full(x.shape, 0.5 * np.exp(0.25j * np.pi)))
    assert observed_order(diff).min() >= 1.2, diff
    assert dual[0] > dual[1] > dual[2], dual
