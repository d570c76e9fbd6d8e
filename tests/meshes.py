"""Deterministic mesh builders for the test suite. Structured grids,
subdivided polyhedra and voxel-boundary surfaces only; randomness always
comes from seeded generators passed in by the caller. Also the embedded edge
lengths that layout tests measure, the Poincare-disk distance they are
measured with in the disk, the ends and the edge id of a halfedge mesh's
halfedges and vertex pairs, and the flips of ``qcflow.flow.edge_swap``
named by vertex pair and built into a mesh."""

import numpy as np

from qcflow.flow import edge_swap
from qcflow.mesh import build_mesh
from qcflow.metric import (
    DiscreteMetric,
    Geometry,
    check_triangle_inequality,
    deform_metric,
    induced_metric,
)


def grid_mesh(nx, ny, w=1.0, h=1.0, bump=0.0):
    """Triangulated rectangle [0,w] x [0,h] with nx*ny vertices; ``bump``
    lifts the interior by bump*sin(pi x/w)*sin(pi y/h)."""
    xs = np.linspace(0.0, w, nx)
    ys = np.linspace(0.0, h, ny)
    X, Y = np.meshgrid(xs, ys)
    Z = bump * np.sin(np.pi * X / w) * np.sin(np.pi * Y / h)
    pos = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    faces = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = j * nx + i
            b = j * nx + i + 1
            c = (j + 1) * nx + i + 1
            d = (j + 1) * nx + i
            faces.append([a, b, c])
            faces.append([a, c, d])
    return build_mesh(np.asarray(faces), pos)


def grid_corners(nx, ny):
    """Corner vertex ids of :func:`grid_mesh`, counter-clockwise from the
    origin."""
    return (0, nx - 1, nx * ny - 1, nx * (ny - 1))


def tetrahedron():
    pos = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                    [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    return build_mesh(faces, pos)


def subdivided_sphere(rounds=2):
    """Midpoint-subdivided tetrahedron projected onto the unit sphere."""
    mesh = tetrahedron()
    pos = mesh.positions / np.linalg.norm(mesh.positions, axis=1)[:, None]
    faces = mesh.faces
    for _ in range(rounds):
        pts = [tuple(p) for p in pos]
        index = {p: i for i, p in enumerate(pts)}
        mid_cache = {}

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in mid_cache:
                m = pos[a] + pos[b]
                m = m / np.linalg.norm(m)
                t = tuple(m)
                if t not in index:
                    index[t] = len(pts)
                    pts.append(t)
                mid_cache[key] = index[t]
            return mid_cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        pos = np.asarray(pts)
        faces = np.asarray(new_faces)
    return build_mesh(faces, pos)


def torus_grid(nx, ny, w=1.0, h=1.0):
    """Flat torus: nx x ny grid over [0,w] x [0,h] with opposite sides
    identified. No 3D positions; returns (mesh, flat Euclidean metric)."""
    def vid(i, j):
        return (j % ny) * nx + (i % nx)

    dx, dy = w / nx, h / ny
    diag = float(np.hypot(dx, dy))
    faces = []
    tri_len = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            faces.append([a, b, c])
            tri_len.append((dx, dy, diag))
            faces.append([a, c, d])
            tri_len.append((diag, dx, dy))
    mesh = build_mesh(np.asarray(faces))
    lengths = np.zeros(mesh.n_edges)
    for f in range(mesh.n_faces):
        for s in range(3):
            lengths[mesh.edge_of_halfedge[3 * f + s]] = tri_len[f][s]
    return mesh, DiscreteMetric(Geometry.EUCLIDEAN, lengths)


def embedded_torus(n_major=12, n_minor=8, R=2.0, r=0.7):
    """Donut embedded in 3D."""
    faces = []
    pos = np.zeros((n_major * n_minor, 3))

    def vid(i, j):
        return (j % n_minor) * n_major + (i % n_major)

    for j in range(n_minor):
        for i in range(n_major):
            u = 2.0 * np.pi * i / n_major
            v = 2.0 * np.pi * j / n_minor
            pos[vid(i, j)] = [(R + r * np.cos(v)) * np.cos(u),
                              (R + r * np.cos(v)) * np.sin(u),
                              r * np.sin(v)]
    for j in range(n_minor):
        for i in range(n_major):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            faces += [[a, b, c], [a, c, d]]
    return build_mesh(np.asarray(faces), pos)


_VOXEL_QUADS = {
    (1, 0, 0): [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)],
    (-1, 0, 0): [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)],
    (0, 1, 0): [(0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)],
    (0, -1, 0): [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)],
    (0, 0, 1): [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)],
    (0, 0, -1): [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)],
}


def voxel_surface(solid):
    """Outward-oriented triangulated boundary of a set of unit voxels."""
    vid = {}
    pts = []
    faces = []

    def getv(p):
        if p not in vid:
            vid[p] = len(pts)
            pts.append(p)
        return vid[p]

    for (i, j, k) in sorted(solid):
        for d, quad in _VOXEL_QUADS.items():
            if (i + d[0], j + d[1], k + d[2]) in solid:
                continue
            q = [getv((i + dx, j + dy, k + dz)) for dx, dy, dz in quad]
            faces.append([q[0], q[1], q[2]])
            faces.append([q[0], q[2], q[3]])
    return build_mesh(np.asarray(faces), np.asarray(pts, dtype=float))


def voxel_torus():
    """Genus-1 voxel surface: 3x3x1 block with the middle voxel removed."""
    solid = {(i, j, 0) for i in range(3) for j in range(3)} - {(1, 1, 0)}
    return voxel_surface(solid)


def genus2_mesh():
    """Genus-2 voxel surface: 5x3x1 block with two separated voxels
    removed."""
    solid = ({(i, j, 0) for i in range(5) for j in range(3)}
             - {(1, 1, 0), (3, 1, 0)})
    return voxel_surface(solid)


def annulus_mesh(n=9, hole=1):
    """Square grid with a centered square block of cells removed; an annulus
    for 0 < hole < (n-1)/2."""
    nx = ny = n
    lo = (n - 1 - hole) // 2
    hi = lo + hole
    removed = {(i, j) for i in range(lo, hi) for j in range(lo, hi)}
    xs = np.linspace(0.0, 1.0, nx)
    pos_full = np.array([[xs[i], xs[j], 0.0] for j in range(ny) for i in range(nx)])
    faces = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            if (i, j) in removed:
                continue
            a = j * nx + i
            b = j * nx + i + 1
            c = (j + 1) * nx + i + 1
            d = (j + 1) * nx + i
            faces.append([a, b, c])
            faces.append([a, c, d])
    faces = np.asarray(faces)
    used = np.unique(faces)
    remap = -np.ones(nx * ny, dtype=int)
    remap[used] = np.arange(len(used))
    return build_mesh(remap[faces], pos_full[used])


def sliver_mesh(eps=1e-4):
    """Two triangles sharing a very short altitude; near-degenerate but
    valid."""
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                    [0.5, eps, 0.0], [0.5, -eps, 0.0]])
    faces = np.array([[0, 1, 2], [1, 0, 3]])
    return build_mesh(faces, pos)


def random_admissible_metric(mesh, rng, geometry=Geometry.EUCLIDEAN,
                             amplitude=0.2, base=None):
    """Conformal perturbation of the induced (or given) metric, with the
    amplitude halved until the triangle inequality holds everywhere."""
    if base is None:
        base = induced_metric(mesh)
    base = base.retagged(geometry)
    u = rng.normal(0.0, 1.0, mesh.n_vertices)
    u -= u.mean()
    for _ in range(40):
        metric = deform_metric(mesh, base, amplitude * u)
        if not check_triangle_inequality(metric, mesh):
            return DiscreteMetric(geometry, metric.lengths)
        amplitude *= 0.5
    return base


def hyperbolic_distance(p, q):
    """Poincare-disk distance, elementwise on arrays."""
    p = np.asarray(p, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    ratio = np.abs(p - q) / np.abs(1.0 - np.conj(q) * p)
    return 2.0 * np.arctanh(ratio)


def embedded_edge_lengths(mesh, param):
    """Length of every edge as embedded by the parameterization, in the
    parameterization's own geometry."""
    za = param.coords[mesh.edges[:, 0]]
    zb = param.coords[mesh.edges[:, 1]]
    if param.geometry == Geometry.HYPERBOLIC:
        return hyperbolic_distance(za, zb)
    return np.abs(za - zb)


def origin(mesh, h):
    """First end of the halfedges ``h``, corner ``h % 3`` of face
    ``h // 3``."""
    return mesh.faces.ravel()[h]


def dest(mesh, h):
    """Second end of the halfedges ``h``."""
    return mesh.faces.ravel()[mesh.next(h)]


def edge_id(mesh, a, b):
    """Edge id of the (a, b) edge, or -1 if absent."""
    hit = np.flatnonzero((np.sort(mesh.edges, axis=1) == sorted((a, b)))
                         .all(axis=1))
    return int(hit[0]) if hit.size else -1


def flipped(mesh, metric, pairs):
    """``mesh`` and ``metric`` after :func:`~qcflow.flow.edge_swap` flips of
    the edges named by the vertex pairs ``pairs``, in turn on the mesh's
    arrays, built into a mesh; raises what a flip raises."""
    faces, twin = mesh.faces.copy(), mesh.twin.copy()
    lengths = metric.lengths[mesh.edge_of_halfedge]
    for a, b in pairs:
        ends = np.sort(np.column_stack([faces.ravel(),
                                        faces[:, [1, 2, 0]].ravel()]))
        h = np.flatnonzero((ends == sorted((a, b))).all(axis=1))[0]
        edge_swap(faces, twin, lengths, metric.geometry, int(h))
    new = build_mesh(faces, mesh.positions)
    return new, DiscreteMetric(metric.geometry,
                               lengths[new.edge_halfedges[:, 0]])
