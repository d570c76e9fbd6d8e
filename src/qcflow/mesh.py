"""Halfedge triangle-mesh core: construction, OBJ I/O, topology queries and
cutting a mesh open into a disk.

Halfedges are indexed implicitly: face ``f`` owns halfedges ``3f``, ``3f+1``,
``3f+2``, where halfedge ``3f+s`` runs from corner ``s`` to corner ``(s+1)%3``
of the face. ``next`` and ``prev`` are therefore index arithmetic and only the
twin pairing is stored.

Every cut follows one rule, :func:`cut_graph`. Slicing keeps every face and
corner slot, so halfedge ``h`` is the same slot in a mesh and in its cut, and
the two meshes are the whole record of the cut.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter, methodcaller

import numpy as np

from .errors import ParseError, TopologyError


class _SciPy:
    """A SciPy module imported at its first attribute read. The first read
    through any of the handles below imports all three modules, so a process
    that builds no Newton system, cuts no mesh and lays out none runs on
    NumPy alone, and a flow pays the import in its first
    ``assemble_hessian``, not in a solve. Dunder reads (introspection,
    copying) load nothing."""

    _MODULES = ("scipy.sparse", "scipy.sparse.linalg", "scipy.sparse.csgraph")

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        if attr.startswith("__"):
            raise AttributeError(attr)
        for name in self._MODULES:
            importlib.import_module(name)
        return getattr(sys.modules[self._name], attr)


sp = _SciPy("scipy.sparse")
spla = _SciPy("scipy.sparse.linalg")
csgraph = _SciPy("scipy.sparse.csgraph")


def _require(cond, exc, message):
    if not cond:
        raise exc(message)


@dataclass(frozen=True)
class HalfedgeMesh:
    """Immutable halfedge representation of an oriented triangle mesh.

    Attributes
    ----------
    faces : (F, 3) int array
        Vertex ids per face, counter-clockwise.
    n_vertices : int
        Number of vertices; every vertex appears in at least one face.
    positions : (V, 3) float array or None
        Optional embedded coordinates in the input file's length units.
    twin : (3F,) int array
        Opposite halfedge id, or -1 on the boundary.
    edges : (E, 2) int array
        Endpoint vertex ids per edge, in the orientation of its smaller
        halfedge; edge ids ascend with that halfedge.
    edge_of_halfedge : (3F,) int array
        Edge id under each halfedge.
    edge_halfedges : (E, 2) int array
        The one or two halfedges of each edge, smaller first (-1 when the
        edge is boundary).
    boundary_loops : tuple of tuple of int
        Vertex cycles, one per boundary component, interior on the left.
    vertex_halfedge : (V,) int array
        One outgoing halfedge per vertex: the smallest for interior
        vertices; for boundary vertices the unique outgoing boundary
        halfedge, so that counter-clockwise rotation sweeps the whole fan.
    """

    faces: np.ndarray
    n_vertices: int
    positions: np.ndarray | None
    twin: np.ndarray
    edges: np.ndarray
    edge_of_halfedge: np.ndarray
    edge_halfedges: np.ndarray
    boundary_loops: tuple
    vertex_halfedge: np.ndarray
    uv: np.ndarray | None = field(default=None, compare=False)

    @property
    def n_faces(self):
        return self.faces.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    @property
    def n_halfedges(self):
        return 3 * self.faces.shape[0]

    @staticmethod
    def next(h):
        return h - h % 3 + (h % 3 + 1) % 3

    @staticmethod
    def prev(h):
        return h - h % 3 + (h % 3 + 2) % 3

    @cached_property
    def adjacency_pattern(self):
        """Read-only CSR pattern ``(indptr, indices, slot)`` of the vertex
        adjacency plus the diagonal, in SciPy's index dtype, built once per
        mesh object; ``slot`` maps each stored entry to its edge ``e`` or,
        on the diagonal of vertex ``v``, to ``E + v``."""
        n, ne = self.n_vertices, self.n_edges
        a, b = self.edges.T
        rows, cols = np.r_[a, b, :n], np.r_[b, a, :n]
        order = np.argsort(rows * n + cols, kind="stable")  # distinct keys
        dtype = np.int32 if rows.size < 2**31 else np.int64
        indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]
        # entries E..2E-1 are the edges again, reversed, and 2E.. the diagonal
        pattern = (indptr.astype(dtype), cols[order].astype(dtype),
                   np.where(order < ne, order, order - ne))
        for array in pattern:
            array.flags.writeable = False
        return pattern

    def boundary_vertex_mask(self):
        mask = np.zeros(self.n_vertices, dtype=bool)
        for loop in self.boundary_loops:
            mask[list(loop)] = True
        return mask

    def outgoing_halfedges(self, v):
        """Outgoing halfedges around ``v`` in counter-clockwise order.

        For boundary vertices the walk starts at the outgoing boundary
        halfedge and ends at the fan's other boundary edge.
        """
        start = int(self.vertex_halfedge[v])
        ring = [start]
        h = int(self.twin[self.prev(start)])
        while h >= 0 and h != start:
            ring.append(h)
            h = int(self.twin[self.prev(h)])
        return ring


def build_mesh(faces, positions=None, uv=None):
    """Build a validated :class:`HalfedgeMesh` from an indexed face list.

    The vertex count is one more than the largest face index, or the length
    of ``positions`` or ``uv`` when that is larger, so trailing vertices no
    face uses are reported as unused.

    Raises
    ------
    TopologyError
        On non-triangular input, repeated vertex ids within a face,
        non-manifold edges (an oriented edge shared by two faces), unused or
        non-manifold (bowtie or pinched) vertices.
    """
    faces = np.ascontiguousarray(faces, dtype=np.int64)
    _require(faces.ndim == 2 and faces.shape[1] == 3, TopologyError,
             "faces must be an (F, 3) index array")
    nf = faces.shape[0]
    _require(nf > 0, TopologyError, "mesh has no faces")
    _require(faces.min() >= 0, TopologyError, "negative vertex id")
    degenerate = (
        (faces[:, 0] == faces[:, 1])
        | (faces[:, 1] == faces[:, 2])
        | (faces[:, 2] == faces[:, 0])
    )
    if degenerate.any():
        bad = np.nonzero(degenerate)[0].tolist()
        raise TopologyError(f"repeated vertex id in faces {bad}", faces=bad)

    nv = int(faces.max()) + 1
    if positions is not None:
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        nv = max(nv, len(positions))
    if uv is not None:
        uv = np.ascontiguousarray(uv, dtype=np.complex128)
        nv = max(nv, len(uv))
    used = np.zeros(nv, dtype=bool)
    used[faces.ravel()] = True
    if not used.all():
        raise TopologyError(
            f"unused vertex ids {np.nonzero(~used)[0].tolist()}")
    if positions is not None:
        _require(positions.shape == (nv, 3), TopologyError,
                 f"positions must have shape ({nv}, 3)")
    if uv is not None:
        _require(uv.shape == (nv,), TopologyError,
                 f"uv must have shape ({nv},)")

    nh = 3 * nf
    origin = faces.ravel()
    dest = faces[:, [1, 2, 0]].ravel()

    # Twins: sort the halfedges by undirected edge. Unless an oriented edge
    # repeats, every edge has one halfedge or two opposite ones, which the
    # sort puts side by side.
    key = np.minimum(origin, dest) * nv + np.maximum(origin, dest)
    order = np.argsort(key, kind="stable")
    key = key[order]
    paired = key[1:] == key[:-1]
    h1, h2 = order[:-1][paired], order[1:][paired]
    if (paired[1:] & paired[:-1]).any() or (origin[h1] == origin[h2]).any():
        key = origin * nv + dest
        order = np.argsort(key, kind="stable")
        h1, h2 = _first_repeat(order, key[order])
        raise TopologyError(
            f"oriented edge ({origin[h2]}, {dest[h2]}) shared by faces "
            f"{h1 // 3} and {h2 // 3}: non-manifold or inconsistently "
            "oriented", faces=[h1 // 3, h2 // 3])
    twin = np.full(nh, -1)
    twin[h1], twin[h2] = h2, h1

    # Edges in order of their smaller halfedge, oriented like it.
    first = np.nonzero((twin < 0) | (np.arange(nh) < twin))[0]
    edges = np.column_stack([origin[first], dest[first]])
    edge_halfedges = np.column_stack([first, twin[first]])
    edge_of_halfedge = np.empty(nh, dtype=np.int64)
    edge_of_halfedge[first] = np.arange(len(first))
    inner = np.nonzero(edge_halfedges[:, 1] >= 0)[0]
    edge_of_halfedge[edge_halfedges[inner, 1]] = inner

    # Vertex -> smallest outgoing halfedge, replaced by the boundary one so
    # that CCW rotation from it covers the whole fan.
    boundary = np.nonzero(twin < 0)[0]
    boundary_origin = origin[boundary]
    vertex_halfedge = np.full(nv, nh)
    np.minimum.at(vertex_halfedge, origin, np.arange(nh))
    vertex_halfedge[boundary_origin] = boundary

    # Manifold-vertex checks: no vertex has two outgoing boundary
    # halfedges, and the CCW fan walk from vertex_halfedge reaches every
    # incident corner.
    boundary_order = np.argsort(boundary_origin, kind="stable")
    repeat = _first_repeat(boundary_order, boundary_origin[boundary_order])
    if repeat is not None:
        raise TopologyError(
            f"vertex {boundary_origin[repeat[1]]} has two outgoing boundary "
            "edges (non-manifold bowtie)")
    reached = np.bincount(np.concatenate(
        [walker for walker, _ in _fan_walk(twin, vertex_halfedge)]),
        minlength=nv)
    pinched = np.nonzero(reached != np.bincount(origin, minlength=nv))[0]
    if pinched.size:
        raise TopologyError(f"vertex {pinched[0]} has a disconnected fan "
                            "(non-manifold vertex)")

    return HalfedgeMesh(
        faces=faces,
        n_vertices=nv,
        positions=positions,
        twin=twin,
        edges=edges,
        edge_of_halfedge=edge_of_halfedge,
        edge_halfedges=edge_halfedges,
        boundary_loops=_boundary_loops(boundary_origin, dest[boundary]),
        vertex_halfedge=vertex_halfedge,
        uv=uv,
    )


def _fan_walk(twin, vertex_halfedge):
    """Counter-clockwise walk ``h -> twin[prev(h)]`` around every vertex
    from its ``vertex_halfedge``, all vertices in lockstep: yields, one step
    at a time, the vertices still walking and the outgoing halfedge each has
    reached. A walk ends at a boundary or back at its start."""
    walker = np.arange(len(vertex_halfedge))
    at = vertex_halfedge
    while walker.size:
        yield walker, at
        at = twin[HalfedgeMesh.prev(at)]
        going = (at >= 0) & (at != vertex_halfedge[walker])
        walker, at = walker[going], at[going]


def _first_repeat(order, sorted_keys):
    """Earliest repeat in a key array, given its stable argsort ``order``
    and the sorted keys: the pair ``(i, j)``, ``i < j``, where ``j`` is the
    smallest position whose key occurs before it and ``i`` is that key's
    first position. None when all keys are distinct."""
    dup = np.nonzero(sorted_keys[1:] == sorted_keys[:-1])[0]
    if dup.size == 0:
        return None
    k = dup[np.argmin(order[dup + 1])]
    return int(order[k]), int(order[k + 1])


def _boundary_loops(origins, dests):
    """Vertex cycles of the boundary halfedges ``origins -> dests``, each
    starting at its smallest vertex, in ascending order of that vertex."""
    successor = dict(zip(origins.tolist(), dests.tolist()))
    loops = []
    seen = set()
    for v in sorted(successor):
        loop = []
        while v not in seen:
            seen.add(v)
            loop.append(v)
            v = successor[v]
        if loop:
            loops.append(tuple(loop))
    return tuple(loops)


def euler_characteristic(mesh):
    """|V| - |E| + |F|."""
    return mesh.n_vertices - mesh.n_edges + mesh.n_faces


def dual_bfs(mesh):
    """Breadth-first spanning tree of the dual graph from face 0.

    Returns, for every face reached, in the order a first-in-first-out
    search reaches it, the halfedge through which it is entered: face
    ``h // 3``, whose parent ``twin[h] // 3`` comes before it. Face 0 comes
    first, entered across its halfedge 0. The search looks from each face
    across its halfedges ``3f``, ``3f+1``, ``3f+2`` in turn, the first
    discovery of a face winning; it is SciPy's ``breadth_first_order`` over
    the dual graph with each face's neighbours stored in that order.
    """
    n, twin = mesh.n_faces, mesh.twin
    # A boundary halfedge leads back into its own face, which is seen.
    face = np.where(twin < 0, np.arange(3 * n), twin) // 3
    graph = sp.csr_array((np.ones(3 * n), face, np.arange(0, 3 * n + 1, 3)),
                         shape=(n, n))
    order, parent = csgraph.breadth_first_order(graph, 0,
                                                return_predecessors=True)
    # Of the halfedges of a face whose twins lie in its parent, the parent's
    # search crosses the one with the smallest twin first. Face 0 has no
    # parent and is entered across its halfedge 0.
    twins = np.where(face.reshape(-1, 3) == parent[:, None],
                     twin.reshape(-1, 3), twin.size)
    return 3 * order + twins.argmin(axis=1)[order]


# ---------------------------------------------------------------------------
# OBJ I/O


def load_obj(path):
    """Load an ASCII OBJ file into a :class:`HalfedgeMesh`: the one mesh of
    :func:`load_objs` ``(path)``. A block this file shares with another OBJ
    file is read once only when both go through one :func:`load_objs`
    call."""
    return load_objs(path)[0]


def load_objs(*paths):
    """Load ASCII OBJ files into one :class:`HalfedgeMesh` each, in order.

    Only ``v``, ``vt`` and triangular ``f`` records are interpreted; other
    record types are skipped. Texture coordinates, when present on every face
    corner, are stored on the mesh as a per-vertex complex array.

    Every file is read the same way. One NumPy pass over its bytes finds
    every line start and each line's key (:func:`_records`), and each of
    ``v``, ``vt`` and ``f`` takes its lines from that table: one slice when
    they are consecutive, as :func:`save_obj` and NumPy's ``savetxt`` write
    them, a join otherwise. A kind whose rows all have one shape
    (``v x y z``, ``vt u v``, ``f a b c``, ``f a/t b/t c/t`` or
    ``f a/t/n b/t/n c/t/n``, one whitespace byte apart) has all its numbers
    converted by one ``np.loadtxt``, NumPy's C tokenizer and converter. Any
    other kind, or one with a token that reader refuses, is converted row
    by row with Python's ``float`` and ``int``, each face corner by
    ``str.partition``. A malformed record sends the reader line by line
    through the file to name the first bad line. Vertex and texture indices
    must be positive; an empty texture field (``v/``, ``v//n``) means no
    texture.

    A block is read once per call: when a file's ``v``, ``vt`` or ``f``
    lines are, byte for byte, those of a block of the same kind that an
    earlier file of the call converted, that file gets a copy of those
    arrays. The two or three OBJ files of one mesh that an analysis command
    reads share their ``v`` blocks, and a uv pair its ``f`` block. Nothing
    is kept between calls, and every check, the halfedge build among them,
    is still made per file, so each mesh is the one ``load_obj`` reads from
    its path and no two meshes share memory.

    A file that is not ASCII or holds a carriage return is first decoded as
    text mode reads it; on each line that is not ASCII, each whitespace
    character but the newline then reads as a space, so the table splits
    lines and fields where ``str.split`` does.
    """
    # (kind, block bytes) -> its arrays, for this call only; one file has
    # no other to share a block with
    blocks = {} if len(paths) > 1 else None
    meshes = []
    for i, path in enumerate(paths, start=1):
        records = _read(path, blocks)
        if i == len(paths):
            blocks = None  # no later file can use them: free before the build
        meshes.append(_mesh(path, *records))
    return meshes


def _mesh(path, verts, uvs, faces, tex):
    """The mesh of the OBJ file ``path`` from its :func:`_records`."""
    if not len(verts):
        raise ParseError(f"{path}: no vertices")
    if not len(faces):
        raise ParseError(f"{path}: no faces")
    if faces.max() >= len(verts):
        raise ParseError(f"{path}: face references vertex {faces.max() + 1} "
                         f"but only {len(verts)} vertices are defined")

    uv = None
    if len(uvs) and (tex >= 0).all():
        uv = _vertex_uv(path, faces, tex, uvs, len(verts))
    return build_mesh(faces.reshape(-1, 3), positions=verts, uv=uv)


def _read(path, blocks):
    """:func:`_records` of the OBJ file ``path``, whose bytes are let go
    before the mesh is built."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii() or b"\r" in data:
        text = _read_text(path, data)
        data = text.encode()
        if not text.isascii():
            data = _wide_spaces_read_as_spaces(data)
    try:
        return _records(data, blocks)
    except ValueError:
        lineno, message = _first_bad_line(data.decode())
        raise ParseError(f"{path}:{lineno}: {message}") from None


def _wide_spaces_read_as_spaces(data):
    """The UTF-8 text ``data`` with each whitespace character but the
    newline read as a space on the lines that hold a byte >= 0x80, found by
    one NumPy mask; the table reads the ASCII whitespace of the other lines
    itself."""
    codes = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(codes == ord("\n"))
    lines = np.unique(np.searchsorted(ends, np.flatnonzero(codes >= 0x80)))
    starts = np.r_[0, ends + 1][lines].tolist()
    stops = np.r_[ends, len(data)][lines].tolist()
    # one substitution over the wide lines, newline-joined and split back
    wide = re.sub(r"[^\S\n ]", " ", b"\n".join(
        [data[a:z] for a, z in zip(starts, stops)]).decode())
    parts, prev = [], 0
    for a, z, line in zip(starts, stops, wide.encode().split(b"\n")):
        parts += [data[prev:a], line]
        prev = z
    parts.append(data[prev:])
    return b"".join(parts)


def _read_text(path, data):
    """The file bytes ``data`` read as text mode reads the file: UTF-8, CRLF
    and CR line ends read as LF."""
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") \
                from None


# The ASCII whitespace str.split splits on. In a row's skeleton each byte of
# it but the newline, which ends the row, reads as a space.
_SPACES = b" \t\n\v\f\r\x1c\x1d\x1e\x1f"
_BLANKS = _SPACES.replace(b"\n", b"")
_ONE_SPACE = bytes.maketrans(_BLANKS, b" " * len(_BLANKS))
# ASCII bytes that str.split does not split on, and the digits.
_NOT_SPACE = bytes(set(range(128)) - set(_SPACES))
_DIGITS = b"0123456789"
# Skeletons of the ``f`` rows read in bulk, by the number of slashes in a
# row: ``a b c``, ``a/t b/t c/t`` and ``a/t/n b/t/n c/t/n``.
_FACE_SHAPES = {0: b"  ", 3: b"/ / /", 6: b"// // //"}
# Bytes that end a key at the start of a line: whitespace or the line end.
_ENDS_KEY = np.zeros(256, dtype=bool)
_ENDS_KEY[list(_SPACES)] = True
_BLANK = _ENDS_KEY.copy()
_BLANK[ord("\n")] = False
# Per coordinate kind: the fields read, the fault of a row with fewer and
# the fault of a field that is not a number.
_COORDINATES = {
    "v": (3, "vertex needs 3 coordinates", "bad vertex coordinate"),
    "vt": (2, "vt needs 2 coordinates", "bad texture coordinate"),
}


def _records(data, blocks):
    """Vertex positions, texture coordinates and per-corner vertex and
    texture ids of the OBJ bytes ``data``: ASCII, or UTF-8 whose whitespace
    is ASCII, with LF line ends. A line's key is its first bytes up to
    whitespace or the line end; lines are stripped of leading blanks first
    when some line has one. Each kind's block goes through the memo
    ``blocks`` (:func:`_converted`). Raises ValueError on a malformed
    record."""
    if not data.endswith(b"\n"):
        data += b"\n"  # a final empty line reads as no record
    starts, ends, (c0, c1, c2) = _line_table(data)
    if _BLANK[c0].any():
        data = b"\n".join([line.lstrip(_BLANKS)
                           for line in data.split(b"\n")])
        starts, ends, (c0, c1, c2) = _line_table(data)
    one_letter = _ENDS_KEY[c1]
    v, vt, f = (np.flatnonzero(lines) for lines in (
        (c0 == ord("v")) & one_letter,
        (c0 == ord("v")) & (c1 == ord("t")) & _ENDS_KEY[c2],
        (c0 == ord("f")) & one_letter))
    # Each kind's lines are copied out of the file only while converted,
    # or while the memo keeps them for a later file.
    (verts,) = _converted(blocks, "v", _lines(data, starts, ends, v), v.size)
    (uvs,) = _converted(blocks, "vt", _lines(data, starts, ends, vt), vt.size)
    faces, tex = _converted(blocks, "f", _lines(data, starts, ends, f), f.size)
    return verts, uvs.view(np.complex128).ravel(), faces, tex


def _converted(blocks, kind, block, n):
    """The arrays of the ``n`` ``kind`` rows joined in ``block``: converted
    and kept in the memo ``blocks``, when there is one, the first time these
    bytes come as this kind, a copy of the kept arrays after that."""
    key = (kind, block)
    if blocks is not None and key in blocks:
        return tuple(map(np.copy, blocks[key]))
    arrays = _face_ids(block, n) if kind == "f" else (_floats(block, n, kind),)
    if blocks is not None:
        blocks[key] = arrays
    return arrays


def _line_table(data):
    """Start and end (newline) offsets of every line of ``data``, which ends
    with a newline, and the first three bytes of every line. Each of those
    is looked at only after the key letters before it, so a short line's
    newline ends its key before a byte past it is read."""
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.r_[0, ends[:-1] + 1]
    return starts, ends, [buf.take(starts + i, mode="clip") for i in range(3)]


def _lines(data, starts, ends, rows):
    """Lines ``rows`` of ``data`` joined by newlines: one slice when they
    are consecutive, otherwise :func:`_join_lines`."""
    if not rows.size:
        return b""
    if rows[-1] - rows[0] == rows.size - 1:
        return data[starts[rows[0]]:ends[rows[-1]]]
    return _join_lines(data, starts[rows], ends[rows])


def _join_lines(data, starts, ends):
    """The lines of ``data`` from ``starts`` to ``ends``, joined by
    newlines."""
    return b"\n".join(map(data.__getitem__,
                          map(slice, starts.tolist(), ends.tolist())))


def _all_rows_are(block, n, shape, drop):
    """Whether ``block``, ``n`` rows joined by newlines, has every row read
    one whitespace byte and ``shape`` once the ``drop`` bytes, the key's
    among them, are removed and each other whitespace byte is read as a
    space."""
    return (block.translate(_ONE_SPACE, drop)
            == ((b" " + shape + b"\n") * n)[:-1])


def _table(block, n, dtype, width):
    """The ``width`` fields after the key of each of the ``n`` rows of
    ``block`` as an ``(n, width)`` array read by NumPy's C text reader, or
    None when it reads another shape or refuses a token. On the tokens it
    takes it agrees with Python's ``float`` and ``int`` bit for bit; it
    refuses some they take (``1_0``, integers past int64), which the caller
    then converts row by row. It splits on the ASCII whitespace
    ``str.split`` splits on, so rows of one skeleton (:func:`_all_rows_are`)
    that it reads have the fields ``str.split`` gives."""
    if not n:
        return np.empty((0, width), dtype)
    try:
        values = np.loadtxt(io.BytesIO(block), dtype, comments=None, ndmin=2,
                            usecols=range(1, width + 1))
    except ValueError:
        return None
    return values if values.shape == (n, width) else None


def _floats(block, n, key):
    """The coordinates of the ``n`` ``key`` rows joined in ``block`` as an
    ``(n, count)`` array: read in bulk when every row holds ``count``
    numbers one whitespace byte apart, otherwise row by row."""
    count, short, bad = _COORDINATES[key]
    if _all_rows_are(block, n, b" " * (count - 1), _NOT_SPACE):
        values = _table(block, n, np.float64, count)
        if values is not None:
            return values
    return _float_rows(block.decode().split("\n"), count, short, bad)


def _float_rows(lines, count, short, bad):
    """:func:`_floats` row by row, by ``str.split`` and Python's ``float``:
    the ``count`` fields after the key of every line."""
    rows = list(map(str.split, lines))
    if rows and min(map(len, rows)) <= count:
        raise ValueError(short)
    fields = list(chain.from_iterable(map(itemgetter(slice(1, count + 1)),
                                          rows)))
    try:
        values = np.fromiter(map(float, fields), np.float64, len(fields))
    except ValueError:
        raise ValueError(bad) from None
    return values.reshape(-1, count)


def _face_ids(block, n):
    """0-based vertex and texture ids (-1 when absent) of the corners of
    the ``n`` ``f`` rows joined in ``block``: read in bulk when they are all
    ``a b c``, all ``a/t b/t c/t`` or all ``a/t/n b/t/n c/t/n`` (ASCII
    digits, one whitespace byte apart), as the first row's slashes say, with
    ``/`` read as a space; otherwise corner by corner."""
    shape = _FACE_SHAPES.get(block.partition(b"\n")[0].count(b"/"))
    if shape is not None and _all_rows_are(block, n, shape, b"f" + _DIGITS):
        ids = _table(block.replace(b"/", b" "), n, np.int64, len(shape) + 1)
        if ids is not None:
            # One row per corner: the vertex id, then any texture and normal
            # ids.
            ids = ids.reshape(-1, (len(shape) + 1) // 3)
            if ids.shape[1] == 1:
                return _one_based(ids[:, 0], "face"), np.full(len(ids), -1)
            return (_one_based(ids[:, 0], "face"),
                    _one_based(ids[:, 1], "texture"))
    return _corners(_face_refs(block.decode().split("\n")))


def _face_refs(lines):
    """The three corner references of every ``f`` line, flattened."""
    refs = list(map(str.split, lines))
    if refs and set(map(len, refs)) != {4}:
        raise ValueError("only triangular faces are supported")
    return list(chain.from_iterable(map(itemgetter(slice(1, 4)), refs)))


def _corners(refs):
    """0-based vertex and texture ids (-1 when absent) of the face corner
    references ``v``, ``v/t``, ``v//n`` or ``v/t/n``."""
    tails = None
    try:
        if "/" in "".join(refs):
            parts = list(map(methodcaller("partition", "/"), refs))
            tails = list(map(itemgetter(2), parts))
            if "/" in "".join(tails):
                tails = [t.partition("/")[0] for t in tails]
            refs = list(map(itemgetter(0), parts))
            ti = _ints([t or "1" for t in tails])
        vi = _ints(refs)
    except (ValueError, OverflowError):
        raise ValueError("bad face index") from None
    vi = _one_based(vi, "face")
    if tails is None:
        return vi, np.full(len(vi), -1)
    # An empty texture field (``v/``, ``v//n``) is no texture.
    given = np.fromiter(map(bool, tails), bool, len(tails))
    return vi, np.where(given, _one_based(ti, "texture"), -1)


def _one_based(ids, kind):
    """The 1-based OBJ ``ids`` less one; raises ValueError when one is
    below 1 (OBJ's relative negative ids are not supported)."""
    if (ids < 1).any():
        raise ValueError(f"{kind} index must be >= 1")
    return ids - 1


def _ints(strings):
    return np.fromiter(map(int, strings), np.int64, len(strings))


def _first_bad_line(text):
    """(lineno, fault) of the first line of ``text`` that fails to convert.
    Face corners are converted one at a time, so a line with several faults
    reports the first."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        key = line.split(maxsplit=1)[:1]
        try:
            if key == ["f"]:
                for ref in _face_refs([line]):
                    _corners([ref])
            elif key and key[0] in _COORDINATES:
                _float_rows([line], *_COORDINATES[key[0]])
        except ValueError as exc:
            return lineno, str(exc)


def _vertex_uv(path, vi, ti, uvs, nv):
    """Per-vertex uv from per-corner texture ids, or None when some vertex
    has none. Raises when a corner's id is out of range or a vertex gets two
    distinct values; the error names the first such corner in file order."""
    out_of_range = np.nonzero(ti >= len(uvs))[0]
    end = out_of_range[0] if out_of_range.size else len(ti)
    # Corners before the first bad id, grouped by vertex in file order; a
    # clash is a value that differs from a set (non-NaN) value before it, a
    # NaN v matching a NaN v.
    order = np.argsort(vi[:end], kind="stable")
    v = vi[order]
    val = uvs[ti[order]]
    same = v[1:] == v[:-1]
    clash = same & ~np.isnan(val[:-1].real) & (val[:-1] != val[1:])
    k = np.flatnonzero(clash)
    clash[k] = ((val[k].real != val[k + 1].real)
                | ~(np.isnan(val[k].imag) & np.isnan(val[k + 1].imag)))
    if clash.any():
        corner = order[1:][clash].min()
        raise ParseError(
            f"{path}: vertex {vi[corner] + 1} has two distinct texture "
            "coordinates; per-vertex uv required")
    if out_of_range.size:
        raise ParseError(f"{path}: face references vt {ti[end] + 1} "
                         f"but only {len(uvs)} are defined")
    last = np.append(~same, True)
    uv = np.full(nv, np.nan, dtype=np.complex128)
    uv[v[last]] = val[last]
    return None if np.isnan(uv.real).any() else uv


def save_obj(mesh, path, uv=None):
    """Write a mesh (and optional parameterization) as ASCII OBJ.

    Coordinates are printed with 9 significant digits so a save/load cycle
    reproduces them bit-identically. ``uv`` may be a complex per-vertex array
    or any object with a ``coords`` attribute. When the mesh has no 3D
    positions the uv coordinates are written as the ``v`` records.

    Face corners are formatted once per vertex, not once per corner: each
    vertex gets its token (``i``, or ``i/i`` when uv is written) and the
    face block is one ``%`` over the tokens of every corner.
    """
    coords = None
    if uv is not None:
        coords = np.asarray(getattr(uv, "coords", uv), dtype=np.complex128)
        if coords.shape != (mesh.n_vertices,):
            raise ValueError("uv must assign one coordinate per vertex")
    pos = mesh.positions
    if pos is None:
        if coords is None:
            raise ValueError("mesh has no positions and no uv was given")
        pos = np.column_stack([coords.real, coords.imag,
                               np.zeros(mesh.n_vertices)])

    blocks = [_format_rows("v %.9g %.9g %.9g\n", pos)]
    tokens = list(map(str, range(1, mesh.n_vertices + 1)))
    if coords is not None:
        uv_rows = np.column_stack([coords.real, coords.imag])
        blocks.append(_format_rows("vt %.9g %.9g\n", uv_rows))
        tokens = [f"{t}/{t}" for t in tokens]
    blocks.append(_format_rows("f %s %s %s\n",
                               np.array(tokens, dtype=object)[mesh.faces]))

    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _format_rows(line_format, rows):
    """``line_format`` applied to every row of a 2-D array, in one call."""
    return (line_format * len(rows)) % tuple(rows.ravel().tolist())


# ---------------------------------------------------------------------------
# Cutting


def slice_along_edges(mesh, edge_ids):
    """Cut the mesh open along a set of interior edges.

    Every vertex incident to ``k`` cut edges is split into ``k`` copies
    (``k+1`` for boundary vertices), one per fan sector delimited by the cut
    edges. New vertices are numbered by original vertex, then by sector in
    counter-clockwise order from the vertex's first outgoing halfedge (for an
    interior vertex, the sector that starts at its first cut edge comes
    first). Returns the cut-open mesh, which keeps every corner slot.
    """
    edge_ids = np.asarray(edge_ids, dtype=np.int64).reshape(-1)
    on_boundary = mesh.edge_halfedges[edge_ids, 1] < 0
    if on_boundary.any():
        raise TopologyError(f"cannot slice along boundary edge "
                            f"{edge_ids[np.argmax(on_boundary)]}")
    cut = np.zeros(mesh.n_edges, dtype=bool)
    cut[edge_ids] = True

    # Number of cut edges met up to and including each outgoing halfedge on
    # the counter-clockwise walk around its origin.
    origin = mesh.faces.ravel()
    cut_h = cut[mesh.edge_of_halfedge]
    met = np.empty(mesh.n_halfedges, dtype=np.int64)
    count = np.zeros(mesh.n_vertices, dtype=np.int64)
    for walker, at in _fan_walk(mesh.twin, mesh.vertex_halfedge):
        count[walker] += cut_h[at]
        met[at] = count[walker]

    # A boundary fan starts a sector at its boundary halfedge and at every
    # cut edge; an interior fan at every cut edge, the halfedges before the
    # first one closing the last sector.
    boundary = mesh.boundary_vertex_mask()
    sectors = np.maximum(np.bincount(origin[cut_h], minlength=mesh.n_vertices)
                         + boundary, 1)
    sector = np.where(boundary[origin], met, (met - 1) % sectors[origin])
    corner_vertex = (np.cumsum(sectors) - sectors)[origin] + sector

    # Isolated interior cut edges would give duplicate oriented edges in the
    # cut mesh; detect early for a clear message.
    cut_ids = np.nonzero(cut)[0]
    a, b = mesh.edges[cut_ids].T
    isolated = (~boundary[a] & ~boundary[b]
                & (sectors[a] == 1) & (sectors[b] == 1))
    if isolated.any():
        raise TopologyError(
            f"cut edge {int(cut_ids[np.argmax(isolated)])} is isolated: "
            "slicing it would not open the mesh")

    positions = (None if mesh.positions is None
                 else np.repeat(mesh.positions, sectors, axis=0))
    return build_mesh(corner_vertex.reshape(-1, 3), positions=positions)


def cut_graph(mesh):
    """Interior edges that slice a connected mesh open into a disk: none for
    a disk or a sphere, one path between the two loops of an annulus, a
    graph of cycle rank ``2g`` for a closed surface of genus ``g``.

    The complement of the breadth-first dual spanning tree from face 0
    (:func:`dual_bfs`, the tree the layout develops along), pruned to its
    2-core by rounds of leaf-edge removal (the 2-core does not depend on
    their order). No boundary edge is in the tree, so the boundary loops
    anchor the pruning; they are then dropped. Returns ascending edge ids.
    """
    tree = mesh.edge_of_halfedge[dual_bfs(mesh)[1:]]
    if tree.size != mesh.n_faces - 1:
        raise TopologyError("cut graph requires a connected mesh")

    cut = np.ones(mesh.n_edges, dtype=bool)
    cut[tree] = False
    cut_ids = np.nonzero(cut)[0]
    while cut_ids.size:
        ends = mesh.edges[cut_ids]
        degree = np.bincount(ends.ravel(), minlength=mesh.n_vertices)
        leaf = (degree[ends] == 1).any(axis=1)
        if not leaf.any():
            break
        cut_ids = cut_ids[~leaf]
    return cut_ids[mesh.edge_halfedges[cut_ids, 1] >= 0]


def cut_to_disk(mesh):
    """Cut a closed connected mesh open into a topological disk along its
    :func:`cut_graph`. For a sphere (where the cut graph is empty) a
    two-edge slit inside face 0 is used instead.
    """
    if mesh.boundary_loops:
        raise TopologyError("cut_to_disk requires a closed mesh")
    try:
        cut_ids = cut_graph(mesh)
    except TopologyError:
        raise TopologyError("cut_to_disk requires a connected mesh") from None
    if not cut_ids.size:
        # Sphere: open a two-edge slit inside face 0.
        cut_ids = np.sort(mesh.edge_of_halfedge[:2])

    disk = slice_along_edges(mesh, cut_ids)
    if euler_characteristic(disk) != 1 or len(disk.boundary_loops) != 1:
        raise TopologyError(
            "internal error: cut mesh is not a disk "
            f"(chi={euler_characteristic(disk)}, "
            f"boundaries={len(disk.boundary_loops)})")
    return disk
