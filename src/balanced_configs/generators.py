"""Constructors for every configuration family, in all three geometries.

Planar families are returned as PeriodicConfig (lattice + motif), finite ones
as FinitePointSet, hyperbolic tilings as PatchConfig windows whose
patch_radius certifies completeness of the window.

A flag-driven family is one tiling with a chosen subset of its point sets,
which _select picks: the arrays of the set flags, stacked in field order and
labelled vertex, edge_midpoint, face_center or by the field's own name
(mid_ab, mid_ac, mid_bc).  The triangle group alone keeps its points in
creation order, interleaved by vertex type, and selects them with a mask.

Both hyperbolic families grow through one core, _grow, which expands tiles
nearest-frontier-first until the in-radius of the tile union reaches a
depth-proportional target, so the certified radius grows linearly with depth
regardless of the combinatorial branching of the tiling.  A family supplies
only its move across a frontier edge (a reflection, or a half-turn about the
edge's midpoint) and the order in which it pushes a tile's edges.  The core
keeps its edges in flat per-edge lists and deduplicates vertices in a
spatial-hash _PointStore as they are made; it checks midpoints in bulk with
numpy and replays them through a _PointStore only when that check fails.
It returns numpy arrays, so a cached build holds no per-point objects.
"""
from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .configs import FinitePointSet, PatchConfig, PeriodicConfig
from .errors import DegenerateDirectionError, InvalidPointError, ParameterDomainError
from .geometry import as_vec, in_open_disk, row_norms
from .hyperbolic import (
    _half_turn,
    _midpoint,
    _reflect_through,
    _segment_dist,
    euclid_radius,
    radial_dist,
)

_SQRT3 = math.sqrt(3.0)

# Fraction of the longest seed side that one unit of depth adds to the
# certified patch radius.
_DEPTH_STEP_FRACTION = 2.0 / 3.0

_DEDUP = 1e-9
_HASH_CELL = 1e-6  # spatial-hash cell; far above dedup, far below point gaps
_HASH_SCALE = 1.0 / _HASH_CELL
# A point whose offset from its cell centre stays below this (in cells) has
# every point within _DEDUP of it in its own cell; the margin of one more
# _DEDUP covers the rounding of z * _HASH_SCALE.
_HASH_INNER = 0.5 - 2.0 * _DEDUP * _HASH_SCALE


class _Flags:
    """A flags dataclass: one bool per point set, at least one of them set."""

    def __post_init__(self):
        if not any(getattr(self, name) for name in self.__dataclass_fields__):
            raise ParameterDomainError("at least one flag must be set")


@dataclass(frozen=True)
class SubsetFlags(_Flags):
    """Selects which derived point sets of a tiling to emit."""

    vertices: bool = False
    edge_midpoints: bool = False
    face_centers: bool = False


@dataclass(frozen=True)
class TriangleGroupFlags(_Flags):
    """Selects which vertex-type orbits of a reflection tiling to emit."""

    p_centers: bool = False
    q_centers: bool = False
    r_centers: bool = False


@dataclass(frozen=True)
class RotationTilingFlags(_Flags):
    """Selects which point sets of a rotation tiling to emit."""

    vertices: bool = False
    mid_ab: bool = False
    mid_ac: bool = False
    mid_bc: bool = False


def _check_depth(depth):
    if not isinstance(depth, int) or depth < 0:
        raise ParameterDomainError("depth must be a nonnegative integer")


@dataclass(frozen=True)
class TriangleGroupParams:
    p: int
    q: int
    r: int
    depth: int

    def __post_init__(self):
        for name in ("p", "q", "r"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 2:
                raise ParameterDomainError(f"{name} must be an integer >= 2")
        _check_depth(self.depth)


@dataclass(frozen=True)
class RotationTilingParams:
    alpha: float
    beta: float
    gamma: float
    m: int
    depth: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 3:
            raise ParameterDomainError("m must be an integer >= 3")
        _check_depth(self.depth)
        if not all(a > 0.0 for a in (self.alpha, self.beta, self.gamma)):  # NaN fails too
            raise ParameterDomainError("all three angles must be positive")
        if abs(self.alpha + self.beta + self.gamma - 2.0 * math.pi / self.m) > 1e-12:
            raise ParameterDomainError("angles must sum to 2*pi/m")


# the label of a point that a flag selects, where it is not the flag's name
_LABELS = {"vertices": "vertex", "edge_midpoints": "edge_midpoint", "face_centers": "face_center"}


def _select(flags, *sets):
    """The point sets that flags select, given one array of points per flag
    field in field order: the selected arrays stacked in that order, and one
    label per row."""
    chosen = [(name, pts) for name, pts in zip(flags.__dataclass_fields__, sets) if getattr(flags, name)]
    labels = []
    for name, pts in chosen:
        labels += [_LABELS.get(name, name)] * len(pts)
    return np.vstack([pts for _, pts in chosen]), tuple(labels)


# ---------------------------------------------------------------------------
# Planar families


def gen_lattice(v1, v2, flags):
    """Lattice tiling by parallelograms spanned by v1, v2.

    The motif collects, per cell: the vertex at the origin, the two edge
    midpoints v1/2 and v2/2, and the cell center (v1+v2)/2, as selected.
    """
    basis = np.array([as_vec(v1, 2), as_vec(v2, 2)])
    motif, labels = _select(flags, [(0.0, 0.0)], [(0.5, 0.0), (0.0, 0.5)], [(0.5, 0.5)])
    return PeriodicConfig(basis, motif, labels=labels)


def gen_triangular(side):
    """Vertices of the edge-to-edge equilateral triangle tiling."""
    if not (side > 0.0):
        raise ParameterDomainError("side must be positive")
    basis = np.array([[side, 0.0], [side / 2.0, side * _SQRT3 / 2.0]])
    return PeriodicConfig(basis, np.array([[0.0, 0.0]]), labels=("vertex",))


def gen_hexagonal(side, flags):
    """Regular hexagon tiling with the given side length.

    The period lattice is that of the hexagon centers; each fundamental cell
    carries 2 vertices, 3 edge midpoints, and 1 face center, and the motif
    assembles whichever of those sets are selected.
    """
    if not (side > 0.0):
        raise ParameterDomainError("side must be positive")
    s = float(side)
    basis = np.array([[_SQRT3 * s, 0.0], [_SQRT3 * s / 2.0, 1.5 * s]])
    third = 1.0 / 3.0
    motif, labels = _select(
        flags, [(third, third), (2 * third, 2 * third)], [(0.5, 0.0), (0.0, 0.5), (0.5, 0.5)], [(0.0, 0.0)]
    )
    return PeriodicConfig(basis, motif, labels=labels)


def gen_line(n, spacing):
    """n evenly spaced collinear points on the x-axis, centered at the origin."""
    if not isinstance(n, int) or n < 3:
        raise ParameterDomainError("n must be an integer >= 3")
    if not (spacing > 0.0):
        raise ParameterDomainError("spacing must be positive")
    xs = (np.arange(n) - (n - 1) / 2.0) * spacing
    pts = np.column_stack([xs, np.zeros(n)])
    return FinitePointSet("plane", pts, labels=("vertex",) * n)


# ---------------------------------------------------------------------------
# Spherical families

_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _platonic_vertices(kind):
    if kind == "tetrahedron":
        raw = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    elif kind == "cube":
        raw = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    elif kind == "octahedron":
        raw = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    elif kind == "icosahedron":
        raw = []
        for s1 in (-1, 1):
            for s2 in (-1, 1):
                raw += [(0, s1, s2 * _PHI), (s1, s2 * _PHI, 0), (s1 * _PHI, 0, s2)]
    elif kind == "dodecahedron":
        raw = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        inv = 1.0 / _PHI
        for s1 in (-1, 1):
            for s2 in (-1, 1):
                raw += [(0, s1 * inv, s2 * _PHI), (s1 * inv, s2 * _PHI, 0), (s1 * _PHI, 0, s2 * inv)]
    else:
        raise ParameterDomainError(f"unknown sphere tiling kind {kind!r}")
    pts = np.array(raw, dtype=float)
    return pts / row_norms(pts)[:, None]


_EDGE_COUNTS = {"tetrahedron": 6, "cube": 12, "octahedron": 12, "dodecahedron": 30, "icosahedron": 30}
_FACE_COUNTS = {"tetrahedron": 4, "cube": 6, "octahedron": 8, "dodecahedron": 12, "icosahedron": 20}


def _platonic_edges(verts):
    d = row_norms(verts[:, None, :] - verts[None, :, :])
    iu = np.triu_indices(len(verts), k=1)
    dmin = d[iu].min()
    pairs = [(i, j) for i, j in zip(*iu) if d[i, j] <= dmin + 1e-9]
    return pairs


# The face centres of a Platonic solid point at the vertices of its dual:
# (dual, sign, axis order) that carries _platonic_vertices(dual) onto them.
_DUALS = {
    "tetrahedron": ("tetrahedron", -1.0, [0, 1, 2]),
    "cube": ("octahedron", 1.0, [0, 1, 2]),
    "octahedron": ("cube", 1.0, [0, 1, 2]),
    "icosahedron": ("dodecahedron", 1.0, [0, 2, 1]),
    "dodecahedron": ("icosahedron", 1.0, [0, 2, 1]),
}


def _platonic_faces(kind):
    """Unit face centres, ordered by their coordinates rounded to 7 places."""
    dual, sign, axes = _DUALS[kind]
    centers = sign * _platonic_vertices(dual)[:, axes]
    keys = np.round(centers, 7)
    return centers[np.lexsort(keys.T[::-1])]


def parse_sphere_kind(kind):
    """Split a kind string into (name, n); accepts forms like "ngon(5)"."""
    kind = kind.strip()
    if kind.startswith("ngon"):
        rest = kind[4:].strip()
        if not rest:
            return "ngon", None
        if rest.startswith("(") and rest.endswith(")"):
            rest = rest[1:-1].strip()
        try:
            return "ngon", int(rest)
        except ValueError:
            raise ParameterDomainError(f"malformed ngon kind {kind!r}; expected ngon(n)")
    return kind, None


def gen_sphere(kind, flags):
    """Vertices / edge midpoints / face centers of a regular spherical tiling.

    kind is the name of one of the five Platonic solids, or "ngon(n)" for the
    tiling by two regular n-gon hemispheres glued along the equator: its
    vertices are n evenly spaced equatorial points, its edge midpoints the
    same points rotated by pi/n, and its face centers the poles.
    """
    if not isinstance(kind, str):
        raise ParameterDomainError(f"sphere tiling kind must be a string, got {kind!r}")
    name, n = parse_sphere_kind(kind)
    if name == "ngon":
        if n is None or n < 2:
            raise ParameterDomainError("ngon requires an integer vertex count n >= 2")
        angles = 2.0 * math.pi * np.arange(n) / n
        shifted = angles + math.pi / n
        pts, labels = _select(
            flags,
            np.column_stack([np.cos(angles), np.sin(angles), np.zeros(n)]),
            np.column_stack([np.cos(shifted), np.sin(shifted), np.zeros(n)]),
            np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
        )
    else:
        verts = _platonic_vertices(name)
        pairs = _platonic_edges(verts)
        if len(pairs) != _EDGE_COUNTS[name]:
            raise RuntimeError(f"edge detection for {name} found {len(pairs)} edges")
        mids = np.array([verts[i] + verts[j] for i, j in pairs])
        mids /= row_norms(mids)[:, None]
        centers = _platonic_faces(name)
        if len(centers) != _FACE_COUNTS[name]:
            raise RuntimeError(f"face detection for {name} found {len(centers)} faces")
        pts, labels = _select(flags, verts, mids, centers)
    return FinitePointSet("sphere", pts, labels=labels)


# ---------------------------------------------------------------------------
# Hyperbolic tilings


class _PointStore:
    """Interning store for disk points with spatial-hash deduplication.

    intern(z) returns (index, created): the index of the first stored point
    within _DEDUP of z, or of z itself, appended once a plain |z| < 1 admits
    it (InvalidPointError otherwise; _disk_rows applies the open-disk rule to
    every point a build emits).  Only z's own hash cell is searched
    unless z lies within _DEDUP of the cell's edge; the cell is far wider
    than _DEDUP, so the first match is the one a search of all nine
    surrounding cells finds.
    """

    __slots__ = ("pos", "grid")

    def __init__(self):
        self.pos = []
        self.grid = {}

    def intern(self, z):
        if not abs(z) < 1.0:  # NaN and infinite points fail too
            raise InvalidPointError(f"disk point must satisfy |z| < 1, got z = {z!r}")
        x = z.real * _HASH_SCALE
        y = z.imag * _HASH_SCALE
        kx = round(x)
        ky = round(y)
        pos = self.pos
        grid = self.grid
        if abs(x - kx) < _HASH_INNER and abs(y - ky) < _HASH_INNER:
            for i in grid.get((kx, ky), ()):
                if abs(pos[i] - z) <= _DEDUP:
                    return i, False
        else:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for i in grid.get((kx + dx, ky + dy), ()):
                        if abs(pos[i] - z) <= _DEDUP:
                            return i, False
        idx = len(pos)
        pos.append(z)
        grid.setdefault((kx, ky), []).append(idx)
        return idx, True


def _triangle_sides(angle_a, angle_b, angle_c):
    """Side lengths of the hyperbolic triangle with the given angles.

    Returns (a, b, c) with each side opposite the same-named angle, from the
    hyperbolic law of cosines for angles:
    cosh(side opposite C) = (cos A cos B + cos C) / (sin A sin B).
    """
    ca, cb, cc = math.cos(angle_a), math.cos(angle_b), math.cos(angle_c)
    sa, sb, sc = math.sin(angle_a), math.sin(angle_b), math.sin(angle_c)
    side_a = math.acosh(max(1.0, (cb * cc + ca) / (sb * sc)))
    side_b = math.acosh(max(1.0, (ca * cc + cb) / (sa * sc)))
    side_c = math.acosh(max(1.0, (ca * cb + cc) / (sa * sb)))
    return side_a, side_b, side_c


# The roles of the two endpoints of an edge of class k, in role order.
_ENDS = ((1, 2), (0, 2), (0, 1))


def _certified(mids):
    """Whether interning the midpoints mids one by one keeps every one of
    them: all lie in the open disk and no two are within 2 * _DEDUP.  The
    margin of one more _DEDUP keeps the verdict off the store's own
    threshold.  A pair within 2 * _DEDUP is within it along x too, so with
    the points sorted by x each is compared with the next, the one after,
    and so on, until the gap along x exceeds the margin."""
    z = np.asarray(mids, dtype=complex)
    if not in_open_disk(z).all():
        return False
    z = z[np.argsort(z.real)]
    x = z.real
    i = np.arange(len(z) - 1)
    s = 1
    while i.size:
        i = i[x[i + s] - x[i] <= 2.0 * _DEDUP]
        if (np.abs(z[i + s] - z[i]) <= 2.0 * _DEDUP).any():
            return False
        s += 1
        i = i[i + s < len(z)]
    return True


def _intern_midpoints(mids, classes):
    """The midpoints, as a complex array, and their classes, as a list, that
    interning mids one by one in a _PointStore keeps.  When _certified
    vouches for all of them they are the input; otherwise the store replays
    them, raising InvalidPointError for a point off the disk and
    RuntimeError for two midpoints of different classes within _DEDUP of
    each other, and dropping a repeat of the same class."""
    z = np.array(mids, dtype=complex)
    if _certified(z):
        return z, classes
    store = _PointStore()
    kept = []
    for w, k in zip(mids, classes):
        i, created = store.intern(w)
        if created:
            kept.append(k)
        elif kept[i] != k:
            raise RuntimeError("edge-midpoint class collision in hyperbolic tiling")
    return np.array(store.pos, dtype=complex), kept


def _grow(angles, depth, turn, swap, order):
    """Tile the disk by the triangle with the given angles, crossing the open
    edge nearest the origin first, until that edge is depth * 2/3 * (longest
    side) away; its distance, patch_radius, is the in-radius of the tiles.

    A tile is its vertex indices in role order (the vertices of angles[0],
    angles[1], angles[2]); the seed has role 0 at the origin and role 1 on
    the positive x-axis.  An edge's class is the role opposite it; the edge
    keeps its first tile and its midpoint, between its ends in role order.
    Crossing edge (u, v), u < v, turn(pos[u], pos[v], mid, z) moves the
    opposite vertex z, which keeps its role; swap says the move exchanges the
    roles of u and v.  order(tile, edge) lists the classes of a tile's edges
    in push order (edge is the crossed edge, None for the seed), which breaks
    distance ties.  Returns (vertices, roles, midpoints, midpoint classes,
    patch_radius), roles[i] being vertex i's role in the tile that made it:
    the points as complex arrays and the roles and classes as int8 arrays,
    all read-only, so that no per-point Python object outlives the build.

    Edges live in a table indexed by the order they were pushed, which also
    breaks heap ties; an edge is found by the integer key (u << 32) | v of
    its ends u < v.  Tiles need no table of their own: every edge of every
    tile is in the edge table, and an edge stays open only while one tile
    holds it, so the tile across an open edge can already exist only as that
    edge's own tile, when the move gives back its opposite vertex; it must
    then come back in the same roles.  Midpoints are checked in bulk
    by _intern_midpoints whenever the edge count has doubled since the last
    check, before any other growth error is raised, and at the end, so a
    midpoint fault stops the growth within twice the work that reached it.
    """
    sides = _triangle_sides(*angles)
    stop = depth * _DEPTH_STEP_FRACTION * max(sides)

    store = _PointStore()
    for z in (0j, complex(euclid_radius(sides[2]), 0.0), euclid_radius(sides[1]) * cmath.exp(1j * angles[0])):
        store.intern(z)
    pos = store.pos
    rad = [radial_dist(abs(z)) for z in pos]  # distance of each vertex from the origin
    roles = [0, 1, 2]

    # the edge table: edge index by the key of its ends; then per edge its
    # ends, first tile, class, midpoint, and whether it is still open
    edge_at = {}
    eu, ev, etile, eclass, emid = [], [], [], [], []
    is_open = bytearray()
    heap = []

    def push(tile, classes):
        for k in classes:
            i, j = _ENDS[k]
            a, b = tile[i], tile[j]
            u, v = (a, b) if a < b else (b, a)
            ek = (u << 32) | v
            e = edge_at.get(ek)
            if e is not None:
                if eclass[e] != k:
                    raise RuntimeError("inconsistent edge class in hyperbolic tiling")
                is_open[e] = 0
                continue
            e = len(emid)
            edge_at[ek] = e
            emid.append(_midpoint(pos[a], pos[b]))
            eu.append(u)
            ev.append(v)
            etile.append(tile)
            eclass.append(k)
            is_open.append(1)
            ru, rv = rad[u], rad[v]
            heapq.heappush(heap, (_segment_dist(pos[u], pos[v], rv if rv < ru else ru), e))

    patch_radius = 0.0
    checked = 0  # the midpoints that the last check covered
    try:
        push((0, 1, 2), order((0, 1, 2), None))
        while heap:
            dist, e = heapq.heappop(heap)
            if not is_open[e]:
                continue
            if dist >= stop:
                patch_radius = dist
                break
            is_open[e] = 0
            tile = etile[e]
            k = eclass[e]
            u = eu[e]
            v = ev[e]
            nidx, created = store.intern(turn(pos[u], pos[v], emid[e], pos[tile[k]]))
            if created:
                rad.append(radial_dist(abs(pos[nidx])))
                roles.append(k)
            new_tile = list(tile)
            new_tile[k] = nidx
            if swap:
                i, j = _ENDS[k]
                new_tile[i], new_tile[j] = tile[j], tile[i]
            new_tile = tuple(new_tile)
            if nidx == tile[k]:  # the tile across e is e's own tile
                if new_tile != tile:
                    raise RuntimeError("inconsistent tile roles in hyperbolic tiling")
                continue
            push(new_tile, order(new_tile, (u, v)))
            if len(emid) >= 2 * checked:
                checked = len(emid)
                _intern_midpoints(emid, eclass)
    except Exception as exc:
        if len(emid) > checked:  # a midpoint fault made before exc is the one to raise
            _intern_midpoints(emid, eclass)
        if isinstance(exc, DegenerateDirectionError):
            raise ParameterDomainError(
                f"depth {depth} reaches tiles too close to the disk boundary to resolve: {exc}"
            ) from exc
        raise
    del edge_at, etile, heap  # free the tables before the arrays are made
    mids, mid_classes = _intern_midpoints(emid, eclass)
    out = np.array(pos, dtype=complex), np.array(roles, np.int8), mids, np.array(mid_classes, np.int8)
    for a in out:
        a.flags.writeable = False
    return (*out, patch_radius)


def _reflect_move(a, b, mid, z):
    return _reflect_through(a, b, z)


def _half_turn_move(a, b, mid, z):
    return _half_turn(mid, z)


def _reflection_order(tile, edge):
    """The seed's edges opposite p, q, r; then the edge through the crossed
    edge's first end before the one through its second."""
    if edge is None:
        return (0, 1, 2)
    u, v = edge
    return (tile.index(v), tile.index(u))


def _rotation_order(tile, edge):
    return (2, 1, 0)  # ab, ac, bc


@lru_cache(maxsize=None)
def _build_triangle_group(p, q, r, depth):
    # a reflection keeps every vertex's role, so a vertex's role is its type
    return _grow((math.pi / p, math.pi / q, math.pi / r), depth, _reflect_move, False, _reflection_order)


@lru_cache(maxsize=None)
def _build_rotation_tiling(alpha, beta, gamma, m, depth):
    # a half-turn about an edge's midpoint swaps the edge's endpoints
    return _grow((alpha, beta, gamma), depth, _half_turn_move, True, _rotation_order)


def _disk_rows(z, selected):
    """(x, y) rows of the selected points of the complex array z that lie in
    the open disk, in order, and the mask that picked them."""
    keep = selected & in_open_disk(z)
    return np.column_stack([z.real[keep], z.imag[keep]]), keep


def gen_hyp_triangle_group(params, flags):
    """Vertex-type orbits of the reflection tiling by triangles with angles
    pi/p, pi/q, pi/r.

    The seed triangle sits with its p-vertex at the disk origin and the edge
    to its q-vertex along the positive x-axis.  Tiles are grown by reflecting
    across frontier edges, always expanding the edge nearest the origin, until
    every frontier edge is at least depth * 2/3 * (longest side) away.  The
    returned patch_radius is the in-radius of the generated tile union: every
    tiling point of a selected type within that distance of the origin is
    present.  Points beyond patch_radius are genuine tiling points but carry
    no completeness guarantee.
    """
    p, q, r = params.p, params.q, params.r
    if q * r + p * r + p * q >= p * q * r:  # 1/p + 1/q + 1/r >= 1, in exact integers
        raise ParameterDomainError(
            "triangle group requires 1/p + 1/q + 1/r < 1; "
            f"got ({p}, {q}, {r})"
        )
    verts, roles, _, _, patch_radius = _build_triangle_group(p, q, r, params.depth)
    wanted = np.array([flags.p_centers, flags.q_centers, flags.r_centers])
    pts, keep = _disk_rows(verts, wanted[roles])
    labels = tuple(("p_center", "q_center", "r_center")[k] for k in roles[keep].tolist())
    return PatchConfig(pts, patch_radius, labels=labels)


def gen_hyp_rotation_tiling(params, flags):
    """Point sets of the tiling generated by half-turns about edge midpoints.

    The seed triangle has angles alpha, beta, gamma summing to 2*pi/m, with
    the alpha-vertex at the origin; around every vertex of the tiling the
    angles follow the pattern alpha, beta, gamma repeated m times.  Expansion
    and the patch_radius guarantee are those of the reflection tilings: both
    grow through _grow.  mid_xy selects the midpoints of edges joining the
    x-angle and y-angle vertices of each tile.
    """
    verts, _, mids, mid_classes, patch_radius = _build_rotation_tiling(
        params.alpha, params.beta, params.gamma, params.m, params.depth
    )
    # an edge's class is the role of the vertex opposite it: ab is class 2
    pts, labels = _select(
        flags, _disk_rows(verts, True)[0], *(_disk_rows(mids, mid_classes == k)[0] for k in (2, 1, 0))
    )
    return PatchConfig(pts, patch_radius, labels=labels)
