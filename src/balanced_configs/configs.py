"""Point configuration containers and exact lattice/point-set queries.

Three containers cover every surface handled by the package:

* ``PeriodicConfig``  - a rank-2 planar lattice with a finite motif given in
  fractional coordinates of the basis,
* ``FinitePointSet``  - an explicit finite set tagged with its space
  ("plane", "sphere" or "disk"),
* ``PatchConfig``     - a finite window of an infinite hyperbolic tiling
  together with the radius up to which the window is certified complete.

All containers are treated as immutable after construction.

Every neighbour query goes through one kernel, ``_neighbors``, which takes
an array of base points and returns flat (owner, point, distance) arrays,
and one clusterer, ``_cluster``, which splits them into distance classes.
Periodic input is enumerated from lattice translates; finite sets and
patches query a polar index (``_PolarIndex``: radial bands sorted by angle)
cached on the container, filtered by the container's metric
(``hyperbolic._dist`` on the disk).  Everything here is numpy only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hyperbolic
from .errors import AmbiguousClassError, InvalidPointError, NoPairsError
from .geometry import DEFAULT_TOL, Tolerance, as_vec

_SPACES = ("plane", "sphere", "disk")


@dataclass(eq=False)
class PeriodicConfig:
    """Lattice basis (rows v1, v2) plus motif points in fractional coordinates."""

    basis: np.ndarray
    motif: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        if self.basis.shape != (2, 2) or not np.all(np.isfinite(self.basis)):
            raise InvalidPointError("basis must be a finite 2x2 matrix with rows v1, v2")
        scale2 = max(float(np.sum(self.basis[0] ** 2)), float(np.sum(self.basis[1] ** 2)))
        if scale2 == 0.0 or abs(np.linalg.det(self.basis)) <= 1e-12 * scale2:
            raise InvalidPointError("basis vectors must be linearly independent")
        motif = np.asarray(self.motif, dtype=float)
        if motif.ndim != 2 or motif.shape[1] != 2 or motif.shape[0] == 0:
            raise InvalidPointError("motif must be a nonempty (k, 2) array")
        if not np.all(np.isfinite(motif)):
            raise InvalidPointError("motif coordinates must be finite")
        motif = np.mod(motif, 1.0)
        motif[motif >= 1.0] -= 1.0  # np.mod rounds tiny negatives up to exactly 1.0
        self.motif = motif
        if self.labels is not None:
            self.labels = tuple(self.labels)
            if len(self.labels) != len(self.motif):
                raise InvalidPointError("labels must align with the motif")
        self._check_motif_distinct()

    def _check_motif_distinct(self, tol=DEFAULT_TOL):
        cart = self.cartesian_motif()
        k = np.arange(len(cart))
        i, j = np.nonzero(k[:, None] < k)
        d = np.linalg.norm((cart[j] - cart[i])[:, None, :] + _shift_grid() @ self.basis, axis=2)
        if np.any(d <= tol.dedup_tol):
            raise InvalidPointError("motif points must be pairwise distinct modulo the lattice")

    @property
    def k(self):
        return len(self.motif)

    def cartesian_motif(self):
        return self.motif @ self.basis

    def transformed(self, rotation=0.0, translation=(0.0, 0.0), scale=1.0):
        """Apply a direct similarity (rotation, then scaling, then translation)."""
        if scale <= 0.0:
            raise ValueError("scale must be positive")
        ca, sa = math.cos(rotation), math.sin(rotation)
        rot = np.array([[ca, sa], [-sa, ca]])  # row-vector convention
        new_basis = scale * (self.basis @ rot)
        cart = scale * (self.cartesian_motif() @ rot) + as_vec(translation, 2)
        new_motif = cart @ np.linalg.inv(new_basis)
        return PeriodicConfig(new_basis, new_motif, labels=self.labels)

    def supercell(self, na, nb):
        """Replicate the motif over an na x nb block of cells."""
        if na < 1 or nb < 1:
            raise ValueError("supercell factors must be >= 1")
        new_basis = np.array([self.basis[0] * na, self.basis[1] * nb])
        pieces = []
        labels = []
        for i in range(na):
            for j in range(nb):
                pieces.append((self.motif + np.array([i, j])) / np.array([na, nb]))
                if self.labels is not None:
                    labels.extend(self.labels)
        return PeriodicConfig(
            new_basis,
            np.vstack(pieces),
            labels=tuple(labels) if self.labels is not None else None,
        )


@dataclass(eq=False)
class FinitePointSet:
    """An explicit finite configuration in one of the three spaces."""

    space: str
    points: np.ndarray
    labels: tuple | None = None
    _index: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.space not in _SPACES:
            raise InvalidPointError(f"space must be one of {_SPACES}, got {self.space!r}")
        dim = 3 if self.space == "sphere" else 2
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != dim:
            raise InvalidPointError(f"points must be an (n, {dim}) array for space {self.space!r}")
        if not np.all(np.isfinite(pts)):
            raise InvalidPointError("point coordinates must be finite")
        if self.space == "sphere":
            norms = np.linalg.norm(pts, axis=1)
            bad = np.nonzero(np.abs(norms - 1.0) > 1e-9)[0]
            if len(bad):
                raise InvalidPointError(f"sphere points must have unit norm (first offender: index {bad[0]})")
        if self.space == "disk":
            r = np.linalg.norm(pts, axis=1)
            bad = np.nonzero(r >= 1.0)[0]
            if len(bad):
                raise InvalidPointError(f"disk points must satisfy |z| < 1 (first offender: index {bad[0]})")
        self.points = pts
        if self.labels is not None:
            self.labels = tuple(self.labels)
            if len(self.labels) != len(pts):
                raise InvalidPointError("labels must align with the points")

    @property
    def n(self):
        return len(self.points)


@dataclass(eq=False)
class PatchConfig:
    """A hyperbolic tiling window, complete out to hyp distance patch_radius."""

    points: np.ndarray
    patch_radius: float
    labels: tuple | None = None
    _index: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(pts)):
            raise InvalidPointError("point coordinates must be finite")
        if len(pts) and np.any(np.linalg.norm(pts, axis=1) >= 1.0):
            raise InvalidPointError("patch points must lie in the open unit disk")
        if not (math.isfinite(self.patch_radius) and self.patch_radius >= 0.0):
            raise InvalidPointError("patch_radius must be a nonnegative finite number")
        self.points = pts
        if self.labels is not None:
            self.labels = tuple(self.labels)
            if len(self.labels) != len(pts):
                raise InvalidPointError("labels must align with the points")

    @property
    def n(self):
        return len(self.points)

    def center_dists(self):
        return hyperbolic._dist(0j, _as_complex(self.points))

    def verifiable_radius(self, p):
        """Radius around p (hyperbolic) within which the patch is certified complete."""
        d = hyperbolic.hyp_dist(0j, complex(p[0], p[1]))
        return max(self.patch_radius - d, 0.0)


@dataclass(frozen=True)
class DistanceClass:
    """One cluster of equal (within tolerance) distances from a base point."""

    distance: float
    points: np.ndarray

    @property
    def size(self):
        return len(self.points)


def _shift_grid():
    return np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)


def _lagrange_reduce(basis):
    """Shortest-vector basis of a 2d lattice (|v1| <= |v2|, |v1.v2| <= |v1|^2 / 2)."""
    v1 = basis[0].astype(float).copy()
    v2 = basis[1].astype(float).copy()
    if v1 @ v1 > v2 @ v2:
        v1, v2 = v2, v1
    while True:
        mu = round(float(v1 @ v2) / float(v1 @ v1))
        v2 = v2 - mu * v1
        if v2 @ v2 >= v1 @ v1:
            break
        v1, v2 = v2, v1
    if v1 @ v2 < 0:
        v2 = -v2
    return np.array([v1, v2])


def canonical_basis(c):
    """Equivalent PeriodicConfig over the Lagrange-reduced basis.

    The reduced basis satisfies |v1| <= |v2| and 0 <= v1.v2 <= |v1|^2 / 2, so
    the angle between the vectors lies in [60, 90] degrees.
    """
    red = _lagrange_reduce(c.basis)
    cart = c.cartesian_motif()
    frac = cart @ np.linalg.inv(red)
    return PeriodicConfig(red, np.mod(frac, 1.0), labels=c.labels)


def _dim(c):
    """Coordinate dimension of the configuration's points."""
    if isinstance(c, PeriodicConfig):
        return 2
    if isinstance(c, (FinitePointSet, PatchConfig)):
        return c.points.shape[1]
    raise TypeError(f"unsupported configuration type {type(c)!r}")


def _space(c):
    return "disk" if isinstance(c, PatchConfig) else c.space


# a band's composite sort key is angle + _BAND_STRIDE * band: angles lie in
# [-pi, pi], so the keys of one band never reach those of the next
_BAND_STRIDE = 8.0


def _ranges(starts, counts):
    """Concatenated ranges [start, start + count) for each pair."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


class _PolarIndex:
    """Neighbour index over the points of a finite set or patch.

    The points live in a planar chart: the disk itself, the xy-plane under
    which the sphere projects (projection only shortens distances), or the
    plane centred on the set's centroid.  The chart points are split by
    radius into bands, and each band is sorted by angle, so a chart ball
    meets each band in one angle interval (two across the seam at +-pi),
    found by binary search.  The bands come from the points alone: each is
    about as thick as the spacing of its points, so a small ball crosses few
    of them whether the points fill the chart evenly (about sqrt(n) bands)
    or crowd against the disk's boundary.  ``points`` holds the points in
    coordinate order; ``order`` lists them band by band.
    """

    def __init__(self, points, space):
        self.points = points[np.lexsort(points.T[::-1])]
        n = len(self.points)
        self.origin = self.points[:, :2].mean(axis=0) if space == "plane" and n else np.zeros(2)
        q = self.points[:, :2] - self.origin
        s = np.hypot(q[:, 0], q[:, 1])
        # rounding slack of the chart coordinates, radii and angles
        self.slack = 1e-13 * (float(np.abs(self.origin).max()) + float(s.max(initial=0.0)))
        # a band holds about as many points as fit around its circle at the
        # local spacing, so that it is about one spacing thick: sqrt(2 pi s /
        # (ds / dk)), with the radius gained per point, ds / dk, taken over a
        # window of sqrt(n) points either side
        by_radius = np.argsort(s, kind="stable")
        radii = s[by_radius]
        rank = np.arange(n)
        w = math.isqrt(n)
        below, above = np.maximum(rank - w, 0), np.minimum(rank + w, n - 1)
        rise = radii[above] - radii[below]
        with np.errstate(divide="ignore", invalid="ignore"):
            per = np.where(rise > 0.0, np.sqrt(2.0 * np.pi * radii * (above - below) / rise), np.inf)
        # each point's band, counted along the radii in steps of at most 1
        begun = np.concatenate([[0.0], np.cumsum(1.0 / np.clip(per[:-1], 1.0, None))])[:n].astype(np.intp)
        band = np.empty(n, dtype=np.intp)
        band[by_radius] = begun
        first = np.flatnonzero(np.diff(begun, prepend=-1))
        self.lo = radii[first]
        self.hi = np.append(radii[first[1:] - 1], radii[-1:])
        keys = np.arctan2(q[:, 1], q[:, 0]) + _BAND_STRIDE * band
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]

    def ball(self, centres, radii):
        """Candidates (owner, index into points) for the chart balls about
        centres: a superset of the points within each radius."""
        c = centres[:, :2] - self.origin
        sc = np.hypot(c[:, 0], c[:, 1])
        tc = np.arctan2(c[:, 1], c[:, 0])
        r = radii * (1.0 + 1e-9) + self.slack + 1e-13 * sc
        first = np.searchsorted(self.hi, sc - r)
        count = np.maximum(np.searchsorted(self.lo, sc + r, side="right") - first, 0)
        q = np.repeat(np.arange(len(c)), count)
        band = _ranges(first, count)
        sc, tc, r = sc[q], tc[q], r[q]
        # the widest angle of the ball over the band's radii falls at the
        # radius of the tangent from the origin, sqrt(sc^2 - r^2), clipped;
        # at radius s that angle is 2 asin(sqrt((r^2 - (s - sc)^2) / (4 s sc)))
        low = np.maximum(self.lo[band], sc - r)
        high = np.minimum(self.hi[band], sc + r)
        s = np.clip(np.sqrt(np.maximum(sc * sc - r * r, 0.0)), low, high)
        u = s - sc
        num, den = (r - u) * (r + u), 4.0 * s * sc
        with np.errstate(invalid="ignore"):  # den = 0: a ball about the chart origin
            half = np.where(den > 0.0, 2.0 * np.arcsin(np.sqrt(np.clip(num, 0.0, den) / den)), np.pi)
        half = half * (1.0 + 1e-9) + 1e-12  # rounding slack of the angles
        off = _BAND_STRIDE * band
        full = half >= np.pi
        a = np.where(full, -np.pi, tc - half)
        b = np.where(full, np.pi, tc + half)
        start = np.searchsorted(self.keys, off + np.maximum(a, -np.pi))
        stop = np.searchsorted(self.keys, off + np.minimum(b, np.pi), side="right")
        # the part of an interval past the seam, on the far side of the band
        wrap = np.flatnonzero((a < -np.pi) | (b > np.pi))
        aw, bw, offw = a[wrap], b[wrap], off[wrap]
        wrap_start = np.searchsorted(self.keys, offw + np.where(aw < -np.pi, aw + 2.0 * np.pi, -np.pi))
        wrap_stop = np.searchsorted(self.keys, offw + np.where(bw > np.pi, bw - 2.0 * np.pi, np.pi), "right")
        wrap_start = np.maximum(wrap_start, np.where(aw < -np.pi, stop[wrap], 0))
        wrap_stop = np.minimum(wrap_stop, np.where(bw > np.pi, start[wrap], len(self.keys)))
        starts = np.concatenate([start, wrap_start])
        counts = np.maximum(np.concatenate([stop, wrap_stop]) - starts, 0)
        owner = np.repeat(np.concatenate([q, q[wrap]]), counts)
        return owner, self.order[_ranges(starts, counts)]


def _index(c):
    """The neighbour index of a finite set or patch, built on first use and
    kept on the container (containers are immutable)."""
    if c._index is None:
        c._index = _PolarIndex(c.points, _space(c))
    return c._index


def _as_complex(xy):
    """Rows (x, y) as complex numbers x + iy: a view when xy is contiguous."""
    return np.ascontiguousarray(xy, dtype=float).view(np.complex128)[..., 0]


def _pair_dists(space, a, b):
    """Distance from each row of a to the matching row of b (broadcast): the
    hyperbolic distance on the disk, the Euclidean (on the sphere chordal)
    distance otherwise."""
    if space == "disk":
        return hyperbolic._dist(_as_complex(a), _as_complex(b))
    return np.linalg.norm(b - a, axis=-1)


# elements per chunk on the periodic path (candidate translates of a block of
# bases, or motif translates of a block of probes), bounding memory
_LATTICE_CHUNK = 1 << 13


def _neighbors(c, bases, reach, dedup_tol):
    """The neighbour kernel: every configuration point p with
    dedup_tol < d(base, p) <= reach, for each row of bases.

    Returns flat arrays (owner, points, dists), where owner indexes bases,
    sorted by owner, then distance, then coordinates.  Periodic input scans
    the lattice translates of the motif that can reach each base; finite sets
    and patches query the container's polar index with a chart ball that
    contains the metric ball, padded for rounding, and filter the candidates
    by the metric itself.  The chart ball is the ball itself on the plane,
    the chordal ball's projection onto the xy-plane on the sphere, and on the
    disk the exact Euclidean image of the hyperbolic ball of radius R about
    b: centre b(1 - t^2)/(1 - |b|^2 t^2), radius t(1 - |b|^2)/(1 - |b|^2 t^2),
    t = tanh(R/2).
    """
    bases = np.asarray(bases, dtype=float).reshape(-1, _dim(c))
    if isinstance(c, PeriodicConfig):
        inv = np.linalg.inv(c.basis)
        # a translate n with |m + n B - base| <= reach has n within span of
        # the fractional coordinates of base - m
        span = reach * np.linalg.norm(inv, axis=0) + 1.0
        steps = np.stack(
            np.meshgrid(np.arange(int(2 * span[0]) + 1), np.arange(int(2 * span[1]) + 1), indexing="ij"), -1
        ).reshape(-1, 2)
        motif = c.cartesian_motif()
        chunk = max(1, _LATTICE_CHUNK // (len(motif) * len(steps)))
        found = [(np.zeros(0, dtype=np.intp), np.zeros((0, 2)), np.zeros(0))]
        for s in range(0, len(bases), chunk):
            block = bases[s : s + chunk]
            delta = motif[None, :, :] - block[:, None, :]
            lo = np.ceil(-delta @ inv - span)
            vec = delta[:, :, None, :] + (lo[:, :, None, :] + steps) @ c.basis
            d = np.linalg.norm(vec, axis=-1)
            hit = np.nonzero((d <= reach) & (d > dedup_tol))
            found.append((s + hit[0], block[hit[0]] + vec[hit], d[hit]))
        owner, pts, d = (np.concatenate(parts) for parts in zip(*found))
        order = np.lexsort((pts[:, 1], pts[:, 0], d, owner))
        return owner[order], pts[order], d[order]
    space = _space(c)
    if space == "disk":
        t = math.tanh(reach / 2.0)
        b2 = np.sum(bases * bases, axis=1)
        den = 1.0 - b2 * (t * t)
        centres = bases * ((1.0 - t * t) / den)[:, None]
        # rounding in b and t moves the image by up to about eps / den
        radii = (t * (1.0 - b2) + 4e-15) / den
    else:
        centres, radii = bases, np.full(len(bases), reach)
    index = _index(c)
    owner, idx = index.ball(centres, radii)
    d = _pair_dists(space, bases[owner], index.points[idx])
    keep = np.flatnonzero((d <= reach) & (d > dedup_tol))
    owner, idx, d = owner[keep], idx[keep], d[keep]
    # index.points is in coordinate order, so idx breaks distance ties
    order = np.lexsort((idx, d, owner))
    return owner[order], index.points[idx[order]], d[order]


def _row_dots(a, b):
    """Dot product of each row of a with the matching row of b (broadcast).

    Each row is one stacked 1-D matmul, the dot product that a[i] @ b[i] and
    np.linalg.norm take, so results are bit-identical to a per-row loop; a
    row sum of a * b may round differently.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _cluster(owner, dists, class_tol):
    """The clusterer: distance classes of kernel output sorted by owner, then
    distance.

    A class starts at each owner's first neighbour and at every gap wider than
    class_tol between consecutive distances.  Returns the class starts (into
    the kernel arrays), sizes and mean distances.  Two classes of one owner
    whose means lie within 2 * class_tol cannot be separated reliably and
    raise AmbiguousClassError, at the first such pair, rather than merge.
    """
    new_class = np.ones(len(dists), dtype=bool)
    new_class[1:] = (owner[1:] != owner[:-1]) | (np.diff(dists) > class_tol)
    starts = np.flatnonzero(new_class)
    sizes = np.diff(np.append(starts, len(dists)))
    means = np.add.reduceat(dists, starts) / sizes
    class_owner = owner[starts]
    too_close = (class_owner[1:] == class_owner[:-1]) & (np.diff(means) <= 2.0 * class_tol)
    if too_close.any():
        k = int(np.flatnonzero(too_close)[0])
        raise AmbiguousClassError(
            f"distance classes at {float(means[k])!r} and {float(means[k + 1])!r} are too close to separate"
        )
    return starts, sizes, means


def _closest_pair(c):
    """Distance and the two points of a closest pair of a finite set or patch.

    The distance between consecutive points, in coordinate order and in the
    index's band order, bounds the minimum from above; one kernel query at
    that bound then finds the closest pair in the container's own metric.
    """
    index = _index(c)
    pts, space = index.points, _space(c)
    # consecutive points in coordinate order include every exact duplicate;
    # with consecutive points in index order they bound the minimum
    step = _pair_dists(space, pts[:-1], pts[1:])
    i = int(np.argmin(step))
    if step[i] == 0.0:
        return 0.0, pts[i], pts[i + 1]
    band_step = _pair_dists(space, pts[index.order[:-1]], pts[index.order[1:]])
    owner, nbrs, d = _neighbors(c, pts, float(min(step[i], band_step.min())), 0.0)
    k = int(np.argmin(d))
    return float(d[k]), pts[owner[k]], nbrs[k]


def min_distance(c, tol=DEFAULT_TOL):
    """Minimal pairwise distance of the configuration.

    For periodic configurations one kernel query over the reduced basis at
    radius |v1| is exact: every motif point has its own translate at |v1|.
    """
    if isinstance(c, PeriodicConfig):
        red = canonical_basis(c)
        reach = float(np.linalg.norm(red.basis[0])) + tol.class_tol
        return float(_neighbors(red, red.cartesian_motif(), reach, tol.dedup_tol)[2].min())
    if isinstance(c, PatchConfig):
        # Restrict to the certified window: fringe points beyond patch_radius
        # carry no completeness guarantee and are excluded from global
        # statistics (unless the window holds fewer than two points).
        mask = c.center_dists() <= c.patch_radius + 1e-12
        if 2 <= int(mask.sum()) < c.n:
            c = FinitePointSet("disk", c.points[mask])
    elif not isinstance(c, FinitePointSet):
        raise TypeError(f"unsupported configuration type {type(c)!r}")
    if c.n < 2:
        raise NoPairsError("at least two points are required for a minimal distance")
    return _closest_pair(c)[0]


def points_within(c, base, radius, tol=DEFAULT_TOL):
    """All configuration points at distance <= radius + class_tol from base,
    excluding base itself.  Returned sorted by (distance, x, y)."""
    base = as_vec(base, _dim(c))
    return _neighbors(c, base, radius + tol.class_tol, tol.dedup_tol)[1]


def distance_classes(c, base, max_radius, tol=DEFAULT_TOL):
    """Single-linkage clustering of distances from base, ascending.

    Classes whose representatives are closer than 2 * class_tol cannot be
    separated reliably and raise AmbiguousClassError rather than being merged.
    """
    base = as_vec(base, _dim(c))
    owner, pts, d = _neighbors(c, base, max_radius + tol.class_tol, tol.dedup_tol)
    starts, _, means = _cluster(owner, d, tol.class_tol)
    return [
        DistanceClass(distance=m, points=p) for m, p in zip(means.tolist(), np.split(pts, starts[1:]))
    ]


def contains(c, p, tol=DEFAULT_TOL):
    """Membership test for a single point."""
    return bool(contains_many(c, np.asarray(p, dtype=float).reshape(1, -1), tol)[0])


def contains_many(c, pts, tol=DEFAULT_TOL):
    """Vectorized membership test: is some configuration point within
    dedup_tol (Euclidean; chordal on the sphere) of each row of pts?
    Periodic input wraps fractional parts; a translate within dedup_tol of a
    motif point differs from it by the rounded fractional difference (one of
    the 3x3 neighbouring translates), so points on cell boundaries match."""
    pts = np.asarray(pts, dtype=float)
    if isinstance(c, PeriodicConfig):
        frac = np.mod(pts @ np.linalg.inv(c.basis), 1.0)
        chunk = max(1, _LATTICE_CHUNK // len(c.motif))
        hits = [np.zeros(0, dtype=bool)]
        for s in range(0, len(frac), chunk):
            delta = frac[s : s + chunk, None, :] - c.motif
            delta = (delta - np.round(delta)) @ c.basis
            hits.append((np.linalg.norm(delta, axis=-1) <= tol.dedup_tol).any(axis=1))
        return np.concatenate(hits)
    if isinstance(c, (FinitePointSet, PatchConfig)):
        index = _index(c)
        owner, idx = index.ball(pts, np.full(len(pts), tol.dedup_tol))
        near = np.linalg.norm(index.points[idx] - pts[owner], axis=1) <= tol.dedup_tol
        return np.bincount(owner[near], minlength=len(pts)) > 0
    raise TypeError(f"unsupported configuration type {type(c)!r}")


def _collinear_direction(pts, rel_tol=1e-9):
    """Unit direction if the points are collinear, else None."""
    centered = pts - pts.mean(axis=0)
    scale = float(np.abs(centered).max())
    if scale == 0.0:
        return None
    _, sing, vt = np.linalg.svd(centered, full_matrices=False)
    if len(sing) > 1 and sing[1] > rel_tol * scale:
        return None
    return vt[0]


# directions at 45-degree steps, counterclockwise from +x (unnormalised:
# only the argmax along each matters)
_OCTANTS = np.array([(1, 1, 0, -1, -1, -1, 0, 1), (0, 1, 1, 1, 0, -1, -1, -1)], dtype=float)


def _hull_facets(pts):
    """Facet rows (n, b) of the convex hull of planar points that are not
    all collinear: a unit outward normal n with n.x + b <= 0 inside, one row
    per edge of the counterclockwise monotone chain."""

    def chain(rows):
        """One half of the hull: every point where the path turns left."""
        out = []
        for x, y in rows:
            while len(out) > 1:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (y - ay) > (by - ay) * (x - ax):
                    break
                out.pop()
            out.append((x, y))
        return out[:-1]

    # points strictly inside the polygon of the extreme points in eight
    # directions are no hull vertices; drop them before the loop
    extreme = np.argmax(pts @ _OCTANTS, axis=0)
    octagon = pts[extreme[np.diff(extreme, append=extreme[0]) != 0]]
    if len(octagon) > 2:
        edge = np.roll(octagon, -1, axis=0) - octagon
        rel = pts[:, None, :] - octagon
        pts = pts[~np.all(edge[:, 0] * rel[..., 1] > edge[:, 1] * rel[..., 0], axis=1)]
    rows = np.unique(pts, axis=0).tolist()  # coordinate order
    ring = np.array(chain(rows) + chain(rows[::-1]))
    edge = np.roll(ring, -1, axis=0) - ring
    normal = np.column_stack([edge[:, 1], -edge[:, 0]]) / np.hypot(edge[:, 0], edge[:, 1])[:, None]
    return np.column_stack([normal, -np.sum(normal * ring, axis=1)])


def _windowed_plane_bases(pts, cutoff, tol):
    """Indices of points whose cutoff-ball lies inside the window spanned by
    the set: an interval along the carrier line for collinear input, the
    convex hull otherwise."""
    slack = tol.class_tol
    direction = _collinear_direction(pts)
    if direction is not None:
        t = (pts - pts.mean(axis=0)) @ direction
        lo, hi = float(t.min()), float(t.max())
        keep = (t >= lo + cutoff - slack) & (t <= hi - cutoff + slack)
        return np.nonzero(keep)[0]
    facets = _hull_facets(pts)
    keep = np.all(pts @ facets[:, :2].T + facets[:, 2] <= slack - cutoff, axis=1)
    return np.nonzero(keep)[0]


def _hnf_rows(rows):
    """Hermite-style upper triangular basis of the integer row span of rows."""
    rows = [list(map(int, r)) for r in rows if any(r)]
    # eliminate the first column down to a single pivot
    while True:
        nz = [r for r in rows if r[0] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[0]))
        small, big = nz[0], nz[1]
        q = big[0] // small[0]
        big[0] -= q * small[0]
        big[1] -= q * small[1]
        rows = [r for r in rows if any(r)]
    pivot0 = next((r for r in rows if r[0] != 0), None)
    seconds = [r[1] for r in rows if r[0] == 0 and r[1] != 0]
    if pivot0 is None or not seconds:
        raise ValueError("rows do not span a rank-2 sublattice")
    g = 0
    for s in seconds:
        g = math.gcd(g, abs(s))
    if pivot0[0] < 0:
        pivot0 = [-pivot0[0], -pivot0[1]]
    pivot0[1] %= g
    return np.array([pivot0, [0, g]], dtype=float)


def _period_denominator(frac, kmax, tol=1e-6):
    for q in range(2, kmax + 1):
        scaled = np.asarray(frac) * q
        if np.max(np.abs(scaled - np.round(scaled))) < tol:
            return q, np.round(scaled).astype(int)
    return None, None


def primitive_periods(c, tol=DEFAULT_TOL):
    """Shrink the motif by absorbing any translation symmetry into the basis.

    Candidate sub-periods are the pairwise motif differences, validated
    together by one membership probe of every translated motif point.  A valid
    period t extends the lattice to L + Zt, whose basis is recovered through
    an integer Hermite reduction; the motif is then re-reduced and deduplicated
    in the finer lattice.  Iterates until no candidate survives.
    """
    cur = canonical_basis(c)
    while cur.k > 1:
        cart = cur.cartesian_motif()
        # differences motif[j] - motif[i], i != j, in (i, j) order; the first
        # of each to 1e-9 modulo the lattice, shortest first
        diffs = np.mod(cur.motif[None, :, :] - cur.motif[:, None, :], 1.0)[~np.eye(cur.k, dtype=bool)]
        keys = np.round(diffs * 1e9).astype(int) % int(1e9)
        cands = diffs[np.sort(np.unique(keys, axis=0, return_index=True)[1])]
        t = (cands[:, None, :] @ cur.basis)[:, 0]
        length = np.sqrt(_row_dots(t, t))
        order = np.argsort(length, kind="stable")
        cands, t, length = cands[order], t[order], length[order]
        # one membership probe of every translated motif point, all candidates
        shifted = (cart[None, :, :] + t[:, None, :]).reshape(-1, 2)
        periodic = contains_many(cur, shifted, tol).reshape(len(t), cur.k).all(axis=1)
        for dfrac in cands[periodic & (length > tol.dedup_tol)]:
            q, pvec = _period_denominator(dfrac, cur.k)
            if q is None:
                continue
            hnf = _hnf_rows([[q, 0], [0, q], list(pvec)])
            new_basis = (hnf / q) @ cur.basis
            inv = np.linalg.inv(new_basis)
            frac = np.mod(cart @ inv, 1.0)
            new_motif = _dedup_fracs(frac, new_basis, tol)
            index = abs(np.linalg.det(cur.basis) / np.linalg.det(new_basis))
            if abs(index - round(index)) > 1e-9 or len(new_motif) * round(index) != cur.k:
                continue
            cur = canonical_basis(PeriodicConfig(new_basis, new_motif))
            break
        else:
            break
    return cur


def _dedup_fracs(frac, basis, tol):
    """Rows of frac, less each one within dedup_tol of an earlier row modulo
    the lattice (the rounded fractional difference is the nearest translate)."""
    delta = frac[:, None, :] - frac[None, :, :]
    near = np.linalg.norm((delta - np.round(delta)) @ basis, axis=-1) <= tol.dedup_tol
    return frac[~np.tril(near, -1).any(axis=1)]
