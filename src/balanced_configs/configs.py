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
Periodic input is enumerated from lattice translates with numpy alone;
finite sets and patches query a k-d tree cached on the container, filtered
by the container's metric (``hyperbolic._dist`` on the disk).
"""
from __future__ import annotations

import itertools
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
        shifts = _shift_grid() @ self.basis
        for i in range(len(cart)):
            diff = cart[i + 1 :] - cart[i]
            if len(diff) == 0:
                continue
            d = np.linalg.norm(diff[:, None, :] + shifts[None, :, :], axis=2)
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
    _tree: object = field(default=None, init=False, repr=False)

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
    _tree: object = field(default=None, init=False, repr=False)

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
    g = np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
    return g


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


def _tree(c):
    """k-d tree over the points of a finite set or patch, built on first use
    and kept on the container (containers are immutable).  Its data holds the
    points in coordinate order, so ascending indices are ascending (x, y)."""
    if c._tree is None:
        from scipy.spatial import cKDTree  # deferred: the periodic path runs without scipy

        c._tree = cKDTree(c.points[np.lexsort(c.points.T[::-1])])
    return c._tree


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


# candidate translates per chunk of bases on the periodic path, bounding memory
_LATTICE_CHUNK = 1 << 18


def _neighbors(c, bases, reach, dedup_tol):
    """The neighbour kernel: every configuration point p with
    dedup_tol < d(base, p) <= reach, for each row of bases.

    Returns flat arrays (owner, points, dists), where owner indexes bases,
    sorted by owner, then distance, then coordinates.  Periodic input scans
    the lattice translates of the motif that can reach each base; finite sets
    and patches query a k-d tree with a ball that contains the metric ball
    (on the disk, the hyperbolic ball of radius R about b is exactly the
    Euclidean disk with centre b(1 - t^2)/(1 - |b|^2 t^2) and radius
    t(1 - |b|^2)/(1 - |b|^2 t^2), t = tanh(R/2)), padded by a relative 1e-9,
    and filter the candidates by the metric itself.
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
        radii = t * (1.0 - b2) / den
    else:
        centres, radii = bases, np.full(len(bases), reach)
    tree = _tree(c)
    lists = tree.query_ball_point(centres, radii * (1.0 + 1e-9), return_sorted=True)
    counts = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    owner = np.repeat(np.arange(len(lists)), counts)
    idx = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp, count=len(owner))
    pts = tree.data[idx]
    d = _pair_dists(space, bases[owner], pts)
    keep = np.flatnonzero((d <= reach) & (d > dedup_tol))
    # candidates come grouped by owner in coordinate order: a stable sort
    # by owner, then distance, leaves ties in coordinate order
    order = keep[np.lexsort((d[keep], owner[keep]))]
    return owner[order], pts[order], d[order]


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

    The distance from each point to its Euclidean nearest neighbour bounds
    the minimum from above; one kernel query at that bound then finds the
    closest pair in the container's own metric.
    """
    tree = _tree(c)
    pts = tree.data
    nn = tree.query(pts, k=2)[1]
    # the first column is the point itself unless it has an exact duplicate
    other = np.where(nn[:, 0] == np.arange(len(pts)), nn[:, 1], nn[:, 0])
    bound = _pair_dists(_space(c), pts, pts[other])
    i = int(np.argmin(bound))
    if bound[i] == 0.0:
        return 0.0, pts[i], pts[other[i]]
    owner, nbrs, d = _neighbors(c, pts, float(bound[i]), 0.0)
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
    """Vectorized membership test; wraps fractional parts and checks the 3x3
    neighboring translates so points on cell boundaries are matched."""
    pts = np.asarray(pts, dtype=float)
    if isinstance(c, PeriodicConfig):
        frac = np.mod(pts @ np.linalg.inv(c.basis), 1.0)
        best = np.full(len(pts), np.inf)
        shifts = _shift_grid()
        for m in c.motif:
            for s in shifts:
                delta = (frac - m - s) @ c.basis
                d = np.linalg.norm(delta, axis=1)
                best = np.minimum(best, d)
        return best <= tol.dedup_tol
    if isinstance(c, (FinitePointSet, PatchConfig)):
        return _tree(c).query(pts)[0] <= tol.dedup_tol
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
    from scipy.spatial import ConvexHull  # deferred: only finite planar sets need it

    # each facet row (n, b) has a unit outward normal n and n.x + b <= 0 inside
    facets = ConvexHull(pts).equations
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

    Candidate sub-periods are the pairwise motif differences; each one is
    validated by membership checks of every translated motif point.  A valid
    period t extends the lattice to L + Zt, whose basis is recovered through
    an integer Hermite reduction; the motif is then re-reduced and deduplicated
    in the finer lattice.  Iterates until no candidate survives.
    """
    cur = canonical_basis(c)
    while cur.k > 1:
        cart = cur.cartesian_motif()
        diffs = []
        for i in range(cur.k):
            for j in range(cur.k):
                if i == j:
                    continue
                d = np.mod(cur.motif[j] - cur.motif[i], 1.0)
                diffs.append(d)
        seen = set()
        cands = []
        for d in diffs:
            key = tuple(np.round(d * 1e9).astype(int) % int(1e9))
            if key in seen:
                continue
            seen.add(key)
            cands.append(d)
        cands.sort(key=lambda d: float(np.linalg.norm(d @ cur.basis)))
        applied = False
        for dfrac in cands:
            t = dfrac @ cur.basis
            if float(np.linalg.norm(t)) <= tol.dedup_tol:
                continue
            if not np.all(contains_many(cur, cart + t, tol)):
                continue
            q, pvec = _period_denominator(dfrac, cur.k)
            if q is None:
                continue
            rows = [[q, 0], [0, q], list(pvec)]
            hnf = _hnf_rows(rows)
            new_basis = (hnf / q) @ cur.basis
            inv = np.linalg.inv(new_basis)
            frac = np.mod(cart @ inv, 1.0)
            new_motif = _dedup_fracs(frac, new_basis, tol)
            index = abs(np.linalg.det(cur.basis) / np.linalg.det(new_basis))
            if abs(index - round(index)) > 1e-9 or len(new_motif) * round(index) != cur.k:
                continue
            cur = canonical_basis(PeriodicConfig(new_basis, new_motif))
            applied = True
            break
        if not applied:
            break
    return cur


def _dedup_fracs(frac, basis, tol):
    kept = []
    shifts = _shift_grid()
    for f in frac:
        dup = False
        for g in kept:
            delta = (f - g + shifts) @ basis
            if np.min(np.linalg.norm(delta, axis=1)) <= tol.dedup_tol:
                dup = True
                break
        if not dup:
            kept.append(f)
    return np.array(kept)
