"""Balance verdicts, neighbor counts, and minimal-distance checks.

The balance definitions quantify over every distance d >= 0; verification
necessarily truncates to distance classes within a disclosed cutoff, recorded
in the report.  For planar periodic configurations only motif representatives
are checked (translation invariance is exact by construction); for finite
windows and hyperbolic patches, verification is restricted to base points
whose whole neighborhood up to the cutoff is known.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .configs import (
    FinitePointSet,
    PatchConfig,
    PeriodicConfig,
    _hyp_dist_many,
    _pairwise_min,
    distance_classes,
    min_distance,
    points_within,
)
from .errors import AmbiguousClassError, InsufficientPatchError, NoPairsError
from .geometry import DEFAULT_TOL, Tolerance, as_vec


@dataclass(frozen=True)
class VerifyParams:
    """Cutoff and tolerances for a verification run.

    max_radius is measured in units of the configuration's minimal distance
    for planar and spherical input, and in absolute hyperbolic length for
    patches (where the relevant bound is the certified patch completeness).
    """

    max_radius: float = 6.0
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        if not (self.max_radius > 0.0):
            raise ValueError("max_radius must be positive")


@dataclass(frozen=True)
class ClassCheck:
    """Residual of one distance class at one base point."""

    base: tuple
    distance: float
    size: int
    residual: tuple
    residual_norm: float
    passed: bool


@dataclass
class BalanceReport:
    """Aggregated verdict over all verified base points and classes."""

    checks: list
    cutoff: float
    verified_points: int
    residual_tol: float
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return all(ch.passed for ch in self.checks)

    @property
    def worst_residual(self):
        return max((ch.residual_norm for ch in self.checks), default=0.0)

    @property
    def failing(self):
        return [(ch.base, ch.distance) for ch in self.checks if not ch.passed]

    def summary(self):
        return {
            "passed": self.passed,
            "verified_points": self.verified_points,
            "classes_checked": len(self.checks),
            "cutoff": self.cutoff,
            "residual_tol": self.residual_tol,
            "worst_residual": self.worst_residual,
            "failing": [
                {"base": list(base), "distance": dist} for base, dist in self.failing
            ],
            "notes": list(self.notes),
        }


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
    bounding box otherwise."""
    slack = tol.class_tol
    direction = _collinear_direction(pts)
    if direction is not None:
        t = (pts - pts.mean(axis=0)) @ direction
        lo, hi = float(t.min()), float(t.max())
        keep = (t >= lo + cutoff - slack) & (t <= hi - cutoff + slack)
        return np.nonzero(keep)[0]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    keep = np.all(pts >= lo + cutoff - slack, axis=1) & np.all(pts <= hi - cutoff + slack, axis=1)
    return np.nonzero(keep)[0]


def verify_plane(c, params=VerifyParams()):
    """Check that, at every verified point, each distance class up to the
    cutoff has displacement vectors summing to zero."""
    tol = params.tol
    if isinstance(c, PeriodicConfig):
        bases = c.cartesian_motif()
        note = "verified motif representatives; translation covers the rest"
    elif isinstance(c, FinitePointSet) and c.space == "plane":
        min_d0 = min_distance(c, tol)
        cutoff0 = params.max_radius * min_d0
        idx = _windowed_plane_bases(c.points, cutoff0, tol)
        bases = c.points[idx]
        note = f"verified {len(bases)} of {c.n} points with a full in-window neighborhood"
    else:
        raise ValueError("verify_plane requires a PeriodicConfig or a planar FinitePointSet")
    min_d = min_distance(c, tol)
    cutoff = params.max_radius * min_d
    checks = []
    for base in bases:
        for cl in distance_classes(c, base, cutoff, tol):
            residual = cl.points.sum(axis=0) - cl.size * base
            norm = float(np.linalg.norm(residual))
            checks.append(
                ClassCheck(
                    base=tuple(base),
                    distance=cl.distance,
                    size=cl.size,
                    residual=tuple(residual),
                    residual_norm=norm,
                    passed=norm <= tol.residual_tol,
                )
            )
    return BalanceReport(
        checks=checks,
        cutoff=cutoff,
        verified_points=len(bases),
        residual_tol=tol.residual_tol,
        notes=[note],
    )


def _row_dots(a, b):
    """Dot product of each row of a with the matching row of b (broadcast).

    Each row is one stacked 1-D matmul, the dot product that a[i] @ b[i] and
    np.linalg.norm take, so results are bit-identical to a per-row loop; a
    row sum of a * b may round differently.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def verify_sphere(c, params=VerifyParams(), mode="scalar_multiple"):
    """Check spherical balance at every point, in either formulation.

    scalar_multiple: each class sum must be a scalar multiple of the base
    vector, measured by the cross-product norm |sum x base|.
    tangent_projection: the class sum of tangent-plane projections must
    vanish.  The two residuals are mathematically identical in norm.
    """
    if not (isinstance(c, FinitePointSet) and c.space == "sphere"):
        raise ValueError("verify_sphere requires a FinitePointSet on the sphere")
    if mode not in ("scalar_multiple", "tangent_projection"):
        raise ValueError(f"unknown mode {mode!r}")
    tol = params.tol
    min_d = min_distance(c, tol)
    cutoff = params.max_radius * min_d
    checks = []
    for base in c.points:
        classes = distance_classes(c, base, cutoff, tol)
        if not classes:
            continue
        # one batched residual per base over its stacked class sums
        totals = np.array([cl.points.sum(axis=0) for cl in classes])
        if mode == "scalar_multiple":
            residuals = np.cross(totals, base)
        else:
            residuals = totals - _row_dots(totals, base[None, :])[:, None] * base
        norms = np.sqrt(_row_dots(residuals, residuals))
        base_tuple = tuple(base)
        for cl, residual, norm in zip(classes, residuals, norms.tolist()):
            checks.append(
                ClassCheck(
                    base=base_tuple,
                    distance=cl.distance,
                    size=cl.size,
                    residual=tuple(residual),
                    residual_norm=norm,
                    passed=norm <= tol.residual_tol,
                )
            )
    return BalanceReport(
        checks=checks,
        cutoff=cutoff,
        verified_points=c.n,
        residual_tol=tol.residual_tol,
        notes=[f"mode: {mode}"],
    )


def _hyp_dist_pairs(a, z):
    """Hyperbolic distance from a[k] to z[k] on the disk, for complex arrays
    a and z that broadcast against each other."""
    return 2.0 * np.arctanh(np.abs(z - a) / np.abs(1.0 - np.conjugate(a) * z))


def _disk_ball_candidates(points, bases, radius):
    """Pairs (owner, idx): point idx may lie within hyperbolic distance
    radius of bases[owner].  Pairs are grouped by owner, idx ascending within
    each group.

    The hyperbolic ball of radius R about b is exactly the Euclidean disk with
    centre b(1 - t^2)/(1 - |b|^2 t^2) and radius t(1 - |b|^2)/(1 - |b|^2 t^2),
    t = tanh(R/2).  The radius is padded by a relative 1e-9, far above the
    rounding error of either side, so the candidates are a superset of the
    points the hyperbolic distance accepts; the caller filters them exactly.
    """
    from scipy.spatial import cKDTree  # deferred: only the disk path needs it

    t = math.tanh(radius / 2.0)
    b2 = np.sum(bases * bases, axis=1)
    den = 1.0 - b2 * (t * t)
    centres = bases * ((1.0 - t * t) / den)[:, None]
    radii = t * (1.0 - b2) / den * (1.0 + 1e-9)
    lists = cKDTree(points).query_ball_point(centres, radii, return_sorted=True)
    counts = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    owner = np.repeat(np.arange(len(lists)), counts)
    idx = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp, count=len(owner))
    return owner, idx


def verify_hyperbolic(c, params=VerifyParams()):
    """Check hyperbolic balance at every base point whose certified
    neighborhood covers the cutoff (max_radius, in hyperbolic length).

    Per class, the residual is the sum of unit tangent vectors at the base
    point pointing along the geodesics to the class members.  Neighbours come
    from one k-d tree query over all bases: each hyperbolic ball of radius
    cutoff + class_tol is exactly a Euclidean disk, queried with a slightly
    padded radius, and the candidates are then filtered by the hyperbolic
    distance itself.  Every point within the cutoff is therefore found, and
    the kept points, their order and their distances are those of a scan of
    all points, while the work grows with the number of neighbours rather
    than with bases x points.
    """
    if not isinstance(c, PatchConfig):
        raise ValueError("verify_hyperbolic requires a PatchConfig")
    if c.n < 2:
        raise InsufficientPatchError("patch holds fewer than two points")
    tol = params.tol
    cutoff = params.max_radius
    vr = c.patch_radius - c.center_dists()
    base_idx = np.nonzero(vr >= cutoff - 1e-12)[0]
    if len(base_idx) == 0:
        raise InsufficientPatchError(
            f"no point has verifiable_radius >= {cutoff}; patch_radius is {c.patch_radius}"
        )
    reach = cutoff + tol.class_tol
    bases = c.points[base_idx]
    owner, idx = _disk_ball_candidates(c.points, bases, reach)
    a = bases[owner, 0] + 1j * bases[owner, 1]
    z = c.points[idx, 0] + 1j * c.points[idx, 1]
    d = _hyp_dist_pairs(a, z)
    keep = np.flatnonzero((d <= reach) & (d > tol.dedup_tol))
    # ascending distance per base; ties keep ascending point index
    keep = keep[np.lexsort((d[keep], owner[keep]))]
    a, z, d, owner = a[keep], z[keep], d[keep], owner[keep]

    # a class starts at each base's first neighbour and at every gap wider
    # than class_tol between consecutive distances
    new_class = np.ones(len(d), dtype=bool)
    new_class[1:] = (owner[1:] != owner[:-1]) | (np.diff(d) > tol.class_tol)
    starts = np.flatnonzero(new_class)
    sizes = np.diff(np.append(starts, len(d)))
    means = np.add.reduceat(d, starts) / sizes
    class_owner = owner[starts]
    too_close = (class_owner[1:] == class_owner[:-1]) & (np.diff(means) <= 2.0 * tol.class_tol)
    if too_close.any():
        k = int(np.flatnonzero(too_close)[0])
        raise AmbiguousClassError(
            f"distance classes at {float(means[k])!r} and {float(means[k + 1])!r} are too close to separate"
        )

    # unit initial directions, found by translating the base to the origin
    # (where geodesics are diameters)
    w = (z - a) / (1.0 - np.conjugate(a) * z)
    totals = np.add.reduceat(w / np.abs(w), starts)
    norms = np.abs(totals)
    base_tuples = [tuple(p) for p in bases]
    checks = [
        ClassCheck(
            base=base_tuples[o],
            distance=m,
            size=s,
            residual=(re, im),
            residual_norm=n,
            passed=ok,
        )
        for o, m, s, re, im, n, ok in zip(
            class_owner.tolist(),
            means.tolist(),
            sizes.tolist(),
            totals.real.tolist(),
            totals.imag.tolist(),
            norms.tolist(),
            (norms <= tol.residual_tol).tolist(),
        )
    ]
    return BalanceReport(
        checks=checks,
        cutoff=cutoff,
        verified_points=len(base_idx),
        residual_tol=tol.residual_tol,
        notes=[f"certified patch radius {c.patch_radius}"],
    )


def _base_points_for(c, params):
    tol = params.tol
    if isinstance(c, PeriodicConfig):
        return c.cartesian_motif()
    if isinstance(c, FinitePointSet):
        if c.space == "plane":
            min_d = min_distance(c, tol)
            idx = _windowed_plane_bases(c.points, params.max_radius * min_d, tol)
            return c.points[idx]
        return c.points
    if isinstance(c, PatchConfig):
        min_d = min_distance(c, tol)
        vr = c.patch_radius - c.center_dists()
        return c.points[vr >= min_d + tol.class_tol]
    raise TypeError(f"unsupported configuration type {type(c)!r}")


def max_neighbor_count(c, params=VerifyParams()):
    """Largest number of minimal-distance neighbors over the verified points."""
    tol = params.tol
    min_d = min_distance(c, tol)
    best = 0
    for base in _base_points_for(c, params):
        nbrs = points_within(c, base, min_d, tol)
        best = max(best, len(nbrs))
    return best


def check_min_distance_property(c, window=None, tol=DEFAULT_TOL):
    """Minimal distance over a window and whether an explicit pair attains it.

    window, when given, is a radius: points beyond it (from the centroid for
    finite sets, from the disk center for patches) are excluded.  The result
    is flagged window-dependent whenever the window actually excluded points,
    since a different window could then report a different value.
    """
    if isinstance(c, PeriodicConfig):
        d = min_distance(c, tol)
        return {"min_d": d, "attained": True, "pair": None, "window_dependent": False}
    if isinstance(c, FinitePointSet):
        pts, space = c.points, c.space
        center = pts.mean(axis=0)
        if space == "sphere":
            center /= np.linalg.norm(center) if np.linalg.norm(center) > 0 else 1.0
    elif isinstance(c, PatchConfig):
        pts, space = c.points, "disk"
        center = np.zeros(2)
    else:
        raise TypeError(f"unsupported configuration type {type(c)!r}")
    excluded = False
    if window is not None:
        if space == "disk":
            keep = _hyp_dist_many((0.0, 0.0), pts) <= window
        else:
            keep = np.linalg.norm(pts - center, axis=1) <= window
        excluded = bool((~keep).any())
        pts = pts[keep]
    if len(pts) < 2:
        raise NoPairsError("at least two points are required in the window")
    d, (i, j) = _pairwise_min(space, pts)
    return {
        "min_d": d,
        "attained": True,
        "pair": (tuple(pts[i]), tuple(pts[j])),
        "window_dependent": excluded,
    }
