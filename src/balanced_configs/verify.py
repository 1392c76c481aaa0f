"""Balance verdicts, neighbor counts, and minimal-distance checks.

The balance definitions quantify over every distance d >= 0; verification
necessarily truncates to distance classes within a disclosed cutoff, recorded
in the report.  For planar periodic configurations only motif representatives
are checked (translation invariance is exact by construction); for finite
windows and hyperbolic patches, verification is restricted to base points
whose whole neighborhood up to the cutoff is known.

Each verifier makes one call to the neighbour kernel of ``configs`` for all
of its base points and one call to its clusterer, then computes only its own
residual per class, on flat arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hyperbolic
from .configs import (
    FinitePointSet,
    PatchConfig,
    PeriodicConfig,
    _as_complex,
    _closest_pair,
    _cluster,
    _neighbors,
    _pair_dists,
    _windowed_plane_bases,
    min_distance,
)
from .errors import InsufficientPatchError, NoPairsError
from .geometry import DEFAULT_TOL, Tolerance


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


def verify_plane(c, params=VerifyParams()):
    """Check that, at every verified point, each distance class up to the
    cutoff has displacement vectors summing to zero."""
    tol = params.tol
    if not (isinstance(c, PeriodicConfig) or (isinstance(c, FinitePointSet) and c.space == "plane")):
        raise ValueError("verify_plane requires a PeriodicConfig or a planar FinitePointSet")
    cutoff = params.max_radius * min_distance(c, tol)
    bases = _base_points_for(c, cutoff, tol)
    if isinstance(c, PeriodicConfig):
        note = "verified motif representatives; translation covers the rest"
    else:
        note = f"verified {len(bases)} of {c.n} points with a full in-window neighborhood"
    owner, pts, d = _neighbors(c, bases, cutoff + tol.class_tol, tol.dedup_tol)
    starts, sizes, means = _cluster(owner, d, tol.class_tol)
    class_owner = owner[starts]
    residuals = np.add.reduceat(pts, starts) - sizes[:, None] * bases[class_owner]
    return BalanceReport(
        checks=_class_checks(bases, class_owner, means, sizes, residuals, tol),
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


def _class_checks(bases, class_owner, means, sizes, residuals, tol):
    """One ClassCheck per class, from flat per-class arrays."""
    norms = np.sqrt(_row_dots(residuals, residuals))
    base_tuples = [tuple(b) for b in bases.tolist()]
    return [
        ClassCheck(
            base=base_tuples[o],
            distance=m,
            size=s,
            residual=r,
            residual_norm=n,
            passed=n <= tol.residual_tol,
        )
        for o, m, s, r, n in zip(
            class_owner.tolist(), means.tolist(), sizes.tolist(), zip(*residuals.T.tolist()), norms.tolist()
        )
    ]


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
    cutoff = params.max_radius * min_distance(c, tol)
    owner, pts, d = _neighbors(c, c.points, cutoff + tol.class_tol, tol.dedup_tol)
    starts, sizes, means = _cluster(owner, d, tol.class_tol)
    class_owner = owner[starts]
    totals = np.add.reduceat(pts, starts)
    base = c.points[class_owner]
    if mode == "scalar_multiple":
        residuals = np.cross(totals, base)
    else:
        residuals = totals - _row_dots(totals, base)[:, None] * base
    return BalanceReport(
        checks=_class_checks(c.points, class_owner, means, sizes, residuals, tol),
        cutoff=cutoff,
        verified_points=c.n,
        residual_tol=tol.residual_tol,
        notes=[f"mode: {mode}"],
    )


def verify_hyperbolic(c, params=VerifyParams()):
    """Check hyperbolic balance at every base point whose certified
    neighborhood covers the cutoff (max_radius, in hyperbolic length).

    Per class, the residual is the sum of unit tangent vectors at the base
    point pointing along the geodesics to the class members: the unit Mobius
    images of the members with the base translated to the origin (where
    geodesics are diameters).
    """
    if not isinstance(c, PatchConfig):
        raise ValueError("verify_hyperbolic requires a PatchConfig")
    if c.n < 2:
        raise InsufficientPatchError("patch holds fewer than two points")
    tol = params.tol
    cutoff = params.max_radius
    bases = _base_points_for(c, cutoff - 1e-12, tol)
    if len(bases) == 0:
        raise InsufficientPatchError(
            f"no point has verifiable_radius >= {cutoff}; patch_radius is {c.patch_radius}"
        )
    owner, pts, d = _neighbors(c, bases, cutoff + tol.class_tol, tol.dedup_tol)
    starts, sizes, means = _cluster(owner, d, tol.class_tol)
    w = hyperbolic._translate(_as_complex(bases)[owner], _as_complex(pts))
    totals = np.add.reduceat(w / np.abs(w), starts)
    residuals = np.column_stack([totals.real, totals.imag])
    return BalanceReport(
        checks=_class_checks(bases, owner[starts], means, sizes, residuals, tol),
        cutoff=cutoff,
        verified_points=len(bases),
        residual_tol=tol.residual_tol,
        notes=[f"certified patch radius {c.patch_radius}"],
    )


def _base_points_for(c, reach, tol):
    """Base points whose neighbourhood out to reach is known: motif
    representatives, patch points with verifiable radius >= reach, points of
    a planar window whose reach-ball lies inside it, or a whole finite set."""
    if isinstance(c, PeriodicConfig):
        return c.cartesian_motif()
    if isinstance(c, PatchConfig):
        return c.points[c.patch_radius - c.center_dists() >= reach]
    if isinstance(c, FinitePointSet):
        if c.space == "plane":
            return c.points[_windowed_plane_bases(c.points, reach, tol)]
        return c.points
    raise TypeError(f"unsupported configuration type {type(c)!r}")


def max_neighbor_count(c, params=VerifyParams()):
    """Largest number of minimal-distance neighbors over the verified points."""
    tol = params.tol
    min_d = min_distance(c, tol)
    reach = min_d + tol.class_tol if isinstance(c, PatchConfig) else params.max_radius * min_d
    bases = _base_points_for(c, reach, tol)
    owner = _neighbors(c, bases, min_d + tol.class_tol, tol.dedup_tol)[0]
    return int(np.bincount(owner, minlength=1).max())


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
            keep = _pair_dists(space, np.zeros(2), pts) <= window
        else:
            keep = np.linalg.norm(pts - center, axis=1) <= window
        excluded = bool((~keep).any())
        pts = pts[keep]
    if len(pts) < 2:
        raise NoPairsError("at least two points are required in the window")
    d, p, q = _closest_pair(FinitePointSet(space, pts))
    return {
        "min_d": d,
        "attained": True,
        "pair": (tuple(p), tuple(q)),
        "window_dependent": excluded,
    }
