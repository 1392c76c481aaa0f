"""Balance verdicts, neighbor counts, and minimal-distance checks.

The balance definitions quantify over every distance d >= 0; verification
necessarily truncates to distance classes within a disclosed cutoff, recorded
in the report.  For planar periodic configurations only motif representatives
are checked (translation invariance is exact by construction); for finite
windows and hyperbolic patches, verification is restricted to base points
whose whole neighborhood up to the cutoff is known.

Every verifier runs the one balance path, ``_balance``: one call to the
neighbour kernel of ``configs`` for all of its base points, one call to its
clusterer, and the report, which keeps the classes as columns.  A verifier
supplies only its guard, its cutoff, its base points and its residual per
class, computed on the flat arrays: the displacement sum in the plane, the
cross product or tangent projection on the sphere, the unit Mobius
directions in the disk.  Guards read the container's ``space``; only the
choice of base points, and the hyperbolic verifier's need for a certified
patch, depend on the container's kind.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import hyperbolic
from .configs import (
    FinitePointSet,
    PatchConfig,
    PeriodicConfig,
    _base_points_for,
    _closest_pair,
    _cluster,
    _min_neighbor_counts,
    _neighbors,
    _pair_dists,
    _row_dots,
    _unit_distance,
    min_distance,
)
from .errors import InsufficientPatchError, NoPairsError, ParameterDomainError
from .geometry import DEFAULT_TOL, Tolerance, as_complex


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
        if not (0.0 < self.max_radius < math.inf):
            raise ParameterDomainError("max_radius must be positive and finite")


@dataclass(frozen=True)
class ClassCheck:
    """Residual of one distance class at one base point."""

    base: tuple
    distance: float
    size: int
    residual: tuple
    residual_norm: float
    passed: bool


class _ClassCheckView(Sequence):
    """A report's classes as a read-only sequence of ClassCheck values, each
    built from the columns on access; a slice is a list."""

    def __init__(self, report):
        self._report = report

    def __len__(self):
        return len(self._report.size)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self._build(i))
        return next(self._build([i]))

    def __iter__(self):
        return self._build(slice(None))

    def __eq__(self, other):
        if isinstance(other, (list, _ClassCheckView)):
            return list(self) == list(other)
        return NotImplemented

    def _build(self, rows):
        r = self._report
        norms = r.residual_norm[rows]
        bases = map(tuple, r.bases[r.class_owner[rows]].tolist())
        columns = r.distance[rows].tolist(), r.size[rows].tolist(), map(tuple, r.residual[rows].tolist())
        return map(ClassCheck, bases, *columns, norms.tolist(), (norms <= r.residual_tol).tolist())


@dataclass(eq=False)
class BalanceReport:
    """Verdict over the verified base points (the rows of bases), one column
    per class field: class i lies at distance[i] from bases[class_owner[i]],
    with size[i] members and residual row residual[i] of norm residual_norm[i]."""

    bases: np.ndarray
    class_owner: np.ndarray
    distance: np.ndarray
    size: np.ndarray
    residual: np.ndarray
    cutoff: float
    residual_tol: float
    notes: list = field(default_factory=list)
    residual_norm: np.ndarray = field(init=False)

    def __post_init__(self):
        self.residual_norm = np.sqrt(_row_dots(self.residual, self.residual))

    @property
    def checks(self):
        return _ClassCheckView(self)

    @property
    def verified_points(self):
        return len(self.bases)

    @property
    def passed(self):
        return bool((self.residual_norm <= self.residual_tol).all())

    @property
    def worst_residual(self):
        return float(self.residual_norm.max(initial=0.0))

    @property
    def failing(self):
        bad = ~(self.residual_norm <= self.residual_tol)  # a NaN residual fails
        bases = self.bases[self.class_owner[bad]].tolist()
        return [(tuple(b), d) for b, d in zip(bases, self.distance[bad].tolist())]

    def summary(self):
        return {
            "passed": self.passed,
            "verified_points": self.verified_points,
            "classes_checked": len(self.size),
            "cutoff": self.cutoff,
            "residual_tol": self.residual_tol,
            "worst_residual": self.worst_residual,
            "failing": [
                {"base": list(base), "distance": dist} for base, dist in self.failing
            ],
            "notes": list(self.notes),
        }


def _balance(c, bases, cutoff, tol, residual, note):
    """The one balance path: one kernel call for every base point, one
    clusterer call, and the report.  residual(bases, owner, pts, starts,
    sizes) gives each class's residual row from the kernel's flat arrays and
    the clusterer's class starts and sizes; it is all a geometry adds."""
    owner, pts, d = _neighbors(c, bases, cutoff + tol.class_tol, tol.dedup_tol)
    starts, sizes, means = _cluster(owner, d, tol.class_tol)
    return BalanceReport(
        bases, owner[starts], means, sizes, residual(bases, owner, pts, starts, sizes),
        cutoff=cutoff,
        residual_tol=tol.residual_tol,
        notes=[note],
    )


def _checkable_bases(c, reach, cutoff, tol):
    """The base points whose neighborhood out to reach is known, or
    InsufficientPatchError, stated for the cutoff, when there are none."""
    bases = _base_points_for(c, reach, tol)
    if len(bases) == 0:
        if isinstance(c, PatchConfig):
            raise InsufficientPatchError(
                f"no point has verifiable_radius >= {cutoff}; patch_radius is {c.patch_radius}"
            )
        raise InsufficientPatchError(
            f"no point of the window has its neighborhood out to the cutoff {cutoff:.6g} inside the window"
        )
    return bases


def _displacement(bases, owner, pts, starts, sizes):
    return np.add.reduceat(pts, starts) - sizes[:, None] * bases[owner[starts]]


def verify_plane(c, params=VerifyParams()):
    """Check that, at every verified point, each distance class up to the
    cutoff has displacement vectors summing to zero.

    A finite window in which no point has its whole cutoff-ball inside the
    window verifies nothing, and raises InsufficientPatchError.
    """
    tol = params.tol
    if c.space != "plane":
        raise ValueError("verify_plane requires a PeriodicConfig or a planar FinitePointSet")
    cutoff = params.max_radius * _unit_distance(c, tol)
    bases = _checkable_bases(c, cutoff, cutoff, tol)
    if isinstance(c, PeriodicConfig):
        note = "verified motif representatives; translation covers the rest"
    else:
        note = f"verified {len(bases)} of {c.n} points with a full in-window neighborhood"
    return _balance(c, bases, cutoff, tol, _displacement, note)


def _cross_product(bases, owner, pts, starts, sizes):
    return np.cross(np.add.reduceat(pts, starts), bases[owner[starts]])


def _tangent_projection(bases, owner, pts, starts, sizes):
    totals, base = np.add.reduceat(pts, starts), bases[owner[starts]]
    return totals - _row_dots(totals, base)[:, None] * base


_SPHERE_RESIDUALS = {"scalar_multiple": _cross_product, "tangent_projection": _tangent_projection}


def verify_sphere(c, params=VerifyParams(), mode="scalar_multiple"):
    """Check spherical balance at every point, in either formulation.

    scalar_multiple: each class sum must be a scalar multiple of the base
    vector, measured by the cross-product norm |sum x base|.
    tangent_projection: the class sum of tangent-plane projections must
    vanish.  The two residuals are mathematically identical in norm.
    """
    if c.space != "sphere":
        raise ValueError("verify_sphere requires a FinitePointSet on the sphere")
    if mode not in _SPHERE_RESIDUALS:
        raise ValueError(f"unknown mode {mode!r}")
    tol = params.tol
    cutoff = params.max_radius * _unit_distance(c, tol)
    return _balance(c, c.points, cutoff, tol, _SPHERE_RESIDUALS[mode], f"mode: {mode}")


def _mobius_directions(bases, owner, pts, starts, sizes):
    w = hyperbolic._translate(as_complex(bases)[owner], as_complex(pts))
    totals = np.add.reduceat(w / np.abs(w), starts)
    return np.column_stack([totals.real, totals.imag])


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
    bases = _checkable_bases(c, cutoff - 1e-12, cutoff, tol)
    return _balance(c, bases, cutoff, tol, _mobius_directions, f"certified patch radius {c.patch_radius}")


def max_neighbor_count(c, params=VerifyParams()):
    """Largest number of minimal-distance neighbors over the verified points;
    like verify_plane and verify_hyperbolic, raises InsufficientPatchError
    when no point can be checked."""
    tol = params.tol
    min_d = _unit_distance(c, tol)
    reach = min_d + tol.class_tol if c.space == "disk" else params.max_radius * min_d
    bases = _checkable_bases(c, reach, reach, tol)
    return int(_min_neighbor_counts(c, bases, min_d, tol).max())


def check_min_distance_property(c, window=None, tol=DEFAULT_TOL):
    """Minimal distance over a window and whether an explicit pair attains it.

    window, when given, is a radius: points beyond it (from the centroid for
    finite sets, from the disk center on the disk) are excluded.  The result
    is flagged window-dependent whenever the window actually excluded points,
    since a different window could then report a different value.  Without
    a window, or when it excludes nothing, the configuration itself is
    queried, through the index it keeps.
    """
    if isinstance(c, PeriodicConfig):
        d = min_distance(c, tol)
        return {"min_d": d, "attained": True, "pair": None, "window_dependent": False}
    excluded = False
    if window is not None:
        pts = c.points
        if c.space == "disk":
            center = np.zeros(2)
        else:
            center = pts.mean(axis=0)
            if c.space == "sphere":
                center /= np.linalg.norm(center) if np.linalg.norm(center) > 0 else 1.0
        keep = _pair_dists(c.space, center, pts) <= window
        excluded = bool((~keep).any())
        if excluded:
            c = FinitePointSet(c.space, pts[keep])
    if c.n < 2:
        raise NoPairsError("at least two points are required in the window")
    d, p, q = _closest_pair(c)
    return {
        "min_d": d,
        "attained": True,
        "pair": (tuple(p), tuple(q)),
        "window_dependent": excluded,
    }
