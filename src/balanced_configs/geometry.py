"""Tolerance policy and metric primitives for the plane and the unit sphere.

All functions are pure and operate on plain floats / numpy arrays.  The
hyperbolic (Poincare disk) primitives live in ``hyperbolic.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError, ParameterDomainError

UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class Tolerance:
    """Numeric tolerances used throughout.

    class_tol   separates distance classes (single-linkage gap threshold),
    residual_tol bounds acceptable balance residual norms,
    dedup_tol    decides when two constructed points are the same point.
    """

    class_tol: float = 1e-6
    residual_tol: float = 1e-9
    dedup_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.dedup_tol < self.class_tol):
            raise ParameterDomainError("tolerances must satisfy 0 < dedup_tol < class_tol")
        if self.residual_tol <= 0.0:
            raise ParameterDomainError("residual_tol must be positive")


DEFAULT_TOL = Tolerance()


def as_vec(p, dim):
    """Return p as a finite float vector of the given dimension."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (dim,):
        raise InvalidPointError(f"expected a {dim}-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidPointError("coordinates must be finite")
    return arr


def euclid_dist(a, b):
    """Euclidean distance between two plane points."""
    return float(np.linalg.norm(as_vec(a, 2) - as_vec(b, 2)))


def rotate_plane(p, center, angle):
    """Rotate a plane point about a center by the given angle (radians, counterclockwise)."""
    p = as_vec(p, 2)
    c = as_vec(center, 2)
    ca, sa = np.cos(angle), np.sin(angle)
    d = p - c
    return c + np.array([ca * d[0] - sa * d[1], sa * d[0] + ca * d[1]])


def require_unit(v, tol=UNIT_NORM_TOL):
    """Return v as a 3-vector after checking it lies on the unit sphere."""
    arr = as_vec(v, 3)
    n = float(np.linalg.norm(arr))
    if abs(n - 1.0) > tol:
        raise InvalidPointError(f"sphere point must have unit norm, got |v| = {n!r}")
    return arr


def sphere_dist(a, b):
    """Chordal distance between two unit vectors (range [0, 2]).

    The chordal distance is a strictly monotone function of the geodesic
    (great-circle) distance, so distance classes built from it coincide with
    geodesic distance classes.
    """
    return float(np.linalg.norm(require_unit(a) - require_unit(b)))


def sphere_tangent_projection(base, target):
    """Project target onto the tangent plane of the sphere at base."""
    base = require_unit(base)
    target = as_vec(target, 3)
    return target - float(np.dot(target, base)) * base
