"""Tolerance policy, point coercion, the one predicate of each geometric
check, which the parser, the containers and the builders share, and the one
Euclidean row-norm kernel, ``row_norms``.

The plane and chordal sphere distances are ``row_norms`` of differences,
taken in the neighbour kernel of ``configs``; the sphere's tangent
projection lives in ``verify.verify_sphere``, and the Poincare disk maps in
``hyperbolic``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError, ParameterDomainError


@dataclass(frozen=True)
class Tolerance:
    """Numeric tolerances used throughout, each finite and positive.

    class_tol   separates distance classes (single-linkage gap threshold),
    residual_tol bounds acceptable balance residual norms,
    dedup_tol    decides when two constructed points are the same point.
    """

    class_tol: float = 1e-6
    residual_tol: float = 1e-9
    dedup_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.dedup_tol < self.class_tol < math.inf):
            raise ParameterDomainError("tolerances must satisfy 0 < dedup_tol < class_tol and be finite")
        if not (0.0 < self.residual_tol < math.inf):
            raise ParameterDomainError("residual_tol must be positive and finite")


DEFAULT_TOL = Tolerance()


def as_vec(p, dim):
    """Return p as a finite float vector of the given dimension."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (dim,):
        raise InvalidPointError(f"expected a {dim}-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidPointError("coordinates must be finite")
    return arr


def as_complex(xy):
    """Rows (x, y) as complex numbers x + iy: a view when xy is contiguous."""
    return np.ascontiguousarray(xy, dtype=float).view(np.complex128)[..., 0]


def row_norms(x):
    """Euclidean norm along the last axis of x, which has 2 or 3 columns.

    The squared columns are added left to right and the square root taken:
    the bits of np.linalg.norm(x, axis=-1), with a RuntimeWarning wherever
    it overflows, several times faster on a short axis.  Every row norm of
    the plane and of the sphere's chordal metric is taken here; a 1-D
    vector's length (np.linalg.norm(v), a dot product) may round
    differently.
    """
    x = np.asarray(x, dtype=float)
    total = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        total += x[..., j] * x[..., j]
    return np.sqrt(total)


def in_open_disk(z):
    """Whether each complex z has np.abs(z) < 1, the |z| that hyperbolic._dist
    divides by (math.hypot and Python's abs can round it one ulp lower)."""
    return np.abs(z) < 1.0


# what points_admitted asks of the points of each space, as refusals word it
SPACE_RULE = {
    "plane": "have coordinates within +-1e100",
    "sphere": "be a unit vector",
    "disk": "lie strictly inside the unit disk",
}


def points_admitted(space, pts):
    """Whether each row of pts is a point of the space: a row of the plane
    with coordinates within +-1e100 (the bound basis_defect puts on basis
    rows, past which squared distances overflow), a row of norm within 1e-9
    of 1 on the sphere, one in_open_disk admits on the disk."""
    if space == "disk":
        return in_open_disk(as_complex(pts))
    if space == "sphere":
        with np.errstate(over="ignore"):  # a square past the float range is inf, and fails
            return np.abs(row_norms(pts) - 1.0) <= 1e-9
    return np.all(np.abs(pts) <= 1e100, axis=-1)


def lagrange_reduce(basis):
    """Shortest-vector basis of a 2d lattice (|v1| <= |v2|, |v1.v2| <= |v1|^2 / 2)."""
    v1, v2 = np.array(basis, dtype=float)
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


def basis_defect(basis):
    """Why a 2x2 basis spans no lattice the kernels can measure, or None:
    rows past 1e100, where squared distances overflow; rows dependent
    relative to their length, |det| <= 1e-12 max(|v1|^2, |v2|^2), at any
    scale; or a lattice vector shorter than 1e-4, 100 times the default
    class_tol, where classes merge (at 1e-7 all within the cutoff are one)."""
    (a, b), (c, d) = rows = np.asarray(basis, dtype=float).tolist()
    if not all(1e-4 <= math.hypot(*row) <= 1e100 for row in rows):
        return "basis rows must have lengths between 1e-4 and 1e100"
    if abs(a * d - b * c) <= 1e-12 * max(a * a + b * b, c * c + d * d):
        return "basis vectors must be linearly independent"
    if math.hypot(*lagrange_reduce(rows)[0]) < 1e-4:
        return "the lattice must have no vector shorter than 1e-4"
    return None
