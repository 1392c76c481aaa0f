"""Tolerance policy and point coercion shared by every geometry.

The plane and chordal sphere distances live in the neighbour kernel of
``configs``, the sphere's tangent projection in ``verify.verify_sphere``,
and the Poincare disk maps in ``hyperbolic``.
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
