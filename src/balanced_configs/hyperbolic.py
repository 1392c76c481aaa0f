"""Poincare disk model primitives.

Points are complex numbers z with |z| < 1.  Geodesics are diameters or
circular arcs meeting the unit circle at right angles.  The model is
conformal, so angles (and in particular unit tangent directions at a point
translated to the origin) agree with their Euclidean counterparts.

The public functions are as_disk_point, which coerces one point and checks
it by geometry.in_open_disk (np.abs(z) < 1, the |z| that _dist divides by),
and hyp_dist, hyp_log_dir, radial_dist and euclid_radius.  Every other map
is a private core (_translate, _untranslate, _dist, _log_dir, _midpoint,
_half_turn, _reflect_through, _segment_dist), the only home of its formula,
which takes points already known to lie in the open disk and checks none.
The tiling growth core, generators._grow, calls the cores directly and
checks its points itself.  _segment_dist, which it calls once
per edge, holds the circle through two points and raises
DegenerateDirectionError for two points so close near the boundary that
rounding leaves no circle through them.  _dist, the one disk distance, is
accurate up to the boundary and also takes numpy arrays; configs filters its
neighbour queries by it.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DegenerateDirectionError, InvalidPointError
from .geometry import in_open_disk


def as_disk_point(p):
    """Coerce a complex number or an (x, y) pair to a point of the open disk."""
    if isinstance(p, (complex, int, float)):
        z = complex(p)
    else:
        x, y = p
        z = complex(float(x), float(y))
    if not in_open_disk(z):  # NaN and infinite points fail too
        raise InvalidPointError(f"disk point must satisfy |z| < 1, got z = {z!r}")
    return z


def hyp_dist(a, b):
    """Hyperbolic distance between two disk points."""
    return float(_dist(as_disk_point(a), as_disk_point(b)))


def radial_dist(r):
    """Hyperbolic distance from the origin to a point at Euclidean radius r."""
    return math.log((1.0 + r) / (1.0 - r))


def euclid_radius(d):
    """Euclidean radius of the point at hyperbolic distance d from the origin."""
    return math.tanh(d / 2.0)


def _translate(c, z):
    return (z - c) / (1.0 - c.conjugate() * z)


def _dist(a, z):
    """Hyperbolic distance 2 asinh(|z - a| / sqrt((1 - |a|^2)(1 - |z|^2)));
    a and z may be complex numpy arrays that broadcast.  1 - |p|^2 is formed
    as (1 - |p|)(1 + |p|), whose first factor is exact, so near the boundary
    the error is that of rounding |p|, where atanh(|z - a| / |1 - conj(a) z|)
    rounds its argument to 1."""
    ra = np.abs(a)
    rz = np.abs(z)
    return 2.0 * np.arcsinh(np.abs(z - a) / np.sqrt((1.0 - ra) * (1.0 + ra) * (1.0 - rz) * (1.0 + rz)))


def _untranslate(c, w):
    return (w + c) / (1.0 + c.conjugate() * w)


def _log_dir(base, target, dedup_tol=1e-9):
    w = _translate(base, target)
    r = abs(w)
    if r <= dedup_tol:
        raise DegenerateDirectionError("cannot take a direction between coincident points")
    return w / r


def _midpoint(a, b):
    w = _translate(a, b)
    r = abs(w)
    if r == 0.0:
        return a
    # tanh(artanh(r)/2) without transcendental round trips
    rm = r / (1.0 + math.sqrt(1.0 - r * r))
    return _untranslate(a, (rm / r) * w)


def _half_turn(center, z):
    return _untranslate(center, -_translate(center, z))


def hyp_log_dir(base, target, dedup_tol=1e-9):
    """Unit initial direction (as a complex number in the chart at base
    translated to the origin) of the geodesic from base to target."""
    return _log_dir(as_disk_point(base), as_disk_point(target), dedup_tol)


def _reflect_through(a, b, z):
    """Reflect z across the geodesic through a and b.

    Conjugates the reflection to a diameter through the origin, which stays
    numerically stable even when the geodesic is nearly a diameter.
    """
    w = _translate(a, z)
    u = _log_dir(a, b)
    return _untranslate(a, u * u * w.conjugate())


def _segment_dist(a, b, end):
    """Hyperbolic distance from the origin to the geodesic segment [a, b];
    end is the hyperbolic distance from the origin to the nearer endpoint.

    Exact (up to roundoff): hyperbolic distance from the origin is monotone in
    Euclidean radius, so the nearest point of a circular arc is either the
    point of the full circle facing the origin (when it lies on the arc) or an
    endpoint.  Raises DegenerateDirectionError for two points so close near
    the boundary that rounding leaves no geodesic through them.
    """
    ab = b - a
    d = abs(ab)
    if d <= 1e-15:
        return end
    if d <= 1e-9:
        raise DegenerateDirectionError("two distinct points are required to span a geodesic")
    na = abs(a)
    nb = abs(b)
    cross = a.real * b.imag - a.imag * b.real
    scale = na * nb
    if d > scale:
        scale = d
    if abs(cross) <= 1e-13 * scale:
        # Collinear with the origin: the geodesic is a diameter, and the
        # distance is zero iff the origin sits between the endpoints on it.
        direction = ab / d
        ta = (a / direction).real
        tb = (b / direction).real
        if ta <= 0.0 <= tb or tb <= 0.0 <= ta:
            return 0.0
        return end
    # The geodesic is an arc of the circle |z - c| = radius orthogonal to the
    # unit circle: 2 c . p = |p|^2 + 1 for p in {a, b}.
    ra = na ** 2 + 1.0
    rb = nb ** 2 + 1.0
    det = 2.0 * cross
    c = complex((ra * b.imag - rb * a.imag) / det, (rb * a.real - ra * b.real) / det)
    nc = abs(c)
    r2 = nc ** 2 - 1.0
    if not r2 > 0.0:  # rounding of points 1e-6 apart near the boundary
        raise DegenerateDirectionError("the points are too close to resolve the geodesic through them")
    radius = math.sqrt(r2)
    # Is the point of the circle facing the origin inside the arc spanned by a and b?
    facing = (c - radius * (c / nc)) - c
    pa = cmath.phase((a - c) / facing)
    pb = cmath.phase((b - c) / facing)
    if pa <= 0.0 <= pb or pb <= 0.0 <= pa:
        return radial_dist(nc - radius)
    return end
