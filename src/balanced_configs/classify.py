"""Rotational-symmetry search and classification of planar configurations.

Classification reduces the input to a primitive reduced cell, rescales so the
minimal distance is 1, and dispatches on motif size and lattice shape; every
candidate verdict is validated by regenerating the family from the recovered
canonical parameters and probing membership both ways.  A failed validation
falls back to Unknown rather than raising.

The symmetry search considers rotations only: a planar isometry fixing a
single point is a nontrivial rotation about it, so nothing else can witness
group-balance.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import generators
from .configs import (
    FinitePointSet,
    PeriodicConfig,
    _cluster,
    _neighbors,
    _ranges,
    canonical_basis,
    contains,
    contains_many,
    distance_classes,
    min_distance,
    points_within,
    primitive_periods,
)
from .geometry import DEFAULT_TOL
from .verify import _base_points_for

TRIANGULAR_LATTICE = "TriangularLattice"
LATTICE = "Lattice"
LATTICE_WITH_MIDPOINTS = "LatticeWithMidpoints"
HEX_VERTICES = "HexVertices"
HEX_WITH_MIDPOINTS = "HexWithMidpoints"
HEX_WITH_MIDPOINTS_AND_CENTERS = "HexWithMidpointsAndCenters"
LINE = "Line"
UNKNOWN = "Unknown"

CLASS_TAGS = (
    TRIANGULAR_LATTICE,
    LATTICE,
    LATTICE_WITH_MIDPOINTS,
    HEX_VERTICES,
    HEX_WITH_MIDPOINTS,
    HEX_WITH_MIDPOINTS_AND_CENTERS,
    LINE,
    UNKNOWN,
)

_HEX_SHAPE_TOL = 1e-9
_ANGLE_TOL = 1e-7


@dataclass(frozen=True)
class SymmetryWitness:
    """A validated rotation mapping the configuration to itself about center."""

    center: tuple
    angle: float


@dataclass(frozen=True)
class GroupBalanceResult:
    verdict: bool
    witnesses: tuple


@dataclass(frozen=True)
class ConfigClass:
    tag: str
    canonical_params: dict


def _rotation_angles(c, bases, min_d, tol):
    """rotation_symmetries_about for each row of bases, batched.

    One kernel call gives every base's validation window, and with it the
    first class of every base that has a neighbour at the minimal distance;
    one membership probe validates every rotated window.
    """
    owner, pts, d = _neighbors(c, bases, 4.0 * min_d + tol.class_tol, tol.dedup_tol)
    count = np.bincount(owner, minlength=len(bases))
    start = np.cumsum(count) - count
    near = d <= min_d + tol.class_tol
    # the minimal-distance shell holds at most one class per base: the
    # clusterer raises AmbiguousClassError on two, as distance_classes does
    _cluster(owner[near], d[near], tol.class_tol)
    shells = np.split(pts[near], np.cumsum(np.bincount(owner[near], minlength=len(bases)))[:-1])
    cands = []
    for p, first in zip(bases, shells):
        radius = 2.0 * min_d
        while len(first) == 0 and radius <= 128.0 * min_d:
            # the nearest class lies farther out (hexagon face centers)
            classes = distance_classes(c, p, radius, tol)
            first = classes[0].points if classes else first
            radius *= 2.0
        rel = (first[:, 0] - p[0]) + 1j * (first[:, 1] - p[1])
        angles = {round(math.pi, 12)} if len(rel) else set()
        for w in rel:
            ang = cmath.phase(w / rel[0]) % (2.0 * math.pi)
            if 1e-9 < ang < 2.0 * math.pi - 1e-9:
                angles.add(round(ang, 12))
        cands.append(sorted(angles))
    # probes: every window point of every base, under each of its candidates
    cand_owner = np.repeat(np.arange(len(bases)), [len(a) for a in cands])
    cand_angle = [a for angles in cands for a in angles]
    rotors = np.array([cmath.exp(1j * a) for a in cand_angle], dtype=complex)
    probe_cand = np.repeat(np.arange(len(cand_owner)), count[cand_owner])
    probe = _ranges(start[cand_owner], count[cand_owner])
    centre = bases[owner[probe]]
    rot = ((pts[probe, 0] - centre[:, 0]) + 1j * (pts[probe, 1] - centre[:, 1])) * rotors[probe_cand]
    hit = contains_many(c, np.column_stack([rot.real + centre[:, 0], rot.imag + centre[:, 1]]), tol)
    valid = np.bincount(probe_cand[~hit], minlength=len(cand_owner)) == 0
    out = [[] for _ in bases]
    for i, a, ok in zip(cand_owner.tolist(), cand_angle, valid.tolist()):
        if ok:
            out[i].append(float(a))
    return out


def rotation_symmetries_about(c, p, tol=DEFAULT_TOL):
    """All rotation angles in (0, 2*pi) about p, ascending, that map the
    configuration to itself on a validation window of radius 4x the minimal
    distance.

    Candidates come from the angles between members of the first distance
    class at p (any symmetry fixing p permutes that class), plus pi.
    """
    p = np.asarray(p, dtype=float).reshape(1, 2)
    if not contains(c, p, tol):
        raise ValueError("symmetry center must belong to the configuration")
    return _rotation_angles(c, p, min_distance(c, tol), tol)[0]


def is_group_balanced(c, tol=DEFAULT_TOL):
    """Whether every checked point admits a nontrivial rotation fixing only it.

    For periodic input the motif representatives are checked; for a finite
    planar window, only points far enough from the boundary that their
    validation window lies inside the set.  Each witness is the smallest
    validated angle.
    """
    if not (isinstance(c, PeriodicConfig) or (isinstance(c, FinitePointSet) and c.space == "plane")):
        raise ValueError("group-balance detection requires planar input")
    min_d = min_distance(c, tol)
    # motif representatives need no window
    reach = 0.0 if isinstance(c, PeriodicConfig) else 4.0 * min_d + min_d
    bases = _base_points_for(c, reach, tol)
    witnesses = tuple(
        SymmetryWitness(center=tuple(p), angle=angles[0]) if angles else None
        for p, angles in zip(bases, _rotation_angles(c, bases, min_d, tol))
    )
    return GroupBalanceResult(verdict=None not in witnesses, witnesses=witnesses)


def neighbor_case_signature(c, tol=DEFAULT_TOL):
    """Per-motif-point count of neighbors at the global minimal distance,
    sorted descending.  Points whose nearest class lies farther out (hexagon
    face centers) contribute 0."""
    if not isinstance(c, PeriodicConfig):
        raise ValueError("neighbor signatures are defined for periodic configurations")
    reach = min_distance(c, tol) + tol.class_tol
    owner = _neighbors(c, c.cartesian_motif(), reach, tol.dedup_tol)[0]
    return tuple(sorted(np.bincount(owner, minlength=c.k).tolist(), reverse=True))


# ---------------------------------------------------------------------------
# classification


def _neighbor_dirs(c, p, radius, tol):
    nbrs = points_within(c, p, radius, tol)
    return (nbrs[:, 0] - p[0]) + 1j * (nbrs[:, 1] - p[1])


def _gaps_equal(dirs, count, gap):
    """Directions must number `count` with consecutive angular gaps `gap`."""
    if len(dirs) != count:
        return False
    angles = np.sort(np.mod(np.angle(dirs), 2.0 * math.pi))
    diffs = np.diff(np.concatenate([angles, [angles[0] + 2.0 * math.pi]]))
    return bool(np.all(np.abs(diffs - gap) < _ANGLE_TOL))


def _is_hex_shaped(basis):
    n1 = float(np.linalg.norm(basis[0]))
    n2 = float(np.linalg.norm(basis[1]))
    if abs(n1 - n2) > _HEX_SHAPE_TOL * max(n1, n2):
        return False
    cosang = float(basis[0] @ basis[1]) / (n1 * n2)
    return abs(math.acos(min(1.0, max(-1.0, cosang))) - math.pi / 3.0) < _HEX_SHAPE_TOL


def _half_coset(dfrac):
    """Integer class in (Z/2)^2 of a fractional vector that is half a lattice
    vector; None if it is not."""
    doubled = np.mod(2.0 * np.asarray(dfrac), 2.0)
    rounded = np.round(doubled)
    if np.max(np.abs(doubled - rounded)) > 1e-9:
        return None
    cls = tuple(int(x) % 2 for x in rounded)
    return cls if cls != (0, 0) else None


def _sets_agree(a, b, tol):
    """Probe-based agreement of two periodic configurations: every motif point
    and its one-cell translates of each must belong to the other."""
    for src, dst in ((a, b), (b, a)):
        cart = src.cartesian_motif()
        shifts = np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
        probes = (cart[:, None, :] + (shifts @ src.basis)[None, :, :]).reshape(-1, 2)
        if not np.all(contains_many(dst, probes, tol)):
            return False
    return True


def _classify_line(c, tol):
    pts = c.points
    if len(pts) < 2:
        return ConfigClass(UNKNOWN, {})
    # extremes along the principal direction, then distances to their chord
    centered = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    t = centered @ vt[0]
    lo, hi = int(np.argmin(t)), int(np.argmax(t))
    chord = pts[hi] - pts[lo]
    length = float(np.linalg.norm(chord))
    if length <= tol.dedup_tol:
        return ConfigClass(UNKNOWN, {})
    direction = chord / length
    offsets = (pts - pts[lo]) @ np.array([-direction[1], direction[0]])
    if float(np.max(np.abs(offsets))) > tol.dedup_tol:
        return ConfigClass(UNKNOWN, {})
    proj = np.sort((pts - pts[lo]) @ direction)
    gaps = np.diff(proj)
    spacing = float(gaps.mean())
    if np.max(np.abs(gaps - spacing)) > tol.class_tol:
        return ConfigClass(UNKNOWN, {})
    return ConfigClass(
        LINE,
        {
            "spacing": spacing,
            "n": len(pts),
            "anchor": tuple(pts[lo]),
            "direction": tuple(direction),
        },
    )


def classify(c, tol=DEFAULT_TOL):
    """Assign a configuration to one of the periodic planar families, or Line
    for an evenly spaced collinear finite set; Unknown is the fallback verdict
    and never an exception."""
    if isinstance(c, FinitePointSet):
        if c.space != "plane":
            raise ValueError("classification requires planar input")
        return _classify_line(c, tol)
    if not isinstance(c, PeriodicConfig):
        raise ValueError("classification requires a PeriodicConfig or planar FinitePointSet")
    try:
        prim = primitive_periods(c, tol)
        result = _classify_primitive(prim, tol)
    except Exception:
        return ConfigClass(UNKNOWN, {})
    if result.tag == UNKNOWN:
        return result
    regen = regenerate(result)
    if not _sets_agree(prim, regen, tol):
        return ConfigClass(UNKNOWN, {})
    return result


def _classify_primitive(prim, tol):
    min_d = min_distance(prim, tol)
    cart = prim.cartesian_motif()
    k = prim.k
    if k == 1:
        params = {"basis": prim.basis.tolist(), "origin": tuple(cart[0])}
        if _is_hex_shaped(prim.basis):
            params["side"] = float(np.linalg.norm(prim.basis[0]))
            return ConfigClass(TRIANGULAR_LATTICE, params)
        return ConfigClass(LATTICE, params)
    if k == 3:
        return _classify_lattice_midpoints(prim, tol)
    if k == 2:
        return _classify_hex(prim, cart, min_d, tol, HEX_VERTICES)
    if k == 5:
        return _classify_hex(prim, cart, min_d, tol, HEX_WITH_MIDPOINTS)
    if k == 6:
        return _classify_hex(prim, cart, min_d, tol, HEX_WITH_MIDPOINTS_AND_CENTERS)
    return ConfigClass(UNKNOWN, {})


def _classify_lattice_midpoints(prim, tol):
    """k = 3: motif must consist of a vertex plus the two edge-midpoint
    half-classes; the basis is adjusted so its half-vectors land exactly in
    those two classes."""
    d1 = _half_coset(np.mod(prim.motif[1] - prim.motif[0], 1.0))
    d2 = _half_coset(np.mod(prim.motif[2] - prim.motif[0], 1.0))
    if d1 is None or d2 is None or d1 == d2:
        return ConfigClass(UNKNOWN, {})
    red = canonical_basis(prim)
    # express the reduced basis vectors' half-classes and adjust so that
    # {basis[0]/2, basis[1]/2} realizes exactly {d1, d2}
    inv = np.linalg.inv(prim.basis)
    b = red.basis
    cls = []
    for row in b:
        coeffs = row @ inv
        cls.append(tuple(int(round(x)) % 2 for x in coeffs))
    missing = tuple((d1[i] + d2[i]) % 2 for i in range(2))
    w1, w2 = b[0], b[1]
    if cls[0] == missing:
        w1 = b[0] + b[1]
    elif cls[1] == missing:
        w2 = b[0] + b[1]
    origin = prim.cartesian_motif()[0]
    return ConfigClass(
        LATTICE_WITH_MIDPOINTS,
        {"basis": np.array([w1, w2]).tolist(), "origin": tuple(origin)},
    )


def _classify_hex(prim, cart, min_d, tol, tag):
    """k in {2, 5, 6}: hexagon-tiling families, recognized by the neighbor
    pattern at the minimal distance: vertices see 3 neighbors 120 degrees
    apart, edge midpoints 2 collinear ones, face centers none."""
    expected = {
        HEX_VERTICES: {3: 2},
        HEX_WITH_MIDPOINTS: {3: 2, 2: 3},
        HEX_WITH_MIDPOINTS_AND_CENTERS: {3: 2, 2: 3, 0: 1},
    }[tag]
    roles = {}
    counts = {}
    for i, p in enumerate(cart):
        dirs = _neighbor_dirs(prim, p, min_d, tol)
        n = len(dirs)
        counts[n] = counts.get(n, 0) + 1
        if n == 3 and not _gaps_equal(dirs, 3, 2.0 * math.pi / 3.0):
            return ConfigClass(UNKNOWN, {})
        if n == 2 and not _gaps_equal(dirs, 2, math.pi):
            return ConfigClass(UNKNOWN, {})
        roles.setdefault(n, []).append(i)
    if counts != expected:
        return ConfigClass(UNKNOWN, {})
    side = min_d if tag == HEX_VERTICES else 2.0 * min_d
    vertex_idx = roles[3][0]
    v0 = cart[vertex_idx]
    dirs = _neighbor_dirs(prim, v0, min_d, tol)
    theta_nb = float(np.angle(dirs[0]))
    rotation = theta_nb - math.pi / 6.0
    # the canonical hexagon tiling has a vertex at side * e^{i pi/6} whose
    # neighbors point along 30, 150, 270 degrees
    shift = complex(v0[0], v0[1]) - side * cmath.exp(1j * theta_nb)
    return ConfigClass(
        tag,
        {
            "side": side,
            "rotation": rotation,
            "translation": (shift.real, shift.imag),
        },
    )


def regenerate(cc):
    """Rebuild a configuration from classification output."""
    p = cc.canonical_params
    if cc.tag in (TRIANGULAR_LATTICE, LATTICE):
        basis = np.array(p["basis"], dtype=float)
        frac = np.asarray(p["origin"], dtype=float) @ np.linalg.inv(basis)
        return PeriodicConfig(basis, frac.reshape(1, 2))
    if cc.tag == LATTICE_WITH_MIDPOINTS:
        basis = np.array(p["basis"], dtype=float)
        origin = np.asarray(p["origin"], dtype=float)
        pts = np.array([origin, origin + basis[0] / 2.0, origin + basis[1] / 2.0])
        return PeriodicConfig(basis, pts @ np.linalg.inv(basis))
    if cc.tag in (HEX_VERTICES, HEX_WITH_MIDPOINTS, HEX_WITH_MIDPOINTS_AND_CENTERS):
        flags = {
            HEX_VERTICES: generators.SubsetFlags(vertices=True),
            HEX_WITH_MIDPOINTS: generators.SubsetFlags(vertices=True, edge_midpoints=True),
            HEX_WITH_MIDPOINTS_AND_CENTERS: generators.SubsetFlags(
                vertices=True, edge_midpoints=True, face_centers=True
            ),
        }[cc.tag]
        base = generators.gen_hexagonal(p["side"], flags)
        return base.transformed(rotation=p["rotation"], translation=p["translation"])
    if cc.tag == LINE:
        direction = np.asarray(p["direction"], dtype=float)
        anchor = np.asarray(p["anchor"], dtype=float)
        pts = anchor[None, :] + np.arange(p["n"])[:, None] * p["spacing"] * direction[None, :]
        return FinitePointSet("plane", pts)
    raise ValueError(f"cannot regenerate a configuration tagged {cc.tag!r}")
