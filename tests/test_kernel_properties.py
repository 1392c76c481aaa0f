"""Property tests of the neighbour kernel: points_within and distance_classes
agree with a scan of every point on random periodic, finite-plane, sphere and
patch inputs (same points, same class sizes, distances within 1e-12).
Skipped when hypothesis is not installed."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from balanced_configs.configs import (  # noqa: E402
    FinitePointSet,
    PatchConfig,
    PeriodicConfig,
    distance_classes,
    points_within,
)
from balanced_configs.errors import AmbiguousClassError, InvalidPointError  # noqa: E402
from balanced_configs.geometry import DEFAULT_TOL  # noqa: E402

TOL = DEFAULT_TOL
# inputs with a distance or a gap this close to a threshold are skipped: the
# scan computes distances by its own formula, which may round differently
_MARGIN = 1e-9

_unit = st.floats(0.0, 1.0, exclude_max=True)
_coord = st.floats(-3.0, 3.0)
_angle = st.floats(0.0, 2.0 * math.pi)
# a shell of points about the base: its radius as a fraction of the query
# radius (1.0 puts it on the cutoff), and per point an offset that keeps it
# in one class (4e-7), splits it off ambiguously (1.5e-6) or cleanly (2.5e-6)
_shell = st.tuples(
    st.one_of(st.just(1.0), st.floats(0.2, 1.0)),
    st.lists(st.tuples(st.sampled_from([0.0, 4e-7, 1.5e-6, 2.5e-6]), _angle), max_size=6),
)


def _scan_periodic(c, base, reach):
    """Every motif translate within reach of base, from a box of cells wide
    enough to hold the ball."""
    span = int(reach / np.linalg.svd(c.basis, compute_uv=False).min()) + 2
    n = np.arange(-span, span + 1, dtype=float)
    cells = np.stack(np.meshgrid(n, n, indexing="ij"), -1).reshape(-1, 2)
    cells += np.round(base @ np.linalg.inv(c.basis))
    pts = (c.motif[:, None, :] + cells[None, :, :]).reshape(-1, 2) @ c.basis
    return pts, np.linalg.norm(pts - base, axis=1)


def _scan(c, base, reach):
    if isinstance(c, PeriodicConfig):
        return _scan_periodic(c, base, reach)
    if isinstance(c, PatchConfig):
        # sinh(d/2) = |z - b| / sqrt((1 - |z|^2)(1 - |b|^2)), a formula the
        # kernel does not use
        z2 = np.sum(c.points**2, axis=1)
        s = np.linalg.norm(c.points - base, axis=1) / np.sqrt((1.0 - z2) * (1.0 - base @ base))
        return c.points, 2.0 * np.arcsinh(s)
    return c.points, np.linalg.norm(c.points - base, axis=1)


def _check_against_scan(c, base, radius):
    reach = radius + TOL.class_tol
    pts, d = _scan(c, np.asarray(base, dtype=float), reach)
    for edge in (reach, TOL.dedup_tol):
        assume(not np.any(np.abs(d - edge) < _MARGIN))
    keep = (d <= reach) & (d > TOL.dedup_tol)
    pts, d = pts[keep], d[keep]
    order = np.argsort(d, kind="stable")
    pts, d = pts[order], d[order]
    gaps = np.diff(d)
    assume(not np.any(np.abs(gaps - TOL.class_tol) < _MARGIN))

    _assert_same_rows(points_within(c, base, radius), pts)

    breaks = np.flatnonzero(gaps > TOL.class_tol) + 1
    groups = np.split(np.arange(len(d)), breaks) if len(d) else []
    means = np.array([d[g].mean() for g in groups])
    assume(not np.any(np.abs(np.diff(means) - 2.0 * TOL.class_tol) < _MARGIN))
    if np.any(np.diff(means) <= 2.0 * TOL.class_tol):
        with pytest.raises(AmbiguousClassError):
            distance_classes(c, base, radius)
        return
    classes = distance_classes(c, base, radius)
    assert [cl.size for cl in classes] == [len(g) for g in groups]
    for cl, g, m in zip(classes, groups, means):
        assert cl.distance == pytest.approx(m, abs=1e-12)
        _assert_same_rows(cl.points, pts[g])


def _assert_same_rows(a, b):
    """Same number of rows, each within 1e-12 per coordinate of a row of the
    other array."""
    assert a.shape == b.shape
    if len(a):
        gap = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
        assert gap.min(axis=1).max() <= 1e-12
        assert gap.min(axis=0).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    angle=st.floats(0.5, math.pi - 0.5),
    aspect=st.floats(0.5, 2.0),
    motif=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=4),
    base_frac=st.one_of(st.none(), st.tuples(_unit, _unit)),
    radius=st.floats(0.1, 3.0),
)
def test_periodic_matches_scan(angle, aspect, motif, base_frac, radius):
    basis = np.array([(1.0, 0.0), (aspect * math.cos(angle), aspect * math.sin(angle))])
    try:
        c = PeriodicConfig(basis, motif)
    except InvalidPointError:
        assume(False)
    base = c.cartesian_motif()[0] if base_frac is None else np.array(base_frac) @ basis
    _check_against_scan(c, base, radius)


@settings(max_examples=60, deadline=None)
@given(
    pts=st.lists(st.tuples(_coord, _coord), min_size=2, max_size=40),
    radius=st.floats(0.1, 4.0),
    shell=_shell,
)
def test_finite_plane_matches_scan(pts, radius, shell):
    base = np.array(pts[0])
    frac, members = shell
    ring = [base + (frac * radius + dr) * np.array([math.cos(t), math.sin(t)]) for dr, t in members]
    c = FinitePointSet("plane", np.vstack([pts] + ring))
    _check_against_scan(c, base, radius)


@settings(max_examples=60, deadline=None)
@given(
    vecs=st.lists(st.tuples(_coord, _coord, _coord), min_size=2, max_size=40),
    radius=st.floats(0.1, 2.0),
)
def test_sphere_matches_scan(vecs, radius):
    v = np.array(vecs)
    norms = np.linalg.norm(v, axis=1)
    assume(np.all(norms > 1e-3))
    c = FinitePointSet("sphere", v / norms[:, None])
    _check_against_scan(c, c.points[0], radius)


@settings(max_examples=60, deadline=None)
@given(
    polar=st.lists(st.tuples(st.floats(0.0, 0.9), _angle), min_size=2, max_size=40),
    radius=st.floats(0.1, 4.0),
    shell=_shell,
)
def test_patch_matches_scan(polar, radius, shell):
    z = [r * complex(math.cos(t), math.sin(t)) for r, t in polar]
    b = z[0]
    frac, members = shell
    for dr, t in members:
        # the point at hyperbolic distance frac * radius + dr from b
        w = math.tanh((frac * radius + dr) / 2.0) * complex(math.cos(t), math.sin(t))
        z.append((w + b) / (1.0 + b.conjugate() * w))
    c = PatchConfig(np.array([(p.real, p.imag) for p in z]), 1.0)
    _check_against_scan(c, c.points[0], radius)
