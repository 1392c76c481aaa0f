"""Property tests of the neighbour kernel: points_within and distance_classes
agree with a scan of every point on random periodic, finite-plane, sphere and
patch inputs (same points, same class sizes, distances within 1e-12); the
neighbour index of finite sets and patches returns exactly the arrays of an
all-pairs scan, on inputs built to sit at its edges; and contains_many
agrees with a per-probe scan.  Skipped when hypothesis is not installed."""
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from balanced_configs.configs import (  # noqa: E402
    FinitePointSet,
    PatchConfig,
    PeriodicConfig,
    _neighbors,
    _pair_dists,
    _shift_grid,
    contains_many,
    distance_classes,
    min_distance,
    points_within,
)
from balanced_configs.errors import AmbiguousClassError, InvalidPointError  # noqa: E402
from balanced_configs.generators import SubsetFlags, gen_sphere  # noqa: E402
from balanced_configs.geometry import DEFAULT_TOL  # noqa: E402
from balanced_configs.verify import check_min_distance_property  # noqa: E402

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


# ---------------------------------------------------------------------------
# the neighbour index of finite sets and patches against all-pairs scans

def _all_pairs(c, bases, reach, dedup_tol):
    """The kernel's arrays from every (base, point) pair, distances by the
    kernel's own formula, so the two must agree exactly."""
    space = "disk" if isinstance(c, PatchConfig) else c.space
    pts = c.points[np.lexsort(c.points.T[::-1])]
    owner = np.repeat(np.arange(len(bases)), len(pts))
    idx = np.tile(np.arange(len(pts)), len(bases))
    d = _pair_dists(space, bases[owner], pts[idx])
    keep = (d <= reach) & (d > dedup_tol)
    owner, idx, d = owner[keep], idx[keep], d[keep]
    order = np.lexsort((idx, d, owner))
    return owner[order], pts[idx[order]], d[order]


def _assert_index_matches(c, bases, reach, dedup_tol=TOL.dedup_tol):
    bases = np.asarray(bases, dtype=float)
    got = _neighbors(c, bases, reach, dedup_tol)
    want = _all_pairs(c, bases, reach, dedup_tol)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# query radii from dedup_tol up to balls wider than the sets
_reach = st.one_of(
    st.sampled_from([TOL.dedup_tol, 2.0 * TOL.dedup_tol, 1e-6, 1e-3]), st.floats(0.01, 6.0)
)
# angles either side of the seam at +-pi, and anywhere
_seam_angle = st.one_of(
    st.builds(
        lambda s, e: s * (math.pi - e),
        st.sampled_from([1.0, -1.0]),
        st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3]),
    ),
    _angle,
)


@settings(max_examples=80, deadline=None)
@given(
    polar=st.lists(st.tuples(st.floats(0.0, 3.0), _seam_angle), min_size=1, max_size=30),
    shift=st.sampled_from([0.0, 1.0, -1e6, 1e6]),
    probes=st.lists(st.tuples(st.floats(-4.0, 4.0), _seam_angle), max_size=4),
    reach=_reach,
    repeat=st.booleans(),
)
def test_index_matches_all_pairs_plane(polar, shift, probes, reach, repeat):
    # the set is symmetric about (shift, shift), which is then the chart
    # origin: its points sit either side of the seam, and balls about the
    # probes may contain the origin
    half = np.array([(r * math.cos(t), r * math.sin(t)) for r, t in polar])
    pts = np.vstack([half, -half]) + shift
    if repeat:  # exact duplicates
        pts = np.vstack([pts, pts[:3]])
    c = FinitePointSet("plane", pts)
    probes = [(r * math.cos(t) + shift, r * math.sin(t) + shift) for r, t in probes]
    bases = np.vstack([pts[:5], np.array(probes).reshape(-1, 2)])
    _assert_index_matches(c, bases, reach)


@settings(max_examples=80, deadline=None)
@given(
    polar=st.lists(
        st.tuples(
            st.one_of(st.floats(0.0, 0.99), st.floats(0.1, 9.0).map(lambda k: 1.0 - 10.0**-k)), _seam_angle
        ),
        min_size=1,
        max_size=30,
    ),
    reach=_reach,
    centre=st.booleans(),
)
def test_index_matches_all_pairs_disk(polar, reach, centre):
    # 1 - |z| down to 1e-9, angles either side of the seam, and (with the
    # centre as a base) balls about the chart origin
    pts = np.array([(r * math.cos(t), r * math.sin(t)) for r, t in polar])
    c = PatchConfig(pts, 1.0)
    bases = np.vstack([pts[:6], np.zeros((1, 2))]) if centre else pts[:6]
    _assert_index_matches(c, bases, reach)
    _assert_index_matches(FinitePointSet("disk", pts), bases, reach)


@settings(max_examples=80, deadline=None)
@given(
    vecs=st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=30),
    poles=st.sampled_from([(), ((0.0, 0.0, 1.0),), ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))]),
    reach=_reach.filter(lambda r: r <= 2.5),
)
def test_index_matches_all_pairs_sphere(vecs, poles, reach):
    v = np.array(vecs)
    norms = np.linalg.norm(v, axis=1)
    assume(np.all(norms > 1e-3))
    pts = np.vstack([v / norms[:, None]] + [np.array(poles).reshape(-1, 3)])
    c = FinitePointSet("sphere", pts)
    _assert_index_matches(c, pts[-6:], reach)


def test_index_matches_all_pairs_on_the_equator():
    # ngon(1000): 1000 points on one chart circle plus both poles
    c = gen_sphere("ngon(1000)", SubsetFlags(True, False, False))
    m = min_distance(c)
    for reach in (TOL.dedup_tol, m, 2.0 * m + 1e-6, 3.5 * m):
        _assert_index_matches(c, c.points, reach)


@settings(max_examples=60, deadline=None)
@given(
    pts=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=12),
    line=st.booleans(),
    space=st.sampled_from(["plane", "disk"]),
)
def test_min_distance_with_duplicates_and_collinear_points(pts, line, space):
    pts = np.array(pts, dtype=float)
    if line:  # collinear: every point on a slanted line
        pts = np.outer(pts[:, 0], [math.cos(0.3), math.sin(0.3)])
    if space == "disk":
        pts = pts / 4.5
    c = FinitePointSet(space, pts)
    # every ordered pair: on the disk d(p, q) and d(q, p) may differ in the last bit
    i, j = np.nonzero(~np.eye(len(pts), dtype=bool))
    d = _pair_dists(space, pts[i], pts[j])
    assert min_distance(c) == d.min()
    out = check_min_distance_property(c)
    assert out["min_d"] == d.min()
    p, q = (np.array(v) for v in out["pair"])
    assert _pair_dists(space, p, q) == d.min()


@settings(max_examples=60, deadline=None)
@given(
    space=st.sampled_from(["plane", "sphere", "disk"]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0]),
)
def test_finite_contains_many_at_dedup_tol(space, seed, scale):
    rng = np.random.default_rng(seed)
    dim = 3 if space == "sphere" else 2
    pts = rng.normal(size=(20, dim))
    if space == "sphere":
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    if space == "disk":
        pts *= 0.9 / np.linalg.norm(pts, axis=1).max()
    c = FinitePointSet(space, pts)
    steps = rng.normal(size=(20, dim))
    probes = np.vstack([pts, pts + scale * TOL.dedup_tol * steps / np.linalg.norm(steps, axis=1)[:, None]])
    want = [bool((np.linalg.norm(pts - p, axis=1) <= TOL.dedup_tol).any()) for p in probes]
    assert contains_many(c, probes).tolist() == want


@settings(max_examples=60, deadline=None)
@given(
    angle=st.floats(0.5, math.pi - 0.5),
    aspect=st.floats(0.5, 2.0),
    motif=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0, 1e6]),
)
def test_periodic_contains_many_matches_probe_scan(angle, aspect, motif, seed, scale):
    basis = np.array([(1.0, 0.0), (aspect * math.cos(angle), aspect * math.sin(angle))])
    try:
        c = PeriodicConfig(basis, motif)
    except InvalidPointError:
        assume(False)
    rng = np.random.default_rng(seed)
    # motif translates, on cell boundaries too, moved by up to a few dedup_tol
    cells = rng.integers(-3, 4, size=(30, 2)).astype(float)
    centres = (c.motif[rng.integers(0, c.k, 30)] + cells) @ basis
    steps = rng.normal(size=(30, 2))
    probes = centres + scale * TOL.dedup_tol * steps / np.linalg.norm(steps, axis=1)[:, None]
    inv = np.linalg.inv(basis)
    want = []
    for p in probes:
        frac = np.mod(p @ inv, 1.0)
        d = [np.linalg.norm((frac - m - s) @ basis) for m in c.motif for s in _shift_grid()]
        want.append(min(d) <= TOL.dedup_tol)
    assert contains_many(c, probes).tolist() == want


@settings(max_examples=80, deadline=None)
@given(
    space=st.sampled_from(["plane", "sphere", "disk"]),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([1e-9, 1e-6, 1e-3, 1.0]),
    shift=st.sampled_from([0.0, 1e6]),
)
def test_index_keeps_points_on_the_ball_boundary(space, seed, spread, shift):
    # each query radius is the kernel's own distance to one point, so that
    # point lies exactly on the ball's boundary and must be returned
    rng = np.random.default_rng(seed)
    dim = 3 if space == "sphere" else 2
    pts = rng.normal(size=(40, dim))
    pts[20:] = pts[:20] + spread * rng.normal(size=(20, dim))
    if space == "sphere":
        pts /= np.linalg.norm(pts, axis=1)[:, None]
    elif space == "disk":
        pts *= ((1.0 - 10.0 ** rng.uniform(-9.0, -0.1, size=40)) / np.linalg.norm(pts, axis=1))[:, None]
    else:
        pts += shift
    c = FinitePointSet(space, pts)
    for b in range(20):
        reach = float(_pair_dists(space, pts[b], pts[20 + b]))
        _assert_index_matches(c, pts[b : b + 1], reach, dedup_tol=0.0)


def test_contains_many_is_inclusive_at_dedup_tol():
    probes = [(TOL.dedup_tol, 0.0), (2.0 * TOL.dedup_tol, 0.0)]
    assert contains_many(PeriodicConfig(np.eye(2), [(0.0, 0.0)]), probes).tolist() == [True, False]
    assert contains_many(FinitePointSet("plane", [(0.0, 0.0), (5.0, 5.0)]), probes).tolist() == [True, False]
