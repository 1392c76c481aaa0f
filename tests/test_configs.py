"""Configuration containers and distance queries, checked against exhaustive
translate-scan oracles built independently of the library's lattice
reduction."""
import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from balanced_configs import configs
from balanced_configs.classify import classify, is_group_balanced, regenerate
from balanced_configs.configs import (
    FinitePointSet,
    PatchConfig,
    PeriodicConfig,
    _dedup_fracs,
    _finer_lattice,
    _motif_gap,
    _neighbors,
    _period_denominator,
    _row_dots,
    _translate_steps,
    canonical_basis,
    contains,
    contains_many,
    distance_classes,
    min_distance,
    points_within,
    primitive_periods,
)
from balanced_configs.docio import parse_config
from balanced_configs.errors import (
    AmbiguousClassError,
    InvalidPointError,
    NoPairsError,
    ParameterDomainError,
    ValidationError,
)
from balanced_configs.generators import (
    RotationTilingParams,
    SubsetFlags,
    TriangleGroupParams,
    gen_hexagonal,
    gen_lattice,
    gen_line,
    gen_sphere,
    gen_triangular,
)
from balanced_configs.geometry import DEFAULT_TOL, Tolerance, as_vec, basis_defect
from balanced_configs.hyperbolic import hyp_dist
from balanced_configs.verify import VerifyParams, verify_plane


def brute_points_within(basis, motif_frac, base, radius, span=12):
    """Oracle: enumerate a large block of translates directly."""
    basis = np.asarray(basis, dtype=float)
    cart = np.asarray(motif_frac, dtype=float) @ basis
    out = []
    for i in range(-span, span + 1):
        for j in range(-span, span + 1):
            for m in cart:
                p = m + i * basis[0] + j * basis[1]
                d = math.hypot(p[0] - base[0], p[1] - base[1])
                if 1e-9 < d <= radius + 1e-6:
                    out.append((round(p[0], 9), round(p[1], 9)))
    return sorted(set(out))


class TestPeriodicConfig:
    def test_validation_rejects_singular_basis(self):
        with pytest.raises(Exception):
            PeriodicConfig(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([[0.0, 0.0]]))

    def test_motif_wrapped_to_unit_cell(self):
        c = PeriodicConfig(np.eye(2), np.array([[1.25, -0.25]]))
        assert np.allclose(c.motif, [[0.25, 0.75]])

    def test_tiny_negative_fraction_wraps_to_zero_not_one(self):
        c = PeriodicConfig(np.eye(2), np.array([[-1e-17, 0.0]]))
        assert c.motif[0, 0] < 1.0
        assert c.motif[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_duplicate_motif_rejected(self):
        with pytest.raises(Exception):
            PeriodicConfig(np.eye(2), np.array([[0.1, 0.1], [0.1, 0.1]]))

    def test_supercell_same_point_set(self):
        c = PeriodicConfig(
            np.array([[1.0, 0.0], [0.3, 1.1]]), np.array([[0.0, 0.0], [0.5, 0.5]])
        )
        s = c.supercell(2, 3)
        assert s.k == c.k * 6
        probes = c.cartesian_motif()
        for shift in ((0, 0), (1, 0), (0, 1), (-2, 5)):
            translated = probes + shift[0] * c.basis[0] + shift[1] * c.basis[1]
            assert contains_many(s, translated).all()

    def test_transformed_rigid_motion(self):
        c = PeriodicConfig(np.eye(2), np.array([[0.0, 0.0]]))
        t = c.transformed(rotation=math.pi / 2.0, translation=(1.0, 2.0), scale=2.0)
        assert contains(t, (1.0, 2.0))
        assert contains(t, (1.0, 4.0))
        assert min_distance(t) == pytest.approx(2.0, abs=1e-12)


class TestSpace:
    """Every container names its space; only FinitePointSet takes it as a
    field, the others hold it as a class constant."""

    def test_space_of_each_container(self):
        assert PeriodicConfig(np.eye(2), np.zeros((1, 2))).space == "plane"
        assert PatchConfig(np.zeros((1, 2)), 1.0).space == "disk"
        for space, dim in (("plane", 2), ("sphere", 3), ("disk", 2)):
            pts = np.zeros((1, dim))
            pts[0, 0] = 1.0 if space == "sphere" else 0.0
            assert FinitePointSet(space, pts).space == space

    def test_space_is_no_init_field(self):
        names = {
            PeriodicConfig: ["basis", "motif", "labels", "_reduced", "_min_d"],
            PatchConfig: ["points", "patch_radius", "labels", "_index"],
            FinitePointSet: ["space", "points", "labels", "_index"],
        }
        for cls, want in names.items():
            assert [f.name for f in dataclasses.fields(cls)] == want
        with pytest.raises(TypeError):
            PeriodicConfig(np.eye(2), np.zeros((1, 2)), space="disk")
        with pytest.raises(TypeError):
            PatchConfig(np.zeros((1, 2)), 1.0, space="plane")


class TestTranslateSteps:
    """One rule picks the lattice translates that can reach a ball, for the
    periodic kernel and for render; a box past 2**31 translates per point is
    refused before it is allocated."""

    HEX = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])

    def test_box_covers_the_ball(self):
        inv, span, steps = _translate_steps(self.HEX, 3.0)
        assert np.array_equal(inv, np.linalg.inv(self.HEX))
        assert steps.shape == (int(2 * span[0] + 1) * int(2 * span[1] + 1), 2)
        # every translate of the origin within the ball, seen from base
        base = np.array([0.3, -0.2])
        box = np.ceil(base @ inv - span) + steps
        near = brute_points_within(self.HEX, [[0.0, 0.0]], base, 3.0)
        got = {(round(x, 9), round(y, 9)) for x, y in (box @ self.HEX).tolist()}
        assert set(near) <= got

    def test_radius_2000_is_not_refused(self):
        # the hexagonal document verifies at --max-radius 2000 (a 2.5 GB
        # query); only the helper runs here
        _, _, steps = _translate_steps(self.HEX, 2000.0 + DEFAULT_TOL.class_tol)
        assert len(steps) == 4621 * 4621

    @pytest.mark.parametrize("radius", [1e5, 1e9, 1e300, 1.7e308, math.inf, math.nan])
    def test_oversized_box_refused(self, radius):
        with pytest.raises(ParameterDomainError, match=r"more than 2\*\*31 translates"):
            _translate_steps(self.HEX, radius)


class TestDistanceQueries:
    def setup_method(self):
        self.basis = np.array([[1.0, 0.0], [0.4, 1.2]])
        self.motif = np.array([[0.0, 0.0], [0.37, 0.61]])
        self.config = PeriodicConfig(self.basis, self.motif)

    def test_points_within_matches_brute_force(self):
        base = self.config.cartesian_motif()[1]
        for radius in (1.0, 2.5, 4.0):
            got = points_within(self.config, base, radius)
            want = brute_points_within(self.basis, self.motif, base, radius)
            got_set = sorted({(round(p[0], 9), round(p[1], 9)) for p in got})
            assert got_set == want

    def test_points_within_sorted_by_distance(self):
        base = self.config.cartesian_motif()[0]
        pts = points_within(self.config, base, 3.0)
        d = np.linalg.norm(pts - base, axis=1)
        assert (np.diff(d) >= -1e-9).all()

    def test_min_distance_matches_brute_force(self):
        pts = brute_points_within(self.basis, self.motif, (0.0, 0.0), 5.0)
        cart = self.config.cartesian_motif()
        best = math.inf
        for b in cart:
            for p in pts:
                d = math.hypot(p[0] - b[0], p[1] - b[1])
                if d > 1e-9:
                    best = min(best, d)
        assert min_distance(self.config) == pytest.approx(best, abs=1e-9)

    def test_distance_classes_group_equal_distances(self):
        tri = PeriodicConfig(
            np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]), np.array([[0.0, 0.0]])
        )
        classes = distance_classes(tri, (0.0, 0.0), 2.1)
        dists = [cl.distance for cl in classes]
        sizes = [cl.size for cl in classes]
        assert dists == pytest.approx([1.0, math.sqrt(3.0), 2.0], abs=1e-9)
        assert sizes == [6, 6, 6]

    def test_distance_classes_ambiguity_raises(self):
        # gap of 1.5 * class_tol: too wide to merge, too narrow to separate
        c = FinitePointSet(
            "plane", np.array([[0.0, 0.0], [1.0, 0.0], [-1.0 - 1.5e-7, 0.0]])
        )
        tol = Tolerance(class_tol=1e-7, residual_tol=1e-9, dedup_tol=1e-12)
        with pytest.raises(AmbiguousClassError):
            distance_classes(c, (0.0, 0.0), 2.0, tol)

    def test_finite_sphere_classes_use_chordal_distance(self):
        c = FinitePointSet(
            "sphere",
            np.array(
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]
            ),
        )
        classes = distance_classes(c, (1.0, 0.0, 0.0), 3.0)
        assert [cl.distance for cl in classes] == pytest.approx(
            [math.sqrt(2.0), 2.0], abs=1e-12
        )

    def test_min_distance_needs_two_points(self):
        with pytest.raises(NoPairsError):
            min_distance(FinitePointSet("plane", np.array([[0.0, 0.0]])))


class TestCanonicalBasis:
    def test_reduction_of_skewed_square(self):
        c = PeriodicConfig(np.array([[1.0, 0.0], [5.0, 1.0]]), np.array([[0.0, 0.0]]))
        red = canonical_basis(c)
        lens = sorted(np.linalg.norm(red.basis, axis=1))
        assert lens == pytest.approx([1.0, 1.0], abs=1e-12)
        # reduced basis spans the same lattice
        t = np.linalg.solve(red.basis.T, c.basis.T).T
        assert np.allclose(t, np.round(t), atol=1e-9)
        assert abs(abs(np.linalg.det(t)) - 1.0) < 1e-9

    def test_reduced_angle_between_60_and_90(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            basis = rng.uniform(-2.0, 2.0, (2, 2))
            if abs(np.linalg.det(basis)) < 0.1:
                continue
            c = PeriodicConfig(basis, np.array([[0.0, 0.0]]))
            red = canonical_basis(c)
            v1, v2 = red.basis
            cosang = np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
            assert -1e-9 <= cosang <= 0.5 + 1e-9
            t = np.linalg.solve(red.basis.T, basis.T).T
            assert np.allclose(t, np.round(t), atol=1e-7)


class TestPrimitivePeriods:
    def test_half_shift_motif_reduces_to_single_point(self):
        c = PeriodicConfig(np.eye(2), np.array([[0.0, 0.0], [0.5, 0.5]]))
        prim = primitive_periods(c)
        assert prim.k == 1
        assert abs(np.linalg.det(prim.basis)) == pytest.approx(0.5, abs=1e-9)

    def test_honeycomb_motif_is_already_primitive(self):
        basis = np.array([[math.sqrt(3.0), 0.0], [math.sqrt(3.0) / 2.0, 1.5]])
        c = PeriodicConfig(basis, np.array([[1 / 3.0, 1 / 3.0], [2 / 3.0, 2 / 3.0]]))
        prim = primitive_periods(c)
        assert prim.k == 2
        assert abs(np.linalg.det(prim.basis)) == pytest.approx(
            abs(np.linalg.det(basis)), abs=1e-9
        )

    def test_supercell_recovers_primitive_cell(self):
        base = PeriodicConfig(
            np.array([[1.1, 0.2], [-0.3, 0.9]]), np.array([[0.0, 0.0], [0.31, 0.47]])
        )
        sup = base.supercell(3, 2)
        prim = primitive_periods(sup)
        assert prim.k == base.k
        assert abs(np.linalg.det(prim.basis)) == pytest.approx(
            abs(np.linalg.det(base.basis)), abs=1e-9
        )
        assert contains_many(prim, base.cartesian_motif()).all()
        assert contains_many(base, prim.cartesian_motif()).all()


# the default tolerance, a fine one and a coarse one under which near
# motif pairs count as one point
_TOLERANCES = (DEFAULT_TOL, Tolerance(class_tol=1e-9, dedup_tol=1e-12), Tolerance(class_tol=0.1, dedup_tol=0.05))


def _reference_min_distance(c, tol):
    """Minimal distance by one kernel query at the full |v1| of the reduced
    basis, where every motif point has its own translate."""
    red = canonical_basis(c)
    reach = float(np.linalg.norm(red.basis[0])) + tol.class_tol
    return float(_neighbors(red, red.cartesian_motif(), reach, tol.dedup_tol)[2].min())


def _hnf_rows(rows):
    """Hermite-style upper triangular basis of the integer row span of rows,
    by repeated division along the first column."""
    rows = [list(map(int, r)) for r in rows if any(r)]
    # eliminate the first column down to a single pivot
    while True:
        nz = [r for r in rows if r[0] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[0]))
        small, big = nz[0], nz[1]
        q = big[0] // small[0]
        big[0] -= q * small[0]
        big[1] -= q * small[1]
        rows = [r for r in rows if any(r)]
    pivot0 = next((r for r in rows if r[0] != 0), None)
    seconds = [r[1] for r in rows if r[0] == 0 and r[1] != 0]
    if pivot0 is None or not seconds:
        raise ValueError("rows do not span a rank-2 sublattice")
    g = 0
    for s in seconds:
        g = math.gcd(g, abs(s))
    if pivot0[0] < 0:
        pivot0 = [-pivot0[0], -pivot0[1]]
    pivot0[1] %= g
    return np.array([pivot0, [0, g]], dtype=float)


def _reference_primitive_periods(c, tol):
    """primitive_periods with every ordered motif pair (i, j), i != j, as a
    candidate period."""
    cur = canonical_basis(c)
    while cur.k > 1:
        cart = cur.cartesian_motif()
        diffs = np.mod(cur.motif[None, :, :] - cur.motif[:, None, :], 1.0)[~np.eye(cur.k, dtype=bool)]
        keys = np.round(diffs * 1e9).astype(int) % int(1e9)
        cands = diffs[np.sort(np.unique(keys, axis=0, return_index=True)[1])]
        t = (cands[:, None, :] @ cur.basis)[:, 0]
        length = np.sqrt(_row_dots(t, t))
        order = np.argsort(length, kind="stable")
        cands, t, length = cands[order], t[order], length[order]
        shifted = (cart[None, :, :] + t[:, None, :]).reshape(-1, 2)
        periodic = contains_many(cur, shifted, tol).reshape(len(t), cur.k).all(axis=1)
        for dfrac in cands[periodic & (length > tol.dedup_tol)]:
            q, pvec = _period_denominator(dfrac, cur.k)
            if q is None:
                continue
            new_basis = (_hnf_rows([[q, 0], [0, q], list(pvec)]) / q) @ cur.basis
            new_motif = _dedup_fracs(np.mod(cart @ np.linalg.inv(new_basis), 1.0), new_basis, tol)
            index = abs(np.linalg.det(cur.basis) / np.linalg.det(new_basis))
            if abs(index - round(index)) > 1e-9 or len(new_motif) * round(index) != cur.k:
                continue
            cur = canonical_basis(PeriodicConfig(new_basis, new_motif))
            break
        else:
            break
    return cur


def _random_cells(seed, count):
    """Seeded random bases and motifs of 1 to 6 points, some on a quarter
    grid (so sub-periods occur), in supercells up to 3 x 2; the second of
    each pair is near-periodic: one extra point lies 0.01 to 0.04 from a
    motif point, within the coarse dedup_tol."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < 2 * count:
        basis = rng.normal(size=(2, 2))
        if abs(np.linalg.det(basis)) < 0.2:
            continue
        motif = rng.random((int(rng.integers(1, 7)), 2))
        if rng.random() < 0.4:
            motif = np.unique(np.round(motif * 4.0) / 4.0, axis=0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        step = rng.uniform(0.01, 0.04) * np.array([math.cos(angle), math.sin(angle)])
        near = np.vstack([motif, motif[:1] + step @ np.linalg.inv(basis)])
        na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        try:
            pair = [PeriodicConfig(basis, m).supercell(na, nb) for m in (motif, near)]
        except ValueError:  # points that coincide modulo the lattice
            continue
        out += pair
    return out


def _single_point_lattices(seed, count, scale=1.0):
    """Seeded random lattices with one motif point: the minimum is |v1|."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        basis = scale * rng.normal(size=(2, 2))
        if abs(np.linalg.det(basis)) >= 0.2 * scale * scale:
            out.append(PeriodicConfig(basis, [(0.0, 0.0)]))
    return out


def _families_under_similarities(seed):
    rng = np.random.default_rng(seed)
    oblique = np.array([[1.0, 0.0], [0.35, 1.25]])
    families = (
        gen_triangular(1.3),
        PeriodicConfig(oblique, [(0.0, 0.0)]),
        gen_lattice(oblique[0], oblique[1], SubsetFlags(True, True, False)),
        gen_hexagonal(0.9, SubsetFlags(True, False, False)),
        gen_hexagonal(0.9, SubsetFlags(True, True, False)),
        gen_hexagonal(0.9, SubsetFlags(True, True, True)),
    )
    return [
        f.supercell(na, nb).transformed(
            rotation=float(rng.uniform(0.0, 2.0 * math.pi)),
            translation=tuple(rng.uniform(-5.0, 5.0, 2)),
            scale=float(rng.uniform(0.5, 2.0)),
        )
        for f in families
        for na, nb in ((1, 1), (2, 1), (1, 2), (2, 2))
    ]


class TestBoundedPeriodicQueries:
    """The bounded min_distance query and the one-row period search against
    the |v1|-reach query and the all-pairs search, bit for bit."""

    def test_finer_lattice_is_the_row_reduction(self):
        # every lattice qZ^2 + Zp the period search can form
        for q in range(2, 49):
            for p in itertools.product(range(q + 1), repeat=2):
                rows, index = _finer_lattice(q, p)
                assert rows.tobytes() == _hnf_rows([[q, 0], [0, q], list(p)]).tobytes(), (q, p)
                assert index * int(rows[0, 0]) * int(rows[1, 1]) == q * q, (q, p)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_min_distance_matches_full_reach_query(self, seed):
        cells = _random_cells(seed, 40) + _single_point_lattices(seed, 60) + _families_under_similarities(seed)
        for c in cells:
            for tol in _TOLERANCES:
                # a fresh copy for the reference, so no memo is shared
                ref = _reference_min_distance(PeriodicConfig(c.basis, c.motif), tol)
                assert min_distance(c, tol).hex() == ref.hex()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_primitive_periods_match_all_pairs_search(self, seed):
        # under the coarse tolerance the near-periodic cells have periods
        # that hold only to within dedup_tol, some of them between motif
        # points other than motif[0]
        for c in _random_cells(seed, 40) + _families_under_similarities(seed):
            for tol in _TOLERANCES:
                got = primitive_periods(c, tol)
                ref = _reference_primitive_periods(PeriodicConfig(c.basis, c.motif), tol)
                assert got.basis.tobytes() == ref.basis.tobytes()
                assert got.motif.tobytes() == ref.motif.tobytes()

    def test_period_between_later_motif_points(self):
        # motif[0] lies 0.01 off the unit period, within the coarse dedup_tol,
        # so only motif[2] - motif[1] is a rational candidate
        c = PeriodicConfig([[3.0, 0.0], [0.0, 1.0]], [(0.01 / 3, 0.0), (1 / 3, 0.0), (2 / 3, 0.0)])
        got = primitive_periods(c, _TOLERANCES[2])
        assert got.k == 1
        ref = _reference_primitive_periods(PeriodicConfig(c.basis, c.motif), _TOLERANCES[2])
        assert (got.basis.tobytes(), got.motif.tobytes()) == (ref.basis.tobytes(), ref.motif.tobytes())

    # keys round to the 10**9 wrap: 0.9999999996 and 4e-10 share the key of 0
    # (a 1e4 cell keeps those points 4e-6 apart); differences repeated along
    # a row and across a supercell; and the period (0, 0.5) after (5e-9, 0),
    # whose keys a narrower key, k0 * 10**8 + k1, would merge
    KEYED_MOTIFS = (
        ([[1e4, 0.0], [0.0, 1e4]], [(0.0, 0.0), (5e-9, 0.0), (0.0, 0.5), (5e-9, 0.5)]),
        ([[1e4, 0.0], [0.0, 1e4]], [(0.0, 0.0), (0.9999999996, 0.0), (0.5, 0.9999999996), (0.5, 4e-10)]),
        ([[1e4, 0.0], [3.0, 1e4]], [(0.0, 0.0), (0.9999999996, 0.9999999996), (0.25, 0.5), (0.2500000004, 0.0)]),
        ([[1e4, 0.0], [0.0, 1e4]], [(0.0, 0.0), (0.9999999995, 0.5), (0.5, 0.0), (0.4999999995, 0.5)]),
        ([[1.0, 0.0], [0.3, 1.1]], [(0.0, 0.0), (0.2, 0.1), (0.4, 0.2), (0.6, 0.3)]),
        ([[1.0, 0.0], [0.0, 1.0]], [(0.0, 0.0), (0.25, 0.0), (0.5, 0.0), (0.75, 0.0)]),
        ([[1.0, 0.2], [-0.3, 0.9]], [(0.0, 0.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5)]),
    )

    @pytest.mark.parametrize("basis, motif", KEYED_MOTIFS)
    @pytest.mark.parametrize("cells", [(1, 1), (2, 1), (2, 3)])
    def test_period_keys_at_the_wrap_and_repeated(self, basis, motif, cells):
        c = PeriodicConfig(basis, motif).supercell(*cells)
        for tol in _TOLERANCES:
            got = primitive_periods(c, tol)
            ref = _reference_primitive_periods(PeriodicConfig(c.basis, c.motif), tol)
            assert (got.basis.tobytes(), got.motif.tobytes()) == (ref.basis.tobytes(), ref.motif.tobytes())

    def test_bound_is_padded_for_rounding(self):
        # at scale 1e8 one ulp of |v1| exceeds the fine class_tol, and the
        # kernel's |v1| can round one ulp above the bound's: the query must
        # still reach it (a query at |v1| + class_tol misses it here)
        for c in _single_point_lattices(7, 150, scale=1e8):
            v1 = canonical_basis(c).basis[0]
            assert min_distance(c, _TOLERANCES[1]) == pytest.approx(math.hypot(*v1), rel=1e-15)

    def test_min_distance_is_kept_per_tolerance(self):
        fine, coarse = _TOLERANCES[1], _TOLERANCES[2]
        # a pair 0.03 apart: a distance under the fine tolerance, one point
        # under the coarse one
        make = lambda: PeriodicConfig(np.eye(2), [(0.0, 0.0), (0.03, 0.0)])  # noqa: E731
        assert min_distance(make(), fine) == pytest.approx(0.03)
        assert min_distance(make(), coarse) == pytest.approx(0.97)
        for first, second in ((fine, coarse), (coarse, fine)):
            c = make()
            a, b = min_distance(c, first), min_distance(c, second)
            assert (a, b) == (min_distance(make(), first), min_distance(make(), second))
            assert min_distance(c, first) == a and min_distance(c, second) == b

    def test_reduced_cell_is_built_once(self):
        c = gen_hexagonal(0.9, SubsetFlags(True, True, True)).supercell(2, 1)
        assert canonical_basis(c) is canonical_basis(c)
        assert c._reduced is canonical_basis(c)


def _report_columns(c, radius):
    report = verify_plane(c, VerifyParams(max_radius=radius))
    return [getattr(report, f).tobytes() for f in ("bases", "class_owner", "distance", "size", "residual", "residual_norm")]


class TestPlanarWorkloadOutputs:
    """What the planar benchmark workload computes on each configuration,
    on the 24 family configurations: the verify_plane report columns, the
    classification and the bytes of its rebuild, and the group-balance
    result, pinned by one sha256."""

    SHA256 = "74653e50fe55d70e7b471365312cb845208a5fe8b23a2f1b254c9c02fbc00054"

    def test_outputs_pinned(self):
        digest = hashlib.sha256()
        for c in _families_under_similarities(1):
            for column in _report_columns(c, VerifyParams().max_radius):
                digest.update(column)
            cc = classify(c)
            digest.update(repr(cc).encode())
            rebuilt = regenerate(cc)
            digest.update(rebuilt.basis.tobytes() + rebuilt.motif.tobytes())
            digest.update(repr(is_group_balanced(c)).encode())
        assert digest.hexdigest() == self.SHA256


class TestChunkedLatticeKernel:
    """A periodic query whose translates per base exceed _LATTICE_CHUNK
    takes the steps a block at a time; its results are those of the query
    in one block, bit for bit, and its memory stays at the output's."""

    HEX = gen_hexagonal(1.0, SubsetFlags(vertices=True))
    CASES = (
        (HEX, 60.0),
        (gen_hexagonal(1.0, SubsetFlags(True, True, True)).supercell(2, 1), 30.0),
        (gen_lattice((1.0, 0.0), (0.3, 1.3), SubsetFlags(True, True, True)), 30.0),
    )

    @pytest.mark.parametrize("chunk", [1 << 13, 5, 1])
    @pytest.mark.parametrize("c, radius", CASES)
    def test_report_columns_match_one_block(self, monkeypatch, c, radius, chunk):
        if chunk < 1 << 13:
            radius /= 6.0  # a step at a time would be slow at full radius
        monkeypatch.setattr(configs, "_LATTICE_CHUNK", 1 << 40)
        want = _report_columns(c, radius)
        monkeypatch.setattr(configs, "_LATTICE_CHUNK", chunk)
        _, _, steps = _translate_steps(c.basis, radius + DEFAULT_TOL.class_tol)
        assert c.k * len(steps) > chunk  # the steps are split
        assert _report_columns(c, radius) == want

    def test_peak_memory_at_radius_250(self):
        # 112,896 translates of the 2-point motif per base and 302,214
        # neighbours: 23.7 MB traced, against 40.5 MB with a base's
        # translates in one block
        tracemalloc.start()
        try:
            assert verify_plane(self.HEX, VerifyParams(max_radius=250.0)).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26_000_000


def _all_pairs_gap(c, above):
    """The smallest motif gap above `above`, every pair at once."""
    cart = c.cartesian_motif()
    k = np.arange(len(cart))
    i, j = np.nonzero(k[:, None] < k)
    shifts = np.array([[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)], dtype=float) @ c.basis
    gaps = np.linalg.norm((cart[j] - cart[i])[:, None, :] + shifts, axis=2).min(axis=1)
    return float(gaps[gaps > above].min(initial=np.inf))


class TestMotifGap:
    """The motif distinctness check scans the motif pairs a block at a time:
    its gaps are those of every pair at once, bit for bit, and its memory
    does not grow with the square of the motif."""

    @pytest.mark.parametrize("chunk", [1 << 13, 50, 9, 1])
    def test_matches_all_pairs(self, monkeypatch, chunk):
        monkeypatch.setattr(configs, "_LATTICE_CHUNK", chunk)
        for c in _random_cells(4, 20) + _families_under_similarities(4):
            for above in (-1.0, 2e-9, 0.1):
                assert _motif_gap(c, above) == _all_pairs_gap(c, above)

    def test_peak_memory_of_a_600_point_motif(self):
        # 179,700 motif pairs: 76.8 MB traced with every pair at once
        cell = gen_hexagonal(1.0, SubsetFlags(True, True, True))
        tracemalloc.start()
        try:
            assert cell.supercell(10, 10).k == 600
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


# |z| < 1 by math.hypot, Python's abs and np.linalg.norm of a point set,
# but 1 by np.abs, the modulus the disk distance divides by
_RIM = ((-0.6739394322538365, 0.7387866008891718), (-0.7554144733847383, -0.6552472612692543))


class TestSharedGeometricRules:
    """The document parser, the containers and the disk primitives decide
    each geometric check by the same rule."""

    @pytest.mark.parametrize("rim", _RIM)
    def test_rim_points_are_refused_everywhere(self, rim):
        pts = np.array([(0.0, 0.0), rim])
        for build in (lambda: PatchConfig(pts, 1.0), lambda: FinitePointSet("disk", pts)):
            with pytest.raises(InvalidPointError, match=r"first offender: index 1\)"):
                build()
        with pytest.raises(InvalidPointError):
            hyp_dist(0j, complex(*rim))
        for kind, extra in (("finite", {}), ("patch", {"patch_radius": 1.0})):
            with pytest.raises(ValidationError, match=r"points\[1\] must lie strictly inside the unit disk") as err:
                parse_config(dict(space="hyperbolic2", kind=kind, points=pts.tolist(), **extra))
            assert err.value.field == "points[1]"

    @pytest.mark.parametrize("far", [1e200, -1.0000000000000002e100, 1.7976931348623157e308])
    def test_planar_points_past_the_range_are_refused_everywhere(self, far):
        pts = [[0.0, 0.0], [1.0, 0.0], [1.0, far]]
        with pytest.raises(InvalidPointError, match=r"within \+-1e100 \(first offender: index 2\)"):
            FinitePointSet("plane", pts)
        with pytest.raises(ValidationError, match=r"points\[2\] must have coordinates within \+-1e100") as err:
            parse_config({"space": "euclidean2", "kind": "finite", "points": pts})
        assert err.value.field == "points[2]"

    def test_planar_points_at_the_range_are_measured(self):
        pts = [[0.0, 0.0], [1e100, 0.0], [-1e100, 0.0]]
        assert parse_config({"space": "euclidean2", "kind": "finite", "points": pts}).points.tolist() == pts
        assert min_distance(FinitePointSet("plane", pts)) == 1e100

    @pytest.mark.parametrize(
        "basis, refusal",
        [
            ([[1e-3, 0.0], [0.0, 1e-3]], None),
            ([[1e-7, 0.0], [0.0, 1e-7]], "lengths between 1e-4 and 1e100"),
            ([[1e200, 0.0], [0.0, 1e200]], "lengths between 1e-4 and 1e100"),
            ([[1e-200, 0.0], [0.0, 1e-200]], "lengths between 1e-4 and 1e100"),
            ([[1000.0, 0.0], [1000.0, 5e-10]], "linearly independent"),
            ([[0.0, 0.0], [0.0, 0.0]], "lengths between 1e-4 and 1e100"),
            # rows of length 1 that span the lattice vector (0, 1e-9)
            ([[1.0, 0.0], [1.0, 1e-9]], "no vector shorter than 1e-4"),
        ],
    )
    def test_parser_and_container_agree_on_bases(self, basis, refusal):
        doc = {"space": "euclidean2", "kind": "periodic", "basis": basis, "motif": [[0.0, 0.0]]}
        if refusal is None:
            assert parse_config(doc).basis.tolist() == basis
            assert min_distance(PeriodicConfig(basis, [[0.0, 0.0]])) == 1e-3
            return
        with pytest.raises(ValidationError, match=refusal):
            parse_config(doc)
        with pytest.raises(InvalidPointError, match=refusal):
            PeriodicConfig(basis, [[0.0, 0.0]])

    def test_independence_does_not_change_with_scale(self):
        rng = np.random.default_rng(5)
        bases = [rng.normal(size=(2, 2)) for _ in range(20)]
        bases += [np.array([[1.0, 0.0], [1.0, t]]) for t in (5e-13, 1e-12, 2e-12)]
        dependent = "basis vectors must be linearly independent"
        assert {basis_defect(b) == dependent for b in bases} == {True, False}
        # exact powers of two, over scales whose row lengths basis_defect admits
        for basis in bases:
            want = basis_defect(basis) == dependent
            for e in range(-8, 301, 4):
                assert (basis_defect(np.ldexp(basis, e)) == dependent) == want


class TestPatchConfig:
    def test_center_dists_and_verifiable_radius(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.0]])
        patch = PatchConfig(pts, 2.0)
        assert patch.center_dists()[0] == pytest.approx(0.0, abs=1e-12)
        assert patch.verifiable_radius(pts[1]) == pytest.approx(
            2.0 - 2.0 * math.atanh(0.3), abs=1e-12
        )

    def test_min_distance_patch(self):
        pts = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.35]])
        patch = PatchConfig(pts, 1.5)
        d01 = 2.0 * math.atanh(0.2)
        assert min_distance(patch) == pytest.approx(d01, abs=1e-12)

    def test_near_coincident_points_keep_their_distance(self):
        # 3e-9 apart at x = 0.1: acosh(1 + x) rounds the distance to 0
        near = 0.1 + 3e-9
        patch = PatchConfig(np.array([[0.1, 0.0], [near, 0.0], [0.5, 0.0]]), 2.0)
        want = 2.0 * math.atanh(3e-9 / (1.0 - 0.1 * near))
        assert want == pytest.approx(6.0606e-9, rel=1e-4)
        assert hyp_dist(0.1, near) == pytest.approx(want, rel=1e-6)
        assert min_distance(patch) == pytest.approx(want, rel=1e-6)
        found = points_within(patch, (0.1, 0.0), 1e-7)
        assert found.tolist() == [[near, 0.0]]


class TestContains:
    def test_periodic_membership_with_wrap(self):
        c = PeriodicConfig(np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([[0.25, 0.5]]))
        assert contains(c, (0.5, 0.5))
        assert contains(c, (0.5 + 6.0, 0.5 - 3.0))
        assert not contains(c, (0.6, 0.5))

    def test_finite_and_patch_membership(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.25], [-0.3, 0.6]])
        probes = np.vstack([pts + 5e-10, pts + 2e-9])
        for c in (FinitePointSet("plane", pts), PatchConfig(pts, 1.0)):
            assert contains_many(c, probes).tolist() == [True] * 3 + [False] * 3
        assert not contains_many(FinitePointSet("plane", np.zeros((0, 2))), probes).any()

    def test_near_cell_edge_membership(self):
        c = PeriodicConfig(np.eye(2), np.array([[0.0, 0.0]]))
        assert contains(c, (1.0 - 1e-12, 1e-12))
        assert contains(c, (-3.0, 7.0))


_NAN = float("nan")
_SQUARE = PeriodicConfig(np.eye(2), [(0.0, 0.0)])
_ROTATION_ANGLES = tuple(math.radians(a) for a in (40, 40, 40))


class TestConstructorRefusals:
    """Every argument check of the containers and the generator parameters
    refuses with its own type and message."""

    @pytest.mark.parametrize(
        "call, exc_type, fragment",
        [
            (lambda: PeriodicConfig(np.eye(3), [(0.0, 0.0)]), InvalidPointError, "basis must be a 2x2 matrix"),
            (lambda: PeriodicConfig(np.eye(2), np.zeros((0, 2))), InvalidPointError, "motif must be a nonempty (k, 2)"),
            (lambda: PeriodicConfig(np.eye(2), [(0.0, 0.0, 0.0)]), InvalidPointError, "motif must be a nonempty (k, 2)"),
            (lambda: PeriodicConfig(np.eye(2), [(_NAN, 0.0)]), InvalidPointError, "motif coordinates must be finite"),
            (lambda: PeriodicConfig(np.eye(2), [(0.0, 0.0)], labels=("a", "b")), InvalidPointError, "align with the motif"),
            (lambda: _SQUARE.transformed(scale=0.0), ValueError, "scale must be positive"),
            (lambda: _SQUARE.supercell(0, 2), ValueError, "supercell factors must be >= 1"),
            (lambda: FinitePointSet("torus", np.zeros((1, 2))), InvalidPointError, "space must be one of"),
            (lambda: FinitePointSet("plane", np.zeros((2, 3))), InvalidPointError, "points must be an (n, 2) array"),
            (lambda: FinitePointSet("plane", [(math.inf, 0.0)]), InvalidPointError, "point coordinates must be finite"),
            (lambda: FinitePointSet("disk", np.zeros((3, 4))), InvalidPointError, "points must be an (n, 2) array"),
            (lambda: PatchConfig(np.zeros((3, 4)), 1.0), InvalidPointError, "points must be an (n, 2) array"),
            (lambda: PatchConfig(np.zeros(4), 1.0), InvalidPointError, "points must be an (n, 2) array"),
            (lambda: PatchConfig([(_NAN, 0.0)], 1.0), InvalidPointError, "point coordinates must be finite"),
            (lambda: FinitePointSet("plane", [(0.0, 0.0)], labels=("a", "b")), InvalidPointError, "align with the points"),
            (lambda: PatchConfig([(0.0, 0.0)], -1.0), InvalidPointError, "patch_radius must be a nonnegative finite"),
            (lambda: PatchConfig([(0.0, 0.0)], _NAN), InvalidPointError, "patch_radius must be a nonnegative finite"),
            (lambda: PatchConfig([(0.0, 0.0)], 1.0, labels=("a", "b")), InvalidPointError, "align with the points"),
            (lambda: TriangleGroupParams(2, 3, 7, -1), ParameterDomainError, "depth must be a nonnegative integer"),
            (lambda: TriangleGroupParams(2, 3, 7, 1.0), ParameterDomainError, "depth must be a nonnegative integer"),
            (lambda: TriangleGroupParams(1, 3, 7, 2), ParameterDomainError, "p must be an integer >= 2"),
            (lambda: TriangleGroupParams(2, 3.0, 7, 2), ParameterDomainError, "q must be an integer >= 2"),
            (lambda: RotationTilingParams(*_ROTATION_ANGLES, 2, 1), ParameterDomainError, "m must be an integer >= 3"),
            (lambda: gen_hexagonal(0.0, SubsetFlags(True, False, False)), ParameterDomainError, "side must be positive"),
            (lambda: gen_line(5, 0.0), ParameterDomainError, "spacing must be positive"),
            (lambda: gen_sphere("ngon", SubsetFlags(True, False, False)), ParameterDomainError, "integer vertex count n >= 2"),
            (lambda: gen_sphere("ngon(1)", SubsetFlags(True, False, False)), ParameterDomainError, "integer vertex count"),
            (lambda: gen_sphere(5, SubsetFlags(True, False, False)), ParameterDomainError, "kind must be a string, got 5"),
            (lambda: as_vec((_NAN, 0.0), 2), InvalidPointError, "coordinates must be finite"),
        ],
    )
    def test_refusal(self, call, exc_type, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)) as info:
            call()
        assert info.type is exc_type
