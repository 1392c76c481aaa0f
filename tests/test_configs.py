"""Configuration containers and distance queries, checked against exhaustive
translate-scan oracles built independently of the library's lattice
reduction."""
import math

import numpy as np
import pytest

from balanced_configs.configs import (
    FinitePointSet,
    PatchConfig,
    PeriodicConfig,
    canonical_basis,
    contains,
    contains_many,
    distance_classes,
    min_distance,
    points_within,
    primitive_periods,
)
from balanced_configs.errors import AmbiguousClassError, NoPairsError
from balanced_configs.geometry import DEFAULT_TOL, Tolerance
from balanced_configs.hyperbolic import hyp_dist


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
