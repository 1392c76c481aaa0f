"""Balance-verdict checks: residuals recomputed by independent enumeration,
mode agreement on the sphere, certified-radius gating for patches, windowed
base selection for finite planar sets, and minimal-distance reporting."""
import cmath
import hashlib
import math
import os
import subprocess
import sys
from collections.abc import Sequence

import numpy as np
import pytest

import balanced_configs
from balanced_configs.classify import is_group_balanced, rotation_symmetries_about
from balanced_configs.cli import main
from balanced_configs.docio import document_from, serialize
from balanced_configs.configs import (
    FinitePointSet,
    PatchConfig,
    PeriodicConfig,
    _index,
    distance_classes,
    min_distance,
)
from balanced_configs.errors import AmbiguousClassError, InsufficientPatchError, NoPairsError
from balanced_configs.generators import (
    RotationTilingFlags,
    RotationTilingParams,
    SubsetFlags,
    TriangleGroupFlags,
    TriangleGroupParams,
    gen_hexagonal,
    gen_hyp_rotation_tiling,
    gen_hyp_triangle_group,
    gen_line,
    gen_sphere,
    gen_triangular,
)
from balanced_configs.geometry import DEFAULT_TOL, Tolerance
from balanced_configs.hyperbolic import hyp_dist, hyp_log_dir
from balanced_configs.verify import (
    BalanceReport,
    ClassCheck,
    VerifyParams,
    check_min_distance_property,
    max_neighbor_count,
    verify_hyperbolic,
    verify_plane,
    verify_sphere,
)

SQRT3 = math.sqrt(3.0)


def _brute_plane_class_sums(basis, motif, base, cutoff, span=12):
    """Oracle: enumerate lattice translates directly and group displacement
    sums by distance rounded to 6 decimals."""
    basis = np.asarray(basis, dtype=float)
    motif = np.asarray(motif, dtype=float)
    base = np.asarray(base, dtype=float)
    pts = []
    for i in range(-span, span + 1):
        for j in range(-span, span + 1):
            for m in motif:
                pts.append(m @ basis + i * basis[0] + j * basis[1])
    pts = np.asarray(pts)
    d = np.linalg.norm(pts - base, axis=1)
    keep = (d > 1e-9) & (d <= cutoff + 1e-9)
    sums = {}
    for p, dist in zip(pts[keep], d[keep]):
        sums.setdefault(round(dist, 6), []).append(p - base)
    return {k: np.sum(v, axis=0) for k, v in sums.items()}


class TestVerifyParams:
    def test_rejects_nonpositive_radius(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                VerifyParams(max_radius=bad)

    def test_accepts_small_positive_radius(self):
        assert VerifyParams(max_radius=0.25).max_radius == 0.25


class TestVerifyPlane:
    def test_triangular_passes_with_expected_shells(self):
        c = gen_triangular(1.0)
        report = verify_plane(c, VerifyParams(max_radius=2.0))
        assert report.passed
        assert report.verified_points == 1
        assert report.cutoff == pytest.approx(2.0)
        # shells at 1, sqrt(3), 2 with six members each
        assert [ch.size for ch in report.checks] == [6, 6, 6]
        dists = [ch.distance for ch in report.checks]
        assert dists == pytest.approx([1.0, SQRT3, 2.0], abs=1e-12)

    def test_cutoff_truncates_shells(self):
        c = gen_triangular(1.0)
        report = verify_plane(c, VerifyParams(max_radius=1.2))
        assert len(report.checks) == 1
        assert report.checks[0].size == 6

    def test_residuals_match_direct_enumeration(self):
        c = gen_hexagonal(1.0, SubsetFlags(True, False, True))
        report = verify_plane(c, VerifyParams(max_radius=3.0))
        cutoff = report.cutoff
        for base in c.cartesian_motif():
            oracle = _brute_plane_class_sums(c.basis, c.motif, base, cutoff)
            got = {
                round(ch.distance, 6): np.asarray(ch.residual)
                for ch in report.checks
                if np.allclose(ch.base, base)
            }
            assert set(got) == set(oracle)
            for key, residual in got.items():
                assert residual == pytest.approx(oracle[key], abs=1e-9)

    def test_transformed_copy_agrees(self):
        c = gen_triangular(1.0)
        moved = c.transformed(rotation=0.7, translation=(3.1, -2.2), scale=1.0)
        a = verify_plane(c, VerifyParams(max_radius=2.5))
        b = verify_plane(moved, VerifyParams(max_radius=2.5))
        assert a.passed and b.passed
        assert len(a.checks) == len(b.checks)
        assert [ch.size for ch in a.checks] == [ch.size for ch in b.checks]

    def test_off_center_two_point_motif_fails(self):
        # interleaved square lattices whose offset is not the cell center:
        # the nearest cross-sublattice shell is a vertical pair summing to
        # roughly (0, -1), nowhere near zero
        c = PeriodicConfig(np.eye(2), [(0.0, 0.0), (0.5, 0.52)])
        report = verify_plane(c, VerifyParams(max_radius=2.0))
        assert not report.passed
        assert report.worst_residual > 0.1
        assert len(report.failing) > 0

    def test_centered_two_point_motif_passes(self):
        c = PeriodicConfig(np.eye(2), [(0.0, 0.0), (0.5, 0.5)])
        report = verify_plane(c, VerifyParams(max_radius=2.0))
        assert report.passed

    def test_finite_grid_windowed_bases(self):
        xs = np.arange(21.0)
        pts = np.array([(x, y) for x in xs for y in xs])
        c = FinitePointSet("plane", pts)
        report = verify_plane(c, VerifyParams(max_radius=2.0))
        # only points at least 2 steps from every bounding-box edge qualify
        assert report.verified_points == 17 * 17
        assert report.passed

    def test_oblique_window_uses_convex_hull(self):
        # a parallelogram window of an oblique lattice: its bounding box
        # admits corner points whose neighbourhoods the window cuts off
        v1 = np.array([1.0, 0.0])
        v2 = 1.1 * np.array([math.cos(1.2), math.sin(1.2)])
        pts = np.array([i * v1 + j * v2 for i in range(30) for j in range(30)])
        report = verify_plane(FinitePointSet("plane", pts))
        assert report.verified_points > 0
        assert report.passed

    def test_finite_collinear_uses_interval_window(self):
        # a slanted line of 11 points: the bounding box is thin, so the
        # window must be the interval along the carrier line, keeping the
        # middle five points at cutoff 3
        direction = np.array([math.cos(0.4), math.sin(0.4)])
        pts = np.outer(np.arange(11.0), direction)
        c = FinitePointSet("plane", pts)
        report = verify_plane(c, VerifyParams(max_radius=3.0))
        assert report.verified_points == 5
        assert report.passed

    def test_finite_window_can_be_empty(self):
        # no point of a 6-point line has its cutoff-3 interval inside the
        # line, and a report over no point would pass vacuously
        c = gen_line(6, 1.0)
        with pytest.raises(InsufficientPatchError, match="no point of the window"):
            verify_plane(c, VerifyParams(max_radius=3.0))
        # nor of four scattered points, inside their hull
        c = FinitePointSet("plane", [(0.0, 0.0), (1.0, 0.0), (0.0, 3.0), (5.0, 7.0)])
        with pytest.raises(InsufficientPatchError, match="no point of the window"):
            verify_plane(c)

    def test_periodic_path_leaves_scipy_spatial_unloaded(self):
        # the lattice-translate kernel is numpy only; scipy.spatial would add
        # to the memory of every periodic run
        src = os.path.dirname(os.path.dirname(balanced_configs.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "from balanced_configs.classify import classify, is_group_balanced\n"
            "from balanced_configs.configs import min_distance\n"
            "from balanced_configs.generators import SubsetFlags, gen_hexagonal\n"
            "from balanced_configs.verify import verify_plane\n"
            "c = gen_hexagonal(1.0, SubsetFlags(True, True, True)).supercell(2, 1)\n"
            "min_distance(c), verify_plane(c), classify(c), is_group_balanced(c)\n"
            "print('scipy.spatial' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_rejects_wrong_space(self):
        c = gen_sphere("cube", SubsetFlags(True, False, False))
        with pytest.raises(ValueError):
            verify_plane(c)


class TestVerifySphere:
    @pytest.mark.parametrize("kind", ["tetrahedron", "cube", "octahedron", "icosahedron"])
    def test_platonic_vertices_balanced_both_modes(self, kind):
        c = gen_sphere(kind, SubsetFlags(True, False, False))
        for mode in ("scalar_multiple", "tangent_projection"):
            report = verify_sphere(c, mode=mode)
            assert report.passed, f"{kind} failed in mode {mode}"
            assert report.verified_points == c.n

    def test_modes_give_identical_residual_norms(self):
        c = gen_sphere("dodecahedron", SubsetFlags(True, True, True))
        a = verify_sphere(c, mode="scalar_multiple")
        b = verify_sphere(c, mode="tangent_projection")
        assert len(a.checks) == len(b.checks)
        for ca, cb in zip(a.checks, b.checks):
            assert ca.base == cb.base
            assert ca.residual_norm == pytest.approx(cb.residual_norm, abs=1e-12)

    def test_modes_agree_on_perturbed_input(self):
        rng = np.random.default_rng(11)
        base = gen_sphere("octahedron", SubsetFlags(True, False, False))
        pts = base.points + 1e-3 * rng.standard_normal(base.points.shape)
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        c = FinitePointSet("sphere", pts)
        a = verify_sphere(c, mode="scalar_multiple")
        b = verify_sphere(c, mode="tangent_projection")
        assert a.passed == b.passed
        assert not a.passed
        for ca, cb in zip(a.checks, b.checks):
            assert ca.residual_norm == pytest.approx(cb.residual_norm, rel=1e-9, abs=1e-15)

    def test_residuals_match_per_class_loop(self):
        # reference: one class sum (in the verifier's order), cross product,
        # projection and norm per class.  ngon(12) with all subsets has a
        # 24-member class at each pole, whose x-sum differs in the last bits
        # between a row-by-row sum and the verifier's order
        rng = np.random.default_rng(13)
        configs = [gen_sphere("ngon(12)", SubsetFlags(True, True, True))]
        for kind in ("dodecahedron", "ngon(9)"):
            base = gen_sphere(kind, SubsetFlags(True, True, True))
            pts = base.points + 1e-2 * rng.standard_normal(base.points.shape)
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            configs.append(FinitePointSet("sphere", pts))
        for c in configs:
            cutoff = 6.0 * min_distance(c)
            for mode in ("scalar_multiple", "tangent_projection"):
                expected = []
                for b in c.points:
                    for cl in distance_classes(c, b, cutoff):
                        total = _class_sum(cl.points)
                        if mode == "scalar_multiple":
                            residual = np.cross(total, b)
                        else:
                            residual = total - (total @ b) * b
                        expected.append((tuple(b), cl.size, tuple(residual), float(np.linalg.norm(residual))))
                got = [
                    (ch.base, ch.size, ch.residual, ch.residual_norm)
                    for ch in verify_sphere(c, mode=mode).checks
                ]
                assert got == expected

    def test_hand_computed_failure_residual(self):
        # three points on the equator at longitudes 0, 90, 180 degrees: the
        # base (1,0,0) sees a singleton class {(0,1,0)} whose cross-product
        # residual has norm exactly 1
        pts = np.array([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0)])
        c = FinitePointSet("sphere", pts)
        report = verify_sphere(c)
        assert not report.passed
        singles = [ch for ch in report.checks if ch.size == 1 and ch.base == (1.0, 0.0, 0.0)]
        assert singles and singles[0].residual_norm == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_mode_and_space(self):
        c = gen_sphere("cube", SubsetFlags(True, False, False))
        with pytest.raises(ValueError):
            verify_sphere(c, mode="sideways")
        with pytest.raises(ValueError):
            verify_sphere(gen_triangular(1.0))


class TestVerifyHyperbolic:
    def _patch(self, depth=4):
        return gen_hyp_triangle_group(
            TriangleGroupParams(2, 3, 7, depth), TriangleGroupFlags(True, False, False)
        )

    def test_triangle_group_vertices_balanced(self):
        c = self._patch()
        best = float(c.patch_radius - c.center_dists().min())
        report = verify_hyperbolic(c, VerifyParams(max_radius=best))
        assert report.passed
        assert report.verified_points >= 1
        assert len(report.checks) > 0
        assert any("certified patch radius" in note for note in report.notes)

    def test_residuals_match_log_map_sums(self):
        c = self._patch(depth=3)
        best = float(c.patch_radius - c.center_dists().min())
        report = verify_hyperbolic(c, VerifyParams(max_radius=best))
        for ch in report.checks[:8]:
            base = complex(*ch.base)
            cls = [
                cl
                for cl in distance_classes(c, ch.base, best)
                if abs(cl.distance - ch.distance) < 1e-9
            ]
            assert len(cls) == 1
            total = sum(hyp_log_dir(base, complex(*p)) for p in cls[0].points)
            assert ch.residual_norm == pytest.approx(abs(total), abs=1e-12)
            assert ch.size == cls[0].size

    def _assert_matches_brute_force(self, c, cutoff):
        """Every check of verify_hyperbolic against distance_classes, which
        scans all points of the patch, and log-map residual sums."""
        report = verify_hyperbolic(c, VerifyParams(max_radius=cutoff))
        expected = []
        bases = [p for p in c.points if c.verifiable_radius(p) >= cutoff - 1e-12]
        for base in bases:
            b = complex(*base)
            for cl in distance_classes(c, base, cutoff):
                total = sum(hyp_log_dir(b, complex(*p)) for p in cl.points)
                expected.append((tuple(base), cl.distance, cl.size, abs(total)))
        assert report.verified_points == len(bases)
        assert len(report.checks) == len(expected)
        for ch, (base, distance, size, norm) in zip(report.checks, expected):
            assert ch.base == base
            assert ch.size == size
            assert ch.distance == pytest.approx(distance, abs=1e-12)
            assert ch.residual_norm == pytest.approx(norm, abs=1e-12)
        return report

    def test_every_check_matches_brute_force(self):
        c = gen_hyp_triangle_group(
            TriangleGroupParams(2, 3, 7, 5), TriangleGroupFlags(True, True, True)
        )
        report = self._assert_matches_brute_force(c, 1.0)
        assert report.verified_points > 1

    def test_query_boundary_matches_brute_force(self):
        # rings 1e-10 inside and outside the hyperbolic ball of radius
        # cutoff + class_tol about an off-centre base, whose Euclidean disk
        # is not centred on the base: the inner ring must all be found, the
        # outer ring all dropped
        cutoff = 1.0
        reach = cutoff + DEFAULT_TOL.class_tol
        b = 0.2 + 0.1j

        def at(dist, angle):
            w = math.tanh(dist / 2.0) * cmath.exp(1j * angle)
            z = (w + b) / (1.0 + b.conjugate() * w)
            return (z.real, z.imag)

        pts = [(b.real, b.imag)]
        pts += [at(reach - 1e-10, 2.0 * math.pi * k / 12) for k in range(12)]
        pts += [at(reach + 1e-10, 2.0 * math.pi * (k + 0.5) / 12) for k in range(12)]
        c = PatchConfig(np.array(pts), 1.5)
        report = self._assert_matches_brute_force(c, cutoff)
        assert report.verified_points == 1
        assert [ch.size for ch in report.checks] == [12]

    def test_ambiguous_classes_raise(self):
        # two neighbours of the central base 1.5 * class_tol apart in
        # distance: too far apart to merge, too close to separate
        near = math.tanh(1.0 / 2.0)
        far = math.tanh((1.0 + 1.5 * DEFAULT_TOL.class_tol) / 2.0)
        c = PatchConfig(np.array([(0.0, 0.0), (near, 0.0), (-far, 0.0)]), 3.0)
        with pytest.raises(AmbiguousClassError, match="too close to separate"):
            verify_hyperbolic(c, VerifyParams(max_radius=1.5))

    def test_import_leaves_scipy_spatial_unloaded(self):
        # the k-d tree is imported on the first hyperbolic verification only
        src = os.path.dirname(os.path.dirname(balanced_configs.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, balanced_configs, balanced_configs.verify; "
            "print('scipy.spatial' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_on_finite_sets_and_patches_never_imports_scipy(self, tmp_path):
        # the neighbour index and the convex hull are numpy only: verify,
        # classify and symmetry of finite sets and patches load no scipy
        docs = {
            "patch.json": gen_hyp_triangle_group(
                TriangleGroupParams(2, 3, 7, 3), TriangleGroupFlags(True, False, False)
            ),
            "plane.json": FinitePointSet("plane", [(x, y) for x in range(12) for y in range(12)]),
            "sphere.json": gen_sphere("icosahedron", SubsetFlags(True, True, False)),
        }
        (tmp_path / "line.json").write_text(serialize(document_from(gen_line(9, 0.5))))
        for name, config in docs.items():
            (tmp_path / name).write_text(serialize(document_from(config)))
        src = os.path.dirname(os.path.dirname(balanced_configs.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "from balanced_configs.cli import main\n"
            "codes = [main(['verify', name, '--max-radius', '1.5']) for name in sys.argv[1:]]\n"
            "codes += [main(['classify', 'line.json']), main(['symmetry', 'plane.json'])]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code, *docs],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip().splitlines()[-1] == "[0, 0, 0, 0, 0] []"

    def test_gating_by_certified_radius(self):
        c = self._patch()
        with pytest.raises(InsufficientPatchError):
            verify_hyperbolic(c, VerifyParams(max_radius=c.patch_radius + 1.0))

    def test_tiny_patch_rejected(self):
        with pytest.raises(InsufficientPatchError):
            verify_hyperbolic(PatchConfig(np.array([(0.0, 0.0)]), 1.0))

    def test_requires_patch(self):
        with pytest.raises(ValueError):
            verify_hyperbolic(gen_triangular(1.0))

    def test_deleting_a_point_breaks_balance(self):
        c = self._patch()
        best = float(c.patch_radius - c.center_dists().min())
        # drop the point nearest the central base: each class that contained
        # it was a vanishing sum of unit tangents, so it now misses exactly
        # one unit vector and the worst residual lands at 1
        order = np.argsort(c.center_dists())
        victim = order[1]
        thinned = PatchConfig(np.delete(c.points, victim, axis=0), c.patch_radius)
        report = verify_hyperbolic(thinned, VerifyParams(max_radius=best))
        assert not report.passed
        assert report.worst_residual == pytest.approx(1.0, abs=1e-6)


class TestNeighborCounts:
    def test_planar_families(self):
        assert max_neighbor_count(gen_triangular(1.0)) == 6
        assert max_neighbor_count(PeriodicConfig(np.eye(2), [(0.0, 0.0)])) == 4
        assert max_neighbor_count(gen_hexagonal(1.0, SubsetFlags(True, False, False))) == 3

    def test_line_and_sphere(self):
        assert max_neighbor_count(gen_line(15, 1.0)) == 2
        icosa = gen_sphere("icosahedron", SubsetFlags(True, False, False))
        assert max_neighbor_count(icosa) == 5

    def test_patch(self):
        c = gen_hyp_triangle_group(
            TriangleGroupParams(2, 3, 7, 4), TriangleGroupFlags(True, False, False)
        )
        count = max_neighbor_count(c)
        assert count >= 1

    def test_no_checkable_point_is_refused(self):
        # (0, 0) and (1, 0) are each other's nearest neighbours, but no
        # point's cutoff-ball lies inside the window, and a patch of radius 0
        # certifies no point's neighbourhood
        window = FinitePointSet("plane", [(0.0, 0.0), (1.0, 0.0), (0.0, 3.0), (5.0, 7.0)])
        with pytest.raises(InsufficientPatchError, match="no point of the window"):
            max_neighbor_count(window)
        patch = gen_hyp_triangle_group(TriangleGroupParams(2, 3, 7, 2), TriangleGroupFlags(True, False, False))
        with pytest.raises(InsufficientPatchError, match="no point has verifiable_radius"):
            max_neighbor_count(PatchConfig(patch.points, 0.0))

    def test_coincident_pair_named_from_the_certified_window(self):
        # the window of radius 0.5 holds the pair 1e-12 apart; the pair
        # 1e-13 apart lies outside it, where min_distance does not look
        patch = PatchConfig([(0.0, 0.0), (1e-12, 0.0), (0.1, 0.0), (0.9, 0.0), (0.9, 1e-13)], 0.5)
        with pytest.raises(NoPairsError) as info:
            max_neighbor_count(patch)
        assert str(info.value).startswith("points [0.0, 0.0] and [1e-12, 0.0] coincide: their distance 2e-12")


class TestCoincidentPoints:
    """A minimal distance within dedup_tol is refused wherever it serves as
    the unit of a cutoff or a search radius; min_distance itself reports it."""

    _GRID = [(x, y) for y in range(3) for x in range(3)]

    @pytest.mark.parametrize(
        "config",
        [
            FinitePointSet("plane", np.array([(0.0, 0.0)] + _GRID)),
            FinitePointSet("plane", np.array([(0.0, 0.0), (0.0, 0.0)] + _GRID)),
            FinitePointSet("plane", np.array([(5e-10, 0.0)] + _GRID)),
            FinitePointSet("sphere", np.vstack([[1.0, 0.0, 0.0], np.vstack([np.eye(3), -np.eye(3)])])),
            FinitePointSet("disk", np.array([(0.1, 0.0), (0.1, 0.0), (0.5, 0.0), (0.0, 0.4)])),
        ],
        ids=["repeated", "tripled", "within-dedup", "sphere", "disk"],
    )
    def test_unit_callers_refuse(self, config):
        assert min_distance(config) <= DEFAULT_TOL.dedup_tol
        calls = [max_neighbor_count]
        if config.space == "plane":
            calls += [verify_plane, is_group_balanced, lambda c: rotation_symmetries_about(c, c.points[0])]
        if config.space == "sphere":
            calls += [verify_sphere]
        for call in calls:
            with pytest.raises(NoPairsError, match="coincide"):
                call(config)

    def test_points_above_dedup_tol_are_measured(self):
        c = FinitePointSet("plane", np.array([(3e-9, 0.0)] + self._GRID))
        assert min_distance(c) == pytest.approx(3e-9, rel=1e-6)
        report = verify_plane(c)
        assert report.cutoff == pytest.approx(6.0 * 3e-9, rel=1e-6)
        assert max_neighbor_count(c) == 1


class TestMinDistanceProperty:
    def test_periodic(self):
        out = check_min_distance_property(gen_triangular(1.5))
        assert out["min_d"] == pytest.approx(1.5, abs=1e-12)
        assert out["attained"] and not out["window_dependent"]

    def test_finite_pair_attains(self):
        xs = np.arange(5.0)
        pts = np.array([(x, y) for x in xs for y in xs])
        out = check_min_distance_property(FinitePointSet("plane", pts))
        assert out["min_d"] == pytest.approx(1.0, abs=1e-12)
        p, q = (np.asarray(v) for v in out["pair"])
        assert np.linalg.norm(p - q) == pytest.approx(out["min_d"], abs=1e-12)
        assert not out["window_dependent"]

    def test_window_flag_and_exclusion(self):
        xs = np.arange(5.0)
        pts = np.array([(x, y) for x in xs for y in xs])
        out = check_min_distance_property(FinitePointSet("plane", pts), window=2.0)
        assert out["window_dependent"]
        assert out["min_d"] == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NoPairsError):
            check_min_distance_property(FinitePointSet("plane", pts), window=0.1)

    def test_patch_window_uses_hyperbolic_distance(self):
        c = gen_hyp_triangle_group(
            TriangleGroupParams(2, 3, 7, 3), TriangleGroupFlags(True, True, True)
        )
        out = check_min_distance_property(c, window=1.0)
        assert out["window_dependent"]
        p, q = (complex(*v) for v in out["pair"])
        assert hyp_dist(p, q) == pytest.approx(out["min_d"], abs=1e-9)
        assert out["min_d"] == pytest.approx(min_distance(c), abs=1e-9)

    def test_sphere_pair(self):
        c = gen_sphere("cube", SubsetFlags(True, False, False))
        out = check_min_distance_property(c)
        p, q = (np.asarray(v) for v in out["pair"])
        assert np.linalg.norm(p - q) == pytest.approx(out["min_d"], abs=1e-12)

    @pytest.mark.parametrize(
        "config, wide",
        [
            (FinitePointSet("plane", np.array([(x, y) for x in np.arange(5.0) for y in np.arange(5.0)])), 1e3),
            (gen_sphere("cube", SubsetFlags(True, True, True)), 10.0),
            (gen_hyp_triangle_group(TriangleGroupParams(2, 3, 7, 3), TriangleGroupFlags(True, True, True)), 1e3),
        ],
        ids=["plane", "sphere", "patch"],
    )
    def test_no_window_queries_the_container(self, config, wide, monkeypatch):
        # without a window the container's own polar index answers, and no
        # other is built; a window that excludes nothing gives the same pair
        index = _index(config)
        built = []
        polar_index = balanced_configs.configs._PolarIndex
        monkeypatch.setattr(balanced_configs.configs, "_PolarIndex", lambda *a: built.append(a) or polar_index(*a))
        out = check_min_distance_property(config)
        assert config._index is index and not built
        assert check_min_distance_property(config, window=wide) == out
        assert not out["window_dependent"]


def _depth4_tiling():
    params = RotationTilingParams(math.radians(30), math.radians(40), math.radians(50), 3, 4)
    return gen_hyp_rotation_tiling(params, RotationTilingFlags(True, True, True, True))


def _displaced(c):
    """The patch c with one point near its centre moved by 1e-3: a control
    that must fail."""
    moved = np.array(c.points)
    moved[np.argmin(c.center_dists()) + 7] += 1e-3 * np.array([math.cos(0.3), math.sin(0.3)])
    return PatchConfig(moved, c.patch_radius, labels=c.labels)


class TestGoldenReports:
    """CLI verify stdout pinned by sha256: the report's JSON text must stay
    byte-for-byte the same whatever holds the per-class results."""

    def _verify_sha(self, capsys, tmp_path, config, *flags):
        path = tmp_path / "config.json"
        path.write_text(serialize(document_from(config)))
        code = main(["verify", str(path), *flags])
        return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    def test_depth4_tiling(self, capsys, tmp_path):
        got = self._verify_sha(capsys, tmp_path, _depth4_tiling(), "--max-radius", "1.5", "--residual-tol", "1e-8")
        assert got == (0, "d24eaa8b96c7de4bf160f59c9fb0da51782f8d0b64f4608d0e8b4ea53c603919")

    def test_depth4_tiling_displaced_control(self, capsys, tmp_path):
        got = self._verify_sha(
            capsys, tmp_path, _displaced(_depth4_tiling()), "--max-radius", "1.5", "--residual-tol", "1e-8", "--class-tol", "1e-8"
        )
        assert got == (1, "d31fffb337faa7121361b8340c89d714152bf67a0a12054889f6f53bb363ee24")

    def test_grid_40(self, capsys, tmp_path):
        xs = np.arange(40.0)
        grid = FinitePointSet("plane", np.array([(x, y) for x in xs for y in xs]))
        assert self._verify_sha(capsys, tmp_path, grid) == (0, "c1d9e53124693233625e4c1c5f8aa6e8413a4ed1762947f4b8e4a48a5617920f")

    def test_sphere_both_modes(self, capsys, tmp_path):
        c = gen_sphere("icosahedron", SubsetFlags(True, True, True))
        assert self._verify_sha(capsys, tmp_path, c, "--mode", "both") == (0, "dbdce655e6502f399e71abfd9ed421297847bab8011ec983d0e24832454617ea")


def _class_sum(rows):
    # numpy's reduceat adds in another order than a row-by-row sum, which
    # moves the last bits of classes of four or more members; summing each
    # class alone the same way lets the comparison be exact
    return np.add.reduceat(rows, [0])[0]


def _plane_residual(base, pts):
    return _class_sum(pts) - len(pts) * base


def _sphere_residual(mode):
    def residual(base, pts):
        total = _class_sum(pts)
        if mode == "scalar_multiple":
            return np.cross(total, base)
        return total - (total @ base) * base
    return residual


def _disk_residual(base, pts):
    # unit directions of the geodesics: the members Mobius-translated so
    # that base sits at the origin, normalised
    b = complex(*base)
    w = (pts[:, 0] + 1j * pts[:, 1] - b) / (1.0 - b.conjugate() * (pts[:, 0] + 1j * pts[:, 1]))
    total = _class_sum(w / np.abs(w))
    return np.array([total.real, total.imag])


def _oracle_checks(c, bases, cutoff, tol, residual):
    """ClassCheck values built one base at a time from distance_classes,
    with the residual summed class by class here."""
    out = []
    for base in bases:
        for cl in distance_classes(c, base, cutoff, tol):
            r = residual(base, cl.points)
            norm = float(np.linalg.norm(r))
            out.append(ClassCheck(
                tuple(base.tolist()), cl.distance, cl.size, tuple(r.tolist()), norm, norm <= tol.residual_tol
            ))
    return out


class TestColumnarReportOracle:
    """Every ClassCheck and every reduction of a report against per-base
    enumeration through distance_classes and per-class residual sums."""

    def _assert_matches(self, report, c, bases, tol, residual):
        expected = _oracle_checks(c, bases, report.cutoff, tol, residual)
        assert list(report.checks) == expected
        assert len(report.checks) == len(expected)
        assert report.passed is all(ch.passed for ch in expected)
        assert report.worst_residual == max((ch.residual_norm for ch in expected), default=0.0)
        assert type(report.worst_residual) is float
        failing = [(ch.base, ch.distance) for ch in expected if not ch.passed]
        assert report.failing == failing
        assert report.summary() == {
            "passed": all(ch.passed for ch in expected),
            "verified_points": len(bases),
            "classes_checked": len(expected),
            "cutoff": report.cutoff,
            "residual_tol": tol.residual_tol,
            "worst_residual": report.worst_residual,
            "failing": [{"base": list(b), "distance": d} for b, d in failing],
            "notes": report.notes,
        }

    def test_grid_40(self):
        xs = np.arange(40.0)
        c = FinitePointSet("plane", np.array([(x, y) for x in xs for y in xs]))
        report = verify_plane(c)
        # the window is the square, so the verified points lie 6 steps inside it
        inner = c.points[((c.points >= 6.0) & (c.points <= 33.0)).all(axis=1)]
        assert len(inner) == 28 * 28
        self._assert_matches(report, c, inner, DEFAULT_TOL, _plane_residual)
        assert report.passed

    @pytest.mark.parametrize("kind", ["ngon(12)", "icosahedron"])
    @pytest.mark.parametrize("mode", ["scalar_multiple", "tangent_projection"])
    def test_sphere_sets(self, kind, mode):
        for bits in ((True, False, False), (True, True, True)):
            c = gen_sphere(kind, SubsetFlags(*bits))
            report = verify_sphere(c, mode=mode)
            self._assert_matches(report, c, c.points, DEFAULT_TOL, _sphere_residual(mode))

    def test_rotation_tiling_patch(self):
        c = _depth4_tiling()
        tol = Tolerance(class_tol=1e-6, residual_tol=1e-8, dedup_tol=1e-9)
        report = verify_hyperbolic(c, VerifyParams(max_radius=1.0, tol=tol))
        bases = np.array([p for p in c.points if c.verifiable_radius(p) >= 1.0 - 1e-12])
        self._assert_matches(report, c, bases, tol, _disk_residual)
        assert report.passed

    def test_displaced_point_control(self):
        control = _displaced(_depth4_tiling())
        tol = Tolerance(class_tol=1e-8, residual_tol=1e-8, dedup_tol=1e-9)
        report = verify_hyperbolic(control, VerifyParams(max_radius=1.0, tol=tol))
        bases = np.array([p for p in control.points if control.verifiable_radius(p) >= 1.0 - 1e-12])
        self._assert_matches(report, control, bases, tol, _disk_residual)
        assert not report.passed and len(report.failing) > 0


class TestChecksView:
    def test_sequence_behaviour(self):
        report = verify_plane(gen_triangular(1.0), VerifyParams(max_radius=2.0))
        checks = report.checks
        built = list(checks)
        assert isinstance(checks, Sequence)
        assert len(checks) == 3 and [ch.size for ch in built] == [6, 6, 6]
        assert checks == built and checks == report.checks and checks != built[:2]
        assert checks[0] == built[0] and checks[-1] == built[2] and checks[-3] == built[0]
        for bad in (3, -4):
            with pytest.raises(IndexError):
                checks[bad]
        assert checks[1:] == built[1:] and checks[::-1] == built[::-1] and checks[5:] == []
        assert isinstance(checks[:2], list)
        assert checks != tuple(built) and checks.__eq__(tuple(built)) is NotImplemented
        assert not hasattr(checks, "append")

    def test_empty_report(self):
        # no verifier returns one (a window with no verifiable point is
        # refused), but a report of empty columns is still a report
        report = BalanceReport(
            np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=int), np.zeros((0, 2)),
            cutoff=3.0,
            residual_tol=1e-9,
        )
        assert len(report.checks) == 0 and report.checks == [] and list(report.checks) == []
        assert report.passed and report.worst_residual == 0.0 and report.failing == []


class TestNaNResidual:
    def _report(self, residual):
        return BalanceReport(
            np.array([(0.0, 0.0), (1.0, 0.0)]),
            np.array([0, 1, 1]),
            np.array([1.0, 1.0, 2.0]),
            np.array([4, 4, 2]),
            np.array(residual),
            cutoff=2.0,
            residual_tol=1e-9,
        )

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_nan_class_fails_and_is_listed(self, where):
        residual = [[0.0, 0.0], [1e-12, 0.0], [0.0, -1e-12]]
        residual[where][1] = math.nan
        report = self._report(residual)
        assert report.passed is False
        failing = [((0.0, 0.0), 1.0), ((1.0, 0.0), 1.0), ((1.0, 0.0), 2.0)][where]
        assert report.failing == [failing]
        assert [ch.passed for ch in report.checks] == [i != where for i in range(3)]
        # the worst residual is NaN wherever the NaN class sits
        assert math.isnan(report.worst_residual)
        assert report.summary()["failing"] == [{"base": list(failing[0]), "distance": failing[1]}]
