"""Balance-verdict checks: residuals recomputed by independent enumeration,
mode agreement on the sphere, certified-radius gating for patches, windowed
base selection for finite planar sets, and minimal-distance reporting."""
import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import balanced_configs
from balanced_configs.docio import document_from, serialize
from balanced_configs.configs import (
    FinitePointSet,
    PatchConfig,
    PeriodicConfig,
    distance_classes,
    min_distance,
)
from balanced_configs.errors import AmbiguousClassError, InsufficientPatchError, NoPairsError
from balanced_configs.generators import (
    SubsetFlags,
    TriangleGroupFlags,
    TriangleGroupParams,
    gen_hexagonal,
    gen_hyp_triangle_group,
    gen_line,
    gen_sphere,
    gen_triangular,
)
from balanced_configs.geometry import DEFAULT_TOL
from balanced_configs.hyperbolic import hyp_dist, hyp_log_dir
from balanced_configs.verify import (
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
        c = gen_line(6, 1.0)
        report = verify_plane(c, VerifyParams(max_radius=3.0))
        assert report.verified_points == 0
        assert report.checks == []

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
            [sys.executable, "-c", code],
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
        # reference: one cross product, projection and norm per class
        rng = np.random.default_rng(13)
        for kind in ("dodecahedron", "ngon(9)"):
            base = gen_sphere(kind, SubsetFlags(True, True, True))
            pts = base.points + 1e-2 * rng.standard_normal(base.points.shape)
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            c = FinitePointSet("sphere", pts)
            cutoff = 6.0 * min_distance(c)
            for mode in ("scalar_multiple", "tangent_projection"):
                expected = []
                for b in c.points:
                    for cl in distance_classes(c, b, cutoff):
                        total = cl.points.sum(axis=0)
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
            [sys.executable, "-c", code],
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
            [sys.executable, "-c", code, *docs],
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
