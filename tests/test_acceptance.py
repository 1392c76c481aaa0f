"""End-to-end acceptance checks: every constructed family passes balance
verification at pinned tolerances, negative controls fail loudly, the numeric
catalog reproduces its reference values, and the classifier plus enumeration
primitives hold up under randomized cross-validation."""
import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest

from balanced_configs.classify import (
    HEX_VERTICES,
    HEX_WITH_MIDPOINTS,
    HEX_WITH_MIDPOINTS_AND_CENTERS,
    LATTICE,
    LATTICE_WITH_MIDPOINTS,
    TRIANGULAR_LATTICE,
    UNKNOWN,
    classify,
    is_group_balanced,
    regenerate,
)
from balanced_configs.configs import (
    FinitePointSet,
    PeriodicConfig,
    contains_many,
    distance_classes,
    min_distance,
    points_within,
)
from balanced_configs.errors import AmbiguousClassError, InvalidPointError
from balanced_configs.generators import (
    RotationTilingFlags,
    RotationTilingParams,
    SubsetFlags,
    TriangleGroupFlags,
    TriangleGroupParams,
    _build_rotation_tiling,
    _build_triangle_group,
    gen_hexagonal,
    gen_hyp_rotation_tiling,
    gen_hyp_triangle_group,
    gen_lattice,
    gen_line,
    gen_sphere,
    gen_triangular,
)
from balanced_configs.geometry import DEFAULT_TOL, Tolerance
from balanced_configs.inequalities import check_angle_bound_60_90, run_catalog
from balanced_configs.verify import (
    VerifyParams,
    max_neighbor_count,
    verify_hyperbolic,
    verify_plane,
    verify_sphere,
)


def _lattice_bases():
    out = []
    for angle_deg in (61.0, 75.0, 89.0):
        for aspect in (1.0, 1.5):
            a = math.radians(angle_deg)
            out.append(((1.0, 0.0), (aspect * math.cos(a), aspect * math.sin(a))))
    return out


def _planar_periodic_families():
    """The periodic planar families under test, with readable names."""
    fams = [("triangular", gen_triangular(1.0))]
    for (v1, v2) in _lattice_bases():
        tag = f"a{math.degrees(math.atan2(v2[1], v2[0])):.0f}r{math.hypot(*v2):.1f}"
        fams.append((f"lattice-{tag}", gen_lattice(v1, v2, SubsetFlags(True, False, False))))
        fams.append((f"lattice-mid-{tag}", gen_lattice(v1, v2, SubsetFlags(True, True, False))))
    fams.append(("hex-vertices", gen_hexagonal(1.0, SubsetFlags(True, False, False))))
    fams.append(("hex-midpoints", gen_hexagonal(1.0, SubsetFlags(True, True, False))))
    fams.append(("hex-full", gen_hexagonal(1.0, SubsetFlags(True, True, True))))
    return fams


_SPHERE_KINDS = [
    "tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron",
] + [f"ngon({n})" for n in (2, 3, 5, 8, 12)]

_SUBSET_COMBOS = [
    SubsetFlags(*bits)
    for bits in itertools.product((False, True), repeat=3)
    if any(bits)
]


class TestFamilyBalanceSuite:
    def test_every_planar_family_passes(self):
        start = time.perf_counter()
        params = VerifyParams(max_radius=6.0)
        for name, config in _planar_periodic_families():
            report = verify_plane(config, params)
            assert report.passed, f"{name}: worst residual {report.worst_residual:.3e}"
        line_report = verify_plane(gen_line(41, 1.0), params)
        assert line_report.passed
        assert line_report.verified_points == 29
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"family suite took {elapsed:.2f}s"


class TestSphericalSuite:
    def test_all_tilings_pass_both_modes(self):
        for kind in _SPHERE_KINDS:
            for flags in _SUBSET_COMBOS:
                config = gen_sphere(kind, flags)
                for mode in ("scalar_multiple", "tangent_projection"):
                    report = verify_sphere(config, mode=mode)
                    assert report.passed, (
                        f"{kind} {flags}: mode {mode} worst {report.worst_residual:.3e}"
                    )

    def test_modes_agree_on_thousand_perturbations(self):
        pool = [gen_sphere(k, f) for k in _SPHERE_KINDS for f in _SUBSET_COMBOS]
        rng = np.random.default_rng(2024)
        definite = 0
        for i in range(1000):
            base = pool[i % len(pool)]
            scale = 10.0 ** rng.uniform(-5.0, -2.0)
            pts = base.points + scale * rng.standard_normal(base.points.shape)
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            config = FinitePointSet("sphere", pts)
            outcomes = []
            for mode in ("scalar_multiple", "tangent_projection"):
                try:
                    report = verify_sphere(config, mode=mode)
                    outcomes.append("pass" if report.passed else "fail")
                except AmbiguousClassError:
                    # class separation is mode-independent, so both modes
                    # must refuse the same inputs
                    outcomes.append("ambiguous")
            assert outcomes[0] == outcomes[1], f"trial {i}: {outcomes}"
            if outcomes[0] != "ambiguous":
                definite += 1
        assert definite >= 400


class TestHyperbolicSuite:
    # cutoffs cover the first two distance shells of every subset at every
    # base point the patch can certify
    TRIANGLE_GROUPS = [((2, 3, 7), 1.85), ((2, 4, 5), 1.72), ((3, 3, 4), 2.50)]
    ROTATION_TILINGS = [((40.0, 40.0, 40.0), 2.95), ((30.0, 40.0, 50.0), 1.95)]

    def test_depth_six_suite(self):
        # the tiling builds are cached for the whole process; start cold so
        # the budget covers them whichever tests ran before
        _build_triangle_group.cache_clear()
        _build_rotation_tiling.cache_clear()
        start = time.perf_counter()
        tol = Tolerance(class_tol=1e-6, residual_tol=1e-8, dedup_tol=1e-9)
        for (p, q, r), cutoff in self.TRIANGLE_GROUPS:
            for bits in itertools.product((False, True), repeat=3):
                if not any(bits):
                    continue
                config = gen_hyp_triangle_group(
                    TriangleGroupParams(p, q, r, 6), TriangleGroupFlags(*bits)
                )
                report = verify_hyperbolic(
                    config, VerifyParams(max_radius=cutoff, tol=tol)
                )
                assert report.passed, f"({p},{q},{r}) {bits}"
                assert report.verified_points > 0
                per_base = Counter(ch.base for ch in report.checks)
                assert min(per_base.values()) >= 2, f"({p},{q},{r}) {bits}"
        for (a_deg, b_deg, g_deg), cutoff in self.ROTATION_TILINGS:
            a, b, g = (math.radians(x) for x in (a_deg, b_deg, g_deg))
            for bits in itertools.product((False, True), repeat=4):
                if not any(bits):
                    continue
                config = gen_hyp_rotation_tiling(
                    RotationTilingParams(a, b, g, 3, 6), RotationTilingFlags(*bits)
                )
                report = verify_hyperbolic(
                    config, VerifyParams(max_radius=cutoff, tol=tol)
                )
                assert report.passed, f"angles ({a_deg},{b_deg},{g_deg}) {bits}"
                assert report.verified_points > 0
                per_base = Counter(ch.base for ch in report.checks)
                assert min(per_base.values()) >= 2
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"hyperbolic suite took {elapsed:.2f}s"


class TestDisplacementSensitivity:
    def test_one_point_displacement_always_detected(self):
        # a 1e-3 displacement scatters shell distances at that scale, so
        # unrelated shells can collide near the default 1e-6 class width and
        # trip the ambiguity guard; a much finer class tolerance separates
        # every perturbed translate into its own class instead, which only
        # drives residuals up
        tol = Tolerance(class_tol=1e-9, residual_tol=1e-9, dedup_tol=1e-12)
        params = VerifyParams(max_radius=6.0, tol=tol)
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            for name, config in _planar_periodic_families():
                if config.k == 1:
                    # displacing the only motif point of a plain lattice
                    # merely translates it; double the cell first so the
                    # displacement breaks relative geometry
                    config = config.supercell(2, 1)
                angle = rng.uniform(0.0, 2.0 * math.pi)
                delta = 1e-3 * np.array([math.cos(angle), math.sin(angle)])
                cart = config.cartesian_motif().copy()
                cart[0] += delta
                moved = PeriodicConfig(
                    config.basis, cart @ np.linalg.inv(config.basis)
                )
                report = verify_plane(moved, params)
                assert not report.passed, f"{name} seed {seed}"
                assert report.worst_residual >= 1e-4, (
                    f"{name} seed {seed}: worst {report.worst_residual:.3e}"
                )


class TestNumericCatalog:
    def test_catalog_and_margins(self):
        results = {r.id: r for r in run_catalog(match_tol=0.005)}
        assert all(r.passed for r in results.values())
        for rid in ("L1", "L4", "L5"):
            assert 0.0 - results[rid].computed > 1e-3
        for rid in ("L2", "L3", "L6", "L7"):
            assert 1.0 - results[rid].computed > 1e-3

    def test_scene_distances(self):
        results = {r.id: r for r in run_catalog()}
        printed = {"S1": 0.52, "S2": 0.80, "S3": 0.73, "S4": 0.90, "S7": 0.55}
        for rid, value in printed.items():
            computed = results[rid].computed
            assert computed < 1.0
            assert abs(computed - value) <= 0.01, f"{rid}: {computed:.4f} vs {value}"

    def test_gap_angle_sweep(self):
        assert check_angle_bound_60_90(1000)


class TestNeighborBound:
    def test_families_respect_bound(self):
        for name, config in _planar_periodic_families():
            count = max_neighbor_count(config)
            assert count <= 6, f"{name}: {count}"
        assert max_neighbor_count(gen_line(41, 1.0)) == 2
        assert max_neighbor_count(gen_triangular(1.0)) == 6

    def test_hundred_perturbed_samples(self):
        rng = np.random.default_rng(77)
        bases = [
            gen_triangular(1.0),
            PeriodicConfig(np.eye(2), [(0.0, 0.0)]),
            gen_hexagonal(1.0, SubsetFlags(True, False, False)),
            gen_hexagonal(1.0, SubsetFlags(True, True, True)),
        ]
        accepted = 0
        while accepted < 100:
            base = bases[accepted % len(bases)].supercell(2, 2)
            span = 0.2 * min_distance(base)
            cart = base.cartesian_motif() + rng.uniform(-span, span, (base.k, 2))
            try:
                moved = PeriodicConfig(base.basis, cart @ np.linalg.inv(base.basis))
            except InvalidPointError:
                continue
            d = min_distance(moved)
            if d < 0.3 * min_distance(base):
                continue
            unit = moved.transformed(scale=1.0 / d)
            assert min_distance(unit) == pytest.approx(1.0, abs=1e-9)
            assert max_neighbor_count(unit) <= 6
            accepted += 1


def _random_similarity(rng):
    return {
        "rotation": float(rng.uniform(0.0, 2.0 * math.pi)),
        "translation": tuple(rng.uniform(-5.0, 5.0, 2)),
        "scale": float(rng.uniform(0.5, 2.0)),
    }


def _random_oblique_basis(rng):
    # stay clear of the hexagonal shape so the verdict is a plain lattice
    angle = rng.uniform(math.radians(66.0), math.radians(88.0))
    ratio = rng.uniform(1.05, 1.6)
    return (1.0, 0.0), (ratio * math.cos(angle), ratio * math.sin(angle))


class TestClassifierRoundTrip:
    def test_sixty_randomized_instances(self):
        rng = np.random.default_rng(555)
        makers = [
            (TRIANGULAR_LATTICE, lambda: gen_triangular(float(rng.uniform(0.5, 2.0)))),
            (LATTICE, lambda: PeriodicConfig(
                np.array(_random_oblique_basis(rng)), [(0.0, 0.0)])),
            (LATTICE_WITH_MIDPOINTS, lambda: gen_lattice(
                *_random_oblique_basis(rng), SubsetFlags(True, True, False))),
            (HEX_VERTICES, lambda: gen_hexagonal(
                float(rng.uniform(0.5, 2.0)), SubsetFlags(True, False, False))),
            (HEX_WITH_MIDPOINTS, lambda: gen_hexagonal(
                float(rng.uniform(0.5, 2.0)), SubsetFlags(True, True, False))),
            (HEX_WITH_MIDPOINTS_AND_CENTERS, lambda: gen_hexagonal(
                float(rng.uniform(0.5, 2.0)), SubsetFlags(True, True, True))),
        ]
        hits = 0
        for expected_tag, make in makers:
            for _ in range(10):
                config = make().transformed(**_random_similarity(rng))
                result = classify(config)
                assert result.tag == expected_tag, f"got {result.tag}"
                hits += 1
                regen = regenerate(result)
                self._probe_membership(rng, config, regen)
                self._probe_membership(rng, regen, config)
        assert hits == 60

    @staticmethod
    def _probe_membership(rng, src, dst, count=500):
        cart = src.cartesian_motif()
        idx = rng.integers(0, len(cart), count)
        cells = rng.integers(-8, 9, (count, 2)).astype(float)
        probes = cart[idx] + cells @ src.basis
        ok = contains_many(dst, probes)
        assert np.all(ok), f"{int((~ok).sum())} of {count} probes missing"


def _nearest_config_dist(config, pts):
    """Distance from each query point to the nearest configuration point,
    scanning the 3x3 cell neighborhood around the rounded lattice shift."""
    inv = np.linalg.inv(config.basis)
    best = np.full(len(pts), np.inf)
    for m in config.cartesian_motif():
        frac = (pts - m) @ inv
        rem = frac - np.round(frac)
        for di in (-1.0, 0.0, 1.0):
            for dj in (-1.0, 0.0, 1.0):
                d = np.linalg.norm((rem + np.array([di, dj])) @ config.basis, axis=1)
                best = np.minimum(best, d)
    return best


_SWEEP_LATTICES = {
    "square": ((1.0, 0.0), (0.0, 1.0)),
    "hexagonal": ((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)),
    "rectangle": ((1.0, 0.0), (0.0, 1.7)),
    "oblique": ((1.0, 0.0), (0.3, 1.3)),
}


class TestPlanarClaimSweep:
    """The paper's planar claim on input no generator made: a periodic
    configuration is balanced exactly when it is one of the six periodic
    families, and exactly when it is group-balanced."""

    def test_quarter_grid_motifs(self):
        # motif[0] at the origin plus at most two of the 15 nonzero points of
        # the (1/4)Z^2 fractional grid, on four lattices: 4 x 121 inputs
        grid = [(i / 4.0, j / 4.0) for i in range(4) for j in range(4)][1:]
        subsets = [s for k in range(3) for s in itertools.combinations(grid, k)]
        periodic_tags = {
            TRIANGULAR_LATTICE,
            LATTICE,
            LATTICE_WITH_MIDPOINTS,
            HEX_VERTICES,
            HEX_WITH_MIDPOINTS,
            HEX_WITH_MIDPOINTS_AND_CENTERS,
        }
        start = time.perf_counter()
        tags = Counter()
        for name, basis in _SWEEP_LATTICES.items():
            for extra in subsets:
                c = PeriodicConfig(np.array(basis), np.array([(0.0, 0.0), *extra]))
                balanced = verify_plane(c).passed
                tag = classify(c).tag
                assert (tag != UNKNOWN) == balanced == is_group_balanced(c).verdict, (name, extra)
                assert tag in periodic_tags or not balanced, (name, extra)
                tags[tag] += 1
        elapsed = time.perf_counter() - start
        assert tags == {UNKNOWN: 456, LATTICE: 15, LATTICE_WITH_MIDPOINTS: 12, TRIANGULAR_LATTICE: 1}
        assert elapsed < 2.0, f"planar sweep took {elapsed:.2f}s"


class TestScaledPlanarClaimSweep:
    """TestPlanarClaimSweep's inputs with the basis scaled: the verdicts do
    not depend on scale while the rounding of window points stays within the
    absolute dedup_tol."""

    @pytest.mark.parametrize("scale", [1e4, 1e5])
    def test_quarter_grid_motifs(self, scale):
        grid = [(i / 4.0, j / 4.0) for i in range(4) for j in range(4)][1:]
        tags = Counter()
        for name, basis in _SWEEP_LATTICES.items():
            for extra in (s for k in range(3) for s in itertools.combinations(grid, k)):
                c = PeriodicConfig(scale * np.array(basis), np.array([(0.0, 0.0), *extra]))
                tag = classify(c).tag
                assert (tag != UNKNOWN) == verify_plane(c).passed == is_group_balanced(c).verdict, (name, extra)
                tags[tag] += 1
        assert tags == {UNKNOWN: 456, LATTICE: 15, LATTICE_WITH_MIDPOINTS: 12, TRIANGULAR_LATTICE: 1}


class TestGroupBalanceSuite:
    def test_witness_for_every_motif_point(self):
        for name, config in _planar_periodic_families():
            result = is_group_balanced(config)
            assert result.verdict, name
            min_d = min_distance(config)
            for p, witness in zip(config.cartesian_motif(), result.witnesses):
                assert witness is not None
                assert np.asarray(witness.center) == pytest.approx(p, abs=1e-12)
                window = points_within(config, p, 4.0 * min_d)
                rel = (window - p) @ np.array(
                    [
                        [math.cos(witness.angle), math.sin(witness.angle)],
                        [-math.sin(witness.angle), math.cos(witness.angle)],
                    ]
                )
                mismatch = _nearest_config_dist(config, rel + p).max()
                assert mismatch < 1e-9, f"{name}: witness mismatch {mismatch:.2e}"


def _brute_within(config, base, radius, tol=DEFAULT_TOL):
    """Exhaustive translate scan mirroring the library's inclusion rules."""
    smin = np.linalg.svd(config.basis, compute_uv=False)[-1]
    span = int(math.ceil((radius + 3.0) / smin)) + 2
    steps = np.arange(-span, span + 1, dtype=float)
    ii, jj = np.meshgrid(steps, steps, indexing="ij")
    shifts = np.column_stack([ii.ravel(), jj.ravel()]) @ config.basis
    cart = config.cartesian_motif()
    pts = (cart[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
    d = np.linalg.norm(pts - np.asarray(base, dtype=float), axis=1)
    keep = (d > tol.dedup_tol) & (d <= radius + tol.class_tol)
    order = np.argsort(d[keep], kind="stable")
    return pts[keep][order], d[keep][order]


def _brute_classes(dists, class_tol):
    groups = []
    start = 0
    for i in range(1, len(dists) + 1):
        if i == len(dists) or dists[i] - dists[i - 1] > class_tol:
            groups.append((start, i))
            start = i
    return groups


class TestEnumerationOracles:
    def test_fifty_random_periodic_configs(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 50:
            angle = rng.uniform(math.radians(50.0), math.radians(130.0))
            n1, n2 = rng.uniform(0.7, 1.5, 2)
            basis = np.array(
                [[n1, 0.0], [n2 * math.cos(angle), n2 * math.sin(angle)]]
            )
            motif = rng.uniform(0.0, 1.0, (int(rng.integers(1, 5)), 2))
            try:
                config = PeriodicConfig(basis, motif)
            except InvalidPointError:
                continue
            if min_distance(config) < 0.15:
                continue
            base = rng.uniform(-2.0, 2.0, 2)
            radius = float(rng.uniform(1.0, 8.0))

            want_pts, want_d = _brute_within(config, base, radius)
            got = points_within(config, base, radius)
            assert len(got) == len(want_pts)
            a = np.array(sorted(map(tuple, got)))
            b = np.array(sorted(map(tuple, want_pts)))
            assert np.allclose(a, b, atol=1e-9)

            classes = distance_classes(config, base, radius)
            groups = _brute_classes(want_d, DEFAULT_TOL.class_tol)
            assert len(classes) == len(groups)
            for cl, (s, e) in zip(classes, groups):
                assert cl.size == e - s
                assert cl.distance == pytest.approx(float(want_d[s:e].mean()), abs=1e-9)
                a = np.array(sorted(map(tuple, cl.points)))
                b = np.array(sorted(map(tuple, want_pts[s:e])))
                assert np.allclose(a, b, atol=1e-9)
            checked += 1


class TestPublicApi:
    def test_star_import_binds_every_exported_name(self):
        # a name left in __all__ after its import is gone breaks star imports
        import balanced_configs

        namespace = {}
        exec("from balanced_configs import *", namespace)
        assert [n for n in balanced_configs.__all__ if n not in namespace] == []
