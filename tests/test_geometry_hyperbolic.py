"""Geometry primitives checked against independent numerical oracles:
quadrature for the disk metric, finite differences for tangent directions,
and brute-force minimization for segment distances.  The disk maps that
only the tiling builders call are tested through their private cores."""
import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from balanced_configs import hyperbolic
from balanced_configs.configs import FinitePointSet, PeriodicConfig, _pair_dists
from balanced_configs.errors import DegenerateDirectionError, InvalidPointError, ParameterDomainError
from balanced_configs.geometry import Tolerance, as_vec, row_norms
from balanced_configs.hyperbolic import (
    _half_turn,
    _log_dir,
    _midpoint,
    _reflect_through,
    _segment_dist,
    _translate,
    _untranslate,
    as_disk_point,
    euclid_radius,
    hyp_dist,
    hyp_log_dir,
    radial_dist,
)
from balanced_configs.verify import verify_sphere


def _rand_disk(rng, rmax=0.85):
    """Random point with |z| <= rmax."""
    r = rmax * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return cmath.rect(r, phi)


def _segment_dist_to_origin(a, b):
    """Hyperbolic distance from the origin to the segment [a, b]: the core
    given the nearer endpoint's distance, as the tiling builders call it."""
    return _segment_dist(a, b, min(radial_dist(abs(a)), radial_dist(abs(b))))


def _geodesic(a, b, dedup_tol=1e-9):
    """The geodesic through two distinct points as (kind, direction, center,
    radius): a diameter with a unit direction, or an arc of the circle
    |z - center| = radius orthogonal to the unit circle.  The helper that
    _segment_dist was built on before it computed each quantity once; kept
    with _parent_segment_dist as the oracle of its arithmetic."""
    if abs(a - b) <= dedup_tol:
        raise DegenerateDirectionError("two distinct points are required to span a geodesic")
    cross = a.real * b.imag - a.imag * b.real
    if abs(cross) <= 1e-13 * max(abs(a) * abs(b), abs(a - b)):
        return "diameter", (b - a) / abs(b - a), 0j, 0.0
    ra = abs(a) ** 2 + 1.0
    rb = abs(b) ** 2 + 1.0
    det = 2.0 * cross
    cx = (ra * b.imag - rb * a.imag) / det
    cy = (rb * a.real - ra * b.real) / det
    c = complex(cx, cy)
    r2 = abs(c) ** 2 - 1.0
    if not r2 > 0.0:
        raise DegenerateDirectionError("the points are too close to resolve the geodesic through them")
    return "arc", 0j, c, math.sqrt(r2)


def _parent_segment_dist(a, b, end):
    """_segment_dist as it was written through _geodesic."""
    if abs(a - b) <= 1e-15:
        return end
    kind, direction, center, radius = _geodesic(a, b)
    if kind == "diameter":
        ta = (a / direction).real
        tb = (b / direction).real
        if min(ta, tb) <= 0.0 <= max(ta, tb):
            return 0.0
        return end
    foot = center - radius * (center / abs(center))
    pa = cmath.phase((a - center) / (foot - center))
    pb = cmath.phase((b - center) / (foot - center))
    if min(pa, pb) <= 0.0 <= max(pa, pb):
        return radial_dist(abs(center) - radius)
    return end


def _metric_length_along_segment(a, b, steps=4000):
    """Independent oracle: integrate 2|dz|/(1-|z|^2) along the geodesic by
    pulling the segment to a diameter through the origin."""
    # translate a to origin; the geodesic to the image of b is a straight ray
    w = _translate(a, b)
    r = abs(w)
    val, _ = quad(lambda t: 2.0 / (1.0 - t * t), 0.0, r, limit=200)
    return val


class TestPlaneAndSphereBasics:
    def test_as_vec_shape_guard(self):
        with pytest.raises(Exception):
            as_vec((1.0, 2.0, 3.0), 2)

    def test_euclid_dist(self):
        assert _pair_dists("plane", np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_rotate_plane_quarter_turn(self):
        # the motif point at (1, 0) turns counterclockwise onto (0, 1)
        c = PeriodicConfig(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([[0.5, 0.0]]))
        p = c.transformed(rotation=math.pi / 2.0).cartesian_motif()[0]
        assert np.allclose(p, (0.0, 1.0), atol=1e-12)

    def test_sphere_dist_is_chordal(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert _pair_dists("sphere", a, b) == pytest.approx(math.sqrt(2.0))

    def test_tangent_projection_orthogonal_to_base(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        c = FinitePointSet("sphere", pts)
        proj = verify_sphere(c, mode="tangent_projection")
        base = proj.bases[proj.class_owner]
        assert np.all(np.abs(np.sum(proj.residual * base, axis=1)) < 1e-12)
        # the projection and the cross product with a unit base agree in norm
        cross = verify_sphere(c, mode="scalar_multiple")
        assert np.allclose(proj.residual_norm, cross.residual_norm, atol=1e-12)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            Tolerance(class_tol=-1.0, residual_tol=1e-9, dedup_tol=1e-9)
        # NaN fails every comparison, and an infinite tolerance bounds nothing
        for bad in (
            dict(residual_tol=math.nan),
            dict(residual_tol=math.inf),
            dict(class_tol=math.nan),
            dict(class_tol=math.inf),
            dict(dedup_tol=math.nan),
        ):
            with pytest.raises(ParameterDomainError):
                Tolerance(**bad)


def _norm_rows(seed, n, cols):
    """Seeded rows with coordinates of either sign and magnitude 1e-150 to
    1e150, some rows at one scale (so no term is negligible), and rows and
    coordinates of signed zeros."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], size=(n, cols))
    x = sign * 10.0 ** rng.uniform(-150.0, 150.0, size=(n, cols))
    x[: n // 4] = sign[: n // 4] * rng.random((n // 4, cols)) * 10.0 ** rng.uniform(-150.0, 150.0, size=(n // 4, 1))
    zero = rng.random((n, cols)) < 0.1
    x[zero] = np.copysign(0.0, sign[zero])
    x[-2:] = [[0.0] * cols, [-0.0] * cols]
    return x


# rows whose norm passes the float range: a square that overflows, and on
# three columns squares that fit but whose sum does not
_OVERFLOW_ROWS = {
    2: ([1e200, 0.0], [-1.2e154, 1.2e154], [0.0, -1e300]),
    3: ([1e200, 0.0, 0.0], [1e154, -1e154, 1e154], [0.0, 0.0, 1e160]),
}


class TestRowNorms:
    """geometry.row_norms, the one Euclidean row-norm kernel, against
    np.linalg.norm(x, axis=-1), bit for bit."""

    @pytest.mark.parametrize("cols", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bits_match_linalg_norm(self, seed, cols):
        x = _norm_rows(seed, 4000, cols)
        assert row_norms(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()
        # stacked and strided layouts, as the kernels pass them
        stacked = x.reshape(10, 20, 20, cols)
        assert row_norms(stacked).tobytes() == np.linalg.norm(stacked, axis=-1).tobytes()
        cols_first = np.ascontiguousarray(x.T).T
        assert row_norms(cols_first).tobytes() == np.linalg.norm(cols_first, axis=-1).tobytes()
        assert row_norms(x[::3]).tobytes() == np.linalg.norm(x[::3], axis=-1).tobytes()

    @pytest.mark.parametrize("cols", [2, 3])
    def test_column_norms_of_a_matrix(self, cols):
        inv = _norm_rows(4, cols, cols)
        assert row_norms(inv.T).tobytes() == np.linalg.norm(inv, axis=0).tobytes()

    @pytest.mark.parametrize("cols", [2, 3])
    def test_overflow_warns_as_linalg_norm_does(self, cols):
        finite = _norm_rows(5, 8, cols)
        for row in _OVERFLOW_ROWS[cols]:
            x = np.vstack([finite, row])
            # the RuntimeWarning is an error under this suite's filter
            with pytest.raises(RuntimeWarning, match="overflow encountered"):
                np.linalg.norm(x, axis=-1)
            with pytest.raises(RuntimeWarning, match="overflow encountered"):
                row_norms(x)
            with np.errstate(over="ignore"):
                got, want = row_norms(x), np.linalg.norm(x, axis=-1)
            assert got.tobytes() == want.tobytes() and got[-1] == math.inf


class TestDiskMetric:
    def test_radial_dist_matches_integral(self):
        for r in (0.1, 0.5, 0.9, 0.99):
            val, _ = quad(lambda t: 2.0 / (1.0 - t * t), 0.0, r)
            assert radial_dist(r) == pytest.approx(val, abs=1e-10)

    def test_euclid_radius_inverts_radial_dist(self):
        for d in (0.05, 0.7, 2.0, 5.0):
            assert radial_dist(euclid_radius(d)) == pytest.approx(d, abs=1e-12)

    def test_hyp_dist_matches_metric_integral(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = complex(*(rng.uniform(-0.6, 0.6, 2)))
            b = complex(*(rng.uniform(-0.6, 0.6, 2)))
            if abs(a - b) < 1e-6:
                continue
            assert hyp_dist(a, b) == pytest.approx(
                _metric_length_along_segment(a, b), abs=1e-9
            )

    def test_hyp_dist_symmetry_and_triangle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b, c = (_rand_disk(rng) for _ in range(3))
            assert hyp_dist(a, b) == pytest.approx(hyp_dist(b, a), abs=1e-12)
            assert hyp_dist(a, c) <= hyp_dist(a, b) + hyp_dist(b, c) + 1e-12

    def test_boundary_rejected(self):
        with pytest.raises(Exception):
            as_disk_point((1.0, 0.0))

    def test_dist_matches_mpmath_near_coincidence_and_boundary(self):
        """The array distance against 50-digit arithmetic on the same float
        inputs, for 1 - |z| from 0.5 down to 1e-12 and separations from 1e-12
        to far apart.  Rounding |p| moves 1 - |p| by about eps, so the
        relative error may grow like eps / (1 - |p|), and no further."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(41)
        a, z = [], []
        for gap in (0.5, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            for sep in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.0):
                for _ in range(4):
                    phi = rng.uniform(0.0, 2.0 * math.pi)
                    p = cmath.rect(1.0 - gap * rng.uniform(1.0, 2.0), phi)
                    # half the pairs move along the circle, half in a random direction
                    if rng.uniform() < 0.5:
                        q = cmath.rect(1.0 - gap * rng.uniform(1.0, 2.0), phi + sep)
                    else:
                        q = p + cmath.rect(sep * (1.0 - abs(p)), rng.uniform(0.0, 2.0 * math.pi))
                    if abs(q) < 1.0:
                        a.append(p)
                        z.append(q)
        a, z = np.array(a), np.array(z)
        with np.errstate(all="raise"):
            got = hyperbolic._dist(a, z)
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            for p, q, d in zip(a.tolist(), z.tolist(), got.tolist()):
                px, py, qx, qy = map(mpmath.mpf, (p.real, p.imag, q.real, q.imag))
                s2 = ((qx - px) ** 2 + (qy - py) ** 2) / ((1 - px**2 - py**2) * (1 - qx**2 - qy**2))
                want = 2 * mpmath.asinh(mpmath.sqrt(s2))
                bound = 4 * eps * (1.0 + 1.0 / (1.0 - abs(p)) + 1.0 / (1.0 - abs(q)))
                assert abs(d - want) <= bound * want, (p, q, d, want)


class TestMobiusMaps:
    def test_translate_then_untranslate_roundtrip(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            c = complex(*rng.uniform(-0.7, 0.7, 2))
            z = complex(*rng.uniform(-0.9, 0.9, 2))
            if abs(z) >= 0.95:
                continue
            w = _translate(c, z)
            assert abs(_untranslate(c, w) - z) < 1e-12

    def test_translate_is_isometry(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            c = complex(*rng.uniform(-0.7, 0.7, 2))
            z1, z2 = _rand_disk(rng, 0.9), _rand_disk(rng, 0.9)
            assert hyp_dist(z1, z2) == pytest.approx(
                hyp_dist(_translate(c, z1), _translate(c, z2)), abs=1e-10
            )

    def test_log_dir_matches_finite_difference(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = complex(*rng.uniform(-0.5, 0.5, 2))
            b = complex(*rng.uniform(-0.5, 0.5, 2))
            if abs(a - b) < 1e-3:
                continue
            u = hyp_log_dir(a, b)
            assert abs(abs(u) - 1.0) < 1e-12
            # walk a tiny step from a toward b along the geodesic: the
            # chordal direction of that step should match u
            w = _translate(a, b)
            step = _untranslate(a, w / abs(w) * 1e-7)
            fd = (step - a) / abs(step - a)
            assert abs(fd - u) < 1e-5

    def test_midpoint_is_equidistant_and_on_geodesic(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            a = complex(*rng.uniform(-0.7, 0.7, 2))
            b = complex(*rng.uniform(-0.7, 0.7, 2))
            if abs(a - b) < 1e-6:
                continue
            m = _midpoint(a, b)
            assert hyp_dist(a, m) == pytest.approx(hyp_dist(m, b), abs=1e-11)
            assert hyp_dist(a, m) + hyp_dist(m, b) == pytest.approx(
                hyp_dist(a, b), abs=1e-10
            )

    def test_half_turn_is_involutive_isometry_fixing_center(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            c = complex(*rng.uniform(-0.6, 0.6, 2))
            z = _rand_disk(rng)
            image = _half_turn(c, z)
            assert abs(_half_turn(c, image) - z) < 1e-11
            assert hyp_dist(c, z) == pytest.approx(hyp_dist(c, image), abs=1e-11)
            assert abs(_midpoint(z, image) - c) < 1e-9 or abs(z - c) < 1e-9

    def test_half_turn_fixes_its_center(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            c = _rand_disk(rng)
            assert abs(_half_turn(c, c) - c) < 1e-12

    def test_midpoint_of_coincident_points_is_the_point(self):
        a = complex(0.3, -0.6)
        assert _midpoint(a, a) == a

    def test_rotate_about_preserves_distance_to_center(self):
        # rotation about c: carry c to the origin, turn, carry back
        c = complex(0.3, -0.2)
        z = complex(-0.4, 0.5)
        w = _untranslate(c, cmath.rect(1.0, 1.234) * _translate(c, z))
        assert hyp_dist(c, w) == pytest.approx(hyp_dist(c, z), abs=1e-12)

    def test_log_dir_of_coincident_points_raises(self):
        with pytest.raises(DegenerateDirectionError):
            _log_dir(0.4j, 0.4j + 1e-12)
        with pytest.raises(DegenerateDirectionError):
            hyp_log_dir(0.4j, 0.4j)


class TestGeodesics:
    """The _geodesic oracle draws the right circles, and _segment_dist
    computes exactly what the oracle's segment distance computes."""

    def test_geodesic_through_origin_is_diameter(self):
        kind, _, _, _ = _geodesic(0j, complex(0.5, 0.5))
        assert kind == "diameter"

    def test_offcenter_geodesic_orthogonal_to_boundary(self):
        kind, _, center, radius = _geodesic(complex(0.3, 0.1), complex(0.2, -0.4))
        assert kind == "arc"
        # orthogonality: |center|^2 = 1 + radius^2
        assert abs(center) ** 2 == pytest.approx(1.0 + radius**2, abs=1e-10)

    def test_geodesic_passes_through_both_points(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            a, b = _rand_disk(rng), _rand_disk(rng)
            if abs(a - b) < 1e-3:
                continue
            kind, direction, center, radius = _geodesic(a, b)
            assert kind == "arc"
            assert abs(a - center) == pytest.approx(radius, abs=1e-9)
            assert abs(b - center) == pytest.approx(radius, abs=1e-9)
        kind, direction, _, _ = _geodesic(complex(-0.2, 0.1), complex(0.4, -0.2))
        assert kind == "diameter"
        assert abs(direction - complex(0.6, -0.3) / abs(complex(0.6, -0.3))) < 1e-12

    def test_segment_on_a_diameter(self):
        # the origin lies between the endpoints: distance zero; otherwise
        # the nearer endpoint is nearest
        assert _segment_dist_to_origin(complex(-0.3, 0.3), complex(0.5, -0.5)) == 0.0
        a, b = complex(0.2, 0.1), complex(0.6, 0.3)
        assert _segment_dist_to_origin(a, b) == radial_dist(abs(a))
        assert _segment_dist_to_origin(b, a) == radial_dist(abs(a))

    def test_reflection_is_isometric_involution_fixing_the_line(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = complex(*rng.uniform(-0.6, 0.6, 2))
            b = complex(*rng.uniform(-0.6, 0.6, 2))
            if abs(a - b) < 1e-3:
                continue
            z1, z2 = _rand_disk(rng), _rand_disk(rng)
            r1, r2 = _reflect_through(a, b, z1), _reflect_through(a, b, z2)
            assert abs(_reflect_through(a, b, r1) - z1) < 1e-10
            assert hyp_dist(r1, r2) == pytest.approx(hyp_dist(z1, z2), abs=1e-9)
            assert abs(_reflect_through(a, b, a) - a) < 1e-11
            assert abs(_reflect_through(a, b, b) - b) < 1e-11

    def test_segment_dist_to_origin_matches_minimization(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            a = complex(*rng.uniform(-0.7, 0.7, 2))
            b = complex(*rng.uniform(-0.7, 0.7, 2))
            if abs(a - b) < 1e-4:
                continue

            def along(t):
                w = _translate(a, b)
                return abs(_untranslate(a, w * t))

            res = minimize_scalar(
                lambda t: radial_dist(along(t)), bounds=(0.0, 1.0), method="bounded",
                options={"xatol": 1e-12},
            )
            oracle = min(res.fun, radial_dist(abs(a)), radial_dist(abs(b)))
            assert _segment_dist_to_origin(a, b) == pytest.approx(oracle, abs=1e-7)

    def test_segment_dist_matches_parent_bit_for_bit(self):
        # arcs, diameters and near-diameters, pairs near the boundary and
        # pairs on either side of the 1e-15 and 1e-9 length thresholds
        rng = np.random.default_rng(34)
        pairs = []
        for _ in range(400):
            a, b = _rand_disk(rng, 0.999), _rand_disk(rng, 0.999)
            pairs.append((a, b))
            along = rng.uniform(-0.999, 0.999) * a / abs(a)
            pairs.append((a, along * complex(1.0, rng.choice([0.0, 1e-14, 1e-12]))))
            pairs.append((a, a + cmath.rect(10.0 ** rng.uniform(-16.0, -5.0), rng.uniform(0.0, 2.0 * math.pi))))
        for a, b in pairs:
            end = min(radial_dist(abs(a)), radial_dist(abs(b)))
            try:
                want = _parent_segment_dist(a, b, end)
            except DegenerateDirectionError as exc:
                with pytest.raises(DegenerateDirectionError, match=str(exc)):
                    _segment_dist(a, b, end)
            else:
                assert _segment_dist(a, b, end).hex() == want.hex()


class TestPublicPrimitivesValidate:
    """The public primitives check every input point; the unchecked cores
    behind them never see a point off the open disk."""

    CALLS = {
        "as_disk_point": as_disk_point,
        "hyp_dist": lambda p: hyp_dist(p, 0.2j),
        "hyp_dist_second": lambda p: hyp_dist(0.2j, p),
        "hyp_log_dir": lambda p: hyp_log_dir(0.3, p),
        "hyp_log_dir_base": lambda p: hyp_log_dir(p, 0.3),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("bad", [1.0 + 0j, (0.6, -0.8), complex(math.nan, 0.0), (math.inf, 0.0)])
    def test_points_off_the_disk_raise(self, name, bad):
        with pytest.raises(InvalidPointError):
            self.CALLS[name](bad)

    @pytest.mark.parametrize("p", [complex(0.3, -0.4), (0.3, -0.4), [0.3, -0.4], np.array([0.3, -0.4])])
    def test_pairs_coerce_to_complex(self, p):
        assert as_disk_point(p) == complex(0.3, -0.4)

    def test_real_numbers_coerce_to_complex(self):
        assert as_disk_point(0.5) == complex(0.5, 0.0)
        assert as_disk_point(0) == 0j

    def test_array_distance_matches_scalar(self):
        rng = np.random.default_rng(33)
        pts = np.array([_rand_disk(rng, 0.95) for _ in range(30)])
        c = complex(0.1, 0.7)
        want = [hyp_dist(c, p) for p in pts]
        assert np.allclose(hyperbolic._dist(c, pts), want, rtol=1e-14, atol=0.0)
        xy = np.column_stack([pts.real, pts.imag])
        assert np.allclose(_pair_dists("disk", np.array([c.real, c.imag]), xy), want, rtol=1e-14, atol=0.0)

    def test_coincident_points_raise(self):
        with pytest.raises(DegenerateDirectionError):
            _reflect_through(0.3 + 0j, 0.3 + 1e-12 + 0j, 0.1j)
        with pytest.raises(DegenerateDirectionError, match="two distinct points"):
            _segment_dist_to_origin(0.3 + 0j, 0.3 + 1e-10 + 0j)
        assert _segment_dist_to_origin(0.3 + 0j, 0.3 + 0j) == pytest.approx(radial_dist(0.3), abs=0.0)

    def test_unresolvable_geodesic_near_the_boundary_raises(self):
        # 1.06e-6 apart with 1 - |z| ~ 1e-6: rounding leaves no positive
        # radius for the orthogonal circle through them
        a = 0.8700950668540577 + 0.49288190739489807j
        b = 0.8700952245447933 + 0.4928808568946632j
        with pytest.raises(DegenerateDirectionError, match="too close to resolve"):
            _segment_dist_to_origin(a, b)
