"""Generator structure checks: motif composition, polyhedron counts, seed
triangle geometry measured independently, growth monotonicity, patch
completeness cross-checked against deeper builds, and the hyperbolic growth
core against the growth loop it replaced."""
import cmath
import hashlib
import heapq
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull, cKDTree

import balanced_configs
from balanced_configs import generators
from balanced_configs.configs import min_distance, points_within
from balanced_configs.docio import document_from, serialize
from balanced_configs.errors import DegenerateDirectionError, InvalidPointError, ParameterDomainError
from balanced_configs.generators import (
    _DEPTH_STEP_FRACTION,
    _ENDS,
    _PointStore,
    _build_rotation_tiling,
    _build_triangle_group,
    _grow,
    _half_turn_move,
    _reflect_move,
    _reflection_order,
    _rotation_order,
    _triangle_sides,
    RotationTilingFlags,
    RotationTilingParams,
    SubsetFlags,
    TriangleGroupFlags,
    TriangleGroupParams,
    gen_hexagonal,
    gen_hyp_rotation_tiling,
    gen_hyp_triangle_group,
    gen_lattice,
    gen_line,
    gen_sphere,
    gen_triangular,
    parse_sphere_kind,
)
from balanced_configs.hyperbolic import (
    _midpoint,
    _segment_dist,
    euclid_radius,
    hyp_dist,
    hyp_log_dir,
    radial_dist,
)

SQRT3 = math.sqrt(3.0)


def _hull_face_centers(verts):
    """Reference: unit face centres from the convex hull, grouped by face
    plane and ordered by the plane equation rounded to 7 places."""
    hull = ConvexHull(verts)
    groups = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        groups.setdefault(tuple(np.round(eq, 7)), set()).update(int(i) for i in simplex)
    centers = [verts[sorted(groups[key])].mean(axis=0) for key in sorted(groups)]
    return np.array([c / np.linalg.norm(c) for c in centers])


class TestPlanarFamilies:
    def test_triangular_first_shell(self):
        c = gen_triangular(2.0)
        nbrs = points_within(c, (0.0, 0.0), 2.0)
        assert len(nbrs) == 6
        assert min_distance(c) == pytest.approx(2.0, abs=1e-12)

    def test_lattice_subsets_compose(self):
        v1, v2 = (1.0, 0.0), (0.2, 1.3)
        only_v = gen_lattice(v1, v2, SubsetFlags(True, False, False))
        with_mid = gen_lattice(v1, v2, SubsetFlags(True, True, False))
        everything = gen_lattice(v1, v2, SubsetFlags(True, True, True))
        assert only_v.k == 1
        assert with_mid.k == 3
        assert everything.k == 4
        assert set(everything.labels) == {"vertex", "edge_midpoint", "face_center"}

    def test_subset_flags_require_something(self):
        with pytest.raises(ValueError):
            SubsetFlags(False, False, False)

    def test_hexagonal_vertex_neighbors(self):
        c = gen_hexagonal(1.0, SubsetFlags(True, False, False))
        v = c.cartesian_motif()[0]
        nbrs = points_within(c, v, 1.0)
        assert len(nbrs) == 3
        dirs = nbrs - v
        angles = sorted(math.atan2(d[1], d[0]) % (2 * math.pi) for d in dirs)
        gaps = np.diff(angles + [angles[0] + 2 * math.pi])
        assert gaps == pytest.approx([2 * math.pi / 3] * 3, abs=1e-9)

    def test_hexagonal_min_distances_per_subset(self):
        side = 1.0
        v = gen_hexagonal(side, SubsetFlags(True, False, False))
        vm = gen_hexagonal(side, SubsetFlags(True, True, False))
        vmc = gen_hexagonal(side, SubsetFlags(True, True, True))
        assert min_distance(v) == pytest.approx(side, abs=1e-12)
        assert min_distance(vm) == pytest.approx(side / 2.0, abs=1e-12)
        assert min_distance(vmc) == pytest.approx(side / 2.0, abs=1e-12)

    def test_line_layout(self):
        c = gen_line(5, 0.5)
        xs = sorted(p[0] for p in c.points)
        assert xs == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0], abs=1e-12)
        assert all(p[1] == 0.0 for p in c.points)
        with pytest.raises(ValueError):
            gen_line(2, 1.0)


class TestSphereFamilies:
    COUNTS = {
        "tetrahedron": (4, 6, 4),
        "cube": (8, 12, 6),
        "octahedron": (6, 12, 8),
        "dodecahedron": (20, 30, 12),
        "icosahedron": (12, 30, 20),
    }

    @pytest.mark.parametrize("kind", sorted(COUNTS))
    def test_platonic_counts(self, kind):
        nv, ne, nf = self.COUNTS[kind]
        v = gen_sphere(kind, SubsetFlags(True, False, False))
        e = gen_sphere(kind, SubsetFlags(False, True, False))
        f = gen_sphere(kind, SubsetFlags(False, False, True))
        assert (v.n, e.n, f.n) == (nv, ne, nf)
        both = gen_sphere(kind, SubsetFlags(True, True, True))
        assert both.n == nv + ne + nf

    @pytest.mark.parametrize("kind", sorted(COUNTS))
    def test_face_centers_match_convex_hull(self, kind):
        verts = gen_sphere(kind, SubsetFlags(True, False, False)).points
        faces = gen_sphere(kind, SubsetFlags(False, False, True)).points
        assert np.abs(faces - _hull_face_centers(verts)).max() <= 1e-15

    def test_generate_leaves_scipy_spatial_unloaded(self):
        src = os.path.dirname(os.path.dirname(balanced_configs.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys; from balanced_configs.generators import SubsetFlags, gen_sphere; "
            "[gen_sphere(k, SubsetFlags(True, True, True)) for k in "
            "('tetrahedron', 'cube', 'octahedron', 'dodecahedron', 'icosahedron')]; "
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

    def test_all_points_unit_norm(self):
        c = gen_sphere("dodecahedron", SubsetFlags(True, True, True))
        assert np.allclose(np.linalg.norm(c.points, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "name, broken, message",
        [("_platonic_edges", lambda verts: [], "edge detection for cube found 0 edges"),
         ("_platonic_faces", lambda kind: np.zeros((0, 3)), "face detection for cube found 0 faces")],
    )
    def test_miscounted_edges_or_faces_raise(self, monkeypatch, name, broken, message):
        monkeypatch.setattr(generators, name, broken)
        with pytest.raises(RuntimeError, match=message):
            gen_sphere("cube", SubsetFlags(True, False, False))

    def test_ngon_counts_and_poles(self):
        c = gen_sphere("ngon(5)", SubsetFlags(True, True, True))
        assert c.n == 5 + 5 + 2
        zs = sorted(p[2] for p in c.points)
        assert zs[0] == pytest.approx(-1.0) and zs[-1] == pytest.approx(1.0)

    def test_parse_sphere_kind(self):
        assert parse_sphere_kind("ngon(7)") == ("ngon", 7)
        assert parse_sphere_kind("ngon") == ("ngon", None)
        assert parse_sphere_kind("cube") == ("cube", None)
        # unknown names pass through; the generator rejects them
        assert parse_sphere_kind("prism") == ("prism", None)
        with pytest.raises(ValueError):
            gen_sphere("prism", SubsetFlags(True, False, False))
        with pytest.raises(ValueError):
            parse_sphere_kind("ngon(x)")


def _measured_angle(at, v1, v2):
    u1, u2 = hyp_log_dir(at, v1), hyp_log_dir(at, v2)
    ang = abs(cmath.phase(u2 / u1))
    return ang


def _hyp_law_of_cosines_sides(a1, a2, a3):
    """Oracle: side lengths of a hyperbolic triangle from its three angles."""
    out = []
    for opp, x, y in ((a1, a2, a3), (a2, a1, a3), (a3, a1, a2)):
        cosh_side = (math.cos(x) * math.cos(y) + math.cos(opp)) / (
            math.sin(x) * math.sin(y)
        )
        out.append(math.acosh(cosh_side))
    return out  # side opposite a1, a2, a3


class TestTriangleGroup:
    @pytest.mark.parametrize("pqr", [(3, 3, 3), (2, 4, 4), (2, 3, 6)])
    def test_euclidean_signature_rejected(self, pqr):
        # 1/2 + 1/3 + 1/6 sums to 0.9999999999999999 in floats
        with pytest.raises(ParameterDomainError):
            gen_hyp_triangle_group(
                TriangleGroupParams(*pqr, 1), TriangleGroupFlags(True, False, False)
            )

    def test_seed_triangle_angles_and_sides(self):
        p, q, r = 2, 3, 7
        c = gen_hyp_triangle_group(
            TriangleGroupParams(p, q, r, 0), TriangleGroupFlags(True, True, True)
        )
        assert c.n == 3
        by_label = {lab: pt for pt, lab in zip(c.points, c.labels)}
        zp = complex(*by_label["p_center"])
        zq = complex(*by_label["q_center"])
        zr = complex(*by_label["r_center"])
        assert abs(zp) < 1e-15  # p-vertex at the origin
        assert _measured_angle(zp, zq, zr) == pytest.approx(math.pi / p, abs=1e-10)
        assert _measured_angle(zq, zp, zr) == pytest.approx(math.pi / q, abs=1e-10)
        assert _measured_angle(zr, zp, zq) == pytest.approx(math.pi / r, abs=1e-10)
        want_qr, want_pr, want_pq = _hyp_law_of_cosines_sides(
            math.pi / p, math.pi / q, math.pi / r
        )
        assert hyp_dist(zp, zq) == pytest.approx(want_pq, abs=1e-10)
        assert hyp_dist(zp, zr) == pytest.approx(want_pr, abs=1e-10)
        assert hyp_dist(zq, zr) == pytest.approx(want_qr, abs=1e-10)

    def test_depth_prefix_and_patch_growth(self):
        f = TriangleGroupFlags(True, True, True)
        c3 = gen_hyp_triangle_group(TriangleGroupParams(2, 3, 7, 3), f)
        c4 = gen_hyp_triangle_group(TriangleGroupParams(2, 3, 7, 4), f)
        assert c4.n > c3.n
        assert c4.patch_radius > c3.patch_radius
        assert np.array_equal(c3.points, c4.points[: c3.n])
        assert c3.labels == c4.labels[: c3.n]

    def test_patch_complete_against_deeper_build(self):
        f = TriangleGroupFlags(True, True, True)
        small = gen_hyp_triangle_group(TriangleGroupParams(2, 4, 5, 2), f)
        big = gen_hyp_triangle_group(TriangleGroupParams(2, 4, 5, 5), f)
        radius = 0.6
        dists = small.center_dists()
        bases = small.points[small.patch_radius - dists >= radius]
        assert len(bases) > 0
        for base in bases[:8]:
            got = points_within(small, base, radius)
            want = points_within(big, base, radius)
            assert len(got) == len(want)
            assert np.allclose(got, want, atol=1e-9)

    def test_around_p_vertex(self):
        # around a p-vertex the tiling closes with 2p triangles, but adjacent
        # triangles share their pq edges, so only p distinct nearest q-centers
        # appear: 2 of them for the (2,4,5) group
        c = gen_hyp_triangle_group(
            TriangleGroupParams(2, 4, 5, 3), TriangleGroupFlags(False, True, False)
        )
        first = points_within(c, (0.0, 0.0), 1.0e-9 + float(min(c.center_dists()[c.center_dists() > 1e-12])))
        assert len(first) == 2


class TestRotationTiling:
    def test_angle_sum_enforced(self):
        with pytest.raises(ParameterDomainError):
            RotationTilingParams(1.0, 1.0, 1.0, 3, 1)

    def test_seed_angles(self):
        a, b, g = (math.radians(x) for x in (30.0, 40.0, 50.0))
        params = RotationTilingParams(a, b, g, 3, 0)
        c = gen_hyp_rotation_tiling(params, RotationTilingFlags(True, False, False, False))
        assert c.n == 3
        za, zb, zg = (complex(*p) for p in c.points)
        assert abs(za) < 1e-15
        assert _measured_angle(za, zb, zg) == pytest.approx(a, abs=1e-10)
        assert _measured_angle(zb, za, zg) == pytest.approx(b, abs=1e-10)
        assert _measured_angle(zg, za, zb) == pytest.approx(g, abs=1e-10)

    def test_midpoints_are_midpoints(self):
        a, b, g = (math.radians(x) for x in (30.0, 40.0, 50.0))
        params = RotationTilingParams(a, b, g, 3, 0)
        verts = gen_hyp_rotation_tiling(
            params, RotationTilingFlags(True, False, False, False)
        ).points
        za, zb, zg = (complex(*p) for p in verts)
        for flags, ends in (
            (RotationTilingFlags(False, True, False, False), (za, zb)),
            (RotationTilingFlags(False, False, True, False), (za, zg)),
            (RotationTilingFlags(False, False, False, True), (zb, zg)),
        ):
            mids = gen_hyp_rotation_tiling(params, flags).points
            assert len(mids) == 1
            m = complex(*mids[0])
            assert hyp_dist(ends[0], m) == pytest.approx(hyp_dist(m, ends[1]), abs=1e-10)
            assert hyp_dist(ends[0], m) + hyp_dist(m, ends[1]) == pytest.approx(
                hyp_dist(ends[0], ends[1]), abs=1e-10
            )

    def test_growth_monotone_and_subset(self):
        a = math.radians(40.0)
        f = RotationTilingFlags(True, True, True, True)
        c2 = gen_hyp_rotation_tiling(RotationTilingParams(a, a, a, 3, 2), f)
        c3 = gen_hyp_rotation_tiling(RotationTilingParams(a, a, a, 3, 3), f)
        assert c3.n > c2.n
        assert c3.patch_radius > c2.patch_radius
        tree = cKDTree(c3.points)
        d, _ = tree.query(c2.points)
        assert float(d.max()) < 1e-12

    def test_patch_complete_against_deeper_build(self):
        a = math.radians(40.0)
        f = RotationTilingFlags(True, True, True, True)
        small = gen_hyp_rotation_tiling(RotationTilingParams(a, a, a, 3, 2), f)
        big = gen_hyp_rotation_tiling(RotationTilingParams(a, a, a, 3, 5), f)
        radius = 1.0
        dists = small.center_dists()
        bases = small.points[small.patch_radius - dists >= radius]
        assert len(bases) > 0
        for base in bases[:8]:
            got = points_within(small, base, radius)
            want = points_within(big, base, radius)
            assert len(got) == len(want)
            assert np.allclose(got, want, atol=1e-9)

    def test_equilateral_vertex_valence(self):
        # alpha = beta = gamma = 40 degrees, m = 3: every vertex meets 9
        # tiles, so 9 nearest vertex neighbors at equal distance
        a = math.radians(40.0)
        c = gen_hyp_rotation_tiling(
            RotationTilingParams(a, a, a, 3, 3), RotationTilingFlags(True, False, False, False)
        )
        first_d = float(np.sort(c.center_dists()[c.center_dists() > 1e-12])[0])
        nbrs = points_within(c, (0.0, 0.0), first_d + 1e-9)
        assert len(nbrs) == 9


class TestPointStore:
    # offsets of a coordinate from the centre of its 1e-6 hash cell: well
    # inside the cell, 0.5e-9 from its edge, and on the edge
    EDGE_OFFSETS = (0.0, 0.3e-6, 0.4995e-6, 0.5e-6, -0.5e-6)

    @pytest.mark.parametrize("ox", EDGE_OFFSETS)
    @pytest.mark.parametrize("oy", EDGE_OFFSETS)
    def test_dedup_across_cell_edges(self, ox, oy):
        # points just under 1e-9 away merge, points 2e-9 away stay distinct,
        # whichever cell each falls in
        store = _PointStore()
        z = complex(0.25 + ox, -0.125 + oy)  # 0.25 and -0.125 are cell centres
        assert store.intern(z) == (0, True)
        for step in (1, 1j, -1, -1j, (1 + 1j) / math.sqrt(2.0)):
            assert store.intern(z + 0.999e-9 * step) == (0, False)
        fresh = [store.intern(z + 2e-9 * step) for step in (1, 1j, -1, -1j)]
        assert fresh == [(1, True), (2, True), (3, True), (4, True)]
        assert store.intern(z + 2e-9) == (1, False)
        assert store.pos[0] == z

    def test_straddling_pairs(self):
        # pairs whose members fall into neighbouring hash cells
        store = _PointStore()
        edge = 0.1234565  # a cell edge: 1e6 * edge is a half-integer
        a, created = store.intern(complex(edge - 0.5e-9, 0.0))
        assert created
        assert store.intern(complex(edge + 0.5e-9, 0.0)) == (a, False)
        b, created = store.intern(complex(edge + 1.5e-9, 0.0))
        assert created and b != a
        c, created = store.intern(complex(0.0, edge - 1e-9))
        assert created
        assert store.intern(complex(0.0, edge + 1e-9)) == (c + 1, True)

    @pytest.mark.parametrize(
        "z",
        [1 + 0j, 0.6 + 0.8j, -2j, complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 0.0)],
    )
    def test_rejects_points_off_the_disk(self, z):
        store = _PointStore()
        with pytest.raises(InvalidPointError):
            store.intern(z)
        assert store.pos == [] and store.grid == {}


class TestGoldenDocuments:
    """Depth-4 documents pinned by sha256: the tiling builders and the
    document writer must reproduce these bytes exactly."""

    def _sha(self, config):
        return hashlib.sha256(serialize(document_from(config)).encode()).hexdigest()

    def test_rotation_tiling_all_sets(self):
        params = RotationTilingParams(math.radians(30), math.radians(40), math.radians(50), 3, 4)
        config = gen_hyp_rotation_tiling(params, RotationTilingFlags(True, True, True, True))
        assert config.n == 4303
        assert self._sha(config) == "2f379b7888ac75e610d31f8cc31e05339107bc841469787070f6887bfd9c104d"

    def test_triangle_group_all_sets(self):
        config = gen_hyp_triangle_group(
            TriangleGroupParams(2, 3, 7, 4), TriangleGroupFlags(True, True, True)
        )
        assert config.n == 137
        assert self._sha(config) == "2c7588cc5a1beaab4380e17f8d9c8d3649190e39a443612fdb1b658030ae48e6"

    @pytest.mark.parametrize(
        "pqr, depth, n, sha",
        [
            # the edge popped at the stop distance ties with other frontier edges
            ((4, 4, 4), 3, 149, "fa66eae6726ed3b468e2f5eb12473959de6ea0b7790417f41bb5c61ef5d50f42"),
            ((2, 3, 8), 6, 603, "0ea7748f31ad93cc8a5f3bf8e159bde9ec693f20c71cd83af39c6d78ec611c6c"),
            ((3, 3, 5), 2, 43, "bca8d41b2a2be15db039788cf47a1891958f3a80b3b591eddfed6de80e7c2be4"),
        ],
    )
    def test_more_triangle_groups(self, pqr, depth, n, sha):
        config = gen_hyp_triangle_group(TriangleGroupParams(*pqr, depth), TriangleGroupFlags(True, True, True))
        assert config.n == n
        assert self._sha(config) == sha

    @pytest.mark.parametrize(
        "degrees, m, depth, n, sha",
        [
            ((20, 30, 40), 4, 3, 4677, "1227c96886027c5e6d9b99abc3f6485c35ec0d148bd546ae317ad0fc24e90e38"),
            ((40, 40, 40), 3, 5, 7894, "14552d395a4bb463dd1548d43bdbcc2df1401aedc1ac19a45cfd5d06a49c6c46"),
        ],
    )
    def test_more_rotation_tilings(self, degrees, m, depth, n, sha):
        params = RotationTilingParams(*(math.radians(a) for a in degrees), m, depth)
        config = gen_hyp_rotation_tiling(params, RotationTilingFlags(True, True, True, True))
        assert config.n == n
        assert self._sha(config) == sha

    # the point-set selection of the flag-driven families: set order and labels
    @pytest.mark.parametrize(
        "build, n, sha",
        [
            (
                lambda: gen_lattice((1.0, 0.0), (0.3, 1.3), SubsetFlags(True, True, False)),
                3,
                "21aed6038006811bbab047ba78f57f011bed4d6e0684795c65e831d4e896b0f9",
            ),
            (
                lambda: gen_hexagonal(1.0, SubsetFlags(True, True, True)),
                6,
                "2e058abc1dc6819ab632b0f1e767499d053c8fd756cef93f45fb9624fb5057ac",
            ),
            (
                lambda: gen_sphere("icosahedron", SubsetFlags(True, True, True)),
                62,
                "4ce8790ba81f4c306c63406e55115d4dedb17bb89ee86e59bd427280e737ac75",
            ),
            (
                lambda: gen_hyp_rotation_tiling(
                    RotationTilingParams(math.radians(30), math.radians(40), math.radians(50), 3, 4),
                    RotationTilingFlags(mid_ac=True),
                ),
                975,
                "6f4e666f4b87b06efaf99d8c24097f465a836704b46b3bae803e0f8ec11fd8a1",
            ),
        ],
        ids=["lattice-vertices-midpoints", "hexagonal-all-sets", "icosahedron-all-sets", "rotation-tiling-mid-ac"],
    )
    def test_selected_sets(self, build, n, sha):
        config = build()
        assert len(config.labels) == n
        assert self._sha(config) == sha


class TestGrowthChecks:
    """The growth core checks that every tile, edge and midpoint it reaches
    twice agrees with itself; a move that gets the roles wrong is caught."""

    @pytest.mark.parametrize(
        "angles, turn, swap, order",
        [
            # a reflection keeps the roles of the crossed edge's endpoints
            ((math.pi / 2, math.pi / 3, math.pi / 7), _reflect_move, True, _reflection_order),
            # a half-turn exchanges them
            (tuple(math.radians(a) for a in (30, 40, 50)), _half_turn_move, False, _rotation_order),
        ],
    )
    def test_wrong_role_swap_raises(self, angles, turn, swap, order):
        with pytest.raises(RuntimeError, match="inconsistent edge class"):
            _grow(angles, 2, turn, swap, order)


def _dict_grow(angles, depth, turn, swap, order):
    """The growth loop that the flat edge table replaced, kept as the oracle:
    edges in a dict of 4-item lists, heap ties broken by a counter, and every
    midpoint interned in a second _PointStore as it is made."""
    sides = _triangle_sides(*angles)
    stop = depth * _DEPTH_STEP_FRACTION * max(sides)

    store = _PointStore()
    for z in (0j, complex(euclid_radius(sides[2]), 0.0), euclid_radius(sides[1]) * cmath.exp(1j * angles[0])):
        store.intern(z)
    pos = store.pos
    rad = [radial_dist(abs(z)) for z in pos]
    roles = [0, 1, 2]
    mstore = _PointStore()
    mid_classes = []

    tiles = {frozenset((0, 1, 2)): (0, 1, 2)}
    edges = {}
    heap = []
    tick = itertools.count()

    def push(tile, classes):
        for k in classes:
            i, j = _ENDS[k]
            a, b = tile[i], tile[j]
            ek = (a, b) if a < b else (b, a)
            entry = edges.get(ek)
            if entry is not None:
                if entry[2] != k:
                    raise RuntimeError("inconsistent edge class in hyperbolic tiling")
                entry[0] = False
                continue
            mid = _midpoint(pos[a], pos[b])
            midx, created = mstore.intern(mid)
            if created:
                mid_classes.append(k)
            elif mid_classes[midx] != k:
                raise RuntimeError("edge-midpoint class collision in hyperbolic tiling")
            edges[ek] = [True, tile, k, mid]
            u, v = ek
            heapq.heappush(heap, (_segment_dist(pos[u], pos[v], min(rad[u], rad[v])), next(tick), u, v))

    patch_radius = 0.0
    try:
        push((0, 1, 2), order((0, 1, 2), None))
        while heap:
            dist, _, u, v = heapq.heappop(heap)
            entry = edges[(u, v)]
            if not entry[0]:
                continue
            if dist >= stop:
                patch_radius = dist
                break
            entry[0] = False
            _, tile, k, mid = entry
            nidx, created = store.intern(turn(pos[u], pos[v], mid, pos[tile[k]]))
            if created:
                rad.append(radial_dist(abs(pos[nidx])))
                roles.append(k)
            new_tile = list(tile)
            new_tile[k] = nidx
            if swap:
                i, j = _ENDS[k]
                new_tile[i], new_tile[j] = tile[j], tile[i]
            new_tile = tuple(new_tile)
            key = frozenset(new_tile)
            prev = tiles.get(key)
            if prev is not None:
                if prev != new_tile:
                    raise RuntimeError("inconsistent tile roles in hyperbolic tiling")
                continue
            tiles[key] = new_tile
            push(new_tile, order(new_tile, (u, v)))
    except DegenerateDirectionError as exc:
        raise ParameterDomainError(
            f"depth {depth} reaches tiles too close to the disk boundary to resolve: {exc}"
        ) from exc
    return pos, roles, mstore.pos, mid_classes, patch_radius


def _outcome(build, *args):
    """A build's output as bytes, its points as complex and its roles and
    classes as int8, or its exception's type and message."""
    try:
        pos, roles, mids, classes, patch_radius = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    as_bytes = lambda a, dtype: np.asarray(a, dtype=dtype).tobytes()  # noqa: E731
    return (
        as_bytes(pos, complex), as_bytes(roles, np.int8), as_bytes(mids, complex), as_bytes(classes, np.int8),
        patch_radius.hex(),
    )


# the families of scripts/tiling_digests.py
_TRIANGLE_GROUPS = ((2, 3, 7), (2, 4, 5), (3, 3, 4), (2, 3, 8), (4, 4, 4), (2, 5, 5), (3, 3, 5))
_ROTATION_TILINGS = (
    ((40, 40, 40), 3),
    ((30, 40, 50), 3),
    ((20, 30, 40), 4),
    ((60, 30, 30), 3),
    ((25, 25, 40), 4),
    ((10, 20, 42), 5),
)


class TestGrowthOracle:
    """_grow returns exactly the points, roles, midpoints, classes and
    patch_radius of the dict-based loop it replaced, or raises the same
    error."""

    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("pqr", _TRIANGLE_GROUPS)
    def test_triangle_groups(self, pqr, depth):
        angles = tuple(math.pi / n for n in pqr)
        want = _outcome(_dict_grow, angles, depth, _reflect_move, False, _reflection_order)
        assert _outcome(_build_triangle_group, *pqr, depth) == want

    @pytest.mark.parametrize("depth", range(5))
    @pytest.mark.parametrize("degrees, m", _ROTATION_TILINGS)
    def test_rotation_tilings(self, degrees, m, depth):
        angles = tuple(math.radians(a) for a in degrees)
        want = _outcome(_dict_grow, angles, depth, _half_turn_move, True, _rotation_order)
        assert _outcome(_build_rotation_tiling, *angles, m, depth) == want

    # moves that give back the opposite vertex, so that the tile comes back
    # whole, or collapse the tile onto an end of the crossed edge
    @pytest.mark.parametrize("depth", range(3))
    @pytest.mark.parametrize("order", [_reflection_order, _rotation_order])
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize(
        "move", [lambda a, b, mid, z: z, lambda a, b, mid, z: a, lambda a, b, mid, z: b], ids=["z", "a", "b"]
    )
    @pytest.mark.parametrize(
        "angles",
        [tuple(math.pi / n for n in (2, 3, 7)), tuple(math.radians(a) for a in (30, 40, 50))],
        ids=["237", "30-40-50"],
    )
    def test_degenerate_moves(self, angles, move, swap, order, depth):
        want = _outcome(_dict_grow, angles, depth, move, swap, order)
        assert _outcome(_grow, angles, depth, move, swap, order) == want


class TestGrowthTables:
    """The growth core keys its tables by integers and hands back arrays."""

    def test_builds_are_read_only_arrays(self):
        rotation = tuple(math.radians(a) for a in (30, 40, 50)) + (3, 2)
        for build, args in ((_build_triangle_group, (2, 3, 7, 3)), (_build_rotation_tiling, rotation)):
            pos, roles, mids, classes, _ = build(*args)
            assert (pos.dtype, roles.dtype, mids.dtype, classes.dtype) == (complex, np.int8, complex, np.int8)
            assert len(roles) == len(pos) and len(classes) == len(mids)
            assert not any(a.flags.writeable for a in (pos, roles, mids, classes))

    def test_depth5_peak_memory(self):
        # the depth-5 (30, 40, 50) build: 11,841 edges; 5.39 MB traced at
        # its peak, against 5.91 MB with a table of tiles as well and
        # 7.34 MB with tuple and frozenset keys and lists of Python complex
        # numbers returned
        angles = tuple(math.radians(a) for a in (30, 40, 50))
        tracemalloc.start()
        try:
            _grow(angles, 5, _half_turn_move, True, _rotation_order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6_500_000


class TestMidpointCollision:
    def test_cli_refuses_colliding_midpoints_promptly(self):
        # two midpoints of different classes fall within the dedup distance;
        # growth must stop at the next midpoint check, not run on unbounded
        src = os.path.dirname(os.path.dirname(balanced_configs.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning", "-m", "balanced_configs",
                "generate", "--family", "rotation-tiling",
                "--angles", "0.01,0.01,119.98", "--order", "3", "--depth", "1",
            ],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert "edge-midpoint class collision" in proc.stderr
