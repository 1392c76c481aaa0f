"""Symmetry detection and family classification: rotation angles checked
against hand-counted point symmetries, neighbor signatures against counted
shells, and classification round-trips under random similarities."""
import cmath
import math
import tracemalloc

import numpy as np
import pytest

from balanced_configs.classify import (
    HEX_VERTICES,
    HEX_WITH_MIDPOINTS,
    HEX_WITH_MIDPOINTS_AND_CENTERS,
    LATTICE,
    LATTICE_WITH_MIDPOINTS,
    LINE,
    TRIANGULAR_LATTICE,
    UNKNOWN,
    GroupBalanceResult,
    SymmetryWitness,
    classify,
    is_group_balanced,
    neighbor_case_signature,
    regenerate,
    rotation_symmetries_about,
)
from balanced_configs.configs import (
    FinitePointSet,
    PeriodicConfig,
    contains_many,
    distance_classes,
    min_distance,
    points_within,
)
from balanced_configs.generators import (
    SubsetFlags,
    gen_hexagonal,
    gen_lattice,
    gen_line,
    gen_sphere,
    gen_triangular,
)
from balanced_configs.geometry import DEFAULT_TOL
from balanced_configs.verify import _base_points_for

TAU = 2.0 * math.pi


def _square():
    return PeriodicConfig(np.eye(2), [(0.0, 0.0)])


def _rhombic(angle_deg=75.0):
    a = math.radians(angle_deg)
    return PeriodicConfig(np.array([[1.0, 0.0], [math.cos(a), math.sin(a)]]), [(0.0, 0.0)])


class TestRotationSymmetries:
    def test_square_lattice_fourfold(self):
        angles = rotation_symmetries_about(_square(), (0.0, 0.0))
        assert angles == pytest.approx([TAU / 4, TAU / 2, 3 * TAU / 4], abs=1e-9)

    def test_rhombic_only_half_turn(self):
        angles = rotation_symmetries_about(_rhombic(), (0.0, 0.0))
        assert angles == pytest.approx([math.pi], abs=1e-9)

    def test_triangular_sixfold(self):
        angles = rotation_symmetries_about(gen_triangular(1.0), (0.0, 0.0))
        assert angles == pytest.approx([k * TAU / 6 for k in range(1, 6)], abs=1e-9)

    def test_honeycomb_vertex_threefold_no_half_turn(self):
        c = gen_hexagonal(1.0, SubsetFlags(True, False, False))
        v = c.cartesian_motif()[0]
        angles = rotation_symmetries_about(c, v)
        assert angles == pytest.approx([TAU / 3, 2 * TAU / 3], abs=1e-9)

    def test_center_must_belong(self):
        with pytest.raises(ValueError):
            rotation_symmetries_about(_square(), (0.25, 0.25))


class TestGroupBalance:
    @pytest.mark.parametrize(
        "config",
        [
            gen_triangular(1.0),
            _rhombic(),
            gen_hexagonal(1.0, SubsetFlags(True, False, False)),
            gen_hexagonal(1.0, SubsetFlags(True, True, False)),
            gen_hexagonal(1.0, SubsetFlags(True, True, True)),
            gen_lattice((1.0, 0.0), (0.0, 1.0), SubsetFlags(True, True, False)),
        ],
    )
    def test_balanced_families_have_witnesses(self, config):
        result = is_group_balanced(config)
        assert result.verdict
        assert len(result.witnesses) == config.k
        for w in result.witnesses:
            assert w is not None
            assert 0.0 < w.angle < TAU

    def test_off_center_motif_is_not_group_balanced(self):
        c = PeriodicConfig(np.eye(2), [(0.0, 0.0), (0.5, 0.52)])
        result = is_group_balanced(c)
        assert not result.verdict
        assert any(w is None for w in result.witnesses)

    def test_finite_line_half_turns(self):
        result = is_group_balanced(gen_line(15, 1.0))
        assert result.verdict
        assert all(w.angle == pytest.approx(math.pi) for w in result.witnesses)

    def test_rejects_non_planar(self):
        with pytest.raises(ValueError):
            is_group_balanced(gen_sphere("cube", SubsetFlags(True, False, False)))


class TestNeighborSignature:
    def test_counted_signatures(self):
        assert neighbor_case_signature(gen_triangular(1.0)) == (6,)
        assert neighbor_case_signature(_square()) == (4,)
        hexv = gen_hexagonal(1.0, SubsetFlags(True, False, False))
        assert neighbor_case_signature(hexv) == (3, 3)
        hexvm = gen_hexagonal(1.0, SubsetFlags(True, True, False))
        assert neighbor_case_signature(hexvm) == (3, 3, 2, 2, 2)
        hexvmc = gen_hexagonal(1.0, SubsetFlags(True, True, True))
        assert neighbor_case_signature(hexvmc) == (3, 3, 2, 2, 2, 0)
        sq_mid = gen_lattice((1.0, 0.0), (0.0, 1.0), SubsetFlags(True, True, False))
        assert neighbor_case_signature(sq_mid) == (4, 2, 2)

    def test_requires_periodic(self):
        with pytest.raises(ValueError):
            neighbor_case_signature(gen_line(5, 1.0))


def _random_motion(rng):
    return {
        "rotation": float(rng.uniform(0.0, TAU)),
        "translation": tuple(rng.uniform(-3.0, 3.0, 2)),
        "scale": float(rng.uniform(0.5, 2.0)),
    }


def _assert_same_point_set(a, b):
    """Probe agreement: every motif point of each lies in the other."""
    for src, dst in ((a, b), (b, a)):
        cart = src.cartesian_motif()
        shifts = np.array([[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)
        probes = (cart[:, None, :] + (shifts @ src.basis)[None, :, :]).reshape(-1, 2)
        assert np.all(contains_many(dst, probes))


class TestClassify:
    def test_triangular_under_motion(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = _random_motion(rng)
            c = gen_triangular(1.5).transformed(**m)
            cc = classify(c)
            assert cc.tag == TRIANGULAR_LATTICE
            assert cc.canonical_params["side"] == pytest.approx(1.5 * m["scale"], rel=1e-9)
            _assert_same_point_set(c, regenerate(cc))

    def test_generic_lattice_under_motion(self):
        rng = np.random.default_rng(4)
        base = PeriodicConfig(np.array([[1.0, 0.0], [0.3, 1.4]]), [(0.0, 0.0)])
        for _ in range(5):
            c = base.transformed(**_random_motion(rng))
            cc = classify(c)
            assert cc.tag == LATTICE
            _assert_same_point_set(c, regenerate(cc))

    def test_square_lattice_is_lattice_not_triangular(self):
        cc = classify(_square().transformed(rotation=0.3))
        assert cc.tag == LATTICE
        basis = np.array(cc.canonical_params["basis"])
        assert np.linalg.norm(basis[0]) == pytest.approx(1.0, rel=1e-9)
        assert abs(np.linalg.det(basis)) == pytest.approx(1.0, rel=1e-9)

    def test_lattice_with_midpoints_under_motion(self):
        rng = np.random.default_rng(5)
        base = gen_lattice((1.0, 0.0), (0.2, 1.1), SubsetFlags(True, True, False))
        for _ in range(5):
            c = base.transformed(**_random_motion(rng))
            cc = classify(c)
            assert cc.tag == LATTICE_WITH_MIDPOINTS
            _assert_same_point_set(c, regenerate(cc))

    @pytest.mark.parametrize(
        "flags,tag",
        [
            (SubsetFlags(True, False, False), HEX_VERTICES),
            (SubsetFlags(True, True, False), HEX_WITH_MIDPOINTS),
            (SubsetFlags(True, True, True), HEX_WITH_MIDPOINTS_AND_CENTERS),
        ],
    )
    def test_hex_families_under_motion(self, flags, tag):
        rng = np.random.default_rng(6)
        for _ in range(3):
            m = _random_motion(rng)
            c = gen_hexagonal(0.8, flags).transformed(**m)
            cc = classify(c)
            assert cc.tag == tag
            assert cc.canonical_params["side"] == pytest.approx(0.8 * m["scale"], rel=1e-9)
            _assert_same_point_set(c, regenerate(cc))

    def test_supercell_input_reduces_to_primitive(self):
        cc = classify(gen_triangular(1.0).supercell(3, 2))
        assert cc.tag == TRIANGULAR_LATTICE
        cc2 = classify(gen_hexagonal(1.0, SubsetFlags(True, False, False)).supercell(2, 2))
        assert cc2.tag == HEX_VERTICES

    def test_line_roundtrip(self):
        rot = np.array(
            [[math.cos(0.9), math.sin(0.9)], [-math.sin(0.9), math.cos(0.9)]]
        )
        pts = gen_line(9, 0.7).points @ rot + np.array([2.0, -1.0])
        cc = classify(FinitePointSet("plane", pts))
        assert cc.tag == LINE
        assert cc.canonical_params["spacing"] == pytest.approx(0.7, abs=1e-9)
        assert cc.canonical_params["n"] == 9
        regen = regenerate(cc)
        got = np.array(sorted(map(tuple, regen.points)))
        want = np.array(sorted(map(tuple, pts)))
        assert got == pytest.approx(want, abs=1e-9)

    def test_uneven_line_is_unknown(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (2.5, 0.0)])
        assert classify(FinitePointSet("plane", pts)).tag == UNKNOWN

    def test_bent_line_is_unknown(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.3)])
        assert classify(FinitePointSet("plane", pts)).tag == UNKNOWN

    def test_off_center_motif_is_unknown(self):
        c = PeriodicConfig(np.eye(2), [(0.0, 0.0), (0.5, 0.52)])
        assert classify(c).tag == UNKNOWN

    def test_random_three_point_motif_is_unknown(self):
        rng = np.random.default_rng(8)
        c = PeriodicConfig(np.eye(2), rng.uniform(0.05, 0.95, (3, 2)))
        assert classify(c).tag == UNKNOWN

    def test_rejects_non_planar(self):
        with pytest.raises(ValueError):
            classify(gen_sphere("cube", SubsetFlags(True, False, False)))

    def test_regenerate_unknown_raises(self):
        from balanced_configs.classify import ConfigClass

        with pytest.raises(ValueError):
            regenerate(ConfigClass(UNKNOWN, {}))


def _oracle_rotations(c, p, tol=DEFAULT_TOL):
    """The per-base witness search: the first class found by doubling the
    radius from the minimal distance, then one window query and one
    membership probe per candidate angle."""
    p = np.asarray(p, dtype=float).reshape(2)
    min_d = min_distance(c, tol)
    radius, first = min_d, np.zeros((0, 2))
    for _ in range(8):
        classes = distance_classes(c, p, radius, tol)
        if classes:
            first = classes[0].points
            break
        radius *= 2.0
    if len(first) == 0:
        return []
    rel = (first[:, 0] - p[0]) + 1j * (first[:, 1] - p[1])
    cands = {round(math.pi, 12)}
    for w in rel:
        ang = cmath.phase(w / rel[0]) % TAU
        if 1e-9 < ang < TAU - 1e-9:
            cands.add(round(ang, 12))
    window = points_within(c, p, 4.0 * min_d, tol)
    window_rel = (window[:, 0] - p[0]) + 1j * (window[:, 1] - p[1])
    validated = []
    for ang in sorted(cands):
        rot = window_rel * cmath.exp(1j * ang)
        if np.all(contains_many(c, np.column_stack([rot.real + p[0], rot.imag + p[1]]), tol)):
            validated.append(float(ang))
    return validated


def _oracle_group_balance(c, tol=DEFAULT_TOL):
    min_d = min_distance(c, tol)
    reach = 0.0 if isinstance(c, PeriodicConfig) else 4.0 * min_d + min_d
    witnesses = []
    for p in _base_points_for(c, reach, tol):
        angles = _oracle_rotations(c, p, tol)
        witnesses.append(SymmetryWitness(center=tuple(p), angle=angles[0]) if angles else None)
    return GroupBalanceResult(verdict=None not in witnesses, witnesses=tuple(witnesses))


def _family_supercells():
    rng = np.random.default_rng(11)
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
        pytest.param(f.supercell(na, nb).transformed(**_random_motion(rng)), id=f"{i}-{na}x{nb}")
        for i, f in enumerate(families)
        for na, nb in ((1, 1), (2, 1), (1, 2), (2, 2))
    ]


def _triangular_window():
    i, j = np.meshgrid(np.arange(-8, 9), np.arange(-8, 9))
    pts = np.column_stack([(i + 0.5 * j).ravel(), (j * math.sqrt(3.0) / 2.0).ravel()])
    return FinitePointSet("plane", pts[np.hypot(pts[:, 0], pts[:, 1]) <= 6.5])


def _edge_cases():
    grid = np.array([(x, y) for x in range(15) for y in range(15)], dtype=float)
    return [
        pytest.param(FinitePointSet("plane", grid), id="grid-15x15"),
        pytest.param(gen_line(15, 1.0), id="line-15"),
        pytest.param(_triangular_window(), id="triangular-window"),
        pytest.param(PeriodicConfig(np.eye(2), [(0.0, 0.0), (0.5, 0.52)]), id="off-centre"),
        # shells at 2 and 2 + 1e-6 cannot be separated, but lie past the first class
        pytest.param(PeriodicConfig(np.diag([1.0, 2.0 + 1e-6]), [(0.0, 0.0)]), id="far-ambiguous-shells"),
        # (5, 5) has no neighbour within 4 min_d = 0.4: the doubling fallback
        pytest.param(PeriodicConfig(10.0 * np.eye(2), [(0.0, 0.0), (0.01, 0.0), (0.5, 0.5)]), id="lone-point"),
    ]


class TestBatchedWitnessSearch:
    """The batched search gives exactly the per-base search's answers."""

    @pytest.mark.parametrize("config", _family_supercells() + _edge_cases())
    def test_matches_per_base_search(self, config):
        assert repr(is_group_balanced(config)) == repr(_oracle_group_balance(config))
        points = config.cartesian_motif() if isinstance(config, PeriodicConfig) else config.points
        for p in points:
            assert rotation_symmetries_about(config, p) == _oracle_rotations(config, p)

    def test_lone_point_found_by_doubling(self):
        c = PeriodicConfig(10.0 * np.eye(2), [(0.0, 0.0), (0.01, 0.0), (0.5, 0.5)])
        assert rotation_symmetries_about(c, (5.0, 5.0))[0] == pytest.approx(math.pi)

    def test_peak_memory_is_bounded(self):
        # about 0.6 MB in 2^13-element chunks, 2.2 MB with the batch unchunked
        c = gen_hexagonal(1.0, SubsetFlags(True, True, True)).supercell(2, 2)
        is_group_balanced(c)
        tracemalloc.start()
        try:
            is_group_balanced(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000
