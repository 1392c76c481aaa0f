"""Symmetry detection and family classification: rotation angles checked
against hand-counted point symmetries, neighbor signatures against counted
shells, and classification round-trips under random similarities."""
import cmath
import hashlib
import importlib
import math
import os
import sys
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
    ConfigClass,
    GroupBalanceResult,
    SymmetryWitness,
    classify,
    is_group_balanced,
    neighbor_case_signature,
    regenerate,
    rotation_symmetries_about,
    _classify_primitive,
)
from balanced_configs.cli import main
from balanced_configs.configs import (
    FinitePointSet,
    PeriodicConfig,
    contains_many,
    distance_classes,
    min_distance,
    points_within,
    primitive_periods,
)
from balanced_configs.docio import document_from, serialize
from balanced_configs.errors import InsufficientPatchError, ParameterDomainError
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

    @pytest.mark.parametrize("side", [1e3, 1e4])
    def test_rotors_come_from_unrounded_angles(self, side):
        # the angles are reported to 12 decimals, but a rotor of the rounded
        # 3 pi / 2 moves a window point at 4 side by more than dedup_tol
        angles = rotation_symmetries_about(PeriodicConfig(side * np.eye(2), [(0.0, 0.0)]), (0.0, 0.0))
        assert angles == [round(a, 12) for a in (TAU / 4, TAU / 2, 3 * TAU / 4)]
        assert is_group_balanced(PeriodicConfig(side * np.eye(2), [(0.0, 0.0)])).verdict


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

    @pytest.mark.parametrize(
        "points", [[(0.0, 0.0), (1.0, 0.0), (0.0, 3.0), (5.0, 7.0)], [(float(i), 0.0) for i in range(9)]]
    )
    def test_window_without_a_checkable_point_is_refused(self, points):
        # no point has its validation window inside the set: no witness is
        # no verdict, not a vacuous pass
        with pytest.raises(InsufficientPatchError, match="no point of the window"):
            is_group_balanced(FinitePointSet("plane", points))

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

    @pytest.mark.parametrize("pts", [[(1.0, 2.0)], [(1.0, 2.0)] * 3])
    def test_point_and_coincident_points_are_no_line(self, pts):
        # one point spans no direction, and neither do coincident points
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
        with pytest.raises(ValueError):
            regenerate(ConfigClass(UNKNOWN, {}))

    def test_internal_failure_propagates(self, monkeypatch):
        # only domain and numeric failures mean Unknown; a bug must surface
        # the package re-exports classify(), which shadows the module name
        classify_module = importlib.import_module("balanced_configs.classify")

        def broken(prim, tol):
            raise TypeError("injected")

        monkeypatch.setattr(classify_module, "_classify_primitive", broken)
        with pytest.raises(TypeError, match="injected"):
            classify(gen_triangular(1.0))

    def test_unspanned_periods_are_unknown(self, monkeypatch):
        from balanced_configs import configs

        def unspanned(q, p):
            raise ValueError("injected")

        monkeypatch.setattr(configs, "_finer_lattice", unspanned)
        assert classify(gen_triangular(1.0).supercell(2, 1)).tag == UNKNOWN


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


_ORACLE_ANGLE_TOL = 1e-7


def _oracle_neighbor_dirs(c, p, radius, tol):
    nbrs = points_within(c, p, radius, tol)
    return (nbrs[:, 0] - p[0]) + 1j * (nbrs[:, 1] - p[1])


def _oracle_gaps_equal(dirs, count, gap):
    if len(dirs) != count:
        return False
    angles = np.sort(np.mod(np.angle(dirs), TAU))
    diffs = np.diff(np.concatenate([angles, [angles[0] + TAU]]))
    return bool(np.all(np.abs(diffs - gap) < _ORACLE_ANGLE_TOL))


def _oracle_classify_hex(prim, cart, min_d, tol, tag):
    """The per-point hexagon recogniser: one points_within query per motif
    point, with the angular gaps of vertices and edge midpoints tested."""
    expected = {
        HEX_VERTICES: {3: 2},
        HEX_WITH_MIDPOINTS: {3: 2, 2: 3},
        HEX_WITH_MIDPOINTS_AND_CENTERS: {3: 2, 2: 3, 0: 1},
    }[tag]
    roles = {}
    counts = {}
    for p in cart:
        dirs = _oracle_neighbor_dirs(prim, p, min_d, tol)
        n = len(dirs)
        counts[n] = counts.get(n, 0) + 1
        if n == 3 and not _oracle_gaps_equal(dirs, 3, TAU / 3.0):
            return ConfigClass(UNKNOWN, {})
        if n == 2 and not _oracle_gaps_equal(dirs, 2, math.pi):
            return ConfigClass(UNKNOWN, {})
        roles.setdefault(n, []).append((p, dirs))
    if counts != expected:
        return ConfigClass(UNKNOWN, {})
    side = min_d if tag == HEX_VERTICES else 2.0 * min_d
    v0, dirs = roles[3][0]
    theta_nb = float(np.angle(dirs[0]))
    shift = complex(v0[0], v0[1]) - side * cmath.exp(1j * theta_nb)
    return ConfigClass(
        tag, {"side": side, "rotation": theta_nb - math.pi / 6.0, "translation": (shift.real, shift.imag)}
    )


def _oracle_classify_primitive(prim, tol):
    """Dispatch on motif size, with the per-point hexagon recogniser."""
    if prim.k in (1, 3):
        return _classify_primitive(prim, tol)
    tag = {2: HEX_VERTICES, 5: HEX_WITH_MIDPOINTS, 6: HEX_WITH_MIDPOINTS_AND_CENTERS}.get(prim.k)
    if tag is None:
        return ConfigClass(UNKNOWN, {})
    return _oracle_classify_hex(prim, prim.cartesian_motif(), min_distance(prim, tol), tol, tag)


def _planar_catalog_inputs(monkeypatch, seed):
    """The benchmark's planar-catalog configurations and negative control."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    workload = importlib.import_module("workloads").PlanarCatalog(None, seed)
    workload.prepare()
    return [config for _, config, _ in workload.items] + [workload.negative]


def _perturbed_hex_motifs():
    """Hexagonal motifs under a random motion with one point moved by 1e-9
    to 1e-2 in a random direction."""
    rng = np.random.default_rng(17)
    out = []
    for flags in (SubsetFlags(True, False, False), SubsetFlags(True, True, False), SubsetFlags(True, True, True)):
        for _ in range(40):
            c = gen_hexagonal(float(rng.uniform(0.5, 2.0)), flags).transformed(**_random_motion(rng))
            cart = c.cartesian_motif()
            step = 10.0 ** rng.uniform(-9.0, -2.0)
            angle = rng.uniform(0.0, TAU)
            cart[rng.integers(c.k)] += step * np.array([math.cos(angle), math.sin(angle)])
            out.append(PeriodicConfig(c.basis, cart @ np.linalg.inv(c.basis)))
    return out


class TestHexSignatureOracle:
    """The signature recogniser gives exactly the per-point recogniser's
    verdicts and canonical parameters."""

    def _assert_matches(self, monkeypatch, configs):
        classify_module = importlib.import_module("balanced_configs.classify")
        got = [repr(classify(c)) for c in configs]
        with monkeypatch.context() as m:
            m.setattr(classify_module, "_classify_primitive", _oracle_classify_primitive)
            want = [repr(classify(c)) for c in configs]
        assert got == want

    def test_family_supercells(self, monkeypatch):
        self._assert_matches(monkeypatch, [p.values[0] for p in _family_supercells()])

    @pytest.mark.parametrize("seed", [*range(1, 11), 1009])
    def test_planar_catalog(self, monkeypatch, seed):
        self._assert_matches(monkeypatch, _planar_catalog_inputs(monkeypatch, seed))

    def test_perturbed_hex_motifs(self, monkeypatch):
        configs = _perturbed_hex_motifs()
        self._assert_matches(monkeypatch, configs)
        # the moves reach every refusal: of the signature, of the per-point
        # recogniser's angle test only, and of the rebuild only
        refusals = set()
        for c in configs:
            prim = primitive_periods(c)
            refusals.add((_classify_primitive(prim, DEFAULT_TOL).tag, _oracle_classify_primitive(prim, DEFAULT_TOL).tag))
        assert {(UNKNOWN, UNKNOWN), (HEX_VERTICES, UNKNOWN), (HEX_VERTICES, HEX_VERTICES)} <= refusals

    def test_refused_rebuild_is_unknown(self, monkeypatch):
        from balanced_configs import generators

        def refused(*args, **kwargs):
            raise ParameterDomainError("injected")

        c = gen_hexagonal(1.0, SubsetFlags(True, False, False))
        monkeypatch.setattr(generators, "gen_hexagonal", refused)
        assert classify(c).tag == UNKNOWN


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name made through any loaded package module,
    by rebinding every package namespace that refers to it (as a span tracer
    placed from outside the package does)."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "balanced_configs" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


class TestTracedLayers:
    """The traced benchmark (perfbench/run.py --trace 1) measures the
    configs.points_within and configs.distance_classes layers only through
    these classify calls; without them a traced run raises "no spans for
    per-layer metrics".  This guard goes away once the per-layer metrics
    come from the package's own stage stats (ROADMAP item 1)."""

    CONFIG = gen_hexagonal(1.0, SubsetFlags(True, True, True))

    def test_classify_calls_points_within(self, monkeypatch):
        calls = _count_calls(monkeypatch, importlib.import_module("balanced_configs.configs"), "points_within")
        assert classify(self.CONFIG).tag == HEX_WITH_MIDPOINTS_AND_CENTERS
        assert calls

    def test_group_balance_calls_distance_classes(self, monkeypatch):
        calls = _count_calls(monkeypatch, importlib.import_module("balanced_configs.configs"), "distance_classes")
        assert is_group_balanced(self.CONFIG).verdict
        assert calls


def _golden_configs():
    motion = {"rotation": 0.7, "translation": (0.4, -1.1), "scale": 1.3}
    oblique = np.array([[1.0, 0.0], [0.35, 1.25]])
    families = {
        "triangular": gen_triangular(1.3),
        "lattice": PeriodicConfig(oblique, [(0.0, 0.0)]),
        "lattice-midpoints": gen_lattice(oblique[0], oblique[1], SubsetFlags(True, True, False)),
        "hex-vertices": gen_hexagonal(0.9, SubsetFlags(True, False, False)),
        "hex-midpoints": gen_hexagonal(0.9, SubsetFlags(True, True, False)),
        "hex-midpoints-centers": gen_hexagonal(0.9, SubsetFlags(True, True, True)),
    }
    configs = {name: f.transformed(**motion) for name, f in families.items()}
    configs["line"] = gen_line(9, 0.7)
    configs["off-centre"] = PeriodicConfig(np.eye(2), [(0.0, 0.0), (0.5, 0.52)])
    return configs


class TestGoldenClassifyReports:
    """CLI classify and symmetry stdout pinned by sha256, with the exit code:
    the six periodic families under one fixed motion, a Line and an Unknown
    control."""

    WANT = {
        ("classify", "triangular"): (0, "be1510e1171484c01b7b27f822fed766037e70eb59c38f4ce8fc3d46b66f7f23"),
        ("classify", "lattice"): (0, "b81ccb4f82728223360cfd868b8240694f72a0a27d1395c7ca6013f5b6965265"),
        ("classify", "lattice-midpoints"): (0, "327ed31dbee49c1a676a620449828df931774e0e224840ca41330fd6741a7d05"),
        ("classify", "hex-vertices"): (0, "90b1e5004e8a814cff362b107d191ce56df7c677af23765c1aa48723543b61a6"),
        ("classify", "hex-midpoints"): (0, "b79c0e77b720202fc7127e8098c395d3c377b7f5d28e88e29ed621775a5f9443"),
        ("classify", "hex-midpoints-centers"): (0, "762f99c9ba5bef91756071e4bbcefa78c637cd065a986df330de64e7b3c6a44f"),
        ("classify", "line"): (0, "31678b808ce6daa71de9bad741fb19e769c380f84d159ad61aecf3a040638daf"),
        ("classify", "off-centre"): (1, "f2669b508ef0acb2a94e2e68528c00b340ca047e9780d936328f3167988dbc72"),
        ("symmetry", "triangular"): (0, "7c6af726b37bcaf61006d1af7ec0a09957b4d848488951534481452f300e09dd"),
        ("symmetry", "lattice"): (0, "6867b6bdea734270ddeeb1539a8e135ead98930e964dca324b0b7911205e6241"),
        ("symmetry", "lattice-midpoints"): (0, "2e6f7680814b2078bd086efef4a356fcee9d012f566123096d12c6e451df2572"),
        ("symmetry", "hex-vertices"): (0, "736904fe37c113283533b68732f524353c5f45389e6adec122f1d6c6e963ba81"),
        ("symmetry", "hex-midpoints"): (0, "63520d8854a4bfc565ea72085db185d3bb9effb5184b5a0cbb80764f578ef5c9"),
        ("symmetry", "hex-midpoints-centers"): (0, "ca245c3160a6b62297838c9487f4b10d6d92ab4189dc512eed0d420743893853"),
        # no point of the 9-point line has its validation window inside it:
        # refused, exit 2 with nothing on stdout
        ("symmetry", "line"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("symmetry", "off-centre"): (1, "e0724b1d53d2f6f210b739a950398c45f966602be7a273881f2ae7ac88231dff"),
    }

    @pytest.mark.parametrize("command, name", list(WANT))
    def test_stdout_pinned(self, capsys, tmp_path, command, name):
        path = tmp_path / "config.json"
        path.write_text(serialize(document_from(_golden_configs()[name])))
        code = main([command, str(path)])
        got = (code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        assert got == self.WANT[command, name]
