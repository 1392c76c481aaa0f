"""Catalog checks: closed forms recomputed through independent identities,
scene distances pinned to 6 decimals, determinism of repeated runs, and the
greedy gap-angle sweep."""
import math

import pytest

from balanced_configs.errors import SceneError
from balanced_configs.inequalities import (
    check_angle_bound_60_90,
    greedy_bisector_sum,
    run_catalog,
    scene_s5,
    scene_s6,
    scene_s7,
)

SQRT3 = math.sqrt(3.0)


def _by_id(results):
    return {r.id: r for r in results}


class TestCatalog:
    def test_all_entries_pass(self):
        results = run_catalog()
        assert len(results) == 15
        failing = [r.id for r in results if not r.passed]
        assert failing == []

    def test_expected_ids(self):
        ids = {r.id for r in run_catalog()}
        assert ids == {
            "L1", "L2", "L3", "L4", "L5", "L6", "L7",
            "S1", "S2", "S3", "S4", "S5", "S6a", "S6b", "S7",
        }

    def test_two_runs_identical(self):
        a = run_catalog()
        b = run_catalog()
        assert [(r.id, r.computed) for r in a] == [(r.id, r.computed) for r in b]

    def test_closed_form_identities(self):
        got = _by_id(run_catalog())
        # 2*sqrt(2)*sin(15 deg) collapses to sqrt(3) - 1
        assert got["L2"].computed == pytest.approx(SQRT3 - 1.0, abs=1e-12)
        assert got["L7"].computed == got["L2"].computed
        # sin(15) = cos(75) makes the two sqrt(3) separations coincide
        assert got["L6"].computed == pytest.approx(got["L3"].computed, abs=1e-12)
        assert got["L1"].computed == pytest.approx(-0.069350, abs=1e-6)
        assert got["L4"].computed == pytest.approx(-0.519106, abs=1e-6)
        assert got["L5"].computed == pytest.approx(-0.012805, abs=1e-6)

    def test_scene_values(self):
        got = _by_id(run_catalog())
        assert got["S1"].computed == pytest.approx(0.517638, abs=1e-6)
        assert got["S2"].computed == pytest.approx(0.802421, abs=1e-6)
        # the (5,4) scene lands exactly on sqrt(3) - 1
        assert got["S3"].computed == pytest.approx(SQRT3 - 1.0, abs=1e-9)
        assert got["S4"].computed == pytest.approx(got["L3"].computed, abs=1e-9)
        assert got["S5"].computed == pytest.approx(1.0226615, abs=1e-6)
        assert got["S6a"].computed == pytest.approx(1.2616146, abs=1e-6)
        assert got["S6b"].computed == pytest.approx(1.5, abs=1e-12)
        assert got["S7"].computed == pytest.approx(0.553542, abs=1e-6)

    def test_bound_margins(self):
        for r in run_catalog():
            if r.id in ("L1", "L4", "L5"):
                assert 0.0 - r.computed > 1e-3
            if r.id in ("L2", "L3", "L6", "L7", "S1", "S2", "S3", "S4", "S7"):
                assert 1.0 - r.computed > 1e-3

    def test_tight_match_tol_fails(self):
        # the reference values carry two decimals, so a 1e-9 tolerance must
        # flag mismatches rather than silently passing
        results = run_catalog(match_tol=1e-9)
        assert any(not r.matches_expected for r in results)

    def test_scene_solvers_are_deterministic(self):
        assert scene_s5() == scene_s5()
        assert scene_s6() == scene_s6()
        assert scene_s7() == scene_s7()

    def test_scene_assertions_raise(self):
        from balanced_configs.inequalities import _assert_scene, _bisect

        with pytest.raises(SceneError):
            _assert_scene("X", False, "drifted")
        with pytest.raises(SceneError):
            _bisect(lambda x: 1.0, 0.0, 1.0)

    def test_bisect_roots_at_the_ends_and_iteration_cap(self):
        from balanced_configs.inequalities import _bisect

        assert _bisect(lambda x: x - 0.25, 0.25, 1.0) == 0.25
        assert _bisect(lambda x: x - 1.0, 0.25, 1.0) == 1.0
        # three halvings of [0, 1] about 0.3 end on [0.25, 0.375]
        assert _bisect(lambda x: x - 0.3, 0.0, 1.0, max_iter=3) == 0.3125


class TestGapSweep:
    def test_hexagon_gap_is_exact_zero(self):
        assert greedy_bisector_sum(60.0) == pytest.approx(0.0, abs=1e-12)

    def test_just_past_hexagon_is_positive(self):
        # between 60 and 90 degrees the greedy sum can still be positive;
        # only from 90 on does it go negative
        assert greedy_bisector_sum(61.0) > 0.0

    def test_ninety_matches_catalog_entry(self):
        got = _by_id(run_catalog())
        assert greedy_bisector_sum(90.0) == pytest.approx(got["L1"].computed, abs=1e-12)

    def test_monotone_decrease_past_ninety(self):
        values = [greedy_bisector_sum(g) for g in (90.0, 110.0, 130.0, 150.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v < 0.0 for v in values)

    def test_sweep_negative_throughout(self):
        assert check_angle_bound_60_90(200)
        assert check_angle_bound_60_90(1001)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            check_angle_bound_60_90(99)

    def test_sweep_fails_on_a_nonnegative_sum(self, monkeypatch):
        from balanced_configs import inequalities

        monkeypatch.setattr(inequalities, "greedy_bisector_sum", lambda gap: 0.0 if gap > 120.0 else -1.0)
        assert not check_angle_bound_60_90(200)
