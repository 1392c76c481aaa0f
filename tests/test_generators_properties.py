"""Property tests of the hyperbolic growth core's midpoint check: on random
disk points with planted near pairs, _intern_midpoints keeps exactly the
points and classes that interning them one by one in a _PointStore keeps, or
raises the same error, and _certified vouches for a list exactly when every
point lies in the disk and no two are within 2 * _DEDUP.  Skipped when
hypothesis is not installed."""
import cmath
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from balanced_configs.generators import (  # noqa: E402
    _DEDUP,
    _HASH_CELL,
    _PointStore,
    _certified,
    _intern_midpoints,
)

# distances of planted pairs, in units of _DEDUP: merged, on the threshold,
# kept apart but inside the certificate's margin, and outside it
_PLANTED = (0.5, 1.0, 1.5, 2.5)
_OFF_DISK = (1 + 0j, 0.6 + 0.8j, -1.5j, complex(math.nan, 0.1), complex(0.2, math.inf))


@st.composite
def _disk_point(draw, rmax=0.95):
    r = rmax * math.sqrt(draw(st.floats(0.0, 1.0)))
    return cmath.rect(r, draw(st.floats(0.0, 2.0 * math.pi)))


@st.composite
def _midpoints(draw):
    """Midpoints with classes: random disk points, partners planted at the
    distances in _PLANTED (some straddling a hash-cell edge), with the same
    class or another, and perhaps one point off the disk, in any order."""
    points = [(draw(_disk_point()), draw(st.integers(0, 2))) for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.integers(0, 5))):
        gap = draw(st.sampled_from(_PLANTED)) * _DEDUP
        if draw(st.booleans()):
            # across the edge between two hash cells, along x or y
            edge = (draw(st.integers(-800_000, 800_000)) + 0.5) * _HASH_CELL
            step = draw(st.sampled_from((1, 1j)))
            other = draw(st.floats(-0.5, 0.5))
            base = (edge - draw(st.floats(0.0, 1.0)) * gap) * step + other * (1j if step == 1 else 1)
        else:
            base = draw(_disk_point(0.9))
            step = cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
        k = draw(st.integers(0, 2))
        partner_class = k if draw(st.booleans()) else (k + draw(st.integers(1, 2))) % 3
        points += [(base, k), (base + gap * step, partner_class)]
    if draw(st.integers(0, 3)) == 0:
        points.append((draw(st.sampled_from(_OFF_DISK)), draw(st.integers(0, 2))))
    points = draw(st.permutations(points))
    return [z for z, _ in points], [k for _, k in points]


def _one_by_one(mids, classes):
    """Interning each midpoint as it is made, as the growth loop once did."""
    store = _PointStore()
    kept = []
    for z, k in zip(mids, classes):
        i, created = store.intern(z)
        if created:
            kept.append(k)
        elif kept[i] != k:
            raise RuntimeError("edge-midpoint class collision in hyperbolic tiling")
    return store.pos, kept


def _outcome(fn, mids, classes):
    try:
        kept, kept_classes = fn(list(mids), list(classes))
    except Exception as exc:
        return type(exc), str(exc)
    return np.array(kept, dtype=complex).tobytes(), list(kept_classes)


def _in_disk_and_apart(mids):
    if not all(abs(z) < 1.0 for z in mids):
        return False
    return all(abs(a - b) > 2.0 * _DEDUP for i, a in enumerate(mids) for b in mids[i + 1 :])


@settings(max_examples=300, deadline=None)
@given(_midpoints())
def test_bulk_check_matches_interning_one_by_one(case):
    mids, classes = case
    assert _outcome(_intern_midpoints, mids, classes) == _outcome(_one_by_one, mids, classes)


@settings(max_examples=300, deadline=None)
@given(_midpoints())
def test_certificate_is_disk_and_margin(case):
    mids, _ = case
    assert _certified(mids) == _in_disk_and_apart(mids)
