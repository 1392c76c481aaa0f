"""Document format round-trips and diagnostics, SVG determinism, marker
classing and golden bytes, and end-to-end CLI exit codes."""
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from balanced_configs import cli, docio, render
from balanced_configs.cli import build_parser, main
from balanced_configs.configs import FinitePointSet, PeriodicConfig
from balanced_configs.docio import (
    ConfigDocument,
    document_from,
    parse_config,
    serialize,
    to_runtime,
)
from balanced_configs.errors import RenderError, ValidationError
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
from balanced_configs.render import RenderStyle, render_svg

# rows independent in absolute terms (|det| = 5e-7) but not relative to their
# length
_THIN_BASIS = {"space": "euclidean2", "kind": "periodic", "basis": [[1000.0, 0.0], [1000.0, 5e-10]], "motif": [[0.0, 0.0]]}
# disk points with |z| < 1 by math.hypot that the disk distance's np.abs
# rounds to 1, orthogonal bases far from unit length, and unit rows that
# span a lattice vector of length 1e-9
_RIM_DOCS = {
    "rim0": {"space": "hyperbolic2", "kind": "finite", "points": [[0.0, 0.0], [-0.6739394322538365, 0.7387866008891718]]},
    "rim1": {
        "space": "hyperbolic2",
        "kind": "patch",
        "points": [[0.0, 0.0], [-0.7554144733847383, -0.6552472612692543]],
        "patch_radius": 1.0,
    },
    "tiny": dict(_THIN_BASIS, basis=[[1e-7, 0.0], [0.0, 1e-7]]),
    "huge": dict(_THIN_BASIS, basis=[[1e200, 0.0], [0.0, 1e200]]),
    "skinny": dict(_THIN_BASIS, basis=[[1.0, 0.0], [1.0, 1e-9]]),
    "far": {"space": "euclidean2", "kind": "finite", "points": [[0.0, 0.0], [1e200, 0.0], [2e200, 0.0]]},
}
# finite sets with a repeated point, whose minimal distance is 0: the 3 x 3
# grid with (0, 0) twice and three times, and the octahedron with (1, 0, 0) twice
_GRID = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1], [0, 2], [1, 2], [2, 2]]
_REPEATED_DOCS = {
    "repeated": {"space": "euclidean2", "kind": "finite", "points": [[0, 0]] + _GRID},
    "tripled": {"space": "euclidean2", "kind": "finite", "points": [[0, 0], [0, 0]] + _GRID},
    "sphere_repeated": {
        "space": "sphere2",
        "kind": "finite",
        "points": [[1, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    },
}


def _tuples(arr):
    return tuple(tuple(float(x) for x in row) for row in arr)


def _random_document(rng):
    choice = int(rng.integers(0, 5))
    if choice == 1:
        count = int(rng.integers(1, 5))
    else:
        count = int(rng.integers(2, 8))
    meta = {}
    if rng.random() < 0.5:
        meta["note"] = f"seed-{int(rng.integers(0, 1000))}"
    if rng.random() < 0.3:
        meta["labels"] = ",".join(f"class{i % 2}" for i in range(count))
    if choice == 0:
        pts = rng.uniform(-5.0, 5.0, (count, 2))
        return ConfigDocument("euclidean2", "finite", _tuples(pts), metadata=meta)
    if choice == 1:
        while True:
            basis = rng.uniform(-2.0, 2.0, (2, 2))
            if abs(np.linalg.det(basis)) > 0.1:
                break
        motif = rng.uniform(0.0, 0.95, (count, 2))
        return ConfigDocument(
            "euclidean2", "periodic", _tuples(motif), basis=_tuples(basis), metadata=meta
        )
    if choice == 2:
        v = rng.standard_normal((count, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return ConfigDocument("sphere2", "finite", _tuples(v), metadata=meta)
    radii = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, count))
    angles = rng.uniform(0.0, 2.0 * math.pi, count)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    if choice == 3:
        return ConfigDocument("hyperbolic2", "finite", _tuples(pts), metadata=meta)
    return ConfigDocument(
        "hyperbolic2",
        "patch",
        _tuples(pts),
        patch_radius=float(rng.uniform(0.0, 3.0)),
        metadata=meta,
    )


class TestDocumentRoundTrip:
    def test_hundred_random_documents(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            doc = _random_document(rng)
            again = parse_config(serialize(doc))
            assert again == doc

    def test_awkward_floats_survive(self):
        doc = ConfigDocument(
            "euclidean2",
            "finite",
            ((1.0 / 3.0, math.sqrt(2.0) - 1.0), (1e-17, -0.1)),
        )
        assert parse_config(serialize(doc)) == doc

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_refused(self, bad):
        # json would write NaN or Infinity, which parse_config refuses
        cases = [
            (ConfigDocument("euclidean2", "finite", ((0.0, 0.0), (1.0, bad))), "points[1]"),
            (
                ConfigDocument(
                    "euclidean2", "periodic", ((0.0, 0.0), (bad, 0.5)), basis=((1.0, 0.0), (0.0, 1.0))
                ),
                "motif[1]",
            ),
            (
                ConfigDocument(
                    "euclidean2", "periodic", ((0.0, 0.0),), basis=((1.0, 0.0), (0.0, bad))
                ),
                "basis[1]",
            ),
            (ConfigDocument("hyperbolic2", "patch", ((0.0, 0.0),), patch_radius=bad), "patch_radius"),
        ]
        for doc, where in cases:
            with pytest.raises(ValidationError) as info:
                serialize(doc)
            assert info.value.field == where

    def test_serialization_is_deterministic(self):
        doc = ConfigDocument(
            "euclidean2", "finite", ((0.0, 0.0),), metadata={"b": "2", "a": "1"}
        )
        swapped = ConfigDocument(
            "euclidean2", "finite", ((0.0, 0.0),), metadata={"a": "1", "b": "2"}
        )
        assert serialize(doc) == serialize(swapped)

    def test_labels_property(self):
        doc = ConfigDocument(
            "euclidean2",
            "finite",
            ((0.0, 0.0), (1.0, 0.0)),
            metadata={"labels": "a,b"},
        )
        assert doc.labels == ("a", "b")
        assert ConfigDocument("euclidean2", "finite", ((0.0, 0.0),)).labels is None

    def test_labels_split_once_and_shared_with_runtime(self):
        c = gen_hyp_triangle_group(TriangleGroupParams(2, 3, 7, 2), TriangleGroupFlags(True, True, True))
        doc = parse_config(serialize(document_from(c)))
        assert doc.labels == c.labels
        assert doc.labels is doc.labels
        assert to_runtime(doc).labels is doc.labels
        bad = dict(json.loads(serialize(document_from(c))), metadata={"labels": "a,b"})
        with pytest.raises(ValidationError, match="one label per point"):
            parse_config(bad)

    def test_runtime_round_trip_periodic(self):
        c = gen_hexagonal(1.0, SubsetFlags(True, True, False))
        doc = parse_config(serialize(document_from(c)))
        back = to_runtime(doc)
        assert isinstance(back, PeriodicConfig)
        assert back.basis == pytest.approx(c.basis)
        assert back.motif == pytest.approx(c.motif)
        assert back.labels == c.labels

    def test_runtime_round_trip_sphere(self):
        c = gen_sphere("cube", SubsetFlags(True, False, True))
        back = to_runtime(parse_config(serialize(document_from(c))))
        assert back.space == "sphere"
        assert back.points == pytest.approx(c.points)
        assert back.labels == c.labels

    def test_runtime_round_trip_patch(self):
        c = gen_hyp_triangle_group(
            TriangleGroupParams(2, 3, 7, 2), TriangleGroupFlags(True, True, False)
        )
        back = to_runtime(parse_config(serialize(document_from(c))))
        assert back.patch_radius == pytest.approx(c.patch_radius, abs=0.0)
        assert back.points == pytest.approx(c.points)


class TestArrayDocuments:
    def test_coordinates_are_read_only_float_arrays(self):
        doc = parse_config(serialize(document_from(gen_hexagonal(1.0, SubsetFlags(True, False, False)))))
        built = ConfigDocument("euclidean2", "finite", ((0, 1), (2, 3)))
        for arr in (doc.points, doc.basis, built.points):
            assert arr.dtype == np.float64 and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 5.0
        assert built.points.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    def test_equality_is_by_value(self):
        doc = ConfigDocument("euclidean2", "finite", ((0.0, 1.0), (2.0, 3.0)))
        assert doc == ConfigDocument("euclidean2", "finite", np.array([[-0.0, 1.0], [2.0, 3.0]]))
        assert doc != ConfigDocument("euclidean2", "finite", ((0.0, 1.0, 2.0, 3.0),))
        assert doc != ConfigDocument("euclidean2", "finite", ((0.0, 1.0),))
        assert doc != ConfigDocument("euclidean2", "finite", ((0.0, 1.0), (2.0, 3.5)))
        assert doc != ConfigDocument("euclidean2", "finite", doc.points, metadata={"a": "b"})
        unit = ((1.0, 0.0), (0.0, 1.0))
        periodic = ConfigDocument("euclidean2", "periodic", ((0.0, 0.0),), basis=unit)
        assert periodic == ConfigDocument("euclidean2", "periodic", ((-0.0, 0.0),), basis=np.eye(2))
        assert periodic != ConfigDocument("euclidean2", "periodic", ((0.0, 0.0),))
        assert ConfigDocument("euclidean2", "periodic", ((0.0, 0.0),)) != periodic
        assert periodic != "periodic" and periodic.__eq__(periodic.points) is NotImplemented
        assert ConfigDocument("euclidean2", "finite", ((0.0, 0.0),)) == ConfigDocument(
            "euclidean2", "finite", ((0.0, 0.0),)
        )

    def test_runtime_shares_the_document_arrays(self):
        for config in (
            gen_sphere("cube", SubsetFlags(True, False, False)),
            gen_hyp_triangle_group(TriangleGroupParams(2, 3, 7, 2), TriangleGroupFlags(True, False, False)),
            gen_line(5, 1.0),
        ):
            doc = parse_config(serialize(document_from(config)))
            back = to_runtime(doc)
            assert np.shares_memory(back.points, doc.points)
            assert np.array_equal(back.points, config.points)


def _err(text):
    with pytest.raises(ValidationError) as info:
        parse_config(text)
    return info.value


class TestDocumentDiagnostics:
    def test_invalid_json(self):
        assert _err("{not json").field == "document"

    def test_non_object(self):
        assert _err("[1, 2]").field == "document"

    def test_unknown_top_level_field(self):
        text = json.dumps(
            {"space": "euclidean2", "kind": "finite", "points": [[0, 0]], "extra": 1}
        )
        assert _err(text).field == "extra"

    def test_space_and_kind_gates(self):
        assert _err(json.dumps({"kind": "finite", "points": [[0, 0]]})).field == "space"
        assert _err(json.dumps({"space": "euclidean3", "kind": "finite"})).field == "space"
        assert _err(json.dumps({"space": "euclidean2", "points": [[0, 0]]})).field == "kind"
        assert _err(json.dumps({"space": "euclidean2", "kind": "mesh"})).field == "kind"
        # kind/space combinations that do not exist
        for space, kind in (
            ("sphere2", "periodic"),
            ("sphere2", "patch"),
            ("euclidean2", "patch"),
            ("hyperbolic2", "periodic"),
        ):
            assert _err(json.dumps({"space": space, "kind": kind})).field == "kind"

    def test_periodic_field_rules(self):
        base = {"space": "euclidean2", "kind": "periodic"}
        assert _err(json.dumps({**base, "points": [[0, 0]]})).field == "points"
        assert _err(json.dumps({**base, "motif": [[0, 0]]})).field == "basis"
        assert (
            _err(json.dumps({**base, "basis": [[1, 0], [0, 1]]})).field == "motif"
        )
        singular = {**base, "basis": [[1, 0], [2, 0]], "motif": [[0, 0]]}
        assert _err(json.dumps(singular)).field == "basis"
        three_rows = {**base, "basis": [[1, 0], [0, 1], [1, 1]], "motif": [[0, 0]]}
        assert _err(json.dumps(three_rows)).field == "basis"

    def test_finite_field_rules(self):
        base = {"space": "euclidean2", "kind": "finite"}
        assert _err(json.dumps(base)).field == "points"
        assert _err(json.dumps({**base, "points": []})).field == "points"
        assert _err(json.dumps({**base, "motif": [[0, 0]]})).field == "motif"
        assert (
            _err(json.dumps({**base, "points": [[0, 0]], "patch_radius": 1.0})).field
            == "patch_radius"
        )

    def test_coordinate_rules(self):
        base = {"space": "euclidean2", "kind": "finite"}
        for entry, message in (
            ([0, 0, 0], "points[1] must be a list of 2 coordinates"),
            (["x", 0], "points[1] must be a number, got 'x'"),
            ([True, 0], "points[1] must be a number, got True"),
        ):
            err = _err(json.dumps({**base, "points": [[0, 1], entry]}))
            assert (err.field, str(err)) == ("points[1]", message)
        # json accepts a bare NaN literal; the parser must not
        nan = _err('{"space": "euclidean2", "kind": "finite", "points": [[NaN, 0]]}')
        assert (nan.field, str(nan)) == ("points[0]", "points[0] must be finite, got nan")
        # integers are coordinates
        assert parse_config(json.dumps({**base, "points": [[0, 1]]})).points.tolist() == [[0.0, 1.0]]

    def test_sphere_and_disk_point_gates(self):
        off_sphere = {"space": "sphere2", "kind": "finite", "points": [[1.0, 0.0, 0.001]]}
        err = _err(json.dumps(off_sphere))
        assert (err.field, str(err)) == ("points[0]", "points[0] must be a unit vector")
        rim = {"space": "hyperbolic2", "kind": "finite", "points": [[1.0, 0.0]]}
        assert _err(json.dumps(rim)).field == "points[0]"

    def test_patch_radius_rules(self):
        base = {"space": "hyperbolic2", "kind": "patch", "points": [[0.0, 0.0], [0.1, 0.0]]}
        assert _err(json.dumps(base)).field == "patch_radius"
        assert _err(json.dumps({**base, "patch_radius": -1.0})).field == "patch_radius"
        assert _err(json.dumps({**base, "patch_radius": "big"})).field == "patch_radius"

    def test_metadata_rules(self):
        base = {"space": "euclidean2", "kind": "finite", "points": [[0, 0]]}
        assert _err(json.dumps({**base, "metadata": {"k": 1}})).field == "metadata"
        assert _err(json.dumps({**base, "metadata": ["x"]})).field == "metadata"
        mismatch = {**base, "metadata": {"labels": "a,b"}}
        assert _err(json.dumps(mismatch)).field == "metadata"

    def test_minimal_periodic_document(self):
        text = json.dumps(
            {
                "space": "euclidean2",
                "kind": "periodic",
                "basis": [[1, 0], [0, 1]],
                "motif": [[0, 0]],
            }
        )
        doc = parse_config(text)
        c = to_runtime(doc)
        assert isinstance(c, PeriodicConfig)
        assert c.k == 1

    def test_runtime_checks_are_validation_errors(self):
        # parse_config accepts the motif; the container finds the two points
        # equal modulo the lattice
        text = json.dumps(
            {"space": "euclidean2", "kind": "periodic", "basis": [[1, 0], [0, 1]], "motif": [[0, 0], [1, 0]]}
        )
        with pytest.raises(ValidationError) as info:
            to_runtime(parse_config(text))
        assert info.value.field == "motif"
        # |det| = 5e-7, but relative to the row lengths the rows are
        # dependent: parse_config refuses the basis by the container's rule
        with pytest.raises(ValidationError) as info:
            to_runtime(parse_config(json.dumps(_THIN_BASIS)))
        assert info.value.field == "basis"


class TestRender:
    def test_three_marker_classes(self):
        c = gen_hexagonal(1.0, SubsetFlags(True, True, True))
        svg = render_svg(c, RenderStyle(window=((-5.0, 5.0), (-5.0, 5.0))))
        # one marker style and color per label class
        assert svg.count("#1f77b4") > 0
        assert svg.count("#d62728") > 0
        assert svg.count("#2ca02c") > 0
        assert "<rect" in svg and "<polygon" in svg and "<circle" in svg

    def test_byte_identical_reruns(self):
        c = gen_hexagonal(1.0, SubsetFlags(True, True, True))
        style = RenderStyle(window=((-5.0, 5.0), (-5.0, 5.0)))
        assert render_svg(c, style) == render_svg(c, style)

    def test_marker_position_and_y_flip(self):
        c = FinitePointSet("plane", np.array([(0.0, 1.0)]))
        svg = render_svg(c, RenderStyle(window=((-2.0, 2.0), (-2.0, 2.0)), size=400))
        assert 'cx="200.000" cy="100.000"' in svg

    def test_patch_boundary_circle(self):
        c = gen_hyp_triangle_group(
            TriangleGroupParams(2, 3, 7, 2), TriangleGroupFlags(True, False, False)
        )
        with_rim = render_svg(c)
        without = render_svg(c, RenderStyle(show_boundary=False))
        assert 'stroke="#888888"' in with_rim
        assert 'stroke="#888888"' not in without

    def test_line_default_window(self):
        svg = render_svg(gen_line(5, 1.0))
        assert svg.count("<circle") == 5

    def test_render_errors(self):
        with pytest.raises(RenderError):
            render_svg(gen_triangular(1.0))  # periodic needs a window
        with pytest.raises(RenderError):
            render_svg(gen_sphere("cube", SubsetFlags(True, False, False)))
        with pytest.raises(RenderError):
            render_svg(
                gen_triangular(1.0),
                RenderStyle(window=((5.0, 5.0), (0.0, 1.0))),
            )
        with pytest.raises(RenderError):
            # a window that misses every point
            render_svg(
                gen_line(3, 1.0), RenderStyle(window=((50.0, 51.0), (50.0, 51.0)))
            )

    @pytest.mark.parametrize(
        "window",
        [
            ((-math.inf, math.inf), (-1.0, 1.0)),
            ((-1.0, 1.0), (-1.0, math.inf)),
            ((math.nan, 1.0), (-1.0, 1.0)),
            ((-1e308, 1e308), (-1.0, 1.0)),  # finite bounds, infinite extent
        ],
    )
    def test_non_finite_windows_are_refused(self, window):
        with pytest.raises(RenderError, match="finite"):
            RenderStyle(window=window).resolved_window(gen_triangular(1.0))

    @pytest.mark.parametrize(
        "style, message",
        [
            ({"size": 0}, "at least 1 pixel"),
            ({"size": -5}, "at least 1 pixel"),
            ({"size": math.nan}, "at least 1 pixel"),
            ({"size": math.inf}, "at least 1 pixel"),
            ({"marker_px": 0.0}, "finite and positive"),
            ({"marker_px": -1.0}, "finite and positive"),
            ({"marker_px": math.inf}, "finite and positive"),
            ({"marker_px": math.nan}, "finite and positive"),
        ],
    )
    def test_bad_sizes_are_refused(self, style, message):
        with pytest.raises(RenderError, match=message):
            RenderStyle(**style)
        assert RenderStyle(size=1, marker_px=1e-3).size == 1


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _ties():
    """Duplicate points, and 0.0 against -0.0, in two label classes."""
    pts = [(1.0, 1.0), (0.0, 0.5), (-0.0, 0.5), (1.0, 1.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.5), (1.0, 1.0), (-0.0, 0.5)]
    return FinitePointSet("plane", np.array(pts), labels=("b", "a", "a", "b", "a", "a", "a", "b", "a"))


def _seven_labels():
    """Seven label classes, so both the shapes and the colours wrap."""
    pts = np.round(np.random.default_rng(9).uniform(-3.0, 3.0, (60, 2)), 1)
    names = ("vertex", "Mid", "a10", "a2", "z", "_c", "\u00e9")
    return FinitePointSet("plane", pts, labels=tuple(names[i % 7] for i in range(60)))


class TestGoldenSvg:
    """render_svg output pinned by sha256, with the hashes taken from the
    per-point renderer that the array renderer replaced."""

    def test_depth4_rotation_tiling_all_shapes(self):
        params = RotationTilingParams(math.radians(30), math.radians(40), math.radians(50), 3, 4)
        c = gen_hyp_rotation_tiling(params, RotationTilingFlags(True, True, True, True))
        svg = render_svg(c)
        assert all(f"<{tag}" in svg for tag in ("circle", "rect", "polygon"))
        assert _sha(svg) == "aea6cd8ef334374b0bb152335b5b438db8ee17649379a64cf9020b3c225a0daf"

    def test_windowed_hexagonal_lattice(self):
        c = gen_hexagonal(1.0, SubsetFlags(True, True, True))
        svg = render_svg(c, RenderStyle(window=((-4.5, 5.0), (-3.0, 3.5))))
        assert _sha(svg) == "4587e61f81e87a26fe9123c66c69167eb52b5d63a4f19ebacfc4b8ef4934e60a"

    def test_seven_label_classes(self):
        svg = render_svg(_seven_labels())
        # the seventh class is a diamond in the first colour
        assert svg.count('fill="#1f77b4"') == 17
        assert _sha(svg) == "fbe16682d65a88cb04896c3a7b33264b2a240a73753f18345d3e8e21ee2cfc39"

    def test_duplicates_and_signed_zeros(self):
        svg = render_svg(_ties(), RenderStyle(window=((0.0, 2.0), (-1.0, 1.5)), size=200))
        # ties keep input order: -0.0 - 0.0 is -0.0, so the sign shows
        assert [line[12:18] for line in svg.splitlines() if line.startswith("<circle")] == [
            "0.000\"", "-0.000", "0.000\"", "-0.000", "0.000\"", "-0.000"
        ]
        assert _sha(svg) == "06d67ef3668d2e75e23c516b4b38060a6b5553adcf9a497463cdc75c43f28080"

    def test_no_boundary_and_size(self):
        c = gen_hyp_triangle_group(TriangleGroupParams(2, 3, 7, 3), TriangleGroupFlags(True, True, True))
        svg = render_svg(c, RenderStyle(show_boundary=False, size=333))
        assert 'stroke="#888888"' not in svg and 'width="333"' in svg
        assert _sha(svg) == "1d8d27c0f587cdfec0d9c35bcb1b425c306661f799827c82d673ba972657975d"


def _scalar_markers(points, labels, window, size, r=4.0):
    """Marker lines as a per-point renderer writes them: Python's sorted over
    (label, x, y), then one f-string per point."""
    (x0, x1), (y0, y1) = window
    scale = size / max(x1 - x0, y1 - y0)
    inside = sorted(
        ((lab, float(x), float(y)) for (x, y), lab in zip(points, labels) if x0 <= x <= x1 and y0 <= y <= y1),
        key=lambda t: (t[0], t[1], t[2]),
    )
    classes = sorted({lab for lab, _, _ in inside})
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
    lines = []
    for lab, x, y in inside:
        i = classes.index(lab)
        x, y, c = (x - x0) * scale, (y1 - y) * scale, colors[i % 6]
        shape = i % 4
        if shape == 0:
            lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{r:.3f}" fill="{c}"/>')
        elif shape == 1:
            lines.append(f'<rect x="{x - r:.3f}" y="{y - r:.3f}" width="{2 * r:.3f}" height="{2 * r:.3f}" fill="{c}"/>')
        elif shape == 2:
            pts = f"{x:.3f},{y - r:.3f} {x + r:.3f},{y:.3f} {x:.3f},{y + r:.3f} {x - r:.3f},{y:.3f}"
            lines.append(f'<polygon points="{pts}" fill="{c}"/>')
        else:
            pts = f"{x:.3f},{y - r:.3f} {x + r:.3f},{y + r:.3f} {x - r:.3f},{y + r:.3f}"
            lines.append(f'<polygon points="{pts}" fill="{c}"/>')
    return lines


def _oneshot_put_coords(pieces, name, coords):
    """docio._put_coords as it was before it formatted a block of rows at a
    time, kept as the oracle: one %-format over every coordinate."""
    finite = np.isfinite(coords).all(axis=-1)
    if not finite.all():
        i = int(np.argmin(finite))
        where = f"{name}[{i}]"
        raise ValidationError(f"{where} must be finite, got {coords[i].tolist()!r}", field=where)
    pieces.append(f',\n  "{name}": ')
    if not len(coords):
        pieces.append("[]")
        return
    row = "\n    [" + ",".join(["\n      %r"] * coords.shape[1]) + "\n    ]"
    template = (row + ",") * (len(coords) - 1) + row
    pieces += ["[", template % tuple(coords.ravel().tolist()), "\n  ]"]


def _oneshot_render_svg(config, style=None):
    """render.render_svg as it was before it formatted a block of markers at
    a time, kept as the oracle: one %-format per label class."""
    style = style or RenderStyle()
    window = style.resolved_window(config)
    x, y, code, classes = render._gather(config, window)
    (x0, x1), (y0, y1) = window
    span_x, span_y = x1 - x0, y1 - y0
    scale = style.size / max(span_x, span_y)
    width, height = span_x * scale, span_y * scale

    body = []
    if style.show_boundary and config.space == "disk":
        cx, cy = (0.0 - x0) * scale, (y1 - 0.0) * scale
        body.append(
            f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{scale:.3f}" '
            'fill="none" stroke="#888888" stroke-width="1"/>'
        )
    sx, sy, r = (x - x0) * scale, (y1 - y) * scale, style.marker_px
    bounds = np.searchsorted(code, np.arange(len(classes) + 1)).tolist()
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        text, columns = render._SHAPES[i % len(render._SHAPES)]
        marker = text.format(r=r, d=2 * r, c=render._COLORS[i % len(render._COLORS)])
        coords = np.column_stack(columns(sx[a:b], sy[a:b], r)).ravel().tolist()
        body.append("\n".join([marker] * (b - a)) % tuple(coords))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.3f} {height:.3f}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        *body,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def _block_edges(block):
    """Row counts on each side of one and two block boundaries."""
    return (0, 1, block - 1, block, block + 1, 2 * block + 1)


class TestBlockFormatting:
    """serialize and render_svg format a block of rows at a time; on each
    side of a block boundary their bytes are those of the one-shot
    formatting they replaced."""

    @pytest.mark.parametrize("n", _block_edges(docio._ROWS_PER_FORMAT))
    @pytest.mark.parametrize("space, kind, dim", [("euclidean2", "finite", 2), ("sphere2", "finite", 3), ("hyperbolic2", "patch", 2)])
    def test_documents(self, monkeypatch, n, space, kind, dim):
        rng = np.random.default_rng(n)
        # magnitudes from 1e-30 to 1e30, so the float text varies in length
        coords = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-30, 31, (n, dim))
        doc = ConfigDocument(
            space, kind, coords, patch_radius=1.5 if kind == "patch" else None,
            metadata={"labels": ",".join(["a"] * n)} if n else {},
        )
        text = serialize(doc)
        monkeypatch.setattr(docio, "_put_coords", _oneshot_put_coords)
        assert text == serialize(doc)

    def test_periodic_document(self, monkeypatch):
        # two coordinate fields, basis and motif
        doc = document_from(gen_hexagonal(1.0, SubsetFlags(True, True, True)).supercell(3, 2))
        text = serialize(doc)
        monkeypatch.setattr(docio, "_put_coords", _oneshot_put_coords)
        assert text == serialize(doc)

    @pytest.mark.parametrize("n", _block_edges(render._MARKERS_PER_FORMAT))
    @pytest.mark.parametrize("layout", ["one class", "two classes", "five classes"])
    def test_svgs(self, n, layout):
        rng = np.random.default_rng(n)
        pts = rng.uniform(-0.7, 0.7, (max(n, 1), 2))
        if layout == "one class":
            labels = ("vertex",) * len(pts)
        elif layout == "two classes":
            # "a" takes one row more than a block when there are enough rows
            labels = ["a" if i <= render._MARKERS_PER_FORMAT else "b" for i in range(len(pts))]
            labels = tuple(rng.permutation(labels).tolist())
        else:
            labels = tuple("vwxyz"[i] for i in rng.integers(0, 5, len(pts)))
        c = FinitePointSet("disk", pts, labels=labels)
        style = RenderStyle(window=((2.0, 3.0), (2.0, 3.0))) if n == 0 else RenderStyle()
        if n == 0:  # no marker at all: both refuse
            with pytest.raises(RenderError, match="no points"):
                _oneshot_render_svg(c, style)
            with pytest.raises(RenderError, match="no points"):
                render_svg(c, style)
            return
        assert render_svg(c, style) == _oneshot_render_svg(c, style)


def _traced_peak(fn):
    """fn's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryShape:
    """Peak traced memory of writing the depth-6 (30, 40, 50) tiling with
    every set, 67,882 points, as a multiple of the text written.  Block
    formatting gives 2.10 (serialize) and 2.54 (render_svg); the one-shot
    formatting gave 2.42 and 4.27."""

    @pytest.fixture(scope="class")
    def tiling(self):
        params = RotationTilingParams(*(math.radians(a) for a in (30, 40, 50)), 3, 6)
        return gen_hyp_rotation_tiling(params, RotationTilingFlags(True, True, True, True))

    def test_serialize(self, tiling):
        doc = document_from(tiling)
        text, peak = _traced_peak(lambda: serialize(doc))
        assert tiling.n == 67882
        assert peak <= 2.25 * len(text)

    def test_render_svg(self, tiling):
        svg, peak = _traced_peak(lambda: render_svg(tiling))
        assert peak <= 2.7 * len(svg)


def _results_of(monkeypatch, module, name):
    """The results of module.name, recorded by rebinding every loaded
    package module's reference to it, as perfbench/tracer.py does."""
    original = getattr(module, name)
    results = []

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "balanced_configs" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, recording)
    return results


class TestTracedCli:
    """The traced benchmark (perfbench/run.py --trace 1) times and sizes the
    generate and render outputs only through docio.serialize and
    render.render_svg, counting len(result); without those calls a traced
    run raises "no spans for per-layer metrics"."""

    def test_generate_calls_serialize(self, monkeypatch, capsys):
        results = _results_of(monkeypatch, docio, "serialize")
        code, out, _ = _run(capsys, ["generate", "--family", "rotation-tiling", "--angles", "30,40,50", "--depth", "2"])
        assert code == 0
        assert len(results) == 1 and type(results[0]) is str and results[0] == out

    def test_render_calls_render_svg(self, monkeypatch, capsys, tmp_path):
        doc = tmp_path / "t.json"
        assert main(["generate", "--family", "rotation-tiling", "--depth", "2", "-o", str(doc)]) == 0
        results = _results_of(monkeypatch, render, "render_svg")
        code, out, _ = _run(capsys, ["render", str(doc)])
        assert code == 0
        assert len(results) == 1 and type(results[0]) is str and results[0] == out


class TestWriteText:
    @pytest.mark.parametrize("count", [0, 1, cli._WRITE_SLICE - 1, cli._WRITE_SLICE, 2 * cli._WRITE_SLICE + 1])
    def test_slices_keep_the_text(self, capsys, tmp_path, count):
        # multi-byte characters across every slice boundary
        text = ("a\u00e9\u20ac\U0001f600" * count)[:count]
        path = tmp_path / "out.txt"
        cli._write_text(str(path), text)
        assert path.read_bytes() == text.encode("utf-8")
        cli._write_text("-", text)
        assert capsys.readouterr().out == text


class TestMarkerOrderOracle:
    def test_random_labelled_sets(self):
        rng = np.random.default_rng(31)
        # a trailing NUL, which numpy's fixed-width strings drop, must still
        # make a class of its own
        names = ("b", "a", "B", "\u00e9", "a\x00", "_")
        for _ in range(5):
            # a coarse grid, so that equal x and equal (x, y) pairs occur
            pts = rng.integers(-8, 9, (300, 2)) / 4.0
            pts[rng.random(300) < 0.1, 0] = -0.0  # ties with the grid's 0.0
            labels = tuple(names[i] for i in rng.integers(0, len(names), 300))
            # x0 = 0.0 keeps the sign of a -0.0 marker, so tie order shows
            window = ((0.0, 2.0), (-2.0, 1.75))
            svg = render_svg(FinitePointSet("plane", pts, labels=labels), RenderStyle(window=window, size=300))
            assert svg.splitlines()[3:-1] == _scalar_markers(pts, labels, window, 300)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(out):
    data = json.loads(out)
    assert set(data) == {"tool_version", "params", "verdict", "details"}
    return data


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--family", "triangular", "--side", "2.0"],
            ["generate", "--family", "lattice", "--basis", "1,0;0.2,1.1", "--sets", "vertices,midpoints"],
            ["generate", "--family", "hexagonal", "--sets", "vertices,midpoints,centers"],
            # 15 points: the middle three have their cutoff-6 interval inside
            ["generate", "--family", "line", "--count", "15"],
            ["generate", "--family", "sphere", "--kind", "cube", "--sets", "vertices,centers"],
            ["generate", "--family", "triangle-group", "--pqr", "2,3,7", "--depth", "3", "--sets", "p_centers,q_centers"],
            ["generate", "--family", "rotation-tiling", "--angles", "40,40,40", "--order", "3", "--depth", "2", "--sets", "vertices"],
        ],
    )
    def test_generate_then_verify_passes(self, capsys, tmp_path, argv):
        path = str(tmp_path / "config.json")
        code, _, _ = _run(capsys, argv + ["-o", path])
        assert code == 0
        parse_config(open(path).read())
        code, out, err = _run(capsys, ["verify", path])
        assert code == 0
        assert _report(out)["verdict"] == "pass"
        assert "balance pass" in err

    def test_generate_to_stdout(self, capsys):
        code, out, _ = _run(capsys, ["generate", "--family", "triangular"])
        assert code == 0
        doc = parse_config(out)
        assert doc.kind == "periodic"
        assert doc.metadata["family"] == "triangular"

    def test_verify_reads_stdin(self, capsys, monkeypatch):
        text = serialize(document_from(gen_triangular(1.0)))
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = _run(capsys, ["verify", "-"])
        assert code == 0
        assert _report(out)["verdict"] == "pass"

    def test_verify_unbalanced_is_exit_one(self, capsys, tmp_path):
        c = PeriodicConfig(np.eye(2), [(0.0, 0.0), (0.5, 0.52)])
        path = tmp_path / "bad.json"
        path.write_text(serialize(document_from(c)))
        code, out, _ = _run(capsys, ["verify", str(path)])
        assert code == 1
        assert _report(out)["verdict"] == "fail"

    def test_verify_patch_discloses_clamp(self, capsys, tmp_path):
        path = str(tmp_path / "patch.json")
        _run(capsys, [
            "generate", "--family", "triangle-group", "--pqr", "2,4,5",
            "--depth", "3", "--sets", "p_centers", "-o", path,
        ])
        code, out, _ = _run(capsys, ["verify", path])
        assert code == 0
        notes = _report(out)["details"]["notes"]
        assert any("clamped" in n for n in notes)

    @pytest.mark.parametrize("mode", ["scalar_multiple", "tangent_projection"])
    def test_verify_sphere_single_mode(self, capsys, tmp_path, mode):
        path = tmp_path / "cube.json"
        path.write_text(serialize(document_from(gen_sphere("cube", SubsetFlags(True, False, False)))))
        code, out, _ = _run(capsys, ["verify", str(path), "--mode", mode])
        assert code == 0
        details = _report(out)["details"]
        code, out, _ = _run(capsys, ["verify", str(path), "--mode", "both"])
        assert code == 0
        assert details == {mode: _report(out)["details"][mode]}

    def test_verify_usage_errors(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["verify", str(tmp_path / "missing.json")])
        assert code == 2 and "error" in err
        bad = tmp_path / "broken.json"
        bad.write_text("{oops")
        assert _run(capsys, ["verify", str(bad)])[0] == 2
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"space": "moduli", "kind": "finite"}))
        assert _run(capsys, ["verify", str(wrong)])[0] == 2

    def test_unknown_flags_exit_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--family", "dodgy"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
        # the tolerance flags a subcommand never reads are not registered
        for argv in (
            ["lemmas", "--max-radius", "6"],
            ["lemmas", "--residual-tol", "1e-9"],
            ["lemmas", "--class-tol", "1e-6"],
            ["classify", "doc.json", "--max-radius", "6"],
            ["classify", "doc.json", "--residual-tol", "1e-9"],
            ["symmetry", "doc.json", "--max-radius", "6"],
            ["symmetry", "doc.json", "--residual-tol", "1e-9"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2, argv

    def test_unknown_set_name_exits_two(self, capsys):
        code, _, err = _run(
            capsys, ["generate", "--family", "triangle-group", "--sets", "faces"]
        )
        assert code == 2
        assert "unknown set" in err

    def test_ambiguous_classes_exit_three(self, capsys, tmp_path):
        # two distance classes 1.5e-6 apart: above the separation tolerance
        # but below the 2x reliability margin, an internal numeric failure
        doc = ConfigDocument(
            "euclidean2",
            "finite",
            ((-2.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (1.0000015, 0.0), (2.0, 0.0)),
        )
        path = tmp_path / "close.json"
        path.write_text(serialize(doc))
        code, _, err = _run(capsys, ["verify", str(path), "--max-radius", "2"])
        assert code == 3
        assert "numeric" in err

    def test_classify_families(self, capsys, tmp_path):
        hexvm = tmp_path / "hexvm.json"
        hexvm.write_text(
            serialize(document_from(gen_hexagonal(1.0, SubsetFlags(True, True, False))))
        )
        code, out, _ = _run(capsys, ["classify", str(hexvm)])
        assert code == 0
        assert _report(out)["verdict"] == "HexWithMidpoints"

        a = math.radians(75.0)
        rhombic = PeriodicConfig(
            np.array([[1.0, 0.0], [math.cos(a), math.sin(a)]]), [(0.0, 0.0)]
        ).transformed(rotation=0.4, translation=(1.0, 2.0))
        path = tmp_path / "rhombic.json"
        path.write_text(serialize(document_from(rhombic)))
        code, out, _ = _run(capsys, ["classify", str(path)])
        assert code == 0
        assert _report(out)["verdict"] == "Lattice"

    def test_classify_unknown_exits_one(self, capsys, tmp_path):
        c = PeriodicConfig(np.eye(2), [(0.0, 0.0), (0.5, 0.52)])
        path = tmp_path / "odd.json"
        path.write_text(serialize(document_from(c)))
        code, out, _ = _run(capsys, ["classify", str(path)])
        assert code == 1
        assert _report(out)["verdict"] == "Unknown"

    def test_symmetry_command(self, capsys, tmp_path):
        tri = tmp_path / "tri.json"
        tri.write_text(serialize(document_from(gen_triangular(1.0))))
        code, out, _ = _run(capsys, ["symmetry", str(tri)])
        assert code == 0
        details = _report(out)["details"]
        assert details["group_balanced"] is True
        assert len(details["rotations_about_first_point"]) == 5

        odd = tmp_path / "odd.json"
        odd.write_text(
            serialize(document_from(PeriodicConfig(np.eye(2), [(0.0, 0.0), (0.5, 0.52)])))
        )
        assert _run(capsys, ["symmetry", str(odd)])[0] == 1

    def test_lemmas_command(self, capsys):
        code, out, err = _run(capsys, ["lemmas"])
        assert code == 0
        data = _report(out)
        assert data["verdict"] == "pass"
        assert len(data["details"]["entries"]) == 15
        assert data["details"]["angle_bound_sweep"]["passed"] is True
        assert _run(capsys, ["lemmas", "--samples", "99"])[0] == 2
        assert _run(capsys, ["lemmas", "--match-tol", "1e-9"])[0] == 1

    @pytest.mark.parametrize(
        "flags, want",
        [
            ([], (0, "5fc67095ff0ece7e89c712337f3c1c4d5089e546a2ad4ce85ef5a62fdcb6f09c")),
            (["--match-tol", "1e-9"], (1, "7ae5fb6520641fd464149b08c1a7e0e6d32693f1204f346f122cb93a93f00f44")),
        ],
    )
    def test_lemmas_stdout_pinned(self, capsys, flags, want):
        # the entries are the catalog results' fields in declaration order
        code, out, _ = _run(capsys, ["lemmas", *flags])
        assert (code, _sha(out)) == want

    def test_render_command(self, capsys, tmp_path):
        doc = tmp_path / "hex.json"
        doc.write_text(
            serialize(document_from(gen_hexagonal(1.0, SubsetFlags(True, True, True))))
        )
        out_path = str(tmp_path / "hex.svg")
        code, _, _ = _run(
            capsys, ["render", str(doc), "--window=-5,5,-5,5", "-o", out_path]
        )
        assert code == 0
        svg = open(out_path).read()
        assert svg.startswith("<?xml")
        # determinism end to end
        code, out, _ = _run(capsys, ["render", str(doc), "--window=-5,5,-5,5"])
        assert code == 0 and out == svg
        # a periodic document without a window is a usage error
        assert _run(capsys, ["render", str(doc)])[0] == 2

    @pytest.mark.parametrize("window", ["-inf,inf,-1,1", "-1e308,1e308,-1,1", "nan,1,-1,1"])
    def test_render_non_finite_window_exits_two(self, capsys, tmp_path, window):
        # refused before any translate box is built
        doc = tmp_path / "tri.json"
        doc.write_text(serialize(document_from(gen_triangular(1.0))))
        code, out, err = _run(capsys, ["render", str(doc), f"--window={window}"])
        assert (code, out) == (2, "")
        assert "render window bounds and extents must be finite" in err

    def test_internal_value_error_exits_three(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr(cli, "verify_plane", broken)
        doc = tmp_path / "tri.json"
        doc.write_text(serialize(document_from(gen_triangular(1.0))))
        code, _, err = _run(capsys, ["verify", str(doc)])
        assert code == 3
        assert "internal error: ValueError: injected" in err

    def test_classify_internal_failure_exits_three(self, capsys, tmp_path, monkeypatch):
        # the package re-exports classify(), which shadows the module name
        classify_module = importlib.import_module("balanced_configs.classify")

        def broken(prim, tol):
            raise TypeError("injected")

        monkeypatch.setattr(classify_module, "_classify_primitive", broken)
        doc = tmp_path / "tri.json"
        doc.write_text(serialize(document_from(gen_triangular(1.0))))
        code, out, err = _run(capsys, ["classify", str(doc)])
        assert (code, out) == (3, "")
        assert "internal error: TypeError: injected" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--family", "triangle-group", "--sets", "p_centers", "--pqr", "2,3,6"], "1/p + 1/q + 1/r < 1"),
            (["generate", "--family", "triangle-group", "--sets", "p_centers", "--pqr", "2,3,nan"], "--pqr must be three integers"),
            (["generate", "--family", "rotation-tiling", "--angles", "10,20,x"], "--angles values must be numbers"),
            (["generate", "--family", "rotation-tiling", "--angles", "40,nan,40"], "angles must be positive"),
            (["generate", "--family", "lattice", "--basis", "1,0;2,0"], "linearly independent"),
            (["generate", "--family", "triangular", "--side", "-1"], "side must be positive"),
            (["generate", "--family", "sphere", "--kind", "foo"], "unknown sphere tiling kind"),
            (["generate", "--family", "triangular", "-o", "{tmp}/missing/out.json"], "cannot write"),
            (["verify", "{tmp}/two.json", "--max-radius", "0"], "max_radius must be positive"),
            (["verify", "{tmp}/two.json", "--class-tol", "0"], "tolerances must satisfy"),
            (["verify", "{tmp}/one.json"], "at least two points"),
            (["verify", "{tmp}/dup.json"], "pairwise distinct"),
            (["classify", "{tmp}/cube.json"], "classify requires a euclidean2 document"),
            (["symmetry", "{tmp}/patch.json"], "symmetry requires a euclidean2 document"),
            (["lemmas", "--samples", "5"], "--samples must be at least 100"),
            (["render", "{tmp}/two.json", "--size", "0"], "render size must be at least 1 pixel"),
            (["render", "{tmp}/two.json", "--size", "-5"], "render size must be at least 1 pixel"),
            (
                ["generate", "--family", "rotation-tiling", "--angles", "1,1,28", "--order", "12", "--depth", "2"],
                "depth 2 reaches tiles too close to the disk boundary",
            ),
            # non-finite tolerances and cutoffs
            (["verify", "{tmp}/hex.json", "--residual-tol", "nan"], "residual_tol must be positive and finite"),
            (["verify", "{tmp}/hex.json", "--residual-tol", "inf"], "residual_tol must be positive and finite"),
            (["verify", "{tmp}/hex.json", "--class-tol", "inf"], "tolerances must satisfy"),
            (["verify", "{tmp}/hex.json", "--max-radius", "inf"], "max_radius must be positive and finite"),
            (["symmetry", "{tmp}/hex.json", "--class-tol", "inf"], "tolerances must satisfy"),
            (["verify", "{tmp}/ngon.json", "--max-radius", "inf"], "max_radius must be positive and finite"),
            # absolutely but not relatively independent basis rows
            (["verify", "{tmp}/thin.json"], "basis vectors must be linearly independent"),
            # disk points on the rim by the distance's |z|, a lattice too long
            # for the kernel's squared distances, and ones finer than class_tol
            # can resolve
            (["verify", "{tmp}/rim0.json"], "points[1] must lie strictly inside the unit disk"),
            (["render", "{tmp}/rim0.json"], "points[1] must lie strictly inside the unit disk"),
            (["verify", "{tmp}/rim1.json"], "points[1] must lie strictly inside the unit disk"),
            (["render", "{tmp}/rim1.json"], "points[1] must lie strictly inside the unit disk"),
            (["verify", "{tmp}/huge.json"], "basis rows must have lengths between 1e-4 and 1e100"),
            (["render", "{tmp}/huge.json", "--window=-1e200,1e200,-1e200,1e200"], "lengths between 1e-4 and 1e100"),
            (["verify", "{tmp}/tiny.json"], "basis rows must have lengths between 1e-4 and 1e100"),
            (["classify", "{tmp}/tiny.json"], "basis rows must have lengths between 1e-4 and 1e100"),
            (["render", "{tmp}/tiny.json", "--window=-3e-7,3e-7,-3e-7,3e-7"], "lengths between 1e-4 and 1e100"),
            (["verify", "{tmp}/skinny.json"], "the lattice must have no vector shorter than 1e-4"),
            # lattice windows past 2**31 translates per point
            (["verify", "{tmp}/hex.json", "--max-radius", "1e300"], "more than 2**31 translates"),
            (["verify", "{tmp}/hex.json", "--max-radius", "1e9"], "more than 2**31 translates"),
            (["verify", "{tmp}/hex.json", "--max-radius", "1e5"], "more than 2**31 translates"),
            (["render", "{tmp}/hex.json", "--window=-1e300,1e300,-1e300,1e300"], "more than 2**31 translates"),
            (["render", "{tmp}/hex.json", "--window=-1e6,1e6,-1e6,1e6"], "more than 2**31 translates"),
            # lattices and point sets past the coordinate range
            (["generate", "--family", "triangular", "--side", "1e200"], "--side: basis rows must have lengths between"),
            (["generate", "--family", "triangular", "--side", "1e-5"], "--side: basis rows must have lengths between"),
            (["generate", "--family", "hexagonal", "--side", "1e200"], "--side: basis rows must have lengths between"),
            (["generate", "--family", "hexagonal", "--side", "1e-5"], "--side: basis rows must have lengths between"),
            (["generate", "--family", "line", "--spacing", "1e200"], "--spacing: plane points must have coordinates within +-1e100"),
            (["verify", "{tmp}/far.json"], "points[1] must have coordinates within +-1e100"),
            (["classify", "{tmp}/far.json"], "points[1] must have coordinates within +-1e100"),
            # a repeated point: a minimal distance of 0 is no unit for a cutoff
            (["verify", "{tmp}/repeated.json"], "points [0.0, 0.0] and [0.0, 0.0] coincide"),
            (["symmetry", "{tmp}/repeated.json"], "points [0.0, 0.0] and [0.0, 0.0] coincide"),
            (["verify", "{tmp}/tripled.json"], "points [0.0, 0.0] and [0.0, 0.0] coincide"),
            (["symmetry", "{tmp}/tripled.json"], "points [0.0, 0.0] and [0.0, 0.0] coincide"),
            (["verify", "{tmp}/sphere_repeated.json"], "points [1.0, 0.0, 0.0] and [1.0, 0.0, 0.0] coincide"),
            # finite windows in which no point can be checked
            (["verify", "{tmp}/scattered.json"], "no point of the window has its neighborhood"),
            (["symmetry", "{tmp}/scattered.json"], "no point of the window has its validation window"),
            (["verify", "{tmp}/line9.json"], "no point of the window has its neighborhood"),
            (["symmetry", "{tmp}/line9.json"], "no point of the window has its validation window"),
        ],
    )
    def test_typed_refusals_exit_two(self, capsys, tmp_path, argv, message):
        docs = {
            "two": ConfigDocument("euclidean2", "finite", ((0.0, 0.0), (1.0, 0.0))),
            "one": ConfigDocument("euclidean2", "finite", ((0.0, 0.0),)),
            "cube": document_from(gen_sphere("cube", SubsetFlags(True, False, False))),
            "patch": document_from(
                gen_hyp_triangle_group(TriangleGroupParams(2, 3, 7, 2), TriangleGroupFlags(True, False, False))
            ),
            "hex": document_from(gen_hexagonal(1.0, SubsetFlags(True, False, False))),
            "ngon": document_from(gen_sphere("ngon(8)", SubsetFlags(True, False, False))),
            "scattered": ConfigDocument("euclidean2", "finite", ((0.0, 0.0), (1.0, 0.0), (0.0, 3.0), (5.0, 7.0))),
            "line9": document_from(gen_line(9, 1.0)),
        }
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(serialize(doc))
        (tmp_path / "dup.json").write_text(
            json.dumps({"space": "euclidean2", "kind": "periodic", "basis": [[1, 0], [0, 1]], "motif": [[0, 0], [1, 0]]})
        )
        (tmp_path / "thin.json").write_text(json.dumps(_THIN_BASIS))
        for name, raw in {**_RIM_DOCS, **_REPEATED_DOCS}.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(raw))
        code, out, err = _run(capsys, [a.format(tmp=tmp_path) for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_symmetry_of_a_repeated_point_returns(self, tmp_path):
        # the rotation search once doubled a search radius of 0 forever
        doc = tmp_path / "repeated.json"
        doc.write_text(json.dumps(_REPEATED_DOCS["repeated"]))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "balanced_configs", "symmetry", str(doc)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "coincide" in proc.stderr

    def test_small_lattice_above_the_length_floor_is_measured(self, capsys, tmp_path):
        # rows of 1e-3, where the default class_tol still separates the
        # distance classes: the square lattice is balanced and a Lattice
        doc = tmp_path / "small.json"
        doc.write_text(json.dumps(dict(_THIN_BASIS, basis=[[1e-3, 0.0], [0.0, 1e-3]])))
        code, out, err = _run(capsys, ["verify", str(doc)])
        assert code == 0 and json.loads(out)["verdict"] == "pass"
        code, out, err = _run(capsys, ["classify", str(doc)])
        assert code == 0 and json.loads(out)["verdict"] == "Lattice"
        code, out, err = _run(capsys, ["render", str(doc), "--window=-3e-3,3e-3,-3e-3,3e-3"])
        assert code == 0 and out.startswith("<?xml")

    def test_flag_parsing_names_the_flag(self):
        cases = [
            (lambda: cli._parse_pair_list("1,2", "--window", 4), "--window"),
            (lambda: cli._parse_pair_list("1,x", "--angles", 2), "--angles"),
            (lambda: cli._parse_basis("1,0"), "--basis"),
            (lambda: cli._parse_basis("1,0;0,y"), "--basis"),
            (lambda: cli._parse_sets("faces", TriangleGroupFlags), "--sets"),
            (lambda: cli._parse_sets(" , ", TriangleGroupFlags), "--sets"),
            (lambda: cli._cmd_lemmas(build_parser().parse_args(["lemmas", "--samples", "99"])), "--samples"),
        ]
        for call, flag in cases:
            with pytest.raises(ValidationError) as info:
                call()
            assert info.value.field == flag

    def test_render_sphere_rejected(self, capsys, tmp_path):
        doc = tmp_path / "cube.json"
        doc.write_text(
            serialize(document_from(gen_sphere("cube", SubsetFlags(True, False, False))))
        )
        assert _run(capsys, ["render", str(doc)])[0] == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
