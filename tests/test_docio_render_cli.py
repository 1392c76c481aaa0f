"""Document format round-trips and diagnostics, SVG determinism and marker
classing, and end-to-end CLI exit codes."""
import io
import json
import math
import sys

import numpy as np
import pytest

from balanced_configs.cli import main
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
    SubsetFlags,
    TriangleGroupFlags,
    TriangleGroupParams,
    gen_hexagonal,
    gen_hyp_triangle_group,
    gen_line,
    gen_sphere,
    gen_triangular,
)
from balanced_configs.render import RenderStyle, render_svg


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
        bad_dim = _err(json.dumps({**base, "points": [[0, 0, 0]]}))
        assert bad_dim.field == "points[0]"
        not_num = _err(json.dumps({**base, "points": [["x", 0]]}))
        assert not_num.field.startswith("points[0]")
        as_bool = _err(json.dumps({**base, "points": [[True, 0]]}))
        assert as_bool.field.startswith("points[0]")
        # json accepts a bare NaN literal; the parser must not
        nan = _err('{"space": "euclidean2", "kind": "finite", "points": [[NaN, 0]]}')
        assert nan.field.startswith("points[0]")

    def test_sphere_and_disk_point_gates(self):
        off_sphere = {"space": "sphere2", "kind": "finite", "points": [[1.0, 0.0, 0.001]]}
        assert _err(json.dumps(off_sphere)).field == "points[0]"
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
            ["generate", "--family", "line", "--count", "9"],
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
