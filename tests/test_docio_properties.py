"""Property tests of the document reader and writer: serialize gives the
text of json.dumps(indent=2) for every document and round-trips through
parse_config byte for byte; parse_config accepts and refuses points as the
per-entry type rules and then the shared geometric rule do; and near
|z| = 1 and unit norm it admits exactly the points that the containers
admit, and the disk distance kernel and the CLI handle every point it
admits.  Skipped when hypothesis is not installed."""
import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from balanced_configs.cli import main  # noqa: E402
from balanced_configs.configs import PatchConfig  # noqa: E402
from balanced_configs.docio import ConfigDocument, parse_config, serialize, to_runtime  # noqa: E402
from balanced_configs.errors import ValidationError  # noqa: E402
from balanced_configs.geometry import basis_defect, points_admitted  # noqa: E402

# values whose shortest float text is awkward: signed zero, the smallest
# subnormal, and the exponents where repr switches to scientific notation
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-7, -1e-7, 1e16, -1e16, 1e-5, 9999999999999998.0]
_DISK_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-7, -1e-7, 1e-5]

_anywhere = st.one_of(
    st.sampled_from(_SPECIAL), st.floats(allow_nan=False, allow_infinity=False)
)
# |x|, |y| <= 0.7 keeps every point inside the unit disk
_in_disk = st.one_of(st.sampled_from(_DISK_SPECIAL), st.floats(-0.7, 0.7))
_metadata = st.dictionaries(st.text().filter(lambda k: k != "labels"), st.text(), max_size=3)


def _points(coord, max_size=6):
    return st.lists(st.tuples(coord, coord), min_size=1, max_size=max_size).map(tuple)


@st.composite
def _documents(draw):
    kind = draw(st.sampled_from(["finite", "periodic", "patch"]))
    meta = draw(_metadata)
    if kind == "finite":
        points = draw(_points(_anywhere))
        assume(points_admitted("plane", np.array(points)).all())
        return ConfigDocument("euclidean2", "finite", points, metadata=meta)
    if kind == "periodic":
        basis = draw(st.tuples(st.tuples(_anywhere, _anywhere), st.tuples(_anywhere, _anywhere)))
        assume(basis_defect(basis) is None)
        return ConfigDocument(
            "euclidean2", "periodic", draw(_points(_anywhere)), basis=basis, metadata=meta
        )
    radius = draw(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-7, 1e16]), st.floats(0.0, 1e300)))
    return ConfigDocument(
        "hyperbolic2", "patch", draw(_points(_in_disk)), patch_radius=radius, metadata=meta
    )


def _json_reference(doc):
    """The document text written by json's own indenting encoder."""
    out = {"space": doc.space, "kind": doc.kind}
    if doc.kind == "periodic":
        out["basis"] = [list(row) for row in doc.basis]
        out["motif"] = [list(p) for p in doc.points]
    else:
        out["points"] = [list(p) for p in doc.points]
        if doc.kind == "patch":
            out["patch_radius"] = doc.patch_radius
    if doc.metadata:
        out["metadata"] = {k: doc.metadata[k] for k in sorted(doc.metadata)}
    return json.dumps(out, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_serialize_matches_json_and_round_trips(doc):
    text = serialize(doc)
    assert text == _json_reference(doc)
    again = parse_config(text)
    assert again == doc
    assert serialize(again) == text


def _reference_points(raw, space):
    """parse_config's verdict on a points list, by the per-entry type rules
    and then the shared geometric rule: the coordinate tuples, or the (field,
    message) of the first refusal."""
    dim = 3 if space == "sphere2" else 2
    points = []
    for i, entry in enumerate(raw):
        where = f"points[{i}]"
        if not isinstance(entry, list) or len(entry) != dim:
            return where, f"{where} must be a list of {dim} coordinates"
        for x in entry:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                return where, f"{where} must be a number, got {x!r}"
            if not math.isfinite(x):
                return where, f"{where} must be finite, got {float(x)!r}"
        points.append(tuple(map(float, entry)))
    ok = points_admitted("sphere" if space == "sphere2" else "disk", np.array(points))
    if not ok.all():
        where = f"points[{ok.argmin()}]"
        rule = "be a unit vector" if space == "sphere2" else "lie strictly inside the unit disk"
        return where, f"{where} must {rule}"
    return tuple(points)


def _nudge(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else -math.inf)
    return x


_steps = st.integers(-4, 4)


@st.composite
def _edge_point(draw, space, type_defects=True):
    """A point within a few ulps of |z| = 1 on the disk, of the 1e-9 norm
    gate on the sphere, or, with type_defects, a point that fails the type
    gate."""
    t = draw(st.floats(0.0, 2.0 * math.pi))
    if type_defects and draw(st.integers(0, 5)) == 0:
        bad = draw(st.sampled_from([True, "0.5", None, [0.1], math.nan, math.inf, 1]))
        coords = [0.25] * (3 if space == "sphere2" else 2)
        coords[draw(st.integers(0, len(coords) - 1))] = bad
        return coords[: draw(st.sampled_from([len(coords), len(coords), len(coords) - 1]))]
    if space == "hyperbolic2":
        x = math.cos(t)
        return [x, _nudge(math.copysign(math.sqrt(max(0.0, 1.0 - x * x)), math.sin(t)), draw(_steps))]
    u = math.cos(draw(st.floats(0.0, math.pi)))
    scale = _nudge(1.0 + draw(st.sampled_from([-1e-9, 0.0, 1e-9])), draw(_steps))
    w = math.sqrt(max(0.0, 1.0 - u * u))
    return [scale * w * math.cos(t), scale * w * math.sin(t), scale * u]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_point_gates_match_per_entry_rules(data):
    space = data.draw(st.sampled_from(["hyperbolic2", "sphere2"]))
    inner = [0.1, -0.2] if space == "hyperbolic2" else [0.6, 0.0, 0.8]
    raw = data.draw(st.lists(st.one_of(st.just(inner), _edge_point(space)), min_size=1, max_size=8))
    expected = _reference_points(raw, space)
    doc = {"space": space, "kind": "finite", "points": raw}
    if isinstance(expected[0], str):
        with pytest.raises(ValidationError) as err:
            parse_config(doc)
        assert (err.value.field, str(err.value)) == expected
    else:
        assert parse_config(doc).points.tolist() == [list(p) for p in expected]


def _cli_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parser_containers_and_kernel_agree_near_the_boundary(data):
    space = data.draw(st.sampled_from(["hyperbolic2", "sphere2"]))
    kind = data.draw(st.sampled_from(["finite", "patch"])) if space == "hyperbolic2" else "finite"
    inner = [0.1, -0.2] if space == "hyperbolic2" else [0.6, 0.0, 0.8]
    points = data.draw(
        st.lists(st.one_of(st.just(inner), _edge_point(space, type_defects=False)), min_size=1, max_size=8)
    )
    raw = {"space": space, "kind": kind, "points": points}
    if kind == "patch":
        raw["patch_radius"] = 1.0
    # the same points, handed to the container without parsing
    unparsed = ConfigDocument(space, kind, points, patch_radius=raw.get("patch_radius"))
    try:
        doc = parse_config(raw)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as refused:
            to_runtime(unparsed)
        i = exc.field[len("points[") : -1]
        assert str(refused.value).endswith(f"(first offender: index {i})")
        return
    config = to_runtime(unparsed)
    assert np.array_equal(config.points, doc.points)
    if space == "hyperbolic2":
        patch = config if kind == "patch" else PatchConfig(config.points, 0.0)
        assert np.isfinite(patch.center_dists()).all()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize(doc))
            assert _cli_code(["verify", path]) != 3
            assert _cli_code(["render", path, "-o", os.path.join(tmp, "doc.svg")]) != 3


# unit vectors with exact float norms, for sphere documents
_UNIT = [(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.0, 0.8, -0.6)]
# coordinates no number check admits: bools, strings, null, nesting, and
# integers too large for a float
_NOT_NUMBERS = [True, False, "0.5", None, [0.5], [], {}, 10**400, -(10**400)]
_NOT_COORD_LISTS = ["points", 5, {}, [], None, True]


@st.composite
def _base_documents(draw):
    if draw(st.integers(0, 3)) == 0:
        pts = tuple(draw(st.lists(st.sampled_from(_UNIT), min_size=1, max_size=5)))
        return ConfigDocument("sphere2", "finite", pts, metadata=draw(_metadata))
    return draw(_documents())


@st.composite
def _malformed(draw):
    """A serialized document with one defect, as decoded JSON, and the field
    that parse_config must name."""
    doc = draw(_base_documents())
    raw = json.loads(serialize(doc))
    coords = "motif" if doc.kind == "periodic" else "points"
    n = len(raw[coords])
    i = draw(st.integers(0, n - 1))
    mutation = draw(
        st.sampled_from(
            ["field", "space", "kind", "ragged", "coordinate", "far", "list", "basis", "radius", "metadata", "labels"]
        )
    )
    if mutation == "field":
        name = draw(st.text(min_size=1).filter(lambda s: s not in raw and s != "patch_radius"))
        raw[name] = draw(st.sampled_from([0, "x", None]))
        return raw, name
    if mutation == "space":
        raw["space"] = draw(st.sampled_from(["euclidean3", "", "Sphere2", None, 2, True, ["euclidean2"], {}]))
        return raw, "space"
    if mutation == "kind":
        unsupported = {"euclidean2": ["patch"], "sphere2": ["periodic", "patch"], "hyperbolic2": ["periodic"]}
        raw["kind"] = draw(st.sampled_from(unsupported[doc.space] + ["torus", "", None, 3, False, ["finite"]]))
        return raw, "kind"
    if mutation == "ragged":
        row = raw[coords][i]
        raw[coords][i] = row[:-1] if draw(st.booleans()) else row + [0.0]
        return raw, f"{coords}[{i}]"
    if mutation == "coordinate":
        raw[coords][i][draw(st.integers(0, len(raw[coords][i]) - 1))] = draw(st.sampled_from(_NOT_NUMBERS))
        return raw, f"{coords}[{i}]"
    if mutation == "far" and doc.space != "euclidean2":
        # finite, but far off the sphere or outside the disk
        raw[coords][i][0] = draw(st.sampled_from([1e200, -1e200, 1.7976931348623157e308, 10**30]))
        return raw, f"{coords}[{i}]"
    if mutation == "list":
        raw[coords] = draw(st.sampled_from(_NOT_COORD_LISTS))
        return raw, coords
    if mutation == "basis" and doc.kind == "periodic":
        j = draw(st.integers(0, 1))
        defect = draw(st.sampled_from(["row", "rows", "value"]))
        if defect == "row":
            raw["basis"][j] = raw["basis"][j][:1]
            return raw, f"basis[{j}]"
        if defect == "rows":
            raw["basis"] = raw["basis"] + [[1.0, 0.0]] if j else raw["basis"][:1]
            return raw, "basis"
        raw["basis"][j][0] = draw(st.sampled_from(_NOT_NUMBERS + [math.nan, math.inf]))
        return raw, f"basis[{j}]"
    if mutation == "radius":
        if doc.kind == "patch":
            raw["patch_radius"] = draw(st.sampled_from([math.nan, math.inf, -math.inf, True, "1.0", None, -1.0, 10**400]))
        else:
            raw["patch_radius"] = 1.0
        return raw, "patch_radius"
    if mutation == "metadata":
        bad = draw(st.sampled_from([1, 0.5, None, True, ["a"], {"a": "b"}]))
        raw["metadata"] = draw(st.sampled_from([{"note": bad}, {"labels": bad}, [], "labels", None]))
        return raw, "metadata"
    # a label count that does not match the points
    raw["metadata"] = dict(raw.get("metadata", {}), labels=",".join(["a"] * (n + draw(st.integers(1, 3)))))
    return raw, "metadata"


@settings(max_examples=500, deadline=None)
@given(_malformed())
def test_malformed_documents_name_the_bad_field(case):
    raw, field = case
    text = json.dumps(raw)
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.field == field, str(err.value)
