"""Property tests of the document writer: serialize gives the text of
json.dumps(indent=2) for every document and round-trips through
parse_config byte for byte.  Skipped when hypothesis is not installed."""
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from balanced_configs.docio import ConfigDocument, parse_config, serialize  # noqa: E402

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
        return ConfigDocument("euclidean2", "finite", draw(_points(_anywhere)), metadata=meta)
    if kind == "periodic":
        basis = draw(st.tuples(st.tuples(_anywhere, _anywhere), st.tuples(_anywhere, _anywhere)))
        det = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
        assume(abs(det) > 1e-12)
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
