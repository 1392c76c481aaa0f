"""On-disk JSON format for point configurations.

A document names its geometry (``euclidean2``, ``sphere2``, ``hyperbolic2``)
and its kind (``finite``, ``periodic``, ``patch``).  Periodic documents carry
a 2x2 basis (rows are the period vectors) and a motif given in fractional
coordinates relative to that basis; finite and patch documents carry explicit
coordinates.  Patch documents are hyperbolic-only and add the certified
patch radius.  Per-point labels, when present, live in the free-form string
metadata map under ``labels`` as a comma-separated list.

A ``ConfigDocument`` holds its coordinates as read-only float64 arrays,
which ``to_runtime`` and ``document_from`` pass between it and the runtime
containers without copying.

Coordinates are serialized with Python's shortest round-trip float text, so
``parse_config(serialize(doc))`` reproduces ``doc`` exactly.  ``serialize``
formats the coordinate arrays itself, with the bytes ``json.dumps(indent=2)``
would give, a block of rows at a time, and joins the text once; non-finite
coordinates are refused rather than written as ``NaN`` or ``Infinity``.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .configs import FinitePointSet, PatchConfig, PeriodicConfig
from .errors import InvalidPointError, ValidationError
from .geometry import SPACE_RULE, basis_defect, points_admitted

SPACES = ("euclidean2", "sphere2", "hyperbolic2")
KINDS = ("finite", "periodic", "patch")

_KINDS_BY_SPACE = {
    "euclidean2": ("finite", "periodic"),
    "sphere2": ("finite",),
    "hyperbolic2": ("finite", "patch"),
}
_COORD_DIM = {"euclidean2": 2, "sphere2": 3, "hyperbolic2": 2}
_RUNTIME_SPACE = {"euclidean2": "plane", "sphere2": "sphere", "hyperbolic2": "disk"}
_DOC_SPACE = {v: k for k, v in _RUNTIME_SPACE.items()}

_TOP_LEVEL_FIELDS = {"space", "kind", "basis", "motif", "points", "patch_radius", "metadata"}

# coordinate rows per %-format in serialize, which bounds the template and
# the float objects alive at once to one block's worth
_ROWS_PER_FORMAT = 4096


@dataclass(frozen=True, eq=False)
class ConfigDocument:
    space: str
    kind: str
    points: np.ndarray  # read-only (n, dim) floats; fractional motif for periodic kind
    basis: np.ndarray | None = None  # read-only 2x2 floats, rows are the periods
    patch_radius: float | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        # a read-only float view, which copies nothing when given float arrays
        for name in ("points", "basis"):
            if getattr(self, name) is not None:
                coords = np.asarray(getattr(self, name), dtype=float).view()
                coords.flags.writeable = False
                object.__setattr__(self, name, coords)

    def __eq__(self, other):
        if not isinstance(other, ConfigDocument):
            return NotImplemented
        fields = ("space", "kind", "patch_radius", "metadata")
        # array_equal holds a None basis equal to None and to no array
        return all(getattr(self, f) == getattr(other, f) for f in fields) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in ("points", "basis")
        )

    @cached_property  # split once: to_runtime hands this tuple to the container
    def labels(self):
        raw = self.metadata.get("labels")
        if raw is None:
            return None
        return tuple(raw.split(","))


def _require_number(value, fieldname):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{fieldname} must be a number, got {value!r}", field=fieldname)
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{fieldname} must be finite, got {value!r}", field=fieldname)
    return value


def _parse_coords(raw, dim, fieldname):
    """Float array of a non-empty list of rows of dim numbers."""
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{fieldname} must be a non-empty list of points", field=fieldname)
    # one type scan admits plain lists of dim floats, as serialize writes
    # them (bool, int, str and nesting fail it); other input takes the
    # per-entry loop, which accepts ints and names the first offender
    if all(type(entry) is list and len(entry) == dim for entry in raw) and set(
        map(type, itertools.chain.from_iterable(raw))
    ) == {float}:
        coords = np.array(raw)
        if np.isfinite(coords).all():
            return coords
    points = []
    for i, entry in enumerate(raw):
        where = f"{fieldname}[{i}]"
        if not isinstance(entry, list) or len(entry) != dim:
            raise ValidationError(
                f"{where} must be a list of {dim} coordinates", field=where
            )
        points.append([_require_number(x, where) for x in entry])
    return np.array(points, dtype=float)


def parse_config(text):
    """Parse and validate a configuration document from JSON text (or an
    already-decoded dict)."""
    if isinstance(text, (str, bytes)):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"document is not valid JSON: {exc}", field="document")
    else:
        raw = text
    if not isinstance(raw, dict):
        raise ValidationError("document must be a JSON object", field="document")

    unknown = set(raw) - _TOP_LEVEL_FIELDS
    if unknown:
        name = sorted(unknown)[0]
        raise ValidationError(f"unknown field {name!r}", field=name)

    space = raw.get("space")
    if space is None:
        raise ValidationError("missing required field 'space'", field="space")
    if space not in SPACES:
        raise ValidationError(
            f"unknown space {space!r}; expected one of {', '.join(SPACES)}", field="space"
        )
    kind = raw.get("kind")
    if kind is None:
        raise ValidationError("missing required field 'kind'", field="kind")
    if kind not in KINDS:
        raise ValidationError(
            f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}", field="kind"
        )
    if kind not in _KINDS_BY_SPACE[space]:
        raise ValidationError(f"kind {kind!r} is not supported for space {space!r}", field="kind")

    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise ValidationError("metadata must be a string-to-string map", field="metadata")

    basis = None
    patch_radius = None
    if kind == "periodic":
        if "points" in raw:
            raise ValidationError(
                "periodic documents use 'motif', not 'points'", field="points"
            )
        raw_basis = raw.get("basis")
        if raw_basis is None:
            raise ValidationError("periodic documents require 'basis'", field="basis")
        basis = _parse_coords(raw_basis, 2, "basis")
        if len(basis) != 2:
            raise ValidationError("basis must have exactly 2 row vectors", field="basis")
        if defect := basis_defect(basis):
            raise ValidationError(defect, field="basis")
        if "motif" not in raw:
            raise ValidationError("periodic documents require 'motif'", field="motif")
        points = _parse_coords(raw["motif"], 2, "motif")
    else:
        if "motif" in raw or "basis" in raw:
            bad = "motif" if "motif" in raw else "basis"
            raise ValidationError(
                f"{bad!r} is only valid for periodic documents", field=bad
            )
        if "points" not in raw:
            raise ValidationError(f"{kind} documents require 'points'", field="points")
        points = _parse_coords(raw["points"], _COORD_DIM[space], "points")
        ok = points_admitted(_RUNTIME_SPACE[space], points)
        if not ok.all():
            where = f"points[{ok.argmin()}]"
            raise ValidationError(f"{where} must {SPACE_RULE[_RUNTIME_SPACE[space]]}", field=where)
        if kind == "patch":
            if "patch_radius" not in raw:
                raise ValidationError("patch documents require 'patch_radius'", field="patch_radius")
            patch_radius = _require_number(raw["patch_radius"], "patch_radius")
            if patch_radius < 0.0:
                raise ValidationError("patch_radius must be nonnegative", field="patch_radius")
    if kind != "patch" and "patch_radius" in raw:
        raise ValidationError("'patch_radius' is only valid for patch documents", field="patch_radius")

    doc = ConfigDocument(
        space=space,
        kind=kind,
        points=points,
        basis=basis,
        patch_radius=patch_radius,
        metadata=dict(metadata),
    )
    if doc.labels is not None and len(doc.labels) != len(points):
        raise ValidationError(
            "metadata labels must list one label per point", field="metadata"
        )
    return doc


def _put_coords(pieces, name, coords):
    """Append the JSON text of a top-level field holding float coordinate
    rows to pieces.

    The bytes are those of json.dumps(indent=2) at that depth, written here
    because json's indenting encoder formats every float in Python; float
    text is float.__repr__, which is also what json writes.  A non-finite
    coordinate raises ValidationError, since json would write NaN or
    Infinity, which parse_config refuses.
    """
    finite = np.isfinite(coords).all(axis=-1)
    if not finite.all():
        i = int(np.argmin(finite))
        where = f"{name}[{i}]"
        raise ValidationError(f"{where} must be finite, got {coords[i].tolist()!r}", field=where)
    pieces.append(f',\n  "{name}": ')
    if not len(coords):
        pieces.append("[]")
        return
    # one %-format per block of rows, each followed by the comma that the
    # closing bracket replaces after the last; %r of a float is float.__repr__
    row = "\n    [" + ",".join(["\n      %r"] * coords.shape[1]) + "\n    ]"
    pieces.append("[")
    for s in range(0, len(coords), _ROWS_PER_FORMAT):
        block = coords[s : s + _ROWS_PER_FORMAT]
        pieces += [",".join([row] * len(block)) % tuple(block.ravel().tolist()), ","]
    pieces[-1] = "\n  ]"


def serialize(doc):
    """Render a document as deterministic JSON text: the text of
    json.dumps(indent=2) plus a newline, with the keys in a fixed order."""
    pieces = ["{\n  \"space\": ", json.dumps(doc.space), ",\n  \"kind\": ", json.dumps(doc.kind)]
    if doc.kind == "periodic":
        _put_coords(pieces, "basis", doc.basis)
        _put_coords(pieces, "motif", doc.points)
    else:
        _put_coords(pieces, "points", doc.points)
        if doc.kind == "patch":
            _require_number(doc.patch_radius, "patch_radius")
            pieces += [",\n  \"patch_radius\": ", json.dumps(doc.patch_radius)]
    if doc.metadata:
        meta = json.dumps({k: doc.metadata[k] for k in sorted(doc.metadata)}, indent=2)
        pieces += [",\n  \"metadata\": ", meta.replace("\n", "\n  ")]
    pieces.append("\n}\n")
    return "".join(pieces)


def to_runtime(doc):
    """Build the runtime configuration object for a parsed document.

    The container's one check that parse_config does not make, motif points
    distinct modulo the lattice, raises ValidationError.
    """
    labels = doc.labels
    try:
        if doc.kind == "periodic":
            return PeriodicConfig(doc.basis, doc.points, labels=labels)
        if doc.kind == "patch":
            return PatchConfig(doc.points, doc.patch_radius, labels=labels)
        return FinitePointSet(_RUNTIME_SPACE[doc.space], doc.points, labels=labels)
    except InvalidPointError as exc:
        field = "points"
        if doc.kind == "periodic":
            # PeriodicConfig's basis refusals all begin with the word basis
            field = "basis" if str(exc).startswith("basis") else "motif"
        raise ValidationError(str(exc), field=field) from exc


def document_from(config, metadata=None):
    """Build a document for a runtime configuration object."""
    meta = dict(metadata or {})
    labels = getattr(config, "labels", None)
    if labels is not None and "labels" not in meta:
        meta["labels"] = ",".join(labels)
    periodic = isinstance(config, PeriodicConfig)
    kind = "periodic" if periodic else "patch" if isinstance(config, PatchConfig) else "finite"
    return ConfigDocument(
        space=_DOC_SPACE[config.space],
        kind=kind,
        points=config.motif if periodic else config.points,
        basis=config.basis if periodic else None,
        patch_radius=float(config.patch_radius) if kind == "patch" else None,
        metadata=meta,
    )
