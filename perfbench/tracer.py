"""In-memory span tracer placed around the package's public functions.

Spans are recorded from outside the package: each traced function is
replaced, in every loaded ``balanced_configs`` module whose namespace refers
to it, by a wrapper that records ``(name, start, end, parent, op)`` and the
counts listed in ``COUNTERS``.  Nothing under ``src/`` is modified; removing
the wrappers restores the original objects.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# Traced functions, by module.  A span is named "<module>.<function>".
TARGETS = {
    "generators": (
        "gen_hyp_rotation_tiling", "gen_hyp_triangle_group", "gen_sphere",
        "gen_hexagonal", "gen_lattice", "gen_triangular", "gen_line",
    ),
    "docio": ("serialize", "parse_config", "to_runtime"),
    "verify": (
        "verify_hyperbolic", "verify_plane", "verify_sphere",
        "max_neighbor_count", "check_min_distance_property",
    ),
    "configs": (
        "distance_classes", "min_distance", "points_within",
        "contains_many", "primitive_periods",
    ),
    "classify": ("classify", "regenerate", "is_group_balanced", "rotation_symmetries_about"),
    "render": ("render_svg",),
    "inequalities": ("run_catalog",),
    # the CLI's report writer: json.dumps of the report plus the stdout write
    "cli": ("_emit_report",),
}
SPAN_ALIASES = {"cli._emit_report": "cli.emit"}
# Benchmark modules that call the package by imported name; their references
# are replaced too, so their calls are traced like the package's own.
CALLERS = ("workloads", "probe")


def _generated(args, result):
    n = len(result.motif) if hasattr(result, "motif") else len(result.points)
    out = {"generators.points": n}
    if hasattr(result, "patch_radius"):
        out["=generators.patch_radius"] = float(result.patch_radius)
    return out


def _report(args, result):
    return {
        "verify.verified_points": result.verified_points,
        "verify.classes_checked": len(result.checks),
        "verify.neighbors_found": sum(ch.size for ch in result.checks),
    }


def _parsed(args, result):
    raw = args[0] if args else None
    return {"docio.parse_bytes": len(raw)} if isinstance(raw, (str, bytes)) else {}


# Counts recorded per call; a key starting with "=" is a gauge (last value
# wins) rather than a sum.
COUNTERS = {
    "docio.serialize": lambda args, result: {"docio.bytes": len(result)},
    "docio.parse_config": _parsed,
    "verify.verify_hyperbolic": _report,
    "verify.verify_plane": _report,
    "verify.verify_sphere": _report,
    "configs.contains_many": lambda args, result: {"configs.contains_many.points": len(result)},
    "render.render_svg": lambda args, result: {"render.svg_bytes": len(result)},
}
for _name in TARGETS["generators"]:
    COUNTERS[f"generators.{_name}"] = _generated


class Tracer:
    """Spans and counts of one process, kept in memory until written out."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id]
        self.counts = []  # [key, value, op id]
        self.op = None
        self._stack = []
        self._patched = []

    def span(self, name, start, end):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op])

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        name = SPAN_ALIASES.get(name, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = [name, start, end, parent, self.op]
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts.append([key, value, self.op])
            return result

        return traced

    def install(self):
        """Replace every traced function in every loaded package module."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (
                name == "balanced_configs" or name.startswith("balanced_configs.") or name in CALLERS
            )
        }
        for short, functions in TARGETS.items():
            home = modules.get(f"balanced_configs.{short}")
            if home is None:
                continue
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def merge_file(self, path, op):
        """Append the spans and counts a child process wrote, under op."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        self.absorb(data["spans"], data["counts"], op)

    def absorb(self, spans, counts, op=None):
        """Append another tracer's spans and counts; op=None keeps their ops."""
        offset = len(self.spans)
        for name, start, end, parent, own_op in spans:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, own_op if op is None else op]
            )
        for key, value, own_op in counts:
            self.counts.append([key, value, own_op if op is None else op])
