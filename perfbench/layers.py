"""Per-layer metrics computed from the spans and counts of a traced run.

Times named ``<module>.<function>_s`` are inclusive: the total time spent in
that function's spans per traced pass, child spans included.  The exceptions
are per-call medians: ``cli.import_s`` (one fresh-interpreter package import)
and the two ``gen_sphere`` timings.  Counts are totals per traced pass.
"""
from __future__ import annotations

import statistics


class Aggregate:
    """Spans and counts of a traced run, weighted per op-id group.

    weight(op) gives the share of one pass that an op's spans and counts
    represent, e.g. 1/n for each of n traced passes.
    """

    def __init__(self, spans, counts, weight):
        self.totals, self.calls, self.durations = {}, {}, {}
        self.sums, self.gauges = {}, {}
        for name, start, end, _, op in spans:
            w = weight(op)
            self.totals[name] = self.totals.get(name, 0.0) + w * (end - start)
            self.calls[name] = self.calls.get(name, 0.0) + w
            self.durations.setdefault(name, []).append(end - start)
        for key, value, op in counts:
            if key.startswith("="):
                self.gauges[key[1:]] = value
            else:
                self.sums[key] = self.sums.get(key, 0.0) + weight(op) * value

    def total(self, name):
        return self.totals.get(name)

    def count_calls(self, name):
        return self.calls.get(name)

    def median(self, name):
        values = self.durations.get(name)
        return statistics.median(values) if values else None

    def count(self, key):
        return self.sums.get(key)

    def gauge(self, key):
        return self.gauges.get(key)


def _ratio(num, den, scale=1.0):
    if num is None or not den:
        return None
    return scale * num / den


def _verify_time(a):
    parts = [a.total(f"verify.verify_{kind}") for kind in ("plane", "sphere", "hyperbolic")]
    parts = [p for p in parts if p is not None]
    return sum(parts) if parts else None


def _time(span):
    return lambda a: a.total(span)


def _count(key):
    return lambda a: a.count(key)


# (metric name, unit, better, value from an Aggregate or None when absent)
LAYER_METRICS = (
    ("generators.gen_hyp_rotation_tiling_s", "s", "lower", _time("generators.gen_hyp_rotation_tiling")),
    ("generators.points", "count", "higher", _count("generators.points")),
    ("generators.patch_radius", "length", "higher", lambda a: a.gauge("generators.patch_radius")),
    ("generators.gen_sphere_cold_s", "s", "lower", lambda a: a.median("generators.gen_sphere_cold")),
    ("generators.gen_sphere_warm_s", "s", "lower", lambda a: a.median("generators.gen_sphere_warm")),
    ("docio.serialize_s", "s", "lower", _time("docio.serialize")),
    ("docio.parse_config_s", "s", "lower", _time("docio.parse_config")),
    ("docio.to_runtime_s", "s", "lower", _time("docio.to_runtime")),
    ("docio.bytes", "bytes", "lower", _count("docio.bytes")),
    ("docio.parse_mb_per_s", "MB/s", "higher",
     lambda a: _ratio(a.count("docio.parse_bytes"), a.total("docio.parse_config"), 1e-6)),
    ("verify.verify_hyperbolic_s", "s", "lower", _time("verify.verify_hyperbolic")),
    ("verify.verified_points", "count", "higher", _count("verify.verified_points")),
    ("verify.classes_checked", "count", "higher", _count("verify.classes_checked")),
    ("verify.neighbors_found", "count", "higher", _count("verify.neighbors_found")),
    ("verify.us_per_class", "us", "lower",
     lambda a: _ratio(_verify_time(a), a.count("verify.classes_checked"), 1e6)),
    ("verify.verify_plane_s", "s", "lower", _time("verify.verify_plane")),
    ("verify.verify_sphere_s", "s", "lower", _time("verify.verify_sphere")),
    ("verify.max_neighbor_count_s", "s", "lower", _time("verify.max_neighbor_count")),
    ("verify.check_min_distance_property_s", "s", "lower", _time("verify.check_min_distance_property")),
    ("configs.distance_classes_s", "s", "lower", _time("configs.distance_classes")),
    ("configs.distance_classes.calls", "count", "lower", lambda a: a.count_calls("configs.distance_classes")),
    ("configs.min_distance_s", "s", "lower", _time("configs.min_distance")),
    ("configs.points_within_s", "s", "lower", _time("configs.points_within")),
    ("configs.contains_many_s", "s", "lower", _time("configs.contains_many")),
    ("configs.contains_many.points", "count", "lower", _count("configs.contains_many.points")),
    ("configs.primitive_periods_s", "s", "lower", _time("configs.primitive_periods")),
    ("classify.classify_s", "s", "lower", _time("classify.classify")),
    ("classify.regenerate_s", "s", "lower", _time("classify.regenerate")),
    ("classify.is_group_balanced_s", "s", "lower", _time("classify.is_group_balanced")),
    ("classify.rotation_symmetries_about.calls", "count", "lower",
     lambda a: a.count_calls("classify.rotation_symmetries_about")),
    ("render.render_svg_s", "s", "lower", _time("render.render_svg")),
    ("render.svg_bytes", "bytes", "lower", _count("render.svg_bytes")),
    ("cli.import_s", "s", "lower", lambda a: a.median("cli.import")),
    ("cli.emit_s", "s", "lower", _time("cli.emit")),
    ("inequalities.run_catalog_s", "s", "lower", _time("inequalities.run_catalog")),
)

# Reported by the run itself rather than derived from spans.
OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower")


UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}


def layer_values(agg):
    """Every per-layer metric from agg; None where agg has no source for it."""
    return {name: fn(agg) for name, _, _, fn in LAYER_METRICS}
