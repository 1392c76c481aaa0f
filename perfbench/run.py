"""Benchmark entry point for balanced-configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src and the
CLI runs as ``python3 -m balanced_configs`` with that source on PYTHONPATH.
Scratch files go to ./.perfbench_out/work-<pid> and are removed at exit;
a traced run leaves its spans in ./.perfbench_out/.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  All load comes from this process: CLI calls run one
at a time, with no thread or process pool.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time

SETUP_REPEATS = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "cli.generate_s": "s",
    "cli.verify_s": "s",
    "cli.render_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    """Machine and library facts printed next to the numbers."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of values.

    It weighs every order statistic by a Beta((n+1)q, (n+1)(1-q)) kernel
    instead of picking one or two of them, so a gap in the data at the
    quantile (ops of a pass fall into clusters of very different cost)
    does not make the estimate jump from one run to the next.
    """
    x = sorted(values)
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x))


def beta_cdf(a, b, x):
    """Regularised incomplete beta function I_x(a, b).

    Evaluated by the continued fraction of Numerical Recipes (section 6.4)
    with the modified Lentz method; written out here so that the benchmark
    process does not import scipy.special, whose memory would show in
    peak_rss_mb on the in-process workload.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - beta_cdf(b, a, 1.0 - x)
    tiny = 1e-300

    def step(c, d, coeff):
        d = 1.0 + coeff * d
        c = 1.0 + coeff / c
        return (c if abs(c) > tiny else tiny), 1.0 / (d if abs(d) > tiny else tiny)

    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        c, d = step(c, d, m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)))
        h *= d * c
        c, d = step(c, d, -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)))
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    return math.exp(front) * h / a


def set_up(workload, session):
    """Fresh-interpreter package import, seeded inputs and warm-up; median seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        session.begin_pass("setup")
        start = time.perf_counter()
        rc, _, _ = session.spawn([sys.executable, "-c", "import balanced_configs"],
                                 session.path("import.txt"))
        if rc != 0:
            raise RuntimeError(f"package import failed with exit code {rc}")
        workload.prepare()
        workload.warm()
        times.append(time.perf_counter() - start)
    return quantile(times, 0.5)


def run_passes(workload, session, seconds, label, start=None, timed=False):
    """Whole passes, each followed by the workload's stage calls, while the
    next one is expected to end within `seconds` of start (at least one).

    Spreading the samples over the whole run, rather than timing the stage
    calls in a burst at its end, keeps a slow spell of the shared host from
    moving every sample of one metric at once.  Returns the pass wall times.
    """
    start = time.perf_counter() if start is None else start
    walls = []
    while True:
        t0 = time.perf_counter()
        session.begin_pass(f"{label}{len(walls)}")
        session.timed = timed
        workload.run_pass()
        walls.append(time.perf_counter() - t0)
        session.timed = False
        workload.stage_calls()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return walls


def end_to_end(workload, session, seconds, setup_s):
    walls = run_passes(workload, session, seconds, "p", timed=True)

    # an op's latency is its median over the passes of the run, so a single
    # stall on a shared host moves no percentile; percentiles are over the
    # ops of one pass
    by_slot = {}
    for op in session.ops:
        if op.timed:
            by_slot.setdefault((op.name, op.slot), []).append(op.seconds * 1e3)
    latencies = [quantile(times, 0.5) for times in by_slot.values()]
    p90 = quantile(latencies, 0.9)
    timed_ops = sum(len(times) for times in by_slot.values())

    def stage(name):
        return quantile([op.seconds for op in session.ops if op.name == name], 0.5)

    if workload.uses_cli:
        peak_mb = session.child_peak_kb / 1024.0
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(session.ops)
    failed = sum(not op.ok for op in session.ops)
    values = {
        "setup_s": setup_s,
        "wall_s": quantile(walls, 0.5),
        "ops_per_s": timed_ops / sum(walls),
        "op_p50_ms": quantile(latencies, 0.5),
        "op_p90_ms": p90,
        "peak_rss_mb": peak_mb,
        "pass_ratio": (attempted - failed) / attempted,
        "cli.generate_s": stage("cli.generate"),
        "cli.verify_s": stage("cli.verify"),
        "cli.render_s": stage("cli.render"),
    }
    beyond_p90 = sum(t > p90 for t in latencies)
    print(json.dumps({"samples": {"passes": len(walls), "ops": timed_ops, "ops_per_pass": len(latencies),
                                  "ops_beyond_p90": beyond_p90, "timed_s": sum(walls)}}))
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def traced(workload, session, seconds, run_dir):
    from layers import OVERHEAD_METRIC, UNITS, Aggregate, layer_values
    from probe import run_probe
    from tracer import Tracer

    start = time.perf_counter()
    session.begin_pass("u0")
    t0 = time.perf_counter()
    workload.run_pass()
    untraced_wall = time.perf_counter() - t0

    tracer = Tracer()
    session.tracer = tracer
    if workload.uses_cli:
        walls = run_passes(workload, session, seconds, "t", start)
    else:
        with tracer.installed():
            walls = run_passes(workload, session, seconds, "t", start)
    session.begin_pass("replay")
    workload.replay(tracer)
    session.begin_pass("sphere")
    spans = session.path("spans.json")
    rc, _, _ = session.spawn([sys.executable, os.path.join(os.path.dirname(__file__), "child.py"),
                              spans, "sphere"], session.path("stdout.txt"))
    session.record("sphere.1", "sphere.cold_warm", 0.0, rc == 0, f"exit {rc}")
    tracer.merge_file(spans, "sphere.1")

    def weight(op):
        return 1.0 / len(walls) if op.startswith("t") else 1.0

    values = layer_values(Aggregate(tracer.spans, tracer.counts, weight))
    from_probe = [name for name, value in values.items() if value is None]
    if from_probe:
        # layers this workload never reaches are measured on the fixed probe
        probe_tracer = Tracer()
        session.tracer = probe_tracer
        run_probe(session, probe_tracer)
        probed = layer_values(Aggregate(probe_tracer.spans, probe_tracer.counts, lambda op: 1.0))
        values.update({name: probed[name] for name in from_probe})
        tracer.absorb(probe_tracer.spans, probe_tracer.counts)
    session.tracer = None
    absent = [name for name, value in values.items() if value is None]
    if absent:
        raise RuntimeError(f"no spans for per-layer metrics {absent}")

    result = {name: (value, UNITS[name]) for name, value in values.items()}
    name, unit, _ = OVERHEAD_METRIC
    result[name] = (quantile(walls, 0.5) - untraced_wall, unit)
    print(json.dumps({"samples": {"traced_passes": len(walls), "untraced_wall_s": untraced_wall,
                                  "traced_wall_s": quantile(walls, 0.5),
                                  "from_probe": from_probe}}))
    os.makedirs(run_dir, exist_ok=True)
    out = os.path.join(run_dir, f"trace-{workload.name}-seed{workload.seed}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans_fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans, "counts": tracer.counts}, fh)
    return result


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "balanced_configs", "__init__.py")):
        print(f"error: no package source at {src}/balanced_configs; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    here = os.path.dirname(os.path.abspath(__file__))
    if here not in sys.path:
        sys.path.insert(0, here)
    from session import Session
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # a terminated run still stops its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        session = Session(root, work)
        workload = WORKLOADS[args.workload](session, args.seed)
        print(json.dumps({"workload": args.workload, "seed": args.seed, "env": environment()}))
        setup_s = set_up(workload, session)
        if args.trace:
            values = traced(workload, session, args.seconds, out_dir)
        else:
            values = end_to_end(workload, session, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(session.ops)
    failed = sum(not op.ok for op in session.ops)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
