"""Paired benchmark runs of two commits, written as one BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent REV [--change REV] --out BENCH_8.json

Run from the root of a git checkout.  Each side runs from its own copy of
its commit's tracked files (``git archive``) in a temporary directory, so the
checkout itself is never written to, apart from the output file.  For each of
the two batches, every workload of BENCHMARK.json and every seed (1-10 and the
held-out 1009), the two sides run ``perfbench/run.py --trace 0`` for the
benchmark's ``run_seconds``, back to back, with PYTHONDONTWRITEBYTECODE=1.
The side that runs first alternates along the seeds and flips from one
batch to the next, so every seed runs once in each order.  The
output file is rewritten after every pair, so an interrupted batch keeps
the pairs already run.

The file holds every pair's metrics, and per workload and end-to-end metric
(as BENCHMARK.json declares them) each side's median and quartiles
(linear interpolation), the number of pairs the change wins (better in the
metric's declared direction; ties count for neither), the ratio of the
medians, change over parent, and two verdicts: ``gain`` (the change wins at
least 0.9 of the pairs and its median is better than the parent's by more
than the parent's IQR) and ``within_bound`` (the change's median is not
worse than the parent's by more than the metric's ``bound``, a fraction of
the parent's median).
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1009)
# two batches with the order flipped between them run every seed once in
# each order
BATCHES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--change", default="HEAD", help="commit of the change side (default HEAD)")
    parser.add_argument("--out", required=True, help="output path, e.g. BENCH_8.json")
    return parser.parse_args(argv)


def export(rev, dest):
    """The tracked files of rev, extracted into dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_side(root, workload, seed, seconds):
    """One perfbench run in the checkout copy at root: its result and env."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    head = next(line for line in lines if "env" in line)
    samples = next(line["samples"] for line in lines if "samples" in line)
    result = lines[-1]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": samples["passes"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }, head["env"]


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1}


def summarize(pairs, metrics):
    """Per metric: each side's quartiles, the change's wins, the ratio of
    medians and the gain and bound verdicts."""
    if len(pairs) < 2:
        return {}
    out = {}
    for name, (better, bound) in sorted(metrics.items()):
        got = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(got["parent"], got["change"]))
        stats = {side: spread(got[side]) for side in SIDES}
        base = stats["parent"]["median"]
        # how much better the change's median is, in the declared direction
        gap = sign * (base - stats["change"]["median"])
        out[name] = {
            **stats,
            "wins": wins,
            "pairs": len(pairs),
            "ratio_of_medians": stats["change"]["median"] / base if base else None,
            "gain": wins >= 0.9 * len(pairs) and gap > stats["parent"]["iqr"],
            "within_bound": gap >= -bound * abs(base),
        }
    return out


def main(argv=None):
    args = parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    revs = {side: subprocess.run(["git", "rev-parse", "--short", rev], check=True, capture_output=True,
                                 text=True).stdout.strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    doc = {
        "title": f"parent {revs['parent']} vs change {revs['change']}",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": (
            f"PYTHONDONTWRITEBYTECODE=1; each side from its own git archive copy "
            f"(parent {revs['parent']}, change {revs['change']}) in a temporary directory. "
            f"{BATCHES} pairs per (workload, seed), seeds {', '.join(map(str, SEEDS))}; the two runs of a pair "
            "run back to back; the side that runs first alternates along the seeds and flips "
            "from one batch to the next. "
            "Quartiles by linear interpolation; 'wins' counts pairs where the change is better "
            "in the metric's declared direction, ties counting for neither."
        ),
        "machine": {"env": None, "platform": platform.platform()},
        "workloads": {w: {"pairs": [], "summary": {}, "failed_ops": {s: 0 for s in SIDES}} for w in workloads},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            export(revs[side], roots[side])
        for batch in range(BATCHES):
            for w, workload in enumerate(workloads):
                for i, seed in enumerate(SEEDS):
                    # alternate along the seeds, and flip every seed's order
                    # from one batch to the next
                    first = SIDES[(batch + w + i) % 2]
                    pair = {"batch": chr(ord("a") + batch), "seed": seed, "first": first}
                    for side in (first, SIDES[1 - SIDES.index(first)]):
                        pair[side], doc["machine"]["env"] = run_side(roots[side], workload, seed, seconds)
                    entry = doc["workloads"][workload]
                    entry["pairs"].append(pair)
                    entry["summary"] = summarize(entry["pairs"], metrics)
                    entry["failed_ops"] = {s: sum(p[s]["failed"] for p in entry["pairs"]) for s in SIDES}
                    with open(args.out, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh, indent=1)
                        fh.write("\n")
                    print(f"{workload} batch {pair['batch']} seed {seed} ({first} first): "
                          f"{len(entry['pairs'])} pair(s) written", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
