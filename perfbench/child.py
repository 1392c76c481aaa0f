"""Traced child process: the CLI, or a cold/warm ``gen_sphere`` timing.

    python3 perfbench/child.py SPANS_OUT cli ARGS...   # balanced_configs.cli.main(ARGS)
    python3 perfbench/child.py SPANS_OUT sphere        # gen_sphere cold, then warm

The package import is timed as the span ``cli.import``; stdout and the exit
code are those of the CLI, so the caller checks them as for an untraced call.
Spans and counts go to SPANS_OUT as JSON.
"""
import sys
import time

from tracer import Tracer

WARM_CALLS = 5


def main(argv):
    out, mode, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import balanced_configs  # noqa: F401  (timed: the fresh-interpreter import)
    from balanced_configs import cli

    tracer.span("cli.import", start, time.perf_counter())
    rc = 0
    try:
        if mode == "cli":
            with tracer.installed():
                rc = cli.main(args)
        elif mode == "sphere":
            # the first call pays the lazy scipy.spatial import (cold)
            from balanced_configs.generators import SubsetFlags, gen_sphere

            flags = SubsetFlags(vertices=True, edge_midpoints=True, face_centers=True)
            for i in range(1 + WARM_CALLS):
                t0 = time.perf_counter()
                gen_sphere("icosahedron", flags)
                name = "generators.gen_sphere_cold" if i == 0 else "generators.gen_sphere_warm"
                tracer.span(name, t0, time.perf_counter())
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        sys.stdout.flush()
        tracer.dump(out)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
