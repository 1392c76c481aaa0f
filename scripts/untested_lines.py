"""The lines of the package that a test run never executes.

    python3 scripts/untested_lines.py [PYTEST_ARGS...]

Runs pytest in this process (with ``src`` put first on ``sys.path``) under
``sys.settrace`` and ``threading.settrace``, tracing only code whose file
lies in ``src/balanced_configs``, then prints, per file, each executable
line that never ran and its source, and the total.  A line is executable
when a code object compiled from the file names it in ``co_lines``.  Any
arguments go to pytest in place of the default, ``-q -p no:cacheprovider
tests``, run from the repository root; the exit status is pytest's.

Only this process is traced: lines that only the tests starting the CLI in
a subprocess reach show as not run.  Nothing beyond pytest is needed; the
traced run takes about twice as long as the same run untraced.
"""
from __future__ import annotations

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "balanced_configs")


def executable_lines(path):
    """The line numbers that the code objects compiled from path name."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)  # 0: a module's RESUME
        todo.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv):
    prefix = PACKAGE + os.sep
    ran = {}  # file -> the line numbers that ran

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        ran.setdefault(path, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        missed = sorted(executable_lines(path) - ran.get(path, set()))
        if not missed:
            continue
        with open(path, encoding="utf-8") as f:
            source = f.read().splitlines()
        print(os.path.relpath(path, ROOT))
        for line in missed:
            print(f"  {line:4d}: {source[line - 1].strip()}")
        total += len(missed)
    print(f"{total} lines not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
