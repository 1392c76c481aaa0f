"""Op bookkeeping, the correctness gate and child processes for one run.

An *op* is one CLI call on the CLI workloads and one public library call on
one input on the library workloads.  Every op is checked as it completes;
a check that fails, an exception, or an output that differs from the same
op's output in the run's first pass counts as a failed op.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    timed: bool  # inside the timed loop: counts toward the latency metrics
    slot: str  # position in its pass; the same op in every pass shares it


def digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class Session:
    """State of one benchmark run: paths, op log, tracer and child peak RSS."""

    def __init__(self, root, work):
        self.work = work
        self.tracer = None  # set for traced runs: CLI calls then go through child.py
        src = os.path.join(root, "src")
        inherited = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))
        self.ops = []
        self.timed = False
        self.child_peak_kb = 0
        self.pass_no = "setup"
        self._seq = 0
        self._first_outputs = {}

    # -- op ids and the gate -------------------------------------------------

    def begin_pass(self, label):
        self.pass_no = label
        self._seq = 0

    def _next_op(self):
        self._seq += 1
        return f"{self.pass_no}.{self._seq}"

    def record(self, op_id, name, seconds, ok, note="", output=None):
        """Log an op; output, when given, must repeat across passes."""
        slot = op_id.split(".", 1)[1]
        if ok and output is not None:
            first = self._first_outputs.setdefault((name, slot), output)
            if first != output:
                ok, note = False, "output differs from the first pass"
        self.ops.append(Op(name, seconds, bool(ok), self.timed, slot))
        if not ok:
            print(f"gate: {name} [{op_id}] failed: {note}", file=sys.stderr)

    # -- library calls -------------------------------------------------------

    def call(self, name, fn, *args, check=None, output=None):
        """Time fn(*args), then apply check(result) -> bool and record.

        output(result), when given, fingerprints the result for the
        same-output-across-passes gate.  Returns the result, or None if the
        call raised.
        """
        op_id = self._next_op()
        if self.tracer is not None:
            self.tracer.op = op_id
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.record(op_id, name, time.perf_counter() - start, False, f"{type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - start
        ok = True if check is None else bool(check(result))
        fingerprint = output(result) if (ok and output is not None) else None
        self.record(op_id, name, seconds, ok, "check failed", fingerprint)
        return result

    # -- child processes -----------------------------------------------------

    def spawn(self, args, stdout_path):
        """Run a child to completion; returns (exit code, seconds, usage)."""
        with open(stdout_path, "wb") as out, open(os.devnull, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=self.work, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage

    def cli(self, name, args, check):
        """One CLI call; check(rc, stdout bytes) -> (ok, note, output).

        Untraced calls run ``python3 -m balanced_configs``; traced calls run
        the same CLI through ``child.py``, which adds the spans.
        """
        op_id = self._next_op()
        stdout_path = os.path.join(self.work, "stdout.txt")
        if self.tracer is not None:
            spans = os.path.join(self.work, "spans.json")
            cmd = [sys.executable, os.path.join(HERE, "child.py"), spans, "cli", *args]
        else:
            cmd = [sys.executable, "-m", "balanced_configs", *args]
        rc, seconds, usage = self.spawn(cmd, stdout_path)
        if self.timed:
            self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        if self.tracer is not None:
            self.tracer.merge_file(spans, op_id)
            os.remove(spans)
        with open(stdout_path, "rb") as fh:
            stdout = fh.read()
        try:
            ok, note, output = check(rc, stdout)
        except Exception as exc:  # malformed output is a gate breach
            ok, note, output = False, f"{type(exc).__name__}: {exc}", None
        self.record(op_id, name, seconds, ok, f"exit {rc}: {note}", output)
        return rc, stdout

    def path(self, name):
        return os.path.join(self.work, name)

    def read(self, name):
        with open(self.path(name), "rb") as fh:
            return fh.read()
