"""One benchmark process: set up a workload, then time it op by op.

Started by ``run.py`` in a fresh interpreter, with the checkout's ``src``
on ``PYTHONPATH``.  It prints one JSON object on its last stdout line.
Set-up (imports, input build, one warm-up op) is timed from ``--t0``, the
parent's ``time.monotonic()`` just before it started this process, so the
interpreter start is included.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import (
    gate_cli,
    gate_report,
    gate_solve,
    make_instances,
    to_measures,
    write_instance,
)

HERE = Path(__file__).resolve().parent


def _parse(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="sizes the instance list")
    ap.add_argument("--budget", type=float, default=0.0,
                    help="keep repeating whole passes while they fit in this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1, 2), default=0,
                    help="1: record spans; 2: spans plus tracemalloc peaks")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    return ap.parse_args(argv)


def probe() -> float:
    """Host-speed probe: median time of a fixed dense solve kernel."""
    a = np.random.default_rng(0).standard_normal((200, 200)) + 20.0 * np.eye(200)
    times = []
    for _ in range(7):
        t = time.perf_counter()
        for _ in range(8):
            np.linalg.solve(a, a)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class LibraryOps:
    """plane_solve and wide_verify: in-process calls of the public API."""

    def __init__(self, workload: str, instances) -> None:
        from baryflow import transport, verify

        self.workload = workload
        self.instances = instances
        self.inputs = [to_measures(inst) for inst in instances]
        self.transport, self.verify = transport, verify
        # Captured before any wrapper is installed: the gate runs untraced.
        self.dual_check = transport.dual_feasibility_check

    def trace_into(self, tracer) -> list[str]:
        return tracer.install()

    def call(self, j: int):
        inst = self.instances[j]
        if self.workload == "plane_solve":
            return self.transport.solve_mmot(self.inputs[j], inst.p)
        return self.verify.run_verification(self.inputs[j], inst.p)

    def gate(self, j: int, out):
        if self.workload == "plane_solve":
            return gate_solve(self.instances[j], out, self.dual_check)
        return gate_report(out)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliOps:
    """line_cli_verify: one ``baryflow verify`` subprocess per op."""

    def __init__(self, instances, work_dir: Path) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        self.instances = instances
        self.files = [write_instance(inst, work_dir, f"i{j}") for j, inst in enumerate(instances)]
        self.tracer = None
        self.spans_path = work_dir / "spans.json"
        self.import_s: list[float] = []

    def trace_into(self, tracer) -> list[str]:
        """Run the remaining ops through the traced child entry."""
        self.tracer = tracer
        return []

    def call(self, j: int):
        args = ["verify", *self.files[j], "--p", repr(self.instances[j].p)]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "baryflow.cli", *args]
        else:
            self.spans_path.unlink(missing_ok=True)
            alloc = "1" if self.tracer.measure_alloc else "0"
            cmd = [sys.executable, str(HERE / "cli_entry.py"), str(self.spans_path), alloc, *args]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=120)

    def gate(self, j: int, out):
        if self.tracer is not None and self.spans_path.exists():
            dumped = json.loads(self.spans_path.read_text())
            self.import_s.append(dumped.pop("import_s"))
            self.tracer.merge(dumped)
        return gate_cli(out.returncode, out.stdout)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def main(argv=None) -> None:
    args = _parse(argv)
    cli_import_s = None
    if args.trace:
        t = time.perf_counter()
        import baryflow.cli  # noqa: F401

        cli_import_s = time.perf_counter() - t

    instances = make_instances(args.workload, args.seed, args.seconds)
    if args.workload == "line_cli_verify":
        ops = CliOps(instances, args.work_dir)
    else:
        ops = LibraryOps(args.workload, instances)

    tracer = None

    def run_op(j: int):
        """Time one op; gate it outside the timed interval and any span."""
        t = time.perf_counter()
        try:
            out = ops.call(j)
            error = None
        except Exception as exc:  # every failure of an op is tallied, never fatal
            out, error = None, type(exc).__name__
        elapsed = time.perf_counter() - t
        if tracer is not None:
            tracer.paused = True
        try:
            verdict = ops.gate(j, out) if error is None else None
        finally:
            if tracer is not None:
                tracer.paused = False
        return elapsed, error or verdict.failure, verdict is not None and verdict.wrong

    run_op(0)  # warm-up: untimed, untraced
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(measure_alloc=args.trace == 2)
        skipped = ops.trace_into(tracer)

    probe_before = probe()
    times: list[float] = []
    failures: dict[str, int] = {}
    wrong = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for j in range(len(instances)):
            elapsed, failure, is_wrong = run_op(j)
            times.append(elapsed)
            wrong += is_wrong
            if failure is not None:
                failures[failure] = failures.get(failure, 0) + 1
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > args.budget:
            break
    loop_s = time.perf_counter() - start
    probe_after = probe()

    result = {
        "setup_s": setup_s,
        "op_s": times,
        "list_length": len(instances),
        "passes": len(times) // len(instances),
        "failures": failures,
        "wrong": wrong,
        "loop_s": loop_s,
        "peak_rss_mb": ops.peak_rss_mb(),
        "probe_before_s": probe_before,
        "probe_after_s": probe_after,
    }
    if tracer is not None:
        if isinstance(ops, CliOps):
            cli_import_s = statistics.fmean(ops.import_s)
        result["layers"] = {**tracer.summary(len(times)), "cli.import_s": cli_import_s}
        result["exact_counts"] = tracer.exact_counts()
        result["skipped_wrappers"] = skipped
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
