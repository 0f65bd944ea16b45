"""baryflow benchmark: three closed-loop workloads, one client, one op at a time.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload plane_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``plane_solve``: ``solve_mmot`` on N=3, n=18, d=2, p=1.5 instances;
* ``wide_verify``: ``run_verification`` over every p x coordinate-scale
  pairing, two shapes, plus a tied lattice instance;
* ``line_cli_verify``: ``python -m baryflow.cli verify`` on N=3, n=12, d=1
  measures written as files during set-up, one subprocess per op.

Each workload runs the checkout's own ``src/`` in fresh worker processes.
``--trace 0`` prints the end-to-end metrics of an untraced run.  ``--trace 1``
runs a list a third as long once untraced and twice traced (spans, then
spans plus tracemalloc), fails if the two traced runs disagree on any exact
count, and prints the per-layer metrics (means per op).  The last stdout line
is the result; the line before it holds the details: sample counts, the
failure tally by exception type or failing check, and the host-speed probe.
``correct`` is false when the program returns a wrong answer as a success;
a failure it reports (an exception, a failing check) counts in ``failed``.

Which end-to-end metric each layer metric should move:

=================================  ===============================================
layer metrics                      should move
=================================  ===============================================
infconv.*                          op_s, ok_per_s on wide_verify and plane_solve;
                                   nothing on line_cli_verify (p=2 skips Newton)
linprog.*                          op_s on plane_solve most, then the other two
transport.solve_mmot.*             op_s.p50 and peak_rss_mb on plane_solve
transport.solve_pairwise.*,        op_s on line_cli_verify and wide_verify;
transport.dual_feasibility_check   nothing on plane_solve
flows.*                            op_s, ok_frac on wide_verify
verify.run_verification.*          op_s on wide_verify and line_cli_verify
measures.*                         op_s on line_cli_verify
cli.import_s, cli.main.self_s      op_s on line_cli_verify; setup_s everywhere
trace.overhead_s                   nothing: traced minus untraced op_s.p50
=================================  ===============================================
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, percentile, tail_quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh-process set-ups per run; setup_s is their median.
SETUP_SAMPLES = 5
# A trace run times a list a third as long as the untraced run's, three times.
TRACE_LIST_SHARE = 1 / 3
# Every run ends within this many seconds of its start.
RUN_DEADLINE_S = 170.0
# One BLAS thread: a single client uses one core, the other is left to the host.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not produce a valid result."""


class Runner:
    """Starts worker processes for one workload and seed, within a deadline."""

    def __init__(self, workload: str, seed: int, work_dir: Path, deadline: float) -> None:
        self.workload, self.seed = workload, seed
        self.work_dir, self.deadline = work_dir, deadline
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}

    def worker(self, seconds: float, *flags: str) -> dict:
        t0 = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--seconds", repr(seconds),
            "--t0", repr(t0), "--work-dir", str(self.work_dir), *flags,
        ]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker exceeded the {RUN_DEADLINE_S:g} s run deadline")
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{err[-3000:]}")
        return json.loads(out.strip().splitlines()[-1])


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setups = [runner.worker(seconds, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = runner.worker(seconds, "--budget", repr(seconds))
    setups.append(run["setup_s"])
    times = run["op_s"]
    ok = len(times) - sum(run["failures"].values())
    q = tail_quantile(run["list_length"])
    values = {
        "op_s.p50": percentile(times, 0.5),
        "op_s.p75": percentile(times, q),
        "ok_per_s": ok / sum(times),
        "ok_frac": ok / len(times),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    detail = {
        "ops": len(times), "ok": ok, "list_length": run["list_length"], "passes": run["passes"],
        "op_s.p75_quantile": q, "failures": run["failures"], "wrong_answers": run["wrong"],
        "loop_s": run["loop_s"], "setup_samples_s": setups,
        "probe_before_s": run["probe_before_s"], "probe_after_s": run["probe_after_s"],
    }
    return values, detail


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    short = seconds * TRACE_LIST_SHARE
    base = runner.worker(short)
    spans = runner.worker(short, "--trace", "1")
    alloc = runner.worker(short, "--trace", "2")
    if spans["exact_counts"] != alloc["exact_counts"]:
        raise BenchError(
            "exact-count self-check failed: two traced runs of one list differ\n"
            f"{json.dumps(spans['exact_counts'], sort_keys=True)}\n"
            f"{json.dumps(alloc['exact_counts'], sort_keys=True)}"
        )
    values = dict(spans["layers"])
    for key, value in alloc["layers"].items():
        if key.endswith(".alloc_peak_mb"):
            values[key] = value
    values["trace.overhead_s"] = percentile(spans["op_s"], 0.5) - percentile(base["op_s"], 0.5)
    detail = {
        "ops": len(spans["op_s"]), "failures": spans["failures"], "exact_counts": spans["exact_counts"],
        "skipped_wrappers": spans["skipped_wrappers"],
        "wrong_answers": base["wrong"] + spans["wrong"] + alloc["wrong"],
        "untraced_op_s.p50": percentile(base["op_s"], 0.5),
        "probe_before_s": spans["probe_before_s"], "probe_after_s": spans["probe_after_s"],
    }
    return values, detail


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    work_dir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    runner = Runner(workload, seed, work_dir, time.monotonic() + RUN_DEADLINE_S)
    try:
        values, detail = (per_layer if trace else end_to_end)(runner, seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = sum(detail["failures"].values())
    result = {
        "correct": detail["wrong_answers"] == 0,
        "attempted": detail["ops"],
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"]) or 0.0), "unit": m["unit"]}
            for m in wanted
        },
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "baryflow" / "__init__.py").is_file():
        print(f"error: no baryflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            result, detail = measure(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"workload": workload, "seed": args.seed, "detail": detail}))
            if args.workload == "all":
                result = {"workload": workload, **result}
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
