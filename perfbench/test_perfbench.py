"""Self-test of the benchmark at tiny size.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import tracer as tracer_mod
import workloads
from baryflow import MultiPlan, solve_mmot
from baryflow.transport import dual_feasibility_check
from baryflow.verify import CheckOutcome, VerificationReport

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_instance_lists_are_deterministic_per_seed(workload):
    first = workloads.make_instances(workload, 3, 2.0)
    again = workloads.make_instances(workload, 3, 2.0)
    other = workloads.make_instances(workload, 4, 2.0)
    assert len(first) == len(again) == workloads.list_length(workload, 2.0)
    flat = lambda insts: np.concatenate([np.ravel(a) for i in insts for a in i.points + i.weights])
    assert np.array_equal(flat(first), flat(again))
    assert [i.p for i in first] == [i.p for i in again]
    assert not np.array_equal(flat(first), flat(other))


def test_wide_verify_runs_every_pairing_on_both_shapes():
    insts = workloads.make_instances("wide_verify", 0, 1.0)
    lattice = [i for i in insts if np.array_equal(i.points[0], workloads.LATTICE_POINTS[0])]
    scale = lambda i: min(workloads.WIDE_SCALES, key=lambda s: abs(np.log(np.abs(i.points[0]).max() / s)))
    seen = {(i.p, scale(i), len(i.points), len(i.weights[0])) for i in insts if not any(i is l for l in lattice)}
    assert len(insts) == 26 and len(lattice) == 2
    assert len(seen) == len(workloads.WIDE_PS) * len(workloads.WIDE_SCALES) * len(workloads.WIDE_SHAPES)


def _tiny_solve():
    inst = workloads.make_instances("plane_solve", 5, 0.23)[0]
    small = workloads.Instance(
        tuple(p[:4] for p in inst.points),
        tuple(w[:4] / w[:4].sum() for w in inst.weights),
        inst.p,
    )
    return small, solve_mmot(workloads.to_measures(small), small.p)


def test_solve_gate_accepts_a_solved_plan():
    inst, result = _tiny_solve()
    assert workloads.gate_solve(inst, result, dual_feasibility_check) == workloads.Verdict()


def test_solve_gate_rejects_perturbed_masses():
    inst, result = _tiny_solve()
    masses = result.plan.masses.copy()
    masses[0] += 1e-3
    masses[-1] -= 1e-3
    plan = MultiPlan(result.plan.n_marginals, result.plan.support_sizes, result.plan.indices, masses)
    verdict = workloads.gate_solve(inst, dataclasses.replace(result, plan=plan), dual_feasibility_check)
    assert verdict == workloads.Verdict("marginals", wrong=True)


def test_solve_gate_rejects_broken_potentials():
    inst, result = _tiny_solve()
    potentials = (result.potentials[0] + 1e-3, *result.potentials[1:])
    broken = dataclasses.replace(result, potentials=potentials)
    verdict = workloads.gate_solve(inst, broken, dual_feasibility_check)
    assert verdict == workloads.Verdict("dual_certificate", wrong=True)


def test_report_gate_rejects_a_failing_report():
    values = {"mmot": 1.0, "barycenter_functional": 1.0, "flow_action": 1.0, "coupling_flow_action": 1.0}
    good = VerificationReport(p=2.0, values=values, checks={"continuity": CheckOutcome(0.0, 1e-10)})
    bad = VerificationReport(p=2.0, values=values, checks={
        "continuity": CheckOutcome(1e-5, 1e-10), "stationarity": CheckOutcome(0.0, 1e-8),
    })
    assert workloads.gate_report(good) == workloads.Verdict()
    assert workloads.gate_report(bad) == workloads.Verdict("continuity")


def test_cli_gate():
    report = lambda passed, status: json.dumps(
        {"passed": passed, "checks": {"value_chain": {"status": "pass"}, "continuity": {"status": status}}})
    assert workloads.gate_cli(0, report(True, "pass")) == workloads.Verdict()
    assert workloads.gate_cli(1, report(False, "fail")) == workloads.Verdict("continuity")
    assert workloads.gate_cli(0, report(False, "fail")).wrong
    assert workloads.gate_cli(1, "") == workloads.Verdict("exit_1")


def test_tail_quantile_keeps_ten_samples_beyond():
    assert workloads.tail_quantile(130) == 0.75
    q = workloads.tail_quantile(29)
    values = list(range(29))
    assert sum(v > workloads.percentile(values, q) for v in values) >= workloads.TAIL_SAMPLES
    assert workloads.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_tracer_self_time_and_counts():
    tr = tracer_mod.Tracer()
    inner = tr.wrap(lambda pts: np.zeros(len(pts)), "infconv.batch_barycenters", tracer_mod._count_tuples)
    outer = tr.wrap(lambda: inner(np.zeros((7, 3, 2))), "transport.solve_mmot")
    outer()
    tr.paused = True
    outer()  # paused: no span, no count
    summary = tr.summary(n_ops=1)
    assert summary["transport.solve_mmot.calls"] == 1
    assert summary["infconv.calls"] == 1
    assert summary["infconv.tuples"] == 7
    assert summary["transport.solve_mmot.self_s"] == pytest.approx(
        summary["transport.solve_mmot.s"] - summary["infconv.batch_barycenters.s"])
    assert tr.exact_counts() == {
        "infconv.tuples": 7, "transport.solve_mmot.calls": 1, "infconv.batch_barycenters.calls": 1}


def test_tracer_skips_a_name_that_disappeared(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.present = lambda: 1
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    monkeypatch.setattr(tracer_mod, "WRAP_TABLE", (
        ("fake_layer", "present", "fake.present", None),
        ("fake_layer", "gone", "fake.gone", None),
        ("no_such_module_here", "f", "fake.f", None),
    ))
    tr = tracer_mod.Tracer()
    assert tr.install() == ["fake_layer.gone", "no_such_module_here.f"]
    assert module.present() == 1
    assert tr.exact_counts() == {"fake.present.calls": 1}


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "plane_solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
