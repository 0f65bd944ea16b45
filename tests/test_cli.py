"""Tests for the command-line interface."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import baryflow
from baryflow import DiscreteMeasure, load_measure, save_measure, solve_mmot
from baryflow.cli import main


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def instance(tmp_path):
    """Two small measures on the line with a known quadratic solution."""
    mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[2.0], [3.0]], [0.5, 0.5])
    paths = [tmp_path / "mu.json", tmp_path / "nu.json"]
    save_measure(mu, paths[0])
    save_measure(nu, paths[1])
    return [str(p) for p in paths]


class TestGenerate:
    def test_writes_the_requested_files(self, tmp_path, capsys):
        out = tmp_path / "data"
        code, stdout, _ = run_cli(
            capsys, "generate", "--seed", "7", "--marginals", "3",
            "--atoms", "4", "--dim", "2", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["seed"] == 7
        assert len(payload["files"]) == 3
        for i, path in enumerate(payload["files"]):
            m = load_measure(path)
            assert m.points.shape == (4, 2)
            assert path.endswith(f"marginal_{i + 1}.json")

    def test_same_seed_same_files(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "generate", "--seed", "3", "--out", str(a))
        run_cli(capsys, "generate", "--seed", "3", "--out", str(b))
        assert (a / "marginal_1.json").read_text() == (b / "marginal_1.json").read_text()

    def test_bad_marginal_count(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "generate", "--marginals", "1", "--out", str(tmp_path)
        )
        assert code == 1
        assert "error:" in stderr


class TestSolve:
    def test_known_instance(self, instance, capsys):
        code, stdout, _ = run_cli(capsys, "solve", *instance, "--p", "2")
        assert code == 0
        payload = json.loads(stdout)
        # two parallel unit-weight segments shifted by 2: each tuple cost
        # is 2 |x - y|^2 / 4 = 2, optimal pairing is monotone
        assert payload["p"] == 2.0
        assert payload["value"] == pytest.approx(2.0)
        pts = sorted(pt[0] for pt in payload["barycenter"]["points"])
        assert pts == pytest.approx([1.0, 2.0])

    def test_matches_the_library(self, instance, capsys):
        code, stdout, _ = run_cli(capsys, "solve", *instance, "--p", "1.5")
        ref = solve_mmot([load_measure(p) for p in instance], 1.5)
        assert json.loads(stdout)["value"] == pytest.approx(ref.value, rel=1e-12)

    def test_out_directory(self, instance, tmp_path, capsys):
        out = tmp_path / "res"
        code, stdout, _ = run_cli(capsys, "solve", *instance, "--out", str(out))
        assert code == 0
        payload = json.loads(stdout)
        assert set(payload["files"]) == {str(out / "barycenter.json"), str(out / "result.json")}
        bar = load_measure(out / "barycenter.json")
        assert bar.weights.sum() == pytest.approx(1.0)
        saved = json.loads((out / "result.json").read_text())
        assert saved["value"] == payload["value"]

    def test_missing_file(self, capsys):
        code, _, stderr = run_cli(capsys, "solve", "no_such_file.json")
        assert code == 1
        assert "error:" in stderr

    def test_grid_cap(self, instance, capsys):
        code, _, stderr = run_cli(capsys, "solve", *instance, "--max-grid", "3")
        assert code == 1
        assert "error:" in stderr


class TestFlow:
    def test_dirac_pair_frames(self, tmp_path, capsys):
        # two Dirac measures: one particle per family, midpoint start
        mu, nu = tmp_path / "mu.json", tmp_path / "nu.json"
        save_measure(DiscreteMeasure([[0.0]], [1.0]), mu)
        save_measure(DiscreteMeasure([[1.0]], [1.0]), nu)
        out = tmp_path / "frames"
        code, stdout, _ = run_cli(
            capsys, "flow", str(mu), str(nu), "--frames", "3", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["times"] == [0.0, 0.5, 1.0]
        assert payload["flow_action"] == pytest.approx(0.5)
        assert payload["coupling_flow_action"] == pytest.approx(0.5)
        lines = (out / "flow_frames.csv").read_text().splitlines()
        # header + 3 times x 2 families x 1 particle
        assert len(lines) == 7
        mid = [l for l in lines if l.startswith("0.5,")]
        # both particles pass through x = 0.25 and 0.75 at half time
        xs = sorted(float(l.split(",")[4]) for l in mid)
        assert xs == pytest.approx([0.25, 0.75])

    def test_identical_diracs_static_flow(self, tmp_path, capsys):
        mu = tmp_path / "mu.json"
        save_measure(DiscreteMeasure([[2.0]], [1.0]), mu)
        out = tmp_path / "frames"
        code, stdout, _ = run_cli(
            capsys, "flow", str(mu), str(mu), "--frames", "2", "--out", str(out)
        )
        assert code == 0
        assert json.loads(stdout)["flow_action"] == pytest.approx(0.0, abs=1e-15)
        rows = (out / "flow_frames.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[4]) == 2.0 for r in rows)

    def test_coupling_frames_exist(self, instance, tmp_path, capsys):
        out = tmp_path / "frames"
        code, stdout, _ = run_cli(capsys, "flow", *instance, "--out", str(out))
        assert code == 0
        files = json.loads(stdout)["files"]
        assert str(out / "coupling_frames.csv") in files
        header = (out / "coupling_frames.csv").read_text().splitlines()[0]
        assert header == "t,flow,particle,mass,x_1,x_2,v_1,v_2"

    def test_frames_floor(self, instance, capsys):
        code, _, stderr = run_cli(capsys, "flow", *instance, "--frames", "1")
        assert code == 1
        assert "error:" in stderr


class TestVerify:
    def test_passing_instance_exits_zero(self, instance, capsys):
        code, stdout, stderr = run_cli(capsys, "verify", *instance)
        assert code == 0
        assert stderr == ""
        payload = json.loads(stdout)
        assert payload["passed"] is True
        assert set(payload["values"]) == {
            "mmot", "barycenter_functional", "flow_action", "coupling_flow_action",
        }

    def test_report_written_to_out(self, instance, tmp_path, capsys):
        out = tmp_path / "rep"
        code, stdout, _ = run_cli(capsys, "verify", *instance, "--out", str(out))
        assert code == 0
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == json.loads(stdout)

    def test_impossible_tolerance_exits_one(self, tmp_path, capsys):
        # this seeded instance has a one-ulp spread between the four
        # values, so a zero tolerance fails the chain check for real
        run_cli(capsys, "generate", "--seed", "60", "--atoms", "3", "--out", str(tmp_path))
        files = [str(tmp_path / f"marginal_{i}.json") for i in (1, 2, 3)]
        code, stdout, stderr = run_cli(
            capsys, "verify", *files, "--p", "1.5", "--tol", "0"
        )
        assert code == 1
        assert json.loads(stdout)["passed"] is False
        assert "verification failed: value_chain" in stderr


class TestParser:
    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestImport:
    def test_no_scipy_on_import(self):
        # numpy is the only runtime dependency; scipy serves the test oracles
        src = str(Path(baryflow.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import baryflow, baryflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"
