"""Every script in ``demos/`` runs to completion and leaves its working
directory as it found it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import baryflow

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # the package goes on the path the way this process found it, and the
    # demo's temporary files go to their own directory beside the cwd
    cwd, tmp = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    tmp.mkdir()
    src = str(Path(baryflow.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "TMPDIR": str(tmp),
    }
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert list(cwd.iterdir()) == []
