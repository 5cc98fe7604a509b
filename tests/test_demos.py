"""Every demo, the Python ones and the CLI walkthrough, runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


def test_cli_walkthrough_runs(tmp_path):
    # `uws` on PATH runs this source tree; the script's scratch directory lands in tmp_path
    shim = tmp_path / "bin" / "uws"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m uws.cli "$@"\n')
    shim.chmod(0o755)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path),
           "PATH": f"{shim.parent}{os.pathsep}{os.environ.get('PATH', '')}"}
    done = subprocess.run(["bash", str(ROOT / "demos" / "cli_walkthrough.sh")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bin"]  # the scratch directory is gone
