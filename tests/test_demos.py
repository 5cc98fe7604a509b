"""Every demo, the Python ones and the CLI walkthrough, runs to completion against the source tree,
with a RuntimeWarning (a silent inf or NaN) an error in every Python process it starts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# as in the suite's own process, a RuntimeWarning fails every Python process a demo starts
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error::RuntimeWarning"}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=ENV, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


def test_cli_walkthrough_runs(tmp_path):
    # `uws` on PATH runs this source tree; the script's scratch directory lands in tmp_path
    shim = tmp_path / "bin" / "uws"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m uws.cli "$@"\n')
    shim.chmod(0o755)
    env = {**ENV, "TMPDIR": str(tmp_path), "PATH": f"{shim.parent}{os.pathsep}{os.environ.get('PATH', '')}"}
    done = subprocess.run(["bash", str(ROOT / "demos" / "cli_walkthrough.sh")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bin"]  # the scratch directory is gone
