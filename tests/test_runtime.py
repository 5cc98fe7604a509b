"""The package runs on numpy alone: scipy, hypothesis and networkx serve the tests only."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a None entry in sys.modules makes every import of that name raise ImportError
PROBE = """
import sys
for name in ("scipy", "hypothesis", "networkx"):
    sys.modules[name] = None
import uws, uws.cli, uws.io, uws.synthetic
"""


def test_imports_without_test_dependencies():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
