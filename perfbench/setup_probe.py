"""Set-up probe: import uws and build one workload's scenario, then exit.

Prints three numbers when the inputs are ready: ``time.thread_time()`` (CPU
seconds of the main thread since the process started), ``time.monotonic()``
(run.py subtracts the moment it spawned the process from it, for the wall
time), and the main thread's CPU seconds at the moment numpy was imported,
before anything of uws: the yardstick run.py scales the set-up time by.
    python3 perfbench/setup_probe.py <workload> <seed>    (cwd: an empty working directory)
"""

import time

import numpy  # noqa: F401  (imported first, for the yardstick)

NUMPY_CPU_S = time.thread_time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports uws)

if __name__ == "__main__":
    workloads.default_workloads()[sys.argv[1]].setup(int(sys.argv[2]))
    print(time.thread_time(), time.monotonic(), NUMPY_CPU_S)
