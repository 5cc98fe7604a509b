"""Benchmark of the uws pipeline: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload {rank_ls,rank_wide,cli_files} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``. The
run repeats the workload's pipeline (generate -> learn -> infer) on the
scenario derived from ``--seed`` for about ``--seconds`` seconds, checks the
outputs against independent oracles, and prints two lines: a report (machine,
quality, failed ops with reasons, digests) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, from untraced iterations only; with
``--trace 1`` iterations alternate untraced and traced and the metrics are
the per-layer ones (see tracer.py). Metric names and units are listed in
BENCHMARK.json at the repository root.
"""

import argparse
import os
import sys

# Thread caps must be in the environment before numpy loads; UWS_THREADS would
# change the CLI's default thread count.
NPROC = len(os.sched_getaffinity(0))
os.environ.pop("UWS_THREADS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"
MIN_ITERATIONS = 2  # a determinism check needs a repeat; a traced run needs one of each kind
SETUP_SAMPLES = 15
# Stage times are reported at a fixed reference speed: the speed at which
# workloads.calibration_sample() takes CAL_REF_S seconds.
CAL_REF_S = 0.0025
# Set-up times are reported at the speed at which a fresh python3 starts and
# imports numpy in NUMPY_REF_S seconds of CPU time.
NUMPY_REF_S = 0.15
STAGES = ("generate", "learn", "infer")


def import_program():
    """Import ``uws`` from this checkout's ``src/``, or exit 2 without a result."""
    if not (SRC / "uws" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'uws'}; run from the root of a uws checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import uws

    if Path(uws.__file__).resolve().parent != SRC / "uws":
        print(f"error: imported uws from {uws.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def machine_info():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": NPROC,
    }


def setup_sample(workload, seed):
    """(cpu, wall, numpy_cpu) seconds of a fresh process that imports uws and builds the scenario.

    ``cpu`` is the probe's main-thread CPU time when its inputs are ready;
    ``wall`` is the time from spawning it until then, on the system-wide
    monotonic clock, so it needs no wait on the child's exit; ``numpy_cpu``
    is its CPU time when it had started and imported numpy, before uws.
    """
    probe_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              cwd=probe_dir, check=True, timeout=60, capture_output=True, text=True)
        cpu, ready, numpy_cpu = map(float, proc.stdout.split()[-3:])
        return cpu, ready - t0, numpy_cpu
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def run(args, workload, setup_samples=SETUP_SAMPLES):
    """Run one workload; return (report, result) dictionaries.

    Each op's time is divided by the calibrations taken around it and while
    it ran, scaled to the reference speed, and the median over repetitions
    is reported: on a shared box co-tenants slow whole stretches of seconds
    by 1.4x-1.6x, which moves raw medians and minima between runs but cancels
    in the ratio. The raw medians are kept in the report. Set-up samples are
    spread evenly over the run; each one's CPU time is scaled by the time its
    probe took to start and import numpy, and the median is reported.
    Oracles run after the timed loop (and after peak RSS is read) on the last
    iteration's outputs, which every iteration must reproduce byte for byte.
    """
    from tracer import Tracer
    from workloads import KNOWN_DEFECTS, Failure

    WORK_ROOT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info()}
    tracer = Tracer() if args.trace else None
    samples = 0 if args.trace else setup_samples
    setup_times = []  # (cpu, wall, numpy_cpu) per sample
    iterations = []  # per iteration: traced flag, wall, seconds per op, ops whose digest moved
    layer_stats = []
    first = last = None  # ops of the first and of the latest iteration
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        state = workload.setup(args.seed)
        t_start = perf_counter()
        while True:
            traced = bool(args.trace) and len(iterations) % 2 == 1
            workload.clean()
            if traced:
                tracer.install()
                mark = tracer.mark()
            t0 = perf_counter()
            try:
                last = workload.iteration(state, repeat=not traced)
            finally:
                wall = perf_counter() - t0
                if traced:
                    tracer.uninstall()
            if traced:
                layer_stats.append(tracer.summarize(mark))
            if first is None:
                first = last
            iterations.append({
                "traced": traced,
                "wall": wall,
                "op_s": {name: op.seconds for name, op in last.items()},
                "cal_s": {name: op.cal_s for name, op in last.items()},
                "moved": [name for name, op in last.items()
                          if op.digest != first[name].digest or op.digest.startswith("unstable")],
            })
            while len(setup_times) < samples * min(1.0, (perf_counter() - t_start) / args.seconds):
                setup_times.append(setup_sample(args.workload, args.seed))
            elapsed = perf_counter() - t_start
            typical = statistics.median(it["wall"] for it in iterations)
            if len(iterations) >= MIN_ITERATIONS and elapsed + typical > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_times) < samples:
            setup_times.append(setup_sample(args.workload, args.seed))
        for i, key in enumerate(("setup_cpu_s", "setup_wall_s", "setup_numpy_cpu_s")):
            report[key] = [sample[i] for sample in setup_times]
        failures = workload.check(state, last)
        quality = workload.quality(state, last)
        if tracer is not None:
            OUT_ROOT.mkdir(exist_ok=True)
            spans = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write_spans(spans, t_start)
            report["spans_file"] = str(spans.relative_to(ROOT))
            report["absent"] = tracer.absent
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    broken = {f.op for f in failures if f.defect is None}
    calls = [{name: max(1, len(s)) for name, s in it["op_s"].items()} for it in iterations]
    attempted = sum(sum(c.values()) for c in calls)
    unexpected = sum(c[name] for c, it in zip(calls, iterations) for name in broken | set(it["moved"]))
    nondeterministic = [Failure(name, f"iteration {k}: output digest differs from iteration 0 (same seed)")
                        for k, it in enumerate(iterations) for name in it["moved"]]
    report["iterations"] = len(iterations)
    report["samples"] = iterations
    report["quality"] = {name: {"value": v, "unit": u} for name, (v, u) in quality.items()}
    report["failed_ops"] = {
        "failed": len(failures),
        "attempted": len(last),
        "share": len(failures) / len(last),
        "ops": [f.as_dict() for f in failures + nondeterministic],
    }
    report["known_defects"] = {f.defect: KNOWN_DEFECTS[f.defect] for f in failures if f.defect}
    report["digests"] = {name: op.digest for name, op in first.items()}

    def by_stage(traced, sample):
        """Per stage, the sum over its ops of the median of sample(seconds, calibration) over calls."""
        its = [it for it in iterations if it["traced"] == traced]
        per_op = {}
        for name in last:
            values = [sample(s, c) for it in its for s, c in zip(it["op_s"][name], it["cal_s"][name])]
            per_op[name] = statistics.median(values) if values else 0.0
        return {s: sum(per_op[name] for name, op in last.items() if op.stage == s) for s in STAGES + ("probe",)}

    def calibrated(s, c):
        return CAL_REF_S * s / c

    stage_s = by_stage(False, calibrated)
    report["raw_stage_s"] = by_stage(False, lambda s, c: s)
    report["calibration_s"] = statistics.median(
        c for it in iterations if not it["traced"] for cs in it["cal_s"].values() for c in cs)
    report["probe_s"] = stage_s["probe"]
    if args.trace:
        plain = sum(stage_s.values())
        overhead = sum(by_stage(True, calibrated).values()) - plain
        walls = [it["wall"] for it in iterations if it["traced"]]
        metrics = _layer_metrics(layer_stats[walls.index(min(walls))], overhead, plain)
    else:
        setup_s = statistics.median(NUMPY_REF_S * cpu / numpy_cpu for cpu, _, numpy_cpu in setup_times)
        metrics = _end_to_end(stage_s, workload.tasks(), setup_s, peak_rss_mb)
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": unexpected, "metrics": metrics}
    return report, result


def _end_to_end(stage_s, tasks, setup_s, peak_rss_mb):
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update({f"{s}_s": (stage_s[s], "s") for s in STAGES})
    metrics["tasks_per_s"] = (tasks / sum(stage_s[s] for s in STAGES), "1/s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _layer_metrics(stats, overhead_s, untraced_s):
    """One traced iteration's layer numbers, plus the calibrated cost of tracing."""
    from tracer import metric_specs

    values = dict(stats)
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_share"] = overhead_s / untraced_s
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in metric_specs()}


def main(argv=None, workloads=None, setup_samples=SETUP_SAMPLES):
    import_program()
    from workloads import default_workloads

    workloads = workloads or default_workloads()
    args = parse_args(argv, workloads)
    report, result = run(args, workloads[args.workload], setup_samples)
    for f in report["failed_ops"]["ops"]:
        tag = f"known defect {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        print(f"failed op {args.workload}/{f['op']} ({tag}): {f['reason']}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return report, result


if __name__ == "__main__":
    main()
