"""Quick self-test of the benchmark: every workload at tiny size, in seconds.

    python3 perfbench/selftest.py        (from the root of a checkout)

Checks that each workload runs and passes its oracles with and without
tracing; that the printed metric names and units match BENCHMARK.json; that
tracing puts every original function back; that a planted wrong pseudolabel
and a planted failure of the median learn are counted as unexpected failed
ops; that two runs with one seed give the same output
digests; and that a directory without the program gives no result.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile

import run

run.import_program()

import uws  # noqa: E402
import uws.synthetic  # noqa: E402
import workloads  # noqa: E402
from uws.errors import DegenerateMomentError  # noqa: E402

# odd task counts: no +-1 pair moment can be exactly 0, so learning never hits
# the degenerate-moment defect at these tiny sizes
TINY = {
    "rank_ls": workloads.Ranking("rank_ls", n=25, rho=9,
                                 thetas=lambda s: uws.synthetic.heterogeneous_thetas(s, n_low=3, n_high=3)),
    "rank_wide": workloads.Ranking("rank_wide", n=25, rho=5, thetas=lambda s: uws.synthetic.movies_style_thetas(9, s),
                                   hypercube=True, brute_force_tasks=2),
    "cli_files": workloads.CliFiles(graph_n=21, regression_n=41, n_nodes=30, n_edges=60),
}


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def run_tiny(name, trace, seed=3):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        report, result = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.1",
                                   "--trace", str(trace)], workloads=TINY, setup_samples=1)
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    expect(last == json.loads(json.dumps(result)), f"{name}: last stdout line is not the result")
    expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {sorted(last)}")
    return report, last


def bindings():
    """Every function object bound in a uws module, plus the wrapped method."""
    out = {(mod, key): val for mod, m in sys.modules.items() if mod == "uws" or mod.startswith("uws.")
           for key, val in vars(m).items() if callable(val)}
    out[("FiniteMetricSpace", "__post_init__")] = uws.FiniteMetricSpace.__post_init__
    return out


def check_metrics(name, result, specs):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {s["name"]: s["unit"] for s in specs}
    expect(got == want, f"{name}: metric names/units differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ set(want)) or 'units'}")
    for key, val in result["metrics"].items():
        expect(isinstance(val["value"], (int, float)) and math.isfinite(val["value"]), f"{name}: {key} not finite")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(TINY), "workloads differ from BENCHMARK.json")
    before = bindings()
    for name in TINY:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            report, result = run_tiny(name, trace)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: {report['failed_ops']}")
            check_metrics(name, result, spec[section])
            if trace:
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                local, exact = (metrics[f"inference.kemeny_{s}.calls"] for s in ("local_search", "exact"))
                expect((local > 0) == (name == "rank_ls") and (exact > 0) == (name == "rank_wide"),
                       f"{name}: solver calls local={local} exact={exact}")
                expect(not report["absent"], f"{name}: absent functions {report['absent']}")
        print(f"ok {name}: correct, metric names and units match BENCHMARK.json")
    after = bindings()
    moved = [key for key in before if after.get(key) is not before[key]]
    expect(not moved, f"tracing left wrappers in place: {moved}")
    print("ok tracing restored every original binding")

    aggregate, learn = uws.aggregate_dataset, uws.learn_label_model

    def wrong_pseudolabel(data, *args, **kwargs):
        out = aggregate(data, *args, **kwargs)
        if kwargs.get("rule") == "mv":
            out[0] = out[0][::-1].copy()  # a permutation, but not the Kemeny optimum
        return out

    def degenerate_median(data, *args, **kwargs):
        if kwargs.get("triplet_policy") == "median":
            raise DegenerateMomentError("planted")
        return learn(data, *args, **kwargs)

    for attr, planted, ops, what in (
        ("aggregate_dataset", wrong_pseudolabel, {"infer_mv"}, "a wrong pseudolabel"),
        ("learn_label_model", degenerate_median, {"learn", "infer_weighted"},
         "a degenerate-moment error of the median learn (and the infer it skips)"),
    ):
        original = getattr(uws, attr)
        setattr(uws, attr, planted)
        try:
            report, result = run_tiny("rank_ls", 0)
        finally:
            setattr(uws, attr, original)
        flagged = {f["op"] for f in report["failed_ops"]["ops"] if not f["known_defect"]}
        expect(not result["correct"] and result["failed"] >= len(ops) and ops <= flagged,
               f"planted {what} not caught: {report['failed_ops']}")
        print(f"ok {what} counts as an unexpected failed op")

    for name in ("rank_ls", "cli_files"):
        first, second = (run_tiny(name, 0, seed=5)[0]["digests"] for _ in range(2))
        expect(first == second, f"{name}: digests differ between two runs with one seed")
    print("ok two runs with one seed give identical digests")

    bare = tempfile.mkdtemp(dir=run.WORK_ROOT)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rank_ls", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "a directory without src/ produced a result")
    print("ok without the program: exit", proc.returncode, "and no result")


if __name__ == "__main__":
    main()
