"""The benchmark's workloads: scenario set-up, one pipeline iteration, oracle checks.

Every call into the program goes through a public entry point looked up at
call time (``uws.synthetic.gen_*_tasks``, ``uws.learn_label_model``,
``uws.aggregate_dataset``, ``uws.cli.main``), so tracing wrappers see it.
No call passes ``threads=`` / ``--threads`` or builds an ``AggregationProblem``.

An operation is one generate, learn or infer call. It fails if it raises,
exits nonzero, or fails its oracle check. Failures that match one of the
recorded defects of the program (``KNOWN_DEFECTS``) are reported as such and
kept apart from unexpected failures.
"""

import contextlib
import hashlib
import io as _io
import json
import shutil
import signal
import statistics
import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import uws
import uws.cli
import uws.synthetic

KNOWN_DEFECTS = {
    "degenerate_pair_moment": (
        "learn on rankings with the CLI default --triplets first raises DegenerateMomentError "
        "when a +-1 pair moment of a labeler's first triplet is exactly 0 (seed-dependent), "
        "although other triplets of that labeler are admissible"
    ),
    "mv_reals_times_m": (
        "aggregate_dataset(rule='mv') on (n, m, 1) real labels returns m x the mean: "
        "the weights broadcast against an (m, 1) array in _aggregate_reals"
    ),
    "isotropic_weighted_nan": (
        "real-valued isotropic route without a SecondMomentPrior stores NaN accuracies; "
        "infer --rule weighted writes NaN pseudolabels and exits 0"
    ),
}


def scenario_seed(workload, seed):
    """The scenario seed of a workload, derived from the benchmark's --seed."""
    entropy = [zlib.crc32(workload.encode()), int(seed) & 0xFFFFFFFFFFFFFFFF]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


_CAL_PERMS = [np.random.default_rng(i).permutation(10) for i in range(16)]


def calibration_sample():
    """Seconds taken by a fixed piece of reference work (~3 ms).

    Three parts of about equal time, the mix the pipeline itself runs: a
    pure-Python arithmetic loop plus sorts of a small array, dict and tuple
    work, and small numpy calls glued by Python. Timed right before and right
    after every op and every ``TICK_S`` while it runs, it tracks how fast the
    machine is, so op times can be scaled to a reference speed.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(7000):
        acc += i * i
    a = np.arange(64.0)
    for _ in range(70):
        a = np.sort(a[::-1]) + 1.0
    d = {(i * 7919) % 2003: (i, str(i)) for i in range(1200)}
    kept = [k for k, v in sorted(d.items(), key=lambda kv: kv[1][0] % 97) if k & 1]
    for p in _CAL_PERMS * 8:
        q = np.argsort(p)
        acc += int((q[:, None] < q[None, :]).sum()) + len(kept)
    return perf_counter() - t0


def calibration():
    """Median of three calibration samples: one sample alone varies by 10-25%."""
    return statistics.median(calibration_sample() for _ in range(3))


# Short ops are called again within an iteration, until they have run this
# long or this many times, so each gets enough samples for a steady median.
REPEAT_UNTIL_S = 1.0
MAX_CALLS = 5
TICK_S = 0.2  # interval of the calibration samples taken while an op runs


class Op:
    """Outcome of one op: per-call seconds and calibration, value or error text, digest.

    ``cal_s[i]`` is the mean of the calibrations taken just before and just
    after call ``i`` and of the samples taken while it ran (see ``_Ticks``).
    """

    __slots__ = ("name", "stage", "seconds", "cal_s", "value", "error", "digest")

    def __init__(self, name, stage):
        self.name, self.stage = name, stage
        self.seconds, self.cal_s = [], []
        self.value = self.error = self.digest = None


def _feed(h, obj):
    if isinstance(obj, tuple):
        for part in obj:
            _feed(h, part)
    elif isinstance(obj, list):
        _feed(h, np.asarray(obj))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, bytes):
        h.update(obj)
    elif hasattr(obj, "thetas"):  # a LabelModel
        for key in ("thetas", "expected_distances", "accuracies", "pairwise_moments"):
            _feed(h, np.asarray(getattr(obj, key), dtype=np.float64))
    elif hasattr(obj, "labels"):  # a LabelingMatrix
        _feed(h, np.asarray(obj.labels))
    else:
        h.update(repr(obj).encode())


def _file_bytes(paths):
    """Contents of the given files and directory trees, in path order."""
    parts = []
    for path in map(Path, paths):
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            parts += [str(f).encode(), f.read_bytes() if f.exists() else b"<missing>"]
    return tuple(parts)


def _digest(op, digest_of):
    h = hashlib.sha256()
    _feed(h, op.error if op.error is not None else (digest_of() if digest_of else op.value))
    return h.hexdigest()[:16]


class _Ticks:
    """Calibration samples taken every ``TICK_S`` seconds while an op runs.

    A ``SIGALRM`` handler takes them on the main thread between bytecodes,
    so they follow changes of the machine's speed within a long call; the
    time they take is kept in ``spent`` and left out of the op's time.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(calibration_sample())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


def run_op(ops, name, stage, fn, needs=(), digest_of=None, repeat=False):
    """Time ``fn()``, record it in ``ops`` and return its value (None on failure).

    With ``repeat`` a short op is called again, up to ``MAX_CALLS`` calls or
    ``REPEAT_UNTIL_S`` seconds. Every repeated call must reproduce the first
    call's digest; if one does not, the op's digest is marked so that it
    cannot match any iteration's.
    """
    op = ops[name] = Op(name, stage)
    upstream = [d for d in needs if ops[d].error is not None]
    if upstream:
        op.error = f"skipped: {upstream[0]} failed"
        op.digest = _digest(op, digest_of)
        return None
    while True:
        cal_before = calibration()
        t0 = perf_counter()
        with _Ticks() as ticks:
            try:
                op.value, op.error = fn(), None
            except Exception as exc:  # an op's failure is a result, not a benchmark crash
                op.value, op.error = None, f"{type(exc).__name__}: {exc}"
        op.seconds.append(perf_counter() - t0 - ticks.spent)
        op.cal_s.append(statistics.fmean([cal_before, calibration(), *ticks.samples]))
        digest = _digest(op, digest_of)
        if op.digest is None:
            op.digest = digest
        elif digest != op.digest:
            op.digest = f"unstable within one iteration: {op.digest} then {digest}"
        if (not repeat or op.error is not None or len(op.seconds) >= MAX_CALLS
                or sum(op.seconds) >= REPEAT_UNTIL_S):
            return op.value


class Failure:
    """One failed op: its name, why, and the known defect it matches (or None)."""

    __slots__ = ("op", "reason", "defect")

    def __init__(self, op, reason, defect=None):
        self.op, self.reason, self.defect = op, reason, defect

    def as_dict(self):
        return {"op": self.op, "reason": self.reason, "known_defect": self.defect}


class Ranking:
    """Synthetic rankings: generate, learn (median policy), mv and weighted Kemeny."""

    def __init__(self, name, n, rho, thetas, hypercube=False, brute_force_tasks=0):
        self.name, self.n, self.rho = name, n, rho
        self.thetas = thetas  # scenario seed -> labeler concentrations
        self.hypercube = hypercube
        self.brute_force_tasks = brute_force_tasks

    def tasks(self):
        return self.n

    def setup(self, seed):
        sseed = scenario_seed(self.name, seed)
        scenario = uws.synthetic.RankingScenario(n=self.n, rho=self.rho, thetas=self.thetas(sseed), seed=sseed)
        return {"seed": seed, "sseed": sseed, "scenario": scenario}

    def clean(self):
        pass

    def iteration(self, st, repeat):
        ops = {}
        gen = run_op(ops, "generate", "generate", lambda: uws.synthetic.gen_ranking_tasks(st["scenario"]),
                     repeat=repeat)
        data = gen[1] if gen else None
        model = run_op(ops, "learn", "learn", lambda: uws.learn_label_model(data, triplet_policy="median"),
                       needs=["generate"], repeat=repeat)
        if self.hypercube:
            run_op(ops, "learn_hypercube", "learn",
                   lambda: uws.learn_label_model(data, path="hypercube", triplet_policy="median"),
                   needs=["generate"], repeat=repeat)
        run_op(ops, "infer_mv", "infer", lambda: uws.aggregate_dataset(data, rule="mv", seed=st["sseed"]),
               needs=["generate"], repeat=repeat)
        run_op(ops, "infer_weighted", "infer",
               lambda: uws.aggregate_dataset(data, rule="weighted", model=model, seed=st["sseed"]),
               needs=["generate", "learn"], repeat=repeat)
        # the CLI's default triplet policy, timed apart from learn_s: it is a known defect
        run_op(ops, "learn_first", "probe", lambda: uws.learn_label_model(data), needs=["generate"],
               repeat=repeat)
        return ops

    def _rules(self, ops):
        m = ops["generate"].value[1].n_lfs
        yield "mv", ops["infer_mv"], np.ones(m)
        if ops["learn"].error is None:
            yield "weighted", ops["infer_weighted"], np.clip(np.asarray(ops["learn"].value.thetas, float), 0, None)

    def check(self, st, ops):
        # only the `first` learn may fail with the known defect: a failed median or
        # hypercube learn, and the infer it skips, are unexpected
        failures = [Failure(name, op.error, "degenerate_pair_moment" if name == "learn_first"
                            and op.error.startswith("DegenerateMomentError") else None)
                    for name, op in ops.items() if op.error is not None]
        if ops["generate"].error is not None:
            return failures
        _, data = ops["generate"].value
        labels = np.asarray(data.labels)
        rng = np.random.default_rng(st["sseed"])
        sample = rng.choice(self.n, size=min(self.brute_force_tasks, self.n), replace=False)
        for rule, op, weights in self._rules(ops):
            if op.error is not None:
                continue
            out = np.asarray(op.value)
            bad = oracles.bad_permutation_rows(out, self.rho)
            if bad:
                failures.append(Failure(op.name, f"task {bad[0]}: output is not a permutation"))
                continue
            objective = oracles.kemeny_objective(labels, weights, out)
            bound = oracles.best_input_objective(labels, weights)
            worse = np.flatnonzero(objective > bound + oracles.REL_TOL * np.maximum(1.0, bound))
            if worse.size:
                failures.append(Failure(op.name, f"task {worse[0]}: objective {float(objective[worse[0]])!r} "
                                                 f"above the best input label's {float(bound[worse[0]])!r}"))
                continue
            for t in sample.tolist():
                expect = oracles.brute_force_kemeny(labels[t], weights, self.rho)
                if not np.array_equal(expect, out[t]):
                    failures.append(Failure(op.name, f"task {t}: {out[t].tolist()} is not the brute-force "
                                                     f"optimum {expect.tolist()}"))
                    break
        return failures

    def quality(self, st, ops):
        out = {}
        if ops["generate"].error is not None:
            return out
        truth = ops["generate"].value[0]
        for rule, op, _ in self._rules(ops):
            if op.error is None:
                out[f"kendall_{rule}"] = (float(oracles.kendall(np.asarray(op.value), truth).mean()), "pairs")
        return out


REG_ACCURACIES = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2]
REG_NOISE = [0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2]


class CliFiles:
    """In-process ``uws.cli.main`` on files: a graph leg and a regression leg.

    Runs inside its working directory and passes relative paths, so the
    manifests, and with them the output digests, do not depend on where the
    checkout lives.
    """

    name = "cli_files"

    def __init__(self, graph_n, regression_n, n_nodes=200, n_edges=1000):
        self.graph_n, self.regression_n = graph_n, regression_n
        self.n_nodes, self.n_edges = n_nodes, n_edges

    def tasks(self):
        return self.graph_n + self.regression_n

    def setup(self, seed):
        sseed = scenario_seed(self.name, seed)
        graph = {"kind": "graph", "n_nodes": self.n_nodes, "n_edges": self.n_edges, "n": self.graph_n,
                 "preset": "heterogeneous", "seed": sseed}
        regression = {"kind": "regression", "n": self.regression_n, "accuracies": REG_ACCURACIES,
                      "lf_noise": REG_NOISE, "prior_var": 1.0, "seed": sseed}
        Path("graph.json").write_text(json.dumps(graph))
        Path("regression.json").write_text(json.dumps(regression))
        return {"seed": seed, "sseed": sseed}

    def clean(self):
        for leg in ("graph", "regression"):
            shutil.rmtree(leg, ignore_errors=True)

    def iteration(self, st, repeat):
        # ``repeat`` is not used: an iteration takes ~1 s, so a run holds 20 or
        # more and single calls spread over them sample better (NOTES.md)
        ops = {}

        def cli(name, stage, argv, outputs, needs=()):
            def call():
                with contextlib.redirect_stdout(_io.StringIO()):
                    code = uws.cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"uws {argv[0]} exited {code}")
                return code

            run_op(ops, name, stage, call, needs=needs, digest_of=lambda: _file_bytes(outputs))

        cli("graph.generate", "generate", ["generate", "--scenario", "graph.json", "--out", "graph/data"],
            ["graph/data"])
        cli("graph.learn", "learn", ["learn", "--dataset", "graph/data", "--model", "graph/model.json"],
            ["graph/model.json"], needs=["graph.generate"])
        for rule in ("mv", "weighted"):
            cli(f"graph.infer_{rule}", "infer",
                ["infer", "--dataset", "graph/data", "--model", "graph/model.json", "--out", f"graph/{rule}",
                 "--rule", rule, "--truth", "graph/data/truth.csv"],
                [f"graph/{rule}"], needs=["graph.generate", "graph.learn"])
        cli("regression.generate", "generate",
            ["generate", "--scenario", "regression.json", "--out", "regression/data"], ["regression/data"])
        for route, extra in (("", []), ("_isotropic", ["--path", "isotropic"])):
            cli(f"regression.learn{route}", "learn",
                ["learn", "--dataset", "regression/data", "--model", f"regression/model{route}.json", *extra],
                [f"regression/model{route}.json"], needs=["regression.generate"])
        cli("regression.infer_mv", "infer",
            ["infer", "--dataset", "regression/data", "--out", "regression/mv", "--rule", "mv"],
            ["regression/mv"], needs=["regression.generate"])
        for route in ("", "_isotropic"):
            cli(f"regression.infer_weighted{route}", "infer",
                ["infer", "--dataset", "regression/data", "--model", f"regression/model{route}.json",
                 "--out", f"regression/weighted{route}", "--rule", "weighted"],
                [f"regression/weighted{route}"], needs=["regression.generate", f"regression.learn{route}"])
        return ops

    def check(self, st, ops):
        failures = [Failure(name, op.error) for name, op in ops.items() if op.error is not None]
        failed = {f.op for f in failures}
        if not failed & {"graph.generate", "graph.learn"}:
            labels = oracles.read_long_labels("graph/data/dataset.csv", int)
            dist = oracles.read_matrix("graph/data/space.csv")
            thetas = np.clip(oracles.read_thetas("graph/model.json"), 0, None)
            for rule, weights in (("mv", np.ones(labels.shape[1])), ("weighted", thetas)):
                name = f"graph.infer_{rule}"
                if name in failed:
                    continue
                pred = oracles.read_column(f"graph/{rule}/pseudolabels.csv", int)
                bad = oracles.graph_argmin_mismatches(pred, labels, weights, dist, exact_ties=rule == "mv")
                if bad:
                    failures.append(Failure(name, f"task {bad[0]}: node {pred[bad[0]]} is not the argmin of "
                                                  f"the weighted hop sum"))
        if "regression.generate" not in failed:
            labels = oracles.read_long_labels("regression/data/dataset.csv", float)
            mean = labels.mean(axis=1)
            name = "regression.infer_mv"
            if name not in failed:
                pred = oracles.read_column("regression/mv/pseudolabels.csv", float)
                if not np.isfinite(pred).all():
                    failures.append(Failure(name, "non-finite pseudolabel"))
                elif not oracles.close(pred, mean).all():
                    t = int(np.flatnonzero(~oracles.close(pred, mean))[0])
                    m = labels.shape[1]
                    defect = "mv_reals_times_m" if oracles.close(pred, m * mean).all() else None
                    failures.append(Failure(name, f"task {t}: {float(pred[t])!r} is not the plain mean {float(mean[t])!r}",
                                            defect))
            for route in ("", "_isotropic"):
                name = f"regression.infer_weighted{route}"
                if name in failed:
                    continue
                pred = oracles.read_column(f"regression/weighted{route}/pseudolabels.csv", float)
                if not np.isfinite(pred).all():
                    t = int(np.flatnonzero(~np.isfinite(pred))[0])
                    defect = "isotropic_weighted_nan" if route else None
                    failures.append(Failure(name, f"task {t}: non-finite pseudolabel {float(pred[t])!r} "
                                                  f"(exit code 0)", defect))
        return failures

    def quality(self, st, ops):
        out = {}
        if ops["graph.generate"].error is None:
            truth = oracles.read_column("graph/data/truth.csv", int)
            dist = oracles.read_matrix("graph/data/space.csv")
            for rule in ("mv", "weighted"):
                if ops[f"graph.infer_{rule}"].error is None:
                    pred = oracles.read_column(f"graph/{rule}/pseudolabels.csv", int)
                    out[f"hops_{rule}"] = (float(dist[pred, truth].mean()), "hops")
        if ops["regression.generate"].error is None:
            truth = oracles.read_column("regression/data/truth.csv", float)
            for rule, path in (("mv", "mv"), ("weighted", "weighted")):
                if ops[f"regression.infer_{rule}"].error is None:
                    pred = oracles.read_column(f"regression/{path}/pseudolabels.csv", float)
                    out[f"mse_{rule}"] = (float(np.mean((pred - truth) ** 2)), "sq_units")
        return out


def default_workloads():
    """The benchmark's workloads at their measured sizes (see perfbench/NOTES.md for why)."""
    return {
        "rank_ls": Ranking("rank_ls", n=250, rho=10, thetas=uws.synthetic.heterogeneous_thetas),
        "rank_wide": Ranking("rank_wide", n=320, rho=7, thetas=lambda s: uws.synthetic.movies_style_thetas(30, s),
                             hypercube=True, brute_force_tasks=3),
        "cli_files": CliFiles(graph_n=400, regression_n=2000),
    }
