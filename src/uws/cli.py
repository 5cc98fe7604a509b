"""Batch front-end: generate synthetic datasets, learn models, infer, sweep.

Exit codes: 0 success, 1 usage error, 2 validation error (bad files, bad
configuration, mismatched spaces), 3 runtime error (estimator failures).
Every command is deterministic given its seed; outputs carry a manifest
(seed, config hash, version) sufficient to regenerate them bit-exactly.
"""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__, inference, io, synthetic
from .errors import (
    ConfigurationError,
    InvalidArgumentError,
    InvalidMetricError,
    UwsError,
)
from .label_model import (
    FINITE_METRIC,
    RANKING,
    REAL_VECTOR,
    SecondMomentPrior,
    TwoPointPrior,
    learn_label_model,
)
from .metric_spaces import classical_mds, graph_hop_metric
from .permutations import kendall_tau_many

USAGE_EXIT = 1
VALIDATION_EXIT = 2
RUNTIME_EXIT = 3

_VALIDATION_ERRORS = (
    InvalidArgumentError,
    ConfigurationError,
    InvalidMetricError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _require(payload, key, where):
    if key not in payload:
        raise InvalidArgumentError(f"{where}: missing field {key!r}")
    return payload[key]


def _integer(value, key, where):
    """``value`` as an int; a fractional number, a bool or a non-numeric value raises."""
    try:
        if isinstance(value, str) or int(value) == value and not isinstance(value, bool):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidArgumentError(f"{where}: field {key!r} must be an integer, got {value!r}")


def _count(value, key, where):
    """``value`` as a non-negative int."""
    value = _integer(value, key, where)
    if value < 0:
        raise InvalidArgumentError(f"{where}: field {key!r} must be a non-negative integer, got {value}")
    return value


def _seed_flag(seed):
    """The ``--seed`` flag's value, or None when it is not given; a negative seed has no random stream."""
    if seed is not None and seed < 0:
        raise InvalidArgumentError(f"--seed must be a non-negative integer, got {seed}")
    return seed


def _integers(values, key, where):
    if not isinstance(values, list):
        raise InvalidArgumentError(f"{where}: field {key!r} must be a list of integers, got {values!r}")
    return [_integer(v, key, where) for v in values]


def _field(payload, key, where):
    return _integer(_require(payload, key, where), key, where)


def _resolve_thetas(payload, seed, where):
    if "thetas" in payload:
        thetas = payload["thetas"]
        if not isinstance(thetas, list) or any(isinstance(t, bool) or not isinstance(t, (int, float)) for t in thetas):
            raise InvalidArgumentError(f"{where}: field 'thetas' must be a list of numbers, got {thetas!r}")
        return tuple(map(float, thetas))
    preset = payload.get("preset")
    if preset == "heterogeneous":
        return synthetic.heterogeneous_thetas(
            seed, n_low=_count(payload.get("n_low", 10), "n_low", where),
            n_high=_count(payload.get("n_high", 8), "n_high", where),
        )
    if preset == "movies_style":
        return synthetic.movies_style_thetas(_count(_require(payload, "m", where), "m", where), seed)
    raise InvalidArgumentError(f"{where}: missing field 'thetas' (or a known 'preset')")


def _scenario(payload, seed, where):
    """The synthetic scenario a ``generate`` file (or one ``sweep`` point) describes."""
    kind = _require(payload, "kind", where)
    seed = _count(seed, "seed", where)
    try:
        if kind == "ranking":
            return synthetic.RankingScenario(
                n=_field(payload, "n", where),
                rho=_field(payload, "rho", where),
                thetas=_resolve_thetas(payload, seed, where),
                seed=seed,
            )
        if kind == "regression":
            acc = np.asarray(_require(payload, "accuracies", where), dtype=float)
            prior_var = float(_require(payload, "prior_var", where))
            if "lf_cov" in payload:
                cov = payload["lf_cov"]
            elif "lf_noise" in payload:
                cov = np.outer(acc, acc) / prior_var + np.diag(np.asarray(payload["lf_noise"], float))
            else:
                raise InvalidArgumentError(f"{where}: missing field 'lf_cov' (or 'lf_noise')")
            return synthetic.RegressionScenario(
                n=_field(payload, "n", where), accuracies=acc, lf_cov=cov, prior_var=prior_var, seed=seed
            )
        if kind == "graph":
            return synthetic.GraphScenario(
                n_nodes=_field(payload, "n_nodes", where),
                n_edges=_field(payload, "n_edges", where),
                n=_field(payload, "n", where),
                thetas=_resolve_thetas(payload, seed, where),
                seed=seed,
            )
    except UwsError:
        raise
    except (TypeError, ValueError) as exc:  # a list or number field of the wrong form
        raise InvalidArgumentError(f"{where}: {exc}") from exc
    raise InvalidArgumentError(f"{where}: unknown scenario kind {kind!r}")


def _generate(scenario):
    """(space or None, truth, data) drawn from a scenario of any kind."""
    if isinstance(scenario, synthetic.GraphScenario):
        return synthetic.gen_graph_tasks(scenario)
    if isinstance(scenario, synthetic.RankingScenario):
        return (None, *synthetic.gen_ranking_tasks(scenario))
    return (None, *synthetic.gen_regression_tasks(scenario))


def cmd_generate(args):
    seed = _seed_flag(args.seed)
    payload = io.read_json(args.scenario)
    if seed is None:
        seed = _require(payload, "seed", args.scenario)
    scenario = _scenario(payload, seed, args.scenario)
    space, truth, data = _generate(scenario)
    # the output directory appears only once the scenario has been drawn
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if space is not None:
        io.write_distance_matrix(out / "space.csv", space)
    io.write_dataset(out / "dataset.csv", data)
    io.write_truth(out / "truth.csv", truth, data.space_kind)
    config = {"scenario": payload, "resolved": _scenario_config(scenario)}
    io.write_manifest(out / "manifest.json", config, seed=scenario.seed,
                      extra={"kind": payload["kind"], "n": data.n_tasks, "m": data.n_lfs})
    return 0


def _scenario_config(scenario):
    return {k: getattr(scenario, k) for k in scenario.__dataclass_fields__}


def _read_dataset_with_space(path):
    """A dataset (a directory's dataset.csv, or the CSV itself), with the space.csv beside it if any."""
    path = Path(path)
    csv_path, base = (path / "dataset.csv", path) if path.is_dir() else (path, path.parent)
    space_path = base / "space.csv"
    space = io.read_distance_matrix(space_path) if space_path.exists() else None
    return io.read_dataset(csv_path, space=space)


def _build_prior(args):
    if args.prior_p is not None:
        return TwoPointPrior(args.prior_p)
    if args.prior_second_moment is not None:
        return SecondMomentPrior(args.prior_second_moment)
    return None


def cmd_learn(args):
    data = _read_dataset_with_space(args.dataset)
    prior = _build_prior(args)
    if prior is None and data.space_kind == REAL_VECTOR and (args.path or "continuous") == "continuous":
        prior = SecondMomentPrior(1.0)
    model = learn_label_model(data, prior=prior, path=args.path)
    config = {
        "dataset": str(args.dataset),
        "path": model.path,
        "prior_p": args.prior_p,
        "prior_second_moment": args.prior_second_moment,
    }
    io.write_model(args.model, model, extra_manifest={"config_hash_learn": io.config_hash(config)})
    return 0


def _metrics(space_kind, labels, truth, space):
    if space_kind == RANKING:
        pred = np.asarray(labels)
        mean_d = float(kendall_tau_many(pred, np.asarray(truth)).mean())
        return {"mean_kendall_distance": mean_d, "n": len(labels)}
    if space_kind == REAL_VECTOR:
        pred = np.asarray(labels, dtype=float)
        t = np.asarray(truth, dtype=float)
        return {"mse": float(np.mean((pred - t) ** 2)), "n": len(labels)}
    pred = np.asarray(labels, dtype=int)
    t = np.asarray(truth, dtype=int)
    return {
        "accuracy": float(np.mean(pred == t)),
        "mean_distance": float(space.dist[pred, t].mean()),
        "n": len(labels),
    }


def cmd_infer(args):
    seed = _seed_flag(args.seed)
    data = _read_dataset_with_space(args.dataset)
    model = None
    if args.rule == "weighted":
        if args.model is None:
            raise InvalidArgumentError("--rule weighted requires --model")
        model = io.read_model(args.model)
    if args.truth:
        truth_kind, truth = io.read_truth(args.truth)
        if truth_kind != data.space_kind or len(truth) != data.n_tasks:
            raise InvalidArgumentError(
                f"{args.truth}: truth file is {truth_kind}/{len(truth)} rows, dataset is "
                f"{data.space_kind}/{data.n_tasks} tasks"
            )
        if truth_kind == FINITE_METRIC:
            outside = np.flatnonzero((truth < 0) | (truth >= data.space.size))
            if outside.size:
                raise InvalidArgumentError(f"{args.truth}: task {outside[0]} has truth node {truth[outside[0]]}, "
                                           f"outside 0..{data.space.size - 1}")
    labels = inference.aggregate_dataset(data, rule=args.rule, seed=seed, model=model)
    # the output directory appears only once every input has been read and aggregated
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_pseudolabels(out / "pseudolabels.csv", labels, data.space_kind)
    extra = {"rule": args.rule}
    if args.truth:
        metrics = _metrics(data.space_kind, labels, truth, data.space)
        (out / "metrics.json").write_text(io.canonical_json(metrics))
        extra["metrics"] = metrics
    config = {"dataset": str(args.dataset), "model": str(args.model), "rule": args.rule}
    io.write_manifest(out / "manifest.json", config, seed=args.seed, extra=extra)
    return 0


def _derived_seed(*path):
    return int(np.random.SeedSequence(entropy=path).generate_state(1)[0])


# sweep row prefix of each per-rule label metric, by its key in ``_metrics``
_SWEEP_NAMES = {"mean_kendall_distance": "mean_kendall", "mse": "mse", "accuracy": "accuracy"}


def _estimation_rows(scenario, model):
    """The sweep's learn-side metric rows: learned against planted parameters, where known."""
    if isinstance(scenario, synthetic.RankingScenario):
        thetas = np.asarray(scenario.thetas)
        return [("theta_rel_err", float((np.abs(model.thetas - thetas) / thetas).mean()))]
    if isinstance(scenario, synthetic.RegressionScenario):
        return [("acc_abs_err", float(np.abs(model.accuracies - np.asarray(scenario.accuracies)).mean()))]
    return []


def _sweep_point(scenario, path, rules):
    space, truth, data = _generate(scenario)
    regression = isinstance(scenario, synthetic.RegressionScenario)
    prior = SecondMomentPrior(scenario.prior_var) if regression else None
    model = learn_label_model(data, prior=prior, path=path)
    rows = _estimation_rows(scenario, model)
    for rule in rules:
        labels = inference.aggregate_dataset(data, rule=rule, model=model, seed=scenario.seed)
        metrics = _metrics(data.space_kind, labels, truth, space)
        rows += [(f"{_SWEEP_NAMES[key]}_{rule}", metrics[key]) for key in _SWEEP_NAMES if key in metrics]
    return rows


_PER_LABELER = ("thetas", "accuracies", "lf_noise")


def _point_payload(kind, base, n, m):
    """One sweep point's scenario payload: the base with its per-labeler lists cut to m."""
    cut = {k: v[:m] for k, v in base.items() if k in _PER_LABELER and isinstance(v, list)}
    return {**base, "kind": kind, "n": n, "prior_var": base.get("prior_var", 1.0), **cut}


def cmd_sweep(args):
    where = args.scenario
    seed = _seed_flag(args.seed)
    payload = io.read_json(where)
    kind = _require(payload, "kind", where)
    base = _require(payload, "base", where)
    if seed is None:
        seed = _count(_require(payload, "seed", where), "seed", where)
    replicates = _integer(payload.get("replicates", 1), "replicates", where)
    grid = payload.get("grid")
    labelers = base.get("thetas", base.get("accuracies")) if isinstance(base, dict) else None
    if not grid or not isinstance(grid, dict) or not isinstance(labelers, list):
        raise InvalidArgumentError(
            f"{where}: need a 'grid' object and a 'base' object listing 'thetas' or 'accuracies'"
        )
    base_m = len(labelers)
    ns = _integers(grid.get("n", [base.get("n", 1000)]), "n", where)
    ms = _integers(grid.get("m", [base_m]), "m", where)
    if not ns or not ms or replicates < 1 or min(ns) < 1 or not all(1 <= m <= base_m for m in ms):
        raise InvalidArgumentError(
            f"{where}: grids and replicates must be nonempty, each n at least 1, "
            f"and each m in 1..{base_m} (the base labelers)"
        )
    path = payload.get("path")
    rules = payload.get("rules", ["mv", "weighted"])
    if not isinstance(rules, list) or not all(rule in ("mv", "weighted") for rule in rules):
        raise InvalidArgumentError(f"{where}: field 'rules' must be a list of \"mv\" and \"weighted\", got {rules!r}")

    jobs = [
        (n, m, rep, _scenario(_point_payload(kind, base, n, m), _derived_seed(seed, n, m, rep), where))
        for n in ns for m in ms for rep in range(replicates)
    ]

    rows = [
        (n, m, rep, metric, value)
        for n, m, rep, scenario in jobs
        for metric, value in _sweep_point(scenario, path, rules)
    ]

    # log-log slope of estimation error against n, per m, averaged over replicates
    slope_metric = {"ranking": "theta_rel_err", "regression": "acc_abs_err"}.get(kind)
    if slope_metric and len(ns) >= 2:
        for m in ms:
            means = []
            for n in ns:
                vals = [v for (rn, rm, _, met, v) in rows if rn == n and rm == m and met == slope_metric]
                means.append(np.mean(vals))
            slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
            rows.append((-1, m, -1, f"loglog_slope_{slope_metric}", slope))

    rows.sort(key=lambda r: (r[3], r[0], r[1], r[2]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_csv(
        out / "results.csv",
        ["n", "m", "replicate", "metric", "value"],
        [(n, m, rep, metric, repr(float(v))) for n, m, rep, metric, v in rows],
    )
    io.write_manifest(out / "manifest.json", payload, seed=seed,
                      extra={"kind": kind, "rows": len(rows)})
    return 0


def cmd_graph_metric(args):
    edges = io.read_edge_list(args.edges)
    n_nodes = args.nodes if args.nodes is not None else (max(max(e) for e in edges) + 1)
    space = graph_hop_metric(edges, n_nodes)
    io.write_distance_matrix(args.out, space)
    io.write_manifest(Path(str(args.out) + ".manifest.json"),
                      {"edges": str(args.edges), "n_nodes": n_nodes})
    return 0


def cmd_mds(args):
    space = io.read_distance_matrix(args.dist)
    report = classical_mds(space, dim=args.dim, metric_exponent=args.exponent)
    io.write_embedding(args.out, report)
    io.write_manifest(Path(str(args.out) + ".manifest.json"),
                      {"dist": str(args.dist), "dim": args.dim, "exponent": args.exponent})
    return 0


def build_parser():
    """A new parser of the ``uws`` command line; ``main`` runs a parsed ``args.command`` as ``cmd_<command>``."""
    parser = _Parser(prog="uws", description=__doc__)
    parser.add_argument("--version", action="version", version=f"uws {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset from a scenario JSON")
    gen.add_argument("--scenario", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    learn = sub.add_parser("learn", help="learn a label model from a dataset (never reads truth)")
    learn.add_argument("--dataset", required=True)
    learn.add_argument("--model", required=True, help="output model JSON path")
    learn.add_argument("--path", choices=["hypercube", "continuous", "isotropic"], default=None)
    prior = learn.add_mutually_exclusive_group()
    prior.add_argument("--prior-p", type=float, default=None, dest="prior_p")
    prior.add_argument("--prior-second-moment", type=float, default=None, dest="prior_second_moment")

    infer = sub.add_parser("infer", help="aggregate a dataset into pseudolabels")
    infer.add_argument("--dataset", required=True)
    infer.add_argument("--model", default=None, help="model JSON (required for --rule weighted)")
    infer.add_argument("--out", required=True)
    infer.add_argument("--rule", choices=["mv", "weighted"], default="weighted")
    infer.add_argument("--truth", default=None, help="optional truth CSV for metrics")
    infer.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser("sweep", help="run a grid of scenarios and emit a long-format CSV")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--seed", type=int, default=None)

    gm = sub.add_parser("graph-metric", help="all-pairs hop distances of an edge-list graph")
    gm.add_argument("--edges", required=True)
    gm.add_argument("--out", required=True)
    gm.add_argument("--nodes", type=int, default=None)

    mds = sub.add_parser("mds", help="classical MDS embedding of a distance matrix CSV")
    mds.add_argument("--dist", required=True)
    mds.add_argument("--dim", type=int, required=True)
    mds.add_argument("--out", required=True, help="output prefix: <out>.coords.csv and <out>.json")
    mds.add_argument("--exponent", type=float, default=1.0)
    return parser


# argparse keeps no state between parses, so one parser serves every call of main
_parser = functools.cache(build_parser)


def main(argv=None):
    """Run one command line and return its exit code; may be called repeatedly in one process."""
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        # looked up when called, so a replaced module attribute (a tracing wrapper) is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except (UwsError, OSError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
