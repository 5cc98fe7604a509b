"""CLI contract: subcommands, exit codes, determinism."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from uws import io as uio
from uws.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def ranking_scenario(tmp_path):
    return write_json(
        tmp_path / "scenario.json",
        {"kind": "ranking", "n": 300, "rho": 5, "thetas": [1.5, 1.0, 0.7], "seed": 11},
    )


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(Path(root).glob("*")) if p.is_file()}


class TestGenerate:
    def test_creates_expected_files(self, tmp_path, ranking_scenario):
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(ranking_scenario), "--out", str(out)]) == 0
        dataset_lines = (out / "dataset.csv").read_text().splitlines()
        assert len(dataset_lines) == 1 + 300 * 3  # header + n*m rows
        assert (out / "truth.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11 and manifest["n"] == 300 and manifest["m"] == 3

    def test_same_seed_byte_identical(self, tmp_path, ranking_scenario):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--scenario", str(ranking_scenario), "--out", str(a)])
        main(["generate", "--scenario", str(ranking_scenario), "--out", str(b)])
        assert tree_bytes(a) == tree_bytes(b)

    def test_seed_override_changes_output(self, tmp_path, ranking_scenario):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--scenario", str(ranking_scenario), "--out", str(a)])
        main(["generate", "--scenario", str(ranking_scenario), "--out", str(b), "--seed", "12"])
        assert tree_bytes(a) != tree_bytes(b)

    def test_malformed_json_names_problem(self, tmp_path, capsys):
        bad = tmp_path / "scenario.json"
        bad.write_text('{"kind": "ranking", "n": 5')
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(bad), "--out", str(out)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path, capsys):
        bad = write_json(tmp_path / "scenario.json", {"kind": "ranking", "n": 5, "seed": 0})
        assert main(["generate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "rho" in err or "thetas" in err

    def test_graph_scenario_writes_space(self, tmp_path):
        scenario = write_json(
            tmp_path / "g.json",
            {"kind": "graph", "n_nodes": 8, "n_edges": 12, "n": 15,
             "thetas": [2.0, 1.0, 0.5], "seed": 3},
        )
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert (out / "space.csv").exists()

    def test_preset_scenario(self, tmp_path):
        scenario = write_json(
            tmp_path / "p.json",
            {"kind": "ranking", "n": 10, "rho": 4, "preset": "heterogeneous", "seed": 5},
        )
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        lines = (out / "dataset.csv").read_text().splitlines()
        assert len(lines) == 1 + 10 * 18


class TestLearn:
    def test_writes_model(self, tmp_path, ranking_scenario):
        out = tmp_path / "out"
        main(["generate", "--scenario", str(ranking_scenario), "--out", str(out)])
        model_path = tmp_path / "model.json"
        assert main(["learn", "--dataset", str(out), "--model", str(model_path)]) == 0
        payload = json.loads(model_path.read_text())
        assert len(payload["thetas"]) == 3
        assert payload["space_kind"] == "ranking"

    def test_rankings_above_rho_28(self, tmp_path):
        # the backward-map bisection visits thetas whose e^{theta rho} overflows a float
        scenario = write_json(tmp_path / "s.json",
                              {"kind": "ranking", "n": 300, "rho": 30, "preset": "heterogeneous", "seed": 7})
        out, model_path = tmp_path / "out", tmp_path / "model.json"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert main(["learn", "--dataset", str(out), "--model", str(model_path)]) == 0
        thetas = np.array(json.loads(model_path.read_text())["thetas"])
        assert len(thetas) == 18 and np.isfinite(thetas).all() and (thetas > 0).all()

    def test_two_labelers_exit_validation(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        rows = ["task_id,lf_id,perm"]
        for t in range(5):
            rows.append(f'{t},0,"0,1,2"')
            rows.append(f'{t},1,"1,0,2"')
        (out / "dataset.csv").write_text("\n".join(rows) + "\n")
        code = main(["learn", "--dataset", str(out), "--model", str(tmp_path / "m.json")])
        assert code == 2
        assert "triplet unavailable" in capsys.readouterr().err

    def test_degenerate_moments_exit_runtime(self, tmp_path, capsys):
        # two tasks on which labelers 0 and 1 agree then disagree exactly:
        # their pairwise moment is identically zero, the floor policy raises
        out = tmp_path / "deg"
        out.mkdir()
        rows = ["task_id,lf_id,perm"]
        for t, second in enumerate(['"0,1,2"', '"2,1,0"']):
            rows.append(f't,0,"0,1,2"'.replace("t", str(t), 1))
            rows.append(f"{t},1,{second}")
            rows.append(f'{t},2,"0,2,1"')
        (out / "dataset.csv").write_text("\n".join(rows) + "\n")
        code = main(["learn", "--dataset", str(out), "--model", str(tmp_path / "m.json")])
        assert code == 3
        assert "floor" in capsys.readouterr().err

    def test_missing_dataset_exit_validation(self, tmp_path):
        code = main(["learn", "--dataset", str(tmp_path / "nope"), "--model", str(tmp_path / "m.json")])
        assert code == 2

    def test_prior_the_route_does_not_read_exits_validation(self, tmp_path, capsys, ranking_scenario):
        # rankings' +-1 coordinates have second moment 1 by construction
        out, model_path = tmp_path / "out", tmp_path / "model.json"
        main(["generate", "--scenario", str(ranking_scenario), "--out", str(out)])
        code = main(["learn", "--dataset", str(out), "--model", str(model_path), "--prior-second-moment", "2"])
        assert code == 2
        assert "SecondMomentPrior is not read" in capsys.readouterr().err
        assert not model_path.exists()

    def test_second_moment_prior_on_a_graph_exits_validation(self, tmp_path, capsys):
        # the default isotropic route on a graph works on hop distances, not inner products
        scenario = write_json(tmp_path / "g.json", {"kind": "graph", "n_nodes": 30, "n_edges": 60, "n": 50,
                                                    "thetas": [2.0, 1.5, 1.0, 0.8, 0.5], "seed": 3})
        out, model_path = tmp_path / "out", tmp_path / "model.json"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        code = main(["learn", "--dataset", str(out), "--model", str(model_path), "--prior-second-moment", "2"])
        assert code == 2
        assert "SecondMomentPrior is not read" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_second_moment_exits_validation(self, tmp_path, capsys, value):
        scenario = write_json(tmp_path / "r.json", {"kind": "regression", "n": 200, "accuracies": [0.8, 0.6, 0.4],
                                                    "lf_noise": [0.4, 0.6, 0.8], "prior_var": 1.0, "seed": 5})
        out, model_path = tmp_path / "out", tmp_path / "model.json"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        code = main(["learn", "--dataset", str(out), "--model", str(model_path), f"--prior-second-moment={value}"])
        assert code == 2
        assert "second moments must be positive and finite" in capsys.readouterr().err
        assert not model_path.exists()

    def test_both_priors_are_a_usage_error(self, tmp_path, capsys, ranking_scenario):
        out, model_path = tmp_path / "out", tmp_path / "model.json"
        main(["generate", "--scenario", str(ranking_scenario), "--out", str(out)])
        code = main(["learn", "--dataset", str(out), "--model", str(model_path), "--path", "hypercube",
                     "--prior-p", "0.5", "--prior-second-moment", "2"])
        assert code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not model_path.exists()


class TestInfer:
    @pytest.fixture
    def generated(self, tmp_path, ranking_scenario):
        out = tmp_path / "data"
        main(["generate", "--scenario", str(ranking_scenario), "--out", str(out)])
        model = tmp_path / "model.json"
        main(["learn", "--dataset", str(out), "--model", str(model)])
        return out, model

    def test_weighted_with_metrics(self, tmp_path, generated):
        data_dir, model = generated
        out = tmp_path / "pred"
        code = main([
            "infer", "--dataset", str(data_dir), "--model", str(model),
            "--out", str(out), "--rule", "weighted", "--truth", str(data_dir / "truth.csv"),
        ])
        assert code == 0
        labels = (out / "pseudolabels.csv").read_text().splitlines()
        assert len(labels) == 1 + 300
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["mean_kendall_distance"] <= 10.0

    def test_mv_equals_weighted_under_uniform_model(self, tmp_path, generated):
        data_dir, model_path = generated
        model = uio.read_model(model_path)
        uniform = dataclasses.replace(model, thetas=np.ones_like(model.thetas))
        uniform_path = tmp_path / "uniform.json"
        uio.write_model(uniform_path, uniform)
        out_mv, out_w = tmp_path / "mv", tmp_path / "w"
        main(["infer", "--dataset", str(data_dir), "--out", str(out_mv), "--rule", "mv"])
        main(["infer", "--dataset", str(data_dir), "--model", str(uniform_path),
              "--out", str(out_w), "--rule", "weighted"])
        assert (out_mv / "pseudolabels.csv").read_bytes() == (out_w / "pseudolabels.csv").read_bytes()

    def test_space_mismatch_exit_validation(self, tmp_path, generated, capsys):
        data_dir, model = generated
        other_scenario = write_json(
            tmp_path / "s6.json",
            {"kind": "ranking", "n": 10, "rho": 6, "thetas": [1.0, 1.0, 1.0], "seed": 1},
        )
        other = tmp_path / "other"
        main(["generate", "--scenario", str(other_scenario), "--out", str(other)])
        code = main(["infer", "--dataset", str(other), "--model", str(model),
                     "--out", str(tmp_path / "x"), "--rule", "weighted"])
        assert code == 2
        assert "mismatch" in capsys.readouterr().err

    def test_weighted_without_model(self, tmp_path, generated):
        data_dir, _ = generated
        code = main(["infer", "--dataset", str(data_dir), "--out", str(tmp_path / "x"),
                     "--rule", "weighted"])
        assert code == 2

    def test_deterministic(self, tmp_path, generated):
        data_dir, model = generated
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["infer", "--dataset", str(data_dir), "--model", str(model),
                  "--out", str(out), "--rule", "weighted", "--seed", "9"])
        assert tree_bytes(a) == tree_bytes(b)

    @pytest.mark.parametrize("scenario", [
        {"kind": "ranking", "n": 300, "rho": 5, "thetas": [1.5, 1.0, 0.7], "seed": 11},
        {"kind": "graph", "n_nodes": 30, "n_edges": 60, "n": 50, "thetas": [2.0, 1.5, 1.0, 0.8, 0.5], "seed": 3},
    ], ids=["ranking", "graph"])
    def test_null_theta_exit_validation(self, tmp_path, capsys, scenario):
        # a JSON null theta reads as NaN, which no aggregate can use: the model file is refused
        data_dir, model = tmp_path / "data", tmp_path / "model.json"
        main(["generate", "--scenario", str(write_json(tmp_path / "s.json", scenario)), "--out", str(data_dir)])
        assert main(["learn", "--dataset", str(data_dir), "--model", str(model)]) == 0
        payload = json.loads(model.read_text())
        payload["thetas"][0] = None
        write_json(model, payload)
        code = main(["infer", "--dataset", str(data_dir), "--model", str(model), "--out", str(tmp_path / "pred"),
                     "--rule", "weighted", "--truth", str(data_dir / "truth.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "finite" in err and str(model) in err and "Traceback" not in err
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("fault", ["aggregation", "truth"])
    def test_failed_infer_creates_no_output(self, tmp_path, capsys, fault):
        # the model reads (accuracies may be null) but gives real labels no weights; or the truth has a gap
        dataset = _write_lines(tmp_path / "data" / "dataset.csv", ["task_id,lf_id,value", *VALUE_ROWS])
        model = write_json(tmp_path / "model.json", {
            "space_kind": "real_vector", "path": "continuous", "dims": {"d": 1}, "thetas": [1.0, 1.0, 1.0],
            "expected_distances": [0.5, 0.5, 0.5], "accuracies": [None] * 3, "pairwise_moments": np.eye(3).tolist(),
            "theta_matrix": None, "embedding": {"kind": "identity", "dim": 1}, "version": "0.1.0",
        })
        tasks = (0, 1, 2, 3) if fault == "aggregation" else (0, 1, 2, 4)
        truth = _write_lines(tmp_path / "truth.csv", ["task_id,value", *(f"{t},0.5" for t in tasks)])
        argv = ["infer", "--dataset", str(dataset.parent), "--out", str(tmp_path / "pred"), "--truth", str(truth)]
        argv += ["--rule", "weighted", "--model", str(model)] if fault == "aggregation" else ["--rule", "mv"]
        assert main(argv) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "pred").exists()


class TestSweep:
    @pytest.fixture
    def sweep_scenario(self, tmp_path):
        return write_json(
            tmp_path / "sweep.json",
            {
                "kind": "ranking",
                "seed": 21,
                "replicates": 2,
                "base": {"rho": 4, "thetas": [1.5, 1.0, 0.7, 0.5]},
                "grid": {"n": [200, 400], "m": [3, 4]},
                "rules": ["mv", "weighted"],
            },
        )

    def test_long_format_with_slope_rows(self, tmp_path, sweep_scenario):
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(sweep_scenario), "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "n,m,replicate,metric,value"
        # 2 n * 2 m * 2 reps * 3 metrics + 2 slope rows
        assert len(lines) == 1 + 24 + 2
        assert sum("loglog_slope_theta_rel_err" in ln for ln in lines) == 2

    def test_fixed_seed_identical_csv(self, tmp_path, sweep_scenario):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--scenario", str(sweep_scenario), "--out", str(a)])
        main(["sweep", "--scenario", str(sweep_scenario), "--out", str(b)])
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_threads_flag_is_a_usage_error(self, tmp_path, sweep_scenario):
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(sweep_scenario), "--out", str(out), "--threads", "2"]) == 1
        assert not out.exists()


class TestGraphMetricAndMds:
    def test_pipeline(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 3\n3 0\n")
        dist = tmp_path / "dist.csv"
        assert main(["graph-metric", "--edges", str(edges), "--out", str(dist)]) == 0
        assert main(["mds", "--dist", str(dist), "--dim", "2", "--out", str(tmp_path / "emb")]) == 0
        desc = json.loads((tmp_path / "emb.json").read_text())
        assert desc["dim"] == 2 and 0.0 <= desc["epsilon"] <= 1.0
        coords = (tmp_path / "emb.coords.csv").read_text().splitlines()
        assert len(coords) == 4

    def test_disconnected_graph_exit_runtime(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n2 3\n")
        code = main(["graph-metric", "--edges", str(edges), "--out", str(tmp_path / "d.csv")])
        assert code == 3
        assert "disconnected" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["learn"]) == 1  # missing required flags
        assert main(["no-such-command"]) == 1


class TestSweepScience:
    def test_regression_error_rate_slope(self, tmp_path):
        scenario = write_json(
            tmp_path / "reg.json",
            {
                "kind": "regression",
                "seed": 31,
                "replicates": 3,
                "base": {"accuracies": [0.8, 0.6, 0.4], "lf_noise": [0.4, 0.6, 0.8],
                         "prior_var": 1.0},
                "grid": {"n": [1000, 10000]},
                "rules": ["mv", "weighted"],
            },
        )
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario), "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        slopes = [float(r.split(",")[-1]) for r in rows if "loglog_slope_acc_abs_err" in r]
        assert len(slopes) == 1
        assert -0.8 <= slopes[0] <= -0.2  # square-root tendency at modest replication

    def test_label_error_non_increasing_in_m(self, tmp_path):
        thetas = [1.5, 0.9, 1.2, 0.6, 1.0, 0.8, 1.4, 0.7, 1.1, 0.9, 1.3, 0.8]
        scenario = write_json(
            tmp_path / "mgrid.json",
            {
                "kind": "ranking",
                "seed": 33,
                "replicates": 3,
                "base": {"rho": 5, "thetas": thetas, "n": 400},
                "grid": {"m": [3, 6, 9, 12]},
                "rules": ["weighted"],
            },
        )
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scenario), "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        by_m = {}
        for r in rows:
            n, m, rep, metric, value = r.split(",")
            if metric == "mean_kendall_weighted":
                by_m.setdefault(int(m), []).append(float(value))
        ms = sorted(by_m)
        means = [np.mean(by_m[m]) for m in ms]
        assert ms == [3, 6, 9, 12]
        assert means[-1] < means[0]  # more labelers help
        trend = np.polyfit(ms, means, 1)[0]
        assert trend <= 0


class TestWeakSupervisionContract:
    def test_learn_exposes_no_truth_parameter(self):
        code = main(["learn", "--dataset", "x", "--model", "y", "--truth", "t.csv"])
        assert code == 1  # usage error: learning cannot be pointed at the truth


def _write_lines(path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{line}\n" for line in lines))
    return path


VALUE_ROWS = [f"{t},{a},{0.5 * t - a}" for t in range(4) for a in range(3)]
PERM_ROWS = [f'{t},{a},"{(t + a) % 3},{(t + a + 1) % 3},{(t + a + 2) % 3}"'
             for t in range(4) for a in range(3)]
NODE_ROWS = [f"{t},{a},{(t + a) % 3}" for t in range(4) for a in range(3)]
SPACE = ["0.0,1.0,1.0", "1.0,0.0,1.0", "1.0,1.0,0.0"]


def _learn_on(tmp_path, rows, column="value"):
    dataset = _write_lines(tmp_path / "d" / "dataset.csv", [f"task_id,lf_id,{column}", *rows])
    return ["learn", "--dataset", str(dataset.parent), "--model", str(tmp_path / "m.json")], dataset


def _case_empty_dataset(tmp_path):
    dataset = _write_lines(tmp_path / "d" / "dataset.csv", [])
    return ["learn", "--dataset", str(dataset.parent), "--model", str(tmp_path / "m.json")], dataset


def _case_truth(tmp_path, lines):
    _, dataset = _learn_on(tmp_path, VALUE_ROWS[:9])  # three tasks
    truth = _write_lines(tmp_path / "truth.csv", lines)
    return ["infer", "--dataset", str(dataset.parent), "--out", str(tmp_path / "o"), "--rule", "mv",
            "--truth", str(truth)], truth


def _space_case(cell):
    def case(tmp_path):
        argv, dataset = _learn_on(tmp_path, NODE_ROWS, column="node")
        space = _write_lines(dataset.parent / "space.csv", [SPACE[0], f"1.0,{cell},1.0", SPACE[2]])
        return argv, space
    return case


def _case_edge_list(tmp_path):
    edges = _write_lines(tmp_path / "edges.txt", ["0 1", "1 x"])
    return ["graph-metric", "--edges", str(edges), "--out", str(tmp_path / "dist.csv")], edges


def _case_model_without_accuracies(tmp_path):
    _, dataset = _learn_on(tmp_path, VALUE_ROWS)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "space_kind": "real_vector", "path": "continuous", "dims": {"d": 1}, "thetas": [1.0, 1.0, 1.0],
        "expected_distances": [0.5, 0.5, 0.5], "pairwise_moments": np.eye(3).tolist(), "theta_matrix": None,
        "embedding": {"kind": "identity", "dim": 1}, "version": "0.1.0",
    }))
    return ["infer", "--dataset", str(dataset.parent), "--model", str(model), "--out", str(tmp_path / "o"),
            "--rule", "weighted"], model


def _sweep_case(payload):
    def case(tmp_path):
        scenario = write_json(tmp_path / "sweep.json", {"seed": 1, "replicates": 1, **payload})
        return ["sweep", "--scenario", str(scenario), "--out", str(tmp_path / "o")], scenario
    return case


def _case_generate_fractional_n(tmp_path):
    scenario = write_json(tmp_path / "s.json", {"kind": "ranking", "n": 2.5, "rho": 4,
                                                "thetas": [1.0, 1.0, 1.0], "seed": 1})
    return ["generate", "--scenario", str(scenario), "--out", str(tmp_path / "o")], scenario


MALFORMED = {
    "non_numeric_value": lambda p: _learn_on(p, [*VALUE_ROWS[:5], "1,2,abc", *VALUE_ROWS[6:]]),
    "short_row": lambda p: _learn_on(p, [*VALUE_ROWS[:5], "1,2", *VALUE_ROWS[6:]]),
    "blank_line": lambda p: _learn_on(p, [*VALUE_ROWS[:5], "", *VALUE_ROWS[5:]]),
    "empty_dataset": _case_empty_dataset,
    "ragged_perm": lambda p: _learn_on(p, [*PERM_ROWS[:5], '1,2,"0,1"', *PERM_ROWS[6:]], column="perm"),
    # task -1 in place of task 0: row 0 would be left unset
    "negative_id": lambda p: _learn_on(p, [f"-1,{r[2:]}" if r.startswith("0,") else r for r in VALUE_ROWS]),
    # (1, 0) twice with different labels, every other cell once
    "duplicate_id": lambda p: _learn_on(p, [*VALUE_ROWS, "1,0,9.0"]),
    # (0, 0) missing, its row count made up by (-1, 0)
    "missing_id": lambda p: _learn_on(p, ['-1,0,"0,1,2"', *PERM_ROWS[1:]], column="perm"),
    "truth_id_gap": lambda p: _case_truth(p, ["task_id,value", "0,0.5", "2,1.5", "3,2.5"]),
    "space_non_numeric": _space_case("x"),
    "space_nan_on_diagonal": _space_case("nan"),  # every check but the NaN one passes it
    "edge_list_non_numeric": _case_edge_list,
    "model_without_accuracies": _case_model_without_accuracies,
    "sweep_base_without_rho": _sweep_case({"kind": "ranking", "base": {"thetas": [1.0, 1.0, 1.0]},
                                           "grid": {"n": [20]}}),
    "sweep_base_without_lf_noise": _sweep_case({"kind": "regression", "base": {"accuracies": [0.8, 0.6, 0.4]},
                                                "grid": {"n": [20]}}),
    "generate_fractional_n": _case_generate_fractional_n,
    "sweep_fractional_n": _sweep_case({"kind": "ranking", "base": {"rho": 3, "thetas": [1.0, 1.0, 1.0]},
                                       "grid": {"n": [20.5]}}),
    "sweep_grid_not_a_list": _sweep_case({"kind": "ranking", "base": {"rho": 3, "thetas": [1.0, 1.0, 1.0]},
                                          "grid": {"n": 20}}),
    "truth_nan": lambda p: _case_truth(p, ["task_id,value", "0,0.5", "1,nan", "2,2.5"]),
}


def test_space_file_breaking_the_triangle_inequality_exits_validation(tmp_path, capsys):
    argv, dataset = _learn_on(tmp_path, NODE_ROWS, column="node")
    space = _write_lines(dataset.parent / "space.csv", ["0.0,1.0,3.0", "1.0,0.0,1.0", "3.0,1.0,0.0"])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{space}: triangle inequality violated through point 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_validation_naming_file(tmp_path, capsys, case):
    argv, offending = MALFORMED[case](tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(offending) in err
    assert "Traceback" not in err
