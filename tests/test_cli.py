"""CLI contract: subcommands, exit codes, determinism."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import uws.cli
from uws import io as uio
from uws.cli import VALIDATION_EXIT, main


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

    def test_tree_graph_scenario_generates(self, tmp_path):
        # n_edges = n_nodes - 1, the fewest edges a scenario admits: the graph is a spanning tree
        scenario = write_json(tmp_path / "t.json", {"kind": "graph", "n_nodes": 40, "n_edges": 39, "n": 15,
                                                    "thetas": [2.0, 1.0, 0.5], "seed": 3})
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert (uio.read_distance_matrix(out / "space.csv").dist == 1).sum() == 2 * 39

    @pytest.mark.parametrize("payload", [
        {"kind": "ranking", "n": 20, "rho": 4, "thetas": [1.0, float("nan"), 0.5], "seed": 3},
        {"kind": "graph", "n_nodes": 8, "n_edges": 12, "n": 15, "thetas": [2.0, float("nan"), 0.5], "seed": 3},
    ], ids=["ranking", "graph"])
    def test_nan_theta_refused(self, tmp_path, capsys, payload):
        # json writes the NaN as the bare token NaN, which json.load reads back as a float NaN
        scenario = write_json(tmp_path / "s.json", payload)
        assert "NaN" in scenario.read_text()
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == VALIDATION_EXIT
        assert "labeler 1 has nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("payload", [
        {"kind": "ranking", "n": 200, "rho": 6, "thetas": [float("inf"), 1.0, 0.5], "seed": 3},
        {"kind": "graph", "n_nodes": 30, "n_edges": 60, "n": 200, "thetas": [float("inf"), 1.0, 0.5], "seed": 3},
    ], ids=["ranking", "graph"])
    def test_infinite_theta_labeler_writes_the_truth(self, tmp_path, payload):
        # json writes +inf as the bare token Infinity, which json.load reads back as a float
        scenario = write_json(tmp_path / "s.json", payload)
        assert "Infinity" in scenario.read_text()
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        space = uio.read_distance_matrix(out / "space.csv") if payload["kind"] == "graph" else None
        labels = uio.read_dataset(out / "dataset.csv", space=space).labels
        _, truth = uio.read_truth(out / "truth.csv")
        assert (labels[:, 0] == truth).all()

    @pytest.mark.parametrize("thetas, shown", [
        ("123", "'123'"),  # a string once counted as the list of thetas 1, 2 and 3
        (5, "5"),
        ({"a": 1.0}, "{'a': 1.0}"),
        ([1.0, "0.5", 2.0], "[1.0, '0.5', 2.0]"),
        ([1.0, True, 2.0], "[1.0, True, 2.0]"),
        ([1.0, None, 2.0], "[1.0, None, 2.0]"),
    ], ids=["string", "number", "object", "string_entry", "bool_entry", "null_entry"])
    @pytest.mark.parametrize("kind", ["ranking", "graph"])
    def test_thetas_must_be_a_list_of_numbers(self, tmp_path, capsys, kind, thetas, shown):
        payload = {"kind": kind, "n": 15, "rho": 4, "n_nodes": 8, "n_edges": 12, "thetas": thetas, "seed": 3}
        scenario = write_json(tmp_path / "s.json", payload)
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == VALIDATION_EXIT
        assert f"{scenario}: field 'thetas' must be a list of numbers, got {shown}" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_thetas_are_numbers(self, tmp_path):
        scenario = write_json(tmp_path / "s.json", {"kind": "ranking", "n": 15, "rho": 4, "thetas": [2, 1, 1.5],
                                                    "seed": 3})
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["m"] == 3

    def test_preset_scenario(self, tmp_path):
        scenario = write_json(
            tmp_path / "p.json",
            {"kind": "ranking", "n": 10, "rho": 4, "preset": "heterogeneous", "seed": 5},
        )
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        lines = (out / "dataset.csv").read_text().splitlines()
        assert len(lines) == 1 + 10 * 18


    @pytest.mark.parametrize("payload", [
        {"kind": "ranking", "n": 20, "rho": 4, "preset": "heterogeneous", "seed": -1},
        {"kind": "regression", "n": 20, "accuracies": [0.8, 0.6, 0.4], "lf_noise": [0.4, 0.6, 0.8],
         "prior_var": 1.0, "seed": -1},
        {"kind": "graph", "n_nodes": 8, "n_edges": 12, "n": 15, "thetas": [2.0, 1.0, 0.5], "seed": -1},
    ], ids=["ranking", "regression", "graph"])
    def test_negative_scenario_seed_exits_validation(self, tmp_path, capsys, payload):
        scenario = write_json(tmp_path / "s.json", payload)
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == VALIDATION_EXIT
        err = capsys.readouterr().err
        assert f"{scenario}: field 'seed' must be a non-negative integer, got -1" in err
        assert not out.exists()

    def test_negative_seed_flag_exits_validation(self, tmp_path, capsys, ranking_scenario):
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(ranking_scenario), "--out", str(out),
                     "--seed", "-5"]) == VALIDATION_EXIT
        assert "--seed must be a non-negative integer, got -5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("n_low", "three", "must be an integer, got 'three'"),
        ("n_low", -1, "must be a non-negative integer, got -1"),
        ("n_high", 2.5, "must be an integer, got 2.5"),
        ("m", -2, "must be a non-negative integer, got -2"),
        ("m", [6], "must be an integer, got [6]"),
    ])
    def test_preset_counts_are_checked(self, tmp_path, capsys, field, value, message):
        preset = "movies_style" if field == "m" else "heterogeneous"
        scenario = write_json(tmp_path / "p.json", {"kind": "ranking", "n": 10, "rho": 4, "preset": preset,
                                                    "seed": 5, field: value})
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == VALIDATION_EXIT
        assert f"{scenario}: field {field!r} {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_preset_count_reads_like_every_integer_field(self, tmp_path):
        # a numeric string reads as its integer, as "n" and "rho" do
        datasets = []
        for name, n_low in [("a", 3), ("b", "3")]:
            scenario = write_json(tmp_path / f"{name}.json", {"kind": "ranking", "n": 10, "rho": 4,
                                                               "preset": "heterogeneous", "seed": 5, "n_low": n_low})
            assert main(["generate", "--scenario", str(scenario), "--out", str(tmp_path / name)]) == 0
            datasets.append((tmp_path / name / "dataset.csv").read_bytes())
        assert datasets[0] == datasets[1] and len(datasets[0].splitlines()) == 1 + 10 * 11

    @pytest.mark.parametrize("field, value", [
        ("n", True), ("rho", True), ("seed", True), ("seed", False), ("n_nodes", True), ("n_edges", True),
        ("n_low", True), ("n_low", False), ("n_high", True), ("m", True),
    ])
    def test_json_booleans_are_not_integers(self, tmp_path, capsys, field, value):
        # JSON true once read as the integer 1: n=1, seed 1, one low labeler
        payload = {"kind": "ranking", "n": 10, "rho": 4, "preset": "heterogeneous", "seed": 5}
        if field in ("n_nodes", "n_edges"):
            payload = {"kind": "graph", "n_nodes": 8, "n_edges": 12, "n": 15, "thetas": [2.0, 1.0, 0.5], "seed": 3}
        elif field == "m":
            payload["preset"] = "movies_style"
        scenario = write_json(tmp_path / "s.json", {**payload, field: value})
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == VALIDATION_EXIT
        assert f"{scenario}: field {field!r} must be an integer, got {value}" in capsys.readouterr().err
        assert not out.exists()


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

    def test_near_uniform_preset_labeler_learns(self, tmp_path):
        # a near-uniform movies-style labeler once left every triplet of labeler 4 at the moment floor (exit 3)
        scenario = write_json(tmp_path / "s.json",
                              {"kind": "ranking", "n": 200, "rho": 4, "preset": "movies_style", "m": 6, "seed": 13})
        out, model_path = tmp_path / "out", tmp_path / "model.json"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert main(["learn", "--dataset", str(out), "--model", str(model_path)]) == 0
        assert np.isfinite(json.loads(model_path.read_text())["thetas"]).all()

    def test_triplets_option_is_gone(self, tmp_path, ranking_scenario, capsys):
        # one triplet estimator: the option that chose between two is a usage error
        out = tmp_path / "out"
        main(["generate", "--scenario", str(ranking_scenario), "--out", str(out)])
        code = main(["learn", "--dataset", str(out), "--model", str(tmp_path / "m.json"), "--triplets", "median"])
        assert code == 1
        assert "--triplets" in capsys.readouterr().err

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

    def test_one_item_rankings_exit_validation(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        rows = ["task_id,lf_id,perm"] + [f'{t},{a},"0"' for t in range(5) for a in range(4)]
        (out / "dataset.csv").write_text("\n".join(rows) + "\n")
        code = main(["learn", "--dataset", str(out), "--model", str(tmp_path / "m.json")])
        assert code == VALIDATION_EXIT
        assert "rho = 1" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

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

    def test_long_rankings_deterministic(self, tmp_path):
        # at rho = 20 the movies-style labelers leave tasks with majority-graph components on both
        # sides of EXACT_MAX_RHO: the subset program orders the small ones, local search the rest
        scenario = write_json(tmp_path / "s.json",
                              {"kind": "ranking", "n": 200, "rho": 20, "preset": "movies_style", "m": 30, "seed": 7})
        data_dir, a, b = tmp_path / "data", tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--scenario", str(scenario), "--out", str(data_dir)]) == 0
        for out in (a, b):
            assert main(["infer", "--dataset", str(data_dir), "--out", str(out), "--rule", "mv"]) == 0
        assert sorted(tree_bytes(a)) == ["manifest.json", "pseudolabels.csv"]
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

    def test_mv_of_labels_near_the_float_limit_writes_finite_pseudolabels(self, tmp_path, capsys):
        # each task's three labels of 1e308 sum past float64's range, but their mean is 1e308
        dataset = _write_lines(tmp_path / "data" / "dataset.csv",
                               ["task_id,lf_id,value", *(f"{t},{a},1e308" for t in range(2) for a in range(3))])
        out = tmp_path / "pred"
        assert main(["infer", "--dataset", str(dataset.parent), "--out", str(out), "--rule", "mv"]) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "pseudolabels.csv").read_text().splitlines()
        assert rows[0] == "task_id,label"
        labels = np.array([float(row.split(",")[1]) for row in rows[1:]])
        assert labels.shape == (2,) and np.isfinite(labels).all()
        np.testing.assert_allclose(labels, 1e308, rtol=1e-12)


    @pytest.mark.parametrize("rule", ["mv", "weighted"])
    def test_negative_seed_exits_validation(self, tmp_path, capsys, generated, rule):
        # at rho = 5 no local search runs to use the seed; it is refused all the same
        data_dir, model = generated
        out = tmp_path / "pred"
        assert main(["infer", "--dataset", str(data_dir), "--model", str(model), "--out", str(out),
                     "--rule", rule, "--seed", "-1"]) == VALIDATION_EXIT
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_validation_where_local_search_runs(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "s.json",
                              {"kind": "ranking", "seed": 3, "n": 200, "rho": 14, "preset": "movies_style", "m": 12})
        data_dir, out = tmp_path / "data", tmp_path / "pred"
        assert main(["generate", "--scenario", str(scenario), "--out", str(data_dir)]) == 0
        assert main(["infer", "--dataset", str(data_dir), "--out", str(out), "--rule", "mv",
                     "--seed", "-1"]) == VALIDATION_EXIT
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestGraphRoundTrip:
    SCENARIO = {"kind": "graph", "n_nodes": 40, "n_edges": 120, "n": 60, "thetas": [2.0, 1.5, 1.0, 0.8, 0.5],
                "seed": 4}

    @pytest.fixture
    def generated(self, tmp_path):
        data_dir, model = tmp_path / "data", tmp_path / "model.json"
        assert main(["generate", "--scenario", str(write_json(tmp_path / "s.json", self.SCENARIO)),
                     "--out", str(data_dir)]) == 0
        assert main(["learn", "--dataset", str(data_dir), "--model", str(model)]) == 0
        return data_dir, model

    @pytest.mark.parametrize("rule", ["mv", "weighted"])
    def test_infer_with_truth(self, tmp_path, generated, rule):
        data_dir, model = generated
        out = tmp_path / "pred"
        assert main(["infer", "--dataset", str(data_dir), "--model", str(model), "--out", str(out),
                     "--rule", rule, "--truth", str(data_dir / "truth.csv")]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert sorted(metrics) == ["accuracy", "mean_distance", "n"]
        assert metrics["n"] == 60 and 0.0 <= metrics["accuracy"] <= 1.0 and metrics["mean_distance"] >= 0.0
        assert len((out / "pseudolabels.csv").read_text().splitlines()) == 1 + 60

    @pytest.mark.parametrize("node", [40, -1])
    def test_truth_node_outside_the_space_exits_validation(self, tmp_path, capsys, generated, node):
        # node 40 would index past the 40-node space, node -1 would wrap to its last node
        data_dir, model = generated
        header, first, *rest = (data_dir / "truth.csv").read_text().splitlines()
        truth = _write_lines(tmp_path / "truth.csv", [header, f"0,{node}", *rest])
        assert first.startswith("0,")
        assert main(["infer", "--dataset", str(data_dir), "--model", str(model), "--out", str(tmp_path / "pred"),
                     "--rule", "weighted", "--truth", str(truth)]) == VALIDATION_EXIT
        err = capsys.readouterr().err
        assert f"{truth}: task 0 has truth node {node}, outside 0..39" in err and "Traceback" not in err
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


    @pytest.mark.parametrize("flag", [False, True], ids=["field", "flag"])
    def test_negative_seed_exits_validation(self, tmp_path, capsys, sweep_scenario, flag):
        argv = ["sweep", "--scenario", str(sweep_scenario), "--out", str(tmp_path / "out")]
        if flag:
            argv += ["--seed", "-3"]
        else:
            write_json(sweep_scenario, {**json.loads(sweep_scenario.read_text()), "seed": -3})
        assert main(argv) == VALIDATION_EXIT
        err = capsys.readouterr().err
        if flag:
            assert "--seed must be a non-negative integer, got -3" in err
        else:
            assert f"{sweep_scenario}: field 'seed' must be a non-negative integer, got -3" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("seed", True), ("replicates", True), ("grid", {"n": [200, True]}), ("grid", {"m": [True, 3]}),
        ("base", {"rho": True, "thetas": [1.5, 1.0, 0.7, 0.5]}),
    ], ids=["seed", "replicates", "grid_n", "grid_m", "base_rho"])
    def test_json_booleans_are_not_integers(self, tmp_path, capsys, sweep_scenario, field, value):
        write_json(sweep_scenario, {**json.loads(sweep_scenario.read_text()), field: value})
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(sweep_scenario), "--out", str(out)]) == VALIDATION_EXIT
        name = field if not isinstance(value, dict) else next(iter(value))
        assert f"{sweep_scenario}: field {name!r} must be an integer, got True" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rules", ["mv", ["mv", 3], ["weighted", "median"], {"mv": True}, None])
    def test_rules_are_checked(self, tmp_path, capsys, sweep_scenario, rules):
        # a string would be read letter by letter, as the rules 'm' and 'v'
        write_json(sweep_scenario, {**json.loads(sweep_scenario.read_text()), "rules": rules})
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(sweep_scenario), "--out", str(out)]) == VALIDATION_EXIT
        assert f"{sweep_scenario}: field 'rules' must be a list of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", [0, -5])
    def test_grid_n_below_one_exits_validation(self, tmp_path, capsys, sweep_scenario, n):
        # a negative n used to reach the derived seed's SeedSequence, which raised numpy's own error
        write_json(sweep_scenario, {**json.loads(sweep_scenario.read_text()), "grid": {"n": [200, n]}})
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(sweep_scenario), "--out", str(out)]) == VALIDATION_EXIT
        assert f"{sweep_scenario}: grids and replicates must be nonempty, each n at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_rules_leave_the_learn_rows(self, tmp_path, sweep_scenario):
        write_json(sweep_scenario, {**json.loads(sweep_scenario.read_text()), "rules": []})
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(sweep_scenario), "--out", str(out)]) == 0
        metrics = {line.split(",")[3] for line in (out / "results.csv").read_text().splitlines()[1:]}
        assert metrics == {"theta_rel_err", "loglog_slope_theta_rel_err"}


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


class TestInProcessCalls:
    """main may be called again and again in one process: each call parses anew and runs
    the command the module holds under its name when the call is made."""

    def test_replaced_command_runs_after_earlier_calls(self, tmp_path, ranking_scenario, monkeypatch, capsys):
        data = tmp_path / "data"
        assert main(["generate", "--scenario", str(ranking_scenario), "--out", str(data)]) == 0
        assert main(["infer", "--dataset", str(data), "--out", str(tmp_path / "mv"), "--rule", "mv"]) == 0
        assert main(["infer", "--dataset", str(data)]) == 1  # a usage error: --out is missing
        assert main(["infer", "--dataset", str(tmp_path / "none"), "--out", str(tmp_path / "o")]) == VALIDATION_EXIT
        calls = []
        monkeypatch.setattr(uws.cli, "cmd_infer", lambda args: calls.append(args) or 7)
        assert main(["infer", "--dataset", str(data), "--out", str(tmp_path / "pred"), "--rule", "mv"]) == 7
        assert [(args.command, args.dataset, args.rule, args.seed) for args in calls] == [("infer", str(data), "mv", 0)]
        assert not (tmp_path / "pred").exists()

    def test_pipeline_twice_writes_identical_bytes(self, tmp_path, monkeypatch):
        graph = {"kind": "graph", "n_nodes": 30, "n_edges": 60, "n": 40, "thetas": [2.0, 1.0, 0.5], "seed": 5}
        reals = {"kind": "regression", "n": 200, "accuracies": [0.9, 0.6, 0.3], "lf_noise": [0.2, 0.4, 0.8],
                 "prior_var": 1.0, "seed": 5}
        trees = []
        for run in ("first", "second"):  # the same relative paths, so the manifests match too
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            for name, scenario, learn in (("graph", graph, []), ("reals", reals, ["--path", "isotropic"])):
                write_json(Path(f"{name}.json"), scenario)
                assert main(["generate", "--scenario", f"{name}.json", "--out", name]) == 0
                assert main(["learn", "--dataset", name, "--model", f"{name}.model.json", *learn]) == 0
                assert main(["infer", "--dataset", name, "--model", f"{name}.model.json", "--out", f"{name}.pred",
                             "--truth", f"{name}/truth.csv"]) == 0
            trees.append({str(p): p.read_bytes() for p in sorted(Path().rglob("*")) if p.is_file()})
        assert len(trees[0]) == 17 and trees[0] == trees[1]


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


RANKINGS = {"kind": "ranking", "n": 200, "rho": 5, "thetas": [2.0, 1.5, 1.0, 1.0]}
GRAPH = {"kind": "graph", "n_nodes": 8, "n_edges": 12, "n": 200, "thetas": [2.0, 1.5, 1.0, 1.0]}
REALS = {"kind": "regression", "n": 300, "accuracies": [0.8, 0.7, 0.6, 0.5, 0.5, 0.4, 0.4, 0.3],
         "lf_noise": [1.0] * 8, "prior_var": 1.0}


def _generated(tmp_path, name, payload):
    scenario = write_json(tmp_path / f"{name}.json", {"seed": 1, **payload})
    assert main(["generate", "--scenario", str(scenario), "--out", str(tmp_path / name)]) == 0
    return tmp_path / name


def _weighted_infer(tmp_path, model_payload, data_payload, path="continuous", edit=None):
    """``infer --rule weighted`` of a dataset of one scenario with a model learned on another."""
    model = tmp_path / "model.json"
    assert main(["learn", "--dataset", str(_generated(tmp_path, "a", model_payload)), "--model", str(model),
                 "--path", path]) == 0
    if edit:
        model.write_text(json.dumps({**json.loads(model.read_text()), **edit}))
    return ["infer", "--dataset", str(_generated(tmp_path, "b", data_payload)), "--model", str(model),
            "--out", str(tmp_path / "o"), "--rule", "weighted"]


def _case_mds_exponent(value):
    def case(tmp_path):
        dist = _write_lines(tmp_path / "dist.csv", SPACE)
        return ["mds", "--dist", str(dist), "--dim", "1", "--out", str(tmp_path / "e"), f"--exponent={value}"]
    return case


def _case_unfactorable_regression(tmp_path):
    scenario = write_json(tmp_path / "s.json", {"kind": "regression", "n": 5, "accuracies": [0.9, 0.6],
                                                "lf_cov": [[1.81, 1.54], [1.54, 1.3599999999999999]],
                                                "prior_var": 1.0, "seed": 1})
    return ["generate", "--scenario", str(scenario), "--out", str(tmp_path / "o")]


def _case_asymmetric_regression(tmp_path):
    scenario = write_json(tmp_path / "s.json", {"kind": "regression", "n": 5, "accuracies": [0.5, 0.5],
                                                "lf_cov": [[1.0, 0.9], [0.0, 1.0]], "prior_var": 1.0, "seed": 1})
    return ["generate", "--scenario", str(scenario), "--out", str(tmp_path / "o")]


MALFORMED_WITHOUT_TRACEBACK = {
    "model_dims_list": lambda p: _weighted_infer(p, RANKINGS, RANKINGS, edit={"dims": []}),
    "model_dims_string": lambda p: _weighted_infer(p, RANKINGS, RANKINGS, edit={"dims": "rho"}),
    "model_dims_number": lambda p: _weighted_infer(p, RANKINGS, RANKINGS, edit={"dims": 5}),
    "graph_model_dims_list": lambda p: _weighted_infer(p, GRAPH, GRAPH, path="isotropic", edit={"dims": []}),
    "more_real_labelers": lambda p: _weighted_infer(p, REALS, {**REALS, "accuracies": REALS["accuracies"][:5],
                                                                "lf_noise": [1.0] * 5}, path="isotropic"),
    "more_ranking_labelers": lambda p: _weighted_infer(p, RANKINGS, {**RANKINGS, "thetas": [2.0, 1.5, 1.0]}),
    "other_rho": lambda p: _weighted_infer(p, RANKINGS, {**RANKINGS, "rho": 6}),
    "other_n_points": lambda p: _weighted_infer(p, GRAPH, {**GRAPH, "n_nodes": 9}, path="isotropic"),
    "unfactorable_regression": _case_unfactorable_regression,
    "asymmetric_regression": _case_asymmetric_regression,
    "mds_exponent_0": _case_mds_exponent("0"),
    "mds_exponent_-1": _case_mds_exponent("-1"),
    "mds_exponent_nan": _case_mds_exponent("nan"),
    "mds_exponent_inf": _case_mds_exponent("inf"),
}


@pytest.mark.parametrize("field, value", [("theta_matrix", [0.5] * 8), ("theta_matrix", np.eye(7).tolist()),
                                          ("accuracies", [0.5] * 7), ("expected_distances", [0.5] * 9),
                                          ("pairwise_moments", [[1.0] * 8])])
def test_model_field_of_the_wrong_shape_exits_validation(tmp_path, capsys, field, value):
    argv = _weighted_infer(tmp_path, REALS, REALS, path="isotropic", edit={field: value})
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'model.json'}: field {field!r} must have shape" in err and "Traceback" not in err


@pytest.mark.parametrize("case", sorted(MALFORMED_WITHOUT_TRACEBACK))
def test_malformed_input_exits_validation_without_traceback(tmp_path, capsys, case):
    argv = MALFORMED_WITHOUT_TRACEBACK[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()  # no output directory for a refused command
