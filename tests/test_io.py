"""File-format round trips and byte determinism."""

import hashlib
import json
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from conftest import (
    reference_canonical_json,
    reference_fmt,
    reference_read_dataset,
    reference_read_distance_matrix,
    reference_read_labels,
    reference_read_truth,
    reference_write_csv,
    reference_write_labels,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uws import __version__
from uws import io as uio
from uws import label_model as lm
from uws import synthetic as syn
from uws.errors import InvalidArgumentError, InvalidMetricError
from uws.metric_spaces import FiniteMetricSpace, classical_mds, graph_hop_metric


def test_canonical_json_deterministic_and_nan_free():
    payload = {"b": np.float64(1.5), "a": np.array([1.0, np.nan]), "c": np.int64(3)}
    text = uio.canonical_json(payload)
    assert text == uio.canonical_json(payload)
    assert "NaN" not in text and "null" in text
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_config_hash_stable():
    assert uio.config_hash({"x": 1}) == uio.config_hash({"x": 1})
    assert uio.config_hash({"x": 1}) != uio.config_hash({"x": 2})


def _learned_models():
    """One model of each JSON shape: rankings (no theta_matrix), a graph (NaN accuracies),
    reals on the continuous route (a theta_matrix) and on the isotropic one (NaN accuracies)."""
    _, rankings = syn.gen_ranking_tasks(syn.RankingScenario(n=300, rho=4, thetas=(1.5, 1.0, 0.7), seed=5))
    _, _, nodes = syn.gen_graph_tasks(syn.GraphScenario(n_nodes=10, n_edges=16, n=300, thetas=(2.0, 1.0, 0.5),
                                                        seed=6))
    cov = np.outer([0.9, 0.6, 0.3], [0.9, 0.6, 0.3]) + np.diag([0.2, 0.4, 0.8])
    _, reals = syn.gen_regression_tasks(syn.RegressionScenario(n=500, accuracies=(0.9, 0.6, 0.3),
                                                               lf_cov=tuple(map(tuple, cov)), prior_var=1.0, seed=7))
    return [lm.learn_label_model(rankings), lm.learn_label_model(nodes),
            lm.learn_label_model(reals, prior=lm.SecondMomentPrior(1.0), path="continuous"),
            lm.learn_label_model(reals, path="isotropic")]


class TestJsonMatchesReference:
    """The JSON writers give the text of the element-by-element converter in conftest."""

    @pytest.mark.parametrize("index", range(4), ids=["ranking", "graph", "continuous", "isotropic"])
    def test_write_model(self, tmp_path, index):
        model = _learned_models()[index]
        uio.write_model(tmp_path / "model.json", model, extra_manifest={"config_hash_learn": "abc"})
        payload = uio.model_to_dict(model)
        payload["manifest"] = {"config_hash": hashlib.sha256(reference_canonical_json(payload).encode()).hexdigest(),
                               "version": __version__, "config_hash_learn": "abc"}
        assert (tmp_path / "model.json").read_text() == reference_canonical_json(payload)
        assert (model.theta_matrix is None) == (index < 2)
        assert np.isnan(model.accuracies).all() == (index in (1, 3))

    @pytest.mark.parametrize("value", [
        np.array([0.1, 1 / 3, -2.5e-300, np.inf, -0.0]), np.array([[1.0, np.nan], [np.nan, -np.inf]]),
        np.array([0.1, 1 / 3, np.nan], dtype=np.float32), np.array([0.1, 1 / 3], dtype=np.float32),
        np.array([[1, -2], [3, 2**62]]), np.array([True, False]), np.array(2.5), np.array(np.nan), np.array([]),
        np.zeros((0, 3)), np.array([1, 2], dtype=np.uint8), None, [np.float32(0.1), np.nan, True, np.int8(3)],
        {"embedding": {"kind": "mds", "dim": np.int64(2), "coords": np.eye(2),
                       "nested": {"acc": [np.array([np.nan])]}}},
    ], ids=lambda value: type(value).__name__ + str(getattr(value, "dtype", "")))
    def test_values(self, value):
        payload = {"value": value, "theta_matrix": None, "accuracies": np.full(3, np.nan), "dims": {"rho": 4}}
        assert uio.canonical_json(payload) == reference_canonical_json(payload)


class TestDatasetRoundTrip:
    def test_ranking(self, tmp_path):
        _, data = syn.gen_ranking_tasks(syn.RankingScenario(n=20, rho=11, thetas=(1.0,) * 3, seed=0))
        path = tmp_path / "dataset.csv"
        uio.write_dataset(path, data)
        back = uio.read_dataset(path)
        assert back.space_kind == lm.RANKING
        assert (back.labels == data.labels).all()

    def test_real(self, tmp_path):
        s = syn.RegressionScenario(n=15, accuracies=(0.5, 0.5, 0.5),
                                   lf_cov=tuple(map(tuple, np.eye(3) + 0.25)), prior_var=1.0, seed=1)
        _, data = syn.gen_regression_tasks(s)
        path = tmp_path / "dataset.csv"
        uio.write_dataset(path, data)
        back = uio.read_dataset(path)
        assert back.space_kind == lm.REAL_VECTOR
        np.testing.assert_array_equal(back.labels, data.labels)  # repr round-trips exactly

    def test_nodes(self, tmp_path):
        space, truth, data = syn.gen_graph_tasks(
            syn.GraphScenario(n_nodes=8, n_edges=12, n=10, thetas=(1.0,) * 3, seed=2)
        )
        path = tmp_path / "dataset.csv"
        uio.write_dataset(path, data)
        back = uio.read_dataset(path, space=space)
        assert back.space_kind == lm.FINITE_METRIC
        assert (back.labels == data.labels).all()

    def test_node_dataset_requires_space(self, tmp_path):
        space, _, data = syn.gen_graph_tasks(
            syn.GraphScenario(n_nodes=8, n_edges=12, n=5, thetas=(1.0,) * 3, seed=3)
        )
        path = tmp_path / "dataset.csv"
        uio.write_dataset(path, data)
        with pytest.raises(InvalidArgumentError):
            uio.read_dataset(path)

    def test_rejects_garbage_header(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(InvalidArgumentError):
            uio.read_dataset(path)


class TestTruthRoundTrip:
    def test_ranking_truth(self, tmp_path):
        truth, _ = syn.gen_ranking_tasks(syn.RankingScenario(n=12, rho=5, thetas=(1.0,) * 3, seed=4))
        path = tmp_path / "truth.csv"
        uio.write_truth(path, truth, lm.RANKING)
        kind, back = uio.read_truth(path)
        assert kind == lm.RANKING
        assert (back == truth).all()

    def test_ranking_cells_are_comma_joined_items(self, tmp_path):
        # the writer checks every ranking at once and joins the items itself
        truth, data = syn.gen_ranking_tasks(syn.RankingScenario(n=40, rho=12, thetas=(0.0, 0.5, 3.0), seed=8))
        uio.write_dataset(tmp_path / "dataset.csv", data)
        rows = [f"{t},{a},\"{','.join(map(str, p))}\"" for t, row in enumerate(data.labels.tolist())
                for a, p in enumerate(row)]
        assert (tmp_path / "dataset.csv").read_text() == "\n".join(["task_id,lf_id,perm", *rows]) + "\n"

    @pytest.mark.parametrize("bad", [[0, 0, 1], [0, 1, 3], [-1, 0, 1]])
    def test_ranking_writer_refuses_a_non_permutation(self, tmp_path, bad):
        truth = np.array([[2, 0, 1], bad, [0, 1, 2]])
        with pytest.raises(InvalidArgumentError, match=re.escape(f"ranking 1 is not a permutation of 0..2: {bad}")):
            uio.write_truth(tmp_path / "truth.csv", truth, lm.RANKING)

    @pytest.mark.parametrize("bad, shown", [([0.5, 1.2, 2.9], "0.5"), ([2.0, np.nan, 0.0], "nan"),
                                            ([0.0, 1.0, -np.inf], "-inf")], ids=["fractional", "nan", "inf"])
    @pytest.mark.parametrize("write", [uio.write_truth, uio.write_pseudolabels], ids=["truth", "pseudolabels"])
    def test_ranking_writer_refuses_a_fractional_entry(self, tmp_path, write, bad, shown):
        # refused, not truncated to a permutation such as 0,1,2
        labels = np.array([[2.0, 0.0, 1.0], bad])
        with pytest.raises(InvalidArgumentError, match=f"ranking labels must be integers, got {shown}"):
            write(tmp_path / "labels.csv", labels, lm.RANKING)
        assert not (tmp_path / "labels.csv").exists()

    @pytest.mark.parametrize("labels, kind", [(np.array([0, 1, 2]), lm.RANKING),
                                              (np.zeros((2, 0), dtype=np.int64), lm.RANKING),
                                              (np.array(2.5), lm.REAL_VECTOR)],
                             ids=["ranking_one_axis", "ranking_no_items", "real_no_axis"])
    @pytest.mark.parametrize("write", [uio.write_truth, uio.write_pseudolabels], ids=["truth", "pseudolabels"])
    def test_label_writer_refuses_a_wrong_shape(self, tmp_path, write, labels, kind):
        with pytest.raises(InvalidArgumentError, match=re.escape(f"got shape {labels.shape}")):
            write(tmp_path / "labels.csv", labels, kind)
        assert not (tmp_path / "labels.csv").exists()

    # each such file the reader refuses: "value nan is not finite", a node cell such as "2.5" or
    # "1.0" in its integer column, and a header without data rows
    @pytest.mark.parametrize("labels, kind, message", [
        (np.array([0.5, np.nan]), lm.REAL_VECTOR, "real label 1 is not finite: nan"),
        (np.array([[-np.inf], [0.5]]), lm.REAL_VECTOR, "real label 0 is not finite: -inf"),
        (np.array([1.0, 2.5]), lm.FINITE_METRIC, "node labels must be integers, got 2.5"),
        (np.array([np.inf, 1.0]), lm.FINITE_METRIC, "node labels must be integers, got inf"),
        (np.empty(0), lm.REAL_VECTOR, "real_vector labels must hold at least one label, got shape (0,)"),
        (np.empty(0, dtype=np.int64), lm.FINITE_METRIC,
         "finite_metric labels must hold at least one label, got shape (0,)"),
        (np.empty((0, 3), dtype=np.int64), lm.RANKING, "ranking labels must hold at least one label, got shape (0, 3)"),
    ], ids=["real_nan", "real_inf", "node_fractional", "node_inf", "real_empty", "node_empty", "ranking_empty"])
    @pytest.mark.parametrize("write", [uio.write_truth, uio.write_pseudolabels], ids=["truth", "pseudolabels"])
    def test_label_writer_refuses_what_the_reader_refuses(self, tmp_path, write, labels, kind, message):
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            write(tmp_path / "labels.csv", labels, kind)
        assert not (tmp_path / "labels.csv").exists()

    @pytest.mark.parametrize("kind, labels, message", [
        (lm.REAL_VECTOR, np.array([[1.0, 2.0], [0.5, np.nan]]), "real label 3 is not finite: nan"),
        (lm.FINITE_METRIC, np.array([[0.0, 1.0], [2.0, 0.5]]), "node labels must be integers, got 0.5"),
        (lm.REAL_VECTOR, np.zeros((2, 0)), "real_vector labels must hold at least one label, got shape (2, 0)"),
        (lm.RANKING, np.zeros((0, 2, 3), dtype=np.int64),
         "ranking labels must hold at least one label, got shape (0, 2, 3)"),
    ], ids=["real_nan", "node_fractional", "no_labelers", "no_tasks"])
    def test_dataset_writer_refuses_what_the_reader_refuses(self, tmp_path, kind, labels, message):
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            uio.write_dataset(tmp_path / "dataset.csv", SimpleNamespace(space_kind=kind, labels=labels))
        assert not (tmp_path / "dataset.csv").exists()

    def test_integral_node_labels_are_written_as_integers(self, tmp_path):
        # the integer reader refuses a cell such as "1.0", so node labels are written as integers
        path = tmp_path / "truth.csv"
        uio.write_truth(path, np.array([1.0, 2.0, 0.0]), lm.FINITE_METRIC)
        assert path.read_text() == "task_id,node\n0,1\n1,2\n2,0\n"
        kind, back = uio.read_truth(path)
        assert kind == lm.FINITE_METRIC and back.dtype == np.int64 and back.tolist() == [1, 2, 0]

    def test_real_truth(self, tmp_path):
        truth = np.array([0.25, -1.5, 3.125e-7])
        path = tmp_path / "truth.csv"
        uio.write_truth(path, truth, lm.REAL_VECTOR)
        kind, back = uio.read_truth(path)
        assert kind == lm.REAL_VECTOR
        np.testing.assert_array_equal(back, truth)


class TestModelRoundTrip:
    def test_ranking_model(self, tmp_path):
        _, data = syn.gen_ranking_tasks(syn.RankingScenario(n=500, rho=5, thetas=(1.5, 1.0, 0.7), seed=5))
        model = lm.learn_label_model(data)
        path = tmp_path / "model.json"
        uio.write_model(path, model)
        back = uio.read_model(path)
        assert back.space_kind == model.space_kind
        assert back.dims == model.dims
        np.testing.assert_allclose(back.thetas, model.thetas)
        np.testing.assert_allclose(back.pairwise_moments, model.pairwise_moments)
        assert back.version == model.version

    def test_nan_accuracies_survive_as_null(self, tmp_path):
        space, truth, data = syn.gen_graph_tasks(
            syn.GraphScenario(n_nodes=10, n_edges=16, n=300, thetas=(2.0, 1.0, 0.5), seed=6)
        )
        model = lm.learn_label_model(data)
        path = tmp_path / "model.json"
        uio.write_model(path, model)
        back = uio.read_model(path)
        assert np.isnan(back.accuracies).all()

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"space_kind": "ranking"}\n')
        with pytest.raises(InvalidArgumentError, match="path"):
            uio.read_model(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{oops")
        with pytest.raises(InvalidArgumentError, match="malformed"):
            uio.read_model(path)


def test_edge_list_round_trip(tmp_path):
    edges = [(0, 1), (1, 2), (0, 3)]
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n0 3\n")
    assert uio.read_edge_list(path) == edges


def test_edge_list_rejects_bad_line(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2 3\n")
    with pytest.raises(InvalidArgumentError):
        uio.read_edge_list(path)


def test_distance_matrix_round_trip(tmp_path):
    space = graph_hop_metric([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    path = tmp_path / "dist.csv"
    uio.write_distance_matrix(path, space)
    back = uio.read_distance_matrix(path)
    np.testing.assert_array_equal(back.dist, space.dist)


def test_embedding_writer(tmp_path):
    space = graph_hop_metric([(0, 1), (1, 2)], 3)
    report = classical_mds(space, dim=1)
    coords_path, json_path = uio.write_embedding(tmp_path / "emb", report)
    assert coords_path.exists() and json_path.exists()
    text = json_path.read_text()
    for key in ("dim", "epsilon", "scale", "exponent"):
        assert f'"{key}"' in text


def test_embedding_names_extend_the_whole_prefix(tmp_path):
    # a dotted prefix keeps its last part: two runs' files sit side by side
    report = classical_mds(graph_hop_metric([(0, 1), (1, 2)], 3), dim=1)
    for run in ("emb.run1", "emb.run2"):
        paths = uio.write_embedding(tmp_path / run, report)
        assert paths == (tmp_path / f"{run}.coords.csv", tmp_path / f"{run}.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "emb.run1.coords.csv", "emb.run1.json", "emb.run2.coords.csv", "emb.run2.json"]


RING = graph_hop_metric([(k, (k + 1) % 7) for k in range(7)], 7)


def _random_labels(kind, shape, rho, rng, floats):
    if kind == lm.RANKING:
        return np.argsort(rng.random((*shape, rho)), axis=-1)
    if kind == lm.REAL_VECTOR:
        return floats[: int(np.prod(shape))].reshape(shape)
    return rng.integers(0, RING.size, size=shape)


def _shuffle_rows(path, rng):
    header, *body = Path(path).read_text().splitlines()
    Path(path).write_text("\n".join([header, *rng.permutation(body)]) + "\n")


EDGE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300])


def _read_both(path, id_columns):
    """(result, exception) of the array reader and of the reference reader on ``path``;
    ``id_columns`` None reads a distance matrix."""
    readers = ((lambda p: uio.read_distance_matrix(p).dist, reference_read_distance_matrix) if id_columns is None
               else (lambda p: uio._read_labels(p, id_columns), lambda p: reference_read_labels(p, id_columns)))
    outcomes = []
    for read in readers:
        try:
            outcomes.append((read(path), None))
        except Exception as exc:  # the exception type is compared
            outcomes.append((None, exc))
    return outcomes


def _same_arrays(got, want):
    if isinstance(want, tuple):  # (space kind, labels)
        assert got[0] == want[0]
        got, want = got[1], want[1]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bit for bit: -0.0, subnormals and NaN included


class TestReadersMatchReference:
    """The array reader against the readers it replaced, on shuffled valid files: the per-cell
    readers before the codec table, and the csv row loop with per-cell parsers before the array reader."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from([lm.RANKING, lm.REAL_VECTOR, lm.FINITE_METRIC]),
           n=st.integers(1, 8), m=st.integers(1, 6), rho=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           floats=hnp.arrays(np.float64, 56, elements=EDGE_FLOATS))
    def test_dataset_and_truth(self, kind, n, m, rho, seed, floats):
        rng = np.random.default_rng(seed)
        data = lm.LabelingMatrix(kind, _random_labels(kind, (n, m), rho, rng, floats), space=RING)
        truth = _random_labels(kind, (n,), rho, rng, floats[::-1])
        with tempfile.TemporaryDirectory() as tmp:
            dataset, truth_path = Path(tmp) / "dataset.csv", Path(tmp) / "truth.csv"
            uio.write_dataset(dataset, data)
            uio.write_truth(truth_path, truth, kind)
            _shuffle_rows(dataset, rng)
            _shuffle_rows(truth_path, rng)
            got, want = uio.read_dataset(dataset, space=RING), reference_read_dataset(dataset, space=RING)
            assert got.space_kind == want.space_kind == kind
            assert got.labels.dtype == want.labels.dtype
            assert np.array_equal(got.labels, want.labels)
            got_kind, got_truth = uio.read_truth(truth_path)
            want_kind, want_truth = reference_read_truth(truth_path)
            assert got_kind == want_kind == kind
            assert got_truth.dtype == want_truth.dtype
            assert np.array_equal(got_truth, want_truth) and np.array_equal(got_truth, truth)
            for path, id_columns in ((dataset, ["task_id", "lf_id"]), (truth_path, ["task_id"])):
                (got, got_exc), (want, want_exc) = _read_both(path, id_columns)
                assert got_exc is None and want_exc is None
                _same_arrays(got, want)

    @settings(max_examples=60, deadline=None)
    @given(points=hnp.arrays(np.float64, st.integers(1, 7), elements=EDGE_FLOATS.filter(lambda x: abs(x) < 1e150)),
           integral=st.booleans())
    def test_distance_matrices(self, points, integral):
        if integral:
            points = np.floor(np.clip(points, -1e6, 1e6))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "space.csv"
            uio.write_csv(path, None, np.abs(points[:, None] - points[None, :]).tolist())
            (got, got_exc), (want, want_exc) = _read_both(path, None)
        assert type(got_exc) is type(want_exc)
        if want_exc is None:
            _same_arrays(got, want)
        else:
            assert str(got_exc) == str(want_exc)


class TestReaderRejects:
    def _dataset(self, tmp_path, rows, column="node"):
        path = tmp_path / "dataset.csv"
        path.write_text("\n".join([f"task_id,lf_id,{column}", *rows]) + "\n")
        return path

    @pytest.mark.parametrize("rows", [
        ["0,0,1", "0,0,1", "1,0,2"],                   # duplicate (0, 0), (1, 0) present, n*m = 2 rows short
        ["0,0,1", "0,1,2", "1,0,3", "1,0,4"],          # duplicate (1, 0) in place of (1, 1)
        ["0,0,1", "1,1,2"],                            # missing (0, 1) and (1, 0)
        ["-1,0,1", "1,0,2"],                           # negative task id
        ["0,-1,1", "0,1,2"],                           # negative labeler id
    ])
    def test_bad_ids(self, tmp_path, rows):
        with pytest.raises(InvalidArgumentError, match="each"):
            uio.read_dataset(self._dataset(tmp_path, rows), space=RING)

    def test_short_row_names_line(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="dataset.csv:3: expected 3 fields"):
            uio.read_dataset(self._dataset(tmp_path, ["0,0,1", "0,1"]), space=RING)

    def test_ragged_perm_names_line(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text('task_id,perm\n0,0\n1,"1,0"\n2,0\n')
        with pytest.raises(InvalidArgumentError, match="truth.csv:3: expected 1 items in the perm cell, got 2"):
            uio.read_truth(path)

    def test_truth_ids_with_gap(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("task_id,node\n0,1\n2,3\n3,4\n")
        with pytest.raises(InvalidArgumentError, match="truth.csv"):
            uio.read_truth(path)

    def test_vector_real_labels_do_not_serialize(self, tmp_path):
        # a LabelingMatrix refuses them, so only a truth or pseudolabel array can hold them
        with pytest.raises(InvalidArgumentError, match="scalar"):
            uio.write_truth(tmp_path / "truth.csv", np.zeros((2, 2)), lm.REAL_VECTOR)
        with pytest.raises(InvalidArgumentError, match="scalar"):
            uio.write_pseudolabels(tmp_path / "pseudolabels.csv", np.zeros((2, 2)), lm.REAL_VECTOR)


PERMS = ["1,0,2", "2,1,0", "0,1,2"]
BASES = {  # small valid files, as rows of cells
    "dataset_perm": [["task_id", "lf_id", "perm"],
                     *([str(t), str(a), f'"{PERMS[(t + a) % 3]}"'] for t in range(3) for a in range(2))],
    "dataset_value": [["task_id", "lf_id", "value"],
                      *([str(t), str(a), repr(0.5 * t - a)] for t in range(3) for a in range(2))],
    "dataset_node": [["task_id", "lf_id", "node"], *([str(t), str(a), str((t + a) % 3)] for t in range(3) for a in range(2))],
    "truth_perm": [["task_id", "perm"], *([str(t), f'"{PERMS[t]}"'] for t in range(3))],
    "truth_value": [["task_id", "value"], *([str(t), repr(t / 3)] for t in range(3))],
    "truth_node": [["task_id", "node"], *([str(t), str(t)] for t in range(3))],
    "space": [["0.0", "1.0", "2.0"], ["1.0", "0.0", "1.0"], ["2.0", "1.0", "0.0"]],
}


def _cell(text):
    """A corruption that sets one cell of the third row to ``text`` (a function of the old cell)."""
    def corrupt(rows, col):
        rows = [list(row) for row in rows]
        rows[2][col] = text(rows[2][col]) if callable(text) else text
        return rows
    return corrupt


CORRUPTIONS = {  # (rows, column of the cell to change) -> rows, or None for an empty file
    "blank_line": lambda rows, col: [*rows[:2], [], *rows[2:]],
    "trailing_blank_line": lambda rows, col: [*rows, []],
    "short_row": lambda rows, col: [*rows[:2], rows[2][:-1], *rows[3:]],
    "long_row": lambda rows, col: [*rows[:2], [*rows[2], "0"], *rows[3:]],
    "header_only": lambda rows, col: rows[:1],
    "empty_file": lambda rows, col: None,
    "ragged_perm": _cell('"0,1"'),
    "long_perm": _cell('"0,1,2,3"'),
    "repeated_item": _cell('"0,0,1"'),
    "unquoted_perm": _cell(lambda cell: cell.strip('"')),
    "non_numeric": _cell("abc"),
    "empty_cell": _cell(""),
    "nan": _cell("nan"),
    "inf": _cell("inf"),
    "minus_inf": _cell("-inf"),
    "huge": _cell("1e400"),
    "fractional": _cell("1.0"),
    "exponent": _cell("1e0"),
    "negative": _cell("-1"),
    "overflow": _cell("99999999999999999999"),
    "padded": _cell(lambda cell: f" {cell} "),
    "hash": _cell(lambda cell: f"{cell}#0"),
    "quoted_number": _cell(lambda cell: cell if cell.startswith('"') else f'"{cell}"'),
    "crlf": lambda rows, col: rows,
}


class TestArrayReaderRefusesAsReference:
    """On broken (or oddly written) files the array reader accepts or refuses as the reference
    does, with the same exception type and the path in the message; a row of the wrong width
    is reported with the same line and counts."""

    @pytest.mark.parametrize("col", [0, -1], ids=["first_cell", "label_cell"])
    @pytest.mark.parametrize("base,corruption", [
        pytest.param(base, corruption, id=f"{base}-{corruption}")
        for base in sorted(BASES) for corruption in sorted(CORRUPTIONS)
        if (base, corruption) != ("space", "nan")  # refused on purpose: TestArrayReaderDecisions
    ])
    def test_corruption(self, tmp_path, base, corruption, col):
        rows = CORRUPTIONS[corruption](BASES[base], col)
        newline = "\r\n" if corruption == "crlf" else "\n"
        path = tmp_path / f"{base}.csv"
        path.write_text("" if rows is None else "".join(",".join(row) + newline for row in rows), newline="")
        (got, got_exc), (want, want_exc) = _read_both(path, None if base == "space" else BASES[base][0][:-1])
        assert type(got_exc) is type(want_exc), (got_exc, want_exc)
        if want_exc is None:
            _same_arrays(got, want)
            return
        assert isinstance(want_exc, (InvalidArgumentError, InvalidMetricError))
        assert str(path) in str(got_exc)
        if corruption == "non_numeric":  # the corrupted cell is on the third line of every file
            assert str(got_exc).startswith(f"{path}:3: "), got_exc
        width_error = re.match(rf"({re.escape(str(path))}:\d+:) expected \d+ fields", str(want_exc))
        if width_error:  # the same line, though a quote out of place may give another reason
            assert str(got_exc).startswith(width_error[1])


class TestArrayReaderDecisions:
    """Where the array reader deliberately refuses what the reference accepted."""

    @pytest.mark.parametrize("base,col,text", [
        ("dataset_node", -1, "1_0"), ("dataset_value", 0, "0_0"), ("dataset_value", -1, "1_000.5"),
        ("truth_perm", -1, '"0,1_0,2"'), ("space", 1, "1_0"),
    ])
    def test_underscored_digits(self, tmp_path, base, col, text):
        # int() and float() read "1_0" as 10; numpy's parser, like C's strtod, does not
        path = tmp_path / "file.csv"
        path.write_text("".join(",".join(row) + "\n" for row in _cell(text)(BASES[base], col)))
        with pytest.raises(InvalidArgumentError, match=re.escape(str(path))):
            if base == "space":
                uio.read_distance_matrix(path)
            else:
                uio._read_labels(path, BASES[base][0][:-1])

    @pytest.mark.parametrize("col", [0, 1, 2])
    def test_nan_distance(self, tmp_path, col):
        # every comparison with NaN is false, so the reference's checks all passed it
        path = tmp_path / "space.csv"
        path.write_text("".join(",".join(row) + "\n" for row in _cell("nan")(BASES["space"], col)))
        assert np.isnan(reference_read_distance_matrix(path)[2, col])
        with pytest.raises(InvalidMetricError, match=re.escape(f"{path}: distance matrix holds NaN")):
            uio.read_distance_matrix(path)

    def test_unclosed_quote(self, tmp_path):
        # csv reads an unclosed quoted cell to the end of the file
        path = tmp_path / "truth.csv"
        path.write_text('task_id,value\n0,0.5\n1,"1.5\n')
        assert reference_read_labels(path, ["task_id"])[1].tolist() == [0.5, 1.5]
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}:3: unbalanced quotes")):
            uio.read_truth(path)

    def test_only_blank_lines(self, tmp_path):
        path = tmp_path / "space.csv"
        path.write_text("\n\n")
        with pytest.raises(InvalidMetricError):
            reference_read_distance_matrix(path)
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}: no rows")):
            uio.read_distance_matrix(path)

    def test_integer_read_via_a_float_refused(self, tmp_path, monkeypatch):
        # numpy from 1.23 on reads "3.0" into an integer column with this warning until the deprecation expires
        loadtxt = np.loadtxt

        def warning_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning, stacklevel=2)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = tmp_path / "truth.csv"
        path.write_text("task_id,node\n0,1\n1,3\n")
        with pytest.raises(InvalidArgumentError, match=re.escape(str(path))):
            uio.read_truth(path)

    def test_permutation_error_names_line(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text('task_id,perm\n0,"0,1,2"\n1,"2,2,0"\n')
        with pytest.raises(InvalidArgumentError, match=re.escape(f"{path}:3: perm [2, 2, 0] is not a permutation")):
            uio.read_truth(path)


def _csv_lines(raw):
    """``raw`` with csv's line ends, ``\\r\\n`` and ``\\r``, as ``\\n``, and a last one added if missing."""
    raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return raw if raw.endswith(b"\n") else raw + b"\n"


def _scan_outcome(scan, path):
    try:
        return scan(path)
    except InvalidArgumentError as exc:
        return str(exc)


def _same_scan(path):
    """Whether ``path`` takes the pattern scan, after checking that the reader returns what
    the full scan returns on the same bytes, (text, commas) or the message it raises."""
    raw = _csv_lines(path.read_bytes())
    got = _scan_outcome(uio._read_table, path)
    want = _scan_outcome(lambda p: (raw.decode(), uio._scan_commas(p, raw)), path)
    commas = uio._pattern_commas(raw)
    if isinstance(want, str):
        assert got == want and commas is None
        return False
    assert got[0] == want[0]
    for counts in (got[1], commas):
        assert counts is None or (counts.dtype == want[1].dtype and np.array_equal(counts, want[1]))
    return commas is not None


def _write_library_file(path, kind, role, labels_seed, floats):
    """A file as the library writes it: a dataset or truth of ``kind`` (rankings of 1 to 5
    items), or with ``role`` "space" a distance matrix of 1 to 7 points."""
    rng = np.random.default_rng(labels_seed)
    if role == "space":
        points = np.floor(rng.random(int(rng.integers(1, 8))) * 8) / rng.choice([1.0, 3.0])
        uio.write_distance_matrix(path, FiniteMetricSpace(np.abs(points[:, None] - points[None, :])))
        return
    n, m, rho = (int(v) for v in rng.integers(1, 6, size=3))
    if role == "dataset":
        uio.write_dataset(path, lm.LabelingMatrix(kind, _random_labels(kind, (n, m), rho, rng, floats), space=RING))
    else:
        uio.write_truth(path, _random_labels(kind, (n,), rho, rng, floats), kind)


LIBRARY_FILES = dict(kind=st.sampled_from([lm.RANKING, lm.REAL_VECTOR, lm.FINITE_METRIC]),
                     role=st.sampled_from(["dataset", "truth", "space"]), labels_seed=st.integers(0, 2**32 - 1),
                     floats=hnp.arrays(np.float64, 25, elements=EDGE_FLOATS))


class TestPatternScan:
    """The pattern scan accepts a file only where the full scan does, with the same result; on
    any other file the reader gives what the full scan gives, the same text and commas or the
    same message."""

    @settings(max_examples=300, deadline=None)
    @given(**LIBRARY_FILES, edits=st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                                                     st.integers(0, 2**16), st.sampled_from(b',"\n\r0123456789')),
                                           max_size=4))
    def test_byte_edits(self, kind, role, labels_seed, floats, edits):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{role}.csv"
            _write_library_file(path, kind, role, labels_seed, floats)
            raw = bytearray(path.read_bytes())
            for edit, at, byte in edits:
                at %= len(raw) + 1
                if edit == "insert":
                    raw.insert(at, byte)
                elif at < len(raw):
                    if edit == "replace":
                        raw[at] = byte
                    else:
                        del raw[at]
            path.write_bytes(bytes(raw))
            _same_scan(path)

    @pytest.mark.parametrize("text,pattern", [
        ("task_id,node\n0,1\n\n1,2\n", False),            # a blank line in the middle
        ("0.0\n\n", False),                                # a blank line in a one-column file
        ("task_id,node\n0,1\n1,2", True),                  # a last line without its line end
        ("task_id,node\r\n0,1\r\n1,2\r\n", True),
        ("task_id,node\r0,1\r1,2\r", True),
        ("0.0\n", True),                                   # space.csv of one point
        ("0.0", True),
        ("0.0\n1.0\n", True),
        ("a,b,c\n1,2,x\"3,4\"\n", False),                   # a quote inside a cell
        ('a,b,c\n1,2,"3,4"\n', True),
        ('a,b,c\n1,2,"3,4"x\n', False),
        ('a,b\n1,"2\n', False),                             # an unclosed quote on the only data line
        ('a,b,c\n1,2,""\n', True),                         # an empty quoted cell
        ('a,b,c\n1,2,"3,4"\n5,6,"7",8\n', False),
        ("a,b\n1,2,3\n4,5,6\n", False),                     # a header narrower than the data lines
        ("a,b,c,d\n1,2,3\n", False),                        # and wider
        ('"a",b\n1,2\n', False),                           # a quoted header cell: valid, full scan
        ('a,b\n"1",2\n3,4\n', False),                      # a cell quoted on one line only: valid, full scan
        ("\n0,1\n", False),                                 # a blank first line
        ("", False),
    ])
    def test_cases(self, tmp_path, text, pattern):
        path = tmp_path / "file.csv"
        path.write_bytes(text.encode())
        assert _same_scan(path) is pattern

    @settings(max_examples=100, deadline=None)
    @given(**LIBRARY_FILES)
    def test_every_library_file_takes_the_pattern_scan(self, kind, role, labels_seed, floats):
        # the full scan raising here means a writer change moved valid files onto the slow path
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
                uio, "_scan_commas", side_effect=AssertionError("the full scan ran")):
            path = Path(tmp) / f"{role}.csv"
            _write_library_file(path, kind, role, labels_seed, floats)
            if role == "space":
                uio.read_distance_matrix(path)
            elif role == "dataset":
                uio.read_dataset(path, space=RING)
            else:
                uio.read_truth(path)

    def test_generated_scenarios_take_the_pattern_scan(self, tmp_path, monkeypatch):
        monkeypatch.setattr(uio, "_scan_commas", mock.Mock(side_effect=AssertionError("the full scan ran")))
        ranking = syn.gen_ranking_tasks(syn.RankingScenario(n=30, rho=10, thetas=(1.0,) * 4, seed=0))
        regression = syn.gen_regression_tasks(syn.RegressionScenario(
            n=30, accuracies=(0.5, 0.5, 0.5), lf_cov=tuple(map(tuple, np.eye(3) + 0.25)), prior_var=1.0, seed=1))
        space, *graph = syn.gen_graph_tasks(syn.GraphScenario(n_nodes=9, n_edges=12, n=30, thetas=(1.0,) * 3, seed=2))
        uio.write_distance_matrix(tmp_path / "space.csv", space)
        assert np.array_equal(uio.read_distance_matrix(tmp_path / "space.csv").dist, space.dist)
        for truth, data in (ranking, regression, graph):
            uio.write_dataset(tmp_path / "dataset.csv", data)
            uio.write_truth(tmp_path / "truth.csv", truth, data.space_kind)
            assert np.array_equal(uio.read_dataset(tmp_path / "dataset.csv", space=space).labels, data.labels)
            assert np.array_equal(uio.read_truth(tmp_path / "truth.csv")[1], truth)


class TestNumberCellsMatchPerCellText:
    """Numbers handed to csv as they are give the bytes of the per-cell formatter."""

    FLOATS = st.floats(width=64) | st.sampled_from([-0.0, 5e-324, 1e300, 0.1, 1 / 3, 2.0**53 + 2])

    @settings(max_examples=60, deadline=None)
    @given(values=hnp.arrays(np.float64, st.tuples(st.integers(1, 6)) | st.tuples(st.integers(1, 6), st.just(1)),
                             elements=FLOATS),
           nodes=hnp.arrays(np.int64, st.integers(1, 6), elements=st.integers(0, 2**62)))
    def test_truth_and_embedding(self, values, nodes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "truth.csv"
            if np.isfinite(values).all():
                uio.write_truth(path, values, lm.REAL_VECTOR)
                rows = [f"{i},{reference_fmt(v)}" for i, v in enumerate(values.tolist())]
                assert path.read_text() == "\n".join(["task_id,value", *rows]) + "\n"
            else:  # the reader refuses a non-finite label, so the writer does
                with pytest.raises(InvalidArgumentError, match="is not finite"):
                    uio.write_truth(path, values, lm.REAL_VECTOR)
            uio.write_pseudolabels(path, nodes, lm.FINITE_METRIC)
            rows = [f"{i},{reference_fmt(v)}" for i, v in enumerate(nodes.tolist())]
            assert path.read_text() == "\n".join(["task_id,label", *rows]) + "\n"
            coords = np.stack([values.ravel(), values.ravel()[::-1]], axis=1)
            coords_path, _ = uio.write_embedding(Path(tmp) / "emb", replace(classical_mds(RING, 1), coords=coords))
            assert coords_path.read_text() == "".join(f"{reference_fmt(a)},{reference_fmt(b)}\n"
                                                      for a, b in coords.tolist())

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 6), elements=st.floats(-1e6, 1e6)))
    def test_distance_matrix(self, points):
        space = FiniteMetricSpace(np.abs(points[:, None] - points[None, :]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "space.csv"
            uio.write_distance_matrix(path, space)
            assert path.read_text() == "".join(",".join(map(reference_fmt, row)) + "\n"
                                               for row in space.dist.tolist())


# float cells of every kind the writer tells apart: integral floats in [0, 2**53)
# (table lookups when a whole array is such), then -0.0, 2**53 and beyond, the
# least subnormal, infinities, NaN and fractions (repr)
WHOLE_FLOATS = st.integers(0, 40).map(float) | st.integers(0, 2**53 - 1).map(float)
EDGE_FLOATS = st.sampled_from([-0.0, 2.0**53, 2.0**53 + 2, 1e16, 5e-324, np.inf, -np.inf, np.nan, 0.1, -3.0])
FLOAT_CELLS = st.sampled_from([WHOLE_FLOATS, EDGE_FLOATS | st.floats(width=64), WHOLE_FLOATS | EDGE_FLOATS])
INT_CELLS = st.sampled_from([st.integers(0, 5), st.integers(-7, 2**20), st.integers(-2**63, 2**63 - 1)])
# one row, one column, or a few of each
SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 4))
TEXT_CELLS = st.text(st.sampled_from('ab ,"\n\r\t\'#') | st.characters(max_codepoint=0x2030), max_size=6)


@st.composite
def _number_arrays(draw, shape):
    if draw(st.booleans()):
        return draw(hnp.arrays(np.float64, shape, elements=draw(FLOAT_CELLS)))
    return draw(hnp.arrays(np.int64, shape, elements=draw(INT_CELLS)))


def _written(write, *args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write(path, *args)
        return path.read_bytes()


class TestArrayWriterMatchesCsv:
    """Every writer gives the bytes csv.writer gave, cell for cell."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), shape=SHAPES)
    def test_numbers(self, data, shape):
        values = data.draw(_number_arrays(shape))
        assert _written(uio.write_csv, None, values) == _written(reference_write_csv, None, values.tolist())
        with tempfile.TemporaryDirectory() as tmp:
            coords_path, _ = uio.write_embedding(Path(tmp) / "emb", replace(classical_mds(RING, 1), coords=values))
            assert coords_path.read_bytes() == _written(reference_write_csv, None, values.tolist())
        # the label writers take what the reader reads back: finite reals, integer nodes
        column = values[:, :1]
        finite = bool(np.isfinite(values).all())
        kinds = [(lm.REAL_VECTOR, "value")] * finite + [(lm.FINITE_METRIC, "node")] * (values.dtype.kind == "i")
        for kind, label in kinds:
            for name, write in ((label, uio.write_truth), ("label", uio.write_pseudolabels)):
                assert _written(write, column, kind) == _written(reference_write_labels, ["task_id", name], kind, column)
        if finite:
            dataset = SimpleNamespace(space_kind=lm.REAL_VECTOR, labels=values)
            assert _written(uio.write_dataset, dataset) == _written(
                reference_write_labels, ["task_id", "lf_id", "value"], lm.REAL_VECTOR, values)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), m=st.integers(1, 3), rho=st.sampled_from([1, 2, 3, 12]))
    def test_rankings(self, data, n, m, rho):
        perms = np.array(data.draw(st.lists(st.permutations(range(rho)), min_size=n * m, max_size=n * m)))
        labels = perms.reshape(n, m, rho)
        assert _written(uio.write_dataset, lm.LabelingMatrix(lm.RANKING, labels)) == _written(
            reference_write_labels, ["task_id", "lf_id", "perm"], lm.RANKING, labels)
        assert _written(uio.write_truth, labels[:, 0], lm.RANKING) == _written(
            reference_write_labels, ["task_id", "perm"], lm.RANKING, labels[:, 0])

    def test_distance_matrix(self):
        space = graph_hop_metric([(k, k + 1) for k in range(29)] + [(0, 15)], 30)
        assert _written(uio.write_distance_matrix, space) == _written(reference_write_csv, None, space.dist.tolist())

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), width=st.integers(1, 5), k=st.integers(0, 5))
    def test_rows_of_python_values(self, data, width, k):
        # sweep rows: ints, strings and floats; a column may mix them, and may hold None
        cells = st.one_of(st.integers(-2**70, 2**70), TEXT_CELLS, st.floats(width=64), st.none(), st.booleans())
        columns = [data.draw(st.sampled_from([st.integers(0, 9), st.floats(width=64), TEXT_CELLS, cells]))
                   for _ in range(width)]
        rows = [tuple(data.draw(column) for column in columns) for _ in range(k)]
        header = data.draw(st.none() | st.lists(TEXT_CELLS, min_size=width, max_size=width))
        # the same rows as an object array take the array path
        array = np.empty((k, width), dtype=object)
        for i, row in enumerate(rows):
            array[i] = row
        if any("\n" in cell or "\r" in cell for row in [header or [], *rows] for cell in row if isinstance(cell, str)):
            # the reader would end a line inside such a cell: refused, not written
            for given in (rows, array):
                with tempfile.TemporaryDirectory() as tmp, pytest.raises(InvalidArgumentError, match="line break"):
                    uio.write_csv(Path(tmp) / "out.csv", header, given)
            return
        assert _written(uio.write_csv, header, rows) == _written(reference_write_csv, header, rows)
        assert _written(uio.write_csv, header, array) == _written(reference_write_csv, header, rows)

    @pytest.mark.parametrize("header, rows, text", [
        (None, np.array([[0.0, 3.0], [3.0, 0.0]]), "0.0,3.0\n3.0,0.0\n"),
        (None, np.array([[-0.0, 2.0**53, 1e16, 5e-324, np.inf, np.nan, 7.0]]),
         "-0.0,9007199254740992.0,1e+16,5e-324,inf,nan,7.0\n"),
        (None, np.array([[-2**63, 2**63 - 1]]), "-9223372036854775808,9223372036854775807\n"),
        (["n", "metric"], [(1, 'x,"y"'), (20, ""), (3, "a\tb")], 'n,metric\n1,"x,""y"""\n20,\n3,a\tb\n'),
        (["n", "metric"], [], "n,metric\n"),
        ([""], [("",), (None,), (1.5,)], '""\n""\n""\n1.5\n'),
        (None, np.array([[""], ["a"]], dtype=object), '""\na\n'),
        (["x"], np.array([["a"], [None], [""]], dtype=object), 'x\na\n""\n""\n'),
        (None, np.array([[""], ["b"]]), '""\nb\n'),
        # an array of another rank is refused, naming its shape (csv.writer fails on the first two)
        (None, np.array([1.0, 2.0]), None),
        (None, np.array(3.0), None),
        (["x"], np.array([], dtype=object), None),
        (None, np.zeros((2, 1, 1)), None),
    ], ids=["integral", "edge_floats", "int64_ends", "quoted", "header_only", "lone_empty_cell", "lone_empty_object",
            "lone_none_object", "lone_empty_str", "1d", "0d", "empty_1d", "3d"])
    def test_literal_cells(self, tmp_path, header, rows, text):
        if text is None:
            shape = re.escape(f"2-D array or a list of rows, got shape {rows.shape}")
            with pytest.raises(InvalidArgumentError, match=shape):
                uio.write_csv(tmp_path / "out.csv", header, rows)
            assert not (tmp_path / "out.csv").exists()
            return
        assert _written(uio.write_csv, header, rows).decode() == text
        assert _written(reference_write_csv, header, rows.tolist() if isinstance(rows, np.ndarray) else rows) == (
            text.encode())

    def test_numpy_float_cells_read_back(self, tmp_path):
        # np.float64 is a float whose repr on numpy 2 reads "np.float64(0.5)"; its cell is the Python float's repr
        rows = [(np.float64(0.0), np.float64(0.5)), (np.float64(0.5), -0.0)]
        assert _written(uio.write_csv, ["a", "b"], rows).decode() == "a,b\n0.0,0.5\n0.5,-0.0\n"
        path = tmp_path / "dist.csv"
        uio.write_csv(path, None, np.array(rows, dtype=object))
        assert path.read_text() == "0.0,0.5\n0.5,-0.0\n"
        np.testing.assert_array_equal(uio.read_distance_matrix(path).dist, [[0.0, 0.5], [0.5, 0.0]])

    @pytest.mark.parametrize("perm, row", [([0], "0,0\n"), ([1, 0], '0,"1,0"\n'), ([2, 0, 1], '0,"2,0,1"\n')])
    def test_ranking_cell_quoted_when_it_holds_a_comma(self, perm, row):
        assert _written(uio.write_truth, np.array([perm]), lm.RANKING).decode() == "task_id,perm\n" + row

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_line_breaks_refused(self, tmp_path, brk):
        # _read_table ends a line at \n and \r alike, so such a cell would not read back
        path = tmp_path / "out.csv"
        for header, rows, at in [
            (["n", "metric"], [(1, "ok"), (2, f"a{brk}b")], "row 1, column 1"),
            (["n", "metric"], [(brk, "ok")], "row 0, column 0"),
            (["n", f"met{brk}ric"], [(1, "ok")], "header column 1"),
            (None, np.array([["a", "b"], ["c", brk]], dtype=object), "row 1, column 1"),
        ]:
            with pytest.raises(InvalidArgumentError, match=f"^CSV cell at {at} \\(counted from 0\\) holds a line break"):
                uio.write_csv(path, header, rows)
            assert not path.exists()

    @pytest.mark.parametrize("header, rows, message", [
        ([], [(1,), (2,)], "a CSV header row needs at least one cell"),
        (["a", "b"], [(1,), (2,)], "CSV header width 2 differs from the rows' width 1"),
        (["a"], np.ones((2, 2)), "CSV header width 1 differs from the rows' width 2"),
        ([], [], "a CSV header row needs at least one cell"),
        (["a", "b"], np.empty((0, 3)), "CSV header width 2 differs from the rows' width 3"),
    ], ids=["empty_header", "wider_header", "narrower_header", "empty_header_no_rows", "no_rows_of_an_array"])
    def test_header_as_wide_as_the_rows(self, tmp_path, header, rows, message):
        # the reader needs every line as wide as the first, and a first line that is not blank
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            uio.write_csv(tmp_path / "out.csv", header, rows)
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("rows", [[(1, 2), (3,)], [(), ()]])
    def test_rows_need_one_width(self, tmp_path, rows):
        with pytest.raises(InvalidArgumentError, match="same number of cells"):
            uio.write_csv(tmp_path / "out.csv", None, rows)


def _nan_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=st.floats(allow_infinity=False, width=64))


@st.composite
def _models(draw):
    m = draw(st.integers(1, 6))
    fields = {key: draw(_nan_arrays(shape)) for key, shape in (
        ("expected_distances", m), ("accuracies", m), ("pairwise_moments", (m, m)))}
    for key, arr in fields.items():  # at least one NaN in every array field but the thetas
        arr.flat[draw(st.integers(0, arr.size - 1))] = np.nan
    thetas = draw(hnp.arrays(np.float64, m, elements=st.floats(allow_nan=False, allow_infinity=False)))
    return lm.LabelModel(space_kind=lm.REAL_VECTOR, path="isotropic", dims={"d": 1},
                         embedding={"kind": "identity"}, version="test", theta_matrix=None, thetas=thetas,
                         **fields)


class TestModelNanRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(model=_models())
    def test_nan_fields_and_missing_theta_matrix(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            uio.write_model(path, model)
            back = uio.read_model(path)
        for key in ("thetas", "expected_distances", "accuracies", "pairwise_moments"):
            got, want = getattr(back, key), getattr(model, key)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
        assert back.theta_matrix is None
        assert (back.space_kind, back.path, back.dims, back.embedding) == (
            model.space_kind, model.path, model.dims, model.embedding)

    @pytest.mark.parametrize("theta", [None, np.nan, np.inf, -np.inf])
    def test_non_finite_theta_refused_and_named(self, tmp_path, theta):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "space_kind": "real_vector", "path": "continuous", "dims": {"d": 1}, "thetas": [1.0, theta],
            "expected_distances": [0.5, 0.5], "accuracies": [None, 0.5], "pairwise_moments": np.eye(2).tolist(),
            "version": "x"}))
        with pytest.raises(InvalidArgumentError, match=r"model\.json: thetas must be finite; entry 1"):
            uio.read_model(path)

    def test_accuracies_required_and_named(self, tmp_path):
        path = tmp_path / "model.json"
        payload = {"space_kind": "real_vector", "path": "continuous", "dims": {"d": 1}, "thetas": [1.0],
                   "expected_distances": [0.5], "pairwise_moments": [[1.0]], "version": "x"}
        path.write_text(uio.canonical_json(payload))
        with pytest.raises(InvalidArgumentError, match=r"model\.json: missing field 'accuracies'"):
            uio.read_model(path)
