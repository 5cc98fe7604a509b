"""File-format round trips and byte determinism."""

import json
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    reference_fmt,
    reference_read_dataset,
    reference_read_distance_matrix,
    reference_read_labels,
    reference_read_truth,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    uio.write_edge_list(path, edges)
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
            uio.write_truth(path, values, lm.REAL_VECTOR)
            rows = [f"{i},{reference_fmt(v)}" for i, v in enumerate(values.tolist())]
            assert path.read_text() == "\n".join(["task_id,value", *rows]) + "\n"
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
