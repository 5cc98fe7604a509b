"""File formats: datasets, truth files, models, embeddings, manifests.

All writers are byte-deterministic: JSON is emitted with sorted keys, floats
serialize via repr (shortest round-trip form), and no output embeds
timestamps or filesystem ordering. Rankings serialize as comma-separated
0-based indices ("2,0,1"); dataset CSVs are long format
(task_id, lf_id, label-column) with a parallel truth file.

One codec table, ``_CODECS``, maps each space kind to its label column
(perm, value, node), the cells of a label array (the text of each
ranking, numbers as they are), the parser of one cell and its array dtype;
every label file is written and read through it, so no function branches
on the space kind. Label files are read by one validating
reader: every row must have the header's width, every cell must parse
(to finite numbers), and the ids must be exactly 0..n-1 (x 0..m-1 for
datasets), each once, in any row order. Any fault raises
InvalidArgumentError naming the file (and ``file:line`` for a row of the
wrong width).
"""

import csv
import hashlib
import io as _io
import json
import math
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidArgumentError, InvalidMetricError
from .label_model import (
    FINITE_METRIC,
    RANKING,
    REAL_VECTOR,
    LabelingMatrix,
    LabelModel,
)
from .metric_spaces import FiniteMetricSpace
from .permutations import perm_from_str, perm_to_str

__all__ = [
    "canonical_json",
    "config_hash",
    "write_manifest",
    "write_csv",
    "write_dataset",
    "read_dataset",
    "write_truth",
    "read_truth",
    "write_model",
    "read_model",
    "read_json",
    "model_to_dict",
    "model_from_dict",
    "write_pseudolabels",
    "read_edge_list",
    "write_edge_list",
    "write_distance_matrix",
    "read_distance_matrix",
    "write_embedding",
]


def _perm_cells(labels):
    """The text of each ranking in a (k, rho) array."""
    return [perm_to_str(p) for p in labels.tolist()]


def _number_cells(labels):
    """Each scalar label of a (k, ...) array as a Python number, which csv writes
    in its shortest round-trip form (``str`` of a float is its ``repr``)."""
    width = math.prod(labels.shape[1:])
    if width != 1:
        raise InvalidArgumentError(f"only scalar real labels serialize to CSV, got {width} coordinates")
    return labels.reshape(-1).tolist()


# how each space kind's labels appear in a file: the label column, the cells
# of a (k, ...) label array, and the parser and array dtype of one cell
_Codec = namedtuple("_Codec", "column cells parse dtype")
_CODECS = {
    RANKING: _Codec("perm", _perm_cells, perm_from_str, np.int64),
    REAL_VECTOR: _Codec("value", _number_cells, float, np.float64),
    FINITE_METRIC: _Codec("node", _number_cells, int, np.int64),
}
_KINDS = {codec.column: kind for kind, codec in _CODECS.items()}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if np.isnan(f) else f
    return obj


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, no whitespace surprises, NaN -> null."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def config_hash(obj):
    """sha256 of the canonical JSON form, for regeneration manifests."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def write_manifest(path, config, seed=None, extra=None):
    payload = {"config_hash": config_hash(config), "seed": seed, "version": __version__}
    payload.update(extra or {})
    Path(path).write_text(canonical_json(payload))


def write_csv(path, header, rows):
    """Write ``rows`` as CSV text, after a ``header`` row unless it is None."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue())


def _write_labels(path, header, space_kind, labels):
    """One row per index of the leading ``len(header) - 1`` axes: the ids, then the label."""
    labels = np.asarray(labels)
    id_shape = labels.shape[: len(header) - 1]
    ids = np.indices(id_shape).reshape(len(id_shape), -1).tolist()
    cells = _CODECS[space_kind].cells(labels.reshape(-1, *labels.shape[len(id_shape):]))
    write_csv(path, header, zip(*ids, cells))


def _rows(path, numbered_rows, width=None):
    """The rows of a table, each as wide as ``width`` (by default the first row)."""
    rows = []
    for ln, row in numbered_rows:
        width = len(row) if width is None else width
        if len(row) != width:
            raise InvalidArgumentError(f"{path}:{ln}: expected {width} fields, got {len(row)}")
        rows.append(row)
    if not rows:
        raise InvalidArgumentError(f"{path}: no rows")
    return rows


def _read_csv(path):
    with open(path, newline="") as fh:
        return _rows(path, enumerate(csv.reader(fh), 1))


def _parse(path, cells, dtype, parse=None):
    """An array of ``cells`` (each through ``parse``, if given); a cell that does not parse names the file."""
    try:
        return np.array(cells if parse is None else [parse(c) for c in cells], dtype=dtype)
    except (ValueError, OverflowError) as exc:  # InvalidArgumentError is a ValueError
        raise InvalidArgumentError(f"{path}: {exc}") from exc


def _read_labels(path, id_columns):
    """(space kind, labels indexed by the id columns) of a long-format label CSV."""
    header, *body = _read_csv(path)
    kind = _KINDS.get(header[-1])
    if header[:-1] != id_columns or kind is None or not body:
        raise InvalidArgumentError(
            f"{path}: expected header {','.join(id_columns)},<perm|value|node> and data rows"
        )
    *id_cells, label_cells = zip(*body)
    index = tuple(_parse(path, id_cells, np.int64))
    shape = tuple(int(ids.max()) + 1 for ids in index)
    if (min(ids.min() for ids in index) < 0 or math.prod(shape) != len(body)
            or not (np.bincount(np.ravel_multi_index(index, shape)) == 1).all()):
        raise InvalidArgumentError(
            f"{path}: ids must be 0..n-1 for each of {', '.join(id_columns)}, every combination once"
        )
    values = _parse(path, label_cells, _CODECS[kind].dtype, _CODECS[kind].parse)
    if not np.isfinite(values).all():
        raise InvalidArgumentError(f"{path}: labels must be finite")
    labels = np.empty(shape + values.shape[1:], dtype=values.dtype)
    labels[index] = values
    return kind, labels


def write_dataset(path, data):
    """Long-format dataset CSV: one row per (task, labeler)."""
    header = ["task_id", "lf_id", _CODECS[data.space_kind].column]
    _write_labels(path, header, data.space_kind, data.labels)


def read_dataset(path, space=None):
    """Read a dataset CSV back into a LabelingMatrix.

    The label column name declares the space kind (perm, value, node);
    node datasets need the ``space`` argument.
    """
    kind, labels = _read_labels(path, ["task_id", "lf_id"])
    try:
        return LabelingMatrix(kind, labels, space=space)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc


def write_truth(path, truth, space_kind):
    _write_labels(path, ["task_id", _CODECS[space_kind].column], space_kind, truth)


def read_truth(path):
    """Read a truth CSV; returns (space_kind, array)."""
    return _read_labels(path, ["task_id"])


def model_to_dict(model):
    return {
        "space_kind": model.space_kind,
        "path": model.path,
        "dims": model.dims,
        "thetas": model.thetas,
        "expected_distances": model.expected_distances,
        "accuracies": model.accuracies,
        "pairwise_moments": model.pairwise_moments,
        "theta_matrix": model.theta_matrix,
        "embedding": model.embedding,
        "version": model.version,
    }


def model_from_dict(payload, where="model document"):
    def arr(key, none_ok=False):
        val = payload.get(key)
        if val is None:
            if none_ok:
                return None
            raise InvalidArgumentError(f"{where}: missing field {key!r}")
        try:
            return np.asarray(val, dtype=np.float64)  # JSON null entries read as NaN
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"{where}: field {key!r} is not numeric ({exc})") from exc

    for key in ("space_kind", "path", "dims", "version"):
        if key not in payload:
            raise InvalidArgumentError(f"{where}: missing field {key!r}")
    return LabelModel(
        space_kind=payload["space_kind"],
        path=payload["path"],
        dims=payload["dims"],
        thetas=arr("thetas"),
        expected_distances=arr("expected_distances"),
        accuracies=arr("accuracies"),
        pairwise_moments=arr("pairwise_moments"),
        embedding=payload.get("embedding", {}),
        version=payload["version"],
        theta_matrix=arr("theta_matrix", none_ok=True),
        estimates=None,
    )


def write_model(path, model, extra_manifest=None):
    payload = model_to_dict(model)
    payload["manifest"] = {
        "config_hash": config_hash(payload),
        "version": __version__,
        **(extra_manifest or {}),
    }
    Path(path).write_text(canonical_json(payload))


def read_json(path):
    """A JSON object from ``path``; malformed JSON or another top-level value names the file."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise InvalidArgumentError(f"{path}: expected a JSON object")
    return payload


def read_model(path):
    return model_from_dict(read_json(path), where=path)


def write_pseudolabels(path, labels, space_kind):
    _write_labels(path, ["task_id", "label"], space_kind, labels)


def write_edge_list(path, edges):
    Path(path).write_text("".join(f"{int(u)} {int(v)}\n" for u, v in edges))


def read_edge_list(path):
    """``u v`` pairs, one a line; blank lines and ``#`` comments are skipped."""
    lines = enumerate(Path(path).read_text().splitlines(), 1)
    rows = _rows(path, ((ln, line.split()) for ln, line in lines
                        if line.strip() and not line.strip().startswith("#")), width=2)
    return [tuple(e) for e in _parse(path, rows, np.int64).tolist()]


def write_distance_matrix(path, space):
    write_csv(path, None, space.dist.tolist())


def read_distance_matrix(path):
    dist = _parse(path, _read_csv(path), np.float64)
    try:
        return FiniteMetricSpace(dist)
    except InvalidMetricError as exc:
        raise InvalidMetricError(f"{path}: {exc}") from exc


def write_embedding(prefix, report):
    """Coordinates CSV plus a JSON descriptor (dim, epsilon, scale, exponent)."""
    prefix = Path(prefix)
    write_csv(prefix.with_suffix(".coords.csv"), None, report.coords.tolist())
    descriptor = {
        "dim": report.target_dim,
        "epsilon": report.epsilon,
        "scale": report.scale,
        "exponent": report.exponent,
    }
    prefix.with_suffix(".json").write_text(canonical_json(descriptor))
    return prefix.with_suffix(".coords.csv"), prefix.with_suffix(".json")
