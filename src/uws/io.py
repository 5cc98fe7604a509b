"""File formats: datasets, truth files, models, embeddings, manifests.

All writers are byte-deterministic: JSON is emitted with sorted keys, floats
serialize via repr (shortest round-trip form), and no output embeds
timestamps or filesystem ordering. Rankings serialize as comma-separated
0-based indices ("2,0,1"); dataset CSVs are long format
(task_id, lf_id, label-column) with a parallel truth file.

One codec table, ``_CODECS``, maps each space kind to its label column
(perm, value, node), the cells of a label array (the text of each
ranking, numbers as they are), the array dtype of one item, whether a cell
is a quoted list of items, and which labels are valid (permutations,
finite numbers); every label file is written and read through it, so no
function branches on the space kind.

Label files and distance matrices are read by one array reader: the bytes
are scanned once for line ends, quotes and commas, which checks that quotes
enclose whole cells and that every line has the first line's width (a
blank line has none), and then every cell is parsed in one ``np.loadtxt``
call (a ranking's quoted cell as ``rho`` integer columns). Label files must
further hold integer ids exactly 0..n-1 (x 0..m-1 for datasets), each
once, in any row order, and valid labels. Any fault raises
InvalidArgumentError naming the file, with ``file:line`` for a row of the
wrong width, a misplaced quote or an invalid label.
"""

import csv
import hashlib
import io as _io
import json
import math
import re
import warnings
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
from .permutations import perm_to_str

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


def _is_permutation(perms):
    """Which rows of a (k, rho) array are permutations of 0..rho-1."""
    return (np.sort(perms, axis=1) == np.arange(perms.shape[1])).all(axis=1)


# how each space kind's labels appear in a file: the label column, the cells
# of a (k, ...) label array, the array dtype of one item, whether a cell is a
# quoted list of items, and which labels read back are valid (and what a
# valid one is)
_Codec = namedtuple("_Codec", "column cells dtype listed valid what")
_CODECS = {
    RANKING: _Codec("perm", _perm_cells, np.int64, True, _is_permutation, "a permutation"),
    REAL_VECTOR: _Codec("value", _number_cells, np.float64, False, np.isfinite, "finite"),
    FINITE_METRIC: _Codec("node", _number_cells, np.int64, False, np.isfinite, "finite"),
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


def _read_table(path):
    """The text of a CSV file, every line as wide as the first, and the commas
    on each line, those inside quoted cells included.

    One pass over the bytes: a line ends at ``\\n``, ``\\r\\n`` or ``\\r`` (as for
    csv), quotes enclose whole cells (so every line holds an even number of
    them and a comma after an odd number is inside a quoted cell), and a line
    holds one field more than its other commas (a blank line none).
    """
    raw = Path(path).read_bytes()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends, quotes, commas = (np.flatnonzero(buf == ord(c)) for c in "\n\",")

    def per_line(at):
        return np.diff(np.searchsorted(at, ends), prepend=0)

    odd = np.flatnonzero(per_line(quotes) % 2)
    if odd.size:
        raise InvalidArgumentError(f"{path}:{odd[0] + 1}: unbalanced quotes")
    # as csv reads it, a quote opens a cell after a separator and closes it before one
    side = np.resize([-1, 1], quotes.size)
    stray = quotes[~np.isin(buf[quotes + side], (ord(","), ord("\n")))]
    if stray.size:
        raise InvalidArgumentError(f"{path}:{np.searchsorted(ends, stray[0]) + 1}: a quote inside a cell")
    fields = per_line(commas[np.searchsorted(quotes, commas) % 2 == 0]) + 1
    fields[np.diff(ends, prepend=-1) == 1] = 0
    if not fields.any():
        raise InvalidArgumentError(f"{path}: no rows")
    ragged = np.flatnonzero(fields != fields[0])
    if ragged.size:
        ln = ragged[0]
        raise InvalidArgumentError(f"{path}:{ln + 1}: expected {fields[0]} fields, got {fields[ln]}")
    try:
        return raw.decode(), per_line(commas)
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc


def _loadtxt(path, text, dtype, ndmin, first_line):
    """The comma-separated cells of ``text`` (a quoted cell unquoted) as an
    array of ``dtype``, parsed in one call; a cell that does not parse names the
    file and its line, ``text`` starting at line ``first_line`` of the file."""
    try:
        with warnings.catch_warnings():
            # numpy from 1.23 on reads "3.0" into an integer column with this warning until the
            # deprecation expires; int() refuses it
            warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float", DeprecationWarning)
            return np.loadtxt(_io.StringIO(text), dtype=dtype, delimiter=",", comments=None, quotechar='"',
                              ndmin=ndmin)
    except (ValueError, OverflowError, DeprecationWarning) as exc:
        # numpy counts the rows of ``text`` from 0 (every line is a row: blank lines are refused
        # before this), and its columns after a quoted list is split, so only the row is kept
        at = re.search(r" at row (\d+), column \d+", str(exc))
        if at is None:
            raise InvalidArgumentError(f"{path}: {exc}") from exc
        raise InvalidArgumentError(f"{path}:{first_line + int(at[1])}: {str(exc).replace(at[0], '')}") from exc


def _read_labels(path, id_columns):
    """(space kind, labels indexed by the id columns) of a long-format label CSV."""
    text, commas = _read_table(path)
    head, _, body = text.partition("\n")
    *header, label_column = head.replace('"', "").split(",")
    kind = _KINDS.get(label_column)
    if header != id_columns or kind is None or len(commas) < 2:
        raise InvalidArgumentError(
            f"{path}: expected header {','.join(id_columns)},<perm|value|node> and data rows"
        )
    codec = _CODECS[kind]
    label_shape = ()
    if codec.listed:  # the items of the quoted label cell become columns of their own
        items = commas - len(id_columns) + 1
        ragged = np.flatnonzero(items[1:] != items[1]) + 1
        if ragged.size:
            ln = ragged[0]
            raise InvalidArgumentError(f"{path}:{ln + 1}: expected {items[1]} items in the {codec.column} "
                                       f"cell, got {items[ln]}")
        label_shape = (int(items[1]),)
        body = body.replace('"', "")
    table = _loadtxt(path, body, [("ids", np.int64, len(id_columns)), ("label", codec.dtype, label_shape)],
                     ndmin=1, first_line=2)
    index = tuple(table["ids"].T)
    shape = tuple(int(ids.max()) + 1 for ids in index)
    if (min(ids.min() for ids in index) < 0 or math.prod(shape) != len(table)
            or not (np.bincount(np.ravel_multi_index(index, shape)) == 1).all()):
        raise InvalidArgumentError(
            f"{path}: ids must be 0..n-1 for each of {', '.join(id_columns)}, every combination once"
        )
    values = table["label"]
    bad = np.flatnonzero(~codec.valid(values))
    if bad.size:
        raise InvalidArgumentError(
            f"{path}:{bad[0] + 2}: {codec.column} {values[bad[0]].tolist()} is not {codec.what}"
        )
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
    thetas = arr("thetas")
    bad = np.flatnonzero(~np.isfinite(thetas))
    if bad.size:  # a learned theta is always finite; only accuracies have a NaN (null) meaning
        raise InvalidArgumentError(f"{where}: thetas must be finite; entry {bad[0]} is null or non-finite")
    return LabelModel(
        space_kind=payload["space_kind"],
        path=payload["path"],
        dims=payload["dims"],
        thetas=thetas,
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
    rows = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), 1):
        cells = line.split()
        if cells and not cells[0].startswith("#"):
            if len(cells) != 2:
                raise InvalidArgumentError(f"{path}:{ln}: expected 2 fields, got {len(cells)}")
            rows.append(cells)
    if not rows:
        raise InvalidArgumentError(f"{path}: no rows")
    try:
        return [tuple(e) for e in np.array(rows, dtype=np.int64).tolist()]
    except (ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc


def write_distance_matrix(path, space):
    write_csv(path, None, space.dist.tolist())


def read_distance_matrix(path):
    dist = _loadtxt(path, _read_table(path)[0], np.float64, ndmin=2, first_line=1)
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
