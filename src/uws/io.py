"""File formats: datasets, truth files, models, embeddings, manifests.

All writers are byte-deterministic: JSON is emitted with sorted keys, floats
serialize via repr (shortest round-trip form), and no output embeds
timestamps or filesystem ordering. Rankings serialize as comma-separated
0-based indices ("2,0,1"); dataset CSVs are long format
(task_id, lf_id, label-column) with a parallel truth file.

One codec table, ``_CODECS``, maps each space kind to its label column
(perm, value, node), the item columns of a label array (a ranking's
``rho`` items, a number alone), the array dtype of one item, whether a
cell is a quoted list of items, and which labels are valid (permutations,
finite numbers); every label file is written and read through it, so no
function branches on the space kind. A label writer refuses what the reader
would: an empty label array, a non-permutation, a non-finite real, and a node
label that is not an integer (an integral float is written as its integer).

Every CSV is written by one array writer, with the bytes of Python's csv
module (minimal quoting, ``\\n`` line ends). It makes each column's text in
one pass: integers, and floats when every one of the array is integral, at
least 0, below 2**53 and not -0.0 (hop counts such as 3.0), are looked up
by offset in a table of ``str`` of their range; every other float is its
``repr``. A ranking's items are integer columns of their own, joined by
commas inside quotes when there are two or more. The cells and separators
are interleaved into one list, written with a single join.

Label files and distance matrices are read by one array reader. It checks
that quotes enclose whole cells and that every line has the first line's
width (a blank line has none), and then parses every cell in one
``np.loadtxt`` call (a ranking's quoted cell as ``rho`` integer columns).
The check is a pattern scan: one ``bytes.translate`` keeps a file's commas,
quotes and line ends in order, and the file passes at once when every line
after the first repeats the second line's sequence of them, that sequence
is valid, and the first line, without quotes, is as wide; the quote rule is
checked at the quote positions alone. Every file the library writes passes
so. Any other file falls back to the full scan, which locates every line
end, quote and comma and so finds and names a fault. Label files must
further hold integer ids exactly 0..n-1 (x 0..m-1 for datasets), each
once, in any row order, and valid labels. Any fault raises
InvalidArgumentError naming the file, with ``file:line`` for a row of the
wrong width, a misplaced quote or an invalid label.
"""

import dataclasses
import hashlib
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
from .permutations import _integers, item_positions

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
    "write_distance_matrix",
    "read_distance_matrix",
    "write_embedding",
]


def _perm_items(labels):
    """The items of each ranking of a (k, rho) array, as integer columns, checked to be permutations."""
    labels = _integers(labels, "ranking")
    bad = np.flatnonzero(~item_positions(labels)[1])
    if bad.size:
        raise InvalidArgumentError(f"ranking {bad[0]} is not a permutation of 0..{labels.shape[1] - 1}: "
                                   f"{labels[bad[0]].tolist()}")
    return labels


def _number_items(labels):
    """The scalar labels of a (k, ...) array as one column, checked to be finite."""
    width = math.prod(labels.shape[1:])
    if width != 1:
        raise InvalidArgumentError(f"only scalar real labels serialize to CSV, got {width} coordinates")
    column = labels.reshape(-1, 1)
    bad = np.flatnonzero(~np.isfinite(column))
    if bad.size:
        raise InvalidArgumentError(f"real label {bad[0]} is not finite: {column[bad[0], 0]}")
    return column


def _node_items(labels):
    """The node labels of a (k, ...) array as one column of integers: the reader takes no "1.0"."""
    return _number_items(_integers(labels, "node"))


# how each space kind's labels appear in a file: the label column, the (k, w)
# item columns of a (k, ...) label array (a ranking's items share one quoted
# cell), the array dtype of one item, whether a cell is a quoted list of
# items, and which labels read back are valid (and what a valid one is): a
# ranking's rows by the mask of permutations.item_positions, taken in file order.
# The items function refuses what the reader would: a non-permutation, a
# non-finite real, a node label that is not an integer
_Codec = namedtuple("_Codec", "column items dtype listed valid what")
_CODECS = {
    RANKING: _Codec("perm", _perm_items, np.int64, True, lambda v: item_positions(v)[1], "a permutation"),
    REAL_VECTOR: _Codec("value", _number_items, np.float64, False, np.isfinite, "finite"),
    FINITE_METRIC: _Codec("node", _node_items, np.int64, False, np.isfinite, "finite"),
}
_KINDS = {codec.column: kind for kind, codec in _CODECS.items()}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and not np.isnan(obj).any():
            return obj.tolist()  # Python floats already, none of them NaN
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


def _cell(value):
    """One cell as csv's minimal quoting writes it: None empty, a float (numpy's too) the repr of
    its Python float, anything else its str, quoted (quotes doubled) if it holds a comma or a quote."""
    text = "" if value is None else repr(float(value)) if isinstance(value, float) else str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _refuse_line_breaks(cells, width, header=False):
    """Refuse the first of the row-major ``cells``, ``width`` to a row, that holds
    ``\\n`` or ``\\r``: the reader ends a line there, so the file would not read back."""
    for k, text in enumerate(cells):
        if "\n" in text or "\r" in text:
            at = f"header column {k}" if header else f"row {k // width}, column {k % width}"
            raise InvalidArgumentError(f"CSV cell at {at} (counted from 0) holds a line break: {text!r}")


def _int_text(ints, suffix=""):
    """``str`` of each integer of a 1-D array, plus ``suffix``: taken by offset from a
    table of the array's range, unless that range is wider than twice the array."""
    lo, hi = int(ints.min()), int(ints.max())
    if hi - lo >= 2 * ints.size:
        return [text + suffix for text in map(str, ints.tolist())]
    table = np.array([text + suffix for text in map(str, range(lo, hi + 1))], dtype=object)
    return table[ints - lo].tolist()


def _number_text(values):
    """The text of each number of an array, row-major, as csv writes the Python
    number: integers, and floats when all are integral, in [0, 2**53) and not
    -0.0, by table lookup; other floats by ``repr``."""
    values = np.asarray(values).ravel()
    if not values.size:
        return []
    if values.dtype.kind in "iu":
        return _int_text(values)
    if values.dtype.kind != "f":
        return list(map(_cell, values.tolist()))
    if (~np.signbit(values) & (values < 2.0**53) & (np.floor(values) == values)).all():
        return _int_text(values.astype(np.int64), ".0")  # repr of such a float is its integer and ".0"
    return list(map(repr, values.tolist()))


def _write_rows(path, header, k, blocks, seps):
    """Write CSV text in one join: after the ``header`` row (unless None), ``k``
    rows whose cells are the ``blocks`` side by side, each a (cells, width) pair
    of the row-major cells of ``width`` adjacent columns, and each column's cell
    followed by its separator in ``seps``."""
    n = len(seps)
    row = [None] * (2 * n)
    row[1::2] = seps
    out = row * k
    col = 0
    for cells, width in blocks:
        if width == n:
            out[::2] = cells
        else:
            for j in range(width):
                out[2 * (col + j)::2 * n] = cells[j::width]
        col += width
    if n == 1:  # csv quotes a lone empty cell, so that no row is blank
        out[::2] = ['""' if text == "" else text for text in out[::2]]
    if header is not None:
        out.insert(0, (",".join(map(_cell, header)) or ('""' if len(header) == 1 else "")) + "\n")
    Path(path).write_text("".join(out))


def _refuse_header_width(header, width):
    """Refuse a ``header`` row (unless None) of no cells, or of another width than
    the rows' ``width`` (None when there are no rows to tell): the reader needs
    every line as wide as the first."""
    if header is None:
        return
    if not header:
        raise InvalidArgumentError("a CSV header row needs at least one cell")
    if width not in (None, len(header)):
        raise InvalidArgumentError(f"CSV header width {len(header)} differs from the rows' width {width}")


def write_csv(path, header, rows):
    """Write ``rows``, a 2-D array or equally wide rows of Python values, as CSV
    text after a ``header`` row unless it is None. A header of another width
    than the rows, and a cell whose text holds a line break, are refused, the
    cell with its row and column, before anything is written."""
    if header is not None:
        _refuse_line_breaks(list(map(_cell, header)), len(header), header=True)
    if isinstance(rows, np.ndarray) and rows.ndim != 2:
        raise InvalidArgumentError(f"CSV rows must be a 2-D array or a list of rows, got shape {rows.shape}")
    if isinstance(rows, np.ndarray) and rows.shape[1]:
        _refuse_header_width(header, rows.shape[1])
        text = _number_text(rows)
        if rows.dtype.kind not in "iuf":
            _refuse_line_breaks(text, rows.shape[1])
        _write_rows(path, header, len(rows), [(text, rows.shape[1])], [","] * (rows.shape[1] - 1) + ["\n"])
        return
    rows = list(rows)
    columns = list(zip(*rows))
    if rows and (not columns or any(len(row) != len(columns) for row in rows)):
        raise InvalidArgumentError("CSV rows must each hold the same number of cells, at least one")
    _refuse_header_width(header, len(columns) if rows else None)
    cells = [list(map(_cell, column)) for column in columns]
    _refuse_line_breaks([text for row in zip(*cells) for text in row], len(cells))
    _write_rows(path, header, len(rows), [(text, 1) for text in cells], [","] * (len(cells) - 1) + ["\n"])


def _write_labels(path, header, space_kind, labels):
    """One row per index of the leading ``len(header) - 1`` axes: the ids, then the label.

    What the reader would refuse is refused before anything is written: no
    label at all, and a label the codec's items function refuses."""
    labels = np.asarray(labels)
    codec = _CODECS[space_kind]
    n_ids = len(header) - 1
    # a listed label (a ranking) is one axis of at least one item
    if labels.ndim < n_ids or (codec.listed and (labels.ndim != n_ids + 1 or not labels.shape[-1])):
        listed = " and then one of at least one item" if codec.listed else ""
        raise InvalidArgumentError(f"{space_kind} labels must have one axis per id column ({', '.join(header[:-1])})"
                                   f"{listed}, got shape {labels.shape}")
    id_shape = labels.shape[:n_ids]
    if not math.prod(id_shape):
        raise InvalidArgumentError(f"{space_kind} labels must hold at least one label, got shape {labels.shape}")
    ids = np.indices(id_shape).reshape(n_ids, -1).T
    items = codec.items(labels.reshape(-1, *labels.shape[n_ids:]))
    quote = '"' if items.shape[1] > 1 else ""  # csv quotes a cell holding commas
    seps = [","] * (ids.shape[1] - 1) + ["," + quote] + [","] * (items.shape[1] - 1) + [quote + "\n"]
    blocks = [(_number_text(ids), ids.shape[1]), (_number_text(items), items.shape[1])]
    _write_rows(path, header, len(ids), blocks, seps)


# every byte but a line end, a quote and a comma: what ``bytes.translate`` deletes
# to leave the separators of a file in order
_CELL_BYTES = bytes(sorted(set(range(256)) - set(b'\n",')))


def _read_table(path):
    """The text of a CSV file, every line as wide as the first, and the commas
    on each line, those inside quoted cells included.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` (as for csv), and the last one
    may lack its end. Files such as the library writes take the pattern scan,
    :func:`_pattern_commas`; any other file, and so every faulty one, takes
    the full scan, :func:`_scan_commas`, which finds and names the fault.
    """
    raw = Path(path).read_bytes()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    commas = _pattern_commas(raw)
    if commas is None:
        commas = _scan_commas(path, raw)
    try:
        return raw.decode(), commas
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc


def _pattern_commas(raw):
    """The commas on each line of ``raw`` (every line ending in ``\\n``) when its
    separators repeat one valid pattern, else None.

    The pattern is the second line's sequence of commas, quotes and line ends,
    found by one ``bytes.translate``; every later line must repeat it. It is
    valid when its quotes pair up, with a comma or a line end just before each
    opening quote and just after each closing one (checked at the quote
    positions only), and the first line, free of quotes and not blank, holds as
    many fields, commas outside quotes plus one. A line without separators
    must not be blank. The full scan accepts such a file and counts the same
    commas.
    """
    if raw.startswith(b"\n"):
        return None
    head, _, body = raw.translate(None, _CELL_BYTES).partition(b"\n")
    if b'"' in head:
        return None
    if not body:
        return np.full(1, head.count(b","), dtype=np.intp)
    width = body.index(b"\n") + 1
    pattern = body[:width]
    outside = pattern.split(b'"')[::2]
    if (body != pattern * (len(body) // width) or pattern.count(b'"') % 2
            or sum(part.count(b",") for part in outside) != head.count(b",")
            or (width == 1 and b"\n\n" in raw)):
        return None
    if b'"' in pattern:
        buf = np.frombuffer(raw, dtype=np.uint8)
        quotes = np.flatnonzero(buf == ord('"'))
        near = np.concatenate([buf[quotes[0::2] - 1], buf[quotes[1::2] + 1]])
        if not ((near == ord(",")) | (near == ord("\n"))).all():
            return None
    commas = np.full(1 + len(body) // width, pattern.count(b","), dtype=np.intp)
    commas[0] = head.count(b",")
    return commas


def _scan_commas(path, raw):
    """The commas on each line of ``raw``, the bytes of any file with every line
    ending in ``\\n``, after checking it as :func:`_read_table` says.

    One pass over the bytes: quotes enclose whole cells (so every line holds an
    even number of them and a comma after an odd number is inside a quoted
    cell), and a line holds one field more than its other commas (a blank line
    none). A fault raises InvalidArgumentError naming the file and its line.
    """
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
    return per_line(commas)


def _loadtxt(path, text, dtype, ndmin, first_line):
    """The comma-separated cells of ``text`` (a quoted cell unquoted) as an
    array of ``dtype``, parsed in one call; a cell that does not parse names the
    file and its line, ``text`` starting at line ``first_line`` of the file."""
    try:
        with warnings.catch_warnings():
            # numpy from 1.23 on reads "3.0" into an integer column with this warning until the
            # deprecation expires; int() refuses it
            warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float", DeprecationWarning)
            # every line of ``text`` ends in "\n", so the last piece is empty
            return np.loadtxt(text.split("\n")[:-1], dtype=dtype, delimiter=",", comments=None, quotechar='"',
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
    """Every field of the LabelModel but the unserialized ``per_coordinate`` (``compare=False``)."""
    return {f.name: getattr(model, f.name) for f in dataclasses.fields(model) if f.compare}


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
    if thetas.ndim != 1:
        raise InvalidArgumentError(f"{where}: thetas must be a list of numbers, one per labeler")
    bad = np.flatnonzero(~np.isfinite(thetas))
    if bad.size:  # a learned theta is always finite; only accuracies have a NaN (null) meaning
        raise InvalidArgumentError(f"{where}: thetas must be finite; entry {bad[0]} is null or non-finite")
    m = thetas.size
    shapes = {"expected_distances": (m,), "accuracies": (m,), "pairwise_moments": (m, m), "theta_matrix": (m, m)}
    shaped = {key: arr(key, none_ok=key == "theta_matrix") for key in shapes}
    for key, val in shaped.items():
        if val is not None and val.shape != shapes[key]:
            raise InvalidArgumentError(f"{where}: field {key!r} must have shape {shapes[key]} for the {m} "
                                       f"labelers of thetas, got {val.shape}")
    return LabelModel(
        space_kind=payload["space_kind"],
        path=payload["path"],
        dims=payload["dims"],
        thetas=thetas,
        embedding=payload.get("embedding", {}),
        version=payload["version"],
        **shaped,
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
    write_csv(path, None, space.dist)


def read_distance_matrix(path):
    dist = _loadtxt(path, _read_table(path)[0], np.float64, ndmin=2, first_line=1)
    try:
        return FiniteMetricSpace(dist)
    except InvalidMetricError as exc:
        raise InvalidMetricError(f"{path}: {exc}") from exc


def write_embedding(prefix, report):
    """``<prefix>.coords.csv``, the coordinates, and ``<prefix>.json``, the dim, epsilon, scale and exponent."""
    coords_path, json_path = Path(f"{prefix}.coords.csv"), Path(f"{prefix}.json")
    write_csv(coords_path, None, report.coords)
    descriptor = {
        "dim": report.target_dim,
        "epsilon": report.epsilon,
        "scale": report.scale,
        "exponent": report.exponent,
    }
    json_path.write_text(canonical_json(descriptor))
    return coords_path, json_path
