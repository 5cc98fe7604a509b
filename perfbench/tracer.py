"""Per-layer tracing from outside the program.

Each listed public function is wrapped at every place a ``uws`` module binds
it (so ``uws.cli.learn_label_model`` and ``uws.label_model.pair_sign_embed_many``
are caught as well as the package-level names), and each call records a span
(name, start, end, parent, failed) in flat in-memory arrays. Self time is a
span's duration minus the durations of its direct children. Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts every original back.
"""

import os
import sys
from array import array
from time import perf_counter

import numpy as np

# layer (module) -> public functions whose calls are timed and counted
LAYERS = {
    "synthetic": ["substream", "gen_ranking_tasks", "gen_regression_tasks", "gen_graph_tasks"],
    "permutations": ["pair_sign_embed_many", "all_permutations"],
    "mallows": ["backward_map", "expected_distance"],
    "label_model": [
        "learn_label_model",
        "empirical_pair_moments",
        "continuous_triplets",
        "quadratic_triplets",
        "isotropic_accuracies",
        "resolve_signs",
        "gaussian_backward_map",
    ],
    "inference": [
        "aggregate_dataset",
        "weighted_aggregate",
        "kemeny_exact",
        "kemeny_local_search",
        "gaussian_conditional_mean",
    ],
    "metric_spaces": ["graph_hop_metric", "FiniteMetricSpace.__post_init__"],
    "io": [
        "write_csv",
        "write_dataset",
        "read_dataset",
        "write_truth",
        "read_truth",
        "write_model",
        "read_model",
        "write_pseudolabels",
        "write_distance_matrix",
        "read_distance_matrix",
        "write_manifest",
    ],
    "cli": ["main", "cmd_generate", "cmd_learn", "cmd_infer"],
}

# functions whose failures are worth a counter: a raise, or a nonzero exit for cli.main
COUNT_FAILED = {
    "label_model.learn_label_model",
    "label_model.continuous_triplets",
    "label_model.quadratic_triplets",
    "inference.aggregate_dataset",
    "metric_spaces.graph_hop_metric",
    "cli.main",
}
TRIPLET_SOLVES = ("label_model.continuous_triplets", "label_model.quadratic_triplets")

SPECIAL = [
    ("io.bytes_written", "bytes", "lower"),
    ("io.bytes_read", "bytes", "lower"),
    ("label_model.triplet_ok_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def function_names():
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for module, fns in LAYERS.items():
        for fn in fns:
            name = f"{module}.{fn}"
            specs.append((f"{name}.calls", "count", "lower"))
            specs.append((f"{name}.self_s", "s", "lower"))
            if name in COUNT_FAILED:
                specs.append((f"{name}.failed", "count", "lower"))
        specs.append((f"{module}.self_s", "s", "lower"))
    return specs + SPECIAL


def _resolve(dotted):
    """(owner, attribute, object) for 'module.func' or 'module.Class.method', or None."""
    parts = dotted.split(".")
    owner = sys.modules.get("uws." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Installs span-recording wrappers; collects spans until uninstalled."""

    def __init__(self):
        self.names = function_names()
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.bytes_written = 0
        self.bytes_read = 0
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self.absent = []

    def install(self):
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items()) if name == "uws" or name.startswith("uws.")]
        io_ids = {i for i, n in enumerate(self.names) if n.startswith("io.")}
        for i, dotted in enumerate(self.names):
            found = _resolve(dotted)
            if found is None:
                self.absent.append(dotted)
                continue
            owner, attr, original = found
            wrapper = self._wrap(i, original, dotted, io_ids)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fid, fn, dotted, io_ids):
        stack = self._stack
        fids, parents, starts, ends, failed = self.fid, self.parent, self.start, self.end, self.failed
        is_main = dotted == "cli.main"
        io_kind = "w" if dotted.startswith("io.write") else "r" if dotted.startswith("io.read") else None

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            fids.append(fid)
            parents.append(parent)
            failed.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if is_main and result != 0:
                failed[idx] = 1
            if io_kind and (parent < 0 or fids[parent] not in io_ids):
                path = args[0] if args else kwargs.get("path")
                size = os.path.getsize(path)
                if io_kind == "w":
                    self.bytes_written += size
                else:
                    self.bytes_read += size
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def mark(self):
        """Opaque position marking the start of a traced interval."""
        return len(self.start), self.bytes_written, self.bytes_read

    def summarize(self, mark):
        """Per-layer metrics of the spans recorded since ``mark``."""
        lo, written0, read0 = mark
        hi = len(self.start)
        k = len(self.names)
        fid = np.frombuffer(self.fid, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64))[lo:hi]
        failed = np.frombuffer(self.failed, dtype=np.int8)[lo:hi].astype(np.int64)
        child = np.zeros(hi - lo)
        inside = parent >= lo
        np.add.at(child, parent[inside] - lo, dur[inside])
        self_s = np.bincount(fid, weights=dur - child, minlength=k)
        calls = np.bincount(fid, minlength=k)
        fails = np.bincount(fid, weights=failed, minlength=k)
        out = {}
        module_self = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            if name in COUNT_FAILED:
                out[f"{name}.failed"] = int(fails[i])
            module = name.split(".", 1)[0]
            module_self[module] = module_self.get(module, 0.0) + float(self_s[i])
        for module, value in module_self.items():
            out[f"{module}.self_s"] = value
        out["io.bytes_written"] = self.bytes_written - written0
        out["io.bytes_read"] = self.bytes_read - read0
        attempts = sum(out[f"{n}.calls"] for n in TRIPLET_SOLVES)
        oks = attempts - sum(out[f"{n}.failed"] for n in TRIPLET_SOLVES)
        out["label_model.triplet_ok_ratio"] = oks / attempts if attempts else 0.0
        return out

    def write_spans(self, path, t0):
        """Every recorded span as CSV, times in seconds from ``t0``."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,failed\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.fid[i]]},{self.start[i] - t0!r},{self.end[i] - t0!r},"
                    f"{self.parent[i]},{self.failed[i]}\n"
                )
