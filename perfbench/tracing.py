"""Spans around calls into each `bundlesup` module, recorded from outside it.

`Tracer.install()` replaces the public functions listed in `_HOOKS` with
wrappers that record (name, start, end, parent, attributes) in memory;
`uninstall()` puts the originals back. A name is patched in every module
that imported it, since `from x import f` binds a separate reference.
Spans opened on a worker thread with no open span of its own take the
innermost open span of the installing thread as parent.

`layer_metrics()` turns the spans into per-operation self times, counts
and kernel operand figures.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from functools import wraps

import numpy as np


def _spmm_attrs(args, kwargs, result):
    indptr, indices, _, dense = args
    return {"rows": int(indptr.shape[0] - 1), "nnz": int(indices.shape[0]),
            "in_rows": int(dense.shape[0]), "cols": int(dense.shape[1])}


def _reask_attrs(args, kwargs, result):
    from bundlesup.llm import REASK_SUFFIX

    return {"reask": args[2].endswith(REASK_SUFFIX)}


def _train_attrs(args, kwargs, result):
    return {"epochs": int(result[1].epochs)}


def _refine_attrs(args, kwargs, result):
    return {"events": len(result)}


def _hit_attrs(args, kwargs, result):
    return {"hit": result is not None}


def _annotate_attrs(args, kwargs, result):
    return {"labeled": int(result.n_labeled)}


# (module, attribute, span name, attribute extractor); a class attribute is "Class.method"
_HOOKS = (
    ("pipeline", "run_replicate", "pipeline.run_replicate", None),
    ("pipeline", "accuracy", "pipeline.accuracy", None),
    ("pipeline", "gen_sbm", "synth.gen_sbm", None),
    ("theorems", "gen_sbm", "synth.gen_sbm", None),
    ("pipeline", "load_edge_list", "graphs.load_edge_list", None),
    ("pipeline", "load_embeddings", "graphs.load_embeddings", None),
    ("pipeline", "load_node_table", "graphs.load_node_table", None),
    ("pipeline", "normalized_adjacency", "graphs.normalized_adjacency", None),
    ("theorems", "normalized_adjacency", "graphs.normalized_adjacency", None),
    ("kernels", "spmm", "kernels.spmm", _spmm_attrs),
    ("sampling", "hop_distances", "kernels.bfs", None),
    ("pipeline", "sample_bundles", "sampling.sample_bundles", None),
    ("theorems", "sample_bundles", "sampling.sample_bundles", None),
    ("pipeline", "annotate_all", "annotate.annotate_all", _annotate_attrs),
    ("theorems", "annotate_all", "annotate.annotate_all", _annotate_attrs),
    ("annotate", "annotate_all", "annotate.annotate_all", _annotate_attrs),
    ("annotate", "build_prompt", "annotate.build_prompt", None),
    ("annotate", "AnnotationCache.__init__", "annotate.cache_load", None),
    ("annotate", "AnnotationCache.get", "annotate.cache_get", _hit_attrs),
    ("llm", "chat_completion", "llm.request", _reask_attrs),
    ("gnn", "forward", "gnn.forward", None),
    ("gnn", "backward", "gnn.backward", None),
    ("train", "bundle_objective", "losses.objective", None),
    ("train", "member_ce_objective", "losses.objective", None),
    ("train", "node_ce_objective", "losses.objective", None),
    ("train", "refine", "train.refine", _refine_attrs),
    ("train", "estimate_logit_bounds", "train.estimate_logit_bounds", None),
    ("pipeline", "train", "train.train", _train_attrs),
    ("theorems", "train", "train.train", _train_attrs),
    ("theorems", "verify_theorem3", "theorems.verify_theorem3", None),
)

# per-layer metrics, in the order BENCHMARK.json lists them: name -> unit
LAYER_METRICS = {
    "synth.gen_sbm_s": "s",
    "graphs.load_edge_list_s": "s",
    "graphs.load_embeddings_s": "s",
    "graphs.load_node_table_s": "s",
    "graphs.normalized_adjacency_s": "s",
    "kernels.spmm_calls": "count",
    "kernels.spmm_s": "s",
    "kernels.spmm_gflop": "GFLOP",
    "kernels.spmm_mb_moved": "MB",
    "kernels.bfs_calls": "count",
    "kernels.bfs_s": "s",
    "sampling.sample_bundles_s": "s",
    "gnn.forward_calls": "count",
    "gnn.forward_s": "s",
    "gnn.backward_calls": "count",
    "gnn.backward_s": "s",
    "losses.objective_s": "s",
    "train.epochs_per_s": "1/s",
    "train.refine_calls": "count",
    "train.refine_s": "s",
    "train.evictions": "count",
    "train.estimate_logit_bounds_s": "s",
    "theorems.verify_theorem3_s": "s",
    "pipeline.run_replicate_s": "s",
    "pipeline.accuracy_s": "s",
    "annotate.annotate_all_s": "s",
    "annotate.build_prompt_s": "s",
    "llm.requests": "count",
    "llm.reasks": "count",
    "llm.request_s": "s",
    "llm.request_p50_ms": "ms",
    "llm.request_p95_ms": "ms",
    "llm.labels_per_request": "ratio",
    "annotate.cache_load_s": "s",
    "annotate.cache_hits": "count",
    "trace.untraced_op_s": "s",
    "trace.traced_op_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Span recorder; install() before the traced calls, uninstall() after."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, attrs or None]
        self._local = threading.local()
        self._main_stack = None
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, attrs_fn):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            outer = stack or tracer._main_stack
            rec = [name, 0.0, 0.0, outer[-1] if outer else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs_fn is not None:
                rec[4] = attrs_fn(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        self._main_stack = self._stack()
        for mod_name, attr, name, attrs_fn in _HOOKS:
            owner = importlib.import_module(f"bundlesup.{mod_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, attrs_fn))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = np.empty(len(spans))
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[i] = (end - start) - covered
    return out


def layer_metrics(spans, n_ops: int, untraced_op_s: float, traced_op_s: float) -> dict:
    """Per-operation figures for every name in LAYER_METRICS."""
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return float(sum(own[i] for i in by_name.get(name, ()))) / n_ops

    def attr_sum(name, key):
        return sum(spans[i][4][key] for i in by_name.get(name, ()))

    def total_s(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ()))

    spmm = [spans[i][4] for i in by_name.get("kernels.spmm", ())]
    flop = sum(2.0 * a["nnz"] * a["cols"] for a in spmm)
    # CSR arrays (int64 indptr/indices, float64 data), dense operand and output
    moved = sum(8 * (a["rows"] + 1 + 2 * a["nnz"] + (a["in_rows"] + a["rows"]) * a["cols"])
                for a in spmm)
    req_ms = np.array([(spans[i][2] - spans[i][1]) * 1e3 for i in by_name.get("llm.request", ())])
    epoch_s = total_s("train.train") - total_s("train.estimate_logit_bounds")
    # bundles labelled by the annotate_all calls that sent requests (the cold passes)
    asking = {spans[i][3] for i in by_name.get("llm.request", ())}
    llm_labeled = sum(spans[i][4]["labeled"] for i in by_name.get("annotate.annotate_all", ())
                      if i in asking)
    hits = sum(spans[i][4]["hit"] for i in by_name.get("annotate.cache_get", ()))

    values = {
        "kernels.spmm_calls": calls("kernels.spmm") / n_ops,
        "kernels.spmm_gflop": flop / 1e9 / n_ops,
        "kernels.spmm_mb_moved": moved / 1e6 / n_ops,
        "kernels.bfs_calls": calls("kernels.bfs") / n_ops,
        "gnn.forward_calls": calls("gnn.forward") / n_ops,
        "gnn.backward_calls": calls("gnn.backward") / n_ops,
        "train.epochs_per_s": attr_sum("train.train", "epochs") / epoch_s if epoch_s > 0 else 0.0,
        "train.refine_calls": calls("train.refine") / n_ops,
        "train.evictions": attr_sum("train.refine", "events") / n_ops,
        "llm.requests": calls("llm.request") / n_ops,
        "llm.reasks": sum(1 for i in by_name.get("llm.request", ()) if spans[i][4]["reask"]) / n_ops,
        "llm.request_p50_ms": float(np.percentile(req_ms, 50)) if req_ms.size else 0.0,
        "llm.request_p95_ms": float(np.percentile(req_ms, 95)) if req_ms.size else 0.0,
        "llm.labels_per_request": llm_labeled / calls("llm.request") if req_ms.size else 0.0,
        "annotate.cache_hits": hits / n_ops,
        "trace.untraced_op_s": untraced_op_s,
        "trace.traced_op_s": traced_op_s,
        "trace.overhead_pct": 100.0 * (traced_op_s / untraced_op_s - 1.0),
    }
    for metric in LAYER_METRICS:
        if metric not in values:   # every remaining metric is a self time "<span>_s"
            values[metric] = self_s(metric[:-2])
    return {m: {"value": values[m], "unit": u} for m, u in LAYER_METRICS.items()}
