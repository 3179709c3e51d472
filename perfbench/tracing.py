"""Span tracing of sdprel's public functions, installed from the benchmark.

``Tracer.install`` replaces every public function of the eight modules, and
the public methods of their public classes, with a wrapper that records one
span per call: name, start, end and the span that was open when it began.
Every module namespace that holds a reference to a function gets the
wrapper, because the pipeline imports functions by name.  ``uninstall``
puts the originals back.  Spans are kept in flat integer arrays and turned
into per-layer metrics by ``summarize`` when a round ends.

Counts that the per-layer metrics need (graphs per sentence, exclusions,
hashed tokens, tokens per forward pass, zero gradients) are taken in the
same wrappers, so they are measured where the work happens.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("corpus", "depgraph", "features", "embed", "neural", "optim",
          "pipeline", "checkpoint")
# Time the tracer spends in its own bookkeeping is recorded under this name,
# as a child of the span it interrupts, so that no layer is charged for it.
BOOKKEEPING = "trace.bookkeeping"


def _targets():
    """(owner, attribute, span name) for every public function and method."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"sdprel.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((mod, name, f"{layer}.{name}"))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        out.append((obj, attr, f"{layer}.{name}.{attr}"))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "sdprel" or n.startswith("sdprel.")]
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for ref, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, ref, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- recording --------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name):
        name_id = self._name_id(name)
        count = _COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx)
                tracer.counts[f"{name}:{type(exc).__name__}"] += 1
                raise
            tracer._close(idx)
            if count is not None:
                count(tracer, args)
            return result

        return traced

    def bookkeeping(self, fn):
        """Run fn as a span of its own, so its time is not charged to a layer."""
        idx = self._open(self._name_id(BOOKKEEPING))
        try:
            return fn()
        finally:
            self._close(idx)

    # -- summary ----------------------------------------------------------

    def summarize(self, wall_s: float) -> dict:
        """Per-function and per-layer totals of the spans recorded so far.

        A span's self time is its duration minus the durations of its
        children.  Summed over layers, plus bookkeeping, plus the time the
        benchmark spent outside any span, it equals ``wall_s``.
        """
        n = len(self.span_name)
        names = np.frombuffer(self.span_name, dtype=np.int64)[:n]
        start = np.frombuffer(self.span_start, dtype=np.int64)[:n]
        end = np.frombuffer(self.span_end, dtype=np.int64)[:n]
        parent = np.frombuffer(self.span_parent, dtype=np.int64)[:n]
        dur = (end - start) * 1e-9
        has_parent = parent >= 0
        safe_parent = np.where(has_parent, parent, 0)
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        all_layers = LAYERS + ("trace",)
        name_layer = np.array([all_layers.index(nm.split(".")[0]) for nm in self.names],
                              dtype=np.int64)
        span_layer = name_layer[names]
        parent_layer = np.where(has_parent, span_layer[safe_parent], -1)
        parent_name = np.where(has_parent, names[safe_parent], -1)

        funcs = {}
        for nid, nm in enumerate(self.names):
            sel = names == nid
            if not sel.any():
                continue
            outer = sel & (parent_name != nid)
            funcs[nm] = {
                "calls": int(sel.sum()),
                "busy_s": float(dur[outer].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        layers = {}
        for lid, layer in enumerate(all_layers):
            sel = span_layer == lid
            outer = sel & (parent_layer != lid)
            layers[layer] = {
                "calls": int(sel.sum()),
                "busy_s": float(dur[outer].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        root = float(dur[~has_parent].sum())
        return {
            "functions": funcs,
            "layers": layers,
            "wall_s": wall_s,
            "unattributed_s": wall_s - root,
            "spans": n,
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }

    def write_spans(self, path):
        """One line per span: name, start ns, end ns, parent span index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                         f"{self.span_end[i]}\t{self.span_parent[i]}\n")


# ---------------------------------------------------------------------------
# Counts taken at the wrapped boundaries, keyed by span name


def _count_build_graph(tracer, args):
    tracer.distinct["graph_sentences"].add(args[0].id)


def _count_oov(tracer, args):
    tracer.distinct["oov_tokens"].add(args[0])


def _count_forward(tracer, args):
    tracer.counts["forward_tokens"] += len(args[1])


def _count_backward(tracer, args):
    tracer.counts["backward_tokens"] += args[1]["xs"].shape[0]


def _count_vectorize(tracer, args):
    tracer.distinct["vectorized"].add(args[1].instance_id)


def _count_adam(tracer, args):
    grads = args[2]
    tracer.counts["adam_tensors"] += len(grads)
    tracer.counts["adam_zero_tensors"] += tracer.bookkeeping(
        lambda: sum(1 for g in grads.values() if not g.any())
    )


_COUNTERS = {
    "depgraph.build_graph": _count_build_graph,
    "embed.oov_vector": _count_oov,
    "neural.BiLstmModel.forward": _count_forward,
    "neural.BiLstmModel.backward": _count_backward,
    "pipeline.Vectorizer.vectorize": _count_vectorize,
    "optim.adam_step": _count_adam,
}


# ---------------------------------------------------------------------------
# Per-layer metrics


def per_layer_metrics(setup: dict, body: dict, overhead_s: float, figures: dict) -> dict:
    """name -> (value, unit) for every per-layer metric, 0 where a layer idles."""
    fn = body["functions"]
    counts = body["counts"]
    distinct = body["distinct"]

    def busy(name, summary=body):
        return summary["functions"].get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in LAYERS:
        stats = body["layers"][layer]
        out[f"{layer}.calls"] = (stats["calls"], "count")
        out[f"{layer}.busy_s"] = (stats["busy_s"], "s")
        out[f"{layer}.self_s"] = (stats["self_s"], "s")

    fwd, bwd = "neural.BiLstmModel.forward", "neural.BiLstmModel.backward"
    vec = "pipeline.Vectorizer.vectorize"
    out.update({
        "corpus.load_corpus_s": (busy("corpus.load_corpus", setup), "s"),
        "corpus.generalize_calls": (calls("corpus.generalize"), "count"),
        "corpus.generalize_s": (busy("corpus.generalize"), "s"),
        "depgraph.load_dependencies_s": (busy("depgraph.load_dependencies", setup), "s"),
        "depgraph.build_graph_calls": (calls("depgraph.build_graph"), "count"),
        "depgraph.build_graph_s": (busy("depgraph.build_graph"), "s"),
        "depgraph.shortest_path_calls": (calls("depgraph.shortest_path"), "count"),
        "depgraph.shortest_path_s": (busy("depgraph.shortest_path"), "s"),
        "depgraph.graphs_per_sentence": (
            ratio(calls("depgraph.build_graph"), distinct.get("graph_sentences", 0)), "ratio"),
        "depgraph.excluded_disconnected": (
            counts.get("depgraph.shortest_path:Disconnected", 0), "count"),
        "depgraph.excluded_path_too_long": (
            counts.get("depgraph.shortest_path:PathTooLong", 0), "count"),
        "features.train_autoencoder_calls": (calls("features.train_autoencoder"), "count"),
        "features.train_autoencoder_s": (busy("features.train_autoencoder"), "s"),
        "features.encode_dense_calls": (calls("features.encode_dense"), "count"),
        "features.encode_dense_s": (busy("features.encode_dense"), "s"),
        "features.encode_position_calls": (calls("features.encode_position"), "count"),
        "embed.load_embeddings_s": (busy("embed.load_embeddings", setup), "s"),
        "embed.lookup_calls": (calls("embed.lookup"), "count"),
        "embed.lookup_s": (busy("embed.lookup"), "s"),
        "embed.oov_vector_calls": (calls("embed.oov_vector"), "count"),
        "embed.oov_distinct_ratio": (
            ratio(distinct.get("oov_tokens", 0), calls("embed.oov_vector")), "ratio"),
        "neural.forward_calls": (calls(fwd), "count"),
        "neural.forward_s": (busy(fwd), "s"),
        "neural.forward_us_per_token": (
            1e6 * ratio(busy(fwd), counts.get("forward_tokens", 0)), "us/token"),
        "neural.backward_s": (busy(bwd), "s"),
        "neural.backward_us_per_token": (
            1e6 * ratio(busy(bwd), counts.get("backward_tokens", 0)), "us/token"),
        "optim.adam_step_calls": (calls("optim.adam_step"), "count"),
        "optim.adam_step_s": (busy("optim.adam_step"), "s"),
        "optim.tensors_per_step": (
            ratio(counts.get("adam_tensors", 0), calls("optim.adam_step")), "count"),
        "optim.zero_grad_share": (
            ratio(counts.get("adam_zero_tensors", 0), counts.get("adam_tensors", 0)), "ratio"),
        "pipeline.preprocess_s": (busy("pipeline.preprocess"), "s"),
        "pipeline.instances_to_json_s": (busy("pipeline.instances_to_json"), "s"),
        "pipeline.instances_from_json_s": (busy("pipeline.instances_from_json"), "s"),
        "pipeline.instances_file_bytes": (figures.get("instances_file_bytes", (0,))[0], "B"),
        "pipeline.pretrain_autoencoders_s": (busy("pipeline.pretrain_autoencoders"), "s"),
        "pipeline.cross_validate_s": (busy("pipeline.cross_validate"), "s"),
        "pipeline.vectorize_calls": (calls(vec), "count"),
        "pipeline.vectorize_s": (busy(vec), "s"),
        "pipeline.vectorize_per_instance": (
            ratio(calls(vec), distinct.get("vectorized", 0)), "ratio"),
        "pipeline.train_s": (busy("pipeline.train"), "s"),
        "pipeline.train_self_s": (fn.get("pipeline.train", {}).get("self_s", 0.0), "s"),
        "pipeline.predict_calls": (calls("pipeline.predict"), "count"),
        "pipeline.evaluate_s": (busy("pipeline.evaluate"), "s"),
        "checkpoint.save_s": (busy("checkpoint.save_checkpoint"), "s"),
        "checkpoint.load_s": (busy("checkpoint.load_checkpoint"), "s"),
        "checkpoint.file_bytes": (figures.get("checkpoint_bytes", (0,))[0], "B"),
        "trace.bookkeeping_s": (body["layers"]["trace"]["self_s"], "s"),
        "trace.unattributed_s": (body["unattributed_s"], "s"),
        "trace.wall_s": (body["wall_s"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (body["spans"], "count"),
    })
    return out
