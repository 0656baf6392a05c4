"""Outside-in layer tracing for the benchmark.

``Layers`` wraps public callables of the program (class methods and module
functions) from the benchmark's own files; nothing under ``src/`` changes.
Spans are recorded with the program's own :class:`repro.obs.tracing.Tracer`
(every root tree retained), so each span carries its name, start,
duration, children and fields: the request id on the root, boundary counts
(keys handed in, records written, ...) on the layer spans.

Wrappers record only inside :meth:`Layers.root`, so a process can time
the same calls with and without tracing.  A layer's self time is its
span's duration minus the part its child spans cover, so the per-layer
figures add up to the wall time of the root span (the benchmark's own
batch or request) minus the glue no wrapper covers.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
from collections import defaultdict

import numpy as np

from repro.obs.tracing import Tracer

__all__ = ["Layers", "install_layers", "load", "aggregate_roots"]

_recording: contextvars.ContextVar = contextvars.ContextVar("perfbench_recording", default=False)


class Layers:
    """Recording method wrappers over one retain-everything ``Tracer``."""

    def __init__(self):
        self.tracer = Tracer(slow_threshold=0.0, ring=10_000_000)
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def root(self, name: str, rid: str):
        """A root span; wrapped calls inside it are recorded below it."""
        token = _recording.set(True)
        try:
            with self.tracer.span(name, rid=rid):
                yield
        finally:
            _recording.reset(token)

    def wrap(self, owner, attr: str, name: str, count=None, pre=None) -> None:
        """Wrap ``owner.attr`` (a function, method or classmethod).

        ``count(args, result, before)`` returns boundary counts noted on
        the span, where ``args`` includes ``self``/``cls`` and ``before``
        is ``pre(args)`` taken just before the call (``None`` without
        ``pre``).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not _recording.get():
                return func(*args, **kwargs)
            before = pre(args) if pre is not None else None
            with tracer.span(name) as span:
                result = func(*args, **kwargs)
            if count is not None:
                span.note(**count(args, result, before))
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def trees(self) -> list[dict]:
        """Every recorded root tree, oldest first."""
        return self.tracer.slow_traces()

    def dump(self, path) -> None:
        """Write every root tree as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for tree in self.trees():
                handle.write(json.dumps(tree) + "\n")


def _size(x) -> int:
    return int(np.asarray(x).size)


def install_layers(layers: Layers) -> None:
    """Wrap the public callables each layer of the program is entered by.

    Span names are ``<layer>.<operation>``; the counts recorded at each
    boundary feed the per-layer ratios (keys examined, keys hashed,
    pair updates before and after aggregation, WAL bytes).
    """
    from repro.core.estimator import SketchEstimator
    from repro.covariance import pipeline
    from repro.covariance.running import SparseMoments
    from repro.durability.durable import DurableSketcher
    from repro.durability.journal import IngestJournal
    from repro.serving.engine import QueryEngine
    from repro.serving.live import ServingEstimator
    from repro.serving.snapshot import SketchSnapshot
    from repro.sketch.count_sketch import CountSketch
    from repro.sketch.topk import TopKTracker

    def keys_arg(args, result, before):
        return {"keys": _size(args[1])}

    wrap = layers.wrap
    wrap(SparseMoments, "update_batch", "moments.update")
    wrap(SparseMoments, "std", "moments.std")
    # Patched on the pipeline module: that is the name the ingest path
    # resolves when it expands and aggregates a batch.
    wrap(pipeline, "sparse_batch_pairs", "pairs.expand", lambda a, r, b: {"updates": _size(r[0])})
    wrap(
        pipeline,
        "aggregate_pair_updates",
        "pairs.aggregate",
        lambda a, r, b: {"in": sum(_size(k) for k in a[0]), "out": _size(r[0])},
    )
    wrap(SketchEstimator, "ingest", "estimator.ingest", lambda a, r, b: {"examined": _size(a[1])})
    wrap(CountSketch, "query", "sketch.query", keys_arg)
    wrap(CountSketch, "insert", "sketch.insert", keys_arg)
    wrap(CountSketch, "insert_and_query", "sketch.insert_and_query", keys_arg)
    wrap(TopKTracker, "offer", "tracker.offer", keys_arg)
    wrap(
        IngestJournal,
        "append",
        "wal.append",
        lambda a, r, b: {"samples": len(a[1]), "bytes": a[0].bytes_written - b},
        pre=lambda a: a[0].bytes_written,
    )
    wrap(DurableSketcher, "checkpoint", "ckpt.write")
    wrap(DurableSketcher, "recover", "recover", lambda a, r, b: {"replayed": r.replayed_records})
    wrap(QueryEngine, "query_pair", "engine.pair")
    wrap(QueryEngine, "query_keys", "engine.keys")
    wrap(QueryEngine, "top_pairs", "engine.top")
    wrap(ServingEstimator, "ingest_sparse", "serving.ingest")
    wrap(ServingEstimator, "refresh", "serving.refresh")
    wrap(ServingEstimator, "install", "serving.install")
    wrap(SketchSnapshot, "from_sketcher", "snapshot.build")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def load(path) -> list[dict]:
    """Read root trees written by :meth:`Layers.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def rid_of(tree: dict) -> str:
    return tree.get("fields", {}).get("rid") or ""


def walk(tree: dict, parent: str | None = None):
    """Yield ``(span, parent_name, self_seconds)`` for a tree, depth first.

    Self time is the duration minus the children's durations: wrapped
    calls nest strictly within one thread, so children never overlap.
    """
    todo = [(tree, parent)]
    while todo:
        span, parent_name = todo.pop()
        kids = span.get("children", ())
        covered = sum(k["duration_seconds"] for k in kids)
        yield span, parent_name, span["duration_seconds"] - covered
        todo.extend((kid, span["name"]) for kid in kids)


def aggregate_roots(trees, root_name: str, rid_prefix: str = "") -> dict:
    """Aggregate every root tree named ``root_name`` whose request id
    starts with ``rid_prefix``.

    Returns ``{"roots": n, "wall": seconds, "self": {name: s},
    "calls": {name: n}, "dur": {name: s}, "counts": {name: {key: sum}},
    "counts_under": {(parent_name, name): {key: sum}}}`` where
    ``self``/``dur`` sum over the selected roots and all their
    descendants, and ``counts_under`` splits the counts by the name of the
    calling span.
    """
    agg = {
        "roots": 0,
        "wall": 0.0,
        "self": defaultdict(float),
        "dur": defaultdict(float),
        "calls": defaultdict(int),
        "counts": defaultdict(lambda: defaultdict(float)),
        "counts_under": defaultdict(lambda: defaultdict(float)),
    }
    for tree in trees:
        if tree["name"] != root_name or not rid_of(tree).startswith(rid_prefix):
            continue
        agg["roots"] += 1
        agg["wall"] += tree["duration_seconds"]
        for span, parent_name, self_s in walk(tree):
            name = span["name"]
            agg["self"][name] += self_s
            agg["dur"][name] += span["duration_seconds"]
            agg["calls"][name] += 1
            for key, value in span.get("fields", {}).items():
                if not isinstance(value, (int, float)):
                    continue  # the request id, or an error message
                agg["counts"][name][key] += value
                agg["counts_under"][(parent_name, name)][key] += value
    return agg
