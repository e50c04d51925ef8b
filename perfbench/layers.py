"""Per-layer spans recorded from outside the program.

:class:`Recorder` wraps the public entry points of each module (and the
two batcher internals that bound a request's queue wait) with timing
shims and keeps every span — name, start, end, parent, request id and a
count — in memory until the run ends.  It never switches on
``repro.obs`` tracing: an active ``repro.obs`` tracer sends every engine
batch to the scalar loop (``kernel_fallback="tracing"``), so it would
time a different program.

A layer's *self time* is its span's duration minus the time its child
spans (same thread) cover.  Nested calls of one layer (say
``range_query`` calling ``multi_range_query``) count as one call.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster import harness as cluster_harness
from repro.cluster.router import ClusterRouter
from repro.core import kernels, partitioning
from repro.core import similarity as similarity_module
from repro.core.bounds import BatchBoundCalculator, BoundCalculator
from repro.core.engine import QueryEngine
from repro.core.search import SignatureTableSearcher
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase
from repro.live.delta import DeltaSnapshot
from repro.live.index import LiveIndex
from repro.live.wal import WalFile, WriteAheadLog
from repro.service import frames
from repro.service.batcher import MicroBatcher
from repro.sketch import SketchIndex
from repro.storage.pages import PagedStore


def _size_of_first(args, kwargs, result) -> float:
    return float(np.size(args[1])) if len(args) > 1 else 0.0


def _candidates(args, kwargs, result) -> float:
    return float(result.candidates.size)


def _bytes_written(args, kwargs, result) -> float:
    return float(len(args[1]))


def _legs(args, kwargs, result) -> float:
    handles, target_lists = args[1], args[3]
    return float(len(handles) * len(target_lists))


def _evaluate_classes() -> List[type]:
    return [
        cls
        for cls in vars(similarity_module).values()
        if isinstance(cls, type)
        and issubclass(cls, similarity_module.SimilarityFunction)
        and "evaluate" in cls.__dict__
    ]


#: (layer, owner, attribute, count-fn).  Module functions are patched on
#: the module the caller looks them up in.
SETUP_POINTS = [
    ("partition.build", partitioning, "partition_items", None),
    ("table.build", SignatureTable, "build", None),
    ("sketch.build", SketchIndex, "build", None),
    ("live.bootstrap", cluster_harness, "bootstrap_node_state", None),
]

QUERY_POINTS = [
    ("engine.run_batch", QueryEngine, "run_batch", None),
    ("bounds", kernels, "batch_activation_counts", None),
    ("bounds", BatchBoundCalculator, "optimistic_similarity", None),
    ("bounds", BoundCalculator, "optimistic_similarity", None),
    ("transaction.match_counts", TransactionDatabase, "match_counts_batch", None),
    ("kernels.scan", kernels, "knn_scan_batch", None),
    ("kernels.scan", kernels, "range_scan_batch", None),
    ("search.scalar", SignatureTableSearcher, "knn", None),
    ("search.scalar", SignatureTableSearcher, "range_query", None),
    ("search.scalar", SignatureTableSearcher, "multi_range_query", None),
    # Page bookkeeping: the unprepared path charges through
    # PagedStore.read; the engine's prepared path resolves an entry's pages
    # once per batch (pages_for) and charges them per query.
    ("pages.read", PagedStore, "read", None),
    ("pages.read", PagedStore, "pages_for", None),
    ("pages.read", SignatureTableSearcher, "_charge_cached_read", None),
    ("sketch.probe", SketchIndex, "probe", _candidates),
    ("live.knn", LiveIndex, "knn", None),
    ("live.insert", LiveIndex, "insert", None),
    ("live.delete", LiveIndex, "delete", None),
    ("delta.scan", DeltaSnapshot, "knn_candidates", None),
    ("router.scatter", ClusterRouter, "run_batch", None),
    ("router.legs", ClusterRouter, "_scatter", _legs),
    ("router.insert", ClusterRouter, "insert", None),
    ("wal.append", WriteAheadLog, "append", None),
    ("wal.fsync", WalFile, "fsync", None),
    ("wal.write", WalFile, "write", _bytes_written),
    ("frames.codec", frames, "encode_request_frame", None),
    ("frames.codec", frames, "encode_ok_frame", None),
    ("frames.codec", frames, "encode_error_frame", None),
    ("frames.codec", frames, "decode_payload", None),
] + [
    ("similarity.evaluate", cls, "evaluate", _size_of_first)
    for cls in _evaluate_classes()
]

#: Spans whose callees are folded into their own self time: the bound
#: pass evaluates ``f`` on entry bounds, not on transactions.
_FOLDING = ("bounds",)


def counter_total(registry_json: dict, name: str) -> float:
    """Sum of every sample of one family in a ``MetricRegistry.to_json``."""
    family = registry_json.get(name)
    if not family:
        return 0.0
    return float(sum(sample["value"] for sample in family["samples"]))


class Recorder:
    """Installs timing shims and keeps their spans in memory."""

    def __init__(self, fallback_id: Optional[Callable[[], object]] = None):
        #: Request id stamped on new spans; ``fallback_id()`` when None.
        self.request: object = None
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.probe_candidates: List[np.ndarray] = []
        self.keep_candidates = False
        self._fallback_id = fallback_id or (lambda: None)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    def install(self, points) -> None:
        for layer, owner, attr, count in points:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(layer, raw.__func__, count))
            else:
                patched = self._wrap(layer, raw, count)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def clear(self) -> None:
        with self._lock:
            self.spans = []
            self.counters = {}
            self.probe_candidates = []

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    # ------------------------------------------------------------------
    def _request_id(self) -> object:
        return self.request if self.request is not None else self._fallback_id()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn, count):
        recorder = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] in _FOLDING:
                return fn(*args, **kwargs)
            span = [layer, time.perf_counter(), 0.0, parent,
                    recorder._request_id(), 0.0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            if layer == "sketch.probe" and recorder.keep_candidates:
                recorder.probe_candidates.append(result.candidates)
            recorder.spans.append(span)
            return result

        return shim

    def install_batcher(self) -> None:
        """Queue wait = flush time minus admission, per batched request."""
        original = MicroBatcher.__dict__["_execute"]
        recorder = self

        @functools.wraps(original)
        async def execute(batcher, key, similarity, take, reason):
            now = time.perf_counter()
            recorder.add("batcher.queue_wait_s", sum(now - p.enqueued_s for p in take))
            recorder.add("batcher.requests", len(take))
            recorder.add("batcher.batches", 1)
            return await original(batcher, key, similarity, take, reason)

        self._patches.append((MicroBatcher, "_execute", original))
        MicroBatcher._execute = execute

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: outermost ``calls``, ``total_s`` (their duration),
        ``self_s`` (every span's duration minus its children's) and the
        summed ``count``."""
        spans = list(self.spans)
        child_time: Dict[int, float] = {}
        for span in spans:
            parent = span[3]
            if parent is not None:
                key = id(parent)
                child_time[key] = child_time.get(key, 0.0) + span[2] - span[1]
        out: Dict[str, Dict[str, float]] = {}
        for span in spans:
            layer = span[0]
            entry = out.setdefault(
                layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0}
            )
            duration = span[2] - span[1]
            entry["self_s"] += duration - child_time.get(id(span), 0.0)
            entry["count"] += span[5]
            nested = span[3] is not None and span[3][0] == layer
            if not nested:
                entry["calls"] += 1
                entry["total_s"] += duration
        for name, value in self.counters.items():
            out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": value}
        return out

    def setup_seconds(self) -> Dict[str, List[float]]:
        """Per setup layer and per request id (one id per set-up round):
        the round's total time in that layer."""
        rounds: Dict[str, Dict[object, float]] = {}
        for span in self.spans:
            if span[3] is not None and span[3][0] == span[0]:
                continue
            per = rounds.setdefault(span[0], {})
            per[span[4]] = per.get(span[4], 0.0) + span[2] - span[1]
        return {layer: list(per.values()) for layer, per in rounds.items()}
