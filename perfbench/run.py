"""One benchmark for the whole request path.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload exact-d100k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload lsh-skewed --seed 1 --seconds 20 --repeat 10

Workloads (see ``perfbench/README.md``): ``exact-d100k``, ``lsh-skewed``
and ``cluster-rw``.  A run generates its inputs (the workload's fixed
database, and queries and writes drawn by ``--seed``), starts the process
that holds the index (``sut.py``) on a CPU of its own, measures for
about ``--seconds`` (at least three whole rounds of the same operations;
rates take each call at its median latency across rounds), checks every
answer against the brute-force oracle in ``oracle.py`` and prints a
human-readable report followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` splits the
run into an untraced and a traced half and reports the per-layer metrics
(``layers.py``) plus the tracing overhead.  Any failed operation or check
exits non-zero.  ``--repeat N`` runs the workload N times on seeds
``seed .. seed+N-1`` and prints each metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import checkout

import numpy as np

import inputs
import oracle as oracle_module
from layers import QUERY_POINTS, Recorder, counter_total
from oracle import Oracle
from repro.service.client import ServiceClient

WORKLOAD_NAMES = tuple(inputs.WORKLOADS)
#: Set-up rounds per run; ``setup_s`` is their median.
SETUP_ROUNDS = 3
#: Untimed reads before the cluster load starts.
WARMUP_READS = 4
#: A child that says nothing for this long is taken as hung.
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "knn_qps": "queries/s",
    "recall_at_10": "fraction",
    "access_fraction": "fraction",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "partition.build_s": "s",
    "table.build_s": "s",
    "sketch.build_s": "s",
    "live.bootstrap_s": "s",
    "bounds.ms_per_query": "ms",
    "transaction.match_counts_ms_per_query": "ms",
    "similarity.evaluate_ms_per_query": "ms",
    "kernels.scan_ms_per_query": "ms",
    "engine.self_ms_per_query": "ms",
    "similarity.rows_evaluated_per_query": "count",
    "similarity.useful_ratio": "ratio",
    "search.scalar_ms_per_query": "ms",
    "search.scalar_calls_per_query": "count",
    "pages.read_ms_per_query": "ms",
    "pages.read_calls_per_query": "count",
    "search.entries_scanned_per_query": "count",
    "search.transactions_accessed_per_query": "count",
    "pages.pages_read_per_query": "count",
    "sketch.probe_ms_per_query": "ms",
    "sketch.candidates_per_query": "count",
    "sketch.candidate_yield": "ratio",
    "engine.kernel_fallbacks": "count",
    "live.knn_ms": "ms",
    "delta.scan_ms_per_query": "ms",
    "router.scatter_ms_per_query": "ms",
    "router.legs_per_query": "count",
    "router.insert_ms": "ms",
    "router.insert_wait_ms": "ms",
    "live.insert_ms": "ms",
    "wal.append_ms": "ms",
    "wal.fsyncs_per_write": "count",
    "wal.bytes_per_write": "bytes",
    "batcher.queue_wait_ms": "ms",
    "batcher.batch_size_mean": "count",
    "frames.codec_ms_per_request": "ms",
    "frames.binary_share": "fraction",
    "trace.overhead_ratio": "ratio",
}


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def safe_div(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def median_round_rate(ops: List[tuple]) -> float:
    """Operations per second of one round, each at its median latency.

    ``ops`` holds ``(position in the round, operations, latency_s)`` for
    every timed call of a window of whole rounds.  Each position's median
    latency across rounds is taken, so a stall that hits one round of one
    call does not move the rate.
    """
    by_position: Dict[int, List[float]] = {}
    count: Dict[int, int] = {}
    for position, operations, latency in ops:
        by_position.setdefault(position, []).append(latency)
        count[position] = operations
    seconds = sum(statistics.median(v) for v in by_position.values())
    return sum(count.values()) / seconds if seconds > 0 else 0.0


class Tally:
    """Attempted / failed operations per op type, plus failed checks."""

    def __init__(self) -> None:
        self.ops: Dict[str, List[int]] = {}
        self.check_failures: List[str] = []
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def op(self, name: str, attempted: int = 1, failed: int = 0) -> None:
        with self._lock:
            entry = self.ops.setdefault(name, [0, 0])
            entry[0] += attempted
            entry[1] += failed

    def error(self, name: str, exc: Exception) -> None:
        self.op(name, 1, 1)
        with self._lock:
            self.errors.append(f"{name}: {exc!r}")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            with self._lock:
                self.check_failures.append(message)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.ops.values())


def split_cpus() -> tuple:
    """CPUs for ``(the index process, the load generator)``.

    Each process runs on a CPU of its own (the same one on a one-CPU
    host).  Threads of one process that hop between the vCPUs of a shared
    VM wait on the host for every cross-CPU wake-up, which reads as steal
    time: on ``cluster-rw`` on a 2-vCPU host, unpinned runs read 6.4-6.8
    queries/s at 9-13 % steal, pinned ones 7.7-8.1 at 2-5 %.
    """
    available = sorted(os.sched_getaffinity(0))
    return available[0], available[-1]


class Child:
    """The index-holding process, spoken to in JSON lines.

    It starts pinned to ``cpu``, so every thread it makes (NumPy's BLAS
    pool included) stays on that CPU.
    """

    def __init__(self, config: dict, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(checkout.BENCH_DIR, "sut.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=checkout.ROOT,
            text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.send(config)

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def send(self, message: dict) -> None:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def recv(self, event: str) -> dict:
        try:
            line = self._lines.get(timeout=CHILD_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError(f"index process silent waiting for {event!r}")
        if line is None:
            raise RuntimeError(
                f"index process exited (code {self.proc.wait()}) "
                f"before {event!r}"
            )
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"expected {event!r}, got {message!r}")
        return message

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


def layer_time(layers: dict, name: str, field: str = "self_s") -> float:
    return float(layers.get(name, {}).get(field, 0.0))


def setup_median(setup_layers: dict, name: str) -> float:
    values = setup_layers.get(name)
    return float(statistics.median(values)) if values else 0.0


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def expected_answers(workload, shape, data) -> dict:
    """Oracle answers per ``(op, similarity, query)``: ranked tids, their
    similarities and, on ``lsh-skewed``, every row's similarity."""
    base = data["base"]
    oracle = Oracle(base.indptr, base.items, data["universe"])
    if workload == "exact-d100k":
        wanted = [("knn", n) for n in shape["knn_similarities"]]
        wanted.append(("range", shape["range_similarity"]))
    else:
        wanted = [("knn", shape["similarity"])]
    expected = {}
    queries = data["queries"]
    for q in range(len(queries)):
        items = queries.row(q)
        x = oracle.matches(items)
        for op, name in wanted:
            sims = oracle.similarities(name, items, x)
            if op == "range":
                order = Oracle.at_least(sims, shape["range_threshold"])
            else:
                order = Oracle.top_k(sims, shape["k"])
            keep = sims if workload == "lsh-skewed" else None
            expected[(op, name, q)] = (order, sims[order], keep)
    return expected


def check_in_process(workload, shape, records, tally, expected):
    """Verify every answer; returns the recall of every kNN answer."""
    k = shape["k"]
    recalls = []
    for record in records:
        n = len(record["qidx"])
        if record["error"] is not None:
            tally.op(record["op"], n, n)
            continue
        tally.op(record["op"], n, 0)
        name = record["similarity"]
        for q, answer in zip(record["qidx"], record["answers"]):
            want_tids, want_sims, all_sims = expected[(record["op"], name, q)]
            tids, got_sims = answer
            if all_sims is None:
                tally.check(
                    oracle_module.same_answer(answer, (want_tids, want_sims)),
                    f"{record['op']} {name} query {q}: answer differs from oracle",
                )
            else:
                tally.check(
                    oracle_module.well_ordered(tids, got_sims, k)
                    and bool(np.all(np.abs(got_sims - all_sims[tids]) <= 1e-9)),
                    f"lsh query {q}: answer not ordered or similarity wrong",
                )
            if record["op"] == "knn":
                recalls.append(oracle_module.recall_at_k(got_sims, want_sims, k))
    return recalls


def batch_rate(records, op: str) -> float:
    """Queries per second of one round's ``op`` batches, each batch at
    its median latency across rounds."""
    return median_round_rate([
        (r["position"], len(r["qidx"]), r["latency_s"])
        for r in records if r["op"] == op
    ])


def window_metrics(records) -> dict:
    knn_latency = [r["latency_s"] for r in records if r["op"] == "knn"]
    stats = np.concatenate([r["stats"] for r in records if "stats" in r])
    return {
        "knn_qps": batch_rate(records, "knn"),
        "knn_p50_ms": 1000.0 * percentile(knn_latency, 50),
        "access_fraction": float(np.mean(stats[:, 0] / stats[:, 1])),
        "knn_samples": len(knn_latency),
        "queries": sum(len(r["qidx"]) for r in records),
        "stats": stats,
    }


def run_in_process(args, data, workdir, tally, report) -> dict:
    shape = inputs.WORKLOADS[args.workload]
    child = Child({
        "workload": args.workload, "inputs": os.path.join(workdir, "inputs.npz"),
        "workdir": workdir, "seconds": args.seconds, "trace": args.trace,
        "setups": SETUP_ROUNDS,
    }, args.index_cpu)
    try:
        done = child.recv("done")
    finally:
        child.close()
    with open(done["answers"], "rb") as handle:
        windows = pickle.load(handle)
    expected = expected_answers(args.workload, shape, data)
    recalls = {
        name: check_in_process(args.workload, shape, records, tally, expected)
        for name, records in windows.items()
    }
    report["kernel_fallbacks"] = done["kernel_fallbacks"]
    report["setup_rounds_s"] = done["setup_s"]
    report["warmup_s"] = done["window_s"]["warmup"]
    if not args.trace:
        m = window_metrics(windows["timed"])
        report["knn_latency_samples"] = m["knn_samples"]
        if args.workload == "exact-d100k":
            report["range_qps"] = batch_rate(windows["timed"], "range")
        report["knn_p50_ms"] = m["knn_p50_ms"]
        return {
            "setup_s": float(statistics.median(done["setup_s"])),
            "knn_qps": m["knn_qps"],
            "recall_at_10": float(np.mean(recalls["timed"])),
            "access_fraction": m["access_fraction"],
            "peak_rss_mb": done["peak_rss_mb"],
        }

    plain = window_metrics(windows["plain"])
    traced = window_metrics(windows["traced"])
    q = traced["queries"]
    layers = done["layers"]
    stats = traced["stats"]
    accessed = float(stats[:, 0].sum())
    rows_evaluated = layers.get("similarity.evaluate", {}).get("count", 0.0)
    metrics = common_layer_metrics(done["setup_layers"], layers, q)
    metrics.update({
        "similarity.useful_ratio": safe_div(accessed, rows_evaluated),
        "search.entries_scanned_per_query": float(stats[:, 2].mean()),
        "search.transactions_accessed_per_query": float(stats[:, 0].mean()),
        "pages.pages_read_per_query": float(stats[:, 3].mean()),
        "sketch.candidates_per_query": float(stats[:, 4].mean()),
        "sketch.candidate_yield": candidate_yield(
            windows["traced"], expected, shape
        ),
        "engine.kernel_fallbacks": float(done["kernel_fallbacks"]),
        "trace.overhead_ratio": safe_div(
            safe_div(done["window_s"]["traced"], q),
            safe_div(done["window_s"]["plain"], plain["queries"]),
        ),
    })
    return metrics


def candidate_yield(records, expected, shape) -> float:
    """True top-k tids among the sketch candidates / candidates."""
    found = total = 0
    for record in records:
        for q, cands in zip(record["qidx"], record.get("candidates", [])):
            top = expected[("knn", record["similarity"], q)][0]
            found += int(np.isin(top, cands).sum())
            total += int(np.size(cands))
    return safe_div(found, total)


def common_layer_metrics(setup_layers: dict, layers: dict, q: int) -> dict:
    """Per-layer metrics every workload reports the same way (0 when a
    layer did no work on the workload)."""

    def per_query_ms(*names: str) -> float:
        return 1000.0 * safe_div(sum(layer_time(layers, n) for n in names), q)

    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "partition.build_s": setup_median(setup_layers, "partition.build"),
        "table.build_s": setup_median(setup_layers, "table.build"),
        "sketch.build_s": setup_median(setup_layers, "sketch.build"),
        "live.bootstrap_s": setup_median(setup_layers, "live.bootstrap"),
        "bounds.ms_per_query": per_query_ms("bounds"),
        "transaction.match_counts_ms_per_query": per_query_ms(
            "transaction.match_counts"
        ),
        "similarity.evaluate_ms_per_query": per_query_ms("similarity.evaluate"),
        "kernels.scan_ms_per_query": per_query_ms("kernels.scan"),
        "engine.self_ms_per_query": per_query_ms("engine.run_batch"),
        "similarity.rows_evaluated_per_query": safe_div(
            layers.get("similarity.evaluate", {}).get("count", 0.0), q
        ),
        "search.scalar_ms_per_query": per_query_ms("search.scalar"),
        "search.scalar_calls_per_query": safe_div(
            layers.get("search.scalar", {}).get("calls", 0), q
        ),
        "pages.read_ms_per_query": per_query_ms("pages.read"),
        "pages.read_calls_per_query": safe_div(
            layers.get("pages.read", {}).get("calls", 0), q
        ),
        "sketch.probe_ms_per_query": per_query_ms("sketch.probe"),
        "delta.scan_ms_per_query": per_query_ms("delta.scan"),
    })
    return metrics


# ----------------------------------------------------------------------
# cluster-rw
# ----------------------------------------------------------------------
FAILED = object()


class ClosedLoop(threading.Thread):
    """One client that sends its next request when the last one answers.

    It runs whole rounds while ``keep_going(elapsed_s, rounds)`` holds.
    """

    def __init__(self, address, tally, keep_going):
        super().__init__(daemon=True)
        self.client = ServiceClient(*address, wire="auto")
        self.tally, self.keep_going = tally, keep_going
        #: op -> (end time, latency) of every completed request.
        self.done: Dict[str, List[tuple]] = {}
        self.finished_at = 0.0

    def timed(self, op: str, call):
        """The call's result, or FAILED (counted) when it raised."""
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # counted as a failed op
            self.tally.error(op, exc)
            return FAILED
        t1 = time.perf_counter()
        self.tally.op(op)
        self.done.setdefault(op, []).append((t1, t1 - t0))
        return result

    def latencies(self, op: str, until: float = float("inf")) -> List[float]:
        return [lat for end, lat in self.done.get(op, []) if end <= until]

    def completed(self, op: str) -> int:
        return len(self.done.get(op, []))

    def run(self) -> None:
        start = time.perf_counter()
        rounds = 0
        while self.keep_going(time.perf_counter() - start, rounds):
            rounds += 1
            self.round()
        self.finished_at = time.perf_counter()

    def round(self) -> None:
        raise NotImplementedError


class Reader(ClosedLoop):
    """kNN requests, one pass over the query pool a round."""

    def __init__(self, address, tally, keep_going, queries, shape):
        super().__init__(address, tally, keep_going)
        self.queries, self.shape = queries, shape
        #: Per answer: accessed, database size, entries scanned, pages read.
        self.stats: List[tuple] = []
        #: Per answer: (position in the pool, 1, latency_s).
        self.timings: List[tuple] = []
        self.sent = 0

    def round(self) -> None:
        k = self.shape["k"]
        for position, items in enumerate(self.queries):
            self.sent += 1
            cid = f"r{self.sent}"
            answer = self.timed("knn", lambda: self.client.knn(
                items, similarity=self.shape["similarity"], k=k,
                correlation_id=cid,
            ))
            if answer is FAILED:
                continue
            self.timings.append((position, 1, self.done["knn"][-1][1]))
            hits, stats = answer
            self.tally.check(
                oracle_module.well_ordered(
                    [h.tid for h in hits], [h.similarity for h in hits], k
                ),
                f"knn answer {cid} not in (-similarity, tid) order",
            )
            self.stats.append((
                stats["transactions_accessed"], stats["total_transactions"],
                stats["entries_scanned"], stats["pages_read"],
            ))


class Writer(ClosedLoop):
    """``inserts_per_delete`` inserts, then a delete, each round.

    Keeps its own model of the logical rows: an acknowledged insert's tid
    must equal the model's length before it, and a delete removes
    ``model[tid]``.
    """

    def __init__(self, address, tally, keep_going, model, stream, shape, rng):
        super().__init__(address, tally, keep_going)
        self.model, self.stream, self.shape, self.rng = model, stream, shape, rng
        self.next_row = 0

    def round(self) -> None:
        for _ in range(self.shape["inserts_per_delete"]):
            items = self.stream[self.next_row % len(self.stream)]
            self.next_row += 1
            expected = len(self.model)
            tid = self.timed("insert", lambda: self.client.insert(items))
            if tid is not FAILED:
                self.tally.check(
                    tid == expected, f"insert acked tid {tid}, model says {expected}"
                )
                self.model.append(sorted(set(items)))
        tid = int(self.rng.integers(len(self.model)))
        if self.timed("delete", lambda: self.client.delete(tid)) is not FAILED:
            self.model.pop(tid)


def load_window(address, queries, model, stream, shape, rng, tally, seconds,
                min_rounds):
    """Reader and writer side by side for about ``seconds``.

    The reader runs whole passes over the pool, at least ``min_rounds``;
    the writer runs whole rounds until the reader is done, so every read
    runs beside writes.  The window is the reader's run; writes count when
    they end in it.
    """
    start = time.perf_counter()
    reader = Reader(
        address, tally,
        lambda elapsed, rounds: inputs.another_round(
            elapsed, rounds, seconds, min_rounds
        ),
        queries, shape,
    )
    writer = Writer(
        address, tally, lambda elapsed, rounds: reader.is_alive(),
        model, stream, shape, rng,
    )
    reader.start()
    writer.start()
    reader.join()
    writer.join()
    wire = reader.client.wire
    reader.client.close()
    writer.client.close()
    return reader, writer, reader.finished_at - start, wire


def run_cluster(args, data, workdir, tally, report) -> dict:
    shape = inputs.WORKLOADS["cluster-rw"]
    queries = data["queries"].rows()
    stream = data["stream"].rows()
    model = data["base"].rows() + [sorted(set(r)) for r in data["delta"].rows()]
    rng = np.random.default_rng([args.seed, 1])
    child = Child({
        "workload": args.workload, "inputs": os.path.join(workdir, "inputs.npz"),
        "workdir": workdir, "seconds": args.seconds, "trace": args.trace,
        "setups": SETUP_ROUNDS,
    }, args.index_cpu)
    try:
        ready = child.recv("ready")
        address = tuple(ready["address"])
        report["setup_rounds_s"] = ready["setup_s"]
        # Untimed reads first, so lazily built state on the nodes is in
        # place before the window; one pass of a one-round reader.
        warm = Reader(address, tally, lambda elapsed, rounds: rounds == 0,
                      queries[:WARMUP_READS], shape)
        warm.run()
        warm.client.close()
        client_recorder = Recorder()
        if not args.trace:
            windows = {"timed": load_window(
                address, queries, model, stream, shape, rng, tally,
                args.seconds, inputs.MIN_ROUNDS,
            )}
        else:
            # The traced run reports no rates, so its halves need no medians.
            windows = {"plain": load_window(
                address, queries, model, stream, shape, rng, tally,
                args.seconds / 2.0, 1,
            )}
            child.send({"cmd": "trace"})
            child.recv("tracing")
            client_recorder.install(
                [p for p in QUERY_POINTS if p[0] == "frames.codec"]
            )
            try:
                windows["traced"] = load_window(
                    address, queries, model, stream, shape, rng, tally,
                    args.seconds / 2.0, 1,
                )
            finally:
                client_recorder.uninstall()
        child.send({"cmd": "report"})
        server = child.recv("report")
        registry = {}
        if args.trace:
            with ServiceClient(*address, wire="auto") as admin:
                registry = admin.metrics(scope="cluster")
        child.send({"cmd": "state"})
        state = child.recv("state")["rows"]
        tally.check(
            state == [sorted(set(row)) for row in model],
            "final logical rows differ from the writer's model",
        )
        recalls = verify_cluster(address, queries, model, shape, data, tally)
        child.send({"cmd": "stop"})
        child.recv("stopped")
    finally:
        child.close()

    name = "timed" if not args.trace else "traced"
    reader, writer, window_s, wire = windows[name]
    report["wire"] = wire
    knn_s = reader.latencies("knn")
    insert_s = writer.latencies("insert", reader.finished_at)
    if not args.trace:
        report["knn_latency_samples"] = len(knn_s)
        report["knn_p50_ms"] = 1000.0 * percentile(knn_s, 50)
        report["knn_p90_ms"] = 1000.0 * percentile(knn_s, 90)
        report["insert_ops_s"] = safe_div(len(insert_s), window_s)
        report["insert_p50_ms"] = 1000.0 * percentile(insert_s, 50)
        report["insert_p90_ms"] = 1000.0 * percentile(insert_s, 90)
        report["insert_latency_samples"] = len(insert_s)
        return {
            "setup_s": float(statistics.median(ready["setup_s"])),
            "knn_qps": median_round_rate(reader.timings),
            "recall_at_10": float(np.mean(recalls)),
            "access_fraction": float(np.mean(
                [a / n for a, n, _, _ in reader.stats]
            )),
            "peak_rss_mb": server["peak_rss_mb"],
        }

    # Server-side spans cover every request of the traced phase, the
    # whole-round tail included, so normalise by all completed requests.
    layers = server["layers"]
    q = reader.completed("knn")
    writes = writer.completed("insert") + writer.completed("delete")
    count = lambda layer: layers.get(layer, {}).get("count", 0.0)  # noqa: E731
    calls = lambda layer: layers.get(layer, {}).get("calls", 0)  # noqa: E731
    per_call_ms = lambda layer: 1000.0 * safe_div(  # noqa: E731
        layer_time(layers, layer, "total_s"), calls(layer)
    )
    codec_s = layer_time(layers, "frames.codec") + layer_time(
        client_recorder.summary(), "frames.codec"
    )
    plain_reader, plain_writer, plain_window_s, _ = windows["plain"]
    ops_in = lambda r, w: r.completed("knn") + sum(  # noqa: E731
        len(w.latencies(op, r.finished_at)) for op in ("insert", "delete")
    )
    stats = np.asarray(reader.stats, dtype=np.float64)
    metrics = common_layer_metrics(ready["setup_layers"], layers, q)
    metrics.update({
        "similarity.useful_ratio": safe_div(
            stats[:, 0].sum() * q / len(stats), count("similarity.evaluate")
        ),
        "search.entries_scanned_per_query": float(stats[:, 2].mean()),
        "search.transactions_accessed_per_query": float(stats[:, 0].mean()),
        "pages.pages_read_per_query": float(stats[:, 3].mean()),
        "live.knn_ms": per_call_ms("live.knn"),
        "router.scatter_ms_per_query": 1000.0 * safe_div(
            layer_time(layers, "router.scatter", "total_s"), q
        ),
        "router.legs_per_query": safe_div(count("router.legs"), q),
        "router.insert_ms": per_call_ms("router.insert"),
        # One writer, so router inserts and node inserts pair one to one.
        "router.insert_wait_ms": per_call_ms("router.insert")
        - per_call_ms("live.insert"),
        "live.insert_ms": per_call_ms("live.insert"),
        "wal.append_ms": per_call_ms("wal.append"),
        "wal.fsyncs_per_write": safe_div(calls("wal.fsync"), writes),
        "wal.bytes_per_write": safe_div(count("wal.write"), writes),
        "batcher.queue_wait_ms": 1000.0 * safe_div(count("batcher.queue_wait_s"), q),
        "batcher.batch_size_mean": safe_div(
            count("batcher.requests"), count("batcher.batches")
        ),
        "frames.codec_ms_per_request": 1000.0 * safe_div(codec_s, q + writes),
        "frames.binary_share": 1.0 if wire == "binary" else 0.0,
        "engine.kernel_fallbacks": counter_total(
            registry, "repro_kernel_fallbacks_total"
        ),
        "trace.overhead_ratio": safe_div(
            safe_div(window_s, ops_in(reader, writer)),
            safe_div(plain_window_s, ops_in(plain_reader, plain_writer)),
        ),
    })
    return metrics


def verify_cluster(address, queries, model, shape, data, tally) -> List[float]:
    """Every pool query through the router against the oracle over the
    writer's model."""
    recalls = []
    with ServiceClient(*address, wire="auto") as client:
        oracle = Oracle.from_rows(model, data["universe"])
        for q, items in enumerate(queries):
            hits, _ = client.knn(items, similarity=shape["similarity"], k=shape["k"])
            got = (np.array([h.tid for h in hits], dtype=np.int64),
                   np.array([h.similarity for h in hits], dtype=np.float64))
            want = oracle.knn(shape["similarity"], items, shape["k"])
            tally.check(
                oracle_module.same_answer(got, want),
                f"final knn query {q} differs from the oracle over the model",
            )
            recalls.append(oracle_module.recall_at_k(got[1], want[1], shape["k"]))
    return recalls


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def run_once(args) -> int:
    failures = oracle_module.self_check()
    if failures:
        sys.stderr.write("perfbench: oracle self-check failed: %s\n" % failures)
        return 1
    args.index_cpu, load_cpu = split_cpus()
    os.sched_setaffinity(0, {load_cpu})
    workdir = os.path.join(checkout.ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    tally = Tally()
    report: Dict[str, object] = {}
    try:
        data = inputs.generate(args.workload, args.seed)
        inputs.save(os.path.join(workdir, "inputs.npz"), data)
        if args.workload == "cluster-rw":
            metrics = run_cluster(args, data, workdir, tally, report)
        else:
            metrics = run_in_process(args, data, workdir, tally, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    correct = not tally.check_failures
    units = PER_LAYER if args.trace else END_TO_END
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"wire={report.get('wire', 'in-process')} "
        f"cpus=index:{args.index_cpu},load:{load_cpu}"
    )
    for op, (attempted, failed) in sorted(tally.ops.items()):
        print(f"op={op} attempted={attempted} failed={failed}")
    for name, value in sorted(report.items()):
        if name != "wire":
            print(f"info {name} = {value}")
    for message in tally.errors[:20]:
        print(f"OP FAILED: {message}")
    for message in tally.check_failures[:20]:
        print(f"CHECK FAILED: {message}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct and tally.failed == 0 else 1


def run_repeat(args) -> int:
    """Run the workload ``--repeat`` times on consecutive seeds."""
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    status = 0
    for i in range(args.repeat):
        seed = args.seed + i
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=checkout.ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = median
        spread = safe_div(q3 - q1, abs(median))
        print(f"{name:42s} median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"iqr/median={spread:.4f} {units[name]}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times on consecutive seeds; print quartiles")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.repeat:
        return run_repeat(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
