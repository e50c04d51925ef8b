"""The process that holds the index.

Started by ``run.py`` with one JSON config line on stdin; answers with
JSON lines on stdout (everything else the program prints goes to
stderr).  It sets the program up ``setups`` times and reports each
round's time, so only program set-up is timed — the inputs arrive
pre-generated in an ``.npz`` file.  Its peak RSS is therefore the index's,
not the data generator's.

* In-process workloads (``exact-d100k``, ``lsh-skewed``) run the timed
  load here, one ``QueryEngine.run_batch`` call per batch (``workers=1``),
  and write every answer to a pickle for ``run.py`` to check.
* ``cluster-rw`` stands up a :class:`ClusterHarness` (router + two live
  shards) and serves it; ``run.py`` drives the load over TCP and sends
  ``trace`` / ``report`` / ``state`` / ``stop`` commands.

With tracing on, set-up runs under the set-up shims; the query-path shims
are installed only for the traced window.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import resource
import shutil
import sys
import time

import checkout  # noqa: F401  (puts the program's src on sys.path)

import numpy as np

import inputs
from layers import QUERY_POINTS, SETUP_POINTS, Recorder, counter_total
from repro.cluster.harness import ClusterHarness
from repro.cluster.ring import HashRing
from repro.core import partitioning
from repro.core.engine import QueryEngine, batch_key
from repro.core.similarity import get_similarity
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase
from repro.obs.log import current_correlation_id
from repro.obs.registry import MetricRegistry
from repro.sketch import SketchIndex

_PROTOCOL = sys.stdout


def send(message: dict) -> None:
    _PROTOCOL.write(json.dumps(message) + "\n")
    _PROTOCOL.flush()


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def as_db(rows: inputs.RowSet, universe: int) -> TransactionDatabase:
    return TransactionDatabase.from_arrays(rows.items, rows.indptr, universe)


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def build_engine(workload: str, shape: dict, db: TransactionDatabase):
    scheme = partitioning.partition_items(
        db, num_signatures=shape["num_signatures"], rng=0
    )
    table = SignatureTable.build(db, scheme)
    if workload == "lsh-skewed":
        table.attach_sketch(
            SketchIndex.build(
                db,
                seed=shape["sketch_seed"],
                design_similarity=shape["design_similarity"],
            )
        )
    return QueryEngine.for_table(table, db, workers=1)


def round_plan(workload: str, shape: dict, num_queries: int):
    """One round of batches: ``(label, similarity name, key, sim, qidx)``.

    Every round runs the same batches in the same order, so every run
    attempts whole rounds of identical operations.
    """
    size = shape["batch"]
    chunks = [
        list(range(start, min(start + size, num_queries)))
        for start in range(0, num_queries, size)
    ]
    plan = []
    if workload == "exact-d100k":
        for name in shape["knn_similarities"]:
            sim = get_similarity(name)
            key = batch_key("knn", sim, k=shape["k"])
            plan += [("knn", name, key, sim, c) for c in chunks]
        name = shape["range_similarity"]
        sim = get_similarity(name)
        key = batch_key("range", sim, threshold=shape["range_threshold"])
        plan += [("range", name, key, sim, c) for c in chunks]
    else:
        sim = get_similarity(shape["similarity"])
        key = batch_key(
            "knn", sim, k=shape["k"], candidate_tier="lsh",
            target_recall=shape["target_recall"],
        )
        plan += [("knn", shape["similarity"], key, sim, c) for c in chunks]
    return plan


def run_window(engine, plan, queries, seconds, min_rounds, recorder=None):
    """Whole rounds of ``plan`` for about ``seconds``, at least
    ``min_rounds`` of them (see :func:`inputs.another_round`).

    Returns one record per batch: its label, position in the round,
    latency, answers and the per-query counters the metrics need.
    """
    records = []
    rounds = 0
    start = time.perf_counter()
    while inputs.another_round(
        time.perf_counter() - start, rounds, seconds, min_rounds
    ):
        rounds += 1
        for position, (label, name, key, sim, qidx) in enumerate(plan):
            targets = [queries[q] for q in qidx]
            if recorder is not None:
                recorder.request = f"batch-{len(records)}"
                recorder.probe_candidates = []
            t0 = time.perf_counter()
            try:
                results, stats = engine.run_batch(key, sim, targets)
                error = None
            except Exception as exc:  # a failed batch fails its queries
                results, stats, error = None, None, repr(exc)
            latency = time.perf_counter() - t0
            record = {"op": label, "similarity": name, "qidx": qidx,
                      "position": position, "latency_s": latency,
                      "error": error}
            if results is not None:
                record["answers"] = [
                    (np.array([n.tid for n in hits], dtype=np.int64),
                     np.array([n.similarity for n in hits], dtype=np.float64))
                    for hits in results
                ]
                record["stats"] = np.array(
                    [[s.transactions_accessed, s.total_transactions,
                      s.entries_scanned, s.io.pages_read,
                      s.sketch_candidates or 0] for s in stats],
                    dtype=np.float64,
                )
                if recorder is not None and recorder.probe_candidates:
                    record["candidates"] = list(recorder.probe_candidates)
            records.append(record)
    return records, time.perf_counter() - start


def serve_in_process(cfg: dict) -> None:
    workload = cfg["workload"]
    shape = inputs.WORKLOADS[workload]
    data = inputs.load(cfg["inputs"])
    db = as_db(data["base"], data["universe"])
    queries = data["queries"].rows()
    recorder = Recorder()
    trace = bool(cfg["trace"])

    if trace:
        recorder.install(SETUP_POINTS)
    setup_s = []
    engine = None
    for r in range(cfg["setups"]):
        engine = None
        gc.collect()
        recorder.request = f"setup-{r}"
        t0 = time.perf_counter()
        engine = build_engine(workload, shape, db)
        setup_s.append(time.perf_counter() - t0)
    setup_layers = recorder.setup_seconds()
    recorder.uninstall()
    recorder.clear()
    registry = MetricRegistry()
    engine.bind_metrics(registry)
    plan = round_plan(workload, shape, len(queries))

    # One untimed batch per distinct batch key first, so lazily built
    # program state (packed rows, postings) is in place before timing.
    first = {}
    for batch in plan:
        first.setdefault(batch[2], batch)
    windows = {
        "warmup": run_window(engine, list(first.values()), queries, 0.0, 1)
    }
    if not trace:
        windows["timed"] = run_window(
            engine, plan, queries, cfg["seconds"], inputs.MIN_ROUNDS
        )
    else:
        # The traced run reports no rates, so its halves need no medians.
        half = cfg["seconds"] / 2.0
        windows["plain"] = run_window(engine, plan, queries, half, 1)
        recorder.install(QUERY_POINTS)
        recorder.keep_candidates = True
        windows["traced"] = run_window(engine, plan, queries, half, 1, recorder)
        recorder.uninstall()
    peak = peak_rss_mb()
    fallbacks = counter_total(registry.to_json(), "repro_kernel_fallbacks_total")
    out_path = os.path.join(cfg["workdir"], "answers.pkl")
    with open(out_path, "wb") as handle:
        pickle.dump(
            {name: records for name, (records, _) in windows.items()}, handle
        )
    send({
        "event": "done",
        "setup_s": setup_s,
        "setup_layers": setup_layers,
        "peak_rss_mb": peak,
        "window_s": {name: seconds for name, (_, seconds) in windows.items()},
        "answers": out_path,
        "layers": recorder.summary() if trace else {},
        "kernel_fallbacks": fallbacks,
    })


# ----------------------------------------------------------------------
# cluster-rw: serve a router over two live shards
# ----------------------------------------------------------------------
def serve_cluster(cfg: dict) -> None:
    shape = inputs.WORKLOADS["cluster-rw"]
    data = inputs.load(cfg["inputs"])
    base = data["base"]
    base_rows = base.rows()
    delta_rows = data["delta"].rows()
    db = as_db(base, data["universe"])
    # Set-up spans carry the round; served requests the client's
    # correlation id.
    recorder = Recorder(fallback_id=current_correlation_id)
    trace = bool(cfg["trace"])
    if trace:
        recorder.install(SETUP_POINTS)

    setup_s = []
    harness = None
    for r in range(cfg["setups"]):
        if harness is not None:
            harness.close()
            shutil.rmtree(harness.base_dir, ignore_errors=True)
            harness = None
            gc.collect()
        base_dir = os.path.join(cfg["workdir"], f"cluster-{r}")
        recorder.request = f"setup-{r}"
        t0 = time.perf_counter()
        scheme = partitioning.partition_items(
            db, num_signatures=shape["num_signatures"], rng=0
        )
        ring = HashRing(list(shape["shards"]))
        assignment = [ring.owner_of(g) for g in range(len(base_rows))]
        harness = ClusterHarness(
            base_dir, scheme, shards=shape["shards"],
            rows=base_rows, assignment=assignment,
        )
        for row in delta_rows:
            harness.router.insert(row)
        setup_s.append(time.perf_counter() - t0)
    recorder.request = None
    setup_layers = recorder.setup_seconds()
    recorder.uninstall()
    recorder.clear()
    send({
        "event": "ready",
        "address": list(harness.router_address),
        "setup_s": setup_s,
        "setup_layers": setup_layers,
    })
    try:
        for line in sys.stdin:
            command = json.loads(line)["cmd"]
            if command == "trace":
                recorder.clear()
                recorder.install(QUERY_POINTS)
                recorder.install_batcher()
                send({"event": "tracing"})
            elif command == "report":
                recorder.uninstall()
                send({
                    "event": "report",
                    "peak_rss_mb": peak_rss_mb(),
                    "layers": recorder.summary() if trace else {},
                })
            elif command == "state":
                db = harness.router.logical_db()
                send({"event": "state",
                      "rows": [sorted(db[t]) for t in range(len(db))]})
            elif command == "stop":
                break
    finally:
        recorder.uninstall()
        harness.close()
        shutil.rmtree(harness.base_dir, ignore_errors=True)
    send({"event": "stopped"})


def main() -> None:
    # Keep stdout for the protocol; whatever the program prints goes
    # to stderr.
    sys.stdout = sys.stderr
    cfg = json.loads(sys.stdin.readline())
    if cfg["workload"] == "cluster-rw":
        serve_cluster(cfg)
    else:
        serve_in_process(cfg)


if __name__ == "__main__":
    main()
