"""Seeded inputs for the benchmark workloads.

Everything a run feeds the program comes from the paper's synthetic
generator (``repro.data.generator``): a fixed database per workload and,
drawn by ``--seed``, the held-out query pool and the rows the cluster
writer inserts.  The same seed always gives byte-identical inputs.  The
program under test only ever sees the generated rows; nothing here is
timed.

Inputs travel to the process that holds the index as one ``.npz`` file of
CSR arrays (``indptr``/``items`` per row set), so that process never runs
the generator and its peak RSS describes the index alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.data.generator import MarketBasketGenerator, parse_spec

#: Workload name -> fixed shape of its inputs.  ``pool`` is the number of
#: held-out query rows.  On ``cluster-rw``, ``delta_fraction`` of the base
#: size is preloaded as live inserts and ``insert_pool`` further rows feed
#: the writer (cycled if the run outlasts them).
WORKLOADS: Dict[str, dict] = {
    "exact-d100k": dict(
        spec="T10.I6.D100K", skew=0.0, num_signatures=15, pool=192,
        batch=64, k=10, range_threshold=0.5,
        knn_similarities=("hamming", "match_ratio", "cosine"),
        range_similarity="match_ratio",
    ),
    "lsh-skewed": dict(
        spec="T10.I6.D25K", skew=0.8, num_signatures=15, pool=128,
        batch=16, k=10, similarity="jaccard", target_recall=0.95,
        # Held-out queries sit farther from their nearest neighbour than
        # the in-database near-duplicates the sketch auto-calibration
        # samples; the sketch tier's own sweep pins the same design point.
        design_similarity=0.35, sketch_seed=7,
    ),
    "cluster-rw": dict(
        spec="T10.I6.D5K", skew=0.0, num_signatures=15, pool=16,
        k=10, similarity="match_ratio", delta_fraction=0.04,
        insert_pool=4000, shards=("s0", "s1"), inserts_per_delete=4,
    ),
}


#: Timed windows run at least this many whole rounds, so that every
#: operation of a round has a median latency across rounds.
MIN_ROUNDS = 3


def another_round(
    elapsed_s: float, rounds: int, seconds: float, min_rounds: int = MIN_ROUNDS
) -> bool:
    """Whether a load loop starts another whole round.

    Every run attempts whole rounds of the same operations.  The first
    ``min_rounds`` rounds always run; after them a round starts while it
    is expected (from the mean round so far) to be at least half done by
    ``seconds``, so a run measures ``seconds`` give or take half a round.
    """
    if rounds < min_rounds:
        return True
    return elapsed_s + 0.5 * elapsed_s / rounds <= seconds


@dataclass
class RowSet:
    """Rows in CSR form: row ``r`` is ``items[indptr[r]:indptr[r + 1]]``."""

    indptr: np.ndarray
    items: np.ndarray

    def __len__(self) -> int:
        return int(self.indptr.size - 1)

    def row(self, r: int) -> List[int]:
        return [int(i) for i in self.items[self.indptr[r]:self.indptr[r + 1]]]

    def rows(self) -> List[List[int]]:
        return [self.row(r) for r in range(len(self))]

    def slice(self, start: int, stop: int) -> "RowSet":
        indptr = self.indptr[start:stop + 1]
        items = self.items[indptr[0]:indptr[-1]]
        return RowSet(indptr - indptr[0], items.copy())


#: The generator seed of every workload's database.  The database (and so
#: the signature table the program builds over it) is fixed; ``--seed``
#: draws everything else.  Partitioning is sensitive to the data: with a
#: database per seed, the exact tier's access fraction alone spread by a
#: quarter of its median across seeds, more than any bound could absorb.
DATABASE_SEED = 1999


def generate(workload: str, seed: int) -> Dict[str, object]:
    """Generate one workload's inputs.

    Returns ``universe`` plus the row sets ``base`` (the indexed rows,
    the same for every seed) and, drawn from the same generator (same
    patterns) on a stream seeded by ``seed``: ``queries`` (the held-out
    query pool) and, for ``cluster-rw``, ``delta`` (rows preloaded as live
    inserts) and ``stream`` (rows the writer inserts during the load).
    """
    shape = WORKLOADS[workload]
    config = parse_spec(shape["spec"], seed=DATABASE_SEED, item_skew=shape["skew"])
    generator = MarketBasketGenerator(config)
    num_delta = int(round(shape.get("delta_fraction", 0.0) * config.num_transactions))
    num_stream = int(shape.get("insert_pool", 0))
    sizes = [shape["pool"], num_delta, num_stream]
    out: Dict[str, object] = {"universe": config.num_items}
    out["base"] = _rowset(generator.generate())
    drawn = _rowset(
        generator.generate(sum(sizes), rng=np.random.default_rng([seed, 1]))
    )
    cut = np.cumsum([0] + sizes)
    for i, name in enumerate(("queries", "delta", "stream")):
        if sizes[i]:
            out[name] = drawn.slice(int(cut[i]), int(cut[i + 1]))
    return out


def _rowset(db) -> "RowSet":
    items, indptr = db.csr()
    return RowSet(np.asarray(indptr, np.int64), np.asarray(items, np.int64))


def save(path: str, inputs: Dict[str, object]) -> None:
    arrays = {"universe": np.asarray(inputs["universe"], np.int64)}
    for name, value in inputs.items():
        if isinstance(value, RowSet):
            arrays[f"{name}_indptr"] = value.indptr
            arrays[f"{name}_items"] = value.items
    np.savez(path, **arrays)


def load(path: str) -> Dict[str, object]:
    with np.load(path) as data:
        out: Dict[str, object] = {"universe": int(data["universe"])}
        for key in data.files:
            if key.endswith("_indptr"):
                name = key[: -len("_indptr")]
                out[name] = RowSet(data[key], data[f"{name}_items"])
    return out
