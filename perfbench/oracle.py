"""Brute-force oracle, independent of the program under test.

Scores every row against a query straight from the paper's definitions:
``x = |Q ∩ T|`` matches, ``y = |Q Δ T|`` hamming distance, and

* hamming      ``f = 1 / (1 + y)``
* match_ratio  ``f = x / (1 + y)``
* cosine       ``f = x / sqrt(|T| · |Q|)``
* jaccard      ``f = x / (x + y)`` (``1`` when both rows are empty)

(the ``+ 1`` is the program's default smoothing of the paper's ``1/y`` and
``x/y``, which are singular at ``y = 0``).  Answers are ranked on the total
order ``(-similarity, tid)``: kNN keeps the first ``k``, a range query
keeps every row at or above the threshold.  Nothing here imports the
program's similarity, search, baseline or engine code; :func:`self_check`
pins the arithmetic on hand-computed cases.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

Answer = Tuple[np.ndarray, np.ndarray]  # (tids, similarities), ranked


class Oracle:
    """Exhaustive scorer over rows in CSR form."""

    def __init__(self, indptr: np.ndarray, items: np.ndarray, universe: int):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.items = np.asarray(items, dtype=np.int64)
        self.universe = int(universe)
        self.sizes = np.diff(self.indptr)
        self.row_of = np.repeat(np.arange(self.sizes.size), self.sizes)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], universe: int) -> "Oracle":
        sets = [sorted(set(int(i) for i in row)) for row in rows]
        indptr = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in sets], out=indptr[1:])
        items = np.fromiter(
            (i for s in sets for i in s), dtype=np.int64, count=int(indptr[-1])
        )
        return cls(indptr, items, universe)

    def __len__(self) -> int:
        return int(self.sizes.size)

    def matches(self, query: Sequence[int]) -> np.ndarray:
        """``x = |Q ∩ T|`` for every row, indexed by tid."""
        member = np.zeros(self.universe, dtype=bool)
        member[np.asarray(query, dtype=np.int64)] = True
        return np.bincount(
            self.row_of[member[self.items]], minlength=len(self)
        ).astype(np.float64)

    def similarities(
        self, name: str, query: Sequence[int], x: np.ndarray = None
    ) -> np.ndarray:
        """``f(x, y)`` of ``query`` against every row, indexed by tid.

        ``x`` may pass in :meth:`matches` of the same query, so one query
        scored under several functions counts its matches once.
        """
        q = np.unique(np.asarray(query, dtype=np.int64))
        x = self.matches(q) if x is None else x
        t = float(q.size)
        s = self.sizes.astype(np.float64)
        y = s + t - 2.0 * x
        if name == "hamming":
            return 1.0 / (1.0 + y)
        if name == "match_ratio":
            return x / (1.0 + y)
        if name == "cosine":
            return x / np.sqrt(np.maximum(s, 1.0) * max(t, 1.0))
        if name == "jaccard":
            union = x + y
            return np.where(union > 0, x / np.maximum(union, 1.0), 1.0)
        raise ValueError(f"oracle has no similarity {name!r}")

    @staticmethod
    def at_least(sims: np.ndarray, threshold: float) -> np.ndarray:
        """Tids with similarity >= ``threshold``, in ``(-similarity, tid)``
        order."""
        tids = np.flatnonzero(sims >= threshold)
        return tids[np.lexsort((tids, -sims[tids]))]

    @classmethod
    def top_k(cls, sims: np.ndarray, k: int) -> np.ndarray:
        """The first ``k`` tids in ``(-similarity, tid)`` order."""
        if k >= sims.size:
            return cls.at_least(sims, -np.inf)
        kth = np.partition(sims, sims.size - k)[sims.size - k]
        return cls.at_least(sims, kth)[:k]

    def knn(self, name: str, query: Sequence[int], k: int) -> Answer:
        sims = self.similarities(name, query)
        top = self.top_k(sims, k)
        return top, sims[top]

    def range(self, name: str, query: Sequence[int], threshold: float) -> Answer:
        sims = self.similarities(name, query)
        hits = self.at_least(sims, threshold)
        return hits, sims[hits]


def same_answer(got: Answer, want: Answer, tol: float = 1e-9) -> bool:
    """Exact tids, similarities within ``tol``."""
    got_tids, got_sims = got
    want_tids, want_sims = want
    return (
        len(got_tids) == len(want_tids)
        and np.array_equal(np.asarray(got_tids), np.asarray(want_tids))
        and bool(np.all(np.abs(np.asarray(got_sims) - want_sims) <= tol))
    )


def well_ordered(tids: Sequence[int], sims: Sequence[float], k: int) -> bool:
    """At most ``k`` distinct neighbours in ``(-similarity, tid)`` order."""
    if len(tids) > k or len(set(int(t) for t in tids)) != len(tids):
        return False
    keys = [(-float(s), int(t)) for t, s in zip(tids, sims)]
    return all(a < b for a, b in zip(keys, keys[1:]))


def recall_at_k(got_sims: Sequence[float], want_sims: np.ndarray, k: int) -> float:
    """Fraction of the true top-``k`` returned, ties counting.

    A returned neighbour counts when its (oracle-verified) similarity is
    at least the true ``k``-th best, so any member of a tie at the
    boundary is as good as the one the total order happens to pick.
    """
    want = min(k, len(want_sims))
    if want == 0:
        return 1.0
    kth = want_sims[want - 1]
    hits = sum(1 for s in list(got_sims)[:k] if s >= kth - 1e-12)
    return min(hits, want) / want


def self_check() -> List[str]:
    """Hand-computed cases; returns a list of failures (empty when sound)."""
    failures: List[str] = []
    rows = [[1, 2, 3], [2, 3], [4, 5, 6, 7], [1, 2, 3], [9]]
    oracle = Oracle.from_rows(rows, universe=10)
    q = [1, 2, 3]
    # x per row: 3, 2, 0, 3, 0;  y: 0, 1, 7, 0, 4;  |T|: 3, 2, 4, 3, 1.
    cases = {
        "hamming": [1.0, 0.5, 0.125, 1.0, 0.2],
        "match_ratio": [3.0, 1.0, 0.0, 3.0, 0.0],
        "cosine": [1.0, 2.0 / np.sqrt(6.0), 0.0, 1.0, 0.0],
        "jaccard": [1.0, 2.0 / 3.0, 0.0, 1.0, 0.0],
    }
    for name, want in cases.items():
        got = oracle.similarities(name, q)
        if not np.allclose(got, want, rtol=0, atol=1e-15):
            failures.append(f"{name}: {got.tolist()} != {want}")
    # Ties break by tid: rows 0 and 3 are identical to the query.
    tids, _ = oracle.knn("hamming", q, 3)
    if tids.tolist() != [0, 3, 1]:
        failures.append(f"knn tie order {tids.tolist()} != [0, 3, 1]")
    tids, sims = oracle.range("match_ratio", q, 1.0)
    if tids.tolist() != [0, 3, 1] or sims.tolist() != [3.0, 3.0, 1.0]:
        failures.append(f"range {tids.tolist()} {sims.tolist()}")
    empty = Oracle.from_rows([[], [1]], universe=2)
    if empty.similarities("jaccard", [1]).tolist() != [0.0, 1.0]:
        failures.append("jaccard against an empty row")
    if not well_ordered([0, 3, 1], [1.0, 1.0, 0.5], 3) or well_ordered(
        [3, 0], [1.0, 1.0], 3
    ):
        failures.append("well_ordered")
    if recall_at_k([1.0, 0.5], np.array([1.0, 1.0, 0.5]), 2) != 0.5:
        failures.append("recall_at_k")
    return failures
