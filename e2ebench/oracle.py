"""Independent answers for the correctness checks.

Nothing here calls the program's scan, filter or cost code: the range
oracle is a closed-box numpy mask over the source columns, the solver
oracle is brute-force enumeration and the Eq. 8-12 oracle is a
Monte-Carlo count of intersected partition boxes.
"""

from __future__ import annotations

import itertools

import numpy as np

_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                 0xD6E8FEB86659FD93, 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53,
                 0x94D049BB133111EB, 0xBF58476D1CE4E5B9], dtype=np.uint64)


def _row_bytes(columns: dict, names: tuple[str, ...]) -> np.ndarray:
    """Each record as one row of raw bytes (column order ``names``),
    zero-padded to a multiple of 8 bytes."""
    n = len(columns[names[0]])
    parts = [np.ascontiguousarray(columns[name]).view(np.uint8)
             .reshape(n, columns[name].dtype.itemsize) for name in names]
    width = sum(p.shape[1] for p in parts)
    pad = -width % 8
    if pad:
        parts.append(np.zeros((n, pad), dtype=np.uint8))
    return np.ascontiguousarray(np.concatenate(parts, axis=1))


def _row_hash(rows: np.ndarray) -> np.ndarray:
    words = rows.view(np.uint64)
    h = np.zeros(len(rows), dtype=np.uint64)
    for i in range(words.shape[1]):
        h ^= words[:, i] * _MIX[i % len(_MIX)]
        h ^= h >> np.uint64(31)
        h *= _MIX[(i + 3) % len(_MIX)]
    return h


class RangeOracle:
    """Bit-exact multiset answers to closed-box range queries.

    The source records are ordered canonically once (by a 64-bit row
    hash).  A query's expected answer is the sorted list of canonical
    ranks whose records lie in the closed box; a returned result maps to
    ranks by hash lookup, and every returned row is then compared with
    its source row byte for byte.  Identical source rows share one rank,
    so the comparison is of multisets.
    """

    def __init__(self, columns: dict):
        self._names = tuple(sorted(columns))
        rows = _row_bytes(columns, self._names)
        hashes = _row_hash(rows)
        order = np.argsort(hashes, kind="stable")
        self._hash = hashes[order]
        self._rows = rows[order]
        #: position of each canonical record in the source order
        self.source_index = order
        self._x = np.asarray(columns["x"])[order]
        self._y = np.asarray(columns["y"])[order]
        self._t = np.asarray(columns["t"])[order]
        same_hash = self._hash[1:] == self._hash[:-1]
        same_row = (self._rows[1:] == self._rows[:-1]).all(axis=1)
        if np.any(same_hash & ~same_row):
            raise RuntimeError("64-bit row hash collision in the source")
        rank = np.arange(len(order))
        rank[1:][same_hash] = 0
        self._rep = np.maximum.accumulate(rank)

    def box_mask(self, box, visible: int | None = None) -> np.ndarray:
        """Canonical-order mask of the records in the closed ``box``
        (among the first ``visible`` source records, when given)."""
        mask = ((self._x >= box.x_min) & (self._x <= box.x_max)
                & (self._y >= box.y_min) & (self._y <= box.y_max)
                & (self._t >= box.t_min) & (self._t <= box.t_max))
        if visible is not None:
            mask &= self.source_index < visible
        return mask

    def expected(self, box, visible: int | None = None) -> np.ndarray:
        return self._rep[np.flatnonzero(self.box_mask(box, visible))]

    def all_ranks(self, visible: int) -> np.ndarray:
        """Sorted ranks of the first ``visible`` source records."""
        return self._rep[np.flatnonzero(self.source_index < visible)]

    def ranks_of(self, columns: dict) -> np.ndarray | None:
        """Sorted canonical ranks of a result's records, or None when a
        record is not bit-identical to any source record."""
        if set(columns) != set(self._names):
            return None
        rows = _row_bytes(columns, self._names)
        hashes = _row_hash(rows)
        pos = np.searchsorted(self._hash, hashes)
        if len(pos) and (pos.max() >= len(self._hash)
                         or np.any(self._hash[pos] != hashes)
                         or not np.array_equal(self._rows[pos], rows)):
            return None
        return np.sort(self._rep[pos])

    def matches(self, columns: dict, box, visible: int | None = None) -> bool:
        got = self.ranks_of(columns)
        return got is not None and np.array_equal(got,
                                                  self.expected(box, visible))


# -- replica selection -----------------------------------------------------------


def brute_force_cost(costs: np.ndarray, weights: np.ndarray,
                     storage: np.ndarray, budget: float) -> float:
    """min over non-empty subsets within ``budget`` of
    ``sum_i w_i * min_{j in S} costs[i, j]`` (Eq. 5), by enumeration."""
    m = costs.shape[1]
    best = np.inf
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            if storage[list(subset)].sum() > budget:
                continue
            cost = float(weights @ costs[:, list(subset)].min(axis=1))
            best = min(best, cost)
    return best


# -- Eq. 8-12 ------------------------------------------------------------------------


def monte_carlo_np(box_array: np.ndarray, universe, size, rng,
                   trials: int) -> tuple[float, float]:
    """Mean and standard error of the number of partition boxes a
    grouped query of extent ``size`` intersects, its centroid uniform
    over the range that keeps the query inside ``universe``."""
    w, h, t = size
    lo = np.array([universe.x_min + w / 2, universe.y_min + h / 2,
                   universe.t_min + t / 2])
    hi = np.array([universe.x_max - w / 2, universe.y_max - h / 2,
                   universe.t_max - t / 2])
    hi = np.maximum(hi, lo)
    half = np.array([w, h, t]) / 2
    boxes = np.asarray(box_array, dtype=np.float64)
    counts = np.empty(trials)
    for k in range(trials):
        c = rng.uniform(lo, hi)
        qlo, qhi = c - half, c + half
        hit = ((boxes[:, 0] <= qhi[0]) & (boxes[:, 1] >= qlo[0])
               & (boxes[:, 2] <= qhi[1]) & (boxes[:, 3] >= qlo[1])
               & (boxes[:, 4] <= qhi[2]) & (boxes[:, 5] >= qlo[2]))
        counts[k] = hit.sum()
    return float(counts.mean()), float(counts.std(ddof=1) / np.sqrt(trials))
