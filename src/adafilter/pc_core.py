"""Containers for study-by-hypothesis p-value grids and partial-conjunction
p-value combiners.

A partial-conjunction (PC) hypothesis asks whether a signal is present in at
least r of the n studies that tested it. The combiners here turn the largest
n_j - r + 1 p-values of one hypothesis column into a single PC p-value.
Missing entries are encoded as NaN; n_j counts the observed entries of
column j and is always derived from the values, never passed in.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatch,
    DuplicateIdentifier,
    EmptyColumn,
    OutOfRangeEntry,
    ReplicabilityLevelOutOfRange,
)

__all__ = [
    "PValueMatrix",
    "PCCombinerKind",
    "validate_matrix",
    "pc_pvalue",
]


class PCCombinerKind(Enum):
    """The three supported PC p-value combiners."""

    SIMES = "simes"
    FISHER = "fisher"
    BONFERRONI = "bonferroni"


@dataclass(frozen=True)
class PValueMatrix:
    """Validated n_studies x n_hypotheses grid of p-values, NaN = missing.

    The per-column order statistics every procedure reads are computed once
    and memoised: n_per_hyp, sorted_values and pc_pvalues(r, kind), and, in
    the same store, the F/S statistics per r (procedures.compute_filter_select).
    All are read-only, and values must not change after construction.
    """

    values: NDArray[np.float64]
    ids: tuple[str, ...] | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_studies(self) -> int:
        return self.values.shape[0]

    @property
    def n_hypotheses(self) -> int:
        return self.values.shape[1]

    @cached_property
    def n_per_hyp(self) -> NDArray[np.int64]:
        """Observed-entry count n_j for each hypothesis column."""
        return _read_only(np.count_nonzero(~np.isnan(self.values), axis=0).astype(np.int64))

    @cached_property
    def sorted_values(self) -> NDArray[np.float64]:
        """Each column sorted ascending, missing entries (NaN) at the bottom."""
        return _read_only(_column_sorted(self.values))

    def testable(self, r: int) -> NDArray[np.bool_]:
        """Columns with n_j >= r; raises unless 2 <= r <= max n_j."""
        n_max = int(self.n_per_hyp.max())
        if r < 2 or r > n_max:
            raise ReplicabilityLevelOutOfRange(r, n_max)
        return _read_only(self.n_per_hyp >= r)

    def pc_pvalues(self, r: int, kind: PCCombinerKind) -> NDArray[np.float64]:
        """PC p-value of every column at level r; NaN where n_j < r."""
        key = ("pc", r, kind)
        if key not in self._memo:
            self._memo[key] = _read_only(
                _pc_pvalues_from_sorted(self.sorted_values, self.n_per_hyp, r, kind)
            )
        return self._memo[key]


def _read_only(arr: NDArray) -> NDArray:
    arr.setflags(write=False)
    return arr


def validate_matrix(values: object, ids: object = None) -> PValueMatrix:
    """Build a PValueMatrix from any 2-d array-like of floats.

    Entries must lie in [0, 1]; NaN marks a missing entry. Each column needs
    at least one observed entry. ``ids``, when given, must provide one unique
    identifier per column. Error payloads report 1-based (row, column)
    positions since they describe input files.
    """
    # adding 0.0 copies the input, C-ordered, and turns each -0.0 into +0.0
    # (NaN stays NaN); the axis-0 counts and the column sort then read whole rows
    arr = np.add(np.asarray(values, dtype=np.float64), 0.0, order="C")
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d grid of p-values, got {arr.ndim} dimension(s)")
    n, m = arr.shape
    if n < 1 or m < 1:
        raise DimensionMismatch(f"grid must be at least 1x1, got {n}x{m}")

    with np.errstate(invalid="ignore"):
        bad = (arr < 0.0) | (arr > 1.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise OutOfRangeEntry(int(i) + 1, int(j) + 1, float(arr[i, j]))

    observed = np.count_nonzero(~np.isnan(arr), axis=0)
    if (observed == 0).any():
        j = int(np.flatnonzero(observed == 0)[0])
        raise EmptyColumn(j + 1)

    id_tuple: tuple[str, ...] | None = None
    if ids is not None:
        id_tuple = tuple(str(x) for x in ids)
        if len(id_tuple) != m:
            raise DimensionMismatch(
                f"got {len(id_tuple)} ids for {m} hypothesis columns"
            )
        seen: set[str] = set()
        for ident in id_tuple:
            if ident in seen:
                raise DuplicateIdentifier(ident)
            seen.add(ident)

    arr.setflags(write=False)
    return PValueMatrix(values=arr, ids=id_tuple)


def _chi_square_sf_even(x: NDArray[np.float64], df: int) -> NDArray[np.float64]:
    """Chi-square survival function at each x >= 0 (NaN stays NaN) for one even df > 0.

    Uses the closed-form Poisson sum exp(-x/2) * sum_{k<df/2} (x/2)^k / k!,
    which is exact for even df and free of cancellation (all terms positive).
    Absolute error is below 1e-12. Values are capped at 1 and x = +inf gives 0.
    """
    half = 0.5 * np.asarray(x, dtype=np.float64)
    total = np.ones_like(half)
    term = np.ones_like(half)
    for k in range(1, df // 2):
        term = term * (half / k)
        total = total + term
    with np.errstate(invalid="ignore", over="ignore"):
        raw = np.exp(-half) * total
    out = np.where(half >= 1490.0, 0.0, raw)
    return np.minimum(out, 1.0)


def pc_pvalue(column: object, r: int, kind: PCCombinerKind) -> float:
    """PC p-value of one hypothesis at replicability level r.

    `column` holds the hypothesis's p-values, one per study, NaN = missing.
    All three combiners act on the largest n_j - r + 1 observed p-values.
    The result is capped at 1. Requires 2 <= r <= n_j.
    """
    matrix = validate_matrix(np.reshape(column, (-1, 1)))
    matrix.testable(r)
    return float(matrix.pc_pvalues(r, kind)[0])


# Row count up to which _sort_columns runs the comparator network. At n = 32
# it took 3.5 ms against np.sort's 8.0 ms at M = 1e4 and 0.54 s against 1.02 s
# at M = 1e6. It wins further up too, but it makes three numpy calls per
# comparator, about 2.7 us each at any M, and the comparators grow as
# n log^2 n (191 at n = 32, 1007 at 96): one column of 96 took 2.7 ms, not 2 us.
_NETWORK_MAX_ROWS = 32
# columns sorted at a time, so that every row of a block stays in cache: at
# 1e6 x 8 the network took 58 ms in blocks against 121 ms over whole rows
_NETWORK_BLOCK = 16384


def _column_sorted(values: NDArray[np.float64]) -> NDArray[np.float64]:
    """Sort each column ascending; NaN entries land at the bottom.

    Bit-identical to np.sort(values, axis=0, kind="stable") for entries in
    [0, 1] without -0.0 (validate_matrix's domain). The result is C-ordered
    whatever the input's layout, so the sort and the combiners read whole rows.
    """
    out = np.array(values, order="C")
    _sort_columns(out)
    return out


def _sort_columns(a: NDArray[np.float64]) -> None:
    """Sort each column of a C-ordered array of entries in [0, 1] or NaN in place, NaN last.

    Up to _NETWORK_MAX_ROWS rows this runs Batcher's odd-even merge network
    (Knuth, TAOCP 3, 5.3.4, Algorithm M): each comparator is one np.fmin and
    one np.maximum over two whole rows, which beats numpy's strided
    per-column sort. np.fmin ignores NaN and np.maximum propagates it, so a
    comparator treats NaN as the largest key. Equal values are bitwise equal,
    so the result matches any sort. Above that, ndarray.sort, with NaN sorted
    as +inf (no entry in [0, 1] equals it): its stable sort ran 9-25% slower
    on NaN than on +inf at n = 33..100.
    """
    n, m = a.shape
    if n > _NETWORK_MAX_ROWS:
        np.copyto(a, np.inf, where=np.isnan(a))
        a.sort(axis=0, kind="stable")
        np.copyto(a, np.nan, where=np.isinf(a))
        return
    pairs = _merge_exchange_pairs(n)
    low = np.empty(min(m, _NETWORK_BLOCK))
    for start in range(0, m, _NETWORK_BLOCK):
        block = a[:, start : start + _NETWORK_BLOCK]
        buf = low[: block.shape[1]]
        for i, j in pairs:
            np.fmin(block[i], block[j], out=buf)
            np.maximum(block[i], block[j], out=block[j])
            block[i] = buf


@lru_cache(maxsize=None)
def _merge_exchange_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Comparators (i, j), i < j, of Batcher's merge exchange for n keys, in order."""
    pairs = []
    t = max(n - 1, 0).bit_length()
    p = 1 << t >> 1
    while p > 0:
        q, r, d = 1 << t >> 1, 0, p
        while True:
            pairs.extend((i, i + d) for i in range(n - d) if i & p == r)
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return tuple(pairs)


def _pc_pvalues_from_sorted(
    sorted_values: NDArray[np.float64],
    n_per_hyp: NDArray[np.int64],
    r: int,
    kind: PCCombinerKind,
) -> NDArray[np.float64]:
    """Vectorized PC p-values for every column of a pre-sorted matrix.

    Columns with n_j < r get NaN. Columns are processed in groups sharing
    the same n_j, each group's tail a C-ordered (k, columns) block, so the
    reductions over k run along whole rows. Fisher at k >= 8 keeps the
    Fortran-ordered gather: there np.sum adds each column pairwise, and
    along rows it would add in another order and differ in the last bits.
    """
    m = sorted_values.shape[1]
    out = np.full(m, np.nan, dtype=np.float64)
    for n_j in np.flatnonzero(np.bincount(n_per_hyp)):
        n_j = int(n_j)
        if n_j < r:
            continue
        cols = np.flatnonzero(n_per_hyp == n_j)
        k = n_j - r + 1
        rows = sorted_values[r - 1 : n_j]
        if kind is PCCombinerKind.FISHER and k >= 8:
            tail = rows[:, cols]
        elif cols.size == m:
            tail = rows
        else:
            tail = np.take(rows, cols, axis=1)
        if kind is PCCombinerKind.BONFERRONI:
            vals = k * tail[0]
        elif kind is PCCombinerKind.SIMES:
            ranks = np.arange(1, k + 1, dtype=np.float64)
            vals = np.min(k * tail / ranks[:, None], axis=0)
        elif kind is PCCombinerKind.FISHER:
            with np.errstate(divide="ignore"):
                stat = -2.0 * np.sum(np.log(tail), axis=0)
            vals = _chi_square_sf_even(stat, 2 * k)
        else:
            raise TypeError(f"unknown combiner kind {kind!r}")
        out[cols] = np.minimum(vals, 1.0)
    return out
