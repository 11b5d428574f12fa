"""Containers for study-by-hypothesis p-value grids and partial-conjunction
p-value combiners.

A partial-conjunction (PC) hypothesis asks whether a signal is present in at
least r of the n studies that tested it. The combiners here turn the largest
n_j - r + 1 p-values of one hypothesis column into a single PC p-value.
Missing entries are encoded as NaN; n_j counts the observed entries of
column j and is always derived from the values, never passed in.
"""
from __future__ import annotations

import math
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
        """PC p-value of every column at level r; NaN where n_j < r. Raises as testable does."""
        key = ("pc", r, kind)
        if key not in self._memo:
            self.testable(r)
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
    positions since they describe input files. An empty column is reported
    last, as the CSV reader finds it only after reading every line. Beside
    its copy it allocates about one row: the range check is two NaN-skipping
    reductions (a mask is built only to name a bad entry), and the
    empty-column check ANDs the rows' NaN masks one at a time.
    """
    # adding 0.0 copies the input, C-ordered, and turns each -0.0 into +0.0
    # (NaN stays NaN); the empty-column check and the column sort then read whole rows
    arr = np.add(np.asarray(values, dtype=np.float64), 0.0, order="C")
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d grid of p-values, got {arr.ndim} dimension(s)")
    n, m = arr.shape
    if n < 1 or m < 1:
        raise DimensionMismatch(f"grid must be at least 1x1, got {n}x{m}")

    if np.fmin.reduce(arr, axis=None) < 0.0 or np.fmax.reduce(arr, axis=None) > 1.0:
        with np.errstate(invalid="ignore"):
            i, j = np.argwhere((arr < 0.0) | (arr > 1.0))[0]
        raise OutOfRangeEntry(int(i) + 1, int(j) + 1, float(arr[i, j]))

    id_tuple: tuple[str, ...] | None = None
    if ids is not None:
        id_tuple = tuple(ids)
        if set(map(type, id_tuple)) != {str}:
            id_tuple = tuple(str(x) for x in id_tuple)
        if len(id_tuple) != m:
            raise DimensionMismatch(f"got {len(id_tuple)} ids for {m} hypothesis columns")
        if len(set(id_tuple)) != m:
            seen: set[str] = set()
            for ident in id_tuple:
                if ident in seen:
                    raise DuplicateIdentifier(ident)
                seen.add(ident)

    empty = np.isnan(arr[0])
    for row in arr[1:]:
        empty &= np.isnan(row)
    if empty.any():
        j = int(np.flatnonzero(empty)[0])
        raise EmptyColumn(j + 1, None if id_tuple is None else id_tuple[j])

    arr.setflags(write=False)
    return PValueMatrix(values=arr, ids=id_tuple)


def _chi_square_sf_even(x: NDArray[np.float64], df: int) -> NDArray[np.float64]:
    """Chi-square survival function at each x >= 0 (NaN stays NaN) for one even df > 0.

    It is the Poisson probability P(N < df/2) at mean x/2. Up to x/2 = 700
    that is the closed form exp(-x/2) * sum_{k<df/2} (x/2)^k / k!, exact for
    even df and free of cancellation (all terms positive): exp(-x/2) is a
    normal float there and the sum is at most e^(x/2). The first goes
    subnormal from x/2 = 708 and the second overflows from 709, so above 700
    _poisson_cdf_large takes each Poisson term from its logarithm. Against
    mpmath, for df up to 2,000, the relative error stayed below 2e-13 wherever
    the value is a normal float. Values are capped at 1 and x = +inf gives 0.
    It allocates four arrays the size of x, x/2, term, total and one scratch.
    """
    half = 0.5 * np.asarray(x, dtype=np.float64)
    total = np.ones_like(half)
    term = np.ones_like(half)
    scratch = np.empty_like(half)
    # only x/2 > 700 can overflow here, and _poisson_cdf_large replaces those
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, df // 2):
            np.multiply(term, np.divide(half, k, out=scratch), out=term)
            np.add(total, term, out=total)
        np.multiply(np.exp(np.negative(half, out=scratch), out=scratch), total, out=total)
    large = half > 700.0
    if large.any():
        total[large] = _poisson_cdf_large(half[large], df // 2)
    return np.minimum(total, 1.0, out=total)


def _poisson_cdf_large(lam: NDArray[np.float64], n: int) -> NDArray[np.float64]:
    """P(N < n) for N ~ Poisson(lam) at each lam > 700 (+inf gives 0).

    The k-th term is exp(-(k log(k/lam) + lam - k) - c_k), c_k = log k! -
    k log k + k (Loader 2000), each at most 1. Written so, no exponent is a
    small difference of large numbers: as k log(lam) - lgamma(k+1) - lam the
    terms lost up to 9e-13 relative at df = 1900. c_k is summed from its
    increments 1 - k log1p(1/k), which do not cancel either.
    """
    total = np.exp(np.negative(lam))
    c = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # lam = +inf: reset below
        for k in range(1, n):
            total += np.exp(-(k * np.log(k / lam) + lam - k) - c)
            c += 1.0 - k * math.log1p(1.0 / k)
    total[np.isinf(lam)] = 0.0
    return total


def pc_pvalue(column: object, r: int, kind: PCCombinerKind) -> float:
    """PC p-value of one hypothesis at replicability level r.

    `column` holds the hypothesis's p-values, one per study, NaN = missing.
    All three combiners act on the largest n_j - r + 1 observed p-values.
    The result is capped at 1. Requires 2 <= r <= n_j.
    """
    matrix = validate_matrix(np.reshape(column, (-1, 1)))
    return float(matrix.pc_pvalues(r, kind)[0])


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

    This runs Batcher's odd-even merge network (Knuth, TAOCP 3, 5.3.4,
    Algorithm M): each comparator is one np.fmin and one np.maximum over two
    whole rows, which beats numpy's strided per-column sort from about 1,000
    columns, at any n. Below that np.sort wins: the network pays three numpy
    calls per comparator, and the comparators grow as n log^2 n (191 at
    n = 32, 1,007 at 96). np.fmin ignores NaN and np.maximum propagates it, so a
    comparator treats NaN as the largest key. Equal values are bitwise equal,
    so the result matches any sort.
    """
    n, m = a.shape
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
    """Vectorized PC p-values for every column of a pre-sorted matrix, with
    the bits of a per-column formula and a few rows of temporaries.

    Columns with n_j < r get NaN, as their row r-1 is. Bonferroni and Simes
    read whole rows, each column scaled by its own k = n_j - r + 1; a row past
    n_j is NaN, which np.fmin skips. Only Fisher, whose pairwise log sum
    (_log_sum) and degrees of freedom depend on k, groups columns by n_j.
    """
    if kind is PCCombinerKind.BONFERRONI or kind is PCCombinerKind.SIMES:
        k = np.subtract(n_per_hyp, r - 1, dtype=np.float64)
        out = np.multiply(sorted_values[r - 1], k)
        if kind is PCCombinerKind.SIMES:
            # running minimum over the ranks i of (k * P_(r-1+i)) / i
            scaled = np.empty_like(out)
            for i, row in enumerate(sorted_values[r:], start=2):
                np.fmin(out, np.divide(np.multiply(row, k, out=scaled), i, out=scaled), out=out)
        return np.minimum(out, 1.0, out=out)
    if kind is not PCCombinerKind.FISHER:
        raise TypeError(f"unknown combiner kind {kind!r}")
    counts = np.bincount(n_per_hyp)
    out = np.full(sorted_values.shape[1], np.nan)
    for n_j in np.flatnonzero(counts[r:]) + r:
        rows, k = sorted_values[r - 1 : n_j], int(n_j) - r + 1
        cols = None if counts[n_j] == out.size else np.flatnonzero(n_per_hyp == n_j)
        vals = out if cols is None else np.empty(cols.size)
        with np.errstate(divide="ignore"):
            stat = np.multiply(_log_sum(rows, cols, vals), -2.0, out=vals)
        vals[:] = _chi_square_sf_even(stat, 2 * k)
        if cols is not None:
            out[cols] = vals
    return out


def _tail_row(rows, cols, i: int, buf: NDArray[np.float64]) -> NDArray[np.float64]:
    """Row i of a group's tail: a view of rows[i], or its cols gathered into buf."""
    # mode="clip" (no index is out of range) lets np.take write straight into buf
    return rows[i] if cols is None else np.take(rows[i], cols, out=buf, mode="clip")


def _log_sum(rows, cols, total: NDArray[np.float64]) -> NDArray[np.float64]:
    """Sum over the tail rows of np.log of each, written into total, in the
    order of numpy's pairwise sum along a contiguous axis (Higham 1993): below
    8 terms in sequence; up to 128 in 8 interleaved partial sums, combined as
    ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), then the rest in
    sequence; above 128 the two halves, split at a multiple of 8, each so.
    """
    n = rows.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        _log_sum(rows[:half], cols, total)
        total += _log_sum(rows[half:], cols, np.empty_like(total))
        return total
    lanes = [total] + [np.empty_like(total) for _ in range(7 if n >= 8 else 0)]
    for i, lane in enumerate(lanes):
        np.log(_tail_row(rows, cols, i, lane), out=lane)
    scratch = np.empty_like(total)
    stop = n - n % len(lanes)
    for i in range(len(lanes), stop):
        lanes[i % len(lanes)] += np.log(_tail_row(rows, cols, i, scratch), out=scratch)
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)) if n >= 8 else ():
        lanes[a] += lanes[b]
    for i in range(stop, n):
        total += np.log(_tail_row(rows, cols, i, scratch), out=scratch)
    return total
