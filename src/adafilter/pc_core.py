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
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DimensionMismatch,
    DuplicateIdentifier,
    EmptyColumn,
    InvalidDegreesOfFreedom,
    OutOfRangeEntry,
    ReplicabilityLevelOutOfRange,
)

__all__ = [
    "PValueMatrix",
    "SortedColumn",
    "PCCombinerKind",
    "validate_matrix",
    "sort_column",
    "pc_pvalue",
    "chi_square_sf",
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
    the same store, the F/S statistics per r (procedures._filter_select).
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


@dataclass(frozen=True)
class SortedColumn:
    """Observed p-values of one hypothesis column, sorted ascending."""

    hypothesis_index: int
    sorted_p: NDArray[np.float64]
    n_j: int


def validate_matrix(values: object, ids: object = None) -> PValueMatrix:
    """Build a PValueMatrix from any 2-d array-like of floats.

    Entries must lie in [0, 1]; NaN marks a missing entry. Each column needs
    at least one observed entry. ``ids``, when given, must provide one unique
    identifier per column. Error payloads report 1-based (row, column)
    positions since they describe input files.
    """
    arr = np.array(values, dtype=np.float64, copy=True)
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


def sort_column(matrix: PValueMatrix, j: int) -> SortedColumn:
    """Sorted observed p-values of column j (0-based index)."""
    n_j = int(matrix.n_per_hyp[j])
    return SortedColumn(hypothesis_index=j, sorted_p=matrix.sorted_values[:n_j, j], n_j=n_j)


def chi_square_sf(x: float, df: int) -> float:
    """Chi-square survival function for positive even df.

    Uses the closed-form Poisson sum exp(-x/2) * sum_{k<df/2} (x/2)^k / k!,
    which is exact for even df and free of cancellation (all terms positive).
    Absolute error is below 1e-12. Values are capped at 1; x <= 0 returns 1
    and x = +inf returns 0.
    """
    if isinstance(df, bool) or not isinstance(df, (int, np.integer)):
        raise InvalidDegreesOfFreedom(df)
    if df <= 0 or df % 2 != 0:
        raise InvalidDegreesOfFreedom(df)
    x = float(x)
    # the kernel is only correct for x >= 0
    return 1.0 if x <= 0.0 else float(_chi_square_sf_even(np.array([x]), int(df))[0])


def _chi_square_sf_even(x: NDArray[np.float64], df: int) -> NDArray[np.float64]:
    """Vectorized chi_square_sf for one fixed even df (no argument checks)."""
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


def pc_pvalue(sorted_col: SortedColumn, r: int, kind: PCCombinerKind) -> float:
    """PC p-value of one hypothesis column at replicability level r.

    All three combiners act on the largest n_j - r + 1 observed p-values.
    The result is capped at 1. Requires 2 <= r <= n_j.
    """
    n_j = sorted_col.n_j
    if r < 2 or r > n_j:
        raise ReplicabilityLevelOutOfRange(r, n_j)
    sv = sorted_col.sorted_p[:, None]
    return float(_pc_pvalues_from_sorted(sv, np.array([n_j]), r, kind)[0])


def _column_sorted(values: NDArray[np.float64]) -> NDArray[np.float64]:
    """Sort each column ascending; NaN entries land at the bottom."""
    return np.sort(values, axis=0, kind="stable")


def _pc_pvalues_from_sorted(
    sorted_values: NDArray[np.float64],
    n_per_hyp: NDArray[np.int64],
    r: int,
    kind: PCCombinerKind,
) -> NDArray[np.float64]:
    """Vectorized PC p-values for every column of a pre-sorted matrix.

    Columns with n_j < r get NaN. Columns are processed in groups sharing
    the same n_j so each group is a plain 2-d slice.
    """
    m = sorted_values.shape[1]
    out = np.full(m, np.nan, dtype=np.float64)
    for n_j in np.unique(n_per_hyp):
        n_j = int(n_j)
        if n_j < r:
            continue
        cols = np.flatnonzero(n_per_hyp == n_j)
        k = n_j - r + 1
        tail = sorted_values[r - 1 : n_j, :][:, cols]
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
