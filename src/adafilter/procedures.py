"""Adaptive filtering procedures for partial-conjunction testing.

Per hypothesis j with n_j observed p-values, the filtering p-value is
F_j = (n_j-r+1) * P_{(r-1)j} and the selection p-value is
S_j = (n_j-r+1) * P_{(r)j}. Both procedures pick a data-driven threshold
gamma0 from a candidate grid and reject hypothesis j when S_j <= gamma0:

- the Bonferroni variant takes the largest gamma in {alpha/M_t, ..., alpha}
  with gamma * #{F_j <= gamma} <= alpha;
- the BH variant takes the largest gamma in {k*alpha/m : 0 <= k <= m <= M_t}
  with gamma * #{F_j <= gamma} <= alpha * #{S_j <= gamma}.

Grid feasibility is decided in exact integer arithmetic on the counts, and
every grid value k*alpha/m is materialized as the correctly rounded float of
the exact rational (single rounding via integer division). The BH search
therefore returns bit for bit what a literal enumeration of the grid returns
(tests/helpers.py keeps that enumeration as the oracle).
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import NoTestableHypotheses, ValidationError
from .pc_core import PCCombinerKind, PValueMatrix, _read_only

__all__ = [
    "ProcedureKind",
    "Procedure",
    "FilterSelectStats",
    "DecisionResult",
    "CurveTable",
    "compute_filter_select",
    "adafilter_bonferroni",
    "adafilter_bh",
    "curves",
]


class ProcedureKind(Enum):
    ADAFILTER_BONFERRONI = "adafilter-bonferroni"
    ADAFILTER_BH = "adafilter-bh"
    DIRECT_BONFERRONI = "direct-bonferroni"
    DIRECT_BH = "direct-bh"


@dataclass(frozen=True)
class Procedure:
    """One multiple-testing procedure at level alpha.

    The direct procedures need a PC combiner and the adaptive ones take
    none. name is the kind, suffixed by the combiner for direct procedures
    (``adafilter-bh``, ``direct-bh-fisher``).
    """

    kind: ProcedureKind
    alpha: float
    combiner: PCCombinerKind | None = None

    def __post_init__(self) -> None:
        direct = self.kind in (ProcedureKind.DIRECT_BONFERRONI, ProcedureKind.DIRECT_BH)
        if direct and self.combiner is None:
            raise ValidationError(f"method {self.kind.value} requires --combiner")
        if not direct and self.combiner is not None:
            raise ValidationError(f"method {self.kind.value} does not take --combiner")
        _check_alpha(self.alpha)

    @property
    def name(self) -> str:
        if self.combiner is None:
            return self.kind.value
        return f"{self.kind.value}-{self.combiner.value}"


@dataclass(frozen=True)
class FilterSelectStats:
    """Raw filtering/selection p-values for every hypothesis.

    filter_p and select_p are uncapped (they may exceed 1); capping is a
    reporting concern and would break F_j <= S_j tie checks. Columns with
    n_j < r are untestable: testable[j] is False and both p-values are NaN.

    The testable F_j and S_j are sorted once, on first use, and every
    procedure and curve reads its counts #{F_j <= gamma} and #{S_j <= gamma}
    from counts(). The arrays must not change after construction.
    """

    filter_p: NDArray[np.float64]
    select_p: NDArray[np.float64]
    testable: NDArray[np.bool_]

    def __post_init__(self) -> None:
        arrays = (self.filter_p, self.select_p, self.testable)
        one_dim = all(isinstance(a, np.ndarray) and a.ndim == 1 for a in arrays)
        if not one_dim or len({a.shape for a in arrays}) != 1:
            raise ValidationError("filter_p, select_p and testable must be 1-d arrays of one size")
        if self.testable.dtype != np.bool_:
            raise ValidationError(f"testable must be boolean, got dtype {self.testable.dtype}")

    @property
    def n_hypotheses(self) -> int:
        return self.filter_p.shape[0]

    @property
    def n_testable(self) -> int:
        return int(np.count_nonzero(self.testable))

    @cached_property
    def sorted_filter(self) -> NDArray[np.float64]:
        """The testable F_j, ascending."""
        return _read_only(np.sort(self.filter_p[self.testable]))

    @cached_property
    def sorted_select(self) -> NDArray[np.float64]:
        """The testable S_j, ascending."""
        return _read_only(np.sort(self.select_p[self.testable]))

    def counts(self, gamma: float | NDArray[np.float64]) -> tuple:
        """(#{testable j : F_j <= gamma}, #{testable j : S_j <= gamma}), gamma scalar or array."""
        return (
            np.searchsorted(self.sorted_filter, gamma, side="right"),
            np.searchsorted(self.sorted_select, gamma, side="right"),
        )


@dataclass(frozen=True)
class DecisionResult:
    """Outcome of one multiple-testing procedure run."""

    method: ProcedureKind
    alpha: float
    gamma0: float
    filtered_count: int | None
    rejected: NDArray[np.bool_]
    untestable: NDArray[np.bool_]
    adjusted: NDArray[np.float64] | None = None

    @property
    def n_rejected(self) -> int:
        return int(np.count_nonzero(self.rejected))


@dataclass(frozen=True)
class CurveTable:
    """Estimated false-rejection count and FDP along a threshold grid.

    v_hat[t] = gamma[t] * #{j : F_j <= gamma[t]} estimates how many null
    hypotheses a threshold of gamma[t] would sweep in; fdp_hat divides that
    by the number of selections #{j : S_j <= gamma[t]} (at least 1).
    """

    gamma: NDArray[np.float64]
    v_hat: NDArray[np.float64]
    fdp_hat: NDArray[np.float64]


def compute_filter_select(matrix: PValueMatrix, r: int) -> FilterSelectStats:
    """Filtering and selection p-values at replicability level r.

    F_j = (n_j-r+1) * P_{(r-1)j} and S_j = (n_j-r+1) * P_{(r)j}, computed
    from the sorted observed p-values of each column. A single global r is
    used; columns with n_j < r are flagged untestable and excluded from all
    later counts. The result is computed once per matrix and r and memoised
    on the matrix, so repeated calls return the same object.
    """
    key = ("filter_select", r)
    if key not in matrix._memo:
        testable = matrix.testable(r)
        sv = matrix.sorted_values
        k = (matrix.n_per_hyp - r + 1).astype(np.float64)
        # sorted columns put NaN last, so row r-1 is NaN exactly where n_j < r;
        # row r-2 still holds a value where n_j = r-1, so filter_p needs the mask
        filter_p = k * sv[r - 2, :]
        select_p = k * sv[r - 1, :]
        filter_p[~testable] = np.nan
        matrix._memo[key] = FilterSelectStats(_read_only(filter_p), _read_only(select_p), testable)
    return matrix._memo[key]


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise ValidationError(f"alpha must be in (0, 1], got {alpha}")
    return alpha


def _testable_count(stats: FilterSelectStats) -> int:
    """M_t; raises NoTestableHypotheses when it is 0 (possible only for hand-built stats)."""
    m_t = stats.sorted_filter.shape[0]
    if m_t == 0:
        raise NoTestableHypotheses("every column has fewer than r observed p-values")
    return m_t


def _decision(
    method: ProcedureKind, alpha: float, gamma0: float, stat: NDArray, testable: NDArray,
    adjusted: NDArray | None = None, filtered_count: int | None = None,
) -> DecisionResult:
    """Every procedure's last step: reject the testable j whose statistic is <= gamma0.

    The statistic is S_j for the adaptive procedures, the PC p-value for the direct ones.
    """
    rejected = _read_only(testable & (stat <= gamma0))
    untestable = _read_only(~testable)
    if adjusted is not None:
        _read_only(adjusted)
    return DecisionResult(method, alpha, gamma0, filtered_count, rejected, untestable, adjusted)


def adafilter_bonferroni(
    stats: FilterSelectStats, alpha: float, compute_adjusted: bool = False
) -> DecisionResult:
    """Adaptive Bonferroni: largest gamma = alpha/k with gamma * #{F <= gamma} <= alpha.

    Since gamma = alpha/k, feasibility is exactly #{F <= alpha/k} <= k, an
    integer comparison with no rounding slack, and it holds exactly when the
    (k+1)-th smallest F exceeds alpha/k (k = M_t is always feasible). The
    count is nonincreasing in k, so the smallest feasible k gives the largest
    feasible gamma. compute_adjusted fills adjusted with the smallest alpha
    that rejects each hypothesis, whatever alpha is passed
    (_bonferroni_adjusted); otherwise adjusted is None.
    """
    alpha = _check_alpha(alpha)
    m_t = _testable_count(stats)
    gammas = alpha / np.arange(1, m_t + 1)
    # "not <=" rather than ">": a NaN sorts above every gamma, as in searchsorted
    feasible = np.append(~(stats.sorted_filter[1:] <= gammas[:-1]), True)
    k_star = int(np.argmax(feasible)) + 1
    gamma0 = float(gammas[k_star - 1])
    return _decision(
        ProcedureKind.ADAFILTER_BONFERRONI, alpha, gamma0, stats.select_p, stats.testable,
        _bonferroni_adjusted(stats) if compute_adjusted else None, filtered_count=k_star,
    )


def _bonferroni_adjusted(stats: FilterSelectStats) -> NDArray[np.float64]:
    """Smallest alpha at which adafilter_bonferroni rejects each j (1 if none up
    to 1 does, 0 where S_j = 0, NaN where untestable); not monotone in alpha.

    j is rejected at alpha exactly when some k has fl(alpha/k) >= S_j and
    #{F <= fl(alpha/k)} <= k, and then k >= c_j = #{F <= S_j}. The smallest
    alpha with fl(alpha/k) >= S_j, a_k, rises with k, so the answer is a_k at
    the smallest k >= c_j with #{F <= fl(a_k/k)} <= k: c_j itself unless an F
    value lies in the rounding gap between S_j and fl(a_k/k). a_k > 1 once
    fl(1/c_j) < S_j, and along the sorted S that happens from some point on
    (S rises, 1/c_j falls), so bisection finds the prefix that can get a
    value below 1 and only the prefix is counted.
    """
    out = np.where(stats.testable, 1.0, np.nan)
    s = stats.sorted_select
    n = bisect.bisect_left(
        range(s.size), True, key=lambda i: s[i] > 1.0 / max(int(stats.counts(s[i])[0]), 1)
    )
    if n == 0:
        return out
    s = s[:n]
    k = np.maximum(stats.counts(s)[0], 1)
    while True:
        level = _smallest_level(s, k)
        retry = (level <= 1.0) & (stats.counts(level / k)[0] > k)
        if not retry.any():
            break
        k = k + retry
    below = stats.testable & (stats.select_p <= s[-1])
    out[below] = np.minimum(level, 1.0)[np.searchsorted(s, stats.select_p[below])]
    return out


def _smallest_level(s: NDArray[np.float64], k: NDArray[np.int64] | int) -> NDArray[np.float64]:
    """Smallest float a with fl(a/k) >= s, elementwise, NaN where s is: the float
    above fl(s*k) qualifies, and the search steps down while the next one does too."""
    a = np.nextafter(s * k, np.inf)
    while True:
        down = np.nextafter(a, 0.0)
        step = (down < a) & (down / k >= s)
        if not step.any():
            return a
        a = np.where(step, down, a)


def _grid_float(k: int, m: int, num: int, den: int) -> float:
    """Correctly rounded float of the exact rational k*(num/den)/m.

    Integer true division performs a single rounding, so the map from the
    rational k/m to its float is exactly monotone. num/den is alpha as
    returned by float.as_integer_ratio().
    """
    return (k * num) / (m * den)


def _farey_left(f: Fraction, max_den: int) -> Fraction:
    """Largest fraction strictly below f with denominator <= max_den.

    f must be positive and reduced with denominator <= max_den. Uses the
    Farey-neighbor identity a*y - b*x = 1 solved by a modular inverse (0 at b = 1).
    """
    a, b = f.numerator, f.denominator
    y0 = pow(a, -1, b)
    y = y0 + ((max_den - y0) // b) * b
    x = (a * y - 1) // b
    return Fraction(x, y)


def _grid_value_below(hi: float, alpha_fraction: Fraction, max_den: int) -> float:
    """Largest grid value fl(q*alpha) < hi, over q = k/m with 0 <= k <= m <= max_den.

    Needs 0 < hi <= alpha. float() of a Fraction is correctly rounded, as
    _grid_float is. A rational rounds below hi when it lies below the rounding
    boundary T halfway between hi and its predecessor float (T itself may go
    either way). So the grid fraction nearest T/alpha is the answer unless its
    float reaches hi; then it is >= T/alpha and its left Farey neighbour,
    strictly below T/alpha, is the answer.
    """
    t = (Fraction(math.nextafter(hi, 0.0)) + Fraction(hi)) / 2
    q = (t / alpha_fraction).limit_denominator(max_den)
    if float(q * alpha_fraction) >= hi:
        q = _farey_left(q, max_den)
    return float(q * alpha_fraction)


def _breakpoints(stats: FilterSelectStats, top: float) -> tuple:
    """(b, cF, cS, M_t): the sorted unique {0} and F and S values up to top,
    with #{F <= b} and #{S <= b} at each b; one table serves every alpha <= top."""
    m_t = _testable_count(stats)
    cf_top, cs_top = stats.counts(top)
    inner = (stats.sorted_filter[:cf_top], stats.sorted_select[:cs_top])
    b = np.unique(np.concatenate([[0.0], *inner]))
    return (b, *stats.counts(b), m_t)


def _bh_threshold(stats: FilterSelectStats, alpha: float) -> float:
    """Largest feasible grid value for the adaptive BH procedure."""
    return _bh_scan(_breakpoints(stats, alpha), alpha)


def _bh_scan(table: tuple, alpha: float) -> float:
    """Largest feasible grid value at alpha, from a _breakpoints table up to a top >= alpha.

    The breakpoints b <= alpha cut [0, inf) into intervals [lo, hi), the top
    one [b_last, inf), since no F or S lies in (b_last, alpha]. The counts cF
    and cS are constant on each, so a grid value fl(k*alpha/m) in [lo, hi) is
    feasible exactly when k/m <= cS/cF. The scan goes from the top interval
    down and returns the first feasible value it meets, since every later
    interval lies below lo. With g = fl(alpha * min(1, cS/cF)):

    - lo <= g < hi: g is the answer;
    - g >= hi: every grid value below hi has k/m < cS/cF, so the largest one
      (_grid_value_below) is the answer if it is >= lo;
    - g < lo: the interval holds no feasible value.

    The bottom interval starts at the always feasible 0, so the scan ends
    there at the latest. A screening pass skips intervals that cannot hold a
    feasible value. Counts stay Python ints: k * num overflows int64.
    """
    b, c_f, c_s, m_t = table
    n = int(np.searchsorted(b, alpha, side="right"))
    lower, c_f, c_s = b[:n], c_f[:n], c_s[:n]
    num, den = alpha.as_integer_ratio()

    # screening: an interval can contribute only if alpha*cS/cF reaches its
    # lower edge (within two-step rounding slack, hence the 1e-9 margin)
    bound = np.where(c_f > 0, (c_s * alpha) / np.maximum(c_f, 1), alpha)
    flagged = bound >= lower * (1.0 - 1e-9)

    for t in np.flatnonzero(flagged)[::-1]:
        lo, hi = float(lower[t]), float(b[t + 1]) if t + 1 < n else math.inf
        cf_t, cs_t = int(c_f[t]), int(c_s[t])
        g = alpha if cs_t >= cf_t else _grid_float(cs_t, cf_t, num, den)
        if g >= hi:
            g = _grid_value_below(hi, Fraction(num, den), m_t)
        if g >= lo:
            return g
    raise AssertionError("the bottom interval [0, hi) holds the feasible grid value 0")


def adafilter_bh(
    stats: FilterSelectStats, alpha: float, compute_adjusted: bool = False
) -> DecisionResult:
    """Adaptive BH: largest grid gamma with gamma * #{F<=gamma} <= alpha * #{S<=gamma}.

    The candidate grid is {k*alpha/m : 0 <= k <= m <= M_t}; gamma = 0 is
    always feasible. Output is bit-identical to checking every grid value
    literally (the exhaustive oracle in tests/helpers.py).

    compute_adjusted fills per-hypothesis adjusted values: the smallest alpha
    at which the hypothesis would be rejected, located by bisection. Rejection
    is not monotone in alpha for this procedure, so the value is a boundary
    point of the rejection region, not an exact infimum. The F/S breakpoints
    are sorted once (O(M log M)); each distinct bisection level then costs one
    O(M) screen of the table, so the whole is O(M log M + L*M) for L levels,
    up to 60 per hypothesis that alpha = 1 rejects.
    """
    alpha = _check_alpha(alpha)
    gamma0 = _bh_threshold(stats, alpha)
    adjusted = _bh_adjusted(stats) if compute_adjusted else None
    return _decision(
        ProcedureKind.ADAFILTER_BH, alpha, gamma0, stats.select_p, stats.testable, adjusted
    )


def _bh_adjusted(stats: FilterSelectStats) -> NDArray[np.float64]:
    """1 where alpha = 1 does not reject, NaN where untestable, bisection elsewhere.

    Every step scans one breakpoint table built at alpha = 1, and each level is
    scanned once: bisections share their top levels, and tied S whole paths.
    """
    table = _breakpoints(stats, 1.0)
    thresholds: dict[float, float] = {}
    out = np.where(stats.testable, 1.0, np.nan)
    rejected_at_one = stats.testable & (stats.select_p <= _bh_scan(table, 1.0))
    for j in np.flatnonzero(rejected_at_one):
        s_j = float(stats.select_p[j])
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid <= 0.0 or mid >= 1.0:
                break
            if mid not in thresholds:
                thresholds[mid] = _bh_scan(table, mid)
            if s_j <= thresholds[mid]:
                hi = mid
            else:
                lo = mid
        out[j] = hi
    return out


def curves(
    stats: FilterSelectStats,
    grid: NDArray[np.float64] | None = None,
    alpha: float | None = None,
) -> CurveTable:
    """Estimated-V and estimated-FDP step curves over a threshold grid.

    With grid=None the default grid is used: {0}, every F_j and S_j value
    up to 1, and, when alpha is given, the ladder alpha*k/100 for k=1..100.
    A provided grid must be finite and nondecreasing within [0, 1]; it is
    copied, never modified. alpha, whenever given, must lie in (0, 1].
    """
    if alpha is not None:
        alpha = _check_alpha(alpha)
    if grid is None:
        cf_one, cs_one = stats.counts(1.0)
        pieces = [np.array([0.0]), stats.sorted_filter[:cf_one], stats.sorted_select[:cs_one]]
        if alpha is not None:
            pieces.append(alpha * (np.arange(1, 101) / 100.0))
        g = np.unique(np.concatenate(pieces))
    else:
        g = np.array(grid, dtype=np.float64)
        if g.ndim != 1:
            raise ValidationError("grid must be one-dimensional")
        # NaN fails both comparisons, so it is rejected with the out-of-range values
        if not (np.all((g >= 0.0) & (g <= 1.0)) and np.all(np.diff(g) >= 0)):
            raise ValidationError("grid values must be finite and nondecreasing within [0, 1]")
    c_f, c_s = stats.counts(g)
    v_hat = g * c_f
    fdp_hat = v_hat / np.maximum(c_s, 1)
    return CurveTable(gamma=_read_only(g), v_hat=_read_only(v_hat), fdp_hat=_read_only(fdp_hat))
