"""The four multiple-testing procedures for partial-conjunction testing.

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

The direct procedures combine each testable column into one PC p-value P_j
and correct across the M_t testable hypotheses. They run on direct stats,
F_j = 0 for every j and S = P (_direct_stats): direct Bonferroni's alpha/M_t
is the Bonferroni variant's gamma0, and direct BH is the BH variant's rule, BH
in the form gamma * M_t <= alpha * #{P_j <= gamma}. run_procedure runs any Procedure.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.typing import ArrayLike, NDArray

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
    "run_procedure",
    "direct_adjust",
    "bh_stepup",
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
    procedure and curve counts #{F_j <= gamma} and #{S_j <= gamma} on these
    sorted arrays. The arrays must not change after construction.
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
        k = np.subtract(matrix.n_per_hyp, r - 1, dtype=np.float64)
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


def _direct_stats(pc: NDArray[np.float64], testable: NDArray[np.bool_]) -> FilterSelectStats:
    """Stats with every F_j = 0 and S = P; sorted_filter is preset to the zero-stride
    F's first M_t entries, so F is never sorted or stored."""
    stats = FilterSelectStats(np.broadcast_to(0.0, pc.shape), pc, testable)
    vars(stats)["sorted_filter"] = stats.filter_p[: np.count_nonzero(testable)]
    return stats


def _decision(
    method: ProcedureKind, alpha: float, gamma0: float, stats: FilterSelectStats,
    adjusted: NDArray | None = None, filtered_count: int | None = None,
) -> DecisionResult:
    """Every procedure's last step: reject the testable j with S_j <= gamma0
    (the PC p-value P_j on direct stats)."""
    rejected = _read_only(stats.testable & (stats.select_p <= gamma0))
    untestable = _read_only(~stats.testable)
    if adjusted is not None:
        _read_only(adjusted)
    return DecisionResult(method, alpha, gamma0, filtered_count, rejected, untestable, adjusted)


def adafilter_bonferroni(
    stats: FilterSelectStats, alpha: float, compute_adjusted: bool = False
) -> DecisionResult:
    """Adaptive Bonferroni: largest gamma = alpha/k with gamma * #{F <= gamma} <= alpha.

    Since gamma = alpha/k, feasibility is exactly #{F <= alpha/k} <= k, an
    integer comparison with no rounding slack (a NaN F counts above every
    gamma). The count is nonincreasing in k, so bisection finds the smallest
    feasible k, k* (M_t is always feasible, and it is k* when every F_j = 0),
    which gives the largest feasible gamma. compute_adjusted fills adjusted
    with the smallest alpha that rejects each hypothesis, whatever alpha is
    passed (_bonferroni_adjusted); otherwise adjusted is None.
    """
    alpha = _check_alpha(alpha)
    f, m_t = stats.sorted_filter, _testable_count(stats)
    k_star = 1 + bisect.bisect_left(
        range(1, m_t), True, key=lambda k: f.searchsorted(alpha / k, "right") <= k
    )
    return _decision(
        ProcedureKind.ADAFILTER_BONFERRONI, alpha, alpha / k_star, stats,
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
    f, s = stats.sorted_filter, stats.sorted_select
    n = bisect.bisect_left(
        range(s.size), True, key=lambda i: s[i] > 1.0 / max(int(f.searchsorted(s[i], "right")), 1)
    )
    if n == 0:
        return out
    s = s[:n]
    k = np.maximum(f.searchsorted(s, "right"), 1)
    while True:
        level = _smallest_level(s, k)
        retry = (level <= 1.0) & (f.searchsorted(level / k, "right") > k)
        if not retry.any():
            break
        k = k + retry
    below = stats.testable & (stats.select_p <= s[-1])
    out[below] = np.minimum(level, 1.0)[np.searchsorted(s, stats.select_p[below])]
    return out


def _smallest_level(s: NDArray[np.float64], k: NDArray[np.int64]) -> NDArray[np.float64]:
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


def _counted_grid(f: NDArray, s: NDArray, top: float, extra: ArrayLike = ()) -> tuple:
    """(b, cF, cS) from ascending F and S: b is the sorted unique {0}, the F and S
    values in (0, top] and the extra points, with #{F <= b} and #{S <= b} at each b."""
    inner = [x[x.searchsorted(0.0, "right"):x.searchsorted(top, "right")] for x in (f, s)]
    b = np.unique(np.concatenate([[0.0], *inner, extra]))
    return (b, f.searchsorted(b, "right"), s.searchsorted(b, "right"))


def _breakpoints(f: NDArray[np.float64], s: NDArray[np.float64], top: float) -> tuple:
    """(b, cF, cS, M_t, key) from ascending F and S that hold every value <= top,
    M_t = len(F): _counted_grid's grid up to top and its counts, with the screen
    key (_bh_scan, _bh_adjusted) at each b."""
    b, c_f, c_s = _counted_grid(f, s, top)
    with np.errstate(divide="ignore", invalid="ignore"):
        key = b * c_f / c_s * (1.0 - 2e-15)
    key[: np.searchsorted(b, 1e-290)] = 0.0
    return (b, c_f, c_s, f.shape[0], key)


def _bh_threshold(stats: FilterSelectStats, alpha: float) -> float:
    """Largest feasible grid value for the adaptive BH procedure; M_t = 0 raises."""
    _testable_count(stats)
    return _bh_scan(_breakpoints(stats.sorted_filter, stats.sorted_select, alpha), alpha)


def _bh_scan(table: tuple, alpha: float) -> float:
    """Largest feasible grid value at alpha, from a _breakpoints table up to a top >= alpha.

    The breakpoints b <= alpha cut [0, inf) into intervals [lo, hi) (the top one
    [b_last, inf)), on which cF and cS are constant: fl(k*alpha/m) in [lo, hi) is
    feasible exactly when k/m <= cS/cF. The first value found from the top wins.

    It checks only intervals with key <= alpha. A feasible fl(q*alpha) >= lo with
    q <= cS/cF gives lo*cF/cS <= alpha*(1+u), u = 2**-53, and the key
    fl(fl(lo*cF)/cS) * (1 - 2e-15), about 1 - 18u, covers that and its own three
    roundings (cF = 0 gives key 0, cS = 0 < cF inf). Edges below 1e-290, where
    subnormals break relative bounds, and 0 (with the feasible 0) have key 0.
    """
    for t in np.flatnonzero(table[4] <= alpha)[::-1]:
        g = _interval_value(table, int(t), alpha)
        if g is not None:
            return g
    raise AssertionError("the bottom interval [0, hi) holds the feasible grid value 0")


def _interval_value(table: tuple, t: int, alpha: float) -> float | None:
    """Largest feasible grid value at alpha in the interval from b[t], or None.

    With g = fl(alpha * min(1, cS/cF)) <= alpha:

    - lo <= g < hi: g is the answer;
    - g >= hi: every grid value below hi has k/m < cS/cF, so the largest one
      (_grid_value_below) is the answer if it is >= lo;
    - g < lo, as whenever lo > alpha: the interval holds no feasible value.

    Counts stay Python ints: k * num overflows int64.
    """
    b, c_f, c_s, m_t = table[:4]
    num, den = alpha.as_integer_ratio()
    lo, hi = float(b[t]), float(b[t + 1]) if t + 1 < b.size and b[t + 1] <= alpha else math.inf
    cf_t, cs_t = int(c_f[t]), int(c_s[t])
    g = alpha if cs_t >= cf_t else _grid_float(cs_t, cf_t, num, den)
    if g >= hi:
        g = _grid_value_below(hi, Fraction(num, den), m_t)
    return g if g >= lo else None


def adafilter_bh(
    stats: FilterSelectStats, alpha: float, compute_adjusted: bool = False
) -> DecisionResult:
    """Adaptive BH: largest grid gamma with gamma * #{F<=gamma} <= alpha * #{S<=gamma}.

    The candidate grid is {k*alpha/m : 0 <= k <= m <= M_t}; gamma = 0 is
    always feasible. Output is bit-identical to checking every grid value
    literally (the exhaustive oracle in tests/helpers.py).

    compute_adjusted fills adjusted values (_bh_adjusted), whatever alpha is
    passed: the exact smallest rejecting alpha of each hypothesis that alpha = 1
    rejects, 1 for the others. They cost one breakpoint table at alpha = 1, one
    scan of it, one suffix minimum and a top-down exact settle of a few intervals.
    """
    alpha = _check_alpha(alpha)
    gamma0 = _bh_threshold(stats, alpha)
    adjusted = _bh_adjusted(stats) if compute_adjusted else None
    return _decision(ProcedureKind.ADAFILTER_BH, alpha, gamma0, stats, adjusted)


def _bh_adjusted(stats: FilterSelectStats) -> NDArray[np.float64]:
    """Smallest alpha at which adafilter_bh rejects each j that alpha = 1 rejects
    (0 where S_j = 0), 1 for the others, NaN where untestable; not monotone in alpha.

    alpha rejects j exactly when an interval of the alpha = 1 table from S_j up
    holds a feasible grid value, so the value is a suffix minimum of the intervals'
    levels: b where cS >= cF or b = 0, else _interval_level's, never below the key
    (_bh_scan's screen). So, from the top down, an interval is settled only when its
    key is at most 1 and below every level above it, cheap or settled (best).
    """
    table = _breakpoints(stats.sorted_filter, stats.sorted_select, 1.0)
    b, c_f, c_s, _, key = table
    out = np.where(stats.testable, 1.0, np.nan)
    rejected = stats.testable & (stats.select_p <= _bh_scan(table, 1.0))
    level = np.where((c_s >= c_f) | (b == 0.0), b, math.inf)
    above = np.minimum.accumulate(np.append(level[1:], math.inf)[::-1])[::-1]
    todo = np.flatnonzero(np.isinf(level) & (key < above) & (key <= 1.0))[::-1]
    best = math.inf
    for t, k in zip(todo.tolist(), key[todo].tolist()):
        if k < best:
            best = level[t] = min(best, _interval_level(table, t))
    lowest = np.minimum.accumulate(level[::-1])[::-1]
    out[rejected] = lowest[np.searchsorted(b, stats.select_p[rejected])]
    return out


def _interval_level(table: tuple, t: int) -> float:
    """Smallest alpha (or any above 1, or inf) whose grid has a feasible value in
    [lo, hi) from b[t], where lo > 0 and q = cS/cF < 1: feasible means a fraction
    <= q, so it is the smallest a with fl(q*a) >= lo (the float above fl(lo/q), then
    down while the next qualifies), unless fl(q*a) jumps to hi, the float after lo;
    then the next lower fraction is tried."""
    b, c_f, c_s, m_t = table[:4]
    lo, hi = float(b[t]), float(b[t + 1]) if t + 1 < b.size else math.inf
    k, m = int(c_s[t]), int(c_f[t])
    while k:
        a = math.nextafter(_grid_float(m, k, *lo.as_integer_ratio()), math.inf)
        while (down := math.nextafter(a, 0.0)) and _grid_float(k, m, *down.as_integer_ratio()) >= lo:
            a = down
        if a > 1.0 or _grid_float(k, m, *a.as_integer_ratio()) < hi:
            return a
        q = _farey_left(Fraction(k, m), m_t)
        k, m = q.numerator, q.denominator
    return math.inf


def run_procedure(matrix: PValueMatrix, r: int, proc: Procedure) -> DecisionResult:
    """Run one procedure on a p-value matrix at replicability level r.

    Its callers read only the decisions, so it never builds adjusted values.
    """
    if proc.kind is ProcedureKind.ADAFILTER_BONFERRONI:
        return adafilter_bonferroni(compute_filter_select(matrix, r), proc.alpha)
    if proc.kind is ProcedureKind.ADAFILTER_BH:
        return adafilter_bh(compute_filter_select(matrix, r), proc.alpha)
    return direct_adjust(matrix, r, proc, compute_adjusted=False)


def bh_stepup(pvalues: ArrayLike, alpha: float) -> tuple[NDArray[np.bool_], float]:
    """Classic BH step-up on a 1-d array-like of p-values at a level alpha in (0, 1].

    Returns the rejection mask and the p-value cutoff actually applied
    (0.0 when nothing is rejected). Ties at the cutoff are all rejected, and
    the rungs k*alpha/m are correctly rounded. Any other shape raises.
    """
    pvalues = np.asarray(pvalues, dtype=np.float64)
    if pvalues.ndim != 1:
        raise ValidationError(f"bh_stepup takes a 1-d array of p-values, got {pvalues.ndim}-d")
    cutoff = _bh_cutoff(_direct_stats(pvalues, np.ones(pvalues.shape, bool)), _check_alpha(alpha))
    return pvalues <= cutoff, cutoff


def _bh_cutoff(stats: FilterSelectStats, alpha: float) -> float:
    """BH step-up cutoff on direct stats: P_(k*) for the largest k* with
    P_(k*) <= fl(k*alpha/M_t), else 0.0 (a P = 0 is always rejected, so 0.0 rejects
    none). It is _bh_threshold's body on a table of its own sorted head, the P <= alpha,
    kept apart so that the traced _bh_threshold calls stay adaptive BH's. A NaN P
    fails P <= alpha: never rejected, though M_t may count it (bh_stepup)."""
    head = np.sort(stats.select_p[stats.select_p <= alpha])
    gamma = _bh_scan(_breakpoints(stats.sorted_filter, head, alpha), alpha)
    k = int(np.searchsorted(head, gamma, "right"))
    return float(head[k - 1]) if k else 0.0


def direct_adjust(
    matrix: PValueMatrix, r: int, proc: Procedure, compute_adjusted: bool = True
) -> DecisionResult:
    """Run one direct procedure on a p-value matrix at replicability level r.

    PC p-values are computed per testable column (n_j >= r) with proc's
    combiner (an adaptive proc, which has none, raises ValidationError), and
    the rule runs on their direct stats (_direct_stats); untestable columns
    are excluded from the correction and never rejected. gamma0 reports the
    PC p-value cutoff in use. With compute_adjusted (the default, which the
    benchmark's decision check reads), adjusted holds _bonferroni_adjusted's
    values for Bonferroni, the step-up adjustment for BH, NaN where untestable.
    BH's values cost one value sort plus an argsort of only the P below the
    ladder's top plateau, a few percent of M_t under sparse signal. Without
    compute_adjusted, adjusted is None and the decision costs one pass plus,
    for BH, a table of the P <= alpha.
    """
    if proc.combiner is None:
        raise ValidationError(f"direct_adjust runs a direct procedure, not {proc.kind.value}")
    alpha = float(proc.alpha)
    # untestable columns have NaN PC p-values, which stay NaN when adjusted
    pc, testable = matrix.pc_pvalues(r, proc.combiner), matrix.testable(r)
    stats = _direct_stats(pc, testable)
    if proc.kind is ProcedureKind.DIRECT_BONFERRONI:
        # adafilter_bonferroni's k* is M_t when every F_j = 0
        adjusted = _bonferroni_adjusted(stats) if compute_adjusted else None
        return _decision(proc.kind, alpha, alpha / _testable_count(stats), stats, adjusted)
    adjusted = None
    if compute_adjusted:
        m_t = stats.sorted_filter.size
        # the testable PC p-values sorted, the untestable last as +inf; the
        # buffer then holds the adjusted values, so no second one is allocated
        adjusted = np.where(testable, pc, np.inf)
        adjusted.sort()
        # one buffer: m/i, then m*P_(i)/i, then its running minimum from the
        # top, which never exceeds its top rung P_(m) <= 1, so needs no cap
        ladder = np.arange(1, m_t + 1, dtype=np.float64)
        np.divide(m_t, ladder, out=ladder)
        np.multiply(adjusted[:m_t], ladder, out=ladder)
        np.minimum.accumulate(ladder[::-1], out=ladder[::-1])
        # within a block of ties the running minimum is its value at the
        # block's last position, so the ladder's top plateau [k0, m_t) starts
        # a block: every P > P_(k0) takes its value, and only the few below
        # are ordered, in any tie order (NaN fails both comparisons)
        k0 = int(np.searchsorted(ladder, ladder[-1]))
        below = adjusted[k0 - 1] if k0 else -np.inf
        adjusted.fill(np.nan)
        adjusted[pc > below] = ladder[-1]
        low = np.flatnonzero(pc <= below)
        adjusted[low[np.argsort(pc[low])]] = ladder[:k0]
    return _decision(proc.kind, alpha, _bh_cutoff(stats, alpha), stats, adjusted)


def curves(stats: FilterSelectStats, grid: None = None, alpha: float | None = None) -> CurveTable:
    """Estimated-V and estimated-FDP step curves over the default threshold grid:
    {0}, every F_j and S_j value up to 1 (the alpha = 1 breakpoint table's grid,
    _counted_grid) and, when alpha in (0, 1] is given, the ladder fl(k*alpha/100)
    for k = 1..100. grid is the benchmark's spelling, which passes None before
    alpha; any other value raises, and the slot goes once ROADMAP item 1 passes
    alpha by name."""
    if grid is not None:
        raise ValidationError("curves takes no custom grid: pass alpha by name")
    ladder = ()
    if alpha is not None:
        num, den = _check_alpha(alpha).as_integer_ratio()
        ladder = [_grid_float(k, 100, num, den) for k in range(1, 101)]
    g, c_f, c_s = _counted_grid(stats.sorted_filter, stats.sorted_select, 1.0, ladder)
    v_hat = g * c_f
    fdp_hat = v_hat / np.maximum(c_s, 1)
    return CurveTable(gamma=_read_only(g), v_hat=_read_only(v_hat), fdp_hat=_read_only(fdp_hat))
