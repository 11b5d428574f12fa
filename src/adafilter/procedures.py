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
the exact rational (single rounding via integer division). The fast search
and the exhaustive oracle therefore agree bit for bit.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import (
    NoTestableHypotheses,
    OracleSizeExceeded,
    ValidationError,
)
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
    "adafilter_bh_oracle",
    "curves",
]

_ORACLE_LIMIT = 200


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


def adafilter_bonferroni(stats: FilterSelectStats, alpha: float) -> DecisionResult:
    """Adaptive Bonferroni: largest gamma = alpha/k with gamma * #{F <= gamma} <= alpha.

    Since gamma = alpha/k, feasibility is exactly #{F <= alpha/k} <= k, an
    integer comparison with no rounding slack, and it holds exactly when the
    (k+1)-th smallest F exceeds alpha/k (k = M_t is always feasible). The
    count is nonincreasing in k, so the smallest feasible k gives the largest
    feasible gamma.
    """
    alpha = _check_alpha(alpha)
    m_t = _testable_count(stats)
    gammas = alpha / np.arange(1, m_t + 1)
    # "not <=" rather than ">": a NaN sorts above every gamma, as in searchsorted
    feasible = np.append(~(stats.sorted_filter[1:] <= gammas[:-1]), True)
    k_star = int(np.argmax(feasible)) + 1
    gamma0 = float(gammas[k_star - 1])
    adjusted = np.minimum(1.0, stats.select_p * k_star)
    return _decision(
        ProcedureKind.ADAFILTER_BONFERRONI, alpha, gamma0, stats.select_p, stats.testable,
        adjusted, filtered_count=k_star,
    )


def _grid_float(k: int, m: int, num: int, den: int) -> float:
    """Correctly rounded float of the exact rational k*(num/den)/m.

    Integer true division performs a single rounding, so the map from the
    rational k/m to its float is exactly monotone. num/den is alpha as
    returned by float.as_integer_ratio().
    """
    return (k * num) / (m * den)


def _round_preimage(b: float) -> tuple[Fraction, bool]:
    """Exact preimage of "rounds below b": {y : fl(y) < b} = {y < T} or {y <= T}.

    T is the rounding boundary between b and its predecessor float; whether T
    itself still rounds down depends on round-half-to-even, i.e. on the parity
    of the predecessor's bit pattern.
    """
    p = math.nextafter(b, 0.0)
    t = (Fraction(p) + Fraction(b)) / 2
    bits = struct.unpack("<q", struct.pack("<d", p))[0]
    return t, (bits & 1) == 0


def _farey_left(f: Fraction, max_den: int) -> Fraction:
    """Largest fraction strictly below f with denominator <= max_den.

    f must be reduced with denominator <= max_den. Uses the Farey-neighbor
    identity a*y - b*x = 1 solved by a modular inverse.
    """
    a, b = f.numerator, f.denominator
    if a <= 0:
        return Fraction(0)
    if b == 1:
        return Fraction(a * max_den - 1, max_den)
    y0 = pow(a, -1, b)
    y = y0 + ((max_den - y0) // b) * b
    x = (a * y - 1) // b
    return Fraction(x, y)


def _largest_grid_fraction(qbound: Fraction, inclusive: bool, max_den: int) -> Fraction:
    """Largest q = k/m with 1 <= m <= max_den and q <= qbound (< if not inclusive).

    The result is capped at 1 (grid fractions never exceed 1) and Fraction(0)
    means no positive grid fraction qualifies.
    """
    one = Fraction(1)
    if qbound > one or (qbound == one and inclusive):
        return one
    if qbound <= 0:
        return Fraction(0)
    c = qbound.limit_denominator(max_den)
    if c > qbound or (not inclusive and c == qbound):
        c = _farey_left(c, max_den)
    return c if c > 0 else Fraction(0)


def _bh_threshold(stats: FilterSelectStats, alpha: float) -> float:
    """Largest feasible grid value for the adaptive BH procedure.

    Scans the intervals between consecutive breakpoints (the F and S values
    up to alpha) from the top down. Within one interval the counts are
    constant, so the best feasible grid fraction is cS/cF; its float either
    lands in the interval (done), or overshoots, in which case the largest
    grid fraction mapping strictly below the interval's upper edge is found
    exactly with rational arithmetic. Heavily tied inputs may hit the
    rational fallback often; continuous inputs almost never do.
    """
    num, den = alpha.as_integer_ratio()
    m_t = _testable_count(stats)

    # gamma = alpha is the grid maximum; feasible iff #{F<=a} <= #{S<=a}
    cf_alpha, cs_alpha = stats.counts(alpha)
    if cf_alpha <= cs_alpha:
        return alpha

    inner = (stats.sorted_filter[:cf_alpha], stats.sorted_select[:cs_alpha])
    edges = np.unique(np.concatenate([np.array([0.0, alpha]), *inner]))
    lower = edges[:-1]
    upper = edges[1:]
    c_f, c_s = stats.counts(lower)

    # screening: an interval can contribute only if alpha*cS/cF reaches its
    # lower edge (within two-step rounding slack, hence the 1e-9 margin)
    bound = np.full(lower.shape[0], alpha)
    pos = c_f > 0
    bound[pos] = (c_s[pos] * alpha) / c_f[pos]
    np.minimum(bound, alpha, out=bound)
    flagged = bound >= lower * (1.0 - 1e-9)

    best = 0.0
    alpha_frac: Fraction | None = None
    for t in np.flatnonzero(flagged)[::-1]:
        lo = float(lower[t])
        hi = float(upper[t])
        cf_t = int(c_f[t])
        cs_t = int(c_s[t])
        if cf_t == 0 or cs_t >= cf_t:
            k, m = 1, 1
        else:
            k, m = cs_t, cf_t
        if k > 0:
            g = _grid_float(k, m, num, den)
            if g >= lo:
                if g < hi:
                    cf_g, cs_g = stats.counts(g)
                    if k * cf_g <= m * cs_g:
                        best = max(best, g)
                else:
                    t_bound, inclusive = _round_preimage(hi)
                    if alpha_frac is None:
                        alpha_frac = Fraction(num, den)
                    qbound = t_bound / alpha_frac
                    if 0 < cs_t < cf_t:
                        cap = Fraction(cs_t, cf_t)
                        if cap < qbound or (cap == qbound and not inclusive):
                            qbound, inclusive = cap, True
                    q = _largest_grid_fraction(qbound, inclusive, m_t)
                    if q > 0:
                        k2, m2 = q.numerator, q.denominator
                        g2 = _grid_float(k2, m2, num, den)
                        cf_g, cs_g = stats.counts(g2)
                        if g2 >= lo and k2 * cf_g <= m2 * cs_g:
                            best = max(best, g2)
        if best >= lo:
            break
    return best


def adafilter_bh(
    stats: FilterSelectStats, alpha: float, compute_adjusted: bool = False
) -> DecisionResult:
    """Adaptive BH: largest grid gamma with gamma * #{F<=gamma} <= alpha * #{S<=gamma}.

    The candidate grid is {k*alpha/m : 0 <= k <= m <= M_t}; gamma = 0 is
    always feasible. Output is bit-identical to adafilter_bh_oracle.

    compute_adjusted fills per-hypothesis adjusted values: the smallest alpha
    at which the hypothesis would be rejected, located by bisection. Rejection
    is not monotone in alpha for this procedure, so the value is a boundary
    point of the rejection region, not an exact infimum; it is also O(M log M)
    per bisection step and intended for small inputs.
    """
    alpha = _check_alpha(alpha)
    gamma0 = _bh_threshold(stats, alpha)
    adjusted = _bh_adjusted(stats) if compute_adjusted else None
    return _decision(
        ProcedureKind.ADAFILTER_BH, alpha, gamma0, stats.select_p, stats.testable, adjusted
    )


def _bh_adjusted(stats: FilterSelectStats) -> NDArray[np.float64]:
    """1 where alpha = 1 does not reject, NaN where untestable, bisection elsewhere."""
    out = np.where(stats.testable, 1.0, np.nan)
    rejected_at_one = stats.testable & (stats.select_p <= _bh_threshold(stats, 1.0))
    for j in np.flatnonzero(rejected_at_one):
        s_j = float(stats.select_p[j])
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid <= 0.0 or mid >= 1.0:
                break
            if s_j <= _bh_threshold(stats, mid):
                hi = mid
            else:
                lo = mid
        out[j] = hi
    return out


def adafilter_bh_oracle(stats: FilterSelectStats, alpha: float) -> DecisionResult:
    """Literal grid search over every k*alpha/m with 0 <= k <= m <= M_t.

    Ground truth for adafilter_bh, quadratic in M_t and capped at M_t <= 200.
    Every pair is materialized and checked with the same exact arithmetic as
    the fast search.
    """
    alpha = _check_alpha(alpha)
    m_t = _testable_count(stats)
    if m_t > _ORACLE_LIMIT:
        raise OracleSizeExceeded(m_t, _ORACLE_LIMIT)
    num, den = alpha.as_integer_ratio()

    pairs = [(k, m) for m in range(1, m_t + 1) for k in range(1, m + 1)]
    gammas = np.array([_grid_float(k, m, num, den) for k, m in pairs])
    ks, ms = np.array(pairs).T
    c_f, c_s = stats.counts(gammas)
    feasible = ks * c_f <= ms * c_s
    gamma0 = float(gammas[feasible].max()) if feasible.any() else 0.0
    return _decision(ProcedureKind.ADAFILTER_BH, alpha, gamma0, stats.select_p, stats.testable)


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
