"""Shared randomized-instance generators for the test suite.

The generator deliberately mixes uniform noise, shrunken signal columns,
heavy ties from rounding, exact boundary values 0 and 1, and missing
entries, because threshold procedures live and die at ties and grid
boundaries.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import adafilter as af
from adafilter.procedures import _grid_float


def random_matrix(rng: np.random.Generator, max_m: int = 50, max_n: int = 8):
    """Random p-value matrix and a compatible replicability level.

    Returns (PValueMatrix, r), or None when every column lost too many
    entries to stay testable.
    """
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(2, max_n + 1))
    r = int(rng.integers(2, n + 1))

    p = rng.random((n, m))
    signal = rng.random((n, m)) < 0.3
    scale = rng.choice([1e-6, 1e-3, 0.05], size=(n, m))
    p = np.where(signal, p * scale, p)
    if rng.random() < 0.5:
        p = np.round(p, 2)
    if rng.random() < 0.3:
        spike = rng.random((n, m)) < 0.05
        p = np.where(spike, rng.choice([0.0, 1.0], size=(n, m)), p)
    if rng.random() < 0.3:
        missing = rng.random((n, m)) < 0.2
        alive = missing.sum(axis=0) < n
        p, missing = p[:, alive], missing[:, alive]
        if p.shape[1] == 0:
            return None
        p = np.where(missing, np.nan, p)

    mat = af.PValueMatrix(values=p)
    if not (mat.n_per_hyp >= r).any():
        return None
    return mat, r


def random_stats(rng: np.random.Generator, max_m: int = 50, max_n: int = 8):
    """Random FilterSelectStats instance, or None (see random_matrix)."""
    inst = random_matrix(rng, max_m=max_m, max_n=max_n)
    if inst is None:
        return None
    mat, r = inst
    return af.compute_filter_select(mat, r)


def random_alpha(rng: np.random.Generator) -> float:
    """Alpha levels covering round values, log-uniform draws, and 1."""
    u = rng.random()
    if u < 0.4:
        return float(rng.choice([0.01, 0.05, 0.1, 0.2, 0.5, 1.0]))
    if u < 0.8:
        return float(10.0 ** rng.uniform(-5.0, 0.0))
    return float(rng.uniform(0.0, 1.0)) or 0.5


def results_equal(a: af.DecisionResult, b: af.DecisionResult) -> bool:
    """Bit-level agreement of threshold, filtered count, and decisions."""
    return (
        a.gamma0 == b.gamma0
        and a.filtered_count == b.filtered_count
        and np.array_equal(a.rejected, b.rejected)
        and np.array_equal(a.untestable, b.untestable)
    )


def adafilter_bh_oracle(stats: af.FilterSelectStats, alpha: float) -> af.DecisionResult:
    """Literal grid search over every k*alpha/m with 0 <= k <= m <= M_t.

    Ground truth for adafilter_bh, quadratic in M_t, so it is kept to
    M_t <= 1,200 (about 1 s there). Every pair is materialized and checked
    with the same exact arithmetic as the fast search.
    """
    alpha = float(alpha)
    m_t = stats.n_testable
    assert 1 <= m_t <= 1200, m_t
    num, den = alpha.as_integer_ratio()

    pairs = [(k, m) for m in range(1, m_t + 1) for k in range(1, m + 1)]
    gammas = np.array([_grid_float(k, m, num, den) for k, m in pairs])
    ks, ms = np.array(pairs).T
    c_f, c_s = stats.counts(gammas)
    feasible = ks * c_f <= ms * c_s
    gamma0 = float(gammas[feasible].max()) if feasible.any() else 0.0
    return af.DecisionResult(
        method=af.ProcedureKind.ADAFILTER_BH,
        alpha=alpha,
        gamma0=gamma0,
        filtered_count=None,
        rejected=stats.testable & (stats.select_p <= gamma0),
        untestable=~stats.testable,
    )


def smallest_grid_level(b: float, k: int, m: int) -> float:
    """Smallest float a with fl((k/m) * a) >= b, for 0 < k <= m and b >= 0: from
    fl(b*m/k), up while the product is below b, then down while it stays >= b."""
    a = b * m / k
    while _grid_float(k, m, *a.as_integer_ratio()) < b:
        a = math.nextafter(a, math.inf)
    while a > 0.0 and _grid_float(k, m, *math.nextafter(a, 0.0).as_integer_ratio()) >= b:
        a = math.nextafter(a, 0.0)
    return a


def adafilter_bh_adjusted_oracle(stats: af.FilterSelectStats) -> np.ndarray:
    """adafilter_bh's adjusted values by brute force over every candidate level.

    If alpha rejects j and the float below it does not, then alpha is the
    smallest a with fl(q*a) >= b for some breakpoint b (an F or S value) and
    some grid fraction q = k/m, 0 < k <= m <= M_t: otherwise the same q puts
    the same feasible grid value in the same interval one float lower. So
    the oracle builds every such level up to 1, runs adafilter_bh at each in
    ascending order, and takes each hypothesis's first rejecting level: 0
    where S_j = 0, 1 where alpha = 1 does not reject, NaN where untestable.
    The levels grow with M_t**2 times the breakpoints, so M_t <= 12.
    """
    m_t = stats.n_testable
    assert 1 <= m_t <= 12, m_t
    testable, s = stats.testable, stats.select_p
    points = np.unique(np.concatenate([stats.filter_p[testable], s[testable]]))
    grid = {Fraction(k, m) for m in range(1, m_t + 1) for k in range(1, m + 1)}
    levels = {
        smallest_grid_level(b, q.numerator, q.denominator)
        for b in points[(points > 0.0) & (points <= 1.0)].tolist() for q in grid
    }
    out = np.where(testable, 1.0, np.nan)
    out[testable & (s == 0.0)] = 0.0
    todo = af.adafilter_bh(stats, 1.0).rejected & (s > 0.0)
    for a in sorted(x for x in levels if x <= 1.0):
        if not todo.any():
            break
        first = todo & af.adafilter_bh(stats, a).rejected
        out[first] = a
        todo &= ~first
    assert not todo.any(), "alpha = 1 rejects j, so some level up to 1 does"
    return out


def adafilter_bonferroni_twostep(stats: af.FilterSelectStats, alpha: float) -> af.DecisionResult:
    """Two-step form of the adaptive Bonferroni procedure, an oracle for it.

    Sort the filtering p-values, find m' = min{j : alpha/j < F_(j)} (m' = M_t
    when the set is empty), then keep m = m' if F_(m') <= alpha/(m'-1) and
    back off to m = m'-1 otherwise. The threshold is alpha/m. At m' = 1 the
    back-off guard has no meaning and m = m' is taken; that choice is what
    makes the result agree with adafilter_bonferroni on every input.
    """
    alpha = float(alpha)
    fs = np.sort(stats.filter_p[stats.testable])
    m_t = fs.shape[0]
    thresholds = alpha / np.arange(1, m_t + 1)
    exceed = fs > thresholds
    if exceed.any():
        m_prime = int(np.argmax(exceed)) + 1
        if m_prime == 1:
            m = 1
        elif fs[m_prime - 1] <= float(thresholds[m_prime - 2]):
            m = m_prime
        else:
            m = m_prime - 1
    else:
        m = m_t
    gamma0 = alpha / m
    return af.DecisionResult(
        method=af.ProcedureKind.ADAFILTER_BONFERRONI,
        alpha=alpha,
        gamma0=gamma0,
        filtered_count=m,
        rejected=stats.testable & (stats.select_p <= gamma0),
        untestable=~stats.testable,
    )


def smallest_float_with_quotient_at_least(s: float, k: int) -> float:
    """Smallest float a >= 0 with fl(a / k) >= s, by bisection on the bit
    patterns of the nonnegative floats (which order them)."""
    lo, hi = 0, int(np.float64(np.inf).view(np.int64))
    while lo < hi:
        mid = (lo + hi) // 2
        if np.int64(mid).view(np.float64) / k >= s:
            hi = mid
        else:
            lo = mid + 1
    return float(np.int64(lo).view(np.float64))


def adafilter_bonferroni_adjusted_oracle(stats: af.FilterSelectStats):
    """Smallest alpha in (0, 1] at which adafilter_bonferroni rejects each j.

    Any rejecting alpha has gamma0 = alpha/k* >= S_j, so it is at least
    a_k = the smallest float with fl(a_k/k) >= S_j for k = k*, and j is
    rejected at a_k too. The oracle therefore tries a_1 <= a_2 <= ... (in k
    order) and runs the procedure at each, stopping at the first that rejects
    j or exceeds 1. 0 where S_j = 0, 1 where no level up to 1 rejects, NaN
    where j is untestable.
    """
    out = np.where(stats.testable, 1.0, np.nan)
    rejected_at = {}
    for j in np.flatnonzero(stats.testable):
        for k in range(1, stats.n_testable + 1):
            a = smallest_float_with_quotient_at_least(float(stats.select_p[j]), k)
            if a > 1.0:
                break
            if a == 0.0:
                out[j] = 0.0
                break
            if a not in rejected_at:
                rejected_at[a] = af.adafilter_bonferroni(stats, a).rejected
            if rejected_at[a][j]:
                out[j] = a
                break
    return out


def check_exact_levels(decide, adjusted, stat, testable) -> int:
    """Check each adjusted value v against the procedure that reported it.

    decide(alpha) is the rejection mask at level alpha. For every j:
    - v in (0, 1): decide(v) rejects j and decide(nextafter(v, 0)) keeps it,
      unless that is 0, which is below every level;
    - v = 1: decide(nextafter(1, 0)) keeps j;
    - v = 0 exactly where j is testable and its statistic is 0;
    - v = NaN exactly where j is untestable.
    Returns how many values in (0, 1) were checked.
    """
    assert np.array_equal(np.isnan(adjusted), ~testable)
    assert np.array_equal(adjusted == 0.0, testable & (stat == 0.0))
    assert np.all(np.isnan(adjusted) | ((adjusted >= 0.0) & (adjusted <= 1.0)))
    masks = {}

    def rejected(alpha: float, j: int) -> bool:
        if alpha not in masks:
            masks[alpha] = decide(alpha)
        return bool(masks[alpha][j])

    inner = 0
    for j in np.flatnonzero(adjusted > 0.0):
        v = float(adjusted[j])
        if v < 1.0:
            assert rejected(v, j), (j, v)
            inner += 1
        below = math.nextafter(v, 0.0)
        assert below == 0.0 or not rejected(below, j), (j, v)
    return inner


def read_outcome(read, path: str):
    """What a CSV reader makes of a file: the matrix's value bits, shape and ids,
    or the type and message of the exception it raised."""
    try:
        matrix = read(path)
    except Exception as exc:  # every exception is compared, not only the expected ones
        return type(exc), str(exc)
    return matrix.values.tobytes(), matrix.values.shape, matrix.ids


def bh_adjusted_pvalues(pvalues):
    """Reference BH adjusted p-values from their own sort: running minimum of
    m*P_(i)/i from the top, capped at 1.

    Within a block of tied p-values the running minimum equals its value at
    the block's last position, so any order of the ties gives the same output.
    """
    m = pvalues.shape[0]
    order = np.argsort(pvalues)
    scaled = pvalues[order] * (m / np.arange(1, m + 1))
    adj = np.minimum.accumulate(scaled[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(1.0, adj)
    return out


def gathered_pc_pvalues(sorted_values, n_per_hyp, r: int, kind: af.PCCombinerKind):
    """PC p-values from each n_j group's tail gathered as
    sorted_values[r - 1 : n_j, :][:, cols], which numpy returns in Fortran
    order, so every reduction over k runs column by column: an oracle pinning
    the bits of pc_core._pc_pvalues_from_sorted, whatever layout it reads."""
    from adafilter.pc_core import _chi_square_sf_even

    out = np.full(sorted_values.shape[1], np.nan)
    for n_j in np.flatnonzero(np.bincount(n_per_hyp)):
        n_j = int(n_j)
        if n_j < r:
            continue
        cols = np.flatnonzero(n_per_hyp == n_j)
        k = n_j - r + 1
        tail = sorted_values[r - 1 : n_j, :][:, cols]
        if kind is af.PCCombinerKind.BONFERRONI:
            vals = k * tail[0]
        elif kind is af.PCCombinerKind.SIMES:
            vals = np.min(k * tail / np.arange(1, k + 1, dtype=np.float64)[:, None], axis=0)
        else:
            with np.errstate(divide="ignore"):
                vals = _chi_square_sf_even(-2.0 * np.sum(np.log(tail), axis=0), 2 * k)
        out[cols] = np.minimum(vals, 1.0)
    return out


GOLDEN_SEED = 20261019
# Fully observed columns planted at the end of the golden matrix. Each prints
# a different 12th digit under a reordering of its combiner's arithmetic that
# is exact in real numbers: Simes at k = 11 (r = 2) gives (11 P)/11 here and
# 11 (P/11) one ulp away, across a rounding boundary of %.12g; Fisher's
# pairwise sum of 11 (r = 2) and of 8 (r = 5) logs differs from their
# sequential sum
GOLDEN_PLANTED = (
    [0.04450319927065] * 12,
    [0.144, 0.168, 0.227, 0.274, 0.367, 0.376, 0.703, 0.711, 0.902, 0.945, 0.950, 0.992],
    [0.005, 0.039, 0.152, 0.159, 0.221, 0.260, 0.354, 0.495, 0.702, 0.836, 0.846, 0.922],
)


def golden_values(m: int = 3000, n: int = 12, planted=GOLDEN_PLANTED) -> np.ndarray:
    """The n x m matrix behind the CLI digest table, a pure function of GOLDEN_SEED.

    Shaped like the benchmark inputs: 5% missing entries, a replicated signal
    in about 10% of the columns, a quarter of the studies rounded to 3
    decimals (ties), exact 0 and 1 entries, and the planted columns (each n
    long) last. With 5% missing, n_j is mixed, and at n = 12 the columns
    with n_j = 12 give Fisher k = 11 at r = 2 and k = 8 at r = 5.
    """
    rng = np.random.Generator(np.random.PCG64(GOLDEN_SEED))
    values = rng.random((n, m))
    signal = rng.random(m) < 0.1
    nonnull = signal & (rng.random((n, m)) < 0.7)
    values[nonnull] = rng.random(np.count_nonzero(nonnull)) ** 12
    rounded = rng.choice(n, size=n // 4, replace=False)
    values[rounded] = np.round(values[rounded], 3)
    spike = rng.random((n, m))
    values[spike < 0.005] = 0.0
    values[spike > 0.995] = 1.0
    missing = rng.random((n, m)) < 0.05
    missing[0, missing.all(axis=0)] = False
    values[missing] = np.nan
    if planted:
        values[:, -len(planted):] = np.array(planted).T
    return values


def matrix_csv(values: np.ndarray, r_layout: bool = False) -> bytes:
    """CSV text of a matrix, one row per hypothesis, NA for missing entries.

    Cells are the shortest decimal that reads back as the same float. With
    r_layout, R's write.csv layout: every header cell quoted, the first one
    empty, and every id quoted.
    """
    n, m = values.shape
    names = [f"s{i + 1}" for i in range(n)]
    ids = [f"h{j:05d}" for j in range(m)]
    if r_layout:
        names = [""] + names
        names, ids = [f'"{x}"' for x in names], [f'"{x}"' for x in ids]
    else:
        names = ["id"] + names
    lines = [",".join(names)]
    for ident, row in zip(ids, values.T.tolist()):
        lines.append(ident + "," + ",".join("NA" if x != x else repr(x) for x in row))
    return ("\n".join(lines) + "\n").encode("ascii")


# A tie on a BH rung: at alpha = 0.05, m = 10 the seventh rung fl(7*0.05/10)
# is 0.035 = P_(7), so 7 rejections at r = 2
DIRECT_BH_RUNG_CSV = (
    "id,s1,s2\n"
    + "".join(f"g{j},0.001,0.001\n" for j in range(1, 7))
    + "g7,0.035,0.01\n"
    + "".join(f"g{j},0.9,0.9\n" for j in range(8, 11))
)


# Adaptive BH at alpha = 0.05, r = 2 (F = the smaller, S = the larger p-value).
# With G = fl(0.05/3), the interval [G, G + 1 ulp) between two breakpoints is
# the highest that holds a feasible grid value, and _grid_value_below(G + 1 ulp)
# returns G itself, which is g1's S: 1 rejection. With gamma0 one ulp lower
# g1 is not rejected; one ulp higher, g2 is rejected too
ADAPTIVE_BH_GRID_TIE_CSV = (
    "id,s1,s2\n"
    "g1,0.001,0.016666666666666666\n"
    "g2,0.01666666666666667,0.01666666666666667\n"
    + "".join(f"g{j},0.01666666666666667,0.9\n" for j in range(3, 10))
)
