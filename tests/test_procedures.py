"""Adaptive filtering procedures: thresholds, decisions, and the exact grid search."""

import math
from fractions import Fraction

import numpy as np
import pytest

import adafilter as af
from adafilter import procedures
from adafilter.errors import (
    NoTestableHypotheses,
    ReplicabilityLevelOutOfRange,
    ValidationError,
)
from adafilter.procedures import _farey_left, _grid_float, _grid_value_below
import helpers

NAN = float("nan")


def stats_from(values, r=2) -> af.FilterSelectStats:
    return af.compute_filter_select(af.validate_matrix(values), r)


def stats_from_fs(filter_p, select_p) -> af.FilterSelectStats:
    """Hand-built stats for threshold-level tests (n=2, r=2 columns)."""
    f = np.asarray(filter_p, dtype=np.float64)
    s = np.asarray(select_p, dtype=np.float64)
    testable = ~np.isnan(s)
    return af.FilterSelectStats(filter_p=f, select_p=s, testable=testable)


def table_of(stats, top=1.0) -> tuple:
    """The breakpoint table of stats' sorted F and S up to top."""
    return procedures._breakpoints(stats.sorted_filter, stats.sorted_select, top)


def eager_levels(table) -> np.ndarray:
    """Every interval's level in an alpha = 1 table, whatever its key: b where
    cS >= cF or b = 0, else procedures._interval_level's."""
    b, c_f, c_s = table[:3]
    return np.array([
        b[t] if c_s[t] >= c_f[t] or b[t] == 0.0 else procedures._interval_level(table, t)
        for t in range(b.size)
    ])


def eager_adjusted(stats) -> np.ndarray:
    """adafilter_bh's adjusted values from an eager settle: the suffix minimum of
    every level, 1 where alpha = 1 rejects nothing, NaN where untestable."""
    table = table_of(stats)
    lowest = np.minimum.accumulate(eager_levels(table)[::-1])[::-1]
    out = np.where(stats.testable, 1.0, np.nan)
    rejected = af.adafilter_bh(stats, 1.0).rejected
    out[rejected] = lowest[np.searchsorted(table[0], stats.select_p[rejected])]
    return out


# two 2-study fixtures: the second is entrywise <= the first, yet only the
# first produces a rejection (threshold adaptivity is not monotone in
# other columns' p-values)
TOY_REJECTING = [[0.03, 0.2], [0.04, 0.9]]
TOY_SHRUNKEN = [[0.03, 0.01], [0.04, 0.7]]


class TestComputeFilterSelect:
    def test_two_study_fixture(self):
        stats = stats_from(TOY_REJECTING)
        assert stats.filter_p.tolist() == [0.03, 0.2]
        assert stats.select_p.tolist() == [0.04, 0.9]
        assert stats.testable.all()
        assert stats.n_testable == 2

    def test_short_column_flagged_untestable(self):
        stats = stats_from([[0.5, 0.1], [NAN, 0.2]])
        assert not stats.testable[0]
        assert math.isnan(stats.filter_p[0])
        assert math.isnan(stats.select_p[0])
        assert stats.testable[1]

    def test_memoised_per_matrix_and_r(self):
        matrix = af.validate_matrix(np.random.default_rng(5).random((4, 30)))
        stats = af.compute_filter_select(matrix, 2)
        assert af.compute_filter_select(matrix, 2) is stats
        at_three = af.compute_filter_select(matrix, 3)
        assert at_three is not stats
        assert af.compute_filter_select(matrix, 3) is at_three

    def test_every_procedure_shares_one_sort(self, monkeypatch):
        rng = np.random.default_rng(7)
        stats = af.compute_filter_select(af.validate_matrix(rng.random((3, 40)) ** 3), 2)
        real_sort = np.sort
        sorted_sizes = []

        def counting(a, *args, **kwargs):
            sorted_sizes.append(np.shape(a))
            return real_sort(a, *args, **kwargs)

        def run_all():
            af.adafilter_bonferroni(stats, 0.1)
            af.adafilter_bh(stats, 0.1)
            af.adafilter_bh(stats, 0.1, compute_adjusted=True)
            helpers.adafilter_bh_oracle(stats, 0.1)
            af.curves(stats)
            af.curves(stats, grid=np.linspace(0.0, 1.0, 11), alpha=0.1)

        monkeypatch.setattr(np, "sort", counting)
        run_all()
        fs, ss = stats.sorted_filter, stats.sorted_select
        run_all()
        # one sort of F and one of S over both rounds, and the second round
        # reads the arrays the first one cached
        assert sorted_sizes == [(40,), (40,)]
        assert stats.sorted_filter is fs and stats.sorted_select is ss
        assert not fs.flags.writeable and not ss.flags.writeable
        assert np.array_equal(fs, real_sort(stats.filter_p))
        assert np.array_equal(ss, real_sort(stats.select_p))

    def test_counts_are_right_continuous(self):
        stats = stats_from_fs([0.1, 0.2, 0.2, NAN], [0.2, 0.3, 0.5, NAN])
        cf, cs = stats.counts(0.2)
        assert (cf, cs) == (3, 1)
        cf, cs = stats.counts(np.array([0.0, 0.1, 0.3, 1.0]))
        assert cf.tolist() == [0, 1, 3, 3]
        assert cs.tolist() == [0, 0, 2, 3]

    def test_missing_entry_changes_multiplier(self):
        matrix = af.validate_matrix([[0.1], [0.2], [0.3], [NAN]])
        stats = af.compute_filter_select(matrix, 2)
        assert matrix.n_per_hyp[0] == 3
        assert stats.filter_p[0] == 2 * 0.1
        assert stats.select_p[0] == 2 * 0.2

    def test_values_left_uncapped(self):
        stats = stats_from([[0.9], [0.95], [0.99]])
        assert stats.filter_p[0] == pytest.approx(1.8)
        assert stats.select_p[0] == pytest.approx(1.9)

    def test_rejects_bad_levels(self):
        with pytest.raises(ReplicabilityLevelOutOfRange):
            stats_from(TOY_REJECTING, r=1)
        with pytest.raises(ReplicabilityLevelOutOfRange):
            stats_from(TOY_REJECTING, r=3)

    @pytest.mark.parametrize(
        "filter_p, select_p, testable",
        [
            ([0.1, 0.2], [0.3], [True, True]),  # lengths differ
            ([[0.1, 0.2]], [[0.3, 0.4]], [[True, True]]),  # 2-d
            (0.1, 0.3, True),  # 0-d
            ([0.1, 0.2], [0.3, 0.4], [1, 1]),  # testable is not boolean
        ],
    )
    def test_hand_built_stats_are_checked(self, filter_p, select_p, testable):
        with pytest.raises(ValidationError):
            af.FilterSelectStats(np.array(filter_p), np.array(select_p), np.array(testable))
        with pytest.raises(ValidationError, match="1-d arrays"):  # a list is not an array
            af.FilterSelectStats(filter_p, np.array(select_p), np.array(testable))

    def test_filter_never_exceeds_select(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 200:
            stats = helpers.random_stats(rng, max_m=30)
            if stats is None:
                continue
            done += 1
            f = stats.filter_p[stats.testable]
            s = stats.select_p[stats.testable]
            assert np.all(f <= s)
            assert not np.isnan(f).any()


class TestAdaptiveBonferroni:
    def test_rejecting_fixture(self):
        res = af.adafilter_bonferroni(stats_from(TOY_REJECTING), 0.05)
        assert res.gamma0 == 0.05
        assert res.filtered_count == 1
        assert res.rejected.tolist() == [True, False]

    def test_shrunken_fixture_backs_off(self):
        res = af.adafilter_bonferroni(stats_from(TOY_SHRUNKEN), 0.05)
        assert res.gamma0 == 0.025
        assert res.filtered_count == 2
        assert res.n_rejected == 0

    def test_empty_filtered_set_keeps_full_alpha(self):
        stats = stats_from_fs([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        res = af.adafilter_bonferroni(stats, 0.05)
        assert res.gamma0 == 0.05
        assert res.n_rejected == 0

    def test_nan_filter_value_counts_above_every_gamma(self):
        # a hand-built testable F_j = NaN is never <= gamma in #{F <= gamma},
        # so k = 1 stays feasible at alpha/1
        stats = stats_from_fs([0.01, NAN], [0.02, 0.5])
        res = af.adafilter_bonferroni(stats, 0.05)
        assert (res.filtered_count, res.gamma0) == (1, 0.05)

    def test_adjusted_matches_brute_force_oracle(self):
        rng = np.random.default_rng(19)
        done = 0
        while done < 150:
            stats = helpers.random_stats(rng, max_m=30)
            if stats is None:
                continue
            done += 1
            res = af.adafilter_bonferroni(stats, helpers.random_alpha(rng), compute_adjusted=True)
            want = helpers.adafilter_bonferroni_adjusted_oracle(stats)
            np.testing.assert_array_equal(res.adjusted, want)

    def test_adjusted_values_are_exact_levels(self):
        # the oracle above pins the values on small inputs; this checks the
        # defining pair (v rejects, the float below v keeps) on many more
        rng = np.random.default_rng(5)
        checked = done = 0
        while done < 1000:
            inst = helpers.random_matrix(rng, max_m=40, max_n=6)
            if inst is None:
                continue
            done += 1
            stats = af.compute_filter_select(inst[0], 2)
            res = af.adafilter_bonferroni(stats, 0.05, compute_adjusted=True)
            checked += helpers.check_exact_levels(
                lambda alpha: af.adafilter_bonferroni(stats, alpha).rejected,
                res.adjusted, stats.select_p, stats.testable,
            )
        assert checked >= 2000

    def test_adjusted_skips_an_infeasible_rounding_gap(self):
        # fl(a/3) cannot equal s for any float a: the smallest a with
        # fl(a/3) >= s gives the next float x, and the F planted at x makes
        # k = 3 infeasible there, so the smallest rejecting level is 4*s
        s = 0.013251083656922211
        x = math.nextafter(s, 1.0)
        stats = stats_from_fs([s / 10, 0.001, 0.002, x], [s, 0.9, 0.9, x])
        a3 = helpers.smallest_float_with_quotient_at_least(s, 3)
        assert a3 / 3 == x
        assert not af.adafilter_bonferroni(stats, a3).rejected[0]
        res = af.adafilter_bonferroni(stats, 0.05, compute_adjusted=True)
        assert res.adjusted[0] == 4 * s
        assert af.adafilter_bonferroni(stats, 4 * s).rejected[0]
        assert not af.adafilter_bonferroni(stats, math.nextafter(4 * s, 0.0)).rejected[0]
        np.testing.assert_array_equal(
            res.adjusted, helpers.adafilter_bonferroni_adjusted_oracle(stats)
        )

    def test_alpha_validation(self):
        stats = stats_from(TOY_REJECTING)
        for alpha in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValidationError):
                af.adafilter_bonferroni(stats, alpha)
        # alpha = 1 is legal; both filter values survive, so it backs off
        assert af.adafilter_bonferroni(stats, 1.0).gamma0 == 0.5

    def test_no_testable_columns_raises(self):
        stats = stats_from_fs([NAN], [NAN])
        with pytest.raises(NoTestableHypotheses):
            af.adafilter_bonferroni(stats, 0.05)


class TestTwoStepForm:
    def test_backoff_trace(self):
        stats = stats_from_fs([0.01, 0.02, 0.06], [0.02, 0.05, 0.9])
        res = helpers.adafilter_bonferroni_twostep(stats, 0.05)
        assert res.filtered_count == 2
        assert res.gamma0 == 0.025

    def test_immediate_exceedance_keeps_full_alpha(self):
        stats = stats_from_fs([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        res = helpers.adafilter_bonferroni_twostep(stats, 0.05)
        assert res.gamma0 == 0.05
        assert res.filtered_count == 1
        assert res.n_rejected == 0

    def test_small_filters_keep_everything(self):
        stats = stats_from_fs([0.001, 0.002], [0.01, 0.02])
        res = helpers.adafilter_bonferroni_twostep(stats, 0.05)
        assert res.filtered_count == 2
        assert res.gamma0 == 0.025

    def test_agrees_with_direct_form_randomized(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 2000:
            stats = helpers.random_stats(rng)
            if stats is None:
                continue
            done += 1
            alpha = helpers.random_alpha(rng)
            a = af.adafilter_bonferroni(stats, alpha)
            b = helpers.adafilter_bonferroni_twostep(stats, alpha)
            assert helpers.results_equal(a, b), (stats.filter_p, alpha)


class TestAdaptiveBH:
    def test_rejecting_fixture(self):
        res = af.adafilter_bh(stats_from(TOY_REJECTING), 0.05)
        assert res.gamma0 == 0.05
        assert res.rejected.tolist() == [True, False]
        assert res.filtered_count is None

    def test_shrunken_fixture_collapses_to_zero(self):
        res = af.adafilter_bh(stats_from(TOY_SHRUNKEN), 0.05)
        assert res.gamma0 == 0.0
        assert res.n_rejected == 0

    def test_single_hypothesis_reduces_to_plain_test(self):
        stats = stats_from_fs([0.04], [0.04])
        res = af.adafilter_bh(stats, 0.05)
        assert res.gamma0 == 0.05
        assert res.rejected.tolist() == [True]
        # a miss keeps gamma0 = alpha (both counts are zero there) but
        # rejects nothing
        miss = af.adafilter_bh(stats_from_fs([0.06], [0.06]), 0.05)
        assert miss.gamma0 == 0.05
        assert miss.n_rejected == 0

    def test_counts_jump_exactly_at_alpha(self):
        # boundary case: a selection p-value equal to alpha itself must be
        # seen by the search even though no smaller breakpoint exposes it
        stats = stats_from_fs([0.01, 0.02], [0.05, 0.05])
        res = af.adafilter_bh(stats, 0.05)
        oracle = helpers.adafilter_bh_oracle(stats, 0.05)
        assert helpers.results_equal(res, oracle)
        assert res.gamma0 == 0.05

    def test_adjusted_levels_reproduce_rejections(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 60:
            stats = helpers.random_stats(rng, max_m=12, max_n=4)
            if stats is None:
                continue
            done += 1
            res = af.adafilter_bh(stats, 0.1, compute_adjusted=True)
            full = af.adafilter_bh(stats, 1.0)
            for j in range(stats.n_hypotheses):
                adj = res.adjusted[j]
                if not stats.testable[j]:
                    assert math.isnan(adj)
                    continue
                assert 0.0 <= adj <= 1.0
                if adj < 1.0:
                    # the reported level is a rejecting level for j (0, where
                    # S_j = 0, stands for every level, the smallest included)
                    redo = af.adafilter_bh(stats, float(adj) or 5e-324)
                    assert redo.rejected[j]
                if not full.rejected[j]:
                    assert adj == 1.0

    def test_adjusted_values_build_one_table_and_scan_it_once(self, monkeypatch):
        # the adjusted values come from one breakpoint table built at alpha = 1,
        # scanned once at alpha = 1 for the hypotheses it rejects; the decision
        # at alpha builds and scans its own table first
        rng = np.random.default_rng(41)
        stats = af.compute_filter_select(af.validate_matrix(rng.random((3, 60)) ** 3), 2)
        r_one = af.adafilter_bh(stats, 1.0).n_rejected
        assert 0 < r_one < stats.n_testable
        tops, levels = [], []
        real_breakpoints, real_scan = procedures._breakpoints, procedures._bh_scan

        def breakpoints(f, s, top):
            tops.append(top)
            return real_breakpoints(f, s, top)

        def scan(table, alpha):
            levels.append(alpha)
            return real_scan(table, alpha)

        monkeypatch.setattr(procedures, "_breakpoints", breakpoints)
        monkeypatch.setattr(procedures, "_bh_scan", scan)
        res = af.adafilter_bh(stats, 0.1, compute_adjusted=True)
        assert tops == [0.1, 1.0] and levels == [0.1, 1.0]
        assert ((res.adjusted > 0.0) & (res.adjusted < 1.0)).sum() > 0

    def test_adjusted_values_match_the_brute_force_oracle(self):
        # bit for bit against the candidate-level brute force (M_t <= 12), which
        # finds each smallest rejecting level, not a boundary point of the rejections
        rng = np.random.default_rng(53)
        done = ties = values = 0
        while values < 2000:
            inst = helpers.random_matrix(rng, max_m=12, max_n=5)
            if inst is None:
                continue
            mat, r = inst
            if done % 3 == 0:
                # three-decimal ties among the S values and between F and S
                mat = af.PValueMatrix(values=np.round(mat.values, 3))
                ties += 1
            stats = af.compute_filter_select(mat, r)
            done += 1
            res = af.adafilter_bh(stats, helpers.random_alpha(rng), compute_adjusted=True)
            want = helpers.adafilter_bh_adjusted_oracle(stats)
            assert res.adjusted.tobytes() == want.tobytes(), (mat.values, r)
            values += int(((want > 0.0) & (want < 1.0)).sum())
        assert ties >= 100

    def test_adjusted_values_are_exact_levels_at_m_2000(self):
        # half the studies rounded to 2 or 3 decimals, so many S values tie;
        # the brute force is kept to M_t <= 12, so here each value is checked
        # as an exact level: rejecting at v, keeping one float below
        rng = np.random.default_rng(59)
        p = rng.random((4, 2000))
        p[:, :400] *= 0.01
        p[0] = np.round(p[0], 3)
        p[1] = np.round(p[1], 2)
        stats = af.compute_filter_select(af.validate_matrix(p), 2)
        adjusted = af.adafilter_bh(stats, 0.1, compute_adjusted=True).adjusted
        at_one = af.adafilter_bh(stats, 1.0).rejected
        assert (adjusted[stats.testable & ~at_one] == 1.0).all()
        checked = helpers.check_exact_levels(
            lambda alpha: af.adafilter_bh(stats, alpha).rejected,
            np.where(at_one, adjusted, np.nan), stats.select_p, at_one,
        )
        assert checked >= 300

    def test_top_down_settle_matches_an_eager_settle(self):
        # bit for bit, in three kinds of cases: plain, scaled into the subnormal
        # range, and with F planted on the float after a breakpoint, so that an
        # interval's smallest alpha may reach only its next-float edge
        rng = np.random.default_rng(83)
        edges = values = 0
        for case in range(2100):
            while (stats := helpers.random_stats(rng, max_m=30, max_n=5)) is None:
                pass
            f, s, testable = stats.filter_p, stats.select_p, stats.testable
            if case % 3 == 1:
                scale = float(rng.choice([1e-300, 1e-308, 1e-312, 1e-318, 1e-322, 5e-324]))
                f, s = f * scale, s * scale
            elif case % 3 == 2:
                points = np.unique(np.concatenate([f[testable], s[testable]]))
                planted = np.minimum(np.nextafter(rng.choice(points, f.size), np.inf), s)
                f = np.where(testable & (rng.random(f.size) < 0.6), planted, f)
            stats = af.FilterSelectStats(f, s, testable)
            b = table_of(stats)[0]
            edges += bool((b[1:] == np.nextafter(b[:-1], np.inf)).any())
            want = eager_adjusted(stats)
            assert procedures._bh_adjusted(stats).tobytes() == want.tobytes(), (case, f, s)
            values += int(((want > 0.0) & (want < 1.0)).sum())
        assert edges >= 500 and values >= 10000

    def test_top_down_settle_is_lazy(self, monkeypatch):
        # the matrix of test_adjusted_values_are_exact_levels_at_m_2000: the
        # settle asks _interval_level, from the top down, for exactly the
        # intervals that are not cheap, whose key is at most 1 and below the
        # eager minimum of every level above them
        rng = np.random.default_rng(59)
        p = rng.random((4, 2000))
        p[:, :400] *= 0.01
        p[0] = np.round(p[0], 3)
        p[1] = np.round(p[1], 2)
        stats = af.compute_filter_select(af.validate_matrix(p), 2)
        table = table_of(stats)
        b, c_f, c_s, key = table[0], table[1], table[2], table[4]
        above = np.append(np.minimum.accumulate(eager_levels(table)[:0:-1])[::-1], math.inf)
        costly = (c_s < c_f) & (b > 0.0)
        want = np.flatnonzero(costly & (key <= 1.0) & (key < above))[::-1].tolist()
        asked, real = [], procedures._interval_level

        def recording(table, t):
            asked.append(t)
            return real(table, t)

        monkeypatch.setattr(procedures, "_interval_level", recording)
        procedures._bh_adjusted(stats)
        assert asked == want
        # hundreds of settles, and hundreds more skipped with a key at most 1
        assert 300 < len(want) < (costly & (key <= 1.0)).sum() - 300

    def test_adjusted_values_are_exact_levels_on_subnormal_stats(self):
        # F and S scaled into the subnormal range, where every key below 1e-290
        # is 0, so the settle there rests on the exact levels alone; half the
        # cases also against the brute force
        rng = np.random.default_rng(73)
        done = checked = 0
        while checked < 2000:
            stats = helpers.random_stats(rng, max_m=12, max_n=5)
            if stats is None:
                continue
            done += 1
            scale = float(rng.choice([1e-300, 1e-308, 1e-312, 1e-318, 1e-322, 5e-324]))
            stats = af.FilterSelectStats(
                stats.filter_p * scale, stats.select_p * scale, stats.testable
            )
            adjusted = af.adafilter_bh(stats, 0.05, compute_adjusted=True).adjusted
            checked += helpers.check_exact_levels(
                lambda alpha: af.adafilter_bh(stats, alpha).rejected,
                adjusted, stats.select_p, stats.testable,
            )
            if done % 2:
                assert adjusted.tobytes() == helpers.adafilter_bh_adjusted_oracle(stats).tobytes()

    def test_adjusted_values_where_an_edge_is_the_float_after_another(self):
        # the interval [0.36, next float) has cS/cF = 2/3, and the smallest
        # alpha with fl(2/3 * alpha) >= 0.36, 0.54, gives the next float, whose
        # interval (cS/cF = 1/2) holds no feasible value, so j = 4 is kept at
        # 0.54. In the second case [0.18, next float) is such an interval, so
        # its level is not 0.27, the smallest alpha with fl(2/3 * alpha) >= 0.18:
        # a settle that took 0.27 for it would hide [0.14, 0.15), whose level
        # 0.28 is S_4's value. Then F planted on the float after random breakpoints
        up = lambda x: math.nextafter(x, 1.0)
        cases = [
            ([0.2, up(0.2), up(0.36), 0.18], [0.2, 0.99, 0.76, 0.36], [0.4, 0.99, 0.99, 0.72]),
            ([up(0.18), 0.72, 0.15, 0.14, 0.02], [0.98, 0.94, 0.18, 0.14, 0.29],
             [0.98, 0.98, 0.3, 0.28, 0.38666666666666666]),
        ]
        for f, s, want in cases:
            stats = stats_from_fs(f, s)
            adjusted = af.adafilter_bh(stats, 0.05, compute_adjusted=True).adjusted
            assert adjusted.tolist() == want
            assert adjusted.tobytes() == helpers.adafilter_bh_adjusted_oracle(stats).tobytes()
        assert not af.adafilter_bh(stats_from_fs(*cases[0][:2]), 0.54).rejected[3]
        rng = np.random.default_rng(79)
        for _ in range(150):
            m = int(rng.integers(4, 7))
            s = np.round(rng.random(m), 2)
            f = np.round(rng.random(m) * s, 2)
            points = np.concatenate([f, s])
            moved = rng.random(m) < 0.6
            f[moved] = np.minimum(np.nextafter(rng.choice(points, m), 1.0), s)[moved]
            stats = stats_from_fs(f, s)
            got = af.adafilter_bh(stats, 0.05, compute_adjusted=True).adjusted
            assert got.tobytes() == helpers.adafilter_bh_adjusted_oracle(stats).tobytes(), (f, s)

    def test_shared_table_scan_matches_threshold_and_oracle(self):
        # one table built at alpha = 1 answers every alpha <= 1 as a table
        # built at alpha itself does: at a breakpoint, one ulp below it, below
        # the smallest positive breakpoint, and at 1
        rng = np.random.default_rng(61)
        done = 0
        while done < 200:
            stats = helpers.random_stats(rng, max_m=40, max_n=5)
            if stats is None:
                continue
            done += 1
            table = table_of(stats)
            points = table[0][(table[0] > 0.0) & (table[0] <= 1.0)]
            alphas = [1.0]
            if points.size:
                b = float(rng.choice(points))
                alphas += [b, math.nextafter(b, 0.0), float(points[0]) / 2]
            for alpha in alphas:
                got = procedures._bh_scan(table, alpha)
                assert got == procedures._bh_threshold(stats, alpha), (stats.filter_p, alpha)
                assert got == helpers.adafilter_bh_oracle(stats, alpha).gamma0, (stats.filter_p, alpha)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_shared_table_scan_keeps_large_counts_exact(self):
        # at M_t = 1,200 and alpha = 0.1, k * num and m * den overflow int64
        # (alpha's denominator is 2**55), so counts read from the table must
        # become Python ints before the grid value is formed
        rng = np.random.default_rng(7)
        p = rng.random((2, 1200))
        p[:, :600] *= 0.05
        stats = af.compute_filter_select(af.validate_matrix(p), 2)
        table = table_of(stats)
        want = helpers.adafilter_bh_oracle(stats, 0.1).gamma0
        assert 0.0 < want < 0.1
        assert procedures._bh_scan(table, 0.1) == want
        assert procedures._bh_threshold(stats, 0.1) == want

    def test_single_hypothesis_adjusted_is_its_pvalue(self):
        stats = stats_from_fs([0.37], [0.37])
        res = af.adafilter_bh(stats, 0.05, compute_adjusted=True)
        assert res.adjusted[0] == pytest.approx(0.37, abs=1e-12)

    def test_screen_keys_flag_every_feasible_interval(self):
        # _bh_scan checks only intervals whose key is <= alpha, so every
        # interval in which the exact check finds a feasible value must be
        # flagged: at round and tiny alphas, at sampled ratios fl(lo*cF/cS)
        # and their neighbours, where feasibility flips, and with F and S
        # scaled into the subnormal range, where the keys lose their margin
        rng = np.random.default_rng(67)
        base = [1.0, 0.05, 1e-12, 1e-300]

        def check(stats, alphas):
            table = table_of(stats)
            b, c_f, c_s, key = table[0], table[1], table[2], table[4]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = b * c_f / c_s
            ratios = ratios[(ratios > 0.0) & (ratios <= 1.0)]
            for x in rng.choice(ratios, min(3, ratios.size), replace=False):
                alphas = alphas + [float(x), math.nextafter(x, 0.0), min(math.nextafter(x, 1.0), 1.0)]
            found = 0
            for alpha in alphas:
                for t in range(int(np.searchsorted(b, alpha, side="right"))):
                    if procedures._interval_value(table, t, alpha) is not None:
                        assert key[t] <= alpha, (stats.filter_p, stats.select_p, alpha, t)
                        found += b[t] > 0.0
            return found

        done = found = 0
        while done < 500:
            stats = helpers.random_stats(rng, max_m=20, max_n=5)
            if stats is None:
                continue
            done += 1
            found += check(stats, base + [helpers.random_alpha(rng)])
            if done % 2:
                scale = float(rng.choice([1e-300, 1e-308, 1e-312, 1e-318, 1e-322]))
                scaled = af.FilterSelectStats(
                    stats.filter_p * scale, stats.select_p * scale, stats.testable
                )
                found += check(scaled, base + [1e-310, 5e-324])
        assert found > 5000

        tiny = [1e-310, 1e-318, 5e-324]
        cases = {
            # cF = 1 and cS = 0 at the edge 0.01: no feasible value, key inf
            "cS = 0": stats_from_fs([0.01, 0.5], [0.2, 0.6]),
            # F and S at 0, and the edge 0 also where no value lies there
            "edge at 0": stats_from_fs([0.0, 0.3, 0.1], [0.0, 0.4, 0.2]),
            "subnormal": stats_from_fs([5e-324, 1e-310, 0.2], [1e-310, 2e-310, 0.3]),
            "F tied with S": stats_from_fs([0.1, 0.2, 0.2], [0.2, 0.3, 0.2]),
        }
        for name, stats in cases.items():
            check(stats, base + tiny)
            table = table_of(stats)
            for alpha in base + tiny + [0.2, 0.3]:
                want = helpers.adafilter_bh_oracle(stats, alpha).gamma0
                assert procedures._bh_scan(table, alpha) == want, (name, alpha)
        b, key = table_of(cases["cS = 0"])[0::4]
        assert key[b == 0.01] == math.inf
        b, key = table_of(cases["subnormal"])[0::4]
        assert (key[b < 1e-290] == 0.0).all() and (b < 1e-290).sum() == 4


    def test_screen_key_margin_covers_a_key_two_ulps_above_alpha(self):
        # with every F = 0 and M_t = 8,195 at alpha = 0.05, the rung
        # fl(5126 * alpha / 8195) rounds up, and so does fl(b * cF), so
        # fl(fl(b * cF) / cS) lands two ulps above alpha. The key's margin must
        # bring it back to alpha: 1 - 2e-15 does, 1 - u (a margin of 1e-16)
        # leaves one ulp, and the scan would then skip the threshold's interval
        m, k, alpha = 8195, 5126, 0.05
        rung = _grid_float(k, m, *alpha.as_integer_ratio())
        s = np.array([1e-4] * (k - 1) + [rung] + [0.9] * (m - k))
        table = procedures._breakpoints(np.zeros(m), s, alpha)
        b, c_f, c_s, key = table[0], table[1], table[2], table[4]
        assert (b[-1], c_f[-1], c_s[-1]) == (rung, m, k)
        assert rung * m / k == math.nextafter(math.nextafter(alpha, 1.0), 1.0)
        assert key[-1] <= alpha
        assert procedures._bh_scan(table, alpha) == rung
        stats = af.FilterSelectStats(np.zeros(m), s, np.ones(m, dtype=np.bool_))
        assert af.adafilter_bh(stats, alpha).n_rejected == k


class TestOracleAgreement:
    def test_degenerate_single_hypothesis(self):
        stats = stats_from_fs([1.0], [1.0])
        res = helpers.adafilter_bh_oracle(stats, 0.5)
        assert res.gamma0 == 0.5
        assert res.n_rejected == 0

    def test_rejecting_fixture(self):
        res = helpers.adafilter_bh_oracle(stats_from(TOY_REJECTING), 0.05)
        assert res.gamma0 == 0.05
        assert res.rejected.tolist() == [True, False]

    def test_fast_search_matches_oracle_randomized(self):
        rng = np.random.default_rng(29)
        done = 0
        while done < 400:
            stats = helpers.random_stats(rng, max_m=40)
            if stats is None:
                continue
            done += 1
            alpha = helpers.random_alpha(rng)
            fast = af.adafilter_bh(stats, alpha)
            slow = helpers.adafilter_bh_oracle(stats, alpha)
            assert helpers.results_equal(fast, slow), (stats.filter_p, alpha)

    def test_fast_search_matches_oracle_on_grid_ties(self, monkeypatch):
        # plant F and S values exactly on candidate grid points k*alpha/m and
        # on their float neighbours, where feasibility flips within one
        # rounding step and the exact rational search has to run
        below_calls = []
        real = procedures._grid_value_below

        def counted(*args):
            below_calls.append(args)
            return real(*args)

        monkeypatch.setattr(procedures, "_grid_value_below", counted)
        rng = np.random.default_rng(31)
        for trial in range(300):
            m_t = int(rng.integers(1, 12))
            alpha = helpers.random_alpha(rng)
            num, den = alpha.as_integer_ratio()
            grid = [
                _grid_float(k, m, num, den)
                for m in range(1, m_t + 1)
                for k in range(1, m + 1)
            ]
            points = grid + [math.nextafter(g, side) for g in grid for side in (0.0, 2.0)]
            f = rng.choice(points, size=m_t)
            s = np.maximum(f, rng.choice(points, size=m_t))
            stats = stats_from_fs(f, np.minimum(s, 1.0) if rng.random() < 0.5 else s)
            fast = af.adafilter_bh(stats, alpha)
            slow = helpers.adafilter_bh_oracle(stats, alpha)
            assert helpers.results_equal(fast, slow), (f, s, alpha)
        assert len(below_calls) >= 50


class TestDecisionInvariants:
    PROCEDURES = (
        af.adafilter_bonferroni,
        helpers.adafilter_bonferroni_twostep,
        af.adafilter_bh,
    )

    def test_adjusted_values_change_no_decision(self):
        # both adaptive procedures build adjusted values only on request, and
        # the request changes neither the threshold nor any decision
        rng = np.random.default_rng(41)
        done = 0
        while done < 300:
            stats = helpers.random_stats(rng, max_m=30)
            if stats is None:
                continue
            done += 1
            for alpha in (helpers.random_alpha(rng), 1.0):
                for procedure in (af.adafilter_bonferroni, af.adafilter_bh):
                    lean = procedure(stats, alpha)
                    full = procedure(stats, alpha, compute_adjusted=True)
                    assert lean.adjusted is None
                    assert full.adjusted.shape == stats.testable.shape
                    assert helpers.results_equal(lean, full)

    def test_rejections_follow_threshold_and_testability(self):
        rng = np.random.default_rng(37)
        done = 0
        while done < 300:
            stats = helpers.random_stats(rng, max_m=30)
            if stats is None:
                continue
            done += 1
            alpha = helpers.random_alpha(rng)
            for proc in self.PROCEDURES:
                res = proc(stats, alpha)
                want = stats.testable & (stats.select_p <= res.gamma0)
                # NaN select never compares <= so untestable cannot reject
                np.testing.assert_array_equal(res.rejected, np.nan_to_num(want))
                assert res.gamma0 <= alpha
                np.testing.assert_array_equal(res.untestable, ~stats.testable)

    def test_bonferroni_threshold_is_alpha_over_count(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 300:
            stats = helpers.random_stats(rng, max_m=30)
            if stats is None:
                continue
            done += 1
            alpha = helpers.random_alpha(rng)
            res = af.adafilter_bonferroni(stats, alpha)
            assert 1 <= res.filtered_count <= stats.n_testable
            assert res.gamma0 == alpha / res.filtered_count

    def test_deterministic_replay(self):
        rng = np.random.default_rng(43)
        stats = None
        while stats is None:
            stats = helpers.random_stats(rng)
        for proc in self.PROCEDURES:
            first = proc(stats, 0.07)
            second = proc(stats, 0.07)
            assert helpers.results_equal(first, second)

    def test_lowering_other_columns_can_remove_a_rejection(self):
        # entrywise smaller matrix, strictly fewer rejections: adaptivity
        # reacts to the whole filter profile, not column j alone
        strong = af.adafilter_bonferroni(stats_from(TOY_REJECTING), 0.05)
        weak = af.adafilter_bonferroni(stats_from(TOY_SHRUNKEN), 0.05)
        assert strong.rejected[0] and not weak.rejected[0]
        strong_bh = af.adafilter_bh(stats_from(TOY_REJECTING), 0.05)
        weak_bh = af.adafilter_bh(stats_from(TOY_SHRUNKEN), 0.05)
        assert strong_bh.rejected[0] and not weak_bh.rejected[0]

    def test_own_column_monotonicity_randomized(self):
        rng = np.random.default_rng(47)
        done = 0
        while done < 200:
            inst = helpers.random_matrix(rng, max_m=15, max_n=5)
            if inst is None:
                continue
            mat, r = inst
            stats = af.compute_filter_select(mat, r)
            alpha = helpers.random_alpha(rng)
            before = {
                "bon": af.adafilter_bonferroni(stats, alpha),
                "bh": af.adafilter_bh(stats, alpha),
            }
            j = int(rng.integers(mat.n_hypotheses))
            obs = np.flatnonzero(~np.isnan(mat.values[:, j]))
            i = int(rng.choice(obs))
            lowered = mat.values.copy()
            lowered[i, j] *= rng.random()
            stats2 = af.compute_filter_select(af.PValueMatrix(values=lowered), r)
            after = {
                "bon": af.adafilter_bonferroni(stats2, alpha),
                "bh": af.adafilter_bh(stats2, alpha),
            }
            done += 1
            for name in ("bon", "bh"):
                if before[name].rejected[j]:
                    assert after[name].rejected[j], (name, mat.values, r, alpha, i, j)


class TestCurves:
    def test_fixture_point(self):
        table = af.curves(stats_from(TOY_REJECTING), grid=np.array([0.05]))
        assert table.v_hat.tolist() == [0.05]
        assert table.fdp_hat.tolist() == [0.05]

    def test_zero_threshold_row(self):
        table = af.curves(stats_from(TOY_REJECTING), grid=np.array([0.0]))
        assert table.v_hat.tolist() == [0.0]
        assert table.fdp_hat.tolist() == [0.0]

    def test_grid_below_every_filter_value(self):
        table = af.curves(stats_from(TOY_REJECTING), grid=np.array([0.0, 0.001, 0.02]))
        assert np.all(table.v_hat == 0.0)

    def test_default_grid_composition(self):
        stats = stats_from(TOY_REJECTING)
        table = af.curves(stats, alpha=0.05)
        grid = table.gamma
        assert grid[0] == 0.0
        for value in (0.03, 0.04, 0.2, 0.9, 0.05):
            assert value in grid
        assert np.all(np.diff(grid) > 0)
        # 1 zero + 4 breakpoints + 100 ladder points, minus the overlap at 0.05
        assert grid.size == 104

    def test_default_grid_drops_values_above_one(self):
        stats = stats_from([[0.9], [0.95], [0.99]])  # F=1.8, S=1.9
        table = af.curves(stats)
        assert table.gamma.tolist() == [0.0]

    def test_grid_validation(self):
        stats = stats_from(TOY_REJECTING)
        with pytest.raises(ValidationError):
            af.curves(stats, grid=np.array([0.2, 0.1]))
        with pytest.raises(ValidationError):
            af.curves(stats, grid=np.array([-0.1, 0.5]))
        with pytest.raises(ValidationError):
            af.curves(stats, grid=np.array([[0.1]]))
        # NaN passes every ordered comparison, so it needs its own rejection
        with pytest.raises(ValidationError):
            af.curves(stats, grid=np.array([0.1, np.nan]))
        with pytest.raises(ValidationError):
            af.curves(stats, grid=np.array([np.nan]))
        with pytest.raises(ValidationError):
            af.curves(stats, grid=np.array([0.1, np.inf]))
        # alpha is checked whenever it is given, not only on the default grid
        with pytest.raises(ValidationError):
            af.curves(stats, grid=np.array([0.1]), alpha=5.0)
        with pytest.raises(ValidationError):
            af.curves(stats, grid=np.array([0.1]), alpha=float("nan"))

    def test_estimates_are_step_constants_between_breakpoints(self):
        rng = np.random.default_rng(53)
        stats = None
        while stats is None:
            stats = helpers.random_stats(rng, max_m=20)
        grid = np.sort(rng.uniform(0, 1, 50))
        table = af.curves(stats, grid=grid)
        # the table holds a read-only copy; the caller's grid stays writable
        assert grid.flags.writeable and not table.gamma.flags.writeable
        f = np.sort(stats.filter_p[stats.testable])
        s = np.sort(stats.select_p[stats.testable])
        for g, v, fdp in zip(table.gamma, table.v_hat, table.fdp_hat):
            c_f = int(np.searchsorted(f, g, side="right"))
            c_s = int(np.searchsorted(s, g, side="right"))
            assert v == g * c_f
            assert fdp == (g * c_f) / max(c_s, 1)


class TestGridArithmetic:
    def test_grid_float_is_correctly_rounded(self):
        rng = np.random.default_rng(59)
        for _ in range(2000):
            k = int(rng.integers(1, 200))
            m = int(rng.integers(k, 400))
            alpha = helpers.random_alpha(rng)
            num, den = alpha.as_integer_ratio()
            got = _grid_float(k, m, num, den)
            want = float(Fraction(k * num, m * den))
            assert got == want

    def test_round_preimage_brackets_the_rounding_boundary(self):
        # _grid_value_below decides "rounds below b" at the boundary T between
        # b and its predecessor float. With max_den = 2 and alpha = 2c the grid
        # is {0, fl(c), fl(2c)}, so placing c just below, at, and just above T
        # checks that the helper keeps exactly the values that round below b.
        rng = np.random.default_rng(61)
        values = list(10.0 ** rng.uniform(-12, 0, 300)) + [0.05, 0.25, 1.0, 2.0]
        for b in values:
            t = (Fraction(math.nextafter(b, 0.0)) + Fraction(b)) / 2
            eps = Fraction(1, 2**80) * t
            assert float(t - eps) < b
            assert float(t + eps) >= b
            for c in (t - eps, t, t + eps):
                want = float(c) if float(c) < b else 0.0
                assert _grid_value_below(b, 2 * c, 2) == want, (b, c)

    def test_farey_left_matches_brute_force(self):
        # precondition of the helper: the input fraction already has
        # denominator <= max_den (its caller guarantees this)
        rng = np.random.default_rng(67)
        for _ in range(400):
            max_den = int(rng.integers(1, 40))
            f = Fraction(int(rng.integers(1, 120)), int(rng.integers(1, max_den + 1)))
            got = _farey_left(f, max_den)
            best = Fraction(0)
            for q in range(1, max_den + 1):
                p = (f.numerator * q - 1) // f.denominator
                if p >= 1 and Fraction(p, q) > best:
                    best = Fraction(p, q)
            assert got == best, (f, max_den)

    def test_grid_value_below_matches_brute_force(self):
        rng = np.random.default_rng(71)
        # the round levels, then draws that cover every kind random_alpha makes
        alphas = [0.01, 0.05, 0.1, 0.2, 0.5, 1.0] + [helpers.random_alpha(rng) for _ in range(24)]
        for alpha in alphas:
            a = Fraction(alpha)
            for max_den in range(1, 13):
                grid = sorted({
                    float(Fraction(k, m) * a) for m in range(1, max_den + 1) for k in range(m + 1)
                })
                his = {alpha}
                for g in grid:
                    his.update((g, math.nextafter(g, 0.0), math.nextafter(g, 2.0)))
                for hi in his:
                    if 0.0 < hi <= alpha:
                        want = max(g for g in grid if g < hi)
                        assert _grid_value_below(hi, a, max_den) == want, (hi, alpha, max_den)

    def test_largest_grid_fraction_matches_brute_force(self):
        # random bounds hi in (0, alpha]: continuous draws, and floats of
        # rationals whose denominators go past max_den
        rng = np.random.default_rng(73)
        for _ in range(400):
            max_den = int(rng.integers(1, 13))
            alpha = helpers.random_alpha(rng)
            a = Fraction(alpha)
            if rng.integers(2):
                hi = alpha * (1.0 - rng.random())
            else:
                qbound = Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 60)))
                hi = float(min(qbound, Fraction(1)) * a)
            if not 0.0 < hi <= alpha:
                continue
            grid = {float(Fraction(k, m) * a) for m in range(1, max_den + 1) for k in range(m + 1)}
            # zero is always in the grid
            want = max(g for g in grid if g < hi)
            assert _grid_value_below(hi, a, max_den) == want, (hi, alpha, max_den)
