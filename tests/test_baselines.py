"""Direct (combine-then-adjust) baselines and the conjunction error bound."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import adafilter as af
from adafilter.baselines import bh_stepup
from adafilter.errors import ReplicabilityLevelOutOfRange, ValidationError
import helpers

NAN = float("nan")


def direct(combiner, adjustment, alpha=0.05) -> af.Procedure:
    kind = af.ProcedureKind("direct-" + adjustment)
    return af.Procedure(kind, alpha, af.PCCombinerKind(combiner))


def naive_bh(pvalues, alpha):
    """Reference step-up: largest k with P_(k) <= fl(k*alpha/m), the rung rounded
    once from the exact rational, reject below."""
    m = len(pvalues)
    order = sorted(pvalues)
    k_star = 0
    for k in range(1, m + 1):
        if order[k - 1] <= float(Fraction(k, m) * Fraction(alpha)):
            k_star = k
    if k_star == 0:
        return [False] * m, 0.0
    cutoff = order[k_star - 1]
    return [p <= cutoff for p in pvalues], cutoff


class TestBhStepup:
    def test_simple_rejection(self):
        mask, cutoff = bh_stepup(np.array([0.01, 0.04, 0.9]), 0.05)
        assert mask.tolist() == [True, False, False]
        assert cutoff == 0.01

    def test_nothing_to_reject(self):
        mask, cutoff = bh_stepup(np.array([0.5, 0.9]), 0.05)
        assert not mask.any()
        assert cutoff == 0.0

    @pytest.mark.parametrize(
        ("pvalues", "alpha", "want_mask", "want_cutoff"),
        [
            ([], 0.05, [], 0.0),
            # NaN counts in m = 2, so 0.03 misses its rung alpha/2 and 0.01 meets it
            ([0.03, NAN], 0.05, [False, False], 0.0),
            ([0.01, NAN], 0.05, [True, False], 0.01),
            # a lone 0 is rejected with the cutoff 0.0 that also means "none"
            ([0.5, 0.0, 0.9], 0.05, [False, True, False], 0.0),
            ([0.2, 0.3, 0.7], 0.1, [False, False, False], 0.0),
            ([1.0, 0.5, 1.0], 1.0, [True, True, True], 1.0),
        ],
    )
    def test_edge_inputs(self, pvalues, alpha, want_mask, want_cutoff):
        mask, cutoff = bh_stepup(np.array(pvalues, dtype=np.float64), alpha)
        assert mask.dtype == np.bool_
        assert mask.tolist() == want_mask
        assert cutoff == want_cutoff

    @pytest.mark.parametrize("alpha", [0.0, -0.1, NAN, 2.0])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        # unchecked, alpha = 2 rejects every P <= 2, and a negative or NaN
        # alpha rejects the exact zeros with cutoff 0.0
        with pytest.raises(ValidationError):
            bh_stepup(np.array([0.0, 0.5]), alpha)

    def test_matches_reference_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            m = int(rng.integers(1, 25))
            p = rng.random(m)
            if rng.random() < 0.5:
                p = np.round(p, 1)
            alpha = helpers.random_alpha(rng)
            mask, cutoff = bh_stepup(p, alpha)
            want_mask, want_cutoff = naive_bh(p.tolist(), alpha)
            assert mask.tolist() == want_mask
            assert cutoff == want_cutoff

    def test_matches_exact_rungs_on_planted_decimals(self):
        # decimal p-values on a rung fl(k*alpha/m), one ulp to either side, or
        # at the decimal k*alpha/m; bh_stepup and direct BH (at r = n = 2 the
        # Bonferroni PC p-value of a column (p, p) is p) must give the oracle's
        # k* and cutoff
        rng = np.random.default_rng(83)
        for _ in range(2000):
            m = int(rng.integers(1, 16))
            alpha = str(rng.choice(["0.01", "0.05", "0.1", "0.2", "0.25", "0.3"]))
            if rng.random() < 0.3:
                alpha = str(round(float(rng.uniform(0.001, 1.0)), 3))
            p = np.round(np.minimum(rng.random(m) * float(alpha) * 1.5, 1.0), 3)
            for j in np.flatnonzero(rng.random(m) < 0.6):
                k = int(rng.integers(1, m + 1))
                rung = float(Fraction(k, m) * Fraction(float(alpha)))
                p[j] = rng.choice([
                    rung, math.nextafter(rung, 0.0), math.nextafter(rung, 1.0),
                    float(Decimal(k) * Decimal(alpha) / m),
                ])
            alpha = float(alpha)
            want_mask, want_cutoff = naive_bh(p.tolist(), alpha)
            mask, cutoff = bh_stepup(p, alpha)
            assert (mask.tolist(), cutoff) == (want_mask, want_cutoff), (p, alpha)
            mat = af.validate_matrix([p.tolist() + [0.001], p.tolist() + [NAN]])
            res = af.direct_adjust(mat, 2, direct("bonferroni", "bh", alpha), False)
            assert (res.rejected.tolist(), res.gamma0) == (want_mask + [False], want_cutoff)


class TestDirectAdjust:
    def test_conservative_on_the_adaptive_fixture(self):
        # the same two-column matrix that the adaptive procedures reject on
        mat = af.validate_matrix([[0.03, 0.2], [0.04, 0.9]])
        res = af.direct_adjust(mat, 2, direct("bonferroni", "bonferroni"))
        np.testing.assert_allclose(
            res.adjusted, [0.08, 1.0]
        )  # PC p-values (0.04, 0.9) times M_t = 2
        assert res.gamma0 == 0.025
        assert res.n_rejected == 0

    def test_bonferroni_adjusted_values_are_exact_levels(self):
        # direct Bonferroni rejects P <= fl(alpha/M_t), so each reported value
        # in (0, 1) rejects and the float below it does not; M_t * P misses
        # that level by an ulp on about one value in ten
        rng = np.random.default_rng(5)
        checked = done = 0
        while done < 400:
            inst = helpers.random_matrix(rng, max_m=40, max_n=6)
            if inst is None:
                continue
            done += 1
            mat = inst[0]
            for combiner in af.PCCombinerKind:
                res = af.direct_adjust(mat, 2, direct(combiner.value, "bonferroni"))

                def decide(alpha):
                    proc = direct(combiner.value, "bonferroni", alpha)
                    return af.direct_adjust(mat, 2, proc, compute_adjusted=False).rejected

                checked += helpers.check_exact_levels(
                    decide, res.adjusted, mat.pc_pvalues(2, combiner), ~res.untestable
                )
        assert checked >= 2000

    def test_all_ones_reject_nothing(self):
        mat = af.validate_matrix([[1.0, 1.0], [1.0, 1.0]])
        for adjustment in ("bonferroni", "bh"):
            res = af.direct_adjust(mat, 2, direct("simes", adjustment))
            assert res.n_rejected == 0

    def test_single_hypothesis_bh(self):
        mat = af.validate_matrix([[0.01], [0.04]])  # Bonferroni PC p = 0.04
        res = af.direct_adjust(mat, 2, direct("bonferroni", "bh"))
        assert res.rejected.tolist() == [True]
        assert res.gamma0 == 0.04

    def test_untestable_columns_excluded(self):
        mat = af.validate_matrix([[0.001, 0.5], [0.001, NAN]])
        res = af.direct_adjust(mat, 2, direct("fisher", "bonferroni"))
        assert res.untestable.tolist() == [False, True]
        assert not res.rejected[1]
        assert math.isnan(res.adjusted[1])
        # M_t = 1, so the threshold is alpha itself
        assert res.gamma0 == 0.05

    def test_replicability_validation(self):
        mat = af.validate_matrix([[0.1], [0.2]])
        for r in (1, 3):
            with pytest.raises(ReplicabilityLevelOutOfRange):
                af.direct_adjust(mat, r, direct("simes", "bh"))

    def test_no_testable_columns(self):
        # when no column reaches r observed entries, the level check fires
        mat = af.validate_matrix([[0.1, 0.4], [NAN, NAN], [NAN, NAN]])
        with pytest.raises(ReplicabilityLevelOutOfRange):
            af.direct_adjust(mat, 2, direct("simes", "bh"))

    def test_alpha_validation(self):
        with pytest.raises(ValidationError):
            direct("simes", "bh", alpha=0.0)
        with pytest.raises(ValidationError):
            direct("simes", "bh", alpha=1.2)

    def test_adaptive_procedure_is_refused(self):
        mat = af.validate_matrix([[0.01, 0.2], [0.02, 0.9]])
        for kind in (af.ProcedureKind.ADAFILTER_BONFERRONI, af.ProcedureKind.ADAFILTER_BH):
            for compute_adjusted in (False, True):
                with pytest.raises(ValidationError, match=kind.value):
                    af.direct_adjust(mat, 2, af.Procedure(kind, 0.05), compute_adjusted)

    def test_benchmark_constructor_builds_the_direct_procedure(self):
        # the benchmark's (combiner, adjustment, alpha) spelling is a Procedure
        kinds = {
            af.AdjustmentKind.BONFERRONI: af.ProcedureKind.DIRECT_BONFERRONI,
            af.AdjustmentKind.BH: af.ProcedureKind.DIRECT_BH,
        }
        assert set(kinds) == set(af.AdjustmentKind)
        for combiner in af.PCCombinerKind:
            for adjustment, kind in kinds.items():
                got = af.DirectProcedureSpec(combiner, adjustment, 0.1)
                assert got == af.Procedure(kind, 0.1, combiner)
        with pytest.raises(ValidationError):
            af.DirectProcedureSpec(af.PCCombinerKind.SIMES, af.AdjustmentKind.BH, 0.0)

    def test_bonferroni_subset_of_bh(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 200:
            inst = helpers.random_matrix(rng, max_m=30)
            if inst is None:
                continue
            mat, r = inst
            done += 1
            alpha = helpers.random_alpha(rng)
            for combiner in ("simes", "fisher", "bonferroni"):
                bon = af.direct_adjust(mat, r, direct(combiner, "bonferroni", alpha))
                bh = af.direct_adjust(mat, r, direct(combiner, "bh", alpha))
                assert np.all(bh.rejected[bon.rejected])

    def test_bh_count_nondecreasing_in_alpha(self):
        rng = np.random.default_rng(19)
        done = 0
        while done < 150:
            inst = helpers.random_matrix(rng, max_m=30)
            if inst is None:
                continue
            mat, r = inst
            done += 1
            lo = float(rng.uniform(0.01, 0.5))
            hi = float(rng.uniform(lo, 1.0))
            small = af.direct_adjust(mat, r, direct("simes", "bh", lo))
            large = af.direct_adjust(mat, r, direct("simes", "bh", hi))
            assert small.n_rejected <= large.n_rejected

    def test_bh_adjusted_reproduces_decisions(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 150:
            inst = helpers.random_matrix(rng, max_m=25)
            if inst is None:
                continue
            mat, r = inst
            done += 1
            alpha = helpers.random_alpha(rng)
            res = af.direct_adjust(mat, r, direct("fisher", "bh", alpha))
            testable = ~res.untestable
            adj = res.adjusted[testable]
            # standard identity: reject exactly the adjusted values <= alpha
            np.testing.assert_array_equal(res.rejected[testable], adj <= alpha)

    def test_bh_cutoff_and_adjusted_match_stepup_and_reference(self):
        # direct BH takes its cutoff and adjusted values from one sort of the
        # PC p-values; both must equal bh_stepup's and the reference's

        def check(mat, r, combiner, alpha):
            res = af.direct_adjust(mat, r, direct(combiner, "bh", alpha))
            testable = ~res.untestable
            pc = mat.pc_pvalues(r, af.PCCombinerKind(combiner))[testable]
            mask, cutoff = bh_stepup(pc, alpha)
            assert res.gamma0 == cutoff
            assert res.rejected[testable].tolist() == mask.tolist()
            assert res.adjusted[testable].tolist() == helpers.bh_adjusted_pvalues(pc).tolist()
            return int(mask.sum())

        rng = np.random.default_rng(37)
        done = 0
        while done < 150:
            inst = helpers.random_matrix(rng, max_m=30)
            if inst is None:
                continue
            mat, r = inst
            done += 1
            alpha = helpers.random_alpha(rng)
            for combiner in ("simes", "fisher", "bonferroni"):
                check(mat, r, combiner, alpha)
        # at r = n = 2 the Bonferroni PC p-value of a column (p, p) is p; the
        # last column has one observed entry and is untestable
        for pcs, rejections in (
            ([0.5, 0.7, 0.7, 0.9], 0),
            ([0.0, 0.01, 0.01, 0.02], 4),
            ([0.03], 1),
            ([0.3], 0),
        ):
            mat = af.validate_matrix([pcs + [0.001], pcs + [NAN]])
            assert check(mat, 2, "bonferroni", 0.05) == rejections


    def test_bh_is_adaptive_bh_with_every_filter_value_zero(self):
        # with F_j = 0 for every testable j, #{F <= gamma} = M_t and adaptive BH's
        # rule gamma * M_t <= alpha * #{PC <= gamma} is the BH step-up; direct BH
        # reports the largest PC p-value <= that gamma0 as its cutoff
        rng = np.random.default_rng(89)
        done = rejected = 0
        while done < 300:
            inst = helpers.random_matrix(rng, max_m=30)
            if inst is None:
                continue
            mat, r = inst
            done += 1
            alpha = helpers.random_alpha(rng)
            for combiner in af.PCCombinerKind:
                res = af.direct_adjust(mat, r, direct(combiner.value, "bh", alpha), False)
                pc = mat.pc_pvalues(r, combiner)
                testable = ~res.untestable
                stats = af.FilterSelectStats(np.where(testable, 0.0, np.nan), pc, testable)
                adaptive = af.adafilter_bh(stats, alpha)
                assert res.rejected.tolist() == adaptive.rejected.tolist(), (mat.values, r, alpha)
                below = pc[testable & (pc <= adaptive.gamma0)]
                assert res.gamma0 == (below.max() if below.size else 0.0)
                rejected += res.n_rejected
        assert rejected > 500

    def test_adjusted_values_change_no_decision(self):
        # adjusted values are built only on request; the BH decision reads the
        # P <= alpha alone whether or not they are
        rng = np.random.default_rng(43)
        done = 0
        while done < 300:
            inst = helpers.random_matrix(rng, max_m=30)
            if inst is None:
                continue
            mat, r = inst
            done += 1
            for alpha in (helpers.random_alpha(rng), 1.0):
                for combiner in ("simes", "fisher", "bonferroni"):
                    for adjustment in ("bonferroni", "bh"):
                        proc = direct(combiner, adjustment, alpha)
                        lean = af.direct_adjust(mat, r, proc, compute_adjusted=False)
                        full = af.direct_adjust(mat, r, proc)
                        assert lean.adjusted is None
                        assert full.adjusted.shape == (mat.n_hypotheses,)
                        assert helpers.results_equal(lean, full)

    def test_bh_cutoff_on_planted_edges(self):
        # at r = n = 2 the Bonferroni PC p-value of a column (p, p) is p; the
        # last column has one observed entry and is untestable
        for pcs, alpha, cutoff, rejections in (
            ([0.06, 0.2, 0.7, 0.9], 0.05, 0.0, 0),  # every P > alpha: k* = 0
            ([0.0, 0.0, 0.5, 0.9], 0.05, 0.0, 2),  # P = 0 is always rejected
            ([0.025, 0.025, 0.9, 0.9], 0.05, 0.025, 2),  # tie on the ladder's k = 2 rung
            ([0.01, 0.03, 0.03, 0.03], 0.05, 0.03, 4),  # a tie block past a failed rung
            ([0.2, 0.5, 0.9, 1.0], 1.0, 1.0, 4),  # alpha = 1: P = 1 meets the top rung
        ):
            mat = af.validate_matrix([pcs + [0.001], pcs + [NAN]])
            mask, want = naive_bh(pcs, alpha)
            assert (want, sum(mask)) == (cutoff, rejections)
            for compute_adjusted in (False, True):
                res = af.direct_adjust(mat, 2, direct("bonferroni", "bh", alpha), compute_adjusted)
                assert res.gamma0 == cutoff
                assert res.rejected.tolist() == mask + [False]


class TestDirectBhAdjustedValues:
    """direct_adjust orders only the P below the BH ladder's top plateau; every
    value must be the bits of helpers.bh_adjusted_pvalues, a full argsort."""

    @staticmethod
    def check(mat, r, combiner="bonferroni"):
        """Compare with the oracle; return (M_t, hypotheses below the plateau)."""
        res = af.direct_adjust(mat, r, direct(combiner, "bh"))
        testable = ~res.untestable
        pc = mat.pc_pvalues(r, af.PCCombinerKind(combiner))[testable]
        want = helpers.bh_adjusted_pvalues(pc)
        assert res.adjusted[testable].tobytes() == want.tobytes()
        assert np.isnan(res.adjusted[res.untestable]).all()
        # the ladder is nondecreasing, so its top plateau holds the largest value
        return int(testable.sum()), int(np.count_nonzero(want < want.max()))

    def test_random_matrices_match_the_oracle(self):
        rng = np.random.default_rng(59)
        done = below = total = 0
        while done < 2100:
            inst = helpers.random_matrix(rng, max_m=(5, 60, 400)[done % 3])
            if inst is None:
                continue
            mat, r = inst
            done += 1
            for combiner in af.PCCombinerKind:
                m_t, k0 = self.check(mat, r, combiner.value)
                below, total = below + k0, total + m_t
        # both the ordered part and the plateau hold many hypotheses
        assert 0 < below < total

    @pytest.mark.parametrize(
        ("pcs", "k0"),
        [
            ([0.3, 0.3, 0.3], 0),  # one tie block: all testable on the plateau
            ([0.5, 0.9, 1.0], 0),  # every m*P_(i)/i at or above the top P = 1
            ([0.0, 0.0], 0),  # a P = 0 block is the plateau
            ([0.01, 0.02, 0.9], 2),  # a plateau of one hypothesis
            ([0.01, 0.01, 0.5, 0.6], 2),  # a tie block ends at k0
            ([0.01, 0.5, 0.5], 1),  # a tie block is the plateau
            ([0.0, 0.0, 0.02, 1.0, 1.0], 3),  # blocks at P = 0 and P = 1
            ([0.4], 0),  # M_t = 1
        ],
    )
    def test_planted_plateaus(self, pcs, k0):
        # at r = n = 2 the Bonferroni PC p-value of a column (p, p) is p; a
        # column (p, NaN) is untestable, one after each testable column
        rows = [[x for p in pcs for x in (p, 0.001)], [x for p in pcs for x in (p, NAN)]]
        # and reversed, so that the untestable columns come first
        for values in (rows, [row[::-1] for row in rows]):
            assert self.check(af.validate_matrix(values), 2) == (len(pcs), k0)

    def test_sparse_signal_orders_few_hypotheses(self):
        # the regime the split is for: the plateau holds all but about 2%
        rng = np.random.default_rng(7)
        m = 200_000
        values = rng.random((8, m))
        values[:, rng.random(m) < 0.02] *= 1e-3
        values[rng.random((8, m)) < 0.05] = NAN
        mat = af.validate_matrix(values)
        for combiner in af.PCCombinerKind:
            m_t, k0 = self.check(mat, 4, combiner.value)
            assert 0 < k0 < 0.1 * m_t, (combiner, k0, m_t)


class TestBhAdjustedPvalues:
    def test_heavily_tied_input_matches_definition(self):
        # min over k >= i of m * P_(k) / k; positions with P_(k) >= P_j are
        # exactly those from j's tie block on, and the block's last position
        # gives its smallest value, so the definition needs no tie order
        rng = np.random.default_rng(23)
        for _ in range(300):
            m = int(rng.integers(1, 40))
            p = rng.choice([0.0, 0.01, 0.02, 0.05, 0.3, 1.0], size=m)
            order = sorted(p.tolist())
            want = [
                min(1.0, min(order[k - 1] * (m / k) for k in range(1, m + 1) if order[k - 1] >= pj))
                for pj in p.tolist()
            ]
            assert helpers.bh_adjusted_pvalues(p).tolist() == want
            perm = rng.permutation(m)
            assert helpers.bh_adjusted_pvalues(p[perm]).tolist() == [want[i] for i in perm]


class TestRunProcedure:
    def test_dispatch_matches_each_procedure(self):
        rng = np.random.default_rng(29)
        done = 0
        while done < 100:
            inst = helpers.random_matrix(rng, max_m=30)
            if inst is None:
                continue
            mat, r = inst
            done += 1
            alpha = helpers.random_alpha(rng)
            stats = af.compute_filter_select(mat, r)
            for proc in af.default_panel_procedures(alpha, alpha):
                got = af.run_procedure(mat, r, proc)
                if proc.kind is af.ProcedureKind.ADAFILTER_BONFERRONI:
                    want = af.adafilter_bonferroni(stats, alpha)
                elif proc.kind is af.ProcedureKind.ADAFILTER_BH:
                    want = af.adafilter_bh(stats, alpha)
                else:
                    want = af.direct_adjust(mat, r, proc)
                assert got.method is proc.kind is want.method
                assert helpers.results_equal(got, want)

    def test_every_decision_is_one_cutoff_on_one_statistic(self):
        # adaptive procedures cut S_j at gamma0, direct ones the PC p-value
        rng = np.random.default_rng(31)
        done = 0
        while done < 100:
            inst = helpers.random_matrix(rng, max_m=30)
            if inst is None:
                continue
            mat, r = inst
            done += 1
            alpha = helpers.random_alpha(rng)
            testable = mat.n_per_hyp >= r
            for proc in af.default_panel_procedures(alpha, alpha):
                res = af.run_procedure(mat, r, proc)
                if proc.combiner is None:
                    stat = af.compute_filter_select(mat, r).select_p
                else:
                    stat = mat.pc_pvalues(r, proc.combiner)
                assert np.array_equal(res.rejected, testable & (stat <= res.gamma0))
                assert np.array_equal(res.untestable, mat.n_per_hyp < r)
                for arr in (res.rejected, res.untestable, res.adjusted):
                    assert arr is None or not arr.flags.writeable

    def test_names_follow_kind_and_combiner(self):
        assert af.Procedure(af.ProcedureKind.ADAFILTER_BH, 0.1).name == "adafilter-bh"
        proc = af.Procedure(af.ProcedureKind.DIRECT_BH, 0.1, af.PCCombinerKind.FISHER)
        assert proc.name == "direct-bh-fisher"
