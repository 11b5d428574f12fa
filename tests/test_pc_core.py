"""Matrix validation, column sorting, and partial-conjunction combiners."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import adafilter as af
from adafilter.errors import (
    DimensionMismatch,
    DuplicateIdentifier,
    EmptyColumn,
    OutOfRangeEntry,
    ReplicabilityLevelOutOfRange,
)
from adafilter.pc_core import (
    _chi_square_sf_even,
    _column_sorted,
    _pc_pvalues_from_sorted,
    validate_matrix,
)

NAN = float("nan")
COMBINERS = (
    af.PCCombinerKind.BONFERRONI,
    af.PCCombinerKind.SIMES,
    af.PCCombinerKind.FISHER,
)


class TestValidateMatrix:
    def test_accepts_clean_grid(self):
        mat = af.validate_matrix([[0.03, 0.2], [0.04, 0.9]])
        assert mat.n_studies == 2
        assert mat.n_hypotheses == 2
        assert mat.n_per_hyp.tolist() == [2, 2]

    def test_accepts_boundary_pvalues(self):
        mat = af.validate_matrix([[0.0]])
        assert mat.values[0, 0] == 0.0
        mat = af.validate_matrix([[1.0, 0.0]])
        assert mat.values[0, 1] == 0.0

    def test_rejects_out_of_range_with_one_based_position(self):
        with pytest.raises(OutOfRangeEntry) as exc:
            af.validate_matrix([[1.2], [0.5]])
        assert (exc.value.row, exc.value.column, exc.value.value) == (1, 1, 1.2)
        assert exc.value.line is None
        assert str(exc.value).startswith("p-value at row 1, column 1 is 1.2; ")

    def test_rejects_negative_entry(self):
        with pytest.raises(OutOfRangeEntry) as exc:
            af.validate_matrix([[0.5, 0.2], [0.1, -0.3]])
        assert (exc.value.row, exc.value.column) == (2, 2)

    def test_rejects_all_missing_column(self):
        with pytest.raises(EmptyColumn) as exc:
            af.validate_matrix([[0.1, NAN], [0.2, NAN]])
        assert (exc.value.column, exc.value.identifier) == (2, None)
        assert str(exc.value) == "column 2 has no observed p-values"
        with pytest.raises(EmptyColumn, match=r"^column 2 has no observed p-values \(hypothesis id 'b'\)$"):
            af.validate_matrix([[0.1, NAN], [0.2, NAN]], ids=["a", "b"])

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionMismatch):
            af.validate_matrix([0.1, 0.2])
        with pytest.raises(DimensionMismatch):
            af.validate_matrix(np.zeros((2, 0)))

    def test_ids_attached_and_checked(self):
        mat = af.validate_matrix([[0.1, 0.2]], ids=["g1", "g2"])
        assert mat.ids == ("g1", "g2")
        with pytest.raises(DimensionMismatch):
            af.validate_matrix([[0.1, 0.2]], ids=["g1"])
        with pytest.raises(DuplicateIdentifier):
            af.validate_matrix([[0.1, 0.2]], ids=["g1", "g1"])

    def test_ids_that_are_not_str_are_stringified(self):
        mat = af.validate_matrix([[0.1, 0.2, 0.3]], ids=[1, 2, 3])
        assert mat.ids == ("1", "2", "3")
        # the check runs on the strings, so 1 and "1" are one id
        with pytest.raises(DuplicateIdentifier) as exc:
            af.validate_matrix([[0.1, 0.2]], ids=[1, "1"])
        assert exc.value.identifier == "1"

    def test_result_is_defensive_copy(self):
        src = np.array([[0.1, 0.2]])
        mat = af.validate_matrix(src)
        src[0, 0] = 0.9
        assert mat.values[0, 0] == 0.1
        with pytest.raises(ValueError):
            mat.values[0, 0] = 0.5

    def test_fortran_input_is_copied_to_c_order(self):
        # the CSV reader hands over a Fortran-ordered transpose; one C-ordered
        # copy lets the axis-0 counts and the column sort read whole rows
        x = np.random.default_rng(3).random((5, 9))
        x[1, 2] = NAN
        mat = af.validate_matrix(np.asfortranarray(x))
        assert mat.values.flags.c_contiguous
        assert mat.values.tobytes() == x.tobytes()


class TestMemoisedOrderStatistics:
    def test_each_value_computed_once_and_read_only(self, monkeypatch):
        import adafilter.pc_core as pc_core

        calls = []
        sort = pc_core._column_sorted
        monkeypatch.setattr(pc_core, "_column_sorted", lambda v: calls.append(1) or sort(v))
        mat = af.validate_matrix([[0.9, NAN], [0.1, 0.3], [0.5, 0.2]])
        assert mat.sorted_values is mat.sorted_values
        np.testing.assert_array_equal(mat.sorted_values, [[0.1, 0.2], [0.5, 0.3], [0.9, NAN]])
        for kind in COMBINERS:
            assert mat.pc_pvalues(2, kind) is mat.pc_pvalues(2, kind)
        af.compute_filter_select(mat, 2)
        assert len(calls) == 1
        np.testing.assert_array_equal(mat.pc_pvalues(2, af.PCCombinerKind.BONFERRONI), [1.0, 0.3])
        assert math.isnan(mat.pc_pvalues(3, af.PCCombinerKind.SIMES)[1])
        for arr in (mat.n_per_hyp, mat.sorted_values, mat.pc_pvalues(2, af.PCCombinerKind.FISHER)):
            assert not arr.flags.writeable

    def test_pc_pvalues_refuse_a_level_out_of_range(self):
        # r = 0 would read row -1 and r = max n_j + 1 past the last row; no
        # value is memoised for any of them
        mat = af.validate_matrix([[0.1, 0.3], [0.2, 0.5]])
        for kind in COMBINERS:
            for r in (0, 1, 3):
                with pytest.raises(ReplicabilityLevelOutOfRange):
                    mat.pc_pvalues(r, kind)
        assert mat._memo == {}


class TestSortColumn:
    def test_drops_missing_and_sorts(self):
        mat = af.validate_matrix(np.array([[0.9], [0.1], [NAN], [0.5]]))
        np.testing.assert_array_equal(mat.sorted_values[:, 0], [0.1, 0.5, 0.9, NAN])
        assert mat.n_per_hyp.tolist() == [3]

    def test_keeps_ties(self):
        mat = af.validate_matrix([[0.2], [0.2]])
        assert mat.sorted_values[:, 0].tolist() == [0.2, 0.2]

    def test_network_sort_is_bitwise_np_sort(self):
        # the comparator network sorts every row count
        rng = np.random.default_rng(12)
        for n in [*range(1, 71), 128]:
            for m in (1, 7, 1000):
                values = np.round(rng.random((n, m)), int(rng.integers(1, 4)))
                values[rng.random((n, m)) < 0.1] = rng.choice([0.0, 1.0])
                values[rng.random((n, m)) < 0.2] = NAN
                want = np.sort(values, axis=0, kind="stable")
                # a PValueMatrix built directly may hold a Fortran-ordered array
                for layout in (values, np.asfortranarray(values)):
                    got = _column_sorted(layout)
                    assert got.tobytes() == want.tobytes(), (n, m)
                    assert got.flags.c_contiguous

    def test_single_observed_entry(self):
        mat = af.validate_matrix(np.array([[NAN], [0.7]]))
        np.testing.assert_array_equal(mat.sorted_values[:, 0], [0.7, NAN])
        assert mat.n_per_hyp.tolist() == [1]


class TestPcPvalue:
    def test_bonferroni_uses_rth_smallest(self):
        col = [0.001, 0.01, 0.5, 0.9]
        assert af.pc_pvalue(col, 2, af.PCCombinerKind.BONFERRONI) == pytest.approx(
            0.03, abs=1e-15
        )

    def test_simes_minimum_over_tail(self):
        col = [0.01, 0.04, 0.9]
        # min(2*0.04/1, 2*0.9/2) = 0.08
        assert af.pc_pvalue(col, 2, af.PCCombinerKind.SIMES) == pytest.approx(
            0.08, abs=1e-15
        )

    def test_fisher_degenerates_to_largest_pvalue(self):
        # with a single tail value the chi-square round trip returns it exactly
        for p2 in (0.37, 0.8, 1.0):
            col = [0.05, p2]
            got = af.pc_pvalue(col, 2, af.PCCombinerKind.FISHER)
            assert got == pytest.approx(p2, abs=1e-12)

    def test_output_capped_at_one(self):
        col = [0.9, 0.95, 0.99]
        for kind in COMBINERS:
            assert af.pc_pvalue(col, 2, kind) <= 1.0

    def test_zero_pvalue_propagates(self):
        col = [0.0, 0.0, 0.5]
        # r=2 keeps a zero inside the combined tail (0.0, 0.5)
        assert af.pc_pvalue(col, 2, af.PCCombinerKind.FISHER) == 0.0
        assert af.pc_pvalue(col, 2, af.PCCombinerKind.BONFERRONI) == 0.0
        assert af.pc_pvalue(col, 2, af.PCCombinerKind.SIMES) == 0.0

    def test_replicability_level_bounds(self):
        col = [0.1, 0.2]
        with pytest.raises(ReplicabilityLevelOutOfRange):
            af.pc_pvalue(col, 1, af.PCCombinerKind.SIMES)
        with pytest.raises(ReplicabilityLevelOutOfRange):
            af.pc_pvalue(col, 3, af.PCCombinerKind.SIMES)
        # a missing entry does not count towards n_j
        with pytest.raises(ReplicabilityLevelOutOfRange) as exc:
            af.pc_pvalue([0.1, NAN, 0.2], 3, af.PCCombinerKind.SIMES)
        assert (exc.value.r, exc.value.n) == (3, 2)
        assert af.pc_pvalue([0.1, NAN, 0.2], 2, af.PCCombinerKind.BONFERRONI) == 0.2

    def test_unknown_combiner_kind_raises(self):
        # the combiners compare kinds by identity, so the enum's value is no kind
        with pytest.raises(TypeError, match="unknown combiner kind 'fisher'"):
            af.pc_pvalue([0.1, 0.2], 2, "fisher")


def chi_square_sf(x: float, df: int) -> float:
    return float(_chi_square_sf_even(np.array([x]), df)[0])


class TestChiSquareSf:
    """The Fisher combiner's chi-square kernel, pc_core._chi_square_sf_even."""

    def test_at_zero_is_one(self):
        for df in (2, 4, 8, 16):
            assert chi_square_sf(0.0, df) == 1.0

    def test_two_degrees_is_exponential(self):
        for x in (0.1, 1.0, 5.0, 40.0):
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-15)

    def test_four_degrees_closed_form(self):
        assert chi_square_sf(4.0, 4) == pytest.approx(3 * math.exp(-2), abs=1e-15)
        assert chi_square_sf(4.0, 4) == pytest.approx(0.4060058497098381, abs=1e-15)

    def test_extreme_arguments(self):
        assert chi_square_sf(float("inf"), 4) == 0.0
        assert chi_square_sf(5000.0, 2) == 0.0
        assert math.isnan(chi_square_sf(float("nan"), 2))

    def test_matches_high_precision_reference(self):
        mpmath.mp.dps = 50

        def reference(x, df):
            return float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, regularized=True))

        xs = np.concatenate([np.arange(0.1, 50.0, 0.7), [50.0]])
        for df in range(2, 17, 2):
            for x in xs:
                assert abs(chi_square_sf(float(x), df) - reference(float(x), df)) <= 1e-12, (x, df)
        # above x/2 = 700 exp(-x/2) nears the subnormal range and the Poisson
        # sum can overflow, so the kernel switches to log-space terms there;
        # wherever the true value is a normal float the relative error stays
        # within 1e-12 on both sides of the switch, with no RuntimeWarning
        points = [(2000.0, 700), (1500.0, 16), (1700.0, 1200), (1440.0, 1000)]
        for df in (2, 16, 100, 700, 1000, 1200, 1600, 1900, 2000):
            for x in (0.5 * df, 1.0 * df, 1399.0, 1400.0, 1401.0, 2.0 * df + 600.0, 4.0 * df + 1400.0):
                points.append((x, df))
        tiny = np.finfo(np.float64).tiny
        normal = 0
        for x, df in points:
            want = reference(x, df)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = chi_square_sf(x, df)
            if want >= tiny:
                assert abs(got - want) <= 1e-12 * want, (x, df, got, want)
                normal += 1
            else:
                assert 0.0 <= got < tiny, (x, df, got, want)
        assert normal >= 50
        # a subnormal value is no longer flushed to 0 (mpmath: 5.08e-310)
        assert chi_square_sf(1500.0, 16) == pytest.approx(5.0839800486219e-310, rel=1e-9)

    def test_many_studies_give_finite_fisher_pvalues(self):
        # 400 studies of p <= 0.1: at r = 2 the statistic is near 2,600 on
        # 798 degrees of freedom, where the Poisson terms once overflowed to NaN
        rng = np.random.default_rng(37)
        mat = af.validate_matrix(rng.uniform(0.0, 0.1, (400, 3)))
        got = mat.pc_pvalues(2, af.PCCombinerKind.FISHER)
        assert np.isfinite(got).all() and (got > 0.0).all()
        for j in range(3):
            want = reference_pc(mat.values[:, j].tolist(), 2, af.PCCombinerKind.FISHER)
            assert got[j] == pytest.approx(want, rel=1e-9)
        proc = af.Procedure(af.ProcedureKind.DIRECT_BH, 0.05, af.PCCombinerKind.FISHER)
        assert af.direct_adjust(mat, 2, proc).rejected.all()

    def test_vectorized_matches_scalar(self):
        # one call over the whole array, checked entry by entry against mpmath
        mpmath.mp.dps = 50
        rng = np.random.default_rng(7)
        xs = np.concatenate([rng.uniform(0, 60, 200), [0.0, 1e-12, 2980.0, 4000.0]])
        for df in (2, 6, 14):
            got = _chi_square_sf_even(xs, df)
            want = np.array([
                float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(float(x)) / 2, regularized=True))
                for x in xs
            ])
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
            assert got[-2] == got[-1] == 0.0


def reference_pc(column, r, kind):
    """PC p-value of one column from its definition, in plain Python.

    Bonferroni: k * P_(r); Simes: min_i k * P_(r-1+i) / i; Fisher: the
    chi-square tail at -2 sum log P_(i) over the tail, with 2k degrees of
    freedom; k = n_j - r + 1. Results are capped at 1.
    """
    p = sorted(x for x in column if not math.isnan(x))
    k = len(p) - r + 1
    tail = p[r - 1 :]
    if kind is af.PCCombinerKind.BONFERRONI:
        return min(1.0, k * tail[0])
    if kind is af.PCCombinerKind.SIMES:
        return min(1.0, min(k * tail[i] / (i + 1) for i in range(k)))
    if 0.0 in tail:
        return 0.0
    return min(1.0, float(chi2.sf(-2.0 * math.fsum(math.log(x) for x in tail), 2 * k)))


def bounded_floats(lo=0.0, hi=1.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


@st.composite
def column_with_bump(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    ps = draw(st.lists(bounded_floats(), min_size=n, max_size=n))
    r = draw(st.integers(min_value=2, max_value=n))
    idx = draw(st.integers(min_value=0, max_value=n - 1))
    target = draw(bounded_floats())
    return ps, r, idx, target


class TestCombinerProperties:
    @settings(max_examples=300, deadline=None)
    @given(column_with_bump())
    def test_raising_one_pvalue_never_lowers_result(self, case):
        ps, r, idx, target = case
        bumped = list(ps)
        bumped[idx] = max(bumped[idx], target)
        for kind in COMBINERS:
            before = af.pc_pvalue(ps, r, kind)
            after = af.pc_pvalue(bumped, r, kind)
            # a tiny slack only for Fisher, whose exp/log round trip can
            # wobble in the last ulp; Bonferroni and Simes are exact
            slack = 1e-12 if kind is af.PCCombinerKind.FISHER else 0.0
            assert after >= before - slack

    @settings(max_examples=300, deadline=None)
    @given(column_with_bump())
    def test_simes_never_exceeds_bonferroni(self, case):
        ps, r, _, _ = case
        simes = af.pc_pvalue(ps, r, af.PCCombinerKind.SIMES)
        bonf = af.pc_pvalue(ps, r, af.PCCombinerKind.BONFERRONI)
        assert simes <= bonf

    def test_batch_matches_scalar_including_missing(self):
        rng = np.random.default_rng(11)
        import helpers

        done = 0
        while done < 200:
            inst = helpers.random_matrix(rng, max_m=20, max_n=6)
            if inst is None:
                continue
            mat, r = inst
            done += 1
            sv = _column_sorted(mat.values)
            for kind in COMBINERS:
                got = _pc_pvalues_from_sorted(sv, mat.n_per_hyp, r, kind)
                for j in range(mat.n_hypotheses):
                    if mat.n_per_hyp[j] < r:
                        assert math.isnan(got[j])
                        continue
                    want = reference_pc(mat.values[:, j].tolist(), r, kind)
                    if kind is af.PCCombinerKind.FISHER:
                        assert got[j] == pytest.approx(want, abs=1e-13)
                    else:
                        # the same float operations in the same order
                        assert got[j] == want

    def test_row_slices_match_gathered_tails(self):
        # equal n_j reads row views and mixed n_j gathers each row, and Fisher
        # adds its logs row by row in np.sum's pairwise order (8 partial sums
        # from k = 8, two halves above k = 128); all must equal the bits of
        # the Fortran-ordered gather, whose np.sum adds each column pairwise
        import helpers

        rng = np.random.default_rng(13)
        for n in (2, 3, 8, 9, 15, 21, 140):
            for mixed in (False, True):
                values = rng.random((n, 300)) ** 3
                values[rng.random((n, 300)) < 0.05] = 0.0
                if mixed:
                    values[rng.random((n, 300)) < 0.3] = NAN
                    values[0] = rng.random(300)
                mat = af.validate_matrix(values)
                for r in range(2, n + 1) if n < 100 else (2, 12, 13, n):
                    for kind in COMBINERS:
                        got = _pc_pvalues_from_sorted(mat.sorted_values, mat.n_per_hyp, r, kind)
                        want = helpers.gathered_pc_pvalues(
                            mat.sorted_values, mat.n_per_hyp, r, kind
                        )
                        assert got.tobytes() == want.tobytes(), (n, mixed, r, kind)

    def test_uniform_null_stays_valid(self):
        # empirical CDF of the combined p-value must sit at or below the
        # diagonal (up to Monte Carlo noise) when all inputs are uniform
        rng = np.random.default_rng(2024)
        draws = 200_000
        for n, r in ((2, 2), (4, 2), (4, 4), (8, 5)):
            p = rng.random((n, draws))
            sv = np.sort(p, axis=0)
            n_per = np.full(draws, n, dtype=np.int64)
            for kind in COMBINERS:
                pc = _pc_pvalues_from_sorted(sv, n_per, r, kind)
                for gamma in (0.01, 0.05, 0.2):
                    freq = float(np.mean(pc <= gamma))
                    se = math.sqrt(gamma * (1 - gamma) / draws)
                    assert freq <= gamma + 3 * se, (n, r, kind, gamma, freq)


class TestMemoryBound:
    """Peak memory of the direct path at 2e5 x 8, r = 4, with mixed n_j.

    numpy reports its allocations to tracemalloc, so the traced peak counts
    every temporary. One unit is one float64 array of length M.
    """

    M = 200_000

    @pytest.fixture(scope="class")
    def values(self):
        rng = np.random.default_rng(19)
        values = rng.random((8, self.M))
        values[rng.random((8, self.M)) < 0.05] = NAN
        return values

    def arrays(self, fn, *args) -> float:
        """Traced peak of one call, its result included, in arrays of length M."""
        tracemalloc.start()
        try:
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result is not None
        return peak / (8 * self.M)

    def test_combiners_hold_a_few_rows(self, values):
        # Bonferroni holds its result and k, Simes one scratch row more; Fisher
        # holds its log sums and the chi-square kernel's four buffers
        mat = validate_matrix(values)
        assert len(np.unique(mat.n_per_hyp)) > 2
        bounds = {
            af.PCCombinerKind.BONFERRONI: 3.0,
            af.PCCombinerKind.SIMES: 4.0,
            af.PCCombinerKind.FISHER: 6.0,
        }
        for kind in COMBINERS:
            peak = self.arrays(_pc_pvalues_from_sorted, mat.sorted_values, mat.n_per_hyp, 4, kind)
            assert peak <= bounds[kind], (kind, peak)

    def test_direct_bh_adjusted_values_hold_two_arrays(self, values):
        # with the PC p-values memoised, the sorted buffer that becomes the
        # result and the ladder; a full argsort beside them held 4.13
        mat = validate_matrix(values)
        for kind in COMBINERS:
            mat.pc_pvalues(4, kind)
            proc = af.Procedure(af.ProcedureKind.DIRECT_BH, 0.05, kind)
            peak = self.arrays(af.direct_adjust, mat, 4, proc)
            assert peak <= 3.0, (kind, peak)

    def test_direct_bh_decision_holds_under_one_array(self, values):
        # after a warm-up call, the three boolean masks of the result and the
        # sorted P <= alpha: the breakpoint table's F (every F_j = 0) must be a
        # view, not an M-length array
        mat = validate_matrix(values)
        for kind in COMBINERS:
            for alpha in (0.05, 0.5):
                proc = af.Procedure(af.ProcedureKind.DIRECT_BH, alpha, kind)
                af.run_procedure(mat, 4, proc)
                peak = self.arrays(af.run_procedure, mat, 4, proc)
                assert peak <= 0.75, (kind, alpha, peak)

    def test_adaptive_bonferroni_decision_holds_under_half_an_array(self, values):
        # after a warm-up call, the result's masks and one comparison: k* is
        # bisected on the sorted F, and an array of the alpha/k held 2.04
        stats = af.compute_filter_select(validate_matrix(values), 4)
        for alpha in (0.05, 0.5):
            af.adafilter_bonferroni(stats, alpha)
            peak = self.arrays(af.adafilter_bonferroni, stats, alpha)
            assert peak <= 0.5, (alpha, peak)

    def test_validation_holds_little_beside_its_copy(self, values):
        # the copy it keeps is 8 arrays
        assert self.arrays(validate_matrix, values) <= 9.0
