"""Simulation lab: scenario configs, calibrated signals, sampling, and panels."""

import concurrent.futures
import io
import math
import multiprocessing
import os
import pathlib
import stat

import mpmath
import numpy as np
import pytest
from scipy.special import erfc

import adafilter as af
from adafilter.errors import NoConvergence, ParseError, ValidationError
from adafilter import simlab
from adafilter.cli import main as cli_main
from adafilter.simlab import _stream
from adafilter.tables import atomic_output, format_float, write_columns


def scenario(**overrides) -> af.SimScenario:
    base = dict(
        M=1000,
        n=2,
        r=2,
        pi0=0.8,
        pi_rn=0.01,
        rho=0.0,
        block_size=100,
        replications=5,
        master_seed=12345,
    )
    base.update(overrides)
    return af.SimScenario(**base)


@pytest.fixture
def inline_pool(monkeypatch):
    """Stand-in for the process pool that runs each chunk when it is submitted
    and starts no process. It records each pool's size and start-method
    context and, at every submit, how many calibrated means are cached."""

    class InlinePool:
        sizes = []
        contexts = []
        cached = []

        def __init__(self, max_workers, mp_context=None):
            InlinePool.sizes.append(max_workers)
            InlinePool.contexts.append(mp_context)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            InlinePool.cached.append(simlab._calibrated_mus.cache_info().currsize)
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    simlab._calibrated_mus.cache_clear()
    return InlinePool


class TestScenarioValidation:
    def test_accepts_defaults(self):
        sc = scenario()
        assert sc.effective_calibration_alpha == 0.05 / 1000

    def test_calibration_alpha_override(self):
        sc = scenario(calibration_alpha=5e-6)
        assert sc.effective_calibration_alpha == 5e-6

    def test_rejects_bad_fields(self):
        bad = [
            dict(M=0),
            dict(r=1),
            dict(r=3, n=2),
            dict(pi0=1.2),
            dict(pi0=0.9, pi_rn=0.2),
            dict(rho=1.0),
            dict(rho=-0.1),
            dict(block_size=300),  # must divide M
            dict(block_size=0),
            dict(replications=0),
            dict(master_seed=-1),
            dict(master_seed=2**64),
            dict(power_targets=(0.1, 0.2, 0.3)),
            dict(power_targets=(0.1, 0.2, 0.3, 1.0)),
            dict(calibration_alpha=0.0),
        ]
        for overrides in bad:
            with pytest.raises(ValidationError):
                scenario(**overrides)


class TestCalibrateMu:
    def test_zero_when_power_equals_level(self):
        assert af.calibrate_mu(0.05, 0.05) == 0.0

    def test_matches_high_precision_root(self):
        mpmath.mp.dps = 40
        a = mpmath.mpf("5e-6")
        z = mpmath.sqrt(2) * mpmath.erfinv(1 - a)

        def power(mu):
            return mpmath.ncdf(-z - mu) + mpmath.ncdf(mu - z)

        want = float(mpmath.findroot(lambda mu: power(mu) - mpmath.mpf("0.95"), 6.0))
        got = af.calibrate_mu(0.95, 5e-6)
        assert got == pytest.approx(want, abs=1e-8)
        assert got == pytest.approx(6.21, abs=0.01)

    def test_median_shift_interpretation(self):
        # power 1/2 puts the critical value at the center of the shifted law
        assert af.calibrate_mu(0.5, 0.05) == pytest.approx(1.96, abs=0.01)

    def test_power_equation_satisfied(self):
        from scipy.special import ndtr, ndtri

        rng = np.random.default_rng(83)
        for _ in range(50):
            a = float(10.0 ** rng.uniform(-8, -0.5))
            power = float(rng.uniform(a + 1e-3, 0.999))
            if power >= 1.0:
                continue
            mu = af.calibrate_mu(power, a)
            z = -ndtri(a / 2.0)
            achieved = float(ndtr(-z - mu) + ndtr(mu - z))
            assert achieved == pytest.approx(power, abs=1e-9)

    def test_unreachable_power(self):
        with pytest.raises(NoConvergence):
            af.calibrate_mu(0.01, 0.05)

    def test_argument_validation(self):
        for power, a in ((0.0, 0.05), (1.0, 0.05), (0.5, 0.0), (0.5, 1.0)):
            with pytest.raises(ValidationError):
                af.calibrate_mu(power, a)


class TestSampleTruth:
    def test_complete_null(self):
        truth = af.sample_truth(scenario(pi0=1.0, pi_rn=0.0), rep=0)
        assert not truth.nonnull.any()
        assert not truth.pc_nonnull.any()

    def test_two_study_law(self):
        sc = scenario(M=200_000, pi0=0.8, pi_rn=0.01)
        truth = af.sample_truth(sc, rep=0)
        counts = truth.nonnull.sum(axis=0)
        draws = sc.M

        def freq(mask):
            return float(np.count_nonzero(mask)) / draws

        cases = [
            (counts == 0, 0.8),
            (counts == 2, 0.01),
            (truth.nonnull[0] & ~truth.nonnull[1], 0.095),
            (truth.nonnull[1] & ~truth.nonnull[0], 0.095),
        ]
        for mask, want in cases:
            se = math.sqrt(want * (1 - want) / draws)
            assert abs(freq(mask) - want) <= 4.5 * se, (want, freq(mask))

    def test_pc_flag_counts_nonnull_studies(self):
        sc = scenario(M=5000, n=6, r=4, pi0=0.5, pi_rn=0.2)
        truth = af.sample_truth(sc, rep=3)
        counts = truth.nonnull.sum(axis=0)
        np.testing.assert_array_equal(truth.pc_nonnull, counts >= 4)
        # category law: counts are 0, in 1..r-1, or in r..n
        assert set(np.unique(counts)) <= set(range(0, 7))

    def test_study_symmetry(self):
        # the non-null subset is uniform, so per-study loads should balance
        sc = scenario(M=100_000, n=4, r=3, pi0=0.2, pi_rn=0.3)
        truth = af.sample_truth(sc, rep=1)
        loads = truth.nonnull.mean(axis=1)
        assert loads.max() - loads.min() < 0.01

    def test_mask_matches_double_argsort(self):
        # one stable argsort plus a scatter marks the same studies as ranks
        # from a double stable argsort, ties (uniforms rounded to one
        # decimal) broken by row, for every k from 0 to n
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, 8):
            k = rng.integers(0, n + 1, size=300)
            k[:2] = (0, n)
            u = rng.random((n, 300))
            for draws in (u, np.round(u, 1)):
                ranks = np.argsort(np.argsort(draws, axis=0, kind="stable"), axis=0, kind="stable")
                np.testing.assert_array_equal(simlab._lowest_k_mask(draws, k), ranks < k)

    def test_planted_ties_take_the_argsort_fallback(self, monkeypatch):
        # a tie anywhere in u sends the mask to the stable argsort, which
        # still marks the double-argsort ranks below k
        rng = np.random.default_rng(32)
        argsort_calls = []
        argsort = np.argsort
        monkeypatch.setattr(
            simlab.np, "argsort", lambda *a, **kw: argsort_calls.append(1) or argsort(*a, **kw)
        )
        for n in (2, 5, 8, 20, 40):
            u = rng.random((n, 500))
            k = rng.integers(0, n + 1, size=500)
            simlab._lowest_k_mask(u, k)
            assert not argsort_calls
            u[n - 1, 17] = u[0, 17]
            ranks = argsort(argsort(u, axis=0, kind="stable"), axis=0, kind="stable")
            np.testing.assert_array_equal(simlab._lowest_k_mask(u, k), ranks < k)
            assert len(argsort_calls) == 1
            argsort_calls.clear()

    def test_deterministic_per_replication(self):
        sc = scenario(M=500)
        a = af.sample_truth(sc, rep=7)
        b = af.sample_truth(sc, rep=7)
        c = af.sample_truth(sc, rep=8)
        np.testing.assert_array_equal(a.nonnull, b.nonnull)
        assert not np.array_equal(a.nonnull, c.nonnull)


class TestSamplePvalues:
    def test_null_pvalues_are_uniform(self):
        sc = scenario(M=50_000, pi0=1.0, pi_rn=0.0, rho=0.0)
        truth = af.sample_truth(sc, rep=0)
        mat = af.sample_pvalues(truth, sc, rep=0)
        draws = np.sort(mat.values.ravel())
        n = draws.size
        grid = np.arange(1, n + 1) / n
        ks = max(
            float(np.max(grid - draws)), float(np.max(draws - (grid - 1.0 / n)))
        )
        assert ks < 1.63 / math.sqrt(n)  # 1% critical value

    def test_block_correlation_structure(self):
        sc = scenario(M=100_000, pi0=1.0, pi_rn=0.0, rho=0.5, block_size=10)
        truth = af.sample_truth(sc, rep=0)
        mat = af.sample_pvalues(truth, sc, rep=0)

        # rebuild study 0's z-values from its documented stream recipe and
        # check the published p-values come from exactly these draws
        g = _stream(sc.master_seed, 0, 1)
        w = g.standard_normal(sc.M // sc.block_size)
        eps = g.standard_normal(sc.M)
        g.integers(0, 8, size=sc.M)  # mean picks, unused under the null
        z = math.sqrt(0.5) * np.repeat(w, sc.block_size) + math.sqrt(0.5) * eps
        # ulp-level slack: the library multiplies by 1/sqrt(2) instead of dividing
        np.testing.assert_allclose(
            mat.values[0], erfc(np.abs(z) / math.sqrt(2)), rtol=0, atol=5e-16
        )

        within = np.corrcoef(z[0::2], z[1::2])[0, 1]  # pairs never straddle blocks
        assert abs(within - 0.5) < 0.02
        edge_left = z[sc.block_size - 1 :: sc.block_size][:-1]
        edge_right = z[sc.block_size :: sc.block_size]
        cross = np.corrcoef(edge_left, edge_right)[0, 1]
        assert abs(cross) < 0.02

    def test_studies_are_independent(self):
        sc = scenario(M=50_000, pi0=1.0, pi_rn=0.0, rho=0.7, block_size=100)
        truth = af.sample_truth(sc, rep=2)
        mat = af.sample_pvalues(truth, sc, rep=2)
        between = np.corrcoef(mat.values[0], mat.values[1])[0, 1]
        assert abs(between) < 0.02

    def test_strong_signals_concentrate_near_zero(self):
        sc = scenario(
            M=20_000,
            pi0=0.0,
            pi_rn=1.0,
            power_targets=(0.95, 0.95, 0.95, 0.95),
        )
        truth = af.sample_truth(sc, rep=0)
        assert truth.nonnull.all()
        mat = af.sample_pvalues(truth, sc, rep=0)
        assert float(np.median(mat.values)) < 1e-6

    def test_output_is_valid_matrix(self):
        sc = scenario(M=2000, pi0=0.5, pi_rn=0.2, rho=0.3)
        truth = af.sample_truth(sc, rep=5)
        mat = af.sample_pvalues(truth, sc, rep=5)
        assert mat.values.shape == (2, 2000)
        assert np.all((mat.values >= 0) & (mat.values <= 1))


class TestRunPanel:
    PFER_PROC = (
        af.Procedure(af.ProcedureKind.ADAFILTER_BONFERRONI, 1.0),
    )

    def test_complete_null_pfer_control(self):
        sc = scenario(M=1000, pi0=1.0, pi_rn=0.0, replications=50, master_seed=2718)
        report = af.run_panel(sc, self.PFER_PROC)
        pm = report.metrics[0]
        assert pm.pfer_mean <= 1.0 + 3.0 * pm.pfer_ci95

    def test_single_replication_has_no_intervals(self):
        sc = scenario(M=500, replications=1)
        report = af.run_panel(sc, af.default_panel_procedures())
        for pm in report.metrics:
            assert math.isnan(pm.pfer_ci95)
            assert math.isnan(pm.fdr_ci95)
            assert math.isnan(pm.recall_ci95)

    def test_metric_ranges(self):
        sc = scenario(M=2000, pi0=0.6, pi_rn=0.05, replications=8, rho=0.5)
        report = af.run_panel(sc, af.default_panel_procedures())
        for pm in report.metrics:
            assert pm.pfer_mean >= 0.0
            assert 0.0 <= pm.fdr_mean <= 1.0
            assert 0.0 <= pm.recall_mean <= 1.0
            assert pm.replications == 8

    def test_worker_count_does_not_change_results(self):
        sc = scenario(M=800, pi0=0.9, pi_rn=0.02, replications=6, master_seed=555)
        serial = af.run_panel(sc, af.default_panel_procedures(), threads=1)
        parallel = af.run_panel(sc, af.default_panel_procedures(), threads=3)
        assert serial == parallel

    def test_pool_has_one_worker_per_chunk(self, inline_pool):
        sc = scenario(M=200, block_size=10, replications=3)
        pooled = af.run_panel(sc, af.default_panel_procedures(), threads=64)
        assert inline_pool.sizes == [3]
        assert pooled == af.run_panel(sc, af.default_panel_procedures(), threads=1)
        assert inline_pool.sizes == [3]

    def test_means_calibrated_before_the_pool_starts(self, inline_pool):
        # forked workers inherit the parent's calibration cache, so the first
        # submitted chunk must find the scenario's means already there
        sc = scenario(M=200, block_size=10, replications=3, master_seed=77)
        af.run_panel(sc, af.default_panel_procedures(), threads=2)
        assert inline_pool.cached == [1, 1]

    def test_one_pool_per_run(self, inline_pool):
        # three scenarios of different n, replications and calibration level
        # share one pool of min(threads, max chunk count) forked workers; every
        # scenario's means are cached before the first chunk is submitted
        scenarios = [
            scenario(M=200, n=2, r=2, block_size=10, replications=2, master_seed=5),
            scenario(M=300, n=4, r=3, block_size=10, replications=5, master_seed=6),
            scenario(M=400, n=3, r=2, block_size=10, replications=3, master_seed=7),
        ]
        procs = af.default_panel_procedures()
        pooled = list(af.run_panels(scenarios, procs, threads=4))
        assert inline_pool.sizes == [4]
        if "fork" in multiprocessing.get_all_start_methods():
            assert [ctx.get_start_method() for ctx in inline_pool.contexts] == ["fork"]
        assert inline_pool.cached == [3] * (2 + 4 + 3)
        assert pooled == [af.run_panel(sc, procs, threads=1) for sc in scenarios]
        assert inline_pool.sizes == [4]

    def test_simulate_bytes_equal_for_any_worker_count(self, inline_pool, tmp_path):
        path = tmp_path / "grid.scenario"
        path.write_text(
            "M = 200\nn = 2, 4\nr = 2, 3\npi0 = 0.8, 0.95\npi_rn = 0.05\nrho = 0.3\n"
            "block_size = 10\nreplications = 3\nmaster_seed = 8\n",
            encoding="utf-8",
        )
        outputs = []
        for threads in (1, 2, 3):
            out = tmp_path / f"t{threads}.tsv"
            args = ["simulate", "--scenario", str(path), "--output", str(out)]
            assert cli_main([*args, "--threads", str(threads)]) == 0
            outputs.append(out.read_bytes())
        assert inline_pool.sizes == [2, 3]
        assert len(outputs[0].splitlines()) == 1 + 4 * 8
        assert outputs[0] == outputs[1] == outputs[2]

    def test_failing_chunk_ends_the_run_and_cancels_the_queue(self, monkeypatch):
        # a pool that runs nothing: the first chunk fails, the others stay queued
        futures = []

        class QueuedPool:
            def __init__(self, max_workers, mp_context=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                futures.append(concurrent.futures.Future())
                if len(futures) == 1:
                    futures[0].set_exception(ValidationError("chunk failed"))
                return futures[-1]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", QueuedPool)
        scenarios = [scenario(M=200, block_size=10, replications=4)] * 2
        with pytest.raises(ValidationError, match="chunk failed"):
            list(af.run_panels(scenarios, af.default_panel_procedures(), threads=2))
        assert len(futures) == 4
        assert all(fut.cancelled() for fut in futures[1:])

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValidationError, match=f"threads must be >= 1, got {threads}"):
            af.run_panel(scenario(M=200, block_size=10), af.default_panel_procedures(), threads)

    def test_combiner_ordering_on_shared_draws(self):
        # Fisher pools the whole tail, Bonferroni only its smallest member;
        # on identical draws Fisher finds at least as much
        sc = scenario(
            M=5000, n=4, r=2, pi0=0.9, pi_rn=0.05, replications=10, master_seed=404
        )
        report = af.run_panel(sc, af.default_panel_procedures())
        recall = {pm.procedure: pm.recall_mean for pm in report.metrics}
        assert recall["direct-bonferroni-bonferroni"] <= recall["direct-bonferroni-fisher"]

    def test_procedure_list_validation(self):
        with pytest.raises(ValidationError):
            af.run_panel(scenario(), ())
        with pytest.raises(ValidationError):
            af.Procedure(af.ProcedureKind.DIRECT_BH, 0.1)  # no combiner
        with pytest.raises(ValidationError):
            af.Procedure(
                af.ProcedureKind.ADAFILTER_BH,
                0.1,
                af.PCCombinerKind.SIMES,  # adaptive methods take none
            )
        with pytest.raises(ValidationError):
            af.Procedure(af.ProcedureKind.ADAFILTER_BH, 0.0)

    def test_default_panel_layout(self):
        procs = af.default_panel_procedures(alpha_pfer=0.9, alpha_fdr=0.15)
        assert [p.name for p in procs] == [
            "adafilter-bonferroni",
            "adafilter-bh",
            "direct-bonferroni-simes",
            "direct-bh-simes",
            "direct-bonferroni-fisher",
            "direct-bh-fisher",
            "direct-bonferroni-bonferroni",
            "direct-bh-bonferroni",
        ]
        for p in procs:
            if p.kind in (
                af.ProcedureKind.ADAFILTER_BONFERRONI,
                af.ProcedureKind.DIRECT_BONFERRONI,
            ):
                assert p.alpha == 0.9
            else:
                assert p.alpha == 0.15


SCENARIO_TEXT = """\
# panel grid
M = 1000
n = 2, 4
r = 2, 2
pi0 = 0.8, 0.98
pi_rn = 0.01
rho = 0.5
block_size = 10, 100
replications = 5
master_seed = 42
"""


class TestScenarioFiles:
    def write(self, tmp_path, text):
        path = tmp_path / "panel.scenario"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_grid_expansion_order(self, tmp_path):
        scenarios = af.load_scenarios(self.write(tmp_path, SCENARIO_TEXT))
        assert len(scenarios) == 2 * 2 * 2
        key = [(sc.n, sc.r, sc.pi0, sc.block_size) for sc in scenarios]
        assert key == [
            (2, 2, 0.8, 10),
            (2, 2, 0.8, 100),
            (2, 2, 0.98, 10),
            (2, 2, 0.98, 100),
            (4, 2, 0.8, 10),
            (4, 2, 0.8, 100),
            (4, 2, 0.98, 10),
            (4, 2, 0.98, 100),
        ]
        assert all(sc.M == 1000 and sc.master_seed == 42 for sc in scenarios)

    def test_single_scenario_with_optional_keys(self, tmp_path):
        text = (
            "M=100\nn=3\nr=2\npi0=0.7\npi_rn=0.05\nrho=0\nblock_size=100\n"
            "replications=2\nmaster_seed=7\npower_targets=0.1,0.2,0.3,0.4\n"
            "calibration_alpha=0.001\n"
        )
        (sc,) = af.load_scenarios(self.write(tmp_path, text))
        assert sc.power_targets == (0.1, 0.2, 0.3, 0.4)
        assert sc.calibration_alpha == 0.001
        assert sc.effective_calibration_alpha == 0.001

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("M = 1000\nM = 2000", "duplicate"),
            ("bogus = 3", "unknown"),
            ("M : 1000", "expected"),
            ("M =", "empty value"),
            ("r = 2", "pair up"),  # n has two entries, r one
            ("M = 1000\npower_targets = 0.1, abc, 0.5, 0.9", "line 3: bad value 'abc'"),
            # the count is checked before any value is parsed
            ("M = 1000\npower_targets = 0.1, abc", "line 3: power_targets needs exactly 4 values"),
        ],
    )
    def test_malformed_files(self, tmp_path, mutation, message):
        text = SCENARIO_TEXT.replace("M = 1000", mutation, 1)
        if mutation == "r = 2":
            text = SCENARIO_TEXT.replace("r = 2, 2", "r = 2", 1)
        with pytest.raises(ParseError, match=message):
            af.load_scenarios(self.write(tmp_path, text))

    def test_missing_keys_reported(self, tmp_path):
        with pytest.raises(ParseError, match="missing scenario keys"):
            af.load_scenarios(self.write(tmp_path, "M = 10\n"))

    def test_bad_token(self, tmp_path):
        text = SCENARIO_TEXT.replace("rho = 0.5", "rho = high")
        with pytest.raises(ParseError, match="bad value"):
            af.load_scenarios(self.write(tmp_path, text))

    def test_invalid_scenario_values_rejected(self, tmp_path):
        text = SCENARIO_TEXT.replace("replications = 5", "replications = 0")
        with pytest.raises(ValidationError):
            af.load_scenarios(self.write(tmp_path, text))

    def test_shipped_scenario_files_parse(self):
        root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
        panel = af.load_scenarios(str(root / "default_panel.scenario"))
        assert len(panel) == 6 * 2 * 2  # six (n, r) pairs x two pi0 x two block sizes
        assert {(sc.n, sc.r) for sc in panel} == {
            (2, 2),
            (4, 2),
            (8, 2),
            (4, 4),
            (8, 4),
            (8, 8),
        }
        assert all(sc.M == 10000 and sc.replications == 20 for sc in panel)
        smoke = af.load_scenarios(str(root / "smoke.scenario"))
        assert len(smoke) == 2
        assert all(sc.M == 1000 for sc in smoke)


class TestMetricsTsv:
    def test_format_float(self):
        assert format_float(float("nan")) == "NA"
        assert format_float(0.5) == "0.5"
        assert format_float(1 / 3) == "0.333333333333"

    def test_format_float_matches_format_spec(self):
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2**63, size=410_000, dtype=np.int64).view(np.float64)
        bits = bits[~np.isnan(bits)]  # every non-negative double, subnormals and inf included
        values = np.concatenate([
            rng.random(300_000),
            rng.random(100_000) ** 12,
            np.round(rng.random(100_000), 3),
            bits,
            -bits[:100_000],
            [5e-324, 2.2250738585072014e-308, 1e-310, 0.0, -0.0, 1.0, np.inf, -np.inf],
        ])
        assert values.size > 1_000_000
        xs = values.tolist()
        assert list(map(format_float, xs)) == [format(float(x), ".12g") for x in xs]
        assert format_float(float("nan")) == format_float(-float("nan")) == "NA"

    def test_report_rows(self):
        sc = scenario(M=300, replications=2)
        report = af.run_panel(sc, af.default_panel_procedures())
        buf = io.StringIO()
        af.write_metrics_tsv([report], buf)
        lines = buf.getvalue().split("\n")
        assert lines[-1] == ""  # trailing newline
        header = lines[0].split("\t")
        assert header[:3] == ["M", "n", "r"]
        assert len(lines) == 1 + 8 + 1
        for row in lines[1:-1]:
            cells = row.split("\t")
            assert len(cells) == len(header)
            assert cells[0] == "300"
            float(cells[-1])  # parses

    def test_nan_intervals_written_as_na(self):
        sc = scenario(M=300, replications=1)
        report = af.run_panel(sc, af.default_panel_procedures()[:1])
        buf = io.StringIO()
        af.write_metrics_tsv([report], buf)
        row = buf.getvalue().split("\n")[1]
        assert "\tNA" in row


class TestAtomicOutput:
    def test_failure_partway_leaves_previous_file(self, tmp_path):
        out = tmp_path / "table.tsv"
        out.write_bytes(b"previous\n")
        # the join fails on the last row, long after the first rows were flushed
        column = ["x"] * 100_000 + [None]
        with pytest.raises(TypeError):
            with atomic_output(out) as fh:
                write_columns(fh, {"a": column})
        assert out.read_bytes() == b"previous\n"
        assert os.listdir(tmp_path) == ["table.tsv"]

    def test_success_replaces_and_keeps_mode(self, tmp_path):
        out = tmp_path / "table.tsv"
        out.write_bytes(b"previous\n")
        out.chmod(0o600)
        with atomic_output(out) as fh:
            write_columns(fh, {"a": ["1", "2"], "b": ["x", "y"]})
        assert out.read_bytes() == b"a\tb\n1\tx\n2\ty\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert os.listdir(tmp_path) == ["table.tsv"]

    def test_new_file_gets_plain_open_mode(self, tmp_path):
        old = os.umask(0o027)
        try:
            with atomic_output(tmp_path / "new.tsv") as fh:
                fh.write("a\n")
            with open(tmp_path / "plain.tsv", "w"):
                pass
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "new.tsv").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "plain.tsv").stat().st_mode) == 0o640

    def test_symlink_written_through(self, tmp_path):
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "table.tsv"
        target.write_bytes(b"previous\n")
        link = tmp_path / "link.tsv"
        link.symlink_to(target)
        with atomic_output(link) as fh:
            fh.write("new\n")
        assert link.is_symlink()
        assert target.read_bytes() == b"new\n"
        assert os.listdir(tmp_path / "data") == ["table.tsv"]
