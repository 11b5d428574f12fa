"""Acceptance gate for the whole package.

Ten checks, one test each, run in order. Every test ends by printing a
single scorecard line (visible with pytest -s or in captured output on
failure). Timing limits use wall-clock perf_counter and are asserted only
where the check itself carries a budget.
"""

import math
import time

import numpy as np
from scipy.special import erfc

import adafilter as af
from adafilter.procedures import bh_stepup
from adafilter.cli import main
import helpers

# six (n, r) panel configurations, from pairwise replication up to full
# conjunction of eight studies
PANEL_CONFIGS = ((2, 2), (4, 2), (8, 2), (4, 4), (8, 4), (8, 8))

TOY_REJECTING = [[0.03, 0.2], [0.04, 0.9]]
TOY_SHRUNKEN = [[0.03, 0.01], [0.04, 0.7]]


def _report(line: str) -> None:
    print(line)


def test_01_bonferroni_definitions_agree():
    rng = np.random.default_rng(10_001)
    start = time.perf_counter()
    checked = 0
    while checked < 10_000:
        stats = helpers.random_stats(rng, max_m=50, max_n=8)
        if stats is None:
            continue
        checked += 1
        alpha = helpers.random_alpha(rng)
        direct = af.adafilter_bonferroni(stats, alpha)
        twostep = helpers.adafilter_bonferroni_twostep(stats, alpha)
        assert helpers.results_equal(direct, twostep), (
            stats.filter_p,
            stats.select_p,
            alpha,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"equivalence sweep took {elapsed:.1f}s"
    _report(
        f"[check 01] PASS threshold forms identical on {checked} random "
        f"instances in {elapsed:.1f}s (budget 10s)"
    )


def test_02_bh_search_matches_exhaustive_oracle():
    rng = np.random.default_rng(10_002)
    start = time.perf_counter()
    checked = 0
    while checked < 1_000:
        stats = helpers.random_stats(rng, max_m=50, max_n=8)
        if stats is None:
            continue
        checked += 1
        alpha = helpers.random_alpha(rng)
        fast = af.adafilter_bh(stats, alpha)
        slow = helpers.adafilter_bh_oracle(stats, alpha)
        assert helpers.results_equal(fast, slow), (
            stats.filter_p,
            stats.select_p,
            alpha,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    _report(
        f"[check 02] PASS fast threshold search equals the literal grid "
        f"search on {checked} instances in {elapsed:.1f}s (budget 30s)"
    )


def test_03_toy_fixtures_behave_as_advertised():
    strong = af.compute_filter_select(af.validate_matrix(TOY_REJECTING), 2)
    bon = af.adafilter_bonferroni(strong, 0.05)
    bh = af.adafilter_bh(strong, 0.05)
    assert bon.gamma0 == 0.05 and bh.gamma0 == 0.05
    assert bon.rejected.tolist() == [True, False]
    assert bh.rejected.tolist() == [True, False]

    # neither study shows anything on its own at the same level
    per_study = np.array(TOY_REJECTING)
    for row in per_study:
        assert not (row <= 0.05 / row.size).any()  # per-study Bonferroni
        mask, _ = bh_stepup(row, 0.05)  # per-study BH
        assert not mask.any()

    weak = af.compute_filter_select(af.validate_matrix(TOY_SHRUNKEN), 2)
    bon_w = af.adafilter_bonferroni(weak, 0.05)
    bh_w = af.adafilter_bh(weak, 0.05)
    assert bon_w.gamma0 == 0.025 and bon_w.n_rejected == 0
    assert bh_w.gamma0 == 0.0 and bh_w.n_rejected == 0

    _report(
        "[check 03] PASS toy fixtures: replication-level rejection without "
        "per-study signal, and the entrywise-smaller matrix rejects nothing"
    )


def _pfer_scenario(n, r, pi0, seed, **overrides):
    base = dict(
        M=2000,
        n=n,
        r=r,
        pi0=pi0,
        pi_rn=0.01,
        rho=0.0,
        block_size=100,
        replications=100,
        master_seed=seed,
    )
    base.update(overrides)
    return af.SimScenario(**base)


def test_04_expected_false_rejections_stay_below_alpha():
    procs = (af.Procedure(af.ProcedureKind.ADAFILTER_BONFERRONI, 1.0),)
    start = time.perf_counter()
    worst = -math.inf
    for idx, (n, r) in enumerate(PANEL_CONFIGS):
        for pi0 in (0.8, 0.98):
            sc = _pfer_scenario(n, r, pi0, seed=40_000 + idx)
            pm = af.run_panel(sc, procs).metrics[0]
            slack = pm.pfer_mean - (1.0 + 3.0 * pm.pfer_ci95)
            worst = max(worst, slack)
            assert slack <= 0.0, (n, r, pi0, pm.pfer_mean, pm.pfer_ci95)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"PFER panel took {elapsed:.1f}s"
    _report(
        f"[check 04] PASS expected false rejections <= 1 + 3 CI on all 12 "
        f"independent-study cells in {elapsed:.1f}s (budget 120s); worst "
        f"slack {worst:+.3f}"
    )


_DIRECT_COMBINERS = ("simes", "fisher", "bonferroni")


def _power_panel(adjustment_kind, alpha, block_size, seed_base):
    """Per-procedure average recall over the six configs, plus per-cell metrics."""
    if adjustment_kind == "bonferroni":
        ada = af.Procedure(af.ProcedureKind.ADAFILTER_BONFERRONI, alpha)
        direct_kind = af.ProcedureKind.DIRECT_BONFERRONI
    else:
        ada = af.Procedure(af.ProcedureKind.ADAFILTER_BH, alpha)
        direct_kind = af.ProcedureKind.DIRECT_BH
    procs = [ada] + [
        af.Procedure(direct_kind, alpha, af.PCCombinerKind(c)) for c in _DIRECT_COMBINERS
    ]
    cells = []
    for idx, (n, r) in enumerate(PANEL_CONFIGS):
        sc = af.SimScenario(
            M=10_000,
            n=n,
            r=r,
            pi0=0.98,
            pi_rn=0.01,
            rho=0.5,
            block_size=block_size,
            replications=20,
            master_seed=seed_base + idx,
        )
        report = af.run_panel(sc, procs)
        cells.append({pm.procedure: pm for pm in report.metrics})
    avg = {
        name: float(np.mean([cell[name].recall_mean for cell in cells]))
        for name in cells[0]
    }
    return avg, cells


def test_05_adaptive_bonferroni_outpowers_direct_baselines():
    start = time.perf_counter()
    avg, cells = _power_panel("bonferroni", alpha=1.0, block_size=100, seed_base=50_000)
    ada = avg["adafilter-bonferroni"]
    best_direct = max(avg[f"direct-bonferroni-{c}"] for c in _DIRECT_COMBINERS)
    assert ada >= 1.4 * best_direct, (ada, best_direct)

    worst_pfer = max(
        cell[f"direct-bonferroni-{c}"].pfer_mean
        for cell in cells
        for c in _DIRECT_COMBINERS
    )
    assert worst_pfer <= 0.1, worst_pfer
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"power panel took {elapsed:.1f}s"
    _report(
        f"[check 05] PASS adaptive recall {ada:.3f} >= 1.4 x best direct "
        f"{best_direct:.3f} (ratio {ada / best_direct:.2f}); direct methods' "
        f"worst expected false rejections {worst_pfer:.3f} <= 0.1; "
        f"{elapsed:.1f}s (budget 600s)"
    )


def test_06_adaptive_bh_controls_fdr_and_outpowers_direct():
    ada_avgs = []
    direct_avgs = {c: [] for c in _DIRECT_COMBINERS}
    for block_size, seed_base in ((100, 60_000), (1000, 61_000)):
        avg, cells = _power_panel("bh", alpha=0.2, block_size=block_size, seed_base=seed_base)
        for cell in cells:
            pm = cell["adafilter-bh"]
            assert pm.fdr_mean <= 0.2 + 3.0 * pm.fdr_ci95, (
                block_size,
                pm.fdr_mean,
                pm.fdr_ci95,
            )
        ada_avgs.append(avg["adafilter-bh"])
        for c in _DIRECT_COMBINERS:
            direct_avgs[c].append(avg[f"direct-bh-{c}"])
    ada = float(np.mean(ada_avgs))
    best_direct = max(float(np.mean(v)) for v in direct_avgs.values())
    assert ada >= 1.5 * best_direct, (ada, best_direct)
    _report(
        f"[check 06] PASS adaptive FDR within 0.2 + 3 CI on every cell for "
        f"both block sizes; recall {ada:.3f} >= 1.5 x best direct "
        f"{best_direct:.3f} (ratio {ada / best_direct:.2f})"
    )


def test_07_selection_pvalue_conditionally_valid():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(70_001)))
    draws = 1_000_000
    betas = (0.05, 0.2, 0.5)
    for mu in (0.0, 1.0, 3.0, 5.0):
        z_null = rng.standard_normal(draws)
        z_other = rng.standard_normal(draws) + mu
        p1 = erfc(np.abs(z_null) / math.sqrt(2.0))
        p2 = erfc(np.abs(z_other) / math.sqrt(2.0))
        f = np.minimum(p1, p2)
        s = np.maximum(p1, p2)
        for beta in betas:
            kept = s[f <= beta]
            assert kept.size > 0
            phat = float(np.mean(kept <= beta))
            se = math.sqrt(max(phat * (1.0 - phat), 1e-12) / kept.size)
            assert phat <= beta + 3.0 * se, (mu, beta, phat, se)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"conditional validity sweep took {elapsed:.1f}s"
    _report(
        f"[check 07] PASS Pr(S <= beta | F <= beta) <= beta + 3 SE for "
        f"beta in {betas} across 4 single-replication null configurations, "
        f"1e6 draws each, in {elapsed:.1f}s (budget 60s)"
    )


def test_08_lowering_own_pvalues_never_revokes_a_rejection():
    rng = np.random.default_rng(80_001)
    procedures = {
        "threshold-form": af.adafilter_bonferroni,
        "step-up-form": af.adafilter_bh,
    }
    flips = 0
    exercised = {name: 0 for name in procedures}
    for name, proc in procedures.items():
        trials = 0
        while trials < 1_000:
            inst = helpers.random_matrix(rng, max_m=25, max_n=6)
            if inst is None:
                continue
            mat, r = inst
            trials += 1
            alpha = float(rng.choice([0.05, 0.2, 1.0]))
            stats = af.compute_filter_select(mat, r)
            before = proc(stats, alpha)
            j = int(rng.integers(mat.n_hypotheses))
            observed = np.flatnonzero(~np.isnan(mat.values[:, j]))
            i = int(rng.choice(observed))
            lowered = mat.values.copy()
            lowered[i, j] *= float(rng.random())
            after = proc(af.compute_filter_select(af.PValueMatrix(lowered), r), alpha)
            if before.rejected[j]:
                exercised[name] += 1
                if not after.rejected[j]:
                    flips += 1
    assert flips == 0
    assert min(exercised.values()) > 50  # the sweep actually hit rejections
    _report(
        f"[check 08] PASS no rejection revoked by lowering an own-column "
        f"p-value in 1000 trials per procedure (rejection cases hit: "
        f"{exercised})"
    )


def test_09_bh_handles_a_million_hypotheses_quickly():
    rng = np.random.default_rng(90_001)
    m, n = 1_000_000, 8
    p = rng.random((n, m))
    signal = rng.random(m) < 0.01
    p[:, signal] *= 1e-5
    start = time.perf_counter()
    mat = af.validate_matrix(p)
    stats = af.compute_filter_select(mat, 4)
    res = af.adafilter_bh(stats, 0.1)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0, f"large run took {elapsed:.2f}s"
    assert res.n_rejected > 0
    _report(
        f"[check 09] PASS validate + statistics + step-up threshold on "
        f"1e6 x 8 in {elapsed:.2f}s (budget 5s), {res.n_rejected} rejections"
    )


def test_10_simulation_cli_is_bit_reproducible(tmp_path):
    scenario = (
        "M = 1000\nn = 2, 4\nr = 2, 2\npi0 = 0.9\npi_rn = 0.02\nrho = 0.5\n"
        "block_size = 100\nreplications = 6\nmaster_seed = 424242\n"
    )
    scenario_path = tmp_path / "panel.scenario"
    scenario_path.write_text(scenario, encoding="utf-8")

    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{name}.tsv"
        code = main(
            [
                "simulate",
                "--scenario",
                str(scenario_path),
                "--output",
                str(out),
                "--threads",
                threads,
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count(b"\n") == 1 + 2 * 8
    _report(
        "[check 10] PASS simulate output byte-identical across repeat runs "
        "and across --threads 1 vs 4"
    )
