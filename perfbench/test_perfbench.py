"""Tests of the benchmark's own code.

Run from the root of a source checkout: ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


def test_same_seed_gives_byte_identical_inputs():
    for make in (inputs.csv_matrix, inputs.inmem_matrix, inputs.adjusted_matrices):
        assert np.array(make(7)).tobytes() == np.array(make(7)).tobytes()
        assert np.array(make(7)).tobytes() != np.array(make(8)).tobytes()
    assert inputs.csv_bytes(inputs.csv_matrix(7)) == inputs.csv_bytes(inputs.csv_matrix(7))
    assert inputs.panel_seed(7) == inputs.panel_seed(7) != inputs.panel_seed(8)


def test_study_model_has_missing_entries_ties_and_no_empty_column():
    values = inputs.study_matrix(5, (0,), m=20_000, n=8, r=3, signal_frac=0.05)
    missing = np.isnan(values)
    assert abs(missing.mean() - inputs.MISSING_FRAC) < 0.005
    assert not missing.all(axis=0).any()
    rounded = [i for i in range(8) if np.array_equal(np.round(values[i], 3), values[i], equal_nan=True)]
    assert len(rounded) == 2


def test_csv_reads_back_as_the_generated_matrix(tmp_path):
    run.import_program()
    from adafilter.cli import ingest_csv

    values = inputs.study_matrix(3, (9,), m=500, n=8, r=3, signal_frac=0.05)
    path = tmp_path / "m.csv"
    path.write_bytes(inputs.csv_bytes(values))
    np.testing.assert_array_equal(ingest_csv(str(path)).values, values)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better} for name, unit, better, _ in spans.LAYER_METRICS
    ]


def test_self_time_is_span_minus_direct_children():
    totals = spans.Totals()
    totals.add([
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, 7],
    ])
    assert totals.self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert totals.total_s == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert totals.calls == {"a": 1, "b": 2, "c": 1}
    assert totals.value == {"b": 7}


def test_wrappers_replace_names_imported_into_other_modules():
    af = run.import_program()
    modules = [m for k, m in sys.modules.items() if k.startswith("adafilter")]
    originals = {attr: getattr(sys.modules[mod], attr) for mod, attr, _, _ in spans.TARGETS}
    recorder = spans.Recorder()
    recorder.install()
    try:
        for module in modules:
            for attr, original in originals.items():
                assert all(held is not original for held in vars(module).values()), (module, attr)
        scenario = af.SimScenario(M=100, n=4, r=2, pi0=0.9, pi_rn=0.05, rho=0.0,
                                  block_size=10, replications=3, master_seed=1)
        af.run_panel(scenario, af.default_panel_procedures(), threads=1)
    finally:
        recorder.uninstall()
    for mod, attr, _, _ in spans.TARGETS:
        assert getattr(sys.modules[mod], attr) is originals[attr]
    spans_taken = recorder.take()
    chunk = [i for i, s in enumerate(spans_taken) if s[0] == "simlab.run_chunk"]
    assert len(chunk) == 1
    # calls made through simlab's own references are recorded as its children
    assert {s[0] for s in spans_taken if s[3] == chunk[0]} >= {
        "simlab.sample_truth", "simlab.sample_pvalues", "procedures.adafilter_bh",
    }


def test_traced_run_prints_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adjusted", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _, _ in spans.LAYER_METRICS]
    assert result["metrics"]["procedures.bh_threshold_calls"]["value"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
