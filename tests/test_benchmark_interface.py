"""The program interface the benchmark in perfbench/ relies on.

The traced benchmark run wraps the functions named in perfbench/spans.py
and silently skips a name the program no longer defines, so a rename would
leave its per-layer metric at 0 without failing anything. These checks fail
instead.
"""

import importlib
import importlib.util
import inspect
import pathlib

import adafilter as af

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for modname, attr, _, _ in load_spans().TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)


def test_combine_label_finds_the_combiner():
    from adafilter.pc_core import _pc_pvalues_from_sorted

    # the span label reads the combiner as the 4th positional argument
    assert list(inspect.signature(_pc_pvalues_from_sorted).parameters)[3] == "kind"
    label = load_spans()._combine_label(None, None, 2, af.PCCombinerKind.FISHER)
    assert label == "pc_core.combine.fisher"


def test_library_calls_of_the_benchmark():
    matrix = af.validate_matrix([[0.01, 0.2, 0.5], [0.02, 0.9, float("nan")], [0.04, 0.3, 0.6]])
    spec = af.DirectProcedureSpec(af.PCCombinerKind("fisher"), af.AdjustmentKind.BH, 0.05)
    adjusted = af.direct_adjust(matrix, 2, spec).adjusted
    assert adjusted.shape == (3,)
    scenario = af.SimScenario(M=100, n=4, r=2, pi0=0.9, pi_rn=0.05, rho=0.0,
                              block_size=10, replications=2, master_seed=1)
    procs = af.default_panel_procedures()
    report = af.run_panel(scenario, procs, threads=1)
    assert [pm.procedure for pm in report.metrics] == [p.name for p in procs]
