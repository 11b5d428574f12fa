"""In-memory span recorder for the traced benchmark run.

Spans are taken around the calls into each adafilter layer by wrapping
module-level functions from the outside; the program itself is not edited.
Modules import some of these functions by name (``simlab``, ``cli`` and
``baselines`` hold their own references to ``compute_filter_select``,
``_column_sorted``, ``_pc_pvalues_from_sorted`` and ``bh_stepup``), so a
wrapper replaces the original in every adafilter namespace that holds it.

Spans stay in memory and are written out when the traced work ends. A
layer's self time is its span minus the spans of its direct children.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


def _combine_label(*args, **kwargs) -> str:
    kind = kwargs["kind"] if "kind" in kwargs else args[3]
    return f"pc_core.combine.{kind.value}"


def _testable_count(args, kwargs, result) -> int:
    return int(result.untestable.size - result.untestable.sum())


# (defining module, function, span label or label function, value taken after the call)
TARGETS = (
    ("adafilter.cli", "ingest_csv", "cli.ingest_csv", None),
    ("adafilter.cli", "cmd_test", "cli.cmd_test", None),
    ("adafilter.cli", "cmd_curve", "cli.cmd_curve", None),
    ("adafilter.pc_core", "validate_matrix", "pc_core.validate_matrix", None),
    ("adafilter.pc_core", "_column_sorted", "pc_core.column_sort", None),
    ("adafilter.pc_core", "_pc_pvalues_from_sorted", _combine_label, None),
    ("adafilter.procedures", "compute_filter_select", "procedures.compute_filter_select", None),
    ("adafilter.procedures", "adafilter_bh", "procedures.adafilter_bh", _testable_count),
    ("adafilter.procedures", "adafilter_bonferroni", "procedures.adafilter_bonferroni", None),
    ("adafilter.procedures", "curves", "procedures.curves", None),
    ("adafilter.procedures", "_bh_threshold", "procedures.bh_threshold", None),
    ("adafilter.baselines", "direct_adjust", "baselines.direct_adjust", None),
    ("adafilter.baselines", "bh_stepup", "baselines.bh_stepup", None),
    ("adafilter.simlab", "sample_truth", "simlab.sample_truth", None),
    ("adafilter.simlab", "sample_pvalues", "simlab.sample_pvalues", None),
    ("adafilter.simlab", "_run_chunk", "simlab.run_chunk", None),
)


class Recorder:
    """Collects spans ``[name, start, end, parent index, value]`` of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._flush_dir: Path | None = None
        self._flushes = 0

    def wrap(self, fn, label, value=None):
        """``fn`` recording one span per call, named ``label`` or ``label(*args)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if value is not None:
                span[4] = value(args, kwargs, result)
            if not self._stack and self._flush_dir is not None:
                self.flush(self._flush_dir)
            return result

        return traced

    def install(self) -> None:
        """Replace every TARGETS function in every adafilter namespace holding it.

        A target the program no longer defines is skipped; its metrics read 0.
        """
        import adafilter.cli  # noqa: F401  (imports every layer)

        modules = [m for k, m in sys.modules.items() if k == "adafilter" or k.startswith("adafilter.")]
        for modname, attr, label, value in TARGETS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, label, value)
            for module in modules:
                for key, held in list(vars(module).items()):
                    if held is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def start_worker(self, flush_dir: Path) -> None:
        """Forget the parent's spans in a forked worker; write each root span as it ends."""
        self.spans = []
        self._stack = []
        self._flush_dir = flush_dir

    def flush(self, directory: Path) -> None:
        self._flushes += 1
        path = Path(directory) / f"spans-{os.getpid()}-{self._flushes}.json"
        path.write_text(json.dumps(self.take()))

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


class Totals:
    """Per-name call counts, inclusive time, self time and value sums over many spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.value: dict[str, float] = {}

    def add(self, spans: list[list]) -> None:
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _, value), inner in zip(spans, child_s):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + (end - start)
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - inner)
            if value is not None:
                self.value[name] = self.value.get(name, 0.0) + value

    def add_dir(self, directory: Path) -> None:
        for path in sorted(Path(directory).glob("spans-*.json")):
            self.add(json.loads(path.read_text()))
            path.unlink()


# Per-layer metrics of the traced run. Each names the end-to-end metric and
# workload it should move; times are self time per operation (mean over the
# traced operations), counts are per operation.
LAYER_METRICS = (
    ("cli.startup_s", "s/op", "lower",
     "setup_s on every workload; op_p50_s on cli-csv and panel"),
    ("cli.ingest_csv_s", "s/op", "lower", "hyp_per_s on cli-csv only"),
    ("cli.ingest_csv_mb_per_s", "MB/s", "higher", "hyp_per_s on cli-csv only"),
    ("cli.emit_s", "s/op", "lower", "hyp_per_s on cli-csv"),
    ("cli.emit_mb_per_s", "MB/s", "higher", "hyp_per_s on cli-csv"),
    ("pc_core.validate_matrix_s", "s/op", "lower", "op_p50_s on cli-csv and inmem-large"),
    ("pc_core.column_sort_calls", "calls/op", "lower",
     "op_p50_s on cli-csv (direct operations) and inmem-large; hyp_per_s on panel"),
    ("pc_core.column_sort_s", "s/op", "lower",
     "op_p50_s on cli-csv (direct operations) and inmem-large; hyp_per_s on panel"),
    ("pc_core.combine_s.simes", "s/op", "lower", "op_p50_s on inmem-large and panel"),
    ("pc_core.combine_s.fisher", "s/op", "lower", "op_p50_s on inmem-large and panel"),
    ("pc_core.combine_s.bonferroni", "s/op", "lower", "op_p50_s on inmem-large and panel"),
    ("procedures.compute_filter_select_s", "s/op", "lower",
     "op_p50_s on every workload except adjusted"),
    ("procedures.adafilter_bh_s", "s/op", "lower",
     "op_p50_s on inmem-large and panel; predicted no visible change on cli-csv"),
    ("procedures.adafilter_bonferroni_s", "s/op", "lower",
     "op_p50_s on inmem-large and panel; predicted no visible change on cli-csv"),
    ("procedures.curves_s", "s/op", "lower",
     "op_p50_s on cli-csv (the curve operation) and inmem-large"),
    ("procedures.bh_threshold_calls", "calls/op", "lower", "hyp_per_s on adjusted"),
    ("procedures.bh_threshold_s", "s/op", "lower", "hyp_per_s on adjusted"),
    ("procedures.bh_threshold_calls_per_hyp", "calls/hyp", "lower",
     "hyp_per_s on adjusted; base is M_t summed over adafilter_bh calls"),
    ("baselines.direct_adjust_s", "s/op", "lower", "op_p50_s on inmem-large and cli-csv"),
    ("baselines.bh_stepup_s", "s/op", "lower", "hyp_per_s on panel"),
    ("simlab.sample_truth_s", "s/op", "lower", "hyp_per_s on panel (reps_per_s)"),
    ("simlab.sample_pvalues_s", "s/op", "lower", "hyp_per_s on panel (reps_per_s)"),
    ("simlab.decide_s", "s/op", "lower", "op_p50_s on panel"),
    ("simlab.parallel_eff", "ratio", "higher", "hyp_per_s on panel (reps_per_s)"),
    ("trace.overhead_frac", "ratio", "lower", "none: cost of tracing, per workload"),
)


def layer_metrics(totals: Totals, ops: int, walls_s: float, csv_mb: float,
                  emitted_mb: float, parallel_eff: float, overhead_frac: float) -> dict:
    """Per-layer metric values from the traced operations.

    ``walls_s`` is the summed wall time of the traced operations when they
    ran as subprocesses (0 in process), ``csv_mb`` the size of the CSV each
    ingest reads and ``emitted_mb`` the summed size of the files written.
    A layer a workload bypasses reads 0.
    """

    def per_op(name: str) -> float:
        return totals.self_s.get(name, 0.0) / ops

    def rate(mb: float, seconds: float) -> float:
        return mb / seconds if seconds > 0 else 0.0

    ingest_s = totals.self_s.get("cli.ingest_csv", 0.0)
    emit_s = totals.self_s.get("cli.cmd_test", 0.0) + totals.self_s.get("cli.cmd_curve", 0.0)
    main_s = totals.total_s.get("cli.main", 0.0)
    bh_calls = totals.calls.get("procedures.bh_threshold", 0)
    bh_base = totals.value.get("procedures.adafilter_bh", 0.0)
    values = {
        "cli.startup_s": (walls_s - main_s) / ops if main_s > 0 else 0.0,
        "cli.ingest_csv_s": ingest_s / ops,
        "cli.ingest_csv_mb_per_s": rate(totals.calls.get("cli.ingest_csv", 0) * csv_mb, ingest_s),
        "cli.emit_s": emit_s / ops,
        "cli.emit_mb_per_s": rate(emitted_mb, emit_s),
        "pc_core.validate_matrix_s": per_op("pc_core.validate_matrix"),
        "pc_core.column_sort_calls": totals.calls.get("pc_core.column_sort", 0) / ops,
        "pc_core.column_sort_s": per_op("pc_core.column_sort"),
        "pc_core.combine_s.simes": per_op("pc_core.combine.simes"),
        "pc_core.combine_s.fisher": per_op("pc_core.combine.fisher"),
        "pc_core.combine_s.bonferroni": per_op("pc_core.combine.bonferroni"),
        "procedures.compute_filter_select_s": per_op("procedures.compute_filter_select"),
        "procedures.adafilter_bh_s": per_op("procedures.adafilter_bh"),
        "procedures.adafilter_bonferroni_s": per_op("procedures.adafilter_bonferroni"),
        "procedures.curves_s": per_op("procedures.curves"),
        "procedures.bh_threshold_calls": bh_calls / ops,
        "procedures.bh_threshold_s": per_op("procedures.bh_threshold"),
        "procedures.bh_threshold_calls_per_hyp": bh_calls / bh_base if bh_base else 0.0,
        "baselines.direct_adjust_s": per_op("baselines.direct_adjust"),
        "baselines.bh_stepup_s": per_op("baselines.bh_stepup"),
        "simlab.sample_truth_s": per_op("simlab.sample_truth"),
        "simlab.sample_pvalues_s": per_op("simlab.sample_pvalues"),
        "simlab.decide_s": per_op("simlab.run_chunk"),
        "simlab.parallel_eff": parallel_eff,
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in LAYER_METRICS}
