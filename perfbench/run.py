#!/usr/bin/env python3
"""adafilter benchmark: closed-loop timing of the program's public entry points.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs as a closed loop: one client in a single process, the
next operation starting only after the previous one has finished and been
checked. The loop runs whole cycles of the workload's operations until the
timed operations add up to ``--seconds`` (and at least MIN_OPS ran). No
run starts more adafilter worker processes than ``nproc``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the same loop runs untraced and then traced, and the last
line carries the per-layer metrics (see spans.LAYER_METRICS). Lines before
it give a human summary and a ``detail:`` JSON line stamped with the
commit, machine, versions, seed, input fingerprints and sample counts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import inputs
from spans import Recorder, Totals, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIO = ROOT / "scenarios" / "default_panel.scenario"
WORK_ROOT = ROOT / ".perfbench-work"

MIN_OPS = 3
MAX_FAILURES = 3
SETUP_REPEATS = 5
OP_TIMEOUT_S = 60
THREADS = min(2, os.cpu_count() or 1)


class CheckFailed(Exception):
    """An operation exited non-zero or its output failed a check."""


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_program():
    """Import adafilter from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import adafilter

    if Path(adafilter.__file__).resolve().parent != SRC / "adafilter":
        raise SystemExit(f"imported adafilter from {adafilter.__file__}, not from {SRC}")
    return adafilter


def run_cli(args: list[str], cwd: Path, sink: "TraceSink | None" = None) -> tuple[float, str]:
    """Wall time and stdout of one ``adafilter`` invocation in a fresh interpreter."""
    if sink is None:
        cmd = [sys.executable, "-m", "adafilter.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(sink.span_dir), *args]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, env=program_env(), cwd=cwd, capture_output=True, text=True, timeout=OP_TIMEOUT_S
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise CheckFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
    if sink is not None:
        sink.walls_s += wall
        sink.totals.add_dir(sink.span_dir)
    return wall, proc.stdout


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing adafilter.cli and exiting."""
    cmd = [sys.executable, "-c", "import adafilter.cli"]
    subprocess.run(cmd, env=program_env(), check=True)  # writes the bytecode caches
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=program_env(), check=True)
        times.append(time.perf_counter() - start)
    return times


def check_decision(method: str, result, stats) -> None:
    """Decision invariants of one procedure run against its own threshold.

    Adaptive procedures reject exactly the testable j with S_j <= gamma0.
    Direct procedures reject a prefix of the hypotheses ordered by PC
    p-value, and their adjusted values are monotone in that order.
    """
    testable = np.asarray(stats.testable)
    rejected = np.asarray(result.rejected)
    if not np.array_equal(np.asarray(result.untestable), ~testable):
        raise CheckFailed(f"{method}: untestable flags differ from n_j < r")
    if (rejected & ~testable).any():
        raise CheckFailed(f"{method}: an untestable hypothesis was rejected")
    if method.startswith("adafilter"):
        expected = testable & (stats.select_p <= result.gamma0)
        if not np.array_equal(rejected, expected):
            raise CheckFailed(
                f"{method}: #rejected {rejected.sum()} != #{{S_j <= gamma0}} {expected.sum()}"
            )
        return
    kept = testable & ~rejected
    if rejected.any() and kept.any() and result.adjusted[rejected].max() > result.adjusted[kept].min():
        raise CheckFailed(f"{method}: a rejected hypothesis ranks above a kept one")


class TraceSink:
    """Spans and side measurements of the traced operations of one run."""

    def __init__(self, span_dir: Path) -> None:
        self.span_dir = span_dir
        span_dir.mkdir()
        self.recorder = Recorder()
        self.totals = Totals()
        self.walls_s = 0.0
        self.emitted_mb = 0.0


class Workload:
    name = ""
    why = ""
    cycle: tuple = ()
    in_process = True

    def __init__(self, seed: int, work: Path, program) -> None:
        self.seed = seed
        self.work = work
        self.af = program
        self.csv_mb = 0.0
        self.ref_wall_s = 0.0

    def prepare(self) -> dict:
        """Generate the inputs and the reference results; describe the inputs."""
        raise NotImplementedError

    def run(self, op, sink: TraceSink | None) -> tuple[float, object]:
        """Wall time and output of one operation."""
        if sink is not None:
            sink.recorder.install()
        try:
            start = time.perf_counter()
            output = self.operation(op)
            wall = time.perf_counter() - start
        finally:
            if sink is not None:
                sink.recorder.uninstall()
                sink.totals.add(sink.recorder.take())
        return wall, output

    def operation(self, op):
        raise NotImplementedError

    def check(self, op, output) -> None:
        raise NotImplementedError

    def hypotheses(self, op) -> int:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_SELF if self.in_process else resource.RUSAGE_CHILDREN
        return resource.getrusage(who).ru_maxrss / 1024.0


class CliCsv(Workload):
    # Interpreter start, CSV ingest and TSV emit dominate; the threshold search
    # is under 2%. Changes to the file edges and to start-up show here and
    # nowhere else. 2e5 x 8 is the CSV size of the recorded ingest baseline.
    name = "cli-csv"
    why = ("CLI subprocesses on a 2e5 x 8 CSV: interpreter start, CSV ingest and TSV emit "
           "dominate, so file-edge and start-up changes show here and nowhere else")
    cycle = (
        ("test", "--method", "adafilter-bh"),
        ("test", "--method", "adafilter-bonferroni"),
        ("test", "--method", "direct-bh", "--combiner", "fisher"),
        ("test", "--method", "direct-bonferroni", "--combiner", "simes"),
        ("curve",),
    )
    in_process = False
    R = 3
    ALPHA = 0.05  # the CLI default

    def prepare(self) -> dict:
        af = self.af
        values = inputs.csv_matrix(self.seed)
        data = inputs.csv_bytes(values)
        self.csv = self.work / "input.csv"
        self.csv.write_bytes(data)
        self.csv_mb = len(data) / 1e6
        self.m = values.shape[1]
        matrix = af.validate_matrix(values)
        stats = af.compute_filter_select(matrix, self.R)
        self.expected = {}
        for op in self.cycle:
            if op[0] == "curve":
                self.expected[op] = af.curves(stats).gamma.shape[0]
                continue
            method = op[2]
            if method == "adafilter-bh":
                result = af.adafilter_bh(stats, self.ALPHA)
            elif method == "adafilter-bonferroni":
                result = af.adafilter_bonferroni(stats, self.ALPHA)
            else:
                adjustment = af.AdjustmentKind.BH if method == "direct-bh" else af.AdjustmentKind.BONFERRONI
                spec = af.DirectProcedureSpec(af.PCCombinerKind(op[4]), adjustment, self.ALPHA)
                result = af.direct_adjust(matrix, self.R, spec)
            check_decision(method, result, stats)
            self.expected[op] = result
        return {"csv": {**inputs.fingerprint(data), "shape": [self.m, values.shape[0]], "r": self.R}}

    def run(self, op, sink):
        out = self.work / "output.tsv"
        args = [*op, "--input", str(self.csv), "--output", str(out), "--r", str(self.R)]
        wall, stdout = run_cli(args, self.work, sink)
        tsv = out.read_bytes()
        if sink is not None:
            sink.emitted_mb += len(tsv) / 1e6
        return wall, (stdout, tsv)

    def check(self, op, output) -> None:
        stdout, tsv = output
        summary = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
        lines = tsv.decode("utf-8").split("\n")
        rows = lines[1:-1]
        expected = self.expected[op]
        if op[0] == "curve":
            if len(rows) != expected or summary.get("grid_points") != str(expected):
                raise CheckFailed(f"curve: {len(rows)} rows, library grid has {expected} points")
            return
        if len(rows) != self.m:
            raise CheckFailed(f"{op[2]}: {len(rows)} TSV rows for M = {self.m}")
        if lines[0].split("\t")[-2:] != ["rejected", "untestable"]:
            raise CheckFailed(f"{op[2]}: unexpected TSV header {lines[0]!r}")
        rejected = np.array([row.rsplit("\t", 2)[1] == "1" for row in rows])
        if not np.array_equal(rejected, expected.rejected):
            raise CheckFailed(f"{op[2]}: rejected set differs from the library result")
        if summary.get("gamma0") != format(expected.gamma0, ".12g"):
            raise CheckFailed(f"{op[2]}: gamma0 {summary.get('gamma0')} != library {expected.gamma0!r}")
        if summary.get("rejections") != str(int(rejected.sum())):
            raise CheckFailed(f"{op[2]}: stdout rejections differ from the TSV")

    def hypotheses(self, op) -> int:
        return self.m


class Panel(Workload):
    # Many small matrices: sampling, repeated column sorts, per-call overhead
    # and one process pool per scenario dominate, with no CSV ingest and
    # almost no emit. The procedures/baselines code runs as thousands of
    # small calls, not one big call.
    name = "panel"
    why = ("adafilter simulate on the 24-scenario default panel, 2 workers: thousands of small "
           "matrices, so sampling, column sorts, per-call overhead and process pools dominate")
    cycle = ("simulate",)
    in_process = False

    def prepare(self) -> dict:
        self.master_seed = inputs.panel_seed(self.seed)
        scenarios = self.af.load_scenarios(str(SCENARIO))
        self.reps = sum(sc.replications for sc in scenarios)
        self.hyps = sum(sc.M * sc.replications for sc in scenarios)
        self.ref_wall_s, self.reference = self._simulate(1, None)
        scenario_bytes = SCENARIO.read_bytes()
        return {
            "scenario_file": {**inputs.fingerprint(scenario_bytes), "scenarios": len(scenarios)},
            "master_seed": self.master_seed,
            "replications": self.reps,
            "threads": THREADS,
        }

    def _simulate(self, threads: int, sink) -> tuple[float, bytes]:
        out = self.work / f"panel-{threads}.tsv"
        args = ["simulate", "--scenario", str(SCENARIO), "--output", str(out),
                "--threads", str(threads), "--seed", str(self.master_seed)]
        wall, _ = run_cli(args, self.work, sink)
        return wall, out.read_bytes()

    def run(self, op, sink):
        wall, tsv = self._simulate(THREADS, sink)
        if sink is not None:
            sink.emitted_mb += len(tsv) / 1e6
        return wall, tsv

    def check(self, op, output) -> None:
        if output != self.reference:
            raise CheckFailed("simulate TSV differs from the single-worker reference run")

    def hypotheses(self, op) -> int:
        return self.hyps


class InMemLarge(Workload):
    # Vectorised kernels bound this workload, with no file, process or import
    # cost. It bypasses cli and simlab.
    name = "inmem-large"
    why = ("in-process library pipeline on a 1e6 x 8 matrix: vectorised kernels bound it, with no "
           "file, process or import cost; bypasses cli and simlab")
    cycle = ("pipeline",)
    R = 4
    ALPHA = 0.05
    COMBINERS = ("simes", "fisher", "bonferroni")

    def prepare(self) -> dict:
        self.values = inputs.inmem_matrix(self.seed)
        self.first = None
        data = self.values.tobytes()
        return {"matrix": {**inputs.fingerprint(data), "shape": list(self.values.shape[::-1]), "r": self.R}}

    def operation(self, op):
        af = self.af
        matrix = af.validate_matrix(self.values)
        stats = af.compute_filter_select(matrix, self.R)
        results = {
            "adafilter-bh": af.adafilter_bh(stats, self.ALPHA),
            "adafilter-bonferroni": af.adafilter_bonferroni(stats, self.ALPHA),
        }
        for comb in self.COMBINERS:
            spec = af.DirectProcedureSpec(af.PCCombinerKind(comb), af.AdjustmentKind.BH, self.ALPHA)
            results[f"direct-bh-{comb}"] = af.direct_adjust(matrix, self.R, spec)
        return stats, results, af.curves(stats, None, self.ALPHA)

    def check(self, op, output) -> None:
        stats, results, table = output
        for method, result in results.items():
            check_decision(method, result, stats)
        g = table.gamma
        if not (g.shape == table.v_hat.shape == table.fdp_hat.shape) or (np.diff(g) < 0).any():
            raise CheckFailed("curves: grid not nondecreasing or table columns differ in length")
        summary = [(m, r.gamma0, r.n_rejected) for m, r in results.items()] + [g.shape[0]]
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            raise CheckFailed("pipeline results differ between operations on the same input")

    def hypotheses(self, op) -> int:
        return self.values.shape[1]


class Adjusted(Workload):
    # The only caller of the quadratic adjusted-value path of adaptive BH.
    # Every other workload bypasses it, so work on adjusted values shows here
    # and must show nothing elsewhere.
    name = "adjusted"
    why = ("adafilter_bh with compute_adjusted=True on M = 2,000: the only caller of the quadratic "
           "adjusted-value path, which every other workload bypasses")
    cycle = tuple(range(inputs.ADJUSTED_MATRICES))
    R = 2
    ALPHA = 0.1

    def prepare(self) -> dict:
        af = self.af
        matrices = inputs.adjusted_matrices(self.seed)
        self.stats = [af.compute_filter_select(af.validate_matrix(v), self.R) for v in matrices]
        self.rejected_at_one = [np.asarray(af.adafilter_bh(st, 1.0).rejected) for st in self.stats]
        data = b"".join(v.tobytes() for v in matrices)
        return {"matrices": {**inputs.fingerprint(data), "count": len(matrices),
                             "shape": list(matrices[0].shape[::-1]), "r": self.R,
                             "m_t": [st.n_testable for st in self.stats],
                             "rejected_at_alpha_1": [int(r.sum()) for r in self.rejected_at_one]}}

    def expected_bh_threshold_calls(self) -> float:
        """Threshold searches per operation of the bisection: 1 + M_t + 60 x R(alpha = 1)."""
        calls = [1 + st.n_testable + 60 * int(r.sum()) for st, r in zip(self.stats, self.rejected_at_one)]
        return sum(calls) / len(calls)

    def operation(self, op):
        return self.af.adafilter_bh(self.stats[op], self.ALPHA, compute_adjusted=True)

    def check(self, op, result) -> None:
        """Every adjusted value below 1 rejects its hypothesis when used as alpha,
        and the value is 1 wherever alpha = 1 does not reject."""
        stats = self.stats[op]
        check_decision("adafilter-bh", result, stats)
        adj = np.asarray(result.adjusted)
        testable = np.asarray(stats.testable)
        if not np.isnan(adj[~testable]).all() or not (adj[testable] <= 1.0).all():
            raise CheckFailed("adjusted: values must be NaN where untestable and <= 1 elsewhere")
        if not (adj[testable & ~self.rejected_at_one[op]] == 1.0).all():
            raise CheckFailed("adjusted: a hypothesis not rejected at alpha = 1 has a value below 1")
        below = testable & (adj < 1.0)
        for level in np.unique(adj[below]):
            rejected = self.af.adafilter_bh(stats, float(level)).rejected
            if not rejected[below & (adj == level)].all():
                raise CheckFailed(f"adjusted: alpha = {level!r} does not reject its hypothesis")

    def hypotheses(self, op) -> int:
        return self.stats[op].n_hypotheses


WORKLOADS = {w.name: w for w in (CliCsv, Panel, InMemLarge, Adjusted)}

# name -> unit of the end-to-end metrics reported with --trace 0
E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "hyp_per_s": "hyp/s", "peak_rss_mb": "MB"}


class Loop:
    def __init__(self) -> None:
        self.walls: list[float] = []
        self.ops: list[str] = []
        self.hyps = 0
        self.attempted = 0
        self.failed = 0


def closed_loop(workload: Workload, seconds: float, sink: TraceSink | None = None) -> Loop:
    """Whole cycles of operations until the timed ones add up to ``seconds``."""
    loop = Loop()
    while (sum(loop.walls) < seconds or len(loop.walls) < MIN_OPS) and loop.failed < MAX_FAILURES:
        for op in workload.cycle:
            loop.attempted += 1
            try:
                wall, output = workload.run(op, sink)
                loop.walls.append(wall)
                loop.ops.append(" ".join(map(str, op)) if isinstance(op, tuple) else str(op))
                loop.hyps += workload.hypotheses(op)
                workload.check(op, output)
            except Exception:  # a failed operation is counted and the loop goes on
                loop.failed += 1
                print(f"{workload.name}: operation {op} failed", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
    return loop


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "adafilter").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "adafilter" / "cli.py").is_file() or not SCENARIO.is_file():
        print(f"error: no adafilter sources under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    program = import_program()
    import scipy

    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        work = Path(tmp)
        setup_times = measure_setup()
        workload = WORKLOADS[args.workload](args.seed, work, program)
        input_info = workload.prepare()
        loop = closed_loop(workload, args.seconds)
        traced = None
        if args.trace:
            sink = TraceSink(work / "spans")
            traced = closed_loop(workload, args.seconds, sink)

    # with no completed operation the run reports correct = false and zeros
    op_p50 = statistics.median(loop.walls) if loop.walls else 0.0
    hyp_per_s = loop.hyps / sum(loop.walls) if loop.walls else 0.0
    attempted = loop.attempted + (traced.attempted if traced else 0)
    failed = loop.failed + (traced.failed if traced else 0)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": op_p50,
        "hyp_per_s": hyp_per_s,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    extra = {"fail_frac": failed / attempted}
    if isinstance(workload, Panel):
        extra["reps_per_s"] = hyp_per_s * workload.reps / workload.hyps
        extra["single_worker_s"] = workload.ref_wall_s

    print(f"{workload.name} seed={args.seed}: {loop.attempted} operations, closed loop, 1 client")
    for name, value in e2e.items():
        n = len(setup_times) if name == "setup_s" else len(loop.walls)
        print(f"  {name:<12} {value:.6g} {E2E_UNITS[name]}  (n={n})")
    if "reps_per_s" in extra:
        print(f"  {'reps_per_s':<12} {extra['reps_per_s']:.6g} replications/s")
    print(f"  {'fail_frac':<12} {extra['fail_frac']:.6g}  ({failed}/{attempted})")

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "inputs": input_info,
        "samples": {"setup": len(setup_times), "ops": len(loop.walls),
                    "traced_ops": len(traced.walls) if traced else 0},
        "setup_times_s": setup_times,
        "op_times_s": loop.walls,
        "ops": loop.ops,
        "extra": extra,
    }

    if traced is None:
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in e2e.items()}
    else:
        ops = max(1, len(traced.walls))
        traced_p50 = statistics.median(traced.walls) if traced.walls else 0.0
        parallel_eff = workload.ref_wall_s / (THREADS * op_p50) if workload.ref_wall_s and op_p50 else 0.0
        overhead_frac = traced_p50 / op_p50 - 1.0 if op_p50 and traced_p50 else 0.0
        metrics = layer_metrics(
            sink.totals, ops, sink.walls_s, workload.csv_mb, sink.emitted_mb, parallel_eff, overhead_frac
        )
        detail["traced_op_times_s"] = traced.walls
        detail["span_calls"] = sink.totals.calls
        for name, metric in metrics.items():
            print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
        if isinstance(workload, Adjusted):
            print(f"  bh_threshold calls per operation: {metrics['procedures.bh_threshold_calls']['value']:.6g}"
                  f"; mean of 1 + M_t + 60 x R(alpha = 1): {workload.expected_bh_threshold_calls():.6g}")

    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
