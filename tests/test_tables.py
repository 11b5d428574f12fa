"""The file edge: one module reads and writes every file format, by one rule."""

import ast
import dataclasses
import io
import pathlib

import numpy as np

import adafilter as af
from adafilter.tables import write_columns

FILE_CALLS = {"open", "os.open", "os.replace", "csv.reader", "np.loadtxt"}
EDGE_NAMES = {"open_input", "write_columns", "ParseError"}


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    return None


def test_only_tables_opens_files_or_spells_the_missing_token():
    found = []
    for path in sorted(pathlib.Path(af.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _dotted(node.func) in FILE_CALLS:
                found.append((path.name, node.lineno, _dotted(node.func)))
            elif isinstance(node, ast.Constant) and node.value == "NA":
                found.append((path.name, node.lineno, "NA"))
    assert [f for f in found if f[0] != "tables.py"] == []
    # the scan sees every call it looks for, and the token is defined once
    assert {what for _, _, what in found} == FILE_CALLS | {"NA"}
    assert [what for _, _, what in found].count("NA") == 1


def test_only_tables_imports_the_edge_helpers_or_parse_errors():
    # errors.py defines ParseError and __init__.py re-exports it
    allowed = {"tables.py": EDGE_NAMES, "errors.py": {"ParseError"}, "__init__.py": {"ParseError"}}
    found = []
    for path in sorted(pathlib.Path(af.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):  # module.name after a plain import
                names = {node.attr}
            else:
                continue
            found += [(path.name, node.lineno, name) for name in sorted(names & EDGE_NAMES)]
    assert [f for f in found if f[2] not in allowed.get(f[0], set())] == []
    # the scan sees the imports it looks for
    assert {(name, what) for name, _, what in found} == {
        ("tables.py", "ParseError"), ("__init__.py", "ParseError")
    }


def test_metrics_scenario_columns_are_the_keys_a_scenario_file_must_set(tmp_path):
    full = {
        "M": "100", "n": "2", "r": "2", "pi0": "0.9", "pi_rn": "0.05", "rho": "0",
        "block_size": "10", "replications": "3", "master_seed": "5",
        "power_targets": "0.1, 0.2, 0.3, 0.4", "calibration_alpha": "0.01",
    }
    assert list(full) == [f.name for f in dataclasses.fields(af.SimScenario)]
    path = tmp_path / "one.scenario"
    required = []
    for key in full:
        path.write_text("".join(f"{k} = {v}\n" for k, v in full.items() if k != key))
        try:
            af.load_scenarios(str(path))
        except af.ParseError as exc:
            assert str(exc) == f"missing scenario keys: {key}"
            required.append(key)
    path.write_text("".join(f"{k} = {v}\n" for k, v in full.items()))
    (sc,) = af.load_scenarios(str(path))
    pm = af.ProcedureMetrics("adafilter-bh", 0.2, 0.5, 0.1, 0.2, 0.0, 1.0, 0.25, 3)
    buf = io.StringIO()
    af.write_metrics_tsv([af.MetricsReport(scenario=sc, metrics=(pm,))], buf)
    header = buf.getvalue().split("\n")[0].split("\t")
    assert header[: header.index("procedure")] == required


def test_write_columns_formats_each_column_by_its_dtype():
    buf = io.StringIO()
    write_columns(buf, {
        "id": ("g1", "g2", "g3"),
        "p": np.array([np.nan, -0.0, 1.0]),
        "flag": np.array([True, False, True]),
        "count": np.array([5, 2**63 - 1, -3]),
    })
    assert buf.getvalue() == (
        "id\tp\tflag\tcount\n"
        "g1\tNA\t1\t5\n"
        "g2\t-0\t0\t9223372036854775807\n"
        "g3\t1\t1\t-3\n"
    )


def test_metrics_seeds_print_exactly():
    def report(seed: int) -> af.MetricsReport:
        sc = af.SimScenario(M=100, n=2, r=2, pi0=0.9, pi_rn=0.05, rho=0.0, block_size=10,
                            replications=3, master_seed=seed)
        pm = af.ProcedureMetrics("adafilter-bh", 0.2, 0.5, float("nan"), 1 / 3, 0.0, 1.0, 0.25, 3)
        return af.MetricsReport(scenario=sc, metrics=(pm,))

    buf = io.StringIO()
    af.write_metrics_tsv([report(5), report(2**64 - 1)], buf)
    assert buf.getvalue() == (
        "M\tn\tr\tpi0\tpi_rn\trho\tblock_size\treplications\tmaster_seed\tprocedure\talpha\t"
        "pfer_mean\tpfer_ci95\tfdr_mean\tfdr_ci95\trecall_mean\trecall_ci95\n"
        "100\t2\t2\t0.9\t0.05\t0\t10\t3\t5\tadafilter-bh\t0.2\t0.5\tNA\t0.333333333333\t0\t1\t0.25\n"
        "100\t2\t2\t0.9\t0.05\t0\t10\t3\t18446744073709551615\tadafilter-bh\t0.2\t0.5\tNA\t"
        "0.333333333333\t0\t1\t0.25\n"
    )
