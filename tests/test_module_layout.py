"""procedures.py holds the four procedures; baselines.py only spells them for the benchmark.

One module owns the breakpoint table, every threshold rule and the
dispatcher. baselines.py keeps the benchmark's constructor and re-exports the
names the benchmark traces by module path, so no library module needs it.
"""

import ast
import pathlib

from adafilter import baselines, procedures

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "adafilter"


def parsed() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def named(tree: ast.Module) -> set[str]:
    """Every Name, Attribute, imported name and definition in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def imports_baselines(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("baselines", "adafilter.baselines"):
                return True
            if module in ("", "adafilter") and any(a.name == "baselines" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name == "adafilter.baselines" for a in node.names):
                return True
    return False


def test_only_the_package_init_imports_baselines():
    importers = {name for name, tree in parsed().items() if imports_baselines(tree)}
    assert importers == {"__init__.py"}


def test_breakpoint_table_and_scan_are_named_only_in_procedures():
    for private in ("_breakpoints", "_bh_scan"):
        holders = {name for name, tree in parsed().items() if private in named(tree)}
        assert holders == {"procedures.py"}, private


def test_baselines_defines_only_the_benchmark_spelling():
    tree = parsed()["baselines.py"]
    defined = {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    assert defined == {"AdjustmentKind", "DirectProcedureSpec"}


def test_reexports_are_the_procedures_objects():
    # the traced run wraps a function in every namespace holding that object,
    # so a span on baselines.direct_adjust also covers run_procedure's calls
    for name in ("run_procedure", "direct_adjust", "bh_stepup"):
        assert getattr(baselines, name) is getattr(procedures, name), name
