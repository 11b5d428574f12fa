"""The public names of the package earn their place outside the tests.

A name in adafilter.__all__ that only tests call is test scaffolding
shipped as API: it belongs in tests/helpers.py, or nowhere. This check
scans the library modules, the experiment scripts and the benchmark for a
use of each exported name.
"""

import ast
import importlib.util
import pathlib

import adafilter as af

ROOT = pathlib.Path(__file__).resolve().parent.parent

# exported names with no use outside the tests, each with its reason
UNUSED_BUT_PUBLIC = {
    "pc_pvalue": "the README documents it as the entry point for one hypothesis",
}


def used_names() -> set[str]:
    """Every Name, Attribute and imported name in src/adafilter (bar __init__.py),
    scripts/ and perfbench/, plus the function names perfbench/spans.py traces."""
    files = [p for p in (ROOT / "src" / "adafilter").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return names | {attr for _, attr, _, _ in spans.TARGETS}


def test_every_public_name_is_used_outside_the_tests():
    used = used_names()
    unused = {name for name in af.__all__ if name not in used}
    assert unused == set(UNUSED_BUT_PUBLIC)
