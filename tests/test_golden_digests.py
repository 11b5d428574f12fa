"""Byte digests of the `test`, `curve` and `simulate` outputs on fixed generated inputs.

`golden_digests.json` holds the sha256 of the TSV and of the stdout of each
run below. The inputs are generated by `helpers` and by this module and
written to a temporary directory; no input file is committed. The table
pins the bytes across versions, so a kernel rewrite that moves one bit of a
printed value or one decision fails here. After a deliberate output change,
regenerate the table with

    PYTHONPATH=src:tests python tests/test_golden_digests.py

and record the change and its reason in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

import helpers
from adafilter.cli import main

TABLE = pathlib.Path(__file__).with_name("golden_digests.json")

COMBINERS = ("simes", "fisher", "bonferroni")
METHODS = [
    ("adafilter-bh", None),
    ("adafilter-bonferroni", None),
    *[(m, c) for m in ("direct-bh", "direct-bonferroni") for c in COMBINERS],
]


def _cases() -> dict[str, tuple[str, list[str]]]:
    """Case name -> (input name, CLI arguments without --input/--scenario/--output)."""
    cases = {}
    # n = 40 sorts columns of more than 32 rows, and Fisher at r = 2 adds up to
    # 39 logs, which np.sum adds pairwise over each gathered tail
    for source, tag, r_values, alphas in (
        ("golden", "", (2, 5, 12), ("0.05", "1")),
        ("golden40", " n=40", (2, 20, 40), ("0.05",)),
    ):
        for r in r_values:
            for alpha in alphas:
                for method, combiner in METHODS:
                    argv = ["test", "--method", method, "--r", str(r), "--alpha", alpha]
                    if combiner is not None:
                        argv += ["--combiner", combiner]
                    label = method if combiner is None else f"{method}/{combiner}"
                    cases[f"test {label}{tag} r={r} alpha={alpha}"] = (source, argv)
    for r in (2, 5, 12):
        cases[f"curve r={r}"] = ("golden", ["curve", "--r", str(r)])
        cases[f"curve r={r} alpha=0.05"] = ("golden", ["curve", "--r", str(r), "--alpha", "0.05"])
    cases["curve n=40 r=20"] = ("golden40", ["curve", "--r", "20"])
    # 7 rejections: the seventh rung, correctly rounded, is P_(7) (helpers.DIRECT_BH_RUNG_CSV)
    cases["test direct-bh/bonferroni rung tie"] = ("rung", [
        "test", "--method", "direct-bh", "--combiner", "bonferroni", "--r", "2", "--alpha", "0.05",
    ])
    # 1 rejection, with gamma0 from _grid_value_below (helpers.ADAPTIVE_BH_GRID_TIE_CSV)
    cases["test adafilter-bh grid tie"] = ("gridtie", [
        "test", "--method", "adafilter-bh", "--r", "2", "--alpha", "0.05",
    ])
    cases["simulate n=8,40"] = ("scenario", ["simulate"])
    return cases


# the truth sampler and the column sort at n = 8 and at n = 40
SCENARIO = f"""\
M = 10000
n = 8, 40
r = 2, 20
pi0 = 0.9
pi_rn = 0.05
rho = 0.5
block_size = 100
replications = 2
master_seed = {helpers.GOLDEN_SEED}
"""


CASES = _cases()
# R's write.csv layout must give the same bytes as the plain layout
R_LAYOUT_CASES = [name for name in CASES if " r=5 alpha=0.05" in name]


def write_inputs(directory: pathlib.Path) -> dict[str, pathlib.Path]:
    values = helpers.golden_values()
    files = {
        "golden": helpers.matrix_csv(values),
        "golden-r": helpers.matrix_csv(values, r_layout=True),
        "golden40": helpers.matrix_csv(helpers.golden_values(n=40, planted=())),
        "rung": helpers.DIRECT_BH_RUNG_CSV.encode("ascii"),
        "gridtie": helpers.ADAPTIVE_BH_GRID_TIE_CSV.encode("ascii"),
        "scenario": SCENARIO.encode("ascii"),
    }
    paths = {}
    for name, data in files.items():
        paths[name] = directory / f"{name}.csv"
        paths[name].write_bytes(data)
    return paths


def run_digests(input_path: pathlib.Path, argv: list[str], out_dir: pathlib.Path) -> dict:
    """Run main() in process; sha256 of the output table and of stdout."""
    out = out_dir / "out.tsv"
    stdout = io.StringIO()
    flag = "--scenario" if argv[0] == "simulate" else "--input"
    with contextlib.redirect_stdout(stdout):
        code = main([argv[0], flag, str(input_path), "--output", str(out), *argv[1:]])
    assert code == 0, argv
    return {
        "tsv": hashlib.sha256(out.read_bytes()).hexdigest(),
        "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_table_covers_every_case(table):
    assert sorted(table) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_digest(name, inputs, table, tmp_path):
    source, argv = CASES[name]
    assert run_digests(inputs[source], argv, tmp_path) == table[name]


@pytest.mark.parametrize("name", R_LAYOUT_CASES)
def test_r_layout_gives_the_same_bytes(name, inputs, table, tmp_path):
    _, argv = CASES[name]
    assert run_digests(inputs["golden-r"], argv, tmp_path) == table[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(pathlib.Path(tmp))
        digests = {
            name: run_digests(paths[source], argv, pathlib.Path(tmp))
            for name, (source, argv) in CASES.items()
        }
    TABLE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {TABLE}", file=sys.stderr)
