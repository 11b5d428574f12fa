"""Bounded fuzz test of the command line.

Random CSV bytes (for `test` and `curve`) and random scenario text (for
`simulate`) must end in exit 0 with the output written, or in exit 1 with
exactly one `error:` line on stderr and no output file; never in an
exception escaping `main`. Scenarios stay small (M * n * replications
<= 1500) and run with one thread, so no worker process starts. On the same
CSV bytes, the bulk CSV reader must agree with the per-cell one.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adafilter.cli import main
from adafilter.tables import _ingest_per_cell, ingest_csv
from helpers import read_outcome

FUZZ = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def mostly(draw, common, rare, odds=10):
    """Draws from `rare` about one time in `odds` and from `common` otherwise."""
    return draw(rare if draw(st.sampled_from(range(odds))) == odds - 1 else common)


def rarely(odds=10):
    """True about one time in `odds`."""
    return st.sampled_from(range(odds)).map(lambda k: k == odds - 1)


def pick(*values):
    return st.sampled_from(values)


# bytes spliced into otherwise well-formed files: separators, comment and
# quote characters, and bytes that are never valid UTF-8 where they land.
# No digit can appear, so a splice never enlarges a scenario's numbers.
SPLICE = st.lists(
    pick(b"\xff", b"\x80", b"\xc3", b"\x00", b"#", b"=", b",", b'"', b"\n", b"\r", b" ", b"\t",
         b"x", b"-", b".", b"e"),
    min_size=1,
    max_size=3,
).map(b"".join)

CELLS = pick("NA", "0", "1", "0.5", "0.05", "0.01", "0.001", "1e-08", "0.2", "0.9", "0.04",
             "0.333333333333", "5e-324", "-0", "1e-320")
BAD_CELLS = pick("nan", "inf", "", "abc", " 0.2", "-0.1", "1.5", "1.0000001")


@st.composite
def spliced(draw, data: bytes) -> bytes:
    if draw(rarely(3)):
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + draw(SPLICE) + data[pos:]
    return data


def quoted(cell: str) -> str:
    return f'"{cell}"'


@st.composite
def csv_case(draw, r_layout=False) -> tuple[bytes, int]:
    """CSV bytes and a replicability level, mostly one the file can support.

    With r_layout, half the files quote the header and the ids as R's
    write.csv does, and now and then a value cell or half an id as well.
    """
    n = draw(mostly(st.integers(2, 4), st.just(1)))
    r = draw(mostly(st.integers(2, max(n, 2)), st.integers(-1, 5)))
    if draw(rarely()):
        return draw(st.binary(max_size=40)), r
    wrap = quoted if r_layout and draw(st.booleans()) else str
    lines = [",".join(map(wrap, ["" if wrap is quoted else "id", *(f"s{i}" for i in range(n))]))]
    for j in range(draw(mostly(st.integers(1, 8), st.just(0)))):
        cells = draw(st.lists(CELLS, min_size=n, max_size=n))
        if draw(rarely(20)):
            cells[draw(st.integers(0, n - 1))] = draw(BAD_CELLS)
        if draw(rarely(30)):
            cells = cells[1:] if draw(st.booleans()) else cells + ["0.5"]
        ident = wrap(draw(mostly(st.just(f"g{j}"), pick("g0", ""), odds=30)))
        if r_layout and draw(rarely(15)):
            cells[0] = quoted(cells[0])
        if r_layout and draw(rarely(15)):
            ident = draw(pick('"', '""""', '"g",', 'g"')) + ident
        lines.append(",".join([ident, *cells]))
    lead = "\n" if draw(rarely()) else ""
    end = draw(pick("\n", "\n", "\r\n"))
    return draw(spliced((lead + end.join(lines) + draw(pick(end, ""))).encode())), r


@st.composite
def scenario_bytes(draw) -> bytes:
    n_r = st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n)))
    pairs = draw(st.lists(n_r, min_size=1, max_size=2))
    values = {
        "M": draw(pick("10", "60", "100")),
        "n": ", ".join(str(n) for n, _ in pairs),
        "r": ", ".join(str(r) for _, r in pairs),
        "pi0": draw(mostly(pick("0.5", "0.9", "1", "0.8, 0.95"), pick("1.5", "-0.1"))),
        "pi_rn": draw(mostly(pick("0", "0.02", "0.05"), pick("0.6", "-1"))),
        "rho": draw(mostly(pick("0", "0.5", "0.9"), pick("1", "x"))),
        "block_size": draw(mostly(pick("1", "5", "10", "5, 10"), pick("7", "0"))),
        "replications": draw(mostly(pick("1", "2", "3"), pick("0", "-1"))),
        "master_seed": draw(mostly(pick("0", "7", str(2**64 - 1)), pick("-1", str(2**64)))),
    }
    if draw(rarely()):
        values["r"] = draw(pick("0", "1", "6", "2, 2, 2"))
    if draw(st.booleans()):
        values["power_targets"] = draw(mostly(pick("0.02, 0.2, 0.5, 0.95", "0.1, 0.3, 0.6, 0.9"),
                                              pick("0.5", "0.1, x, 0.2, 0.3", "0, 0.2, 0.5, 0.9")))
    if draw(st.booleans()):
        values["calibration_alpha"] = draw(mostly(pick("0.01", "0.001"), pick("0", "2")))
    lines = [f"{key} = {value}" for key, value in values.items()]
    if draw(rarely()):
        lines.pop(draw(st.integers(0, len(lines) - 1)))
    if draw(rarely()):
        lines.append(draw(st.sampled_from(lines)))
    lines = [line.encode() for line in draw(st.permutations(lines))]
    comment = draw(pick(b"", b"", b"# grid", b"# grid", b"# caf\xc3\xa9", b"# caf\xe9"))
    lines.insert(draw(st.integers(0, len(lines))), comment)
    return draw(spliced(b"\n".join(lines) + b"\n"))


def run_cli(argv: list[str], input_flag: str, data: bytes) -> None:
    """Run `main` on `data` as the input file and check how it ended."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        out = os.path.join(workdir, "out.tsv")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([*argv, input_flag, path, "--output", out])
        if code == 0:
            assert stderr.getvalue() == ""
            assert sorted(os.listdir(workdir)) == ["input", "out.tsv"]
        else:
            assert code == 1
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert os.listdir(workdir) == ["input"]


@pytest.fixture(autouse=True)
def _serial(monkeypatch):
    monkeypatch.delenv("ADAFILTER_THREADS", raising=False)


@FUZZ
@given(
    case=csv_case(),
    method=pick("adafilter-bh", "adafilter-bonferroni", "direct-bh", "direct-bonferroni"),
    combiner=pick("simes", "fisher", "bonferroni"),
    paired=mostly(st.just(True), st.just(False)),
    alpha=mostly(pick(None, "0.05", "0.5", "1"), pick("0", "-1", "2", "nan")),
)
def test_test_command(case, method, combiner, paired, alpha):
    data, r = case
    if paired == method.startswith("adafilter"):
        combiner = None
    argv = ["test", "--method", method, "--r", str(r)]
    argv += [] if combiner is None else ["--combiner", combiner]
    argv += [] if alpha is None else ["--alpha", alpha]
    run_cli(argv, "--input", data)


@FUZZ
@given(
    case=csv_case(),
    alpha=mostly(pick(None, "0.05", "1"), pick("0", "nan")),
)
def test_curve_command(case, alpha):
    data, r = case
    argv = ["curve", "--r", str(r)]
    argv += [] if alpha is None else ["--alpha", alpha]
    run_cli(argv, "--input", data)


@settings(FUZZ, max_examples=300)
@given(case=st.one_of(csv_case(), csv_case(r_layout=True)))
def test_bulk_and_per_cell_readers_agree(case, tmp_path):
    path = os.path.join(tmp_path, "input.csv")
    with open(path, "wb") as fh:
        fh.write(case[0])
    assert read_outcome(ingest_csv, path) == read_outcome(_ingest_per_cell, path)


@settings(FUZZ, max_examples=40)
@given(
    data=scenario_bytes(),
    extra=pick([], ["--seed", "3"], ["--alpha", "0.1"], ["--alpha", "0"]),
)
def test_simulate_command(data, extra):
    run_cli(["simulate", "--threads", "1", *extra], "--scenario", data)
