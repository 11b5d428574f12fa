"""The experiment scripts, run in process through their own argument parsers."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SMOKE = str(ROOT / "scenarios" / "smoke.scenario")


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_panel_on_smoke_grid(tmp_path, capsys):
    script = load("run_default_panel")
    out = tmp_path / "panel.tsv"
    args = script.parse_args(["--scenario", SMOKE, "--threads", "1", "--output", str(out)])
    assert script.run(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "M\tn\tr\tpi0\tpi_rn\trho\tblock_size\treplications\tmaster_seed\tprocedure\talpha"
        "\tpfer_mean\tpfer_ci95\tfdr_mean\tfdr_ci95\trecall_mean\trecall_ci95"
    )
    assert len(lines) == 1 + 2 * 8  # two scenarios x eight procedures
    assert capsys.readouterr().out == f"wrote 16 rows to {out}\n"


def test_threshold_curves(tmp_path, capsys):
    script = load("run_threshold_curves")
    out = tmp_path / "curves.tsv"
    assert script.run(script.parse_args(["--m", "2000", "--output", str(out)])) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "gamma\tv_hat\tfdp_hat"
    assert f"grid_points = {len(lines) - 1}\n" in capsys.readouterr().out
    assert all(len(line.split("\t")) == 3 for line in lines[1:])


def test_bad_input_ends_in_one_error_line(tmp_path, capsys):
    panel = load("run_default_panel")
    args = panel.parse_args(["--scenario", SMOKE, "--threads", "0", "--output", str(tmp_path / "p.tsv")])
    assert panel.run(args) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: threads must be >= 1, got 0"]
    assert captured.out == ""

    curves = load("run_threshold_curves")
    args = curves.parse_args(["--m", "100", "--r", "9", "--output", str(tmp_path / "c.tsv")])
    assert curves.run(args) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: replicability level r=9 must satisfy 2 <= r <= n=4"
    ]
    assert list(tmp_path.iterdir()) == []
