import csv
import importlib.resources
import json
import shutil

import pytest

import yslot.allocate
import yslot.cli
from yslot import CausalityViolation, ConvergenceError, InvalidTimeline
from yslot.cli import main

CASE1 = str(importlib.resources.files("yslot").joinpath("data/example8_case1.json"))


def run_cli(*args):
    return main(list(args))


def test_missing_topology_exits_2(capsys):
    assert run_cli("solve", "-c", "/no/such/file.json", "--model", "3-2-3") == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [ConvergenceError("could not bracket"),
                                 CausalityViolation("slot 3: early relay"),
                                 InvalidTimeline("bad grid"),
                                 RuntimeError("leftover")],
                         ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("command", ["solve", "optimize", "simulate"])
def test_internal_error_exits_3_with_one_line(command, exc, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(yslot.allocate, "solve_pattern", broken)
    monkeypatch.setattr(yslot.cli, "solve_pattern", broken)
    model = ["--model", "3-2-3", "--no-sep-branch", "11"]
    extra = {"solve": model, "optimize": [],
             "simulate": [*model, "--trials", "10"]}[command]
    assert run_cli(command, "-c", CASE1, *extra) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal: {type(exc).__name__}: {exc}\n"


def test_usage_error_exits_2():
    assert run_cli("definitely-not-a-command") == 2


def test_enumerate_csv(tmp_path):
    out = tmp_path / "models.csv"
    assert run_cli("enumerate", "-c", CASE1, "--no-sep-branch", "11",
                   "-o", str(out)) == 0
    rows = list(csv.DictReader(out.open()))
    assert {r["model"] for r in rows} == {
        "3-2-3", "3-1-4", "2-2-4", "2-1-5", "1-2-5", "1-1-6"}
    assert all(r["type"] in {"1", "2", "3"} for r in rows)


def test_solve_slot_table_shape(tmp_path):
    out = tmp_path / "table.csv"
    assert run_cli("solve", "-c", CASE1, "--model", "3-2-3",
                   "--no-sep-branch", "11", "--pattern", "1",
                   "-o", str(out)) == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["row"] for r in rows] == ["TUB", "COM"]
    assert rows[0]["model"] == "3-2-3" and rows[0]["pattern"] == "1"
    names = set(rows[0]) - {"row", "model", "pattern", "case", "product"}
    # 15 (origin, link) pairs, each with an s and an s' column
    assert len(names) == 30
    assert {"s[1,1]", "s'[7,10]", "s[8,10]", "s'[8,10]"} <= names
    assert float(rows[0]["s[5,6]"]) == pytest.approx(11.8741, abs=1e-3)
    assert int(rows[1]["s[5,6]"]) == 12


def test_csv_and_json_contain_identical_values(tmp_path):
    a, b = tmp_path / "t.csv", tmp_path / "t.json"
    for out, fmt in ((a, "csv"), (b, "json")):
        assert run_cli("solve", "-c", CASE1, "--model", "3-2-3",
                       "--no-sep-branch", "11", "--pattern", "2",
                       "--format", fmt, "-o", str(out)) == 0
    csv_rows = list(csv.DictReader(a.open()))
    json_rows = json.loads(b.read_text())
    assert len(csv_rows) == len(json_rows)
    for cr, jr in zip(csv_rows, json_rows):
        for key, val in jr.items():
            if key in ("row", "model", "case"):
                assert cr[key] == str(val)
            else:
                assert float(cr[key]) == pytest.approx(float(val), abs=0)


def test_outputs_byte_stable(tmp_path):
    a, b = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (a, b):
        assert run_cli("optimize", "-c", CASE1, "--no-sep-branch", "11",
                       "-o", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_optimize_ranking_header(tmp_path):
    out = tmp_path / "rank.csv"
    assert run_cli("optimize", "-c", CASE1, "--no-sep-branch", "11",
                   "-o", str(out)) == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["model"] == "3-2-3"
    coms = [float(r["com"]) for r in rows]
    assert coms == sorted(coms, reverse=True)


def test_emit_timeline(tmp_path):
    grid = tmp_path / "grid.txt"
    assert run_cli("solve", "-c", CASE1, "--model", "3-2-3",
                   "--no-sep-branch", "11", "--pattern", "1",
                   "--emit-timeline", str(grid), "-o", str(tmp_path / "t.csv")) == 0
    lines = grid.read_text().splitlines()
    assert len(lines) == 30
    assert lines[0].startswith("0:")


def test_simulate_subcommand(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "-c", CASE1, "--model", "3-2-3",
                   "--no-sep-branch", "11", "--pattern", "1",
                   "--trials", "20000", "--seed", "42", "-o", str(out)) == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[-1]["node"] == "all"
    assert all(r["ok"] == "True" for r in rows[:-1])


def test_simulate_single_rare_miss_passes(capsys):
    # at seed 15 node 6 (analytic 0.999999488) loses one of 1e5 packets
    assert run_cli("simulate", "-c", CASE1, "--model", "3-2-3",
                   "--no-sep-branch", "11", "--pattern", "1",
                   "--trials", "100000", "--seed", "15") == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert rows[5]["node"] == "6" and rows[5]["empirical"] == "0.99999"
    assert float(rows[5]["z"]) < -4
    assert all(r["ok"] == "True" for r in rows)


def test_negative_digits_rejected_before_any_output(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert run_cli("report", "-c", CASE1, "--model", "3-2-3",
                   "--no-sep-branch", "11", "--pattern", "1",
                   "--digits", "-1", "-o", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --digits must be >= 0\n"
    assert not out.exists()


def test_t_slots_override(tmp_path):
    out = tmp_path / "t20.csv"
    assert run_cli("solve", "-c", CASE1, "--model", "3-2-3",
                   "--no-sep-branch", "11", "--pattern", "1",
                   "--t-slots", "20", "-o", str(out)) == 0
    rows = list(csv.DictReader(out.open()))
    com = rows[1]
    group_x = sum(int(com[f"s[{n},{l}]"]) for n, l in
                  ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)))
    assert group_x == 20


def test_config_dir_env(tmp_path, monkeypatch):
    shutil.copy(CASE1, tmp_path / "net.json")
    monkeypatch.setenv("YSLOT_CONFIG_DIR", str(tmp_path))
    assert run_cli("enumerate", "-c", "net.json",
                   "-o", str(tmp_path / "out.csv")) == 0


def test_report_summary_and_table(tmp_path, capsys):
    out = tmp_path / "summary.csv"
    assert run_cli("report", "-c", CASE1, "--no-sep-branch", "11",
                   "-o", str(out)) == 0
    rows = list(csv.DictReader(out.open()))
    assert {"model", "pattern", "case", "tub", "com"} <= set(rows[0])
    table = tmp_path / "table.csv"
    assert run_cli("report", "-c", CASE1, "--model", "3-2-3",
                   "--no-sep-branch", "11", "--pattern", "1",
                   "-o", str(table)) == 0
    printed = capsys.readouterr().err
    assert "TUB" in printed and "5.5001" in printed
