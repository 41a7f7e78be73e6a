import contextlib
import csv
import importlib.resources
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import yslot
import yslot.allocate
from conftest import branch_config, load_case_raw
from yslot import CausalityViolation, ConvergenceError, DomainError
from yslot.cli import _build_parser, main
from yslot.simulate import MAX_TRIALS
from yslot.topology import MAX_CYCLE_SLOTS

CASE1 = str(importlib.resources.files("yslot").joinpath("data/example8_case1.json"))


def run_cli(*args):
    return main(list(args))


def test_missing_topology_exits_2(capsys):
    assert run_cli("solve", "-c", "/no/such/file.json", "--model", "3-2-3") == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [ConvergenceError("could not bracket"),
                                 DomainError("budget 0.0 must be > 0"),
                                 CausalityViolation("slot 3: early relay"),
                                 RuntimeError("leftover")],
                         ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("command", ["solve", "optimize", "simulate"])
def test_internal_error_exits_3_with_one_line(command, exc, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(yslot.allocate._GroupTable, "solve", broken)
    model = ["--model", "3-2-3", "--no-sep-branch", "11"]
    extra = {"solve": model, "optimize": [],
             "simulate": [*model, "--trials", "10"]}[command]
    assert run_cli(command, "-c", CASE1, *extra) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal: {type(exc).__name__}: {exc}\n"


def test_usage_error_exits_2():
    assert run_cli("definitely-not-a-command") == 2


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert _build_parser() is _build_parser()
    model = ["--model", "3-2-3", "--no-sep-branch", "11", "--pattern", "1"]
    calls = [
        ["enumerate", "-c", CASE1, "--no-sep-branch", "11"],
        ["definitely-not-a-command"],
        ["solve", "-c", CASE1, *model, "--format", "json"],
        ["simulate", "-c", CASE1, *model, "--trials", "1000", "--seed", "3"],
        ["simulate", "-c", CASE1, *model, "--trials", "1000", "--reuse"],
        ["solve", "-c", CASE1],
        ["report", "-c", CASE1, *model, "--digits", "2"],
        ["optimize", "-c", CASE1, "--t-slots", "20"],
    ]

    def outcomes(order):
        seen = {}
        for i in order:
            code = main(list(calls[i]))
            seen[i] = (code, *capsys.readouterr())
        return seen

    forward = outcomes(range(len(calls)))
    assert [forward[i][0] for i in range(len(calls))] == [0, 2, 0, 0, 0, 2, 0, 0]
    assert outcomes(reversed(range(len(calls)))) == forward


FRESH_INTERPRETER = """
import json, sys
import yslot, yslot.cli
cfg, out, tmp = sys.argv[1], [], sys.argv[2]
model = ["--model", "3-2-3", "--no-sep-branch", "11", "--pattern", "1"]
loaded = lambda: ["numpy" in sys.modules, "dataclasses" in sys.modules]
out.append(("import", None, *loaded()))
for argv in (["enumerate", "-c", cfg],
             ["solve", "-c", cfg, *model, "--emit-timeline", tmp + "/grid.txt"],
             ["optimize", "-c", cfg],
             ["report", "-c", cfg, *model],
             ["simulate", "-c", cfg, *model, "--trials", sys.argv[3]],
             ["simulate", "-c", cfg, *model, "--trials", "1000"]):
    code = yslot.cli.main([*argv, "-o", tmp + "/out.csv"])
    out.append((argv[0], code, *loaded()))
print(json.dumps(out))
"""


def test_only_simulate_loads_numpy(tmp_path):
    # and nothing loads dataclasses: yslot's records are named tuples or
    # plain classes, so importing it generates no record code
    src = Path(yslot.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER, CASE1, str(tmp_path),
         str(MAX_TRIALS + 1)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert json.loads(proc.stdout) == [
        ["import", None, False, False], ["enumerate", 0, False, False],
        ["solve", 0, False, False], ["optimize", 0, False, False],
        ["report", 0, False, False], ["simulate", 2, False, False],
        ["simulate", 0, True, False]]
    assert proc.stderr.endswith(
        f"error: trials {MAX_TRIALS + 1} is above the cap of {MAX_TRIALS}\n")


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


@pytest.mark.parametrize("target", ["missing-dir", "dir-as-file"])
@pytest.mark.parametrize("flag", ["-o", "--emit-timeline"])
def test_unwritable_output_path_exits_2_with_one_line(flag, target, tmp_path, capsys):
    path = tmp_path / "no" / "such" / "out.txt" if target == "missing-dir" else tmp_path
    extra = ["-o", str(tmp_path / "t.csv")] if flag == "--emit-timeline" else []
    assert run_cli("solve", "-c", CASE1, "--model", "3-2-3", "--no-sep-branch", "11",
                   "--pattern", "1", *extra, flag, str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    if flag == "-o":
        assert run_cli("optimize", "-c", CASE1, "-o", str(path)) == 2
        assert capsys.readouterr().err == err


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_counts_packets_without_a_slot(fmt, capsys):
    # node 7 (rate 3) has a packet with no slot: it never delivers, so its
    # rate and the all rate read 0, as the analytic COM says, not z=inf
    y06 = str(Path(__file__).parent / "golden/ys/y06.json")
    assert run_cli("simulate", "-c", y06, "--model", "1-1-5",
                   "--no-sep-branch", "10", "--pattern", "1",
                   "--trials", "20000", "--seed", "1", "--format", fmt) == 0
    out = capsys.readouterr().out
    assert "inf" not in out.lower()
    rows = (json.loads(out, parse_constant=pytest.fail) if fmt == "json"
            else list(csv.DictReader(out.splitlines())))
    assert [(str(r["node"]), float(r["empirical"])) for r in rows[-2:]] == \
        [("7", 0.0), ("all", 0.0)]


def test_negative_digits_rejected_before_any_output(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert run_cli("report", "-c", CASE1, "--model", "3-2-3",
                   "--no-sep-branch", "11", "--pattern", "1",
                   "--digits", "-1", "-o", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --digits must be >= 0\n"
    assert not out.exists()


def test_digits_beyond_any_double_rejected_before_any_output(tmp_path, capsys):
    # 5e-324 = 2^-1074 needs all 1074 fractional digits; more only add zeros
    assert len(format(5e-324, ".1074f").split(".")[1].rstrip("0")) == 1074
    out = tmp_path / "table.csv"
    assert run_cli("report", "-c", CASE1, "--model", "3-2-3",
                   "--no-sep-branch", "11", "--pattern", "1",
                   "--digits", "1074", "-o", str(out)) == 0
    out.unlink()
    capsys.readouterr()
    assert run_cli("report", "-c", CASE1, "--model", "3-2-3",
                   "--no-sep-branch", "11", "--pattern", "1",
                   "--digits", "1075", "-o", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --digits must be <= 1074\n"
    assert not out.exists()


def test_negative_seed_names_the_flag(capsys):
    assert run_cli("simulate", "-c", CASE1, "--model", "3-2-3",
                   "--no-sep-branch", "11", "--trials", "10",
                   "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0\n"


@pytest.mark.parametrize("command", ["enumerate", "optimize"])
def test_no_sep_branch_outside_gateways_exits_2(command, capsys):
    # not an empty model list (exit 0) or an empty ranking (exit 1)
    assert run_cli(command, "-c", CASE1, "--no-sep-branch", "99") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: no_sep_branch 99 is not a gateway id; "
                            "expected one of [9, 10, 11]\n")


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw["nodes"][0].update(rate=2.7), "rate 2.7 is not an integer"),
    (lambda raw: raw["proximity"].append([1, 2, 3]),
     "proximity entry [1, 2, 3] is not a pair"),
], ids=["fractional-rate", "proximity-triple"])
def test_bad_config_value_exits_2_with_one_line(edit, message, tmp_path, capsys):
    raw = json.loads(Path(CASE1).read_text())
    edit(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert run_cli("optimize", "-c", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["enumerate", "optimize", "report", "solve",
                                     "simulate"])
@pytest.mark.parametrize("lengths, no_sep_branch", [
    ((0, 0, 0), None), ((0, 2, 3), 8)],
    ids=["central-only", "empty-separated-branch"])
def test_no_path_model_exits_2_with_one_line(command, lengths, no_sep_branch,
                                             tmp_path, capsys):
    # not an empty model list (exit 0) or an empty ranking (exit 1)
    path = tmp_path / "y.json"
    path.write_text(json.dumps(branch_config(lengths)))
    extra = [] if no_sep_branch is None else ["--no-sep-branch", str(no_sep_branch)]
    if command in ("solve", "simulate"):
        extra += ["--model", "1-1-1"]
    assert run_cli(command, "-c", str(path), *extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    where = "" if no_sep_branch is None else f" with no_sep_branch {no_sep_branch}"
    assert captured.err == (f"error: no path model{where}: both separated "
                            "branches need at least one node\n")


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


def one_node_branches(losses: tuple[float, float]) -> dict:
    """The Y with one node per branch at T = 1 (central node 1, branch nodes
    2-4, gateways 5-7), link losses alternating between the two given."""
    links = [(1, 2), (2, 5), (1, 3), (3, 6), (1, 4), (4, 7)]
    return {
        "cycle_slots": 1,
        "nodes": [{"id": n, "rate": 1} for n in range(1, 5)],
        "gateways": [{"id": g} for g in (5, 6, 7)],
        "links": [{"id": i + 1, "a": a, "b": b, "loss": losses[i % 2]}
                  for i, (a, b) in enumerate(links)],
        "proximity": [*map(list, links), [1, 5], [1, 6], [1, 7],
                      [2, 3], [2, 4], [3, 4]],
    }


@pytest.mark.parametrize("losses", [(1 - 2 ** -53, 0.5), (5e-324, 1 - 2 ** -53)],
                         ids=["near-one-and-half", "subnormal-and-near-one"])
def test_optimize_at_the_loss_bounds_is_infeasible_not_an_error(
        losses, tmp_path, capsys):
    # a relaxed value v with q^v rounding to 1 once made log1p(-q^v) raise,
    # which the CLI reported as a usage error (exit 2)
    path = tmp_path / "y.json"
    path.write_text(json.dumps(one_node_branches(losses)))
    assert run_cli("optimize", "-c", str(path)) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, cycle_slots, override", [
    ("enumerate", 10 ** 12, None), ("optimize", MAX_CYCLE_SLOTS + 1, None),
    ("solve", 30, 10 ** 6), ("simulate", 30, MAX_CYCLE_SLOTS + 1)],
    ids=["enumerate-config", "optimize-config", "solve-override", "simulate-override"])
def test_cycle_above_the_cap_exits_2_with_one_line(command, cycle_slots, override,
                                                   tmp_path, capsys):
    raw = load_case_raw(1)
    raw["cycle_slots"] = cycle_slots
    path = tmp_path / "long.json"
    path.write_text(json.dumps(raw))
    extra = [] if command in ("enumerate", "optimize") else [
        "--model", "3-2-3", "--no-sep-branch", "11", "--pattern", "1"]
    if override is not None:
        extra += ["--t-slots", str(override)]
    assert run_cli(command, "-c", str(path), *extra) == 2
    captured = capsys.readouterr()
    what = "cycle_slots" if override is None else "cycle_slots override"
    assert captured.out == ""
    assert captured.err == (f"error: {what} {override or cycle_slots} is above the cap "
                            f"of {MAX_CYCLE_SLOTS} slots\n")


def test_config_at_the_caps_solves_a_pattern_in_bounded_time(tmp_path):
    # branches of 40 nodes: 121 packets on routes of up to 81 hops, 9 801
    # packet hops, at the largest cycle; one solve with its slot grid takes
    # under 1 s on a 2-vCPU VM, path-model enumeration included
    path, grid = tmp_path / "y.json", tmp_path / "grid.txt"
    path.write_text(json.dumps(branch_config((40, 40, 40), MAX_CYCLE_SLOTS)))
    start = time.perf_counter()
    code = run_cli("solve", "-c", str(path), "--model", "1-1-119", "--no-sep-branch",
                   "124", "-o", str(tmp_path / "table.csv"), "--emit-timeline", str(grid))
    assert time.perf_counter() - start < 20.0
    assert code in (0, 1)
    assert len(grid.read_text().splitlines()) == MAX_CYCLE_SLOTS


def _set_loss(value):
    def mutate(raw, i):
        raw["links"][i % len(raw["links"])]["loss"] = value
    return mutate


def _duplicate_node(raw, i):
    raw["nodes"].append(dict(raw["nodes"][i % len(raw["nodes"])]))


def _duplicate_link_id(raw, i):
    links = raw["links"]
    links[i % len(links)]["id"] = links[(i + 1) % len(links)]["id"]


def _self_loop(raw, i):
    link = raw["links"][i % len(raw["links"])]
    link["b"] = link["a"]


def _parallel_link(raw, i):
    link = raw["links"][i % len(raw["links"])]
    raw["links"].append(dict(link, id=max(l["id"] for l in raw["links"]) + 1))


def _set_rate(value):
    def mutate(raw, i):
        raw["nodes"][i % len(raw["nodes"])]["rate"] = value
    return mutate


def _proximity_pair(pair):
    def mutate(raw, i):
        node = raw["nodes"][i % len(raw["nodes"])]["id"]
        raw["proximity"] = raw.get("proximity", []) + [[node, pair or node]]
    return mutate


def _no_proximity(raw, i):
    raw.pop("proximity", None)


def _fourth_gateway(raw, i):
    node = raw["nodes"][i % len(raw["nodes"])]["id"]
    raw["gateways"].append({"id": 99})
    raw["links"].append({"id": 99, "a": node, "b": 99, "loss": 0.2})
    raw["proximity"] = raw.get("proximity", []) + [[node, 99]]


def _cycle_slots(raw, i):
    raw["cycle_slots"] = 10 ** 12


MUTATIONS = {
    "nan-loss": _set_loss(float("nan")), "bool-loss": _set_loss(True),
    "null-loss": _set_loss(None), "string-loss": _set_loss("0.2"),
    "loss-one": _set_loss(1.0), "duplicate-node-id": _duplicate_node,
    "duplicate-link-id": _duplicate_link_id, "self-loop": _self_loop,
    "parallel-link": _parallel_link, "rate-0": _set_rate(0),
    "rate-huge": _set_rate(10 ** 6), "proximity-unknown-id": _proximity_pair(999),
    "proximity-self-pair": _proximity_pair(None), "no-proximity": _no_proximity,
    "fourth-gateway": _fourth_gateway, "cycle-slots-huge": _cycle_slots,
}

COMMANDS = {
    "enumerate": [], "optimize": [],
    "solve": ["--model", "3-2-3", "--no-sep-branch", "11"],
    "report": ["--model", "3-2-3", "--no-sep-branch", "11"],
    "simulate": ["--model", "3-2-3", "--no-sep-branch", "11", "--trials", "200"],
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from((1, 2, 3)),
       st.lists(st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(0, 20)),
                max_size=2),
       st.sampled_from(sorted(COMMANDS)))
def test_mutated_configs_exit_cleanly(case, mutations, command):
    # every config ends in output (0), infeasible or a failed check (1) or
    # one config error line (2), never in an internal error (3)
    raw = load_case_raw(case)
    for name, i in mutations:
        MUTATIONS[name](raw, i)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "-c", str(path), *COMMANDS[command]])
    assert code in (0, 1, 2), (code, err.getvalue())
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
