"""Regenerate the golden corpus that pins yslot's outputs byte for byte.

    PYTHONPATH=src python tests/golden/make_corpus.py

The corpus has two parts, both written next to this script:

- `cli/`: exact stdout, stderr and emitted timeline grid of CLI runs on the
  three shipped 8-node configs, in CSV and JSON (`exits.json` holds the
  exit codes).
- `ys/`: seeded generated Y configs (`yNN.json`, usable with the CLI) and,
  for each, every `optimize` row in rank order with repr'd TUB and COM, the
  per-group case labels, windows, real-valued windows and both slot-table
  rows (`yNN.optimize.json`).

The generated configs are picked from a seeded candidate stream so that
the winning structures across the corpus cover every window regime
(c1-c5), every overlap orientation (case1, case2, caseA, caseB) and early
slots for a rate >= 2 origin's later packets.  Candidates whose relaxed
solve fails to bracket its root are skipped.

`tests/test_golden.py` compares the live program against these files; it
imports the helpers below so both sides run the same invocations.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import io
import json
import random
import shutil
from pathlib import Path

from yslot import (ConvergenceError, enumerate_path_models, optimize,
                   patterns_for, relaxed_table, validate_topology)
from yslot.cli import _slot_table_rows, main

HERE = Path(__file__).resolve().parent
CLI_DIR = HERE / "cli"
YS_DIR = HERE / "ys"

SHIPPED = ("example8_case1", "example8_case2", "example8_case3")
FORMATS = ("csv", "json")
SIM_ARGS = ("--trials", "2000", "--seed", "11")

CORPUS_SIZE = 20
CORPUS_SEED = 20261018
# optimize rows per config, which keeps the golden test fast: configs that
# add coverage may have up to MAX_ROWS, the ones filling up the corpus FILL_ROWS
MAX_ROWS = 24
FILL_ROWS = 14
# every label a group's winning structure can carry, plus early slots on a
# later packet (k >= 2) of a rate >= 2 origin
FEATURES = frozenset({"c1", "c2", "c3", "c4", "c5", "case1", "case2",
                      "caseA", "caseB", "rate2-early"})


def shipped_config(name: str) -> str:
    return str(importlib.resources.files("yslot").joinpath(f"data/{name}.json"))


def cli_invocations(config: str, grid: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every recorded CLI run on one config; `grid` is the
    path the `solve --emit-timeline` runs write to."""
    runs = []
    for fmt in FORMATS:
        f = ["--format", fmt]
        runs += [
            (f"enumerate.{fmt}", ["enumerate", "-c", config, *f]),
            (f"optimize.{fmt}", ["optimize", "-c", config, *f]),
            (f"solve-3-2-3-p1.{fmt}",
             ["solve", "-c", config, "--model", "3-2-3", "--no-sep-branch", "11",
              "--pattern", "1", "--emit-timeline", grid, *f]),
            (f"solve-2-2-4-p2.{fmt}",
             ["solve", "-c", config, "--model", "2-2-4", "--no-sep-branch", "11",
              "--pattern", "2", "--emit-timeline", grid, *f]),
            (f"report-3-2-3-p2.{fmt}",
             ["report", "-c", config, "--model", "3-2-3", "--no-sep-branch", "11",
              "--pattern", "2", *f]),
            (f"simulate-3-2-3-p1.{fmt}",
             ["simulate", "-c", config, "--model", "3-2-3", "--no-sep-branch",
              "11", "--pattern", "1", *SIM_ARGS, *f]),
            (f"simulate-reuse-2-2-4-p2.{fmt}",
             ["simulate", "-c", config, "--model", "2-2-4", "--no-sep-branch",
              "11", "--pattern", "2", "--reuse", *SIM_ARGS, *f]),
        ]
    return runs


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reprs(value):
    """Floats as their repr strings, recursively, so records compare exactly."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _reprs(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_reprs(v) for v in value]
    return value


def solution_record(sol) -> dict:
    tub_entries, windows_real = relaxed_table(sol)
    tub_row, com_row = _slot_table_rows(sol, tub_entries)[0]
    return _reprs({
        "model": sol.model.name,
        "no_sep_branch": sol.model.no_sep_branch,
        "pattern": sol.pattern.pattern_id,
        "tub": sol.tub_product,
        "com": sol.com_product,
        "case_labels": dict(sorted(sol.case_labels.items())),
        "predicted": dict(sorted(sol.predicted.items())),
        "windows": dict(sorted(sol.windows.items())),
        "windows_real": dict(sorted(windows_real.items())),
        "tub_table": tub_row,
        "com_table": com_row,
    })


def optimize_records(config: dict) -> list[dict]:
    return [solution_record(s) for s in optimize(validate_topology(config))]


def features(config: dict, records: list[dict]) -> set[str]:
    """Corpus features (see FEATURES) shown by one config's optimize rows."""
    rates = {n["id"]: n.get("rate", 1) for n in config["nodes"]}
    found = set()
    for rec in records:
        for label in rec["case_labels"].values():
            found.update(part for part in label.split("+") if part)
        for name, count in rec["com_table"].items():
            if not name.startswith("s'[") or count == 0:
                continue
            node, _link, *k = (int(x) for x in name[3:-1].split(","))
            if rates[node] >= 2 and k and k[0] >= 2:
                found.add("rate2-early")
    return found & FEATURES


def generated_y(rng: random.Random) -> dict:
    """A Y with branches of 1-4 nodes, rates 1-3, T in [10, 60] and 0-3
    extra proximity pairs beyond the link endpoints and the central node's
    neighbour pairs.  The central node is id 1, gateways come last."""
    lengths = [rng.randint(1, 4) for _ in range(3)]
    n_nodes = 1 + sum(lengths)
    links, central_nbs = [], []
    node_id = 2
    for index, length in enumerate(lengths):
        prev = 1
        for _ in range(length):
            links.append((prev, node_id))
            prev = node_id
            node_id += 1
        links.append((prev, n_nodes + 1 + index))
        central_nbs.append(links[-length - 1][1])
    proximity = {tuple(sorted(pair)) for pair in links}
    proximity.update(tuple(sorted((a, b))) for i, a in enumerate(central_nbs)
                     for b in central_nbs[i + 1:])
    ids = list(range(1, n_nodes + 4))
    spare = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
             if (a, b) not in proximity]
    proximity.update(rng.sample(spare, rng.randint(0, 3)))
    return {
        "cycle_slots": rng.randint(10, 60),
        "nodes": [{"id": n, "rate": rng.choice((1, 1, 2, 3))}
                  for n in range(1, n_nodes + 1)],
        "gateways": [{"id": g} for g in range(n_nodes + 1, n_nodes + 4)],
        "links": [{"id": i + 1, "a": a, "b": b,
                   "loss": round(rng.uniform(0.05, 0.6), 3)}
                  for i, (a, b) in enumerate(links)],
        "proximity": [list(p) for p in sorted(proximity)],
    }


def pick_corpus(max_candidates: int = 2000) -> list[tuple[dict, list[dict]]]:
    """Seeded candidates, each kept while it adds an uncovered feature;
    once everything is covered, the next candidates fill up the corpus."""
    rng = random.Random(CORPUS_SEED)
    chosen, covered = [], set()
    for _ in range(max_candidates):
        if len(chosen) == CORPUS_SIZE:
            break
        config = generated_y(rng)
        topology = validate_topology(config)
        rows = sum(len(patterns_for(m)) for m in enumerate_path_models(topology))
        if rows > MAX_ROWS:
            continue
        try:
            records = optimize_records(config)
        except ConvergenceError:
            continue
        new = features(config, records) - covered
        if new or covered == FEATURES and rows <= FILL_ROWS:
            chosen.append((config, records))
            covered |= new
    if covered != FEATURES or len(chosen) < CORPUS_SIZE:
        raise SystemExit(f"{len(chosen)} configs chosen, features missing: "
                         f"{sorted(FEATURES - covered)}")
    return chosen


def write_cli() -> None:
    shutil.rmtree(CLI_DIR, ignore_errors=True)
    CLI_DIR.mkdir()
    grid = CLI_DIR / "_grid.tmp"
    exits = {}
    for name in SHIPPED:
        for run, argv in cli_invocations(shipped_config(name), str(grid)):
            key = f"{name}.{run}"
            code, out, err = run_cli(argv)
            exits[key] = code
            (CLI_DIR / f"{key}.out").write_text(out, encoding="utf-8")
            if err:
                (CLI_DIR / f"{key}.err").write_text(err, encoding="utf-8")
            if grid.exists():
                grid.replace(CLI_DIR / f"{key}.grid")
    (CLI_DIR / "exits.json").write_text(json.dumps(exits, indent=1) + "\n")


def write_ys() -> None:
    shutil.rmtree(YS_DIR, ignore_errors=True)
    YS_DIR.mkdir()
    for i, (config, records) in enumerate(pick_corpus(), start=1):
        (YS_DIR / f"y{i:02d}.json").write_text(json.dumps(config, indent=1) + "\n")
        # one optimize row per line keeps diffs readable
        rows = ",\n".join(json.dumps(rec) for rec in records)
        (YS_DIR / f"y{i:02d}.optimize.json").write_text(f"[\n{rows}\n]\n")


if __name__ == "__main__":
    write_cli()
    write_ys()
