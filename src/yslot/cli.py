"""Command-line interface: enumerate, solve, optimize, simulate, report.

Exit codes: 0 ok; 1 when `solve` or `report --model` gives COM = 0, when
`optimize` or `report` without `--model` has no feasible solution, or when
a `simulate` check fails: a node's simulated rate beyond 3 sigma (the exact
tail where few rare outcomes are expected), and only then, so a COM = 0
solution whose checks hold exits 0; 2 usage or config error or an
unwritable output path, 3 internal error (a solver fault, `DomainError`
included, or a timeline or simulation fault, reported as one
`error: internal: ...` line, no traceback).
Output files are byte-stable for identical inputs: CSV and JSON carry the
same full-precision values (metadata like the RNG seed is part of the
report data, never wall-clock timestamps).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import astuple
from pathlib import Path

from .allocate import (PatternSolution, optimize, relaxed_table,
                       solution_timeline, solve_pattern)
from .pathmodel import enumerate_path_models, find_model, patterns_for
from .relax import DomainError
from .simulate import (NodeComparison, NodeSetMismatch, SimReport, _rate_check,
                       compare, simulate)
from .timeline import TimelineError
from .topology import (Topology, TopologyError, check_cycle_slots, load_config,
                       validate_topology)

CONFIG_DIR_ENV = "YSLOT_CONFIG_DIR"
# fractional digits that write any double exactly; 5e-324 needs all of them
MAX_DIGITS = 1074


def _resolve_topology_path(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    base = os.environ.get(CONFIG_DIR_ENV)
    if base and (Path(base) / path).exists():
        return Path(base) / path
    return p


def _load(args: argparse.Namespace) -> Topology:
    raw = load_config(_resolve_topology_path(args.topology))
    topology = validate_topology(raw)
    if args.cycle_slots is not None:
        check_cycle_slots(args.cycle_slots, "cycle_slots override")
    return topology


def _emit(rows: list[dict], fieldnames: list[str], args: argparse.Namespace) -> None:
    if args.fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _solution_row(sol: PatternSolution) -> dict:
    return {
        "model": sol.model.name,
        "no_sep_branch": sol.model.no_sep_branch,
        "pattern": sol.pattern.pattern_id,
        "case": sol.case_label,
        "tub": sol.tub_product,
        "com": sol.com_product,
        "window": sol.window,
        "feasible": sol.feasible,
    }


SUMMARY_FIELDS = ["model", "no_sep_branch", "pattern", "case", "tub", "com",
                  "window", "feasible"]
SIMULATE_FIELDS = ["node", "empirical", "analytic", "sigma", "z", "ok",
                   "trials", "seed", "algorithm", "reuse"]


def _simulate_rows(report: SimReport, checks: list[NodeComparison]) -> list[dict]:
    """One row per node, then one for "all": each rate with its 3-sigma
    check, or without checks (slot reuse) with the check fields blank."""
    cells = [astuple(c) for c in checks] or [
        (node, rate, "", "", "", "")
        for node, rate in [*sorted(report.per_node.items()), ("all", report.all_rate)]]
    meta = (report.trials, report.seed, report.algorithm, report.reuse)
    return [dict(zip(SIMULATE_FIELDS, (*cell, *meta))) for cell in cells]


def entry_name(node: int, link: int, k: int, rate: int, early: bool) -> str:
    """Slot-table column name: s[node,link] or s'[..] for early slots, with
    the packet index appended for nodes sending more than one packet."""
    mark = "s'" if early else "s"
    if rate > 1:
        return f"{mark}[{node},{link},{k}]"
    return f"{mark}[{node},{link}]"


def _slot_table_rows(sol: PatternSolution, tub_entries: dict,
                     ) -> tuple[list[dict], list[str]]:
    """TUB and COM rows of a solution, given its `relaxed_table` entries."""
    rates = sol.model.topology.rates
    # columns by node, link, packet, then s before s'
    keys = sorted(tub_entries, key=lambda e: (e[0], e[2], e[1], e[3]))
    names = [entry_name(node, link, k, rates[node], early)
             for node, k, link, early in keys]
    head = {"model": sol.model.name, "pattern": sol.pattern.pattern_id,
            "case": sol.case_label}
    com = sol.allocation.entries   # merged from the steps on each read
    tub_row = {"row": "TUB", **head, "product": sol.tub_product,
               **{n: tub_entries[e] for n, e in zip(names, keys)}}
    com_row = {"row": "COM", **head, "product": sol.com_product,
               **{n: com.get(e, 0) for n, e in zip(names, keys)}}
    return [tub_row, com_row], ["row", "model", "pattern", "case", "product"] + names


def run(args: argparse.Namespace) -> int:
    """Execute one parsed subcommand; returns the process exit status."""
    if args.command == "report" and args.digits < 0:
        raise ValueError("--digits must be >= 0")
    if args.command == "report" and args.digits > MAX_DIGITS:
        raise ValueError(f"--digits must be <= {MAX_DIGITS}")
    topology = _load(args)

    if args.command == "enumerate":
        rows = []
        for m in enumerate_path_models(topology, args.no_sep_branch):
            rows.append({
                "model": m.name,
                "type": m.model_type,
                "no_sep_branch": m.no_sep_branch,
                "sep_link_a": m.sep_link_a,
                "sep_link_b": m.sep_link_b,
                "group_x": " ".join(map(str, m.group("X"))),
                "group_y": " ".join(map(str, m.group("Y"))),
                "group_z": " ".join(map(str, m.group("Z"))),
                "patterns": len(patterns_for(m)),
            })
        _emit(rows, ["model", "type", "no_sep_branch", "sep_link_a", "sep_link_b",
                     "group_x", "group_y", "group_z", "patterns"], args)
        return 0

    # report without --model is the ranked summary of optimize
    if args.command == "optimize" or (args.command == "report" and args.model is None):
        solutions = optimize(topology, args.cycle_slots, args.no_sep_branch)
        _emit([_solution_row(s) for s in solutions], SUMMARY_FIELDS, args)
        return 0 if any(s.feasible for s in solutions) else 1

    model = find_model(topology, args.model, args.no_sep_branch)
    sol = solve_pattern(model, args.pattern, args.cycle_slots)

    if args.command == "simulate":
        timeline = solution_timeline(sol)
        report = simulate(timeline, topology, args.trials, args.seed,
                          reuse=args.reuse)
        # analytic COM follows the dedicated-slot model: compare only
        # when slot reuse is off
        checks = compare(report, sol.per_node) if not args.reuse else []
        every = [_rate_check("all", report.all_rate, sol.com_product,
                             report.trials)] if checks else []
        _emit(_simulate_rows(report, [*checks, *every]), SIMULATE_FIELDS, args)
        return 0 if all(c.ok for c in checks) else 1

    rows, fields = _slot_table_rows(sol, relaxed_table(sol)[0])
    if args.command == "report":
        fmt = f"{{:.{args.digits}f}}"
        cols = ["row", "product"] + [f for f in fields if f.startswith("s")]
        width = max(len(n) for n in cols)
        sys.stderr.write(" ".join(n.rjust(width) for n in cols) + "\n")
        for row in rows:
            cells = [str(row["row"]).rjust(width)]
            cells += [fmt.format(float(row[n])).rjust(width) for n in cols[1:]]
            sys.stderr.write(" ".join(cells) + "\n")
    _emit(rows, fields, args)
    if getattr(args, "emit_timeline", None):  # solve only
        timeline = solution_timeline(sol)
        Path(args.emit_timeline).write_text("\n".join(timeline.to_lines()) + "\n")
    return 0 if sol.feasible else 1


@functools.cache  # parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yslot",
        description="TDMA slot allocation for Y-shaped 3-gateway sensor backbones")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--topology", "-c", required=True,
                       help=f"topology config (JSON); also searched in ${CONFIG_DIR_ENV}")
        p.add_argument("--no-sep-branch", type=int, default=None,
                       help="gateway id of the branch without a separation link")
        p.add_argument("--t-slots", type=int, default=None, dest="cycle_slots",
                       help="override the config's cycle_slots")
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
        p.add_argument("--output", "-o", default=None)

    p_enum = sub.add_parser("enumerate", help="list all path models")
    common(p_enum)

    p_solve = sub.add_parser("solve", help="solve one model/pattern")
    common(p_solve)
    p_solve.add_argument("--model", required=True, help="l-r-d model name")
    p_solve.add_argument("--pattern", type=int, default=None)
    p_solve.add_argument("--emit-timeline", default=None,
                         help="write the slot grid to this path")

    p_opt = sub.add_parser("optimize", help="rank all (model, pattern) solutions")
    common(p_opt)

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of one solution")
    common(p_sim)
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--pattern", type=int, default=None)
    p_sim.add_argument("--trials", type=int, default=100000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--reuse", action="store_true",
                       help="reassign slots of lost packets to the next pending packet")

    p_rep = sub.add_parser("report", help="slot table for a model, or ranked summary")
    common(p_rep)
    p_rep.add_argument("--model", default=None)
    p_rep.add_argument("--pattern", type=int, default=None)
    p_rep.add_argument("--digits", type=int, default=4)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return run(args)
    except (DomainError, RuntimeError, TimelineError, NodeSetMismatch) as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (TopologyError, ValueError, OSError) as exc:   # OSError: writing output
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
