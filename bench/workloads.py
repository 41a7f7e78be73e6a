"""The benchmark's four workloads: inputs from the seed, set-up, operations
and the output check of every operation.

`inputs(workload, seed, workdir)` returns a JSON-able spec; `setup(spec)`
turns it into rounds of operations, which the run repeats in order.  Set-up is what a fresh interpreter must do
before its first operation, so the set-up probe runs exactly `setup`.

Why these workloads:
- paper8: the CLI on the shipped 8-node configs; relaxed root-finding and
  per-call overhead dominate, and it is the only workload through `cli`.
- ladder: `optimize` on growing generated Ys; integer greedy and work
  repeated across patterns grow with the size.
- longframe: one solve plus its timeline at long cycles; time moves to the
  integer greedy and timeline verification, and the relaxed solver's
  bracket failures show up as failed operations.
- montecarlo: numpy replay of precomputed timelines in both slot modes;
  solving happens only in set-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yslot
import yslot.cli

from ygen import workload_rng, y_backbone

PAPER_CONFIGS = tuple(f"src/yslot/data/example8_case{c}.json" for c in (1, 2, 3))
PAPER8_T = (20, 30, 60, 120)
LADDER = (((3, 3, 3), 45), ((4, 4, 4), 60), ((5, 5, 5), 80))
LONGFRAME_POOL = 640
MC_TRIALS = 100_000
# generated timelines, one with each unit count to within MC_UNIT_SLACK
MC_UNIT_TARGETS = (225, 275, 325, 375)
MC_UNIT_SLACK = 8

# The paper's 3-2-3 TUB slot rows at T=30 under case-1 losses
# (Table 2 for pattern 1, Table 3 for pattern 2).
PAPER_TUB = {
    1: {
        "s[1,1]": 5.5001, "s'[1,1]": 0.0, "s[2,1]": 5.5001, "s'[2,1]": 0.0,
        "s[2,2]": 3.9999, "s'[2,2]": 0.0, "s[3,1]": 5.5001, "s[3,2]": 3.9999,
        "s[3,3]": 5.5001, "s[4,8]": 3.4322, "s[4,9]": 6.7617,
        "s[4,10]": 4.3481, "s[5,6]": 11.8741, "s[5,7]": 9.0630,
        "s[6,7]": 9.0630, "s'[6,7]": 0.0, "s[7,9]": 0.0, "s'[7,9]": 6.7617,
        "s[7,10]": 3.5839, "s'[7,10]": 0.7642, "s[8,10]": 0.0,
        "s'[8,10]": 4.3481,
    },
    2: {
        "s[1,1]": 5.5001, "s'[1,1]": 0.0, "s[2,1]": 5.5001, "s'[2,1]": 0.0,
        "s[2,2]": 0.5677, "s'[2,2]": 3.4322, "s[3,1]": 5.5001,
        "s[3,2]": 3.9999, "s[3,3]": 5.5001, "s[4,8]": 3.4322,
        "s[4,9]": 6.7617, "s[4,10]": 4.3481, "s[5,6]": 11.8741,
        "s[5,7]": 9.0630, "s[6,7]": 5.6307, "s'[6,7]": 3.4322,
        "s[7,9]": 6.7617, "s'[7,9]": 0.0, "s[7,10]": 4.3481,
        "s'[7,10]": 0.0, "s[8,10]": 4.3481, "s'[8,10]": 0.0,
    },
}


@dataclass
class Outcome:
    """What an operation's output check found."""

    problems: list[str]
    text: str            # canonical output, for the digest and rerun checks
    solutions: int = 0
    tx: int = 0


@dataclass
class Op:
    name: str
    call: Callable[[], object]          # the timed part
    inspect: Callable[[object], Outcome]  # untimed output check


def _paper_raw(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _pick(items: list, u: float):
    return items[min(int(u * len(items)), len(items) - 1)]


# ---------------------------------------------------------------------------
# inputs


def inputs(workload: str, seed: int, workdir: str) -> dict:
    """Everything set-up needs, generated from the seed (JSON-able)."""
    rng = workload_rng(workload, seed)
    spec: dict = {"workload": workload, "seed": seed}
    if workload == "paper8":
        ops = [["optimize", c, T] for c in range(3) for T in PAPER8_T]
        ops += [["solve", 0, p] for p in (1, 2)]
        rng.shuffle(ops)
        spec.update(configs=list(PAPER_CONFIGS), ops=ops, workdir=workdir)
    elif workload == "ladder":
        spec["configs"] = [y_backbone(rng, lengths, T) for lengths, T in LADDER]
    elif workload == "longframe":
        spec.update(_longframe_inputs(rng))
    elif workload == "montecarlo":
        configs = [_paper_raw(PAPER_CONFIGS[0])]
        solves = [[0, "3-2-3", 11, 1, 30]]
        for raw, solve in _montecarlo_solutions(rng):
            configs.append(raw)
            solves.append([len(configs) - 1] + solve)
        spec.update(configs=configs, solves=solves, trials=MC_TRIALS,
                    sim_seeds=[rng.randrange(2**32) for _ in solves])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


def _strata(rng, n: int) -> list[float]:
    """n uniforms in [0, 1), one per stratum of width 1/n, in random order."""
    out = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


def _longframe_inputs(rng) -> dict:
    """Stratified draws, so that a run's median rests on an even cover of
    the scenario space: every fifth scenario is a shipped 8-node config,
    the rest cycle through all 64 branch-length triples and 0-3 extra
    proximity pairs; T and the (model, pattern) choice are stratified."""
    configs = [_paper_raw(p) for p in PAPER_CONFIGS]
    triples = [(a, b, c) for a in range(1, 5) for b in range(1, 5)
               for c in range(1, 5)]
    rng.shuffle(triples)
    n = LONGFRAME_POOL
    t_strata, model_strata, pattern_strata = (_strata(rng, n) for _ in range(3))
    scenarios = []
    for i in range(n):
        T = int(round(100 * 4 ** t_strata[i]))
        if i % 5 == 0:
            index = (i // 5) % 3
        else:
            g = i - i // 5 - 1
            configs.append(y_backbone(rng, triples[g % 64], T, rates=(1, 2),
                                      extra_pairs=g % 4))
            index = len(configs) - 1
        scenarios.append([index, model_strata[i], pattern_strata[i], T])
    return {"configs": configs, "scenarios": scenarios}


def _montecarlo_solutions(rng) -> list[tuple[dict, list]]:
    """Generated Ys with (model, Z gateway, pattern, T), one per entry of
    MC_UNIT_TARGETS, whose verified timeline has that many units to within
    MC_UNIT_SLACK and whose COM lies in [0.5, 0.999], so the 3-sigma check
    has power.  Replay time grows with the unit count, so pinning the
    counts keeps the cost of each operation, and with it the run's median,
    alike across seeds.  The unit count grows about in proportion to T, so
    a candidate that misses is solved again once at T scaled towards the
    nearest open target.  Candidates that fail to solve are skipped."""
    found: dict[int, tuple[dict, list]] = {}
    for _ in range(1000):
        T = rng.randint(60, 140)
        lengths = tuple(rng.randint(2, 5) for _ in range(3))
        raw = y_backbone(rng, lengths, T, rates=(1, 2),
                         extra_pairs=rng.randint(0, 2))
        topology = yslot.validate_topology(raw)
        model = rng.choice(yslot.enumerate_path_models(topology))
        pattern = rng.choice(yslot.patterns_for(model)).pattern_id
        for _retry in range(2):
            try:
                sol = yslot.solve_pattern(model, pattern, T)
                units = len(yslot.solution_timeline(sol).units)
            except (yslot.ConvergenceError, yslot.timeline.TimelineError):
                break
            open_slots = [i for i in range(len(MC_UNIT_TARGETS)) if i not in found]
            near = min(open_slots, key=lambda i: abs(units - MC_UNIT_TARGETS[i]))
            if abs(units - MC_UNIT_TARGETS[near]) <= MC_UNIT_SLACK:
                if 0.5 <= sol.com_product <= 0.999:
                    found[near] = (dict(raw, cycle_slots=T),
                                   [model.name, model.no_sep_branch, pattern, T])
                break
            T = round(T * MC_UNIT_TARGETS[near] / units)
        if len(found) == len(MC_UNIT_TARGETS):
            return [found[i] for i in range(len(MC_UNIT_TARGETS))]
    raise RuntimeError("montecarlo: unit targets not met in 1000 candidates")


# ---------------------------------------------------------------------------
# output checks shared by the solver workloads


def solution_problems(sol, T: int) -> list[str]:
    out = []
    if not 0.0 <= sol.com_product <= sol.tub_product + 1e-12:
        out.append(f"COM {sol.com_product!r} outside [0, TUB {sol.tub_product!r}]")
    for plan in sol.plans:
        serial = sum(b.count for b in plan.serialized)
        early = sum(b.count for b in plan.early)
        if serial + plan.window > T:
            out.append(f"group {plan.label}: serialized {serial} + window "
                       f"{plan.window} > T={T}")
        if early > plan.window:
            out.append(f"group {plan.label}: early {early} > window {plan.window}")
    return out


def timeline_problems(sol, timeline) -> list[str]:
    topology = sol.model.topology
    report = yslot.verify_timeline(timeline, yslot.derive_conflicts(topology),
                                   sol.cycle_slots, sol.allocation.entries)
    return [f"timeline {v.kind} at slot {v.slot}: {v.detail}"
            for v in report.violations]


def solution_row(sol) -> str:
    return (f"{sol.model.name},{sol.model.no_sep_branch},{sol.pattern.pattern_id},"
            f"{sol.com_product!r},{sol.tub_product!r}")


# ---------------------------------------------------------------------------
# set-up and operations


def setup(spec: dict) -> list[list[Op]]:
    make = {"paper8": _setup_paper8, "ladder": _setup_ladder,
            "longframe": _setup_longframe,
            "montecarlo": _setup_montecarlo}[spec["workload"]]
    return make(spec)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = yslot.cli.main(argv)
    return code, buf.getvalue()


def _setup_paper8(spec: dict) -> list[list[Op]]:
    topologies = [yslot.validate_topology(yslot.load_config(p))
                  for p in spec["configs"]]
    ops = []
    for kind, c, arg in spec["ops"]:
        path = spec["configs"][c]
        if kind == "optimize":
            ops.append(_paper8_optimize(path, arg))
        else:
            grid = os.path.join(spec["workdir"], f"grid-p{arg}.txt")
            ops.append(_paper8_solve(path, topologies[c], arg, grid))
    return [ops]


def _paper8_optimize(path: str, T: int) -> Op:
    def call():
        return _cli(["optimize", "-c", path, "--t-slots", str(T)])

    def inspect(out) -> Outcome:
        code, text = out
        rows = list(csv.DictReader(io.StringIO(text)))
        problems = [] if code == 0 else [f"exit code {code}"]
        if not rows:
            problems.append("no solutions")
        coms = []
        for row in rows:
            com, tub = float(row["com"]), float(row["tub"])
            coms.append(com)
            if not 0.0 <= com <= tub + 1e-12:
                problems.append(f"{row['model']}/p{row['pattern']}: COM {com!r} "
                                f"outside [0, TUB {tub!r}]")
        if coms != sorted(coms, reverse=True):
            problems.append("rows not ranked by COM")
        return Outcome(problems, text, solutions=len(rows))

    return Op(f"optimize {Path(path).name} T={T}", call, inspect)


def _paper8_solve(path: str, topology, pattern: int, grid: str) -> Op:
    argv = ["solve", "-c", path, "--model", "3-2-3", "--no-sep-branch", "11",
            "--pattern", str(pattern), "--t-slots", "30", "--emit-timeline", grid]

    def call():
        code, text = _cli(argv)
        return code, text, Path(grid).read_text()

    def inspect(out) -> Outcome:
        code, text, grid_text = out
        problems = [] if code == 0 else [f"exit code {code}"]
        rows = {r["row"]: r for r in csv.DictReader(io.StringIO(text))}
        tub, com = rows["TUB"], rows["COM"]
        for name, want in PAPER_TUB[pattern].items():
            if abs(float(tub[name]) - want) > 1e-3:
                problems.append(f"TUB {name} = {tub[name]}, paper {want}")
        # the library solution behind the CLI output: plans and timeline
        sol = yslot.solve_pattern(yslot.find_model(topology, "3-2-3", 11),
                                  pattern, 30)
        problems += solution_problems(sol, 30)
        if float(com["product"]) != sol.com_product \
                or float(tub["product"]) != sol.tub_product:
            problems.append("CLI products differ from the library solution")
        timeline = yslot.solution_timeline(sol)
        if grid_text != "\n".join(timeline.to_lines()) + "\n":
            problems.append("emitted timeline differs from the library timeline")
        problems += timeline_problems(sol, timeline)
        return Outcome(problems, text + grid_text, solutions=1)

    return Op(f"solve 3-2-3 p{pattern} T=30", call, inspect)


def _setup_ladder(spec: dict) -> list[list[Op]]:
    ops = []
    for raw in spec["configs"]:
        topology = yslot.validate_topology(raw)
        ops.append(_ladder_op(topology))
    return [ops]


def _ladder_op(topology) -> Op:
    T = topology.cycle_slots

    def call():
        return yslot.optimize(topology)

    def inspect(sols) -> Outcome:
        problems = []
        for sol in sols:
            problems += solution_problems(sol, T)
        coms = [s.com_product for s in sols]
        if coms != sorted(coms, reverse=True):
            problems.append("solutions not ranked by COM")
        text = "\n".join(solution_row(s) for s in sols)
        return Outcome(problems, text, solutions=len(sols))

    sizes = "-".join(str(len(b.nodes)) for b in topology.branches)
    return Op(f"optimize Y({sizes}) T={T}", call, inspect)


def _setup_longframe(spec: dict) -> list[list[Op]]:
    topologies = [yslot.validate_topology(raw) for raw in spec["configs"]]
    models: dict[int, list] = {}
    rounds = []
    for n, (index, u_model, u_pattern, T) in enumerate(spec["scenarios"]):
        if index not in models:
            models[index] = yslot.enumerate_path_models(topologies[index])
        model = _pick(models[index], u_model)
        pattern = _pick(yslot.patterns_for(model), u_pattern)
        rounds.append([_longframe_op(n, model, pattern, T)])
    return rounds


def _longframe_op(n: int, model, pattern, T: int) -> Op:
    def call():
        sol = yslot.solve_pattern(model, pattern, T)
        return sol, yslot.solution_timeline(sol)

    def inspect(out) -> Outcome:
        sol, timeline = out
        problems = solution_problems(sol, T) + timeline_problems(sol, timeline)
        text = solution_row(sol) + "\n" + "\n".join(timeline.to_lines())
        return Outcome(problems, text, solutions=1)

    return Op(f"#{n} {model.name}/{model.no_sep_branch} p{pattern.pattern_id} "
              f"T={T}", call, inspect)


def _setup_montecarlo(spec: dict) -> list[list[Op]]:
    ops = []
    dedicated: dict[int, object] = {}
    for i, (index, name, z, pattern, T) in enumerate(spec["solves"]):
        topology = yslot.validate_topology(spec["configs"][index])
        sol = yslot.solve_pattern(yslot.find_model(topology, name, z), pattern, T)
        timeline = yslot.solution_timeline(sol)
        for reuse in (False, True):
            ops.append(_montecarlo_op(i, sol, timeline, spec["trials"],
                                      spec["sim_seeds"][i], reuse, dedicated))
    return [ops]


def _montecarlo_op(i: int, sol, timeline, trials: int, seed: int, reuse: bool,
                   dedicated: dict) -> Op:
    """simulate, plus compare against the analytic per-node COM in dedicated
    mode (the analytic model has no slot reuse, as in the CLI)."""
    topology = sol.model.topology
    tx = trials * len(timeline.units)

    def call():
        report = yslot.simulate(timeline, topology, trials, seed, reuse=reuse)
        checks = None if reuse else yslot.compare(report, sol.allocation.per_node)
        return report, checks

    def inspect(out) -> Outcome:
        report, checks = out
        counts = report.per_node_counts
        text = f"{report.all_rate!r} " + json.dumps(sorted(counts.items()))
        if reuse:
            # identical draws, and reuse only adds deliveries
            base = dedicated.get(i)
            problems = [] if base is None else [
                f"node {n}: reuse delivered {counts[n]} < dedicated {base[n]}"
                for n in counts if counts[n] < base[n]]
            return Outcome(problems, text, tx=tx)
        dedicated[i] = counts
        return Outcome(_three_sigma_problems(sol, timeline, report, checks),
                       text, tx=tx)

    mode = "reuse" if reuse else "dedicated"
    return Op(f"simulate #{i} {sol.model.name} {mode}", call, inspect)


THREE_SIGMA_TAIL = 0.00135  # one-sided normal tail beyond 3 sigma
NORMAL_MIN = 10.0  # trials * p * (1 - p) from which the normal test holds


def beyond_three_sigma(rate: float, p: float, trials: int) -> bool:
    """Is an empirical rate over `trials` Bernoulli trials beyond 3 sigma
    of p?  Where trials * p * (1 - p) < NORMAL_MIN the normal approximation
    behind `compare`'s z fails: a node with p = 1 - 5e-7 expects 0.05
    misses in 1e5 trials, so a single miss reads as z = 4.  There the count
    of the rarer outcome is tested against its Poisson tail at the same
    one-sided level instead."""
    if trials * p * (1.0 - p) >= NORMAL_MIN:
        return abs(rate - p) > 3.0 * math.sqrt(p * (1.0 - p) / trials)
    rare = min(p, 1.0 - p)
    lam = trials * rare
    k = round(trials * (rate if p <= 0.5 else 1.0 - rate))
    if lam == 0.0:
        return k > 0

    def pmf(i: int) -> float:
        return math.exp(i * math.log(lam) - lam - math.lgamma(i + 1))

    below = sum(pmf(i) for i in range(k + 1))  # P(X <= k)
    return below < THREE_SIGMA_TAIL or 1.0 - below + pmf(k) < THREE_SIGMA_TAIL


def _flagged(sol, report, checks) -> set:
    """Nodes, and "all" for every packet, beyond 3 sigma of the analytic COM."""
    out = {c.node for c in checks
           if beyond_three_sigma(c.empirical, c.analytic, report.trials)}
    if beyond_three_sigma(report.all_rate, sol.com_product, report.trials):
        out.add("all")
    return out


def _three_sigma_problems(sol, timeline, report, checks) -> list[str]:
    """One run compares ~10-30 rates, so a single 3-sigma test would flag a
    correct program in a few percent of runs; a flag counts only when a
    rerun on an independent seed flags the same rate again."""
    first = _flagged(sol, report, checks)
    if not first:
        return []
    rerun = yslot.simulate(timeline, sol.model.topology, report.trials,
                           report.seed + 1)
    again = _flagged(sol, rerun, yslot.compare(rerun, sol.allocation.per_node))
    return [f"node {n}: empirical rate beyond 3 sigma on two seeds"
            for n in sorted(first & again, key=str)]
