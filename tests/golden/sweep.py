"""Differential sweep: pin every solver output over a seeded set of Ys.

    PYTHONPATH=src python tests/golden/sweep.py --check   # every block
    PYTHONPATH=src python tests/golden/sweep.py --write   # re-pin (review why)

`SCENARIOS` generated Y configs, each with its own cycle length T, are
split into blocks of `BLOCK` scenarios, and `sweep.json` next to this
script holds one SHA-256 digest per block.  A scenario's record is every
`optimize` solution in rank order: the model, no-sep branch and pattern,
both products as hex, the COM slot table and per-node COM (hex), the case
label and window, the `relaxed_table` entries and real windows (hex), and
the verified timeline's `to_lines()`; a row's slot table, TUB table and
timeline come from one solve of its pattern alone.  Only output values are
hashed, never type or field names, so a refactor that keeps every output
keeps every digest.  A scenario whose relaxed solve fails to bracket its root records
that it raised.  Beside the digest, not hashed, every solution's COM must
stay within its TUB, com <= tub * (1 + 1e-12), and the per-node COM of
each solution whose per-node COMs are all positive must equal the exact
delivery probability of its timeline (`exact_delivery`) to 1e-12 relative.
That holds feasible solutions and those whose product underflows to 0.0.

Scenarios have branches of 1-8 nodes, rates 1-3, 0-3 extra proximity
pairs, T from 8 to 400 (one in `LONG_EVERY` at 1000), and in one of
`BOUND_EVERY` every loss is drawn from the smallest and largest values
validation admits, mixed with ordinary ones.  `tests/test_golden.py`
checks the `TIER1_BLOCKS` slice; `--check` runs the full set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

from yslot import (ConvergenceError, optimize, relaxed_table,
                   solution_timeline, solve_pattern, validate_topology)

DIGESTS = Path(__file__).resolve().parent / "sweep.json"

SEED = 20261019
SCENARIOS = 64
BLOCK = 2
# about 1.5 s; a winner of every structure (caseA from 19, case2 from 29),
# and bound losses in 29
TIER1_BLOCKS = (8, 12, 19, 29)
LONG_EVERY = 16
BOUND_EVERY = 4
BOUND_LOSSES = (5e-324, 1e-300, 1 - 2 ** -53)


def scenario_configs() -> list[dict]:
    """The seeded scenario list, in block order."""
    rng = random.Random(SEED)
    return [generated_y(rng, bound=i % BOUND_EVERY == BOUND_EVERY - 1,
                        long=i % LONG_EVERY == LONG_EVERY - 1)
            for i in range(SCENARIOS)]


def generated_y(rng: random.Random, bound: bool, long: bool) -> dict:
    """A Y with branches of 1-8 nodes, central node id 1 and gateways last;
    proximity holds the link endpoints, the central node's neighbour pairs
    and 0-3 random extra pairs."""
    lengths = [rng.randint(1, 8) for _ in range(3)]
    n_nodes = 1 + sum(lengths)
    links, centre_nbs, node = [], [], 2
    for index, length in enumerate(lengths):
        prev = 1
        centre_nbs.append(node)
        for _ in range(length):
            links.append((prev, node))
            prev, node = node, node + 1
        links.append((prev, n_nodes + 1 + index))
    proximity = {tuple(sorted(pair)) for pair in links}
    proximity.update((a, b) for a in centre_nbs for b in centre_nbs if a < b)
    ids = range(1, n_nodes + 4)
    spare = [(a, b) for a in ids for b in ids if a < b and (a, b) not in proximity]
    proximity.update(rng.sample(spare, rng.randint(0, 3)))

    def loss() -> float:
        if bound and rng.random() < 0.5:
            return rng.choice(BOUND_LOSSES)
        return round(rng.uniform(0.05, 0.6), 3)

    return {
        "cycle_slots": 1000 if long else rng.randint(8, 400),
        "nodes": [{"id": n, "rate": rng.randint(1, 3)}
                  for n in range(1, n_nodes + 1)],
        "gateways": [{"id": g} for g in range(n_nodes + 1, n_nodes + 4)],
        "links": [{"id": i + 1, "a": a, "b": b, "loss": loss()}
                  for i, (a, b) in enumerate(links)],
        "proximity": [list(p) for p in sorted(proximity)],
    }


def exact_delivery(sol, runs) -> dict[int, float]:
    """Probability per origin node that every packet it generates reaches
    its gateway over the placed runs, in the dedicated-slot model that
    `simulate` replays.  Each packet's route is walked hop by hop, keeping
    the mass that reached the hop's transmitter per run of the hop before.
    A run of c slots is one geometric step: the mass held at its start
    leaves in it with probability 1 - q^c, and the rest stays held.  In a
    verified timeline a hop's runs and the runs of the hop before it
    share a node, so they never overlap; the walk asserts it."""
    topology = sol.model.topology
    routes = {node: route for label in ("X", "Y", "Z")
              for node, route in sol.model.group_routes(label)}
    hops: dict[tuple, list] = {}
    for r in sorted(runs, key=lambda r: r.start):
        hops.setdefault((r.origin, r.k, r.link), []).append(r)
    out = {}
    for node, rate in topology.rates.items():
        out[node] = 1.0
        for k in range(1, rate + 1):
            arrived = [(-1, 0, 1.0)]   # (first, end, mass): reached in [first, end)
            for link in routes[node]:
                q = topology.links[link].loss
                held, nxt, i = 0.0, [], 0
                for r in hops.get((node, k, link), ()):
                    while i < len(arrived) and arrived[i][1] <= r.start:
                        held += arrived[i][2]
                        i += 1
                    end = r.start + r.count
                    assert i == len(arrived) or arrived[i][0] >= end, (node, k, link)
                    stay = q ** r.count
                    nxt.append((r.start, end, held * (1.0 - stay)))
                    held *= stay
                arrived = nxt
            out[node] *= sum(mass for _first, _end, mass in arrived)
    return out


def check_delivery(sol, runs) -> None:
    """The analytic per-node COM of a solution whose per-node COMs are all
    positive equals the exact delivery probability of its timeline to
    1e-12 relative."""
    exact = exact_delivery(sol, runs)
    for node, p in sol.per_node.items():
        assert abs(exact[node] - p) <= 1e-12 * p, (
            sol.model.name, sol.model.no_sep_branch, sol.pattern.pattern_id,
            node, exact[node].hex(), p.hex())


def solution_values(row, sol, timeline) -> list:
    """Every output value of one optimize row, floats as hex: its own
    fields, and the details of `sol`, its pattern solved alone."""
    tub_entries, windows = relaxed_table(sol)
    return [
        row.model.name, row.model.no_sep_branch, row.pattern.pattern_id,
        row.com_product.hex(), row.tub_product.hex(),
        [[*key, v] for key, v in sol.allocation.entries.items()],
        [[node, p.hex()] for node, p in row.per_node.items()],
        row.case_label, row.window,
        [[*key, v.hex()] for key, v in tub_entries.items()],
        [[label, w.hex()] for label, w in windows.items()],
        timeline.to_lines(),
    ]


def block_digest(configs: list[dict]) -> str:
    h = hashlib.sha256()
    for config in configs:
        try:
            solutions = optimize(validate_topology(config))
        except ConvergenceError:
            h.update(b"raises\n")
            continue
        for row in solutions:
            assert row.com_product <= row.tub_product * (1 + 1e-12), (
                row.model.name, row.model.no_sep_branch, row.pattern.pattern_id,
                row.com_product.hex(), row.tub_product.hex())
            sol = solve_pattern(row.model, row.pattern, row.cycle_slots)
            timeline = solution_timeline(sol)
            if all(p > 0.0 for p in row.per_node.values()):
                check_delivery(row, timeline.runs)
            h.update(json.dumps(solution_values(row, sol, timeline)).encode())
            h.update(b"\n")
        h.update(b"end\n")
    return h.hexdigest()


def blocks(configs: list[dict]) -> list[list[dict]]:
    return [configs[i:i + BLOCK] for i in range(0, len(configs), BLOCK)]


def pinned() -> list[str]:
    return json.loads(DIGESTS.read_text())["digests"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="recompute every block and compare with sweep.json")
    mode.add_argument("--write", action="store_true",
                      help="recompute every block and write sweep.json")
    args = parser.parse_args(argv)
    digests = []
    for i, block in enumerate(blocks(scenario_configs())):
        digests.append(block_digest(block))
        print(f"block {i}: {digests[-1][:16]}", file=sys.stderr)
    if args.write:
        DIGESTS.write_text(json.dumps(
            {"seed": SEED, "scenarios": SCENARIOS, "block": BLOCK,
             "digests": digests}, indent=1) + "\n")
        return 0
    moved = [i for i, (got, want) in enumerate(zip(digests, pinned()))
             if got != want]
    if moved or len(digests) != len(pinned()):
        print(f"sweep: blocks {moved} moved", file=sys.stderr)
        return 1
    print(f"sweep: {len(digests)} blocks unchanged", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
