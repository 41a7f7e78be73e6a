"""Seeded generator of Y-shaped backbone configs for the benchmark.

yslot only ever sees the config dicts this module returns; the shipped
8-node example configs are loaded unmodified.
"""

from __future__ import annotations

import random

LOSS_RANGE = (0.05, 0.55)


def workload_rng(workload: str, seed: int) -> random.Random:
    """Independent, reproducible stream per (workload, seed)."""
    return random.Random(f"{workload}:{seed}")


def y_backbone(rng: random.Random, lengths: tuple[int, int, int],
               cycle_slots: int, rates: tuple[int, int] = (1, 1),
               extra_pairs: int = 0) -> dict:
    """Config for a Y with the given branch node counts (each >= 1).

    The central node is id 1, branch nodes are numbered outward branch by
    branch, gateways come last.  Link losses are uniform in LOSS_RANGE and
    node rates uniform in `rates`.  Proximity holds every link's endpoints
    and every two-hop pair, plus `extra_pairs` random pairs beyond that.
    """
    if len(lengths) != 3 or min(lengths) < 1:
        raise ValueError(f"need three branches of >= 1 node, got {lengths}")
    n_nodes = 1 + sum(lengths)
    links: list[dict] = []
    neighbours: dict[int, list[int]] = {}

    def link(a: int, b: int) -> None:
        links.append({"id": len(links) + 1, "a": a, "b": b,
                      "loss": round(rng.uniform(*LOSS_RANGE), 4)})
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)

    node_id = 2
    gateways = []
    for index, length in enumerate(lengths):
        prev = 1
        for _ in range(length):
            link(prev, node_id)
            prev = node_id
            node_id += 1
        gateway = n_nodes + 1 + index
        gateways.append(gateway)
        link(prev, gateway)

    proximity = {tuple(sorted((l["a"], l["b"]))) for l in links}
    for nbs in neighbours.values():
        for i, a in enumerate(nbs):
            for b in nbs[i + 1:]:
                proximity.add(tuple(sorted((a, b))))
    ids = list(range(1, n_nodes + 1)) + gateways
    spare = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
             if (a, b) not in proximity]
    proximity.update(rng.sample(spare, min(extra_pairs, len(spare))))

    return {
        "cycle_slots": cycle_slots,
        "nodes": [{"id": n, "rate": rng.randint(*rates)}
                  for n in range(1, n_nodes + 1)],
        "gateways": [{"id": g} for g in gateways],
        "links": links,
        "proximity": [list(p) for p in sorted(proximity)],
    }
