import contextlib
import functools
import importlib.resources
import json
import math

import numpy as np
import pytest

import yslot.allocate
from yslot import relaxed_table, solve_pattern, validate_topology
from yslot.allocate import (LossTables, Origin, Structure, _chain_uses,
                            _delivery_product, _greedy_int)
from yslot.relax import Use, solve_plain_structure


def gfun(q: float, x: float) -> float:
    """Closed-form marginal log-gain of x slots: G(q, x) = -q^x log q / (1 - q^x)."""
    lq = math.log(q)
    return -lq / math.expm1(-x * lq)


def ffun(q: float, y: float) -> float:
    """Closed-form inverse of G in x: F(q, y) = -log(1 - y log q) / log q,
    so that G(q, F(q, y)) = 1/y."""
    lq = math.log(q)
    return math.log1p(-y * lq) / (-lq)


def load_case_raw(case: int) -> dict:
    text = importlib.resources.files("yslot").joinpath(
        f"data/example8_case{case}.json").read_text()
    return json.loads(text)


def branch_config(lengths: tuple[int, int, int], cycle_slots: int = 30) -> dict:
    """A Y config with branches of the given node counts, where 0 links the
    central node (id 1) straight to a gateway.  Branch nodes are numbered
    outward branch by branch, the three gateways come last; every loss is
    0.3 and proximity holds the links' endpoints."""
    n_nodes = 1 + sum(lengths)
    links, node = [], 2
    for index, length in enumerate(lengths):
        prev = 1
        for _ in range(length):
            links.append((prev, node))
            prev, node = node, node + 1
        links.append((prev, n_nodes + 1 + index))
    return {
        "cycle_slots": cycle_slots,
        "nodes": [{"id": n} for n in range(1, n_nodes + 1)],
        "gateways": [{"id": n_nodes + 1 + i} for i in range(3)],
        "links": [{"id": i + 1, "a": a, "b": b, "loss": 0.3}
                  for i, (a, b) in enumerate(links)],
        "proximity": [list(pair) for pair in links],
    }


@pytest.fixture(scope="session")
def case1_raw():
    return load_case_raw(1)


@pytest.fixture(scope="session")
def case1():
    return validate_topology(load_case_raw(1))


@pytest.fixture(scope="session")
def case2():
    return validate_topology(load_case_raw(2))


@pytest.fixture(scope="session")
def case3():
    return validate_topology(load_case_raw(3))


@pytest.fixture(scope="session")
def all_cases(case1, case2, case3):
    return {1: case1, 2: case2, 3: case3}


# Reference slot tables for the 3-2-3 model at T=30 under case-1 losses.
TABLE_P1_TUB = {
    "s[1,1]": 5.5001, "s'[1,1]": 0.0, "s[2,1]": 5.5001, "s'[2,1]": 0.0,
    "s[2,2]": 3.9999, "s'[2,2]": 0.0, "s[3,1]": 5.5001, "s[3,2]": 3.9999,
    "s[3,3]": 5.5001, "s[4,8]": 3.4322, "s[4,9]": 6.7617, "s[4,10]": 4.3481,
    "s[5,6]": 11.8741, "s[5,7]": 9.0630, "s[6,7]": 9.0630, "s'[6,7]": 0.0,
    "s[7,9]": 0.0, "s'[7,9]": 6.7617, "s[7,10]": 3.5839, "s'[7,10]": 0.7642,
    "s[8,10]": 0.0, "s'[8,10]": 4.3481,
}
TABLE_P1_COM = {
    "s[1,1]": 5, "s'[1,1]": 0, "s[2,1]": 5, "s'[2,1]": 0,
    "s[2,2]": 4, "s'[2,2]": 0, "s[3,1]": 6, "s[3,2]": 4,
    "s[3,3]": 6, "s[4,8]": 3, "s[4,9]": 7, "s[4,10]": 4,
    "s[5,6]": 12, "s[5,7]": 9, "s[6,7]": 9, "s'[6,7]": 0,
    "s[7,9]": 0, "s'[7,9]": 7, "s[7,10]": 4, "s'[7,10]": 1,
    "s[8,10]": 0, "s'[8,10]": 4,
}
TABLE_P2_TUB = {
    "s[1,1]": 5.5001, "s'[1,1]": 0.0, "s[2,1]": 5.5001, "s'[2,1]": 0.0,
    "s[2,2]": 0.5677, "s'[2,2]": 3.4322, "s[3,1]": 5.5001, "s[3,2]": 3.9999,
    "s[3,3]": 5.5001, "s[4,8]": 3.4322, "s[4,9]": 6.7617, "s[4,10]": 4.3481,
    "s[5,6]": 11.8741, "s[5,7]": 9.0630, "s[6,7]": 5.6307, "s'[6,7]": 3.4322,
    "s[7,9]": 6.7617, "s'[7,9]": 0.0, "s[7,10]": 4.3481, "s'[7,10]": 0.0,
    "s[8,10]": 4.3481, "s'[8,10]": 0.0,
}
TABLE_P2_COM = {
    "s[1,1]": 5, "s'[1,1]": 0, "s[2,1]": 5, "s'[2,1]": 0,
    "s[2,2]": 1, "s'[2,2]": 4, "s[3,1]": 5, "s[3,2]": 4,
    "s[3,3]": 6, "s[4,8]": 4, "s[4,9]": 7, "s[4,10]": 4,
    "s[5,6]": 12, "s[5,7]": 9, "s[6,7]": 5, "s'[6,7]": 4,
    "s[7,9]": 7, "s'[7,9]": 0, "s[7,10]": 4, "s'[7,10]": 0,
    "s[8,10]": 4, "s'[8,10]": 0,
}


def slot_key(name: str) -> tuple[int, int, int, bool]:
    """Typed slot-table key (node, k, link, early) of a reference name such
    as "s'[7,10]" (rate-1 nodes, so k = 1)."""
    node, link = (int(x) for x in name[name.index("[") + 1:-1].split(","))
    return (node, 1, link, name.startswith("s'"))


def table_totals(table: dict) -> dict:
    """Collapse a reference slot row into per-(node, link) slot totals."""
    totals: dict[tuple[int, int], float] = {}
    for name, value in table.items():
        node, _k, link, _early = slot_key(name)
        totals[(node, link)] = totals.get((node, link), 0) + value
    return totals


def solve_plain_chain(origins, budget):
    """Relaxed optimum of a chain's serialized budget (every route hop of
    every origin is a budget use)."""
    uses = [Use(o.node, link, q, o.rate) for o in origins
            for link, q in o.route]
    return solve_plain_structure(uses, budget)


def plain_greedy(origins, budget: int) -> dict:
    """Greedy integer slot map of a chain's plain serialized budget."""
    plain = Structure("plain", "plain", _chain_uses(origins), (), ())
    return _greedy_int(plain, budget, LossTables())[0]


@contextlib.contextmanager
def recorded_residuals():
    """Residual of every relaxed solve the allocation layer makes inside
    the block."""
    seen = []
    names = ("solve_plain_structure", "solve_rider_terminal", "solve_rider_feeders")
    originals = {name: getattr(yslot.allocate, name) for name in names}

    def recording(solver):
        def solve(*args):
            result = solver(*args)
            seen.append(result.residual)
            return result
        return solve

    try:
        for name, solver in originals.items():
            setattr(yslot.allocate, name, recording(solver))
        yield seen
    finally:
        for name, solver in originals.items():
            setattr(yslot.allocate, name, solver)


@functools.lru_cache(maxsize=None)
def compositions(n: int, total: int) -> np.ndarray:
    """All nonneg integer vectors of length n with sum <= total (read-only,
    shared between callers)."""
    rows = []

    def rec(prefix, remaining):
        if len(prefix) == n - 1:
            for v in range(remaining + 1):
                rows.append(prefix + [v])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v)

    rec([], total)
    out = np.array(rows, dtype=np.int16)
    out.flags.writeable = False
    return out


def model_routes(model) -> dict[int, tuple[int, ...]]:
    """node -> link ids toward its gateway over a model's three groups, in
    group order."""
    return {node: route for label in ("X", "Y", "Z")
            for node, route in model.group_routes(label)}


def com_probability(entries: dict, model) -> tuple[dict[int, float], float]:
    """Reference per-node delivery probability and overall product of a
    slot table: sum each packet hop's slots across the early flag, then
    multiply (1 - q^slots) over each node's packets and route links."""
    topo = model.topology
    totals: dict[tuple[int, int, int], int] = {}
    for (node, k, link, _early), v in entries.items():
        totals[(node, k, link)] = totals.get((node, k, link), 0) + v
    per_node, losses, routes = {}, LossTables(), model_routes(model)
    for node in topo.nodes:
        route = tuple((lid, topo.links[lid].loss) for lid in routes[node])
        per_node[node] = _delivery_product(
            [Origin(node, topo.rates[node], route)], totals, losses)[0]
    return per_node, math.prod(per_node.values())


def product_from_totals(topology, model, totals: dict) -> float:
    """Delivery product of a reference row, evaluated from slot totals."""
    log_m, routes = 0.0, model_routes(model)
    for node in topology.nodes:
        for link in routes[node]:
            q = topology.links[link].loss
            s = totals.get((node, link), 0)
            if s <= 0:
                return 0.0
            log_m += math.log1p(-q ** s)
    return math.exp(log_m)


def solved_alone(sol):
    """`sol` itself when it keeps its group steps (from `solve_pattern`),
    else, for an `optimize` row, its pattern solved alone: one solve then
    serves every read of the row's details."""
    if sol._steps is not None:
        return sol
    return solve_pattern(sol.model, sol.pattern, sol.cycle_slots)


def row_fields(sol) -> tuple:
    """A solved pattern's own values, bit for bit: the two products as hex,
    case label, window and per-node COM (hex)."""
    return (sol.com_product.hex(), sol.tub_product.hex(), sol.case_label,
            sol.window, [(node, p.hex()) for node, p in sol.per_node.items()])


def solution_fields(sol, relaxed: bool = True) -> tuple:
    """Every value a solved pattern reports, in order and bit for bit: its
    `row_fields`, then, read from one `solved_alone`, the slot table, its
    per-node COM, the group steps (structure, relaxed optimum, labels, plan,
    last ends and the group's COM values) and, with `relaxed`, the TUB table
    and real windows of `relaxed_table`."""
    alone = solved_alone(sol)
    out = row_fields(sol) + (
        list(alone.allocation.entries.items()),
        [(node, p.hex()) for node, p in alone.allocation.per_node.items()],
        alone.steps)
    if relaxed:
        out += tuple([(key, v.hex()) for key, v in table.items()]
                     for table in relaxed_table(alone))
    return out


def assert_optimize_matches_solve_pattern(solutions, cycle_slots: int) -> None:
    """Each row of one `optimize` equals its pattern solved alone.  A row's
    details are that lone solve, made anew on each read, so what the shared
    group table decides is the row's own values: they must match bit for
    bit."""
    for sol in solutions:
        fresh = solve_pattern(sol.model, sol.pattern, cycle_slots)
        assert row_fields(sol) == row_fields(fresh), \
            (sol.model.name, sol.model.no_sep_branch, sol.pattern.pattern_id)
