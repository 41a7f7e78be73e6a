import contextlib
import functools
import importlib.resources
import json
import math

import numpy as np
import pytest

import yslot.allocate
from yslot import validate_topology
from yslot.allocate import Structure, _chain_uses, _greedy_int
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


def solve_plain_chain(chain, budget):
    """Relaxed optimum of a chain's serialized budget (every route hop of
    every origin is a budget use)."""
    uses = [Use(o.node, link, q, o.rate) for o in chain.origins
            for link, q in o.route]
    return solve_plain_structure(uses, budget)


def plain_greedy(chain, budget: int) -> dict:
    """Greedy integer slot map of a chain's plain serialized budget."""
    plain = Structure("plain", "plain", _chain_uses(chain), (), ())
    return _greedy_int(plain, budget)[0]


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


def product_from_totals(topology, model, totals: dict) -> float:
    """Delivery product of a reference row, evaluated from slot totals."""
    log_m = 0.0
    for node in topology.nodes:
        for link in model.route(node):
            q = topology.links[link].loss
            s = totals.get((node, link), 0)
            if s <= 0:
                return 0.0
            log_m += math.log1p(-q ** s)
    return math.exp(log_m)
