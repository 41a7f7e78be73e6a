import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (TABLE_P1_COM, TABLE_P1_TUB, compositions,
                      product_from_totals, table_totals)
from yslot import (GroupChain, Origin, com_probability, find_model, optimize,
                   patterns_for, round_allocation, solve_pattern,
                   validate_topology)
from yslot.allocate import (SlotAllocation, Structure, _delivery_product,
                            assign_early_slots, build_group_chain, early_window)
from yslot.relax import Use
from yslot.topology import derive_conflicts

GOLDEN_YS = Path(__file__).resolve().parent / "golden" / "ys"


def chain_from_routes(routes, budget, rates=None):
    """routes: list of ((link, q), ...) per origin, upstream first."""
    origins = tuple(Origin(100 + i, (rates or [1] * len(routes))[i], tuple(r))
                    for i, r in enumerate(routes))
    return GroupChain("g", origins, float(budget))


@functools.lru_cache(maxsize=None)
def exact_splits(n, budget):
    """Every way to split exactly `budget` slots among n hops."""
    rows = compositions(n, budget)
    return rows[rows.sum(axis=1) == budget]


def brute_force_best(chain, budget):
    """Exhaustive optimum of the integer allocation product: the best over
    every split of exactly `budget` slots among the chain's packet hops."""
    qs = np.array([q for o in chain.origins for _k in range(o.rate)
                   for _link, q in o.route])
    rows = exact_splits(len(qs), budget)
    factors = 1.0 - qs[:, None] ** np.arange(budget + 1)
    factors[:, 0] = 0.0   # a hop without a slot never delivers
    value = factors[np.arange(len(qs)), rows].prod(axis=1)
    return float(value.max())


def alloc_product(chain, vals):
    return _delivery_product(chain.origins, vals)


def test_round_allocation_sy_golden():
    chain = chain_from_routes([[(6, 0.3), (7, 0.2)], [(7, 0.2)]], 30)
    vals = round_allocation(chain, 30)
    assert vals == {(100, 1, 6): 12, (100, 1, 7): 9, (101, 1, 7): 9}


def test_round_allocation_sx_golden(case1):
    model = find_model(case1, "3-2-3", 11)
    chain = build_group_chain(model, "X", 30)
    vals = round_allocation(chain, 30)
    # reference row: s11=5, s21=5, s31=6, s22=4, s32=4, s33=6
    assert vals == {(3, 1, 3): 6, (3, 1, 2): 4, (3, 1, 1): 6,
                    (2, 1, 2): 4, (2, 1, 1): 5, (1, 1, 1): 5}


def test_round_allocation_hand_value():
    chain = chain_from_routes([[(1, 0.5), (2, 0.5)], [(2, 0.5)]], 5)
    vals = round_allocation(chain, 5)
    assert sorted(vals.values()) == [1, 2, 2]
    assert alloc_product(chain, vals) == pytest.approx(0.28125, abs=1e-12)
    assert brute_force_best(chain, 5) == pytest.approx(0.28125, abs=1e-12)


def test_round_allocation_sums_exactly():
    chain = chain_from_routes(
        [[(1, 0.4), (2, 0.15), (3, 0.3)], [(2, 0.15), (3, 0.3)], [(3, 0.3)]], 17)
    vals = round_allocation(chain, 17)
    assert sum(vals.values()) == 17


def test_round_allocation_matches_brute_force_small_grid():
    # all chain shapes with <= 3 origins and route length <= 3
    shapes = [
        [(0,)], [(0, 1)], [(0, 1, 2)],
        [(0, 1), (1,)], [(0, 1, 2), (1, 2)],
        [(0, 1, 2), (1, 2), (2,)],
    ]
    qgrid = [0.1 * i for i in range(1, 10)]
    checked = 0
    for shape in shapes:
        n_links = max(max(s) for s in shape) + 1
        for qs in itertools.product(qgrid, repeat=n_links):
            chain = chain_from_routes(
                [[(l + 1, qs[l]) for l in s] for s in shape], 12)
            for budget in (1, 4, 7, 12):
                vals = round_allocation(chain, budget)
                mine = alloc_product(chain, vals)
                best = brute_force_best(chain, budget)
                assert mine == pytest.approx(best, abs=1e-12), (shape, qs, budget)
                checked += 1
    assert checked >= 4000


def test_infeasible_budget_flagged_not_raised():
    chain = chain_from_routes([[(1, 0.3), (2, 0.3)], [(2, 0.3)]], 2)
    vals = round_allocation(chain, 2)
    assert sum(vals.values()) == 2
    assert alloc_product(chain, vals) == 0.0


def test_per_packet_counts_differ_at_most_one():
    chain = chain_from_routes([[(1, 0.3), (2, 0.4)]], 13, rates=[3])
    vals = round_allocation(chain, 13)
    assert sum(vals.values()) == 13
    for link in (1, 2):
        per_k = [vals[(100, k, link)] for k in (1, 2, 3)]
        assert max(per_k) - min(per_k) <= 1


def test_early_window_examples(case1):
    model = find_model(case1, "3-2-3", 11)
    p1 = solve_pattern(model, 1, 30)
    assert p1.windows["Z"] == 12          # max(s33*=6, s56*=12)
    p2 = solve_pattern(model, 2, 30)
    assert p2.windows["X"] == 4           # s48* = 4
    assert p2.windows["Y"] == 4
    assert p2.windows_real["X"] == pytest.approx(3.4322, abs=1e-3)
    m215 = find_model(case1, "2-1-5", 11)
    sol = solve_pattern(m215, 1, 30)
    assert all(w == 0 for w in sol.windows.values())


def test_224_window_follows_prioritized_bursts(case1):
    # the deferred two-node group waits for the feeder hop plus both bursts
    # on the link into the junction: s34 + 2*s38 with the overlap applied
    model = find_model(case1, "2-2-4", 11)
    sol = solve_pattern(model, 2, 30)
    com = sol.allocation.entries
    rider = com.get((3, 1, 4, True), 0) + com.get((3, 1, 4, False), 0)
    burst_8 = com.get((3, 1, 8, False), 0) + com.get((4, 1, 8, False), 0)
    assert sol.windows["Y"] == max(rider, com.get((8, 1, 10, False), 0)) + burst_8


def test_early_window_empty_placement(case1):
    conflicts = derive_conflicts(case1)
    assert early_window([], {(4, 8)}, conflicts) == 0


def test_assign_early_identity_without_window():
    chain = chain_from_routes([[(1, 0.3), (2, 0.4)], [(2, 0.4)]], 10)
    uses = tuple(Use(o.node, l, q, o.rate) for o in chain.origins for l, q in o.route)
    st = Structure("plain", "plain", uses, (), ())
    tentative = round_allocation(chain, 10)
    gi = assign_early_slots(chain, st, tentative, {}, 0, [], 10)
    assert gi.early == {} and gi.serialized == tentative
    assert gi.regime == "none"


def test_assign_early_c4_match_or_beat(case1):
    # data behind the reference row: a=12, node-4 bursts b8=3, b9=7, b10=4
    model = find_model(case1, "3-2-3", 11)
    sol = solve_pattern(model, 1, 30)
    assert sol.case_labels["Z"] == "c4"

    z_nodes = {4, 7, 8}
    com = sol.allocation.entries
    mine = {(n, l): com.get((n, 1, l, False), 0) + com.get((n, 1, l, True), 0)
            for n in z_nodes for l in model.route(n)}
    mine_product = product_z(case1, model, mine)

    # closed form: s'79=b9=7, s79=0, s'810=b10=4, s810=0,
    #              s'710=a-(b10+b9)=1, s710=b10-1=3
    closed_form = {(4, 8): 3, (4, 9): 7, (4, 10): 4,
                   (7, 9): 7, (7, 10): 4, (8, 10): 4}
    # the reference integer row carries one extra slot on (7, 10)
    table_row = {(4, 8): 3, (4, 9): 7, (4, 10): 4,
                 (7, 9): 7, (7, 10): 5, (8, 10): 4}
    assert mine_product >= product_z(case1, model, closed_form) - 1e-12
    assert mine_product >= product_z(case1, model, table_row) - 1e-12


def product_z(topo, model, totals):
    log_m = 0.0
    for node in sorted({n for n, _ in totals}):
        for link in model.route(node):
            s = totals.get((node, link), 0)
            if s <= 0:
                return 0.0
            log_m += math.log1p(-topo.links[link].loss ** s)
    return math.exp(log_m)


def test_com_probability_trivials(case1):
    model = find_model(case1, "3-2-3", 11)
    spec = patterns_for(model)[0]
    alloc = SlotAllocation(model, spec, {(8, 1, 10, False): 2}, {}, 0.0, True)
    per_node, product = com_probability(alloc, model)
    assert per_node[8] == pytest.approx(1 - 0.3 ** 2, abs=1e-12)  # q10 = 0.3
    assert per_node[4] == 0.0
    assert product == 0.0


def test_tub_table_row_bounds_com_row(case1):
    model = find_model(case1, "3-2-3", 11)
    tub = product_from_totals(case1, model, table_totals(TABLE_P1_TUB))
    com = product_from_totals(case1, model, table_totals(TABLE_P1_COM))
    assert com <= tub


def test_optimize_rankings(all_cases):
    def best_com(topology, name):
        model = find_model(topology, name, 11)
        return max(solve_pattern(model, s, 30).com_product
                   for s in patterns_for(model))

    coms = {case: {n: best_com(top, n) for n in ("3-2-3", "2-2-4", "2-1-5")}
            for case, top in all_cases.items()}
    assert max(coms[1], key=coms[1].get) == "3-2-3"
    assert coms[1]["2-2-4"] > coms[1]["2-1-5"]
    assert coms[2]["2-2-4"] > coms[2]["2-1-5"]
    assert max(coms[2], key=coms[2].get) == "2-2-4"

    def rank(case, name):
        ordering = sorted(coms[case], key=lambda n: -coms[case][n])
        return ordering.index(name)

    assert rank(3, "2-1-5") < rank(1, "2-1-5")


def test_optimize_orders_and_dedups(case1):
    solutions = optimize(case1, 30, no_sep_branch=11)
    assert len(solutions) == 10  # 4 two-pattern models + 2 single-pattern
    coms = [s.com_product for s in solutions]
    assert coms == sorted(coms, reverse=True)
    assert solutions[0].model.name == "3-2-3"


def test_equal_group_products_tie_exactly():
    # golden y01: both patterns of these models pick the same structure per
    # group, so their TUBs must be bit-equal and the rank falls to the
    # pattern id instead of to a rounding difference of the product order
    config = json.loads((GOLDEN_YS / "y01.json").read_text())
    solutions = optimize(validate_topology(config))
    for name, branch in (("3-1-3", 8), ("1-1-5", 10)):
        rows = [s for s in solutions
                if (s.model.name, s.model.no_sep_branch) == (name, branch)]
        assert [s.pattern.pattern_id for s in rows] == [1, 2]
        assert rows[0].com_product == rows[1].com_product
        assert rows[0].tub_product == rows[1].tub_product
        first = solutions.index(rows[0])
        assert solutions[first + 1] is rows[1]


def test_predicted_case_rule(case2):
    # case-2 losses: q10 = 0.2 < q4 = 0.3 predicts the terminal-rider case
    model = find_model(case2, "2-2-4", 11)
    sol = solve_pattern(model, 2, 30)
    assert sol.predicted["Z"] == "case2"


def test_pattern_budgets_respected(case1):
    model = find_model(case1, "3-2-3", 11)
    for pid in (1, 2):
        sol = solve_pattern(model, pid, 30)
        for plan in sol.plans:
            serial = sum(b.count for b in plan.serialized)
            early = sum(b.count for b in plan.early)
            assert serial + plan.window <= 30
            assert early <= plan.window
            if plan.window:
                assert serial == 30 - plan.window
            else:
                assert serial == 30
