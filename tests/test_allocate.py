import functools
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import (TABLE_P1_COM, TABLE_P1_TUB, compositions, plain_greedy,
                      product_from_totals, recorded_residuals, table_totals)
import yslot.allocate
from yslot import (enumerate_path_models, find_model, optimize, patterns_for,
                   relaxed_table, solve_pattern, validate_topology)
from yslot.allocate import (Structure, _blocked_uses, _chain_ranks, _chain_uses,
                            _delivery_product, _fill_window, _gain, _greedy_int,
                            _hideable_uses, _runs, _split_structure,
                            _transmitter_map, assign_early_slots,
                            build_group_chain, candidate_structures,
                            com_probability, early_window)
from yslot.relax import GroupChain, Origin, Use, solve_plain_structure
from yslot.timeline import place_plans
from yslot.topology import derive_conflicts

GOLDEN_YS = Path(__file__).resolve().parent / "golden" / "ys"


def chain_from_routes(routes, rates=None):
    """routes: list of ((link, q), ...) per origin, upstream first."""
    origins = tuple(Origin(100 + i, (rates or [1] * len(routes))[i], tuple(r))
                    for i, r in enumerate(routes))
    return GroupChain("g", origins)


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


def greedy_oracle(st, budget):
    """Reference linear scan: every slot rescans every entry and takes the
    first one of largest marginal gain, a host entry adding the best rider
    marginal (the first rider of largest gain)."""
    hosts = set(st.hosts)
    entries = [((u.node, k, u.link), u.q, (u.node, u.link) in hosts)
               for u in st.uses for k in range(1, u.weight + 1)]
    riders = [((u.node, k, u.link), u.q)
              for u in st.riders for k in range(1, u.weight + 1)]
    vals = {key: 0 for key, _q, _host in entries}
    rvals = {key: 0 for key, _q in riders}
    for _ in range(max(0, budget)):
        rider, rider_gain = None, 0.0
        for key, q in riders:
            g = _gain(q, rvals[key])
            if rider is None or g > rider_gain:
                rider, rider_gain = key, g
        chosen, chosen_gain, chosen_host = None, -math.inf, False
        for key, q, is_host in entries:
            g = _gain(q, vals[key])
            if is_host and rider is not None:
                g = g + rider_gain
            if g > chosen_gain:
                chosen, chosen_gain, chosen_host = key, g, is_host
        if chosen is None:
            break
        vals[chosen] += 1
        if chosen_host and rider is not None:
            rvals[rider] += 1
    return vals, rvals


def seeded_y(rng, loss):
    """A generated Y: three branches of 1-4 nodes, rates 1-3, link and
    two-hop-through-the-centre proximity plus up to three random pairs;
    `loss()` gives each link's loss rate."""
    lengths = [rng.randint(1, 4) for _ in range(3)]
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
    return validate_topology({
        "cycle_slots": 30,
        "nodes": [{"id": n, "rate": rng.randint(1, 3)}
                  for n in range(1, n_nodes + 1)],
        "gateways": [{"id": g} for g in range(n_nodes + 1, n_nodes + 4)],
        "links": [{"id": i + 1, "a": a, "b": b, "loss": loss()}
                  for i, (a, b) in enumerate(links)],
        "proximity": [list(p) for p in sorted(proximity)],
    })


def test_round_allocation_sy_golden():
    chain = chain_from_routes([[(6, 0.3), (7, 0.2)], [(7, 0.2)]])
    vals = plain_greedy(chain, 30)
    assert vals == {(100, 1, 6): 12, (100, 1, 7): 9, (101, 1, 7): 9}


def test_round_allocation_sx_golden(case1):
    model = find_model(case1, "3-2-3", 11)
    chain = build_group_chain(model, "X")
    vals = plain_greedy(chain, 30)
    # reference row: s11=5, s21=5, s31=6, s22=4, s32=4, s33=6
    assert vals == {(3, 1, 3): 6, (3, 1, 2): 4, (3, 1, 1): 6,
                    (2, 1, 2): 4, (2, 1, 1): 5, (1, 1, 1): 5}


def test_round_allocation_hand_value():
    chain = chain_from_routes([[(1, 0.5), (2, 0.5)], [(2, 0.5)]])
    vals = plain_greedy(chain, 5)
    assert sorted(vals.values()) == [1, 2, 2]
    assert alloc_product(chain, vals) == pytest.approx(0.28125, abs=1e-12)
    assert brute_force_best(chain, 5) == pytest.approx(0.28125, abs=1e-12)


def test_round_allocation_sums_exactly():
    chain = chain_from_routes(
        [[(1, 0.4), (2, 0.15), (3, 0.3)], [(2, 0.15), (3, 0.3)], [(3, 0.3)]])
    vals = plain_greedy(chain, 17)
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
                [[(l + 1, qs[l]) for l in s] for s in shape])
            for budget in (1, 4, 7, 12):
                vals = plain_greedy(chain, budget)
                mine = alloc_product(chain, vals)
                best = brute_force_best(chain, budget)
                assert mine == pytest.approx(best, abs=1e-12), (shape, qs, budget)
                checked += 1
    assert checked >= 4000


def test_heap_greedy_matches_linear_scan_oracle():
    # every structure kind on seeded Ys: losses drawn over (0.01, 0.99),
    # all equal (ties everywhere) and all at 0.01 (gains underflow to 0)
    rng = random.Random(5)
    loss_modes = [lambda: round(rng.uniform(0.01, 0.99), 4),
                  lambda: 0.3, lambda: 0.01]
    kinds = set()
    checked = 0
    for seed in range(12):
        topo = seeded_y(rng, loss_modes[seed % 3])
        conflicts = derive_conflicts(topo)
        for model in enumerate_path_models(topo)[:3]:
            for label in ("X", "Y", "Z"):
                chain = build_group_chain(model, label)
                for st in candidate_structures(model, chain, conflicts):
                    kinds.add(st.kind)
                    first = {(st.uses[0].node, st.uses[0].link)}
                    for part in (st, *_split_structure(st, first)):
                        for budget in (0, 1, 7, 60, rng.randint(100, 1000)):
                            assert _greedy_int(part, budget) == \
                                greedy_oracle(part, budget), (seed, part, budget)
                            checked += 1
    assert kinds == {"plain", "rider-terminal", "rider-feeders"}
    assert checked >= 1000


def test_round_allocation_ties_go_to_earliest_after_underflow():
    # once q**v underflows every gain is 0 and the earliest packet takes
    # every remaining slot, so the split is not the even 200/200
    chain = chain_from_routes([[(1, 0.0141)]], rates=[2])
    assert plain_greedy(chain, 400) == {(100, 1, 1): 225, (100, 2, 1): 175}


def test_greedy_can_leave_the_relaxed_solution_by_more_than_a_slot():
    chain = chain_from_routes(
        [[(1, 0.9525), (2, 0.0671), (3, 0.0975)], [(2, 0.0671), (3, 0.0975)],
         [(3, 0.0975)]], rates=[1, 3, 1])
    vals = plain_greedy(chain, 62)
    relaxed = solve_plain_structure(list(_chain_uses(chain)), 62.0)
    assert vals[(100, 1, 1)] == 39
    assert relaxed.values[(100, 1)] == pytest.approx(41.02, abs=0.01)


def test_round_allocation_gain_evaluations_stay_linear(monkeypatch):
    # the linear scan evaluates about budget x entries gains
    calls = []

    def counting(q, v):
        calls.append(v)
        return _gain(q, v)

    monkeypatch.setattr(yslot.allocate, "_gain", counting)
    chain = chain_from_routes(
        [[(1, 0.4), (2, 0.15), (3, 0.3)], [(2, 0.15), (3, 0.3)], [(3, 0.3)]],
        rates=[2, 1, 2])
    entries = sum(o.rate * len(o.route) for o in chain.origins)
    assert entries >= 10
    assert sum(plain_greedy(chain, 1000).values()) == 1000
    assert len(calls) < 1000 + 2 * entries


def test_infeasible_budget_flagged_not_raised():
    chain = chain_from_routes([[(1, 0.3), (2, 0.3)], [(2, 0.3)]])
    vals = plain_greedy(chain, 2)
    assert sum(vals.values()) == 2
    assert alloc_product(chain, vals) == 0.0


def test_per_packet_counts_differ_at_most_one():
    chain = chain_from_routes([[(1, 0.3), (2, 0.4)]], rates=[3])
    vals = plain_greedy(chain, 13)
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
    assert relaxed_table(p2)[1]["X"] == pytest.approx(3.4322, abs=1e-3)
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


def early_window_oracle(placed, group_txs, conflicts):
    """Reference scan: the latest end of a placed interval that conflicts
    with any of the group's transmitters."""
    a = 0
    for _start, end, txlink in placed:
        if end <= a:
            continue
        if any(conflicts.conflict(txlink, g) for g in group_txs):
            a = end
    return a


def blocked_uses_oracle(txmap, window, placed, conflicts):
    """Reference scan: use keys whose transmitter conflicts with an
    interval starting inside the window."""
    return {use_key for use_key, txlink in txmap.items()
            if any(start < window and conflicts.conflict(other, txlink)
                   for start, _end, other in placed)}


def test_window_scans_match_per_unit_oracle(case1, monkeypatch):
    # integer placements as coalesced runs against one interval per unit,
    # real-valued placements as they are, over the 27 case-1 solutions
    conflicts = derive_conflicts(case1)
    seen = []

    def recording(placed, group_txs, conflicts):
        seen.append(list(placed))
        return early_window(placed, group_txs, conflicts)

    monkeypatch.setattr(yslot.allocate, "early_window", recording)
    solved = 0
    for model in enumerate_path_models(case1):
        for spec in patterns_for(model):
            seen.clear()
            sol = solve_pattern(model, spec, 30)
            integer_seen = list(seen)
            seen.clear()
            windows_real = relaxed_table(sol)[1]
            real_seen = list(seen)
            solved += 1
            for i, plan in enumerate(sol.plans):
                txmap = _transmitter_map(model, build_group_chain(model, plan.label))
                runs, real = integer_seen[i], real_seen[i]
                units = [(u.slot, u.slot + 1, (u.tx, u.link))
                         for u in place_plans(case1, sol.plans[:i])]
                assert runs == [r for p in sol.plans[:i]
                                for r in _runs(place_plans(case1, [p]))]
                assert sorted((t, tx) for start, end, tx in runs
                              for t in range(start, end)) == \
                    sorted((start, tx) for start, _end, tx in units)
                txs = txmap.values()
                assert early_window(runs, txs, conflicts) == plan.window == \
                    early_window_oracle(units, txs, conflicts)
                assert early_window(real, txs, conflicts) == \
                    windows_real[plan.label] == \
                    early_window_oracle(real, txs, conflicts)
                for w in (*range(31), windows_real[plan.label]):
                    assert _blocked_uses(txmap, w, runs, conflicts) == \
                        blocked_uses_oracle(txmap, w, units, conflicts)
                    assert _blocked_uses(txmap, w, real, conflicts) == \
                        blocked_uses_oracle(txmap, w, real, conflicts)
    assert solved == 27


def test_assign_early_identity_without_window():
    chain = chain_from_routes([[(1, 0.3), (2, 0.4)], [(2, 0.4)]])
    uses = tuple(Use(o.node, l, q, o.rate) for o in chain.origins for l, q in o.route)
    st = Structure("plain", "plain", uses, (), ())
    tentative = plain_greedy(chain, 10)
    gi = assign_early_slots(chain, st, tentative, {}, 0, [], 10)
    assert gi.early == {} and gi.serialized == tentative
    assert gi.label == ""


def two_origin_chain():
    """Origin 100 (rate 2) sends over links 1 and 2, origin 101 over link 2;
    its plain structure and fill order, upstream link first."""
    chain = chain_from_routes([[(1, 0.3), (2, 0.4)], [(2, 0.4)]], rates=[2, 1])
    st = Structure("plain", "plain", _chain_uses(chain), (), ())
    hide_order = _hideable_uses(chain, st, set(), _chain_ranks(chain))
    assert hide_order == [(100, 1), (101, 2), (100, 2)]
    return chain, st, hide_order


# packet 100.1 got no slot on link 1, yet holds slots on link 2
STARVED = {(100, 1, 1): 0, (100, 2, 1): 1, (100, 1, 2): 2, (100, 2, 2): 2,
           (101, 1, 2): 1}


def test_fill_keeps_a_packet_without_its_upstream_hop_out():
    chain, st, hide_order = two_origin_chain()
    early = _fill_window(chain, STARVED, hide_order, 4)
    assert early == {(100, 2, 1): 1, (101, 1, 2): 1, (100, 2, 2): 2}
    gi = assign_early_slots(chain, st, STARVED, {}, 4, hide_order, 6)
    assert gi.label == "c4" and gi.early == early
    assert gi.serialized == {**STARVED, (100, 2, 1): 0, (101, 1, 2): 0,
                             (100, 2, 2): 0}
    # one slot more and the fill falls short, though link 2 could hold it
    assert _fill_window(chain, STARVED, hide_order, 5) == early
    assert assign_early_slots(chain, st, STARVED, {}, 5, hide_order, 6).label == "c5"


def test_split_window_keeps_a_packet_without_its_upstream_hop_out(monkeypatch):
    # the window part of a c5 split goes through the same fill; greedy
    # allocations never starve an upstream hop, so hand one in
    chain, st, hide_order = two_origin_chain()
    window_part = {**STARVED, (100, 2, 2): 1}
    greedy = _greedy_int

    def starved_window_part(part, budget):
        if part.use_keys() == set(hide_order):
            assert budget == sum(window_part.values()) == 5
            return dict(window_part), {}
        return greedy(part, budget)

    monkeypatch.setattr(yslot.allocate, "_greedy_int", starved_window_part)
    gi = assign_early_slots(chain, st, STARVED, {}, 5, hide_order, 6)
    assert gi.label == "c5"
    assert gi.early == {(100, 2, 1): 1, (101, 1, 2): 1, (100, 2, 2): 1}


@pytest.mark.parametrize("window, label", [
    (0, ""), (2, "c1"), (3, "c2"), (5, "c3"), (9, "c4"), (10, "c5")])
def test_window_regime_boundaries(window, label):
    # hide capacities 2, 3, 4 in fill order; a window equal to a capacity
    # (or to the sum of the first two, or of all) still hides
    chain, st, hide_order = two_origin_chain()
    tentative = {(100, 1, 1): 1, (100, 2, 1): 1, (101, 1, 2): 3,
                 (100, 1, 2): 2, (100, 2, 2): 2}
    gi = assign_early_slots(chain, st, tentative, {}, window, hide_order, 12)
    assert gi.label == label
    if label != "c5":
        assert sum(gi.early.values()) == window
        assert gi.totals() == tentative


def uncausal_hops(st, vals):
    """Packet hops holding slots while the packet's previous budget hop
    holds none (uses run origin by origin, route order)."""
    return [(b.node, k, b.link) for a, b in zip(st.uses, st.uses[1:])
            if a.node == b.node for k in range(1, a.weight + 1)
            if vals[(b.node, k, b.link)] > 0 and vals[(a.node, k, a.link)] == 0]


def test_greedy_allocations_are_causal():
    # every first slot has gain +inf and goes out in entry order, upstream
    # hop first, so even starved budgets never skip a packet's upstream hop
    rng = random.Random(11)
    kinds = set()
    checked = 0
    for _ in range(8):
        topo = seeded_y(rng, lambda: round(rng.uniform(0.01, 0.99), 4))
        conflicts = derive_conflicts(topo)
        for model in enumerate_path_models(topo)[:3]:
            for label in ("X", "Y", "Z"):
                chain = build_group_chain(model, label)
                ranks = _chain_ranks(chain)
                for st in candidate_structures(model, chain, conflicts):
                    kinds.add(st.kind)
                    hide = set(_hideable_uses(chain, st, set(), ranks))
                    for part in (st, *_split_structure(st, hide)):
                        for budget in (*range(25), 60, 200):
                            vals, _rvals = _greedy_int(part, budget)
                            assert uncausal_hops(part, vals) == [], (part, budget)
                            checked += 1
    assert kinds == {"plain", "rider-terminal", "rider-feeders"}
    assert checked >= 10000


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
    per_node, product = com_probability({(8, 1, 10, False): 2}, model)
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


def test_optimize_solves_one_relaxed_problem_per_group(case1):
    # ranking reads only the winning structure's relaxed product, and the
    # slot table is built on demand, so each solution costs three solves
    with recorded_residuals() as residuals:
        solutions = optimize(case1, 30)
    assert len(solutions) == 27
    assert len(residuals) == 3 * 27


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
