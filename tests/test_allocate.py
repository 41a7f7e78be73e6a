import functools
import gc
import itertools
import json
import math
import random
import re
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import (TABLE_P1_COM, TABLE_P1_TUB,
                      assert_optimize_matches_solve_pattern, branch_config,
                      com_probability, compositions, model_routes,
                      plain_greedy, product_from_totals, recorded_residuals,
                      row_fields, solution_fields, table_totals)
import yslot.allocate
from yslot import (enumerate_path_models, find_model, optimize, patterns_for,
                   relaxed_table, solution_timeline, solve_pattern,
                   validate_topology)
from yslot.allocate import (LossTables, Origin, Structure, _chain_ranks,
                            _chain_uses, _delivery_product, _early_step, _fill,
                            _fill_order, _greedy_int, _hideable_uses, _layout,
                            _packet_order, _GroupTable, _split_structure,
                            _step_parts, _unhideable, _widen, _window_scan,
                            assign_early_slots, candidate_structures,
                            predicted_case)
from yslot.relax import Use, log1m_pow, solve_plain_structure
from yslot.timeline import place_plans, units_of
from yslot.topology import MAX_CYCLE_SLOTS, TopologyError, derive_conflicts

GOLDEN_YS = Path(__file__).resolve().parent / "golden" / "ys"


def chain_from_routes(routes, rates=None):
    """routes: list of ((link, q), ...) per origin, upstream first."""
    return tuple(Origin(100 + i, (rates or [1] * len(routes))[i], tuple(r))
                 for i, r in enumerate(routes))


@functools.lru_cache(maxsize=None)
def exact_splits(n, budget):
    """Every way to split exactly `budget` slots among n hops."""
    rows = compositions(n, budget)
    return rows[rows.sum(axis=1) == budget]


def brute_force_best(origins, budget):
    """Exhaustive optimum of the integer allocation product: the best over
    every split of exactly `budget` slots among the chain's packet hops."""
    qs = np.array([q for o in origins for _k in range(o.rate)
                   for _link, q in o.route])
    rows = exact_splits(len(qs), budget)
    factors = 1.0 - qs[:, None] ** np.arange(budget + 1)
    factors[:, 0] = 0.0   # a hop without a slot never delivers
    value = factors[np.arange(len(qs)), rows].prod(axis=1)
    return float(value.max())


def alloc_product(origins, vals):
    return _delivery_product(origins, vals, LossTables())[0]


def gain(q, v):
    """Marginal log-product gain of the (v+1)-th slot; +inf for the first."""
    return log1m_pow(q, v + 1) - log1m_pow(q, v)


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
            g = gain(q, rvals[key])
            if rider is None or g > rider_gain:
                rider, rider_gain = key, g
        chosen, chosen_gain, chosen_host = None, -math.inf, False
        for key, q, is_host in entries:
            g = gain(q, vals[key])
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


def seeded_y(rng, loss, lengths=None, cycle_slots=30):
    """A generated Y: three branches of 1-4 nodes (or of `lengths`), rates
    1-3, link and two-hop-through-the-centre proximity plus up to three
    random pairs; `loss()` gives each link's loss rate."""
    lengths = lengths or [rng.randint(1, 4) for _ in range(3)]
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
        "cycle_slots": cycle_slots,
        "nodes": [{"id": n, "rate": rng.randint(1, 3)}
                  for n in range(1, n_nodes + 1)],
        "gateways": [{"id": g} for g in range(n_nodes + 1, n_nodes + 4)],
        "links": [{"id": i + 1, "a": a, "b": b, "loss": loss()}
                  for i, (a, b) in enumerate(links)],
        "proximity": [list(p) for p in sorted(proximity)],
    })


def test_round_allocation_sy_golden():
    origins = chain_from_routes([[(6, 0.3), (7, 0.2)], [(7, 0.2)]])
    vals = plain_greedy(origins, 30)
    assert vals == {(100, 1, 6): 12, (100, 1, 7): 9, (101, 1, 7): 9}


def test_round_allocation_sx_golden(case1):
    model = find_model(case1, "3-2-3", 11)
    origins = _layout(model, "X")[0]
    vals = plain_greedy(origins, 30)
    # reference row: s11=5, s21=5, s31=6, s22=4, s32=4, s33=6
    assert vals == {(3, 1, 3): 6, (3, 1, 2): 4, (3, 1, 1): 6,
                    (2, 1, 2): 4, (2, 1, 1): 5, (1, 1, 1): 5}


def test_round_allocation_hand_value():
    origins = chain_from_routes([[(1, 0.5), (2, 0.5)], [(2, 0.5)]])
    vals = plain_greedy(origins, 5)
    assert sorted(vals.values()) == [1, 2, 2]
    assert alloc_product(origins, vals) == pytest.approx(0.28125, abs=1e-12)
    assert brute_force_best(origins, 5) == pytest.approx(0.28125, abs=1e-12)


def test_round_allocation_sums_exactly():
    origins = chain_from_routes(
        [[(1, 0.4), (2, 0.15), (3, 0.3)], [(2, 0.15), (3, 0.3)], [(3, 0.3)]])
    vals = plain_greedy(origins, 17)
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
            origins = chain_from_routes(
                [[(l + 1, qs[l]) for l in s] for s in shape])
            for budget in (1, 4, 7, 12):
                vals = plain_greedy(origins, budget)
                mine = alloc_product(origins, vals)
                best = brute_force_best(origins, budget)
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
                origins = _layout(model, label)[0]
                for st in candidate_structures(origins, conflicts):
                    kinds.add(st.kind)
                    first = {(st.uses[0].node, st.uses[0].link)}
                    for part in (st, *_split_structure(st, first)):
                        for budget in (0, 1, 7, 60, rng.randint(100, 1000)):
                            assert _greedy_int(part, budget, LossTables()) == \
                                greedy_oracle(part, budget), (seed, part, budget)
                            checked += 1
    assert kinds == {"plain", "rider-terminal", "rider-feeders"}
    assert checked >= 1000


def test_heap_greedy_rescans_hosts_only_after_a_host_step():
    # two host entries carry one rider; between host steps the free entries
    # take slots, which leave the hosts' best gain as it was
    st = Structure("rider-feeders", "case1",
                   (Use(5, 8, 0.45, 1), Use(5, 10, 0.2, 1), Use(7, 10, 0.3, 2)),
                   (Use(8, 9, 0.6, 1),), ((7, 10),))
    hosts = {(7, 1, 10), (7, 2, 10)}
    steps = []
    previous = None
    for budget in range(len(hosts) + 1, 60):
        vals, rvals = greedy_oracle(st, budget)
        assert _greedy_int(st, budget, LossTables()) == (vals, rvals), budget
        if previous is not None:
            (key,) = [k for k in vals if vals[k] != previous[k]]
            steps.append(key in hosts)
        previous = vals
    # host, then free, then host again: the cached host choice is reused
    # across free steps and replaced after each host step
    order = "".join("h" if host else "f" for host in steps)
    assert "hfh" in order and order.count("h") >= 5 and order.count("f") >= 5


def test_round_allocation_ties_go_to_earliest_after_underflow():
    # once q**v underflows every gain is 0 and the earliest packet takes
    # every remaining slot, so the split is not the even 200/200
    origins = chain_from_routes([[(1, 0.0141)]], rates=[2])
    assert plain_greedy(origins, 400) == {(100, 1, 1): 225, (100, 2, 1): 175}


def test_greedy_can_leave_the_relaxed_solution_by_more_than_a_slot():
    origins = chain_from_routes(
        [[(1, 0.9525), (2, 0.0671), (3, 0.0975)], [(2, 0.0671), (3, 0.0975)],
         [(3, 0.0975)]], rates=[1, 3, 1])
    vals = plain_greedy(origins, 62)
    relaxed = solve_plain_structure(list(_chain_uses(origins)), 62.0)
    assert vals[(100, 1, 1)] == 39
    assert relaxed.values[(100, 1)] == pytest.approx(41.02, abs=0.01)


def test_round_allocation_gain_evaluations_stay_linear(monkeypatch):
    # the linear scan evaluates about budget x entries gains; entries of one
    # loss share one loss table, so each (q, v) is evaluated at most once
    calls = []

    def counting(q, v):
        calls.append(v)
        return log1m_pow(q, v)

    monkeypatch.setattr(yslot.allocate, "log1m_pow", counting)
    origins = chain_from_routes(
        [[(1, 0.4), (2, 0.15), (3, 0.3)], [(2, 0.15), (3, 0.3)], [(3, 0.3)]],
        rates=[2, 1, 2])
    entries = sum(o.rate * len(o.route) for o in origins)
    assert entries >= 10
    assert sum(plain_greedy(origins, 1000).values()) == 1000
    assert len(calls) <= 1000


def test_infeasible_budget_flagged_not_raised():
    origins = chain_from_routes([[(1, 0.3), (2, 0.3)], [(2, 0.3)]])
    vals = plain_greedy(origins, 2)
    assert sum(vals.values()) == 2
    assert alloc_product(origins, vals) == 0.0


@pytest.mark.parametrize("cycle_slots, message", [
    (0, "cycle_slots must be >= 1"),
    (MAX_CYCLE_SLOTS + 1, f"cycle_slots {MAX_CYCLE_SLOTS + 1} is above the cap"),
    (100_000, "cycle_slots 100000 is above the cap"),
    # the config's integer rule: no truncation, no bool, no string
    (30.9, "cycle_slots 30.9 is not an integer"),
    (True, "cycle_slots True is not an integer"),
    ("30", "cycle_slots '30' is not an integer")],
    ids=["0", "cap+1", "1e5", "30.9", "True", "str30"])
@pytest.mark.parametrize("call", ["solve_pattern", "optimize"])
def test_library_cycle_outside_the_cap_raises_before_solving(
        call, cycle_slots, message, monkeypatch):
    # above the cap long chains once ran every solve and then raised
    # ConvergenceError from the relaxed solver's absolute tolerance
    topology = validate_topology(branch_config((30, 30, 30)))
    monkeypatch.setattr(yslot.allocate._GroupTable, "solve",
                        lambda *args: pytest.fail("solved outside the cap"))
    with pytest.raises(TopologyError, match=message):
        if call == "optimize":
            optimize(topology, cycle_slots)
        else:
            solve_pattern(enumerate_path_models(topology)[0], 1, cycle_slots)


@pytest.mark.parametrize("pattern, message", [
    (True, "pattern True is not an integer"),
    (1.5, "pattern 1.5 is not an integer"),
    ("2", "pattern '2' is not an integer"),
    (3, "model 3-2-3 has no pattern 3"),
    (2.0, None), (np.int64(2), None)],
    ids=["True", "1.5", "str2", "3", "2.0", "int64"])
def test_pattern_is_read_by_the_config_integer_rule(case1, pattern, message):
    # as cycle_slots: no bool, no fraction, no string; an integral value reads
    model = find_model(case1, "3-2-3", 11)
    if message is None:
        assert solve_pattern(model, pattern).pattern.pattern_id == 2
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_pattern(model, pattern)


@pytest.mark.parametrize("cycle_slots", [30.0, np.int64(30)], ids=["30.0", "int64"])
def test_library_cycle_reads_an_integral_value_as_int(case1, cycle_slots):
    model = find_model(case1, "3-2-3", 11)
    sol = solve_pattern(model, 1, cycle_slots)
    assert type(sol.cycle_slots) is int and sol.cycle_slots == 30
    assert solution_fields(sol) == solution_fields(solve_pattern(model, 1, 30))


def test_library_solves_near_the_cycle_cap():
    topology = validate_topology(branch_config((20, 20, 20), MAX_CYCLE_SLOTS))
    start = time.perf_counter()
    for model in enumerate_path_models(topology)[::300]:
        specs = patterns_for(model)
        for spec in (specs[0], specs[-1]):
            for cycle_slots in (None, MAX_CYCLE_SLOTS - 1):
                sol = solve_pattern(model, spec, cycle_slots)
                assert sol.cycle_slots == (cycle_slots or MAX_CYCLE_SLOTS)
    assert time.perf_counter() - start < 5.0


def test_per_packet_counts_differ_at_most_one():
    origins = chain_from_routes([[(1, 0.3), (2, 0.4)]], rates=[3])
    vals = plain_greedy(origins, 13)
    assert sum(vals.values()) == 13
    for link in (1, 2):
        per_k = [vals[(100, k, link)] for k in (1, 2, 3)]
        assert max(per_k) - min(per_k) <= 1


def windows(sol) -> dict[str, int]:
    """Early window of each group of a solved pattern."""
    return {plan.label: plan.window for plan in sol.plans}


def test_early_window_examples(case1):
    model = find_model(case1, "3-2-3", 11)
    p1 = solve_pattern(model, 1, 30)
    assert windows(p1)["Z"] == 12         # max(s33*=6, s56*=12)
    p2 = solve_pattern(model, 2, 30)
    assert windows(p2)["X"] == 4          # s48* = 4
    assert windows(p2)["Y"] == 4
    assert relaxed_table(p2)[1]["X"] == pytest.approx(3.4322, abs=1e-3)
    m215 = find_model(case1, "2-1-5", 11)
    sol = solve_pattern(m215, 1, 30)
    assert all(w == 0 for w in windows(sol).values())
    assert sol.window == 0 and p1.window == 12


def test_224_window_follows_prioritized_bursts(case1):
    # the deferred two-node group waits for the feeder hop plus both bursts
    # on the link into the junction: s34 + 2*s38 with the overlap applied
    model = find_model(case1, "2-2-4", 11)
    sol = solve_pattern(model, 2, 30)
    com = sol.allocation.entries
    rider = com.get((3, 1, 4, True), 0) + com.get((3, 1, 4, False), 0)
    burst_8 = com.get((3, 1, 8, False), 0) + com.get((4, 1, 8, False), 0)
    assert windows(sol)["Y"] == max(rider, com.get((8, 1, 10, False), 0)) + burst_8


def test_early_window_empty_placement(case1):
    conflicts = derive_conflicts(case1)
    assert _window_scan({}, {(4, 8): (4, 8)}, conflicts) == (0, ())


def test_widen_keeps_the_last_end():
    placed = {}
    for end in (5, 20, 8, 2.5):
        _widen(placed, (4, 8), end)
    _widen(placed, (5, 5), 7.0)
    assert placed == {(4, 8): 20, (5, 5): 7.0}


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


def window_scan_oracle(txmap, placed, conflicts):
    """Reference early window and blocked uses of a group behind [start,
    end) intervals; the blocked uses equal the oracle's set, in
    transmitter-map order."""
    window = early_window_oracle(placed, txmap.values(), conflicts)
    blocked = blocked_uses_oracle(txmap, window, placed, conflicts)
    return window, tuple(key for key in txmap if key in blocked)


def last_ends(intervals):
    """Per-transmitter last end of [start, end) intervals, written
    plainly."""
    out = {}
    for _start, end, tx in intervals:
        out[tx] = max(out.get(tx, end), end)
    return out


def unit_intervals(units):
    return [(u.start, u.start + 1, (u.tx, u.link)) for u in units]


def test_window_scans_match_per_unit_oracle(case1, monkeypatch):
    # integer placements as per-transmitter last ends against one interval
    # per unit, over the 27 case-1 solutions; the real-valued walk keeps
    # only last ends, so its oracle intervals are [0, last end), which
    # block as its true bursts do: a conflicting burst ends by the window
    conflicts = derive_conflicts(case1)
    seen = []

    def recording(placed, txmap, conflicts):
        seen.append(dict(placed))
        return _window_scan(placed, txmap, conflicts)

    monkeypatch.setattr(yslot.allocate, "_window_scan", recording)
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
            for i, (plan, step) in enumerate(zip(sol.plans, sol.steps)):
                assert dict(step.ends) == \
                    last_ends(unit_intervals(units_of(place_plans([plan]))))
                txmap = _layout(model, plan.label)[1]
                ends, real = integer_seen[i], real_seen[i]
                units = unit_intervals(units_of(place_plans(sol.plans[:i])))
                assert ends == last_ends(units)
                real_intervals = [(0.0, end, tx) for tx, end in real.items()]
                window, blocked = _window_scan(ends, txmap, conflicts)
                assert (window, blocked) == window_scan_oracle(txmap, units, conflicts)
                assert window == plan.window
                window, blocked = _window_scan(real, txmap, conflicts)
                assert (window, blocked) == \
                    window_scan_oracle(txmap, real_intervals, conflicts)
                assert window == windows_real[plan.label]
    assert solved == 27


def test_window_scan_matches_the_oracle_on_random_placements(case1):
    # every group of every model of case 1 and of a generated Y behind
    # one or two random integer or real runs of any of the topology's
    # transmitters, the scan given only their last ends: windows from 0 to
    # past 30, and blocked uses at each
    rng = random.Random(30)
    topologies = (case1, seeded_y(rng, lambda: round(rng.uniform(0.05, 0.55), 4),
                                  (4, 4, 4), 60))
    windows = set()
    for topology in topologies:
        conflicts = derive_conflicts(topology)
        txs = list(conflicts.index)
        for model in enumerate_path_models(topology):
            for label in ("X", "Y", "Z"):
                txmap = _layout(model, label)[1]
                for draw in range(20):
                    intervals = []
                    for tx in rng.sample(txs, rng.randrange(len(txs) // 2)):
                        for _run in range(1 + draw % 4 // 2):
                            start = rng.randrange(30) if draw % 2 else rng.uniform(0, 30)
                            intervals.append((start, start + (
                                rng.randrange(1, 8) if draw % 2 else rng.uniform(0.1, 8)),
                                tx))
                    scan = _window_scan(last_ends(intervals), txmap, conflicts)
                    assert scan == window_scan_oracle(txmap, intervals, conflicts)
                    windows.add(int(scan[0]))
    assert set(range(31)) <= windows


def test_assign_early_identity_without_window():
    origins = chain_from_routes([[(1, 0.3), (2, 0.4)], [(2, 0.4)]])
    uses = tuple(Use(o.node, l, q, o.rate) for o in origins for l, q in o.route)
    st = Structure("plain", "plain", uses, (), ())
    tentative = plain_greedy(origins, 10)
    table, regime = early_slots(rates_of(origins), st, tentative, {}, 0, [], 10,
                                LossTables())
    serialized, early, _rider = table_parts(table)
    assert early == {} and serialized == nonzero(tentative)
    assert regime == ""


def early_slots(rates, st, tentative, rider, window, hide_order, budget, losses):
    """A candidate's slot table and window regime behind a window, from its
    budget-T greedy: the integer early-window step (per packet hop, split
    parts by the greedy), then its table."""
    step = _early_step(st, tentative, window, budget, hide_order,
                       functools.partial(_packet_order, rates, hide_order),
                       lambda part, part_budget: yslot.allocate._greedy_int(
                           part, part_budget, losses))
    parts = _step_parts(tentative, rider, *step)
    return assign_early_slots(parts, step[1], hide_order, tentative, window)


def chain_keys(origins):
    """A chain's use keys in chain order, the order of its transmitter map."""
    return [(o.node, link) for o in origins for link, _q in o.route]


def rates_of(origins):
    return {o.node: o.rate for o in origins}


def hideable(origins, st, blocked):
    """Hideable uses of a structure behind `blocked`: the chain's fill
    order cut at its unhideable and blocked uses, as the group table cuts
    it."""
    keys, ranks = chain_keys(origins), _chain_ranks(origins)
    return _hideable_uses(_fill_order(keys, ranks), blocked | _unhideable(st, keys),
                          ranks)


def hideable_uses_oracle(origins, st, blocked, ranks):
    """Reference fill order, sorted on every call: each origin's route
    prefix of unblocked budget uses that host no rider, upstream link
    first, downstream origin first within a link."""
    use_keys = st.use_keys()
    hosts = set(st.hosts)
    order, pos = ranks
    out = []
    for o in origins:
        for link, _ in o.route:
            key = (o.node, link)
            if key in blocked or key not in use_keys or key in hosts:
                break
            out.append(key)
    out.sort(key=lambda key: (order[key[1]], -pos[key[0]], key[0]))
    return out


def transmitter_map_oracle(model, label):
    """Reference transmitter map, (origin, link) -> (tx node, link) for
    every route step of a group, read off the model's routes: each hop is
    sent by the far end of the hop before it, keys in group order, then
    route order, and the hops of one transmitter share its tuple."""
    out = {}
    txs = {}
    routes = model_routes(model)
    for node in model.group(label):
        tx = node
        for link_id in routes[node]:
            txlink = (tx, link_id)
            out[(node, link_id)] = txs.setdefault(txlink, txlink)
            tx = model.topology.links[link_id].other(tx)
    return out


def test_layout_matches_the_transmitter_map_oracle(all_cases):
    # one walk gives a group's origins, transmitter map, ranks and fill
    # order: the map equals the old per-model one in key order and values,
    # each transmitter is one shared tuple, each origin carries its model
    # route with the topology's losses, and the fill order sorts the map's
    # own key tuples
    topologies = [*all_cases.values(),
                  *(validate_topology(json.loads(path.read_text()))
                    for path in sorted(GOLDEN_YS.glob("y??.json")))]
    checked = 0
    for topology in topologies:
        for model in enumerate_path_models(topology):
            routes = model_routes(model)
            for label in ("X", "Y", "Z"):
                origins, txmap, ranks, fill = _layout(model, label)
                assert list(txmap.items()) == \
                    list(transmitter_map_oracle(model, label).items())
                assert len({id(tx) for tx in txmap.values()}) == len(set(txmap.values()))
                assert tuple(o.node for o in origins) == model.group(label)
                for o in origins:
                    assert o.rate == topology.rates[o.node]
                    assert o.route == tuple((link, topology.links[link].loss)
                                            for link in routes[o.node])
                assert ranks == _chain_ranks(origins)
                assert fill == _fill_order(txmap, ranks)
                assert sorted(fill) == sorted(txmap)
                assert {id(key) for key in fill} == {id(key) for key in txmap}
                checked += 1
    assert checked > 500


def test_hideable_uses_filter_the_fill_order_built_once(case1):
    # the group table sorts each candidate's fill order once; a step keeps
    # its unblocked route prefixes, which equals the per-call sort for
    # every blocked tuple _window_scan can give (the uses of any set of the
    # group's transmitters, in transmitter-map order), and the order holds
    # the transmitter map's own key tuples
    rng = random.Random(25)
    checked = 0
    for topo, T in ((case1, 30), (seeded_y(rng, lambda: round(rng.uniform(0.05, 0.55), 4),
                                           (4, 4, 4), 60), 60)):
        table = _GroupTable(topo, T)
        for model in enumerate_path_models(topo):
            for label in ("X", "Y", "Z"):
                size = len(table.groups)
                group = table._group(model, label)
                if len(table.groups) == size:
                    continue   # a group already checked
                uses_of: dict = {}
                for use_key, txlink in group.txmap.items():
                    uses_of.setdefault(txlink, []).append(use_key)
                ids = {id(key) for key in group.txmap}
                for st, fill in zip(group.candidates, group.fills):
                    assert {id(key) for key in fill} <= ids
                    for n in range(len(uses_of) + 1):
                        for txs in itertools.combinations(uses_of.values(), n):
                            blocked = {key for keys in txs for key in keys}
                            ordered = tuple(key for key in group.txmap if key in blocked)
                            assert _hideable_uses(fill, ordered, group.ranks) == \
                                hideable_uses_oracle(group.origins, st, blocked,
                                                     group.ranks)
                            checked += 1
    assert checked > 10000


def two_origin_chain():
    """Origin 100 (rate 2) sends over links 1 and 2, origin 101 over link 2;
    its plain structure and fill order, upstream link first."""
    origins = chain_from_routes([[(1, 0.3), (2, 0.4)], [(2, 0.4)]], rates=[2, 1])
    st = Structure("plain", "plain", _chain_uses(origins), (), ())
    hide_order = hideable(origins, st, set())
    assert hide_order == [(100, 1), (101, 2), (100, 2)]
    return origins, st, hide_order


def table_parts(table, riders=()):
    """A group's slot table as its serialized, early-window and rider slot
    counts per packet hop, each in table order."""
    rider_keys = {(u.node, u.link) for u in riders}
    parts = ({}, {}, {})
    for (n, k, l, early), v in table.items():
        parts[2 if (n, l) in rider_keys else int(early)][(n, k, l)] = v
    return parts


def nonzero(counts):
    return {key: v for key, v in counts.items() if v}


# packet 100.1 got no slot on link 1, yet holds slots on link 2
STARVED = {(100, 1, 1): 0, (100, 2, 1): 1, (100, 1, 2): 2, (100, 2, 2): 2,
           (101, 1, 2): 1}


def fill_window_oracle(origins, tentative, hide_order, window):
    """Reference integer fill: hide up to `window` tentative slots following
    the fill order; a hop enters the window only if its packet's previous
    hop did."""
    if window <= 0:
        return {}
    rates = {o.node: o.rate for o in origins}
    previous = {(o.node, link): up for o in origins
                for (up, _), (link, _) in zip(o.route, o.route[1:])}
    early = {}
    remaining = window
    for node, link in hide_order:
        up = previous.get((node, link))
        for k in range(1, rates[node] + 1):
            if remaining <= 0:
                break
            if up is not None and (node, k, up) not in early:
                continue
            take = min(tentative.get((node, k, link), 0), remaining)
            if take > 0:
                early[(node, k, link)] = take
                remaining -= take
    return early


def integer_fill(origins, tentative, hide_order, window):
    return _fill(tentative, _packet_order(rates_of(origins), hide_order, tentative), window)


def test_fill_keeps_a_packet_without_its_upstream_hop_out():
    origins, st, hide_order = two_origin_chain()
    early = integer_fill(origins, STARVED, hide_order, 4)
    assert early == {(100, 2, 1): 1, (101, 1, 2): 1, (100, 2, 2): 2}
    for window in range(8):
        assert integer_fill(origins, STARVED, hide_order, window) == \
            fill_window_oracle(origins, STARVED, hide_order, window)
    table, regime = early_slots(rates_of(origins), st, STARVED, {}, 4, hide_order, 6,
                                LossTables())
    assert regime == "c4" and table_parts(table)[1] == early
    assert table_parts(table)[0] == nonzero({**STARVED, (100, 2, 1): 0, (101, 1, 2): 0,
                                             (100, 2, 2): 0})
    # one slot more and the fill falls short, though link 2 could hold it
    assert integer_fill(origins, STARVED, hide_order, 5) == early
    assert early_slots(rates_of(origins), st, STARVED, {}, 5, hide_order, 6,
                       LossTables())[1] == "c5"


def test_split_window_keeps_a_packet_without_its_upstream_hop_out(monkeypatch):
    # the window part of a c5 split goes through the same fill; greedy
    # allocations never starve an upstream hop, so hand one in
    origins, st, hide_order = two_origin_chain()
    window_part = {**STARVED, (100, 2, 2): 1}
    greedy = _greedy_int

    def starved_window_part(part, budget, losses):
        if part.use_keys() == set(hide_order):
            assert budget == sum(window_part.values()) == 5
            return dict(window_part), {}
        return greedy(part, budget, losses)

    monkeypatch.setattr(yslot.allocate, "_greedy_int", starved_window_part)
    table, regime = early_slots(rates_of(origins), st, STARVED, {}, 5, hide_order, 6,
                                LossTables())
    assert regime == "c5"
    assert table_parts(table)[1] == {(100, 2, 1): 1, (101, 1, 2): 1, (100, 2, 2): 1}


def test_split_window_part_by_restriction_equals_the_fill():
    # case c5 keeps the window part's hops that its fill order admits; a
    # greedy at budget `window` holds exactly `window` slots, so that equals
    # filling the window from it, fill order included
    rng = random.Random(14)
    checked = 0
    for _ in range(10):
        topo = seeded_y(rng, lambda: round(rng.uniform(0.01, 0.99), 4))
        conflicts = derive_conflicts(topo)
        for model in enumerate_path_models(topo)[:3]:
            for label in ("X", "Y", "Z"):
                origins = _layout(model, label)[0]
                for st in candidate_structures(origins, conflicts):
                    uses = sorted(st.use_keys())
                    blocked = set(rng.sample(uses, rng.randrange(len(uses))))
                    hide_order = hideable(origins, st, blocked)
                    rest, hide = _split_structure(st, set(hide_order))
                    losses = LossTables()
                    empty = {key: 0 for key in _greedy_int(st, 0, losses)[0]}
                    for window in range(1, 16):
                        budget = window + rng.randrange(20)
                        table, regime = early_slots(rates_of(origins), st, empty, {}, window,
                                                    hide_order, budget, losses)
                        serialized, early, rider = table_parts(table, st.riders)
                        part = _greedy_int(hide, window, losses)[0]
                        filled = _fill(part, _packet_order(rates_of(origins), hide_order, part), window)
                        assert regime == "c5"
                        assert list(early.items()) == list(filled.items())
                        assert (serialized, rider) == tuple(
                            map(nonzero, _greedy_int(rest, budget - window, losses)))
                        checked += 1
    assert checked >= 1500
    # a window part with a starved upstream hop, restricted and filled alike
    origins, st, hide_order = two_origin_chain()
    for part in (STARVED, {**STARVED, (100, 2, 2): 1}):
        window = sum(part.values())
        _unfilled, split = _early_step(
            st, {}, window, window, hide_order,
            lambda amounts: _packet_order(rates_of(origins), hide_order, amounts),
            lambda part_st, _budget: (dict(part) if part_st.uses else {}, {}))
        assert split is not None
        early = split[1]
        assert early == _fill(part, _packet_order(rates_of(origins), hide_order, part), window)
        assert (100, 1, 2) not in early and (100, 1, 1) not in early


@pytest.mark.parametrize("window, label", [
    (0, ""), (2, "c1"), (3, "c2"), (5, "c3"), (9, "c4"), (10, "c5")])
def test_window_regime_boundaries(window, label):
    # hide capacities 2, 3, 4 in fill order; a window equal to a capacity
    # (or to the sum of the first two, or of all) still hides
    origins, st, hide_order = two_origin_chain()
    tentative = {(100, 1, 1): 1, (100, 2, 1): 1, (101, 1, 2): 3,
                 (100, 1, 2): 2, (100, 2, 2): 2}
    table, regime = early_slots(rates_of(origins), st, tentative, {}, window, hide_order, 12,
                                LossTables())
    serialized, early, _rider = table_parts(table)
    assert regime == label
    if label != "c5":
        assert sum(early.values()) == window
        assert Counter(serialized) + Counter(early) == Counter(tentative)


def uncausal_hops(st, vals):
    """Packet hops holding slots while the packet's previous budget hop
    holds none (uses run origin by origin, route order)."""
    return [(b.node, k, b.link) for a, b in zip(st.uses, st.uses[1:])
            if a.node == b.node for k in range(1, a.weight + 1)
            if vals[(b.node, k, b.link)] > 0 and vals[(a.node, k, a.link)] == 0]


def test_greedy_allocations_are_causal():
    # every first slot has gain +inf and goes out in entry order, upstream
    # hop first, so even starved budgets never skip a packet's upstream hop;
    # the one fill, on packet hops whose previous hop holds slots, matches
    # the reference fill that checks the previous hop was filled
    rng = random.Random(11)
    kinds = set()
    checked = 0
    for _ in range(8):
        topo = seeded_y(rng, lambda: round(rng.uniform(0.01, 0.99), 4))
        conflicts = derive_conflicts(topo)
        for model in enumerate_path_models(topo)[:3]:
            for label in ("X", "Y", "Z"):
                origins = _layout(model, label)[0]
                for st in candidate_structures(origins, conflicts):
                    kinds.add(st.kind)
                    hide_order = hideable(origins, st, set())
                    for part in (st, *_split_structure(st, set(hide_order))):
                        for budget in (*range(25), 60, 200):
                            vals, _rvals = _greedy_int(part, budget, LossTables())
                            assert uncausal_hops(part, vals) == [], (part, budget)
                            # windows past the tentative total fill alike
                            for w in range(min(31, sum(vals.values()) + 2)):
                                assert integer_fill(origins, vals, hide_order, w) \
                                    == fill_window_oracle(origins, vals, hide_order, w)
                            checked += 1
    assert kinds == {"plain", "rider-terminal", "rider-feeders"}
    assert checked >= 10000


def test_assign_early_c4_match_or_beat(case1):
    # data behind the reference row: a=12, node-4 bursts b8=3, b9=7, b10=4
    model = find_model(case1, "3-2-3", 11)
    sol = solve_pattern(model, 1, 30)
    assert {s.plan.label: s.case_label for s in sol.steps}["Z"] == "c4"

    z_nodes = {4, 7, 8}
    com = sol.allocation.entries
    mine = {(n, l): com.get((n, 1, l, False), 0) + com.get((n, 1, l, True), 0)
            for n in z_nodes for l in model_routes(model)[n]}
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
    log_m, routes = 0.0, model_routes(model)
    for node in sorted({n for n, _ in totals}):
        for link in routes[node]:
            s = totals.get((node, link), 0)
            if s <= 0:
                return 0.0
            log_m += math.log1p(-topo.links[link].loss ** s)
    return math.exp(log_m)


def test_com_probability_trivials(case1):
    model = find_model(case1, "3-2-3", 11)
    totals = {(8, 1, 10): 2}
    losses = LossTables()
    per_node = {o.node: _delivery_product([o], totals, losses)[0] for label in "XYZ"
                for o in _layout(model, label)[0]}
    assert per_node[8] == pytest.approx(1 - 0.3 ** 2, abs=1e-12)  # q10 = 0.3
    assert per_node[4] == 0.0
    assert math.prod(per_node.values()) == 0.0


def test_per_node_com_matches_the_slot_table(case1):
    # the group step's per-node products against summing the slot table
    # across the early flag and multiplying per node, bit for bit
    solved = 0
    for model in enumerate_path_models(case1):
        for spec in patterns_for(model):
            sol = solve_pattern(model, spec, 30)
            per_node, product = com_probability(sol.allocation.entries, model)
            assert list(sol.allocation.per_node.items()) == list(per_node.items())
            assert sol.com_product == product
            solved += 1
    assert solved == 27


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


def test_optimize_solves_each_group_once(case1, monkeypatch):
    # one optimize shares each group's work across its patterns: one
    # relaxed solve per (group, winning structure), one greedy and one
    # product walk per (group, candidate), plus the c5 split, its two
    # greedies and a walk over its parts per c5 candidate of each distinct
    # (group, window, blocked uses) step, and one slot table and one
    # place_plans per distinct step, for its winner; a slot table per
    # candidate of each step (95) and a walk per candidate and per winning
    # origin (260) are gone
    calls = {"_greedy_int": 0, "place_plans": 0, "assign_early_slots": 0,
             "_split_structure": 0, "_delivery_product": 0}

    def counting(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in calls:
        monkeypatch.setattr(yslot.allocate, name,
                            counting(name, getattr(yslot.allocate, name)))
    with recorded_residuals() as residuals:
        solutions = optimize(case1, 30)
    assert len(solutions) == 27
    assert len(residuals) == 28
    assert calls == {"_greedy_int": 93, "place_plans": 49, "assign_early_slots": 49,
                     "_split_structure": 20, "_delivery_product": 73}


def old_group_step(group, window, blocked, T):
    """Reference group step, scored the way every candidate once was: a
    fresh budget-T greedy, its early-window step, slot table and regime
    (`early_slots`), its product from a walk over the table's slots per
    packet hop, and the winner's per-node COM from one walk per origin.  Returns the winner's index, product, table, regime and
    per-node COM, and every candidate's (product, regime)."""
    losses = LossTables()
    keys, ranks = list(group.txmap), group.ranks
    rows = []
    for st in group.candidates:
        tentative, rider = _greedy_int(st, T, losses)
        hide_order = _hideable_uses(_fill_order(keys, ranks),
                                    blocked | _unhideable(st, keys), ranks)
        table, regime = early_slots(rates_of(group.origins), st, tentative, rider,
                                    window, hide_order, T, losses)
        totals: dict = {}
        for (node, k, link, _early), v in table.items():
            totals[(node, k, link)] = totals.get((node, k, link), 0) + v
        rows.append((_delivery_product(group.origins, totals, losses)[0],
                     table, regime, totals))
    best = 0
    for i, row in enumerate(rows):
        if row[0] > rows[best][0]:
            best = i
    product, table, regime, totals = rows[best]
    per_node = {o.node: _delivery_product([o], totals, losses)[0]
                for o in group.origins}
    return best, product, table, regime, per_node, [(r[0], r[2]) for r in rows]


def test_group_steps_match_scoring_every_candidate_in_full(all_cases, monkeypatch):
    # a candidate that does not split keeps its budget-T product and
    # per-node COM, and only the winner gets a slot table: every distinct
    # step of these optimizes equals scoring each candidate through its
    # full slot table and walking the winner once per origin, bit for bit
    steps = []
    place = _GroupTable._place

    def recording(self, group, window, blocked):
        step = place(self, group, window, blocked)
        steps.append((self, group, window, set(blocked), step))
        return step

    monkeypatch.setattr(_GroupTable, "_place", recording)
    rng = random.Random(26)
    for topology in all_cases.values():
        for T in (20, 30, 60, 120):
            optimize(topology, T)
    for lengths, T in (((4, 4, 4), 60), (None, 30), (None, 45), ((3, 2, 4), 24)):
        optimize(seeded_y(rng, lambda: round(rng.uniform(0.05, 0.6), 4), lengths, T))
    seen = Counter()
    for table, group, window, blocked, step in steps:
        i, product, entries, regime, per_node, rows = old_group_step(
            group, window, blocked, table.T)
        st = group.candidates[i]
        assert step.structure is st
        assert list(step.entries.items()) == list(entries.items())
        lab = st.label if st.label != "plain" else ""
        assert step.case_label == (f"{lab}+{regime}" if lab and regime else lab or regime)
        assert [(n, p.hex()) for n, p in step.per_node.items()] == \
            [(n, p.hex()) for n, p in per_node.items()]
        scores = [table._score(group, j, window, blocked)
                  for j in range(len(group.candidates))]
        assert [score[0].hex() for score in scores] == [p.hex() for p, _ in rows]
        assert scores[i][0].hex() == product.hex()
        assert list(scores[i][1].items()) == list(step.per_node.items())
        seen["c5 winner"] += regime == "c5"
        seen["c5 loser"] += sum(r == "c5" for j, (_p, r) in enumerate(rows) if j != i)
        seen["rider-feeders winner"] += st.kind == "rider-feeders"
        seen["steps"] += 1
    assert min(seen.values()) >= 20, seen


def optimize_peak_mb(topology) -> float:
    """Traced peak of one `optimize` above its start, in MB (10^6 bytes).
    A full collection empties the interpreter's free lists, and objects
    freed into them still count as traced, so one is run before the warm-up
    solve refills them, never between it and the traced one."""
    gc.collect()
    optimize(topology)   # conflicts derived, every module loaded
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        solutions = optimize(topology)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(solutions) == 140
    return peak / 1e6


# Python 3.11: this optimize peaked at 8.41 MB before the group table held
# its per-group orders, and at 8.28 MB with them; the same orders built
# from fresh (node, link) tuples read 9.06 MB.  Packet-hop keys shared by
# a solve's greedies cut it to 6.89 MB; plans that hold their placed runs
# peak at 6.93 MB, and 6.86 MB when a group is laid out in one walk.
# Dropping each Z group after its model, solutions that merge their steps'
# slot tables on each read and steps that keep only last ends read 3.97 MB.
# Rows that keep no steps, so that every step dies with the group table it
# was placed in, read 0.81 MB
PEAK_BOUND_MB = 1.0


def test_optimize_peak_memory_on_a_generated_y():
    # the group table keeps its per-group orders as references to the
    # transmitter map's key tuples, and hops of one transmitter share its
    # tuple, so holding the orders costs no memory at the peak
    rng = random.Random(80)
    topology = seeded_y(rng, lambda: round(rng.uniform(0.05, 0.55), 4), (5, 5, 5), 80)
    assert optimize_peak_mb(topology) < PEAK_BOUND_MB


def test_optimize_drops_each_z_group_after_its_model(case1, monkeypatch):
    # a Z group's key holds its cut's inner remnants and its Z choice's
    # tail, so no other model shares it: optimize drops it once its model's
    # patterns are solved, while X and Y groups stay for later cuts
    tables, live = [], []
    solve = yslot.allocate._GroupTable.solve

    def recording(table, model, spec):
        tables.append(table)
        live.append([key for key in table.groups if key[0] == "Z"])
        return solve(table, model, spec)

    monkeypatch.setattr(yslot.allocate._GroupTable, "solve", recording)
    rng = random.Random(31)
    generated = seeded_y(rng, lambda: round(rng.uniform(0.05, 0.55), 4), (4, 4, 4), 60)
    for topology, count in ((case1, 27), (generated, 69)):
        tables.clear()
        live.clear()
        assert len(optimize(topology)) == count == len(live)
        assert max(len(keys) for keys in live) == 1
        table, = set(tables)
        assert [key for key in table.groups if key[0] == "Z"] == []
        assert {key[0] for key in table.groups} == {"X", "Y"}


def counted_log1m_pow(monkeypatch) -> Counter:
    """Count every (q, v) the allocation layer evaluates log1m_pow at."""
    calls = Counter()

    def counting(q, v):
        calls[(q, v)] += 1
        return log1m_pow(q, v)

    monkeypatch.setattr(yslot.allocate, "log1m_pow", counting)
    return calls


def test_optimize_evaluates_each_loss_power_once(case1, monkeypatch):
    # every greedy, c5 split part and product of one optimize reads the
    # same loss tables
    calls = counted_log1m_pow(monkeypatch)
    assert len(optimize(case1, 30)) == 27
    assert len(calls) > 30
    assert set(calls.values()) == {1}


def test_loss_tables_do_not_outlive_a_solve(case1, monkeypatch):
    # a repeated solve evaluates log1m_pow as often as the first: nothing
    # of the first solve's tables is kept
    model = find_model(case1, "3-2-3", 11)
    calls = counted_log1m_pow(monkeypatch)
    first = solve_pattern(model, 1, 30)
    once = Counter(calls)
    second = solve_pattern(model, 1, 30)
    assert once and calls == once + once
    assert solution_fields(first) == solution_fields(second)


def test_solving_places_runs_not_units(case1, monkeypatch):
    # solving and verifying read placed runs only; a timeline expands them
    # into one unit per slot on the first read of its units
    calls = []

    def counting(runs):
        calls.append(runs)
        return units_of(runs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "yslot" and \
                getattr(module, "units_of", None) is units_of:
            monkeypatch.setattr(module, "units_of", counting)
    solutions = optimize(case1, 30)
    assert calls == []
    timeline = solution_timeline(solutions[0])
    assert calls == []
    assert timeline.units == units_of(timeline.runs)
    assert len(calls) == 1
    timeline.units
    assert len(calls) == 1


def test_relaxed_table_solves_only_the_split_parts(case1, monkeypatch):
    # each step holds its group's budget-T relaxed optimum, so the TUB table
    # of a solved pattern solves only the two parts of each c5 split: 9
    # splits over the 27 patterns, where one full-budget solve per group
    # once added 81
    solutions = [solve_pattern(s.model, s.pattern, 30) for s in optimize(case1, 30)]
    budgets = []

    def recording(st, budget):
        budgets.append(budget)
        return relax_structure(st, budget)

    relax_structure = yslot.allocate._relax_structure
    monkeypatch.setattr(yslot.allocate, "_relax_structure", recording)
    with recorded_residuals() as residuals:
        for sol in solutions:
            relaxed_table(sol)
    assert len(residuals) == len(budgets) == 18
    assert max(budgets) < 30


@pytest.mark.parametrize("T", [1, 8, 30, 150, 400])
def test_optimize_equals_each_pattern_solved_alone(all_cases, T):
    # the group table changes no value: products bit for bit, slot tables,
    # plans, structures, labels and the relaxed table, key order included
    for topology in all_cases.values():
        assert_optimize_matches_solve_pattern(optimize(topology, T), T)


def test_optimize_rows_keep_no_group_step(case1, monkeypatch):
    # every step optimize places dies with its group table while its rows
    # are held, and each read of a row's steps solves its pattern alone
    # anew: equal to solve_pattern's, sharing no step with another read
    made = []
    place = _GroupTable._place

    def recording(self, group, window, blocked):
        step = place(self, group, window, blocked)
        made.append(weakref.ref(step))
        return step

    monkeypatch.setattr(_GroupTable, "_place", recording)
    solutions = optimize(case1, 30)
    gc.collect()
    assert len(made) == 49 and all(ref() is None for ref in made)
    for sol in solutions:
        first, second = sol.steps, sol.steps
        assert not any(a is b for a in first for b in second)
        assert first == second == solve_pattern(sol.model, sol.pattern, 30).steps


def test_solutions_share_no_mutable_container(case1):
    # a row keeps no steps, so writing the steps or slot table one read
    # gives leaves the row as it was (a step's fields stay frozen and its
    # relaxed values read-only), and emptying one row's own per-node COM
    # leaves every other row
    solutions = optimize(case1, 30)
    alone = [solve_pattern(s.model, s.pattern, 30) for s in solutions]
    fresh = [solution_fields(a, False) for a in alone]
    for i, sol in enumerate(solutions):
        assert isinstance(sol.steps, tuple) and isinstance(sol.plans, tuple)
        for step in sol.steps:
            step.entries.clear()
            step.per_node.clear()
            step.ends.clear()
            with pytest.raises(TypeError):
                step.relaxed.values[(0, 0)] = 1.0
            with pytest.raises(AttributeError):
                step.relaxed = None
        entries = sol.allocation.entries
        assert entries is not sol.allocation.entries
        entries.clear()
        entries[(0, 1, 0, False)] = 1
        assert solution_fields(sol, False) == fresh[i]
        assert sol.allocation.per_node is sol.per_node
        sol.per_node.clear()
        sol.per_node[0] = 0.5
        for other, expected in zip(solutions[i + 1:], alone[i + 1:]):
            assert row_fields(other) == row_fields(expected)


def _frozen_records(topology) -> dict:
    """One record of each frozen kind, keyed by class name."""
    model = find_model(topology, "3-2-3", 11)
    step = solve_pattern(model, 1, 30).steps[0]
    records = [topology.links[1], topology.branches[0], topology,
               derive_conflicts(topology), model.table, model,
               patterns_for(model)[0], step.structure.uses[0], step.relaxed,
               _layout(model, "X")[0][0], step.structure, step.plan, step]
    return {type(r).__name__: r for r in records}


FROZEN = ("Link", "Branch", "Topology", "ConflictSet", "ZTable", "PathModel",
          "PatternSpec", "Use", "StructuredRelax", "Origin", "Structure",
          "GroupPlan", "GroupStep")


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_record_rejects_assignment(case1, name):
    # named tuples and the frozen plain classes alike: setting or deleting
    # a field raises, and the field keeps its value
    record = _frozen_records(case1)[name]
    field = next(iter(vars(record))) if hasattr(record, "__dict__") else record._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


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
    origins = _layout(find_model(case2, "2-2-4", 11), "Z")[0]
    structures = candidate_structures(origins, derive_conflicts(case2))
    assert predicted_case(origins, structures) == "case2"


@pytest.mark.parametrize("name, riders", [("1-2-5", [(2, 3)]),
                                          ("1-1-6", [(2, 3), (5, 5)])],
                         ids=["1-2-5", "1-1-6"])
def test_feeder_first_hop_carries_only_its_own_packets(case1, name, riders):
    # Z's inner remnant of the X branch is nodes 2 then 3: node 3's first
    # hop, link 4, also carries node 2's packets, so only node 2 rides,
    # though neither first hop conflicts with the terminal's own burst
    model = find_model(case1, name, 11)
    origins = _layout(model, "Z")[0]
    conflicts = derive_conflicts(case1)
    upstream, inner = origins[:2]
    assert (upstream.node, inner.node) == (2, 3)
    assert upstream.route[1][0] == inner.route[0][0] == 4
    terminal = origins[-1]
    term_tx = (terminal.node, terminal.route[0][0])
    assert not conflicts.conflict((2, 3), term_tx)
    assert not conflicts.conflict((3, 4), term_tx)
    structures = candidate_structures(origins, conflicts)
    rider_feed = next(s for s in structures if s.kind == "rider-feeders")
    assert [(u.node, u.link) for u in rider_feed.riders] == riders
    rider_term = next(s for s in structures if s.kind == "rider-terminal")
    assert list(rider_term.hosts) == riders


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
