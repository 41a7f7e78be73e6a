import importlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from yslot import (ConflictViolation, DoesNotFit, NodeSetMismatch, SimReport,
                   build_timeline, compare, find_model, simulate,
                   solution_timeline, solve_pattern, validate_topology)
from yslot.simulate import MAX_TRIALS
from yslot.timeline import GroupPlan, Run, Timeline, place_plans

TRIALS = 100000


def tiny_topology(q=0.3):
    """Minimal Y: one central node linked straight to three gateways."""
    return validate_topology({
        "cycle_slots": 10,
        "nodes": [{"id": 1, "rate": 1}],
        "gateways": [{"id": 2}, {"id": 3}, {"id": 4}],
        "links": [{"id": 1, "a": 1, "b": 2, "loss": q},
                  {"id": 2, "a": 1, "b": 3, "loss": q},
                  {"id": 3, "a": 1, "b": 4, "loss": q}],
        "proximity": [[1, 2], [1, 3], [1, 4]],
    })


def two_slot_timeline():
    return Timeline([Run(0, 1, 1, 2, 1, 1, 1, False),
                     Run(1, 1, 1, 2, 1, 1, 1, False)], 10)


def test_single_link_bernoulli():
    top = tiny_topology(0.3)
    report = simulate(two_slot_timeline(), top, TRIALS, seed=11)
    p = 1 - 0.3 ** 2
    sigma = (p * (1 - p) / TRIALS) ** 0.5
    assert abs(report.per_node[1] - p) <= 3 * sigma
    checks = compare(report, {1: p})
    assert all(c.ok for c in checks)


def test_deterministic_given_seed():
    top = tiny_topology()
    r1 = simulate(two_slot_timeline(), top, 1, seed=5)
    r2 = simulate(two_slot_timeline(), top, 1, seed=5)
    assert r1 == r2
    r3 = simulate(two_slot_timeline(), top, TRIALS, seed=5)
    r4 = simulate(two_slot_timeline(), top, TRIALS, seed=5)
    assert r3.per_node == r4.per_node and r3.all_rate == r4.all_rate
    assert r3.algorithm == "numpy-PCG64"


def test_table_allocation_close_to_analytic(case1):
    model = find_model(case1, "3-2-3", 11)
    sol = solve_pattern(model, 1, 30)
    tl = build_timeline(case1, sol.plans, 30)
    report = simulate(tl, case1, TRIALS, seed=123)
    checks = compare(report, sol.allocation.per_node)
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_reuse_never_hurts(case1):
    model = find_model(case1, "3-2-3", 11)
    sol = solve_pattern(model, 1, 30)
    tl = build_timeline(case1, sol.plans, 30)
    plain = simulate(tl, case1, 20000, seed=7)
    reuse = simulate(tl, case1, 20000, seed=7, reuse=True)
    for node in plain.per_node:
        assert reuse.per_node[node] >= plain.per_node[node]


def test_per_node_rate_is_count_over_trials(case1):
    model = find_model(case1, "2-2-4", 11)
    sol = solve_pattern(model, 2, 30)
    tl = build_timeline(case1, sol.plans, 30)
    for reuse in (False, True):
        report = simulate(tl, case1, 20000, seed=3, reuse=reuse)
        assert list(report.per_node) == list(report.per_node_counts) == \
            sorted(case1.rates)
        for n, count in report.per_node_counts.items():
            assert report.per_node[n] == count / report.trials


def test_all_delivered_bounded_by_per_node(case1):
    model = find_model(case1, "2-2-4", 11)
    sol = solve_pattern(model, 2, 30)
    tl = build_timeline(case1, sol.plans, 30)
    for reuse in (False, True):
        report = simulate(tl, case1, 20000, seed=3, reuse=reuse)
        for node, count in report.per_node_counts.items():
            assert round(report.all_rate * report.trials) <= count


def test_near_perfect_links_deliver():
    top = tiny_topology(1e-9)
    report = simulate(two_slot_timeline(), top, 5000, seed=1)
    assert report.per_node[1] == 1.0
    checks = compare(report, {1: 1.0 - 1e-18})
    assert all(c.ok for c in checks)


def test_zero_slot_node_never_delivers(case1):
    # schedule only node 8; everyone else has analytic M = 0
    tl = Timeline([Run(0, 1, 8, 11, 10, 8, 1, False)], 30)
    report = simulate(tl, case1, 2000, seed=9)
    assert report.per_node[4] == 0.0
    checks = compare(report, {n: (1 - 0.3 if n == 8 else 0.0)
                              for n in report.per_node})
    assert all(c.ok for c in checks)


@pytest.mark.parametrize("reuse", [False, True], ids=["dedicated", "reuse"])
def test_packet_without_a_slot_is_never_delivered(reuse):
    # golden y06, model 1-1-5 (no-sep branch 10) pattern 1: the greedy
    # schedules only packet 1 of node 7 (rate 3), so its COM is 0; its
    # other two packets have no unit in the timeline
    raw = json.loads((Path(__file__).parent / "golden/ys/y06.json").read_text())
    top = validate_topology(raw)
    sol = solve_pattern(find_model(top, "1-1-5", 10), 1)
    tl = solution_timeline(sol)
    assert top.rates[7] == 3 and sol.allocation.per_node[7] == 0.0
    assert {u.k for u in tl.units if u.origin == 7} == {1}
    report = simulate(tl, top, 20000, seed=1, reuse=reuse)
    assert report.per_node_counts[7] == 0 and report.all_rate == 0.0
    if not reuse:   # the analytic COM is the dedicated-slot model's
        checks = compare(report, sol.allocation.per_node)
        assert all(c.ok and math.isfinite(c.z) for c in checks)


def test_corrupted_analytic_fails():
    top = tiny_topology(0.3)
    report = simulate(two_slot_timeline(), top, TRIALS, seed=11)
    checks = compare(report, {1: 0.5})
    assert not all(c.ok for c in checks)


def test_rare_misses_use_the_exact_tail():
    # p = 1 - 5e-7 expects 0.05 misses in 1e5 trials: one miss reads as
    # z = -4.5 under the normal approximation but is a 5% event
    p, trials = 1.0 - 5e-7, 100000

    def ok(misses, analytic=p):
        rate = (trials - misses) / trials
        report = SimReport(trials, 0, "numpy-PCG64", False,
                           {1: trials - misses}, rate)
        (check,) = compare(report, {1: analytic})
        assert check.sigma == (analytic * (1 - analytic) / trials) ** 0.5
        return check.ok

    assert ok(0) and ok(1)
    assert not ok(3)
    assert not ok(1, analytic=1.0)


def test_node_set_mismatch():
    top = tiny_topology()
    report = simulate(two_slot_timeline(), top, 100, seed=2)
    with pytest.raises(NodeSetMismatch):
        compare(report, {1: 0.9, 2: 0.5})


def test_invalid_timeline_rejected(case1):
    # nodes 3 and 4 co-scheduled: interference at node 7
    tl = Timeline([Run(0, 1, 3, 2, 3, 3, 1, False),
                   Run(0, 1, 4, 7, 8, 4, 1, False)], 30)
    with pytest.raises(ConflictViolation):
        simulate(tl, case1, 10, seed=0)


def test_simulate_rejects_as_build_timeline_does(case1):
    # two zero-window groups whose first runs interfere (3 vs 4)
    plans = [GroupPlan("X", 0, (), (Run(0, 2, 3, 2, 3, 3, 1, False),), ()),
             GroupPlan("Z", 0, (), (Run(0, 2, 4, 7, 8, 4, 1, False),), ())]
    with pytest.raises(ConflictViolation) as built:
        build_timeline(case1, plans, 30)
    with pytest.raises(ConflictViolation) as replayed:
        simulate(Timeline(place_plans(plans), 30), case1, 10, seed=0)
    assert type(replayed.value) is type(built.value)
    assert str(replayed.value) == str(built.value)


@pytest.mark.parametrize("unit", [
    Run(0, 1, 1, 9, -1, 1, 1, False),   # link -1 is in no topology
    Run(0, 1, 5, 11, 6, 5, 1, False),   # link 6 joins 5 and 6, not gateway 11
], ids=["unknown-link", "wrong-receiver"])
def test_transmission_outside_topology_rejected(case1, unit):
    with pytest.raises(DoesNotFit, match="not a transmission of the topology"):
        simulate(Timeline([unit], 30), case1, 10, seed=0)


def test_packet_beyond_origin_rate_rejected(case1):
    # node 8 generates one packet per cycle
    with pytest.raises(DoesNotFit, match="packet 8.5 is not generated by node 8"):
        simulate(Timeline([Run(1, 1, 8, 11, 10, 8, 5, False)], 30), case1, 10,
                 seed=0)


def test_nonpositive_trials_rejected():
    top = tiny_topology()
    with pytest.raises(ValueError):
        simulate(two_slot_timeline(), top, 0, seed=0)


def test_trials_above_the_cap_rejected_before_replay(monkeypatch):
    def verified(*args):
        pytest.fail("verified a timeline above the trials cap")

    monkeypatch.setattr(importlib.import_module("yslot.simulate"), "verify_timeline",
                        verified)
    with pytest.raises(ValueError, match=f"trials {MAX_TRIALS + 1} is above the cap "
                                         f"of {MAX_TRIALS}"):
        simulate(two_slot_timeline(), tiny_topology(), MAX_TRIALS + 1, seed=0)


@pytest.mark.parametrize("field", ["trials", "seed"])
@pytest.mark.parametrize("value", [10.5, 1.5, True, "10", None])
def test_non_integer_trials_and_seed_rejected_before_replay(monkeypatch, field, value):
    def verified(*args):
        pytest.fail(f"verified a timeline for {field}={value!r}")

    monkeypatch.setattr(importlib.import_module("yslot.simulate"), "verify_timeline",
                        verified)
    with pytest.raises(ValueError, match=re.escape(f"{field} {value!r} is not an integer")):
        simulate(two_slot_timeline(), tiny_topology(), **{"trials": 10, "seed": 0,
                                                            field: value})


@pytest.mark.parametrize("field", ["trials", "seed"])
@pytest.mark.parametrize("value", [10.0, np.int64(10)])
def test_integral_trials_and_seed_read_as_int(field, value):
    report = simulate(two_slot_timeline(), tiny_topology(),
                      **{"trials": 10, "seed": 10, field: value})
    assert type(report.trials) is int and type(report.seed) is int
    assert report == simulate(two_slot_timeline(), tiny_topology(), 10, 10)


@pytest.mark.parametrize("value", ["no", 0.0, 1, None])
def test_non_bool_reuse_rejected_before_replay(monkeypatch, value):
    def verified(*args):
        pytest.fail(f"verified a timeline for reuse={value!r}")

    monkeypatch.setattr(importlib.import_module("yslot.simulate"), "verify_timeline",
                        verified)
    with pytest.raises(ValueError, match=re.escape(f"reuse {value!r} is not a bool")):
        simulate(two_slot_timeline(), tiny_topology(), 10, 0, reuse=value)


@pytest.mark.parametrize("value", [True, False])
def test_bool_reuse_accepted(value):
    assert simulate(two_slot_timeline(), tiny_topology(), 10, 0, reuse=value).reuse is value


def byte_replay(timeline, topology, trials, seed, reuse):
    """Reference replay with one bool per trial for every held flag: the
    same draws and rules as `simulate`, returning (per_node_counts, all_rate)."""
    units = sorted(timeline.units, key=lambda u: (u.start, u.tx, u.link, u.origin, u.k))
    stream = {}
    for u in units if reuse else ():
        lst = stream.setdefault((u.tx, u.link), [])
        if (u.origin, u.k) not in lst:
            lst.append((u.origin, u.k))
    rng = np.random.default_rng(np.random.PCG64(seed))
    holds = {}

    def held(node, packet):
        key = (node, packet[0], packet[1])
        if key not in holds:
            holds[key] = np.full(trials, node == packet[0], dtype=bool)
        return holds[key]

    for u in units:
        draw = rng.random(trials) < 1.0 - topology.links[u.link].loss
        rx, designated = u.rx, (u.origin, u.k)
        assigned = held(u.tx, designated)
        held(rx, designated)[...] |= assigned & draw
        for packet in stream.get((u.tx, u.link), ()):
            if packet == designated:
                continue
            claim = held(u.tx, packet) & ~held(rx, packet) & ~assigned
            held(rx, packet)[...] |= claim & draw
            assigned = assigned | claim

    counts, missed = {}, np.zeros(trials, dtype=bool)
    all_ok = np.ones(trials, dtype=bool)
    for node, rate in sorted(topology.rates.items()):
        ok = np.ones(trials, dtype=bool)
        for k in range(1, rate + 1):
            ok &= np.logical_or.reduce(
                [holds.get((g, node, k), missed) for g in topology.gateways])
        counts[node] = int(ok.sum())
        all_ok &= ok
    return counts, float(all_ok.mean())


@pytest.fixture(scope="module")
def replay_cases(case1):
    """(timeline, topology) of the two-slot tiny Y and two case-1 patterns."""
    cases = {"two-slot": (two_slot_timeline(), tiny_topology())}
    for name, model, pattern in [("3-2-3p1", "3-2-3", 1), ("2-2-4p2", "2-2-4", 2)]:
        sol = solve_pattern(find_model(case1, model, 11), pattern, 30)
        cases[name] = build_timeline(case1, sol.plans, 30), case1
    return cases


@pytest.mark.parametrize("reuse", [False, True], ids=["dedicated", "reuse"])
@pytest.mark.parametrize("name", ["two-slot", "3-2-3p1", "2-2-4p2"])
@pytest.mark.parametrize("trials", [1, 7, 8, 9, 1001, 20000])
def test_packed_replay_matches_byte_replay(replay_cases, name, reuse, trials):
    # trial counts off a byte boundary pin the pad bits; 2-2-4 pattern 2
    # reaches reuse claims
    timeline, topology = replay_cases[name]
    report = simulate(timeline, topology, trials, seed=trials, reuse=reuse)
    counts, all_rate = byte_replay(timeline, topology, trials, trials, reuse)
    assert report.per_node_counts == counts
    assert report.all_rate == all_rate


def test_reuse_claims_reached_in_the_oracle_timeline(replay_cases):
    timeline, topology = replay_cases["2-2-4p2"]
    dedicated = byte_replay(timeline, topology, 20000, 20000, False)
    assert byte_replay(timeline, topology, 20000, 20000, True) != dedicated


def test_replay_keeps_one_bit_per_trial_for_each_held_flag(replay_cases):
    # the draw buffers take 9 bytes a trial; one bool per held flag (the
    # byte-per-trial replay) read 39 bytes a trial here
    timeline, topology = replay_cases["3-2-3p1"]
    trials = 200_000
    simulate(timeline, topology, 10, seed=0)  # numpy loaded, conflicts derived
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        simulate(timeline, topology, trials, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak / trials < 16
