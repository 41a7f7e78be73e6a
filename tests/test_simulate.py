import pytest

from yslot import (NodeSetMismatch, SimReport, build_timeline, compare,
                   find_model, simulate, solve_pattern, validate_topology)
from yslot.timeline import Timeline, Unit

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
    return Timeline([Unit(0, 1, 2, 1, 1, 1, False),
                     Unit(1, 1, 2, 1, 1, 1, False)], 10)


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
    tl = Timeline([Unit(0, 8, 11, 10, 8, 1, False)], 30)
    report = simulate(tl, case1, 2000, seed=9)
    assert report.per_node[4] == 0.0
    checks = compare(report, {n: (1 - 0.3 if n == 8 else 0.0)
                              for n in report.per_node})
    assert all(c.ok for c in checks)


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
        report = SimReport(trials, 0, "numpy-PCG64", False, {1: rate}, rate)
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
    from yslot import InvalidTimeline
    # nodes 3 and 4 co-scheduled: interference at node 7
    tl = Timeline([Unit(0, 3, 2, 3, 3, 1, False),
                   Unit(0, 4, 7, 8, 4, 1, False)], 30)
    with pytest.raises(InvalidTimeline):
        simulate(tl, case1, 10, seed=0)


def test_nonpositive_trials_rejected():
    top = tiny_topology()
    with pytest.raises(ValueError):
        simulate(two_slot_timeline(), top, 0, seed=0)
