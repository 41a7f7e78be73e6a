import dataclasses
import random

import pytest

from yslot import (DoesNotFit, build_timeline, derive_conflicts,
                   find_model, optimize, solution_timeline, solve_pattern,
                   verify_timeline)
from yslot.timeline import GroupPlan, PlacedBurst, Timeline, Unit, place_plans


def solved_timeline(topology, name, pid, T=30):
    model = find_model(topology, name, 11)
    sol = solve_pattern(model, pid, T)
    conflicts = derive_conflicts(topology)
    tl = build_timeline(topology, sol.plans, T)
    return model, sol, tl, conflicts


def test_build_then_verify_roundtrip(case1):
    for name, pid in (("3-2-3", 1), ("3-2-3", 2), ("2-2-4", 2), ("2-1-5", 1)):
        _, sol, tl, conflicts = solved_timeline(case1, name, pid)
        report = verify_timeline(tl, conflicts, 30, sol.allocation.entries)
        assert report.ok, (name, pid, report.first())
        assert tl.length <= 30


def test_interfering_pairs_never_coscheduled(case1):
    _, _, tl, _ = solved_timeline(case1, "3-2-3", 1)
    for cell in tl.slots().values():
        txs = {u.tx for u in cell}
        assert not ({3, 4} <= txs)
        assert not ({5, 4} <= txs)


def test_early_window_serializes_to_twelve_slots(case1):
    # 7 early sends by node 7 plus 5 by node 8 fill the 12-slot window
    _, _, tl, _ = solved_timeline(case1, "3-2-3", 1)
    early = [u for u in tl.units if u.early]
    assert len(early) == 12
    assert sorted(u.slot for u in early) == list(range(12))
    by_tx = {}
    for u in early:
        by_tx[u.tx] = by_tx.get(u.tx, 0) + 1
    assert by_tx == {7: 7, 8: 5}


def test_slot_count_conservation(case1):
    _, sol, tl, _ = solved_timeline(case1, "3-2-3", 2)
    want = {k: v for k, v in sol.allocation.entries.items() if v > 0}
    got = {}
    for u in tl.units:
        key = (u.origin, u.k, u.link, u.early)
        got[key] = got.get(key, 0) + 1
    assert got == want


def test_determinism(case1):
    _, _, t1, _ = solved_timeline(case1, "2-2-4", 1)
    _, _, t2, _ = solved_timeline(case1, "2-2-4", 1)
    assert t1.units == t2.units
    assert t1.to_lines() == t2.to_lines()


def test_empty_plans_give_empty_timeline(case1):
    tl = build_timeline(case1, [], 30)
    assert tl.units == [] and tl.length == 0


def test_verify_flags_conflicting_pair(case1):
    conflicts = derive_conflicts(case1)
    tl = Timeline([
        Unit(0, 3, 2, 3, 3, 1, False),   # node 3 sending
        Unit(0, 4, 7, 8, 4, 1, False),   # node 4 sending in the same slot
    ], 30)
    report = verify_timeline(tl, conflicts, 30)
    assert not report.ok
    assert report.first().kind == "conflict"


def test_verify_flags_beyond_cycle(case1):
    conflicts = derive_conflicts(case1)
    tl = Timeline([Unit(30, 1, 9, 1, 1, 1, False)], 30)
    report = verify_timeline(tl, conflicts, 30)
    assert not report.ok
    assert report.first().kind == "fit"


def test_verify_flags_causality(case1):
    conflicts = derive_conflicts(case1)
    # node 2 relays node 3's packet before node 3 ever sent it
    tl = Timeline([
        Unit(0, 2, 1, 2, 3, 1, False),
        Unit(1, 3, 2, 3, 3, 1, False),
    ], 30)
    report = verify_timeline(tl, conflicts, 30)
    assert not report.ok
    assert any(v.kind == "causality" for v in report.violations)


def test_build_raises_on_overflowing_window(case1):
    plan = GroupPlan("Z", 2, (PlacedBurst(8, 1, 8, 10, 5, True, ()),), ())
    with pytest.raises(DoesNotFit):
        build_timeline(case1, [plan], 30)


def test_build_raises_on_conflict_and_causality(case1):
    from yslot import CausalityViolation, ConflictViolation
    # two zero-window groups whose first bursts interfere (3 vs 4)
    plans = [GroupPlan("X", 0, (), (PlacedBurst(3, 1, 3, 3, 2, False, ()),)),
             GroupPlan("Z", 0, (), (PlacedBurst(4, 1, 4, 8, 2, False, ()),))]
    with pytest.raises(ConflictViolation):
        build_timeline(case1, plans, 30)
    # a relay burst scheduled before the origin ever transmitted
    plan = GroupPlan("X", 0, (), (PlacedBurst(3, 1, 2, 2, 1, False, ()),
                                  PlacedBurst(3, 1, 3, 3, 1, False, ())))
    with pytest.raises(CausalityViolation):
        build_timeline(case1, [plan], 30)


def test_riders_fill_their_host_burst_first_slots(case1):
    # two feeder hops into the central node 4 ride on terminal 8's burst
    riders = (PlacedBurst(3, 1, 3, 4, 1, True), PlacedBurst(5, 1, 5, 5, 1, True))
    plan = GroupPlan("Z", 5, (), (PlacedBurst(8, 1, 8, 10, 3, False, riders),))
    units = place_plans(case1, [plan])
    assert sorted(units, key=lambda u: (u.slot, u.tx)) == [
        Unit(5, 3, 4, 4, 3, 1, True), Unit(5, 8, 11, 10, 8, 1, False),
        Unit(6, 5, 4, 5, 5, 1, True), Unit(6, 8, 11, 10, 8, 1, False),
        Unit(7, 8, 11, 10, 8, 1, False)]


def test_place_raises_when_riders_exceed_their_host(case1):
    riders = (PlacedBurst(3, 1, 3, 4, 2, True), PlacedBurst(5, 1, 5, 5, 2, True))
    plan = GroupPlan("Z", 0, (), (PlacedBurst(8, 1, 8, 10, 3, False, riders),))
    with pytest.raises(DoesNotFit):
        place_plans(case1, [plan])


def test_grid_lines_stable_format(case1):
    _, _, tl, _ = solved_timeline(case1, "3-2-3", 1)
    lines = tl.to_lines()
    assert lines[0].startswith("0: ")
    assert any("→" in line for line in lines)
    assert len(lines) == tl.length


def causality_oracle(timeline):
    """Reference quadratic scan: a relayed unit needs some strictly earlier
    unit of the same packet with the relay as its receiver."""
    ordered = sorted(timeline.units, key=lambda u: u.slot)
    out = []
    for u in ordered:
        if u.tx == u.origin:
            continue
        if not any(v.slot < u.slot and v.origin == u.origin and v.k == u.k
                   and v.rx == u.tx for v in ordered):
            out.append(("causality", u.slot,
                        f"packet {u.origin}.{u.k} sent by {u.tx} before any reception"))
    return out


def corrupted(timeline, rng):
    """Variants of a valid timeline that break causality in different ways."""
    units = timeline.units
    T = timeline.cycle_slots
    last = max(u.slot for u in units)
    yield [dataclasses.replace(u, slot=rng.randrange(T)) for u in units]
    yield [dataclasses.replace(u, slot=last - u.slot) for u in units]
    yield rng.sample(units, len(units) // 2)
    yield [dataclasses.replace(u, rx=u.tx, tx=u.rx) if rng.random() < 0.2 else u
           for u in units]


def test_causality_check_matches_quadratic_oracle(case1):
    rng = random.Random(11)
    conflicts = derive_conflicts(case1)
    broken = 0
    for sol in optimize(case1, 30):
        timeline = solution_timeline(sol)
        variants = [timeline.units, *corrupted(timeline, rng)]
        for units in variants:
            tl = Timeline(list(units), 30)
            report = verify_timeline(tl, conflicts, 30)
            got = [(v.kind, v.slot, v.detail) for v in report.violations
                   if v.kind == "causality"]
            want = causality_oracle(tl)
            assert got == want
            broken += bool(want)
    assert broken >= 27 * 3
