import json
import random
from collections import Counter

import pytest
from golden.make_corpus import YS_DIR
from golden.sweep import check_delivery, exact_delivery

from conftest import load_case_raw, solved_alone
from yslot import (ConflictSet, DoesNotFit, build_timeline, derive_conflicts,
                   find_model, optimize, solution_timeline, solve_pattern,
                   validate_topology, verify_timeline)
from yslot.timeline import GroupPlan, Run, Timeline, place_plans, units_of


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
    assert sorted(u.start for u in early) == list(range(12))
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
        Run(0, 1, 3, 2, 3, 3, 1, False),   # node 3 sending
        Run(0, 1, 4, 7, 8, 4, 1, False),   # node 4 sending in the same slot
    ], 30)
    report = verify_timeline(tl, conflicts, 30)
    assert not report.ok
    assert report.first().kind == "conflict"


def test_verify_flags_beyond_cycle(case1):
    conflicts = derive_conflicts(case1)
    tl = Timeline([Run(30, 1, 1, 9, 1, 1, 1, False)], 30)
    report = verify_timeline(tl, conflicts, 30)
    assert not report.ok
    assert report.first().kind == "fit"


def test_verify_flags_transmission_outside_topology(case1):
    conflicts = derive_conflicts(case1)
    # an unknown link, then a real (tx, link) sent to the wrong receiver
    tl = Timeline([Run(0, 1, 1, 9, -1, 1, 1, False),
                   Run(0, 1, 5, 11, 6, 5, 1, False),
                   Run(1, 1, 5, 11, 6, 5, 1, False),
                   Run(2, 1, 5, 6, 6, 5, 1, False)], 30)
    report = verify_timeline(tl, conflicts, 30)
    assert [(v.kind, v.slot) for v in report.violations] == \
        [("fit", 0), ("fit", 0), ("fit", 1)]
    assert report.first().detail == \
        "tx 1 on link -1 to 9 is not a transmission of the topology"


def test_verify_flags_packet_its_origin_does_not_generate(case1):
    conflicts = derive_conflicts(case1)
    # node 8 has rate 1, so it sends no packet 5 and no packet 0; fit
    # violations come out in unit order, whatever their reason
    tl = Timeline([Run(1, 1, 8, 11, 10, 8, 5, False),
                   Run(2, 1, 8, 11, 10, 8, 1, False),
                   Run(30, 1, 8, 11, 10, 8, 0, False),
                   Run(3, 1, 8, 11, 10, 8, 5, False)], 30)
    report = verify_timeline(tl, conflicts, 30)
    assert [(v.kind, v.slot) for v in report.violations] == \
        [("fit", 1), ("fit", 30), ("fit", 30), ("fit", 3)]
    assert report.first().detail == "packet 8.5 is not generated by node 8"
    assert report.violations[2].detail == "packet 8.0 is not generated by node 8"
    assert verify_timeline(Timeline(tl.units[1:2], 30), conflicts, 30).ok


def test_verify_flags_causality(case1):
    conflicts = derive_conflicts(case1)
    # node 2 relays node 3's packet before node 3 ever sent it
    tl = Timeline([
        Run(0, 1, 2, 1, 2, 3, 1, False),
        Run(1, 1, 3, 2, 3, 3, 1, False),
    ], 30)
    report = verify_timeline(tl, conflicts, 30)
    assert not report.ok
    assert any(v.kind == "causality" for v in report.violations)


def test_build_raises_on_overflowing_window(case1):
    plan = GroupPlan("Z", 2, (Run(0, 5, 8, 11, 10, 8, 1, True),), (), ())
    with pytest.raises(DoesNotFit):
        build_timeline(case1, [plan], 30)


def test_build_raises_on_conflict_and_causality(case1):
    from yslot import CausalityViolation, ConflictViolation
    # two zero-window groups whose first runs interfere (3 vs 4)
    plans = [GroupPlan("X", 0, (), (Run(0, 2, 3, 2, 3, 3, 1, False),), ()),
             GroupPlan("Z", 0, (), (Run(0, 2, 4, 7, 8, 4, 1, False),), ())]
    with pytest.raises(ConflictViolation):
        build_timeline(case1, plans, 30)
    # a relay run placed before the origin ever transmitted
    plan = GroupPlan("X", 0, (), (Run(0, 1, 2, 1, 2, 3, 1, False),
                                  Run(1, 1, 3, 2, 3, 3, 1, False)), ())
    with pytest.raises(CausalityViolation):
        build_timeline(case1, [plan], 30)


def test_riders_fill_their_host_burst_first_slots(case1):
    # two feeder hops into the central node 4 ride on terminal 8's run;
    # a plan's runs join as early, serialized, then rider runs
    host = Run(5, 3, 8, 11, 10, 8, 1, False)
    riders = (Run(5, 1, 3, 4, 4, 3, 1, True), Run(6, 1, 5, 4, 5, 5, 1, True))
    plan = GroupPlan("Z", 5, (), (host,), riders)
    assert place_plans([plan]) == [host, *riders]
    timeline = build_timeline(case1, [plan], 30)
    assert sorted(timeline.units, key=lambda u: (u.start, u.tx)) == [
        Run(5, 1, 3, 4, 4, 3, 1, True), Run(5, 1, 8, 11, 10, 8, 1, False),
        Run(6, 1, 5, 4, 5, 5, 1, True), Run(6, 1, 8, 11, 10, 8, 1, False),
        Run(7, 1, 8, 11, 10, 8, 1, False)]


def test_grid_lines_stable_format(case1):
    _, _, tl, _ = solved_timeline(case1, "3-2-3", 1)
    lines = tl.to_lines()
    assert lines[0].startswith("0: ")
    assert any("→" in line for line in lines)
    assert len(lines) == tl.length


def causality_oracle(timeline):
    """Reference quadratic scan: a relayed unit needs some strictly earlier
    unit of the same packet with the relay as its receiver."""
    ordered = sorted(timeline.units, key=lambda u: u.start)
    out = []
    for u in ordered:
        if u.tx == u.origin:
            continue
        if not any(v.start < u.start and v.origin == u.origin and v.k == u.k
                   and v.rx == u.tx for v in ordered):
            out.append(("causality", u.start,
                        f"packet {u.origin}.{u.k} sent by {u.tx} before any reception"))
    return out


def corrupted(timeline, rng):
    """Variants of a valid timeline that break causality in different ways."""
    units = timeline.units
    T = timeline.cycle_slots
    last = max(u.start for u in units)
    yield [u._replace(start=rng.randrange(T)) for u in units]
    yield [u._replace(start=last - u.start) for u in units]
    yield rng.sample(units, len(units) // 2)
    yield [u._replace(rx=u.tx, tx=u.rx) if rng.random() < 0.2 else u
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


def fit_oracle(timeline, topology):
    """Reference per-unit scan: a unit must be a transmission of the
    topology (a non-gateway end of a link, sending to the other end)."""
    out = []
    for u in timeline.units:
        link = topology.links.get(u.link)
        if (link is None or u.tx in topology.gateways
                or {u.tx, u.rx} != {link.a, link.b}):
            out.append(("fit", u.start, f"tx {u.tx} on link {u.link} to {u.rx}"
                        " is not a transmission of the topology"))
    return out


def conflict_oracle(timeline, conflicts):
    """Reference pairwise scan of every occupied slot."""
    out = []
    for slot, cell in sorted(timeline.slots().items()):
        for i, u1 in enumerate(cell):
            for u2 in cell[i + 1:]:
                t1, t2 = (u1.tx, u1.link), (u2.tx, u2.link)
                if t1 == t2:
                    out.append(("conflict", slot, f"duplicate transmission {t1}"))
                elif conflicts.conflict(t1, t2):
                    out.append(("conflict", slot,
                                f"tx {u1.tx} on link {u1.link} vs tx {u2.tx} on link {u2.link}"))
    return out


def test_conflict_check_matches_pairwise_oracle(case1):
    rng = random.Random(12)
    conflicts = derive_conflicts(case1)
    clashing = foreign = 0
    for sol in optimize(case1, 30):
        timeline = solution_timeline(sol)
        units = timeline.units
        # link -1 is in no topology, so its transmissions miss the index
        unindexed = [u._replace(link=-1) if rng.random() < 0.3 else u for u in units]
        variants = [units, *corrupted(timeline, rng),
                    units + rng.sample(units, len(units) // 4),
                    unindexed + rng.sample(unindexed, len(units) // 4)]
        for variant in variants:
            tl = Timeline(list(variant), 30)
            report = verify_timeline(tl, conflicts, 30)
            got = [(v.kind, v.slot, v.detail) for v in report.violations]
            want = conflict_oracle(tl, conflicts)
            assert got == fit_oracle(tl, case1) + want + causality_oracle(tl)
            clashing += bool(want)
            foreign += bool(fit_oracle(tl, case1))
    assert clashing >= 27 * 3
    assert foreign >= 27


def verify_oracle(timeline, conflicts, cycle_slots, allocation_counts=None):
    """Reference verifier, one unit at a time: fit per unit in unit order,
    then one walk over the occupied slots in order for conflicts (pairwise
    scan of a clashing slot) and causality (a relay needs the packet
    received at a strictly earlier slot), then the allocation counts;
    (kind, slot, detail) per violation."""
    by_slot = timeline.slots()
    out = []
    for u in timeline.units:
        if u.start < 0 or u.start >= cycle_slots:
            out.append(("fit", u.start, f"transmission outside cycle of {cycle_slots} slots"))
        if not conflicts.sends(u.tx, u.rx, u.link):
            out.append(("fit", u.start, f"tx {u.tx} on link {u.link} "
                        f"to {u.rx} is not a transmission of the topology"))
        if not conflicts.generates(u.origin, u.k):
            out.append(("fit", u.start, f"packet {u.origin}.{u.k} "
                        f"is not generated by node {u.origin}"))
    late = []
    received = set()
    for slot in sorted(by_slot):
        cell = by_slot[slot]
        if len(cell) > 1 and conflicts.clash([(u.tx, u.link) for u in cell]):
            for i, u1 in enumerate(cell):
                for u2 in cell[i + 1:]:
                    t1, t2 = (u1.tx, u1.link), (u2.tx, u2.link)
                    if t1 == t2:
                        out.append(("conflict", slot, f"duplicate transmission {t1}"))
                    elif conflicts.conflict(t1, t2):
                        out.append(("conflict", slot, f"tx {u1.tx} on link {u1.link} "
                                    f"vs tx {u2.tx} on link {u2.link}"))
        for u in cell:
            if u.tx != u.origin and (u.origin, u.k, u.tx) not in received:
                late.append(("causality", slot,
                             f"packet {u.origin}.{u.k} sent by {u.tx} before any reception"))
        received.update((u.origin, u.k, u.rx) for u in cell)
    out += late
    if allocation_counts is not None:
        got = Counter((u.origin, u.k, u.link, u.early) for u in timeline.units)
        if got != {k: v for k, v in allocation_counts.items() if v > 0}:
            out.append(("fit", -1, "transmission counts do not match the allocation"))
    return out


def corrupted_runs(runs, T, rng):
    """Run lists that break a valid timeline: whole runs shifted by 5 slots
    either way (overlapping their neighbours in part), duplicated, emptied,
    placed across slot T, shuffled, and all of these at once."""
    def shift(r):
        return r._replace(start=r.start + rng.choice((-5, 5)))

    def across(r):
        return r._replace(start=T - max(1, r.count // 2))

    shifted = [shift(r) if rng.random() < 0.3 else r for r in runs]
    yield shifted
    yield runs + rng.sample(runs, len(runs) // 3)
    yield [r._replace(count=0) if rng.random() < 0.3 else r for r in runs]
    yield [across(r) if rng.random() < 0.2 else r for r in runs]
    yield rng.sample(runs, len(runs))
    mixed = [across(r) if rng.random() < 0.1 else r for r in shifted]
    mixed += [r._replace(count=0) for r in rng.sample(runs, len(runs) // 4)]
    mixed += rng.sample(runs, len(runs) // 4)
    yield rng.sample(mixed, len(mixed))


def test_run_verifier_matches_per_unit_oracle():
    rng = random.Random(17)
    configs = [load_case_raw(case) for case in (1, 2, 3)]
    configs += [json.loads(path.read_text()) for path in sorted(YS_DIR.glob("y??.json"))]
    variants = invalid = 0
    for raw in configs:
        topology = validate_topology(raw)
        conflicts = derive_conflicts(topology)
        for T in (30, 60):
            for sol in map(solved_alone, optimize(topology, T)):
                runs = solution_timeline(sol).runs
                for variant in [runs, *corrupted_runs(runs, T, rng)]:
                    tl = Timeline(variant, T)
                    counts = sol.allocation.entries
                    got = [(v.kind, v.slot, v.detail)
                           for v in verify_timeline(tl, conflicts, T, counts).violations]
                    assert got == verify_oracle(tl, conflicts, T, counts)
                    variants += 1
                    invalid += bool(got)
    assert variants >= 5000 and invalid >= 3500


def test_units_are_fixed_points(case1):
    # a unit is a one-slot run: a timeline of units expands to the same
    # units and verifies as its runs do, broken variants included
    rng = random.Random(19)
    conflicts = derive_conflicts(case1)
    for sol in map(solved_alone, optimize(case1, 30)):
        runs = solution_timeline(sol).runs
        for variant in [runs, *corrupted_runs(runs, 30, rng)]:
            tl = Timeline(variant, 30)
            of_units = Timeline(tl.units, 30)
            assert of_units.units == tl.units
            counts = sol.allocation.entries
            assert verify_timeline(of_units, conflicts, 30, counts) == \
                verify_timeline(tl, conflicts, 30, counts)


def test_verify_work_grows_with_runs_not_slots(case1, monkeypatch):
    # at T = 10 000 the timeline holds one unit per slot, but building and
    # verifying it expands none, and makes one clash call per segment
    # between run boundaries at most
    calls = []
    clash = ConflictSet.clash

    def counting(self, txs):
        calls.append(txs)
        return clash(self, txs)

    timeline = solution_timeline(solve_pattern(find_model(case1, "3-2-3", 11), 1, 10_000))
    monkeypatch.setattr(ConflictSet, "clash", counting)
    assert verify_timeline(timeline, derive_conflicts(case1), 10_000).ok
    assert "units" not in vars(timeline)
    runs = len(timeline.runs)
    assert 0 < len(calls) <= 2 * runs
    assert len(timeline.units) > 100 * runs


def test_placing_plans_together_equals_placing_each_alone(case1):
    for T in (30, 60):
        solutions = optimize(case1, T)
        assert len(solutions) == 27
        for sol in map(solved_alone, solutions):
            alone = [u for plan in sol.plans for u in place_plans([plan])]
            assert place_plans(sol.plans) == alone


def test_one_unit_per_burst_slot_riders_included(case1):
    riders = 0
    for sol in map(solved_alone, optimize(case1, 60)):
        runs = [r for plan in sol.plans
                for r in plan.early + plan.serialized + plan.riders]
        placed = place_plans(sol.plans)
        assert placed == runs
        assert len(units_of(placed)) == sum(r.count for r in runs)
        riders += sum(len(plan.riders) for plan in sol.plans)
    assert riders > 0


def tiles(runs, start):
    """Whether the runs follow each other from slot `start` on, gap-free."""
    for r in runs:
        if r.start != start:
            return False
        start += r.count
    return True


def test_plans_tile_their_windows_and_riders_sit_in_their_hosts():
    # over every optimize solution: early runs tile [0, early total) inside
    # the window, serialized runs tile [window, window + serialized total),
    # each rider run lies in a serialized run of a host use of its step's
    # structure, and no two riders of one host run share a slot; a
    # feasible solution's per-node COM is its timeline's exact delivery
    configs = [load_case_raw(case) for case in (1, 2, 3)]
    configs += [json.loads(path.read_text()) for path in sorted(YS_DIR.glob("y??.json"))]
    seen = Counter()
    for raw in configs:
        topology = validate_topology(raw)
        for T in (30, 60):
            for sol in map(solved_alone, optimize(topology, T)):
                for step in sol.steps:
                    plan = step.plan
                    early = sum(r.count for r in plan.early)
                    assert tiles(plan.early, 0) and early <= plan.window
                    assert tiles(plan.serialized, plan.window)
                    assert all(r.early for r in plan.early + plan.riders)
                    assert not any(r.early for r in plan.serialized)
                    hosted = Counter()
                    for rider in plan.riders:
                        hosts = [h for h in plan.serialized
                                 if (h.origin, h.link) in step.structure.hosts
                                 and h.start <= rider.start
                                 and rider.start + rider.count <= h.start + h.count]
                        assert len(hosts) == 1, (plan.label, rider)
                        hosted.update(range(rider.start, rider.start + rider.count))
                    assert max(hosted.values(), default=1) == 1, plan.label
                    seen["riders"] += len(plan.riders)
                    seen["early"] += len(plan.early)
                    seen["plans"] += 1
                runs = solution_timeline(sol).runs
                assert runs == place_plans(sol.plans)
                if sol.feasible:
                    check_delivery(sol, runs)
                    seen["feasible"] += 1
    assert min(seen.values()) >= 100, seen


def test_exact_delivery_sees_a_missing_or_early_relay_run(case1):
    # the walk gives 0 to a packet that lost a hop's runs, and less than
    # COM to one whose relay run moved before the hop feeding it
    sol = solve_pattern(find_model(case1, "3-2-3", 11), 1, 30)
    runs = solution_timeline(sol).runs
    check_delivery(sol, runs)
    last = runs[-1]
    exact = exact_delivery(sol, [r for r in runs if (r.origin, r.k, r.link)
                                 != (last.origin, last.k, last.link)])
    assert exact[last.origin] == 0.0 < sol.allocation.per_node[last.origin]
    relay = next(r for r in runs if r.tx != r.origin)
    moved = [r._replace(start=-r.count) if r is relay else r for r in runs]
    with pytest.raises(AssertionError):
        check_delivery(sol, moved)


def test_placed_values_cannot_be_written():
    unit = Run(0, 1, 3, 2, 3, 3, 1, False)
    plan = GroupPlan("X", 0, (), (unit,), ())
    with pytest.raises(AttributeError):
        unit.start = 1
    with pytest.raises(AttributeError):
        plan.riders = (unit,)
