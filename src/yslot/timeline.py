"""Slot-by-slot transmission grid: the cycle as the group plans' placed
runs, joined in plan order, and verification of conflict-freedom,
causality, and the cycle bound."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import repeat
from typing import NamedTuple

from .topology import ConflictSet, Topology, derive_conflicts


class TimelineError(Exception):
    pass


class DoesNotFit(TimelineError):
    pass


class CausalityViolation(TimelineError):
    pass


class ConflictViolation(TimelineError):
    pass


_ERRORS = {"conflict": ConflictViolation, "causality": CausalityViolation,
           "fit": DoesNotFit}


class Run(NamedTuple):
    """A burst placed at its first slot: count transmissions from start on,
    each origin's k-th packet sent by tx to rx over link.  A unit, one
    transmission in one slot, is a run of count 1."""

    start: int
    count: int
    tx: int
    rx: int
    link: int
    origin: int
    k: int
    early: bool


# a Run from a row in its field order, built in C without the Python frame
# of the generated __new__: about half the cost of calling Run per unit
_run_of_row = partial(tuple.__new__, Run)


@dataclass(frozen=True)
class GroupPlan:
    """One group's runs, placed: early runs pack from slot 0 inside the
    window, serialized runs start at the window, and each rider run sits in
    its host run's first slots."""

    label: str
    window: int
    early: tuple[Run, ...]
    serialized: tuple[Run, ...]
    riders: tuple[Run, ...]


@dataclass
class Timeline:
    """A cycle as its placed runs, in placement order; the units, one-slot
    runs one per slot of each run, are expanded on first read."""

    runs: list[Run]
    cycle_slots: int

    @cached_property
    def units(self) -> list[Run]:
        return units_of(self.runs)

    @property
    def length(self) -> int:
        return max((r.start + r.count for r in self.runs if r.count > 0), default=0)

    def slots(self) -> dict[int, list[Run]]:
        by_slot: dict[int, list[Run]] = {}
        for u in self.units:
            by_slot.setdefault(u.start, []).append(u)
        return by_slot

    def to_lines(self) -> list[str]:
        """One line per occupied slot, stable field order for diffing."""
        lines = []
        by_slot = self.slots()
        for slot in sorted(by_slot):
            cells = sorted(by_slot[slot], key=lambda u: (u.tx, u.link, u.origin, u.k))
            body = " ".join(
                f"{u.tx}→{u.rx}:{u.link}#{u.origin}"
                + (f".{u.k}" if u.k > 1 else "") + ("'" if u.early else "")
                for u in cells)
            lines.append(f"{slot}: {body}")
        return lines


@dataclass
class Violation:
    kind: str
    slot: int
    detail: str


@dataclass
class VerificationReport:
    ok: bool
    violations: list[Violation] = field(default_factory=list)

    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None

    def raise_first(self) -> None:
        """Raise the first violation, if any, as its `TimelineError` subclass."""
        if v := self.first():
            raise _ERRORS[v.kind](f"slot {v.slot}: {v.detail}")


def place_plans(plans: list[GroupPlan]) -> list[Run]:
    """The plans' runs in plan order, each plan's early, serialized, then
    rider runs; raises DoesNotFit where early runs end past the window."""
    runs: list[Run] = []
    for plan in plans:
        end = max((r.start + r.count for r in plan.early), default=0)
        if end > plan.window:
            raise DoesNotFit(
                f"group {plan.label}: {end} early slots exceed window {plan.window}")
        runs += plan.early + plan.serialized + plan.riders
    return runs


def units_of(runs: list[Run]) -> list[Run]:
    """One unit, a one-slot run, per slot of each run, in run order."""
    units: list[Run] = []
    for start, count, *fields in runs:
        units.extend(map(_run_of_row, zip(range(start, start + count), repeat(1),
                                          *map(repeat, fields))))
    return units


def build_timeline(topology: Topology, plans: list[GroupPlan],
                   cycle_slots: int) -> Timeline:
    """Join all plans' runs and verify; raises on the first violation."""
    timeline = Timeline(place_plans(plans), cycle_slots)
    verify_timeline(timeline, derive_conflicts(topology), cycle_slots).raise_first()
    return timeline


def verify_timeline(timeline: Timeline, conflicts: ConflictSet, cycle_slots: int,
                    allocation_counts: dict[tuple[int, int, int, bool], int] | None = None,
                    ) -> VerificationReport:
    """Check the three Timeline invariants; report every violating slot.

    Fit: each unit lies inside the cycle, is a transmission of the
    topology and carries a packet its origin generates.  Conflicts: no
    slot repeats a transmission or holds two that conflict.  Causality: a
    relay sends a packet only after a strictly earlier unit carried it
    with the relay as its receiver.  The checks walk the placed runs and
    expand only the runs and segments they flag; violations come out as a
    walk over the units would give them: fit (in unit order), then
    conflict, then causality (each in slot order, a slot's in run order)."""
    runs = [r for r in timeline.runs if r.count > 0]
    violations: list[Violation] = []
    outside = f"transmission outside cycle of {cycle_slots} slots"
    for r in runs:
        reasons = []
        if not conflicts.sends(r.tx, r.rx, r.link):
            reasons.append(f"tx {r.tx} on link {r.link} to {r.rx} "
                           "is not a transmission of the topology")
        if not conflicts.generates(r.origin, r.k):
            reasons.append(f"packet {r.origin}.{r.k} is not generated by node {r.origin}")
        if reasons or r.start < 0 or r.start + r.count > cycle_slots:
            for slot in range(r.start, r.start + r.count):
                if not 0 <= slot < cycle_slots:
                    violations.append(Violation("fit", slot, outside))
                violations.extend(Violation("fit", slot, why) for why in reasons)

    # conflicts: between two run boundaries the same runs are active at
    # every slot, so one clash call clears the whole segment; a clashing
    # segment repeats its pairwise scan at each of its slots
    edges: dict[int, list[int]] = {}
    for i, r in enumerate(runs):
        for edge in (r.start, r.start + r.count):
            edges.setdefault(edge, []).append(i)
    bounds = sorted(edges)
    active: set[int] = set()
    for lo, hi in zip(bounds, bounds[1:]):
        active.symmetric_difference_update(edges[lo])   # runs that start or end at lo
        if len(active) > 1:
            cell = [runs[i] for i in sorted(active)]
            if conflicts.clash([(r.tx, r.link) for r in cell]):
                pairs = _conflicts_in(cell, conflicts)
                violations.extend(Violation("conflict", slot, detail)
                                  for slot in range(lo, hi) for detail in pairs)

    # causality: a relay run's slots up to the packet's first reception at
    # its transmitter (all of them, if none) send before any reception
    received = {(r.origin, r.k, r.rx): r.start   # the earliest start is written last
                for r in sorted(runs, key=lambda r: r.start, reverse=True)}
    late = []
    for i, r in enumerate(runs):
        if r.tx != r.origin:
            end = r.start + r.count
            first = received.get((r.origin, r.k, r.tx), end)
            late.extend((slot, i) for slot in range(r.start, min(first + 1, end)))
    late.sort()
    for slot, i in late:
        r = runs[i]
        violations.append(Violation("causality", slot, f"packet {r.origin}.{r.k} "
                                    f"sent by {r.tx} before any reception"))

    if allocation_counts is not None:
        got: Counter = Counter()
        for r in runs:
            got[r.origin, r.k, r.link, r.early] += r.count
        want = {k: v for k, v in allocation_counts.items() if v > 0}
        if got != want:
            violations.append(Violation(
                "fit", -1, "transmission counts do not match the allocation"))

    return VerificationReport(ok=not violations, violations=violations)


def _conflicts_in(cell: list[Run], conflicts: ConflictSet) -> list[str]:
    """Every repeated or conflicting pair of one slot's runs, in cell order."""
    out = []
    for i, r1 in enumerate(cell):
        for r2 in cell[i + 1:]:
            t1, t2 = (r1.tx, r1.link), (r2.tx, r2.link)
            if t1 == t2:
                out.append(f"duplicate transmission {t1}")
            elif conflicts.conflict(t1, t2):
                out.append(f"tx {r1.tx} on link {r1.link} "
                           f"vs tx {r2.tx} on link {r2.link}")
    return out
