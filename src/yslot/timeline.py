"""Slot-by-slot transmission grid: construction from group plans and
verification of conflict-freedom, causality, and the cycle bound."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from operator import itemgetter
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


class Unit(NamedTuple):
    """One transmission: origin's k-th packet sent by tx over link in a slot."""

    slot: int
    tx: int
    rx: int
    link: int
    origin: int
    k: int
    early: bool


# a Unit from a row in its field order, built in C without the Python frame
# of the generated __new__: about half the cost of calling Unit per slot
_unit_of_row = partial(tuple.__new__, Unit)
_sent = itemgetter(1, 2, 3)   # a Unit's (tx, rx, link)
_packet = itemgetter(4, 5)    # a Unit's (origin, k)
_sent_packet = itemgetter(1, 2, 3, 4, 5)   # both at once


class PlacedBurst(NamedTuple):
    """A run of identical transmissions, placed consecutively: origin's
    k-th packet sent by tx over link, count times.

    riders are early bursts co-scheduled in this burst's first slots
    (at most one rider unit per slot).
    """

    origin: int
    k: int
    tx: int
    link: int
    count: int
    early: bool
    riders: tuple[PlacedBurst, ...] = ()


@dataclass(frozen=True)
class GroupPlan:
    """Placement recipe for one group: early bursts pack from slot 0,
    serialized bursts start at the window."""

    label: str
    window: int
    early: tuple[PlacedBurst, ...]
    serialized: tuple[PlacedBurst, ...]


@dataclass
class Timeline:
    units: list[Unit]
    cycle_slots: int

    @property
    def length(self) -> int:
        return max((u.slot for u in self.units), default=-1) + 1

    def slots(self) -> dict[int, list[Unit]]:
        by_slot: dict[int, list[Unit]] = {}
        for u in self.units:
            by_slot.setdefault(u.slot, []).append(u)
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


class Run(NamedTuple):
    """A burst placed at its first slot: count units from start on, each
    origin's k-th packet sent by tx to rx over link."""

    start: int
    count: int
    tx: int
    rx: int
    link: int
    origin: int
    k: int
    early: bool


def place_plans(topology: Topology, plans: list[GroupPlan]) -> list[Run]:
    """Place group plans as one run per burst, each rider a run of its own
    at its host's cursor; deterministic in plan order."""
    runs: list[Run] = []

    def emit(burst: PlacedBurst, start: int) -> int:
        rx = topology.links[burst.link].other(burst.tx)
        end = start + burst.count
        runs.append(Run(start, burst.count, burst.tx, rx, burst.link,
                        burst.origin, burst.k, burst.early))
        cursor = start
        for rider in burst.riders:
            cursor = emit(rider, cursor)
        if cursor > end:
            raise DoesNotFit("rider transmissions exceed their host burst")
        return end

    for plan in plans:
        cursor = 0
        for burst in plan.early:
            cursor = emit(burst, cursor)
        if cursor > plan.window:
            raise DoesNotFit(
                f"group {plan.label}: {cursor} early slots exceed window {plan.window}")
        cursor = plan.window
        for burst in plan.serialized:
            cursor = emit(burst, cursor)
    return runs


def units_of(runs: list[Run]) -> list[Unit]:
    """One unit per slot of each run, in run order."""
    units: list[Unit] = []
    for start, count, *fields in runs:
        units.extend(map(_unit_of_row, zip(range(start, start + count),
                                           *map(repeat, fields))))
    return units


def build_timeline(topology: Topology, plans: list[GroupPlan],
                   cycle_slots: int) -> Timeline:
    """Place all plans and verify; raises on the first violation."""
    timeline = Timeline(units_of(place_plans(topology, plans)), cycle_slots)
    verify_timeline(timeline, derive_conflicts(topology), cycle_slots).raise_first()
    return timeline


def verify_timeline(timeline: Timeline, conflicts: ConflictSet, cycle_slots: int,
                    allocation_counts: dict[tuple[int, int, int, bool], int] | None = None,
                    ) -> VerificationReport:
    """Check the three Timeline invariants; report every violating slot.

    Fit: each unit lies inside the cycle, is a transmission of the
    topology and carries a packet its origin generates (checked once per
    distinct (tx, rx, link) and (origin, k), since a burst repeats one).
    One walk over the occupied slots in order checks both conflicts and
    causality; violations come out as fit (in unit order), then conflict,
    then causality (each in slot order)."""
    by_slot = timeline.slots()
    order = sorted(by_slot)
    violations: list[Violation] = []
    sent = set(map(_sent_packet, timeline.units))
    foreign = {t[:3] for t in sent if not conflicts.sends(*t[:3])}
    stray = {t[3:] for t in sent if not conflicts.generates(*t[3:])}
    if foreign or stray or order and (order[0] < 0 or order[-1] >= cycle_slots):
        for u in timeline.units:
            if u.slot < 0 or u.slot >= cycle_slots:
                violations.append(Violation(
                    "fit", u.slot, f"transmission outside cycle of {cycle_slots} slots"))
            if _sent(u) in foreign:
                violations.append(Violation("fit", u.slot, f"tx {u.tx} on link {u.link} "
                                            f"to {u.rx} is not a transmission of the topology"))
            if _packet(u) in stray:
                violations.append(Violation("fit", u.slot, f"packet {u.origin}.{u.k} "
                                            f"is not generated by node {u.origin}"))

    # conflicts: a slot runs the pairwise scan only when its transmissions
    # clash; a burst repeats one slot's transmissions, so the last clean
    # list is kept.  causality: a relay sends a packet only after a strictly
    # earlier unit carried the same packet with the relay as its receiver
    late: list[Violation] = []
    received: set[tuple[int, int, int]] = set()
    clean = None
    for slot in order:
        cell = by_slot[slot]
        if len(cell) > 1:
            txs = [(u.tx, u.link) for u in cell]
            if txs != clean:
                if conflicts.clash(txs):
                    violations.extend(_conflicts_in(slot, cell, conflicts))
                else:
                    clean = txs
        for u in cell:
            if u.tx != u.origin and (u.origin, u.k, u.tx) not in received:
                late.append(Violation(
                    "causality", slot,
                    f"packet {u.origin}.{u.k} sent by {u.tx} before any reception"))
        received.update([(u.origin, u.k, u.rx) for u in cell])
    violations.extend(late)

    if allocation_counts is not None:
        got = Counter((u.origin, u.k, u.link, u.early) for u in timeline.units)
        want = {k: v for k, v in allocation_counts.items() if v > 0}
        if got != want:
            violations.append(Violation(
                "fit", -1, "transmission counts do not match the allocation"))

    return VerificationReport(ok=not violations, violations=violations)


def _conflicts_in(slot: int, cell: list[Unit], conflicts: ConflictSet) -> list[Violation]:
    """Every repeated or conflicting pair of one slot's units, in cell order."""
    out = []
    for i, u1 in enumerate(cell):
        for u2 in cell[i + 1:]:
            t1, t2 = (u1.tx, u1.link), (u2.tx, u2.link)
            if t1 == t2:
                out.append(Violation("conflict", slot, f"duplicate transmission {t1}"))
            elif conflicts.conflict(t1, t2):
                out.append(Violation(
                    "conflict", slot,
                    f"tx {u1.tx} on link {u1.link} vs tx {u2.tx} on link {u2.link}"))
    return out
