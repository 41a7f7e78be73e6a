"""Slot-by-slot transmission grid: construction from group plans and
verification of conflict-freedom, causality, and the cycle bound."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .topology import ConflictSet, Topology, derive_conflicts


class TimelineError(Exception):
    pass


class DoesNotFit(TimelineError):
    pass


class CausalityViolation(TimelineError):
    pass


class ConflictViolation(TimelineError):
    pass


@dataclass(frozen=True)
class Unit:
    """One transmission: origin's k-th packet sent by tx over link in a slot."""

    slot: int
    tx: int
    rx: int
    link: int
    origin: int
    k: int
    early: bool


@dataclass(frozen=True)
class PlacedBurst:
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


def place_plans(topology: Topology, plans: list[GroupPlan]) -> list[Unit]:
    """Materialize group plans into units; deterministic in plan order."""
    units: list[Unit] = []

    def emit(burst: PlacedBurst, start: int) -> int:
        rx = topology.links[burst.link].other(burst.tx)
        end = start + burst.count
        units.extend(Unit(slot, burst.tx, rx, burst.link, burst.origin, burst.k,
                          burst.early) for slot in range(start, end))
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
    return units


def build_timeline(topology: Topology, plans: list[GroupPlan],
                   cycle_slots: int) -> Timeline:
    """Place all plans and verify; raises on the first violation."""
    timeline = Timeline(place_plans(topology, plans), cycle_slots)
    report = verify_timeline(timeline, derive_conflicts(topology), cycle_slots)
    if not report.ok:
        v = report.first()
        exc = {"conflict": ConflictViolation, "causality": CausalityViolation,
               "fit": DoesNotFit}[v.kind]
        raise exc(f"slot {v.slot}: {v.detail}")
    return timeline


def verify_timeline(timeline: Timeline, conflicts: ConflictSet, cycle_slots: int,
                    allocation_counts: dict[tuple[int, int, int, bool], int] | None = None,
                    ) -> VerificationReport:
    """Check the three Timeline invariants; report every violating slot."""
    violations: list[Violation] = []

    for u in timeline.units:
        if u.slot < 0 or u.slot >= cycle_slots:
            violations.append(Violation("fit", u.slot,
                                        f"transmission outside cycle of {cycle_slots} slots"))

    for slot, cell in sorted(timeline.slots().items()):
        for i, u1 in enumerate(cell):
            for u2 in cell[i + 1:]:
                t1, t2 = (u1.tx, u1.link), (u2.tx, u2.link)
                if t1 == t2:
                    violations.append(Violation(
                        "conflict", slot, f"duplicate transmission {t1}"))
                elif conflicts.conflict(t1, t2):
                    violations.append(Violation(
                        "conflict", slot,
                        f"tx {u1.tx} on link {u1.link} vs tx {u2.tx} on link {u2.link}"))

    # causality: a relay sends a packet only after a strictly earlier unit
    # carried the same packet with the relay as its receiver
    first_rx: dict[tuple[int, int, int], int] = {}
    for v in timeline.units:
        key = (v.origin, v.k, v.rx)
        first_rx[key] = min(v.slot, first_rx.get(key, v.slot))
    for u in sorted(timeline.units, key=lambda u: u.slot):
        received = first_rx.get((u.origin, u.k, u.tx), u.slot)
        if u.tx != u.origin and not received < u.slot:
            violations.append(Violation(
                "causality", u.slot,
                f"packet {u.origin}.{u.k} sent by {u.tx} before any reception"))

    if allocation_counts is not None:
        got = Counter((u.origin, u.k, u.link, u.early) for u in timeline.units)
        want = {k: v for k, v in allocation_counts.items() if v > 0}
        if got != want:
            violations.append(Violation(
                "fit", -1, "transmission counts do not match the allocation"))

    return VerificationReport(ok=not violations, violations=violations)
