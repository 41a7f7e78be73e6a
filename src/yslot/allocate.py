"""Integer slot allocation per path model and pattern.

Pipeline per group, in pattern placement order:

1. Candidate budget structures: the plain serialized budget, plus the two
   overlap orientations when a feeder's first-hop burst and the terminal
   node's own burst do not interfere (the feeder hops can share the
   terminal's slots, or vice versa).
2. Integer optimum per structure by greedy marginal-gain allocation at
   budget T, scored once: its product and per-node COM.  Gains, packet
   hop keys and products come from the solve's loss tables, so each is
   made once per solve, not once per call.
3. Per step, one `_early_step` for the integer (per packet hop) and the
   relaxed (per use) walk fills the window left by previously placed
   groups from the optimum, in fill order (upstream hops first).  A
   covered window keeps the optimum and its scores; only a short one
   splits the group into a window part and the rest (c5), greedied and
   scored anew.  The first best product wins (COM), and only the winner
   gets a slot table and a plan of placed runs (`_build_plan`): early
   from slot 0, serialized from the window, riders in host runs' first slots.
4. The relaxed optimum (adjunct-variable solve) of the winning structure
   only is the group's TUB product, so TUB >= COM holds by relaxed
   feasibility; `relaxed_table` builds the TUB slot table on demand.

`_GroupTable.solve` is the one loop that places a pattern's groups.
`optimize` shares one table across its patterns and drops each Z group
after its model; `solve_pattern` builds one for its pattern.  One topology and
one T fix everything but the group, so the first level is keyed on
(label, the group's (node, route) pairs) and holds the group's layout (its
origins, transmitter map and ranks, from `_layout`), candidate structures
and predicted case; per candidate, the budget-T greedy, its scores and
the fill order with nothing blocked, sorted once (a step keeps its
unblocked route prefixes); and, once a structure wins, its relaxed
optimum and burst order.  Orders hold the transmitter map's own key
tuples, never copies, and the table owns the loss tables, so no cache
outlives a solve.  A group's step reads the placement before it only
through the early window and the blocked uses, which one `_window_scan`
gives, the blocked uses in transmitter-map order, so the second level is
keyed on (window, blocked uses) and holds the frozen `GroupStep` a
solution is made of.  Both hits are exact: the key is every input of the
work it stands for.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType

from .pathmodel import (PathModel, PatternSpec, enumerate_path_models,
                        patterns_for)
from .relax import (TOL, StructuredRelax, Use, log1m_pow, solve_plain_structure,
                    solve_rider_feeders, solve_rider_terminal)
from .timeline import GroupPlan, _run_of_row, build_timeline, place_plans
from .topology import ConflictSet, Topology, check_cycle_slots, derive_conflicts

TxLink = tuple[int, int]  # (tx node, link): a transmitter
UseKey = tuple[int, int]  # (origin node, link): one origin's hop, a budget use
EntryKey = tuple[int, int, int]  # (origin node, packet k, link)
SlotKey = tuple[int, int, int, bool]  # (origin node, packet k, link, early)
Placed = dict[TxLink, float]  # last end per transmitter
Ranks = tuple[dict[int, int], dict[int, int]]  # link ranks, origin ranks


@dataclass(frozen=True)
class Origin:
    node: int
    rate: int
    route: tuple[tuple[int, float], ...]  # (link id, loss), upstream to gateway


class _LossTable:
    """One loss rate q: `logs[v]` is log1m_pow(q, v) at slot count v, and
    `gains[v]` the negated marginal gain of the (v+1)-th slot,
    -(logs[v + 1] - logs[v]) (-inf for the first); both grow on demand."""

    __slots__ = ("q", "logs", "gains")

    def __init__(self, q: float):
        self.q = q
        self.logs: list[float] = []
        self.gains: list[float] = []

    def log(self, v: int) -> float:
        logs = self.logs
        while len(logs) <= v:
            logs.append(log1m_pow(self.q, len(logs)))
        return logs[v]

    def grow(self) -> list[float]:
        """Append the next negated gain; returns `gains`."""
        v = len(self.gains)
        self.gains.append(-(self.log(v + 1) - self.logs[v]))
        return self.gains


class LossTables(dict):
    """One solve's `_LossTable` per loss rate, made on first read, and
    `hops`, each use's packet entries, shared by all the solve's greedies."""

    def __init__(self):
        super().__init__()
        self.hops: dict[tuple, tuple[tuple[EntryKey, float], ...]] = {}

    def __missing__(self, q: float) -> _LossTable:
        table = self[q] = _LossTable(q)
        return table


@dataclass(frozen=True)
class Structure:
    """One serialized-budget layout for a group (plain or overlap orientation)."""

    kind: str                  # plain | rider-terminal | rider-feeders
    label: str                 # plain | case1 | case2 | caseA | caseB
    uses: tuple[Use, ...]      # budget uses, chain order
    riders: tuple[Use, ...]    # free-riding uses (share host slots)
    hosts: tuple[UseKey, ...]  # uses whose slots host the riders

    def use_keys(self) -> set[UseKey]:
        return {(u.node, u.link) for u in self.uses}


def _packet_entries(uses: tuple[Use, ...], hops: dict) -> list[tuple[EntryKey, float]]:
    """((node, k, link), loss) of each use's packets, built once per solve."""
    entries = []
    for u in uses:
        key = (u.node, u.link, u.q, u.weight)
        entries += hops.get(key) or hops.setdefault(key, tuple(
            ((u.node, k, u.link), u.q) for k in range(1, u.weight + 1)))
    return entries


def _chain_uses(origins: tuple[Origin, ...]) -> tuple[Use, ...]:
    """Every (origin, route link) of a group as a budget use, chain order."""
    return tuple(Use(o.node, link, q, o.rate) for o in origins for link, q in o.route)


def _layout(model: PathModel, label: str) -> tuple[
        tuple[Origin, ...], dict[UseKey, TxLink], Ranks, list[UseKey]]:
    """A group's view.  One walk over its nodes and route hops gives its
    origins (most upstream first) with their (link, loss) routes, and its
    transmitter map, (origin, link) -> (tx node, link) in group order, then
    route order, where each hop is sent by the far end of the hop before
    it and the hops of one transmitter share its tuple.  Its ranks and its
    fill order with nothing blocked follow from those."""
    topo = model.topology
    origins, txmap, txs = [], {}, {}
    for node, link_ids in model.group_routes(label):
        route, tx = [], node
        for link_id in link_ids:
            link, txlink = topo.links[link_id], (tx, link_id)
            txmap[(node, link_id)] = txs.setdefault(txlink, txlink)
            route.append((link_id, link.loss))
            tx = link.other(tx)
        origins.append(Origin(node, topo.rates[node], tuple(route)))
    origins = tuple(origins)
    ranks = _chain_ranks(origins)
    return origins, txmap, ranks, _fill_order(txmap, ranks)


def candidate_structures(origins: tuple[Origin, ...],
                         conflicts: ConflictSet) -> list[Structure]:
    """Plain budget always; overlap orientations when feeders qualify.

    A feeder is an origin whose first-hop link carries no other packets and
    whose first-hop transmission does not conflict with the terminal node's
    own transmission, so the two bursts may share slots.
    """
    all_uses = _chain_uses(origins)
    plain = Structure("plain", "plain", all_uses, (), ())

    terminal = origins[-1]
    if len(terminal.route) != 1 or len(origins) == 1:
        return [plain]
    gw_link, gw_q = terminal.route[0]
    term_tx: TxLink = (terminal.node, gw_link)
    packets: dict[int, int] = {}   # packets per cycle over each link
    for o in origins:
        for link, _q in o.route:
            packets[link] = packets.get(link, 0) + o.rate

    feeders = []
    for o in origins[:-1]:
        fh_link, fh_q = o.route[0]
        if packets[fh_link] != o.rate:
            continue
        if conflicts.conflict((o.node, fh_link), term_tx):
            continue
        feeders.append(Use(o.node, fh_link, fh_q, o.rate))
    if not feeders:
        return [plain]

    term_use = Use(terminal.node, gw_link, gw_q, terminal.rate)
    feeder_keys = tuple((f.node, f.link) for f in feeders)
    single = len(feeders) == 1
    rider_feed = Structure(
        "rider-feeders", "case1" if single else "caseB",
        tuple(u for u in all_uses if (u.node, u.link) not in feeder_keys),
        tuple(feeders), (term_tx,))
    rider_term = Structure(
        "rider-terminal", "case2" if single else "caseA",
        tuple(u for u in all_uses if (u.node, u.link) != term_tx),
        (term_use,), feeder_keys)
    return [plain, rider_feed, rider_term]


def predicted_case(origins: tuple[Origin, ...],
                   structures: list[Structure]) -> str | None:
    """Predicted overlap winner by the loss-rate rule: favor the side that
    frees budget share for the lossier link (single-feeder chains only)."""
    riders = [s for s in structures if s.kind == "rider-feeders"]
    if not riders or len(riders[0].riders) != 1:
        return None
    feeder = riders[0].riders[0]
    gw_q = origins[-1].route[0][1]
    return "case1" if gw_q >= feeder.q else "case2"


def _relax_structure(st: Structure, budget: float) -> StructuredRelax:
    uses = list(st.uses)
    if st.kind == "plain":
        return solve_plain_structure(uses, budget)
    if st.kind == "rider-terminal":
        feeders = [u for u in uses if (u.node, u.link) in st.hosts]
        return solve_rider_terminal(uses, feeders, st.riders[0], budget)
    terminal = next(u for u in uses if (u.node, u.link) == st.hosts[0])
    return solve_rider_feeders(uses, terminal, list(st.riders), budget)


def _greedy_int(st: Structure, budget: int, losses: LossTables,
                ) -> tuple[dict[EntryKey, int], dict[EntryKey, int]]:
    """Greedy marginal-gain integer allocation; exact for separable chains.

    Every host slot carries one rider slot, so a host entry's marginal adds
    the best rider marginal; ties go to the earliest entry (upstream first).
    Non-host entries and riders sit in heaps keyed (-gain, index), whose
    top is the earliest entry of largest gain.  The few hosts are summed
    with the rider gain and compared one by one, since that sum can round
    two unequal host gains into a tie the index must break; a free step
    changes neither the host counts nor the rider heap, so they are
    rescanned only after a host step.  Gains and keys come from the
    solve's loss tables, so each is made once per solve.
    """
    entries = _packet_entries(st.uses, losses.hops)
    riders = _packet_entries(st.riders, losses.hops)
    host_keys = set(st.hosts) if riders else set()
    tables = [losses[q] for _key, q in entries]
    rtables = [losses[q] for _key, q in riders]
    gains = [t.gains or t.grow() for t in tables]
    rgains = [t.gains or t.grow() for t in rtables]
    vals = [0] * len(entries)
    rvals = [0] * len(riders)
    hosts = [i for i, (key, _q) in enumerate(entries)
             if (key[0], key[2]) in host_keys]
    free = [(t[0], i) for i, t in enumerate(gains) if i not in hosts]
    rheap = [(t[0], r) for r, t in enumerate(rgains)]
    heapq.heapify(free)
    heapq.heapify(rheap)

    best, best_gain, rescan = None, -math.inf, True
    for _ in range(max(0, budget)):
        if hosts and rescan:
            best, best_gain, rescan = None, -math.inf, False
            rider_gain = -rheap[0][0]
            for i in hosts:
                g = -gains[i][vals[i]] + rider_gain
                if g > best_gain:
                    best, best_gain = i, g
        if free and (best is None or -free[0][0] > best_gain
                     or (-free[0][0] == best_gain and free[0][1] < best)):
            i = free[0][1]
            v = vals[i] = vals[i] + 1
            if v == len(gains[i]):
                tables[i].grow()
            heapq.heapreplace(free, (gains[i][v], i))
        elif best is not None:
            v = vals[best] = vals[best] + 1
            if v == len(gains[best]):
                tables[best].grow()
            r = rheap[0][1]
            v = rvals[r] = rvals[r] + 1
            if v == len(rgains[r]):
                rtables[r].grow()
            heapq.heapreplace(rheap, (rgains[r][v], r))
            rescan = True
        else:
            break
    return (dict(zip((key for key, _q in entries), vals)),
            dict(zip((key for key, _q in riders), rvals)))


def _split_structure(st: Structure, hide_set: set[UseKey],
                     ) -> tuple[Structure, Structure]:
    """Case c5 parts: the structure without its hideable uses, and the
    hideable uses alone as a plain structure."""
    rest = tuple(u for u in st.uses if (u.node, u.link) not in hide_set)
    hide = tuple(u for u in st.uses if (u.node, u.link) in hide_set)
    return (Structure(st.kind, st.label, rest, st.riders, st.hosts),
            Structure("plain", "plain", hide, (), ()))


def _chain_ranks(origins: tuple[Origin, ...]) -> Ranks:
    """Rank of each link, upstream first (deepest from the gateway), and of
    each origin in chain order."""
    depth: dict[int, int] = {}
    for o in origins:
        for idx, (link, _) in enumerate(o.route):
            depth[link] = max(depth.get(link, 0), len(o.route) - idx)
    links = sorted(depth, key=lambda l: (-depth[l], l))
    return ({l: i for i, l in enumerate(links)},
            {o.node: i for i, o in enumerate(origins)})


def _widen(placed: Placed, txlink: TxLink, end) -> None:
    """Move a transmitter's last placed end up to `end`."""
    placed[txlink] = max(placed.get(txlink, end), end)


def _window_scan(placed: Placed, txmap: dict[UseKey, TxLink],
                 conflicts: ConflictSet) -> tuple[float, tuple[UseKey, ...]]:
    """A group's early window, the first slot from which nothing already
    placed conflicts with any of its transmitters (0 when nothing does),
    and its blocked uses, the use keys in transmitter-map order whose
    transmitter conflicts with a placed one starting inside the window.
    Conflicts are symmetric, and a placed transmitter that conflicts with
    the group ends by the window and starts before its last end (no run is
    empty), so the transmitters one pass finds by the group's mask are
    those that block its uses.  Integer slot s is (s, s + 1)."""
    mask = conflicts.mask_of(txmap.values())
    window, near = 0, []
    for txlink, end in placed.items():
        if conflicts.hits(mask, txlink):
            near.append(txlink)
            window = max(window, end)
    mask = conflicts.mask_of(near)
    return window, tuple(use_key for use_key, txlink in txmap.items()
                         if conflicts.hits(mask, txlink))


def _fill_order(keys, ranks: Ranks) -> list[UseKey]:
    """Use keys in fill order: upstream link first, downstream origin first
    within a link.  The key is a strict total order, so any subset of the
    order is in fill order too."""
    order, pos = ranks
    return sorted(keys, key=lambda key: (order[key[1]], -pos[key[0]], key[0]))


def _unhideable(st: Structure, keys) -> set[UseKey]:
    """The chain's use keys that never move into the window: those that
    are not budget uses of the structure, and those that host riders."""
    use_keys = st.use_keys()
    return {key for key in keys if key not in use_keys or key in st.hosts}


def _hideable_uses(fill: list[UseKey], blocked: set[UseKey],
                   ranks: Ranks) -> list[UseKey]:
    """Budget uses that may move into the window, in fill order: the hops
    of `fill` with no blocked hop at or upstream of them on their origin's
    route, so each packet can reach its transmitter inside the window.
    Link ranks grow along a route."""
    if not blocked:
        return fill
    order = ranks[0]
    last = len(order)
    cut: dict[int, int] = {}   # per origin, the rank of its first blocked hop
    for node, link in blocked:
        if order[link] < cut.get(node, last):
            cut[node] = order[link]
    return [key for key in fill if order[key[1]] < cut.get(key[0], last)]


def _classify_case(hide_order: list[UseKey], tentative: dict[EntryKey, int],
                   window: int) -> str:
    """Hide-regime label of a filled window: c1 (c2) when the first
    (second) hideable use alone could cover it, c3 when the first two
    could, else c4; "" at window 0.  Capacities are the tentative slots of
    each hideable use, in fill order, and they cover the window."""
    if window <= 0:
        return ""
    capacities = dict.fromkeys(hide_order, 0)
    for (node, _k, link), v in tentative.items():
        if (node, link) in capacities:
            capacities[(node, link)] += v
    caps = list(capacities.values())
    if window <= caps[0]:
        return "c1"
    if window <= caps[1]:
        return "c2"
    return "c3" if window <= caps[0] + caps[1] else "c4"


def _delivery_product(origins, totals: dict[EntryKey, int], losses: LossTables):
    """Probability that every packet of the origins crosses its route, and
    per origin node: the product of (1 - q^slots) over each packet's route
    links, 0 when a link got no slot.  Each log term goes into the running
    sum and its origin's, so both equal a walk over their origins alone."""
    log_m = 0.0
    per_node = {}
    for o in origins:
        log_o = 0.0
        for k in range(1, o.rate + 1):
            for link, q in o.route:
                term = losses[q].log(totals.get((o.node, k, link), 0))
                log_m += term
                log_o += term
        per_node[o.node] = math.exp(log_o) if log_o > -math.inf else 0.0
    return (math.exp(log_m) if log_m > -math.inf else 0.0), per_node


def _fill(amounts: dict, order, window, eps: float = 0.0) -> dict:
    """Move amounts into the window in fill order until it is covered (per
    packet hop or, with the relaxed walk's `eps`, per use); `order` is read
    only while the window is open."""
    early = {}
    remaining = window
    for key in order:
        if remaining <= eps:
            break
        take = min(amounts.get(key, 0), remaining)
        if take > eps:
            early[key] = take
            remaining -= take
    return early


def _early_step(st: Structure, optimum: dict, window, budget,
                hide_order: list[UseKey], order, solve, eps: float = 0.0):
    """Early-window step of both walks: fill the window from the budget-T
    optimum in fill order (`order(amounts)`); a full window keeps that
    optimum (none at window 0, hide cases c1-c4).  Otherwise split (c5):
    `solve(part, budget)` shares `budget - window` among the other uses and
    `window` among the hideable ones, restricted to the hops their fill
    order admits.  Both regimes are optimal for the constraint set
    (serialized sum <= budget - window, early sum <= window, early only on
    hideable hops).  Returns the fill, and the split's (serialized, early
    in fill order, rider) or None."""
    early = _fill(optimum, order(optimum), window, eps)
    if sum(early.values()) + eps >= window:
        return early, None
    st_rest, st_hide = _split_structure(st, set(hide_order))
    serialized, rider = solve(st_rest, budget - window)
    hide, _ = solve(st_hide, window)
    return early, (serialized, {key: hide[key] for key in order(hide)
                                if hide.get(key, 0) > eps}, rider)


def _step_parts(optimum: dict, rider: dict, early: dict, split):
    """(serialized, early, rider) of an early-window step: the split's
    parts, or the optimum less the fill that covers the window."""
    if split:
        return split
    return {key: v - early.get(key, 0) for key, v in optimum.items()}, early, rider


def _packet_order(rates: dict[int, int], hide_order: list[UseKey],
                  tentative: dict[EntryKey, int]):
    """Packet hops of the hideable uses in fill order, each only if its
    packet holds tentative slots on its previous hop.  Hideable uses are
    route prefixes filled upstream first, so an origin's previous hop is
    the one of its hops met last, and it is in the window before this one
    unless the window is covered."""
    upstream: dict[int, int] = {}
    for node, link in hide_order:
        up = upstream.get(node)
        for k in range(1, rates[node] + 1):
            if up is None or tentative.get((node, k, up), 0) > 0:
                yield (node, k, link)
        upstream[node] = link


def assign_early_slots(parts, split, hide_order: list[UseKey],
                       tentative: dict[EntryKey, int],
                       window: int) -> tuple[dict[SlotKey, int], str]:
    """Slot table of an integer early-window step from its (serialized,
    early, rider) parts: serialized slots, then the early ones in fill
    order, then the riders', zero counts left out; and its window regime
    from the budget-T greedy: "" none, c1-c4 hide, c5 split."""
    table = {(node, k, link, is_early): v
             for is_early, counts in zip((False, True, True), parts)
             for (node, k, link), v in counts.items() if v > 0}
    return table, "c5" if split else _classify_case(hide_order, tentative, window)


# ---------------------------------------------------------------------------
# pattern orchestration


@dataclass
class SlotAllocation:
    entries: dict[SlotKey, int]
    per_node: dict[int, float]


@dataclass
class PatternSolution:
    model: PathModel
    pattern: PatternSpec
    cycle_slots: int
    tub_product: float
    com_product: float
    per_node: dict[int, float]     # node order; COM is their product
    steps: tuple[GroupStep, ...]   # placement order, shared read-only

    @property
    def allocation(self) -> SlotAllocation:
        """The steps' slot tables merged in step order, made on each read."""
        entries: dict[SlotKey, int] = {}
        for step in self.steps:
            entries.update(step.entries)
        return SlotAllocation(entries, self.per_node)

    @property
    def feasible(self) -> bool:
        return self.com_product > 0.0

    @property
    def plans(self) -> tuple[GroupPlan, ...]:
        return tuple(step.plan for step in self.steps)

    @property
    def window(self) -> int:
        return max((plan.window for plan in self.plans), default=0)

    @property
    def case_label(self) -> str:
        labels = sorted((s.plan.label, s.case_label) for s in self.steps)
        parts = [f"{g}:{lab}" for g, lab in labels if lab]
        return ";".join(parts) if parts else "-"


def _serial_order(st: Structure, keys, ranks: Ranks) -> list[UseKey]:
    """Burst order of the budget uses: upstream links first, upstream
    origins first within a link; a rider-hosting terminal burst moves to
    the front so its riders (the feeders' first hops) precede the feeders'
    later hops.  `keys` are the chain's use keys, and the order holds
    those key tuples."""
    order, pos = ranks
    use_keys = st.use_keys()
    keys = sorted((key for key in keys if key in use_keys),
                  key=lambda key: (order[key[1]], pos[key[0]]))
    if st.kind == "rider-feeders":
        keys = ([key for key in keys if key in st.hosts]
                + [key for key in keys if key not in st.hosts])
    return keys


def _build_plan(group: _Group, i: int, parts, window: int,
                conflicts: ConflictSet) -> GroupPlan:
    """Candidate i's runs with their start slots, from its (serialized,
    early, rider) parts: the early runs from slot 0 in fill order, the
    serialized runs from the window in burst order, and each host run's
    first slots carrying rider runs from the sorted rider queue in stream
    order."""
    st, txmap = group.candidates[i], group.txmap
    rates, receivers = conflicts.rates, conflicts.receivers
    counts, early_counts, rider = parts

    def run(start, n, k, l, count, early):
        tx = txmap[(n, l)]
        return _run_of_row((start, count, tx[0], receivers[tx], l, n, k, early))

    early, cursor = [], 0
    for (n, k, l), v in early_counts.items():
        early.append(run(cursor, n, k, l, v, True))
        cursor += v
    queue = sorted([key, v] for key, v in rider.items() if v > 0)
    qi = 0
    serialized, hosted, cursor = [], [], window
    for key in group.serials[i]:
        n, l = key
        hosts = key in st.hosts
        for k in range(1, rates[n] + 1):
            count = counts.get((n, k, l), 0)
            start, end = cursor, cursor + count
            while hosts and start < end and qi < len(queue):
                (rnode, rk, rlink), remaining = queue[qi]
                take = min(end - start, remaining)
                hosted.append(run(start, rnode, rk, rlink, take, True))
                start += take
                queue[qi][1] -= take
                if queue[qi][1] == 0:
                    qi += 1
            if count:
                serialized.append(run(cursor, n, k, l, count, False))
                cursor = end
    return GroupPlan(group.label, window, tuple(early), tuple(serialized),
                     tuple(hosted))


def _scaled(values: dict[UseKey, float], st: Structure):
    """Per-use totals over all of an origin's packets, of the structure's
    uses and of its riders."""
    return tuple({(u.node, u.link): values[(u.node, u.link)] * u.weight
                  for u in uses} for uses in (st.uses, st.riders))


def _relaxed_uses(st: Structure, budget: float):
    """Per-use totals of the relaxed optimum at `budget`, of the uses and
    the riders; none without uses or budget."""
    if not st.uses or budget <= TOL:
        return {}, {}
    return _scaled(_relax_structure(st, budget).values, st)


def relaxed_table(solution: PatternSolution,
                  ) -> tuple[dict[SlotKey, float], dict[str, float]]:
    """TUB slot table of a solved pattern, keyed like allocation.entries,
    and its real-valued early windows per group: the placement walked again
    over the steps, each group's budget-T relaxed optimum (from its step)
    taken per use through the early-window step."""
    model = solution.model
    conflicts = derive_conflicts(model.topology)
    budget = float(solution.cycle_slots)
    placed: Placed = {}
    entries: dict[SlotKey, float] = {}
    windows: dict[str, float] = {}

    for step in solution.steps:
        label, st = step.plan.label, step.structure
        origins, txmap, ranks, fill = _layout(model, label)
        window, blocked = _window_scan(placed, txmap, conflicts)
        window = windows[label] = float(window)
        hide_order = _hideable_uses(fill, _unhideable(st, txmap).union(blocked), ranks)
        optimum, rider = _scaled(step.relaxed.values, st)
        serialized, early, rider = _step_parts(optimum, rider, *_early_step(
            st, optimum, window, budget, hide_order, lambda amounts: hide_order,
            _relaxed_uses, TOL))

        # early slots from 0, serialized bursts from the window on; riders
        # span their hosts, which are never hideable
        serial = [(key, serialized.get(key, 0.0))
                  for key in _serial_order(st, txmap, ranks)]
        for cursor, bursts in ((0.0, early.items()), (window, serial)):
            for key, length in bursts:
                if length > TOL:
                    _widen(placed, txmap[key], cursor + length)
                    if key in st.hosts:
                        for u in st.riders:
                            _widen(placed, txmap[(u.node, u.link)], cursor + length)
                    cursor += length

        for o in origins:
            for link, _q in o.route:
                key = (o.node, link)
                s_pp = serialized.get(key, 0.0) / o.rate
                e_pp = (early.get(key, 0.0) + rider.get(key, 0.0)) / o.rate
                for k in range(1, o.rate + 1):
                    entries[(o.node, k, link, False)] = s_pp
                    entries[(o.node, k, link, True)] = e_pp
    return entries, windows


def _resolve_pattern(model: PathModel, pattern) -> PatternSpec:
    if isinstance(pattern, PatternSpec):
        return pattern
    specs = patterns_for(model)
    if pattern is None:
        return specs[0]
    matches = [s for s in specs if s.pattern_id == pattern]
    if not matches:
        raise ValueError(f"model {model.name} has no pattern {pattern}")
    return matches[0]


@dataclass(frozen=True)
class GroupStep:
    """One group placed behind one early window and blocked-use set: the
    winner and its budget-T relaxed optimum (TUB), the regime label, the
    predicted case, the plan (its placed runs), each transmitter's last end
    and the group's COM values.  Solutions share it, so nothing in it can be
    written."""

    structure: Structure
    relaxed: StructuredRelax
    case_label: str
    predicted: str | None
    plan: GroupPlan
    ends: MappingProxyType[TxLink, int]
    entries: MappingProxyType[SlotKey, int]
    per_node: MappingProxyType[int, float]


@dataclass
class _Group:
    """A group's pattern-independent work at one topology and T: each
    candidate's greedy and scores, made once, and a winner's relaxed
    optimum and burst order, made when it first wins.  Its maps and orders
    hold the transmitter map's key tuples, not copies."""

    label: str
    origins: tuple[Origin, ...]          # most-upstream origin first
    candidates: list[Structure]
    txmap: dict[UseKey, TxLink]          # chain order
    ranks: Ranks
    predicted: str | None
    # per candidate: the budget-T greedy (read-only), its product and
    # per-node COM, and the fill order with nothing blocked
    greedy: list[tuple[dict[EntryKey, int], dict[EntryKey, int]]]
    scores: list[tuple[float, dict[int, float]]]
    fills: list[list[UseKey]]
    # per winning candidate index: the relaxed optimum and the burst order
    relaxed: dict[int, StructuredRelax]
    serials: dict[int, list[UseKey]]
    steps: dict[tuple, GroupStep]


class _GroupTable:
    """Each group's work, done once per topology and T: keyed on the
    group's (label, (node, route) pairs), then on its (window, blocked uses).
    It owns the loss tables every greedy and product of its solves reads."""

    def __init__(self, topology: Topology, cycle_slots: int | None):
        self.topology = topology
        self.T = check_cycle_slots(
            topology.cycle_slots if cycle_slots is None else cycle_slots)
        self.conflicts = derive_conflicts(topology)
        self.groups: dict[tuple, _Group] = {}
        self.losses = LossTables()

    def _group(self, model: PathModel, label: str) -> _Group:
        key = (label, model.group_routes(label))
        group = self.groups.get(key)
        if group is None:
            origins, txmap, ranks, order = _layout(model, label)
            candidates = candidate_structures(origins, self.conflicts)
            greedy = [_greedy_int(st, self.T, self.losses) for st in candidates]
            group = self.groups[key] = _Group(
                label, origins, candidates, txmap, ranks,
                predicted_case(origins, candidates), greedy,
                [_delivery_product(origins, {**tentative, **rider}, self.losses)
                 for tentative, rider in greedy],
                [_hideable_uses(order, _unhideable(st, txmap), ranks)
                 for st in candidates], {}, {}, {})
        return group

    def _score(self, group: _Group, i: int, window: int, blocked: tuple[UseKey, ...]):
        """Candidate i's product, per-node COM, hideable uses, fill and
        split, by `_early_step` per packet hop (a greedy at budget `window`
        fills it exactly, so restricting the window part fills it): only a
        split (c5) walks its parts, which hold disjoint packet hops; the
        rest keep their stored scores."""
        hide_order = _hideable_uses(group.fills[i], blocked, group.ranks)
        early, split = _early_step(
            group.candidates[i], group.greedy[i][0], window, self.T, hide_order,
            partial(_packet_order, self.conflicts.rates, hide_order),
            lambda part, budget: _greedy_int(part, budget, self.losses))
        product, per_node = group.scores[i] if split is None else _delivery_product(
            group.origins, {**split[0], **split[1], **split[2]}, self.losses)
        return product, per_node, hide_order, early, split

    def _place(self, group: _Group, window: int,
               blocked: tuple[UseKey, ...]) -> GroupStep:
        """Score every candidate, keep the first of largest product, and
        build the parts, slot table, plan and ends of that winner only."""
        scored = [self._score(group, i, window, blocked)
                  for i in range(len(group.candidates))]
        # max keeps the first of equal products: a later candidate wins
        # only with a strictly larger one
        i = max(range(len(scored)), key=lambda i: scored[i][0])
        _product, per_node, hide_order, early, split = scored[i]
        st, (tentative, rider) = group.candidates[i], group.greedy[i]
        parts = _step_parts(tentative, rider, early, split)
        table, regime = assign_early_slots(parts, split, hide_order, tentative, window)
        if i not in group.relaxed:
            group.relaxed[i] = _relax_structure(st, float(self.T))
            group.serials[i] = _serial_order(st, group.txmap, group.ranks)
        lab = st.label if st.label != "plain" else ""
        if regime:
            lab = f"{lab}+{regime}" if lab else regime

        plan = _build_plan(group, i, parts, window, self.conflicts)
        ends: dict[TxLink, int] = {}   # keyed on the transmitter map's tuples
        for r in place_plans([plan]):
            _widen(ends, group.txmap[(r.origin, r.link)], r.start + r.count)
        return GroupStep(st, group.relaxed[i], lab, group.predicted, plan,
                         MappingProxyType(ends), MappingProxyType(table),
                         MappingProxyType(per_node))

    def solve(self, model: PathModel, spec: PatternSpec) -> PatternSolution:
        """Place the pattern's groups in order, each step looked up by its
        (window, blocked uses) or placed, then score the steps."""
        placed: Placed = {}
        steps = []
        for label in spec.placement:
            group = self._group(model, label)
            key = _window_scan(placed, group.txmap, self.conflicts)
            step = group.steps.get(key)
            if step is None:
                step = group.steps[key] = self._place(group, *key)
            steps.append(step)
            for txlink, end in step.ends.items():
                _widen(placed, txlink, end)

        per_node = dict.fromkeys(self.topology.nodes, 0.0)
        for step in steps:
            per_node.update(step.per_node)
        # label order, and per_node in node order, so equal products tie exactly
        tub = math.prod(step.relaxed.product
                        for step in sorted(steps, key=lambda s: s.plan.label))
        com = math.prod(per_node.values())
        return PatternSolution(model, spec, self.T, tub, com, per_node, tuple(steps))


def solve_pattern(model: PathModel, pattern: PatternSpec | int | None = None,
                  cycle_slots: int | None = None) -> PatternSolution:
    """Solve one pattern of a model (its first by default); T defaults to
    the topology's cycle_slots."""
    spec = _resolve_pattern(model, pattern)
    return _GroupTable(model.topology, cycle_slots).solve(model, spec)


def solution_timeline(solution: PatternSolution):
    """Materialize a solved pattern into its verified slot-by-slot timeline."""
    return build_timeline(solution.model.topology, solution.plans,
                          solution.cycle_slots)


def optimize(topology: Topology, cycle_slots: int | None = None,
             no_sep_branch: int | None = None) -> list[PatternSolution]:
    """Solve every (model, pattern); rank by COM desc, ties by TUB then name."""
    table, solutions = _GroupTable(topology, cycle_slots), []
    for model in enumerate_path_models(topology, no_sep_branch):
        solutions += [table.solve(model, spec) for spec in patterns_for(model)]
        # no other model has its Z group (cut remnants, Z tail); X, Y are shared
        del table.groups[("Z", model.group_routes("Z"))]
    solutions.sort(key=lambda s: (-s.com_product, -s.tub_product, s.model.name,
                                  s.model.no_sep_branch, s.pattern.pattern_id))
    return solutions
