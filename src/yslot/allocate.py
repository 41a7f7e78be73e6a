"""Integer slot allocation per path model and pattern.

Pipeline per group, in pattern placement order:

1. Candidate budget structures: the plain serialized budget, plus the two
   overlap orientations when a feeder's first-hop burst and the terminal
   node's own burst do not interfere (the feeder hops can share the
   terminal's slots, or vice versa).
2. Integer optimum per structure by greedy marginal-gain allocation, then
   the early-window step, one rule in the integer and the relaxed walk:
   fill the window left by previously placed groups with the slots of
   unblocked transmitters, in fill order (upstream hops first), and only
   when the fill falls short split the group into a window part and a
   post-window part.
3. The best structure by integer product wins (COM).
4. The relaxed optimum (adjunct-variable solve) of the winning structure
   only is the group's TUB product, so TUB >= COM holds by relaxed
   feasibility; `relaxed_table` builds the TUB slot table on demand.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

from .pathmodel import (PathModel, PatternSpec, enumerate_path_models,
                        patterns_for)
from .relax import (GroupChain, Origin, StructuredRelax, Use, budget_terms,
                    solve_plain_structure, solve_rider_feeders,
                    solve_rider_terminal)
from .timeline import GroupPlan, PlacedBurst, place_plans
from .topology import ConflictSet, Topology, derive_conflicts

TxLink = tuple[int, int]
EntryKey = tuple[int, int, int]  # (origin node, packet k, link)
SlotKey = tuple[int, int, int, bool]  # (origin node, packet k, link, early)
Interval = tuple[float, float, TxLink]  # placed [start, end) of a transmitter
Ranks = tuple[dict[int, int], dict[int, int]]  # link ranks, origin ranks


@lru_cache(maxsize=1 << 16)
def _log1m_pow(q: float, v: int) -> float:
    """log(1 - q^v); -inf at v = 0."""
    if v <= 0:
        return -math.inf
    return math.log1p(-(q ** v))


def _gain(q: float, v: int) -> float:
    """Marginal log-product gain of the (v+1)-th slot; +inf for the first."""
    if v == 0:
        return math.inf
    return _log1m_pow(q, v + 1) - _log1m_pow(q, v)


@dataclass(frozen=True)
class Structure:
    """One serialized-budget layout for a group (plain or overlap orientation)."""

    kind: str                  # plain | rider-terminal | rider-feeders
    label: str                 # plain | case1 | case2 | caseA | caseB
    uses: tuple[Use, ...]      # budget uses, chain order
    riders: tuple[Use, ...]    # free-riding uses (share host slots)
    hosts: tuple[TxLink, ...]  # use keys whose slots host the riders

    def use_keys(self) -> set[TxLink]:
        return {(u.node, u.link) for u in self.uses}


def _packet_entries(uses: tuple[Use, ...]) -> list[tuple[EntryKey, float]]:
    return [((u.node, k, u.link), u.q)
            for u in uses for k in range(1, u.weight + 1)]


def _chain_uses(chain: GroupChain) -> tuple[Use, ...]:
    """Every (origin, route link) of the chain as a budget use, chain order."""
    return tuple(Use(o.node, link, q, o.rate)
                 for o in chain.origins for link, q in o.route)


def _origin(model: PathModel, node: int) -> Origin:
    topo = model.topology
    route = tuple((lid, topo.links[lid].loss) for lid in model.route(node))
    return Origin(node, topo.rates[node], route)


def build_group_chain(model: PathModel, label: str) -> GroupChain:
    return GroupChain(label, tuple(_origin(model, n) for n in model.group(label)))


def candidate_structures(model: PathModel, chain: GroupChain,
                         conflicts: ConflictSet) -> list[Structure]:
    """Plain budget always; overlap orientations when feeders qualify.

    A feeder is an origin whose first-hop link carries no other packets and
    whose first-hop transmission does not conflict with the terminal node's
    own transmission, so the two bursts may share slots.
    """
    all_uses = _chain_uses(chain)
    plain = Structure("plain", "plain", all_uses, (), ())

    terminal = chain.origins[-1]
    if len(terminal.route) != 1 or len(chain.origins) == 1:
        return [plain]
    gw_link, gw_q = terminal.route[0]
    term_tx: TxLink = (terminal.node, gw_link)
    mult = dict(budget_terms(chain))

    feeders = []
    for o in chain.origins[:-1]:
        fh_link, fh_q = o.route[0]
        if mult[fh_link] != o.rate:
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


def predicted_case(chain: GroupChain, structures: list[Structure]) -> str | None:
    """Predicted overlap winner by the loss-rate rule: favor the side that
    frees budget share for the lossier link (single-feeder chains only)."""
    riders = [s for s in structures if s.kind == "rider-feeders"]
    if not riders or len(riders[0].riders) != 1:
        return None
    feeder = riders[0].riders[0]
    gw_q = chain.origins[-1].route[0][1]
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


def _greedy_int(st: Structure, budget: int,
                ) -> tuple[dict[EntryKey, int], dict[EntryKey, int]]:
    """Greedy marginal-gain integer allocation; exact for separable chains.

    Every host slot carries one rider slot, so a host entry's marginal adds
    the best rider marginal; ties go to the earliest entry (upstream first).
    Non-host entries and riders sit in heaps keyed (-gain, index), whose
    top is the earliest entry of largest gain.  The few hosts are summed
    with the rider gain and compared one by one each slot, since that sum
    can round two unequal host gains into a tie the index must break.
    """
    entries = _packet_entries(st.uses)
    riders = _packet_entries(st.riders)
    host_keys = set(st.hosts) if riders else set()
    vals = {key: 0 for key, _q in entries}
    rvals = {key: 0 for key, _q in riders}
    hosts = [i for i, (key, _q) in enumerate(entries)
             if (key[0], key[2]) in host_keys]
    host_gain = {i: _gain(entries[i][1], 0) for i in hosts}
    free = [(-_gain(q, 0), i) for i, (key, q) in enumerate(entries)
            if i not in host_gain]
    rheap = [(-_gain(q, 0), i) for i, (_key, q) in enumerate(riders)]
    heapq.heapify(free)
    heapq.heapify(rheap)

    for _ in range(max(0, budget)):
        best, best_gain = None, -math.inf
        if hosts:
            rider_gain = -rheap[0][0]
            for i in hosts:
                g = host_gain[i] + rider_gain
                if g > best_gain:
                    best, best_gain = i, g
        if free and (best is None or -free[0][0] > best_gain
                     or (-free[0][0] == best_gain and free[0][1] < best)):
            i = free[0][1]
            key, q = entries[i]
            vals[key] += 1
            heapq.heapreplace(free, (-_gain(q, vals[key]), i))
        elif best is not None:
            key, q = entries[best]
            vals[key] += 1
            host_gain[best] = _gain(q, vals[key])
            r = rheap[0][1]
            rkey, rq = riders[r]
            rvals[rkey] += 1
            heapq.heapreplace(rheap, (-_gain(rq, rvals[rkey]), r))
        else:
            break
    return vals, rvals


def _split_structure(st: Structure, hide_set: set[TxLink],
                     ) -> tuple[Structure, Structure]:
    """Case c5 parts: the structure without its hideable uses, and the
    hideable uses alone as a plain structure."""
    rest = tuple(u for u in st.uses if (u.node, u.link) not in hide_set)
    hide = tuple(u for u in st.uses if (u.node, u.link) in hide_set)
    return (Structure(st.kind, st.label, rest, st.riders, st.hosts),
            Structure("plain", "plain", hide, (), ()))


def _chain_ranks(chain: GroupChain) -> Ranks:
    """Rank of each link, upstream first (deepest from the gateway), and of
    each origin in chain order."""
    depth: dict[int, int] = {}
    for o in chain.origins:
        for idx, (link, _) in enumerate(o.route):
            depth[link] = max(depth.get(link, 0), len(o.route) - idx)
    links = sorted(depth, key=lambda l: (-depth[l], l))
    return ({l: i for i, l in enumerate(links)},
            {o.node: i for i, o in enumerate(chain.origins)})


def _transmitter_map(model: PathModel, chain: GroupChain) -> dict[TxLink, TxLink]:
    """(origin, link) -> (tx node, link) for every route step of the group."""
    out = {}
    for o in chain.origins:
        for tx, link in model.transmitters(o.node):
            out[(o.node, link)] = (tx, link)
    return out


def early_window(placed: list[Interval], group_txs, conflicts: ConflictSet):
    """First slot from which nothing already placed conflicts with any of
    the group's transmitters; 0 when there is no conflicting burst.
    Placements are [start, end) intervals; integer slot s is (s, s + 1)."""
    mask = conflicts.mask_of(group_txs)
    a = 0
    for _start, end, txlink in placed:
        if end > a and conflicts.hits(mask, txlink):
            a = end
    return a


def _blocked_uses(txmap: dict[TxLink, TxLink], window, placed: list[Interval],
                  conflicts: ConflictSet) -> set[TxLink]:
    """Use keys whose transmitter conflicts with anything inside the window."""
    mask = conflicts.mask_of(other for start, _end, other in placed if start < window)
    return {use_key for use_key, txlink in txmap.items()
            if conflicts.hits(mask, txlink)}


def _hideable_uses(chain: GroupChain, st: Structure, blocked: set[TxLink],
                   ranks: Ranks) -> list[TxLink]:
    """Budget uses that may move into the window, in fill order (upstream
    link first, downstream origin first within a link).  A hop qualifies
    only if every upstream hop of the same packet qualifies, so the packet
    can reach its transmitter inside the window."""
    use_keys = st.use_keys()
    hosts = set(st.hosts)
    order, pos = ranks
    out = []
    for o in chain.origins:
        for link, _ in o.route:
            key = (o.node, link)
            if key in blocked or key not in use_keys or key in hosts:
                break
            out.append(key)
    out.sort(key=lambda key: (order[key[1]], -pos[key[0]], key[0]))
    return out


def _classify_case(hide_order: list[TxLink], tentative: dict[EntryKey, int],
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


@dataclass
class GroupInteger:
    serialized: dict[EntryKey, int]
    early: dict[EntryKey, int]
    rider: dict[EntryKey, int]
    product: float
    label: str    # window regime: "" none, c1-c4 hide, c5 split

    def totals(self) -> dict[EntryKey, int]:
        out: dict[EntryKey, int] = {}
        for src in (self.serialized, self.early, self.rider):
            for key, v in src.items():
                out[key] = out.get(key, 0) + v
        return out


def _delivery_product(origins, totals: dict[EntryKey, int]) -> float:
    """Probability that every packet of the origins crosses its route: the
    product of (1 - q^slots) over each packet's route links, 0 when a link
    got no slot."""
    log_m = 0.0
    for o in origins:
        for k in range(1, o.rate + 1):
            for link, q in o.route:
                log_m += _log1m_pow(q, totals.get((o.node, k, link), 0))
    return math.exp(log_m) if log_m > -math.inf else 0.0


def _fill_window(chain: GroupChain, tentative: dict[EntryKey, int],
                 hide_order: list[TxLink], window: int) -> dict[EntryKey, int]:
    """Hide up to `window` tentative slots following the fill order; a hop
    enters the window only if its packet's previous hop did.  The fill
    order puts every packet's upstream hops first, so that packet is then
    present at the hop's transmitter inside the window."""
    if window <= 0:
        return {}
    rates = {o.node: o.rate for o in chain.origins}
    previous = {(o.node, link): up for o in chain.origins
                for (up, _), (link, _) in zip(o.route, o.route[1:])}
    early: dict[EntryKey, int] = {}
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


def assign_early_slots(chain: GroupChain, st: Structure,
                       tentative: dict[EntryKey, int], rider: dict[EntryKey, int],
                       window: int, hide_order: list[TxLink],
                       budget: int) -> GroupInteger:
    """Early-window step: fill the window from the budget-T optimum, and
    split only if the fill falls short.  A full window keeps that optimum
    (none at window 0, hide cases c1-c4); otherwise the hideable uses share
    the window and the other uses share `budget - window` (case c5), the
    window part filled by the same rule.  Both regimes are optimal for the
    constraint set (serialized sum <= budget - window, early sum <= window,
    early only on hideable hops)."""
    early = _fill_window(chain, tentative, hide_order, window)
    if sum(early.values()) == window:
        serialized = {k: v - early.get(k, 0) for k, v in tentative.items()}
        gi = GroupInteger(serialized, early, dict(rider), 0.0,
                          _classify_case(hide_order, tentative, window))
    else:
        st_rest, st_hide = _split_structure(st, set(hide_order))
        vals_rest, rider_rest = _greedy_int(st_rest, budget - window)
        vals_hide, _ = _greedy_int(st_hide, window)
        early = _fill_window(chain, vals_hide, hide_order, window)
        gi = GroupInteger(vals_rest, early, rider_rest, 0.0, "c5")
    gi.product = _delivery_product(chain.origins, gi.totals())
    return gi


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
    allocation: SlotAllocation
    structures: dict[str, Structure]   # chosen structure per group
    case_labels: dict[str, str]
    predicted: dict[str, str]
    plans: list[GroupPlan]         # placement order

    @property
    def feasible(self) -> bool:
        return self.com_product > 0.0

    @property
    def windows(self) -> dict[str, int]:
        return {p.label: p.window for p in self.plans}

    @property
    def window(self) -> int:
        return max(self.windows.values(), default=0)

    @property
    def case_label(self) -> str:
        parts = [f"{g}:{lab}" for g, lab in sorted(self.case_labels.items()) if lab]
        return ";".join(parts) if parts else "-"


def _serial_order(st: Structure, ranks: Ranks) -> list[TxLink]:
    """Burst order of the budget uses: upstream links first, upstream
    origins first within a link; a rider-hosting terminal burst moves to
    the front so its riders (the feeders' first hops) precede the feeders'
    later hops."""
    order, pos = ranks
    keys = sorted(((u.node, u.link) for u in st.uses),
                  key=lambda key: (order[key[1]], pos[key[0]]))
    if st.kind == "rider-feeders":
        keys = ([key for key in keys if key in st.hosts]
                + [key for key in keys if key not in st.hosts])
    return keys


def _rider_assignment(st: Structure, gi: GroupInteger,
                      serial_keys: list[EntryKey], txmap: dict[TxLink, TxLink],
                      ) -> dict[EntryKey, list[PlacedBurst]]:
    """Distribute rider counts over host burst slots in stream order."""
    queue = [[key, gi.rider[key]] for key in sorted(gi.rider) if gi.rider[key] > 0]
    out: dict[EntryKey, list[PlacedBurst]] = {}
    qi = 0
    for key in serial_keys:
        if (key[0], key[2]) not in st.hosts:
            continue
        room = gi.serialized.get(key, 0)
        while room > 0 and qi < len(queue):
            (rnode, rk, rlink), remaining = queue[qi]
            take = min(room, remaining)
            out.setdefault(key, []).append(PlacedBurst(
                rnode, rk, txmap[(rnode, rlink)][0], rlink, take, True))
            room -= take
            queue[qi][1] -= take
            if queue[qi][1] == 0:
                qi += 1
    return out


def _build_plan(chain: GroupChain, st: Structure, gi: GroupInteger,
                window: int, hide_order: list[TxLink],
                txmap: dict[TxLink, TxLink], ranks: Ranks) -> GroupPlan:
    rates = {o.node: o.rate for o in chain.origins}
    serial_keys = [(n, k, l) for n, l in _serial_order(st, ranks)
                   for k in range(1, rates[n] + 1)]
    riders = _rider_assignment(st, gi, serial_keys, txmap)
    serialized = tuple(
        PlacedBurst(n, k, txmap[(n, l)][0], l, gi.serialized[(n, k, l)], False,
                    tuple(riders.get((n, k, l), ())))
        for n, k, l in serial_keys if gi.serialized.get((n, k, l), 0) > 0)
    early = tuple(PlacedBurst(n, k, txmap[(n, l)][0], l, gi.early[(n, k, l)], True)
                  for n, l in hide_order for k in range(1, rates[n] + 1)
                  if gi.early.get((n, k, l), 0) > 0)
    return GroupPlan(chain.label, window, early, serialized)


def _scaled(values: dict[TxLink, float], uses) -> dict[TxLink, float]:
    """Per-use totals over all of an origin's packets."""
    return {(u.node, u.link): values[(u.node, u.link)] * u.weight for u in uses}


def _real_fill(totals: dict[TxLink, float], hide_order: list[TxLink],
               window: float) -> dict[TxLink, float]:
    """Per-use real fill: move relaxed use totals into the window in fill
    order until it is covered (the real counterpart of `_fill_window`)."""
    early: dict[TxLink, float] = {}
    remaining = window
    for key in hide_order:
        take = min(totals[key], remaining)
        if take > 1e-12:
            early[key] = take
            remaining -= take
        if remaining <= 1e-12:
            break
    return early


def _relaxed_split(st: Structure, hide_order: list[TxLink], window: float,
                   budget: float):
    """Relaxed case c5: the fill fell short of the window, so the hideable
    uses share the window and the others, riders included, share
    budget - window.  Returns per-use (totals, rider, early)."""
    st_rest, st_hide = _split_structure(st, set(hide_order))
    totals: dict[TxLink, float] = {}
    rider: dict[TxLink, float] = {}
    early: dict[TxLink, float] = {}
    if budget - window > 1e-9 and st_rest.uses:
        sub = _relax_structure(st_rest, budget - window)
        totals = _scaled(sub.values, st_rest.uses)
        rider = _scaled(sub.values, st.riders)
    if st_hide.uses:
        early = _scaled(_relax_structure(st_hide, window).values, st_hide.uses)
    return totals, rider, early


def relaxed_table(solution: PatternSolution,
                  ) -> tuple[dict[SlotKey, float], dict[str, float]]:
    """TUB slot table of a solved pattern, keyed like allocation.entries,
    and its real-valued early windows per group: the placement walked again
    over the chosen structures, each group's relaxed optimum taken through
    the real-valued mirror of the early-window step."""
    model = solution.model
    conflicts = derive_conflicts(model.topology)
    budget = float(solution.cycle_slots)
    placed: list[Interval] = []
    entries: dict[SlotKey, float] = {}
    windows: dict[str, float] = {}

    for label in solution.pattern.placement:
        chain = build_group_chain(model, label)
        st = solution.structures[label]
        txmap = _transmitter_map(model, chain)
        ranks = _chain_ranks(chain)
        window = float(early_window(placed, txmap.values(), conflicts))
        windows[label] = window
        hide_order = _hideable_uses(
            chain, st, _blocked_uses(txmap, window, placed, conflicts), ranks)

        relaxed = _relax_structure(st, budget)
        totals = _scaled(relaxed.values, st.uses)
        rider = _scaled(relaxed.values, st.riders)
        early = _real_fill(totals, hide_order, window)
        if sum(early.values()) + 1e-9 < window:
            totals, rider, early = _relaxed_split(st, hide_order, window, budget)
        serialized = {key: max(0.0, totals.get(key, 0.0) - early.get(key, 0.0))
                      for key in st.use_keys()}

        # early slots from 0, serialized bursts from the window on; hosts
        # are never hideable, so only serialized bursts add host spans
        host_spans: list[tuple[float, float]] = []
        for cursor, keys, lengths in ((0.0, hide_order, early),
                                      (window, _serial_order(st, ranks), serialized)):
            for key in keys:
                length = lengths.get(key, 0.0)
                if length > 1e-12:
                    placed.append((cursor, cursor + length, txmap[key]))
                    if key in st.hosts:
                        host_spans.append((cursor, cursor + length))
                    cursor += length
        if host_spans:
            lo = min(span[0] for span in host_spans)
            hi = max(span[1] for span in host_spans)
            placed.extend((lo, hi, txmap[(u.node, u.link)]) for u in st.riders)

        for o in chain.origins:
            for link, _q in o.route:
                key = (o.node, link)
                s_pp = serialized.get(key, 0.0) / o.rate
                e_pp = (early.get(key, 0.0) + rider.get(key, 0.0)) / o.rate
                for k in range(1, o.rate + 1):
                    entries[(o.node, k, link, False)] = s_pp
                    entries[(o.node, k, link, True)] = e_pp
    return entries, windows


def com_probability(entries: dict[SlotKey, int], model: PathModel,
                    ) -> tuple[dict[int, float], float]:
    """Per-node delivery probability and the overall product.

    A packet's M multiplies (1 - q_j^{total slots}) over its route links;
    zero slots on any route link means it cannot be delivered.
    """
    totals: dict[EntryKey, int] = {}
    for (node, k, link, _early), v in entries.items():
        key = (node, k, link)
        totals[key] = totals.get(key, 0) + v
    per_node = {node: _delivery_product([_origin(model, node)], totals)
                for node in model.topology.nodes}
    return per_node, math.prod(per_node.values())


def _resolve_pattern(model: PathModel, pattern) -> PatternSpec:
    specs = patterns_for(model)
    if pattern is None:
        return specs[0]
    if isinstance(pattern, PatternSpec):
        return pattern
    matches = [s for s in specs if s.pattern_id == pattern]
    if not matches:
        raise ValueError(f"model {model.name} has no pattern {pattern}")
    return matches[0]


def _runs(units) -> list[Interval]:
    """One [start, end) interval per contiguous run of a transmitter's
    units.  Window scans read only the latest end and the earliest start
    of a transmitter's intervals, so runs stand in for single units."""
    runs: list[Interval] = []
    for u in units:
        tx = (u.tx, u.link)
        if runs and runs[-1][2] == tx and runs[-1][1] == u.slot:
            runs[-1] = (runs[-1][0], u.slot + 1, tx)
        else:
            runs.append((u.slot, u.slot + 1, tx))
    return runs


def solve_pattern(model: PathModel, pattern: PatternSpec | int | None = None,
                  cycle_slots: int | None = None) -> PatternSolution:
    topo = model.topology
    T = int(cycle_slots if cycle_slots is not None else topo.cycle_slots)
    spec = _resolve_pattern(model, pattern)
    conflicts = derive_conflicts(topo)

    placed: list[Interval] = []
    plans: list[GroupPlan] = []
    structures: dict[str, Structure] = {}
    group_products: dict[str, float] = {}
    case_labels: dict[str, str] = {}
    predicted: dict[str, str] = {}
    entries: dict[SlotKey, int] = {}

    for label in spec.placement:
        chain = build_group_chain(model, label)
        candidates = candidate_structures(model, chain, conflicts)
        txmap = _transmitter_map(model, chain)
        ranks = _chain_ranks(chain)
        window = early_window(placed, txmap.values(), conflicts)
        blocked = _blocked_uses(txmap, window, placed, conflicts)

        best: tuple[Structure, GroupInteger, list[TxLink]] | None = None
        for st in candidates:
            hide_order = _hideable_uses(chain, st, blocked, ranks)
            tentative, rider = _greedy_int(st, T)
            gi = assign_early_slots(chain, st, tentative, rider, window,
                                    hide_order, T)
            if best is None or gi.product > best[1].product:
                best = (st, gi, hide_order)
        st, gi, hide_order = best
        structures[label] = st
        group_products[label] = _relax_structure(st, float(T)).product
        pred = predicted_case(chain, candidates)
        if pred:
            predicted[label] = pred
        lab = st.label if st.label != "plain" else ""
        if gi.label:
            lab = f"{lab}+{gi.label}" if lab else gi.label
        case_labels[label] = lab

        plan = _build_plan(chain, st, gi, window, hide_order, txmap, ranks)
        plans.append(plan)
        placed.extend(_runs(place_plans(topo, [plan])))
        for early, src in ((False, gi.serialized), (True, gi.early),
                           (True, gi.rider)):
            for (node, k, link), v in src.items():
                if v > 0:
                    key = (node, k, link, early)
                    entries[key] = entries.get(key, 0) + v

    # label order, so patterns whose groups reach equal products tie exactly
    tub = math.prod(group_products[label] for label in sorted(group_products))
    per_node, com = com_probability(entries, model)
    return PatternSolution(model, spec, T, tub, com, SlotAllocation(entries, per_node),
                           structures, case_labels, predicted, plans)


def solution_timeline(solution: PatternSolution):
    """Materialize a solved pattern into its verified slot-by-slot timeline."""
    from .timeline import build_timeline
    return build_timeline(solution.model.topology, solution.plans,
                          solution.cycle_slots)


def optimize(topology: Topology, cycle_slots: int | None = None,
             no_sep_branch: int | None = None) -> list[PatternSolution]:
    """Solve every (model, pattern); rank by COM desc, ties by TUB then name."""
    solutions = []
    for model in enumerate_path_models(topology, no_sep_branch):
        for spec in patterns_for(model):
            solutions.append(solve_pattern(model, spec, cycle_slots))
    solutions.sort(key=lambda s: (-s.com_product, -s.tub_product, s.model.name,
                                  s.model.no_sep_branch, s.pattern.pattern_id))
    return solutions
