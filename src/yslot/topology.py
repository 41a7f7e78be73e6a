"""Y-shaped backbone topology: config parsing, validation, and the
protocol-interference conflict relation.

A topology is a tree of relay nodes with exactly one degree-3 node (the
central node) and three gateway-terminated branches.  Links carry a packet
loss rate, nodes carry a per-cycle packet generation rate, and an explicit
proximity set says which id pairs are within radio propagation distance.
"""

from __future__ import annotations

import json
from numbers import Integral
from pathlib import Path
from typing import NamedTuple

from .record import Record, fix


class TopologyError(Exception):
    """Invalid topology description."""


class NotATree(TopologyError):
    pass


class GatewayCountNot3(TopologyError):
    pass


class NoDegree3Node(TopologyError):
    pass


class LossOutOfRange(TopologyError):
    pass


class LinkNotInProximity(TopologyError):
    pass


# Caps that bound the work of solving one pattern: the integer allocation
# takes one heap step per slot, and a timeline holds one unit per slot.
MAX_CYCLE_SLOTS = 10_000
# Packets per cycle times the longest route a packet can take (the node
# count of the longest gateway-to-gateway path): it bounds the slot-table
# entries, and with them the node count and the number of path models.
MAX_PACKET_HOPS = 10_000


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class Link(NamedTuple):
    id: int
    a: int
    b: int
    loss: float

    def other(self, end: int) -> int:
        return self.b if end == self.a else self.a


class Branch(NamedTuple):
    """One arm of the Y, walked from the central node outward."""

    gateway: int
    nodes: tuple[int, ...]  # central-adjacent node first
    links: tuple[int, ...]  # central-adjacent link first; last one touches the gateway


class Topology(Record, frozen=True):
    def __init__(self, rates: dict[int, int],   # node id -> packets per cycle
                 gateways: tuple[int, ...],      # exactly 3 ids
                 links: dict[int, Link],
                 proximity: frozenset[tuple[int, int]],
                 cycle_slots: int,
                 central: int,
                 branches: tuple[Branch, ...]):  # sorted: node count desc, then smallest node id
        fix(self, locals())

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.rates))

    def transmissions(self) -> tuple[tuple[int, int], ...]:
        """All directed transmissions (tx node, link id); gateways never send."""
        out = []
        for link in sorted(self.links.values(), key=lambda l: l.id):
            for end in (link.a, link.b):
                if end not in self.gateways:
                    out.append((end, link.id))
        return tuple(out)


class ConflictSet(NamedTuple):
    """Transmissions that may not share a time slot: bit j of
    masks[index[t]] is set when t conflicts with the j-th transmission,
    receivers[t] is the node that t sends to, and rates are the topology's
    packets per cycle by node.  Bitmasks keep the set small, since each
    topology holds its own; other modules read them only through
    `receivers`, `sends`, `generates`, `conflict`, `mask_of`, `hits` and
    `clash`."""

    index: dict[tuple[int, int], int]
    masks: tuple[int, ...]
    receivers: dict[tuple[int, int], int]
    rates: dict[int, int]

    def sends(self, tx: int, rx: int, link: int) -> bool:
        """Whether tx -> rx over link is a transmission of the topology."""
        return self.receivers.get((tx, link)) == rx

    def generates(self, origin: int, k: int) -> bool:
        """Whether node origin generates a k-th packet per cycle."""
        return 1 <= k <= self.rates.get(origin, 0)

    def conflict(self, t1: tuple[int, int], t2: tuple[int, int]) -> bool:
        i, j = self.index.get(t1), self.index.get(t2)
        return i is not None and j is not None and bool(self.masks[i] >> j & 1)

    def mask_of(self, txs) -> int:
        """Transmissions that conflict with any of `txs`, as one bitmask."""
        mask = 0
        for t in txs:
            i = self.index.get(t)
            if i is not None:
                mask |= self.masks[i]
        return mask

    def hits(self, mask: int, t: tuple[int, int]) -> bool:
        """Whether transmission `t` is in a `mask_of` bitmask."""
        i = self.index.get(t)
        return i is not None and bool(mask >> i & 1)

    def clash(self, txs) -> bool:
        """Whether a transmission of `txs` repeats or conflicts with an
        earlier one, or is not in the index: one pass that ORs the masks
        seen so far.  False clears `txs` without a pairwise check."""
        seen = hit = 0
        for t in txs:
            i = self.index.get(t)
            if i is None or (seen | hit) >> i & 1:
                return True
            seen |= 1 << i
            hit |= self.masks[i]
        return False


def derive_conflicts(topology: Topology) -> ConflictSet:
    """Conflicting transmissions, by two-sided protocol interference: a
    node's range is itself plus its proximity partners, and u -> v conflicts
    with every other transmission sent in range of v or received in range of
    u.  Shared nodes are a case of the rule, as `validate_topology` puts each
    link's endpoints in proximity (`LinkNotInProximity`).  One pass ORs each
    transmission's bit into the nodes in range of its two ends; derived on
    the first call for a topology and kept on the (frozen) instance."""
    cached = topology.__dict__.get("_conflicts")
    if cached is not None:
        return cached
    txs = topology.transmissions()
    recv = {(tx, link): topology.links[link].other(tx) for tx, link in txs}
    in_range = {n: [n] for n in (*topology.rates, *topology.gateways)}
    for a, b in topology.proximity:
        in_range[a].append(b)
        in_range[b].append(a)
    sent, received = dict.fromkeys(in_range, 0), dict.fromkeys(in_range, 0)
    for j, t in enumerate(txs):
        for n in in_range[t[0]]:
            sent[n] |= 1 << j
        for n in in_range[recv[t]]:
            received[n] |= 1 << j
    masks = tuple((sent[recv[t]] | received[t[0]]) & ~(1 << i) for i, t in enumerate(txs))
    conflicts = ConflictSet({t: i for i, t in enumerate(txs)}, masks, recv, topology.rates)
    object.__setattr__(topology, "_conflicts", conflicts)
    return conflicts


def load_config(path: str | Path) -> dict:
    """Read a JSON topology config, UTF-8 text as JSON is exchanged; raises
    TopologyError with file context.  The parser recurses once per level
    of nesting, so a file nested deeper than the recursion limit is an
    error of the file too."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise TopologyError(f"cannot read config {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TopologyError(f"config {p} is not UTF-8 text (byte {exc.start}): "
                            f"{exc.reason}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TopologyError(
            f"config {p} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    except RecursionError as exc:
        raise TopologyError(f"config {p} is nested too deeply to parse") from exc
    if not isinstance(raw, dict):
        raise TopologyError(f"config {p}: top level must be an object")
    return raw


def _int(value, what: str, error: type[Exception] = TopologyError) -> int:
    """An integer config field, where int() would read True as 1 and "3" as 3
    and cut 2.7 to 2; `value % 1` is nonzero, or nan, for any fraction.
    Integral types beyond int (a library caller's numpy integer) pass; the
    ABC is checked last, since it costs about ten times an int check.  An
    exact int, the common case, returns first (bool is not exactly int)."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, Integral)) or value % 1:
        raise error(f"{what} {value!r} is not an integer")
    return int(value)


def _real(value, what: str) -> float:
    """A real config field, where float() would read "0.2" as 0.2 and True
    as 1.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TopologyError(f"{what} {value!r} is not a real number")
    return float(value)


def check_cycle_slots(cycle_slots, what: str = "cycle_slots") -> int:
    """The cycle length as an int, read by the config's integer rule
    (`_int`); raise unless it lies in [1, MAX_CYCLE_SLOTS]."""
    cycle_slots = _int(cycle_slots, what)
    if cycle_slots < 1:
        raise TopologyError(f"{what} must be >= 1")
    if cycle_slots > MAX_CYCLE_SLOTS:
        raise TopologyError(f"{what} {cycle_slots} is above the cap of "
                            f"{MAX_CYCLE_SLOTS} slots")
    return cycle_slots


def validate_topology(raw: dict) -> Topology:
    """Validate a raw config dict and derive the central node and branches."""
    try:
        node_items = [(_int(n["id"], "node id"), _int(n.get("rate", 1), "rate"))
                      for n in raw["nodes"]]
        gw_ids = [_int(g["id"], "gateway id") for g in raw["gateways"]]
        link_items = [
            Link(_int(l["id"], "link id"), _int(l["a"], "link endpoint"),
                 _int(l["b"], "link endpoint"), _real(l["loss"], "loss"))
            for l in raw["links"]
        ]
        prox_items = [tuple(_int(x, "proximity id") for x in p)
                      for p in raw.get("proximity", [])]
        cycle_slots = _int(raw["cycle_slots"], "cycle_slots")
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f"malformed config: {exc}") from exc

    rates = dict(node_items)
    if len(rates) != len(node_items):
        raise TopologyError("duplicate node ids")
    if any(nid <= 0 for nid in rates):
        raise TopologyError("node ids must be positive integers")
    if any(r < 1 for r in rates.values()):
        raise TopologyError("generation rates must be >= 1")
    check_cycle_slots(cycle_slots)

    if len(gw_ids) != 3:
        raise GatewayCountNot3(f"expected exactly 3 gateways, got {len(gw_ids)}")
    if len(set(gw_ids)) != 3:
        repeated = next(g for g in gw_ids if gw_ids.count(g) > 1)
        raise GatewayCountNot3(f"gateway id {repeated} is repeated; expected "
                               "3 distinct gateways")
    if set(gw_ids) & set(rates):
        raise TopologyError("gateway ids overlap node ids")

    links = {l.id: l for l in link_items}
    if len(links) != len(link_items):
        raise TopologyError("duplicate link ids")
    ids = set(rates) | set(gw_ids)
    for l in link_items:
        if l.a not in ids or l.b not in ids:
            raise TopologyError(f"link {l.id} references unknown endpoint")
        if l.a == l.b:
            raise NotATree(f"link {l.id} is a self-loop")
        if not (0.0 < l.loss < 1.0):
            raise LossOutOfRange(f"link {l.id} loss {l.loss} not in (0,1)")

    proximity = set()
    for pair in prox_items:
        if len(pair) != 2:
            raise TopologyError(f"proximity entry {list(pair)} is not a pair")
        a, b = pair
        if a == b:
            raise TopologyError(f"proximity pair ({a},{b}) repeats an id")
        if a not in ids or b not in ids:
            raise TopologyError(f"proximity pair ({a},{b}) references unknown id")
        proximity.add(_pair(a, b))
    for l in link_items:
        if _pair(l.a, l.b) not in proximity:
            raise LinkNotInProximity(
                f"link {l.id} endpoints ({l.a},{l.b}) missing from proximity set")

    # tree shape: connected, |E| = |V|-1, no parallel edges
    if len({_pair(l.a, l.b) for l in link_items}) != len(link_items):
        raise NotATree("parallel links between the same endpoints")
    if len(link_items) != len(ids) - 1:
        raise NotATree(f"{len(link_items)} links for {len(ids)} vertices")
    adjacency: dict[int, list[tuple[int, int]]] = {i: [] for i in ids}
    for l in link_items:
        adjacency[l.a].append((l.b, l.id))
        adjacency[l.b].append((l.a, l.id))
    seen = {next(iter(ids))}
    stack = list(seen)
    while stack:
        cur = stack.pop()
        for nxt, _ in adjacency[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if seen != ids:
        raise NotATree("graph is not connected")

    degrees = {i: len(adjacency[i]) for i in ids}
    for g in gw_ids:
        if degrees[g] != 1:
            raise NotATree(f"gateway {g} must be a leaf")
    leaves = {i for i, d in degrees.items() if d == 1}
    if leaves != set(gw_ids):
        raise NotATree("every leaf must be a gateway")
    if any(d > 3 for d in degrees.values()):
        raise NotATree("node with degree > 3")
    centrals = [i for i in rates if degrees[i] == 3]
    if len(centrals) != 1:
        raise NoDegree3Node(f"expected one degree-3 node, found {len(centrals)}")
    central = centrals[0]

    branches = []
    for nxt, link_id in sorted(adjacency[central], key=lambda t: t[1]):
        nodes, blinks = [], [link_id]
        prev, cur = central, nxt
        while cur not in gw_ids:
            nodes.append(cur)
            following = [(n, lid) for n, lid in adjacency[cur] if n != prev]
            prev, (cur, lid) = cur, following[0]
            blinks.append(lid)
        branches.append(Branch(cur, tuple(nodes), tuple(blinks)))
    branches.sort(key=lambda b: (-len(b.nodes), min(b.nodes) if b.nodes else 0))
    packets = sum(rates.values())
    route = len(branches[0].nodes) + len(branches[1].nodes) + 1
    if packets * route > MAX_PACKET_HOPS:
        raise TopologyError(f"{packets} packets per cycle on routes of up to {route} "
                            f"hops are above the cap of {MAX_PACKET_HOPS} packet hops")

    return Topology(
        rates=rates,
        gateways=tuple(gw_ids),
        links=links,
        proximity=frozenset(proximity),
        cycle_slots=cycle_slots,
        central=central,
        branches=tuple(branches),
    )
