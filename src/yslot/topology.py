"""Y-shaped backbone topology: config parsing, validation, and the
protocol-interference conflict relation.

A topology is a tree of relay nodes with exactly one degree-3 node (the
central node) and three gateway-terminated branches.  Links carry a packet
loss rate, nodes carry a per-cycle packet generation rate, and an explicit
proximity set says which id pairs are within radio propagation distance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


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


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Link:
    id: int
    a: int
    b: int
    loss: float

    def other(self, end: int) -> int:
        return self.b if end == self.a else self.a


@dataclass(frozen=True)
class Branch:
    """One arm of the Y, walked from the central node outward."""

    gateway: int
    nodes: tuple[int, ...]  # central-adjacent node first
    links: tuple[int, ...]  # central-adjacent link first; last one touches the gateway

    @property
    def inter_node_links(self) -> tuple[int, ...]:
        # every link except the gateway link joins two nodes (central included),
        # so a branch with n nodes offers n separation-link positions
        return self.links[:-1]


@dataclass(frozen=True)
class Topology:
    rates: dict[int, int]          # node id -> packets per cycle
    gateways: tuple[int, ...]      # exactly 3 ids
    links: dict[int, Link]
    proximity: frozenset[tuple[int, int]]
    cycle_slots: int
    central: int
    branches: tuple[Branch, ...]   # sorted: node count desc, then smallest node id

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.rates))

    def is_gateway(self, ident: int) -> bool:
        return ident in self.gateways

    def transmissions(self) -> tuple[tuple[int, int], ...]:
        """All directed transmissions (tx node, link id); gateways never send."""
        out = []
        for link in sorted(self.links.values(), key=lambda l: l.id):
            for end in (link.a, link.b):
                if not self.is_gateway(end):
                    out.append((end, link.id))
        return tuple(out)


@dataclass(frozen=True)
class ConflictSet:
    """Transmissions that may not share a time slot: bit j of
    masks[index[t]] is set when t conflicts with the j-th transmission.
    Bitmasks keep the set small, since each topology holds its own; other
    modules read them only through `conflict`, `mask_of` and `hits`."""

    index: dict[tuple[int, int], int]
    masks: tuple[int, ...]

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


def _conflict_rule(u: int, v: int, x: int, w: int,
                   proximity: frozenset[tuple[int, int]]) -> bool:
    """Protocol interference for tx u->v against tx x->w."""
    if u == x or v == w or u == w or x == v:
        return True
    return _pair(x, v) in proximity or _pair(u, w) in proximity


def derive_conflicts(topology: Topology) -> ConflictSet:
    """Conflicting transmission pairs; derived on the first call for a
    topology and kept on the (frozen) instance."""
    cached = topology.__dict__.get("_conflicts")
    if cached is not None:
        return cached
    txs = topology.transmissions()
    recv = {(tx, link): topology.links[link].other(tx) for tx, link in txs}
    masks = [0] * len(txs)
    for i, t1 in enumerate(txs):
        for j in range(i + 1, len(txs)):
            t2 = txs[j]
            if _conflict_rule(t1[0], recv[t1], t2[0], recv[t2], topology.proximity):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    conflicts = ConflictSet({t: i for i, t in enumerate(txs)}, tuple(masks))
    object.__setattr__(topology, "_conflicts", conflicts)
    return conflicts


def load_config(path: str | Path) -> dict:
    """Read a JSON topology config; raises TopologyError with file context."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise TopologyError(f"cannot read config {p}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TopologyError(
            f"config {p} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise TopologyError(f"config {p}: top level must be an object")
    return raw


def validate_topology(raw: dict) -> Topology:
    """Validate a raw config dict and derive the central node and branches."""
    try:
        node_items = [(int(n["id"]), int(n.get("rate", 1))) for n in raw["nodes"]]
        gw_ids = [int(g["id"]) for g in raw["gateways"]]
        link_items = [
            Link(int(l["id"]), int(l["a"]), int(l["b"]), float(l["loss"]))
            for l in raw["links"]
        ]
        prox_items = [tuple(int(x) for x in p) for p in raw.get("proximity", [])]
        cycle_slots = int(raw["cycle_slots"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f"malformed config: {exc}") from exc

    rates = dict(node_items)
    if len(rates) != len(node_items):
        raise TopologyError("duplicate node ids")
    if any(nid <= 0 for nid in rates):
        raise TopologyError("node ids must be positive integers")
    if any(r < 1 for r in rates.values()):
        raise TopologyError("generation rates must be >= 1")
    if cycle_slots < 1:
        raise TopologyError("cycle_slots must be >= 1")

    if len(gw_ids) != 3 or len(set(gw_ids)) != 3:
        raise GatewayCountNot3(f"expected exactly 3 gateways, got {len(gw_ids)}")
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
    for a, b in prox_items:
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

    return Topology(
        rates=rates,
        gateways=tuple(gw_ids),
        links=links,
        proximity=frozenset(proximity),
        cycle_slots=cycle_slots,
        central=central,
        branches=tuple(branches),
    )
