"""Path models: separation-link placements on a Y-shaped topology.

Placing one separation link in each of two branches splits the node set into
groups S_X, S_Y, S_Z (packets forwarded to gateways X, Y, Z).  The branch
without a separation link is labeled Z.  A model is named l-r-d after the
group sizes and typed 1/2/3 by how many separation links sit away from the
central node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .topology import Branch, ConflictSet, Topology, derive_conflicts


@dataclass(frozen=True)
class PathModel:
    topology: Topology
    no_sep_branch: int                     # gateway id of the Z branch
    sep_link_a: int                        # separation link in the X branch
    sep_link_b: int                        # separation link in the Y branch
    groups: dict[str, tuple[int, ...]]     # label -> origins, upstream first
    routes: dict[int, tuple[int, ...]]     # node -> link ids toward its gateway
    name: str                              # "l-r-d"
    model_type: int                        # 1 | 2 | 3

    def group(self, label: str) -> tuple[int, ...]:
        return self.groups[label]

    def route(self, node: int) -> tuple[int, ...]:
        return self.routes[node]

    def transmitter_map(self, label: str) -> dict[tuple[int, int], tuple[int, int]]:
        """(origin, link) -> (tx node, link) for every route step of a group:
        each hop is sent by the far end of the hop before it.  Keys are in
        group order, then route order, and the hops of one transmitter share
        its tuple."""
        out: dict[tuple[int, int], tuple[int, int]] = {}
        txs: dict[tuple[int, int], tuple[int, int]] = {}
        for node in self.group(label):
            tx = node
            for link_id in self.route(node):
                txlink = (tx, link_id)
                out[(node, link_id)] = txs.setdefault(txlink, txlink)
                tx = self.topology.links[link_id].other(tx)
        return out


@dataclass(frozen=True)
class PatternSpec:
    """A slot-allocation pattern: the order in which its groups are placed."""

    pattern_id: int
    placement: tuple[str, ...]    # group scheduling order


def _z_choices(topology: Topology, no_sep_branch: int | None,
               ) -> list[tuple[Branch, Branch, Branch]]:
    """(Z, X, Y) branches of each Z choice, optionally fixed to the branch
    of gateway no_sep_branch; raise when none of them offers a model."""
    if no_sep_branch is not None and no_sep_branch not in topology.gateways:
        raise ValueError(f"no_sep_branch {no_sep_branch} is not a gateway id; "
                         f"expected one of {sorted(topology.gateways)}")
    choices = []
    for z_branch in topology.branches:
        if no_sep_branch is None or z_branch.gateway == no_sep_branch:
            x_branch, y_branch = (b for b in topology.branches if b is not z_branch)
            choices.append((z_branch, x_branch, y_branch))
    if not any(x.nodes and y.nodes for _, x, y in choices):
        where = "" if no_sep_branch is None else f" with no_sep_branch {no_sep_branch}"
        raise ValueError(f"no path model{where}: both separated branches "
                         "need at least one node")
    return choices


def _cut_routes(branch: Branch, z_links: tuple[int, ...],
                ) -> list[dict[int, tuple[int, ...]]]:
    """Routes of a separated branch's nodes for each separation-link index
    i: outward to the branch's gateway from node i on, and before it (the
    inner remnant) back to the central node, then down Z.  Each node's two
    route tuples are built once and shared by every cut."""
    links, nodes = branch.links, branch.nodes
    inward = [links[j::-1] + z_links for j in range(len(nodes))]
    outward = [links[j + 1:] for j in range(len(nodes))]
    return [dict(zip(nodes, inward[:i] + outward[i:])) for i in range(len(nodes))]


def _models(topology: Topology, z_branch: Branch, x_branch: Branch,
            y_branch: Branch, cuts) -> list[PathModel]:
    """Models of one Z choice with separation links at inter-node link
    index ia of X and ib of Y, for each (ia, ib) in cuts.  Each group lists
    its nodes most upstream first: X and Y are the outer slices of their
    branches, Z the two inner remnants (separation side first), the central
    node and the Z branch.  `routes` keys are in node order and every
    model of the Z choice shares its route tuples."""
    z_links = z_branch.links
    template = dict.fromkeys(topology.nodes)
    template[topology.central] = z_links
    for j, node in enumerate(z_branch.nodes):
        template[node] = z_links[j + 1:]
    x_routes, y_routes = _cut_routes(x_branch, z_links), _cut_routes(y_branch, z_links)
    z_tail = (topology.central,) + z_branch.nodes

    models = []
    for ia, ib in cuts:
        routes = template.copy()
        routes.update(x_routes[ia])
        routes.update(y_routes[ib])
        sx, sy = x_branch.nodes[ia:], y_branch.nodes[ib:]
        sz = x_branch.nodes[:ia][::-1] + y_branch.nodes[:ib][::-1] + z_tail
        models.append(PathModel(
            topology=topology,
            no_sep_branch=z_branch.gateway,
            sep_link_a=x_branch.inter_node_links[ia],
            sep_link_b=y_branch.inter_node_links[ib],
            groups={"X": sx, "Y": sy, "Z": sz},
            routes=routes,
            name=f"{len(sx)}-{len(sy)}-{len(sz)}",
            # one more per separation link away from the central node
            model_type=1 + (ia > 0) + (ib > 0),
        ))
    return models


def enumerate_path_models(topology: Topology,
                          no_sep_branch: int | None = None) -> list[PathModel]:
    """All separation-link placements; optionally fix the no-sep (Z) branch.

    Separation links sit strictly between two nodes, so a branch with n nodes
    offers n positions and the model count is the sum over Z-branch choices of
    the product of the other two branches' node counts.
    """
    models = []
    for z_branch, x_branch, y_branch in _z_choices(topology, no_sep_branch):
        models += _models(topology, z_branch, x_branch, y_branch,
                          product(range(len(x_branch.nodes)), range(len(y_branch.nodes))))
    return models


def find_model(topology: Topology, name: str,
               no_sep_branch: int | None = None) -> PathModel:
    """Look up a model by its l-r-d name (and Z-branch gateway id if ambiguous).

    Group X keeps l = |X branch| - ia nodes and Y keeps r = |Y branch| - ib,
    so each Z choice holds at most one model of that name, and only that
    one is built."""
    try:
        l, r, _ = (int(size) for size in name.split("-"))
    except ValueError:
        l = r = 0                  # not l-r-d: every cut is out of range
    hits = []
    for z_branch, x_branch, y_branch in _z_choices(topology, no_sep_branch):
        ia, ib = len(x_branch.nodes) - l, len(y_branch.nodes) - r
        if 0 <= ia < len(x_branch.nodes) and 0 <= ib < len(y_branch.nodes):
            model, = _models(topology, z_branch, x_branch, y_branch, [(ia, ib)])
            if model.name == name:
                hits.append(model)
    if not hits:
        raise ValueError(f"no path model named {name!r}")
    if len(hits) > 1:                      # only without no_sep_branch
        raise ValueError(f"model {name!r} is ambiguous; pass no_sep_branch in "
                         f"{sorted(m.no_sep_branch for m in hits)}")
    return hits[0]


def _groups_conflict(model: PathModel, conflicts: ConflictSet,
                     g1: str, g2: str) -> bool:
    """Whether a transmitter of group g1 conflicts with one of g2.  Every
    hop of a group is sent by a group node over the first link of its own
    route, so a group's transmitters are one (node, first link) per node."""
    def transmitters(label: str):
        return ((n, model.routes[n][0]) for n in model.group(label))
    mask = conflicts.mask_of(transmitters(g1))
    return any(conflicts.hits(mask, t) for t in transmitters(g2))


def patterns_for(model: PathModel) -> list[PatternSpec]:
    """Slot-allocation patterns for a model.

    Types 1 and 2 get two patterns (prioritize the groups that conflict with
    S_Z, or prioritize S_Z); Type 3 groups are mutually independent and need
    a single pattern.
    """
    conflicts = derive_conflicts(model.topology)
    conflicting = tuple(
        g for g in ("X", "Y") if _groups_conflict(model, conflicts, g, "Z"))
    independent = tuple(g for g in ("X", "Y") if g not in conflicting)
    if not conflicting:
        return [PatternSpec(1, ("X", "Y", "Z"))]
    return [PatternSpec(1, independent + conflicting + ("Z",)),
            PatternSpec(2, independent + ("Z",) + conflicting)]
