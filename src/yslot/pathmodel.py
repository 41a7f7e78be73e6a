"""Path models: separation-link placements on a Y-shaped topology.

Placing one separation link in each of two branches splits the node set into
groups S_X, S_Y, S_Z (packets forwarded to gateways X, Y, Z).  The branch
without a separation link is labeled Z.  A model is named l-r-d after the
group sizes and typed 1/2/3 by how many separation links sit away from the
central node.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def transmitters(self, node: int) -> tuple[tuple[int, int], ...]:
        """The (tx node, link) sequence that carries this origin's packet."""
        out, cur = [], node
        for link_id in self.route(node):
            out.append((cur, link_id))
            cur = self.topology.links[link_id].other(cur)
        return tuple(out)

    def group_transmissions(self, label: str) -> frozenset[tuple[int, int]]:
        txs: set[tuple[int, int]] = set()
        for node in self.group(label):
            txs.update(self.transmitters(node))
        return frozenset(txs)


@dataclass(frozen=True)
class PatternSpec:
    """Priority ordering of group transmissions around the central node."""

    pattern_id: int
    placement: tuple[str, ...]    # group scheduling order
    prioritized: tuple[str, ...]  # groups bursting first (supply the early window)
    deferred: tuple[str, ...]     # groups that wait for the window to clear
    independent: tuple[str, ...]  # groups conflicting with nobody


def _branch_groups(branch: Branch, sep_index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a branch at inter-node link index: (outer group, inner remnant).

    Both returned tuples are ordered most-upstream node first.
    """
    outer = branch.nodes[sep_index:]
    remnant = tuple(reversed(branch.nodes[:sep_index]))
    return outer, remnant


def _build_model(topology: Topology, z_branch: Branch, x_branch: Branch,
                 y_branch: Branch, ia: int, ib: int) -> PathModel:
    sep_a = x_branch.inter_node_links[ia]
    sep_b = y_branch.inter_node_links[ib]
    sx, rem_x = _branch_groups(x_branch, ia)
    sy, rem_y = _branch_groups(y_branch, ib)
    central = topology.central
    sz = rem_x + rem_y + (central,) + z_branch.nodes

    routes: dict[int, tuple[int, ...]] = {}
    for branch, sep_index, outer in ((x_branch, ia, sx), (y_branch, ib, sy)):
        for j, node in enumerate(branch.nodes):
            if j >= sep_index:
                routes[node] = tuple(branch.links[j + 1:])
    z_links = z_branch.links
    routes[central] = tuple(z_links)
    for j, node in enumerate(z_branch.nodes):
        routes[node] = tuple(z_links[j + 1:])
    for branch, sep_index in ((x_branch, ia), (y_branch, ib)):
        for j, node in enumerate(branch.nodes[:sep_index]):
            # inner remnant forwards back to the central node, then down Z
            routes[node] = tuple(reversed(branch.links[: j + 1])) + tuple(z_links)

    adjacent = {x_branch.links[0], y_branch.links[0]}
    deep = sum(1 for s in (sep_a, sep_b) if s not in adjacent)
    model_type = 1 + deep

    name = f"{len(sx)}-{len(sy)}-{len(sz)}"
    return PathModel(
        topology=topology,
        no_sep_branch=z_branch.gateway,
        sep_link_a=sep_a,
        sep_link_b=sep_b,
        groups={"X": sx, "Y": sy, "Z": sz},
        routes=dict(sorted(routes.items())),
        name=name,
        model_type=model_type,
    )


def enumerate_path_models(topology: Topology,
                          no_sep_branch: int | None = None) -> list[PathModel]:
    """All separation-link placements; optionally fix the no-sep (Z) branch.

    Separation links sit strictly between two nodes, so a branch with n nodes
    offers n positions and the model count is the sum over Z-branch choices of
    the product of the other two branches' node counts.
    """
    models = []
    for z_branch in topology.branches:
        if no_sep_branch is not None and z_branch.gateway != no_sep_branch:
            continue
        rest = [b for b in topology.branches if b is not z_branch]
        x_branch, y_branch = rest[0], rest[1]
        for ia in range(len(x_branch.inter_node_links)):
            for ib in range(len(y_branch.inter_node_links)):
                models.append(_build_model(topology, z_branch, x_branch, y_branch, ia, ib))
    return models


def find_model(topology: Topology, name: str,
               no_sep_branch: int | None = None) -> PathModel:
    """Look up a model by its l-r-d name (and Z-branch gateway id if ambiguous)."""
    hits = [m for m in enumerate_path_models(topology, no_sep_branch) if m.name == name]
    if not hits:
        raise ValueError(f"no path model named {name!r}")
    if len(hits) > 1 and no_sep_branch is None:
        gws = sorted({m.no_sep_branch for m in hits})
        if len(gws) > 1:
            raise ValueError(
                f"model {name!r} is ambiguous; pass no_sep_branch in {gws}")
    return hits[0]


def _groups_conflict(model: PathModel, conflicts: ConflictSet,
                     g1: str, g2: str) -> bool:
    mask = conflicts.mask_of(model.group_transmissions(g1))
    return any(conflicts.hits(mask, t) for t in model.group_transmissions(g2))


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
        return [PatternSpec(1, ("X", "Y", "Z"), (), (), ("X", "Y", "Z"))]
    p1 = PatternSpec(1, independent + conflicting + ("Z",),
                     conflicting, ("Z",), independent)
    p2 = PatternSpec(2, independent + ("Z",) + conflicting,
                     ("Z",), conflicting, independent)
    return [p1, p2]
