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

    def transmitter_map(self, label: str) -> dict[tuple[int, int], tuple[int, int]]:
        """(origin, link) -> (tx node, link) for every route step of a group:
        each hop is sent by the far end of the hop before it."""
        out = {}
        for node in self.group(label):
            tx = node
            for link_id in self.route(node):
                out[(node, link_id)] = (tx, link_id)
                tx = self.topology.links[link_id].other(tx)
        return out


@dataclass(frozen=True)
class PatternSpec:
    """A slot-allocation pattern: the order in which its groups are placed."""

    pattern_id: int
    placement: tuple[str, ...]    # group scheduling order


def _build_model(topology: Topology, z_branch: Branch, x_branch: Branch,
                 y_branch: Branch, ia: int, ib: int) -> PathModel:
    """Separation links at inter-node link index ia of X and ib of Y.  Each
    group lists its nodes most upstream first: X and Y are the outer slices
    of their branches, Z the two inner remnants (separation side first),
    the central node and the Z branch."""
    sep_a = x_branch.inter_node_links[ia]
    sep_b = y_branch.inter_node_links[ib]
    sx, sy = x_branch.nodes[ia:], y_branch.nodes[ib:]
    sz = (x_branch.nodes[:ia][::-1] + y_branch.nodes[:ib][::-1]
          + (topology.central,) + z_branch.nodes)

    z_links = z_branch.links
    routes: dict[int, tuple[int, ...]] = {topology.central: z_links}
    for j, node in enumerate(z_branch.nodes):
        routes[node] = z_links[j + 1:]
    for branch, sep_index in ((x_branch, ia), (y_branch, ib)):
        for j, node in enumerate(branch.nodes):
            # outward to the branch's gateway, or (inner remnant) back to
            # the central node, then down Z
            routes[node] = (branch.links[j + 1:] if j >= sep_index
                            else branch.links[j::-1] + z_links)

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
    if no_sep_branch is not None and no_sep_branch not in topology.gateways:
        raise ValueError(f"no_sep_branch {no_sep_branch} is not a gateway id; "
                         f"expected one of {sorted(topology.gateways)}")
    models = []
    for z_branch in topology.branches:
        if no_sep_branch is not None and z_branch.gateway != no_sep_branch:
            continue
        rest = [b for b in topology.branches if b is not z_branch]
        x_branch, y_branch = rest[0], rest[1]
        for ia in range(len(x_branch.inter_node_links)):
            for ib in range(len(y_branch.inter_node_links)):
                models.append(_build_model(topology, z_branch, x_branch, y_branch, ia, ib))
    if not models:
        where = "" if no_sep_branch is None else f" with no_sep_branch {no_sep_branch}"
        raise ValueError(f"no path model{where}: both separated branches "
                         "need at least one node")
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
    mask = conflicts.mask_of(model.transmitter_map(g1).values())
    return any(conflicts.hits(mask, t) for t in model.transmitter_map(g2).values())


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
