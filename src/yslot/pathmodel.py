"""Path models: separation-link placements on a Y-shaped topology.

Placing one separation link in each of two branches splits the node set into
groups S_X, S_Y, S_Z (packets forwarded to gateways X, Y, Z).  The branch
without a separation link is labeled Z.  A model is named l-r-d after the
group sizes and typed 1/2/3 by how many separation links sit away from the
central node.

The models of one Z choice differ only in their cut (ia, ib): the indices of
the separation links among the X and Y branches' inter-node links.  A model
is a named tuple of its topology, Z gateway and cut and the `ZTable` that
every model of its Z choice shares.  It slices its groups from the table's
branches and reads its routes, separation links and first hops from the
table, so no model holds a dict of its own.  The allocation layer walks a
group's routes once (`allocate._layout`) for its origins and its per-hop
transmitter map.
"""

from __future__ import annotations

from typing import NamedTuple

from .topology import Branch, ConflictSet, Topology, derive_conflicts


class ZTable(NamedTuple):
    """What the models of one Z choice share: the X and Y branches, each
    node's route inward to Z's gateway (X and Y nodes go back through the
    central node), each X and Y node's route outward to its own branch's
    gateway, and the tail of group Z."""

    x_branch: Branch
    y_branch: Branch
    inward: dict[int, tuple[int, ...]]   # node -> link ids toward Z's gateway
    outward: dict[int, tuple[int, ...]]  # X or Y node -> link ids to its gateway
    z_tail: tuple[int, ...]              # the central node, then the Z branch


class PathModel(NamedTuple):
    """One separation-link placement: the Z branch's gateway and the cut,
    separation links at inter-node link index ia of the X branch and ib of
    the Y branch, with the table its Z choice shares.  Each group lists its
    nodes most upstream first: X and Y are the outer slices of their
    branches, Z the two inner remnants (separation side first), the central
    node and the Z branch.  X and Y nodes route outward to their own
    gateways, Z nodes inward to Z's.  `==` compares every field; the table
    is a function of the topology and the Z gateway, and the models of one
    enumerated Z choice share it, so between them it compares by identity."""

    topology: Topology
    no_sep_branch: int   # gateway id of the Z branch
    ia: int              # cut index in the X branch
    ib: int              # cut index in the Y branch
    table: ZTable

    @property
    def sep_link_a(self) -> int:
        """The separation link in the X branch."""
        return self.table.x_branch.links[self.ia]

    @property
    def sep_link_b(self) -> int:
        """The separation link in the Y branch."""
        return self.table.y_branch.links[self.ib]

    @property
    def name(self) -> str:
        """l-r-d, the sizes of groups X, Y and Z."""
        l = len(self.table.x_branch.nodes) - self.ia
        r = len(self.table.y_branch.nodes) - self.ib
        return f"{l}-{r}-{len(self.topology.rates) - l - r}"

    @property
    def model_type(self) -> int:
        # one more per separation link away from the central node
        return 1 + (self.ia > 0) + (self.ib > 0)

    def group(self, label: str) -> tuple[int, ...]:
        """Origins of group label ("X", "Y" or "Z"), upstream first."""
        x, y = self.table.x_branch.nodes, self.table.y_branch.nodes
        if label == "X":
            return x[self.ia:]
        if label == "Y":
            return y[self.ib:]
        if label == "Z":
            return x[:self.ia][::-1] + y[:self.ib][::-1] + self.table.z_tail
        raise KeyError(label)

    def group_routes(self, label: str) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(node, link ids toward its gateway) of each node of group label,
        in group order, read from the shared table."""
        routes = self.table.inward if label == "Z" else self.table.outward
        return tuple((node, routes[node]) for node in self.group(label))


class PatternSpec(NamedTuple):
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


def _models(topology: Topology, z_branch: Branch, x_branch: Branch,
            y_branch: Branch) -> list[PathModel]:
    """Models of one Z choice, one per cut (ia, ib), sharing one `ZTable`."""
    z_links = z_branch.links
    inward = {topology.central: z_links}
    for j, node in enumerate(z_branch.nodes):
        inward[node] = z_links[j + 1:]
    outward = {}
    for branch in (x_branch, y_branch):
        for j, node in enumerate(branch.nodes):
            inward[node] = branch.links[j::-1] + z_links
            outward[node] = branch.links[j + 1:]
    table = ZTable(x_branch, y_branch, inward, outward,
                   (topology.central,) + z_branch.nodes)
    return [PathModel(topology, z_branch.gateway, ia, ib, table)
            for ia in range(len(x_branch.nodes)) for ib in range(len(y_branch.nodes))]


def enumerate_path_models(topology: Topology,
                          no_sep_branch: int | None = None) -> list[PathModel]:
    """All separation-link placements; optionally fix the no-sep (Z) branch.

    Separation links sit strictly between two nodes, so a branch with n nodes
    offers n positions and the model count is the sum over Z-branch choices of
    the product of the other two branches' node counts.
    """
    models = []
    for z_branch, x_branch, y_branch in _z_choices(topology, no_sep_branch):
        models += _models(topology, z_branch, x_branch, y_branch)
    return models


def find_model(topology: Topology, name: str,
               no_sep_branch: int | None = None) -> PathModel:
    """Look up a model by its l-r-d name (and Z-branch gateway id if ambiguous)."""
    hits = [m for m in enumerate_path_models(topology, no_sep_branch) if m.name == name]
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
        return ((n, route[0]) for n, route in model.group_routes(label))
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
