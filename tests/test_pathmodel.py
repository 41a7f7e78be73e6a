import copy
import random
import re
import time
import tracemalloc
from types import SimpleNamespace

import pytest

from conftest import branch_config, load_case_raw, model_routes
from yslot import (PatternSpec, derive_conflicts, enumerate_path_models,
                   find_model, optimize, patterns_for, solve_pattern,
                   validate_topology)
from yslot.allocate import _layout
from yslot.topology import MAX_CYCLE_SLOTS


def test_fixed_z_enumeration_names(case1):
    models = enumerate_path_models(case1, no_sep_branch=11)
    assert sorted(m.name for m in models) == sorted(
        ["3-2-3", "3-1-4", "2-2-4", "2-1-5", "1-2-5", "1-1-6"])


def test_full_enumeration_count(case1):
    models = enumerate_path_models(case1)
    # pairwise products of branch node counts: 3*2 + 3*2 + 2*2
    assert len(models) == 16
    # brute-force the count from the branch structure
    counts = [len(b.nodes) for b in case1.branches]
    expected = (counts[0] * counts[1] + counts[0] * counts[2]
                + counts[1] * counts[2])
    assert len(models) == expected


def test_sep_links_never_gateway_links(case1):
    gw_links = {b.links[-1] for b in case1.branches}
    for m in enumerate_path_models(case1):
        assert m.sep_link_a not in gw_links
        assert m.sep_link_b not in gw_links


def test_degenerate_one_node_branch(case1_raw):
    # shrink the Y branch to a single node: drop node 6, rewire link 7
    raw = copy.deepcopy(case1_raw)
    raw["nodes"] = [n for n in raw["nodes"] if n["id"] != 6]
    raw["links"] = [l for l in raw["links"] if l["id"] != 6]
    for l in raw["links"]:
        if l["id"] == 7:
            l["a"], l["b"] = 5, 10
    raw["proximity"] = [p for p in raw["proximity"] if 6 not in p] + [[5, 10]]
    top = validate_topology(raw)
    y_branch = next(b for b in top.branches if b.gateway == 10)
    assert len(y_branch.links[:-1]) == 1
    assert y_branch.links[:-1] == (5,)


def test_groups_and_types(case1):
    m323 = find_model(case1, "3-2-3", 11)
    assert m323.group("X") == (3, 2, 1)
    assert m323.group("Y") == (5, 6)
    assert m323.group("Z") == (4, 7, 8)
    assert m323.model_type == 1
    assert (m323.sep_link_a, m323.sep_link_b) == (4, 5)

    m224 = find_model(case1, "2-2-4", 11)
    assert m224.group("Z") == (3, 4, 7, 8)
    assert m224.model_type == 2

    m215 = find_model(case1, "2-1-5", 11)
    assert m215.group("Z") == (3, 5, 4, 7, 8)
    assert m215.model_type == 3


def test_routes_loop_free_and_single_gateway(case1):
    for m in enumerate_path_models(case1):
        reached = {}
        for label in ("X", "Y", "Z"):
            assert tuple(node for node, _ in m.group_routes(label)) == m.group(label)
            for node, route in m.group_routes(label):
                assert len(set(route)) == len(route)
                cur = node
                for link in route:
                    cur = case1.links[link].other(cur)
                assert cur in case1.gateways
                # every member of a group reaches the same gateway
                assert reached.setdefault(label, cur) == cur
        assert sorted(n for label in ("X", "Y", "Z") for n in m.group(label)) == \
            sorted(case1.nodes)
        assert sorted(reached) == ["X", "Y", "Z"]
        assert len(set(reached.values())) == 3


def test_group_sizes_partition_nodes(case1):
    for m in enumerate_path_models(case1):
        sizes = [len(m.group(g)) for g in ("X", "Y", "Z")]
        assert sum(sizes) == len(case1.nodes)
        assert m.name == "-".join(str(s) for s in sizes)
        assert all(s >= 1 for s in sizes)
        joined = [n for g in ("X", "Y", "Z") for n in m.group(g)]
        assert sorted(joined) == list(case1.nodes)


def test_patterns_323(case1):
    m = find_model(case1, "3-2-3", 11)
    specs = patterns_for(m)
    assert len(specs) == 2
    assert specs[0].placement == ("X", "Y", "Z")
    assert specs[1].placement == ("Z", "X", "Y")


def test_patterns_224_x_independent(case1):
    m = find_model(case1, "2-2-4", 11)
    specs = patterns_for(m)
    assert len(specs) == 2
    assert specs[0].placement == ("X", "Y", "Z")
    assert specs[1].placement == ("X", "Z", "Y")


def test_patterns_215_single(case1):
    m = find_model(case1, "2-1-5", 11)
    specs = patterns_for(m)
    assert len(specs) == 1
    assert specs[0].placement == ("X", "Y", "Z")


def test_relabeling_gateways_preserves_groups(case1_raw, case1):
    raw = copy.deepcopy(case1_raw)
    swap = {9: 21, 10: 22, 11: 23}
    raw["gateways"] = [{"id": swap[g["id"]]} for g in raw["gateways"]]
    for l in raw["links"]:
        l["a"] = swap.get(l["a"], l["a"])
        l["b"] = swap.get(l["b"], l["b"])
    raw["proximity"] = [[swap.get(a, a), swap.get(b, b)] for a, b in raw["proximity"]]
    relabeled = validate_topology(raw)

    def group_map(topology):
        return {
            (m.sep_link_a, m.sep_link_b): tuple(sorted(
                (tuple(m.group(g)) for g in ("X", "Y", "Z"))))
            for m in enumerate_path_models(topology)
        }

    assert group_map(case1) == group_map(relabeled)


def test_ambiguous_model_name_needs_branch(case1):
    # each message exactly; a non-str name is no model's name either
    for name, no_sep_branch, message in [
        ("9-9-9", 11, "no path model named '9-9-9'"),
        ("03-2-3", None, "no path model named '03-2-3'"),   # not a model's own name
        ("3-2-9", None, "no path model named '3-2-9'"),     # sizes do not sum to 8
        ("x", None, "no path model named 'x'"),
        (5, None, "no path model named 5"),
        ("3-2-3", None, "model '3-2-3' is ambiguous; pass no_sep_branch in [10, 11]"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            find_model(case1, name, no_sep_branch)


def test_no_sep_branch_must_be_a_gateway(case1):
    with pytest.raises(ValueError, match=r"expected one of \[9, 10, 11\]"):
        enumerate_path_models(case1, no_sep_branch=99)
    with pytest.raises(ValueError, match="not a gateway id"):
        find_model(case1, "3-2-3", 1)       # a node id, not a gateway id


@pytest.mark.parametrize("lengths, no_sep_branch", [
    ((0, 0, 0), None),    # the central node alone, linked to three gateways
    ((0, 2, 3), 8),       # Z is the 2-node branch: X has no node to separate
], ids=["central-only", "empty-separated-branch"])
def test_no_path_model_is_an_error(lengths, no_sep_branch):
    topology = validate_topology(branch_config(lengths))
    with pytest.raises(ValueError, match="^no path model"):
        enumerate_path_models(topology, no_sep_branch)


def test_empty_branch_can_be_z():
    topology = validate_topology(branch_config((0, 2, 3)))
    models = enumerate_path_models(topology)
    assert {m.no_sep_branch for m in models} == {7}
    assert len(models) == 2 * 3


# Oracles: a model builder that builds every group and route afresh and
# sorts the routes by node, and a group-conflict test over the per-hop
# transmitter map.

def oracle_model(topology, z_branch, x_branch, y_branch, ia, ib) -> SimpleNamespace:
    sep_a = x_branch.links[:-1][ia]
    sep_b = y_branch.links[:-1][ib]
    sx, sy = x_branch.nodes[ia:], y_branch.nodes[ib:]
    sz = (x_branch.nodes[:ia][::-1] + y_branch.nodes[:ib][::-1]
          + (topology.central,) + z_branch.nodes)
    z_links = z_branch.links
    routes = {topology.central: z_links}
    for j, node in enumerate(z_branch.nodes):
        routes[node] = z_links[j + 1:]
    for branch, sep_index in ((x_branch, ia), (y_branch, ib)):
        for j, node in enumerate(branch.nodes):
            routes[node] = (branch.links[j + 1:] if j >= sep_index
                            else branch.links[j::-1] + z_links)
    adjacent = {x_branch.links[0], y_branch.links[0]}
    deep = sum(1 for s in (sep_a, sep_b) if s not in adjacent)
    return SimpleNamespace(
        no_sep_branch=z_branch.gateway, sep_link_a=sep_a, sep_link_b=sep_b,
        groups={"X": sx, "Y": sy, "Z": sz}, routes=dict(sorted(routes.items())),
        name=f"{len(sx)}-{len(sy)}-{len(sz)}", model_type=1 + deep)


def oracle_models(topology) -> list[SimpleNamespace]:
    models = []
    for z_branch in topology.branches:
        x_branch, y_branch = (b for b in topology.branches if b is not z_branch)
        for ia in range(len(x_branch.links[:-1])):
            for ib in range(len(y_branch.links[:-1])):
                models.append(oracle_model(topology, z_branch, x_branch, y_branch,
                                           ia, ib))
    return models


def oracle_patterns(model, transmitters) -> list[PatternSpec]:
    """`transmitters[label]`: the values of the model's transmitter map."""
    conflicts = derive_conflicts(model.topology)

    def groups_conflict(g1, g2):
        mask = conflicts.mask_of(transmitters[g1])
        return any(conflicts.hits(mask, t) for t in transmitters[g2])

    conflicting = tuple(g for g in ("X", "Y") if groups_conflict(g, "Z"))
    independent = tuple(g for g in ("X", "Y") if g not in conflicting)
    if not conflicting:
        return [PatternSpec(1, ("X", "Y", "Z"))]
    return [PatternSpec(1, independent + conflicting + ("Z",)),
            PatternSpec(2, independent + ("Z",) + conflicting)]


def shuffled_y(rng: random.Random, extra: tuple[int, int] = (0, 12)) -> dict:
    """A Y with branches of 1-9 nodes, rates 1-3 and a number in `extra`
    of extra proximity pairs (as many as the ids allow), whose node,
    gateway and link ids are shuffled so that neither node order nor link
    order follows the branches."""
    raw = branch_config(tuple(rng.randint(1, 9) for _ in range(3)))
    n_ids = len(raw["nodes"]) + 3
    relabel = dict(zip(range(1, n_ids + 1), rng.sample(range(1, 3 * n_ids), n_ids)))
    link_ids = rng.sample(range(1, 3 * n_ids), len(raw["links"]))
    proximity = {tuple(sorted((relabel[a], relabel[b]))) for a, b in raw["proximity"]}
    ids = sorted(relabel.values())
    spare = [(a, b) for a in ids for b in ids if a < b and (a, b) not in proximity]
    proximity.update(rng.sample(spare, min(rng.randint(*extra), len(spare))))
    return {
        "cycle_slots": 30,
        "nodes": [{"id": relabel[n["id"]], "rate": rng.randint(1, 3)}
                  for n in raw["nodes"]],
        "gateways": [{"id": relabel[g["id"]]} for g in raw["gateways"]],
        "links": [{"id": i, "a": relabel[l["a"]], "b": relabel[l["b"]], "loss": 0.3}
                  for i, l in zip(link_ids, raw["links"])],
        "proximity": [list(p) for p in sorted(proximity)],
    }


def oracle_topologies():
    rng = random.Random(22)
    return ([validate_topology(load_case_raw(case)) for case in (1, 2, 3)]
            + [validate_topology(shuffled_y(rng)) for _ in range(200)])


def oracle_conflicts(topology):
    """`index`, `masks` and `receivers` of the conflict set, by protocol
    interference stated pairwise: tx u -> v conflicts with tx x -> w when
    they share a node or when x is near v or u is near w."""
    txs = topology.transmissions()
    recv = {t: topology.links[t[1]].other(t[0]) for t in txs}

    def near(a, b):
        return (min(a, b), max(a, b)) in topology.proximity

    masks = [0] * len(txs)
    for i, t in enumerate(txs):
        u, v = t[0], recv[t]
        for j in range(i + 1, len(txs)):
            x, w = txs[j][0], recv[txs[j]]
            if u == x or v == w or u == w or x == v or near(x, v) or near(u, w):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return {t: i for i, t in enumerate(txs)}, tuple(masks), recv


def test_conflicts_match_the_pairwise_rule():
    rng = random.Random(23)
    dense = [validate_topology(shuffled_y(rng, (20, 60))) for _ in range(50)]
    assert max(len(t.proximity) - len(t.links) for t in dense) >= 40
    for topology in oracle_topologies() + dense:
        conflicts = derive_conflicts(topology)
        index, masks, receivers = oracle_conflicts(topology)
        assert conflicts.index == index
        assert conflicts.masks == masks
        assert conflicts.receivers == receivers


def assert_model_matches(model, oracle):
    assert ((model.no_sep_branch, model.sep_link_a, model.sep_link_b,
             model.name, model.model_type)
            == (oracle.no_sep_branch, oracle.sep_link_a, oracle.sep_link_b,
                oracle.name, oracle.model_type))
    for label in ("X", "Y", "Z"):
        assert model.group(label) == oracle.groups[label]
        assert model.group_routes(label) == tuple(
            (node, oracle.routes[node]) for node in oracle.groups[label])
    assert model_routes(model) == oracle.routes


def test_models_and_patterns_match_the_oracles():
    for topology in oracle_topologies():
        models = enumerate_path_models(topology)
        oracles = oracle_models(topology)
        assert len(models) == len(oracles)
        for model, oracle in zip(models, oracles):
            assert_model_matches(model, oracle)
            transmitters = {label: set(_layout(model, label)[1].values())
                            for label in ("X", "Y", "Z")}
            assert patterns_for(model) == oracle_patterns(model, transmitters)
            for label, txs in transmitters.items():
                assert {(n, route[0]) for n, route in model.group_routes(label)} == txs
        for branch in topology.branches:
            fixed = [m for m in models if m.no_sep_branch == branch.gateway]
            if fixed:
                assert enumerate_path_models(topology, branch.gateway) == fixed
        for model, oracle in zip(models, oracles):
            found = find_model(topology, model.name, model.no_sep_branch)
            assert found == model
            assert_model_matches(found, oracle)


# a model is its cut and the table its Z choice shares; nothing adds to it
MODEL_FIELDS = {"topology", "no_sep_branch", "ia", "ib", "table"}


def holds_only_its_fields(model) -> bool:
    return set(model._fields) == MODEL_FIELDS and not hasattr(model, "__dict__")


def test_no_model_holds_state_of_its_own_after_solving(case1):
    solutions = optimize(validate_topology(branch_config((4, 4, 4))))
    models = {id(sol.model): sol.model for sol in solutions}
    assert len(models) == 48
    assert all(holds_only_its_fields(m) for m in models.values())
    model = find_model(case1, "3-2-3", 11)
    solve_pattern(model)
    assert holds_only_its_fields(model)


def test_front_end_at_the_caps():
    # branches of 40 nodes, 9 801 packet hops: 4 800 models whose patterns
    # read each group's own transmitters, never a route dict or the per-hop
    # transmitter map (which `_layout` builds from the routes)
    topology = validate_topology(branch_config((40, 40, 40), MAX_CYCLE_SLOTS))
    start = time.perf_counter()
    models = enumerate_path_models(topology)
    specs = [patterns_for(m) for m in models]
    assert time.perf_counter() - start < 5.0
    assert len(models) == len(specs) == 4800
    assert all(holds_only_its_fields(m) for m in models)
    for z_branch in topology.branches:
        # at most two route tuples (outward, inward) per separated node and
        # one per other node, shared by the 1 600 models of the Z choice
        shared = {id(route) for m in models if m.no_sep_branch == z_branch.gateway
                  for route in model_routes(m).values()}
        assert len(shared) <= 2 * 80 + 41


# Python 3.11: enumerating the caps config's 4 800 models and choosing their
# patterns peaks at 1.88 MB traced, since the models of one Z choice share
# one table and build no routes dict; it held 30.7 MB when each model kept
# its own routes and groups dicts.
FRONT_END_PEAK_BOUND_MB = 4.0


def test_front_end_memory_at_the_caps():
    topology = validate_topology(branch_config((40, 40, 40), MAX_CYCLE_SLOTS))
    derive_conflicts(topology)           # kept on the topology, not the models
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        models = enumerate_path_models(topology)
        specs = [patterns_for(m) for m in models]
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(models) == len(specs) == 4800
    assert peak / 1e6 < FRONT_END_PEAK_BOUND_MB
