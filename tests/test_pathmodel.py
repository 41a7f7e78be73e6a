import copy

import pytest

from conftest import branch_config
from yslot import (enumerate_path_models, find_model, patterns_for,
                   validate_topology)


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
    assert len(y_branch.inter_node_links) == 1
    assert y_branch.inter_node_links == (5,)


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
        for label, members in m.groups.items():
            for node in members:
                route = m.route(node)
                assert len(set(route)) == len(route)
                cur = node
                for link in route:
                    cur = case1.links[link].other(cur)
                assert cur in case1.gateways
                # every member of a group reaches the same gateway
                assert reached.setdefault(label, cur) == cur
        assert sorted(n for ms in m.groups.values() for n in ms) == sorted(case1.nodes)
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
    with pytest.raises(ValueError):
        find_model(case1, "3-2-3")          # exists for two Z choices
    with pytest.raises(ValueError):
        find_model(case1, "9-9-9", 11)      # no such model


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
