import copy
import random

import pytest

from yslot import (GatewayCountNot3, LinkNotInProximity, LossOutOfRange,
                   NoDegree3Node, NotATree, TopologyError, derive_conflicts,
                   validate_topology)


def test_example_is_valid_with_central_node_4(case1):
    assert case1.central == 4
    assert sorted(case1.gateways) == [9, 10, 11]
    assert case1.cycle_slots == 30
    chains = {b.gateway: b.nodes for b in case1.branches}
    assert chains == {9: (3, 2, 1), 10: (5, 6), 11: (7, 8)}


def test_two_gateways_rejected(case1_raw):
    raw = copy.deepcopy(case1_raw)
    raw["gateways"] = raw["gateways"][:2]
    raw["links"] = [l for l in raw["links"] if l["id"] != 10]
    raw["nodes"] = raw["nodes"]
    with pytest.raises(GatewayCountNot3):
        validate_topology(raw)


def test_loss_out_of_range(case1_raw):
    raw = copy.deepcopy(case1_raw)
    raw["links"][4]["loss"] = 1.0
    with pytest.raises(LossOutOfRange):
        validate_topology(raw)


def test_link_missing_from_proximity(case1_raw):
    raw = copy.deepcopy(case1_raw)
    raw["proximity"] = [p for p in raw["proximity"] if sorted(p) != [4, 5]]
    with pytest.raises(LinkNotInProximity):
        validate_topology(raw)


def test_disconnected_graph_rejected(case1_raw):
    raw = copy.deepcopy(case1_raw)
    # re-point link 2 to create a cycle and strand node 1
    raw["links"][1]["a"] = 2
    raw["links"][1]["b"] = 3
    with pytest.raises(NotATree):
        validate_topology(raw)


def test_degree4_hub_rejected(case1_raw):
    raw = copy.deepcopy(case1_raw)
    # re-point link 6 so node 4 gets four links (and node 5 dangles)
    for l in raw["links"]:
        if l["id"] == 6:
            l["a"], l["b"] = 4, 6
    raw["proximity"].append([4, 6])
    with pytest.raises((NoDegree3Node, NotATree)):
        validate_topology(raw)


def test_nonpositive_rate_rejected(case1_raw):
    raw = copy.deepcopy(case1_raw)
    raw["nodes"][0]["rate"] = 0
    with pytest.raises(TopologyError):
        validate_topology(raw)


def test_example_interference_constraints(case1):
    c = derive_conflicts(case1)
    # 3-2-3: 3 and 4 cannot send at the same time, nor 5 and 4
    assert c.conflict((3, 3), (4, 8))
    assert c.conflict((5, 6), (4, 8))
    # but 3, 5, and 7 can send to their next node at the same time
    assert not c.conflict((3, 3), (5, 6))
    assert not c.conflict((3, 3), (7, 9))
    assert not c.conflict((5, 6), (7, 9))
    # 2-2-4: 3 and 5 cannot send at once (interference at 4); 5 and 7 can
    assert c.conflict((3, 4), (5, 6))
    assert not c.conflict((5, 6), (7, 9))
    # 2-1-5: 3, 4, 5 mutually exclusive; 2 and 6 can send at once
    assert c.conflict((3, 4), (5, 5))
    assert c.conflict((3, 4), (4, 8))
    assert c.conflict((5, 5), (4, 8))
    assert not c.conflict((2, 2), (6, 7))


def test_same_transmitter_conflicts(case1):
    c = derive_conflicts(case1)
    assert c.conflict((4, 8), (4, 5))
    assert not c.conflict((4, 8), (4, 8))  # a transmission never pairs with itself


def test_conflicts_symmetric(case1):
    c = derive_conflicts(case1)
    txs = case1.transmissions()
    for t1 in txs:
        for t2 in txs:
            assert c.conflict(t1, t2) == c.conflict(t2, t1)
            assert c.hits(c.mask_of([t1]), t2) == c.conflict(t1, t2)


def conflict_pairs(topology):
    conflicts = derive_conflicts(topology)
    txs = topology.transmissions()
    return {frozenset((a, b)) for a in txs for b in txs
            if a != b and conflicts.conflict(a, b)}


def test_adding_proximity_never_removes_conflicts(case1_raw):
    base = validate_topology(case1_raw)
    base_pairs = conflict_pairs(base)
    rng = random.Random(7)
    ids = [n["id"] for n in case1_raw["nodes"]] + [g["id"] for g in case1_raw["gateways"]]
    for _ in range(20):
        raw = copy.deepcopy(case1_raw)
        a, b = rng.sample(ids, 2)
        raw["proximity"].append([a, b])
        grown = conflict_pairs(validate_topology(raw))
        assert base_pairs <= grown


def test_optimize_derives_conflicts_once(case1_raw, monkeypatch):
    import yslot.topology
    from yslot import optimize

    calls = []
    rule = yslot.topology._conflict_rule
    monkeypatch.setattr(yslot.topology, "_conflict_rule",
                        lambda *args: calls.append(args) or rule(*args))
    topology = validate_topology(case1_raw)
    n = len(topology.transmissions())
    solutions = optimize(topology)
    assert len(solutions) == 27
    # one derivation checks every unordered pair of transmissions once
    assert len(calls) == n * (n - 1) // 2
    assert derive_conflicts(topology) is derive_conflicts(topology)
    assert len(calls) == n * (n - 1) // 2
