import copy
import json
import random
import re

import pytest

from conftest import branch_config
from yslot import (GatewayCountNot3, LinkNotInProximity, LossOutOfRange,
                   NoDegree3Node, NotATree, TopologyError, derive_conflicts,
                   load_config, validate_topology)
from yslot.cli import main
from yslot.topology import MAX_CYCLE_SLOTS, MAX_PACKET_HOPS


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
    with pytest.raises(GatewayCountNot3, match="^expected exactly 3 gateways, got 2$"):
        validate_topology(raw)
    # three entries, two of them one gateway: the message names the repeated id
    raw = copy.deepcopy(case1_raw)
    raw["gateways"] = [{"id": 9}, {"id": 9}, {"id": 10}]
    with pytest.raises(GatewayCountNot3, match="^gateway id 9 is repeated"):
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


def _set(raw, path, value):
    """Replace the config field at `path` (keys and list indices)."""
    *parents, last = path
    for key in parents:
        raw = raw[key]
    raw[last] = value


@pytest.mark.parametrize("path, value", [
    (("nodes", 0, "rate"), 2.7),
    (("nodes", 0, "rate"), True),
    (("nodes", 0, "id"), "1"),
    (("cycle_slots",), 30.9),
    (("cycle_slots",), "30"),
    (("gateways", 0, "id"), False),
    (("links", 0, "id"), 1.5),
    (("links", 0, "a"), "1"),
    (("proximity", 0, 1), 2.5),
    (("proximity", 0, 0), None),
    (("cycle_slots",), float("inf")),
], ids=["rate-fraction", "rate-bool", "node-id-string", "cycle-slots-fraction",
        "cycle-slots-string", "gateway-id-bool", "link-id-fraction",
        "link-endpoint-string", "proximity-id-fraction", "proximity-id-null",
        "cycle-slots-inf"])
def test_non_integer_field_rejected_not_truncated(case1_raw, path, value):
    raw = copy.deepcopy(case1_raw)
    _set(raw, path, value)
    with pytest.raises(TopologyError, match=f"{value!r} is not an integer"):
        validate_topology(raw)


@pytest.mark.parametrize("value", ["0.2", True, None, [0.2]],
                         ids=["string", "bool", "null", "list"])
def test_non_real_loss_rejected(case1_raw, value, tmp_path, capsys):
    raw = copy.deepcopy(case1_raw)
    raw["links"][0]["loss"] = value
    message = f"loss {value!r} is not a real number"
    with pytest.raises(TopologyError, match=re.escape(message)) as raised:
        validate_topology(raw)
    assert type(raised.value) is TopologyError
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["optimize", "-c", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(value) in err


@pytest.mark.parametrize("body, message", [
    (b'{"nodes": "\xff"}', "is not UTF-8 text (byte 11): invalid start byte"),
    (b"[" * 100_000 + b"]" * 100_000, "is nested too deeply to parse")],
    ids=["not-utf8", "nested-100000-deep"])
def test_malformed_file_is_a_config_error(tmp_path, capsys, body, message):
    # a file the JSON parser cannot read is a config error that names the
    # file, from the library and as the CLI's one error line with exit 2
    path = tmp_path / "config.json"
    path.write_bytes(body)
    with pytest.raises(TopologyError) as raised:
        load_config(path)
    assert str(raised.value) == f"config {path} {message}"
    assert main(["optimize", "-c", str(path)]) == 2
    assert capsys.readouterr().err == f"error: config {path} {message}\n"


def test_integral_float_reads_as_int(case1_raw):
    raw = copy.deepcopy(case1_raw)
    raw["nodes"][0]["rate"], raw["cycle_slots"] = 2.0, 30.0
    topology = validate_topology(raw)
    assert type(topology.cycle_slots) is int and topology.cycle_slots == 30
    assert type(topology.rates[1]) is int and topology.rates[1] == 2


@pytest.mark.parametrize("cycle_slots", [MAX_CYCLE_SLOTS + 1, 10 ** 12])
def test_cycle_slots_above_the_cap_rejected(case1_raw, cycle_slots):
    raw = copy.deepcopy(case1_raw)
    raw["cycle_slots"] = MAX_CYCLE_SLOTS
    assert validate_topology(raw).cycle_slots == MAX_CYCLE_SLOTS
    raw["cycle_slots"] = cycle_slots
    with pytest.raises(TopologyError, match=f"cycle_slots {cycle_slots} is above the cap "
                       f"of {MAX_CYCLE_SLOTS} slots"):
        validate_topology(raw)


def test_packet_hops_above_the_cap_rejected():
    # 121 packets on routes of up to 40 + 40 + 1 hops: 9 801 packet hops
    raw = branch_config((40, 40, 40))
    validate_topology(raw)
    longer = branch_config((40, 41, 40))   # 122 packets, 82 hops: 10 004
    with pytest.raises(TopologyError, match="122 packets per cycle on routes of up "
                       f"to 82 hops are above the cap of {MAX_PACKET_HOPS}"):
        validate_topology(longer)
    raw["nodes"][0]["rate"] = 10 ** 6
    with pytest.raises(TopologyError, match="above the cap"):
        validate_topology(raw)


@pytest.mark.parametrize("entry", [[1, 2, 3], [1], []])
def test_proximity_entry_must_be_a_pair(case1_raw, entry):
    raw = copy.deepcopy(case1_raw)
    raw["proximity"].append(entry)
    with pytest.raises(TopologyError, match=r"proximity entry \[.*\] is not a pair"):
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

    built = []
    conflict_set = yslot.topology.ConflictSet
    monkeypatch.setattr(yslot.topology, "ConflictSet",
                        lambda *args: built.append(args) or conflict_set(*args))
    topology = validate_topology(case1_raw)
    solutions = optimize(topology)
    assert len(solutions) == 27
    # one derivation for the topology, however many patterns read it
    assert len(built) == 1
    assert derive_conflicts(topology) is derive_conflicts(topology)
    assert len(built) == 1
