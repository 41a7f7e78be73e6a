"""Tests of the benchmark's own machinery: input generation, span
arithmetic, wrapper installation and failure accounting."""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
for path in (str(REPO / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import yslot  # noqa: E402
import yslot.allocate  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ygen import workload_rng, y_backbone  # noqa: E402


def test_generator_is_deterministic_for_a_seed():
    a = y_backbone(workload_rng("ladder", 7), (3, 2, 4), 50, (1, 2), 3)
    b = y_backbone(workload_rng("ladder", 7), (3, 2, 4), 50, (1, 2), 3)
    c = y_backbone(workload_rng("ladder", 8), (3, 2, 4), 50, (1, 2), 3)
    assert a == b
    assert a != c
    topology = yslot.validate_topology(a)
    assert sorted(len(br.nodes) for br in topology.branches) == [2, 3, 4]
    assert all(0.05 <= link.loss <= 0.55 for link in topology.links.values())


def test_generator_proximity_rule():
    raw = y_backbone(workload_rng("t", 1), (2, 2, 2), 30)
    prox = {tuple(p) for p in raw["proximity"]}
    # links 1-2-3 and the central node's neighbours 2, 4, 6
    assert {(1, 2), (2, 3), (1, 3), (2, 4), (2, 6), (4, 6)} <= prox
    plain = len(prox)
    extra = y_backbone(workload_rng("t", 1), (2, 2, 2), 30, extra_pairs=3)
    assert len(extra["proximity"]) == plain + 3


@pytest.mark.parametrize("workload", ["paper8", "ladder", "longframe"])
def test_workload_inputs_are_deterministic(workload):
    first = json.dumps(workloads.inputs(workload, 11, "tmp"))
    assert first == json.dumps(workloads.inputs(workload, 11, "tmp"))
    assert first != json.dumps(workloads.inputs(workload, 12, "tmp"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_arithmetic_on_a_span_tree():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def at(t):
        clock.now = t

    at(0.0); root = rec.begin("bench.op")
    at(1.0); a = rec.begin("allocate.solve_pattern")
    at(2.0); a1 = rec.begin("relax.solve_plain_structure")
    at(3.0); rec.end(a1, attrs={"residual": 1e-12})
    at(4.0); rec.end(a, attrs={"solutions": 1})
    at(5.0); b = rec.begin("timeline.verify_timeline")
    at(9.0); rec.end(b)
    at(10.0); rec.end(root)

    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    assert spans.self_times(rec.spans) == [3.0, 2.0, 1.0, 4.0]
    m = spans.layer_metrics(rec.spans)
    assert m["bench.self_s"] == 3.0
    assert m["allocate.self_s"] == 2.0
    assert m["relax.self_s"] == 1.0
    assert m["timeline.self_s"] == 4.0
    assert m["timeline.verify_s"] == 4.0
    assert m["relax.solves"] == 1 and m["relax.max_residual"] == 1e-12
    assert m["relax.useful_ratio"] == 3.0
    layer_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layer_total == 10.0


def test_wrappers_patch_every_importer_and_restore():
    original = yslot.relax.solve_plain_structure
    original_conflicts = yslot.topology.derive_conflicts
    original_verify = yslot.timeline.verify_timeline
    assert yslot.allocate.solve_plain_structure is original
    rec = spans.Recorder()
    topology = yslot.validate_topology(
        y_backbone(workload_rng("t", 2), (2, 1, 1), 20))
    with rec.installed():
        assert yslot.allocate.solve_plain_structure is not original
        assert yslot.pathmodel.derive_conflicts is not original_conflicts
        # the package re-exports `simulate`, shadowing the submodule name
        sim_module = sys.modules["yslot.simulate"]
        assert sim_module.verify_timeline is yslot.timeline.verify_timeline
        assert sim_module.verify_timeline is not original_verify
        rec.active = True
        yslot.optimize(topology)
        rec.active = False
    assert yslot.allocate.solve_plain_structure is original
    assert yslot.pathmodel.derive_conflicts is original_conflicts
    names = {s.name for s in rec.spans}
    assert {"allocate.optimize", "relax.solve_plain_structure",
            "topology.derive_conflicts", "timeline.place_plans"} <= names
    assert sum(spans.self_times(rec.spans)) == pytest.approx(
        sum(s.end - s.start for s in rec.spans if s.parent is None))


def test_failed_operation_counts_as_inf_latency_and_run_goes_on(monkeypatch):
    # paper8's CLI optimize on the shipped case-1 config; at T=240 the
    # relaxed solver cannot bracket its root today and raises
    monkeypatch.chdir(REPO)
    path = workloads.PAPER_CONFIGS[0]
    good = workloads._paper8_optimize(path, 30)
    long = workloads._paper8_optimize(path, 240)

    def boom():
        raise yslot.ConvergenceError("synthetic")

    broken = workloads.Op("broken", boom, lambda out: workloads.Outcome([], ""))
    try:
        long.call()
        long_raises = False
    except yslot.ConvergenceError:
        long_raises = True

    loop, tally = run.Loop(), run.Tally()
    for op in (good, long, broken, good):
        loop.run(op, tally)
    assert tally.attempted == 4
    assert tally.failed == 1 + long_raises
    assert math.isinf(tally.latencies[2])
    assert math.isinf(tally.latencies[1]) == long_raises
    assert all(math.isfinite(tally.latencies[i]) for i in (0, 3))
    assert tally.raised["ConvergenceError"] == 1 + long_raises
    assert tally.check_failures == []
    # the result line counts distinct operations: `good` ran twice
    assert loop.attempted_ops == 3
    assert loop.failed_ops == 1 + long_raises


def test_failed_check_counts_as_failed():
    bad = workloads.Op("bad", lambda: 1,
                       lambda out: workloads.Outcome(["wrong"], "x"))
    loop, tally = run.Loop(), run.Tally()
    loop.run(bad, tally)
    assert tally.failed == 1 and tally.check_failures == ["bad: wrong"]


def test_three_sigma_check_uses_exact_tail_for_rare_misses():
    trials = 100_000
    # the normal approximation holds: plain 3-sigma test
    p = 0.9
    sigma = math.sqrt(p * (1 - p) / trials)
    assert not workloads.beyond_three_sigma(p + 2 * sigma, p, trials)
    assert workloads.beyond_three_sigma(p - 3.5 * sigma, p, trials)
    # 0.05 misses expected: one miss (z = 4) is likely, three are not
    p = 1 - 5e-7
    assert not workloads.beyond_three_sigma(1 - 1 / trials, p, trials)
    assert workloads.beyond_three_sigma(1 - 3 / trials, p, trials)
    assert not workloads.beyond_three_sigma(1.0, p, trials)
    assert workloads.beyond_three_sigma(1 - 1 / trials, 1.0, trials)


def test_tail_percentile_keeps_ten_operations_beyond():
    lat = [i / 1000 for i in range(1, 101)]
    summary = run.percentile_summary(lat)
    assert summary["tail_percentile"] == 90.0
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert run.percentile_summary(lat[:10])["tail_ms"] is None
