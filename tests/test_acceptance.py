"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from conftest import (TABLE_P1_COM, TABLE_P1_TUB, TABLE_P2_COM, TABLE_P2_TUB,
                      compositions, ffun, gfun, plain_greedy, product_from_totals,
                      slot_key, solve_plain_chain, table_totals)
from yslot import (build_timeline, compare, derive_conflicts,
                   enumerate_path_models, find_model, patterns_for,
                   relaxed_table, simulate, solve_pattern, validate_topology,
                   verify_timeline)
from yslot.allocate import _delivery_product
from yslot.relax import GroupChain, Origin, _f_log


def ok(n, text):
    print(f"PASS criterion {n}: {text}")


@pytest.fixture(scope="module")
def matrix(all_cases):
    """Every (case, model, pattern, T) solution over the full enumeration."""
    out = {}
    for case, topology in all_cases.items():
        for T in (20, 30):
            for model in enumerate_path_models(topology):
                for spec in patterns_for(model):
                    key = (case, T, model.no_sep_branch, model.name,
                           spec.pattern_id)
                    out[key] = (topology, model, solve_pattern(model, spec, T))
    return out


def test_criterion_1_table2_tub(case1):
    model = find_model(case1, "3-2-3", 11)
    start = time.monotonic()
    tub_entries = relaxed_table(solve_pattern(model, 1, 30))[0]
    elapsed = time.monotonic() - start
    for name, want in TABLE_P1_TUB.items():
        assert tub_entries[slot_key(name)] == pytest.approx(want, abs=1e-3), name
    assert elapsed < 1.0
    ok(1, f"all 22 pattern-1 TUB entries within 1e-3 ({elapsed * 1e3:.0f} ms)")


def test_criterion_2_table3_tub(case1):
    model = find_model(case1, "3-2-3", 11)
    tub_entries = relaxed_table(solve_pattern(model, 2, 30))[0]
    for name, want in TABLE_P2_TUB.items():
        assert tub_entries[slot_key(name)] == pytest.approx(want, abs=1e-3), name
    ok(2, "all pattern-2 TUB entries within 1e-3, including the "
          "s[2,2]=0.5677 / s'[2,2]=3.4322 split")


def test_criterion_3_com_match_or_beat(case1):
    model = find_model(case1, "3-2-3", 11)
    for pid, table in ((1, TABLE_P1_COM), (2, TABLE_P2_COM)):
        sol = solve_pattern(model, pid, 30)
        reference = product_from_totals(case1, model, table_totals(table))
        assert sol.com_product >= reference - 1e-12, pid
        # group sums respect T = 30: serialized plus window fits the cycle
        for plan in sol.plans:
            serial = sum(b.count for b in plan.serialized)
            early = sum(b.count for b in plan.early)
            assert serial + plan.window <= 30
            assert early <= plan.window
    ok(3, "integer COM matches or beats both reference rows within T=30")


def test_criterion_4_pattern_equivalence(all_cases):
    for case, topology in all_cases.items():
        model = find_model(topology, "3-2-3", 11)
        for T in (20, 30):
            t1 = solve_pattern(model, 1, T).tub_product
            t2 = solve_pattern(model, 2, T).tub_product
            assert abs(t1 - t2) <= 1e-6, (case, T)
    ok(4, "3-2-3 pattern-1 and pattern-2 TUB equal within 1e-6 "
          "for 3 cases x T in {20, 30}")


def test_criterion_5_ranking(all_cases):
    def best_com(topology, name):
        model = find_model(topology, name, 11)
        return max(solve_pattern(model, s, 30).com_product
                   for s in patterns_for(model))

    names = ("3-2-3", "2-2-4", "2-1-5")
    coms = {case: {n: best_com(top, n) for n in names}
            for case, top in all_cases.items()}
    assert max(coms[1], key=coms[1].get) == "3-2-3"
    assert coms[1]["2-2-4"] > coms[1]["2-1-5"]
    assert coms[2]["2-2-4"] > coms[2]["2-1-5"]
    assert max(coms[2], key=coms[2].get) == "2-2-4"

    def rank(case, name):
        return sorted(coms[case], key=lambda n: -coms[case][n]).index(name)

    assert rank(3, "2-1-5") < rank(1, "2-1-5")
    ok(5, "case 1 best = 3-2-3; 2-2-4 > 2-1-5 in cases 1-2; case 2 best = "
          "2-2-4; 2-1-5 rank improves in case 3 "
          f"(rank {rank(1, '2-1-5') + 1} -> {rank(3, '2-1-5') + 1})")


def test_criterion_6_t_monotonicity(matrix):
    pairs = 0
    for key, (_top, _model, sol30) in matrix.items():
        if key[1] != 30:
            continue
        sol20 = matrix[(key[0], 20) + key[2:]][2]
        assert sol30.com_product >= sol20.com_product - 1e-12, key
        pairs += 1
    ok(6, f"COM(T=30) >= COM(T=20) for all {pairs} (model, pattern, case) triples")


def test_criterion_7_fg_properties():
    # the solver's F, _f_log(c, log c, log y), against the closed forms
    rng = random.Random(0xF00D)
    worst_f = worst = 0.0
    for _ in range(10000):
        q = rng.uniform(0.01, 0.99)
        y = math.exp(rng.uniform(math.log(1e-3), math.log(1e6)))
        c = -math.log(q)
        f = _f_log(c, math.log(c), math.log(y))[0]
        worst_f = max(worst_f, abs(f / ffun(q, y) - 1.0))
        worst = max(worst, abs(y * gfun(q, f) - 1.0))
    assert worst_f <= 1e-12
    assert worst <= 1e-10
    for q in (0.05, 0.5, 0.9):
        c = -math.log(q)
        assert _f_log(c, math.log(c), -800.0)[0] == 0.0
        values = [_f_log(c, math.log(c), math.log(y))[0]
                  for y in (1e-3, 1e-1, 1.0, 10.0, 1e3)]
        assert all(b > a for a, b in zip(values, values[1:]))
    ok(7, f"solver F vs closed form over 10^4 draws (worst {worst_f:.2e}), "
          f"inverse identity (worst {worst:.2e}), F -> 0 as y -> 0, "
          "strict monotonicity")


def test_criterion_8_budget_exactness(matrix, all_cases):
    rng = random.Random(81)
    for _ in range(200):
        n = rng.randint(1, 4)
        losses = [rng.uniform(0.05, 0.9) for _ in range(n)]
        origins = tuple(
            Origin(200 + i, rng.randint(1, 2),
                   tuple((j + 1, losses[j]) for j in range(i, n)))
            for i in range(n))
        chain = GroupChain("g", origins)
        sol = solve_plain_chain(chain, rng.uniform(4, 60))
        assert sol.residual <= 1e-9
        budget = rng.randint(len([1 for o in origins for _ in o.route]), 40)
        vals = plain_greedy(chain, budget)
        assert sum(vals.values()) == budget
    # and the solved patterns keep their serialized budgets exact
    for _key, (_top, _model, sol) in matrix.items():
        T = _key[1]
        if not sol.feasible:
            continue
        for plan in sol.plans:
            serial = sum(b.count for b in plan.serialized)
            early = sum(b.count for b in plan.early)
            assert serial == T - plan.window
            assert early == plan.window
    ok(8, "relaxed residuals <= 1e-9; integer chains sum exactly to budget")


def test_criterion_9_oracle_equivalence():
    shapes = [
        [(0,)], [(0, 1)], [(0, 1, 2)],
        [(0, 1), (1,)], [(0, 1, 2), (1, 2)],
        [(0, 1, 2), (1, 2), (2,)],
    ]
    qgrid = np.array([0.1 * i for i in range(1, 10)])
    max_budget = 12
    checked = 0
    for shape in shapes:
        n_links = max(max(s) for s in shape) + 1
        uses = [l for s in shape for l in s]
        rows = compositions(len(uses), max_budget)
        sums = rows.sum(axis=1)
        budget_idx = {b: np.nonzero(sums == b)[0] for b in range(1, max_budget + 1)}
        for qs in itertools.product(qgrid, repeat=n_links):
            log_table = np.empty((n_links, max_budget + 1))
            for li, q in enumerate(qs):
                log_table[li, 0] = -np.inf
                log_table[li, 1:] = np.log1p(-q ** np.arange(1, max_budget + 1))
            value = np.zeros(len(rows))
            for col, link in enumerate(uses):
                value = value + log_table[link, rows[:, col]]
            origins = tuple(Origin(300 + i, 1, tuple((l + 1, qs[l]) for l in s))
                            for i, s in enumerate(shape))
            for b in range(1, max_budget + 1):
                chain = GroupChain("g", origins)
                mine = math.log(x) if (x := _delivery_product(
                    origins, plain_greedy(chain, b))) > 0 else -np.inf
                brute = value[budget_idx[b]].max()
                if brute == -np.inf:
                    assert mine == -np.inf, (shape, qs, b)
                else:
                    assert mine == pytest.approx(float(brute), abs=1e-9), \
                        (shape, qs, b)
                checked += 1
    # the hand value: 2 origins, both links q=0.5, budget 5
    chain = GroupChain("g", (Origin(1, 1, ((1, 0.5), (2, 0.5))),
                             Origin(2, 1, ((2, 0.5),))))
    assert _delivery_product(chain.origins, plain_greedy(chain, 5)) == \
        pytest.approx(0.28125, abs=1e-12)
    ok(9, f"greedy rounding equals brute force on {checked} grid cases "
          "(hand value 0.28125 included)")


def test_criterion_10_tub_bounds_com(matrix):
    for key, (_top, _model, sol) in matrix.items():
        assert sol.com_product <= sol.tub_product + 1e-12, key
    ok(10, f"TUB >= COM on all {len(matrix)} solved instances "
           "(16 models x patterns x 3 cases x T in {20, 30})")


def test_criterion_11_timeline_validity(matrix):
    for key, (topology, _model, sol) in matrix.items():
        conflicts = derive_conflicts(topology)
        timeline = build_timeline(topology, sol.plans, key[1])
        report = verify_timeline(timeline, conflicts, key[1],
                                 sol.allocation.entries)
        assert report.ok, (key, report.first())
    ok(11, f"every produced allocation builds a verified timeline "
           f"({len(matrix)} instances)")


def _random_topology(rng: random.Random):
    sizes = [rng.randint(1, 2) for _ in range(3)]
    n_nodes = sum(sizes)
    nodes = [{"id": i, "rate": 1} for i in range(1, n_nodes + 2)]  # +central
    central = n_nodes + 1
    gateways = [{"id": central + g} for g in (1, 2, 3)]
    links, prox = [], []
    lid = 0
    nid = 1
    for b, size in enumerate(sizes):
        prev = central
        for _ in range(size):
            lid += 1
            links.append({"id": lid, "a": prev, "b": nid,
                          "loss": round(rng.uniform(0.05, 0.55), 3)})
            prox.append([prev, nid])
            prev = nid
            nid += 1
        lid += 1
        links.append({"id": lid, "a": prev, "b": central + b + 1,
                      "loss": round(rng.uniform(0.05, 0.55), 3)})
        prox.append([prev, central + b + 1])
    return validate_topology({
        "cycle_slots": rng.randint(14, 22),
        "nodes": nodes, "gateways": gateways, "links": links,
        "proximity": prox,
    })


def test_criterion_12_monte_carlo(case1):
    start = time.monotonic()
    trials = 100000

    model = find_model(case1, "3-2-3", 11)
    sol = solve_pattern(model, 1, 30)
    timeline = build_timeline(case1, sol.plans, 30)
    report = simulate(timeline, case1, trials, seed=20240811)
    rerun = simulate(timeline, case1, trials, seed=20240811)
    assert report == rerun
    checks = compare(report, sol.allocation.per_node)
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]

    rng = random.Random(0xACCE55)
    for i in range(20):
        topology = _random_topology(rng)
        m = enumerate_path_models(topology)[0]
        s = solve_pattern(m, patterns_for(m)[0], topology.cycle_slots)
        tl = build_timeline(topology, s.plans, topology.cycle_slots)
        rep = simulate(tl, topology, trials, seed=3000 + i)
        chk = compare(rep, s.allocation.per_node)
        assert all(c.ok for c in chk), (i, [c for c in chk if not c.ok])
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    ok(12, f"empirical rates within 3 sigma on the reference allocation and "
           f"20 random topologies; deterministic reruns ({elapsed:.1f} s)")
