"""Property suite over generated Y scenarios: the paper's invariants must
hold for every config that passes validation, not only the 8-node example.

Scenarios: three branches of 1-10 nodes, rates 1-3, link losses in
[0.01, 0.99], the link and two-hop-through-the-centre proximity pairs plus
random extra pairs, and T from 1 to 1000; one (model, pattern) per scenario.
A second suite runs `optimize` on shorter Ys and checks every solution
against its pattern solved alone.  A third mixes losses at the validation
bounds (5e-324, 1e-300 and 1 - 2^-53, within the open interval (0, 1))
with ordinary ones, and checks that every solution holds the invariants
and the CLI ends in a solution or a clean "infeasible".  Two more check
that the first placed group's COM neither falls as T grows nor falls
below its plain-only COM.  Neither holds for a whole pattern, since a
group with more slots can widen a later group's window; an example pins
each.  Examples are derandomized so every run checks the same scenarios.
"""

import contextlib
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import yslot.allocate
from conftest import (assert_optimize_matches_solve_pattern, recorded_residuals,
                      solved_alone)
from yslot import (derive_conflicts, enumerate_path_models, find_model,
                   optimize, patterns_for, relaxed_table, solution_timeline,
                   solve_pattern, validate_topology, verify_timeline)
from yslot.cli import main

LOSSES = st.floats(0.01, 0.99)
# the smallest and largest losses validation admits, mixed with ordinary ones
BOUND_LOSSES = st.one_of(st.sampled_from((5e-324, 1e-300, 1 - 2 ** -53)),
                         LOSSES)


def ys(max_length: int, max_T: int, losses=LOSSES):
    """A generated Y topology and its cycle length T."""
    return y_configs(max_length, max_T, losses).map(
        lambda config: (validate_topology(config), config["cycle_slots"]))


@st.composite
def y_configs(draw, max_length: int, max_T: int, losses=LOSSES):
    """A generated Y config, as `validate_topology` reads it."""
    lengths = [draw(st.integers(1, max_length)) for _ in range(3)]
    n_nodes = 1 + sum(lengths)
    links, centre_nbs = [], []
    node = 2
    for index, length in enumerate(lengths):
        prev = 1
        centre_nbs.append(node)
        for _ in range(length):
            links.append((prev, node))
            prev, node = node, node + 1
        links.append((prev, n_nodes + 1 + index))
    proximity = {tuple(sorted(pair)) for pair in links}
    proximity.update((a, b) for a in centre_nbs for b in centre_nbs if a < b)
    ids = range(1, n_nodes + 4)
    spare = [(a, b) for a in ids for b in ids if a < b and (a, b) not in proximity]
    proximity.update(draw(st.lists(st.sampled_from(spare), max_size=6)))
    T = draw(st.integers(1, max_T))
    return {
        "cycle_slots": T,
        "nodes": [{"id": n, "rate": draw(st.integers(1, 3))}
                  for n in range(1, n_nodes + 1)],
        "gateways": [{"id": g} for g in range(n_nodes + 1, n_nodes + 4)],
        "links": [{"id": i + 1, "a": a, "b": b, "loss": draw(losses)}
                  for i, (a, b) in enumerate(links)],
        "proximity": [list(p) for p in sorted(proximity)],
    }


@st.composite
def scenarios(draw):
    topology, T = draw(ys(10, 1000))
    model = draw(st.sampled_from(enumerate_path_models(topology)))
    spec = draw(st.sampled_from(patterns_for(model)))
    return topology, model, spec, T


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_solved_pattern_invariants(scenario):
    topology, model, spec, T = scenario
    with recorded_residuals() as residuals:
        sol = solve_pattern(model, spec, T)
        relaxed_table(sol)
    assert max(residuals) <= 1e-9
    assert_solution_invariants(topology, sol, T)


def assert_solution_invariants(topology, row, T: int) -> None:
    """The paper's invariants on one solved pattern or optimize row: TUB
    bounds COM, each group's slots fit T and its window, and the timeline
    verifies; the details come from one `solved_alone`."""
    # products at saturation differ by rounding: criterion 10's tolerance
    assert row.com_product <= row.tub_product * (1 + 1e-12)
    sol = solved_alone(row)
    for step in sol.steps:
        plan = step.plan
        serial = sum(b.count for b in plan.serialized)
        early = sum(b.count for b in plan.early)
        assert serial + plan.window <= T and early <= plan.window, plan.label
        if sol.feasible:
            assert serial == T - plan.window, plan.label
        # hiding (c1-c4) fills the window; a split (c5) may leave part of it
        # idle when too few hops can move into it
        if step.case_label.split("+")[-1] in ("c1", "c2", "c3", "c4"):
            assert early == plan.window, plan.label
    report = verify_timeline(solution_timeline(sol), derive_conflicts(topology),
                             T, sol.allocation.entries)
    assert report.ok, report.first()
    # the TUB table keeps each group's budgets: serialized slots and the
    # real window fit T, early slots of budget uses fit the window
    tub, windows = relaxed_table(sol)
    assert min(tub.values()) >= 0.0
    for step in sol.steps:
        label = step.plan.label
        nodes = set(sol.model.group(label))
        riders = {(u.node, u.link) for u in step.structure.riders}
        serial = sum(v for (node, _k, _link, early), v in tub.items()
                     if node in nodes and not early)
        early = sum(v for (node, _k, link, early), v in tub.items()
                    if node in nodes and early and (node, link) not in riders)
        assert serial + windows[label] <= T + 1e-9, label
        assert early <= windows[label] + 1e-9, label


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ys(4, 300, st.floats(0.01, 0.3)))
def test_optimize_equals_each_pattern_solved_alone(y):
    # short branches reach c5 splits at small T, and with losses of at most
    # 0.3 they reach COM = 1.0 at large T: the examples hold both
    topology, T = y
    assert_optimize_matches_solve_pattern(optimize(topology, T), T)


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(y_configs(4, 300, BOUND_LOSSES))
def test_losses_at_the_validation_bounds(config):
    # q^v rounds to 1 for a real v below about 1e-16 / |log q|: the TUB
    # product must stay finite there instead of raising
    topology, T = validate_topology(config), config["cycle_slots"]
    with recorded_residuals() as residuals:
        solutions = optimize(topology, T)
        for sol in solutions:
            assert_solution_invariants(topology, sol, T)
    assert max(residuals) <= 1e-9
    model, spec = solutions[0].model, solutions[0].pattern
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "y.json", str(Path(tmp) / "out.csv")
        path.write_text(json.dumps(config))
        assert main(["optimize", "-c", str(path), "-o", out]) in (0, 1)
        assert main(["solve", "-c", str(path), "--model", model.name,
                     "--no-sep-branch", str(model.no_sep_branch),
                     "--pattern", str(spec.pattern_id), "-o", out]) in (0, 1)


@settings(max_examples=15, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ys(4, 300), st.integers(1, 4))
def test_first_group_com_is_non_decreasing_in_T(y, step):
    # the first placed group sees no window: its COM is the best greedy
    # product at budget T, which one more slot can only keep or raise
    topology, T = y
    previous = first_group_coms(optimize(topology, T))
    for t in range(T + step, T + 5 * step, step):
        coms = first_group_coms(optimize(topology, t))
        for key, com in coms.items():
            assert com >= previous[key], (key, t)
        previous = coms


def first_group_coms(solutions) -> dict:
    """Each solution's first placed group COM: the product of its nodes'
    COM in the group's origin order, as its step multiplies them, read
    from the solution's own per-node COM, so a row needs no solve."""
    return {(s.model.name, s.model.no_sep_branch, s.pattern.pattern_id):
            math.prod(s.per_node[node] for node, _route
                      in s.model.group_routes(s.pattern.placement[0]))
            for s in solutions}


def test_pattern_com_can_fall_as_T_grows():
    # a later group's window can grow faster than T: here one more slot
    # widens Z's window by two, so its case-c5 serialized budget T - window
    # shrinks by one and the pattern's COM falls
    # branches 1-2-3 to gateway 10, 1-4-5 to 11, 1-6-7-8-9 to 12
    links = [(1, 2), (2, 3), (3, 10), (1, 4), (4, 5), (5, 11),
             (1, 6), (6, 7), (7, 8), (8, 9), (9, 12)]
    config = {
        "nodes": [{"id": n, "rate": 1} for n in range(1, 10)],
        "gateways": [{"id": g} for g in (10, 11, 12)],
        "links": [{"id": i + 1, "a": a, "b": b, "loss": 0.5}
                  for i, (a, b) in enumerate(links)],
        "proximity": [[a, b] for a, b in links] + [[2, 4], [2, 6], [4, 6], [5, 7]],
    }
    found = {}
    for T in (42, 43):
        topology = validate_topology({**config, "cycle_slots": T})
        model = find_model(topology, "3-2-4", 10)
        spec = next(p for p in patterns_for(model) if p.pattern_id == 1)
        sol = solve_pattern(model, spec, T)
        z = next(step for step in sol.steps if step.plan.label == "Z")
        serial = sum(v for (_n, _k, _l, early), v in z.entries.items() if not early)
        found[T] = (sol.com_product, z.plan.window, serial, z.case_label)
    assert found[42][1:] == (21, 21, "c5") and found[43][1:] == (23, 20, "c5")
    assert found[43][0] < found[42][0]


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ys(4, 300))
def test_first_group_com_at_least_its_plain_com(y):
    # the overlap structures are extra candidates: behind the same (empty)
    # window, dropping them never raises the first group's COM
    topology, T = y
    solutions = optimize(topology, T)
    coms = first_group_coms(solutions)
    with plain_only():
        plain = [solve_pattern(s.model, s.pattern, T) for s in solutions]
    assert {step.structure.kind for s in plain for step in s.steps} == {"plain"}
    for key, com in first_group_coms(plain).items():
        assert coms[key] >= com, key


@contextlib.contextmanager
def plain_only():
    """Solve with the plain candidate structure of every group only."""
    candidates = yslot.allocate.candidate_structures
    try:
        yslot.allocate.candidate_structures = lambda *args: candidates(*args)[:1]
        yield
    finally:
        yslot.allocate.candidate_structures = candidates


def test_overlap_structures_can_lower_the_best_com():
    # X's rider-feeders structure beats its plain one, but its extra slots
    # widen Y's window from 8 to 13, and the best COM falls below the
    # plain-only best
    rates = {1: 1, 2: 2, 3: 3, 4: 2, 5: 1, 6: 1, 7: 3, 8: 3}
    links = [(1, 2, 0.59), (2, 9, 0.72), (1, 3, 0.6), (3, 4, 0.42),
             (4, 10, 0.14), (1, 5, 0.18), (5, 6, 0.21), (6, 7, 0.21),
             (7, 8, 0.18), (8, 11, 0.24)]
    topology = validate_topology({
        "cycle_slots": 18,
        "nodes": [{"id": n, "rate": r} for n, r in rates.items()],
        "gateways": [{"id": g} for g in (9, 10, 11)],
        "links": [{"id": i + 1, "a": a, "b": b, "loss": q}
                  for i, (a, b, q) in enumerate(links)],
        "proximity": [[a, b] for a, b, _q in links]
        + [[2, 3], [2, 5], [3, 5], [7, 9]],
    })
    def steps(solutions):
        sol = next(s for s in solutions if (s.model.name, s.model.no_sep_branch,
                                            s.pattern.pattern_id) == ("4-1-3", 10, 2))
        return {step.plan.label: step for step in sol.steps}

    full = optimize(topology, 18)
    with plain_only():
        plain = optimize(topology, 18)
        plain_steps = steps(plain)
    assert full[0].com_product < plain[0].com_product
    full_steps = steps(full)
    assert full_steps["X"].structure.kind == "rider-feeders"
    assert (plain_steps["Y"].plan.window, full_steps["Y"].plan.window) == (8, 13)
