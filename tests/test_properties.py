"""Property suite over generated Y scenarios: the paper's invariants must
hold for every config that passes validation, not only the 8-node example.

Scenarios: three branches of 1-10 nodes, rates 1-3, link losses in
[0.01, 0.99], the link and two-hop-through-the-centre proximity pairs plus
random extra pairs, and T from 1 to 1000; one (model, pattern) per scenario.
A second suite runs `optimize` on shorter Ys and checks every solution
against its pattern solved alone.  A third mixes losses at the validation
bounds (5e-324, 1e-300 and 1 - 2^-53, within the open interval (0, 1))
with ordinary ones, and checks that every solution holds the invariants
and the CLI ends in a solution or a clean "infeasible".  Examples are
derandomized so every run checks the same scenarios.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_optimize_matches_solve_pattern, recorded_residuals
from yslot import (derive_conflicts, enumerate_path_models, optimize,
                   patterns_for, relaxed_table, solution_timeline,
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


def assert_solution_invariants(topology, sol, T: int) -> None:
    """The paper's invariants on one solved pattern: TUB bounds COM, each
    group's slots fit T and its window, and the timeline verifies."""
    # products at saturation differ by rounding: criterion 10's tolerance
    assert sol.com_product <= sol.tub_product + 1e-12
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
            relaxed_table(sol)
    assert max(residuals) <= 1e-9
    for sol in solutions:
        assert_solution_invariants(topology, sol, T)
    model, spec = solutions[0].model, solutions[0].pattern
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "y.json", str(Path(tmp) / "out.csv")
        path.write_text(json.dumps(config))
        assert main(["optimize", "-c", str(path), "-o", out]) in (0, 1)
        assert main(["solve", "-c", str(path), "--model", model.name,
                     "--no-sep-branch", str(model.no_sep_branch),
                     "--pattern", str(spec.pattern_id), "-o", out]) in (0, 1)
