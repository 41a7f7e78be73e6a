"""Property suite over generated Y scenarios: the paper's invariants must
hold for every config that passes validation, not only the 8-node example.

Scenarios: three branches of 1-10 nodes, rates 1-3, link losses in
[0.01, 0.99], the link and two-hop-through-the-centre proximity pairs plus
random extra pairs, and T from 1 to 1000; one (model, pattern) per scenario.
A second suite runs `optimize` on shorter Ys and checks every solution
against its pattern solved alone.  Examples are derandomized so every run
checks the same scenarios.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_optimize_matches_solve_pattern, recorded_residuals
from yslot import (derive_conflicts, enumerate_path_models, optimize,
                   patterns_for, relaxed_table, solution_timeline,
                   solve_pattern, validate_topology, verify_timeline)


@st.composite
def ys(draw, max_length: int, max_T: int, max_loss: float = 0.99):
    """A generated Y topology and its cycle length T."""
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
    topology = validate_topology({
        "cycle_slots": T,
        "nodes": [{"id": n, "rate": draw(st.integers(1, 3))}
                  for n in range(1, n_nodes + 1)],
        "gateways": [{"id": g} for g in range(n_nodes + 1, n_nodes + 4)],
        "links": [{"id": i + 1, "a": a, "b": b,
                   "loss": draw(st.floats(0.01, max_loss))}
                  for i, (a, b) in enumerate(links)],
        "proximity": [list(p) for p in sorted(proximity)],
    })
    return topology, T


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
    # products at saturation differ by rounding: criterion 10's tolerance
    assert sol.com_product <= sol.tub_product + 1e-12
    for plan in sol.plans:
        serial = sum(b.count for b in plan.serialized)
        early = sum(b.count for b in plan.early)
        assert serial + plan.window <= T and early <= plan.window, plan.label
        if sol.feasible:
            assert serial == T - plan.window, plan.label
        # hiding (c1-c4) fills the window; a split (c5) may leave part of it
        # idle when too few hops can move into it
        if sol.case_labels[plan.label].split("+")[-1] in ("c1", "c2", "c3", "c4"):
            assert early == plan.window, plan.label
    report = verify_timeline(solution_timeline(sol), derive_conflicts(topology),
                             T, sol.allocation.entries)
    assert report.ok, report.first()


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ys(4, 300, 0.3))
def test_optimize_equals_each_pattern_solved_alone(y):
    # short branches reach c5 splits at small T, and with losses of at most
    # 0.3 they reach COM = 1.0 at large T: the examples hold both
    topology, T = y
    assert_optimize_matches_solve_pattern(optimize(topology, T), T)
