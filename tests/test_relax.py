import math
import random

import pytest

from conftest import ffun, gfun, recorded_residuals, solve_plain_chain
from yslot import DomainError, optimize, solve_pattern
from yslot.allocate import build_group_chain, candidate_structures
from yslot.pathmodel import find_model
from yslot.relax import (GroupChain, Origin, Use, budget_terms,
                         solve_plain_structure, solve_rider_feeders,
                         solve_rider_terminal)
from yslot.topology import derive_conflicts


def chain_sx_case1():
    return GroupChain("X", (
        Origin(3, 1, ((3, 0.2), (2, 0.1), (1, 0.2))),
        Origin(2, 1, ((2, 0.1), (1, 0.2))),
        Origin(1, 1, ((1, 0.2),)),
    ))


def chain_sy_case1():
    return GroupChain("Y", (
        Origin(5, 1, ((6, 0.3), (7, 0.2))),
        Origin(6, 1, ((7, 0.2),)),
    ))


def chain_sz_case1():
    return GroupChain("Z", (
        Origin(4, 1, ((8, 0.2), (9, 0.5), (10, 0.3))),
        Origin(7, 1, ((9, 0.5), (10, 0.3))),
        Origin(8, 1, ((10, 0.3),)),
    ))


def test_inverse_identity_random():
    rng = random.Random(20240811)
    for _ in range(10000):
        q = rng.uniform(0.01, 0.99)
        y = math.exp(rng.uniform(math.log(1e-3), math.log(1e6)))
        assert abs(gfun(q, ffun(q, y)) * y - 1.0) <= 1e-10


def test_ffun_strictly_increasing():
    rng = random.Random(5)
    for _ in range(200):
        q = rng.uniform(0.05, 0.95)
        y = rng.uniform(1e-3, 1e3)
        assert ffun(q, y * 1.01) > ffun(q, y)


def test_budget_terms_examples():
    assert budget_terms(chain_sx_case1()) == [(1, 3), (2, 2), (3, 1)]
    single = GroupChain("Z", (Origin(8, 3, ((10, 0.3),)),))
    assert budget_terms(single) == [(10, 3)]


def test_budget_terms_224_case1_variant(case1):
    # the case-1 budget for the 2-2-4 bottom group drops the feeder
    # first hop: 2 uses of link 8, 3 of link 9, 4 of link 10
    model = find_model(case1, "2-2-4", 11)
    chain = build_group_chain(model, "Z")
    structures = candidate_structures(model, chain, derive_conflicts(case1))
    rider_feed = next(s for s in structures if s.kind == "rider-feeders")
    mult: dict[int, int] = {}
    for u in rider_feed.uses:
        mult[u.link] = mult.get(u.link, 0) + u.weight
    assert sorted(mult.items()) == [(8, 2), (9, 3), (10, 4)]


def test_golden_relaxed_sx():
    sol = solve_plain_chain(chain_sx_case1(), 30.0)
    assert sol.values[(1, 1)] == pytest.approx(5.5001, abs=1e-3)
    assert sol.values[(2, 2)] == pytest.approx(3.9999, abs=1e-3)
    assert sol.values[(3, 3)] == pytest.approx(5.5001, abs=1e-3)
    assert sol.residual <= 1e-9


def test_golden_relaxed_sy():
    sol = solve_plain_chain(chain_sy_case1(), 30.0)
    assert sol.values[(5, 6)] == pytest.approx(11.8741, abs=1e-3)
    assert sol.values[(5, 7)] == pytest.approx(9.0630, abs=1e-3)
    assert sol.values[(6, 7)] == pytest.approx(9.0630, abs=1e-3)


def test_golden_relaxed_sz():
    sol = solve_plain_chain(chain_sz_case1(), 30.0)
    assert sol.values[(4, 8)] == pytest.approx(3.4322, abs=1e-3)
    assert sol.values[(4, 9)] == pytest.approx(6.7617, abs=1e-3)
    assert sol.values[(4, 10)] == pytest.approx(4.3481, abs=1e-3)


def test_equal_slots_per_link():
    sol = solve_plain_chain(chain_sx_case1(), 30.0)
    assert sol.values[(1, 1)] == sol.values[(2, 1)] == sol.values[(3, 1)]
    assert sol.values[(2, 2)] == sol.values[(3, 2)]
    # symmetric losses get symmetric slots: q1 = q3 = 0.2
    assert sol.values[(3, 3)] == pytest.approx(sol.values[(1, 1)], abs=1e-9)


def test_budget_exactness_random_chains():
    rng = random.Random(99)
    for _ in range(50):
        n_links = rng.randint(1, 4)
        losses = [rng.uniform(0.05, 0.9) for _ in range(n_links)]
        origins = []
        for i in range(n_links):
            route = tuple((j + 1, losses[j]) for j in range(i, n_links))
            origins.append(Origin(100 + i, rng.randint(1, 3), route))
        budget = rng.uniform(5, 80)
        chain = GroupChain("g", tuple(sorted(reversed(origins),
                                             key=lambda o: -len(o.route))))
        sol = solve_plain_chain(chain, budget)
        used = sum(o.rate * sol.values[(o.node, link)]
                   for o in chain.origins for link, _ in o.route)
        assert abs(used - budget) <= 1e-9
        # strictly below 1 mathematically; float rounding may saturate
        assert 0.0 < sol.product <= 1.0
        assert all(v > 0 for v in sol.values.values())


def test_tub_monotone_in_budget():
    prev = 0.0
    for budget in (10.0, 20.0, 30.0, 50.0):
        sol = solve_plain_chain(chain_sz_case1(), budget)
        assert sol.product > prev
        prev = sol.product


def test_nonpositive_budget_rejected():
    with pytest.raises(DomainError):
        solve_plain_chain(chain_sx_case1(), 0.0)


def test_convergence_error_on_saturating_equation():
    from yslot.relax import ConvergenceError, _solve_log

    def saturating(t):
        # 1 - 1/(1 + y) at y = e^t, which never reaches 5, and its slope
        value = 0.5 * (1.0 + math.tanh(0.5 * t))
        return value, value * (1.0 - value)

    with pytest.raises(ConvergenceError):
        _solve_log(saturating, 5.0, 0.0, "saturating")


def test_heterogeneous_rates_budget():
    chain = GroupChain("g", (
        Origin(1, 2, ((1, 0.3), (2, 0.2))),
        Origin(2, 3, ((2, 0.2),)),
    ))
    assert budget_terms(chain) == [(1, 2), (2, 5)]
    sol = solve_plain_chain(chain, 24.0)
    used = 2 * (sol.values[(1, 1)] + sol.values[(1, 2)]) + 3 * sol.values[(2, 2)]
    assert abs(used - 24.0) <= 1e-9


@pytest.mark.parametrize("T", [180, 400, 1000])
def test_optimize_long_cycles_on_shipped_configs(all_cases, T):
    # the old y-doubling bracket stopped at 2^400, short of these roots
    for case, topology in all_cases.items():
        with recorded_residuals() as residuals:
            solutions = optimize(topology, T)
        assert len(solutions) == 27, case
        for sol in solutions:
            # products near 1 differ by rounding: criterion 10's tolerance
            assert sol.com_product <= sol.tub_product + 1e-12, (case, sol.model.name)
        assert len(residuals) > 0 and max(residuals) <= 1e-9


def test_solve_pattern_at_ten_thousand_slots(case1):
    with recorded_residuals() as residuals:
        sol = solve_pattern(find_model(case1, "3-2-3", 11), 1, 10_000)
    assert sol.feasible and sol.com_product <= sol.tub_product + 1e-12
    for plan in sol.plans:
        assert sum(b.count for b in plan.serialized) + plan.window <= 10_000
    assert len(residuals) > 0 and max(residuals) <= 1e-9


@pytest.mark.parametrize("budget", [30.0, 1e3, 1e5])
def test_every_form_meets_large_budgets(budget):
    # log y reaches ~budget * (-log q): every term must stay finite
    a, b, c, t = (Use(1, 1, 0.02, 1), Use(1, 2, 0.4, 1), Use(2, 2, 0.4, 2),
                  Use(3, 3, 0.3, 1))
    solves = [solve_plain_structure([a, b, c, t], budget),
              solve_rider_terminal([a, b, c], [a], t, budget),
              solve_rider_feeders([b, c, t], t, [a], budget)]
    for sol in solves:
        assert sol.residual <= 1e-9
        assert all(math.isfinite(v) and v > 0 for v in sol.values.values())
        assert 0.0 < sol.product <= 1.0
