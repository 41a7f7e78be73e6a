import math
import random
from decimal import Decimal, localcontext

import pytest
from golden import sweep

from conftest import (branch_config, ffun, gfun, recorded_residuals,
                      solve_plain_chain)
from yslot import (ConvergenceError, DomainError, enumerate_path_models,
                   optimize, solve_pattern, validate_topology)
from yslot.allocate import (Origin, _layout, _relax_structure,
                            candidate_structures)
from yslot.pathmodel import find_model
from yslot.relax import (Use, _f_log, _solve_log, log1m_pow,
                         solve_plain_structure, solve_rider_feeders,
                         solve_rider_terminal)
from yslot.topology import derive_conflicts


def chain_sx_case1():
    return (
        Origin(3, 1, ((3, 0.2), (2, 0.1), (1, 0.2))),
        Origin(2, 1, ((2, 0.1), (1, 0.2))),
        Origin(1, 1, ((1, 0.2),)),
    )


def chain_sy_case1():
    return (
        Origin(5, 1, ((6, 0.3), (7, 0.2))),
        Origin(6, 1, ((7, 0.2),)),
    )


def chain_sz_case1():
    return (
        Origin(4, 1, ((8, 0.2), (9, 0.5), (10, 0.3))),
        Origin(7, 1, ((9, 0.5), (10, 0.3))),
        Origin(8, 1, ((10, 0.3),)),
    )


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


def test_budget_terms_224_case1_variant(case1):
    # the case-1 budget for the 2-2-4 bottom group drops the feeder
    # first hop: 2 uses of link 8, 3 of link 9, 4 of link 10
    model = find_model(case1, "2-2-4", 11)
    origins = _layout(model, "Z")[0]
    structures = candidate_structures(origins, derive_conflicts(case1))
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
        origins = tuple(sorted(reversed(origins), key=lambda o: -len(o.route)))
        sol = solve_plain_chain(origins, budget)
        used = sum(o.rate * sol.values[(o.node, link)]
                   for o in origins for link, _ in o.route)
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


@pytest.mark.parametrize("budget", [0.0, -1.0])
@pytest.mark.parametrize("kind", ["plain", "rider-terminal", "rider-feeders"])
def test_every_solver_rejects_nonpositive_budget(case1, kind, budget):
    # every solver kind raises it; the CLI reports it as an internal
    # solver fault (exit 3), not a usage error
    model = find_model(case1, "3-1-4", 11)
    origins = _layout(model, "Z")[0]
    st, = (s for s in candidate_structures(origins, derive_conflicts(case1))
           if s.kind == kind)
    with pytest.raises(DomainError):
        _relax_structure(st, budget)


def test_convergence_error_on_saturating_equation():
    from yslot.relax import ConvergenceError, _solve_log

    def saturating(t):
        # 1 - 1/(1 + y) at y = e^t, which never reaches 5, and its slope
        value = 0.5 * (1.0 + math.tanh(0.5 * t))
        return value, value * (1.0 - value)

    with pytest.raises(ConvergenceError):
        _solve_log(saturating, 5.0, 0.0, "saturating")


def test_heterogeneous_rates_budget():
    origins = (
        Origin(1, 2, ((1, 0.3), (2, 0.2))),
        Origin(2, 3, ((2, 0.2),)),
    )
    sol = solve_plain_chain(origins, 24.0)
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
            assert sol.com_product <= sol.tub_product * (1 + 1e-12), (case, sol.model.name)
        assert len(residuals) > 0 and max(residuals) <= 1e-9


def test_solve_pattern_at_ten_thousand_slots(case1):
    with recorded_residuals() as residuals:
        sol = solve_pattern(find_model(case1, "3-2-3", 11), 1, 10_000)
    assert sol.feasible and sol.com_product <= sol.tub_product * (1 + 1e-12)
    for plan in sol.plans:
        assert sum(b.count for b in plan.serialized) + plan.window <= 10_000
    assert len(residuals) > 0 and max(residuals) <= 1e-9


def test_tub_bounds_com_at_bound_losses():
    # sweep scenario 3 (T = 190, losses at the bounds validation admits):
    # the one of its 65 solutions where COM 0x1.8534332a0259bp-751 read
    # above TUB 0x1.833f6ba2948b5p-751 while log1p(-q**v) lost its digits
    # at q = 1 - 2**-53
    topology = validate_topology(sweep.scenario_configs()[3])
    sol = solve_pattern(find_model(topology, "4-2-7", 16), 1, 190)
    assert sol.com_product <= sol.tub_product * (1 + 1e-12)


def log1m_pow_reference(q: float, v: float) -> float:
    """log(1 - q^v) from the exact values of q and v in 400-digit decimals,
    enough to resolve 1 - q^v down to v |log q| near 1e-340."""
    with localcontext() as ctx:
        ctx.prec = 400
        return float((1 - Decimal(q) ** Decimal(v)).ln())


def test_log1m_pow_keeps_its_digits_near_q_one():
    # every branch (q^v below 0.999, near 1, and v log q below the smallest
    # normal float) against the decimal reference, at the bound losses and
    # ordinary ones
    for q in (1 - 2 ** -53, 1 - 2 ** -52, 1 - 2 ** -40, 0.9999, 0.999, 0.5,
              1e-300, 5e-324):
        for v in (5e-324, 1e-310, 1e-300, 1e-200, 1e-20, 1e-3, 0.37, 1, 2.5, 7,
                  1000.3, 1e12):
            got, want = log1m_pow(q, v), log1m_pow_reference(q, v)
            assert abs(got - want) <= 1e-14 * abs(want), (q, v, got, want)
    assert log1m_pow(0.5, 0) == log1m_pow(0.5, -1.0) == -math.inf


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


def per_use_solve(uses, budget, what, inner, coupled):
    """Reference relaxed solve that takes F, the load and log(1 - q^v)
    once per use, as the solver did before it shared them per distinct
    loss: (values, product, residual), bit for bit what the solver must
    give."""
    if budget <= 0.0:
        raise DomainError(f"budget {budget} must be > 0")
    tied = [*inner, coupled] if coupled is not None else []
    others = [u for u in uses if u not in tied]

    def terms(part):
        return [(u.weight, c := -math.log(u.q), math.log(c)) for u in part]

    def load_of(part_terms, s):
        total = slope = 0.0
        for w, c, log_c in part_terms:
            f, df = _f_log(c, log_c, s)
            total += w * f
            slope += w * df
        return total, slope

    inner_terms, other_terms = terms(inner), terms(others)
    if coupled is not None:
        _w, c, log_c = terms([coupled])[0]

    def load(t):
        inner_load, inner_slope = load_of(inner_terms, t)
        x, log_y, dlog_y = 0.0, t, 1.0
        if coupled is not None:
            x = max(inner_load / coupled.weight, 1e-300)
            log_g = log_c - c * x - math.log(-math.expm1(-c * x))
            log_y = -max(-t, log_g) - math.log1p(math.exp(-abs(t + log_g)))
            dlog_y = (math.exp(log_y - t) + math.exp(log_y + log_g)
                      * (c + math.exp(log_g)) * inner_slope / coupled.weight)
        other_load, other_slope = load_of(other_terms, log_y)
        return (other_load + inner_load, other_slope * dlog_y + inner_slope,
                x, log_y)

    cs = [*other_terms, *inner_terms]
    start = ((budget - sum(w * lc / c for w, c, lc in cs))
             / sum(w / c for w, c, _lc in cs))
    t = _solve_log(load, budget, start, what)
    _, _, x, log_y = load(t)
    values = {(u.node, u.link): _f_log(cu, lcu, log_y)[0]
              for u, (_w, cu, lcu) in zip(others, other_terms)}
    values.update(((u.node, u.link), _f_log(cu, lcu, t)[0])
                  for u, (_w, cu, lcu) in zip(inner, inner_terms))
    if coupled is not None:
        values[(coupled.node, coupled.link)] = x
    residual = abs(sum(u.weight * values[(u.node, u.link)] for u in uses) - budget)
    if residual > 1e-9:
        raise ConvergenceError(f"{what} residual {residual:.3e} above tolerance")
    log_m = sum(u.weight * log1m_pow(u.q, values[(u.node, u.link)])
                for u in (*uses, *(u for u in tied if u not in uses)))
    return values, math.exp(log_m), residual


def per_use_structure(st, budget):
    """`per_use_solve` of a candidate structure, dispatched by its kind."""
    uses = list(st.uses)
    if st.kind == "plain":
        return per_use_solve(uses, budget, "plain budget", [], None)
    if st.kind == "rider-terminal":
        feeders = [u for u in uses if (u.node, u.link) in st.hosts]
        return per_use_solve(uses, budget, "rider-terminal budget", feeders,
                             st.riders[0])
    terminal = next(u for u in uses if (u.node, u.link) == st.hosts[0])
    return per_use_solve(uses, budget, "rider-feeders budget", list(st.riders),
                         terminal)


def solved(st, budget):
    relaxed = _relax_structure(st, budget)
    return relaxed.values, relaxed.product, relaxed.residual


def hex_outcome(solve):
    """A solve's values, product and residual as hex, or the error it raised."""
    try:
        values, product, residual = solve()
    except ConvergenceError as exc:
        return repr(exc)
    return ([(key, v.hex()) for key, v in values.items()], product.hex(),
            residual.hex())


def test_per_distinct_loss_terms_match_the_per_use_solve():
    # the solver takes F and log(1 - q^v) once per distinct loss and adds
    # w * F per use in use order, so every value, product and residual is
    # the per-use solve's, bit for bit; a per-link weight sum is not
    rng = random.Random(2025)
    kinds, repeated, checked = set(), 0, 0
    for lengths in ((1, 2, 3), (2, 3, 1), (3, 3, 3), (4, 2, 5)):
        raw = branch_config(lengths)
        pool = [round(rng.uniform(0.02, 0.9), 4) for _ in range(3)]
        for link in raw["links"]:
            link["loss"] = rng.choice(pool)
        for node in raw["nodes"]:
            node["rate"] = rng.randint(1, 3)
        topology = validate_topology(raw)
        conflicts = derive_conflicts(topology)
        for model in rng.sample(enumerate_path_models(topology), 4):
            for label in ("X", "Y", "Z"):
                origins = _layout(model, label)[0]
                for st in candidate_structures(origins, conflicts):
                    kinds.add(st.kind)
                    repeated += len({u.q for u in st.uses}) < len(st.uses)
                    for budget in (1.0, 10_000.0, rng.choice((3.0, 30.0, 300.0)),
                                   round(math.exp(rng.uniform(0.0, math.log(1e4))), 3)):
                        assert hex_outcome(lambda: solved(st, budget)) == \
                            hex_outcome(lambda: per_use_structure(st, budget)), \
                            (st, budget)
                        checked += 1
    assert kinds == {"plain", "rider-terminal", "rider-feeders"}
    assert repeated > 20 and checked > 300
