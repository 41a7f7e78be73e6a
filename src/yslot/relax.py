"""Relaxed (real-valued) slot allocation via the Lagrangian adjunct-variable
method.

The core identities: G(q, x) = -q^x log q / (1 - q^x) and
F(q, y) = -log(1 - y log q) / log q satisfy G(q, x) = 1/y  <=>  x = F(q, y).
Setting every budgeted variable to F(q_link, y) and solving for the adjunct
y until the budget equation holds gives the unique relaxed optimum, because
the per-slot objective is separable and strictly log-concave.  Two "rider"
structures, where one burst shares the slots of a non-interfering other,
couple the rider into its hosts' stationarity and are parametrized on the
host-side marginal.  All three solve one increasing equation in t, the log
of their scalar, with every term in log form (F(q, e^t) is
softplus(t + log c) / c, c = -log q), so nothing overflows at large T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Slot budget outside the relaxed solver's domain (it must be > 0)."""


class ConvergenceError(RuntimeError):
    """Adjunct-variable root finding failed to reach tolerance."""


@dataclass(frozen=True)
class Origin:
    node: int
    rate: int
    route: tuple[tuple[int, float], ...]  # (link id, loss), upstream to gateway


@dataclass(frozen=True)
class GroupChain:
    label: str
    origins: tuple[Origin, ...]  # most-upstream origin first


def budget_terms(chain: GroupChain) -> list[tuple[int, int]]:
    """Per-link budget coefficient: sum of rates of origins routed through it."""
    mult: dict[int, int] = {}
    for origin in chain.origins:
        for link, _ in origin.route:
            mult[link] = mult.get(link, 0) + origin.rate
    return sorted(mult.items())


# ---------------------------------------------------------------------------
# structured solves: uses are per-origin (node, link) variables weighted by
# the origin's packet rate; a rider is a free-riding burst whose length is
# tied to its hosts' total.


@dataclass(frozen=True)
class Use:
    node: int
    link: int
    q: float
    weight: int


@dataclass(frozen=True)
class StructuredRelax:
    values: dict[tuple[int, int], float]   # budget uses AND rider uses
    product: float
    residual: float


_T_CAP = 2.0 ** 40   # bracket widening stops here, far beyond any root


def _solve_log(fn, target: float, t: float, what: str) -> float:
    """Root of fn(t)[0] = target for an increasing fn returning (value,
    slope, ...), by safeguarded Newton: a Newton step that would leave the
    bracket seen so far is replaced by bisection or, while one side is still
    open, by a doubling step towards the root."""
    lo, hi, widen = -math.inf, math.inf, 1.0
    for _ in range(200):
        value, slope = fn(t)[:2]
        lo, hi = (t, hi) if value < target else (lo, t)
        step = (target - value) / slope if slope > 0.0 else math.nan
        if abs(step) <= 1e-12 * max(1.0, abs(t)):
            return t + step
        if lo < t + step < hi:
            t += step
        elif hi - lo < math.inf:
            if 0.5 * (lo + hi) in (lo, hi):
                return t
            t = 0.5 * (lo + hi)
        else:
            t += widen if value < target else -widen
            widen *= 2.0
            if abs(t) > _T_CAP:
                raise ConvergenceError(f"could not bracket {what} root")
    raise ConvergenceError(f"{what} root did not converge")


def _terms(uses: list[Use]) -> list[tuple[int, float, float]]:
    """Per-use constants of a solve: (weight, c, log c) with c = -log q."""
    return [(u.weight, c := -math.log(u.q), math.log(c)) for u in uses]


def _f_log(c: float, log_c: float, s: float) -> tuple[float, float]:
    """F(q, e^s) = softplus(s + log c) / c with c = -log q, and its
    derivative in s."""
    z = s + log_c
    e = math.exp(-abs(z))
    return ((max(z, 0.0) + math.log1p(e)) / c,
            (1.0 if z > 0.0 else e) / ((1.0 + e) * c))


def _load(terms: list[tuple[int, float, float]], s: float) -> tuple[float, float]:
    """Budget used, sum of w * F(q, e^s), and its derivative in s."""
    total = slope = 0.0
    for w, c, log_c in terms:
        f, df = _f_log(c, log_c, s)
        total += w * f
        slope += w * df
    return total, slope


def _solve_structure(uses: list[Use], budget: float, what: str,
                     inner: list[Use], coupled: Use | None) -> StructuredRelax:
    """Relaxed optimum of one structure; the budget covers `uses`.

    Plain (no coupled use): every use gets F(q, y) with t = log y.  Rider
    forms: the inner uses get F(q, e^t), the coupled use x = their weighted
    total over its weight, and the other uses F(q, y) with
    1/y = e^-t + G(q_c, x) from the coupled use's stationarity.
    """
    tied = [*inner, coupled] if coupled is not None else []
    others = [u for u in uses if u not in tied]
    inner_terms, other_terms = _terms(inner), _terms(others)
    if coupled is not None:
        _w, c, log_c = _terms([coupled])[0]

    def load(t: float) -> tuple[float, float, float, float]:
        """Budget used and its t-derivative, x and log y."""
        inner_load, inner_slope = _load(inner_terms, t)
        x, log_y, dlog_y = 0.0, t, 1.0
        if coupled is not None:
            x = max(inner_load / coupled.weight, 1e-300)
            log_g = log_c - c * x - math.log(-math.expm1(-c * x))
            log_y = -max(-t, log_g) - math.log1p(math.exp(-abs(t + log_g)))
            # d log y / dt, with dG/dx = -G (c + G)
            dlog_y = (math.exp(log_y - t) + math.exp(log_y + log_g)
                      * (c + math.exp(log_g)) * inner_slope / coupled.weight)
        other_load, other_slope = _load(other_terms, log_y)
        return (other_load + inner_load, other_slope * dlog_y + inner_slope,
                x, log_y)

    # the load is at least the budget where its asymptote meets it (plain:
    # convex in t, so Newton falls monotonically from here to the root)
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
    log_m = sum(u.weight * math.log1p(-u.q ** values[(u.node, u.link)])
                for u in (*uses, *(u for u in tied if u not in uses)))
    return StructuredRelax(values, math.exp(log_m), residual)


def solve_plain_structure(uses: list[Use], budget: float) -> StructuredRelax:
    """Relaxed optimum of serialized budget uses: every use gets F(q, y) for
    one adjunct y, and the budget is met."""
    if budget <= 0.0:
        raise DomainError(f"budget {budget} must be > 0")
    return _solve_structure(uses, budget, "plain budget", [], None)


def solve_rider_terminal(uses: list[Use], feeders: list[Use], rider: Use,
                         budget: float) -> StructuredRelax:
    """Terminal's own burst rides under the feeder first-hop bursts.

    Budget covers `uses` (feeders included, terminal's own excluded); the
    rider gets the weighted feeder slot total z, split evenly over its
    packets: G(q_f, x_f) + G(q_r, z/w_r) = 1/y, solved in t = -log G(q_f, x_f).
    """
    return _solve_structure(uses, budget, "rider-terminal budget", feeders, rider)


def solve_rider_feeders(uses: list[Use], terminal: Use, feeders: list[Use],
                        budget: float) -> StructuredRelax:
    """Feeder first hops ride under the terminal's own burst, splitting it.

    Budget covers `uses` (terminal's own included, feeder first hops
    excluded).  The feeders split C = w_t * x_t optimally, z_f = F(q_f, 1/mu)
    with C = sum w_f z_f, and the split's multiplier mu joins the terminal's
    stationarity: G(q_t, x_t) + mu = 1/y, solved in t = -log mu.
    """
    return _solve_structure(uses, budget, "rider-feeders budget", feeders, terminal)
