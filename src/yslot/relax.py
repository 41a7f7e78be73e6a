"""Relaxed (real-valued) slot allocation via the Lagrangian adjunct-variable
method.

The core identities: G(q, x) = -q^x log q / (1 - q^x) and
F(q, y) = -log(1 - y log q) / log q satisfy G(q, x) = 1/y  <=>  x = F(q, y).
Setting every budgeted variable to F(q_link, y) and bisecting the adjunct y
until the budget equation holds gives the unique relaxed optimum, because the
per-slot objective is separable and strictly log-concave.

Two "rider" structures extend this for overlapped transmissions where one
burst shares the slots of another (no interference between them): the rider
term couples into the stationarity conditions of its host variables.
Parametrizing on the host-side marginal keeps each a single bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Argument outside the loss-rate / slot-count domain."""


class ConvergenceError(RuntimeError):
    """Adjunct-variable root finding failed to reach tolerance."""


def gfun(q: float, x: float) -> float:
    """Marginal log-gain of slots: -q^x log q / (1 - q^x)."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"loss rate {q} not in (0,1)")
    if x <= 0.0:
        raise DomainError(f"slot count {x} must be > 0")
    lq = math.log(q)
    # -lq / (q^-x - 1), stable for both tiny and huge x
    return -lq / math.expm1(-x * lq)


def ffun(q: float, y: float) -> float:
    """Inverse of gfun in its second argument: F(q, y) with gfun(q, F(q,y)) = 1/y."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"loss rate {q} not in (0,1)")
    if y < 0.0:
        raise DomainError(f"adjunct value {y} must be >= 0")
    lq = math.log(q)
    return math.log1p(-y * lq) / (-lq)


def _bisect(fn, lo: float, hi: float, iters: int = 120) -> float:
    """Root of an increasing fn with fn(lo) < 0 <= fn(hi)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _solve_increasing(fn, target: float, hi0: float = 1.0,
                      what: str = "adjunct") -> float:
    """Solve fn(y) = target for increasing fn with fn(0) < target."""
    hi = hi0
    for _ in range(400):
        if fn(hi) >= target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError(f"could not bracket {what} root")
    root = _bisect(lambda y: fn(y) - target, 0.0, hi)
    if abs(fn(root) - target) > 1e-9:
        raise ConvergenceError(
            f"{what} residual {abs(fn(root) - target):.3e} above tolerance")
    return root


@dataclass(frozen=True)
class Origin:
    node: int
    rate: int
    route: tuple[tuple[int, float], ...]  # (link id, loss), upstream to gateway


@dataclass(frozen=True)
class GroupChain:
    label: str
    origins: tuple[Origin, ...]  # most-upstream origin first
    budget: float


def budget_terms(chain: GroupChain) -> list[tuple[int, int]]:
    """Per-link budget coefficient: sum of rates of origins routed through it."""
    mult: dict[int, int] = {}
    for origin in chain.origins:
        for link, _ in origin.route:
            mult[link] = mult.get(link, 0) + origin.rate
    return sorted(mult.items())


# ---------------------------------------------------------------------------
# structured solves with rider terms
#
# Uses are per-origin (node, link) variables that consume budget; a rider is a
# free-riding burst whose length is tied to its hosts' total.  Weights are the
# origins' packet rates.


@dataclass(frozen=True)
class Use:
    node: int
    link: int
    q: float
    weight: int


@dataclass(frozen=True)
class StructuredRelax:
    values: dict[tuple[int, int], float]   # budget uses AND rider uses
    adjunct: float
    product: float
    residual: float


def _product_of(uses: list[Use], values: dict[tuple[int, int], float]) -> float:
    log_m = 0.0
    for u in uses:
        log_m += u.weight * math.log1p(-u.q ** values[(u.node, u.link)])
    return log_m


def solve_plain_structure(uses: list[Use], budget: float) -> StructuredRelax:
    """Relaxed optimum of serialized budget uses: every use gets F(q, y) for
    one adjunct y, and the budget is met.

    The budget's left side is 0 at y = 0 and strictly increasing and
    unbounded in y, so bracket expansion plus bisection finds the unique
    root.
    """
    if budget <= 0.0:
        raise DomainError(f"budget {budget} must be > 0")

    def used(y: float) -> float:
        return sum(u.weight * ffun(u.q, y) for u in uses)

    y = _solve_increasing(used, budget, what="plain budget")
    values = {(u.node, u.link): ffun(u.q, y) for u in uses}
    return StructuredRelax(values, y, math.exp(_product_of(uses, values)),
                           abs(used(y) - budget))


def solve_rider_terminal(uses: list[Use], feeders: list[Use], rider: Use,
                         budget: float) -> StructuredRelax:
    """Terminal's own burst rides under the feeder first-hop bursts.

    Budget covers `uses` (feeders included, terminal's own excluded); the
    rider gets z = the weighted feeder slot total, split evenly over its
    packets.  Stationarity couples rider and feeders:
    G(q_f, x_f) + G(q_r, z/w_r) = 1/y.  Parametrizing on the feeder-side
    marginal c = G(q_f, x_f) makes everything closed-form per evaluation, so
    a single bisection on c solves the budget equation (decreasing in c).
    """
    feeder_keys = {(f.node, f.link) for f in feeders}
    others = [u for u in uses if (u.node, u.link) not in feeder_keys]

    def state(c: float):
        fvals = {(f.node, f.link): ffun(f.q, 1.0 / c) for f in feeders}
        z = max(sum(f.weight * fvals[(f.node, f.link)] for f in feeders), 1e-300)
        y = 1.0 / (c + gfun(rider.q, z / rider.weight))
        return fvals, z, y

    def used(c: float) -> float:
        fvals, z, y = state(c)
        return sum(u.weight * ffun(u.q, y) for u in others) + z

    c = _solve_increasing(lambda t: used(1.0 / t), budget,
                          what="rider-terminal budget")
    c = 1.0 / c
    fvals, z, y = state(c)
    values = {(u.node, u.link): ffun(u.q, y) for u in others}
    values.update(fvals)
    values[(rider.node, rider.link)] = z / rider.weight
    product = math.exp(_product_of([*uses, rider], values))
    return StructuredRelax(values, y, product, abs(used(c) - budget))


def solve_rider_feeders(uses: list[Use], terminal: Use, feeders: list[Use],
                        budget: float) -> StructuredRelax:
    """Feeder first hops ride under the terminal's own burst, splitting it.

    Budget covers `uses` (terminal's own included, feeder first hops
    excluded).  The feeders split capacity C = w_t * x_t optimally; the
    envelope multiplier mu of that split joins the terminal's stationarity:
    G(q_t, x_t) + mu = 1/y with z_f = F(q_f, 1/mu) and C = sum w_f z_f.
    Parametrizing on mu leaves a single bisection (budget decreasing in mu).
    """
    term_key = (terminal.node, terminal.link)
    others = [u for u in uses if (u.node, u.link) != term_key]

    def state(mu: float):
        zvals = {(f.node, f.link): ffun(f.q, 1.0 / mu) for f in feeders}
        x_t = max(sum(f.weight * zvals[(f.node, f.link)] for f in feeders)
                  / terminal.weight, 1e-300)
        y = 1.0 / (gfun(terminal.q, x_t) + mu)
        return zvals, x_t, y

    def used(mu: float) -> float:
        _, x_t, y = state(mu)
        return (sum(u.weight * ffun(u.q, y) for u in others)
                + terminal.weight * x_t)

    mu = _solve_increasing(lambda t: used(1.0 / t), budget,
                           what="rider-feeders budget")
    mu = 1.0 / mu
    zvals, x_t, y = state(mu)
    values = {(u.node, u.link): ffun(u.q, y) for u in others}
    values[term_key] = x_t
    values.update(zvals)
    product = math.exp(_product_of([*uses, *feeders], values))
    return StructuredRelax(values, y, product, abs(used(mu) - budget))
