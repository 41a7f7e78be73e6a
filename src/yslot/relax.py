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
Uses that share a link share its loss, so each evaluation takes F once
per distinct loss, and the product log(1 - q^v) once per distinct (q, v);
the sums still add w * F per use in use order, so every float is the one
a per-use evaluation gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType


class DomainError(ValueError):
    """Slot budget outside the relaxed solver's domain (it must be > 0)."""


class ConvergenceError(RuntimeError):
    """Adjunct-variable root finding failed to reach tolerance."""


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
    values: MappingProxyType[tuple[int, int], float]   # budget AND rider uses
    product: float
    residual: float


def log1m_pow(q: float, v: float) -> float:
    """log(1 - q^v); -inf at v <= 0.  log1p(-q^v) while q^v < 0.999; nearer
    1, where rounding q^v would cancel, log(-expm1(v log q)); and where
    v log q underflows below the smallest normal float, log v + log(-log q),
    so the sum stays finite and keeps its digits (M. Maechler, "Accurately
    Computing log(1 - exp(-|a|))", 2012)."""
    if v <= 0:
        return -math.inf
    p = q ** v
    if p < 0.999:
        return math.log1p(-p)
    a = v * math.log(q)
    if a < -2.0 ** -1022:    # not below the smallest normal float
        return math.log(-math.expm1(a))
    return math.log(v) + math.log(-math.log(q))


_T_CAP = 2.0 ** 40   # bracket widening stops here, far beyond any root
TOL = 1e-9           # residual bound of a relaxed solve


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


def _terms(uses: list[Use]) -> tuple[list[tuple[float, float]], list[tuple[int, int]]]:
    """Constants of a solve: (c, log c) with c = -log q once per distinct
    loss, and per use, in use order, (weight, index of its loss)."""
    index: dict[float, int] = {}
    losses = []
    for u in uses:
        if u.q not in index:
            index[u.q] = len(losses)
            losses.append((c := -math.log(u.q), math.log(c)))
    return losses, [(u.weight, index[u.q]) for u in uses]


def _f_log(c: float, log_c: float, s: float) -> tuple[float, float]:
    """F(q, e^s) = softplus(s + log c) / c with c = -log q, and its
    derivative in s."""
    z = s + log_c
    e = math.exp(-abs(z))
    return ((max(z, 0.0) + math.log1p(e)) / c,
            (1.0 if z > 0.0 else e) / ((1.0 + e) * c))


def _load(terms, s: float) -> tuple[float, float]:
    """Budget used, sum of w * F(q, e^s) in use order, and its derivative
    in s; F is taken once per distinct loss."""
    losses, weights = terms
    fs = [_f_log(c, log_c, s) for c, log_c in losses]
    total = slope = 0.0
    for w, i in weights:
        f, df = fs[i]
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
    if budget <= 0.0:
        raise DomainError(f"budget {budget} must be > 0")
    tied = [*inner, coupled] if coupled is not None else []
    tied_keys = {(u.node, u.link) for u in tied}
    others = [u for u in uses if (u.node, u.link) not in tied_keys]
    inner_terms, other_terms = _terms(inner), _terms(others)
    if coupled is not None:
        c = -math.log(coupled.q)
        log_c = math.log(c)

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
    cs = [(w, *losses[i]) for losses, weights in (other_terms, inner_terms)
          for w, i in weights]
    start = ((budget - sum(w * lc / cu for w, cu, lc in cs))
             / sum(w / cu for w, cu, _lc in cs))
    t = _solve_log(load, budget, start, what)
    _, _, x, log_y = load(t)
    values = {}
    for part, (losses, weights), s in ((others, other_terms, log_y),
                                       (inner, inner_terms, t)):
        fs = [_f_log(cu, lcu, s)[0] for cu, lcu in losses]
        values.update(((u.node, u.link), fs[i]) for u, (_w, i) in zip(part, weights))
    if coupled is not None:
        values[(coupled.node, coupled.link)] = x
    residual = abs(sum(u.weight * values[(u.node, u.link)] for u in uses) - budget)
    if residual > TOL:
        raise ConvergenceError(f"{what} residual {residual:.3e} above tolerance")
    # log(1 - q^v) once per distinct (q, v), summed per use in use order
    use_keys = {(u.node, u.link) for u in uses}
    every = [*uses, *(u for u in tied if (u.node, u.link) not in use_keys)]
    powers = [(u.q, values[(u.node, u.link)]) for u in every]
    logs = {qv: log1m_pow(*qv) for qv in set(powers)}
    log_m = sum(u.weight * logs[qv] for u, qv in zip(every, powers))
    return StructuredRelax(MappingProxyType(values), math.exp(log_m), residual)


def solve_plain_structure(uses: list[Use], budget: float) -> StructuredRelax:
    """Relaxed optimum of serialized budget uses: every use gets F(q, y) for
    one adjunct y, and the budget is met."""
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
