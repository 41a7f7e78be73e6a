"""Monte Carlo validation: replay a timeline over Bernoulli-lossy links.

Each scheduled transmission succeeds independently with probability
1 - q_link.  A relay holds a packet only after a successful reception, and
a slot whose designated packet is not pending can optionally be reused for
the next pending packet of the same (transmitter, link) stream.  Trials are
vectorized with numpy; one uniform draw per scheduled transmission per trial
keeps reports bit-identical for a fixed seed in both reuse modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .timeline import Timeline, verify_timeline
from .topology import Topology, derive_conflicts

RNG_ALGORITHM = "numpy-PCG64"


class InvalidTimeline(Exception):
    pass


class NodeSetMismatch(Exception):
    pass


@dataclass
class SimReport:
    trials: int
    seed: int
    algorithm: str
    reuse: bool
    per_node: dict[int, float]   # fraction of trials delivering all of the node's packets
    all_rate: float              # fraction of trials delivering every packet
    per_node_counts: dict[int, int] = field(default_factory=dict)


@dataclass
class NodeComparison:
    node: int | str  # "all" for the every-packet rate
    empirical: float
    analytic: float
    sigma: float
    z: float
    ok: bool


def simulate(timeline: Timeline, topology: Topology, trials: int, seed: int,
             reuse: bool = False) -> SimReport:
    """Replay the timeline `trials` times; deterministic for a given seed."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    report = verify_timeline(timeline, derive_conflicts(topology),
                             timeline.cycle_slots)
    if not report.ok:
        v = report.first()
        raise InvalidTimeline(f"{v.kind} at slot {v.slot}: {v.detail}")

    units = sorted(timeline.units, key=lambda u: (u.slot, u.tx, u.link, u.origin, u.k))
    packets = sorted({(u.origin, u.k) for u in units})
    all_nodes = sorted(topology.rates)

    # per-(tx, link) stream order for slot reuse
    stream: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u in units:
        lst = stream.setdefault((u.tx, u.link), [])
        if (u.origin, u.k) not in lst:
            lst.append((u.origin, u.k))

    rng = np.random.default_rng(np.random.PCG64(seed))
    holds: dict[tuple[int, int, int], np.ndarray] = {}

    def held(node: int, packet: tuple[int, int]) -> np.ndarray:
        key = (node, packet[0], packet[1])
        if key not in holds:
            base = node == packet[0]
            holds[key] = np.full(trials, base, dtype=bool)
        return holds[key]

    for u in units:
        q = topology.links[u.link].loss
        draw = rng.random(trials) < (1.0 - q)
        rx = u.rx
        if not reuse:
            ok = held(u.tx, (u.origin, u.k)) & draw
            held(rx, (u.origin, u.k))
            holds[(rx, u.origin, u.k)] |= ok
            continue
        candidates = [(u.origin, u.k)] + [p for p in stream[(u.tx, u.link)]
                                          if p != (u.origin, u.k)]
        assigned = np.zeros(trials, dtype=bool)
        for i, packet in enumerate(candidates):
            if i == 0:
                # the designated packet keeps its slot whenever it is held
                claim = held(u.tx, packet)
            else:
                claim = held(u.tx, packet) & ~held(rx, packet) & ~assigned
            if not claim.any():
                continue
            ok = claim & draw
            held(rx, packet)
            holds[(rx, packet[0], packet[1])] |= ok
            assigned |= claim

    gateways = set(topology.gateways)
    delivered: dict[tuple[int, int], np.ndarray] = {}
    for origin, k in packets:
        got = np.zeros(trials, dtype=bool)
        for g in gateways:
            key = (g, origin, k)
            if key in holds:
                got |= holds[key]
        delivered[(origin, k)] = got

    per_node, per_counts = {}, {}
    all_ok = np.ones(trials, dtype=bool)
    for node in all_nodes:
        node_pkts = [p for p in packets if p[0] == node]
        if node_pkts:
            ok = np.ones(trials, dtype=bool)
            for p in node_pkts:
                ok &= delivered[p]
        else:
            ok = np.zeros(trials, dtype=bool)
        per_node[node] = float(ok.mean())
        per_counts[node] = int(ok.sum())
        all_ok &= ok

    return SimReport(trials=trials, seed=seed, algorithm=RNG_ALGORITHM,
                     reuse=reuse, per_node=per_node,
                     all_rate=float(all_ok.mean()), per_node_counts=per_counts)


THREE_SIGMA_TAIL = 0.00135  # one-sided normal tail beyond 3 sigma
NORMAL_MIN = 10.0  # trials * p * (1 - p) from which the normal test holds


def _rate_check(node, empirical: float, p: float, trials: int) -> NodeComparison:
    """Is a rate over `trials` Bernoulli runs within 3 sigma of p?  Where
    trials * p * (1 - p) < NORMAL_MIN the normal approximation fails (at
    p = 1 - 5e-7 one miss in 1e5 trials reads as z = -4.5), so there the
    count of the rarer outcome is tested against its Poisson tail at the
    same one-sided level; sigma and z are reported either way."""
    sigma = (p * (1.0 - p) / trials) ** 0.5
    if sigma == 0.0:
        z = 0.0 if empirical == p else float("inf")
    else:
        z = (empirical - p) / sigma
    if trials * p * (1.0 - p) >= NORMAL_MIN:
        return NodeComparison(node, empirical, p, sigma, z, abs(z) <= 3.0)
    lam = trials * min(p, 1.0 - p)
    k = round(trials * (empirical if p <= 0.5 else 1.0 - empirical))
    if lam == 0.0:
        return NodeComparison(node, empirical, p, sigma, z, k == 0)

    def pmf(i: int) -> float:
        return math.exp(i * math.log(lam) - lam - math.lgamma(i + 1))

    below = sum(map(pmf, range(k + 1)))  # P(X <= k)
    ok = below >= THREE_SIGMA_TAIL and 1.0 - below + pmf(k) >= THREE_SIGMA_TAIL
    return NodeComparison(node, empirical, p, sigma, z, ok)


def compare(report: SimReport, analytic: dict[int, float]) -> list[NodeComparison]:
    """Check each node's empirical rate against its analytic delivery
    probability at 3 sigma (`_rate_check`)."""
    if set(report.per_node) != set(analytic):
        raise NodeSetMismatch(
            f"nodes {sorted(report.per_node)} vs analytic {sorted(analytic)}")
    return [_rate_check(node, report.per_node[node], analytic[node], report.trials)
            for node in sorted(analytic)]
