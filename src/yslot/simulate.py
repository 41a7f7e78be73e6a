"""Monte Carlo validation: replay a timeline over Bernoulli-lossy links.

Each scheduled transmission succeeds independently with probability
1 - q_link.  A relay holds a packet only after a successful reception, and
a slot whose designated packet is not pending can optionally be reused for
the next pending packet of the same (transmitter, link) stream.  Trials are
vectorized with numpy; one uniform draw per scheduled transmission per trial
keeps reports bit-identical for a fixed seed in both reuse modes.  Time grows
with trials times units; memory with 9 bytes per trial of draw buffers plus
one bit per trial for each held (node, packet) flag.  numpy is imported on
the first `simulate` call, so solving alone never loads it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .timeline import Timeline, verify_timeline
from .topology import Topology, _int, derive_conflicts

RNG_ALGORITHM = "numpy-PCG64"
# work grows with trials times units (each unit draws `trials` floats);
# memory with 9 bytes per trial of draw buffers plus one bit per trial for
# each held (node, packet) flag
MAX_TRIALS = 1_000_000


class NodeSetMismatch(Exception):
    pass


class SimReport(NamedTuple):
    trials: int
    seed: int
    algorithm: str
    reuse: bool
    per_node_counts: dict[int, int]  # trials delivering all of the node's packets
    all_rate: float                  # fraction of trials delivering every packet

    @property
    def per_node(self) -> dict[int, float]:
        """Fraction of trials delivering all of the node's packets."""
        return {n: c / self.trials for n, c in self.per_node_counts.items()}


class NodeComparison(NamedTuple):
    node: int | str  # "all" for the every-packet rate
    empirical: float
    analytic: float
    sigma: float
    z: float
    ok: bool


def simulate(timeline: Timeline, topology: Topology, trials: int, seed: int,
             reuse: bool = False) -> SimReport:
    """Replay the timeline `trials` times; deterministic for a given seed.
    `trials` and `seed` are read by the config's integer rule and `reuse`
    must be a bool; all three are checked, with ValueError, before the
    timeline; an invalid timeline raises as in `build_timeline`."""
    trials, seed = _int(trials, "trials", ValueError), _int(seed, "seed", ValueError)
    if not isinstance(reuse, bool):
        raise ValueError(f"reuse {reuse!r} is not a bool")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials {trials} is above the cap of {MAX_TRIALS}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    verify_timeline(timeline, derive_conflicts(topology),
                    timeline.cycle_slots).raise_first()
    import numpy as np

    units = sorted(timeline.units, key=lambda u: (u.start, u.tx, u.link, u.origin, u.k))

    # per-(tx, link) stream order for slot reuse
    stream: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u in units if reuse else ():
        lst = stream.setdefault((u.tx, u.link), [])
        if (u.origin, u.k) not in lst:
            lst.append((u.origin, u.k))

    rng = np.random.default_rng(np.random.PCG64(seed))
    # one draw buffer per call, refilled per unit: the same stream as
    # `rng.random(trials)`, without two fresh trials-long arrays per unit
    uniforms = np.empty(trials)
    draw = np.empty(trials, dtype=bool)
    # each flag holds one bit per trial, 8 trials a byte in `np.packbits`
    # order; the pad bits past `trials` stay 0
    every = np.packbits(np.ones(trials, dtype=bool))
    missed = np.zeros_like(every)
    holds: dict[tuple[int, int, int], np.ndarray] = {}

    def held(node: int, packet: tuple[int, int]) -> np.ndarray:
        key = (node, packet[0], packet[1])
        if key not in holds:
            holds[key] = (every if node == packet[0] else missed).copy()
        return holds[key]

    for u in units:
        q = topology.links[u.link].loss
        rng.random(out=uniforms)
        np.less(uniforms, 1.0 - q, out=draw)
        bits = np.packbits(draw)
        rx, designated = u.rx, (u.origin, u.k)
        # the designated packet keeps its slot whenever the sender holds it
        assigned = held(u.tx, designated)
        held(rx, designated)[...] |= assigned & bits
        if not reuse:
            continue
        for packet in stream[(u.tx, u.link)]:
            if packet == designated:
                continue
            claim = held(u.tx, packet) & ~held(rx, packet) & ~assigned
            if not claim.any():
                continue
            held(rx, packet)[...] |= claim & bits
            assigned = assigned | claim

    # a node delivers when each of its packets, scheduled or not, reached
    # some gateway
    counts, all_ok = {}, every.copy()
    for node, rate in sorted(topology.rates.items()):
        ok = every.copy()
        for k in range(1, rate + 1):
            ok &= np.bitwise_or.reduce(
                [holds.get((g, node, k), missed) for g in topology.gateways])
        counts[node] = int(np.unpackbits(ok).sum())
        all_ok &= ok

    return SimReport(trials, seed, RNG_ALGORITHM, reuse, counts,
                     int(np.unpackbits(all_ok).sum()) / trials)


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
    rates = report.per_node
    if set(rates) != set(analytic):
        raise NodeSetMismatch(f"nodes {sorted(rates)} vs analytic {sorted(analytic)}")
    return [_rate_check(node, rates[node], analytic[node], report.trials)
            for node in sorted(analytic)]
