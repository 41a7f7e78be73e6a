"""Span recording around yslot's public functions, for the traced run.

The benchmark patches each wrapped function in every yslot module that
holds a reference to it (the defining module, importers such as
`yslot.allocate`, and the package namespace), records one span per call,
and restores the originals afterwards.  Spans stay in memory until the run
ends.  Nothing here is installed during timed runs.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, function) pairs wrapped in the traced run; the span name is
# "<layer>.<function>" with the layer taken from the module name.
TARGETS = (
    ("topology", "load_config"),
    ("topology", "validate_topology"),
    ("topology", "derive_conflicts"),
    ("pathmodel", "enumerate_path_models"),
    ("pathmodel", "find_model"),
    ("pathmodel", "patterns_for"),
    ("relax", "solve_plain_structure"),
    ("relax", "solve_rider_terminal"),
    ("relax", "solve_rider_feeders"),
    ("allocate", "optimize"),
    ("allocate", "solve_pattern"),
    ("allocate", "solution_timeline"),
    ("allocate", "candidate_structures"),
    ("allocate", "assign_early_slots"),
    ("timeline", "place_plans"),
    ("timeline", "build_timeline"),
    ("timeline", "verify_timeline"),
    ("simulate", "simulate"),
    ("simulate", "compare"),
    ("cli", "main"),
)

RELAX_SOLVERS = ("relax.solve_plain_structure", "relax.solve_rider_terminal",
                 "relax.solve_rider_feeders")
LAYERS = ("topology", "pathmodel", "relax", "allocate", "timeline",
          "simulate", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counts read off a call's arguments or result."""
    if name in RELAX_SOLVERS:
        return {"residual": result.residual}
    if name == "allocate.candidate_structures":
        return {"structures": len(result)}
    if name == "timeline.place_plans":
        return {"units": len(result)}
    if name == "timeline.verify_timeline":
        timeline = args[0] if args else kwargs["timeline"]
        return {"units": len(timeline.units)}
    if name == "simulate.simulate":
        timeline = args[0] if args else kwargs["timeline"]
        reuse = args[4] if len(args) > 4 else kwargs.get("reuse", False)
        return {"tx": result.trials * len(timeline.units), "reuse": bool(reuse)}
    if name == "allocate.solve_pattern":
        return {"solutions": 1}
    if name == "allocate.optimize":
        return {"solutions": len(result)}
    return {}


class Recorder:
    """In-memory span list with a parent stack (single thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.active = False

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, error: str | None = None,
            attrs: dict | None = None) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.error = error
        if attrs:
            span.attrs.update(attrs)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        except BaseException as exc:
            self.end(index, error=type(exc).__name__)
            raise
        self.end(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(index, error=type(exc).__name__)
                raise
            self.end(index, attrs=_attrs(name, args, kwargs, result))
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every TARGETS function wherever a yslot module refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "yslot" or n.startswith("yslot."))]
        patched: list[tuple[object, str, object]] = []
        try:
            for mod_name, fn_name in TARGETS:
                original = getattr(sys.modules[f"yslot.{mod_name}"], fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "error": s.error, **s.attrs}
                for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread), so the covered part is
    the sum of their durations.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counters and times from a finished span list."""
    selfs = self_times(spans)
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m["bench.self_s"] = 0.0
    names = ("topology.validate_s", "topology.derive_conflicts_calls",
             "topology.derive_conflicts_s", "pathmodel.patterns_for_calls",
             "relax.solves", "relax.failures", "relax.max_residual",
             "allocate.structures", "allocate.early_slots_s",
             "allocate.solutions", "timeline.place_calls",
             "timeline.units_placed", "timeline.place_s",
             "timeline.verify_calls", "timeline.units_verified",
             "timeline.verify_s", "simulate.dedicated_s", "simulate.reuse_s",
             "simulate.tx", "simulate.compare_s")
    m.update({n: 0.0 for n in names})
    for s, own in zip(spans, selfs):
        m[f"{s.layer}.self_s"] = m.get(f"{s.layer}.self_s", 0.0) + own
        dur = s.end - s.start
        if s.name == "topology.validate_topology":
            m["topology.validate_s"] += dur
        elif s.name == "topology.derive_conflicts":
            m["topology.derive_conflicts_calls"] += 1
            m["topology.derive_conflicts_s"] += dur
        elif s.name == "pathmodel.patterns_for":
            m["pathmodel.patterns_for_calls"] += 1
        elif s.name in RELAX_SOLVERS:
            m["relax.solves"] += 1
            if s.error is not None:
                m["relax.failures"] += 1
            else:
                m["relax.max_residual"] = max(m["relax.max_residual"],
                                              s.attrs["residual"])
        elif s.name == "allocate.candidate_structures" and s.error is None:
            m["allocate.structures"] += s.attrs["structures"]
        elif s.name == "allocate.assign_early_slots":
            m["allocate.early_slots_s"] += dur
        elif s.name == "timeline.place_plans":
            m["timeline.place_calls"] += 1
            m["timeline.place_s"] += dur
            m["timeline.units_placed"] += s.attrs.get("units", 0)
        elif s.name == "timeline.verify_timeline":
            m["timeline.verify_calls"] += 1
            m["timeline.verify_s"] += dur
            m["timeline.units_verified"] += s.attrs.get("units", 0)
        elif s.name == "simulate.simulate" and s.error is None:
            mode = "reuse" if s.attrs["reuse"] else "dedicated"
            m[f"simulate.{mode}_s"] += dur
            m["simulate.tx"] += s.attrs["tx"]
        elif s.name == "simulate.compare":
            m["simulate.compare_s"] += dur
        # solutions come from the outermost solver call only: optimize
        # reports its whole list, solve_pattern counts when called directly
        if s.name in ("allocate.optimize", "allocate.solve_pattern") \
                and s.error is None and not _inside(spans, s, "allocate.optimize"):
            m["allocate.solutions"] += s.attrs["solutions"]
    solves = m["relax.solves"]
    m["relax.useful_ratio"] = 3 * m["allocate.solutions"] / solves if solves else 0.0
    return m


def _inside(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
