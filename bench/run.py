"""yslot benchmark: one seeded workload, closed loop, one client.

    python3 bench/run.py --workload paper8 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
`src/`).  The run generates its inputs from the seed, times set-up in
fresh interpreters, then runs the workload's rounds of operations back to
back, each starting when the previous one ends, until `--seconds` have
passed at a round boundary and every round has run at least once.  Every
operation's output is checked outside the timed region; an operation that
raises or fails its check is failed and counts as +inf latency.

`attempted` and `failed` in the result line count the distinct operations
of the seed's inputs, each failed if any of its runs failed.  Every run
covers all of them, and a rerun of an operation must give the same output,
so both counts are fixed by the seed; the repeats beyond the first run of
each operation are further timing samples (the report counts them as
`executions` and `failed_executions`).

End-to-end metrics (`--trace 0`):
- setup_s: median over SETUP_PROBES fresh interpreters of `import yslot`
  plus the workload's set-up (`workloads.setup`), run one at a time
  between operations and spread over the measured window (`SetupProbes`).
- latency_p50_rel: median over all operations of latency divided by the
  time of a fixed pure-Python reference loop run right before and after
  that operation (`reference_time`); failures count as +inf.  It follows
  latency_p50_ms but cancels the shared machine's CPU-speed swings.
- peak_rss_mb: ru_maxrss of this process after set-up and the first
  BLOCK_OPS operations.
The report line adds latency_p50_ms (the same median in wall-clock ms),
reference_ms and failed_ratio everywhere, and latency_tail_ms (the
highest percentile with at least TAIL_BEYOND operations beyond it),
solutions_per_s and sim_tx_per_s where REPORTED_ON lists them.

With `--trace 1` the benchmark wraps yslot's public functions (see
`spans.py`), times every round both untraced and traced, writes the spans
to `.bench_out/`, and reports per-layer metrics for set-up plus the first
traced block of BLOCK_OPS operations.

Standard output ends with two JSON lines: the report (environment, output
digest, metrics with units), then the result object {"correct",
"attempted", "failed", "metrics"}.  `correct` is false when any operation
failed its output check; operations that raise count as failed only.
"""
from __future__ import annotations

import os

# pinned before numpy can be imported: one process, one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PROBES = 9
BLOCK_OPS = 64
TAIL_BEYOND = 10
REF_LOOP = 6000  # about 1-2 ms
SAMPLE_EVERY = 0.2  # s between reference samples during untraced rounds
# end-to-end metrics in the result line (every workload) ...
GATED = ("setup_s", "latency_p50_rel", "peak_rss_mb")
# ... and those the report adds where they mean something: longframe gets no
# solutions_per_s, since fixing a cheap failure into a slower success would
# read as a slowdown there
REPORTED_ON = {
    "paper8": ("solutions_per_s", "latency_tail_ms"),
    "ladder": ("solutions_per_s",),
    "longframe": ("latency_tail_ms",),
    "montecarlo": ("sim_tx_per_s", "latency_tail_ms"),
}


@dataclass
class Tally:
    """Closed-loop results of one pass kind (timed, or traced)."""

    latencies: list[float] = field(default_factory=list)  # s, inf = failed
    relative: list[float] = field(default_factory=list)   # latency / reference
    reference: list[float] = field(default_factory=list)  # s, per operation
    op_time: float = 0.0
    solutions: int = 0
    tx: int = 0
    raised: dict[str, int] = field(default_factory=dict)
    check_failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(1 for x in self.latencies if x == math.inf)


class Loop:
    """Runs operations, checks their outputs and keeps the tallies."""

    def __init__(self, recorder=None, sampler=None):
        self.recorder = recorder
        self.sampler = sampler or SpeedSampler()
        self.first_hash: dict[str, str] = {}  # sha256 of each op's first output
        self.op_failed: dict[str, bool] = {}  # op name -> any run failed
        self.digest_parts: list[str] = []
        self._digested: set[str] = set()

    def run(self, op, tally: Tally, traced: bool = False) -> None:
        sampler = self.sampler
        before = sampler.reference()
        busy, seen = sampler.busy, len(sampler.samples)
        start = time.perf_counter()
        try:
            out = self._call(op, traced)
            raised = None
        except Exception as exc:  # any raise is a failed operation
            raised = exc
        # time the sampler's signal handler spent inside the op is not the op's
        elapsed = time.perf_counter() - start - (sampler.busy - busy)
        during = sampler.samples[seen:]
        ref = statistics.fmean([before, sampler.reference()] + during)
        tally.op_time += elapsed
        tally.reference.append(ref)
        self.op_failed.setdefault(op.name, False)
        if raised is not None:
            self._fail(tally, op.name)
            kind = type(raised).__name__
            tally.raised[kind] = tally.raised.get(kind, 0) + 1
            self._record(op.name, f"FAILED {kind}")
            return
        try:
            outcome = op.inspect(out)
            problems = list(outcome.problems)
        except Exception as exc:  # a check that cannot read the output
            outcome, problems = None, [f"check raised {exc!r}"]
        if outcome is not None:
            text_hash = hashlib.sha256(outcome.text.encode()).hexdigest()
            if self.first_hash.setdefault(op.name, text_hash) != text_hash:
                problems.append("output differs from an earlier run of this op")
            self._record(op.name, text_hash)
        if problems:
            self._fail(tally, op.name)
            tally.check_failures += [f"{op.name}: {p}" for p in problems[:3]]
            return
        tally.latencies.append(elapsed)
        tally.relative.append(elapsed / ref)
        tally.solutions += outcome.solutions
        tally.tx += outcome.tx

    def _fail(self, tally: Tally, name: str) -> None:
        self.op_failed[name] = True
        tally.latencies.append(math.inf)
        tally.relative.append(math.inf)

    @property
    def attempted_ops(self) -> int:
        return len(self.op_failed)

    @property
    def failed_ops(self) -> int:
        return sum(self.op_failed.values())

    def _call(self, op, traced: bool):
        if not traced:
            return op.call()
        rec = self.recorder
        with rec.span("bench.op"):
            rec.active = True
            try:
                return op.call()
            finally:
                rec.active = False

    def _record(self, name: str, result: str) -> None:
        """Digest the first result of each of the first BLOCK_OPS ops."""
        if name not in self._digested and len(self.digest_parts) < BLOCK_OPS:
            self._digested.add(name)
            self.digest_parts.append(f"{name}\n{result}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in self.digest_parts:
            h.update(part.encode())
            h.update(b"\0")
        return h.hexdigest()


def reference_time() -> float:
    """Seconds taken by a fixed pure-Python loop that never touches yslot.

    It runs right before and right after every operation, and every
    SAMPLE_EVERY seconds during untraced rounds.  On a shared 2-vCPU Xeon
    VM the CPU speed swings by about 20% over tens of seconds; latency
    divided by the reference time cancels most of that swing: on identical
    paper8 work there, raw medians spread by about +-17% between runs,
    relative ones by about +-4%.
    """
    start = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(REF_LOOP):
        key = (i * 7) % 101
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key] ** 0.5
    return time.perf_counter() - start


class SpeedSampler:
    """Samples reference_time() every SAMPLE_EVERY seconds from SIGALRM
    while active, so that operations lasting seconds are normalized by the
    machine speed during them, not only at their ends."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0  # seconds spent in the handler
        self._previous = None

    def reference(self) -> float:
        """reference_time() without any handler run that interrupted it."""
        busy = self.busy
        elapsed = reference_time()
        return elapsed - (self.busy - busy)

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_time())
        self.busy += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    @contextlib.contextmanager
    def stopped(self):
        """No samples while a child process runs beside this one."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_summary(latencies: list[float]) -> dict:
    """Median, and the highest percentile with >= 10 operations beyond it."""
    data = sorted(latencies)
    out = {"p50_ms": statistics.median(data) * 1e3, "samples": len(data),
           "tail_ms": None, "tail_percentile": None}
    if len(data) > TAIL_BEYOND:
        k = len(data) - TAIL_BEYOND
        out["tail_ms"] = data[k - 1] * 1e3
        out["tail_percentile"] = 100.0 * k / len(data)
    return out


def git_commit(root: Path) -> str | None:
    """HEAD of a checkout's own .git, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    src = hashlib.sha256()
    for path in sorted((SRC / "yslot").rglob("*")):
        if path.suffix in (".py", ".json"):
            src.update(path.relative_to(SRC).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "src_sha256": src.hexdigest(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "processes": 1,
    }


def child(argv: list[str], stdin: str = "") -> str:
    """Run bench/probe.py in a fresh interpreter; return its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(BENCH_DIR), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py")] + argv,
                          input=stdin, capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"probe.py {argv[0]} failed:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


class SetupProbes:
    """Set-up time of a fresh interpreter, measured SETUP_PROBES times.

    One probe is due every `seconds / SETUP_PROBES` of measured time and
    runs at the next operation boundary, so the median samples the same
    stretch of the shared machine as the operations do; probes that long
    operations leave undone run after the loop.  The time spent probing
    is kept out of the measured window.
    """

    def __init__(self, spec: dict, seconds: float):
        self.payload = json.dumps(spec)
        self.every = seconds / SETUP_PROBES
        self.times: list[float] = []
        self.spent = 0.0

    def due(self, measured: float) -> bool:
        return len(self.times) < SETUP_PROBES \
            and measured >= len(self.times) * self.every

    def take(self) -> None:
        start = time.perf_counter()
        self.times.append(json.loads(child(["setup"], self.payload))["setup_s"])
        self.spent += time.perf_counter() - start

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.take()
        return self.times


def _finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return value


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "slots" if name == "relax.max_residual" else "count"


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, spans, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, spans, workloads, workdir: Path) -> int:
    spec = json.loads(child(["inputs", args.workload, str(args.seed),
                             str(workdir.relative_to(ROOT))]))
    traced = bool(args.trace)

    recorder = spans.Recorder() if traced else None
    if traced:
        with recorder.installed(), recorder.span("bench.setup"):
            recorder.active = True
            try:
                op_rounds = workloads.setup(spec)
            finally:
                recorder.active = False
    else:
        op_rounds = workloads.setup(spec)

    loop = Loop(recorder)
    timed, traced_tally = Tally(), Tally()
    # Figures that must repeat for a seed rest on a fixed block of work: the
    # per-layer metrics (first traced block) and memory (first untraced
    # block).  yslot keeps a process-wide lru_cache whose table grows in
    # steps, so a time-bounded amount of work would make memory a step
    # function of machine speed.
    block_ops = min(sum(len(r) for r in op_rounds), BLOCK_OPS)
    trace_cut = rss_mb = None
    probes = None if traced else SetupProbes(spec, args.seconds)
    start = time.perf_counter()
    rounds = 0
    # the speed sampler's signal handler would land inside traced spans
    with contextlib.nullcontext() if traced else loop.sampler:
        while True:
            rnd = op_rounds[rounds % len(op_rounds)]
            # traced runs time each round both ways, alternating which goes first
            passes = [False] if not traced else ([False, True] if rounds % 2 == 0
                                                 else [True, False])
            for with_trace in passes:
                for op in rnd:
                    if probes and probes.due(time.perf_counter() - start - probes.spent):
                        with loop.sampler.stopped():
                            probes.take()
                    if with_trace:
                        with recorder.installed():
                            loop.run(op, traced_tally, traced=True)
                    else:
                        loop.run(op, timed)
            rounds += 1
            if traced and trace_cut is None and traced_tally.attempted >= block_ops:
                trace_cut = len(recorder.spans)
            if rss_mb is None and timed.attempted >= block_ops:
                rss_mb = peak_rss_mb()
            blocks_done = rss_mb is not None and (trace_cut is not None or not traced)
            covered = rounds >= len(op_rounds)
            window = time.perf_counter() - start - (probes.spent if probes else 0.0)
            if blocks_done and covered and window >= args.seconds:
                break
    wall = time.perf_counter() - start
    setup_times = probes.finish() if probes else []
    attempted, failed = loop.attempted_ops, loop.failed_ops
    check_failures = timed.check_failures + traced_tally.check_failures
    lat = percentile_summary(timed.latencies)
    measured = {
        "latency_p50_rel": (statistics.median(timed.relative), "x_ref"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "reference_ms": (statistics.median(timed.reference) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "failed_ratio": (failed / attempted, "ratio"),
        "solutions_per_s": (timed.solutions / timed.op_time, "1/s"),
        "sim_tx_per_s": (timed.tx / timed.op_time, "1/s"),
        "latency_tail_ms": (lat["tail_ms"], "ms"),
    }
    if not traced:
        measured["setup_s"] = (statistics.median(setup_times), "s")
    shown = GATED + ("latency_p50_ms", "reference_ms", "failed_ratio") \
        + REPORTED_ON[args.workload]
    metrics = {name: {"value": v, "unit": unit}
               for name, (v, unit) in measured.items() if name in shown}
    if "latency_tail_ms" in metrics:
        metrics["latency_tail_ms"].update(percentile=lat["tail_percentile"],
                                          samples=lat["samples"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "loop": "closed, 1 client", "rounds": rounds, "wall_s": wall,
        "setup_probe_s": probes.spent if probes else 0.0,
        "attempted": attempted, "failed": failed,
        "executions": timed.attempted + traced_tally.attempted,
        "failed_executions": timed.failed + traced_tally.failed,
        "raised": {k: timed.raised.get(k, 0) + traced_tally.raised.get(k, 0)
                   for k in set(timed.raised) | set(traced_tally.raised)},
        "check_failures": check_failures[:20],
        "digest_sha256": loop.digest(), "digest_ops": len(loop.digest_parts),
        "setup_s_samples": setup_times,
        "peak_rss_after_ops": block_ops,
        "metrics": metrics,
    }

    if traced:
        block = recorder.spans[:trace_cut]
        layers = spans.layer_metrics(block)
        layers["trace.overhead_ratio"] = traced_tally.op_time / timed.op_time
        layers["bench.traced_ops"] = sum(1 for s in block if s.name == "bench.op")
        report["trace_accounting"] = {
            "spans": len(block),
            "root_s": sum(s.end - s.start for s in block if s.parent is None),
            "self_sum_s": sum(spans.self_times(block)),
            "traced_op_s": traced_tally.op_time,
            "untraced_op_s": timed.op_time,
        }
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(recorder.to_json()))
        result_metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                          for k, v in sorted(layers.items())}
    else:
        result_metrics = {k: metrics[k] for k in GATED}

    print(json.dumps({"report": _finite(report)}))
    print(json.dumps({"correct": not check_failures, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(REPORTED_ON))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "yslot" / "__init__.py").is_file():
        print(f"error: no yslot sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
