#!/usr/bin/env python3
"""Layered exact-inference benchmark for psolve.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client in one process replays the workload's fixed query
list in rounds until S seconds have passed.  Every answer is compared
exactly with an independent reference after the timed rounds.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines above it print the same figures, and
the raw clock readings, for a reader.

Times are reported at a reference machine speed.  A fixed pure-Python
kernel (`speed_kernel`) is timed around every query and, from a timer
signal, every TICK_S seconds during it; its time over its reference
time is the machine's slowdown, and each query's time, less the
kernel's, is divided by the mean slowdown sampled across it.  On a
shared machine whose speed swings by 2x within seconds, this keeps the
figures comparable between runs; on the quiet reference machine they
equal the clock readings.  The raw clock readings are printed too.

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end").  With --trace 1, rounds alternate between untraced and
traced; the traced rounds give each layer's self time and size counters
("per_layer"), and the ratio of the two round times is the tracing
overhead.  Counts are those of the first traced round, which always
follows exactly one untraced round, so they repeat from run to run.

`setup_s` is the median of several fresh interpreter processes, each
timing `import psolve` plus generating and loading the workload's inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
TAIL_BEYOND = 10

# The speed kernel's time on the reference machine: 2 vCPUs at 2.0 GHz,
# Python 3.11, at its fastest.
KERNEL_REF_S = 0.000625
TICK_S = 0.02

# per-layer time metric -> span name whose self time it reports
LAYER_TIMES = {
    "moments.expectation_s": "moments.expectation",
    "moments.substitute_s": "moments.substitute",
    "moments.self_s": "moments",
    "symbolic.reduce_s": "symbolic.reduce",
    "recurrence.solve_s": "recurrence.solve",
    "recurrence.verify_s": "recurrence.verify",
    "moments.check_s": "moments.check",
    "encode.compile_s": "encode.compile",
    "queries.filter_s": "queries.filter",
    "queries.self_s": "queries",
    "exppoly.limit_s": "exppoly.limit",
    "bayesnet.load_s": "bayesnet.load",
    "parser.parse_s": "parser.parse",
    "cli.self_s": "cli",
    "oracle.enumerate_s": "oracle.enumerate",
    "oracle.check_s": "oracle.check",
}
LAYER_COUNTS = (
    "moments.body_terms_peak", "moments.body_terms_total",
    "symbolic.reduce_calls", "symbolic.degree_in_calls",
    "recurrence.solve_calls", "moments.closure_size", "moments.max_degree",
    "encode.compile_calls", "encode.program_vars", "moments.engines",
    "moments.compute_mbis_calls", "queries.filter_terms_peak",
)


def speed_kernel() -> float:
    """Seconds taken by a fixed piece of Fraction-and-dict work, the kind
    of work psolve spends its time on.  The cyclic garbage collector is
    off meanwhile: the kernel makes no cycles, and a collection of the
    workload's heap would be charged to the machine."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict[int, Fraction] = {}
        for i in range(250):
            acc[i % 37] = acc.get(i % 37, Fraction(0)) + Fraction(i % 13 + 1, i % 7 + 2)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Speed:
    """The machine's slowdown against the reference machine: kernel time
    over KERNEL_REF_S, sampled at the boundaries of the timed segments and,
    inside untraced segments, every TICK_S seconds from a timer signal."""

    def __init__(self):
        self.samples: list[float] = []
        self.kernel_s = 0.0  # time spent in the kernel, to leave out of segments

    def sample(self, runs: int = 2) -> float:
        """The kernel is only ever slowed by interruptions, so the fastest of
        a few runs is the best reading."""
        times = [speed_kernel() for _ in range(runs)]
        self.kernel_s += sum(times)
        self.samples.append(min(times) / KERNEL_REF_S)
        return self.samples[-1]

    @contextlib.contextmanager
    def ticking(self):
        signal.signal(signal.SIGALRM, lambda *_: self.sample(runs=1))
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def import_psolve():
    """Import psolve from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import psolve

    if Path(psolve.__file__).resolve().parent != SRC / "psolve":
        raise ImportError(f"psolve resolved to {psolve.__file__}, not {SRC}")
    return psolve


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """One set-up in this (fresh) process, import plus generating and
    loading the inputs: (raw seconds, seconds at reference speed)."""
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    def setup():
        import_psolve()
        WORKLOADS[workload](seed).load()

    rnd = Round(Speed(), ticks=True)
    error, ref = rnd.time(setup)
    if error is not None:
        raise error
    return rnd.raw, ref


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        raw, ref = proc.stdout.split()[-2:]
        out.append((float(raw), float(ref)))
    return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


class Round:
    """Times of one round, raw and at reference speed.  Each timed segment
    leaves out the kernel's own time and is divided by the mean slowdown
    sampled from just before it to just after it: the machine flips
    between a fast and a slow state within a fraction of a second, and
    evenly spaced samples average over the states a segment went through."""

    def __init__(self, speed: Speed, ticks: bool):
        self.speed = speed
        self.ticks = ticks
        self.raw = 0.0
        self.ref = 0.0
        self.slowdowns: list[float] = []
        speed.sample()

    def time(self, fn):
        """Run fn as one timed segment: (its result or exception, seconds at
        reference speed)."""
        speed = self.speed
        first, kernel_s = len(speed.samples) - 1, speed.kernel_s
        start = time.perf_counter()
        try:
            with speed.ticking() if self.ticks else contextlib.nullcontext():
                result = fn()
        except Exception as exc:  # a failed query is counted, not fatal
            result = exc
        seconds = time.perf_counter() - start - (speed.kernel_s - kernel_s)
        speed.sample()
        slowdown = statistics.fmean(speed.samples[first:])
        self.raw += seconds
        self.ref += seconds / slowdown
        self.slowdowns.append(slowdown)
        return result, seconds / slowdown


class Run:
    """The timed rounds of one workload and everything they produced."""

    def __init__(self, wl, trace: bool):
        self.wl = wl
        self.trace = trace
        self.speed = Speed()
        # query label -> latencies at reference speed
        self.latencies: dict[str, list[float]] = {q.label: [] for q in wl.queries}
        self.rounds: dict[bool, list[Round]] = {False: [], True: []}  # by traced
        # printed answer -> times seen, and the errors of queries that raised
        self.answers: dict[str, Counter] = {q.label: Counter() for q in wl.queries}
        self.raised: dict[str, list[str]] = {q.label: [] for q in wl.queries}
        self.errors: list[str] = []
        self.layer_rounds: list[tuple[dict, dict, Round]] = []
        if trace:
            from spans import Tracer

            self.tracer = Tracer()

    def round(self, traced: bool) -> None:
        span = self.tracer.root if traced else contextlib.nullcontext
        results = []
        if traced:
            self.tracer.install()
        try:
            # The timer's kernel runs would land inside spans, so traced
            # rounds sample the speed between queries only.
            rnd = Round(self.speed, ticks=not traced)

            def load():
                with span():
                    return self.wl.load() if self.wl.reload else {}

            nets, _ = rnd.time(load)
            for q in self.wl.queries:
                def query(q=q):
                    with span():
                        return q.run(nets)

                result, seconds = rnd.time(query)
                self.latencies[q.label].append(seconds)
                results.append(result)
        finally:
            if traced:
                self.tracer.uninstall()
        self.rounds[traced].append(rnd)
        if traced:
            self_time, counts = self.tracer.take()
            self.layer_rounds.append((self_time, counts, rnd))
        for q, result in zip(self.wl.queries, results):
            try:
                if isinstance(result, Exception):
                    raise result
                self.answers[q.label][q.text(result)] += 1
            except Exception as exc:  # a failed query is counted, not fatal
                self.raised[q.label].append(f"{type(exc).__name__}: {exc}")

    def execute(self, seconds: float) -> None:
        # Every query runs at least TAIL_BEYOND + 1 times, so the tail sample
        # always falls among the slowest query's own latencies, whatever the
        # number of rounds that fit in the run.
        min_rounds = 2 if self.trace else TAIL_BEYOND + 1
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < min_rounds or time.perf_counter() < deadline:
            self.round(traced=self.trace and rounds % 2 == 1)
            rounds += 1

    def check(self) -> tuple[int, int]:
        """(attempted, failed), comparing every answer with its reference."""
        attempted = failed = 0
        for q in self.wl.queries:
            for error in self.raised[q.label]:
                attempted += 1
                failed += 1
                self.errors.append(f"{q.label}: raised {error}")
            for text, count in self.answers[q.label].items():
                attempted += count
                try:
                    error = q.check(text)
                except Exception as exc:  # an unreadable answer is a wrong one
                    error = f"unreadable answer ({type(exc).__name__}: {exc})"
                if error:
                    failed += count
                    self.errors.append(f"{q.label}: {error}")
        return attempted, failed

    def wall(self, traced: bool, raw: bool = False) -> float:
        return statistics.median(r.raw if raw else r.ref for r in self.rounds[traced])

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for metric, span in LAYER_TIMES.items():
            out[metric] = statistics.median(
                st.get(span, 0.0) / statistics.median(rnd.slowdowns)
                for st, _, rnd in self.layer_rounds)
        first_counts = self.layer_rounds[0][1]
        for key in LAYER_COUNTS:
            out[key] = first_counts.get(key, 0)
        out["trace.overhead_ratio"] = self.wall(True) / self.wall(False)
        out["trace.attributed_ratio"] = statistics.median(
            sum(st.values()) / rnd.raw for st, _, rnd in self.layer_rounds)
        return out

    def counts_repeat(self) -> bool:
        return all(c == self.layer_rounds[0][1] for _, c, _ in self.layer_rounds)


UNITS = {"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "query_tail_ms": "ms",
         "peak_rss_mb": "MB"}


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print("%.9f %.9f" % setup_probe(args.workload, args.seed))
        return 0

    import_psolve()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    setups = [] if args.trace else measure_setup(args.workload, args.seed)
    wl = WORKLOADS[args.workload](args.seed)
    wl.load()

    run = Run(wl, bool(args.trace))
    run.execute(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = run.check()

    slowdowns = run.speed.samples
    print(f"workload {wl.name}, seed {args.seed}: {wl.why}")
    print(f"  layers: {wl.layers}")
    print(f"  inputs: {json.dumps(wl.properties)}")
    print(f"  rounds: {len(run.rounds[False])} untraced, {len(run.rounds[True])} traced; "
          f"{len(wl.queries)} queries per round")
    print(f"  machine slowdown against the reference: median "
          f"{statistics.median(slowdowns):.3f}, range {min(slowdowns):.3f}-{max(slowdowns):.3f}")
    print("  median latency at reference speed, per query:")
    for label, times in run.latencies.items():
        print(f"    {1000 * statistics.median(times):10.2f} ms  {label}")
    for line in run.errors[:10]:
        print(f"  FAILED {line}")
    print(f"  failed_ratio: {failed / attempted:.6f} ({failed}/{attempted})")

    if args.trace:
        metrics = run.layer_metrics()
        if not run.counts_repeat():
            print("  note: counts differ between traced rounds; reporting the first")
    else:
        latencies = [t for times in run.latencies.values() for t in times]
        tail_value, tail_pct, beyond = tail(latencies)
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setups),
            "wall_s": run.wall(False),
            "query_p50_ms": 1000 * statistics.median(latencies),
            "query_tail_ms": 1000 * tail_value,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"  raw clock: setup {statistics.median(s for s, _ in setups):.4f} s, "
              f"round wall {run.wall(False, raw=True):.4f} s")
        print(f"  query_tail_ms is p{tail_pct:.2f} of {len(latencies)} samples, "
              f"{beyond} beyond it")
    for name, value in metrics.items():
        print(f"  {name}: {value:.6g} {unit(name)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
