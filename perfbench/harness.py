"""Timed pass loop, in-memory tracing and metric reduction for the mdplab benchmark.

A workload is a fixed list of ops (one *pass*).  The timed phase repeats whole
passes, one op at a time with no threads (a closed loop with one client), so
every run sees the same mix of op classes and the percentiles land at the
same place in that mix whatever the speed of the program.

Tracing records spans only around the benchmark's own calls into mdplab's
public functions; nothing inside the package is instrumented.

The timed phase of an untraced run also times a fixed calibration loop
before and after every op (``calibrate``).  The loop does not touch mdplab,
so its time follows only the speed the machine gives the process at that
moment; ``normalized`` divides an op's time by the loop times around it.
"""

import contextlib
import statistics
import time
import traceback
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Span = namedtuple("Span", "name start end parent op workload")


class Tracer:
    """Keeps spans (name, start, end, parent, op id, workload) and counters in memory."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op, self.workload)

    def add(self, key, amount=1):
        self.counts[key] += amount

    def self_times(self):
        """Each span's duration minus the time its direct child spans cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out


class NullTracer:
    """Stand-in used by untraced runs: spans and counters cost one call each."""

    op = None
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def add(self, key, amount=1):
        pass


# The calibration loop: pure-Python dict and float work, then a power
# iteration on a fixed 16x16 stochastic matrix (one small numpy call after
# another), the two kinds of work mdplab's ops are made of.
CAL_PY_ITERS = 20_000
CAL_NP_ITERS = 500
_CAL_P = np.add.outer(np.arange(16.0), np.arange(16.0)) % 7 + 1.0
_CAL_P /= _CAL_P.sum(axis=1, keepdims=True)
# The loop's time on the machine where the benchmark was written, while that
# machine ran at its faster speed.  Normalized times are given at this speed.
CAL_REFERENCE_S = 0.0040
CAL_AROUND_SETUP = 3  # loop samples taken on each side of a set-up


def calibrate():
    """Time one run of the calibration loop, in seconds."""
    start = time.perf_counter()
    table = {}
    for i in range(CAL_PY_ITERS):
        key = i & 63
        table[key] = table.get(key, 0.0) + i * 0.5
    x = np.full(16, 1.0 / 16)
    for _ in range(CAL_NP_ITERS):
        x = x @ _CAL_P
        x /= x.sum()
    return time.perf_counter() - start


def normalized(seconds, loop_times):
    """``seconds`` at the reference speed, given the loop times taken around it.

    The machine's slow spells last a second or a few, so the mean of the
    loop times estimates how much of the timed work ran slowly, and the
    ratio of the two means cancels it to first order.
    """
    return seconds * CAL_REFERENCE_S / statistics.fmean(loop_times)


@dataclass
class Outcome:
    """What one op produced: a digest of its outputs and failed oracle checks."""

    digest: str
    errors: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)


@dataclass
class Op:
    label: str
    run: Callable  # run(tracer) -> Outcome


@dataclass
class PhaseLog:
    latencies: list = field(default_factory=list)
    cal_around: list = field(default_factory=list)  # per latency: loop times (before, after)
    pass_walls: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)  # label -> Outcome of its first run

    @property
    def wall(self):
        return sum(self.pass_walls)


class Runner:
    """Runs ops, checks each output against the first digest seen for its label."""

    def __init__(self):
        self.digests = {}

    def run_op(self, op, tracer, log, op_id):
        log.attempted += 1
        tracer.op = op_id
        start = time.perf_counter()
        try:
            with tracer.span("op"):
                outcome = op.run(tracer)
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            log.latencies.append(time.perf_counter() - start)
            where = traceback.extract_tb(exc.__traceback__)[-1]
            log.failures.append(
                (op.label, f"{type(exc).__name__}: {exc} ({where.filename}:{where.lineno})")
            )
            return None
        log.latencies.append(time.perf_counter() - start)
        errors = list(outcome.errors)
        reference = self.digests.setdefault(op.label, outcome.digest)
        if reference != outcome.digest:
            errors.append(f"output digest {outcome.digest[:16]} differs from {reference[:16]}")
        if errors:
            log.failures.append((op.label, "; ".join(errors)))
        log.outcomes.setdefault(op.label, outcome)
        return outcome

    def run_passes(self, ops, tracer, seconds=None, passes=None, prefix="", between=None,
                   calibrated=False):
        """Whole passes over ``ops``: exactly ``passes`` of them, or as many as fit in ``seconds``.

        A new pass starts only while the median pass so far still fits before
        the deadline, so the phase lasts about ``seconds`` and never holds a
        partial pass.  At least one pass always runs.  ``between()`` runs
        after every pass, outside the pass walls.  With ``calibrated`` the
        calibration loop is timed before the first op of a pass and after
        every op, outside the op latencies but inside the pass walls.
        """
        log = PhaseLog()
        begin = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            index = len(log.pass_walls)
            after = calibrate() if calibrated else None
            for op in ops:
                before = after
                self.run_op(op, tracer, log, f"{prefix}{index}:{op.label}")
                if calibrated:
                    after = calibrate()
                    log.cal_around.append((before, after))
            log.pass_walls.append(time.perf_counter() - pass_start)
            if between is not None:
                between()
            if passes is not None:
                if len(log.pass_walls) >= passes:
                    break
            elif time.perf_counter() - begin + statistics.median(log.pass_walls) > seconds:
                break
        tracer.op = None
        return log


def percentile(values, pct):
    """Linear-interpolated percentile (the definition numpy uses by default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def layer_metrics(tracer, spec):
    """Reduce spans to the per-layer metrics named in ``spec``.

    ``spec`` maps a span name to the statistics wanted for it: ``calls``,
    ``self_s`` (summed self time), ``p50_us`` and ``median_ms`` (of span
    durations).  A layer with no span reads 0.
    """
    selfs = tracer.self_times()
    by_name = {}
    for s, own in zip(tracer.spans, selfs):
        entry = by_name.setdefault(s.name, ([], []))
        entry[0].append(s.end - s.start)
        entry[1].append(own)
    out = {}
    for name, stats in spec.items():
        durations, owns = by_name.get(name, ([], []))
        for stat in stats:
            key = f"{name}.{stat}"
            if stat == "calls":
                out[key] = len(durations)
            elif stat == "self_s":
                out[key] = sum(owns)
            elif stat == "p50_us":
                out[key] = statistics.median(durations) * 1e6 if durations else 0.0
            elif stat == "median_ms":
                out[f"{name}_ms"] = statistics.median(durations) * 1e3 if durations else 0.0
            else:
                raise ValueError(f"unknown statistic {stat!r}")
    return out


def op_walls(tracer):
    """Per op id: (op span duration, sum of self times of every span in the op)."""
    selfs = tracer.self_times()
    walls = {}
    covered = Counter()
    for s, own in zip(tracer.spans, selfs):
        if s.op is None:
            continue
        if s.name == "op":
            walls[s.op] = s.end - s.start
        covered[s.op] += own
    return {op: (wall, covered[op]) for op, wall in walls.items()}
