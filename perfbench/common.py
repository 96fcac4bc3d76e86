"""Pieces every workload shares: the closed loop, repeated set-up, the
host-speed probe and the outcome record a workload hands back to
`run.py`."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

# The benchmark runs on a few cores of a shared host.  Its speed flips
# between states about 1.5x apart within fractions of a second, and the
# mix of states shifts over minutes, so 25-s runs of one program differed
# by up to 35% (2 vCPUs).  A fixed pure-Python loop slows with the host:
# over 2-s windows its time correlated 0.92 with resolve-fetch request
# time.  The loop is timed between operations, never inside one, and
# `run.py` scales each operation's time to a host on which the loop takes
# REFERENCE_S; unscaled times are printed beside the scaled ones.
REFERENCE_N = 10_000
REFERENCE_S = 0.7e-3
REFERENCE_EVERY_S = 0.05


class SetupError(RuntimeError):
    """Set-up produced a wrong result; the run stops without a figure."""


@dataclass
class Outcome:
    setup_s: list[float]                 # one per set-up repetition
    latency_s: list[float]               # one per loop operation
    work: int                            # queries, rounds or requests done
    named: dict[str, tuple[float, str]]  # the workload's own end-to-end metrics
    counts: dict[str, float]             # over the fixed window: repeat exactly
    per: dict[str, int]                  # denominators of per-layer ratios
    attempted: int
    rss_mib: float                       # peak RSS once the window is done
    failures: dict[str, int] = field(default_factory=dict)  # kind -> ops
    failed: int = 0                      # ops with a failure of unknown kind
    loop_s: float = 0.0
    spans: dict = field(default_factory=dict)            # phase -> tracer.take()


def reference_s() -> float:
    """Seconds the fixed reference loop takes right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REFERENCE_N):
        s += i * i
    return time.perf_counter() - t0


class Host:
    """Reference-loop readings taken between operations, and for each
    operation and set-up repetition the readings around it.  A time is
    scaled by REFERENCE_S over the readings taken around it: for a loop
    operation the median of the last reading before it and that reading's
    two neighbours, for a set-up repetition the mean of the readings just
    before and just after it."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.setup_at: list[tuple[int, int]] = []   # readings before, after
        self.op_at: list[int] = []                  # last reading before op
        self.next_s = 0.0

    def read(self, tracer) -> None:
        idx = tracer.begin("bench.reference")
        self.readings.append(reference_s())
        tracer.end(idx)
        self.next_s = time.perf_counter() + REFERENCE_EVERY_S

    def scaled_latency(self, latency_s: list[float]) -> list[float]:
        r = self.readings
        near = [REFERENCE_S / statistics.median(r[max(0, j - 1):j + 2])
                for j in range(len(r))]
        return [t * near[j] for t, j in zip(latency_s, self.op_at)]

    def scaled_setup(self, setup_s: list[float]) -> list[float]:
        r = self.readings
        return [t * 2 * REFERENCE_S / (r[a] + r[b])
                for t, (a, b) in zip(setup_s, self.setup_at)]

    def factor(self) -> float:
        """REFERENCE_S over the median of all readings: scales busy times
        summed over the whole run."""
        return REFERENCE_S / statistics.median(self.readings)


def repeat_setup(build, reps: int, tracer, host: Host):
    """Run `build()` `reps` times from scratch and keep the last result,
    probing host speed before and after each repetition.

    The previous result is dropped before the next build starts, so at
    most one copy is alive and memory peaks at one set-up's worth.
    """
    state = None
    times = []
    for rep in range(reps):
        state = None
        tracer.request = f"setup-{rep}"
        host.read(tracer)
        root = tracer.begin("bench.setup")
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
        tracer.end(root)
        host.read(tracer)
        host.setup_at.append((len(host.readings) - 2,
                               len(host.readings) - 1))
    return state, times


def closed_loop(step, seconds: float, window: int, tracer,
                host: Host) -> tuple[int, float, float]:
    """One client: call `step(i)` back to back until `seconds` have passed
    and at least `window` operations are done, reading the host-speed
    host between operations every REFERENCE_EVERY_S.  Returns (ops,
    wall s, peak RSS in MiB read after the first `window` operations), so
    the memory figure covers the same work however fast the loop runs."""
    i = 0
    rss = 0.0
    t0 = time.perf_counter()
    deadline = t0 + seconds
    host.next_s = t0
    while i < window or time.perf_counter() < deadline:
        tracer.request = i
        if time.perf_counter() >= host.next_s:
            host.read(tracer)
        host.op_at.append(len(host.readings) - 1)
        root = tracer.begin("bench.request")
        step(i)
        tracer.end(root)
        i += 1
        if i == window:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    host.read(tracer)
    return i, time.perf_counter() - t0, rss
