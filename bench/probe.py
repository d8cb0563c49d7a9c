"""Host-speed probe: rescales wall time to a reference speed.

The benchmark's host shares its cores with other machines, and the same
single-threaded pass can take anywhere from 1x to 2x its uncontended time
depending on what they do; CPU time tracks wall time, so the slowdown is not
descheduling but a slower core. A fixed pure-Python burst, run from a
SIGALRM handler every 10 ms in the benchmark's own thread, samples the speed
of the core the program is running on while it runs. An operation's time is
its wall time minus the bursts' own time, times the mean of REFERENCE_S /
(burst time) over the bursts during the operation: wall time rescaled to a
host that runs the burst in REFERENCE_S.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
# a 5x5 grid: breadth-first searches over a set of its nodes are the shape of
# the allocator's compactness score, the program's hottest loop
GRID = tuple(
    tuple(n for n in (q - 5, q + 5, q - 1 if q % 5 else -1, q + 1 if q % 5 < 4 else -1) if 0 <= n < 25)
    for q in range(25)
)
BURST_SOURCES = range(0, 25, 2)
# the burst's duration on an uncontended core of the reference host
# (Intel Xeon, 2 GHz, Python 3.11)
REFERENCE_S = 1.5e-4
MIN_SAMPLES = 10


def _neighbors(q: int) -> tuple[int, ...]:
    return GRID[q]


def _burst() -> int:
    members = set(range(25))
    diameter = 0
    for src in BURST_SOURCES:
        seen = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in _neighbors(u):
                    if v in members and v not in seen:
                        seen[v] = seen[u] + 1
                        nxt.append(v)
            frontier = nxt
        diameter = max(diameter, max(seen.values()))
    return diameter


class SpeedProbe:
    """Context manager sampling core speed on a wall-clock timer."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at each burst's start
        self.samples: list[float] = []  # each burst's duration
        self.busy = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _burst()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.samples.append(dt)
        self.busy += dt

    def __enter__(self) -> "SpeedProbe":
        for _ in range(MIN_SAMPLES):  # so every interval has samples to read
            self._on_alarm(None, None)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.busy

    def since(self, mark: tuple[int, float], wall: float) -> tuple[float, float]:
        """(wall time without the bursts, the same at reference speed) of an
        interval of `wall` seconds that began at mark."""
        n0, busy0 = mark
        own = wall - (self.busy - busy0)
        samples = self.samples[n0:]
        if len(samples) < MIN_SAMPLES:
            samples = self.samples[-MIN_SAMPLES:]
        # mean speed over the interval, dropping the slowest and fastest tenth
        # (bursts hit by an interrupt, mostly)
        speeds = sorted(REFERENCE_S / s for s in samples)
        k = len(speeds) // 10
        speeds = speeds[k:len(speeds) - k]
        return own, own * sum(speeds) / len(speeds)
