"""Reference-speed clock: wall times scaled by an interleaved calibration loop.

A shared host gives this benchmark a CPU whose speed drifts by tens of
percent over seconds to minutes, which the guest cannot see (no steal
time is reported, and CPU time drifts with wall time).  Every end-to-end
timing is therefore reported at a fixed reference speed: the benchmark
times a fixed calibration loop between ops and, for ops in its own
process, from a 40 Hz interval timer during them, and multiplies the
run's op times by ``(REF_S / t) ** LOAD_EXPONENT``, where ``t`` is the
median loop time over the run.  A figure in ``ms`` is thus the op's wall
time on a host where the loop takes exactly ``REF_S``.  The factor
depends only on the loop, which is the benchmark's own code, so a change
to edrkit moves the scaled figures as much as it moves wall time.

Time spent sampling is kept out of every op: ``clock()`` is
``perf_counter()`` minus the time the timer's samples took.
"""

from __future__ import annotations

import signal
import statistics
import time

_wall = time.perf_counter
_stolen = 0.0  # seconds taken by timer samples so far


def clock() -> float:
    """perf_counter() minus the time spent in timer samples."""
    return _wall() - _stolen


# One calibration loop of CAL_ITERS runs in about REF_S on a 2-vCPU x86 VM
# with Python 3.11.
REF_S = 0.001
CAL_ITERS = 8000
# As host load changed, edrkit's ops slowed by about the 0.6 to 1.0 power
# of the loop's slowdown (certify, reduce-large and cli runs, 2-vCPU VM);
# 0.8 left the least spread across seeds.
LOAD_EXPONENT = 0.8
# Between ops: sample once SAMPLE_EVERY_S has passed since the last sample,
# as many loops as take about SAMPLE_SHARE of that gap, at most MAX_BLOCK.
SAMPLE_EVERY_S = 0.02
SAMPLE_SHARE = 0.03
MAX_BLOCK = 16
# During ops: every TICK_S, one loop of TICK_ITERS (about 1% of the time).
TICK_S = 0.025
TICK_ITERS = 2000


def _loop(n: int) -> int:
    """Interpreter work on small ints, a dict and tuples.  Of the loops
    tried (this one, 2048-bit modular products, and a mix of the two), its
    time tracked edrkit's ops best as the host's load changed."""
    acc, table = 0, {}
    for i in range(n):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] = (acc, i)
    return acc + len(table)


class SpeedLog:
    """Calibration samples, in seconds per loop of CAL_ITERS."""

    def __init__(self):
        self.samples: list[float] = []
        self.last: float | None = None  # clock() time of the latest sample

    def block(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def sample(self, iters: int = CAL_ITERS) -> None:
        t0 = _wall()
        _loop(iters)
        t1 = _wall()
        self.last = t1 - _stolen
        self.samples.append((t1 - t0) * CAL_ITERS / iters)

    def maybe_sample(self) -> None:
        if self.last is None:
            self.sample()
            return
        gap = clock() - self.last
        if gap >= SAMPLE_EVERY_S:
            self.block(min(MAX_BLOCK, max(1, int(gap * SAMPLE_SHARE / REF_S))))

    def _tick(self, signum, frame) -> None:
        global _stolen
        t0 = _wall()
        self.sample(TICK_ITERS)
        _stolen += _wall() - t0

    def start_ticks(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop_ticks(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """The scale from wall time to the reference speed, from the
        median loop time of the samples so far."""
        return (REF_S / statistics.median(self.samples)) ** LOAD_EXPONENT
