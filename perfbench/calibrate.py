"""Host-speed calibration, independent of the simulator's code.

The benchmark runs on shared machines whose single-thread speed swings by
a quarter within seconds (other tenants on the same host).  A rep
therefore splits its timed run into short segments (chunks of simulated
time, see ``workloads.CHUNK_SIM_S``) and times a fixed yardstick loop
right after each one; each segment's wall time is rescaled by
``NOMINAL_S`` over the yardstick's time, so the sum reads as if the run
had been made on a host of constant speed.  Set-up time is rescaled the
same way by a reading taken at the first simulated event.  Yardstick
time itself is left out of every reported time.

The loop mixes the operations the simulator spends its time on -- heap
pushes and pops of tuples, float arithmetic, attribute access over a
scattered pool of objects, method calls and small numpy ufuncs -- and
uses nothing from ``src/``, so a change to the simulator never changes
the yardstick.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Yardstick time of the nominal host that host metrics are rescaled to.
#: On the 2-vCPU Xeon VM the benchmark was defined on, single passes read
#: 5-12 ms depending on what the other tenants were doing.
NOMINAL_S = 0.010
ROUNDS = 2_500


class _Item:
    __slots__ = ("t", "w")

    def __init__(self, t: float, w: float) -> None:
        self.t = t
        self.w = w

    def advance(self, dt: float, f: float) -> float:
        # Bounded, so the loop costs the same on every pass of a long run.
        self.w = (self.w + dt * f) % 2.0
        return self.w / f


#: Objects the loop visits in a scattered order, so that, like the
#: simulator, it feels contention for the caches and not only for the core.
#: Built on first use, after the set-up time has been taken.
_POOL: list = []
_POOL_SIZE = 20_000


def _loop(rounds: int) -> float:
    if not _POOL:
        order = np.random.default_rng(0).permutation(_POOL_SIZE).tolist()
        items = [_Item(i * 1e-3, 1.0 + (i % 13) * 0.1) for i in range(_POOL_SIZE)]
        _POOL.extend(items[k] for k in order)
    heap: list = []
    buf = np.zeros(4)
    acc = 0.0
    for k in range(rounds):
        item = _POOL[(k * 7919) % _POOL_SIZE]
        heapq.heappush(heap, (item.t + item.advance(1e-4, 1.5), k, item))
        if len(heap) > 512:
            acc += heapq.heappop(heap)[0]
        np.multiply(buf, 0.5, out=buf)
        buf += 1.0
    return acc


def yardstick() -> float:
    """Seconds one pass of the calibration loop takes right now."""
    t0 = time.monotonic()
    _loop(ROUNDS)
    return time.monotonic() - t0


def speed() -> float:
    """Median of three yardstick passes (a steadier single reading)."""
    return sorted(yardstick() for _ in range(3))[1]


class Clock:
    """Wall time of a run, split into segments rescaled to nominal speed."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.yardsticks: list = []
        self._mark = time.monotonic()

    def lap(self) -> None:
        """Close the current segment and time the yardstick after it."""
        seg = time.monotonic() - self._mark
        y = yardstick()
        self.raw_s += seg
        self.scaled_s += seg * NOMINAL_S / y
        self.yardsticks.append(y)
        self._mark = time.monotonic()
