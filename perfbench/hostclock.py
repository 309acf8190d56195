"""Host-speed calibration: a fixed kernel timed between the program's operations.

On a shared host the speed of the cores drifts over seconds to minutes (a
fixed pure-Python loop read 20-27 ms per call in 20-second windows, and a
busy stretch ran the same code up to 1.8 times slower than a quiet one), in
CPU time as much as in wall time, and no statistic inside one run removes a
drift that outlasts the run.  So the workloads run a short
calibration slice between operations — a fixed mix of a pass-like scan over
a gate list and small dense matrix products, the two kinds of work the
program does — and scale every timed interval to a reference host speed::

    scaled = measured * REFERENCE_SLICE_S / median(time of the nearest slices)

On a host where a slice takes ``REFERENCE_SLICE_S`` the scaled figures are
the measured ones.  The kernel lives here, not in the program, so no change
to the program moves it.  Slices are timed in wall time: time the hypervisor
gives to other guests (steal) is left out of a thread's CPU time, and in one
stretch the slices' CPU time held at 13.5 ms while serve's requests took 1.5
times as long as before.  Slices run only while no operation is in flight,
so no work of the program competes with them, and their time is never part
of an operation's.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

#: seconds one calibration slice takes on the reference host (a quiet 2-vCPU
#: Intel Xeon virtual machine reads about this); times are scaled to it
REFERENCE_SLICE_S = 0.0075
#: slices whose median gives the host speed at a point in time
NEAREST = 5


class _Gate:
    __slots__ = ("name", "qubits", "param")

    def __init__(self, name: str, qubits: tuple[int, ...], param: float):
        self.name, self.qubits, self.param = name, qubits, param


def _gates() -> list[_Gate]:
    rng = random.Random(0)
    names = ("h", "x", "cx", "rz", "sx", "cz")
    return [
        _Gate(rng.choice(names), (rng.randrange(8), rng.randrange(8)), rng.random())
        for _ in range(400)
    ]


_GATES = _gates()
_ACTIVATIONS = np.random.default_rng(2).standard_normal((64, 120))
_WEIGHTS = np.random.default_rng(3).standard_normal((120, 64))


def _kernel() -> float:
    """One slice: a pass-like scan over a gate list, then small dense products.

    The two halves take about the same time.  Between a quiet and a busy
    stretch of the same host the scan slowed 1.67 times and the products 1.40
    times, while a compile sweep slowed 1.49 times and a greedy policy
    compile 1.55 times: the even mix follows the program, and either half
    alone, or the plain interpreter loop tried first (1.78 times), does not.
    """
    total = 0
    for _ in range(16):
        last: dict[int, int] = {}
        successors: dict[int, list[int]] = {}
        for index, gate in enumerate(_GATES):
            for qubit in set(gate.qubits):
                previous = last.get(qubit)
                if previous is not None:
                    successors.setdefault(previous, []).append(index)
                last[qubit] = index
        kept = [g for g in _GATES if not (g.name == "rz" and g.param < 0.1)]
        counts: dict[str, int] = {}
        for gate in kept:
            counts[gate.name] = counts.get(gate.name, 0) + len(gate.qubits)
        total += len(successors) + sum(counts.values())
    checksum = 0.0
    for _ in range(130):
        checksum += float(np.tanh(_ACTIVATIONS @ _WEIGHTS).sum())
    return total + checksum


class HostClock:
    """Calibration slices of one run and the speed factor they give."""

    def __init__(self) -> None:
        #: (perf_counter at the slice's midpoint, seconds the slice took)
        self.slices: list[tuple[float, float]] = []

    def calibrate(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            _kernel()
            end = time.perf_counter()
            self.slices.append(((start + end) / 2, end - start))

    def last_slice_age(self) -> float:
        return time.perf_counter() - self.slices[-1][0] if self.slices else float("inf")

    def factor(self, at: float) -> float:
        """Reference speed over host speed around ``at`` (a perf_counter time)."""
        nearest = sorted(self.slices, key=lambda s: abs(s[0] - at))[:NEAREST]
        return REFERENCE_SLICE_S / statistics.median(took for _at, took in nearest)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval would have taken at the reference speed."""
        return (end - start) * self.factor((start + end) / 2)

    def summary(self) -> dict:
        took = [took for _at, took in self.slices]
        return {
            "slices": len(took),
            "slice_median_ms": 1000 * statistics.median(took),
            "slice_min_ms": 1000 * min(took),
            "slice_max_ms": 1000 * max(took),
        }
