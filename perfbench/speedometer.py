"""Host-speed calibration for the end-to-end times.

The benchmark runs on a few cores of a shared host whose speed changes
within seconds: the same fixed loop can take twice as long from one
moment to the next, and wall and CPU times of a pass move with it.
Comparing two versions of the program by host seconds then measures
the neighbours rather than the program.

A :class:`Speedometer` samples the host's speed *while a pass runs*.
A real-time interval timer raises ``SIGALRM`` every ``INTERVAL_S``
seconds; the handler runs a fixed, allocation-free calibration kernel
in the main thread and records the CPU seconds it took. A pass's
calibrated time is its host or CPU time, less the time spent in the
handler, rescaled by ``REFERENCE_KERNEL_S ÷ mean kernel time``: the
seconds the pass would have taken on a host where one kernel run
costs ``REFERENCE_KERNEL_S``. The kernel is timed with the thread's
CPU clock, so time the thread spends descheduled (waiting for a core,
or stolen by the hypervisor) does not count as slowness; a slower
core does. Host seconds are also scaled by the share of the CPUs'
runnable time that the hypervisor did not steal, as ``/proc/stat``
reports it; CPU seconds already exclude stolen time.

The timer is not inherited by forked children, so pool workers run
unperturbed; their speed is taken to be the parent's, which shares
the host with them.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, List, Optional

#: CPU seconds one kernel run is taken to cost on the reference host;
#: roughly what it costs on an idle 2-core Xeon VM.
REFERENCE_KERNEL_S = 50e-6

#: Seconds between two kernel runs; one run costs ~0.25% of that.
INTERVAL_S = 0.02

_TABLE = [0.0] * 64


def steal_seconds() -> float:
    """Seconds the hypervisor has kept this machine's CPUs from running
    while they had work (the ``steal`` column of ``/proc/stat``), or 0
    where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def kernel(rounds: int = 500) -> float:
    """Fixed interpreter work: list indexing and float arithmetic.

    It creates no container objects, so it never triggers the garbage
    collector, whose cost would depend on the program's heap.
    """
    table = _TABLE
    acc = 0.0
    for i in range(rounds):
        k = i & 63
        table[k] = table[k] * 0.5 + i
        acc += table[k] / (k + 1)
    return acc


class Speedometer:
    """Samples host speed during a ``with`` block (main thread only)."""

    def __init__(self) -> None:
        #: Thread-CPU seconds of each kernel run.
        self.samples: List[float] = []
        #: Host seconds spent inside the handler.
        self.handler_s = 0.0
        #: Thread-CPU seconds spent inside the handler.
        self.handler_cpu_s = 0.0
        #: CPU seconds stolen from the machine during the block.
        self.steal_s = 0.0
        self._previous: Any = None

    def _measure(self) -> float:
        started = time.thread_time()
        kernel()
        cpu = time.thread_time() - started
        self.samples.append(cpu)
        return cpu

    def _sample(self, signum: int, frame: Optional[object]) -> None:
        clock = time.perf_counter
        started = clock()
        self.handler_cpu_s += self._measure()
        self.handler_s += clock() - started

    def __enter__(self) -> "Speedometer":
        for _ in range(20):  # let the interpreter specialise the kernel
            kernel()
        self._measure()  # so that even a short block has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.steal_s = -steal_seconds()
        return self

    def __exit__(self, *exc: object) -> None:
        self.steal_s += steal_seconds()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """``REFERENCE_KERNEL_S`` ÷ the mean kernel time: multiply CPU
        seconds by it to calibrate them."""
        return REFERENCE_KERNEL_S / (sum(self.samples) / len(self.samples))

    def wall_factor(self, cpu_s: float) -> float:
        """The factor for host seconds of a block that used ``cpu_s`` CPU
        seconds: :meth:`factor` times the share of the time its CPUs
        were runnable that they actually ran, ``cpu_s ÷ (cpu_s +
        steal_s)``. Steal is counted machine-wide, which is right
        while nothing but the measured work runs."""
        if cpu_s <= 0:
            return self.factor()
        return self.factor() * cpu_s / (cpu_s + self.steal_s)
