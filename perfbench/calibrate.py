"""Host-speed calibration: a fixed reference workload timed beside the units.

On a shared machine the speed of memory-heavy Python code swings by up to
~1.5x over tens of seconds and minutes, with the load other tenants put on
the memory system.  Every timing of a run swings with it, so ten runs a few
minutes apart can spread wider than any bound a regression check could use.

The reference workload below is fixed, allocation-heavy and independent of
the program under test (it imports nothing from it).  Timed between the
units of a round, in the same process, it tracks the swing: on the 2-core
VM the benchmark was built on, its 20-second medians correlated 0.96 with
``stream``'s time per event, and dividing the one by the other cut the
swing's coefficient of variation from 0.094 to 0.028 (a cache-resident
integer loop correlated only 0.81).  Each round's timings are therefore
multiplied by :meth:`Calibration.factor`, which expresses them at the host
speed at which the reference takes :data:`REFERENCE_S`.  A change to the
program cannot change the reference, so it moves the calibrated figures as
it moves the raw ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: The reference's nominal duration: calibrated timings read as if the host
#: ran the reference in this time (about its median on the VM above).
REFERENCE_S = 0.032


def reference_workload() -> int:
    """Allocate, sort and index 20,000 small records."""
    rng = random.Random(7)
    records = [(rng.random(), index, {"index": index}) for index in range(20_000)]
    records.sort()
    table = {}
    for _, index, record in records:
        table[index] = record
    return len(table)


class Calibration:
    """Reference timings of one round."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the reference once, with collections held off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            reference_workload()
            self.samples.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Multiplier taking this round's timings to the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
