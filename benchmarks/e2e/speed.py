"""CPU-speed probe: timings rescaled to a fixed reference CPU speed.

On a shared host a vCPU can run at full speed or in a contended state
about 1.7 times slower, in bursts of 0.1 s to several seconds that
differ between vCPUs and that the guest cannot see (no steal time is
reported and no hardware counters are exposed).  A 7 s plan request
then takes anywhere from 5 to 9 s with identical work, which hides any
change to the program smaller than that.

:class:`SpeedProbe` measures the CPU's speed while the work runs.  A
``SIGALRM`` handler, which runs in the main thread of the process doing
the work, times a fixed piece of pure-Python work (:func:`_snippet`)
every :data:`INTERVAL` seconds of wall time.  Each sample's speed is
``REFERENCE_S / duration``: 1 at reference speed, about 0.6 when
contended.  Because the samples are evenly spaced in wall time, their
mean speed over an interval is the share of that interval the same
work would take at reference speed, so :func:`rescale` turns a wall or
CPU time into the time at reference speed.

The probe costs about 30 us every 10 ms (0.3%).  A ``SIGALRM`` handler
and the interval timer are process state: a forked child inherits the
handler but not the timer, so each process starts its own probe.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

#: The clock of every sample: CLOCK_MONOTONIC on Linux, shared by all
#: processes of a run, so samples line up with the benchmark's timings.
clock = time.monotonic

#: Wall seconds between two samples.
INTERVAL = 0.01

#: Farthest a sample may lie outside an interval that holds none.
MAX_GAP = 0.1

#: Duration of :func:`_snippet` at reference speed: its time, called
#: from the handler, on an uncontended core of the 2-core Xeon host the
#: committed baseline was recorded on.  It only scales the rescaled
#: times; runs compare as long as it stays the same.
REFERENCE_S = 30e-6

Sample = Tuple[float, float]


def _snippet() -> None:
    """Fixed interpreter work of about 30 us: dict reads and writes."""
    table = {}
    for i in range(300):
        key = i % 53
        table[key] = table.get(key, 0) + i


class SpeedProbe:
    """Samples the speed of the CPU running this process's main thread."""

    def __init__(self) -> None:
        #: ``(start, duration)`` of each timed snippet, in seconds.
        self.samples: List[Sample] = []

    def start(self) -> "SpeedProbe":
        """Forget earlier samples and sample every INTERVAL from now."""
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _sample(self, _signum, _frame) -> None:
        start = clock()
        _snippet()
        self.samples.append((start, clock() - start))

    def dump(self, directory) -> Path:
        """Write the samples to a fresh file in ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"probe-{os.getpid()}-{time.time_ns()}.json"
        path.write_text(json.dumps(self.samples))
        return path


def load(directory) -> List[Sample]:
    """Every sample :meth:`SpeedProbe.dump` wrote into ``directory``."""
    samples: List[Sample] = []
    for path in sorted(Path(directory).glob("probe-*.json")):
        samples.extend(tuple(sample) for sample in json.loads(path.read_text()))
    samples.sort()
    return samples


def speed(samples: Sequence[Sample], start: float, end: float) -> Optional[float]:
    """Mean speed of the samples taken in ``[start, end]``.

    ``samples`` must be sorted.  An interval shorter than the sampling
    period may hold none; then the nearest sample within
    :data:`MAX_GAP` stands for it.  None when there is no such sample.
    """
    lo = bisect.bisect_left(samples, (start,))
    hi = bisect.bisect_right(samples, (end, float("inf")))
    inside = samples[lo:hi]
    if not inside:
        # Samples lo - 1 and lo lie just before and just after.
        gaps = [(start - samples[lo - 1][0], samples[lo - 1])] if lo else []
        if lo < len(samples):
            gaps.append((samples[lo][0] - end, samples[lo]))
        gap, nearest = min(gaps, default=(float("inf"), None))
        if gap > MAX_GAP:
            return None
        inside = [nearest]
    return sum(REFERENCE_S / duration for _, duration in inside) / len(inside)


def rescale(seconds: float, samples: Sequence[Sample], start: float,
            end: float) -> float:
    """``seconds`` of work done in ``[start, end]``, at reference speed.

    Raises ValueError when :func:`speed` finds no sample: a timing that
    cannot be rescaled must not pass for one that was.
    """
    factor = speed(samples, start, end)
    if factor is None:
        raise ValueError(f"no speed samples in a {end - start:.3f} s interval")
    return seconds * factor
