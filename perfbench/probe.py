"""Host-speed probe: a thread that times a fixed loop during a run.

On a shared 2-core Xeon container the same loop ran up to 1.6x slower
from one half-minute to the next, so a wall time alone says as much
about the host as about the program.
:class:`HostProbe` runs a background thread in the measured process
that times a fixed interpreter loop every ``PERIOD_S`` seconds (~3 ms of
CPU, ~3% overhead) in its own thread CPU time, which other threads and
processes cannot inflate.  The harness divides each timed region by the
mean sample taken during it.  Samples from a separate probe process did
not track the measured process (the two vCPUs drift apart); a thread of
the measured process mostly runs where that process runs.

The thread never samples across a ``fork`` (the program forks its
worker pool mid-run): a fork handler waits for the current sample and
holds the next one back until the fork is done.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.1

#: Mean probe sample at the reference host speed.  Normalised times are
#: seconds on a host where one sample takes this long (about the median
#: on a 2-core Xeon container; only ratios between runs matter).
REFERENCE_S = 0.0035


def spin(n: int = 20000) -> int:
    table: dict = {}
    acc = 0
    for i in range(n):
        table[i & 255] = i
        acc += table[i & 255] * 3 // 7
    return acc


def sample_s() -> float:
    started = time.thread_time()
    spin()
    return time.thread_time() - started


class HostProbe:
    """Context manager sampling :func:`sample_s` on a background thread."""

    def __init__(self) -> None:
        self.samples: list = []
        self._stop = threading.Event()
        self._sampling = threading.Lock()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        os.register_at_fork(
            before=self._sampling.acquire,
            after_in_parent=self._sampling.release,
            after_in_child=self._sampling.release,
        )

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            with self._sampling:
                self.samples.append(sample_s())

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def mean_s(self) -> float:
        """Mean sample; a region shorter than a few periods is timed
        right after it instead."""
        samples = self.samples
        if len(samples) < 3:
            samples = samples + [sample_s() for _ in range(5)]
        return statistics.mean(samples)
