"""Host-speed reference for timings taken on a shared machine.

On a shared virtual machine other tenants slow every process by 10-40 % for
spells of seconds to minutes, so raw times of identical runs a few minutes
apart differ by far more than a regression worth catching. A fixed probe,
which calls nothing in mcfifo, is therefore timed about once a second
between operations, and each operation's time is also reported at reference
speed: its raw time times REFERENCE_S over the probe times near it. The
probe mixes the kinds of work mcfifo spends its time on: a fresh 16 MB NumPy
array, its sort, and an interpreted Python loop. A version with 2 MB arrays
left the peak memory alone but tracked the host worse (ten-seed spread of
wall_s 9 % instead of 4 % on long_run, 17 % instead of 11 % on
replications), so the probe's 32 MB sets peak_rss_mb where a workload holds
less than that above its imports (replications, bound_sweep).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: About the probe's time on the uncontended 2-vCPU Xeon host the benchmark
#: was written on (median 0.107 s, minimum 0.096 s). A constant, so that
#: scaled times stay comparable across runs and commits.
REFERENCE_S = 0.1

#: Probe at most this often, so that the probe costs about a tenth of a run.
INTERVAL_S = 1.0

#: Operations longer than this are scaled by the run's median probe time.
LONG_OP_S = 2.0 * INTERVAL_S


def probe() -> float:
    start = time.perf_counter()
    values = np.random.default_rng(0).random(2_000_000)
    np.sort(values)
    total = 0
    for i in range(1_500_000):
        total += i
    return time.perf_counter() - start


class HostSpeed:
    """Probe times along the run, and the scale they give each interval."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end instant, seconds)

    def sample(self) -> None:
        seconds = probe()
        self.samples.append((time.perf_counter(), seconds))

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the host's probe time during [start, end].

        An operation up to LONG_OP_S long takes the mean of the last probe
        before it and the first after it, which follows the host's speed as
        it drifts within a run. A longer one takes the median of every probe
        of the run: a bracketing pair samples the host only at the two ends
        of a long operation, and the noise of two probes then outweighs the
        drift.
        """
        if end - start > LONG_OP_S:
            return REFERENCE_S / statistics.median(s for _, s in self.samples)
        before = [s for t, s in self.samples if t <= start][-1:]
        after = [s for t, s in self.samples if t - s >= end][:1]
        return REFERENCE_S / statistics.mean(before + after)
