"""Linear-time validators of a long run, used by the tests and the benchmark.

Each recomputes, for every customer of a merged stream at once, a quantity
the simulator must agree with: the workload supremum seen at each arrival
instant and the sample-path delay bound of each customer. Both are running
maxima over candidate window starts, so they check runs of 1M customers.
The one-query scans they are tested against live in tests/reference.py.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .simulator import merge_streams
from .traffic import ArrivalSequence


def _scan(sequences, rates_bps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The merged arrival times a_k, the prefix work (prefix[k] = work of the
    first k customers) and the running maximum of a_k - prefix[k]."""
    merged = merge_streams(sequences, rates_bps)
    prefix = np.concatenate([[0.0], np.cumsum(merged.service_s)])
    return merged.arrival_s, prefix, np.maximum.accumulate(merged.arrival_s - prefix[:-1])


def virtual_waits_at_arrivals(
    sequences: Sequence[ArrivalSequence], rates_bps: Mapping[int, float]
) -> np.ndarray:
    """Workload supremum sup_{0<=s<=t} [work arriving in [s, t) - (t - s)]
    at every merged arrival instant t.

    Returns one value per customer in merge order; customers sharing an
    arrival instant share the value (the scan excludes the whole tie group).
    Candidate window starts are arrival instants, so the supremum is a
    running maximum of (a_k - total service before k) plus the work pending
    at the queried instant.
    """
    times, prefix, running = _scan(sequences, rates_bps)
    g = np.searchsorted(times, times)  # customer g starts each customer's tie group
    out = np.zeros(len(times))
    later = g > 0
    out[later] = np.maximum(0.0, running[g[later] - 1] + prefix[g[later]] - times[later])
    return out


def samplepath_bounds_all(
    sequences: Sequence[ArrivalSequence], rates_bps: Mapping[int, float]
) -> np.ndarray:
    """Upper bound on the delay of every customer, in merge order.

    The same supremum over windows closed at the customer's arrival instant:
    traffic at exactly that instant counts, up to and including the customer
    itself in merge order (co-arrivals behind it are excluded, which keeps
    the bound tight at ties).
    """
    times, prefix, running = _scan(sequences, rates_bps)
    return running + prefix[1:] - times
