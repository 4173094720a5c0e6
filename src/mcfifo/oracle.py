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
    merged = merge_streams(sequences, rates_bps)
    n = len(merged)
    times = merged.times_s
    prefix = np.concatenate([[0.0], np.cumsum(merged.service_s)])  # prefix[k] = work of first k
    running = np.maximum.accumulate(times - prefix[:-1])
    new_group = np.concatenate([[True], times[1:] > times[:-1]])
    group_start = np.maximum.accumulate(np.where(new_group, np.arange(n), 0))
    out = np.zeros(n)
    nonfirst = group_start > 0
    g = group_start[nonfirst]
    out[nonfirst] = np.maximum(0.0, running[g - 1] + prefix[g] - times[nonfirst])
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
    merged = merge_streams(sequences, rates_bps)
    service = merged.service_s
    prefix_prev = np.concatenate([[0.0], np.cumsum(service)])[:-1]
    running = np.maximum.accumulate(merged.times_s - prefix_prev)
    return running + (prefix_prev + service) - merged.times_s
