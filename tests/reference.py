"""Brute-force references the tests hold the package against.

These recompute simulator outputs and bound conditions from first
principles, favoring clarity over speed: the FIFO recursion is run one
customer at a time, the workload supremum at one instant is evaluated by
scanning every candidate window start, and excess-work MGFs are estimated
by Monte Carlo. mcfifo.oracle keeps the linear-time scans that answer every
customer of a long run at once; these single queries check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from mcfifo.errors import InvalidInputError, InvalidSpecError
from mcfifo.simulator import merge_streams
from mcfifo.traffic import (
    ArrivalSequence,
    ClassSpec,
    Constant,
    ExponentialMean,
    Poisson,
    coupling_groups,
)


@dataclass(frozen=True)
class WindowScanResult:
    """Supremum of the workload-minus-elapsed objective and where it peaks."""

    supremum_s: float
    window_start_s: float


def sequential_waits(arrival_s: np.ndarray, service_s: np.ndarray) -> np.ndarray:
    """Waiting times from d_j = max(a_j, d_{j-1}) + s_j, one customer at a time.

    The independent reference for simulator.fifo_waits: the recursion as
    written, in plain floats from d = 0. Its rounding grows with the absolute
    arrival times (up to ~3e-12 s over 1M customers of a preset), so compare
    against it with FLOAT_SLACK_S on short runs only.
    """
    a_list = np.asarray(arrival_s, dtype=float).tolist()
    s_list = np.asarray(service_s, dtype=float).tolist()
    w_list = [0.0] * len(a_list)
    d_prev = 0.0
    for i in range(len(a_list)):
        a_i = a_list[i]
        w = d_prev - a_i
        if w < 0.0:
            w = 0.0
        w_list[i] = w
        d_prev = a_i + (w + s_list[i])
    return np.asarray(w_list, dtype=float)


def virtual_wait_direct(
    sequences: Sequence[ArrivalSequence],
    rates_bps: Mapping[int, float],
    t_s: float,
) -> WindowScanResult:
    """Workload supremum sup_{0<=s<=t} [work arriving in [s, t) - (t - s)].

    Work is the total service time of customers arriving in the window;
    arrivals at exactly t are excluded, matching the virtual waiting time a
    customer arriving immediately before t would see. The objective is
    piecewise linear in s with slope +1 between arrivals, so only s = 0,
    s = t and arrival instants before t can attain the supremum.
    """
    if t_s < 0:
        raise InvalidInputError("t must be >= 0")
    merged = merge_streams(sequences, rates_bps)
    n_before = int(np.searchsorted(merged.times_s, t_s, side="left"))

    best = 0.0  # s = t: empty window
    best_s = t_s
    if n_before:
        times = merged.times_s[:n_before]
        prefix = np.concatenate([[0.0], np.cumsum(merged.service_s[:n_before])])
        total = prefix[-1]
        # candidate s = 0 and s = each arrival instant (window keeps it)
        candidates = np.concatenate([[0.0], times])
        work_from = total - np.concatenate([[0.0], prefix[:-1]])
        objective = work_from - (t_s - candidates)
        k = int(np.argmax(objective))
        if objective[k] > best:
            best = float(objective[k])
            best_s = float(candidates[k])
    return WindowScanResult(best, best_s)


def samplepath_delay_bound(
    sequences: Sequence[ArrivalSequence],
    rates_bps: Mapping[int, float],
    i: int,
) -> float:
    """Upper bound on the delay of customer i, its 0-based merge index.

    Same scan as virtual_wait_direct but over windows closed at the arrival
    instant: traffic at exactly the customer's arrival counts, up to and
    including the customer itself in merge order (co-arrivals behind it are
    excluded, which keeps the bound tight at ties).
    """
    merged = merge_streams(sequences, rates_bps)
    if not 0 <= i < len(merged):
        raise InvalidInputError(f"merge index {i} is outside 0..{len(merged) - 1}")
    a_i = merged.times_s[i]
    prefix = np.concatenate([[0.0], np.cumsum(merged.service_s[: i + 1])])
    candidates = np.concatenate([[0.0], merged.times_s[: i + 1]])
    work_from = prefix[-1] - np.concatenate([[0.0], prefix[:-1]])
    objective = work_from - (a_i - candidates)
    return float(np.max(objective))


@dataclass(frozen=True)
class MgfEstimate:
    """Monte-Carlo estimate of the excess-work MGF at one theta."""

    value: float
    std_error: float
    samples: int
    diverged: bool  # theta at or past an exponential class's domain edge


def mgf_monte_carlo(
    specs: Sequence[ClassSpec],
    theta: float,
    samples: int,
    seed: int,
    window_s: float = 1.0,
) -> MgfEstimate:
    """Estimate the excess-work MGF E[exp(theta*(sum_n A_n(w)/C_n - w))].

    The exponent of the true MGF is linear in the window length w for
    compound-Poisson work, so the condition "MGF <= 1" holds for w = 1
    exactly when it holds for any w. Direct sampling at a unit window is
    hopeless at realistic decay rates (the mean is carried by astronomically
    rare samples), so validation should use a window short enough that
    theta * std(work) is order one.

    Coupled groups are simulated through their shared stream so the estimate
    reflects the dependence. The estimate is flagged diverged when theta
    reaches an exponential-size class's completion rate, where the true MGF
    is infinite.
    """
    if samples < 1:
        raise InvalidInputError("samples must be >= 1")
    if window_s <= 0:
        raise InvalidInputError("window must be positive")
    diverged = any(
        isinstance(s.size, ExponentialMean)
        and theta >= s.service_completion_rate_hz
        for s in specs
    )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    work = np.zeros(samples)

    grouped = coupling_groups(specs)
    coupled_ids = {s.class_id for members in grouped.values() for s in members}

    for s in specs:
        if s.class_id in coupled_ids:
            continue
        if not isinstance(s.arrival, Poisson):
            raise InvalidSpecError(
                f"class {s.class_id}: Monte-Carlo MGF needs Poisson arrivals"
            )
        counts = rng.poisson(s.arrival.rate_hz * window_s, samples)
        if isinstance(s.size, Constant):
            work += counts * s.mean_service_s
        else:
            work += rng.gamma(counts, s.mean_service_s)

    for members in grouped.values():
        mech = members[0].arrival.mechanism
        rates = np.array([m.arrival.rate_hz for m in members])
        if mech == "synchronized":
            master = rng.poisson(rates.max() * window_s, samples)
            for m in members:
                counts = rng.binomial(master, m.arrival.rate_hz / rates.max())
                if isinstance(m.size, Constant):
                    work += counts * m.mean_service_s
                else:
                    work += rng.gamma(counts, m.mean_service_s)
        else:
            # shared-uniform gaps: count renewals of the shared unit-mean
            # walk below rate*window for each class
            spans = rates * window_s
            chunk = 512
            done = 0
            while done < samples:
                m = min(chunk, samples - done)
                need = int(spans.max() + 8 * np.sqrt(spans.max()) + 16)
                walks = np.cumsum(rng.exponential(1.0, size=(m, need)), axis=1)
                while walks[:, -1].min() < spans.max():
                    extra = np.cumsum(rng.exponential(1.0, size=(m, need)), axis=1)
                    walks = np.concatenate([walks, walks[:, -1:] + extra], axis=1)
                for member, span in zip(members, spans):
                    counts = (walks < span).sum(axis=1)
                    if isinstance(member.size, Constant):
                        work[done : done + m] += counts * member.mean_service_s
                    else:
                        work[done : done + m] += rng.gamma(
                            counts, member.mean_service_s
                        )
                done += m

    values = np.exp(theta * (work - window_s))
    value = float(values.mean())
    std_error = float(values.std(ddof=1) / np.sqrt(samples)) if samples > 1 else np.inf
    return MgfEstimate(value, std_error, samples, diverged)
