"""Brute-force references the tests hold the package against.

These recompute simulator outputs and bound conditions from first
principles, favoring clarity over speed: the FIFO recursion is run one
customer at a time, the workload supremum at one instant is evaluated by
scanning every candidate window start, and excess-work MGFs are estimated
by Monte Carlo. mcfifo.oracle keeps the linear-time scans that answer every
customer of a long run at once; these single queries check them. The
convolution bound of independent burst tails is kept here as it was first
built, every exponential term added to the CDF at every fine point, and
again in long double in the tail domain, for the version that computes the
tail at the returned points alone. So are the split
bound's water-filling passes, for its closed form in the leftover delay, and
the excess-work MGF summed by sum() over a generator, for its loop. The
long run is kept here as it was computed whole, for the windows that draw,
merge, scan and count it a piece at a time: one draw of every class, cut
at the horizon, one stable sort, the scan of that order and one sort of
each class's values (whole_run_simulation, whole_run_comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import signal

from mcfifo import analytic
from mcfifo.analytic import _fine_grid
from mcfifo.errors import InvalidInputError, InvalidSpecError
from mcfifo.experiments import (
    FLOAT_SLACK_S,
    ComparisonResult,
    _check_violations,
    _counted_entry,
    case_bound_entries,
)
from mcfifo.simulator import (
    _check_run,
    _fifo_scan,
    count_above,
    merge_streams,
    run_fifo,
    transient_delays,
)
from mcfifo.traffic import (
    ArrivalSequence,
    ClassSpec,
    Constant,
    DeterministicEnvelope,
    ExponentialMean,
    Periodic,
    Poisson,
    coupling_groups,
    generate_sequences,
    proportional_counts,
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
    n_before = int(np.searchsorted(merged.arrival_s, t_s, side="left"))

    best = 0.0  # s = t: empty window
    best_s = t_s
    if n_before:
        times = merged.arrival_s[:n_before]
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
    a_i = merged.arrival_s[i]
    prefix = np.concatenate([[0.0], np.cumsum(merged.service_s[: i + 1])])
    candidates = np.concatenate([[0.0], merged.arrival_s[: i + 1]])
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


def geometric_sum_every_point(values: np.ndarray, rate: float) -> np.ndarray:
    """g[j] = sum_{l <= j} exp(-rate*(j - l)) * values[l] at every point, by
    the blocked scan: one matmul with each 32-block's lower-triangular
    powers, the same recurrence at rate*32 over the block ends, and an outer
    product that carries each end into the next block."""
    if rate > -math.log(1e-290):
        return values.copy()
    block = 32
    powers = np.exp(-rate * np.arange(block + 1.0))
    powers[powers < 1e-290] = 0.0
    rows = -(-len(values) // block)
    padded = np.zeros(rows * block)
    padded[: len(values)] = values
    lag = np.subtract.outer(np.arange(block), np.arange(block))  # t - s
    inside = np.where(lag >= 0, powers[np.abs(lag)], 0.0)  # [t, s]
    sums = padded.reshape(rows, block) @ inside.T
    if rows > 1:
        ends = geometric_sum_every_point(sums[:, -1], rate * block)
        sums[1:] += np.outer(ends[:-1], powers[1:])
    return sums.reshape(-1)[: len(values)]


def gsbb_convolution_every_point(tails, rates_bps, grid_s, refine: int = 32) -> np.ndarray:
    """Tail probabilities of mcfifo.analytic.gsbb_bound_convolution with
    every exponential term, the last included, added at every fine point:
    the first tail tabulated on the fine grid, each further one as
    (1-T0)*cdf[i-k0] + T0*(1-r)*g[i-k0-1], g the geometric sum of cdf at
    ratio r = exp(-beta*h), and the sum read at the grid points shifted by
    the envelopes' bursts."""
    grid = np.asarray(grid_s, dtype=float)
    fine = _fine_grid(grid, refine)
    n, h = len(fine), float(fine[1])
    shift, cdf = 0.0, None
    for tail, capacity in zip(tails, rates_bps):
        if isinstance(tail, DeterministicEnvelope):
            shift += tail.burst_bits / capacity
            continue
        if cdf is None:
            cdf = 1.0 - tail.tail(fine * capacity)
            continue
        beta = tail.decay_per_bit * capacity
        k0 = 0
        if tail.prefactor > 1.0:
            lift = math.log(tail.prefactor)
            k0 = n if lift >= beta * h * n else min(n, int(lift / (beta * h)) + 1)
        out = np.zeros(n)
        if k0 < n:
            t0 = tail.tail(fine[k0] * capacity)
            out[k0:] = (1.0 - t0) * cdf[: n - k0]
            out[k0 + 1 :] += (t0 * -math.expm1(-beta * h)) * geometric_sum_every_point(
                cdf[: n - k0 - 1], beta * h
            )
        cdf = out
    if shift > 0.0:
        idx = np.floor((grid - shift) / (fine[1] - fine[0]) + 1e-9).astype(int)
        probs = np.where(idx < 0, 1.0, 1.0 - cdf[np.clip(idx, 0, n - 1)])
    else:
        probs = 1.0 - cdf[::refine]
    return np.minimum.accumulate(np.clip(probs, 0.0, 1.0))


#: Whether np.longdouble carries more precision than a double, as the x87
#: 80-bit format does; where it is a double, the long-double reference
#: checks nothing and its tests skip.
LONG_DOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < np.finfo(float).eps


def gsbb_convolution_long_double(tails, rates_bps, grid_s, refine: int = 32) -> np.ndarray:
    """Tail probabilities of mcfifo.analytic.gsbb_bound_convolution before
    its final clip, in long double and in the tail domain, at every fine point.

    Each exponential term's tail min(1, M*exp(-beta*h*i)) is evaluated at
    every fine index i in long double. The first term is the sum's tail z;
    each further term with its first index k0 below 1, tail t0 there and
    ratio r = exp(-beta*h) makes z[i] = 1 before k0 and, from k0 on,
    (1-t0)*z[i-k0] + t0*(1-r)*g[i-k0-1] + its own tail at i, g[l] being
    r*g[l-1] + z[l] (a long-double lfilter). No 1 - CDF is taken, so deep
    tails keep their relative precision. The result is read at the grid
    points shifted by the envelopes' bursts, 1 before the shift."""
    grid = np.asarray(grid_s, dtype=float)
    fine = _fine_grid(grid, refine)
    n = len(fine)
    index = np.arange(n, dtype=np.longdouble)
    wide = np.longdouble
    shift, z = 0.0, None
    for tail, capacity in zip(tails, rates_bps):
        if isinstance(tail, DeterministicEnvelope):
            shift += tail.burst_bits / capacity
            continue
        decay_h = wide(tail.decay_per_bit) * wide(capacity) * wide(fine[1])
        own = np.minimum(wide(1), wide(tail.prefactor) * np.exp(-decay_h * index))
        if z is None:
            z = own
            continue
        out = np.ones(n, dtype=np.longdouble)
        below = np.flatnonzero(own < 1)
        if len(below):
            k0 = int(below[0])
            t0 = own[k0]
            g = signal.lfilter([wide(1)], [wide(1), -np.exp(-decay_h)], z[: n - k0 - 1])
            out[k0:] = (1 - t0) * z[: n - k0] + own[k0:]
            out[k0 + 1 :] += t0 * -np.expm1(-decay_h) * g
        z = out
    if shift > 0.0:
        idx = np.floor((grid - shift) / (fine[1] - fine[0]) + 1e-9).astype(int)
        return np.where(idx < 0, wide(1), z[np.clip(idx, 0, n - 1)])
    return z[::refine]


def excess_mgf_sum(specs: Sequence[ClassSpec], share: float = 1.0) -> Callable[[float], float]:
    """mcfifo.analytic.excess_mgf with its per-class log-MGFs added by sum()
    over a generator, and +inf wherever theta reaches any exponential-size
    class's completion rate."""
    params = [
        (
            s.arrival_rate_hz,
            s.mean_service_s,
            s.service_completion_rate_hz if isinstance(s.size, ExponentialMean) else None,
        )
        for s in specs
    ]

    def mgf(theta: float) -> float:
        if any(mu is not None and theta >= mu for _, _, mu in params):
            return math.inf
        log_mgf = sum(
            lam * math.expm1(theta * y) if mu is None else lam * theta / (mu - theta)
            for lam, y, mu in params
        )
        return math.exp(log_mgf - theta * share)

    return mgf


def equalized_split(
    prefactors: np.ndarray, b: np.ndarray, budget: np.ndarray
) -> np.ndarray:
    """Minimum of sum_n M_n*exp(-b_n*p_n) over p_n >= 0 summing to budget,
    for each row of b (rows x classes).

    The optimum equalizes M_n*b_n*exp(-b_n*p_n) = nu over the classes with a
    positive share and gives no share to a class with M_n*b_n <= nu (the KKT
    conditions, as in water-filling). Each pass solves for nu on the active
    classes and pins every negative share to zero; nu only grows as classes
    are pinned, so a pinned class stays pinned and K classes need at most K
    passes.
    """
    log_mb = np.log(prefactors * b)
    # the largest M_n*b_n is at least nu, so its share is never negative in
    # exact arithmetic; keeping it guards a budget within rounding of zero
    keep = log_mb == log_mb.max(axis=1, keepdims=True)
    inv_b, log_mb_per_b = 1.0 / b, log_mb / b
    active = np.ones(b.shape, dtype=bool)
    for _ in range(b.shape[1]):
        weight = np.where(active, inv_b, 0.0).sum(axis=1)
        log_nu = (np.where(active, log_mb_per_b, 0.0).sum(axis=1) - budget) / weight
        share = (log_mb - log_nu[:, None]) / b
        pinned = active & ~keep & (share < 0.0)
        if not pinned.any():
            break
        active &= ~pinned
    share = np.where(active, share, 0.0)
    return np.clip((prefactors * np.exp(-b * share)).sum(axis=1), 0.0, 1.0)


def gsbb_split_every_pass(tails, rates_bps, grid_s) -> np.ndarray:
    """Tail probabilities of mcfifo.analytic.gsbb_split_curve by equalized_split
    on the grid points with tau > 0 whose budget, 1 - sum_n burst_n/(C_n*tau)
    over the deterministic envelopes, is >= 0; 1 elsewhere."""
    grid = np.asarray(grid_s, dtype=float)
    probs = np.ones_like(grid)
    positive = np.flatnonzero(grid > 0.0)
    tau = grid[positive]
    budget = np.ones_like(tau)
    prefactors, decays = [], []
    for tail, capacity in zip(tails, rates_bps):
        if isinstance(tail, DeterministicEnvelope):
            budget -= tail.burst_bits / (capacity * tau)
        elif tail.prefactor > 0.0:
            prefactors.append(tail.prefactor)
            decays.append(tail.decay_per_bit * capacity)
    fits = budget >= 0.0
    probs[positive[fits]] = (
        equalized_split(np.array(prefactors), np.outer(tau[fits], decays), budget[fits])
        if prefactors
        else 0.0
    )
    return probs


def horizon_run(config):
    """The case's run, drawn whole, cut at the horizon (the last arrival of
    the class that stops first) and merged by one stable sort."""
    counts = proportional_counts(config.specs, config.customers)
    path = generate_sequences(config.specs, counts, config.seed)
    horizon = min((seq.times_s[-1] for seq in path if len(seq)), default=0.0)
    cut = []
    for seq in path:
        if len(seq) == 0 or seq.times_s[0] > horizon:
            raise InvalidInputError(
                f"class {seq.class_id} has no arrivals before the horizon: raise customers"
            )
        count = int(np.searchsorted(seq.times_s, horizon, "right"))
        cut.append(ArrivalSequence(seq.class_id, seq.times_s[:count], seq.sizes_bits[:count]))
    return merge_streams(cut, config.rates())


def whole_run_simulation(config):
    """simulate_case computed whole: the FIFO run of the horizon run."""
    return run_fifo(horizon_run(config))


def _scan_chunks(merged, chunk):
    """The scan of a merged run, chunk customers at a time, with the
    backlog carried between chunks."""
    carry, after = (0.0, 0.0), -np.inf
    for lo in range(0, len(merged), chunk):
        a = merged.arrival_s[lo : lo + chunk]
        s = merged.service_s[lo : lo + chunk]
        _check_run(a, s, after)
        waits = np.empty(len(a))
        carry = _fifo_scan(a, s, waits, *carry)
        after = a[-1]
        yield slice(lo, lo + chunk), s, waits


def _whole_run_entries(config, source, segments, waiting, delay):
    """The empirical curves of a run's waits and delays in class order:
    each class's values from int(n_c * warmup) on, and the aggregate's
    from int(n * warmup) on, each sorted once and counted above the grid."""
    grid, warmup = config.grid(), config.warmup_fraction
    head = source[: int(len(source) * warmup)]
    aggregate = {"delay": [], "waiting": []}
    entries = {"delay": [], "waiting": []}
    for cid, start, n in segments:
        spec = next(s for s in config.specs if s.class_id == cid)
        waits = waiting[start : start + n]
        if isinstance(spec.size, Constant):
            delays = waits + spec.size.bits / spec.service_rate_bps
        else:
            delays = delay[start : start + n]
        e = int(np.count_nonzero((head >= start) & (head < start + n)))
        d = int(n * warmup)
        for metric, values in (("delay", delays), ("waiting", waits)):
            aggregate[metric].append(values[e:])
            kept = np.sort(values[d:])
            entries[metric].append(_counted_entry(
                f"sim_{metric}_c{cid}", metric, cid, grid, count_above(kept, grid), n - d
            ))
    out = []
    for metric in ("delay", "waiting"):
        kept = np.sort(np.concatenate(aggregate[metric]))
        out.append(_counted_entry(
            f"sim_{metric}", metric, None, grid, count_above(kept, grid), len(kept)
        ))
        out += entries[metric]
    return out


def whole_run_comparison(config, chunk: int = 2**16) -> ComparisonResult:
    """run_comparison computed whole: the horizon run merged by one stable
    sort, scanned chunk customers at a time, its waits and delays written
    back into class order, each class's values sorted once."""
    bound_entries, values = case_bound_entries(config)
    merged = horizon_run(config)
    source, segments = merged.source, merged.segments
    # the waits and delays in class order, each customer's at its source
    waiting, delay = np.empty(len(merged)), np.empty(len(merged))
    dd1 = "dd1_bound_s" in values
    limit, largest, over = values.get("dd1_bound_s", 0.0) + FLOAT_SLACK_S, -np.inf, 0
    for at, service, waits in _scan_chunks(merged, chunk):
        delays = waits + service
        waiting[source[at]] = waits
        delay[source[at]] = delays
        if dd1:
            largest = max(largest, float(delays.max()))
            over += int(np.count_nonzero(delays > limit))
    empirical = _whole_run_entries(config, source, segments, waiting, delay)
    violations = []
    if dd1:
        values["max_delay_s"] = largest
        values["delays_above_dd1"] = over
    else:
        targets = {(e.metric, e.class_id): e for e in empirical}
        violations = [_check_violations(b, targets[b.metric, b.class_id]) for b in bound_entries]
    curves = empirical + bound_entries
    if config.replications > 1 and not all(isinstance(s.arrival, Periodic) for s in config.specs):
        first = config.specs[0].class_id
        grid = config.grid()
        delays = transient_delays(config, (1, 10, 100), first, config.replications)
        for j, sample in delays.items():
            curves.append(_counted_entry(
                f"sim_delay_c{first}_j{j}", "delay", first, grid,
                count_above(np.sort(sample), grid), len(sample),
                note=f"delay of the {j}-th class-{first} customer",
            ))
    return ComparisonResult(config.case_id, analytic.stability(config.specs), values,
                            tuple(curves), tuple(violations))
