"""Analytical delay and waiting-time bounds for the multiclass FIFO queue.

Deterministic bounds come straight from rate/burst envelopes. Stochastic
bounds hinge on a decay rate: the largest theta for which one excess-work
condition, E[exp(theta*(sum_n A_n(1)/C_n - share))] <= 1, holds, where
A_n(1)/C_n is the service time brought by class n per unit time
(excess_mgf). Taken over all classes at share 1 it gives the aggregate rate,
whose waiting-time tail bound exp(-theta*tau) holds for independent classes;
delay tails follow by convolving with the service-time distribution. Taken
for one class at its rate share omega_n it gives that class's burst tail,
and the split of tau across those tails tolerates any dependence.

The two numerical convolutions run on a grid refined CONV_REFINE times,
with each mass at the right end of its fine cell, so they can only
understate a CDF and the tail bounds stay valid. Neither transforms the
fine grid. The convolution of exponential burst tails computes the tail of
their sum itself, not 1 - CDF, by a recurrence over the fine points that is
linear in a few states inside each grid step: one state update per grid
step, no fine-grid array, and sums of nonnegative terms, so the tail keeps
its relative precision far below 1e-16. A delay tail is one real-FFT
convolution of grid size, because the interpolated waiting CDF spreads each
grid cell's mass evenly over its fine steps. Both match the fine-grid
convolution up to rounding (about 1e-15).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConditionNotMetError,
    InvalidInputError,
    InvalidSpecError,
    NoPositiveRootError,
)
from .traffic import (
    ClassSpec,
    Constant,
    CoupledPoisson,
    DeterministicEnvelope,
    ExponentialMean,
    GsbbTail,
    Periodic,
    Poisson,
)

#: Relative width at which the decay-rate bisection stops.
ROOT_REL_TOL = 1e-12
#: Default refinement factor of the internal convolution grid: the number of
#: fine steps each grid step is cut into. The one-sided discretization
#: errors shrink with it; the cost of either convolution grows linearly.
CONV_REFINE = 32
#: Block length of the geometric prefix sums in _geometric_sum.
_SCAN_BLOCK = 32
#: Powers of a decay ratio below this are taken as 0 (no subnormal numbers).
_FLUSH_TO_ZERO = 1e-290
#: E[S^2]/Y^2 of a service time S with mean Y, by size kind.
_SECOND_MOMENT = {Constant: 1.0, ExponentialMean: 2.0}


def _check_decay_rate(rate: float) -> None:
    if not 0.0 < rate < math.inf:  # NaN fails too
        raise InvalidInputError(f"decay rate {rate} must be finite and > 0")


@dataclass(frozen=True)
class ThetaSolution:
    """A waiting-time decay rate with how it was obtained.

    residual is the excess-work condition value at theta_star minus one for
    exact roots (zero by convention for second-order approximations); bracket
    is the final bisection interval for exact roots.
    """

    theta_star: float
    method: str  # "exact-root" | "taylor-approx"
    residual: float
    bracket: tuple[float, float] | None = None

    def __post_init__(self):
        _check_decay_rate(self.theta_star)


@dataclass(frozen=True)
class BoundCurve:
    """Tail probabilities over a tau grid, from a bound or an empirical source."""

    grid_s: np.ndarray
    probs: np.ndarray
    label: str
    approximate: bool = False

    def __post_init__(self):
        grid = np.asarray(self.grid_s, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "grid_s", grid)
        object.__setattr__(self, "probs", probs)
        if grid.ndim != 1 or grid.shape != probs.shape:
            raise InvalidInputError("grid and probs must be 1-d arrays of equal length")
        if len(grid) == 0:
            return
        # min and max propagate NaN, so a NaN anywhere fails each comparison
        # it reaches; with finite ends, an inner inf makes a step <= 0 or NaN
        increasing = len(grid) == 1 or (grid[1:] - grid[:-1]).min() > 0
        if not (math.isfinite(grid[0]) and math.isfinite(grid[-1]) and increasing):
            raise InvalidInputError("grid must be finite and strictly increasing")
        if not (probs.min() >= -1e-12 and probs.max() <= 1 + 1e-12):
            raise InvalidInputError("probabilities must lie in [0, 1]")
        if len(probs) > 1 and (probs[1:] - probs[:-1]).max() > 1e-12:
            raise InvalidInputError("tail probabilities must be nonincreasing")


@dataclass(frozen=True)
class StabilityReport:
    """Utilization and the applicability conditions of the deterministic bounds."""

    rho: float
    multiclass_rate_condition: bool  # sum_n r_n/C_n <= 1
    cruz_condition: bool  # sum_n r_n <= min_n C_n


def stability(specs: Sequence[ClassSpec]) -> StabilityReport:
    """Utilization report; rates of stochastic classes are their mean rates."""
    if not specs:
        raise InvalidInputError("need at least one class")
    rho = sum(s.mean_rate_bps / s.service_rate_bps for s in specs)
    total_rate = sum(s.mean_rate_bps for s in specs)
    min_capacity = min(s.service_rate_bps for s in specs)
    return StabilityReport(
        rho=rho,
        multiclass_rate_condition=rho <= 1.0,
        cruz_condition=total_rate <= min_capacity,
    )


def _check_rates(tails: Sequence[GsbbTail], rates_bps: Sequence[float]) -> None:
    """At least one envelope or tail, each with a finite, positive service rate."""
    if not tails:
        raise InvalidInputError("need at least one envelope or tail")
    if len(tails) != len(rates_bps):
        raise InvalidInputError("need one service rate per envelope or tail")
    for capacity in rates_bps:
        if not 0.0 < capacity < math.inf:  # NaN fails too
            raise InvalidInputError(f"service rate {capacity} bps must be finite and > 0")


def bound_dd1(
    envelopes: Sequence[DeterministicEnvelope], rates_bps: Sequence[float]
) -> float:
    """Worst-case delay sum_n burst_n / C_n, valid when sum_n r_n/C_n <= 1."""
    _check_rates(envelopes, rates_bps)
    if sum(e.rate_bps / c for e, c in zip(envelopes, rates_bps)) > 1.0:
        raise ConditionNotMetError("sum of per-class rate shares exceeds 1")
    return sum(e.burst_bits / c for e, c in zip(envelopes, rates_bps))


def bound_cruz_aggregate(
    envelopes: Sequence[DeterministicEnvelope], rates_bps: Sequence[float]
) -> float | None:
    """Aggregate single-queue delay bound, or None when its condition fails.

    Treating the aggregate as one flow served at the slowest class rate gives
    sum_n burst_n / min_n C_n, but only under the much stronger condition
    sum_n r_n <= min_n C_n. None is the explicit not-applicable marker.
    """
    _check_rates(envelopes, rates_bps)
    min_capacity = min(rates_bps)
    if sum(e.rate_bps for e in envelopes) > min_capacity:
        return None
    return sum(e.burst_bits for e in envelopes) / min_capacity


def theta_exact(
    mgf_excess: Callable[[float], float], domain_hi: float | None = None
) -> ThetaSolution:
    """Largest theta with mgf_excess(theta) <= 1, by bracketing and bisection.

    mgf_excess must be the excess-work MGF: value 1 at theta=0, initial slope
    negative exactly when the load is below 1, convex, and eventually above 1
    (possibly +inf past a domain edge, which is treated as condition violated).
    The search doubles a bracket starting from theta=1, capped just below
    domain_hi when given, then bisects to relative width ROOT_REL_TOL. The
    returned theta is the feasible bracket end, so the residual is <= 0.
    """
    cap = None if domain_hi is None else domain_hi * (1.0 - 1e-12)

    def value(theta: float) -> float:
        try:
            v = mgf_excess(theta)
        except OverflowError:
            return math.inf
        return v if math.isfinite(v) else math.inf

    # Find a theta where the condition visibly holds; if none exists down to
    # an absurdly small theta, the load is at or above 1.
    lo = 1.0 if cap is None else min(1.0, cap / 2.0)
    while value(lo) >= 1.0 - 1e-12:
        lo /= 2.0
        if lo < 1e-290:
            raise NoPositiveRootError("no positive decay rate: load at or above 1")

    hi = 2.0 * lo
    if cap is not None:
        hi = min(hi, cap)
    while value(hi) <= 1.0:
        if cap is not None and hi >= cap:
            # condition holds all the way to the domain edge
            return ThetaSolution(hi, "exact-root", value(hi) - 1.0, (lo, hi))
        lo = hi
        hi = 2.0 * hi if cap is None else min(2.0 * hi, cap)
        if hi > 1e300:
            raise NoPositiveRootError("excess-work MGF never exceeds 1")

    while hi - lo > ROOT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if value(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
    return ThetaSolution(lo, "exact-root", value(lo) - 1.0, (lo, hi))


def _require_poisson_family(specs: Sequence[ClassSpec], size_kind: type) -> None:
    for s in specs:
        if not isinstance(s.arrival, (Poisson, CoupledPoisson)):
            raise InvalidSpecError(f"class {s.class_id}: Poisson arrivals required")
        if not isinstance(s.size, size_kind):
            raise InvalidSpecError(
                f"class {s.class_id}: size kind {size_kind.__name__} required"
            )


def second_order_theta(specs: Sequence[ClassSpec], share: float = 1.0) -> float:
    """2*(share-rho)/sum_n rate_n*E[S_n^2], the root of the excess-work
    condition with each class's log-MGF expanded to second order."""
    rho = sum(s.utilization for s in specs)
    if rho >= share:
        raise NoPositiveRootError(f"utilization {rho:.6g} is not below {share:.6g}")
    curvature = sum(
        s.arrival_rate_hz * s.mean_service_s**2 * _SECOND_MOMENT[type(s.size)] for s in specs
    )
    return 2.0 * (share - rho) / curvature


def excess_mgf(specs: Sequence[ClassSpec], share: float = 1.0) -> Callable[[float], float]:
    """The excess-work MGF E[exp(theta*(sum_n A_n(1)/C_n - share))] of Poisson
    classes, as a function of theta.

    Per class the unit-time work is compound Poisson, so its log-MGF is
    rate*(E[exp(theta*S)] - 1): rate*expm1(theta*Y) for constant sizes and
    rate*theta/(mu - theta) for exponential sizes, which is +inf at and past
    mu, so the root search treats it as condition violated. Share 1 is the
    aggregate condition; a class's rate share omega_n gives its own.
    """
    params = [
        (
            s.arrival_rate_hz,
            s.mean_service_s,
            s.service_completion_rate_hz if isinstance(s.size, ExponentialMean) else None,
        )
        for s in specs
    ]
    least_mu = min((mu for _, _, mu in params if mu is not None), default=math.inf)

    def mgf(theta: float) -> float:
        if theta >= least_mu:
            return math.inf
        log_mgf = 0.0
        for lam, y, mu in params:
            log_mgf += lam * math.expm1(theta * y) if mu is None else lam * theta / (mu - theta)
        return math.exp(log_mgf - theta * share)

    return mgf


#: The condition under the name of each size family, for callers that name it.
mgf_excess_constant_sizes = excess_mgf
mgf_excess_exponential_sizes = excess_mgf


def _decay_rates(
    specs: Sequence[ClassSpec], size_kind: type
) -> tuple[ThetaSolution, ThetaSolution]:
    _require_poisson_family(specs, size_kind)
    approx = ThetaSolution(second_order_theta(specs), "taylor-approx", 0.0)
    # excess_mgf is infinite from the least mu of the exponential-size classes on
    mus = [s.service_completion_rate_hz for s in specs if isinstance(s.size, ExponentialMean)]
    return theta_exact(excess_mgf(specs), domain_hi=min(mus, default=None)), approx


def theta_md1(specs: Sequence[ClassSpec]) -> tuple[ThetaSolution, ThetaSolution]:
    """Exact and second-order decay rates for Poisson/constant-size classes.

    The exact rate is the root of sum_n rate_n*(exp(theta*Y_n)-1) = theta.
    Expanding the exponential to second order gives the closed form
    2*(1-rho)/sum_n rate_n*Y_n^2, which always overestimates the exact root.
    """
    return _decay_rates(specs, Constant)


def theta_mm1(specs: Sequence[ClassSpec]) -> tuple[ThetaSolution, ThetaSolution]:
    """Exact and second-order decay rates for Poisson/exponential-size classes.

    The exact rate is the root of sum_n rate_n/(mu_n - theta) = 1 on
    (0, min_n mu_n); with E[S^2] = 2*Y^2 the second-order form is
    (1-rho)/sum_n rate_n*Y_n^2.
    """
    return _decay_rates(specs, ExponentialMean)


def waiting_bound_curve(
    theta: ThetaSolution | float,
    grid_s: np.ndarray,
    label: str | None = None,
) -> BoundCurve:
    """Waiting-time tail bound exp(-theta*tau), clamped to [0, 1]."""
    if isinstance(theta, ThetaSolution):
        rate, approximate = theta.theta_star, theta.method == "taylor-approx"
    else:
        rate, approximate = float(theta), False
        _check_decay_rate(rate)
    grid = np.asarray(grid_s, dtype=float)
    probs = np.clip(np.exp(-rate * grid), 0.0, 1.0)
    if label is None:
        label = f"waiting_exp_decay_{rate:.6g}"
    return BoundCurve(grid, probs, label, approximate=approximate)


def step_bound_curve(bound_s: float, grid_s: np.ndarray, label: str) -> BoundCurve:
    """Deterministic bound as a tail curve: 1 below the bound, 0 at and above
    (1 everywhere for +inf, no bound)."""
    if not bound_s >= 0:  # NaN fails too
        raise InvalidInputError(f"{label}: the bound must be >= 0, got {bound_s!r} s")
    grid = np.asarray(grid_s, dtype=float)
    probs = np.where(grid >= bound_s, 0.0, 1.0)
    return BoundCurve(grid, probs, label)


def _uniform_step(grid: np.ndarray) -> float:
    if len(grid) < 2:
        raise InvalidInputError("grid needs at least 2 points")
    steps = np.diff(grid)
    h = steps[0]
    if not (np.all(np.isfinite(steps)) and np.all(np.abs(steps - h) <= 1e-9 * abs(h))):
        raise InvalidInputError("convolution requires a finite, uniform grid")
    return float(h)


def _fine_step(grid: np.ndarray, refine: int) -> float:
    """The step of _fine_grid(grid, refine), which is not built: its point k
    is k*step, as np.linspace computes it, and its last point is grid[-1]."""
    _uniform_step(grid)
    if grid[0] != 0.0:
        raise InvalidInputError("convolution grid must start at 0")
    if refine < 1:
        raise InvalidInputError("refine must be >= 1")
    return grid[-1] / ((len(grid) - 1) * refine)


def _fine_grid(grid: np.ndarray, refine: int) -> np.ndarray:
    """The uniform grid from 0 with each step cut into `refine` steps."""
    _fine_step(grid, refine)
    return np.linspace(grid[0], grid[-1], (len(grid) - 1) * refine + 1)


def _fast_fft_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, the lengths real FFTs handle fastest."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # times the smallest power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _linear_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The first len(a) terms of the linear convolution of a and b, by real
    FFTs zero-padded to a fast length."""
    size = _fast_fft_len(len(a) + len(b) - 1)
    spectrum = np.fft.rfft(a, size) * np.fft.rfft(b, size)
    return np.fft.irfft(spectrum, size)[: len(a)]


def _geometric_sum(values: np.ndarray, rate: float) -> np.ndarray:
    """g[j] = sum_{l <= j} exp(-rate*(j - l)) * values[l], for rate > 0.

    The first-order recurrence g[j] = exp(-rate)*g[j-1] + values[j] is taken
    in blocks of _SCAN_BLOCK (Blelloch, "Prefix sums and their
    applications", 1990): one matmul with the block's lower-triangular
    powers gives the sums inside each block, and the same recurrence at
    rate*_SCAN_BLOCK over the block ends carries between blocks. Each power
    is its own exp, not a product of rounded ratios, whose error would grow
    with the lag. Powers below _FLUSH_TO_ZERO are taken as 0, so fast
    decays never compute with subnormal numbers.
    """
    if rate > -math.log(_FLUSH_TO_ZERO):  # every power past lag 0 flushes
        return values.copy()
    block = _SCAN_BLOCK
    powers = np.exp(-rate * np.arange(block + 1.0))
    powers[powers < _FLUSH_TO_ZERO] = 0.0
    rows = -(-len(values) // block)
    padded = np.zeros(rows * block)
    padded[: len(values)] = values
    lag = np.subtract.outer(np.arange(block), np.arange(block))  # t - s
    inside = np.where(lag >= 0, powers[np.abs(lag)], 0.0)  # [t, s]
    sums = padded.reshape(rows, block) @ inside.T
    if rows > 1:
        ends = _geometric_sum(sums[:, -1], rate * block)
        sums[1:] += np.outer(ends[:-1], powers[1:])
    return sums.reshape(-1)[: len(values)]


def _knee(prefactor: float, decay_h: float, size: int) -> int:
    """The first of `size` fine points where prefactor*exp(-decay_h*k) drops
    below 1, or size if it never does there.

    Rounding can put the knee one point off only where the tail there is
    within rounding of 1, which moves no mass by more than rounding; the
    quotient can round up to size even where the product compares below it.
    """
    if prefactor <= 1.0:
        return 0
    lift = math.log(prefactor)
    return size if lift >= decay_h * size else min(size, int(lift / decay_h) + 1)


def _tail_of_sum(
    knee_tails: Sequence[float], decays_h: Sequence[float], reads: range
) -> np.ndarray:
    """P(Y_1 + ... + Y_K > i) at the points i >= 0 of reads, for
    independent Y_n on the fine points with P(Y_n > j) = T_n*r_n**j, where
    T_n is knee_tails[n] and r_n = exp(-decays_h[n]).

    Y_n has the atom a_n = 1 - T_n at 0 and mass c_n*r_n**(j-1) at j >= 1,
    with c_n = T_n*(1 - r_n). So the tail z_n of the first n terms is
    z_1[i] = T_1*r_1**i and, for n >= 2,

        z_n[i] = a_n*z_{n-1}[i] + c_n*g_n[i-1] + T_n*r_n**i,
        g_n[i] = r_n*g_n[i-1] + z_{n-1}[i],  g_n[-1] = 0:

    sums of nonnegative terms, so rounding stays relative even where the
    tail is far below 1e-16. The reads split the points into blocks of
    reads.step points, each ending at a read: block 0 is 0 .. reads[0]
    (padded with blocks ahead of reads[0] when it is a step or more past
    0), and each later block starts after the previous read. Inside a
    block, z_n at each point is linear in the block's states: e_m =
    T_m*r_m**s at its first point s, for m <= n, and g_m at the point
    before it, for 2 <= m <= n. So one (step, 2n - 1) response matrix per
    term, built from the last by one product with a lower-triangular
    matrix of powers, gives z_n inside every block. Its r_n-weighted sum
    over each block is one number per block, and _geometric_sum at ratio
    r_n**step over those numbers gives g_n at every block end, which is
    the next block's state. Block 0 starts at 0, where every g_m is 0, and
    is read at its own row of the responses.
    """
    step = reads.step
    lead = reads.start // step  # blocks ahead of the first read
    last = reads.start - lead * step  # block 0's last point, < step
    blocks = lead + len(reads)
    offsets = np.arange(step, dtype=float)
    starts = np.arange(blocks) * step + (last + 1 - step)
    starts[0] = 0
    lag = np.subtract.outer(np.arange(step), np.arange(step)) - 1  # u - 1 - v
    states = response = None
    for knee_tail, decay_h in zip(knee_tails, decays_h):
        powers = np.exp(-decay_h * offsets)  # r**u
        powers[powers < _FLUSH_TO_ZERO] = 0.0
        first = knee_tail * np.exp(-decay_h * starts)
        if response is None:
            states, response = first[:, None], powers[:, None]
            continue
        sums = states @ (powers[::-1] @ response)
        sums[0] = states[0] @ (powers[last::-1] @ response[: last + 1])
        carried = np.zeros(blocks)
        carried[1:] = _geometric_sum(sums, decay_h * step)[:-1]
        spread = -math.expm1(-decay_h) * knee_tail  # c_n
        lower = np.where(lag >= 0, powers[np.maximum(lag, 0)], 0.0)  # r**(u-1-v), v < u
        response = np.column_stack(
            (
                (1.0 - knee_tail) * response + spread * (lower @ response),
                powers,
                spread * powers,
            )
        )
        states = np.column_stack((states, first, carried))
    out = states @ response[-1]
    out[0] = states[0] @ response[last]
    return out[lead:]


def delay_bound_convolve(
    service_cdf: float | Callable[[np.ndarray], np.ndarray],
    waiting_curve: BoundCurve,
    refine: int = CONV_REFINE,
    label: str | None = None,
) -> BoundCurve:
    """Delay tail bound 1 - F_service conv F_waiting on the waiting curve's grid.

    A real service_cdf (NumPy scalars too, not a bool) means a constant
    service time, which shifts the waiting curve right by that amount: a
    shift, linear between grid points, which stays above the convex tail. A
    callable is taken as the service-time CDF F_s and tabulated on the grid
    with each step cut into `refine` steps. The waiting CDF interpolates the
    curve linearly, so on that fine grid its mass is the atom F_w(0) and, on
    each fine step of cell q, dF_q/refine, placed at the step's right end
    (one-sided, so the result stays a valid upper bound; mass past the grid is
    dropped, which errs the same way). The delay CDF at grid point j is then
    F_w(0)*F_s(tau_j) plus the sum over q of dF_q*box[j-1-q]/refine, where box
    sums F_s over the fine points of each cell: one real-FFT convolution of
    grid size, exact up to rounding (about 1e-15) against the fine-grid
    convolution. This path returns 1 minus the delay CDF, so a delay tail
    below about 1e-16 (the CDF's rounding) reads 0.
    """
    grid = waiting_curve.grid_s
    wait_tail = waiting_curve.probs
    if label is None:
        label = waiting_curve.label + "_delay"

    if isinstance(service_cdf, bool):
        raise InvalidInputError("service_cdf must be a constant or a callable CDF, not a bool")
    if isinstance(service_cdf, numbers.Real):  # NumPy scalars too
        y = float(service_cdf)
        if not 0.0 <= y < math.inf:  # NaN fails too
            raise InvalidInputError(
                f"constant service time {y} s must be finite and >= 0"
            )
        _uniform_step(grid)  # only to reject a non-uniform grid
        probs = np.interp(grid - y, grid, wait_tail, left=1.0)
        return BoundCurve(grid, probs, label, waiting_curve.approximate)

    if not callable(service_cdf):
        raise InvalidInputError("service_cdf must be a constant or a callable CDF")
    fine = _fine_grid(grid, refine)
    f_service = np.asarray(service_cdf(fine), dtype=float)
    if f_service.shape != fine.shape:
        raise InvalidInputError(
            f"service_cdf returned shape {f_service.shape} for {len(fine)} points; "
            "it must return one value per point"
        )
    # max and min propagate NaN, so a NaN fails a check; with every step
    # >= 0 the least value is f_service[0], so the clip can move a value
    # only where one of these three reductions says so
    low, high = f_service[0], f_service.max()
    rise = (f_service[1:] - f_service[:-1]).min()  # the fine grid has >= 2 points
    if not (low >= -1e-12 and high <= 1.0 + 1e-12 and rise >= -1e-12):
        raise InvalidInputError("service_cdf is not a valid CDF")
    if low < 0.0 or high > 1.0 or rise < 0.0:
        f_service = np.clip(f_service, 0.0, 1.0)
    box = f_service[:-1].reshape(len(grid) - 1, refine).sum(axis=1)
    smeared = _linear_convolution(-np.diff(wait_tail), box) / refine
    f_delay = (1.0 - wait_tail[0]) * f_service[::refine]
    f_delay[1:] += smeared
    f_delay = np.maximum.accumulate(np.clip(f_delay, 0.0, 1.0))
    return BoundCurve(grid, 1.0 - f_delay, label, waiting_curve.approximate)


def _check_gsbb_rates(tails: Sequence[GsbbTail], rates_bps: Sequence[float]) -> None:
    _check_rates(tails, rates_bps)
    share = sum(t.rate_bps / c for t, c in zip(tails, rates_bps))
    if share > 1.0 + 1e-12:
        raise ConditionNotMetError(
            f"sum of reference-rate shares {share:.6g} exceeds 1"
        )


def gsbb_split_curve(
    tails: Sequence[GsbbTail],
    rates_bps: Sequence[float],
    grid_s: np.ndarray,
) -> BoundCurve:
    """Delay tail bound by the best split of tau across classes, over a grid.

    The delay is bounded by the sum of per-class backlog terms, each of which
    exceeds its share p_n*C_n*tau with probability tail_n(p_n*C_n*tau); the
    infimum runs over the probability simplex. Deterministic envelopes take
    exactly the share that zeroes their tails, which leaves the delay
    X = tau - sum_n burst_n/C_n to the exponential tails M_n*exp(-beta_n*x_n),
    beta_n = decay_per_bit*C_n, split as x_n >= 0 summing to X. The optimum
    equalizes M_n*beta_n*exp(-beta_n*x_n) over the classes with a positive
    share (the KKT conditions, as in water-filling), so it depends on X
    alone. With u_n = log(M_n*beta_n) sorted largest first, class k+1 joins
    at X_{k+1} = sum_{n<=k} (u_n - u_{k+1})/beta_n; while the first k classes
    share X, the bound is G(X) = W*exp((L - X)/W) + R, with W = sum 1/beta_n
    and L = sum u_n/beta_n over them and R the prefactors of the rest.
    Zero-prefactor tails vanish and take no share. The bound is 1 at tau <= 0
    and where the deterministic envelopes need more than the whole budget.
    """
    _check_gsbb_rates(tails, rates_bps)
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
    if not prefactors:
        probs[positive[fits]] = 0.0
        return BoundCurve(grid, probs, "gsbb_split")
    m, beta = np.array(prefactors), np.array(decays)
    u = np.log(m * beta)
    order = np.argsort(-u, kind="stable")
    u, beta, m = u[order], beta[order], m[order]
    # joins[j] is the leftover delay at which sorted class j + 1 (from 0)
    # takes a share, so k counts the joins passed and classes 0..k share it;
    # the running maximum keeps searchsorted well defined where ties round
    lags = np.tril(u[None, :-1] - u[1:, None]) / beta[:-1]
    joins = np.maximum.accumulate(lags.sum(axis=1))
    weight = np.cumsum(1.0 / beta)
    level = np.cumsum(u / beta)
    rest = np.append(np.cumsum(m[:0:-1])[::-1], 0.0)
    leftover = tau[fits] * budget[fits]
    k = np.searchsorted(joins, leftover, side="right")
    split = weight[k] * np.exp((level[k] - leftover) / weight[k]) + rest[k]
    probs[positive[fits]] = np.clip(split, 0.0, 1.0)
    return BoundCurve(grid, probs, "gsbb_split")


def gsbb_bound_convolution(
    tails: Sequence[GsbbTail],
    rates_bps: Sequence[float],
    grid_s: np.ndarray,
    refine: int = CONV_REFINE,
) -> BoundCurve:
    """Delay tail bound for independent classes by convolving per-class terms.

    Each class contributes a backlog term with tail tail_n(C_n*tau) in the
    delay variable; independence makes the sum's distribution their
    convolution. Deterministic envelopes are exact shifts. Every
    exponential term is discretized on the grid with each step cut into
    `refine` steps, each mass at the right end of its fine cell (one-sided,
    so the tail is never understated).
    A term with prefactor above 1 has no mass before its knee, the first
    fine point k0 where its tail drops below 1, and past it is the knee-free
    geometric term of _tail_of_sum delayed by k0; so the knees add to one
    delay, and every read moves back by it. _tail_of_sum then computes the
    tail of the sum itself, not 1 - CDF, at the points the curve reads, one
    state update per grid step; it matches the fine-grid convolution up to
    rounding, relative to the tail. A lone tail is tail_n at the read
    points. No fine-grid array is built. Under dependence only the split
    bound applies.
    """
    _check_gsbb_rates(tails, rates_bps)
    grid = np.asarray(grid_s, dtype=float)
    step = _fine_step(grid, refine)
    size = (len(grid) - 1) * refine + 1  # fine points

    def fine_points(k):
        """Fine points k, as np.linspace computes them."""
        return np.where(k == size - 1, grid[-1], k * step)

    shift = 0.0
    terms = []
    for tail, capacity in zip(tails, rates_bps):
        if isinstance(tail, DeterministicEnvelope):
            shift += tail.burst_bits / capacity
        else:
            terms.append((tail, capacity))
    if not terms:
        return step_bound_curve(shift, grid, "gsbb_convolution")

    # the fine points the curve reads: the grid's, or with a shift the
    # shifted grid's floored to the fine grid, so the tail is never understated
    if shift > 0.0:
        idx = np.floor((grid - shift) / step + 1e-9).astype(int)
    else:
        idx = np.arange(0, size, refine)
    delay, knee_tails, decays_h = 0, [], []
    if len(terms) > 1:
        for tail, capacity in terms:
            decay = tail.decay_per_bit * capacity
            knee = _knee(tail.prefactor, decay * step, size)
            delay += knee
            knee_tails.append(tail.tail(fine_points(knee) * capacity) if knee < size else 1.0)
            decays_h.append(decay * step)
        idx -= delay  # the reads before the knees keep tail 1, as those before the shift do
    kept = np.minimum(idx[idx >= 0], size - 1)
    probs = np.ones_like(grid)
    if len(terms) == 1:
        tail, capacity = terms[0]
        probs[idx >= 0] = tail.tail(fine_points(kept) * capacity)
    elif len(kept):
        first = int(kept[0])
        reads = range(first, first + refine * len(kept), refine)
        if np.any(np.diff(kept) != refine):  # rounding took a shifted point off the step
            reads = range(first, int(kept[-1]) + 1)
        probs[idx >= 0] = _tail_of_sum(knee_tails, decays_h, reads)[(kept - first) // reads.step]
    probs = np.minimum.accumulate(np.clip(probs, 0.0, 1.0))
    return BoundCurve(grid, probs, "gsbb_convolution")


def equalized_weights(specs: Sequence[ClassSpec], theta: float) -> np.ndarray:
    """Reference-rate shares that equalize all per-class decay rates.

    Each class's second-order decay rate is 2*(w_n - rho_n)/(rate_n*Y_n^2);
    setting w_n = rho_n + theta*rate_n*Y_n^2/2 makes every class decay at
    theta, and the shares sum to 1 exactly when theta is the second-order
    aggregate decay rate.
    """
    return np.array(
        [
            s.utilization + 0.5 * theta * s.arrival_rate_hz * s.mean_service_s**2
            for s in specs
        ]
    )


def bound_mstar_d1(specs: Sequence[ClassSpec], grid_s: np.ndarray) -> BoundCurve:
    """Dependence-free waiting bound N*exp(-theta*tau/N) for constant sizes.

    Valid for any dependence between the Poisson classes: each class's
    backlog term is bounded on its own with an equalized reference-rate
    share, and the equal split of tau across the N terms gives the curve.
    Marked approximate because the per-class decay uses the second-order
    form.
    """
    _require_poisson_family(specs, Constant)
    theta = second_order_theta(specs)
    weights = equalized_weights(specs, theta)
    if not math.isclose(float(weights.sum()), 1.0, rel_tol=1e-9):
        # they do by construction: a miss is a bug, not a bad config
        raise RuntimeError("equalized shares do not sum to 1")
    n = len(specs)
    grid = np.asarray(grid_s, dtype=float)
    probs = np.clip(n * np.exp(-theta * grid / n), 0.0, 1.0)
    return BoundCurve(grid, probs, "split_equal_constant_sizes", approximate=True)


def _split_periodic_mm(specs: Sequence[ClassSpec]) -> tuple[ClassSpec, ClassSpec]:
    if len(specs) != 2:
        raise InvalidSpecError("exactly two classes required")
    periodic = [s for s in specs if isinstance(s.arrival, Periodic)]
    stochastic = [
        s
        for s in specs
        if isinstance(s.arrival, (Poisson, CoupledPoisson))
        and isinstance(s.size, ExponentialMean)
    ]
    if len(periodic) != 1 or len(stochastic) != 1:
        raise InvalidSpecError(
            "need one periodic constant-size class and one Poisson "
            "exponential-size class"
        )
    return periodic[0], stochastic[0]


def theta_dmdm(specs: Sequence[ClassSpec]) -> ThetaSolution:
    """Decay rate for the mixed periodic/constant + Poisson/exponential pair.

    Folding the periodic class into the envelope leaves the stochastic class a
    reduced rate share 1 - rho_periodic, whose per-class condition solves in
    closed form to mu - rate/(1 - rho_periodic).
    """
    det, mm = _split_periodic_mm(specs)
    margin = 1.0 - det.utilization
    if margin <= 0.0:
        raise ConditionNotMetError("the periodic class alone saturates its rate")
    theta = mm.service_completion_rate_hz - mm.arrival_rate_hz / margin
    if theta <= 0.0:
        raise ConditionNotMetError(
            "no positive decay: the stochastic class overfills the leftover share"
        )
    residual = mm.arrival_rate_hz / (mm.service_completion_rate_hz - theta) - margin
    return ThetaSolution(theta, "exact-root", residual)


def bound_dmdm(
    specs: Sequence[ClassSpec], grid_s: np.ndarray, class_id: int
) -> BoundCurve:
    """Per-class waiting bound for the periodic + Poisson/exponential pair.

    The periodic class's waiting tail is bounded by exp(-theta*tau) directly.
    The stochastic class additionally waits out one periodic service time, so
    its curve is the same exponential shifted right by that service time,
    reported as a bound on the plain waiting tail.
    """
    det, mm = _split_periodic_mm(specs)
    theta = theta_dmdm(specs).theta_star
    grid = np.asarray(grid_s, dtype=float)
    shifts = {det.class_id: 0.0, mm.class_id: det.mean_service_s}
    if class_id not in shifts:
        raise InvalidSpecError(f"unknown class_id {class_id}")
    probs = np.clip(np.exp(-theta * (grid - shifts[class_id])), 0.0, 1.0)
    return BoundCurve(grid, probs, f"mixed_pair_waiting_c{class_id}")
