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
fine grid: an exponential tail's term is a geometric recurrence over it,
and a delay tail is one real-FFT convolution of grid size, because the
interpolated waiting CDF spreads each grid cell's mass evenly over its fine
steps. Both match the fine-grid convolution up to rounding (about 1e-15).
"""

from __future__ import annotations

import math
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
    DegenerateTail,
    DeterministicEnvelope,
    ExponentialMean,
    ExponentialTail,
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
        if self.theta_star <= 0:
            raise InvalidInputError("decay rate must be positive")


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
        if not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
            raise InvalidInputError("grid must be finite and strictly increasing")
        if not np.all((probs >= -1e-12) & (probs <= 1 + 1e-12)):  # NaN fails too
            raise InvalidInputError("probabilities must lie in [0, 1]")
        if np.any(np.diff(probs) > 1e-12):
            raise InvalidInputError("tail probabilities must be nonincreasing")


@dataclass(frozen=True)
class StabilityReport:
    """Utilization and the applicability conditions of the deterministic bounds."""

    rho: float
    multiclass_rate_condition: bool  # sum_n r_n/C_n <= 1
    cruz_condition: bool  # sum_n r_n <= min_n C_n


def stability(specs: Sequence[ClassSpec]) -> StabilityReport:
    """Utilization report; rates of stochastic classes are their mean rates."""
    rho = sum(s.mean_rate_bps / s.service_rate_bps for s in specs)
    total_rate = sum(s.mean_rate_bps for s in specs)
    min_capacity = min(s.service_rate_bps for s in specs)
    return StabilityReport(
        rho=rho,
        multiclass_rate_condition=rho <= 1.0,
        cruz_condition=total_rate <= min_capacity,
    )


def bound_dd1(
    envelopes: Sequence[DeterministicEnvelope], rates_bps: Sequence[float]
) -> float:
    """Worst-case delay sum_n burst_n / C_n, valid when sum_n r_n/C_n <= 1."""
    if len(envelopes) != len(rates_bps):
        raise InvalidInputError("need one rate per envelope")
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
    if len(envelopes) != len(rates_bps):
        raise InvalidInputError("need one rate per envelope")
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
    for _ in range(2000):
        if value(lo) < 1.0 - 1e-12:
            break
        lo /= 2.0
        if lo < 1e-290:
            raise NoPositiveRootError("no positive decay rate: load at or above 1")
    else:
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

    def mgf(theta: float) -> float:
        if any(mu is not None and theta >= mu for _, _, mu in params):
            return math.inf
        log_mgf = sum(
            lam * math.expm1(theta * y) if mu is None else lam * theta / (mu - theta)
            for lam, y, mu in params
        )
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
    exponential = size_kind is ExponentialMean
    domain_hi = min(s.service_completion_rate_hz for s in specs) if exponential else None
    return theta_exact(excess_mgf(specs), domain_hi=domain_hi), approx


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
    if rate <= 0:
        raise InvalidInputError("decay rate must be positive")
    grid = np.asarray(grid_s, dtype=float)
    probs = np.clip(np.exp(-rate * grid), 0.0, 1.0)
    if label is None:
        label = f"waiting_exp_decay_{rate:.6g}"
    return BoundCurve(grid, probs, label, approximate=approximate)


def step_bound_curve(bound_s: float, grid_s: np.ndarray, label: str) -> BoundCurve:
    """Deterministic bound as a tail curve: 1 below the bound, 0 at and above."""
    grid = np.asarray(grid_s, dtype=float)
    probs = np.where(grid >= bound_s, 0.0, 1.0)
    return BoundCurve(grid, probs, label)


def _uniform_step(grid: np.ndarray) -> float:
    if len(grid) < 2:
        raise InvalidInputError("grid needs at least 2 points")
    steps = np.diff(grid)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise InvalidInputError("convolution requires a uniform grid")
    return float(h)


def _fine_grid(grid: np.ndarray, refine: int) -> np.ndarray:
    """The uniform grid from 0 with each step cut into `refine` steps."""
    _uniform_step(grid)
    if grid[0] != 0.0:
        raise InvalidInputError("convolution grid must start at 0")
    if refine < 1:
        raise InvalidInputError("refine must be >= 1")
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


def _add_exponential_term(
    cdf: np.ndarray, tail: ExponentialTail, capacity: float, fine: np.ndarray
) -> np.ndarray:
    """CDF on the fine grid of X + D, for X with CDF cdf and an independent D
    with CDF 1 - tail(C*t), whose mass in each fine cell sits at the cell's
    right end.

    D has no mass before its knee k0, the first fine point k where
    prefactor*exp(-beta*h*k) drops below 1; it has 1 - T0 at k0 (T0 the
    tail there) and T0*(1-r)*r**(k-k0-1) at each later point k, with
    r = exp(-beta*h) for decay beta per second and fine step h. So the
    convolution at point i is (1-T0)*cdf[i-k0] + T0*(1-r)*g[i-k0-1], with g
    the geometric sum of cdf at ratio r: a few passes over the grid, no FFT,
    and no tail evaluated past the knee.
    """
    n = len(cdf)
    h = float(fine[1])
    beta = tail.decay_per_bit * capacity
    # rounding can put the knee one point off only where the tail there is
    # within rounding of 1, which moves no mass by more than rounding; the
    # quotient can round up to n even where the product compares below it
    k0 = 0
    if tail.prefactor > 1.0:
        lift = math.log(tail.prefactor)
        k0 = n if lift >= beta * h * n else min(n, int(lift / (beta * h)) + 1)
    out = np.zeros(n)
    if k0 == n:  # the tail is 1 over the whole grid
        return out
    t0 = tail.tail(fine[k0] * capacity)
    out[k0:] = (1.0 - t0) * cdf[: n - k0]
    out[k0 + 1 :] += (t0 * -math.expm1(-beta * h)) * _geometric_sum(
        cdf[: n - k0 - 1], beta * h
    )
    return out


def delay_bound_convolve(
    service_cdf: float | Callable[[np.ndarray], np.ndarray],
    waiting_curve: BoundCurve,
    refine: int = CONV_REFINE,
    label: str | None = None,
) -> BoundCurve:
    """Delay tail bound 1 - F_service conv F_waiting on the waiting curve's grid.

    A float service_cdf means a constant service time, which shifts the
    waiting curve right by that amount exactly instead of smearing it through
    the grid. A callable is taken as the service-time CDF F_s and tabulated
    on the grid with each step cut into `refine` steps. The waiting CDF
    interpolates the curve linearly, so on that fine grid its mass is the
    atom F_w(0) and, on each fine step of cell q, dF_q/refine, placed at the
    step's right end (one-sided, so the result stays a valid upper bound;
    mass past the grid is dropped, which errs the same way). The delay CDF
    at grid point j is then F_w(0)*F_s(tau_j) plus the sum over q of
    dF_q*box[j-1-q]/refine, where box sums F_s over the fine points of
    each cell: one real-FFT convolution of grid size, exact up to rounding
    (about 1e-15) against the fine-grid convolution.
    """
    grid = waiting_curve.grid_s
    h = _uniform_step(grid)
    wait_tail = waiting_curve.probs
    if label is None:
        label = waiting_curve.label + "_delay"

    if isinstance(service_cdf, (int, float)):
        y = float(service_cdf)
        if y < 0:
            raise InvalidInputError("constant service time must be >= 0")
        shift = y / h
        if abs(shift - round(shift)) < 1e-9:
            k = int(round(shift))
            probs = np.ones_like(wait_tail)
            if k < len(wait_tail):
                probs[k:] = wait_tail[: len(wait_tail) - k]
        else:
            # off-grid shift: chords of the convex tail overestimate, so the
            # interpolated curve stays a valid bound
            probs = np.interp(
                grid - y, grid, wait_tail, left=1.0, right=float(wait_tail[-1])
            )
        return BoundCurve(grid, probs, label, waiting_curve.approximate)

    if not callable(service_cdf):
        raise InvalidInputError("service_cdf must be a constant or a callable CDF")
    fine = _fine_grid(grid, refine)
    f_service = np.asarray(service_cdf(fine), dtype=float)
    # NaN fails the upper check
    valid = f_service[0] >= -1e-12 and np.all(f_service <= 1.0 + 1e-12)
    if not valid or np.any(np.diff(f_service) < -1e-12):
        raise InvalidInputError("service_cdf is not a valid CDF")
    f_service = np.clip(f_service, 0.0, 1.0)
    box = f_service[:-1].reshape(len(grid) - 1, refine).sum(axis=1)
    smeared = _linear_convolution(-np.diff(wait_tail), box) / refine
    f_delay = (1.0 - wait_tail[0]) * f_service[::refine]
    f_delay[1:] += smeared
    f_delay = np.maximum.accumulate(np.clip(f_delay, 0.0, 1.0))
    return BoundCurve(grid, 1.0 - f_delay, label, waiting_curve.approximate)


def _check_gsbb_rates(tails: Sequence[GsbbTail], rates_bps: Sequence[float]) -> None:
    if len(tails) != len(rates_bps):
        raise InvalidInputError("need one service rate per tail")
    share = sum(t.rate_bps / c for t, c in zip(tails, rates_bps))
    if share > 1.0 + 1e-12:
        raise ConditionNotMetError(
            f"sum of reference-rate shares {share:.6g} exceeds 1"
        )


def _equalized_split(
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


def gsbb_split_curve(
    tails: Sequence[GsbbTail],
    rates_bps: Sequence[float],
    grid_s: np.ndarray,
) -> BoundCurve:
    """Delay tail bound by the best split of tau across classes, over a grid.

    The delay is bounded by the sum of per-class backlog terms, each of which
    exceeds its share p_n*C_n*tau with probability tail_n(p_n*C_n*tau); the
    infimum runs over the probability simplex. Degenerate tails take exactly
    the share that zeroes them; the remaining budget goes to the exponential
    tails by closed-form exponent equalization, for any number of classes.
    Zero-prefactor tails vanish and take no share. The bound is 1 at tau <= 0
    and where the degenerate tails need more than the whole budget.
    """
    _check_gsbb_rates(tails, rates_bps)
    grid = np.asarray(grid_s, dtype=float)
    probs = np.ones_like(grid)
    positive = np.flatnonzero(grid > 0.0)
    tau = grid[positive]
    budget = np.ones_like(tau)
    prefactors, decays = [], []
    for tail, capacity in zip(tails, rates_bps):
        if isinstance(tail, DegenerateTail):
            budget -= tail.burst_bits / (capacity * tau)
        elif tail.prefactor > 0.0:
            prefactors.append(tail.prefactor)
            decays.append(tail.decay_per_bit * capacity)
    fits = budget >= 0.0
    probs[positive[fits]] = (
        _equalized_split(np.array(prefactors), np.outer(tau[fits], decays), budget[fits])
        if prefactors
        else 0.0
    )
    return BoundCurve(grid, probs, "gsbb_split")


def gsbb_bound_split(
    tails: Sequence[GsbbTail], rates_bps: Sequence[float], tau_s: float
) -> float:
    """gsbb_split_curve at one tau."""
    return float(gsbb_split_curve(tails, rates_bps, np.array([tau_s])).probs[0])


def gsbb_bound_convolution(
    tails: Sequence[GsbbTail],
    rates_bps: Sequence[float],
    grid_s: np.ndarray,
    refine: int = CONV_REFINE,
) -> BoundCurve:
    """Delay tail bound for independent classes by convolving per-class CDFs.

    Each class contributes a backlog term with CDF 1 - tail_n(C_n*tau) in the
    delay variable; independence lets the sum's CDF be their convolution.
    Degenerate tails are exact shifts. The first exponential tail is
    tabulated on the grid with each step cut into `refine` steps, each mass
    at the right end of its fine cell (one-sided: the CDF is understated,
    and mass past the grid is dropped, which errs the same way). Every
    further exponential tail adds its term by a geometric recurrence in O(n)
    (_add_exponential_term), which is the fine-grid convolution up to
    rounding (about 1e-15). Under dependence only the split bound applies.
    """
    _check_gsbb_rates(tails, rates_bps)
    grid = np.asarray(grid_s, dtype=float)
    fine = _fine_grid(grid, refine)

    shift = 0.0
    f_total: np.ndarray | None = None
    for tail, capacity in zip(tails, rates_bps):
        if isinstance(tail, DegenerateTail):
            shift += tail.burst_bits / capacity
            continue
        if f_total is None:
            f_total = 1.0 - tail.tail(fine * capacity)
        else:
            f_total = _add_exponential_term(f_total, tail, capacity, fine)

    if f_total is None:
        return step_bound_curve(shift, grid, "gsbb_convolution")
    if shift > 0.0:
        # evaluate the shifted CDF at grid points, flooring to the fine grid
        # so the CDF is never overstated
        idx = np.floor((grid - shift) / (fine[1] - fine[0]) + 1e-9).astype(int)
        probs = np.where(idx < 0, 1.0, 1.0 - f_total[np.clip(idx, 0, len(fine) - 1)])
    else:
        probs = 1.0 - f_total[::refine]
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
        raise InvalidInputError("equalized shares do not sum to 1")
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
    if class_id == det.class_id:
        probs = np.clip(np.exp(-theta * grid), 0.0, 1.0)
    elif class_id == mm.class_id:
        probs = np.clip(np.exp(-theta * (grid - det.mean_service_s)), 0.0, 1.0)
    else:
        raise InvalidSpecError(f"unknown class_id {class_id}")
    return BoundCurve(grid, probs, f"mixed_pair_waiting_c{class_id}")


def kingman_reference(
    interarrival_mgf: Callable[[float], float],
    service_mgf: Callable[[float], float],
    grid_s: np.ndarray,
    domain_hi: float | None = None,
) -> tuple[ThetaSolution, BoundCurve]:
    """Single-class waiting bound from the service-minus-interarrival MGF.

    The decay rate is the largest theta with
    E[exp(theta*service)] * E[exp(-theta*interarrival)] <= 1, found with the
    same bracketing bisection; the curve is exp(-theta*tau). Provided for
    single-class comparison against the multiclass machinery.
    """

    def mgf_excess(theta: float) -> float:
        return service_mgf(theta) * interarrival_mgf(-theta)

    solution = theta_exact(mgf_excess, domain_hi=domain_hi)
    curve = waiting_bound_curve(solution, grid_s, label="single_class_reference")
    return solution, curve
