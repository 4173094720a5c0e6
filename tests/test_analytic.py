import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import fft, integrate, signal

from mcfifo.analytic import (
    CONV_REFINE,
    BoundCurve,
    ThetaSolution,
    _fast_fft_len,
    _fine_grid,
    _geometric_sum,
    _linear_convolution,
    _tail_of_sum,
    bound_cruz_aggregate,
    bound_dd1,
    bound_dmdm,
    bound_mstar_d1,
    delay_bound_convolve,
    equalized_weights,
    excess_mgf,
    gsbb_bound_convolution,
    gsbb_split_curve,
    mgf_excess_constant_sizes,
    mgf_excess_exponential_sizes,
    stability,
    step_bound_curve,
    theta_dmdm,
    theta_exact,
    theta_md1,
    theta_mm1,
    waiting_bound_curve,
)
from mcfifo.errors import (
    ConditionNotMetError,
    InvalidInputError,
    NoPositiveRootError,
)
from mcfifo.experiments import DEFAULT_GRID_POINTS, case_bound_entries, preset
from mcfifo.traffic import (
    ClassSpec,
    Constant,
    DeterministicEnvelope,
    ExponentialMean,
    ExponentialTail,
    Periodic,
    Poisson,
    deterministic_envelope,
    gsbb_tail_from_mgf,
)
from reference import (
    LONG_DOUBLE_IS_WIDER,
    excess_mgf_sum,
    gsbb_convolution_every_point,
    gsbb_convolution_long_double,
    gsbb_split_every_pass,
)

# Bisection on sum(rate_n/(mu_n - theta)) = 1 run before this package was
# built (cross-checked against the closed-form quadratic root).
MM1_EXACT_ORACLE = 1215.410713195736

CASE1 = preset(1)
CASE2 = preset(2)
CASE3 = preset(3)
CASE4 = preset(4)
CASE5 = preset(5)
CASE6 = preset(6)
# a Poisson/constant-size mix of four classes
FOUR_CLASS_MIX = (
    ClassSpec(1, Poisson(1e4), Constant(800.0), 10e6),
    ClassSpec(2, Poisson(1e3), Constant(10_000.0), 100e6),
    ClassSpec(3, Poisson(2e3), Constant(4_000.0), 50e6),
    ClassSpec(4, Poisson(5e2), Constant(12_000.0), 20e6),
)


def _case_envelopes(config):
    return (
        [deterministic_envelope(s) for s in config.specs],
        [s.service_rate_bps for s in config.specs],
    )


class TestStability:
    def test_case1(self):
        report = stability(CASE1.specs)
        assert report.rho == pytest.approx(0.5, rel=1e-12)
        assert report.multiclass_rate_condition and report.cruz_condition

    def test_case2_cruz_fails(self):
        report = stability(CASE2.specs)
        assert report.rho == pytest.approx(0.9, rel=1e-12)
        assert report.multiclass_rate_condition
        assert not report.cruz_condition

    def test_no_class_rejected(self):
        with pytest.raises(InvalidInputError, match="^need at least one class$"):
            stability([])

    def test_full_single_class_is_boundary_stable(self):
        spec = ClassSpec(1, Poisson(1.0), Constant(1.0), 1.0)
        report = stability([spec])
        assert report.rho == pytest.approx(1.0)
        assert report.multiclass_rate_condition  # condition uses <=


class TestDeterministicBounds:
    def test_case1_values(self):
        envs, rates = _case_envelopes(CASE1)
        assert bound_dd1(envs, rates) == pytest.approx(1.4e-4, rel=1e-12)
        assert bound_cruz_aggregate(envs, rates) == pytest.approx(5.4e-4, rel=1e-12)

    def test_case2_values(self):
        envs, rates = _case_envelopes(CASE2)
        assert bound_dd1(envs, rates) == pytest.approx(1.8e-4, rel=1e-12)
        assert bound_cruz_aggregate(envs, rates) is None

    def test_zero_burst_gives_zero_bound(self):
        assert bound_dd1([DeterministicEnvelope(1.0, 0.0)], [2.0]) == 0.0

    def test_single_class_cruz_equals_dd1(self):
        env = [DeterministicEnvelope(5e6, 4000.0)]
        assert bound_cruz_aggregate(env, [10e6]) == bound_dd1(env, [10e6])

    def test_condition_violation_raises(self):
        with pytest.raises(ConditionNotMetError):
            bound_dd1([DeterministicEnvelope(2.0, 1.0)], [1.0])

    @pytest.mark.parametrize("bound", [bound_dd1, bound_cruz_aggregate])
    @pytest.mark.parametrize("capacity", [0.0, float("nan"), -1e6, float("inf")])
    def test_bad_capacity_rejected(self, bound, capacity):
        with pytest.raises(InvalidInputError, match=f"service rate {capacity} bps must be"):
            bound([DeterministicEnvelope(1e6, 800.0)], [capacity])

    @pytest.mark.parametrize("bound", [bound_dd1, bound_cruz_aggregate])
    def test_one_rate_per_envelope(self, bound):
        with pytest.raises(InvalidInputError, match="^need one service rate per envelope or tail$"):
            bound([DeterministicEnvelope(1e6, 800.0)] * 2, [10e6])

    @pytest.mark.parametrize(
        "bound",
        [
            bound_dd1,
            bound_cruz_aggregate,
            lambda tails, rates: gsbb_split_curve(tails, rates, np.linspace(0.0, 1e-3, 11)),
            lambda tails, rates: gsbb_bound_convolution(tails, rates, np.linspace(0.0, 1e-3, 11)),
        ],
        ids=["bound_dd1", "bound_cruz_aggregate", "gsbb_split_curve", "gsbb_bound_convolution"],
    )
    def test_no_envelope_or_tail_rejected(self, bound):
        with pytest.raises(InvalidInputError, match="^need at least one envelope or tail$"):
            bound([], [])


class TestThetaExact:
    def test_case4_mixture_matches_prebuild_oracle(self):
        solution = theta_exact(
            mgf_excess_exponential_sizes(CASE4.specs), domain_hi=1e4
        )
        assert solution.theta_star == pytest.approx(MM1_EXACT_ORACLE, rel=1e-6)

    def test_single_mm_closed_form(self):
        spec = ClassSpec(1, Poisson(1.0), ExponentialMean(1.0), 2.0)  # mu = 2
        solution = theta_exact(mgf_excess_exponential_sizes([spec]), domain_hi=2.0)
        assert solution.theta_star == pytest.approx(1.0, rel=1e-9)

    def test_critical_load_raises(self):
        spec = ClassSpec(1, Poisson(1.0), Constant(1.0), 1.0)  # rho = 1 exactly
        with pytest.raises(NoPositiveRootError):
            theta_exact(mgf_excess_constant_sizes([spec]))

    @pytest.mark.parametrize("config", [CASE3, CASE4])
    def test_supremum_property(self, config):
        if config is CASE3:
            mgf = mgf_excess_constant_sizes(config.specs)
            solution = theta_exact(mgf)
        else:
            mgf = mgf_excess_exponential_sizes(config.specs)
            solution = theta_exact(mgf, domain_hi=1e4)
        assert mgf(solution.theta_star) <= 1.0 + 1e-9
        assert mgf(solution.theta_star * (1.0 + 1e-6)) > 1.0


def _aggregate_constant(specs):
    """The aggregate condition for constant sizes, written out on its own."""
    params = [(s.arrival_rate_hz, s.mean_service_s) for s in specs]
    return lambda theta: math.exp(
        sum(lam * math.expm1(theta * y) for lam, y in params) - theta
    )


def _aggregate_exponential(specs):
    params = [(s.arrival_rate_hz, s.service_completion_rate_hz) for s in specs]

    def mgf(theta):
        if any(theta >= mu for _, mu in params):
            return math.inf
        return math.exp(sum(lam * theta / (mu - theta) for lam, mu in params) - theta)

    return mgf


def _one_class(spec, omega):
    """One class's condition at rate share omega."""
    lam, y, mu = spec.arrival_rate_hz, spec.mean_service_s, spec.service_completion_rate_hz
    if isinstance(spec.size, Constant):
        return lambda theta: math.exp(lam * math.expm1(theta * y) - theta * omega)
    return lambda theta: (
        math.inf if theta >= mu else math.exp(lam * theta / (mu - theta) - theta * omega)
    )


def _value(mgf, theta):
    """mgf(theta), or "overflow" where the exponential leaves the floats."""
    try:
        return mgf(theta)
    except OverflowError:
        return "overflow"


MGF_MIXES = {"p3": CASE3.specs, "p4": CASE4.specs, "p5": CASE5.specs, "c4": FOUR_CLASS_MIX}


class TestExcessMgf:
    """One body holds the condition of both size families, at any share. It
    adds the per-class log-MGFs in a loop, in the order that
    reference.excess_mgf_sum's sum() does, so every value and root is the
    same float."""

    def test_case3_equals_the_constant_size_formula(self):
        reference = _aggregate_constant(CASE3.specs)
        for theta in np.linspace(0.0, 6000.0, 61):
            assert _value(excess_mgf(CASE3.specs), theta) == _value(reference, theta)
        assert mgf_excess_constant_sizes is excess_mgf

    def test_case4_equals_the_exponential_size_formula(self):
        # class 2 completes at 1e4/s and class 1 at 1.25e4/s: +inf from 1e4 on
        reference = _aggregate_exponential(CASE4.specs)
        thetas = np.concatenate([np.linspace(0.0, 3000.0, 31), [9990.0, 1e4, 1.25e4, 2e4]])
        for theta in thetas:
            assert _value(excess_mgf(CASE4.specs), theta) == _value(reference, theta)
        assert excess_mgf(CASE4.specs)(1e4) == math.inf
        assert mgf_excess_exponential_sizes is excess_mgf

    @pytest.mark.parametrize("config", [CASE3, CASE4])
    def test_one_class_at_its_share(self, config):
        for spec in config.specs:
            edge = spec.service_completion_rate_hz
            for omega in np.linspace(spec.utilization + 0.01, 1.0, 7):
                mgf = excess_mgf([spec], omega)
                for theta in np.linspace(0.0, 1.2 * min(edge, 4e4), 25):
                    assert _value(mgf, theta) == _value(_one_class(spec, omega), theta)

    @pytest.mark.parametrize("mix", MGF_MIXES)
    def test_loop_is_the_sum_bit_for_bit(self, mix):
        specs = MGF_MIXES[mix]
        mus = [s.service_completion_rate_hz for s in specs if isinstance(s.size, ExponentialMean)]
        least_mu = min(mus, default=math.inf)
        thetas = list(np.linspace(0.0, 3e4, 601))
        if mus:
            thetas += [np.nextafter(least_mu, 0.0), least_mu, 1.5 * least_mu]
        for share in (1.0, 0.95):
            got, want = excess_mgf(specs, share), excess_mgf_sum(specs, share)
            for theta in thetas:
                assert _value(got, theta) == _value(want, theta), (share, theta)
                if theta >= least_mu:
                    assert got(theta) == math.inf

    @pytest.mark.parametrize("mix", MGF_MIXES)
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_aggregate_roots_unchanged(self, mix, rho):
        specs = _at_load(MGF_MIXES[mix], rho)
        exponential = isinstance(specs[0].size, ExponentialMean)
        exact, _ = (theta_mm1 if exponential else theta_md1)(specs)
        mus = [s.service_completion_rate_hz for s in specs] if exponential else []
        assert exact == theta_exact(excess_mgf_sum(specs), domain_hi=min(mus, default=None))

    @pytest.mark.parametrize("mix", ["p3", "p5", "c4"])
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_per_class_roots_unchanged(self, mix, rho):
        specs = _at_load(MGF_MIXES[mix], rho)
        tails, _ = _equalized_exact_tails(specs)
        for spec, tail in zip(specs, tails):
            omega = tail.rate_bps / spec.service_rate_bps
            want = theta_exact(excess_mgf_sum([spec], omega)).theta_star
            assert tail.decay_per_bit == want / spec.service_rate_bps


class TestThetaMd1:
    def test_case3_approximation(self):
        _, approx = theta_md1(CASE3.specs)
        assert approx.theta_star == pytest.approx(2702.7027027027, rel=1e-9)
        assert approx.method == "taylor-approx"

    @pytest.mark.parametrize("scale", [0.3, 0.7, 1.0])
    def test_approximation_is_the_closed_form(self, scale):
        specs = [
            ClassSpec(s.class_id, Poisson(s.arrival_rate_hz * scale), s.size, s.service_rate_bps)
            for s in CASE3.specs
        ]
        rho = sum(s.utilization for s in specs)
        curvature = sum(s.arrival_rate_hz * s.mean_service_s**2 for s in specs)
        assert theta_md1(specs)[1].theta_star == 2.0 * (1.0 - rho) / curvature

    def test_case3_exact_residual(self):
        exact, _ = theta_md1(CASE3.specs)
        assert exact.method == "exact-root"
        assert abs(exact.residual) <= 1e-9
        mgf = mgf_excess_constant_sizes(CASE3.specs)
        assert mgf(exact.theta_star) == pytest.approx(1.0, abs=1e-9)

    def test_vanishing_load_blows_up(self):
        def rate_for(lam):
            spec = ClassSpec(1, Poisson(lam), Constant(1.0), 1.0)
            return theta_md1([spec])[1].theta_star

        assert rate_for(1e-3) > rate_for(1e-2) > rate_for(1e-1)
        assert rate_for(1e-6) > 1e5

    def test_overload_raises(self):
        specs = [ClassSpec(1, Poisson(2.0), Constant(1.0), 1.0)]
        with pytest.raises(NoPositiveRootError):
            theta_md1(specs)


class TestThetaMm1:
    def test_case4_approximation(self):
        _, approx = theta_mm1(CASE4.specs)
        assert approx.theta_star == pytest.approx(1351.3513513514, rel=1e-9)

    @pytest.mark.parametrize("scale", [0.3, 0.7, 1.0])
    def test_approximation_is_the_closed_form(self, scale):
        # E[S^2] = 2*Y^2 turns the second-order root into (1-rho)/sum rate*Y^2
        specs = [
            ClassSpec(s.class_id, Poisson(s.arrival_rate_hz * scale), s.size, s.service_rate_bps)
            for s in CASE4.specs
        ]
        rho = sum(s.utilization for s in specs)
        curvature = sum(s.arrival_rate_hz * s.mean_service_s**2 for s in specs)
        assert theta_mm1(specs)[1].theta_star == (1.0 - rho) / curvature

    def test_case4_exact(self):
        exact, _ = theta_mm1(CASE4.specs)
        assert 0 < exact.theta_star < 1e4
        assert exact.theta_star == pytest.approx(MM1_EXACT_ORACLE, rel=1e-6)
        assert abs(exact.residual) <= 1e-9

    def test_single_class_closed_form(self):
        spec = ClassSpec(1, Poisson(3.0), ExponentialMean(1.0), 7.0)  # mu = 7
        exact, _ = theta_mm1([spec])
        assert exact.theta_star == pytest.approx(4.0, rel=1e-9)


class TestTaylorDirection:
    """The second-order roots always overestimate the exact roots.

    The margin grows as the load drops (the expansion point moves away from
    the root), so the bound on the ratio is frozen from measurement rather
    than a universal constant.
    """

    def _scaled(self, config, rho_target, exponential):
        scale = rho_target / 0.9
        specs = []
        for s in config.specs:
            arrival = Poisson(s.arrival_rate_hz * scale)
            specs.append(ClassSpec(s.class_id, arrival, s.size, s.service_rate_bps))
        return specs

    @pytest.mark.parametrize("rho", [0.5, 0.7, 0.9])
    def test_md1_overestimates(self, rho):
        specs = self._scaled(CASE3, rho, exponential=False)
        exact, approx = theta_md1(specs)
        assert approx.theta_star >= exact.theta_star * (1 - 1e-12)
        assert approx.theta_star <= exact.theta_star * 2.2

    @pytest.mark.parametrize("rho", [0.5, 0.7, 0.9])
    def test_mm1_overestimates(self, rho):
        specs = self._scaled(CASE4, rho, exponential=True)
        exact, approx = theta_mm1(specs)
        assert approx.theta_star >= exact.theta_star * (1 - 1e-12)
        assert approx.theta_star <= exact.theta_star * 2.2

    def test_case_load_ratios_frozen(self):
        exact3, approx3 = theta_md1(CASE3.specs)
        assert approx3.theta_star / exact3.theta_star == pytest.approx(1.0732, abs=0.01)
        exact4, approx4 = theta_mm1(CASE4.specs)
        assert approx4.theta_star / exact4.theta_star == pytest.approx(1.1118, abs=0.01)


class TestWaitingBoundCurve:
    def test_value_at_zero(self):
        curve = waiting_bound_curve(5000.0, np.linspace(0, 1e-3, 100))
        assert curve.probs[0] == 1.0

    def test_case3_value_at_one_ms(self):
        _, approx = theta_md1(CASE3.specs)
        curve = waiting_bound_curve(approx, np.array([0.0, 1e-3]))
        assert curve.probs[-1] == pytest.approx(0.0670, abs=1e-4)
        assert curve.approximate

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rate_not_finite_and_positive_rejected(self, rate):
        message = f"^decay rate {re.escape(str(rate))} must be finite and > 0$"
        with pytest.raises(InvalidInputError, match=message):
            waiting_bound_curve(rate, np.linspace(0, 1e-3, 10))
        with pytest.raises(InvalidInputError, match=message):
            ThetaSolution(rate, "exact-root", 0.0)

    def test_log_linear_and_nonincreasing(self):
        grid = np.linspace(0, 2e-3, 50)
        curve = waiting_bound_curve(2702.7, grid)
        assert np.all(np.diff(curve.probs) <= 0)
        logs = np.log(curve.probs)
        np.testing.assert_allclose(np.diff(logs), np.diff(logs)[0], rtol=1e-9)


class TestLinearConvolution:
    """The numpy real-FFT convolution against scipy's fftconvolve, which the
    package no longer imports; scipy is the test-only reference here."""

    @pytest.mark.parametrize(
        "n",
        [200 * CONV_REFINE + 1, 2000 * CONV_REFINE + 1, 7919],  # 7919 is prime
    )
    def test_bit_identical_to_fftconvolve(self, n):
        fine = np.linspace(0.0, 6e-3, n)
        cdf_a = -np.expm1(-2702.7 * fine)
        mass_b = np.diff(-np.expm1(-12500.0 * fine), prepend=0.0)
        reference = signal.fftconvolve(cdf_a, mass_b)[:n]
        got = _linear_convolution(cdf_a, mass_b)
        assert got.tobytes() == reference.tobytes()

    def test_fast_length_matches_scipy(self):
        ns = list(range(1, 20_001)) + [127_999, 128_001, 7919 * 2 - 1, 1_000_003]
        for n in ns:
            assert _fast_fft_len(n) == fft.next_fast_len(n, real=True), n


class TestDelayBoundConvolve:
    def test_constant_service_is_an_exact_shift(self):
        grid = np.linspace(0.0, 2e-3, 2001)  # step 1e-6, 100 us on-grid
        theta = 2702.7027
        wait = waiting_bound_curve(theta, grid)
        delay = delay_bound_convolve(100e-6, wait)
        expected = np.minimum(1.0, np.exp(-theta * (grid - 100e-6)))
        np.testing.assert_allclose(delay.probs, expected, rtol=1e-12)

    @pytest.mark.parametrize("eps", [5e-10, -5e-10, 0.0])
    def test_constant_shift_never_understates(self, eps):
        # shifts just past, just short of and exactly at a whole grid step
        grid = np.linspace(0.0, 6e-3, 2000)
        theta, y = 2700.0, (27 + eps) * grid[1]
        delay = delay_bound_convolve(y, waiting_bound_curve(theta, grid))
        exact = np.minimum(1.0, np.exp(-theta * (grid - y)))
        assert np.all(delay.probs >= exact * (1.0 - 1e-14))

    def test_on_grid_shift_is_an_index_shift(self):
        # case 3's service times of 80 and 100 us are 4 and 5 steps of 20 us
        config = replace(preset(3), grid_points=301)
        entries, _ = case_bound_entries(config)
        curves = {e.label: e.probs for e in entries}
        wait = curves["md1_waiting_exact"]
        h = config.grid()[1]
        for s in config.specs:
            k = round(s.mean_service_s / h)
            assert k == {1: 4, 2: 5}[s.class_id]
            shifted = np.concatenate((np.ones(k), wait[:-k]))
            delay = curves[f"md1_delay_exact_c{s.class_id}"]
            assert np.max(np.abs(delay - shifted)) <= 1.2e-16

    def test_zero_service_is_identity(self):
        grid = np.linspace(0.0, 1e-3, 500)
        wait = waiting_bound_curve(1000.0, grid)
        delay = delay_bound_convolve(0.0, wait)
        np.testing.assert_array_equal(delay.probs, wait.probs)

    @pytest.mark.parametrize("service", [np.int64(0), np.float32(1e-4)], ids=["int64", "float32"])
    def test_numpy_scalar_service_is_a_constant(self, service):
        wait = waiting_bound_curve(1000.0, np.linspace(0.0, 1e-3, 500))
        delay = delay_bound_convolve(service, wait)
        expected = delay_bound_convolve(float(service), wait)
        np.testing.assert_array_equal(delay.probs, expected.probs)

    def test_exponential_service_against_quadrature(self):
        # independent check: tail(tau) = 1 - int F_Y(tau - x) dF_W(x)
        theta, mu = 2702.7027, 1e4
        grid = np.linspace(0.0, 2e-3, 2001)
        wait = waiting_bound_curve(theta, grid)
        delay = delay_bound_convolve(
            lambda t: 1.0 - np.exp(-mu * np.maximum(t, 0.0)), wait, refine=64
        )

        def tail_quad(tau):
            integrand = lambda x: (1 - math.exp(-mu * (tau - x))) * theta * math.exp(
                -theta * x
            )
            val, _ = integrate.quad(integrand, 0.0, tau, limit=200)
            return 1.0 - val

        for k in (100, 400, 1000, 1600, 2000):
            assert delay.probs[k] == pytest.approx(tail_quad(grid[k]), abs=1e-4)

    def test_convolved_tail_never_below_truth(self):
        # the discretization direction must keep the bound valid
        theta, mu = 2000.0, 8000.0
        grid = np.linspace(0.0, 3e-3, 1501)
        wait = waiting_bound_curve(theta, grid)
        delay = delay_bound_convolve(
            lambda t: 1.0 - np.exp(-mu * np.maximum(t, 0.0)), wait, refine=16
        )
        exact = (mu * np.exp(-theta * grid) - theta * np.exp(-mu * grid)) / (mu - theta)
        assert np.all(delay.probs >= np.minimum(1.0, exact) - 1e-12)

    def test_invalid_cdf_rejected(self):
        grid = np.linspace(0.0, 1e-3, 100)
        wait = waiting_bound_curve(1000.0, grid)
        with pytest.raises(InvalidInputError):
            delay_bound_convolve(lambda t: -np.ones_like(t), wait)

    @pytest.mark.parametrize(
        "cdf",
        [
            lambda t: np.full_like(t, 2.0),  # read as zero service time before
            lambda t: np.minimum(1.0 + 1e-9, 1e4 * t),
            lambda t: np.where(t > 5e-4, np.nan, 0.0),
            lambda t: np.full_like(t, np.nan),
        ],
    )
    def test_values_above_one_or_nan_rejected(self, cdf):
        wait = waiting_bound_curve(1000.0, np.linspace(0.0, 1e-3, 100))
        with pytest.raises(InvalidInputError, match="service_cdf is not a valid CDF"):
            delay_bound_convolve(cdf, wait)

    def test_rounding_above_one_accepted(self):
        wait = waiting_bound_curve(1000.0, np.linspace(0.0, 1e-3, 100))
        delay = delay_bound_convolve(lambda t: np.minimum(1.0 + 1e-13, 1e4 * t), wait)
        assert np.all(delay.probs >= wait.probs - 1e-12)

    @pytest.mark.parametrize(
        "cdf",
        [
            lambda t: np.minimum(1.0 + 1e-13, 1e4 * t),  # above 1
            lambda t: np.minimum(1.0, 1e4 * t) - 1e-13,  # below 0 at the first point
            lambda t: np.where(t == t[1], -1e-13, np.minimum(1.0, 1e4 * t)),  # below 0 after it
            lambda t: -np.expm1(-2e4 * t),  # inside [0, 1] and nondecreasing
        ],
        ids=["above-one", "below-zero", "below-zero-inside", "exponential"],
    )
    def test_tolerated_rounding_is_clipped(self, cdf):
        wait = waiting_bound_curve(1000.0, np.linspace(0.0, 1e-3, 100))
        got = delay_bound_convolve(cdf, wait).probs
        want = delay_bound_convolve(lambda t: np.clip(cdf(t), 0.0, 1.0), wait).probs
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "service,message",
        [
            (float("nan"), "constant service time nan s must be finite and >= 0"),
            (float("inf"), "constant service time inf s must be finite and >= 0"),
            (-1e-4, "constant service time -0.0001 s must be finite and >= 0"),
            (True, "not a bool"),
            (lambda t: 0.5, r"returned shape \(\) for 3169 points"),
            (lambda t: np.zeros(len(t) - 1), r"returned shape \(3168,\) for 3169 points"),
            (np.bool_(True), "must be a constant or a callable CDF$"),
        ],
        ids=["nan", "inf", "negative", "bool", "scalar", "short", "numpy-bool"],
    )
    def test_bad_service_rejected(self, service, message):
        wait = waiting_bound_curve(1000.0, np.linspace(0.0, 1e-3, 100))
        with pytest.raises(InvalidInputError, match=message):
            delay_bound_convolve(service, wait)


def _exp_tail(decay_per_s, capacity, prefactor=1.0):
    return ExponentialTail(
        rate_bps=0.4 * capacity, prefactor=prefactor, decay_per_bit=decay_per_s / capacity
    )


class TestGsbbSplit:
    def test_degenerate_tails_reproduce_the_deterministic_step(self):
        envs, rates = _case_envelopes(CASE1)
        bound = bound_dd1(envs, rates)
        curve = gsbb_split_curve(envs, rates, np.array([bound * 0.999, bound, bound * 1.5]))
        assert curve.probs.tolist() == [1.0, 0.0, 0.0]

    def test_single_tail_reduction(self):
        tail = _exp_tail(2000.0, 10e6)
        taus = np.array([1e-4, 5e-4, 2e-3])
        curve = gsbb_split_curve([tail], [10e6], taus)
        for tau, got in zip(taus, curve.probs):
            assert got == pytest.approx(min(1.0, tail.tail(10e6 * tau)), rel=1e-12)

    def test_two_identical_tails_split_evenly(self):
        capacity = 10e6
        eta = 3000.0 / capacity
        tails = [
            ExponentialTail(0.4 * capacity, 1.0, eta),
            ExponentialTail(0.4 * capacity, 1.0, eta),
        ]
        tau = 1.2e-3
        expected = 2.0 * math.exp(-eta * capacity * tau / 2.0)
        got = gsbb_split_curve(tails, [capacity, capacity], np.array([tau])).probs[0]
        assert got == pytest.approx(expected, rel=1e-6)

    def test_two_tails_match_interior_equalization(self):
        # two unequal exponential tails against the interior
        # exponent-equalization solution written out by hand
        c1, c2 = 10e6, 100e6
        t1 = ExponentialTail(0.3 * c1, 1.0, 1500.0 / c1)
        t2 = ExponentialTail(0.3 * c2, 1.0, 4000.0 / c2)
        tau = 8e-4
        b1, b2 = 1500.0 * tau, 4000.0 * tau
        # interior equalization of M*b*exp(-b*p)
        log_nu = (
            math.log(b1) / b1 + math.log(b2) / b2 - 1.0
        ) / (1.0 / b1 + 1.0 / b2)
        p1 = (math.log(b1) - log_nu) / b1
        expected = math.exp(-b1 * p1) + math.exp(-b2 * (1 - p1))
        got = gsbb_split_curve([t1, t2], [c1, c2], np.array([tau])).probs[0]
        assert got == pytest.approx(expected, rel=1e-6)

    def test_three_tails_beat_equal_split(self):
        caps = [10e6, 20e6, 40e6]
        tails = [
            ExponentialTail(0.3 * c, 1.0, d / c)
            for d, c in zip((1000.0, 2500.0, 4000.0), caps)
        ]
        tau = 1.5e-3
        got = gsbb_split_curve(tails, caps, np.array([tau])).probs[0]
        equal = sum(t.tail(c * tau / 3.0) for t, c in zip(tails, caps))
        assert got <= equal + 1e-12

    def test_mixed_degenerate_and_exponential(self):
        c1, c2 = 10e6, 100e6
        det = DeterministicEnvelope(8e6, 800.0)
        exp_tail = ExponentialTail(0.2 * c2, 1.0, 5000.0 / c2)
        tau = 1e-3
        # the degenerate class needs 800/(c1*tau) of the budget, the rest
        # goes to the exponential term
        residual = 1.0 - 800.0 / (c1 * tau)
        expected = math.exp(-5000.0 * residual * tau)
        got = gsbb_split_curve([det, exp_tail], [c1, c2], np.array([tau])).probs[0]
        assert got == pytest.approx(expected, rel=1e-9)

    def test_rate_condition_enforced(self):
        tails = [ExponentialTail(8e6, 1.0, 1e-4), ExponentialTail(4e6, 1.0, 1e-4)]
        with pytest.raises(ConditionNotMetError):
            gsbb_split_curve(tails, [10e6, 10e6], np.array([1e-3]))

    @pytest.mark.parametrize("bound", [gsbb_split_curve, gsbb_bound_convolution])
    @pytest.mark.parametrize("capacity", [0.0, float("nan"), -1e6, float("inf")])
    def test_bad_capacity_rejected(self, bound, capacity):
        with pytest.raises(InvalidInputError, match=f"service rate {capacity} bps must be"):
            bound([ExponentialTail(1e5, 1.0, 1e-4)], [capacity], np.linspace(0.0, 1e-3, 11))

    @pytest.mark.parametrize(
        "prefactors,decays",
        [
            ((1.0, 1.0), (1500.0, 4000.0)),
            ((1.0, 0.01), (3000.0, 3000.0)),  # the small term gets no share early
            ((2.5, 0.3), (500.0, 20000.0)),
        ],
    )
    def test_two_tails_against_brute_force_split(self, prefactors, decays):
        caps = [10e6, 100e6]
        tails = [
            ExponentialTail(0.3 * c, m, d / c) for m, d, c in zip(prefactors, decays, caps)
        ]
        grid = np.linspace(0.0, 3e-3, 61)
        curve = gsbb_split_curve(tails, caps, grid)
        x = np.linspace(0.0, 1.0, 100_001)
        h = x[1] - x[0]
        (m1, m2), (d1, d2) = prefactors, decays
        for tau, got in zip(grid[1:], curve.probs[1:]):
            b1, b2 = d1 * tau, d2 * tau
            brute = np.min(m1 * np.exp(-b1 * x) + m2 * np.exp(-b2 * (1.0 - x)))
            # the grid misses the convex minimum by at most max f'' * h^2 / 8,
            # or not at all when the minimum sits at a vertex
            grid_error = (m1 * b1**2 + m2 * b2**2) * h**2 / 8.0
            assert got <= min(1.0, brute) + 1e-12
            assert got >= min(1.0, brute) - grid_error - 1e-12

    @pytest.mark.parametrize(
        "tails,caps",
        [
            (
                [
                    ExponentialTail(3e6, 1.0, 1000.0 / 10e6),
                    DeterministicEnvelope(4e6, 2000.0),
                    ExponentialTail(5e6, 0.7, 6000.0 / 50e6),
                ],
                [10e6, 20e6, 50e6],
            ),
            (
                [
                    ExponentialTail(2e6, 1.0, 2500.0 / 10e6),
                    ExponentialTail(2e6, 0.0, 900.0 / 20e6),  # zero prefactor
                    DeterministicEnvelope(1e6, 4000.0),
                    ExponentialTail(8e6, 3.0, 7000.0 / 40e6),
                ],
                [10e6, 20e6, 30e6, 40e6],
            ),
            (
                [
                    ExponentialTail(2e6, 1.0, 1000.0 / 10e6),
                    ExponentialTail(5e6, 0.2, 2500.0 / 20e6),
                    ExponentialTail(1e7, 1.0, 4000.0 / 40e6),
                    ExponentialTail(2e6, 0.05, 9000.0 / 20e6),
                ],
                [10e6, 20e6, 40e6, 20e6],
            ),
        ],
    )
    def test_many_tails_never_above_sampled_splits(self, tails, caps):
        grid = np.linspace(0.0, 4e-3, 41)
        curve = gsbb_split_curve(tails, caps, grid)
        exp_idx = [i for i, t in enumerate(tails) if isinstance(t, ExponentialTail)]
        rng = np.random.default_rng(5)
        # random points and vertices of the simplex left after each
        # degenerate class takes the share that zeroes its term
        k = len(exp_idx)
        shares = np.vstack([rng.dirichlet(np.ones(k), 20_000), np.eye(k)])
        for tau, got in zip(grid[1:], curve.probs[1:]):
            budget = 1.0 - sum(
                t.burst_bits / (c * tau)
                for t, c in zip(tails, caps)
                if isinstance(t, DeterministicEnvelope)
            )
            if budget < 0.0:
                assert got == 1.0
                continue
            value = sum(
                tails[i].tail(budget * shares[:, j] * caps[i] * tau)
                for j, i in enumerate(exp_idx)
            )
            assert got <= min(1.0, value.min()) + 1e-12

    def test_nonpositive_tau_gives_one(self):
        tails = [_exp_tail(2000.0, 10e6), DeterministicEnvelope(1e6, 0.0)]
        curve = gsbb_split_curve(tails, [10e6, 10e6], np.array([-1e-3, 0.0, 1e-3]))
        assert curve.probs[0] == 1.0 and curve.probs[1] == 1.0
        assert curve.probs[2] < 1.0

    def test_overdrawn_budget_gives_one(self):
        # the degenerate class alone needs 800/(10e6*tau) > 1 below 80 us
        tails = [DeterministicEnvelope(8e6, 800.0), ExponentialTail(2e7, 1.0, 5000.0 / 100e6)]
        grid = np.array([1e-5, 7.9e-5, 8e-5, 2e-4])
        curve = gsbb_split_curve(tails, [10e6, 100e6], grid)
        np.testing.assert_array_equal(curve.probs[:2], [1.0, 1.0])
        # a budget of about 0 leaves the whole prefactor
        assert curve.probs[2] == pytest.approx(1.0, abs=1e-12)
        assert curve.probs[3] == pytest.approx(
            math.exp(-5000.0 * (1.0 - 800.0 / (10e6 * 2e-4)) * 2e-4), rel=1e-12
        )

    def test_zero_budget_leaves_every_prefactor(self):
        # the degenerate class takes the whole budget at tau = 0.5 s exactly,
        # so identical exponential tails sit at the rounding edge of a zero
        # share and none may be lost to it
        for decay in np.linspace(100.0, 10_000.0, 50):
            tails = [DeterministicEnvelope(1e5, 5e5)] + [ExponentialTail(1e5, 0.2, decay / 1e6)] * 3
            probs = gsbb_split_curve(tails, [1e6] * 4, np.array([0.5])).probs
            assert probs[0] == pytest.approx(0.6, rel=1e-9)

    def test_one_exponential_tail_takes_the_whole_budget(self):
        tails = [DeterministicEnvelope(8e6, 800.0), ExponentialTail(2e7, 0.6, 5000.0 / 100e6)]
        grid = np.linspace(1e-4, 2e-3, 20)
        curve = gsbb_split_curve(tails, [10e6, 100e6], grid)
        expected = 0.6 * np.exp(-5000.0 * (1.0 - 800.0 / (10e6 * grid)) * grid)
        np.testing.assert_allclose(curve.probs, expected, rtol=1e-12)

    def test_only_degenerate_or_zero_prefactor_tails_give_zero(self):
        tails = [DeterministicEnvelope(8e6, 800.0), ExponentialTail(2e7, 0.0, 5e-5)]
        curve = gsbb_split_curve(tails, [10e6, 100e6], np.array([1e-4, 1e-3]))
        np.testing.assert_array_equal(curve.probs, [0.0, 0.0])

    @pytest.mark.parametrize("kind", ["random", "tied", "zero_prefactor", "envelopes"])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_closed_form_matches_water_filling(self, count, kind):
        rng = np.random.default_rng([count, len(kind)])
        tails, caps = _random_exponential_tails(rng, count, kind)
        shift = 0.0
        if kind == "envelopes":
            for burst, capacity in ((4000.0, 20e6), (12_000.0, 50e6)):
                tails.append(DeterministicEnvelope(0.05 * capacity, burst))
                caps.append(capacity)
                shift += burst / capacity
        grid = np.linspace(0.0, shift + 6e-3, 601)
        got = gsbb_split_curve(tails, caps, grid).probs
        want = gsbb_split_every_pass(tails, caps, grid)
        assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-15)

    @pytest.mark.parametrize("kind", ["random", "tied", "zero_prefactor"])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_closed_form_at_a_budget_of_zero(self, count, kind):
        # the envelope takes the whole budget at tau = 0.5 s exactly, and
        # within rounding of it a few ulps either side
        rng = np.random.default_rng([count, len(kind), 1])
        tails, caps = _random_exponential_tails(rng, count, kind)
        tails.append(DeterministicEnvelope(1e5, 5e5))
        caps.append(1e6)
        near = [0.5]
        for _ in range(4):
            near = [np.nextafter(near[0], 0.0)] + near + [np.nextafter(near[-1], 1.0)]
        grid = np.concatenate([[0.0, 0.25], near, 0.5 + np.linspace(1e-6, 6e-3, 60)])
        got = gsbb_split_curve(tails, caps, grid).probs
        want = gsbb_split_every_pass(tails, caps, grid)
        assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-15)
        # at a budget of 0 every prefactor is left
        assert got[list(grid).index(0.5)] == pytest.approx(
            min(1.0, sum(t.prefactor for t in tails[:-1])), rel=1e-12
        )

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_point_bound_is_the_curve_bit_for_bit(self, count):
        caps = [10e6, 20e6, 40e6, 20e6][:count]
        tails = [
            ExponentialTail(0.2 * c, m, d / c)
            for m, d, c in zip((1.0, 0.2, 1.0, 0.05), (1000.0, 2500.0, 4000.0, 9000.0), caps)
        ]
        grid = np.linspace(0.0, 4e-3, 101)
        curve = gsbb_split_curve(tails, caps, grid)
        points = np.array(
            [gsbb_split_curve(tails, caps, np.array([tau])).probs[0] for tau in grid]
        )
        assert points.tobytes() == curve.probs.tobytes()


def _random_exponential_tails(rng, count, kind):
    """count exponential tails with random prefactors, decays of 300 to
    3e4 per second and capacities: "tied" makes every second tail's
    M_n*beta_n equal the first's exactly (prefactor halved, decay doubled
    per step), "zero_prefactor" makes every second tail's prefactor 0."""
    caps = list(rng.choice([10e6, 20e6, 50e6, 100e6], count))
    prefactors = rng.uniform(0.05, 3.0, count)
    decays = np.exp(rng.uniform(math.log(300.0), math.log(3e4), count)) / caps
    for n in range(1, count, 2):
        if kind == "tied":
            caps[n] = caps[0]
            prefactors[n] = prefactors[0] * 0.5**n
            decays[n] = decays[0] * 2.0**n
        elif kind == "zero_prefactor":
            prefactors[n] = 0.0
    tails = [
        ExponentialTail(0.1 * c, float(m), float(d)) for m, d, c in zip(prefactors, decays, caps)
    ]
    return tails, [float(c) for c in caps]


class TestGsbbConvolution:
    def test_single_class_identity(self):
        capacity = 10e6
        tail = _exp_tail(2000.0, capacity)
        grid = np.linspace(0.0, 2e-3, 401)
        curve = gsbb_bound_convolution([tail], [capacity], grid)
        np.testing.assert_allclose(curve.probs, tail.tail(capacity * grid), atol=1e-12)

    def test_never_above_split_for_exponential_tails(self):
        caps = [10e6, 100e6]
        tails = [_exp_tail(1500.0, caps[0]), _exp_tail(4000.0, caps[1])]
        grid = np.linspace(0.0, 3e-3, 301)
        conv = gsbb_bound_convolution(tails, caps, grid, refine=64)
        split = gsbb_split_curve(tails, caps, grid)
        assert np.all(conv.probs <= split.probs + 1e-9)

    def test_deterministic_tails_form_the_step(self):
        envs, rates = _case_envelopes(CASE1)
        grid = np.linspace(0.0, 3e-4, 301)
        curve = gsbb_bound_convolution(envs, rates, grid)
        bound = bound_dd1(envs, rates)
        np.testing.assert_array_equal(curve.probs, np.where(grid >= bound, 0.0, 1.0))

    @pytest.mark.parametrize(
        "grid",
        [[0.0, np.inf], [0.0, 1e-3, np.inf], [0.0, np.nan, 2e-3], [0.0, 1e-3, 2.1e-3]],
    )
    def test_grid_must_be_finite_and_uniform(self, grid):
        with pytest.raises(InvalidInputError, match="requires a finite, uniform grid"):
            gsbb_bound_convolution([ExponentialTail(1e5, 1.0, 1e-4)], [1e7], np.array(grid))

    @pytest.mark.parametrize("shifted", [False, True])
    def test_lone_tail_is_its_tail_at_the_read_points_bit_for_bit(self, shifted):
        tails = [ExponentialTail(2e7, 3.0, 1500.0 / 100e6)]
        caps = [100e6]
        if shifted:  # 100 B at 10 Mbps: an 80 us shift, off the fine grid
            tails, caps = [DeterministicEnvelope(1e6, 800.0)] + tails, [10e6] + caps
        grid = np.linspace(0.0, 4e-3, 2000)
        got = gsbb_bound_convolution(tails, caps, grid).probs
        assert got.tobytes() == _lone_tail_at_reads(tails, caps, grid).tobytes()

    @pytest.mark.skipif(not LONG_DOUBLE_IS_WIDER, reason="np.longdouble is a double here")
    @pytest.mark.parametrize(
        "case",
        [f"{mix}@{rho}" for mix in ("p3", "p4", "c4") for rho in (0.1, 0.5, 0.9)]
        + ["knees", "knees-shifted"],
    )
    def test_tail_within_1e12_relative_of_long_double(self, case):
        # the deep tails reach 1e-100: a tail taken as 1 - CDF keeps none of it
        tails, caps, tau_max = _long_double_case(case)
        grid = np.linspace(0.0, tau_max, DEFAULT_GRID_POINTS)
        got = gsbb_bound_convolution(tails, caps, grid).probs
        want = gsbb_convolution_long_double(tails, caps, grid)
        positive = want > 0
        assert positive.any()
        error = np.abs(got[positive] - want[positive]) / want[positive]
        assert float(error.max()) <= 1e-12

    def test_bound_mixes_within_1e15_of_the_every_point_result(self):
        mixes = {
            "p3": (CASE3.specs, CASE3.tau_max_s),
            "p4": (CASE4.specs, CASE4.tau_max_s),
            "p6": (CASE6.specs, CASE6.tau_max_s),
            "c4": (FOUR_CLASS_MIX, CASE3.tau_max_s),
        }
        for mix, (specs, tau_max) in mixes.items():
            grid = np.linspace(0.0, tau_max, DEFAULT_GRID_POINTS)
            for rho in np.linspace(0.1, 0.9, 9):
                tails, caps = _equalized_exact_tails(_at_load(specs, rho))
                got = gsbb_bound_convolution(tails, caps, grid).probs
                want = gsbb_convolution_every_point(tails, caps, grid)
                if mix == "p6":  # one envelope and one exponential tail
                    assert got.tobytes() == _lone_tail_at_reads(tails, caps, grid).tobytes(), rho
                else:
                    assert np.max(np.abs(got - want)) <= 1e-15, (mix, rho)


def _long_double_case(case):
    """Tails, capacities and tau_max of a bound mix with two or more
    exponential tails at a load, "p3@0.5" say, or of tails with knees,
    unshifted or shifted."""
    mixes = {
        "p3": (CASE3.specs, CASE3.tau_max_s),
        "p4": (CASE4.specs, CASE4.tau_max_s),
        "c4": (FOUR_CLASS_MIX, CASE3.tau_max_s),
    }
    if "@" in case:
        mix, rho = case.split("@")
        specs, tau_max = mixes[mix]
        return (*_equalized_exact_tails(_at_load(specs, float(rho))), tau_max)
    caps = [10e6, 100e6, 50e6]
    tails = [
        ExponentialTail(0.2 * c, m, d / c)
        for c, m, d in zip(caps, (3.0, 40.0, 0.4), (1500.0, 4000.0, 2500.0))
    ]
    if case == "knees-shifted":
        tails, caps = [DeterministicEnvelope(1e6, 800.0)] + tails, [10e6] + caps
    return tails, caps, 4e-3


def _lone_tail_at_reads(tails, caps, grid):
    """One exponential tail after the envelopes' shift: tail.tail at the
    fine points the curve reads, the shifted grid floored to the fine grid
    (1 before the shift), clipped and made nonincreasing."""
    fine = _fine_grid(grid, CONV_REFINE)
    shift = sum(t.burst_bits / c for t, c in zip(tails, caps) if isinstance(t, DeterministicEnvelope))
    ((tail, capacity),) = [(t, c) for t, c in zip(tails, caps) if isinstance(t, ExponentialTail)]
    if shift > 0.0:
        reads = np.floor((grid - shift) / fine[1] + 1e-9).astype(int)
    else:
        reads = np.arange(0, len(fine), CONV_REFINE)
    probs = np.where(reads < 0, 1.0, tail.tail(fine[np.clip(reads, 0, len(fine) - 1)] * capacity))
    return np.minimum.accumulate(np.clip(probs, 0.0, 1.0))


def _at_load(specs, rho):
    """The class mix with arrival rates scaled to total utilization rho,
    coupled classes kept coupled."""
    k = rho / sum(s.utilization for s in specs)
    return [
        replace(
            s,
            arrival=replace(s.arrival, period_s=s.arrival.period_s / k)
            if isinstance(s.arrival, Periodic)
            else replace(s.arrival, rate_hz=s.arrival.rate_hz * k),
        )
        for s in specs
    ]


def _equalized_exact_tails(specs):
    """Exact per-class burst tails at the shares that equalize the
    second-order decay rates, with the classes' service rates."""
    rho = sum(s.utilization for s in specs)
    curvature = sum(s.arrival_rate_hz * s.mean_service_s**2 for s in specs)
    weights = equalized_weights(specs, 2.0 * (1.0 - rho) / curvature)
    tails = [
        gsbb_tail_from_mgf(s, w * s.service_rate_bps, method="exact")
        for s, w in zip(specs, weights)
    ]
    return tails, [s.service_rate_bps for s in specs]


def _tail_masses(tail, capacity, fine):
    """Masses of the CDF 1 - tail(C*t) on the fine grid, each at the right end
    of its cell: T(k-1) - T(k), with T(-1) = 1."""
    t = tail.tail(fine * capacity)
    return np.concatenate(([1.0], t[:-1])) - t


def _fine_fft_convolution(tails, caps, grid, refine):
    """gsbb_bound_convolution by fine-grid FFTs: every exponential tail
    tabulated on the refined grid and convolved by scipy."""
    fine = _fine_grid(grid, refine)
    shift, cdf = 0.0, None
    for tail, capacity in zip(tails, caps):
        if isinstance(tail, DeterministicEnvelope):
            shift += tail.burst_bits / capacity
        elif cdf is None:
            cdf = 1.0 - tail.tail(fine * capacity)
        else:
            cdf = signal.fftconvolve(cdf, _tail_masses(tail, capacity, fine))[: len(fine)]
            cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
    idx = np.floor((grid - shift) / fine[1] + 1e-9).astype(int)
    probs = np.where(idx < 0, 1.0, 1.0 - cdf[np.clip(idx, 0, len(fine) - 1)])
    return np.minimum.accumulate(np.clip(probs, 0.0, 1.0))


def _fine_fft_delay(service_cdf, wait, refine):
    """delay_bound_convolve's callable path by one fine-grid FFT: the
    interpolated waiting CDF against the service masses."""
    fine = _fine_grid(wait.grid_s, refine)
    f_wait = 1.0 - np.interp(fine, wait.grid_s, wait.probs)
    mass = np.diff(np.clip(service_cdf(fine), 0.0, 1.0), prepend=0.0)
    f_delay = signal.fftconvolve(f_wait, mass)[: len(fine)]
    return 1.0 - np.maximum.accumulate(np.clip(f_delay, 0.0, 1.0))[::refine]


class TestConvolutionKernels:
    """The geometric recurrence and the grid-size delay convolution against
    exact sums of the tabulated masses and the fine-grid FFTs they replace."""

    CAP = 10e6

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 1025, 40_000])
    @pytest.mark.parametrize("rate", [1e-6, 3e-4, 0.1, 30.0, 700.0])
    def test_geometric_sum_against_fsum(self, n, rate):
        values = np.random.default_rng(n).random(n)
        got = _geometric_sum(values, rate)
        assert got.shape == (n,)
        for j in sorted({0, 1, 31, 32, 33, n // 2, n - 1} & set(range(n))):
            want = math.fsum(np.exp(-rate * np.arange(j, -1.0, -1.0)) * values[: j + 1])
            assert got[j] == pytest.approx(want, rel=1e-13)

    def _second_term(self, tail, grid):
        """The convolution of the 1500/s unit tail and `tail` at every point
        of `grid`, which is its own fine grid (refine 1), and the first
        term's CDF -expm1(-1500*t) there."""
        first = ExponentialTail(0.2 * self.CAP, 1.0, 1500.0 / self.CAP)
        got = gsbb_bound_convolution([first, tail], [self.CAP, self.CAP], grid, refine=1)
        return got.probs, -np.expm1(-1500.0 * grid)

    # 5e8 and 5e9 per second decay so fast that exp(-beta*h)**32 underflows;
    # prefactor 0 is no term, 0.4 an atom at 0, 3 and 1e300 a knee past 0
    # (1e300 past the grid's end)
    @pytest.mark.parametrize("prefactor", [0.0, 0.4, 1.0, 3.0, 1e300])
    @pytest.mark.parametrize("decay_per_s", [2000.0, 5e8, 5e9])
    def test_one_term_against_fsum(self, prefactor, decay_per_s):
        fine = _fine_grid(np.linspace(0.0, 3e-3, 301), CONV_REFINE)
        tail = ExponentialTail(0.2 * self.CAP, prefactor, decay_per_s / self.CAP)
        got, cdf = self._second_term(tail, fine)
        mass = _tail_masses(tail, self.CAP, fine)
        for i in (0, 1, 2, 31, 32, 33, 1757, 1758, 5000, len(fine) - 1):
            want = 1.0 - math.fsum(mass[: i + 1] * cdf[i::-1])
            assert got[i] == pytest.approx(want, rel=0.0, abs=1e-12), i

    def test_knee_on_a_fine_point_against_fsum(self):
        # prefactor exp(beta*h*k) puts the knee within rounding of point k,
        # where the knee's first guess is often one point off
        fine = _fine_grid(np.linspace(0.0, 3e-3, 201), CONV_REFINE)
        rng = np.random.default_rng(2)
        for k, decay_per_s in zip(rng.integers(1, 5000, 40), rng.uniform(100.0, 5e4, 40)):
            prefactor = math.exp(decay_per_s * fine[1] * k)
            tail = ExponentialTail(0.2 * self.CAP, prefactor, decay_per_s / self.CAP)
            got, cdf = self._second_term(tail, fine)
            mass = _tail_masses(tail, self.CAP, fine)
            for i in (k - 1, k, k + 1, k + 2, k + 500):
                want = 1.0 - math.fsum(mass[: i + 1] * cdf[i::-1])
                assert got[i] == pytest.approx(want, rel=0.0, abs=1e-12), (k, i)

    def test_knee_within_rounding_of_the_grid_end(self):
        # log(prefactor) just below beta*h*n in the product, while the
        # quotient log(prefactor)/(beta*h) rounds to n: the knee is the end
        fine = _fine_grid(np.linspace(0.0, 3e-3, 201), CONV_REFINE)
        n = len(fine)
        hits = 0
        for decay_per_s in np.linspace(100.0, 5e4, 400):
            beta, h = decay_per_s / self.CAP * self.CAP, float(fine[1])
            prefactor = math.exp(beta * h * n)
            for _ in range(60):
                lift = math.log(prefactor)
                if lift < beta * h * n and int(lift / (beta * h)) + 1 > n:
                    break
                prefactor = math.nextafter(prefactor, 0.0)
            else:
                continue
            hits += 1
            tail = ExponentialTail(0.2 * self.CAP, prefactor, decay_per_s / self.CAP)
            got, cdf = self._second_term(tail, fine)
            mass = _tail_masses(tail, self.CAP, fine)
            for i in (0, n // 2, n - 1):
                want = 1.0 - math.fsum(mass[: i + 1] * cdf[i::-1])
                assert got[i] == pytest.approx(want, rel=0.0, abs=1e-12), (decay_per_s, i)
        assert hits > 0

    # refine sets the reads' stride in fine steps, an envelope of `start`
    # fine steps where the first falls, and the rates are per fine step
    @pytest.mark.parametrize("stride", [1, 2, 7, 32])
    @pytest.mark.parametrize("start", [0, 5, 31, 32, 100])
    @pytest.mark.parametrize("rate", [3e-4, 0.1, 30.0, 700.0])
    def test_reads_at_every_stride_and_start_against_fsum(self, stride, start, rate):
        grid = np.linspace(0.0, 2e-3, 2_000 // stride + 1)
        fine = _fine_grid(grid, stride)
        h = float(fine[1])
        tails = [
            DeterministicEnvelope(1e6, start * h * self.CAP),
            ExponentialTail(0.2 * self.CAP, 0.7, 0.05 / h / self.CAP),
            ExponentialTail(0.2 * self.CAP, 0.9, rate / h / self.CAP),
        ]
        got = gsbb_bound_convolution(tails, [self.CAP] * 3, grid, refine=stride).probs
        cdf = 1.0 - tails[1].tail(fine * self.CAP)
        mass = _tail_masses(tails[2], self.CAP, fine)
        reads = np.floor((grid - start * h) / h + 1e-9).astype(int)
        assert np.all(got[reads < 0] == 1.0)
        for j in np.flatnonzero(reads >= 0)[[0, 1, -1]]:
            i = reads[j]
            want = 1.0 - math.fsum(mass[: i + 1] * cdf[i::-1])
            assert got[j] == pytest.approx(want, rel=0.0, abs=1e-12), (j, i)

    @pytest.mark.parametrize("stride", [1, 2, 7, 32])
    @pytest.mark.parametrize("start", [0, 5, 31, 32, 100])
    def test_tail_of_sum_reads_are_its_every_point_values(self, stride, start):
        # a start a step or more past 0 puts blocks ahead of the first read
        knee_tails, decays_h = [0.7, 0.9, 1.0], [3e-4, 0.1, 30.0]
        got = _tail_of_sum(knee_tails, decays_h, range(start, 2_000, stride))
        want = _tail_of_sum(knee_tails, decays_h, range(2_000))[start::stride]
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("refine", [1, 32])
    @pytest.mark.parametrize("points", [2, 201])
    @pytest.mark.parametrize(
        "last",
        [
            # prefactor 3 at 4000/s: with refine 32 the knee is fine point
            # 440 of 201 grid points, and 3 of 2, neither on a grid point
            ExponentialTail(20e6, 3.0, 4000.0 / 100e6),
            ExponentialTail(20e6, 1e300, 4000.0 / 100e6),  # knee past the grid end
            ExponentialTail(20e6, 0.4, 5e9 / 100e6),  # r**refine underflows
        ],
        ids=["knee-off-grid", "knee-past-end", "ratio-underflows"],
    )
    def test_last_term_against_fine_fft(self, refine, points, last):
        tails, caps = [ExponentialTail(2e6, 1.0, 1500.0 / 10e6), last], [10e6, 100e6]
        grid = np.linspace(0.0, 4e-3, points)
        got = gsbb_bound_convolution(tails, caps, grid, refine=refine)
        want = _fine_fft_convolution(tails, caps, grid, refine)
        np.testing.assert_allclose(got.probs, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("points,knee", [(201, 440), (2, 3)])
    def test_knee_off_grid_is_off_the_grid(self, points, knee):
        fine = _fine_grid(np.linspace(0.0, 4e-3, points), 32)
        assert int(math.log(3.0) / (4000.0 * fine[1])) + 1 == knee < len(fine)

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("refine", [1, 32])
    @pytest.mark.parametrize("points", [2, 201])
    def test_shift_with_two_or_three_tails_against_fine_fft(self, count, refine, points):
        tails = [
            DeterministicEnvelope(1e6, 4_000.0),
            ExponentialTail(20e6, 1.0, 1500.0 / 100e6),
            ExponentialTail(10e6, 2.0, 3000.0 / 50e6),
            ExponentialTail(2e6, 0.7, 2500.0 / 20e6),
        ]
        caps = [10e6, 100e6, 50e6, 20e6]
        grid = np.linspace(0.0, 4e-3, points)
        got = gsbb_bound_convolution(tails[: count + 1], caps[: count + 1], grid, refine=refine)
        want = _fine_fft_convolution(tails[: count + 1], caps[: count + 1], grid, refine)
        np.testing.assert_allclose(got.probs, want, rtol=0.0, atol=1e-12)

    def test_shift_read_off_the_fine_step(self):
        # a grid uniform to 4e-10 of its step and a shift of 1000 fine steps:
        # the floored reads of the shifted grid are 31, 32 or 33 fine steps
        # apart, and the last term is taken at every fine point it spans
        grid = np.linspace(0.0, 4e-3, 201)
        grid[1:-1] += np.where(np.arange(1, 200) % 2, 2e-10, -2e-10) * grid[1]
        fine_step = _fine_grid(grid, CONV_REFINE)[1]
        shift = 1000 * fine_step
        reads = np.floor((grid - shift) / fine_step + 1e-9).astype(int)
        assert set(np.diff(reads[reads >= 0])) == {31, 32, 33}
        tails = [
            DeterministicEnvelope(1e6, shift * 10e6),
            ExponentialTail(20e6, 1.0, 1500.0 / 100e6),
            ExponentialTail(10e6, 2.0, 3000.0 / 50e6),
        ]
        caps = [10e6, 100e6, 50e6]
        got = gsbb_bound_convolution(tails, caps, grid).probs
        want = gsbb_convolution_every_point(tails, caps, grid)
        assert np.max(np.abs(got - want)) <= 1e-15
        np.testing.assert_allclose(
            got, _fine_fft_convolution(tails, caps, grid, CONV_REFINE), rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("refine", [1, 16, 32, 64])
    @pytest.mark.parametrize("points", [2, 201])
    def test_tails_against_fine_fft(self, count, refine, points):
        caps = [10e6, 100e6, 50e6, 20e6]
        tails = [
            ExponentialTail(0.2 * c, m, d / c)
            for c, m, d in zip(caps, [1.0, 0.4, 3.0, 0.0], [1500.0, 4000.0, 2500.0, 900.0])
        ]
        grid = np.linspace(0.0, 4e-3, points)
        got = gsbb_bound_convolution(tails[:count], caps[:count], grid, refine=refine)
        want = _fine_fft_convolution(tails[:count], caps[:count], grid, refine)
        np.testing.assert_allclose(got.probs, want, rtol=0.0, atol=1e-12)

    def test_shift_with_tails_against_fine_fft(self):
        caps = [10e6, 100e6, 50e6, 20e6]
        tails = [
            DeterministicEnvelope(1e6, 4_000.0),
            ExponentialTail(20e6, 1.0, 1500.0 / 100e6),
            ExponentialTail(10e6, 2.0, 3000.0 / 50e6),
            DeterministicEnvelope(2e6, 3_000.0),
        ]
        grid = np.linspace(0.0, 4e-3, 401)
        got = gsbb_bound_convolution(tails, caps, grid)
        want = _fine_fft_convolution(tails, caps, grid, CONV_REFINE)
        np.testing.assert_allclose(got.probs, want, rtol=0.0, atol=1e-12)
        assert np.all(got.probs[grid < 5.5e-4] == 1.0)  # 400 us + 150 us shift

    @pytest.mark.parametrize("refine", [1, 16, 32, 64])
    @pytest.mark.parametrize("points", [2, 301])
    @pytest.mark.parametrize("atom", [1.0, 0.6])  # P(W > 0); 0.6 leaves an atom at 0
    @pytest.mark.parametrize("service", ["exponential", "step"])
    def test_delay_against_fine_fft(self, refine, points, atom, service):
        grid = np.linspace(0.0, 3e-3, points)
        wait = BoundCurve(grid, atom * np.exp(-2000.0 * grid), "wait")
        if service == "exponential":
            cdf = lambda t: -np.expm1(-8000.0 * t)
        else:  # a constant 0.77 ms, off the grid, given as a CDF
            cdf = lambda t: (t >= 7.7e-4).astype(float)
        got = delay_bound_convolve(cdf, wait, refine=refine)
        want = _fine_fft_delay(cdf, wait, refine)
        np.testing.assert_allclose(got.probs, want, rtol=0.0, atol=1e-12)


class TestMstarSplitBound:
    def test_case5_value_at_one_ms(self):
        curve = bound_mstar_d1(preset(5).specs, np.array([0.0, 1e-3]))
        assert curve.probs[1] == pytest.approx(0.5178, abs=1e-3)
        assert curve.approximate

    def test_clamped_at_zero(self):
        curve = bound_mstar_d1(preset(5).specs, np.array([0.0, 1e-6]))
        assert curve.probs[0] == 1.0

    def test_single_class_reduces_to_waiting_curve(self):
        spec = ClassSpec(1, Poisson(1e4), Constant(800.0), 10e6)
        grid = np.linspace(0.0, 2e-3, 200)
        curve = bound_mstar_d1([spec], grid)
        _, approx = theta_md1([spec])
        expected = waiting_bound_curve(approx, grid)
        np.testing.assert_allclose(curve.probs, expected.probs, rtol=1e-12)

    def test_equalized_weights_sum_to_one_and_dominate_utilizations(self):
        specs = CASE3.specs
        rho = sum(s.utilization for s in specs)
        curvature = sum(s.arrival_rate_hz * s.mean_service_s**2 for s in specs)
        theta = 2.0 * (1.0 - rho) / curvature
        weights = equalized_weights(specs, theta)
        assert weights.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(weights > [s.utilization for s in specs])

    def test_shares_off_one_are_a_bug_not_a_config_error(self, tmp_path, monkeypatch):
        import mcfifo.analytic as analytic_mod
        from mcfifo.cli import main

        def short(specs, theta):
            weights = equalized_weights(specs, theta)
            return 0.9 * weights / weights.sum()

        monkeypatch.setattr(analytic_mod, "equalized_weights", short)
        with pytest.raises(RuntimeError, match="equalized shares do not sum to 1"):
            bound_mstar_d1(preset(5).specs, np.array([0.0, 1e-3]))
        # raised through the CLI, not turned into exit 2
        argv = ["compare", "--case", "5", "--customers", "2000", "--out", str(tmp_path)]
        with pytest.raises(RuntimeError, match="equalized shares do not sum to 1"):
            main(argv)


class TestBurstTailPipeline:
    """Per-class tails at equalized shares reproduce the closed-form curve."""

    def test_split_of_equalized_tails_matches_closed_form(self):
        from mcfifo.traffic import gsbb_tail_from_mgf

        specs = CASE3.specs
        rho = sum(s.utilization for s in specs)
        curvature = sum(s.arrival_rate_hz * s.mean_service_s**2 for s in specs)
        theta = 2.0 * (1.0 - rho) / curvature
        weights = equalized_weights(specs, theta)
        tails = [
            gsbb_tail_from_mgf(s, w * s.service_rate_bps, method="approx")
            for s, w in zip(specs, weights)
        ]
        rates = [s.service_rate_bps for s in specs]
        grid = np.linspace(0.0, 6e-3, 400)
        split = gsbb_split_curve(tails, rates, grid)
        closed = bound_mstar_d1(specs, grid)
        np.testing.assert_allclose(split.probs, closed.probs, atol=1e-12)

    def test_exact_tails_decay_near_the_aggregate_root(self):
        from mcfifo.traffic import gsbb_tail_from_mgf

        specs = CASE3.specs
        rho = sum(s.utilization for s in specs)
        curvature = sum(s.arrival_rate_hz * s.mean_service_s**2 for s in specs)
        weights = equalized_weights(specs, 2.0 * (1.0 - rho) / curvature)
        decays = []
        for s, w in zip(specs, weights):
            tail = gsbb_tail_from_mgf(s, w * s.service_rate_bps, method="exact")
            decays.append(tail.decay_per_bit * s.service_rate_bps)
        exact, _ = theta_md1(specs)
        for d in decays:
            assert d == pytest.approx(exact.theta_star, rel=0.02)


class TestDmdmBound:
    def test_case6_decay_rate(self):
        solution = theta_dmdm(CASE6.specs)
        assert solution.theta_star == pytest.approx(5000.0, rel=1e-12)
        assert abs(solution.residual) <= 1e-12

    def test_class2_curve_is_class1_shifted_by_one_service(self):
        grid = np.linspace(0.0, 3e-3, 400)
        c1 = bound_dmdm(CASE6.specs, grid, class_id=1)
        c2 = bound_dmdm(CASE6.specs, grid, class_id=2)
        y1 = CASE6.specs[0].mean_service_s
        assert y1 == pytest.approx(8e-5, rel=1e-12)
        expected = np.minimum(1.0, c1.probs * math.exp(5000.0 * y1))
        np.testing.assert_allclose(c2.probs, expected, rtol=1e-9)

    def test_zero_decay_boundary_raises(self):
        specs = (
            CASE6.specs[0],
            ClassSpec(2, Poisson(2000.0), ExponentialMean(10000.0), 100e6),
        )
        with pytest.raises(ConditionNotMetError):
            theta_dmdm(specs)


class TestKingmanReference:
    """The single-class waiting bound: theta_exact of
    E[exp(theta*service)] * E[exp(-theta*interarrival)], then waiting_bound_curve."""

    def test_mm1_closed_form(self):
        lam, mu = 1.0, 2.0

        def excess(t):
            service = mu / (mu - t) if t < mu else math.inf
            return service * (lam / (lam + t))

        solution = theta_exact(excess, domain_hi=mu)
        curve = waiting_bound_curve(solution, np.array([0.0, 1.0]))
        assert solution.theta_star == pytest.approx(1.0, rel=1e-9)
        assert curve.probs[0] == 1.0

    def test_matches_multiclass_solver_for_single_poisson_class(self):
        lam, y = 0.5, 1.0
        spec = ClassSpec(1, Poisson(lam), Constant(y), 1.0)
        multiclass = theta_exact(mgf_excess_constant_sizes([spec]))
        single = theta_exact(lambda t: math.exp(t * y) * (lam / (lam + t)))
        assert single.theta_star == pytest.approx(multiclass.theta_star, rel=1e-9)

    def test_unstable_raises(self):
        lam, mu = 2.0, 1.0

        def excess(t):
            service = mu / (mu - t) if t < mu else math.inf
            return service * (lam / (lam + t))

        with pytest.raises(NoPositiveRootError):
            theta_exact(excess, domain_hi=mu)


class TestBoundCurveValidation:
    def test_rejects_decreasing_grid(self):
        with pytest.raises(InvalidInputError):
            BoundCurve(np.array([0.0, 1.0, 0.5]), np.array([1.0, 0.5, 0.2]), "x")

    def test_rejects_increasing_probs(self):
        with pytest.raises(InvalidInputError):
            BoundCurve(np.array([0.0, 1.0]), np.array([0.5, 0.9]), "x")

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            BoundCurve(np.array([0.0, 1.0]), np.array([1.5, 0.5]), "x")

    @pytest.mark.parametrize(
        "grid,probs",
        [
            ([0.0, 1.0], [np.nan, np.nan]),
            ([np.nan, np.nan], [1.0, 0.5]),
            ([np.nan], [1.0]),
        ],
    )
    def test_rejects_nan(self, grid, probs):
        with pytest.raises(InvalidInputError):
            BoundCurve(np.array(grid), np.array(probs), "x")

    @pytest.mark.parametrize("grid", [[], [0.5]])
    def test_empty_and_one_point_curves_accepted(self, grid):
        curve = BoundCurve(np.array(grid), np.ones(len(grid)), "x")
        assert curve.grid_s.tolist() == grid

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_rejects_a_grid_point_not_finite(self, value, index):
        grid = np.linspace(0.0, 1.0, 5)
        grid[index] = value
        with pytest.raises(InvalidInputError, match="^grid must be finite and strictly increasing$"):
            BoundCurve(grid, np.linspace(1.0, 0.0, 5), "x")

    @pytest.mark.parametrize("grid", [[np.inf], [0.0, 0.0], [0.0, 1.0, 1.0]])
    def test_rejects_a_short_or_flat_grid(self, grid):
        with pytest.raises(InvalidInputError, match="^grid must be finite and strictly increasing$"):
            BoundCurve(np.array(grid), np.zeros(len(grid)), "x")

    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_rejects_nan_probability(self, index):
        probs = np.linspace(1.0, 0.0, 5)
        probs[index] = np.nan
        with pytest.raises(InvalidInputError, match=r"^probabilities must lie in \[0, 1\]$"):
            BoundCurve(np.linspace(0.0, 1.0, 5), probs, "x")

    @pytest.mark.parametrize("probs", [[0.5, -2e-12], [1.0 + 2e-12, 0.5], [-1.0]])
    def test_rejects_probability_out_of_range(self, probs):
        with pytest.raises(InvalidInputError, match=r"^probabilities must lie in \[0, 1\]$"):
            BoundCurve(np.arange(len(probs), dtype=float), np.array(probs), "x")

    def test_accepts_probabilities_within_rounding_of_the_range(self):
        BoundCurve(np.array([0.0, 1.0, 2.0]), np.array([1.0 + 1e-12, 0.5, -1e-12]), "x")

    @pytest.mark.parametrize("rise_at", [0, 2])
    def test_rejects_a_rise_of_2e12(self, rise_at):
        probs = np.array([0.75, 0.5, 0.25, 0.1])
        probs[rise_at + 1] = probs[rise_at] + 2e-12
        with pytest.raises(InvalidInputError, match="^tail probabilities must be nonincreasing$"):
            BoundCurve(np.linspace(0.0, 1.0, 4), probs, "x")

    def test_accepts_a_rise_of_1e12(self):
        BoundCurve(np.array([0.0, 1.0]), np.array([0.5, 0.5 + 1e-12]), "x")

    def test_step_curve(self):
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        curve = step_bound_curve(2.0, grid, "step")
        np.testing.assert_array_equal(curve.probs, [1.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("bound", [float("nan"), -1.0, float("-inf")])
    def test_step_curve_rejects_nan_and_negative_bounds(self, bound):
        # NaN read as a curve of 1s, -1 as a curve of 0s
        with pytest.raises(InvalidInputError, match=rf"^step: the bound must be >= 0, got {bound}"):
            step_bound_curve(bound, np.array([0.0, 1.0]), "step")

    def test_step_curve_of_no_bound_is_one(self):
        curve = step_bound_curve(float("inf"), np.array([0.0, 1.0]), "step")
        np.testing.assert_array_equal(curve.probs, [1.0, 1.0])
