import math

import numpy as np
import pytest
from scipy import fft, integrate, signal

from mcfifo.analytic import (
    CONV_REFINE,
    BoundCurve,
    _convolve_cdfs_fine,
    _fast_fft_len,
    bound_cruz_aggregate,
    bound_dd1,
    bound_dmdm,
    bound_mstar_d1,
    delay_bound_convolve,
    equalized_weights,
    gsbb_bound_convolution,
    gsbb_bound_split,
    gsbb_split_curve,
    kingman_reference,
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
from mcfifo.experiments import preset
from mcfifo.traffic import (
    ClassSpec,
    Constant,
    DegenerateTail,
    DeterministicEnvelope,
    ExponentialMean,
    ExponentialTail,
    Poisson,
    deterministic_envelope,
)

# Bisection on sum(rate_n/(mu_n - theta)) = 1 run before this package was
# built (cross-checked against the closed-form quadratic root).
MM1_EXACT_ORACLE = 1215.410713195736

CASE1 = preset(1)
CASE2 = preset(2)
CASE3 = preset(3)
CASE4 = preset(4)
CASE6 = preset(6)


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


class TestThetaMd1:
    def test_case3_approximation(self):
        _, approx = theta_md1(CASE3.specs)
        assert approx.theta_star == pytest.approx(2702.7027027027, rel=1e-9)
        assert approx.method == "taylor-approx"

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

    def test_log_linear_and_nonincreasing(self):
        grid = np.linspace(0, 2e-3, 50)
        curve = waiting_bound_curve(2702.7, grid)
        assert np.all(np.diff(curve.probs) <= 0)
        logs = np.log(curve.probs)
        np.testing.assert_allclose(np.diff(logs), np.diff(logs)[0], rtol=1e-9)

    def test_prefactor_option(self):
        grid = np.array([0.0, 1e-3])
        curve = waiting_bound_curve(1000.0, grid, prefactor=2.0)
        assert curve.probs[0] == 1.0  # clamped
        assert curve.probs[1] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)


class TestConvolveCdfsFine:
    """The numpy real-FFT convolution against scipy's fftconvolve, which the
    package no longer imports; scipy is the test-only reference here."""

    @pytest.mark.parametrize(
        "n",
        [200 * CONV_REFINE + 1, 2000 * CONV_REFINE + 1, 7919],  # 7919 is prime
    )
    def test_bit_identical_to_fftconvolve(self, n):
        fine = np.linspace(0.0, 6e-3, n)
        cdf_a = -np.expm1(-2702.7 * fine)
        cdf_b = -np.expm1(-12500.0 * fine)
        mass_b = np.diff(cdf_b, prepend=0.0)
        reference = signal.fftconvolve(cdf_a, mass_b)[:n]
        reference = np.maximum.accumulate(np.clip(reference, 0.0, 1.0))
        got = _convolve_cdfs_fine(cdf_a, cdf_b)
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

    def test_zero_service_is_identity(self):
        grid = np.linspace(0.0, 1e-3, 500)
        wait = waiting_bound_curve(1000.0, grid)
        delay = delay_bound_convolve(0.0, wait)
        np.testing.assert_array_equal(delay.probs, wait.probs)

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


def _exp_tail(decay_per_s, capacity, prefactor=1.0):
    return ExponentialTail(
        rate_bps=0.4 * capacity, prefactor=prefactor, decay_per_bit=decay_per_s / capacity
    )


class TestGsbbSplit:
    def test_degenerate_tails_reproduce_the_deterministic_step(self):
        envs, rates = _case_envelopes(CASE1)
        tails = [
            DegenerateTail(e.rate_bps, e.burst_bits) for e in envs
        ]
        bound = bound_dd1(envs, rates)
        assert gsbb_bound_split(tails, rates, bound) == 0.0
        assert gsbb_bound_split(tails, rates, bound * 0.999) == 1.0
        assert gsbb_bound_split(tails, rates, bound * 1.5) == 0.0

    def test_single_tail_reduction(self):
        tail = _exp_tail(2000.0, 10e6)
        for tau in (1e-4, 5e-4, 2e-3):
            assert gsbb_bound_split([tail], [10e6], tau) == pytest.approx(
                min(1.0, tail.tail(10e6 * tau)), rel=1e-12
            )

    def test_two_identical_tails_split_evenly(self):
        capacity = 10e6
        eta = 3000.0 / capacity
        tails = [
            ExponentialTail(0.4 * capacity, 1.0, eta),
            ExponentialTail(0.4 * capacity, 1.0, eta),
        ]
        tau = 1.2e-3
        expected = 2.0 * math.exp(-eta * capacity * tau / 2.0)
        got = gsbb_bound_split(tails, [capacity, capacity], tau)
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
        got = gsbb_bound_split([t1, t2], [c1, c2], tau)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_three_tails_beat_equal_split(self):
        caps = [10e6, 20e6, 40e6]
        tails = [
            ExponentialTail(0.3 * c, 1.0, d / c)
            for d, c in zip((1000.0, 2500.0, 4000.0), caps)
        ]
        tau = 1.5e-3
        got = gsbb_bound_split(tails, caps, tau)
        equal = sum(t.tail(c * tau / 3.0) for t, c in zip(tails, caps))
        assert got <= equal + 1e-12

    def test_mixed_degenerate_and_exponential(self):
        c1, c2 = 10e6, 100e6
        det = DegenerateTail(8e6, 800.0)
        exp_tail = ExponentialTail(0.2 * c2, 1.0, 5000.0 / c2)
        tau = 1e-3
        # the degenerate class needs 800/(c1*tau) of the budget, the rest
        # goes to the exponential term
        residual = 1.0 - 800.0 / (c1 * tau)
        expected = math.exp(-5000.0 * residual * tau)
        got = gsbb_bound_split([det, exp_tail], [c1, c2], tau)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_rate_condition_enforced(self):
        tails = [ExponentialTail(8e6, 1.0, 1e-4), ExponentialTail(4e6, 1.0, 1e-4)]
        with pytest.raises(ConditionNotMetError):
            gsbb_bound_split(tails, [10e6, 10e6], 1e-3)

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
                    DegenerateTail(4e6, 2000.0),
                    ExponentialTail(5e6, 0.7, 6000.0 / 50e6),
                ],
                [10e6, 20e6, 50e6],
            ),
            (
                [
                    ExponentialTail(2e6, 1.0, 2500.0 / 10e6),
                    ExponentialTail(2e6, 0.0, 900.0 / 20e6),  # zero prefactor
                    DegenerateTail(1e6, 4000.0),
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
                if isinstance(t, DegenerateTail)
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
        tails = [_exp_tail(2000.0, 10e6), DegenerateTail(1e6, 0.0)]
        curve = gsbb_split_curve(tails, [10e6, 10e6], np.array([-1e-3, 0.0, 1e-3]))
        assert curve.probs[0] == 1.0 and curve.probs[1] == 1.0
        assert curve.probs[2] < 1.0

    def test_overdrawn_budget_gives_one(self):
        # the degenerate class alone needs 800/(10e6*tau) > 1 below 80 us
        tails = [DegenerateTail(8e6, 800.0), ExponentialTail(2e7, 1.0, 5000.0 / 100e6)]
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
            tails = [DegenerateTail(1e5, 5e5)] + [ExponentialTail(1e5, 0.2, decay / 1e6)] * 3
            assert gsbb_bound_split(tails, [1e6] * 4, 0.5) == pytest.approx(0.6, rel=1e-9)

    def test_one_exponential_tail_takes_the_whole_budget(self):
        tails = [DegenerateTail(8e6, 800.0), ExponentialTail(2e7, 0.6, 5000.0 / 100e6)]
        grid = np.linspace(1e-4, 2e-3, 20)
        curve = gsbb_split_curve(tails, [10e6, 100e6], grid)
        expected = 0.6 * np.exp(-5000.0 * (1.0 - 800.0 / (10e6 * grid)) * grid)
        np.testing.assert_allclose(curve.probs, expected, rtol=1e-12)

    def test_only_degenerate_or_zero_prefactor_tails_give_zero(self):
        tails = [DegenerateTail(8e6, 800.0), ExponentialTail(2e7, 0.0, 5e-5)]
        curve = gsbb_split_curve(tails, [10e6, 100e6], np.array([1e-4, 1e-3]))
        np.testing.assert_array_equal(curve.probs, [0.0, 0.0])

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_point_bound_is_the_curve_bit_for_bit(self, count):
        caps = [10e6, 20e6, 40e6, 20e6][:count]
        tails = [
            ExponentialTail(0.2 * c, m, d / c)
            for m, d, c in zip((1.0, 0.2, 1.0, 0.05), (1000.0, 2500.0, 4000.0, 9000.0), caps)
        ]
        grid = np.linspace(0.0, 4e-3, 101)
        curve = gsbb_split_curve(tails, caps, grid)
        points = np.array([gsbb_bound_split(tails, caps, tau) for tau in grid])
        assert points.tobytes() == curve.probs.tobytes()


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
        tails = [DegenerateTail(e.rate_bps, e.burst_bits) for e in envs]
        grid = np.linspace(0.0, 3e-4, 301)
        curve = gsbb_bound_convolution(tails, rates, grid)
        bound = bound_dd1(envs, rates)
        np.testing.assert_array_equal(curve.probs, np.where(grid >= bound, 0.0, 1.0))

    def test_dependence_refused(self):
        tails = [_exp_tail(1000.0, 10e6)] * 2
        with pytest.raises(ConditionNotMetError):
            gsbb_bound_convolution(tails, [10e6, 10e6], np.linspace(0, 1e-3, 10), independent=False)


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
    def test_mm1_closed_form(self):
        lam, mu = 1.0, 2.0
        solution, curve = kingman_reference(
            lambda s: lam / (lam - s) if s < lam else math.inf,
            lambda s: mu / (mu - s) if s < mu else math.inf,
            np.array([0.0, 1.0]),
            domain_hi=mu,
        )
        assert solution.theta_star == pytest.approx(1.0, rel=1e-9)
        assert curve.probs[0] == 1.0

    def test_matches_multiclass_solver_for_single_poisson_class(self):
        lam, y = 0.5, 1.0
        spec = ClassSpec(1, Poisson(lam), Constant(y), 1.0)
        multiclass = theta_exact(mgf_excess_constant_sizes([spec]))
        single, _ = kingman_reference(
            lambda s: lam / (lam - s) if s < lam else math.inf,
            lambda s: math.exp(s * y),
            np.array([0.0, 1.0]),
        )
        assert single.theta_star == pytest.approx(multiclass.theta_star, rel=1e-9)

    def test_unstable_raises(self):
        lam, mu = 2.0, 1.0
        with pytest.raises(NoPositiveRootError):
            kingman_reference(
                lambda s: lam / (lam - s) if s < lam else math.inf,
                lambda s: mu / (mu - s) if s < mu else math.inf,
                np.array([0.0, 1.0]),
                domain_hi=mu,
            )


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

    def test_step_curve(self):
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        curve = step_bound_curve(2.0, grid, "step")
        np.testing.assert_array_equal(curve.probs, [1.0, 1.0, 0.0, 0.0])
