import math
from dataclasses import replace

import numpy as np
import pytest

from mcfifo.analytic import theta_md1
from mcfifo.errors import InvalidInputError
from mcfifo.experiments import preset
from mcfifo.oracle import samplepath_bounds_all, virtual_waits_at_arrivals
from mcfifo.simulator import merge_streams, run_fifo
from mcfifo.traffic import (
    ArrivalSequence,
    ClassSpec,
    Constant,
    ExponentialMean,
    Poisson,
    generate_sequences,
    proportional_counts,
)
from reference import mgf_monte_carlo, samplepath_delay_bound, virtual_wait_direct


def _seq(class_id, times, sizes):
    return ArrivalSequence(class_id, np.asarray(times, float), np.asarray(sizes, float))


def _case_sequences(case_id, customers, seed=None):
    config = preset(case_id)
    if seed is not None:
        config = replace(config, seed=seed)
    counts = proportional_counts(config.specs, customers)
    return generate_sequences(config.specs, counts, config.seed), config.rates()


class TestVirtualWaitDirect:
    def test_empty_history(self):
        result = virtual_wait_direct([_seq(1, [5.0], [1.0])], {1: 1.0}, t_s=2.0)
        assert result.supremum_s == 0.0
        assert result.window_start_s == 2.0

    def test_single_arrival_hand_value(self):
        # service 0.5 s at time 1, queried at 1.2: 0.5 - 0.2 = 0.3
        result = virtual_wait_direct([_seq(1, [1.0], [0.5])], {1: 1.0}, t_s=1.2)
        assert result.supremum_s == pytest.approx(0.3, rel=1e-12)
        assert result.window_start_s == 1.0

    def test_excludes_arrivals_at_query_instant(self):
        result = virtual_wait_direct([_seq(1, [1.0], [0.5])], {1: 1.0}, t_s=1.0)
        assert result.supremum_s == 0.0

    def test_agrees_with_dense_grid_scan(self):
        # the candidate-point argument itself, validated by brute force over
        # a dense grid augmented with the arrival instants (the objective has
        # slope 1 between arrivals, so a plain grid is off by its spacing)
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0, 1.0, 80))
        sizes = rng.uniform(0.001, 0.02, 80)
        seqs = [_seq(1, times, sizes)]
        rates = {1: 1.0}
        t = 0.9
        candidate = virtual_wait_direct(seqs, rates, t).supremum_s
        scan = np.concatenate([np.linspace(0.0, t, 10_000), times[times <= t], [t]])
        dense = -np.inf
        for s in scan:
            work = sizes[(times >= s) & (times < t)].sum()
            dense = max(dense, work - (t - s))
        assert candidate == pytest.approx(max(dense, 0.0), abs=1e-9)

    def test_matches_simulated_waits_per_case(self):
        for case_id in (3, 4, 6):
            seqs, rates = _case_sequences(case_id, 2000)
            result = run_fifo(merge_streams(seqs, rates))
            v = virtual_waits_at_arrivals(seqs, rates)
            assert np.max(np.abs(v - result.waiting_s)) < 1e-9

    def test_single_point_matches_batch(self):
        seqs, rates = _case_sequences(3, 300)
        merged = merge_streams(seqs, rates)
        batch = virtual_waits_at_arrivals(seqs, rates)
        for i in (0, 5, 42, 299):
            single = virtual_wait_direct(seqs, rates, merged.times_s[i])
            assert single.supremum_s == pytest.approx(batch[i], abs=1e-12)


    def test_service_matches_per_customer_rates(self):
        seqs, rates = _case_sequences(3, 5000)
        merged = merge_streams(seqs, rates)
        # the sizes in merge order, gathered by the same stable sort
        ordered = sorted(seqs, key=lambda q: q.class_id)
        times = np.concatenate([q.times_s for q in ordered])
        sizes = np.concatenate([q.sizes_bits for q in ordered])[np.argsort(times, kind="stable")]
        expected = sizes / np.array([rates[c] for c in merged.class_ids.tolist()])
        assert merged.service_s.tobytes() == expected.tobytes()

    def test_class_without_rate_rejected(self):
        seqs, rates = _case_sequences(3, 300)
        del rates[2]
        with pytest.raises(InvalidInputError, match="no service rate for class 2"):
            virtual_waits_at_arrivals(seqs, rates)


class TestSamplepathDelayBound:
    def test_isolated_customer_equals_own_service(self):
        seqs = [_seq(1, [3.0], [0.25])]
        rates = {1: 1.0}
        result = run_fifo(merge_streams(seqs, rates))
        bound = samplepath_delay_bound(seqs, rates, 0)
        assert bound == pytest.approx(0.25, rel=1e-12)
        assert bound == pytest.approx(result.delay_s[0], rel=1e-12)

    def test_case1_bounds_all_delays(self):
        config = preset(1)
        counts = proportional_counts(config.specs, 10_000)
        seqs = generate_sequences(config.specs, counts, config.seed)
        rates = config.rates()
        result = run_fifo(merge_streams(seqs, rates))
        bounds = samplepath_bounds_all(seqs, rates)
        assert np.all(result.delay_s <= bounds + 1e-9)
        assert bounds.max() <= 1.4e-4 + 1e-9

    def test_tightness_last_customer_attains_equality(self):
        seqs = [_seq(1, [0.0], [800.0]), _seq(2, [0.0], [10000.0])]
        rates = {1: 20e6, 2: 100e6}
        result = run_fifo(merge_streams(seqs, rates))
        bound = samplepath_delay_bound(seqs, rates, len(result) - 1)
        assert bound == pytest.approx(result.delay_s[-1], abs=1e-12)
        assert bound == pytest.approx(1.4e-4, rel=1e-12)

    @pytest.mark.parametrize("index", [-1, 1, 2])
    def test_index_out_of_range_rejected(self, index):
        seqs = [_seq(1, [1.0], [1.0])]
        with pytest.raises(InvalidInputError, match="merge index"):
            samplepath_delay_bound(seqs, {1: 1.0}, index)


class TestMgfMonteCarlo:
    def test_theta_zero_is_exactly_one(self):
        est = mgf_monte_carlo(preset(3).specs, 0.0, samples=10_000, seed=1)
        assert est.value == 1.0
        assert not est.diverged

    def test_case3_at_exact_root_is_near_one(self):
        # at the root the excess-work MGF is 1 for every window length
        exact, _ = theta_md1(preset(3).specs)
        est = mgf_monte_carlo(
            preset(3).specs, exact.theta_star, samples=200_000, seed=2, window_s=1e-4
        )
        assert abs(est.value - 1.0) <= 3 * est.std_error

    def test_single_constant_size_class_closed_form(self):
        lam, y = 100.0, 1e-3
        spec = ClassSpec(1, Poisson(lam), Constant(1.0), 1.0 / y)
        theta, window = 1000.0, 0.02
        expected = math.exp((lam * math.expm1(theta * y) - theta) * window)
        est = mgf_monte_carlo([spec], theta, samples=400_000, seed=3, window_s=window)
        assert est.std_error < 0.05 * expected
        assert abs(est.value - expected) <= 3 * est.std_error

    def test_single_exponential_size_class_closed_form(self):
        lam, mu = 50.0, 400.0
        spec = ClassSpec(1, Poisson(lam), ExponentialMean(1.0), mu)
        theta, window = 100.0, 0.02
        expected = math.exp((lam * theta / (mu - theta) - theta) * window)
        est = mgf_monte_carlo([spec], theta, samples=400_000, seed=4, window_s=window)
        assert est.std_error < 0.05 * expected
        assert abs(est.value - expected) <= 3 * est.std_error

    def test_divergence_flag(self):
        spec = ClassSpec(1, Poisson(10.0), ExponentialMean(1.0), 100.0)
        est = mgf_monte_carlo([spec], theta=100.0, samples=1000, seed=5)
        assert est.diverged

    def test_coupled_group_reflects_dependence(self):
        # synchronized coupling inflates the excess-work MGF above 1 at the
        # decay rate that is exactly critical for independent classes
        specs = preset(5).specs
        exact, _ = theta_md1(specs)
        est = mgf_monte_carlo(
            specs, exact.theta_star, samples=200_000, seed=6, window_s=1e-4
        )
        assert est.value > 1.0 + 3 * est.std_error

    def test_scaled_coupling_monte_carlo_runs(self):
        from mcfifo.traffic import CoupledPoisson

        specs = [
            ClassSpec(1, CoupledPoisson(200.0, 4), Constant(1.0), 40.0),
            ClassSpec(2, CoupledPoisson(20.0, 4), Constant(1.0), 40.0),
        ]
        est = mgf_monte_carlo(specs, 1.0, samples=4000, seed=7)
        assert est.value > 0
