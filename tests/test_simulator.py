import csv
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mcfifo.analytic import bound_dd1
from mcfifo.errors import InvalidInputError
from mcfifo.experiments import FLOAT_SLACK_S, preset, simulate_case
from mcfifo.oracle import sequential_waits
from mcfifo.simulator import (
    FIFO_BLOCK,
    _transient_plan,
    empirical_ccdf,
    fifo_waits,
    merge_streams,
    run_fifo,
    replication_seed,
    transient_delays,
)
from mcfifo.traffic import (
    ArrivalSequence,
    ArrivalStreams,
    deterministic_envelope,
    generate_sequences,
    proportional_counts,
)


def _seq(class_id, times, sizes):
    return ArrivalSequence(class_id, np.asarray(times, float), np.asarray(sizes, float))


class TestMergeStreams:
    def test_strict_interleave_preserved(self):
        merged = merge_streams(
            [_seq(1, [1.0, 3.0], [1, 1]), _seq(2, [2.0, 4.0], [1, 1])]
        )
        np.testing.assert_array_equal(merged.class_ids, [1, 2, 1, 2])
        np.testing.assert_array_equal(merged.times_s, [1, 2, 3, 4])

    def test_tie_goes_to_lower_class_id(self):
        merged = merge_streams([_seq(2, [5.0], [1]), _seq(1, [5.0], [2])])
        np.testing.assert_array_equal(merged.class_ids, [1, 2])

    def test_tie_within_class_keeps_index_order(self):
        merged = merge_streams([_seq(1, [5.0, 5.0, 5.0], [1, 2, 3])])
        np.testing.assert_array_equal(merged.sizes_bits, [1, 2, 3])
        np.testing.assert_array_equal(merged.class_index, [1, 2, 3])

    def test_case1_customer_count_over_one_second(self):
        config = preset(1)
        counts = {s.class_id: int(1.0 / s.arrival.period_s) for s in config.specs}
        seqs = generate_sequences(config.specs, counts, seed=0)
        merged = merge_streams(seqs)
        assert len(merged) == 11000


class TestRunFifo:
    def test_single_customer_empty_system(self):
        merged = merge_streams([_seq(1, [1.0], [0.5])])
        result = run_fifo(merged, {1: 1.0})
        assert result.departure_s[0] == pytest.approx(1.5)
        assert result.delay_s[0] == pytest.approx(0.5)
        assert result.waiting_s[0] == 0.0

    def test_two_customers_hand_recursion(self):
        merged = merge_streams([_seq(1, [1.0, 1.1], [0.5, 0.2])])
        result = run_fifo(merged, {1: 1.0})
        np.testing.assert_allclose(result.departure_s, [1.5, 1.7], rtol=1e-12)
        np.testing.assert_allclose(result.waiting_s, [0.0, 0.4], rtol=1e-12)

    def test_unordered_input_rejected(self):
        from mcfifo.simulator import MergedArrivals

        bad = MergedArrivals(
            np.array([2.0, 1.0]),
            np.array([1.0, 1.0]),
            np.array([1, 1]),
            np.array([1, 2]),
        )
        with pytest.raises(InvalidInputError):
            run_fifo(bad, {1: 1.0})

    def test_departures_follow_arrival_order(self):
        config = preset(3)
        result = simulate_case(
            type(config)(**{**config.__dict__, "customers": 20_000})
        )
        assert np.all(np.diff(result.departure_s) >= 0)

    def test_delay_is_wait_plus_service(self):
        config = preset(4)
        from dataclasses import replace

        result = simulate_case(replace(config, customers=10_000))
        np.testing.assert_allclose(
            result.delay_s, result.waiting_s + result.service_s, rtol=0, atol=1e-15
        )
        assert np.all(result.waiting_s >= 0)

    def test_case1_delays_never_exceed_the_worst_case(self):
        from dataclasses import replace

        result = simulate_case(replace(preset(1), customers=100_000))
        assert result.delay_s.max() <= 1.4e-4 + FLOAT_SLACK_S

    def test_work_conservation_over_busy_periods(self):
        from dataclasses import replace

        result = simulate_case(replace(preset(3), customers=5_000))
        a, d, s = result.arrival_s, result.departure_s, result.service_s
        starts = np.where(a > np.concatenate([[0.0], d[:-1]]))[0]
        bounds = np.concatenate([starts, [len(a)]])
        for k in range(len(starts)):
            i, j = bounds[k], bounds[k + 1]
            busy_span = d[j - 1] - a[i]
            assert busy_span == pytest.approx(s[i:j].sum(), abs=1e-9)

    def test_determinism(self):
        from dataclasses import replace

        config = replace(preset(4), customers=5_000)
        r1 = simulate_case(config)
        r2 = simulate_case(config)
        np.testing.assert_array_equal(r1.departure_s, r2.departure_s)
        np.testing.assert_array_equal(r1.arrival_s, r2.arrival_s)


def _exact_waits(arrival_s, service_s) -> list[Fraction]:
    """The FIFO recursion in exact rational arithmetic on the float inputs."""
    out = []
    d_prev = Fraction(0)
    for a, s in zip(arrival_s.tolist(), service_s.tolist()):
        w = max(d_prev - Fraction(a), Fraction(0))
        out.append(w)
        d_prev = Fraction(a) + w + Fraction(s)
    return out


def _max_error(waits, exact) -> Fraction:
    return max(abs(Fraction(w) - e) for w, e in zip(waits.tolist(), exact))


class TestFifoKernel:
    @pytest.mark.parametrize("case_id", range(1, 7))
    def test_matches_sequential_reference(self, case_id):
        result = simulate_case(replace(preset(case_id), customers=3 * FIFO_BLOCK))
        assert len(result) > 2 * FIFO_BLOCK
        reference = sequential_waits(result.arrival_s, result.service_s)
        np.testing.assert_allclose(
            result.waiting_s, reference, rtol=0, atol=FLOAT_SLACK_S
        )

    @pytest.mark.parametrize("case_id", range(1, 7))
    def test_exact_error_no_larger_than_the_loop(self, case_id):
        result = simulate_case(replace(preset(case_id), customers=2 * FIFO_BLOCK + 500))
        a, s = result.arrival_s, result.service_s
        exact = _exact_waits(a, s)
        kernel_err = _max_error(result.waiting_s, exact)
        assert kernel_err <= _max_error(sequential_waits(a, s), exact)
        assert kernel_err <= FLOAT_SLACK_S

    @pytest.mark.parametrize(
        "arrival_s, service_s",
        [
            ([], []),
            ([5.0], [0.25]),
            ([1.0, 1.0, 1.0, 1.0, 2.0], [0.5, 0.5, 0.5, 0.5, 0.25]),  # ties
            ([0.0, 0.0], [2.0**-40, 1.0]),
        ],
    )
    def test_small_inputs_equal_the_reference(self, arrival_s, service_s):
        a = np.asarray(arrival_s, dtype=float)
        s = np.asarray(service_s, dtype=float)
        waits = fifo_waits(a, s)
        assert waits.shape == a.shape
        np.testing.assert_array_equal(waits, sequential_waits(a, s))

    def test_rows_are_independent_queues(self):
        # three blocks per row, each row carrying its own backlog
        rng = np.random.default_rng(2)
        n = 2 * FIFO_BLOCK + 7
        a = np.cumsum(rng.exponential(1.0, (3, n)), axis=-1)
        s = rng.exponential([[0.5], [0.9], [1.5]], (3, n))
        waits = fifo_waits(a, s)
        for r in range(3):
            np.testing.assert_array_equal(waits[r], fifo_waits(a[r], s[r]))

    def test_busy_period_across_block_boundary(self):
        # dyadic times and services keep both recursions exact; long services
        # around the boundary build one busy period that spans it
        n = 2 * FIFO_BLOCK + 7
        a = 0.5 * np.arange(n)
        s = np.full(n, 0.25)
        s[FIFO_BLOCK - 8 : FIFO_BLOCK + 4] = 0.75
        waits = fifo_waits(a, s)
        np.testing.assert_array_equal(waits, sequential_waits(a, s))
        assert np.all(waits[FIFO_BLOCK - 7 : FIFO_BLOCK + 5] > 0)
        assert waits[-1] == 0.0

    def test_deterministic_case_offset_by_a_million_seconds(self):
        # times near 1e6 s have a 1.2e-10 s spacing; block-relative times
        # keep waits exact enough that no delay exceeds the worst case
        config = preset(2)
        counts = proportional_counts(config.specs, 40_000)
        seqs = [
            ArrivalSequence(q.class_id, q.times_s + 1e6, q.sizes_bits)
            for q in generate_sequences(config.specs, counts, config.seed)
        ]
        result = run_fifo(merge_streams(seqs), config.rates())
        worst = bound_dd1(
            [deterministic_envelope(s) for s in config.specs],
            [s.service_rate_bps for s in config.specs],
        )
        assert result.delay_s.max() <= worst + FLOAT_SLACK_S

    def test_class_without_rate_rejected(self):
        merged = merge_streams([_seq(1, [1.0], [1.0]), _seq(3, [2.0], [1.0])])
        with pytest.raises(InvalidInputError, match="class 3"):
            run_fifo(merged, {1: 1.0, 2: 1.0})


class TestEmpiricalCcdf:
    def test_direct_count(self):
        ccdf = empirical_ccdf([1.0, 2.0, 3.0], np.array([2.0]), warmup_discard=0.0)
        assert ccdf.fractions[0] == pytest.approx(1 / 3)

    def test_below_minimum_is_one(self):
        ccdf = empirical_ccdf([1.0, 2.0, 3.0], np.array([0.5]), warmup_discard=0.0)
        assert ccdf.fractions[0] == 1.0

    def test_exponential_sample_matches_distribution(self):
        rng = np.random.default_rng(5)
        theta = 5000.0
        values = rng.exponential(1 / theta, 1_000_000)
        ccdf = empirical_ccdf(values, np.array([2e-4]), warmup_discard=0.0)
        p = np.exp(-1.0)
        se = np.sqrt(p * (1 - p) / 1_000_000)
        assert abs(ccdf.fractions[0] - p) < 3 * se

    def test_warmup_discard(self):
        values = [100.0] * 10 + [1.0] * 90
        ccdf = empirical_ccdf(values, np.array([50.0]), warmup_discard=0.1)
        assert ccdf.fractions[0] == 0.0
        assert ccdf.discarded == 10

    def test_empty_after_discard_rejected(self):
        with pytest.raises(InvalidInputError):
            empirical_ccdf([], np.array([1.0]), warmup_discard=0.0)


class TestTransient:
    def test_first_customer_delay_at_least_its_service(self):
        config = preset(3)
        values = transient_delays(config, [1], class_id=1, replications=200)[1]
        y1 = config.specs[0].mean_service_s
        assert np.all(values >= y1 - 1e-12)

    def test_delays_stochastically_increase_in_j(self):
        config = preset(3)
        reps = 3000
        delays = transient_delays(config, [1, 10], class_id=1, replications=reps)
        grid = np.linspace(0.0, 1.5e-3, 40)
        ccdf1 = empirical_ccdf(delays[1], grid, 0.0).fractions
        ccdf10 = empirical_ccdf(delays[10], grid, 0.0).fractions
        se = 3 * np.sqrt(
            ccdf1 * (1 - ccdf1) / reps + ccdf10 * (1 - ccdf10) / reps
        )
        assert np.all(ccdf1 <= ccdf10 + se)

    def test_transient_distribution_interface(self):
        config = preset(3)
        grid = np.linspace(0.0, 1e-3, 20)
        ccdf = empirical_ccdf(transient_delays(config, [1], 1, 100)[1], grid, 0.0)
        assert ccdf.sample_count == 100
        assert ccdf.fractions[0] == 1.0  # delay is always positive

    def test_deterministic_case_warns(self):
        with pytest.warns(UserWarning):
            transient_delays(preset(1), [1], class_id=1, replications=2)

    def test_single_replication(self):
        delays = transient_delays(preset(4), [1, 5], class_id=1, replications=1)
        assert delays[1].shape == delays[5].shape == (1,)
        assert np.all(np.isfinite(delays[1])) and np.all(delays[5] > 0)
        more = transient_delays(preset(4), [1, 5], class_id=1, replications=50)
        assert delays[5][0] == more[5][0]

    def test_prefix_stable_across_chunk_boundary(self):
        config = preset(3)
        _, rows = _transient_plan(config.specs, 1, 10)
        small = transient_delays(config, [1, 10], 1, 100)
        over = transient_delays(config, [1, 10], 1, rows + 10)
        larger = transient_delays(config, [1, 10], 1, rows + 50)
        for j in (1, 10):
            np.testing.assert_array_equal(small[j], over[j][:100])
            np.testing.assert_array_equal(over[j], larger[j][: rows + 10])

    def test_chunks_draw_distinct_streams(self):
        assert len({replication_seed(1, c) for c in range(100)}) == 100
        assert replication_seed(1, 0) == replication_seed(1, 0)
        # exponential sizes make every first delay distinct unless streams repeat
        config = preset(4)
        _, rows = _transient_plan(config.specs, 1, 1)
        delays = transient_delays(config, [1], 1, 3 * rows)[1]
        assert len(np.unique(delays)) == len(delays)

    @pytest.mark.parametrize("case_id, class_id", [(3, 1), (6, 1), (5, 1), (5, 2)])
    def test_rows_equal_single_path_runs(self, case_id, class_id):
        # rebuild rows of chunk 0, extended ones included, as one-path
        # sequences; case 5 class 2 is a thinned, ragged target
        config = preset(case_id)
        js = (1, 10, 100)
        step, rows = _transient_plan(config.specs, class_id, js[-1])
        streams = ArrivalStreams(config.specs, step, replication_seed(config.seed, 0), rows)
        streams.draw_through(class_id, js[-1])
        seqs = streams.sequences()
        batch = transient_delays(config, js, class_id, rows)
        t_needed = next(q for q in seqs if q.class_id == class_id).times_s[:, js[-1] - 1]
        for q in seqs:  # every row holds each class's arrivals up to t_needed
            assert np.all(streams.horizon[q.class_id] >= t_needed)
        extended = np.zeros(rows, dtype=bool)
        for q in seqs:
            if q.class_id != class_id:
                extended |= q.times_s[:, step[q.class_id] - 1] < t_needed
        sample = sorted(set(np.flatnonzero(extended)[:5].tolist()) | {0, 1, rows - 1})
        if case_id != 5:
            assert extended.any()
        for r in sample:
            path = [
                ArrivalSequence(
                    q.class_id,
                    q.times_s[r][np.isfinite(q.times_s[r])],
                    q.sizes_bits[r][np.isfinite(q.times_s[r])],
                )
                for q in seqs
            ]
            merged = merge_streams(path)
            single = run_fifo(merged, config.rates())
            target = single.class_ids == class_id
            reference = sequential_waits(single.arrival_s, single.service_s)[target]
            for j in js:
                delay = batch[j][r]
                assert abs(delay - single.delay_s[target][j - 1]) <= 1e-15
                assert abs(delay - reference[j - 1] - single.service_s[target][j - 1]) <= (
                    FLOAT_SLACK_S
                )

    @pytest.mark.parametrize("case_id, class_id", [(3, 1), (6, 1), (5, 2)])
    def test_batch_agrees_with_per_replication_reference(self, case_id, class_id):
        config = preset(case_id)
        js, reps = (1, 10), 2000
        reference = _per_replication_delays(config, class_id, js, reps)
        batch = transient_delays(config, js, class_id, reps)
        grid = np.linspace(0.0, config.tau_max_s / 2, 40)
        for j in js:
            a = empirical_ccdf(batch[j], grid, 0.0).fractions
            b = empirical_ccdf(reference[j], grid, 0.0).fractions
            pooled = (a + b) / 2
            se = np.sqrt(pooled * (1 - pooled) * 2 / reps)
            assert np.all(np.abs(a - b) <= 3 * se), f"j={j}"


def _per_replication_delays(config, class_id, js, replications):
    """One generate/merge/run_fifo call per replication, regenerating longer
    until every class has arrived past the target's last requested customer."""
    target = next(s for s in config.specs if s.class_id == class_id)
    out = {j: np.empty(replications) for j in js}
    for r in range(replications):
        scale = 3.0
        while True:
            counts = {
                s.class_id: int(scale * js[-1] * s.arrival_rate_hz / target.arrival_rate_hz)
                + 20
                for s in config.specs
            }
            seqs = generate_sequences(config.specs, counts, 1000 + r)
            times = next(q for q in seqs if q.class_id == class_id).times_s
            if len(times) >= js[-1] and all(
                q.times_s[-1] >= times[js[-1] - 1] for q in seqs
            ):
                break
            scale *= 2.0
        result = run_fifo(merge_streams(seqs), config.rates())
        delays = result.delay_s[result.class_ids == class_id]
        for j in js:
            out[j][r] = delays[j - 1]
    return out


class TestCsvExport:
    def test_records_schema(self, tmp_path):
        from dataclasses import replace

        result = simulate_case(replace(preset(1), customers=100))
        path = tmp_path / "records.csv"
        result.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "class_id,j,arrival_s,departure_s,delay_s,waiting_s"
        assert len(path.read_text().splitlines()) == len(result) + 1

    def test_bytes_equal_row_by_row_reference(self, tmp_path):
        result = simulate_case(replace(preset(4), customers=500))
        path = tmp_path / "records.csv"
        result.write_csv(path)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["class_id", "j", "arrival_s", "departure_s", "delay_s", "waiting_s"]
            )
            for i in range(len(result)):
                writer.writerow(
                    [
                        int(result.class_ids[i]),
                        int(result.class_index[i]),
                        repr(float(result.arrival_s[i])),
                        repr(float(result.departure_s[i])),
                        repr(float(result.delay_s[i])),
                        repr(float(result.waiting_s[i])),
                    ]
                )
        assert path.read_bytes() == reference.read_bytes()
