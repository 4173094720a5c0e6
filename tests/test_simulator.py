import csv
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mcfifo.analytic import bound_dd1
from mcfifo.errors import InvalidInputError
from mcfifo.experiments import FLOAT_SLACK_S, preset, simulate_case
from mcfifo.simulator import (
    CSV_CHUNK,
    FIFO_BLOCK,
    FIFO_GROUP,
    MergedArrivals,
    _chunk_delays,
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
from reference import sequential_waits


def _seq(class_id, times, sizes):
    return ArrivalSequence(class_id, np.asarray(times, float), np.asarray(sizes, float))


#: Unit service rates: service times equal sizes.
UNIT = {1: 1.0, 2: 1.0}


class TestMergeStreams:
    def test_strict_interleave_preserved(self):
        merged = merge_streams(
            [_seq(1, [1.0, 3.0], [1, 1]), _seq(2, [2.0, 4.0], [1, 1])], UNIT
        )
        np.testing.assert_array_equal(merged.class_ids, [1, 2, 1, 2])
        np.testing.assert_array_equal(merged.times_s, [1, 2, 3, 4])

    def test_tie_goes_to_lower_class_id(self):
        merged = merge_streams([_seq(2, [5.0], [1]), _seq(1, [5.0], [2])], UNIT)
        np.testing.assert_array_equal(merged.class_ids, [1, 2])

    def test_tie_within_class_keeps_index_order(self):
        merged = merge_streams([_seq(1, [5.0, 5.0, 5.0], [1, 2, 3])], UNIT)
        np.testing.assert_array_equal(merged.service_s, [1, 2, 3])
        np.testing.assert_array_equal(merged.class_index, [1, 2, 3])

    def test_case1_customer_count_over_one_second(self):
        config = preset(1)
        counts = {s.class_id: int(1.0 / s.arrival.period_s) for s in config.specs}
        seqs = generate_sequences(config.specs, counts, seed=0)
        merged = merge_streams(seqs, config.rates())
        assert len(merged) == 11000


def _merge_reference(sequences, rates):
    """Stable argsort of the class-ordered concatenation, then a gather of
    every column: times, sizes over the class's rate, class ids and 1-based
    j. The argsort itself is the source column."""
    sequences = sorted(sequences, key=lambda s: s.class_id)
    times = np.concatenate([s.times_s for s in sequences], axis=-1)
    order = np.argsort(times, axis=-1, kind="stable")
    columns = (
        times,
        np.concatenate([s.sizes_bits / rates[s.class_id] for s in sequences], axis=-1),
        np.concatenate([np.full(len(s), s.class_id) for s in sequences]),
        np.concatenate([np.arange(1, len(s) + 1) for s in sequences]),
    )
    gathered = [np.take_along_axis(np.broadcast_to(c, times.shape), order, -1) for c in columns]
    return gathered + [order]


def _random_streams(rng, ids, lengths, rows=None, tick=None):
    """Ordered exponential arrivals per class; tick rounds times to force ties,
    and rows makes a batch whose rows end in a random number of +inf times."""
    seqs = []
    for cid, n in zip(ids, lengths):
        shape = (n,) if rows is None else (rows, n)
        times = np.cumsum(rng.exponential(1.0, shape), axis=-1)
        if tick is not None:
            times = np.round(times / tick) * tick
        if rows is not None:
            kept = rng.integers(1, n + 1, rows)
            times[np.arange(n) >= kept[:, None]] = np.inf
        seqs.append(ArrivalSequence(cid, times, rng.uniform(1.0, 2.0, shape)))
    return seqs


class TestMergeAgainstReference:
    @pytest.mark.parametrize(
        "ids, lengths, rows, tick",
        [
            ((2, 1), (300, 500), None, None),  # one dimension, given out of order
            ((1, 2, 3), (50, 400, 7), None, None),
            ((1, 2, 3), (200, 300, 100), None, 0.5),  # tied times across and within classes
            ((7, -3, 0), (40, 120, 1), None, 0.25),  # negative, non-contiguous ids
            ((1, 3, 2), (30, 60, 45), 25, None),  # ragged batch padded with +inf
            ((5, -1), (20, 20), 10, 1.0),  # batch with ties
        ],
    )
    def test_columns_equal_the_argsort_gather(self, ids, lengths, rows, tick):
        rng = np.random.default_rng(sum(lengths))
        seqs = _random_streams(rng, ids, lengths, rows, tick)
        # a distinct, inexact rate per class, so a rate paired with the
        # wrong class moves the service column
        rates = {cid: 0.3 + 0.7 * k for k, cid in enumerate(ids, start=1)}
        merged = merge_streams(seqs, rates)
        columns = (
            merged.times_s,
            merged.service_s,
            merged.class_ids,
            merged.class_index,
            merged.source,
        )
        reference = _merge_reference(seqs, rates)
        assert len(columns) == len(reference)
        for got, want in zip(columns, reference):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        by_id = sorted(seqs, key=lambda q: q.class_id)
        starts = np.cumsum([0] + [len(q) for q in by_id[:-1]]).tolist()
        assert merged.segments == tuple(
            (q.class_id, start, len(q)) for q, start in zip(by_id, starts)
        )

    def test_empty_class_among_others(self):
        seqs = [_seq(1, [1.0, 2.0], [1, 1]), _seq(2, [], []), _seq(3, [1.5], [1])]
        merged = merge_streams(seqs, {1: 1.0, 2: 1.0, 3: 4.0})
        np.testing.assert_array_equal(merged.class_ids, [1, 3, 1])
        np.testing.assert_array_equal(merged.class_index, [1, 1, 2])
        assert merged.segments == ((1, 0, 2), (2, 2, 0), (3, 2, 1))

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_every_class_empty(self, shape):
        seqs = [_seq(c, np.empty(shape), np.empty(shape)) for c in (1, 2)]
        merged = merge_streams(seqs, UNIT)
        for column in (merged.times_s, merged.service_s, merged.class_ids, merged.class_index):
            assert column.shape == shape
        assert run_fifo(merged).waiting_s.shape == shape

    def test_no_sequences_rejected(self):
        with pytest.raises(InvalidInputError, match="^need at least one arrival sequence$"):
            merge_streams([], UNIT)


class TestRateLookup:
    """merge_streams divides each class's sizes by that class's own rate."""

    RATES = {-2: 1.0, 3: 2.0, 8: 4.0}

    def test_rates_follow_class_ids(self):
        seqs = [
            _seq(8, [3.0, 4.0, 5.0], [1.0, 1.0, 1.0]),
            _seq(3, [1.0], [1.0]),
            _seq(-2, [2.0, 6.0], [1.0, 1.0]),
        ]
        merged = merge_streams(seqs, self.RATES)
        np.testing.assert_array_equal(merged.class_ids, [3, -2, 8, 8, 8, -2])
        np.testing.assert_array_equal(merged.service_s, [0.5, 1.0, 0.25, 0.25, 0.25, 1.0])

    @pytest.mark.parametrize("unknown", [-7, 0, 5, 11])  # below, between, above
    def test_unknown_id_rejected(self, unknown):
        seqs = [_seq(cid, [1.0], [1.0]) for cid in (3, -2, unknown, 8)]
        with pytest.raises(InvalidInputError, match=f"^no service rate for class {unknown}$"):
            merge_streams(seqs, self.RATES)

    def test_no_rates_at_all(self):
        with pytest.raises(InvalidInputError, match="^no service rate for class 4$"):
            merge_streams([_seq(4, [1.0, 2.0], [1.0, 1.0])], {})

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
    def test_rate_not_positive_rejected(self, rate):
        seqs = [_seq(-2, [1.0], [1.0]), _seq(3, [2.0], [1.0])]
        with pytest.raises(InvalidInputError, match="^sizes and rates must be positive$"):
            merge_streams(seqs, {**self.RATES, 3: rate})


class TestRunFifo:
    def test_single_customer_empty_system(self):
        result = run_fifo(merge_streams([_seq(1, [1.0], [0.5])], UNIT))
        assert result.departure_s[0] == pytest.approx(1.5)
        assert result.delay_s[0] == pytest.approx(0.5)
        assert result.waiting_s[0] == 0.0

    def test_two_customers_hand_recursion(self):
        result = run_fifo(merge_streams([_seq(1, [1.0, 1.1], [0.5, 0.2])], UNIT))
        np.testing.assert_allclose(result.departure_s, [1.5, 1.7], rtol=1e-12)
        np.testing.assert_allclose(result.waiting_s, [0.0, 0.4], rtol=1e-12)

    def test_unordered_input_rejected(self):
        bad = MergedArrivals(
            np.array([2.0, 1.0]),
            np.array([1.0, 1.0]),
            np.array([0, 1]),
            ((1, 0, 2),),
        )
        with pytest.raises(InvalidInputError):
            run_fifo(bad)

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
        result = run_fifo(merge_streams(seqs, config.rates()))
        worst = bound_dd1(
            [deterministic_envelope(s) for s in config.specs],
            [s.service_rate_bps for s in config.specs],
        )
        assert result.delay_s.max() <= worst + FLOAT_SLACK_S

    def test_class_without_rate_rejected(self):
        seqs = [_seq(1, [1.0], [1.0]), _seq(3, [2.0], [1.0])]
        with pytest.raises(InvalidInputError, match="class 3"):
            merge_streams(seqs, {1: 1.0, 2: 1.0})


def _per_block_waits(arrival_s, service_s):
    """The blocked scan with one block per numpy call: fifo_waits groups
    FIFO_GROUP blocks per call and must give these waits bit for bit."""
    waits = np.empty(arrival_s.shape)
    backlog = np.zeros(arrival_s.shape[:-1])
    last_arrival = np.zeros(arrival_s.shape[:-1])
    for lo in range(0, arrival_s.shape[-1], FIFO_BLOCK):
        a = arrival_s[..., lo : lo + FIFO_BLOCK]
        s = service_s[..., lo : lo + FIFO_BLOCK]
        rel = a - a[..., :1]
        prefix = np.empty(a.shape)
        prefix[..., 0] = 0.0
        np.cumsum(s[..., :-1], axis=-1, out=prefix[..., 1:])
        start = np.empty(a.shape)
        start[..., 0] = backlog - (a[..., 0] - last_arrival)
        np.subtract(rel[..., :-1], prefix[..., :-1], out=start[..., 1:])
        np.maximum.accumulate(start, axis=-1, out=start)
        w = waits[..., lo : lo + FIFO_BLOCK]
        np.add(prefix, start, out=w)
        np.subtract(w, rel, out=w)
        np.maximum(w, 0.0, out=w)
        backlog = w[..., -1] + s[..., -1]
        last_arrival = a[..., -1]
    return waits


#: Customers in one group of blocks of the FIFO scan.
GROUP = FIFO_GROUP * FIFO_BLOCK


class TestGroupedScan:
    @pytest.mark.parametrize(
        "n",
        [0, 1, FIFO_BLOCK - 1, FIFO_BLOCK, FIFO_BLOCK + 1, GROUP - 1, GROUP, GROUP + 1,
         3 * GROUP + 17],
    )
    def test_equals_the_per_block_scan(self, n):
        # load near 1: busy periods span blocks and groups
        rng = np.random.default_rng(n)
        a = np.cumsum(rng.exponential(1.0, n))
        s = rng.exponential(0.97, n)
        assert np.array_equal(fifo_waits(a, s), _per_block_waits(a, s))

    def test_batch_equals_the_per_block_scan(self):
        rng = np.random.default_rng(5)
        shape = (3, GROUP + 5)
        a = np.cumsum(rng.exponential(1.0, shape), axis=-1)
        s = rng.exponential([[0.5], [0.97], [1.5]], shape)
        assert np.array_equal(fifo_waits(a, s), _per_block_waits(a, s))

    @pytest.mark.parametrize("case_id", range(1, 7))
    def test_presets_equal_the_per_block_scan(self, case_id):
        result = simulate_case(replace(preset(case_id), customers=2 * GROUP + 100))
        a, s = result.arrival_s, result.service_s
        assert np.array_equal(result.waiting_s, _per_block_waits(a, s))

    @pytest.mark.parametrize("shape", [(GROUP + 9,), (2, GROUP + 9)])
    @pytest.mark.parametrize("column", [0, 1])
    def test_nan_spreads_as_in_the_per_block_scan(self, shape, column):
        # the carry between blocks follows np.maximum's NaN rule too: a NaN
        # arrival inside a block reaches the carry only through the running max
        a = np.cumsum(np.full(shape, 1.0), axis=-1)
        s = np.full(shape, 0.5)
        (a, s)[column][..., FIFO_BLOCK + 3] = np.nan
        waits = fifo_waits(a, s)
        assert np.array_equal(waits, _per_block_waits(a, s), equal_nan=True)
        assert np.isnan(waits[..., -1]).all() and not np.isnan(waits[..., :FIFO_BLOCK]).any()


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
        assert ccdf.sample_count == 90

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

    @pytest.mark.parametrize(
        "js,replications,message",
        [
            ([], 2, "js must name at least one customer"),
            ((2.7,), 2, "customer indices must be integers >= 1, got 2.7"),
            (("3",), 2, "customer indices must be integers >= 1, got '3'"),
            ((float("nan"),), 2, "customer indices must be integers >= 1, got nan"),
            ((True,), 2, "customer indices must be integers >= 1, got True"),
            ((0,), 2, "customer indices must be integers >= 1, got 0"),
            ((1, -3), 2, "customer indices must be integers >= 1, got -3"),
            ((1,), 2.5, "replications must be an integer >= 1, got 2.5"),
            ((1,), True, "replications must be an integer >= 1, got True"),
            ((1,), 0, "replications must be an integer >= 1, got 0"),
            ((1,), "2", "replications must be an integer >= 1, got '2'"),
        ],
    )
    def test_bad_arguments_rejected(self, js, replications, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            transient_delays(preset(3), js, 1, replications)

    def test_numpy_integers_accepted(self):
        plain = transient_delays(preset(3), (1, 10), 1, 20)
        numpy = transient_delays(preset(3), np.array([10, 1]), 1, np.int64(20))
        assert plain.keys() == numpy.keys() == {1, 10}
        assert all(np.array_equal(plain[j], numpy[j]) for j in plain)
        assert all(type(j) is int for j in numpy)

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
            single = run_fifo(merge_streams(path, config.rates()))
            target = single.class_ids == class_id
            reference = sequential_waits(single.arrival_s, single.service_s)[target]
            for j in js:
                delay = batch[j][r]
                assert abs(delay - single.delay_s[target][j - 1]) <= 1e-15
                assert abs(delay - reference[j - 1] - single.service_s[target][j - 1]) <= (
                    FLOAT_SLACK_S
                )

    @pytest.mark.parametrize(
        "case_id, class_id",
        [(1, 2), (2, 2), (3, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2)],
    )
    def test_chunk_equals_the_whole_merge(self, case_id, class_id):
        # each class trimmed at the cut before the merge must give the delays
        # of the merge of every drawn customer, bit for bit; in cases 1 and 2
        # class 2's cut ties with a class-1 arrival, which goes first
        config = preset(case_id)
        js = (1, 10, 100)
        step, rows = _transient_plan(config.specs, class_id, js[-1])
        streams = ArrivalStreams(config.specs, step, replication_seed(config.seed, 0), rows)
        streams.draw_through(class_id, js[-1])
        seqs = streams.sequences()
        got = _chunk_delays(seqs, config.rates(), class_id, js)
        want = _chunk_reference(seqs, config.rates(), class_id, js)
        assert got.shape == want.shape == (len(js), rows)
        assert got.tobytes() == want.tobytes()

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


def _chunk_reference(sequences, rates, class_id, js):
    """A chunk's delays with every drawn customer merged: the target's j-th
    customer found by the class-id and j columns, each row cut there and
    its later times clamped to the cut."""
    times, service, ids, index, _ = _merge_reference(sequences, rates)
    at = np.stack([np.argmax((ids == class_id) & (index == j), axis=-1) for j in js])
    width = at[-1].max() + 1
    cut_s = np.take_along_axis(times, at[-1:].T, -1)
    waits = fifo_waits(np.minimum(times[:, :width], cut_s), service[:, :width])
    return np.take_along_axis(waits + service[:, :width], at.T, -1).T


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
        result = run_fifo(merge_streams(seqs, config.rates()))
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

    def test_bytes_equal_reference_past_a_chunk_boundary(self, tmp_path):
        # the derived columns are built once here, so the row loop is linear
        # and reaches the second chunk
        result = simulate_case(replace(preset(6), customers=80_000))
        assert len(result) > CSV_CHUNK
        path = tmp_path / "records.csv"
        result.write_csv(path)
        columns = (
            result.class_ids.tolist(),
            result.class_index.tolist(),
            *(
                [repr(v) for v in values.tolist()]
                for values in (
                    result.arrival_s,
                    result.departure_s,
                    result.delay_s,
                    result.waiting_s,
                )
            ),
        )
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["class_id", "j", "arrival_s", "departure_s", "delay_s", "waiting_s"]
            )
            for row in zip(*columns):
                writer.writerow(row)
        assert path.read_bytes() == reference.read_bytes()

    def test_batch_result_is_refused(self, tmp_path):
        times = np.array([[0.0, 1.0], [0.0, 2.0]])
        result = run_fifo(merge_streams([_seq(1, times, np.ones((2, 2)))], UNIT))
        path = tmp_path / "records.csv"
        with pytest.raises(InvalidInputError, match="this result is a batch"):
            result.write_csv(path)
        assert not path.exists()
