import csv
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mcfifo.analytic import bound_dd1
from mcfifo import simulator
from mcfifo.errors import InvalidInputError
from mcfifo.experiments import FLOAT_SLACK_S, CaseConfig, preset, simulate_case
from mcfifo.simulator import (
    CHUNK,
    FIFO_BLOCK,
    FIFO_GROUP,
    MergedArrivals,
    _chunk_delays,
    _class_columns,
    _transient_plan,
    empirical_ccdf,
    fifo_waits,
    fifo_windows,
    merge_streams,
    run_fifo,
    replication_seed,
    transient_delays,
)
from mcfifo.traffic import (
    ArrivalSequence,
    ArrivalStreams,
    ClassSpec,
    Constant,
    CoupledPoisson,
    ExponentialMean,
    Periodic,
    Poisson,
    deterministic_envelope,
    generate_sequences,
    proportional_counts,
)
from reference import sequential_waits, whole_run_simulation


def _seq(class_id, times, sizes):
    return ArrivalSequence(class_id, np.asarray(times, float), np.asarray(sizes, float))


#: Unit service rates: service times equal sizes.
UNIT = {1: 1.0, 2: 1.0}


class TestMergeStreams:
    def test_strict_interleave_preserved(self):
        merged = merge_streams(
            [_seq(1, [1.0, 3.0], [1, 1]), _seq(2, [2.0, 4.0], [1, 1])], UNIT
        )
        np.testing.assert_array_equal(_class_columns(merged.source, merged.segments)[0],
                                      [1, 2, 1, 2])
        np.testing.assert_array_equal(merged.arrival_s, [1, 2, 3, 4])

    def test_tie_goes_to_lower_class_id(self):
        merged = merge_streams([_seq(2, [5.0], [1]), _seq(1, [5.0], [2])], UNIT)
        np.testing.assert_array_equal(_class_columns(merged.source, merged.segments)[0], [1, 2])

    def test_tie_within_class_keeps_index_order(self):
        merged = merge_streams([_seq(1, [5.0, 5.0, 5.0], [1, 2, 3])], UNIT)
        np.testing.assert_array_equal(merged.service_s, [1, 2, 3])
        np.testing.assert_array_equal(_class_columns(merged.source, merged.segments)[1],
                                      [1, 2, 3])

    @pytest.mark.parametrize("rows", [None, 2])
    def test_sequences_left_untouched(self, rows):
        # the merge divides sizes in place and reuses their buffer: only in
        # its own copies, never in the caller's sequences
        seqs = [_seq(1, [1.0, 3.0], [4.0, 6.0]), _seq(2, [2.0, 2.5], [8.0, 10.0])]
        if rows:
            seqs = [_seq(q.class_id, np.tile(q.times_s, (rows, 1)),
                         np.tile(q.sizes_bits, (rows, 1))) for q in seqs]
        before = [(q.times_s.copy(), q.sizes_bits.copy()) for q in seqs]
        merge_streams(seqs, {1: 2.0, 2: 4.0})
        for q, (times, sizes) in zip(seqs, before):
            assert np.array_equal(q.times_s, times) and np.array_equal(q.sizes_bits, sizes)

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
            merged.arrival_s,
            merged.service_s,
            *_class_columns(merged.source, merged.segments),
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
        ids, index = _class_columns(merged.source, merged.segments)
        np.testing.assert_array_equal(ids, [1, 3, 1])
        np.testing.assert_array_equal(index, [1, 1, 2])
        assert merged.segments == ((1, 0, 2), (2, 2, 0), (3, 2, 1))

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_every_class_empty(self, shape):
        seqs = [_seq(c, np.empty(shape), np.empty(shape)) for c in (1, 2)]
        merged = merge_streams(seqs, UNIT)
        columns = _class_columns(merged.source, merged.segments)
        for column in (merged.arrival_s, merged.service_s, *columns):
            assert column.shape == shape
        assert run_fifo(merged).waiting_s.shape == shape

    def test_no_sequences_rejected(self):
        with pytest.raises(InvalidInputError, match="^need at least one arrival sequence$"):
            merge_streams([], UNIT)

    def test_duplicate_class_id_rejected(self):
        # merged, the two sequences would give class 1 two customers j = 1
        seqs = [_seq(1, [1.0, 2.0], [8.0, 8.0]), _seq(2, [1.2], [8.0]), _seq(1, [1.5], [8.0])]
        with pytest.raises(InvalidInputError, match="^duplicate class id 1$"):
            merge_streams(seqs, {1: 8.0, 2: 8.0})


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
        np.testing.assert_array_equal(_class_columns(merged.source, merged.segments)[0],
                                      [3, -2, 8, 8, 8, -2])
        np.testing.assert_array_equal(merged.service_s, [0.5, 1.0, 0.25, 0.25, 0.25, 1.0])

    @pytest.mark.parametrize("unknown", [-7, 0, 5, 11])  # below, between, above
    def test_unknown_id_rejected(self, unknown):
        seqs = [_seq(cid, [1.0], [1.0]) for cid in (3, -2, unknown, 8)]
        with pytest.raises(InvalidInputError, match=f"^no service rate for class {unknown}$"):
            merge_streams(seqs, self.RATES)

    def test_no_rates_at_all(self):
        with pytest.raises(InvalidInputError, match="^no service rate for class 4$"):
            merge_streams([_seq(4, [1.0, 2.0], [1.0, 1.0])], {})

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_rate_not_positive_rejected(self, rate):
        seqs = [_seq(-2, [1.0], [1.0]), _seq(3, [2.0], [1.0])]
        message = f"^class 3: service rate must be finite and > 0, got {rate}$"
        with pytest.raises(InvalidInputError, match=message):
            merge_streams(seqs, {**self.RATES, 3: rate})


class TestRunFifo:
    def test_single_customer_empty_system(self):
        result = run_fifo(merge_streams([_seq(1, [1.0], [0.5])], UNIT))
        assert result.arrival_s[0] + result.delay_s[0] == pytest.approx(1.5)
        assert result.delay_s[0] == pytest.approx(0.5)
        assert result.waiting_s[0] == 0.0

    def test_two_customers_hand_recursion(self):
        result = run_fifo(merge_streams([_seq(1, [1.0, 1.1], [0.5, 0.2])], UNIT))
        np.testing.assert_allclose(result.arrival_s + result.delay_s, [1.5, 1.7], rtol=1e-12)
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

    @pytest.mark.parametrize(
        "arrival_s",
        [[0.0, np.nan, 2.0], [np.nan, 1.0, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0],
         [[0.0, 1.0, 2.0], [0.0, 1.0, np.nan]]],
    )
    def test_arrival_not_finite_rejected(self, arrival_s):
        # [0, nan, 2] gave waits [0, nan, nan]
        arrival_s = np.array(arrival_s)
        bad = MergedArrivals(
            arrival_s,
            np.ones(arrival_s.shape),
            np.broadcast_to(np.arange(3), arrival_s.shape),
            ((1, 0, 3),),
        )
        with pytest.raises(InvalidInputError, match="arrival times must be finite"):
            run_fifo(bad)

    @pytest.mark.parametrize("service_s", [[1.0, -5.0, 1.0], [1.0, np.nan, 1.0], [np.inf] * 3])
    def test_service_not_finite_and_nonnegative_rejected(self, service_s):
        # [1, -5, 1] gave waits [0, 0, 0]
        bad = MergedArrivals(
            np.array([0.0, 1.0, 2.0]), np.array(service_s), np.arange(3), ((1, 0, 3),)
        )
        with pytest.raises(InvalidInputError, match="service times must be finite and >= 0"):
            run_fifo(bad)

    def test_zero_service_accepted(self):
        merged = MergedArrivals(np.array([0.0, 0.0]), np.zeros(2), np.arange(2), ((1, 0, 2),))
        assert run_fifo(merged).waiting_s.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("rows", [None, 3])
    def test_result_is_the_merged_stream_plus_waits(self, rows):
        # one path of shape (n,), or a batch of shape (rows, n)
        times, sizes = np.array([1.0, 2.0, 3.5]), np.array([0.5, 2.0, 1.0])
        if rows is not None:
            times, sizes = np.tile(times, (rows, 1)), np.tile(sizes, (rows, 1))
        seqs = [_seq(2, times, sizes), _seq(1, times + 0.25, sizes)]
        merged = merge_streams(seqs, {1: 2.0, 2: 4.0})
        result = run_fifo(merged)
        assert isinstance(result, MergedArrivals)
        assert result.arrival_s is merged.arrival_s
        assert result.service_s is merged.service_s
        assert result.source is merged.source
        assert result.segments is merged.segments
        assert len(result) == len(merged) == 6 * (rows or 1)
        for got, want in zip(_class_columns(result.source, result.segments),
                             _class_columns(merged.source, merged.segments)):
            np.testing.assert_array_equal(got, want)
        assert result.waiting_s.shape == merged.arrival_s.shape

    def test_departures_follow_arrival_order(self):
        config = preset(3)
        result = simulate_case(
            type(config)(**{**config.__dict__, "customers": 20_000})
        )
        assert np.all(np.diff(result.arrival_s + result.delay_s) >= 0)

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
        a, d, s = result.arrival_s, result.arrival_s + result.delay_s, result.service_s
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
        np.testing.assert_array_equal(r1.arrival_s + r1.delay_s, r2.arrival_s + r2.delay_s)
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
    @pytest.mark.parametrize("column", [1])
    def test_nan_spreads_as_in_the_per_block_scan(self, shape, column):
        # the carry between blocks follows np.maximum's NaN rule: a NaN
        # service time reaches it through the block's prefix sums. A NaN
        # arrival is refused before any scan (run_fifo, fifo_windows): the
        # running max, np.fmax, would skip it
        a = np.cumsum(np.full(shape, 1.0), axis=-1)
        s = np.full(shape, 0.5)
        (a, s)[column][..., FIFO_BLOCK + 3] = np.nan
        waits = fifo_waits(a, s)
        assert np.array_equal(waits, _per_block_waits(a, s), equal_nan=True)
        assert np.isnan(waits[..., -1]).all() and not np.isnan(waits[..., :FIFO_BLOCK]).any()

    def test_full_group_peak_memory(self):
        # the waits and the scan's two temporaries take 8n bytes each, and
        # the rest reads about 0.01. A broadcasting call over the group
        # takes an iterator buffer of about 0.25, and a shifted subtraction
        # through strided views about 0.5
        rng = np.random.default_rng(3)
        a = np.cumsum(rng.exponential(1.0, GROUP))
        s = rng.exponential(0.97, GROUP)
        fifo_waits(a, s)  # one-time allocations stay out of the peak
        tracemalloc.start()
        try:
            fifo_waits(a, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.05 * 8 * GROUP


def _windows(config, size=None):
    """The windows of fifo_windows over the case's long run, each column
    copied: arrival, service and wait, in merged order."""
    counts = proportional_counts(config.specs, config.customers)
    streams = ArrivalStreams(config.specs, counts, config.seed, rows=1)
    return [(w.arrival_s.copy(), w.service_s.copy(), w.waiting_s.copy())
            for w in fifo_windows(streams, config.rates(), size)]


def _spoiled_take(monkeypatch, call, spoil):
    """Let spoil edit the buffers that the call-th move of pending arrivals
    (simulator._take) fills, the window's times and service times."""
    calls = []
    take = simulator._take

    def spoiled(pieces, n, times, service):
        take(pieces, n, times, service)
        calls.append(n)
        if len(calls) == call:
            spoil(times[:n], service[:n])

    monkeypatch.setattr(simulator, "_take", spoiled)


#: Spoiled values of a window's buffer, and the error each must raise.
_SPOILS = [
    ("times", np.nan, "arrival times must be finite"),
    ("times", np.inf, "arrival times must be finite"),
    ("service", -1.0, "service times must be finite and >= 0"),
    ("service", np.nan, "service times must be finite and >= 0"),
]


class TestFifoWindows:
    @pytest.mark.parametrize("case_id", range(1, 7))
    @pytest.mark.parametrize("customers", [1_000, 3 * FIFO_BLOCK, 40_001])
    def test_equals_the_whole_run(self, case_id, customers, monkeypatch):
        # windows of three blocks: the run's windows are that long but the
        # last, and together they are the merge of the horizon run
        monkeypatch.setattr(simulator, "CHUNK", 3 * FIFO_BLOCK)
        config = replace(preset(case_id), customers=customers, seed=4)
        windows = _windows(config)
        assert {len(a) for a, _, _ in windows[:-1]} <= {3 * FIFO_BLOCK}
        assert 0 < len(windows[-1][0]) <= 3 * FIFO_BLOCK
        whole = whole_run_simulation(config)
        for column, name in zip(zip(*windows), ("arrival_s", "service_s", "waiting_s")):
            assert np.concatenate(column).tobytes() == getattr(whole, name).tobytes(), name

    @pytest.mark.parametrize("size", [FIFO_BLOCK, 5 * FIFO_BLOCK])
    def test_a_window_size_leaves_the_run_alone(self, size):
        config = replace(preset(5), customers=30_000, seed=2)
        whole = whole_run_simulation(config)
        windows = _windows(config, size)
        assert {len(a) for a, _, _ in windows[:-1]} == {size}
        assert np.concatenate([w for _, _, w in windows]).tobytes() == whole.waiting_s.tobytes()

    @pytest.mark.parametrize("reach", [0.01, 1.5])
    @pytest.mark.parametrize("config", [
        replace(preset(3), customers=10_000, seed=3),
        replace(preset(5), customers=10_000, seed=3),  # thinned
        replace(preset(6), customers=10_000, seed=3),  # periodic plus Poisson
        CaseConfig("three-classes", (
            ClassSpec(1, Periodic(5e-4), Constant(800.0), 1e7),
            ClassSpec(2, Poisson(3e3), ExponentialMean(800.0), 1e7),
            ClassSpec(3, Poisson(300.0), Constant(4000.0), 1e7),
        ), customers=10_000, seed=3),
    ], ids=lambda c: str(c.case_id))
    def test_windows_do_not_depend_on_how_the_draw_is_cut(self, monkeypatch, config, reach):
        # a draw of 1 % of what each class lacks takes a few arrivals at a
        # time; one of half as much again leaves much of each draw pending
        # for the windows after
        monkeypatch.setattr(simulator, "REACH", reach)
        drawn = []
        draw = ArrivalStreams.draw

        def spy(self, *args):
            out = draw(self, *args)
            drawn.append(sum(n for _, _, n in out[2]))
            return out

        monkeypatch.setattr(ArrivalStreams, "draw", spy)
        windows = _windows(config, FIFO_BLOCK)
        if reach < 1:
            assert len(drawn) > 20 * len(windows) and max(drawn) <= 0.02 * FIFO_BLOCK
        else:
            assert drawn[0] >= 1.4 * FIFO_BLOCK
        whole = whole_run_simulation(config)
        for column, name in zip(zip(*windows), ("arrival_s", "service_s", "waiting_s")):
            assert np.concatenate(column).tobytes() == getattr(whole, name).tobytes(), name

    @pytest.mark.parametrize("case_id", [3, 4, 5])
    def test_a_window_takes_about_one_draw(self, monkeypatch, case_id):
        calls = []
        draw = ArrivalStreams.draw

        def spy(self, *args):
            calls.append(args)
            return draw(self, *args)

        monkeypatch.setattr(ArrivalStreams, "draw", spy)
        windows = _windows(replace(preset(case_id), customers=200_000))
        assert len(windows) >= 3 and len(calls) <= 1.5 * len(windows)

    def test_a_thinned_class_may_end_the_run_at_its_last_kept_instant(self):
        # more than a window's worth of arrivals lies before the frontier,
        # but class 1 keeps none of its master's last instants: the run ends
        # at class 1's last instant, 2042 customers in, which the window
        # must not pass
        specs = tuple(
            ClassSpec(cid, CoupledPoisson(rate, 3, "synchronized"), Constant(800.0), 1e7)
            for cid, rate in ((1, 1e3), (2, 5e3), (3, 2e3))
        )
        config = CaseConfig("thinned-end", specs, customers=2049, seed=5)
        windows = _windows(config, FIFO_BLOCK)
        whole = whole_run_simulation(config)
        assert [len(a) for a, _, _ in windows] == [len(whole)] == [2042]
        for column, name in zip(windows[0], ("arrival_s", "service_s", "waiting_s")):
            assert column.tobytes() == getattr(whole, name).tobytes(), name

    def test_a_stream_of_several_rows_is_refused(self):
        streams = ArrivalStreams(preset(3).specs, {1: 10, 2: 10}, seed=1, rows=2)
        with pytest.raises(InvalidInputError, match="streams must have one row"):
            next(fifo_windows(streams, preset(3).rates()))

    @pytest.mark.parametrize("buffer, value, message, take, windows", [
        # take 5 is class 1 of the third window
        *(pytest.param(*spoil, 5, 2, id="-".join(map(str, spoil))) for spoil in _SPOILS),
        # takes 8 (class 2) and 13 (class 1) fill a cut that takes more than
        # the window, the spoiled arrival among those past it, which must
        # not go back to pending unchecked
        *(pytest.param(*spoil, take, windows, id=f"take{take}-" + "-".join(map(str, spoil)))
          for take, windows in ((8, 3), (13, 6)) for spoil in _SPOILS),
    ])
    def test_a_later_window_is_checked_as_run_fifo_checks(
        self, monkeypatch, buffer, value, message, take, windows
    ):
        # the scan's running max skips a NaN that np.maximum would spread,
        # so a window must be checked before it is scanned
        monkeypatch.setattr(simulator, "CHUNK", FIFO_BLOCK)
        config = replace(preset(4), customers=20_000)

        def spoil(times, service):
            {"times": times, "service": service}[buffer][7] = value

        _spoiled_take(monkeypatch, take, spoil)
        scanned = []
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            for window in fifo_windows(
                ArrivalStreams(config.specs, proportional_counts(config.specs, 20_000), 1, 1),
                config.rates(),
            ):
                scanned.append(len(window.arrival_s))
        assert scanned == [FIFO_BLOCK] * windows

    def test_order_across_the_window_boundary_is_checked(self, monkeypatch):
        monkeypatch.setattr(simulator, "CHUNK", FIFO_BLOCK)
        config = replace(preset(3), customers=20_000)

        def spoil(times, service):
            times[0] = 0.0  # before the last arrival of the window before

        _spoiled_take(monkeypatch, 3, spoil)  # class 1 of the second window
        windows = fifo_windows(
            ArrivalStreams(config.specs, proportional_counts(config.specs, 20_000), 1, 1),
            config.rates(),
        )
        next(windows)
        with pytest.raises(InvalidInputError, match="^aggregate arrivals must be time-ordered$"):
            next(windows)

    def test_a_nan_arrival_fails_the_whole_run(self):
        # run_fifo checks the run before fifo_waits's running max, which
        # would skip the NaN; an ArrivalSequence would reject it first
        n = 3 * FIFO_BLOCK
        times = 0.5 * np.arange(n)
        times[2 * FIFO_BLOCK + 3] = np.nan
        merged = MergedArrivals(times, np.full(n, 0.25), np.arange(n), ((1, 0, n),))
        with pytest.raises(InvalidInputError, match="^arrival times must be finite$"):
            run_fifo(merged)


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

    def test_nan_value_rejected(self):
        # the NaN counted as above 0.2, which read 2/3
        with pytest.raises(InvalidInputError, match="values must not be NaN"):
            empirical_ccdf([0.1, np.nan, 0.3], np.array([0.0, 0.2]), warmup_discard=0.0)

    def test_nan_tau_rejected(self):
        # no value is above a NaN tau, which read 0
        with pytest.raises(InvalidInputError, match="^the tau grid must not hold NaN$"):
            empirical_ccdf([1.0, 2.0], np.array([np.nan, 1.5]), warmup_discard=0.0)

    @pytest.mark.parametrize(
        "values, grid",
        [
            (np.ones((2, 3)), np.array([0.0, 0.5])),  # numpy's "truth value ... is ambiguous"
            (np.ones(3), np.zeros((2, 2))),  # a 2-d array of fractions
            (np.ones(3), np.array(0.5)),
        ],
        ids=["2d_values", "2d_grid", "0d_grid"],
    )
    def test_wrong_shape_rejected(self, values, grid):
        with pytest.raises(InvalidInputError, match="^values and the tau grid must be 1-d arrays$"):
            empirical_ccdf(values, grid, 0.0)


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
        seqs = [ArrivalSequence(cid, times, streams.sizes[cid])
                for cid, times in streams.times.items()]
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
            target = _class_columns(single.source, single.segments)[0] == class_id
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
        got = _chunk_delays(streams, config.rates(), class_id, js)
        seqs = [ArrivalSequence(cid, times, streams.sizes[cid])
                for cid, times in streams.times.items()]
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
        delays = result.delay_s[_class_columns(result.source, result.segments)[0] == class_id]
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
            ids, index = _class_columns(result.source, result.segments)
            departure = result.arrival_s + result.delay_s
            for i in range(len(result)):
                writer.writerow(
                    [
                        int(ids[i]),
                        int(index[i]),
                        repr(float(result.arrival_s[i])),
                        repr(float(departure[i])),
                        repr(float(result.delay_s[i])),
                        repr(float(result.waiting_s[i])),
                    ]
                )
        assert path.read_bytes() == reference.read_bytes()

    def test_bytes_equal_reference_past_a_chunk_boundary(self, tmp_path):
        # the derived columns are built once here, so the row loop is linear
        # and reaches the second chunk
        result = simulate_case(replace(preset(6), customers=80_000))
        assert len(result) > CHUNK
        path = tmp_path / "records.csv"
        result.write_csv(path)
        columns = (
            *(column.tolist() for column in _class_columns(result.source, result.segments)),
            *(
                [repr(v) for v in values.tolist()]
                for values in (
                    result.arrival_s,
                    result.arrival_s + result.delay_s,
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
