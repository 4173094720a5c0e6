import numpy as np
import pytest

from mcfifo import traffic
from mcfifo.errors import InvalidSpecError, NoDecayError, UnsupportedEnvelopeError
from mcfifo.experiments import preset
from mcfifo.traffic import (
    ArrivalSequence,
    ArrivalStreams,
    ClassSpec,
    Constant,
    CoupledPoisson,
    DegenerateTail,
    ExponentialMean,
    ExponentialTail,
    Periodic,
    Poisson,
    deterministic_envelope,
    generate_sequences,
    gsbb_tail_from_mgf,
    proportional_counts,
)

CASE1_CLASS1 = ClassSpec(1, Periodic(1e-4), Constant(800.0), 20e6)
CASE1_CLASS2 = ClassSpec(2, Periodic(1e-3), Constant(10000.0), 100e6)


def _one(spec, count, seed=0):
    return generate_sequences([spec], {spec.class_id: count}, seed)[0]


def _group(specs, count, seed):
    return generate_sequences(specs, {s.class_id: count for s in specs}, seed)


class TestGenPeriodic:
    def test_case1_first_three_arrivals(self):
        seq = _one(CASE1_CLASS1, 3)
        np.testing.assert_allclose(seq.times_s, [1e-4, 2e-4, 3e-4], rtol=1e-12)
        assert np.all(seq.sizes_bits == 800.0)

    def test_single_arrival(self):
        spec = ClassSpec(1, Periodic(1.0), Constant(1.0), 1.0)
        seq = _one(spec, 1)
        assert seq.times_s[0] == 1.0

    def test_thousandth_arrival_lands_on_one_second(self):
        seq = _one(CASE1_CLASS2, 1000)
        assert seq.times_s[-1] == pytest.approx(1.0, rel=1e-12)


class TestGenPoisson:
    def test_mean_interarrival(self):
        spec = ClassSpec(1, Poisson(10000.0), Constant(800.0), 10e6)
        seq = _one(spec, 1_000_000, seed=42)
        gaps = np.diff(np.concatenate([[0.0], seq.times_s]))
        assert gaps.mean() == pytest.approx(1e-4, rel=0.01)

    def test_deterministic_for_fixed_seed(self):
        spec = ClassSpec(1, Poisson(1.0), Constant(1.0), 1.0)
        a = _one(spec, 1000, seed=7)
        b = _one(spec, 1000, seed=7)
        np.testing.assert_array_equal(a.times_s, b.times_s)
        np.testing.assert_array_equal(a.sizes_bits, b.sizes_bits)

    def test_exponential_size_mean(self):
        spec = ClassSpec(1, Poisson(1000.0), ExponentialMean(10000.0), 100e6)
        seq = _one(spec, 1_000_000, seed=3)
        assert seq.sizes_bits.mean() == pytest.approx(10000.0, rel=0.01)

    def test_count_must_be_positive(self):
        spec = ClassSpec(1, Poisson(1.0), Constant(1.0), 1.0)
        with pytest.raises(InvalidSpecError):
            _one(spec, 0, seed=1)


def _coupled_pair(rate1, rate2, mechanism="scaled"):
    return [
        ClassSpec(1, CoupledPoisson(rate1, 9, mechanism), Constant(800.0), 10e6),
        ClassSpec(2, CoupledPoisson(rate2, 9, mechanism), Constant(10000.0), 100e6),
    ]


class TestGenCoupledPoisson:
    def test_equal_rates_give_identical_sequences(self):
        seqs = _group(_coupled_pair(500.0, 500.0), 2000, seed=5)
        np.testing.assert_array_equal(seqs[0].times_s, seqs[1].times_s)

    def test_scaling_identity_elementwise(self):
        # identical uniforms scaled per class: the whole class-2 timeline is
        # the class-1 timeline stretched by the rate ratio
        seqs = _group(_coupled_pair(10000.0, 1000.0), 5000, seed=5)
        np.testing.assert_allclose(seqs[1].times_s, 10.0 * seqs[0].times_s, rtol=1e-12)
        gaps1 = np.diff(np.concatenate([[0.0], seqs[0].times_s]))
        gaps2 = np.diff(np.concatenate([[0.0], seqs[1].times_s]))
        np.testing.assert_allclose(gaps2, 10.0 * gaps1, rtol=1e-8)

    def test_marginal_moments_match_independent_poisson(self):
        # coupling must leave each marginal an exponential interarrival stream
        n = 1_000_000
        seqs = _group(_coupled_pair(10000.0, 1000.0), n, seed=11)
        for seq, rate in zip(seqs, (10000.0, 1000.0)):
            gaps = np.diff(np.concatenate([[0.0], seq.times_s]))
            mean_se = (1 / rate) / np.sqrt(n)
            assert abs(gaps.mean() - 1 / rate) < 3 * mean_se
            var_se = np.sqrt(23.0) / rate**2 / np.sqrt(n)  # Var[s^2] for exp
            assert abs(gaps.var(ddof=1) - 1 / rate**2) < 3 * var_se

    def test_synchronized_is_a_subset_of_the_fast_class(self):
        seqs = _group(
            _coupled_pair(10000.0, 1000.0, "synchronized"), 50_000, seed=13
        )
        fast, slow = seqs
        assert len(slow) < len(fast)
        assert np.all(np.isin(slow.times_s, fast.times_s))
        gaps = np.diff(np.concatenate([[0.0], slow.times_s]))
        assert gaps.mean() == pytest.approx(1e-3, rel=0.05)

    def test_rejects_single_class_group(self):
        spec = ClassSpec(1, CoupledPoisson(1.0, 9), Constant(1.0), 1.0)
        with pytest.raises(InvalidSpecError):
            _group([spec], 10, seed=1)

    def test_sizes_are_not_coupled(self):
        specs = [
            ClassSpec(1, CoupledPoisson(100.0, 9), ExponentialMean(100.0), 1e6),
            ClassSpec(2, CoupledPoisson(100.0, 9), ExponentialMean(100.0), 1e6),
        ]
        seqs = _group(specs, 5000, seed=1)
        corr = np.corrcoef(seqs[0].sizes_bits, seqs[1].sizes_bits)[0, 1]
        assert abs(corr) < 0.05


class TestArrivalStreams:
    @pytest.mark.parametrize(
        "specs",
        [
            [ClassSpec(1, Poisson(1e4), ExponentialMean(800.0), 10e6), CASE1_CLASS2],
            _coupled_pair(10000.0, 1000.0),
        ],
    )
    def test_one_row_drawn_twice_continues_the_path(self, specs):
        # a one-row stream draws sequentially, so two steps of n must give
        # the same path, bit for bit, as one sequence of 2n
        streams = ArrivalStreams(specs, {1: 50, 2: 30}, seed=3, rows=1)
        streams.draw([1, 2])
        streams.draw([1, 2])
        whole = generate_sequences(specs, {1: 100, 2: 60}, seed=3)
        for seq, row in zip(whole, streams.sequences()):
            np.testing.assert_array_equal(row.times_s[0], seq.times_s)
            np.testing.assert_array_equal(row.sizes_bits[0], seq.sizes_bits)

    def test_synchronized_rows_are_ragged_subsets_of_the_master(self):
        specs = _coupled_pair(10000.0, 1000.0, "synchronized")
        streams = ArrivalStreams(specs, {1: 40, 2: 4}, seed=5, rows=200)
        streams.draw([2])
        streams.draw([2])
        master, slow = streams.times[1], streams.times[2]
        assert master.shape == (200, 80)
        kept = np.isfinite(slow)
        assert len(set(kept.sum(-1).tolist())) > 1  # ragged
        assert np.all(np.sort(~kept, axis=-1) == ~kept)  # padding only at row ends
        for r in range(200):
            assert np.all(np.isin(slow[r][kept[r]], master[r]))
            assert np.all(np.diff(slow[r][kept[r]]) > 0)
        np.testing.assert_array_equal(streams.horizon[2], master[:, -1])


def _copying_exponential(u, rate_hz):
    u = np.where(u == 0.0, np.finfo(float).tiny, u)
    return -np.log(u) / rate_hz


def _copying_sizes(self, spec, count):
    if isinstance(spec.size, Constant):
        return np.full((self.rows, count), spec.size.bits, dtype=float)
    u = self._rng(traffic._ROLE_SIZES, spec.class_id).random((self.rows, count))
    u = np.where(u == 0.0, np.finfo(float).tiny, u)
    return -spec.size.mean_bits * np.log(u)


def _copying_append_gaps(self, spec, gaps):
    gaps[:, 0] += self.horizon[spec.class_id]
    times = np.cumsum(gaps, axis=-1)
    self._append(spec, times, self._sizes(spec, times.shape[-1]))
    self.horizon[spec.class_id] = times[:, -1]


class TestInPlaceDraws:
    """Draws are transformed in the buffer they were drawn into; the same
    formulas on fresh arrays at each step must give the same bits."""

    SPECS = [*(preset(k).specs for k in (3, 4, 5, 6)), _coupled_pair(10000.0, 1000.0)]

    @staticmethod
    def _copying(monkeypatch):
        monkeypatch.setattr(traffic, "_exponential_from_uniforms", _copying_exponential)
        monkeypatch.setattr(ArrivalStreams, "_sizes", _copying_sizes)
        monkeypatch.setattr(ArrivalStreams, "_append_gaps", _copying_append_gaps)

    @pytest.mark.parametrize("specs", SPECS)
    def test_sequences_equal_the_copying_formulas(self, specs, monkeypatch):
        counts = proportional_counts(specs, 20_000)
        fast = generate_sequences(specs, counts, seed=8)
        self._copying(monkeypatch)
        for got, want in zip(fast, generate_sequences(specs, counts, seed=8)):
            assert np.array_equal(got.times_s, want.times_s)
            assert np.array_equal(got.sizes_bits, want.sizes_bits)

    @pytest.mark.parametrize("specs", SPECS)
    def test_batch_draws_equal_the_copying_formulas(self, specs, monkeypatch):
        def drawn():
            streams = ArrivalStreams(specs, {s.class_id: 40 for s in specs}, seed=6, rows=5)
            streams.draw([s.class_id for s in specs])
            streams.draw([specs[-1].class_id])
            return streams.sequences()

        fast = drawn()
        self._copying(monkeypatch)
        for got, want in zip(fast, drawn()):
            assert np.array_equal(got.times_s, want.times_s)
            assert np.array_equal(got.sizes_bits, want.sizes_bits)

    def test_scaled_draw_leaves_the_shared_uniforms_alone(self):
        # every member reads the group's uniforms: a draw must not transform them
        streams = ArrivalStreams(_coupled_pair(10000.0, 1000.0), {1: 50, 2: 30}, seed=3, rows=4)
        streams.draw([1, 2])
        fresh = traffic._substream(3, traffic._ROLE_GROUP, 9).random((4, 50))
        assert np.array_equal(streams._shared[9], fresh)
        streams.draw([1, 2])
        assert np.array_equal(streams._shared[9][:, :50], fresh)


class TestDeterministicEnvelope:
    def test_case1_class1(self):
        env = deterministic_envelope(CASE1_CLASS1)
        assert env.rate_bps == pytest.approx(8e6, rel=1e-12)
        assert env.burst_bits == 800.0

    def test_case1_class2(self):
        env = deterministic_envelope(CASE1_CLASS2)
        assert env.rate_bps == pytest.approx(10e6, rel=1e-12)
        assert env.burst_bits == 10000.0

    def test_one_bit_per_second(self):
        env = deterministic_envelope(ClassSpec(1, Periodic(1.0), Constant(1.0), 2.0))
        assert env.rate_bps == 1.0 and env.burst_bits == 1.0

    def test_stochastic_class_rejected(self):
        with pytest.raises(UnsupportedEnvelopeError):
            deterministic_envelope(ClassSpec(1, Poisson(1.0), Constant(1.0), 1.0))


class TestPeriodicEnvelopeInvariant:
    def test_window_scan(self):
        # every window of the generated sequence obeys rate*t + burst
        seq = _one(CASE1_CLASS1, 2000)
        env = deterministic_envelope(CASE1_CLASS1)
        times = seq.times_s
        counts = np.arange(1, len(times) + 1)
        # windows [a_i, a_j + eps): traffic (j - i + 1) packets
        i, j = np.triu_indices(len(times))
        traffic = (counts[j] - counts[i] + 1) * 800.0
        allowed = env.rate_bps * (times[j] - times[i]) + env.burst_bits
        assert np.all(traffic <= allowed * (1 + 1e-9))


class TestGsbbTail:
    def test_periodic_class_degenerate(self):
        tail = gsbb_tail_from_mgf(CASE1_CLASS1, reference_rate_bps=8e6)
        assert isinstance(tail, DegenerateTail)
        assert tail.tail(799.0) == 1.0
        assert tail.tail(800.0) == 0.0
        assert tail.tail(801.0) == 0.0

    def test_boundary_rate_share_rejected(self):
        # reference share exactly equal to the class utilization: no decay
        spec = ClassSpec(1, Poisson(1e4), Constant(800.0), 10e6)
        with pytest.raises(NoDecayError):
            gsbb_tail_from_mgf(spec, reference_rate_bps=0.8 * 10e6)

    def test_constant_size_approximation_value(self):
        # share 0.832 against utilization 0.8 gives 2*0.032/(1e4*(8e-5)^2) = 1000/s
        spec = ClassSpec(1, Poisson(1e4), Constant(800.0), 10e6)
        tail = gsbb_tail_from_mgf(spec, reference_rate_bps=0.832 * 10e6, method="approx")
        assert isinstance(tail, ExponentialTail)
        assert tail.decay_per_bit * 10e6 == pytest.approx(1000.0, rel=1e-9)

    def test_constant_size_exact_solves_condition(self):
        import math

        spec = ClassSpec(1, Poisson(1e4), Constant(800.0), 10e6)
        omega = 0.832
        tail = gsbb_tail_from_mgf(spec, reference_rate_bps=omega * 10e6, method="exact")
        theta = tail.decay_per_bit * 10e6
        residual = 1e4 * math.expm1(theta * 8e-5) - theta * omega
        assert abs(residual) <= 1e-6 * theta

    def test_exponential_size_closed_form(self):
        spec = ClassSpec(2, Poisson(1000.0), ExponentialMean(10000.0), 100e6)
        omega = 0.2
        tail = gsbb_tail_from_mgf(spec, reference_rate_bps=omega * 100e6)
        mu = 100e6 / 10000.0
        expected = mu - 1000.0 / omega
        assert tail.decay_per_bit * 100e6 == pytest.approx(expected, rel=1e-12)

    def test_decay_positive_iff_share_above_utilization(self):
        spec = ClassSpec(1, Poisson(1e4), Constant(800.0), 10e6)
        tail = gsbb_tail_from_mgf(spec, reference_rate_bps=0.801 * 10e6, method="approx")
        assert tail.decay_per_bit > 0
        with pytest.raises(NoDecayError):
            gsbb_tail_from_mgf(spec, reference_rate_bps=0.799 * 10e6)


class TestExponentialTailValidation:
    @pytest.mark.parametrize(
        "prefactor, decay",
        [
            (float("nan"), 1e-4),
            (float("inf"), 1e-4),
            (-0.5, 1e-4),
            (1.0, float("nan")),
            (1.0, float("inf")),
            (1.0, 0.0),
            (1.0, -1e-4),
        ],
    )
    def test_rejected_when_built(self, prefactor, decay):
        with pytest.raises(InvalidSpecError, match="finite prefactor >= 0 and a finite decay > 0"):
            ExponentialTail(1e6, prefactor, decay)

    def test_zero_prefactor_and_tiny_decay_accepted(self):
        assert ExponentialTail(1e6, 0.0, 5e-324).tail(1e9) == 0.0


class TestSpecValidation:
    @pytest.mark.parametrize(
        "arrival,size,rate",
        [
            (Periodic(0.0), Constant(1.0), 1.0),
            (Poisson(-1.0), Constant(1.0), 1.0),
            (Poisson(1.0), Constant(0.0), 1.0),
            (Poisson(1.0), ExponentialMean(-5.0), 1.0),
            (Poisson(1.0), Constant(1.0), 0.0),
            (Periodic(float("nan")), Constant(1.0), 1.0),
            (Periodic(float("inf")), Constant(1.0), 1.0),
            (Poisson(float("nan")), Constant(1.0), 1.0),
            (Poisson(float("inf")), Constant(1.0), 1.0),
            (CoupledPoisson(float("nan"), 1), Constant(1.0), 1.0),
            (Poisson(1.0), Constant(float("nan")), 1.0),
            (Poisson(1.0), Constant(float("inf")), 1.0),
            (Poisson(1.0), ExponentialMean(float("nan")), 1.0),
            (Poisson(1.0), ExponentialMean(float("inf")), 1.0),
            (Poisson(1.0), Constant(1.0), float("nan")),
            (Poisson(1.0), Constant(1.0), float("inf")),
            (Poisson(1.0), Constant(1.0), float("-inf")),
            (Periodic(1.0), ExponentialMean(1.0), 1.0),
        ],
    )
    def test_invalid_parameters_rejected(self, arrival, size, rate):
        with pytest.raises(InvalidSpecError):
            ClassSpec(1, arrival, size, rate)

    def test_derived_quantities(self):
        spec = ClassSpec(1, Poisson(1e4), Constant(800.0), 10e6)
        assert spec.mean_service_s == pytest.approx(8e-5)
        assert spec.service_completion_rate_hz == pytest.approx(12500.0)
        assert spec.utilization == pytest.approx(0.8)
        assert spec.mean_rate_bps == pytest.approx(8e6)


NAN, INF = float("nan"), float("inf")


class TestArrivalSequenceValidation:
    @pytest.mark.parametrize(
        "times, message",
        [
            ([0.5, NAN, 2.0], "NaN or -inf"),
            ([NAN], "NaN or -inf"),
            ([NAN, 1.0], "NaN or -inf"),
            ([1.0, NAN], "NaN or -inf"),
            ([-INF, 1.0, 2.0], "NaN or -inf"),
            ([[1.0, 2.0], [NAN, INF]], "NaN or -inf"),
            ([[1.0, 2.0], [-INF, -INF]], "NaN or -inf"),
            ([2.0, 1.0], "nondecreasing"),
            ([[1.0, 2.0], [3.0, 2.5]], "nondecreasing"),
        ],
    )
    def test_bad_times_rejected(self, times, message):
        sizes = np.ones(np.shape(times))
        with pytest.raises(InvalidSpecError, match=message):
            ArrivalSequence(1, times, sizes)

    @pytest.mark.parametrize(
        "sizes",
        [[1.0, NAN, 1.0], [NAN, INF, 1.0], [1.0, INF, 1.0], [1.0, 0.0, 1.0], [-1.0, 1.0, 1.0]],
    )
    def test_sizes_not_finite_and_positive_rejected(self, sizes):
        with pytest.raises(InvalidSpecError, match="^sizes must be finite and > 0$"):
            ArrivalSequence(1, [0.5, 1.0, 2.0], sizes)

    def test_padding_and_empty_rows_stay_legal(self):
        ArrivalSequence(1, [[1.0, INF, INF], [0.5, 0.5, 2.0]], np.ones((2, 3)))
        ArrivalSequence(1, np.empty((3, 0)), np.empty((3, 0)))
        ArrivalSequence(1, [], [])


class TestArrivalSequencePrefix:
    """A prefix skips the checks; it must equal the checked sequence."""

    @staticmethod
    def _same(got, want):
        assert got.class_id == want.class_id
        assert got.times_s.shape == want.times_s.shape
        assert got.times_s.tobytes() == want.times_s.tobytes()
        assert got.sizes_bits.tobytes() == want.sizes_bits.tobytes()
        assert len(got) == len(want)

    @pytest.mark.parametrize("count", [0, 1, 3, 5, 9])
    def test_one_path(self, count):
        seq = _one(ClassSpec(3, Poisson(1e3), ExponentialMean(500.0), 1e6), 5, seed=4)
        want = ArrivalSequence(3, seq.times_s[:count], seq.sizes_bits[:count])
        self._same(seq.prefix(count), want)

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4])
    def test_ragged_batch(self, count):
        times = np.array([[1.0, INF, INF, INF], [0.5, 0.5, 2.0, INF], [0.1, 0.2, 0.3, 0.4]])
        sizes = np.arange(1.0, 13.0).reshape(3, 4)
        seq = ArrivalSequence(2, times, sizes)
        want = ArrivalSequence(2, times[:, :count], sizes[:, :count])
        self._same(seq.prefix(count), want)

    @pytest.mark.parametrize("count", [1, 5, 30])
    def test_drawn_ragged_batch(self, count):
        specs = _coupled_pair(10000.0, 1000.0, "synchronized")
        streams = ArrivalStreams(specs, {1: 40, 2: 4}, seed=5, rows=50)
        streams.draw([2])
        for seq in streams.sequences():
            want = ArrivalSequence(seq.class_id, seq.times_s[:, :count], seq.sizes_bits[:, :count])
            self._same(seq.prefix(count), want)
