import re
import tracemalloc

import numpy as np
import pytest

from mcfifo import traffic
from mcfifo.errors import (
    InvalidInputError,
    InvalidSpecError,
    NoDecayError,
    UnsupportedEnvelopeError,
)
from mcfifo.experiments import preset
from mcfifo.traffic import (
    ArrivalSequence,
    ArrivalStreams,
    ClassSpec,
    Constant,
    CoupledPoisson,
    DeterministicEnvelope,
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
        for seq in whole:
            np.testing.assert_array_equal(streams.times[seq.class_id][0], seq.times_s)
            np.testing.assert_array_equal(streams.sizes[seq.class_id][0], seq.sizes_bits)

    @pytest.mark.parametrize(
        "rates, mechanism",
        [((1e4, 1e3), "scaled"), ((1e4, 1e3), "synchronized"), ((1e3, 1e4), "synchronized")],
        ids=["scaled", "synchronized", "synchronized_master_last"],
    )
    def test_draw_lays_out_one_block_per_class(self, rates, mechanism):
        # class c's block is [start*rows, (start + width)*rows) of the
        # buffers, the classes in id order; a drawn class holds its block.
        # With the master last, the thinned class's block comes first, so
        # its width is known before the master's uniforms are drawn.
        specs = [*_coupled_pair(*rates, mechanism),
                 ClassSpec(3, Poisson(2e3), ExponentialMean(800.0), 10e6)]
        rows = 4
        step = {1: 40, 2: 6, 3: 9} if rates[0] > rates[1] else {1: 6, 2: 40, 3: 9}
        streams = ArrivalStreams(specs, step, seed=5, rows=rows)
        times, sizes, segments = streams.draw([3, 1])
        assert [cid for cid, _, _ in segments] == [1, 2, 3]
        end = 0
        for cid, start, width in segments:
            assert start == end and streams.times[cid].shape == (rows, width)
            block = slice(start * rows, (start + width) * rows)
            assert np.array_equal(times[block].reshape(rows, width), streams.times[cid])
            assert np.array_equal(sizes[block].reshape(rows, width), streams.sizes[cid])
            assert np.shares_memory(times[block], streams.times[cid])
            end += width
        assert times.shape == sizes.shape == (end * rows,)
        if mechanism == "synchronized":
            master, slow = (1, 2) if rates[0] > rates[1] else (2, 1)
            assert streams.times[master].shape == (rows, 40)
            kept = np.isfinite(streams.times[slow])
            for r in range(rows):
                assert np.all(np.isin(streams.times[slow][r][kept[r]], streams.times[master][r]))
        # a later draw lays out only the classes it draws
        _, _, segments = streams.draw([3])
        assert segments == [(3, 0, 9)]

    @pytest.mark.parametrize(
        "step, message",
        [
            ({1: 5}, "^class 2: no count given$"),  # was a bare KeyError
            ({1: 5.0, 2: 5}, r"^class 1: count must be an integer >= 1, got 5\.0$"),
            ({1: True, 2: 5}, "^class 1: count must be an integer >= 1, got True$"),
            ({1: 5, 2: 5, 9: 3}, "^class 9: not a class of the specs$"),  # was ignored
            ({1: 0, 2: 5}, "^class 1: count must be an integer >= 1, got 0$"),
        ],
        ids=["missing", "float", "bool", "unknown", "zero"],
    )
    def test_bad_step_table_rejected(self, step, message):
        with pytest.raises(InvalidSpecError, match=message):
            ArrivalStreams(preset(3).specs, step, seed=1, rows=2)
        with pytest.raises(InvalidSpecError, match=message):
            generate_sequences(preset(3).specs, step, seed=1)

    @pytest.mark.parametrize("rows", [0, -1, 2.5, True], ids=["zero", "negative", "float", "bool"])
    def test_bad_rows_rejected(self, rows):
        # a synchronized draw failed with numpy's bare ValueError at 0, and
        # every draw with a bare TypeError at 2.5
        message = f"^rows must be an integer >= 1, got {rows!r}$"
        with pytest.raises(InvalidInputError, match=message):
            ArrivalStreams(preset(5).specs, {1: 5, 2: 5}, seed=1, rows=rows)

    def test_numpy_counts_accepted(self):
        path = generate_sequences(preset(3).specs, {1: np.int64(5), 2: np.uint8(3)}, seed=1)
        assert [len(seq) for seq in path] == [5, 3]

    def test_draw_of_an_unknown_class_rejected(self):
        # a draw of class 9 alone drew nothing
        streams = ArrivalStreams(preset(3).specs, {1: 5, 2: 5}, seed=1, rows=2)
        with pytest.raises(InvalidSpecError, match="^class 9: not a class of the specs$"):
            streams.draw([1, 9])
        assert all(streams.times[cid].shape == (2, 0) for cid in (1, 2))

    def test_duplicate_class_ids_rejected(self):
        # the second spec's draw was appended to the first's arrays, which
        # then failed as "arrival times must be nondecreasing"
        specs = [CASE1_CLASS1, ClassSpec(1, Poisson(1e3), Constant(800.0), 10e6)]
        with pytest.raises(InvalidSpecError, match="^duplicate class_id 1$"):
            ArrivalStreams(specs, {1: 5}, seed=1, rows=2)
        with pytest.raises(InvalidSpecError, match="^duplicate class_id 1$"):
            generate_sequences(specs, {1: 5}, seed=1)

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


def _copying_exponential(u, rate_hz, out=None):
    u = np.where(u == 0.0, np.finfo(float).tiny, u)
    gaps = -np.log(u) / rate_hz
    if out is None:
        return gaps
    out[...] = gaps  # the block the draw lays out
    return out


def _copying_sizes(self, spec, out):
    if isinstance(spec.size, Constant):
        sizes = np.full(out.shape, spec.size.bits, dtype=float)
    else:
        u = self._rng(traffic._ROLE_SIZES, spec.class_id).random(out.shape)
        u = np.where(u == 0.0, np.finfo(float).tiny, u)
        sizes = -spec.size.mean_bits * np.log(u)
    out[...] = sizes  # the block the draw lays out
    return out


def _copying_append_gaps(self, spec, gaps, sizes):
    # fresh arrays, copied into the blocks the draw lays out
    times = np.cumsum(np.concatenate([gaps[:, :1] + self.horizon[spec.class_id][:, None],
                                      gaps[:, 1:]], axis=-1), axis=-1)
    gaps[...] = times
    self._sizes(spec, sizes)
    self.horizon[spec.class_id] = times[:, -1]


class TestInPlaceDraws:
    """Draws are transformed in the buffer they were drawn into; the same
    formulas on fresh arrays at each step must give the same bits."""

    SPECS = [
        *(preset(k).specs for k in (3, 4, 5, 6)),
        _coupled_pair(10000.0, 1000.0),
        _coupled_pair(1000.0, 10000.0, "synchronized"),  # the master last
    ]

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
            return [ArrivalSequence(cid, times, streams.sizes[cid])
                    for cid, times in streams.times.items()]

        fast = drawn()
        self._copying(monkeypatch)
        for got, want in zip(fast, drawn()):
            assert np.array_equal(got.times_s, want.times_s)
            assert np.array_equal(got.sizes_bits, want.sizes_bits)

    def test_scaled_members_keep_at_most_a_block_of_the_stream(self):
        # each member reads the group's stream through its own generator:
        # rows take it in blocks of the group's largest step, and a member
        # keeps only the part of its last block it has not read
        streams = ArrivalStreams(_coupled_pair(10000.0, 1000.0), {1: 50, 2: 30}, seed=3, rows=4)
        for _ in range(3):
            streams.draw([1, 2])
        assert {cid: u.shape for cid, u in streams._unread.items()} == {1: (4, 0), 2: (4, 10)}
        one = ArrivalStreams(_coupled_pair(10000.0, 1000.0), {1: 50, 2: 30}, seed=3, rows=1)
        one.draw([1, 2])
        assert one._unread == {}


def _pieces(specs, counts, seed, widths, order):
    """Each class's arrivals drawn a piece at a time with these widths, the
    classes named in turn from order while any has arrivals left."""
    streams = ArrivalStreams(specs, counts, seed, rows=1)
    got = {s.class_id: ([], []) for s in specs}
    turn = 0
    while any(streams.remaining(s.class_id) or not streams.drawn[s.class_id] for s in specs):
        cid = order[turn % len(order)]
        turn += 1
        times, sizes, segments = streams.draw([cid], widths)
        assert streams.times[cid].shape == (1, 0)  # no history is kept
        for c, lo, n in segments:
            got[c][0].append(times[lo : lo + n])
            got[c][1].append(sizes[lo : lo + n])
    return {cid: (np.concatenate(t), np.concatenate(z)) for cid, (t, z) in got.items()}


def _synchronized(rates, sizes=(Constant(800.0), ExponentialMean(800.0), Constant(100.0))):
    return [ClassSpec(cid, CoupledPoisson(rate, 4, "synchronized"), size, 1e7)
            for cid, rate, size in zip(range(1, len(rates) + 1), rates, sizes)]


class TestWindowedDraws:
    """A step drawn a piece at a time, by widths that divide no class's
    count, is the step drawn whole, byte for byte, for every draw kind."""

    SPECS = {
        "periodic": preset(1).specs,
        "poisson_constant": preset(3).specs,
        "poisson_exponential": preset(4).specs,
        "periodic_and_poisson": preset(6).specs,
        "scaled": [
            ClassSpec(1, CoupledPoisson(1e4, 9, "scaled"), Constant(800.0), 1e7),
            ClassSpec(2, CoupledPoisson(1e3, 9, "scaled"), ExponentialMean(800.0), 1e7),
            ClassSpec(3, Poisson(2e3), Constant(100.0), 1e7),
        ],
        "synchronized_two": preset(5).specs,
        "synchronized_three": _synchronized((1e4, 1e3, 3e3)),
        "thinned_class_of_lower_id": _synchronized((1e3, 1e4)),
    }

    @pytest.mark.parametrize("name", SPECS)
    @pytest.mark.parametrize("widths", [997, 4099], ids=["997", "4099"])
    def test_pieces_are_the_whole_step(self, name, widths):
        specs = self.SPECS[name]
        counts = proportional_counts(specs, 30_000)
        whole = {q.class_id: q for q in generate_sequences(specs, counts, seed=7)}
        ids = [s.class_id for s in specs]
        for order in (ids, ids[::-1] + ids[:1]):
            pieces = _pieces(specs, counts, 7, dict.fromkeys(ids, widths), order)
            for cid, (times, sizes) in pieces.items():
                assert times.tobytes() == whole[cid].times_s.tobytes(), (name, cid)
                assert sizes.tobytes() == whole[cid].sizes_bits.tobytes(), (name, cid)

    def test_a_spent_step_draws_no_more(self):
        specs = preset(3).specs
        streams = ArrivalStreams(specs, {1: 5, 2: 3}, seed=1, rows=1)
        streams.draw([1, 2], {1: 4, 2: 4})
        assert (streams.remaining(1), streams.remaining(2)) == (1, 0)
        _, _, segments = streams.draw([1, 2], {1: 4, 2: 4})
        assert segments == [(1, 0, 1)]
        assert streams.draw([1, 2], {1: 4, 2: 4})[2] == []
        assert streams.drawn == {1: 5, 2: 3}

    def test_a_thinned_class_is_bounded_by_its_master(self):
        streams = ArrivalStreams(preset(5).specs, {1: 100, 2: 10}, seed=1, rows=1)
        streams.draw([2], {1: 30, 2: 30})
        assert streams.drawn[1] == 30 and streams.remaining(2) == streams.remaining(1) == 70

    def test_a_thinned_class_that_keeps_none_has_its_masters_horizon(self):
        # class 2 keeps about one master instant in ten: of single
        # instants, most draws keep none, and its horizon still moves
        streams = ArrivalStreams(preset(5).specs, {1: 100, 2: 10}, seed=1, rows=1)
        empty = 0
        for _ in range(20):
            segments = streams.draw([1, 2], {1: 1, 2: 1})[2]
            empty += [cid for cid, _, _ in segments] == [1]
            assert streams.horizon[2].tobytes() == streams.horizon[1].tobytes()
        assert empty >= 10

    def test_a_draw_is_laid_out_in_given_buffers_that_hold_it(self):
        def draw(buffers=None):
            streams = ArrivalStreams(preset(4).specs, {1: 100, 2: 10}, seed=1, rows=1)
            return streams.draw([1, 2], {1: 40, 2: 4}, buffers)

        times, sizes, segments = draw()
        assert segments == [(1, 0, 40), (2, 40, 4)] and len(times) == len(sizes) == 44
        given = np.empty(60), np.empty(60)
        got = draw(given)
        assert got[0] is given[0] and got[1] is given[1] and got[2] == segments
        assert got[0][:44].tobytes() == times.tobytes()
        assert got[1][:44].tobytes() == sizes.tobytes()
        short = np.empty(43), np.empty(43)
        got = draw(short)  # too short: new buffers, as with none
        assert got[0] is not short[0] and got[0].tobytes() == times.tobytes()

    def test_a_horizon_holds_no_draw_buffer(self):
        streams = ArrivalStreams(preset(6).specs, {1: 100, 2: 10}, seed=1, rows=1)
        streams.draw([1, 2], {1: 50, 2: 5})
        assert all(h.base is None for h in streams.horizon.values())


class TestSynchronizedDrawMemory:
    def test_generate_sequences_peak(self):
        # the masks are drawn before the layout and the master's uniforms
        # straight into its block, so no step of uniforms waits beside the
        # buffers: two buffers of 8n bytes, and a mask of n bytes
        specs = preset(5).specs
        counts = proportional_counts(specs, 1_000_000)
        generate_sequences(specs, counts, seed=1)  # one-time allocations stay out of the peak
        tracemalloc.start()
        try:
            generate_sequences(specs, counts, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.35 * 8 * 1_000_000


class TestGroupStreamOrder:
    """A coupling group's stream read directly, step by step, gives every
    member's arrival times bit for bit: a synchronized group reads its
    master's uniforms and then each slower member's mask, and a scaled group
    grows its shared row of uniforms to its furthest member."""

    @staticmethod
    def _streams(specs, step, rows):
        streams = ArrivalStreams(specs, step, seed=11, rows=rows)
        streams.draw([specs[0].class_id])
        streams.draw([specs[-1].class_id])  # continues the group's stream
        return streams

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize(
        "rates",
        [(1e4, 1e3), (1e3, 1e4), (1e4, 1e3, 3e3), (1e3, 3e3, 1e4)],
        ids=["master_first", "master_last", "master_first_of_three", "master_last_of_three"],
    )
    def test_synchronized(self, rates, rows):
        specs = [ClassSpec(cid, CoupledPoisson(rate, 9, "synchronized"), Constant(800.0), 10e6)
                 for cid, rate in enumerate(rates, start=1)]
        master = max(specs, key=lambda s: s.arrival.rate_hz)
        rng = traffic._substream(11, traffic._ROLE_GROUP, 9)
        uniforms, masks = [], {s.class_id: [] for s in specs if s is not master}
        for _ in range(2):
            uniforms.append(rng.random((rows, 40)))
            for s in specs:
                if s is not master:
                    p = s.arrival.rate_hz / master.arrival.rate_hz
                    masks[s.class_id].append(rng.random((rows, 40)) < p)
        gaps = _copying_exponential(np.concatenate(uniforms, axis=-1), master.arrival.rate_hz)
        instants = np.cumsum(gaps, axis=-1)
        streams = self._streams(specs, {s.class_id: 40 for s in specs}, rows)
        assert np.array_equal(streams.times[master.class_id], instants)
        for cid, parts in masks.items():
            kept, times = np.concatenate(parts, axis=-1), streams.times[cid]
            for r in range(rows):
                assert np.array_equal(times[r][np.isfinite(times[r])], instants[r][kept[r]])

    @pytest.mark.parametrize("rows", [1, 5])
    def test_scaled(self, rows):
        specs = _coupled_pair(1e4, 1e3)
        rng = traffic._substream(11, traffic._ROLE_GROUP, 9)
        # each draw grows the row by class 1's 50; class 2 reads its first 30, then 60
        uniforms = np.concatenate([rng.random((rows, 50)), rng.random((rows, 50))], axis=-1)
        streams = self._streams(specs, {1: 50, 2: 30}, rows)
        for s in specs:
            n = streams.times[s.class_id].shape[-1]
            gaps = _copying_exponential(uniforms[:, :n], s.arrival.rate_hz)
            assert n == {1: 100, 2: 60}[s.class_id]
            assert np.array_equal(streams.times[s.class_id], np.cumsum(gaps, axis=-1))


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
        assert isinstance(tail, DeterministicEnvelope)
        assert tail.tail(799.0) == 1.0
        assert tail.tail(800.0) == 0.0
        assert tail.tail(801.0) == 0.0

    def test_periodic_class_is_its_envelope_at_the_reference_rate(self):
        tail = gsbb_tail_from_mgf(CASE1_CLASS1, reference_rate_bps=9e6)
        assert tail == DeterministicEnvelope(9e6, deterministic_envelope(CASE1_CLASS1).burst_bits)
        sigma = np.array([0.0, 799.0, 800.0, 801.0, np.inf])
        steps = tail.tail(sigma)
        assert isinstance(steps, np.ndarray) and steps.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]

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


class TestDeterministicEnvelopeValidation:
    @pytest.mark.parametrize(
        "rate, burst",
        [
            (float("nan"), 8.0),
            (float("inf"), 8.0),
            (-1.0, 8.0),
            (1e6, float("nan")),
            (1e6, float("inf")),
            (1e6, -5.0),
            (-1.0, -5.0),
        ],
    )
    def test_rejected_when_built(self, rate, burst):
        with pytest.raises(InvalidSpecError, match="finite and nonnegative"):
            DeterministicEnvelope(rate, burst)


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

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
    def test_bad_rate_rejected_when_built(self, rate):
        with pytest.raises(InvalidSpecError, match="reference rate must be finite and nonnegative"):
            ExponentialTail(rate, 1.0, 1e-4)

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

    @pytest.mark.parametrize("class_id", [-1, 1.5, True, "1", None])
    def test_bad_class_id_rejected(self, class_id):
        # a negative id failed in np.random.SeedSequence when drawn
        message = f"class {class_id}: class_id must be an integer >= 0, got {class_id!r}"
        with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
            ClassSpec(class_id, Poisson(1.0), Constant(1.0), 1.0)

    @pytest.mark.parametrize("class_id", [2**63, 2**70, np.uint64(2**63)])
    def test_class_id_beyond_int64_rejected(self, class_id):
        # the class column of records.csv is int64: simulate failed with an
        # OverflowError while bounds and compare accepted the id
        message = f"class {class_id}: class_id must be below 2**63, got {class_id!r}"
        with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
            ClassSpec(class_id, Poisson(1.0), Constant(1.0), 1.0)

    def test_largest_int64_class_id_accepted(self):
        assert ClassSpec(2**63 - 1, Poisson(1.0), Constant(1.0), 1.0).class_id == 2**63 - 1

    @pytest.mark.parametrize("group", [-4, 2.0, False])
    def test_bad_coupling_group_rejected(self, group):
        message = f"class 3: coupling_group must be an integer >= 0, got {group!r}"
        with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
            ClassSpec(3, CoupledPoisson(1.0, group), Constant(1.0), 1.0)

    def test_zero_ids_accepted(self):
        spec = ClassSpec(0, CoupledPoisson(1.0, 0), Constant(1.0), 1.0)
        assert spec.class_id == spec.arrival.coupling_group == 0

    @pytest.mark.parametrize(
        "arrival, size, rate, message",
        [
            # 1/period overflows
            (Periodic(1e-323), Constant(1.0), 1.0,
             "arrival_rate_hz must be finite and > 0, got inf"),
            # size/rate underflows, then overflows
            (Poisson(1.0), ExponentialMean(8e-300), 1e306,
             "mean_service_s must be finite and > 0, got 0.0"),
            (Poisson(1.0), Constant(1e300), 1e-300,
             "mean_service_s must be finite and > 0, got inf"),
            # 1/(size/rate) overflows
            (Poisson(1.0), Constant(1e-310), 1.0,
             "service_completion_rate_hz must be finite and > 0, got inf"),
        ],
        ids=["infinite_rate", "zero_service_time", "infinite_service_time",
             "infinite_service_rate"],
    )
    def test_implied_rates_and_times_rejected(self, arrival, size, rate, message):
        # an infinite rate failed in proportional_counts, a service time of 0
        # with a ZeroDivisionError in the bounds
        with pytest.raises(InvalidSpecError, match=f"^class 4: {message}$"):
            ClassSpec(4, arrival, size, rate)

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


class TestArrivalSequenceCut:
    """A class's first columns, cut as a chunk of replications cuts them,
    pass the checked constructor as views of the drawn arrays."""

    @staticmethod
    def _same_view(got, times, sizes):
        assert got.times_s.shape == times.shape
        assert got.times_s.tobytes() == times.tobytes()
        assert got.sizes_bits.tobytes() == sizes.tobytes()
        # the cut copies nothing
        assert got.times_s.size == 0 or np.shares_memory(got.times_s, times)
        assert got.sizes_bits.size == 0 or np.shares_memory(got.sizes_bits, sizes)

    @pytest.mark.parametrize("count", [0, 1, 3, 5, 9])
    def test_one_path(self, count):
        seq = _one(ClassSpec(3, Poisson(1e3), ExponentialMean(500.0), 1e6), 5, seed=4)
        cut = ArrivalSequence(3, seq.times_s[:count], seq.sizes_bits[:count])
        assert cut.class_id == 3 and len(cut) == min(count, 5)
        self._same_view(cut, seq.times_s[:count], seq.sizes_bits[:count])

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4])
    def test_ragged_batch(self, count):
        times = np.array([[1.0, INF, INF, INF], [0.5, 0.5, 2.0, INF], [0.1, 0.2, 0.3, 0.4]])
        sizes = np.arange(1.0, 13.0).reshape(3, 4)
        cut = ArrivalSequence(2, times[:, :count], sizes[:, :count])
        assert len(cut) == count
        # each row keeps its customers before the cut, and its padding after them
        finite = np.isfinite(cut.times_s).sum(axis=-1)
        assert finite.tolist() == [min(count, n) for n in (1, 3, 4)]
        self._same_view(cut, times[:, :count], sizes[:, :count])

    @pytest.mark.parametrize("count", [1, 5, 30])
    def test_drawn_ragged_batch(self, count):
        specs = _coupled_pair(10000.0, 1000.0, "synchronized")
        streams = ArrivalStreams(specs, {1: 40, 2: 4}, seed=5, rows=50)
        streams.draw([2])
        for cid, drawn in streams.times.items():
            seq = ArrivalSequence(cid, drawn, streams.sizes[cid])
            times = streams.times[seq.class_id][:, :count]
            sizes = streams.sizes[seq.class_id][:, :count]
            cut = ArrivalSequence(seq.class_id, times, sizes)
            assert len(cut) == min(count, len(seq))
            self._same_view(cut, seq.times_s[:, :count], seq.sizes_bits[:, :count])


@pytest.mark.parametrize(
    "value, expected",
    [(3, True), (np.int64(3), True), (np.uint8(3), True), (-2, True), (True, False),
     (np.bool_(True), False), (3.0, False), (np.float64(3.0), False), ("3", False), (None, False)],
    ids=["int", "int64", "uint8", "negative", "bool", "numpy_bool", "float", "float64", "str",
         "none"],
)
def test_is_integer(value, expected):
    # the one integer rule of counts, seeds and replications
    assert traffic.is_integer(value) is expected
