"""Traffic classes, arrival-sequence generators and envelope characterizations.

A traffic class couples an arrival process (periodic, Poisson, or Poisson
coupled to other classes through a shared random-number stream), a customer
size distribution, and the constant service rate its customers receive.
Generators are pure functions of (spec, count, seed): the same seed always
reproduces the same sequence, and every class draws from its own substream
of a single 64-bit seed, so adding or reordering classes does not perturb
the others. ArrivalStreams draws those streams for a batch of independent
paths, one per row, and can lengthen the paths after they are drawn; a
single sequence is its one-row case. One method, ArrivalStreams.draw,
draws a step: it fixes how many arrivals each class gets (a thinned class's
count comes from its mask), lays the step out in one flat buffer of times
and one of sizes, each drawn class one contiguous (rows, width) block in id
order, and fills the blocks. The step table is checked where it is given:
one integer count >= 1 for every class and none for another id. With one
row (generate_sequences) the blocks are the class-ordered run. The long run
draws its one step a piece at a time instead, by widths, and keeps no
history: the pieces are, in order, the step drawn whole, byte for byte.
Uniforms are drawn straight into a block and transformed there: into
exponential gaps or sizes in place, and gaps into arrival times by a
cumulative sum that carries the last time into the next piece's first gap.

Every reader of a random stream has its own generator, so a stream read a
piece at a time gives the numbers of one read. A coupling group's stream is
read by each of its classes: a scaled member reads it from the start, so
its j-th gap is -ln(u_j)/rate for every member, and rows take it in blocks
of the group's largest step, as one shared array of rows grown a step at a
time would hold it. A synchronized group's step is one stretch of its
stream: the master's uniforms, then each slower member's mask of the
instants it keeps, each read by a generator that PCG64.advance moves to its
offset. A step drawn whole reads the masks first, since they fix the
widths, and then the master's uniforms straight into the master's block.

A periodic class has one envelope type, DeterministicEnvelope: its rate/burst
constraint, and at a reference rate its burst tail. A Poisson class's burst
tail is an ExponentialTail.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError, InvalidSpecError, NoDecayError, UnsupportedEnvelopeError

# Substream roles for splittable seeding.
_ROLE_ARRIVALS = 0
_ROLE_SIZES = 1
_ROLE_GROUP = 2

#: Coupling mechanisms for classes sharing a random-number stream.
#: "scaled": class n's j-th interarrival is -ln(u_j)/rate_n, all classes
#: reading the same uniforms, so interarrival sequences are comonotone
#: (elementwise proportional).
#: "synchronized": the fastest class's arrival instants form a master
#: stream and each slower class keeps each instant with probability
#: rate_n/rate_max, so its arrivals coincide with master arrivals.
#: Both keep exact Poisson marginals per class.
COUPLING_MECHANISMS = ("scaled", "synchronized")


@dataclass(frozen=True)
class Periodic:
    """Arrivals at period, 2*period, 3*period, ... (empty system at time 0)."""

    period_s: float


@dataclass(frozen=True)
class Poisson:
    """Independent Poisson arrivals at the given rate."""

    rate_hz: float


@dataclass(frozen=True)
class CoupledPoisson:
    """Poisson arrivals sharing a random-number stream with a coupling group."""

    rate_hz: float
    coupling_group: int
    mechanism: str = "scaled"


@dataclass(frozen=True)
class Constant:
    """Every customer carries the same number of bits."""

    bits: float


@dataclass(frozen=True)
class ExponentialMean:
    """Customer sizes are i.i.d. exponential with the given mean (bits)."""

    mean_bits: float


ArrivalKind = Periodic | Poisson | CoupledPoisson
SizeKind = Constant | ExponentialMean


@dataclass(frozen=True)
class ClassSpec:
    """One traffic class: arrival process, size distribution, service rate."""

    class_id: int
    arrival: ArrivalKind
    size: SizeKind
    service_rate_bps: float

    def __post_init__(self):
        self._require("class_id", self.class_id, index=True)
        if self.class_id >= 2**63:  # the class column of records.csv is int64
            raise InvalidSpecError(
                f"class {self.class_id}: class_id must be below 2**63, got {self.class_id!r}"
            )
        if isinstance(self.arrival, Periodic):
            self._require("period", self.arrival.period_s)
        elif isinstance(self.arrival, (Poisson, CoupledPoisson)):
            self._require("rate", self.arrival.rate_hz)
            if isinstance(self.arrival, CoupledPoisson):
                self._require("coupling_group", self.arrival.coupling_group, index=True)
                if self.arrival.mechanism not in COUPLING_MECHANISMS:
                    raise InvalidSpecError(
                        f"class {self.class_id}: unknown coupling mechanism "
                        f"{self.arrival.mechanism!r}"
                    )
        else:
            raise InvalidSpecError(f"class {self.class_id}: unknown arrival kind")
        if isinstance(self.size, Constant):
            self._require("size", self.size.bits)
        elif isinstance(self.size, ExponentialMean):
            self._require("mean size", self.size.mean_bits)
        else:
            raise InvalidSpecError(f"class {self.class_id}: unknown size kind")
        if isinstance(self.arrival, Periodic) and not isinstance(self.size, Constant):
            raise InvalidSpecError(f"class {self.class_id}: periodic classes need constant sizes")
        self._require("service rate", self.service_rate_bps)
        # finite inputs can still imply an infinite rate or a service time of 0
        for name in ("arrival_rate_hz", "mean_service_s", "service_completion_rate_hz"):
            self._require(name, getattr(self, name))

    def _require(self, name: str, value, index: bool = False) -> None:
        """value must be finite and > 0, or an integer >= 0 if it is an index
        (an id keys a random substream, whose spawn key must be one)."""
        if not (is_integer(value) and value >= 0 if index else math.isfinite(value) and value > 0):
            rule = "an integer >= 0" if index else "finite and > 0"
            raise InvalidSpecError(f"class {self.class_id}: {name} must be {rule}, got {value!r}")

    @property
    def arrival_rate_hz(self) -> float:
        """Mean customer arrival rate (1/period for periodic classes)."""
        if isinstance(self.arrival, Periodic):
            return 1.0 / self.arrival.period_s
        return self.arrival.rate_hz

    @property
    def mean_size_bits(self) -> float:
        if isinstance(self.size, Constant):
            return self.size.bits
        return self.size.mean_bits

    @property
    def mean_service_s(self) -> float:
        """Mean time a customer of this class occupies the server."""
        return self.mean_size_bits / self.service_rate_bps

    @property
    def service_completion_rate_hz(self) -> float:
        return 1.0 / self.mean_service_s

    @property
    def mean_rate_bps(self) -> float:
        """Long-run traffic rate of the class in bits/second."""
        return self.arrival_rate_hz * self.mean_size_bits

    @property
    def utilization(self) -> float:
        """Fraction of the class's dedicated rate it consumes on average."""
        return self.arrival_rate_hz * self.mean_service_s


@dataclass(frozen=True)
class ArrivalSequence:
    """Ordered arrival events (time in seconds, size in bits) of one class.

    The arrays are one path of shape (n,), or a batch of paths of shape
    (rows, n), each row ordered; ragged rows end in +inf times.
    """

    class_id: int
    times_s: np.ndarray
    sizes_bits: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times_s, dtype=float)
        sizes = np.asarray(self.sizes_bits, dtype=float)
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "sizes_bits", sizes)
        if times.shape != sizes.shape or times.ndim not in (1, 2):
            raise InvalidSpecError("times and sizes must be 1-d or 2-d arrays of equal shape")
        # NaN fails every comparison, so a nondecreasing row that starts
        # above -inf holds no NaN or -inf, and the ordering pass checks both;
        # +inf stays legal, as the padding that ends a ragged row
        ordered = np.all(times[..., :1] > -np.inf) and np.all(times[..., 1:] >= times[..., :-1])
        if not ordered:
            if np.any(np.isnan(times) | (times == -np.inf)):
                raise InvalidSpecError("arrival times must not be NaN or -inf")
            raise InvalidSpecError("arrival times must be nondecreasing")
        if sizes.size and not (sizes.min() > 0 and sizes.max() < np.inf):  # NaN propagates
            raise InvalidSpecError("sizes must be finite and > 0")

    def __len__(self) -> int:
        return self.times_s.shape[-1]


@dataclass(frozen=True)
class DeterministicEnvelope:
    """Token-bucket style constraint: traffic in any window <= rate*t + burst."""

    rate_bps: float
    burst_bits: float

    def __post_init__(self):
        # NaN fails both comparisons
        if not (0 <= self.rate_bps < math.inf and 0 <= self.burst_bits < math.inf):
            raise InvalidSpecError("envelope rate and burst must be finite and nonnegative")

    def tail(self, sigma_bits):
        """As a burst tail: 1 below the burst, 0 from it on."""
        sigma = np.asarray(sigma_bits, dtype=float)
        out = np.where(sigma >= self.burst_bits, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ExponentialTail:
    """Probabilistic envelope with tail prefactor * exp(-decay_per_bit * sigma)."""

    rate_bps: float
    prefactor: float
    decay_per_bit: float

    def __post_init__(self):
        # NaN fails both comparisons
        if not 0 <= self.rate_bps < math.inf:
            raise InvalidSpecError("tail reference rate must be finite and nonnegative")
        if not (0 <= self.prefactor < math.inf and 0 < self.decay_per_bit < math.inf):
            raise InvalidSpecError("need a finite prefactor >= 0 and a finite decay > 0")

    def tail(self, sigma_bits):
        """Probability that the backlog-like supremum exceeds sigma bits."""
        sigma = np.asarray(sigma_bits, dtype=float)
        out = np.clip(self.prefactor * np.exp(-self.decay_per_bit * sigma), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out


GsbbTail = ExponentialTail | DeterministicEnvelope

#: One class's place in class-ordered buffers: (class_id, start, count), its
#: count columns following the start columns of the classes before it.
Segment = tuple[int, int, int]


def is_integer(value) -> bool:
    """An integer, numpy's included, but not a bool."""
    # a bool is an Integral, but True is not a count or a seed
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _substream(seed: int, role: int, key: int) -> np.random.Generator:
    """Deterministic per-(role, key) generator derived from one 64-bit seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(role, key)))


def _log_of_uniforms(u: np.ndarray) -> np.ndarray:
    """ln(u), computed in u's own buffer, which is returned."""
    # u == 0 has probability 2**-53 per draw but would give -inf; any other u
    # is at least 2**-53, so the maximum moves 0 alone
    np.maximum(u, np.finfo(float).tiny, out=u)
    return np.log(u, out=u)


def _exponential_from_uniforms(u: np.ndarray, rate_hz: float) -> np.ndarray:
    """-ln(u)/rate, computed in u's own buffer, which is returned."""
    # IEEE division is sign-symmetric: ln(u)/-rate is -ln(u)/rate bit for bit
    return np.divide(_log_of_uniforms(u), -rate_hz, out=u)


def _pack(kept: np.ndarray, values: np.ndarray, fill: float, out=None) -> np.ndarray:
    """Each row's kept values moved to its start, in order; the rest is fill.

    The result is out when given, of as many columns as the fullest row.
    """
    if out is not None and len(kept) == 1:  # one row, as wide as it keeps: no fill
        np.compress(kept[0], values[0], out=out[0])
        return out
    counts = kept.sum(-1)
    if out is None:
        out = np.empty((len(kept), counts.max()))
    out.fill(fill)
    out[np.arange(out.shape[-1]) < counts[:, None]] = values[kept]
    return out


class ArrivalStreams:
    """Arrivals of every class over `rows` independent sample paths.

    Row r of each class's (rows, n) arrays is one path, time-ordered along
    the last axis. A step draws `step[class_id]` arrivals of each named
    class, continuing its random streams; draw fills a step whole and
    appends it to `times` and `sizes`, so a path can be lengthened after it
    has been inspected. With widths, draw fills the first step a piece at a
    time and keeps no history: the pieces of one step are, in order, the
    step drawn whole. A synchronized group is drawn as a whole, and so is a
    scaled group when its step is drawn whole. A synchronized group draws
    `step` instants of its fastest class; the slower classes, `thinned`,
    keep a random subset, so their rows are ragged and end in +inf padding.
    `horizon[class_id][r]` is the time up to which row r holds every
    arrival of the class: its last arrival, or for a thinned class the
    last instant of the master stream it was thinned from.
    `drawn[class_id]` counts the columns drawn of the class, and
    remaining(class_id) bounds the arrivals the step in progress has left.
    """

    def __init__(self, specs: Sequence[ClassSpec], step: dict[int, int], seed: int, rows: int):
        ids = [s.class_id for s in specs]
        for cid in step.keys() - set(ids):
            raise InvalidSpecError(f"class {cid!r}: not a class of the specs")
        for s in specs:
            if ids.count(s.class_id) > 1:  # its draws would run into one array
                raise InvalidSpecError(f"duplicate class_id {s.class_id}")
            if s.class_id not in step:
                raise InvalidSpecError(f"class {s.class_id}: no count given")
            count = step[s.class_id]
            if not (is_integer(count) and count >= 1):
                raise InvalidSpecError(
                    f"class {s.class_id}: count must be an integer >= 1, got {count!r}"
                )
        if not (is_integer(rows) and rows >= 1):
            raise InvalidInputError(f"rows must be an integer >= 1, got {rows!r}")
        self._groups = coupling_groups(specs)
        # each synchronized class's master, the fastest of its group
        self._master = {}
        for members in self._groups.values():
            if members[0].arrival.mechanism == "synchronized":
                master = max(members, key=lambda m: m.arrival.rate_hz)
                self._master.update((m.class_id, master.class_id) for m in members)
        self.thinned = frozenset(cid for cid, master in self._master.items() if cid != master)
        self.specs = tuple(specs)
        self._specs = {s.class_id: s for s in specs}
        self.step = step
        self.rows = rows
        self._seed = seed
        self._rngs: dict[tuple[int, int, int], np.random.Generator] = {}
        self._unread: dict[int, np.ndarray] = {}  # a scaled member's uniforms drawn, not read
        self._left = {s.class_id: 0 for s in specs}  # of each count's step in progress
        self.drawn = {s.class_id: 0 for s in specs}
        self.times = {s.class_id: np.empty((rows, 0)) for s in specs}
        self.sizes = {s.class_id: np.empty((rows, 0)) for s in specs}
        self.horizon = {s.class_id: np.zeros(rows) for s in specs}

    def remaining(self, class_id: int) -> int:
        """At most how many arrivals of the class the step in progress has
        left: its own count's rest, or for a thinned class its master's."""
        return self._left[self._master.get(class_id, class_id)]

    def draw(self, class_ids: Iterable[int], widths: Mapping[int, int] | None = None,
             buffers: tuple | None = None) -> tuple[np.ndarray, np.ndarray, list[Segment]]:
        """Draw one step of arrivals of each named class and its coupling
        group, or with widths the next at most widths[c] arrivals of each
        named class c's first step, which its first draw begins; a class
        whose step is spent then draws no more. A thinned class draws
        through its master, by the master's width.

        A synchronized group's masks are read first, from their own offsets
        in the group's stream (_begin_step): a thinned class keeps a random
        subset of its master's instants, so its width is known only from
        its mask. The draw is then laid out in two flat buffers, of times
        and of sizes, each drawn class one contiguous (rows, width) block in
        id order, and the blocks are filled: uniforms are drawn straight
        into a block and transformed there; the flat buffers are the pair
        given as buffers, when it holds them. Returns the buffers and the
        segments, one (class_id, start, width) per drawn class, class c's
        block being [start*rows, (start + width)*rows) of the buffers. A
        class whose step is spent draws nothing and has no segment. With one
        row the blocks are the class-ordered run.
        """
        ids = set(class_ids)
        for cid in ids - self.step.keys():
            raise InvalidSpecError(f"class {cid!r}: not a class of the specs")
        for members in self._groups.values():
            whole = widths is None or members[0].class_id in self._master
            if whole and not ids.isdisjoint(m.class_id for m in members):
                ids.update(m.class_id for m in members)
        counts = {}  # arrivals of each class that draws by its own count
        for cid in ids:
            if self._master.get(cid, cid) == cid:
                if widths is None or not self.drawn[cid]:
                    self._begin_step(cid)
                left = self._left[cid]
                counts[cid] = left if widths is None else min(widths[cid], left)
        masks = {}
        for cid in self.thinned & ids:
            master = self._master[cid]
            rng = self._rng(_ROLE_GROUP, self._group(cid), cid)
            # thinning keeps the Poisson marginal at the class rate; no name
            # keeps the uniforms, so they go before the layout is allocated
            rate = self._specs[cid].arrival.rate_hz / self._specs[master].arrival.rate_hz
            masks[cid] = rng.random((self.rows, counts[master])) < rate
        segments, start = [], 0
        for cid in sorted(ids):
            n = int(masks[cid].sum(-1).max()) if cid in masks else counts[cid]
            if n:
                segments.append((cid, start, n))
                start += n
        rows = self.rows
        if buffers is None or len(buffers[0]) < start * rows:
            buffers = np.empty(start * rows), np.empty(start * rows)
        times, sizes = buffers
        # blocks, not column slices of (rows, start) arrays: random(out=)
        # takes only contiguous arrays
        out = {
            cid: (times[lo * rows : (lo + n) * rows].reshape(rows, n),
                  sizes[lo * rows : (lo + n) * rows].reshape(rows, n))
            for cid, lo, n in segments
        }
        for spec in self.specs:  # the masters before their thinned classes
            cid = spec.class_id
            if cid in out and cid not in masks:
                self._fill(spec, *out[cid])
        for cid, kept in masks.items():
            master = self._master[cid]
            self.horizon[cid] = self.horizon[master]  # if it keeps none of them, too
            if cid in out:
                block, block_sizes = out[cid]
                _pack(kept, out[master][0], np.inf, block)
                self._sizes(self._specs[cid], block_sizes)
        for cid, count in counts.items():
            self._left[cid] -= count
        for cid, _, n in segments:
            self.drawn[cid] += n
            if widths is None:
                self._append(cid, *out[cid])
        return times, sizes, segments

    def draw_through(self, class_id: int, j: int) -> None:
        """Draw until every row holds all arrivals up to class_id's j-th one."""
        while True:
            times = self.times[class_id]
            if times.shape[-1] < j or np.any(np.isinf(times[:, j - 1])):
                short = {class_id}  # a thinned class kept fewer than j instants
            else:
                needed = times[:, j - 1]
                short = {cid for cid, h in self.horizon.items() if np.any(h < needed)}
            if not short:
                return
            self.draw(short)

    def _group(self, class_id: int) -> int:
        return self._specs[class_id].arrival.coupling_group

    def _rng(self, role: int, key: int, reader: int | None = None) -> np.random.Generator:
        """The generator of substream (role, key); each reader of a shared
        stream, a class of its coupling group, reads it through its own."""
        reader = key if reader is None else reader
        if (role, key, reader) not in self._rngs:
            self._rngs[role, key, reader] = _substream(self._seed, role, key)
        return self._rngs[role, key, reader]

    def _begin_step(self, class_id: int) -> None:
        """Start the next step of a class that draws by its own count.

        A synchronized group's step is one stretch of its stream: the
        master's uniforms, rows*S of them for a step of S instants, then
        each slower member's mask, as many, in spec order. Each reads the
        stream through its own generator, so at the group's first step the
        i-th mask skips i stretches, and at every later step each reader
        skips the stretches of the other readers."""
        self._left[class_id] = self.step[class_id]
        if self._master.get(class_id) != class_id:
            return
        group = self._group(class_id)
        readers = [m.class_id for m in self._groups[group]]
        readers.remove(class_id)
        stretch = self.rows * self.step[class_id]
        first = self.drawn[class_id] == 0
        for i, cid in enumerate([class_id] + readers):
            skip = i * stretch if first else len(readers) * stretch
            if skip:
                self._rng(_ROLE_GROUP, group, cid).bit_generator.advance(skip)

    def _fill(self, spec: ClassSpec, block: np.ndarray, block_sizes: np.ndarray) -> None:
        """Draw a class that draws by its own count into its blocks."""
        cid = spec.class_id
        if isinstance(spec.arrival, Periodic):
            k = self.drawn[cid]
            arrivals = np.arange(k + 1, k + block.shape[-1] + 1, dtype=float)
            np.multiply(arrivals, np.full((self.rows, 1), spec.arrival.period_s), out=block)
            self._sizes(spec, block_sizes)
            self.horizon[cid] = block[:, -1].copy()  # the buffers may be reused
            return
        if isinstance(spec.arrival, Poisson):
            u = self._rng(_ROLE_ARRIVALS, cid).random(out=block)
        else:  # a coupled class reads its group's stream
            u = self._group_uniforms(spec, block)
        gaps = _exponential_from_uniforms(u, spec.arrival.rate_hz)
        self._append_gaps(spec, gaps, block_sizes)

    def _group_uniforms(self, spec: ClassSpec, out: np.ndarray) -> np.ndarray:
        """The next uniforms of a coupled class, drawn into out.

        A synchronized master reads its stretch of the group's stream. A
        scaled class's j-th gap is -ln(u_j)/rate for every member, u being
        the group's stream: with one row, each member reads it from the
        start through its own generator. Rows take it in blocks of (rows,
        W), W the largest step of the group, as one shared array of rows
        grown a step at a time would hold it, so a member keeps the columns
        of its last block that it has not read yet."""
        cid, group = spec.class_id, spec.arrival.coupling_group
        rng = self._rng(_ROLE_GROUP, group, cid)
        if self.rows == 1 or cid in self._master:
            return rng.random(out=out)
        unread = self._unread.get(cid, np.empty((self.rows, 0)))
        width = max(self.step[m.class_id] for m in self._groups[group])
        while unread.shape[-1] < out.shape[-1]:
            unread = np.concatenate([unread, rng.random((self.rows, width))], axis=-1)
        out[...] = unread[:, : out.shape[-1]]
        self._unread[cid] = unread[:, out.shape[-1] :]
        return out

    def _sizes(self, spec: ClassSpec, out: np.ndarray) -> np.ndarray:
        """Sizes drawn into out, which is returned."""
        if isinstance(spec.size, Constant):
            out.fill(spec.size.bits)
            return out
        u = _log_of_uniforms(self._rng(_ROLE_SIZES, spec.class_id).random(out=out))
        u *= -spec.size.mean_bits
        return u

    def _append_gaps(self, spec: ClassSpec, gaps: np.ndarray, sizes: np.ndarray) -> None:
        """Continue each row's arrival times by cumulative interarrival gaps,
        summed in the gaps' own buffer, and draw their sizes into sizes."""
        gaps[:, 0] += self.horizon[spec.class_id]  # the same sums as one longer path
        times = np.cumsum(gaps, axis=-1, out=gaps)
        self._sizes(spec, sizes)
        self.horizon[spec.class_id] = times[:, -1].copy()  # as in _fill

    def _append(self, class_id: int, times: np.ndarray, sizes: np.ndarray) -> None:
        old = self.times[class_id]
        if old.shape[-1]:
            times = np.concatenate([old, times], axis=-1)
            sizes = np.concatenate([self.sizes[class_id], sizes], axis=-1)
            if np.any(np.isinf(old[:, -1])):
                # padding of the earlier draw now sits mid-row: move it to the end
                real = np.isfinite(times)
                mean = self._specs[class_id].mean_size_bits
                times, sizes = _pack(real, times, np.inf), _pack(real, sizes, mean)
        self.times[class_id] = times
        self.sizes[class_id] = sizes


def generate_sequences(
    specs: Sequence[ClassSpec],
    counts: dict[int, int],
    seed: int,
) -> list[ArrivalSequence]:
    """Generate one sample path of every class, ordered like `specs`.

    This is the one-row ArrivalStreams draw, so a long run and a batch of
    replications come from the same generator.
    """
    streams = ArrivalStreams(specs, counts, seed, rows=1)
    streams.draw(counts)
    return [
        ArrivalSequence(s.class_id, streams.times[s.class_id][0], streams.sizes[s.class_id][0])
        for s in specs
    ]


def proportional_counts(specs: Sequence[ClassSpec], total: int) -> dict[int, int]:
    """Split a total customer budget across classes in proportion to their rates."""
    rates = np.array([s.arrival_rate_hz for s in specs])
    weights = rates / rates.sum()
    return {s.class_id: max(1, int(round(total * w))) for s, w in zip(specs, weights)}


def deterministic_envelope(spec: ClassSpec) -> DeterministicEnvelope:
    """Rate/burst envelope of a periodic constant-size class: (size/period, size)."""
    if not isinstance(spec.arrival, Periodic):
        raise UnsupportedEnvelopeError(
            f"class {spec.class_id}: only periodic constant-size classes have a "
            "deterministic envelope"
        )
    return DeterministicEnvelope(
        rate_bps=spec.size.bits / spec.arrival.period_s, burst_bits=spec.size.bits
    )


def gsbb_tail_from_mgf(
    spec: ClassSpec, reference_rate_bps: float, method: str = "exact"
) -> GsbbTail:
    """Probabilistic burst tail of one class relative to a reference rate.

    For a periodic constant-size class the tail is its envelope at the
    reference rate: the backlog supremum never exceeds one customer's bits.
    For Poisson classes the tail
    is exponential, with decay rate the largest theta satisfying the per-class
    condition E[exp(theta*(A(1)/C - R/C))] <= 1, the excess-work condition of
    analytic.excess_mgf at share R/C. With constant sizes that root has no
    closed form; method "exact" solves it numerically and "approx" uses the
    second-order expansion 2*(R/C - utilization)/(rate*Y^2). Exponential
    sizes admit the closed form mu - rate/(R/C), which is always exact.
    """
    if method not in ("exact", "approx"):
        raise InvalidSpecError(f"unknown method {method!r}")
    capacity = spec.service_rate_bps
    if isinstance(spec.arrival, Periodic):
        if reference_rate_bps < spec.mean_rate_bps:
            raise NoDecayError(
                "reference rate below the class's long-run rate: no finite burst"
            )
        return DeterministicEnvelope(rate_bps=reference_rate_bps, burst_bits=spec.size.bits)

    omega = reference_rate_bps / capacity
    rho_n = spec.utilization
    if omega <= rho_n:
        raise NoDecayError(
            f"class {spec.class_id}: reference rate share {omega:.6g} does not "
            f"exceed the class utilization {rho_n:.6g}"
        )
    if isinstance(spec.size, Constant):
        from .analytic import excess_mgf, second_order_theta, theta_exact

        if method == "approx":
            theta = second_order_theta([spec], omega)
        else:
            theta = theta_exact(excess_mgf([spec], omega)).theta_star
    else:
        # exponential sizes: rate/(mu - theta) = omega solves exactly
        theta = spec.service_completion_rate_hz - spec.arrival_rate_hz / omega
    return ExponentialTail(
        rate_bps=reference_rate_bps, prefactor=1.0, decay_per_bit=theta / capacity
    )


def coupling_groups(specs: Iterable[ClassSpec]) -> dict[int, list[ClassSpec]]:
    """Map coupling-group id to its member specs.

    Raises InvalidSpecError for a group of one class or a group whose
    classes use different mechanisms.
    """
    groups: dict[int, list[ClassSpec]] = {}
    for spec in specs:
        if isinstance(spec.arrival, CoupledPoisson):
            groups.setdefault(spec.arrival.coupling_group, []).append(spec)
    for group, members in groups.items():
        ids = ", ".join(str(m.class_id) for m in members)
        if len(members) < 2:
            raise InvalidSpecError(
                f"coupling group {group} (class {ids}): a coupling group needs at least 2 classes"
            )
        if len({m.arrival.mechanism for m in members}) != 1:
            raise InvalidSpecError(
                f"coupling group {group} (classes {ids}): "
                "all specs in a group must use the same mechanism"
            )
    return groups
