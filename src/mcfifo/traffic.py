"""Traffic classes, arrival-sequence generators and envelope characterizations.

A traffic class couples an arrival process (periodic, Poisson, or Poisson
coupled to other classes through a shared random-number stream), a customer
size distribution, and the constant service rate its customers receive.
Generators are pure functions of (spec, count, seed): the same seed always
reproduces the same sequence, and every class draws from its own substream
of a single 64-bit seed, so adding or reordering classes does not perturb
the others. ArrivalStreams draws those streams for a batch of independent
paths, one per row, and can lengthen the paths after they are drawn; a
single sequence is its one-row case. Draws are transformed in the buffer
they were drawn into: uniforms become exponential gaps or sizes in place,
and gaps become arrival times by a cumulative sum into the same buffer.
Every member of a scaled coupling group reads the group's shared uniforms,
so each member transforms a copy of its slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidSpecError, NoDecayError, UnsupportedEnvelopeError

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
        if isinstance(self.arrival, Periodic):
            self._require_positive("period", self.arrival.period_s)
        elif isinstance(self.arrival, (Poisson, CoupledPoisson)):
            self._require_positive("rate", self.arrival.rate_hz)
            if isinstance(self.arrival, CoupledPoisson):
                if self.arrival.mechanism not in COUPLING_MECHANISMS:
                    raise InvalidSpecError(
                        f"class {self.class_id}: unknown coupling mechanism "
                        f"{self.arrival.mechanism!r}"
                    )
        else:
            raise InvalidSpecError(f"class {self.class_id}: unknown arrival kind")
        if isinstance(self.size, Constant):
            self._require_positive("size", self.size.bits)
        elif isinstance(self.size, ExponentialMean):
            self._require_positive("mean size", self.size.mean_bits)
        else:
            raise InvalidSpecError(f"class {self.class_id}: unknown size kind")
        if isinstance(self.arrival, Periodic) and not isinstance(self.size, Constant):
            raise InvalidSpecError(f"class {self.class_id}: periodic classes need constant sizes")
        self._require_positive("service rate", self.service_rate_bps)

    def _require_positive(self, name: str, value: float) -> None:
        if not (math.isfinite(value) and value > 0):
            raise InvalidSpecError(
                f"class {self.class_id}: {name} must be finite and > 0, got {value!r}"
            )

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

    def prefix(self, count: int) -> ArrivalSequence:
        """The first count arrivals of every row, not checked again: a prefix
        of an ordered row with valid sizes is ordered with valid sizes."""
        out = object.__new__(ArrivalSequence)
        object.__setattr__(out, "class_id", self.class_id)
        object.__setattr__(out, "times_s", self.times_s[..., :count])
        object.__setattr__(out, "sizes_bits", self.sizes_bits[..., :count])
        return out


@dataclass(frozen=True)
class DeterministicEnvelope:
    """Token-bucket style constraint: traffic in any window <= rate*t + burst."""

    rate_bps: float
    burst_bits: float

    def __post_init__(self):
        if self.rate_bps < 0 or self.burst_bits < 0:
            raise InvalidSpecError("envelope rate and burst must be nonnegative")


@dataclass(frozen=True)
class ExponentialTail:
    """Probabilistic envelope with tail prefactor * exp(-decay_per_bit * sigma)."""

    rate_bps: float
    prefactor: float
    decay_per_bit: float

    def __post_init__(self):
        # NaN fails both comparisons
        if not (0 <= self.prefactor < math.inf and 0 < self.decay_per_bit < math.inf):
            raise InvalidSpecError("need a finite prefactor >= 0 and a finite decay > 0")

    def tail(self, sigma_bits):
        """Probability that the backlog-like supremum exceeds sigma bits."""
        sigma = np.asarray(sigma_bits, dtype=float)
        out = np.clip(self.prefactor * np.exp(-self.decay_per_bit * sigma), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DegenerateTail:
    """Deterministic envelope as a tail: certain below the burst, zero at/above."""

    rate_bps: float
    burst_bits: float

    def tail(self, sigma_bits):
        sigma = np.asarray(sigma_bits, dtype=float)
        out = np.where(sigma >= self.burst_bits, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out


GsbbTail = ExponentialTail | DegenerateTail


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
    np.negative(_log_of_uniforms(u), out=u)
    u /= rate_hz
    return u


def _pack(kept: np.ndarray, values: np.ndarray, fill: float) -> np.ndarray:
    """Each row's kept values moved to its start, in order; the rest is fill."""
    counts = kept.sum(-1)
    out = np.full((len(kept), counts.max()), fill)
    out[np.arange(out.shape[-1]) < counts[:, None]] = values[kept]
    return out


class ArrivalStreams:
    """Arrivals of every class over `rows` independent sample paths.

    Row r of each class's (rows, n) arrays is one path, time-ordered along
    the last axis. Each draw appends `step[class_id]` arrivals to every row of
    the named classes, continuing their random streams, so a path can be
    lengthened after it has been inspected. A coupling group is drawn as a
    whole. A synchronized group draws `step` instants of its fastest class;
    the slower classes keep a random subset, so their rows are ragged and end
    in +inf padding. `horizon[class_id][r]` is the time up to which row r
    holds every arrival of the class: its last arrival, or for a thinned
    class the last instant of the master stream it was thinned from.
    """

    def __init__(self, specs: Sequence[ClassSpec], step: dict[int, int], seed: int, rows: int):
        if any(step[s.class_id] < 1 for s in specs):
            raise InvalidSpecError("count must be >= 1")
        self._groups = coupling_groups(specs)
        self.specs = tuple(specs)
        self.step = step
        self.rows = rows
        self._seed = seed
        self._rngs: dict[tuple[int, int], np.random.Generator] = {}
        self._shared: dict[int, np.ndarray] = {}  # uniforms of each scaled group
        self.times = {s.class_id: np.empty((rows, 0)) for s in specs}
        self.sizes = {s.class_id: np.empty((rows, 0)) for s in specs}
        self.horizon = {s.class_id: np.zeros(rows) for s in specs}

    def draw(self, class_ids: Iterable[int]) -> None:
        """Append one step of arrivals to each named class (and its group)."""
        ids = set(class_ids)
        for spec in self.specs:
            n = self.step[spec.class_id]
            if spec.class_id not in ids or isinstance(spec.arrival, CoupledPoisson):
                continue
            if isinstance(spec.arrival, Periodic):
                k = self.times[spec.class_id].shape[-1]
                period = np.full((self.rows, 1), spec.arrival.period_s)
                times = np.arange(k + 1, k + n + 1, dtype=float) * period
                self._append(spec, times, self._sizes(spec, n))
                self.horizon[spec.class_id] = times[:, -1]
            else:
                u = self._rng(_ROLE_ARRIVALS, spec.class_id).random((self.rows, n))
                self._append_gaps(spec, _exponential_from_uniforms(u, spec.arrival.rate_hz))
        for group, members in self._groups.items():
            if ids.isdisjoint(m.class_id for m in members):
                continue
            if members[0].arrival.mechanism == "scaled":
                self._draw_scaled(group, members)
            else:
                self._draw_synchronized(group, members)

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

    def sequences(self) -> list[ArrivalSequence]:
        """One (rows, n) ArrivalSequence per class, ordered like the specs."""
        return [
            ArrivalSequence(s.class_id, self.times[s.class_id], self.sizes[s.class_id])
            for s in self.specs
        ]

    def _rng(self, role: int, key: int) -> np.random.Generator:
        if (role, key) not in self._rngs:
            self._rngs[role, key] = _substream(self._seed, role, key)
        return self._rngs[role, key]

    def _sizes(self, spec: ClassSpec, count: int) -> np.ndarray:
        if isinstance(spec.size, Constant):
            return np.full((self.rows, count), spec.size.bits, dtype=float)
        u = _log_of_uniforms(self._rng(_ROLE_SIZES, spec.class_id).random((self.rows, count)))
        u *= -spec.size.mean_bits
        return u

    def _append_gaps(self, spec: ClassSpec, gaps: np.ndarray) -> None:
        """Continue each row's arrival times by cumulative interarrival gaps,
        summed in the gaps' own buffer."""
        gaps[:, 0] += self.horizon[spec.class_id]  # the same sums as one longer path
        times = np.cumsum(gaps, axis=-1, out=gaps)
        self._append(spec, times, self._sizes(spec, times.shape[-1]))
        self.horizon[spec.class_id] = times[:, -1]

    def _append(self, spec: ClassSpec, times: np.ndarray, sizes: np.ndarray) -> None:
        old = self.times[spec.class_id]
        if old.shape[-1]:
            times = np.concatenate([old, times], axis=-1)
            sizes = np.concatenate([self.sizes[spec.class_id], sizes], axis=-1)
            if np.any(np.isinf(old[:, -1])):
                # padding of the earlier draw now sits mid-row: move it to the end
                real = np.isfinite(times)
                times, sizes = _pack(real, times, np.inf), _pack(real, sizes, spec.mean_size_bits)
        self.times[spec.class_id] = times
        self.sizes[spec.class_id] = sizes

    def _draw_scaled(self, group: int, members: list[ClassSpec]) -> None:
        # class n's j-th gap is -ln(u_j)/rate_n for every class: the members
        # consume one shared row of uniforms, each at its own step
        u = self._shared.get(group, np.empty((self.rows, 0)))
        need = max(self.times[m.class_id].shape[-1] + self.step[m.class_id] for m in members)
        if need > u.shape[-1]:
            more = self._rng(_ROLE_GROUP, group).random((self.rows, need - u.shape[-1]))
            u = self._shared[group] = np.concatenate([u, more], axis=-1)
        for m in members:
            k = self.times[m.class_id].shape[-1]
            # a copy: the other members read the same uniforms again
            gaps = _exponential_from_uniforms(
                u[:, k : k + self.step[m.class_id]].copy(), m.arrival.rate_hz
            )
            self._append_gaps(m, gaps)

    def _draw_synchronized(self, group: int, members: list[ClassSpec]) -> None:
        rng = self._rng(_ROLE_GROUP, group)
        master = max(members, key=lambda m: m.arrival.rate_hz)
        rate_max = master.arrival.rate_hz
        u = rng.random((self.rows, self.step[master.class_id]))
        self._append_gaps(master, _exponential_from_uniforms(u, rate_max))
        instants = self.times[master.class_id][:, -u.shape[-1] :]
        for m in members:
            if m is master:
                continue
            # thinning keeps the Poisson marginal at the class rate
            kept = rng.random(u.shape) < m.arrival.rate_hz / rate_max
            times = _pack(kept, instants, np.inf)
            self._append(m, times, self._sizes(m, times.shape[-1]))
            self.horizon[m.class_id] = self.horizon[master.class_id]


def generate_sequences(
    specs: Sequence[ClassSpec],
    counts: dict[int, int],
    seed: int,
) -> list[ArrivalSequence]:
    """Generate one sample path of every class, ordered like `specs`.

    This is row 0 of a one-row ArrivalStreams draw, so a long run and a batch
    of replications come from the same generator.
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
    counts = {
        s.class_id: max(1, int(round(total * w))) for s, w in zip(specs, weights)
    }
    return counts


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

    For a periodic constant-size class the tail is degenerate: the backlog
    supremum never exceeds one customer's bits. For Poisson classes the tail
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
        return DegenerateTail(rate_bps=reference_rate_bps, burst_bits=spec.size.bits)

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
    for members in groups.values():
        if len(members) < 2:
            raise InvalidSpecError("a coupling group needs at least 2 classes")
        if len({m.arrival.mechanism for m in members}) != 1:
            raise InvalidSpecError("all specs in a group must use the same mechanism")
    return groups
