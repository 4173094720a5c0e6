"""Event-driven multiclass FIFO queue, for one long run or a batch of runs.

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

Generation, merge_streams and fifo_waits work along the last axis, so the
same code runs one long path of shape (n,) and a batch of independent paths
of shape (rows, n), one queue per row. transient_delays runs replications in
chunks of rows, about TRANSIENT_CHUNK customers each. Chunk c draws from
replication_seed(case seed, c) and always draws all its rows, so replication
r is row r % rows of chunk r // rows, and results are a prefix-stable
function of (case, js, class id) whatever the number of replications.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError
from .traffic import ArrivalSequence, ArrivalStreams, ClassSpec, Periodic

if TYPE_CHECKING:  # pragma: no cover
    from .experiments import CaseConfig

#: Customers per block of the FIFO scan: larger blocks cost less Python
#: overhead, smaller ones keep the block-local prefix sums shorter and so
#: their rounding smaller.
FIFO_BLOCK = 2048

#: Customers per chunk of transient replications: enough rows to spread the
#: per-call overhead, few enough that a chunk's arrays stay near 1 MB each.
TRANSIENT_CHUNK = 2**17


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
    waiting >= 0 and delay = waiting + service hold exactly in floats. A
    batch run holds (rows, n) arrays, and its length counts every row. The
    class, index and arrival arrays are those of the merged stream, not copies.
    """

    class_ids: np.ndarray
    class_index: np.ndarray
    arrival_s: np.ndarray
    waiting_s: np.ndarray
    service_s: np.ndarray

    def __len__(self) -> int:
        return self.arrival_s.size

    @property
    def delay_s(self) -> np.ndarray:
        return self.waiting_s + self.service_s

    @property
    def departure_s(self) -> np.ndarray:
        return self.arrival_s + self.delay_s

    def write_csv(self, path) -> None:
        columns = (
            self.class_ids.tolist(),
            self.class_index.tolist(),
            map(repr, self.arrival_s.tolist()),
            map(repr, self.departure_s.tolist()),
            map(repr, self.delay_s.tolist()),
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


def merge_streams(sequences: Sequence[ArrivalSequence]) -> MergedArrivals:
    """Stable time-ordered merge; ties go to the lower class id, then lower j.

    Streams are concatenated in class-id order, each already time-ordered, so
    one stable sort along the last axis breaks ties as stated. Batches of
    shape (rows, n) merge row by row.
    """
    sequences = sorted(sequences, key=lambda s: s.class_id)
    times = np.concatenate([s.times_s for s in sequences], axis=-1)
    sizes = np.concatenate([s.sizes_bits for s in sequences], axis=-1)
    cids = np.concatenate([np.full(len(s), s.class_id, dtype=np.int64) for s in sequences])
    jidx = np.concatenate([np.arange(1, len(s) + 1, dtype=np.int64) for s in sequences])
    order = np.argsort(times, axis=-1, kind="stable")
    return MergedArrivals(
        np.take_along_axis(times, order, -1),
        np.take_along_axis(sizes, order, -1),
        cids[order],
        jidx[order],
    )


def fifo_waits(arrival_s: np.ndarray, service_s: np.ndarray) -> np.ndarray:
    """Waiting times of the FIFO recursion, by the blocked prefix-max scan.

    Arrivals must be time-ordered along the last axis; each leading index is
    its own queue. The server is empty at time 0, as in the recursion
    started from d = 0. See the module docstring for the formula.
    """
    waits = np.empty(arrival_s.shape)
    backlog = np.zeros(arrival_s.shape[:-1])  # departure minus the last arrival
    last_arrival = np.zeros(arrival_s.shape[:-1])
    for lo in range(0, arrival_s.shape[-1], FIFO_BLOCK):
        a = arrival_s[..., lo : lo + FIFO_BLOCK]
        s = service_s[..., lo : lo + FIFO_BLOCK]
        rel = a - a[..., :1]
        prefix = np.empty(a.shape)  # service of the block's customers before i
        prefix[..., 0] = 0.0
        np.cumsum(s[..., :-1], axis=-1, out=prefix[..., 1:])
        start = np.empty(a.shape)  # departure before i, minus prefix[i]
        start[..., 0] = backlog - (a[..., 0] - last_arrival)
        np.subtract(rel[..., :-1], prefix[..., :-1], out=start[..., 1:])
        np.maximum.accumulate(start, axis=-1, out=start)
        w = prefix + start - rel
        np.maximum(w, 0.0, out=w)
        waits[..., lo : lo + FIFO_BLOCK] = w
        backlog = w[..., -1] + s[..., -1]
        last_arrival = a[..., -1]
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
        class_ids=merged.class_ids,
        class_index=merged.class_index,
        arrival_s=times,
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


def replication_seed(base_seed: int, chunk: int) -> int:
    """Independent 64-bit seed for one chunk of replications, stable across platforms."""
    ss = np.random.SeedSequence(entropy=[base_seed, chunk])
    return int(ss.generate_state(1, np.uint64)[0])


def _transient_plan(
    specs: Sequence[ClassSpec], class_id: int, j_max: int
) -> tuple[dict[int, int], int]:
    """Arrivals per class in each draw of a chunk, and the chunk's rows."""
    target = next(s for s in specs if s.class_id == class_id)
    step = {}
    for s in specs:
        expected = j_max * s.arrival_rate_hz / target.arrival_rate_hz
        step[s.class_id] = max(4, int(1.25 * expected) + 8)
    step[class_id] = max(step[class_id], j_max)
    return step, max(1, TRANSIENT_CHUNK // sum(step.values()))


def _chunk_delays(
    sequences: Sequence[ArrivalSequence], rates_bps: Mapping[int, float], class_id: int, js
) -> np.ndarray:
    """Delays of the target's js-th customers in each row, shape (len(js), rows)."""
    merged = merge_streams(sequences)
    target = merged.class_ids == class_id
    at = np.stack([np.argmax(target & (merged.class_index == j), axis=-1) for j in js])
    # FIFO is causal: customers after the last requested one cannot change
    # its delay, so each row is cut there, and later times (the +inf padding
    # of ragged rows among them) are clamped to the cut time
    width = at[-1].max() + 1
    cut_s = np.take_along_axis(merged.times_s, at[-1:].T, -1)
    times = np.minimum(merged.times_s[:, :width], cut_s)
    rest = (merged.sizes_bits, merged.class_ids, merged.class_index)
    sizes, cids, jidx = (x[:, :width] for x in rest)
    result = run_fifo(MergedArrivals(times, sizes, cids, jidx), rates_bps)
    return np.take_along_axis(result.delay_s, at.T, -1).T


def transient_delays(
    case: "CaseConfig", js: Sequence[int], class_id: int, replications: int
) -> dict[int, np.ndarray]:
    """Delay of the j-th class customer across independent replications.

    One path per replication serves every requested j, so the returned
    arrays are sampled from the same runs. Replications run as rows of
    chunks; the module docstring gives the seed layout.
    """
    if replications < 1:
        raise InvalidInputError("replications must be >= 1")
    js = sorted(set(int(j) for j in js))
    if any(j < 1 for j in js):
        raise InvalidInputError("customer indices are 1-based")
    if class_id not in case.rates():
        raise InvalidInputError(f"no class {class_id} in the case")
    if all(isinstance(s.arrival, Periodic) for s in case.specs):
        if replications > 1:
            warnings.warn(
                "all classes are deterministic: replications are identical",
                stacklevel=2,
            )
    step, rows = _transient_plan(case.specs, class_id, js[-1])
    chunks = -(-replications // rows)
    out = np.empty((len(js), chunks * rows))
    for chunk in range(chunks):
        streams = ArrivalStreams(case.specs, step, replication_seed(case.seed, chunk), rows)
        streams.draw_through(class_id, js[-1])
        delays = _chunk_delays(streams.sequences(), case.rates(), class_id, js)
        out[:, chunk * rows : (chunk + 1) * rows] = delays
    return {j: out[i, :replications].copy() for i, j in enumerate(js)}
