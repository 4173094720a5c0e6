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
error is 3.2e-15 s. The sequential loop (sequential_waits in
tests/reference.py) reaches 3.1e-12 s, and so does an unblocked scan, whose
prefix sums grow with the whole run.

Each numpy call of fifo_waits handles FIFO_GROUP blocks, the group viewed as
an array of shape (..., blocks, FIFO_BLOCK). Along its last axis, calls give
every block's relative times, prefix sums and running max of rel - prefix
without the carried start; a short loop then carries the backlog from block
to block in the operations of one block per call, and the group's waits take
the max with each block's start in one call more. max is exact, so the waits
are bit for bit those of one block per call. Groups stay small: each of a
group's temporaries is 256 KB and stays in a core's cache, where one stack
of every block of a 1M-customer run made 8 MB temporaries and, in place,
ran no faster than one block per call.

merge_streams sorts the class-ordered concatenation of the streams once,
and keeps that sort order as the one per-customer fact besides times and
service: source, each customer's position in the concatenation. Next to it
sit the segments, one (class_id, start, count) per class in id order, so a
class's customers are the sources in [start, start + count) and the j-th of
them is source start + j - 1. The class-id and j columns (class_ids,
class_index) are derived from the two on demand, for records.csv and tests;
the long run and the replications never build them. RunResult.write_csv
derives them, with the delay and departure columns, from one chunk of
CSV_CHUNK customers at a time and formats each row with one str.format, so
writing records.csv takes memory bounded by the chunk. Service times are made
in the merge too, while each class is still one segment: its sizes are
divided by its own rate before the gather, so run_fifo never looks a
customer's class up. Tail fractions count the values above each tau by
count_above, one searchsorted on sorted values; empirical_ccdf uses it, and
so does the comparison's CCDF stage (experiments._empirical_entries), which
scatters each metric back into class order by source, sorts each class's
segment once and counts the aggregate curve from the class counts; a class
of constant sizes gets its sorted delays by shifting its sorted waits.

Generation, merge_streams and fifo_waits work along the last axis, so the
same code runs one long path of shape (n,) and a batch of independent paths
of shape (rows, n), one queue per row. transient_delays runs replications in
chunks of rows, about TRANSIENT_CHUNK customers each. Chunk c draws from
replication_seed(case seed, c) and always draws all its rows, so replication
r is row r % rows of chunk r // rows, and results are a prefix-stable
function of (case, js, class id) whatever the number of replications.
Because FIFO is causal, a run is cut before the merge, never after it: the
long run trims each class at the horizon (experiments.simulate_case), and a
chunk trims each class at its rows' cut, the target's last requested
arrival, so a class's segment holds exactly its customers in the run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import starmap
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

#: Blocks of the FIFO scan handled per numpy call: enough to spread the
#: per-call overhead, few enough that a group's temporaries (256 KB each)
#: stay in a core's L2 cache.
FIFO_GROUP = 16

#: Customers per chunk of transient replications: enough rows to spread the
#: per-call overhead, few enough that a chunk's arrays stay near 1 MB each.
TRANSIENT_CHUNK = 2**17

#: Rows of records.csv formatted at a time: a chunk's six columns as Python
#: objects take a few MB, where a whole run's would grow with its length.
CSV_CHUNK = 2**16


#: One class's place in the class-ordered concatenation of the streams:
#: (class_id, start, count), its customers being sources start..start+count-1.
Segment = tuple[int, int, int]


def _class_columns(
    source: np.ndarray, segments: Sequence[Segment]
) -> tuple[np.ndarray, np.ndarray]:
    """Class ids and 1-based j of the customers with the given sources."""
    positions = np.zeros(source.shape, dtype=np.intp)  # each customer's segment
    for _, start, _ in segments[1:]:
        positions += source >= start
    ids, starts = np.array([(cid, start) for cid, start, _ in segments], dtype=np.int64).T
    return ids.take(positions), source - starts.take(positions) + 1


class _ClassColumns:
    """Class-id and 1-based j columns, derived on demand from source and segments."""

    source: np.ndarray
    segments: tuple[Segment, ...]

    @property
    def class_ids(self) -> np.ndarray:
        return _class_columns(self.source, self.segments)[0]

    @property
    def class_index(self) -> np.ndarray:
        return _class_columns(self.source, self.segments)[1]


@dataclass(frozen=True)
class MergedArrivals(_ClassColumns):
    """Aggregate arrival stream, ordered by time with deterministic tie-breaks.

    source[i] is customer i's position in the class-ordered concatenation
    of the streams, and segments lay the classes out in it, one
    (class_id, start, count) per class in id order. class_ids and
    class_index are derived from them when read.
    """

    times_s: np.ndarray
    service_s: np.ndarray  # size over the rate of the customer's class
    source: np.ndarray
    segments: tuple[Segment, ...]

    def __len__(self) -> int:
        return len(self.times_s)


@dataclass
class RunResult(_ClassColumns):
    """All per-customer outcomes of one simulation run, as parallel arrays.

    Waiting is the stored quantity; delay and departure derive from it, so
    waiting >= 0 and delay = waiting + service hold exactly in floats. A
    batch run holds (rows, n) arrays, and its length counts every row. The
    source, arrival and service arrays are those of the merged stream, not
    copies; class_ids and class_index are derived from source and segments
    when read, as for MergedArrivals.
    """

    source: np.ndarray
    segments: tuple[Segment, ...]
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
        """records.csv: one row per customer, in arrival order.

        Rows are formatted CSV_CHUNK at a time from that chunk's slices, so
        memory stays bounded whatever the run's length. The bytes are those
        of csv.writer on repr of each float: no field needs quoting.
        """
        if self.arrival_s.ndim != 1:
            raise InvalidInputError("records.csv holds one run: this result is a batch")
        row = "{},{},{!r},{!r},{!r},{!r}\r\n".format
        with open(path, "w", newline="") as fh:
            fh.write("class_id,j,arrival_s,departure_s,delay_s,waiting_s\r\n")
            for lo in range(0, len(self), CSV_CHUNK):
                chunk = slice(lo, lo + CSV_CHUNK)
                arrival, waiting = self.arrival_s[chunk], self.waiting_s[chunk]
                delay = waiting + self.service_s[chunk]
                departure = arrival + delay
                columns = (
                    *_class_columns(self.source[chunk], self.segments),
                    arrival,
                    departure,
                    delay,
                    waiting,
                )
                fh.write("".join(starmap(row, zip(*(c.tolist() for c in columns)))))


@dataclass(frozen=True)
class EmpiricalCCDF:
    """Tail fractions of a sample over a tau grid."""

    fractions: np.ndarray
    sample_count: int


def merge_streams(
    sequences: Sequence[ArrivalSequence], rates_bps: Mapping[int, float]
) -> MergedArrivals:
    """Stable time-ordered merge; ties go to the lower class id, then lower j.

    Streams are concatenated in class-id order, each already time-ordered, so
    one stable sort along the last axis breaks ties as stated. Each class's
    segment of the concatenated sizes is divided in place by its service
    rate, so the gathered column holds service times. The sort order is kept
    as each customer's source, and the class layout as segments. Batches of
    shape (rows, n) merge row by row.
    """
    if not sequences:
        raise InvalidInputError("need at least one arrival sequence")
    sequences = sorted(sequences, key=lambda s: s.class_id)
    segments = []
    start = 0
    for seq in sequences:
        if seq.class_id not in rates_bps:
            raise InvalidInputError(f"no service rate for class {seq.class_id}")
        if not rates_bps[seq.class_id] > 0:  # NaN fails too
            raise InvalidInputError("sizes and rates must be positive")
        segments.append((seq.class_id, start, len(seq)))
        start += len(seq)
    times = np.concatenate([s.times_s for s in sequences], axis=-1)
    service = np.concatenate([s.sizes_bits for s in sequences], axis=-1)
    for cid, start, count in segments:
        service[..., start : start + count] /= rates_bps[cid]
    source = np.argsort(times, axis=-1, kind="stable")
    # a batch row's sources count from that row's start in the flat arrays
    n = times.shape[-1]
    flat = source if source.ndim == 1 else source + n * np.arange(len(source))[:, None]
    service_s = service.take(flat)
    # the concatenated sizes are spent: their buffer takes the ordered times,
    # which saves the fresh pages of one more array (indices are in range,
    # so clip mode changes nothing but skips the buffered bounds check)
    times_s = times.take(flat, out=service, mode="clip")
    return MergedArrivals(times_s, service_s, source, tuple(segments))


def fifo_waits(arrival_s: np.ndarray, service_s: np.ndarray) -> np.ndarray:
    """Waiting times of the FIFO recursion, by the blocked prefix-max scan.

    Arrivals must be time-ordered along the last axis; each leading index is
    its own queue. The server is empty at time 0, as in the recursion
    started from d = 0. See the module docstring for the formula and for how
    blocks are grouped.
    """
    waits = np.empty(arrival_s.shape)
    if arrival_s.ndim == 1:  # one queue: its carry is plain floats
        backlog = last_arrival = 0.0
        maximum, per_block = _maximum, np.ndarray.tolist
    else:  # one carry per queue, a vector over the leading axes
        backlog = np.zeros(arrival_s.shape[:-1])  # departure minus the last arrival
        last_arrival = np.zeros(arrival_s.shape[:-1])
        maximum, per_block = np.maximum, lambda x: list(np.moveaxis(x, -1, 0))
    n = arrival_s.shape[-1]
    full = n - n % FIFO_BLOCK
    groups = [(lo, min(lo + FIFO_GROUP * FIFO_BLOCK, full), FIFO_BLOCK)
              for lo in range(0, full, FIFO_GROUP * FIFO_BLOCK)]
    if full < n:  # the ragged last block is a group of one shorter block
        groups.append((full, n, n - full))
    for lo, hi, width in groups:
        shape = (*arrival_s.shape[:-1], (hi - lo) // width, width)  # (..., blocks, width)
        a = arrival_s[..., lo:hi].reshape(shape)
        s = service_s[..., lo:hi].reshape(shape)
        rel = a - a[..., :1]
        prefix = np.empty(shape)  # service of the block's customers before i
        prefix[..., 0] = 0.0
        np.cumsum(s[..., :-1], axis=-1, out=prefix[..., 1:])
        start = np.empty(shape)  # departure before i, minus prefix[i], once carried
        start[..., 0] = -np.inf
        np.subtract(rel[..., :-1], prefix[..., :-1], out=start[..., 1:])
        np.maximum.accumulate(start, axis=-1, out=start)
        # the carry, block by block, in the operations of one block per call:
        # each block starts from the backlog after the previous block's last
        # arrival; max is exact, so taking it after the running max is too
        carried = []
        for a_first, a_last, p_last, m_last, rel_last, s_last in zip(*map(per_block, (
            a[..., 0], a[..., -1], prefix[..., -1], start[..., -1], rel[..., -1], s[..., -1]
        ))):
            carried.append(backlog - (a_first - last_arrival))
            backlog = maximum((p_last + maximum(carried[-1], m_last)) - rel_last, 0.0) + s_last
            last_arrival = a_last
        carried = np.moveaxis(np.array(carried), 0, -1)  # (..., blocks)
        np.maximum(carried[..., None], start, out=start)
        w = waits[..., lo:hi].reshape(shape)
        np.add(prefix, start, out=w)
        np.subtract(w, rel, out=w)
        np.maximum(w, 0.0, out=w)
    return waits


def _maximum(x: float, y: float) -> float:
    """np.maximum of two floats: x on ties and when x is NaN, else the larger."""
    return x if x >= y or x != x else y


def run_fifo(merged: MergedArrivals) -> RunResult:
    """Apply the FIFO departure recursion to a merged arrival stream.

    The server is empty before the first arrival.
    """
    times = merged.times_s
    if np.any(times[..., 1:] < times[..., :-1]):
        raise InvalidInputError("aggregate arrivals must be time-ordered")
    return RunResult(
        source=merged.source,
        segments=merged.segments,
        arrival_s=times,
        waiting_s=fifo_waits(times, merged.service_s),
        service_s=merged.service_s,
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
    above = count_above(kept, np.asarray(grid_s, dtype=float))
    return EmpiricalCCDF(above / len(kept), len(kept))


def count_above(sorted_s: np.ndarray, grid_s: np.ndarray) -> np.ndarray:
    """Number of values above each tau of the grid, of values sorted ascending."""
    return len(sorted_s) - np.searchsorted(sorted_s, grid_s, side="right")


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
    # FIFO is causal: customers after the last requested one cannot change
    # its delay, so each row is cut at that customer's arrival. Every class
    # keeps the columns that some row holds up to its cut, a customer at the
    # cut itself included: with a lower class id it goes first
    target = next(s for s in sequences if s.class_id == class_id)
    cut_s = target.times_s[:, js[-1] - 1 : js[-1]]
    trimmed = [
        seq.prefix(int(np.count_nonzero(seq.times_s <= cut_s, axis=-1).max()))
        for seq in sequences
    ]
    merged = merge_streams(trimmed, rates_bps)
    start = next(start for cid, start, _ in merged.segments if cid == class_id)
    at = np.stack([np.argmax(merged.source == start + j - 1, axis=-1) for j in js])
    # the columns past every row's cut are dropped, and a row's later times
    # (the +inf padding of ragged rows among them) are clamped to its cut
    width = at[-1].max() + 1
    times = np.minimum(merged.times_s[:, :width], cut_s)
    rest = (merged.service_s[:, :width], merged.source[:, :width], merged.segments)
    result = run_fifo(MergedArrivals(times, *rest))
    # delay = waiting + service, at the requested customers only
    waiting = np.take_along_axis(result.waiting_s, at.T, -1)
    return (waiting + np.take_along_axis(result.service_s, at.T, -1)).T


def _is_count(value) -> bool:
    """An integer, numpy's included, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def transient_delays(
    case: "CaseConfig", js: Sequence[int], class_id: int, replications: int
) -> dict[int, np.ndarray]:
    """Delay of the j-th class customer across independent replications.

    One path per replication serves every requested j, so the returned
    arrays are sampled from the same runs. Replications run as rows of
    chunks; the module docstring gives the seed layout.
    """
    if not (_is_count(replications) and replications >= 1):
        raise InvalidInputError(f"replications must be an integer >= 1, got {replications!r}")
    js = list(js)
    if not js:
        raise InvalidInputError("js must name at least one customer")
    for j in js:
        if not (_is_count(j) and j >= 1):
            raise InvalidInputError(f"customer indices must be integers >= 1, got {j!r}")
    js = sorted(set(map(int, js)))
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
