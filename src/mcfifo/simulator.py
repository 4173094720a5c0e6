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
are bit for bit those of one block per call. Groups stay small: the relative
times sit in the group's slice of the waits, and the two other temporaries,
256 KB each, are allocated once per call and stay in a core's cache, where
one stack of every block of a 1M-customer run made 8 MB temporaries and, in
place, ran no faster than one block per call.

merge_streams merges whole runs. It concatenates the sequences, in class id
order, into fresh buffers of times and sizes, and leaves the sequences as
they were; batches and short runs merge that way. It divides each class's
sizes by its own rate, so run_fifo never looks a customer's class up, and
sorts the class-ordered times once. That sort order is the one per-customer
fact besides times and service: source, each customer's position in the
buffers. Next to it sit the segments, one (class_id, start, count) per
class in id order, so a class's customers are the sources in [start, start
+ count) and the j-th of them is source start + j - 1. Two gathers make the
merged columns: the service times, and then the spent sizes buffer takes
the ordered times. A run's record is one type: RunResult is the
MergedArrivals it ran, the same arrays, plus its waits, so every
per-customer column is defined once. run_fifo rejects arrival times that
are not finite or not time-ordered and service times that are not finite
and >= 0. write_records formats rows of records.csv, each with one
str.format. Both of its callers pass it RECORD_ROWS rows at a time:
RunResult.write_csv, which derives their class-id and j columns from source
and segments (_class_columns), and experiments.simulate, from each window.

A long run holds no array that grows with the run (but what
experiments.simulate_case collects). fifo_windows, one generator, draws,
merges, checks and scans it a window of CHUNK customers at a time. The
classes are drawn from the run's one step (ArrivalStreams.draw with widths)
in one call per window, mostly: each class draws what its rate gives it up
to the time the window is expected to be full, and REACH more. The merge
frontier is the earliest horizon of a class still drawing: every arrival
before it has been drawn. A window is the first CHUNK of the arrivals
pending before it: all of them are copied into class order (the sizes
divided by the rate on the way) and merged by one stable sort, and those it
places past CHUNK, about REACH - 1 of a window, go back to pending, once the
last of them is known to be finite. The horizon is the earliest last arrival
of a class: once a spent class's last arrival lies before every class still
drawing, the last windows take every class up to it, and a class with no
arrival by then is an error. Until then no window passes the last kept
instant of a thinned class still drawing, which may keep no more. Each
window is gathered into the buffers of its first draw, checked as run_fifo
checks a run and against the window before, and scanned with the backlog
carried in from that window (_fifo_scan, the kernel of fifo_waits); CHUNK is
a whole number of blocks, so every wait is bit for bit that of the whole
run. The waits go into the spent service buffer, and Window.order lays them,
and the delays, out in class order in the buffers they were merged from,
where both commands count them (experiments._TailCounts.add_window). One
rule, _places, gives a slot's class and its index in it: for records.csv,
simulate_case's sources and the counter's warmup labels. Tail fractions
count the values above each tau by count_above, one searchsorted on sorted
values; empirical_ccdf uses it, and so does the comparison.

Generation, merge_streams and fifo_waits work along the last axis, so the
same code runs one long path of shape (n,) and a batch of independent paths
of shape (rows, n), one queue per row. transient_delays runs replications in
chunks of rows, about TRANSIENT_CHUNK customers each. Chunk c draws from
replication_seed(case seed, c) and always draws all its rows, so replication
r is row r % rows of chunk r // rows, and results are a prefix-stable
function of (case, js, class id) whatever the number of replications.
Because FIFO is causal, a run is cut before the merge, never after it: the
long run stops merging at the horizon, and a chunk (_chunk_delays) cuts its
rows at the target's last requested arrival: each class's columns up to the
cut are the one ArrivalSequence built of it, checked by that constructor,
so a class's segment holds exactly its customers in the run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from itertools import starmap
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError
from .traffic import ArrivalSequence, ArrivalStreams, ClassSpec, Periodic, Segment, is_integer

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

#: Customers per window of fifo_windows, the one window size of every long
#: run, read as each run starts. A long run holds two windows of buffers,
#: the merge's and the draw's: 4.8-5.7 MB at the peak at 1M customers, with
#: the warmup prefix. A whole number of FIFO_BLOCKs, so a window starts a
#: block and its waits are those of the whole run's scan.
CHUNK = 2**16

#: Rows of records.csv formatted at a time, about a MB as Python objects.
RECORD_ROWS = 2**12

#: The first line of records.csv.
RECORDS_HEADER = "class_id,j,arrival_s,departure_s,delay_s,waiting_s\r\n"

#: A draw of fifo_windows takes this many times the arrivals a class's rate
#: gives it up to the window's expected end: a window mostly takes one draw.
REACH = 1.02


def _places(slots: np.ndarray, parts: Sequence[tuple[int, int, int, int]]):
    """Each slot's part and its 0-based index in its class, of parts
    (class_id, start, count, first) whose slot start + k holds the class's
    customer first + k."""
    place = np.searchsorted([start + count for _, start, count, _ in parts], slots, "right")
    firsts = np.array([first - start for _, start, _, first in parts], dtype=np.int64)
    return place, slots + firsts.take(place)


def _class_columns(source: np.ndarray, segments: Sequence[Segment]):
    """Class ids and 1-based j of the customers with the given sources."""
    place, index = _places(source, [(*segment, 0) for segment in segments])
    ids = np.array([cid for cid, _, _ in segments], dtype=np.int64)
    return ids.take(place), index + 1


def write_records(fh, class_id, j, arrival, delay, waiting) -> None:
    """Write the records.csv rows of these columns to fh, departure being
    arrival + delay: the bytes of csv.writer on repr of each float."""
    row = "{},{},{!r},{!r},{!r},{!r}\r\n".format
    columns = (class_id, j, arrival, arrival + delay, delay, waiting)
    fh.write("".join(starmap(row, zip(*(c.tolist() for c in columns)))))


@dataclass(frozen=True)
class MergedArrivals:
    """Aggregate arrival stream, ordered by time with deterministic tie-breaks.

    source[i] is customer i's position in the class-ordered concatenation
    of the streams, and segments lay the classes out in it, one
    (class_id, start, count) per class in id order; no class column is
    stored. A batch holds (rows, n) arrays, and its length counts every row.
    """

    arrival_s: np.ndarray
    service_s: np.ndarray  # size over the rate of the customer's class
    source: np.ndarray
    segments: tuple[Segment, ...]

    def __len__(self) -> int:
        return self.arrival_s.size


@dataclass(frozen=True)
class RunResult(MergedArrivals):
    """The merged stream of one simulation run, or a batch, with its waits.

    Waiting is the stored quantity; delay derives from it, so waiting >= 0
    and delay = waiting + service hold exactly in floats. The merged
    stream's arrays are held as they are, not copied.
    """

    waiting_s: np.ndarray

    @property
    def delay_s(self) -> np.ndarray:
        return self.waiting_s + self.service_s

    def write_csv(self, path) -> None:
        """records.csv: one row per customer, in arrival order, written
        RECORD_ROWS rows at a time, so memory stays bounded."""
        if self.arrival_s.ndim != 1:
            raise InvalidInputError("records.csv holds one run: this result is a batch")
        with open(path, "w", newline="") as fh:
            fh.write(RECORDS_HEADER)
            for lo in range(0, len(self), RECORD_ROWS):
                at = slice(lo, lo + RECORD_ROWS)
                waiting = self.waiting_s[at]
                write_records(fh, *_class_columns(self.source[at], self.segments),
                              self.arrival_s[at], waiting + self.service_s[at], waiting)


@dataclass(frozen=True)
class EmpiricalCCDF:
    """Tail fractions of a sample over a tau grid."""

    fractions: np.ndarray
    sample_count: int


def merge_streams(
    sequences: Sequence[ArrivalSequence], rates_bps: Mapping[int, float]
) -> MergedArrivals:
    """Stable time-ordered merge; ties go to the lower class id, then lower j.

    Streams are copied into class-ordered buffers, one concatenation each of
    times and sizes; the sequences are left as they are. Each class's
    segment of sizes is divided by its service rate, one stable sort of the
    times gives each customer's source, and two gathers the merged columns.
    Batches of shape (rows, n) merge row by row.
    """
    if not sequences:
        raise InvalidInputError("need at least one arrival sequence")
    sequences = sorted(sequences, key=lambda s: s.class_id)
    segments = []
    start = 0
    for seq in sequences:
        if segments and segments[-1][0] == seq.class_id:
            raise InvalidInputError(f"duplicate class id {seq.class_id}")
        segments.append((seq.class_id, start, len(seq)))
        start += len(seq)
    times = np.concatenate([s.times_s for s in sequences], axis=-1)
    sizes = np.concatenate([s.sizes_bits for s in sequences], axis=-1)
    for cid, lo, count in segments:
        sizes[..., lo : lo + count] /= _rate(rates_bps, cid)
    source = np.argsort(times, axis=-1, kind="stable")
    # a batch row's sources count from that row's start in the flat arrays
    n = times.shape[-1]
    flat = source if source.ndim == 1 else source + n * np.arange(len(source))[:, None]
    # indices are in range, so clip mode changes nothing but skips the
    # buffered bounds check; once the service times are gathered the sizes
    # are spent, and their buffer takes the ordered times, which saves the
    # fresh pages of one more array
    service_s = sizes.take(flat, mode="clip")
    arrival_s = times.take(flat, out=sizes, mode="clip")
    return MergedArrivals(arrival_s, service_s, source, tuple(segments))


def _rate(rates_bps: Mapping[int, float], cid: int) -> float:
    """Class cid's service rate, which must be given, finite and > 0."""
    if cid not in rates_bps:
        raise InvalidInputError(f"no service rate for class {cid}")
    rate = rates_bps[cid]
    if not 0 < rate < np.inf:  # NaN fails too
        raise InvalidInputError(f"class {cid}: service rate must be finite and > 0, got {rate}")
    return rate


def fifo_waits(arrival_s: np.ndarray, service_s: np.ndarray) -> np.ndarray:
    """Waiting times of the FIFO recursion, by the blocked prefix-max scan.

    Arrivals must be time-ordered along the last axis; each leading index is
    its own queue. The server is empty at time 0, as in the recursion
    started from d = 0. See the module docstring for the formula and for how
    blocks are grouped. Check the input first (run_fifo does): the running
    max skips a NaN where np.maximum would spread it.
    """
    waits = np.empty(arrival_s.shape)
    _fifo_scan(arrival_s, service_s, waits)
    return waits


def _fifo_scan(
    arrival_s: np.ndarray,
    service_s: np.ndarray,
    waits: np.ndarray,
    backlog=0.0,
    last_arrival=0.0,
):
    """The scan of fifo_waits into waits, carrying the queue across calls.

    The queue starts with backlog (departure minus last arrival) after an
    arrival at last_arrival, 0 and 0 being an empty server at time 0.
    Returns the same pair after the last arrival: the carry into the scan
    of the customers that follow, which is bit for bit the scan of both
    parts at once when the first part is a whole number of blocks.
    """
    one = arrival_s.ndim == 1
    if one:  # one queue: its carry is plain floats
        maximum, per_block = _maximum, np.ndarray.tolist
    else:  # one carry per queue, a vector over the leading axes
        maximum, per_block = np.maximum, lambda x: list(np.moveaxis(x, -1, 0))
    n = arrival_s.shape[-1]
    full = n - n % FIFO_BLOCK
    groups = [(lo, min(lo + FIFO_GROUP * FIFO_BLOCK, full), FIFO_BLOCK)
              for lo in range(0, full, FIFO_GROUP * FIFO_BLOCK)]
    if full < n:  # the ragged last block is a group of one shorter block
        groups.append((full, n, n - full))
    # two temporaries of the largest group, which every group reuses (starts
    # with one spare element); the relative times sit in the waits' slice
    lead = arrival_s.shape[:-1]
    size = math.prod(lead) * max((hi - lo for lo, hi, _ in groups), default=0)
    prefixes, starts = np.empty(size), np.empty(size + 1)
    for lo, hi, width in groups:
        shape = (*lead, (hi - lo) // width, width)  # (..., blocks, width)
        a = arrival_s[..., lo:hi].reshape(shape)
        s = service_s[..., lo:hi].reshape(shape)
        rel = waits[..., lo:hi].reshape(shape)
        if one:  # a scalar operand per block takes no iterator buffer
            for a_block, rel_block in zip(a, rel):
                np.subtract(a_block, a_block[0], out=rel_block)
        else:
            np.subtract(a, a[..., :1], out=rel)
        prefix = prefixes[: math.prod(shape)].reshape(shape)  # service before i in its block
        prefix[..., 0] = 0.0
        np.cumsum(s[..., :-1], axis=-1, out=prefix[..., 1:])
        start = starts[: prefix.size].reshape(shape)  # departure before i, minus prefix[i]
        # rel[i] - prefix[i] to start[i + 1] through a contiguous view, which
        # needs no buffer; a block's last lands on the next block's first
        np.subtract(rel, prefix, out=starts[1 : prefix.size + 1].reshape(shape))
        start[..., 0] = -np.inf
        # fmax is maximum on input without NaN, and runs faster
        np.fmax.accumulate(start, axis=-1, out=start)
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
        if one:
            for c, start_block in zip(carried, start):
                np.maximum(c, start_block, out=start_block)
        else:
            carried = np.moveaxis(np.array(carried), 0, -1)  # (..., blocks)
            np.maximum(carried[..., None], start, out=start)
        np.add(prefix, start, out=start)
        np.subtract(start, rel, out=rel)  # the waits, in rel's own slice
        np.maximum(rel, 0.0, out=rel)
    return backlog, last_arrival


def _maximum(x: float, y: float) -> float:
    """np.maximum of two floats: x on ties and when x is NaN, else the larger."""
    return x if x >= y or x != x else y


def _check_run(times: np.ndarray, service: np.ndarray, after: float = -np.inf) -> None:
    """Arrival times must be finite and time-ordered, none before after, and
    service times finite and >= 0."""
    # NaN fails every comparison, so a nondecreasing row whose ends are
    # finite holds only finite times: one ordering pass and two ends
    ends = times[..., [0, -1]] if times.shape[-1] else times
    ordered = np.all(times[..., 1:] >= times[..., :-1]) and np.all(ends[..., :1] >= after)
    if not (ordered and np.all(np.isfinite(ends))):
        if not np.all(np.isfinite(times)):
            raise InvalidInputError("arrival times must be finite")
        raise InvalidInputError("aggregate arrivals must be time-ordered")
    if service.size and not (service.min() >= 0 and service.max() < np.inf):  # NaN propagates
        raise InvalidInputError("service times must be finite and >= 0")


def run_fifo(merged: MergedArrivals) -> RunResult:
    """Apply the FIFO departure recursion to a merged arrival stream.

    The server is empty before the first arrival. Arrival times must be
    finite and time-ordered, service times finite and >= 0.
    """
    times, service = merged.arrival_s, merged.service_s
    _check_run(times, service)
    return RunResult(**vars(merged) | {"waiting_s": fifo_waits(times, service)})


@dataclass(frozen=True)
class Window:
    """One window of a run that fifo_windows scans.

    arrival_s, service_s and waiting_s are its customers in merged order.
    times and service are the buffers the window was merged from, which the
    scan has read: each class's customers of the window, in class order,
    one part after another, a part (class_id, start, count, first) being
    the class's customers first, first + 1, ... (0-based) at [start, start
    + count) of the buffers. order[i] is the buffer slot of the window's
    i-th customer, so times[order] = waiting_s lays the waits out in class
    order. waiting_s is the start of the service buffer: counting the window
    (experiments._TailCounts.add_window) puts the delays in service_s and
    may write over the waits, so read them first. most[c] bounds class c's
    customers in the run: drawn, and left to draw in its step.
    """

    arrival_s: np.ndarray
    service_s: np.ndarray
    waiting_s: np.ndarray
    order: np.ndarray
    times: np.ndarray
    service: np.ndarray
    parts: tuple[tuple[int, int, int, int], ...]
    most: Mapping[int, int]

    def places(self, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The part, and the 0-based index in its class, of each of the
        window's first n customers (all by default), in merged order."""
        return _places(self.order[:n], self.parts)


def fifo_windows(streams: ArrivalStreams, rates_bps: Mapping[int, float]):
    """The FIFO run of a one-row stream's first step, merged and scanned a
    window of CHUNK customers at a time, up to the horizon: the last arrival
    of the class whose step ends first. Yields a Window per window, whose
    buffers the next window may reuse.

    The merge frontier is the earliest horizon of a class still drawing:
    every arrival before it has been drawn. While fewer than CHUNK arrivals
    are pending before it, the window should be full at need, when the
    missing ones have come at the total rate; each class still drawing whose
    horizon lags need draws REACH times what its rate gives it up to need,
    in one call (streams.draw with widths). Once CHUNK arrivals are pending
    before the frontier, one stable sort merges the class-ordered
    concatenation of all of them, which breaks ties as merge_streams states:
    the next window is the first CHUNK in merged order, and the rest, about
    REACH - 1 of a window, go back to pending, once the last of them is
    known to be finite. What is left pending is copied (_take), so the
    buffers of the window's first draw take its merged columns, and then the
    next window's first draw: no fresh pages are mapped and zeroed for each
    window. Once a class's step is spent its last arrival bounds the
    horizon, and when every class still drawing has been drawn past that
    bound, the windows take each class's arrivals up to it. A thinned class
    still drawing may keep none of its master's later instants, so until its
    step is spent no window passes its last kept one. A class with no
    arrival up to the horizon is an error: the run would hold none of it.

    Each window is checked as run_fifo checks a run, its first arrival
    against the last of the window before, and scanned with the backlog
    carried from that window; windows start at whole blocks, so every wait
    is bit for bit that of fifo_waits over the whole run.
    """
    if streams.rows != 1:
        raise InvalidInputError("fifo_windows runs one path: streams must have one row")
    ids = sorted(streams.step)
    rates = {cid: _rate(rates_bps, cid) for cid in ids}
    hz = {s.class_id: s.arrival_rate_hz for s in streams.specs}
    total_hz = sum(hz.values())
    # per class, pieces not yet taken: (times, sizes, divisor), the divisor
    # that makes the sizes service times: the rate, or 1 once divided
    pending = {cid: [] for cid in ids}
    last = {}  # each class's last arrival drawn
    first = dict.fromkeys(ids, 0)  # each class's customers taken
    times = service = np.empty(0)
    pair, free = None, True  # a first draw's buffers; free: no pending piece views them
    draw, need, end = ids, CHUNK / total_hz, False  # the first window's share
    carry, after = (0.0, 0.0), -np.inf  # the scan's carry, the last arrival scanned
    while not end:
        if draw:
            widths = {cid: max(1, math.ceil((need - streams.horizon[cid][0]) * hz[cid] * REACH))
                      for cid in draw}
            t, z, segments = streams.draw(draw, widths, pair if free else None)
            for cid, lo, n in segments:
                pending[cid].append((t[lo : lo + n], z[lo : lo + n], rates[cid]))
                last[cid] = t[lo + n - 1]
            if free:
                pair, free = (t, z), False
        live = [cid for cid in ids if streams.remaining(cid)]
        frontier = min((streams.horizon[cid][0] for cid in live), default=np.inf)
        horizon = min((last[cid] for cid in ids if cid not in live and cid in last),
                      default=np.inf)
        # a thinned class still drawing may keep no more instants, so its
        # last one may be its last arrival: no later arrival is yet sure to
        # be in the run
        sure = min((last[cid] for cid in live if cid in streams.thinned and cid in last),
                   default=np.inf)
        final = horizon < frontier and horizon <= sure
        if final:
            bound, side = horizon, "right"
        else:
            bound, side = (sure, "right") if sure < frontier else (frontier, "left")
        cuts = {cid: _count(pending[cid], bound, side) for cid in ids}
        m = sum(cuts.values())
        if m < CHUNK and not final:
            # the frontier's class lags need, so it draws
            need = frontier + (CHUNK - m) / total_hz
            draw = [cid for cid in live if streams.horizon[cid][0] < need]
            continue
        if not m:  # the windows before took the run up to its horizon
            break
        draw, end = (), final and m <= CHUNK
        if len(times) < m:  # REACH times a window, mostly: sized once, a block spare
            times, service = np.empty(m + FIFO_BLOCK), np.empty(m + FIFO_BLOCK)
        parts, start = [], 0
        for cid in ids:
            _take(pending[cid], cuts[cid], times[start:], service[start:])
            parts.append([cid, start, cuts[cid], first[cid]])
            start += cuts[cid]
        free = True  # what is left pending is copied
        order = np.argsort(times[:m], kind="stable")
        # the customers past the window go back to pending. NaN and +inf
        # sort last, and the put-back takes each part's last slots, so a
        # time that is not finite must fail here
        if not times[order[-1]] < np.inf:
            raise InvalidInputError("arrival times must be finite")
        back = np.searchsorted(np.sort(order[CHUNK:]), [p[1] + p[2] for p in parts])
        for part, n_back in zip(parts, np.diff(back, prepend=0).tolist()):
            part[2] -= n_back
            first[part[0]] += part[2]
            if n_back:  # their service times, divided already
                lo = part[1] + part[2]
                pending[part[0]].insert(0, (times[lo : lo + n_back].copy(),
                                            service[lo : lo + n_back].copy(), 1.0))
        order = order[:CHUNK]
        width = len(order)
        if len(pair[0]) < width:
            pair = np.empty(width), np.empty(width)
        # indices are in range, so clip mode changes nothing but skips the
        # buffered bounds check
        a = times.take(order, out=pair[0][:width], mode="clip")
        s = service.take(order, out=pair[1][:width], mode="clip")
        _check_run(a, s, after)
        w = service[:width]  # read, so it takes the waits
        carry = _fifo_scan(a, s, w, *carry)
        after = a[-1]
        most = {cid: streams.drawn[cid] + streams.remaining(cid) for cid in ids}
        yield Window(a, s, w, order, times, service, tuple(map(tuple, parts)), most)
    for spec in streams.specs:
        if not first[spec.class_id]:
            raise InvalidInputError(
                f"class {spec.class_id} has no arrivals before the horizon: raise customers"
            )


def _count(pieces: list, bound: float, side: str) -> int:
    """How many of a class's pending arrivals are before bound (side
    "left") or up to it (side "right")."""
    n = 0
    for t, _, _ in pieces:
        if t[-1] < bound or side == "right" and t[-1] == bound:
            n += len(t)  # the whole piece, with no search
            continue
        return n + int(t.searchsorted(bound, side))
    return n


def _take(pieces: list, n: int, times: np.ndarray, service: np.ndarray) -> None:
    """Move a class's first n pending arrivals into the buffers' starts,
    their sizes divided into service times; the rest stay, copied."""
    done = 0
    while done < n:
        t, z, divisor = pieces[0]
        k = min(len(t), n - done)
        times[done : done + k] = t[:k]
        np.divide(z[:k], divisor, out=service[done : done + k])
        done += k
        if k == len(t):
            pieces.pop(0)
        else:
            pieces[0] = (t[k:], z[k:], divisor)
    pieces[:] = [(t.copy(), z.copy(), divisor) for t, z, divisor in pieces]


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
    grid = np.asarray(grid_s, dtype=float)
    if values.ndim != 1 or grid.ndim != 1:
        raise InvalidInputError("values and the tau grid must be 1-d arrays")
    if np.any(np.isnan(grid)):
        raise InvalidInputError("the tau grid must not hold NaN")
    if not 0.0 <= warmup_discard < 1.0:
        raise InvalidInputError("warmup_discard must be in [0, 1)")
    discard = int(len(values) * warmup_discard)
    kept = np.sort(values[discard:])
    if len(kept) == 0:
        raise InvalidInputError("no values left after warmup discard")
    if np.isnan(kept[-1]):  # NaN sorts last
        raise InvalidInputError("values must not be NaN")
    above = count_above(kept, grid)
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
    streams: ArrivalStreams, rates_bps: Mapping[int, float], class_id: int, js
) -> np.ndarray:
    """Delays of the target's js-th customers in each row of the drawn
    streams, shape (len(js), rows).

    FIFO is causal: customers after the last requested one cannot change
    its delay, so each row is cut at that customer's arrival. Each class
    keeps the columns that some row holds up to its cut, a customer at the
    cut itself included (with a lower class id it goes first), and only
    they are built, and checked, as the class's ArrivalSequence.
    """
    cut_s = streams.times[class_id][:, js[-1] - 1 : js[-1]]
    kept = {cid: int(np.count_nonzero(t <= cut_s, axis=-1).max())
            for cid, t in streams.times.items()}
    trimmed = [ArrivalSequence(cid, streams.times[cid][:, :n], streams.sizes[cid][:, :n])
               for cid, n in kept.items()]
    merged = merge_streams(trimmed, rates_bps)
    start = next(start for cid, start, _ in merged.segments if cid == class_id)
    at = np.stack([np.argmax(merged.source == start + j - 1, axis=-1) for j in js])
    # the columns past every row's cut are dropped, and a row's later times
    # (the +inf padding of ragged rows among them) are clamped to its cut
    width = at[-1].max() + 1
    result = run_fifo(replace(
        merged,
        arrival_s=np.minimum(merged.arrival_s[:, :width], cut_s),
        service_s=merged.service_s[:, :width],
        source=merged.source[:, :width],
    ))
    # delay = waiting + service, at the requested customers only
    waiting = np.take_along_axis(result.waiting_s, at.T, -1)
    return (waiting + np.take_along_axis(result.service_s, at.T, -1)).T


def transient_delays(
    case: "CaseConfig", js: Sequence[int], class_id: int, replications: int
) -> dict[int, np.ndarray]:
    """Delay of the j-th class customer across independent replications.

    One path per replication serves every requested j, so the returned
    arrays are sampled from the same runs. Replications run as rows of
    chunks; the module docstring gives the seed layout.
    """
    if not (is_integer(replications) and replications >= 1):
        raise InvalidInputError(f"replications must be an integer >= 1, got {replications!r}")
    js = list(js)
    if not js:
        raise InvalidInputError("js must name at least one customer")
    for j in js:
        if not (is_integer(j) and j >= 1):
            raise InvalidInputError(f"customer indices must be integers >= 1, got {j!r}")
    js = sorted(set(map(int, js)))
    if class_id not in case.rates():
        raise InvalidInputError(f"no class {class_id} in the case")
    if replications > 1 and all(isinstance(s.arrival, Periodic) for s in case.specs):
        warnings.warn("all classes are deterministic: replications are identical", stacklevel=2)
    step, rows = _transient_plan(case.specs, class_id, js[-1])
    chunks = -(-replications // rows)
    out = np.empty((len(js), chunks * rows))
    for chunk in range(chunks):
        streams = ArrivalStreams(case.specs, step, replication_seed(case.seed, chunk), rows)
        streams.draw_through(class_id, js[-1])
        delays = _chunk_delays(streams, case.rates(), class_id, js)
        out[:, chunk * rows : (chunk + 1) * rows] = delays
    return {j: out[i, :replications].copy() for i, j in enumerate(js)}
