"""The six benchmark cases and the bound-versus-simulation harness.

Cases 1-2 are periodic constant-size pairs (worst-case bounds apply),
cases 3-4 replace arrivals with independent Poisson processes (constant
then exponential sizes), case 5 couples the Poisson streams, and case 6
mixes a periodic class with a Poisson/exponential class; PRESETS holds
them by case id. run_comparison evaluates every bound the case names,
simulates it, and reports where the empirical tail exceeds a bound beyond
statistical slack, or for periodic classes which delays exceed the D/D/1
bound. It builds every curve a comparison reports: with
replications > 1 and some stochastic class, these include the transient
delay tails of the first class's 1st, 10th and 100th customers.

A run is drawn, merged and scanned a window at a time
(simulator.fifo_windows, from the case's one-row ArrivalStreams, _windows):
no array grows with the run but the warmup prefix. Both commands count
each window the same way (_TailCounts.add_window): its waits, and its
delays when some class has exponential sizes, are laid out in class order
in the buffers the window was merged from, and counted above the grid as
they come: each class's part of a window sorted where it lies, and for a
class of constant sizes the delay counts from the same sorted waits
shifted by the class's one service time. Only the warmup prefix is kept,
the values that a bound on each class's warmup cut, and on the
aggregate's, cannot yet place; _empirical_entries counts them at the end,
against the exact cuts, which the counter then knows. run_comparison also
checks each window's delays against a periodic case's D/D/1 bound;
simulate writes each window's rows of records.csv and keeps its waits, for
their mean. simulate_case collects the run's columns and counts nothing.
Every empirical curve, the transient ones included, is made by
_counted_entry from its counts above the grid, and carries the binomial
standard error of each fraction (se).
Each grid check reads that se and gives a ViolationReport(count, worst):
how many checked points exceed the bound by more than three of them, and
the one that does by the most.
write_curves_csv writes the bytes of csv.writer without a per-row writer
call: each label is quoted once and each distinct grid's taus formatted once.

BOUNDS gives each bound its builder and the set of coupling mechanisms its
proof allows; from that, case_bound_entries alone decides which curves are
guaranteed, and run_comparison calls it first, before the simulation.

A config file is read here, by CaseConfig.from_dict from its parsed JSON:
one table, _KEYS, gives each key its field and its conversion to seconds
and bits, and an absent key keeps its field's dataclass default.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import analytic, simulator
from .analytic import StabilityReport, step_bound_curve
from .errors import InvalidInputError, InvalidSpecError
from .simulator import (
    FIFO_BLOCK,
    RunResult,
    Window,
    count_above,
    fifo_windows,
    merge_streams,
    run_fifo,
    transient_delays,
)
from .traffic import (
    COUPLING_MECHANISMS,
    ArrivalSequence,
    ArrivalStreams,
    ClassSpec,
    Constant,
    CoupledPoisson,
    DeterministicEnvelope,
    ExponentialMean,
    Periodic,
    Poisson,
    coupling_groups,
    deterministic_envelope,
    is_integer,
    proportional_counts,
)
from .units import bits_from_bytes, bps_from_mbps, seconds_from_ms

DEFAULT_GRID_POINTS = 2000

#: Absolute slack absorbing accumulated double rounding in run_comparison's
#: per-customer check of a periodic case, whose delays can attain the D/D/1
#: bound exactly; the grid checks of stochastic bounds do not use it.
FLOAT_SLACK_S = 1e-12

#: Grid points with empirical tail below 10/samples are inside shot noise
#: and excluded from stochastic violation checks.
NOISE_FLOOR_COUNT = 10.0


@dataclass(frozen=True)
class CaseConfig:
    """Everything needed to run one experiment."""

    case_id: int | str
    specs: tuple[ClassSpec, ...]
    customers: int = 1_000_000
    seed: int = 1
    tau_max_s: float = 1e-3
    grid_points: int = DEFAULT_GRID_POINTS
    warmup_fraction: float = 0.1
    bounds: tuple[str, ...] = ()
    replications: int = 1

    def __post_init__(self):
        if not self.specs:
            raise InvalidSpecError("need at least one class: specs is empty")
        seen = set()
        for spec in self.specs:
            if spec.class_id in seen:
                raise InvalidSpecError(f"duplicate class_id {spec.class_id}")
            seen.add(spec.class_id)
        if not (math.isfinite(self.tau_max_s) and self.tau_max_s > 0):
            raise InvalidSpecError(f"tau_max_s must be finite and > 0, got {self.tau_max_s!r}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise InvalidSpecError(
                f"warmup_fraction must be in [0, 1), got {self.warmup_fraction!r}"
            )
        integers = (("customers", 1), ("grid_points", 2), ("replications", 1), ("seed", 0))
        for name, least in integers:
            value = getattr(self, name)
            if not (is_integer(value) and value >= least):
                raise InvalidSpecError(f"{name} must be an integer >= {least}, got {value!r}")
        for i, name in enumerate(self.bounds):
            # a name that is not a string fails here, not as a TypeError of the lookup
            if not isinstance(name, str) or name not in BOUNDS:
                raise InvalidSpecError(f"unknown bound name {name!r}")
            if name in self.bounds[:i]:
                raise InvalidSpecError(f"duplicate bound name {name!r}")
        coupling_groups(self.specs)

    @classmethod
    def from_dict(cls, obj) -> CaseConfig:
        """The case a parsed JSON config describes, in seconds and bits.

        _KEYS gives each key its field and readers. An absent key keeps its
        field's dataclass default, and a field with none makes its key
        required; the one exception is case_id, which defaults to "custom".
        Bad input raises InvalidSpecError naming the object and the key.
        """
        return _read(cls, obj, "config", case_id="custom")

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.tau_max_s, self.grid_points)

    def rates(self) -> dict[int, float]:
        return {s.class_id: s.service_rate_bps for s in self.specs}


def _json(*types):
    """A reader that passes on a value of one of types, not a bool, and fails on any other."""

    def read(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError(value)
        return value

    return read


def _integer(value) -> int:
    """A whole number as an int; a fraction is an error, not truncated."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(value)
    return int(value)


def _classes(objs: list) -> tuple[ClassSpec, ...]:
    return tuple(_read(ClassSpec, obj, f"classes[{i}]") for i, obj in enumerate(objs))


_NUMBER = _json(int, float)
#: Every key of a config file: the field it sets, and the readers that take
#: its JSON value, one after the other, to the field's value in seconds and
#: bits. A key belongs to each type with its field. In place of readers, a
#: dict maps the "kind" of a nested object to its type.
_KEYS = {
    "case_id": ("case_id", _json(str, int)),
    "classes": ("specs", _json(list), _classes),
    "customers": ("customers", _integer),
    "seed": ("seed", _integer),
    "tau_max_ms": ("tau_max_s", _NUMBER, seconds_from_ms),
    "grid_points": ("grid_points", _integer),
    "warmup_fraction": ("warmup_fraction", _NUMBER, float),
    "bounds": ("bounds", _json(list), tuple),
    "replications": ("replications", _integer),
    "class_id": ("class_id", _integer),
    "arrival": (
        "arrival",
        {"periodic": Periodic, "poisson": Poisson, "coupled_poisson": CoupledPoisson},
    ),
    "size": ("size", {"constant": Constant, "exponential": ExponentialMean}),
    "service_rate_mbps": ("service_rate_bps", _NUMBER, bps_from_mbps),
    "period_ms": ("period_s", _NUMBER, seconds_from_ms),
    "rate_per_s": ("rate_hz", _NUMBER, float),
    "coupling_group": ("coupling_group", _integer),
    "mechanism": ("mechanism", _json(str)),
    "packet_bytes": ("bits", _NUMBER, bits_from_bytes),
    "mean_packet_bytes": ("mean_bits", _NUMBER, bits_from_bytes),
}


def _read(cls, obj, where: str, **given):
    """cls built from the JSON object obj by its keys in _KEYS; where names
    obj in messages, and given sets fields before obj's keys are read."""
    if not isinstance(obj, dict):
        raise InvalidSpecError(f"{where}: expected a JSON object, got {obj!r}")
    values = {f.name: f.default for f in fields(cls)} | given
    keys = {key: row for key, row in _KEYS.items() if row[0] in values}
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise InvalidSpecError(f"{where}: unknown key {unknown[0]!r}")
    for key, (name, *readers) in keys.items():
        if key not in obj:
            if values[name] is MISSING:
                raise InvalidSpecError(f"{where}: missing key {key!r}")
            continue
        value = obj[key]
        try:
            if isinstance(readers[0], dict):
                value = _read_kind(readers[0], value, f"{where} {key}")
            else:
                for reader in readers:
                    value = reader(value)
        except InvalidSpecError:
            raise
        except (TypeError, ValueError, OverflowError):
            raise InvalidSpecError(f"{where}: invalid {key}: {obj[key]!r}") from None
        values[name] = value
        if name == "class_id":  # the keys after a class's id name the class by it
            where = f"class {value}"
    return cls(**values)


def _read_kind(kinds: dict, obj, where: str):
    """The object of the type that obj's "kind" names in kinds."""
    if not isinstance(obj, dict):
        raise TypeError(obj)
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise InvalidSpecError(f"{where}: unknown kind {kind!r}")
    return _read(kinds[kind], {k: v for k, v in obj.items() if k != "kind"}, where)


@dataclass(frozen=True)
class CurveEntry:
    """One curve of a comparison, empirical or analytical, with its metadata.

    An empirical curve's se is the standard error of each of its fractions,
    which the violation check reads; a bound curve has None. se is written
    to neither curves.csv nor summary.json.
    """

    label: str
    kind: str  # "empirical" | "bound"
    metric: str  # "delay" | "waiting"
    class_id: int | None  # None = aggregate over classes
    grid_s: np.ndarray
    probs: np.ndarray
    guaranteed: bool = False  # violations of guaranteed bounds are failures
    approximate: bool = False
    note: str = ""
    samples: int = 0  # sample count behind empirical curves
    se: np.ndarray | None = None  # an empirical curve's standard error per grid point

    def metadata(self) -> dict:
        """What the JSON outputs report of a curve, without its values."""
        return {
            "label": self.label,
            "metric": self.metric,
            "class_id": self.class_id,
            "guaranteed": self.guaranteed,
            "approximate": self.approximate,
            "note": self.note,
        }


@dataclass(frozen=True)
class ViolationPoint:
    tau_s: float
    empirical: float
    bound: float
    slack: float


@dataclass(frozen=True)
class ViolationReport:
    """How many checked grid points exceed a bound, and the worst of them:
    the largest excess over the bound in binomial standard errors (None when
    count is 0)."""

    bound_label: str
    target_label: str
    guaranteed: bool
    checked_points: int
    count: int
    worst: ViolationPoint | None


@dataclass(frozen=True)
class ComparisonResult:
    case_id: int | str
    stability: StabilityReport
    values: dict
    curves: tuple[CurveEntry, ...]
    violations: tuple[ViolationReport, ...]

    @property
    def guaranteed_violations(self) -> int:
        """Exceedances of guaranteed curves, plus delays above the D/D/1 bound."""
        over_dd1 = int(self.values.get("delays_above_dd1", 0))
        return sum(v.count for v in self.violations if v.guaranteed) + over_dd1

    def curve(self, label: str) -> CurveEntry:
        for entry in self.curves:
            if entry.label == label:
                return entry
        raise KeyError(label)

    def summary_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "stability": asdict(self.stability),
            "values": self.values,
            "curves": [{"kind": c.kind, **c.metadata()} for c in self.curves],
            "violations": [
                {
                    "bound_label": v.bound_label,
                    "target_label": v.target_label,
                    "guaranteed": v.guaranteed,
                    "checked_points": v.checked_points,
                    "count": v.count,
                }
                for v in self.violations
            ],
            "guaranteed_violations": self.guaranteed_violations,
        }


def write_curves_csv(path, entries: Sequence[CurveEntry]) -> None:
    """One row per grid point of every curve: label, tau and probability.

    The bytes are those of csv.writer on repr of each float. Each label is
    quoted once, by csv itself, and each distinct grid's tau column is
    formatted once, however many curves share it.
    """
    row = "{},{},{!r}\r\n".format
    taus: dict[bytes, list[str]] = {}  # grid bytes -> its formatted tau column
    with open(path, "w", newline="") as fh:
        fh.write("curve_label,tau_s,prob\r\n")
        for entry in entries:
            grid = np.asarray(entry.grid_s, dtype=float)
            key = grid.tobytes()
            if key not in taus:
                taus[key] = [repr(t) for t in grid.tolist()]
            probs = np.asarray(entry.probs, dtype=float).tolist()
            fh.write("".join(map(row, repeat(_csv_field(entry.label)), taus[key], probs)))


def _csv_field(text: str) -> str:
    """text as csv.writer writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text, ""])
    return buf.getvalue()[:-1]


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def tightness_scenario(
    envelopes: Sequence[DeterministicEnvelope], rates_bps: Sequence[float]
) -> RunResult:
    """Run of the arrival pattern attaining the worst-case deterministic delay.

    Every class emits its full burst at time 0; the burst customer served
    last leaves exactly sum_n burst_n/C_n later. Class n is the n-th
    envelope, served at the n-th rate.
    """
    if len(envelopes) != len(rates_bps):
        raise InvalidInputError("need one rate per envelope")
    seqs = []
    for i, env in enumerate(envelopes, start=1):
        if env.burst_bits <= 0 or env.rate_bps <= 0:
            raise InvalidInputError("tightness needs positive rate and burst")
        seqs.append(ArrivalSequence(i, np.array([0.0]), np.array([env.burst_bits])))
    return run_fifo(merge_streams(seqs, dict(enumerate(rates_bps, start=1))))


def simulate_case(config: CaseConfig) -> RunResult:
    """Generate the case's arrivals and run them through the queue until the
    horizon, the last arrival of the class that stops first: simulate's run,
    as a RunResult of whole columns, sized at the config's counts and grown
    by a window only when a thinned class keeps more than its count. source
    holds index * classes + place (Window.places) until, at the end, each
    class's start (its customers of lower id) replaces its place."""
    ids = sorted(s.class_id for s in config.specs)
    budget = sum(proportional_counts(config.specs, config.customers).values())
    columns = [np.empty(budget, dtype=dtype) for dtype in (float, float, np.intp, float)]
    arrival, service, source, waiting = columns
    n, size = 0, _record_size()
    for window in _windows(config, size):
        width = len(window.arrival_s)
        if n + width > len(arrival):  # a thinned class kept more than its count
            for column in columns:
                column.resize(n + width, refcheck=False)
        new = slice(n, n + width)
        arrival[new], service[new] = window.arrival_s, window.service_s
        waiting[new] = window.waiting_s
        place, index = window.places()
        np.add(index * len(ids), place, out=source[new])
        n += width
    for column in columns:
        column.resize(n, refcheck=False)
    counts = [first + count for _, _, count, first in window.parts]  # each class's customers
    starts = np.cumsum([0] + counts[:-1])
    for lo in range(0, n, size):
        codes = source[lo : lo + size]
        np.add(codes // len(ids), starts.take(codes % len(ids)), out=codes)
    segments = tuple((cid, int(start), count) for cid, start, count in zip(ids, starts, counts))
    return RunResult(arrival, service, source, segments, waiting)


def simulate(config: CaseConfig, path) -> tuple[list[CurveEntry], dict]:
    """Run the case, write its records.csv at path, and return its empirical
    CCDFs with the summary's customers, max_delay_s and mean_waiting_s.

    Each window is counted as run_comparison counts it once its waits are
    copied (the count may write delays over them), and its rows are written
    from those and the delays the count leaves. The waits are kept for
    numpy's mean of one column, grown as simulate_case grows its. The file
    is renamed into place only once the run is done."""
    ids = np.array(sorted(s.class_id for s in config.specs), dtype=np.int64)
    waiting = np.empty(sum(proportional_counts(config.specs, config.customers).values()))
    n, largest = 0, -np.inf
    tails, part = _TailCounts(config), f"{path}.part"
    try:
        with open(part, "w", newline="") as fh:
            fh.write(simulator.RECORDS_HEADER)
            for window in _windows(config, _record_size()):
                width = len(window.arrival_s)
                if n + width > len(waiting):
                    waiting.resize(n + width, refcheck=False)
                waits = waiting[n : n + width]
                waits[:] = window.waiting_s
                place, index = window.places()
                tails.add_window(window)  # the delays, in window.service_s
                simulator.write_records(fh, ids.take(place), index + 1, window.arrival_s,
                                        window.service_s, waits)
                largest = max(largest, float(window.service_s.max()))
                n += width
            entries = _empirical_entries(config, tails)
        os.replace(part, path)
    except BaseException:
        Path(part).unlink(missing_ok=True)
        raise
    waiting.resize(n, refcheck=False)
    return entries, {"customers": n, "max_delay_s": largest,
                     "mean_waiting_s": float(waiting.mean())}


def _record_size() -> int:
    """Customers per window of simulate and simulate_case: CHUNK / 16, in whole blocks."""
    return FIFO_BLOCK * max(1, simulator.CHUNK // (16 * FIFO_BLOCK))


def _windows(config: CaseConfig, size: int | None = None) -> Iterator[Window]:
    """The windows of size customers (fifo_windows) of the case's one-row
    arrival streams, whose step is the config's proportional counts."""
    counts = proportional_counts(config.specs, config.customers)
    streams = ArrivalStreams(config.specs, counts, config.seed, rows=1)
    return fifo_windows(streams, config.rates(), size)


def _counted_entry(
    label: str,
    metric: str,
    class_id: int | None,
    grid,
    above: np.ndarray,
    samples: int,
    note: str = "",
) -> CurveEntry:
    """The empirical curve of samples values, above[i] of them above grid[i],
    with the binomial standard error of each of its fractions."""
    if samples == 0:
        raise InvalidInputError("no values left after warmup discard")
    p = above / samples
    return CurveEntry(label, "empirical", metric, class_id, grid, p, note=note, samples=samples,
                      se=np.sqrt(p * (1.0 - p) / samples))


class _TailCounts:
    """Each class's waits and delays counted above the grid as they come,
    for the empirical CCDFs.

    Class c's values come in class order (add). Its curve keeps them from
    d_c = int(n_c * warmup) on and the aggregate from e_c on, e_c being the
    class-c customers among the first int(n * warmup) of the run, and
    neither is known before the run ends. So the values below keep[c], a
    bound on both that the caller lowers as the run goes (keep_below), are
    kept as the class's warmup prefix, and the others are counted above
    the grid where they lie, one sort of each class's part of a window. A
    value the bound passes on its way down is counted then. A class of
    Constant sizes keeps its waits alone: its sorted delays are its sorted
    waits plus its one service time s_c = bits / rate, the merge's own
    division, and adding a constant keeps float order; exponential says
    whether some class reads its delays. The counts are integer sums over
    disjoint sets, so they are those of one sort of all the values.
    _empirical_entries counts the prefixes at the end.

    labels holds the class place (Window.places) of each of the run's
    first customers up to the bound on int(n * warmup), and seen how many
    of them each place has: each window adds its labels up to the bound,
    which only falls, and a lower bound cuts those past it.
    """

    def __init__(self, config: CaseConfig):
        self.grid, self.warmup = config.grid(), config.warmup_fraction
        self.service = {
            s.class_id: s.size.bits / s.service_rate_bps
            for s in config.specs
            if isinstance(s.size, Constant)
        }
        ids = [s.class_id for s in config.specs]
        self.exponential = len(self.service) < len(ids)
        self.added = dict.fromkeys(ids, 0)
        self.keep = dict.fromkeys(ids, math.inf)
        self.prefix = {cid: [] for cid in ids}  # (waits, delays or None) pieces
        self.kept = dict.fromkeys(ids, 0)
        self.above = {(metric, cid): np.zeros(len(self.grid), dtype=np.int64)
                      for metric in ("delay", "waiting") for cid in ids}
        self.labels = np.empty(0, dtype=np.uint8 if len(ids) <= 256 else np.intp)
        self.seen = np.zeros(len(ids), dtype=np.int64)

    def add_window(self, window: Window) -> None:
        """Count a window of the run.

        Its waits go into the buffers it was merged from, in class order,
        and window.service_s takes the delays, where the caller may read
        them; when some class reads its delays (exponential), the service
        buffer takes them in class order. From window.most and the labels
        follow bounds on d_c and e_c, and each class's values are added.
        """
        window.times[window.order] = window.waiting_s
        np.add(window.waiting_s, window.service_s, out=window.service_s)
        if self.exponential:
            window.service[window.order] = window.service_s
        skip = int(sum(window.most.values()) * self.warmup)
        self._cut_labels(skip)
        n = sum(self.added.values())  # the window's first customer, and labels up to it
        if n < skip:
            self.labels.resize(min(skip, n + len(window.arrival_s)), refcheck=False)
            place = self.labels[n:]
            place[:] = window.places(len(place))[0]
            self.seen += np.bincount(place, minlength=len(self.seen))
        for place, (cid, start, count, _) in enumerate(window.parts):
            e_most = int(self.seen[place]) + skip - len(self.labels)
            self.keep_below(cid, max(int(window.most[cid] * self.warmup), e_most))
            part = slice(start, start + count)
            self.add(cid, window.times[part], window.service[part])

    def _cut_labels(self, skip: int) -> None:
        """Cut the labels, and their counts, to the run's first skip customers."""
        if len(self.labels) > skip:
            self.seen -= np.bincount(self.labels[skip:], minlength=len(self.seen))
            self.labels.resize(skip, refcheck=False)

    def add(self, cid: int, waits: np.ndarray, delays: np.ndarray | None) -> None:
        """The class's next values in class order, which it may sort in
        place; delays may be None for a class of Constant sizes."""
        delays = None if cid in self.service else delays
        n = len(waits)
        head = int(min(max(self.keep[cid] - self.added[cid], 0), n))
        self.added[cid] += n
        if head:
            self.prefix[cid].append(
                (waits[:head].copy(), None if delays is None else delays[:head].copy())
            )
            self.kept[cid] += head
        if head < n:
            self._count(cid, waits[head:], None if delays is None else delays[head:])

    def keep_below(self, cid: int, bound: int) -> None:
        """Keep the class's values below bound alone, bound being no less
        than d_c and e_c: the prefix's values from bound on are counted."""
        if bound >= self.keep[cid]:
            return
        self.keep[cid] = bound
        pieces = self.prefix[cid]
        while self.kept[cid] > bound:
            waits, delays = pieces.pop()
            cut = max(0, bound - (self.kept[cid] - len(waits)))
            if cut:
                pieces.append((waits[:cut], None if delays is None else delays[:cut]))
            self._count(cid, waits[cut:], None if delays is None else delays[cut:])
            self.kept[cid] -= len(waits) - cut

    def counts(self, cid: int, waits: np.ndarray, delays: np.ndarray | None) -> dict:
        """Each metric's counts above the grid of a class's values, which
        are sorted in place."""
        waits.sort()
        above = {"waiting": count_above(waits, self.grid)}
        if cid in self.service:
            waits += self.service[cid]
            delays = waits
        else:
            delays.sort()
        above["delay"] = count_above(delays, self.grid)
        return above

    def _count(self, cid: int, waits: np.ndarray, delays: np.ndarray | None) -> None:
        """Count values past the prefix into the class's tail counts."""
        for metric, above in self.counts(cid, waits, delays).items():
            self.above[metric, cid] += above


def _empirical_entries(config: CaseConfig, tails: _TailCounts) -> list[CurveEntry]:
    """Empirical CCDFs of delay and waiting: aggregate, then one per class.

    tails has counted every value of the run but each class's warmup
    prefix. Class c's curve keeps its values from d_c = int(n_c * warmup)
    on, and the aggregate, which keeps every customer from int(n * warmup)
    on, keeps them from e_c on, the class-c labels among the run's first
    int(n * warmup); both are within the prefix. keep_below(c, max(d_c,
    e_c)) counts the values both curves keep, and keep_below(c, min(d_c,
    e_c)) then the values that only one of them keeps. Each curve equals
    empirical_ccdf of its values.
    """
    grid, warmup = config.grid(), config.warmup_fraction
    metrics = ("delay", "waiting")
    n = sum(tails.added.values())
    tails._cut_labels(int(n * warmup))
    totals = {metric: np.zeros(len(grid), dtype=np.int64) for metric in metrics}
    per_class = {metric: [] for metric in metrics}
    for place, cid in enumerate(sorted(tails.added)):
        n_c, e = tails.added[cid], int(tails.seen[place])
        d = int(n_c * warmup)
        tails.keep_below(cid, max(d, e))
        both = {metric: tails.above[metric, cid].copy() for metric in metrics}
        tails.keep_below(cid, min(d, e))
        for metric in metrics:
            wide = tails.above[metric, cid]  # from min(d, e) on
            totals[metric] += wide if e <= d else both[metric]
            label = f"sim_{metric}_c{cid}"
            mine = wide if d <= e else both[metric]
            per_class[metric].append(_counted_entry(label, metric, cid, grid, mine, n_c - d))
    entries = []
    samples = n - int(n * warmup)
    for metric in metrics:
        label = f"sim_{metric}"
        entries.append(_counted_entry(label, metric, None, grid, totals[metric], samples))
        entries += per_class[metric]
    return entries


def _deterministic(specs, grid) -> tuple[list, dict]:
    envelopes = [deterministic_envelope(s) for s in specs]
    rates = [s.service_rate_bps for s in specs]
    dd1 = analytic.bound_dd1(envelopes, rates)
    cruz = analytic.bound_cruz_aggregate(envelopes, rates)
    values = {"dd1_bound_s": dd1, "cruz_bound_s": cruz if cruz is not None else "N.A."}
    curves = [(step_bound_curve(dd1, grid, "det_multiclass"), "delay", None)]
    if cruz is not None:
        curves.append((step_bound_curve(cruz, grid, "det_aggregate"), "delay", None))
    return curves, values


def _poisson(name: str, specs, grid) -> tuple[list, dict]:
    """md1 or mm1: the exact and second-order decay rates of analytic.theta_<name>
    (looked up when called), their waiting curves, and a delay curve per
    constant-size class, its waiting tail shifted by its service time.

    The curves are drawn whatever the coupling; case_bound_entries marks
    them informational when classes are coupled, as the row's proof needs
    independent classes. Exponential-size classes get no delay curve yet
    (ROADMAP item 6).
    """
    exact, approx = getattr(analytic, f"theta_{name}")(specs)
    values = {
        f"{name}_theta_exact_per_s": exact.theta_star,
        f"{name}_theta_approx_per_s": approx.theta_star,
        "theta_star_per_s": exact.theta_star,
    }
    waiting = analytic.waiting_bound_curve(exact, grid, label=f"{name}_waiting_exact")
    second_order = analytic.waiting_bound_curve(approx, grid, label=f"{name}_waiting_approx")
    curves = [(waiting, "waiting", None), (second_order, "waiting", None)]
    for s in specs:
        if isinstance(s.size, Constant):
            label = f"{name}_delay_exact_c{s.class_id}"
            curve = analytic.delay_bound_convolve(s.mean_service_s, waiting, label=label)
            curves.append((curve, "delay", s.class_id))
    return curves, values


def _split_constant(specs, grid) -> tuple[list, dict]:
    values = {"split_theta_per_s": analytic.second_order_theta(specs)}
    return [(analytic.bound_mstar_d1(specs, grid), "waiting", None)], values


def _mixed_pair(specs, grid) -> tuple[list, dict]:
    values = {"theta_star_per_s": analytic.theta_dmdm(specs).theta_star}
    curves = [(analytic.bound_dmdm(specs, grid, s.class_id), "waiting", s.class_id) for s in specs]
    return curves, values


@dataclass(frozen=True)
class Bound:
    """A row of BOUNDS: build(specs, grid) returns (BoundCurve, metric,
    class_id) triples and the scalar values, dependence holds the coupling
    mechanisms (of traffic.COUPLING_MECHANISMS) that its proof allows, and
    note goes on each of its curves."""

    build: Callable[[Sequence[ClassSpec], np.ndarray], tuple[list, dict]]
    dependence: frozenset[str]
    note: str = ""


_ANY = frozenset(COUPLING_MECHANISMS)
#: Bound name -> its row. Of these proofs only the Kingman-type decay rates
#: of md1 and mm1 need independent classes.
BOUNDS = {
    "deterministic": Bound(_deterministic, _ANY),
    "md1": Bound(partial(_poisson, "md1"), frozenset()),
    "mm1": Bound(partial(_poisson, "mm1"), frozenset()),
    "split_constant": Bound(_split_constant, _ANY, note="valid under any cross-class dependence"),
    "mixed_pair": Bound(_mixed_pair, _ANY),
}


def case_bound_entries(config: CaseConfig) -> tuple[list[CurveEntry], dict]:
    """Analytical curves for the case plus the scalar summary values.

    A curve is guaranteed when it is not approximate and its row's proof
    covers the case: the row's dependence holds the mechanism of every
    coupling group of the config (so any row covers independent classes),
    and else its curves note "assumes independent classes". A builder's
    error is raised again, of its type, after "bound <name>: ".
    """
    grid = config.grid()
    groups = coupling_groups(config.specs).values()
    mechanisms = {members[0].arrival.mechanism for members in groups}
    entries, values = [], {}
    for name in config.bounds:
        row = BOUNDS[name]
        try:
            curves, scalars = row.build(config.specs, grid)
        except (InvalidSpecError, InvalidInputError) as exc:
            raise type(exc)(f"bound {name}: {exc}") from exc
        proven = mechanisms <= row.dependence
        note = row.note or ("" if proven else "assumes independent classes")
        for curve, metric, class_id in curves:
            guaranteed = proven and not curve.approximate
            entries.append(CurveEntry(curve.label, "bound", metric, class_id, curve.grid_s,
                                      curve.probs, guaranteed, curve.approximate, note))
        values.update(scalars)
    return entries, values


def _case12_specs(c1_mbps: float) -> tuple[ClassSpec, ClassSpec]:
    return (
        ClassSpec(
            class_id=1,
            arrival=Periodic(seconds_from_ms(0.1)),
            size=Constant(bits_from_bytes(100)),
            service_rate_bps=bps_from_mbps(c1_mbps),
        ),
        ClassSpec(
            class_id=2,
            arrival=Periodic(seconds_from_ms(1.0)),
            size=Constant(bits_from_bytes(1250)),
            service_rate_bps=bps_from_mbps(100),
        ),
    )


_CASE3_SPECS = (
    ClassSpec(1, Poisson(1e4), Constant(bits_from_bytes(100)), bps_from_mbps(10)),
    ClassSpec(2, Poisson(1e3), Constant(bits_from_bytes(1250)), bps_from_mbps(100)),
)
_CASE4_SPECS = (
    ClassSpec(1, Poisson(1e4), ExponentialMean(bits_from_bytes(100)), bps_from_mbps(10)),
    ClassSpec(2, Poisson(1e3), ExponentialMean(bits_from_bytes(1250)), bps_from_mbps(100)),
)
# case 3 with the arrival streams coupled; the synchronized mechanism keeps
# Poisson marginals while making class-2 arrivals coincide with class-1
# arrivals, which is what defeats the independence-based bound
_CASE5_SPECS = tuple(
    replace(s, arrival=CoupledPoisson(s.arrival.rate_hz, 1, "synchronized"))
    for s in _CASE3_SPECS
)
# the periodic class 1 of case 2 and the Poisson class 2 of case 4
_CASE6_SPECS = (_case12_specs(10)[0], _CASE4_SPECS[1])

#: Benchmark case presets by case id; their parameters are pinned by tests.
PRESETS = {
    1: CaseConfig(1, _case12_specs(20), tau_max_s=2.0e-4, bounds=("deterministic",)),
    2: CaseConfig(2, _case12_specs(10), tau_max_s=2.5e-4, bounds=("deterministic",)),
    3: CaseConfig(3, _CASE3_SPECS, tau_max_s=6.0e-3, bounds=("md1",)),
    4: CaseConfig(4, _CASE4_SPECS, tau_max_s=1.2e-2, bounds=("mm1",)),
    5: CaseConfig(5, _CASE5_SPECS, tau_max_s=6.0e-3, bounds=("md1", "split_constant")),
    6: CaseConfig(6, _CASE6_SPECS, tau_max_s=3.5e-3, bounds=("mixed_pair",)),
}


def preset(case_id: int) -> CaseConfig:
    """The benchmark case of PRESETS with this id."""
    if case_id not in PRESETS:
        raise InvalidSpecError(f"unknown case id {case_id!r}")
    return PRESETS[case_id]


def _check_violations(bound: CurveEntry, target: CurveEntry) -> ViolationReport:
    """The grid points where target's tail is above bound's by more than
    three of target's standard errors (target.se), of those where it is
    above the noise floor NOISE_FLOOR_COUNT / samples: their count and the
    worst of them."""
    emp, b, se = target.probs, bound.probs, target.se
    checked = emp > NOISE_FLOOR_COUNT / max(1, target.samples)
    over = np.flatnonzero(checked & (emp > b + 3.0 * se))
    worst = None
    if over.size:
        # excess over the bound in standard errors; at a tail of 1 the
        # standard error is 0, so any excess there counts as infinite
        excess, err = emp[over] - b[over], se[over]
        z = np.divide(excess, err, out=np.full(over.size, np.inf), where=err > 0)
        i = over[np.argmax(z)]
        worst = ViolationPoint(
            float(target.grid_s[i]), float(emp[i]), float(b[i]), float(3.0 * se[i])
        )
    return ViolationReport(
        bound.label, target.label, bound.guaranteed, int(np.count_nonzero(checked)),
        int(over.size), worst,
    )


def run_comparison(config: CaseConfig) -> ComparisonResult:
    """Compute a case's bounds, simulate it, and flag empirical exceedances.

    A case of periodic classes is judged customer by customer: its one
    buildable bound is "deterministic", whose worst-case delays bound every
    customer, so every delay is compared with the D/D/1 value directly (no
    grid, no statistical slack, only the double-rounding allowance
    FLOAT_SLACK_S), and that also covers the Cruz step, which is never
    below it. Every other case checks each bound curve on the grid with
    _check_violations. With replications > 1 and some stochastic class, the
    curves end with the delay tails of the first class's 1st, 10th and
    100th customers across that many independent replications.
    """
    # first, so a bound that cannot be built fails before the run
    bound_entries, values = case_bound_entries(config)
    stability = analytic.stability(config.specs)
    deterministic = all(isinstance(s.arrival, Periodic) for s in config.specs)
    # the deterministic bound, a periodic case's only one, is checked
    # customer by customer
    dd1 = "dd1_bound_s" in values
    limit, largest, over = values.get("dd1_bound_s", 0.0) + FLOAT_SLACK_S, -np.inf, 0
    tails = _TailCounts(config)
    for window in _windows(config):
        tails.add_window(window)
        if dd1:  # the window's delays, in merged order
            largest = max(largest, float(window.service_s.max()))
            over += int(np.count_nonzero(window.service_s > limit))
    empirical = _empirical_entries(config, tails)

    violations = []
    if dd1:
        values["max_delay_s"] = largest
        values["delays_above_dd1"] = over
    else:
        # the run holds every class of the config, so every bound has its curve
        targets = {(e.metric, e.class_id): e for e in empirical}
        violations = [
            _check_violations(bound, targets[bound.metric, bound.class_id])
            for bound in bound_entries
        ]

    # appended after the violations, so the long run's delay curve of the
    # first class stays the target its bounds were checked against
    curves = empirical + bound_entries
    if config.replications > 1 and not deterministic:
        first = config.specs[0].class_id
        grid = config.grid()
        delays = transient_delays(config, (1, 10, 100), first, config.replications)
        for j, sample in delays.items():
            sample.sort()
            curves.append(_counted_entry(
                f"sim_delay_c{first}_j{j}", "delay", first, grid, count_above(sample, grid),
                len(sample), note=f"delay of the {j}-th class-{first} customer",
            ))

    return ComparisonResult(
        case_id=config.case_id,
        stability=stability,
        values=values,
        curves=tuple(curves),
        violations=tuple(violations),
    )
