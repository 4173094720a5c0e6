"""The six benchmark cases and the bound-versus-simulation harness.

Cases 1-2 are periodic constant-size pairs (worst-case bounds apply),
cases 3-4 replace arrivals with independent Poisson processes (constant
then exponential sizes), case 5 couples the Poisson streams, and case 6
mixes a periodic class with a Poisson/exponential class; PRESETS holds
them by case id. run_comparison simulates a case, evaluates every applicable
bound, and reports where the empirical tail exceeds a bound beyond
statistical slack. It builds every curve a comparison reports: with
replications > 1 and some stochastic class, these include the transient
delay tails of the first class's 1st, 10th and 100th customers.

Its CCDF stage (_empirical_entries) sorts each class's waits once and,
for a class of constant sizes, counts the delay curve from the same sorted
waits shifted by the class's one service time; only classes with
exponential sizes (presets 4 and 6) have their delays scattered and sorted.
write_curves_csv writes the bytes of csv.writer without a per-row writer
call: each label is quoted once and each distinct grid's taus formatted once.

A config file is read here, by CaseConfig.from_dict from its parsed JSON:
one table, _KEYS, gives each key its field and its conversion to seconds
and bits, and an absent key keeps its field's dataclass default.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial
from itertools import repeat
from typing import Sequence

import numpy as np

from . import analytic
from .analytic import BoundCurve, StabilityReport, step_bound_curve
from .errors import InvalidInputError, InvalidSpecError
from .simulator import (
    RunResult,
    count_above,
    empirical_ccdf,
    merge_streams,
    run_fifo,
    transient_delays,
)
from .traffic import (
    ArrivalSequence,
    ClassSpec,
    Constant,
    CoupledPoisson,
    DeterministicEnvelope,
    ExponentialMean,
    Periodic,
    Poisson,
    coupling_groups,
    deterministic_envelope,
    generate_sequences,
    proportional_counts,
)
from .units import bits_from_bytes, bps_from_mbps, seconds_from_ms

DEFAULT_GRID_POINTS = 2000

#: Absolute slack absorbing accumulated double rounding when simulated
#: delays are compared against deterministic bounds they can attain exactly.
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
            # a bool is an Integral, but True is not a count or a seed
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not (integral and value >= least):
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
    """One curve of a comparison, empirical or analytical, with its metadata."""

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
    bound_label: str
    target_label: str
    guaranteed: bool
    checked_points: int
    points: tuple[ViolationPoint, ...]

    @property
    def count(self) -> int:
        return len(self.points)


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
    horizon, the last arrival of the class that stops first."""
    counts = proportional_counts(config.specs, config.customers)
    seqs = generate_sequences(config.specs, counts, config.seed)
    # keep only the span where every class is still arriving, so the tail of
    # the run is not a partially-loaded system; that span holds a prefix of
    # each class and a prefix of the merged stream, and FIFO is causal, so
    # cutting each class before the merge leaves every wait unchanged
    horizon = min((seq.times_s[-1] for seq in seqs if len(seq)), default=0.0)
    for seq in seqs:
        # a short run can thin a class to nothing or end before its first
        # arrival; every class of the config must be in the run
        if len(seq) == 0 or seq.times_s[0] > horizon:
            raise InvalidInputError(
                f"class {seq.class_id} has no arrivals before the horizon: raise customers"
            )
    seqs = [seq.prefix(int(np.searchsorted(seq.times_s, horizon, "right"))) for seq in seqs]
    merged = merge_streams(seqs, config.rates())
    del seqs  # the merged stream holds every arrival now
    return run_fifo(merged)


def _counted_entry(
    label: str, metric: str, class_id: int | None, grid, above: np.ndarray, samples: int
) -> CurveEntry:
    """The empirical curve of samples values, above[i] of them above grid[i]."""
    if samples == 0:
        raise InvalidInputError("no values left after warmup discard")
    return CurveEntry(
        label, "empirical", metric, class_id, grid, above / samples, samples=samples
    )


def _empirical_entries(config: CaseConfig, result: RunResult) -> list[CurveEntry]:
    """Empirical CCDFs of delay and waiting: aggregate, then one per class.

    Each curve equals empirical_ccdf of its values, but every class's kept
    values are sorted once per metric and the aggregate is counted from them.
    A metric is scattered into class order by source once, so class c's
    values in arrival order are its segment [start, start + n_c) of that
    buffer. Class c's curve keeps them from d_c = int(n_c * warmup) on. The
    aggregate keeps every customer from int(n * warmup) on, which is class
    c's values from e_c on, e_c being the class-c sources among the first
    int(n * warmup) customers. So the aggregate counts are the class counts,
    less the count over class c's values between d_c and e_c when e_c > d_c,
    or plus it when e_c < d_c.

    Waits are sorted first. A class of Constant sizes has the one service
    time s_c = bits / rate, the merge's own division, and adding a constant
    keeps float order, so its sorted delays are its sorted waits plus s_c:
    they are shifted in place and counted, and delay_s is scattered and
    sorted only when some class has exponential sizes.
    """
    grid, warmup = config.grid(), config.warmup_fraction
    skip = int(len(result) * warmup)
    head = result.source[:skip]
    classes = []  # per class: id, segment start and length, d_c and e_c
    for cid, start, n in result.segments:
        e = int(np.count_nonzero((head >= start) & (head < start + n)))
        classes.append((cid, start, n, int(n * warmup), e))
    service = {
        s.class_id: s.size.bits / s.service_rate_bps
        for s in config.specs
        if isinstance(s.size, Constant)
    }
    # (metric, class id) -> counts above the grid of the class's kept values
    # and of its values between d_c and e_c
    counts: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
    by_class = np.empty(len(result))
    by_class[result.source] = result.waiting_s
    for cid, start, n, d, e in classes:
        kept, edge = _sorted_class(by_class[start : start + n], d, e)
        counts["waiting", cid] = count_above(kept, grid), count_above(edge, grid)
        if cid in service:
            kept += service[cid]
            edge += service[cid]
            counts["delay", cid] = count_above(kept, grid), count_above(edge, grid)
    exponential = [c for c in classes if c[0] not in service]
    if exponential:
        by_class[result.source] = result.delay_s
        for cid, start, n, d, e in exponential:
            kept, edge = _sorted_class(by_class[start : start + n], d, e)
            counts["delay", cid] = count_above(kept, grid), count_above(edge, grid)

    entries = []
    for metric in ("delay", "waiting"):
        total = np.zeros(len(grid), dtype=np.int64)
        per_class = []
        for cid, _, n, d, e in classes:
            above, edge = counts[metric, cid]
            total += above
            if e > d:
                total -= edge
            else:
                total += edge
            label = f"sim_{metric}_c{cid}"
            per_class.append(_counted_entry(label, metric, cid, grid, above, n - d))
        samples = len(result) - skip
        entries.append(_counted_entry(f"sim_{metric}", metric, None, grid, total, samples))
        entries += per_class
    return entries


def _sorted_class(values: np.ndarray, d: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """A class's values from d on, sorted in place, and a sorted copy of
    its values between d and e, taken before the sort."""
    edge = np.sort(values[min(d, e) : max(d, e)])
    kept = values[d:]
    kept.sort()
    return kept, edge


def _bound_entry(
    curve: BoundCurve,
    metric: str,
    class_id: int | None = None,
    guaranteed: bool = False,
    note: str = "",
) -> CurveEntry:
    return CurveEntry(
        curve.label,
        "bound",
        metric,
        class_id,
        curve.grid_s,
        curve.probs,
        guaranteed=guaranteed,
        approximate=curve.approximate,
        note=note,
    )


def _deterministic(specs, grid) -> tuple[list[CurveEntry], dict]:
    envelopes = [deterministic_envelope(s) for s in specs]
    rates = [s.service_rate_bps for s in specs]
    dd1 = analytic.bound_dd1(envelopes, rates)
    cruz = analytic.bound_cruz_aggregate(envelopes, rates)
    values = {"dd1_bound_s": dd1, "cruz_bound_s": cruz if cruz is not None else "N.A."}
    entries = [
        _bound_entry(step_bound_curve(dd1, grid, "det_multiclass"), "delay", guaranteed=True)
    ]
    if cruz is not None:
        entries.append(
            _bound_entry(step_bound_curve(cruz, grid, "det_aggregate"), "delay", guaranteed=True)
        )
    return entries, values


def _poisson(name: str, specs, grid) -> tuple[list[CurveEntry], dict]:
    """md1 or mm1: the exact and second-order decay rates of analytic.theta_<name>
    (looked up when called), their waiting curves, and a delay curve per
    constant-size class, its waiting tail shifted by its service time.

    The exact rate is proven for independent classes only; with coupled
    classes its curve is informational and says so, and no delay curve is
    drawn. Exponential-size classes get no delay curve yet (ROADMAP item 4).
    """
    independent = not coupling_groups(specs)
    exact, approx = getattr(analytic, f"theta_{name}")(specs)
    values = {
        f"{name}_theta_exact_per_s": exact.theta_star,
        f"{name}_theta_approx_per_s": approx.theta_star,
        "theta_star_per_s": exact.theta_star,
    }
    note = "" if independent else "assumes independent classes"
    waiting = analytic.waiting_bound_curve(exact, grid, label=f"{name}_waiting_exact")
    second_order = analytic.waiting_bound_curve(approx, grid, label=f"{name}_waiting_approx")
    entries = [
        _bound_entry(waiting, "waiting", guaranteed=independent, note=note),
        _bound_entry(second_order, "waiting", note=note),
    ]
    for s in specs:
        if independent and isinstance(s.size, Constant):
            curve = analytic.delay_bound_convolve(
                s.mean_service_s, waiting, label=f"{name}_delay_exact_c{s.class_id}"
            )
            entries.append(_bound_entry(curve, "delay", s.class_id, guaranteed=True))
    return entries, values


def _split_constant(specs, grid) -> tuple[list[CurveEntry], dict]:
    curve = analytic.bound_mstar_d1(specs, grid)
    values = {"split_theta_per_s": analytic.second_order_theta(specs)}
    entries = [
        _bound_entry(curve, "waiting", note="valid under any cross-class dependence")
    ]
    return entries, values


def _mixed_pair(specs, grid) -> tuple[list[CurveEntry], dict]:
    values = {"theta_star_per_s": analytic.theta_dmdm(specs).theta_star}
    entries = [
        _bound_entry(
            analytic.bound_dmdm(specs, grid, s.class_id), "waiting", s.class_id, guaranteed=True
        )
        for s in specs
    ]
    return entries, values


#: Bound name -> builder(specs, grid) returning (curve entries, scalar values).
BOUNDS = {
    "deterministic": _deterministic,
    "md1": partial(_poisson, "md1"),
    "mm1": partial(_poisson, "mm1"),
    "split_constant": _split_constant,
    "mixed_pair": _mixed_pair,
}


def case_bound_entries(config: CaseConfig) -> tuple[list[CurveEntry], dict]:
    """Analytical curves for the case plus the scalar summary values."""
    grid = config.grid()
    entries: list[CurveEntry] = []
    values: dict = {}
    for name in config.bounds:
        more, scalars = BOUNDS[name](config.specs, grid)
        entries += more
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


def _check_violations(
    bound: CurveEntry,
    target: CurveEntry,
    top_s: float | None,
) -> ViolationReport:
    """The grid points where target's tail is above bound's: by three binomial
    standard errors for a stochastic target (top_s None), and for a
    deterministic one only where top_s, its largest value, is above tau +
    FLOAT_SLACK_S, the allowance of the direct D/D/1 check."""
    n_samples = max(1, target.samples)
    emp, b = target.probs, bound.probs
    if top_s is not None:
        checked = emp > 0.0
        slack = np.zeros(len(emp))
        over = np.flatnonzero(checked & (emp > b) & (top_s > target.grid_s + FLOAT_SLACK_S))
    else:
        checked = emp > NOISE_FLOOR_COUNT / n_samples
        slack = 3.0 * np.sqrt(emp * (1.0 - emp) / n_samples)
        over = np.flatnonzero(checked & (emp > b + slack))
    points = tuple(
        ViolationPoint(float(target.grid_s[i]), float(emp[i]), float(b[i]), float(slack[i]))
        for i in over
    )
    return ViolationReport(
        bound.label, target.label, bound.guaranteed, int(np.count_nonzero(checked)), points
    )


def run_comparison(config: CaseConfig) -> ComparisonResult:
    """Simulate a case, compute its bounds, and flag empirical exceedances.

    Deterministic cases additionally compare every delay against the
    worst-case value directly (no grid, no statistical slack, only the
    double-rounding allowance FLOAT_SLACK_S, which their grid checks allow
    too). With replications > 1 and some stochastic class, the curves end
    with the delay tails of the first class's 1st, 10th and 100th customers
    across that many independent replications.
    """
    result = simulate_case(config)
    stability = analytic.stability(config.specs)
    empirical = _empirical_entries(config, result)
    bound_entries, values = case_bound_entries(config)
    deterministic = all(isinstance(s.arrival, Periodic) for s in config.specs)

    top_s = None
    if deterministic:
        delays = result.delay_s
        # the only bounds of periodic classes are steps of the aggregate
        # delay, whose kept values are those from int(n * warmup) on
        top_s = float(delays[int(len(result) * config.warmup_fraction) :].max())
        if "dd1_bound_s" in values:
            over = delays > values["dd1_bound_s"] + FLOAT_SLACK_S
            values["max_delay_s"] = float(delays.max())
            values["delays_above_dd1"] = int(np.count_nonzero(over))

    # simulate_case ran every class of the config, so every bound has its curve
    targets = {(e.metric, e.class_id): e for e in empirical}
    violations = [
        _check_violations(bound, targets[bound.metric, bound.class_id], top_s)
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
            label, note = f"sim_delay_c{first}_j{j}", f"delay of the {j}-th class-{first} customer"
            ccdf = empirical_ccdf(sample, grid, 0.0)
            fractions, samples = ccdf.fractions, ccdf.sample_count
            curves.append(
                CurveEntry(
                    label, "empirical", "delay", first, grid, fractions, note=note, samples=samples
                )
            )

    return ComparisonResult(
        case_id=config.case_id,
        stability=stability,
        values=values,
        curves=tuple(curves),
        violations=tuple(violations),
    )
