"""The six benchmark cases and the bound-versus-simulation harness.

Cases 1-2 are periodic constant-size pairs (worst-case bounds apply),
cases 3-4 replace arrivals with independent Poisson processes (constant
then exponential sizes), case 5 couples the Poisson streams, and case 6
mixes a periodic class with a Poisson/exponential class. run_comparison
simulates a case, evaluates every applicable bound, and reports where the
empirical tail exceeds a bound beyond statistical slack.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import analytic
from .analytic import BoundCurve, StabilityReport, step_bound_curve
from .errors import InvalidInputError, InvalidSpecError
from .simulator import MergedArrivals, RunResult, empirical_ccdf, merge_streams, run_fifo
from .traffic import (
    ArrivalSequence,
    ClassSpec,
    Constant,
    CoupledPoisson,
    DeterministicEnvelope,
    ExponentialMean,
    Periodic,
    Poisson,
    deterministic_envelope,
    generate_sequences,
    proportional_counts,
)
from .units import bits_from_bytes, bps_from_mbps, seconds_from_ms

DEFAULT_SEED = 1
DEFAULT_CUSTOMERS = 1_000_000
DEFAULT_GRID_POINTS = 2000
DEFAULT_WARMUP = 0.1

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
    customers: int = DEFAULT_CUSTOMERS
    seed: int = DEFAULT_SEED
    tau_max_s: float = 1e-3
    grid_points: int = DEFAULT_GRID_POINTS
    warmup_fraction: float = DEFAULT_WARMUP
    bounds: tuple[str, ...] = ()
    replications: int = 1
    explicit_sequences: tuple[ArrivalSequence, ...] | None = None

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
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise InvalidSpecError(f"{name} must be an integer >= {least}, got {value!r}")

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.tau_max_s, self.grid_points)

    def rates(self) -> dict[int, float]:
        return {s.class_id: s.service_rate_bps for s in self.specs}


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
        return sum(v.count for v in self.violations if v.guaranteed)

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
    """One row per grid point of every curve: label, tau and probability."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve_label", "tau_s", "prob"])
        for entry in entries:
            for tau, p in zip(entry.grid_s, entry.probs):
                writer.writerow([entry.label, repr(float(tau)), repr(float(p))])


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def preset(case_id: int) -> CaseConfig:
    """Benchmark case presets; their parameters are pinned by tests."""
    if case_id == 1:
        return CaseConfig(1, _case12_specs(20), tau_max_s=2.0e-4, bounds=("deterministic",))
    if case_id == 2:
        return CaseConfig(2, _case12_specs(10), tau_max_s=2.5e-4, bounds=("deterministic",))
    if case_id == 3:
        specs = (
            ClassSpec(1, Poisson(1e4), Constant(bits_from_bytes(100)), bps_from_mbps(10)),
            ClassSpec(2, Poisson(1e3), Constant(bits_from_bytes(1250)), bps_from_mbps(100)),
        )
        return CaseConfig(3, specs, tau_max_s=6.0e-3, bounds=("md1",))
    if case_id == 4:
        specs = (
            ClassSpec(
                1, Poisson(1e4), ExponentialMean(bits_from_bytes(100)), bps_from_mbps(10)
            ),
            ClassSpec(
                2, Poisson(1e3), ExponentialMean(bits_from_bytes(1250)), bps_from_mbps(100)
            ),
        )
        return CaseConfig(4, specs, tau_max_s=1.2e-2, bounds=("mm1",))
    if case_id == 5:
        # same rates as case 3 with the arrival streams coupled; the
        # synchronized mechanism keeps Poisson marginals while making class-2
        # arrivals coincide with class-1 arrivals, which is what defeats the
        # independence-based bound
        specs = (
            ClassSpec(
                1,
                CoupledPoisson(1e4, coupling_group=1, mechanism="synchronized"),
                Constant(bits_from_bytes(100)),
                bps_from_mbps(10),
            ),
            ClassSpec(
                2,
                CoupledPoisson(1e3, coupling_group=1, mechanism="synchronized"),
                Constant(bits_from_bytes(1250)),
                bps_from_mbps(100),
            ),
        )
        return CaseConfig(
            5, specs, tau_max_s=6.0e-3, bounds=("md1_independent", "split_constant")
        )
    if case_id == 6:
        specs = (
            ClassSpec(
                1,
                Periodic(seconds_from_ms(0.1)),
                Constant(bits_from_bytes(100)),
                bps_from_mbps(10),
            ),
            ClassSpec(
                2,
                Poisson(1e3),
                ExponentialMean(bits_from_bytes(1250)),
                bps_from_mbps(100),
            ),
        )
        return CaseConfig(6, specs, tau_max_s=3.5e-3, bounds=("mixed_pair",))
    raise InvalidSpecError(f"unknown case id {case_id!r}")


def tightness_scenario(
    envelopes: Sequence[DeterministicEnvelope], rates_bps: Sequence[float]
) -> CaseConfig:
    """Arrival pattern attaining the worst-case deterministic delay.

    Every class emits its full burst at time 0; the burst customer served
    last leaves exactly sum_n burst_n/C_n later. Sequences are explicit, so
    the run bypasses the generators and their first-arrival phase convention.
    """
    specs = []
    seqs = []
    for i, (env, capacity) in enumerate(zip(envelopes, rates_bps), start=1):
        if env.burst_bits <= 0 or env.rate_bps <= 0:
            raise InvalidInputError("tightness needs positive rate and burst")
        specs.append(
            ClassSpec(
                class_id=i,
                arrival=Periodic(env.burst_bits / env.rate_bps),
                size=Constant(env.burst_bits),
                service_rate_bps=capacity,
            )
        )
        seqs.append(
            ArrivalSequence(i, np.array([0.0]), np.array([env.burst_bits]))
        )
    bound = sum(e.burst_bits / c for e, c in zip(envelopes, rates_bps))
    return CaseConfig(
        case_id="tightness",
        specs=tuple(specs),
        customers=len(specs),
        tau_max_s=1.5 * bound,
        grid_points=200,
        warmup_fraction=0.0,
        bounds=("deterministic",),
        explicit_sequences=tuple(seqs),
    )


def simulate_case(config: CaseConfig) -> RunResult:
    """Generate (or take) the case's arrivals and run them through the queue."""
    if config.explicit_sequences is not None:
        seqs = list(config.explicit_sequences)
    else:
        counts = proportional_counts(config.specs, config.customers)
        seqs = generate_sequences(config.specs, counts, config.seed)
    for seq in seqs:
        if len(seq) == 0:  # a thinned class can keep no instant of a short run
            raise InvalidInputError(f"class {seq.class_id} has no arrivals: raise customers")
    merged = merge_streams(seqs)
    if len(seqs) > 1:
        # keep only the span where every class is still arriving, so the
        # tail of the run is not a partially-loaded system; the merged
        # stream is time-ordered, so that span is a prefix, and FIFO is
        # causal, so cutting it before the queue leaves its waits unchanged
        horizon = min(seq.times_s[-1] for seq in seqs)
        n = int(np.searchsorted(merged.times_s, horizon, side="right"))
        merged = MergedArrivals(
            merged.times_s[:n], merged.sizes_bits[:n], merged.class_ids[:n], merged.class_index[:n]
        )
    return run_fifo(merged, config.rates())


def _empirical_entries(config: CaseConfig, result: RunResult) -> list[CurveEntry]:
    """Empirical CCDFs of delay and waiting: aggregate, then one per class."""
    grid = config.grid()
    masks = {
        cid: result.class_ids == cid for cid in np.unique(result.class_ids).tolist()
    }
    entries = []
    per_metric = {"delay": result.delay_s, "waiting": result.waiting_s}
    for metric, values in per_metric.items():
        samples = [(f"sim_{metric}", None, values)] + [
            (f"sim_{metric}_c{cid}", cid, values[mask]) for cid, mask in masks.items()
        ]
        for label, cid, sample in samples:
            ccdf = empirical_ccdf(sample, grid, config.warmup_fraction)
            entries.append(
                CurveEntry(
                    label,
                    "empirical",
                    metric,
                    cid,
                    grid,
                    ccdf.fractions,
                    samples=ccdf.sample_count,
                )
            )
    return entries


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


def _decay_rate_entries(
    prefix: str, exact, approx, grid, guaranteed: bool = True, note: str = ""
) -> tuple[list[CurveEntry], dict]:
    """Waiting curves and values of an exact decay rate and its approximation."""
    values = {
        f"{prefix}_theta_exact_per_s": exact.theta_star,
        f"{prefix}_theta_approx_per_s": approx.theta_star,
        "theta_star_per_s": exact.theta_star,
    }
    entries = [
        _bound_entry(
            analytic.waiting_bound_curve(theta, grid, label=f"{prefix}_waiting_{kind}"),
            "waiting",
            guaranteed=guaranteed and kind == "exact",
            note=note,
        )
        for kind, theta in (("exact", exact), ("approx", approx))
    ]
    return entries, values


def _md1(specs, grid, independent: bool = True) -> tuple[list[CurveEntry], dict]:
    """M/D/1-like curves; without independence the exact curve is not proven
    and the per-class delay forms are left out."""
    exact, approx = analytic.theta_md1(specs)
    note = "" if independent else "assumes independent classes"
    entries, values = _decay_rate_entries("md1", exact, approx, grid, independent, note)
    if independent:
        # delay form: constant service shifts the waiting tail
        waiting = analytic.waiting_bound_curve(exact, grid)
        for s in specs:
            curve = analytic.delay_bound_convolve(
                s.mean_service_s, waiting, label=f"md1_delay_exact_c{s.class_id}"
            )
            entries.append(_bound_entry(curve, "delay", s.class_id, guaranteed=True))
    return entries, values


def _mm1(specs, grid) -> tuple[list[CurveEntry], dict]:
    return _decay_rate_entries("mm1", *analytic.theta_mm1(specs), grid)


def _split_constant(specs, grid) -> tuple[list[CurveEntry], dict]:
    curve = analytic.bound_mstar_d1(specs, grid)
    values = {"split_theta_per_s": analytic.theta_md1(specs)[1].theta_star}
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
    "md1": _md1,
    "md1_independent": partial(_md1, independent=False),
    "mm1": _mm1,
    "split_constant": _split_constant,
    "mixed_pair": _mixed_pair,
}


def case_bound_entries(config: CaseConfig) -> tuple[list[CurveEntry], dict]:
    """Analytical curves for the case plus the scalar summary values."""
    grid = config.grid()
    entries: list[CurveEntry] = []
    values: dict = {}
    for name in config.bounds:
        if name not in BOUNDS:
            raise InvalidSpecError(f"unknown bound name {name!r}")
        more, scalars = BOUNDS[name](config.specs, grid)
        entries += more
        values.update(scalars)
    return entries, values


def _is_deterministic(config: CaseConfig) -> bool:
    return all(isinstance(s.arrival, Periodic) for s in config.specs)


def _check_violations(
    bound: CurveEntry,
    target: CurveEntry,
    deterministic: bool,
) -> ViolationReport:
    points = []
    checked = 0
    n_samples = max(1, target.samples)
    floor = 0.0 if deterministic else NOISE_FLOOR_COUNT / n_samples
    for tau, emp, b in zip(target.grid_s, target.probs, bound.probs):
        if emp <= floor:
            continue
        checked += 1
        slack = 0.0 if deterministic else 3.0 * math.sqrt(emp * (1.0 - emp) / n_samples)
        if emp > b + slack:
            points.append(ViolationPoint(float(tau), float(emp), float(b), slack))
    return ViolationReport(
        bound.label, target.label, bound.guaranteed, checked, tuple(points)
    )


def run_comparison(config: CaseConfig) -> ComparisonResult:
    """Simulate a case, compute its bounds, and flag empirical exceedances.

    Deterministic cases additionally compare every delay against the
    worst-case value directly (no grid, no statistical slack, only the
    double-rounding allowance).
    """
    result = simulate_case(config)
    stability = analytic.stability(config.specs)
    empirical = _empirical_entries(config, result)
    bound_entries, values = case_bound_entries(config)
    deterministic = _is_deterministic(config)

    violations = []
    for bound in bound_entries:
        target_label = (
            f"sim_{bound.metric}"
            if bound.class_id is None
            else f"sim_{bound.metric}_c{bound.class_id}"
        )
        target = next((e for e in empirical if e.label == target_label), None)
        if target is None:
            continue
        violations.append(_check_violations(bound, target, deterministic))

    if deterministic and "dd1_bound_s" in values:
        bound_s = values["dd1_bound_s"]
        delays = result.delay_s
        over = delays > bound_s + FLOAT_SLACK_S
        values["max_delay_s"] = float(delays.max())
        values["delays_above_dd1"] = int(np.count_nonzero(over))

    return ComparisonResult(
        case_id=config.case_id,
        stability=stability,
        values=values,
        curves=tuple(empirical + bound_entries),
        violations=tuple(violations),
    )
