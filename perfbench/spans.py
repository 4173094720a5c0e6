"""Spans recorded around calls into mcfifo's layers, and their aggregation.

Wrappers are installed at the module globals where each public function is
looked up: `experiments` imports `run_fifo` by name, so the wrapper must
replace `mcfifo.experiments.run_fifo` as well as `mcfifo.simulator.run_fifo`.
Spans are kept in memory; self time is a span's duration minus the part its
direct children cover. This module imports only the standard library, so a
traced CLI child that loads it first still times every NumPy, SciPy and
mcfifo module in mcfifo's own import.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

# Monotonic clock shared by all processes on one Linux host, so spans from a
# traced CLI child line up with the parent's spawn and exit times.
clock = time.monotonic


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _customers(_arguments, result) -> dict:
    return {"customers": len(result)}


def _generated(_arguments, result) -> dict:
    return {"customers": sum(len(seq) for seq in result)}


def _violations(_arguments, result) -> dict:
    return {"guaranteed_violations": result.guaranteed_violations}


def _needed(arguments, _result) -> dict:
    needed = int(arguments["replications"]) * max(int(j) for j in arguments["js"])
    return {"needed": needed}


def _csv_bytes(arguments, _result) -> dict:
    return {"bytes": os.path.getsize(arguments["path"])}


def _fine_points(arguments, _result) -> dict:
    """Points of the refined grid a numerical convolution tabulates.

    delay_bound_convolve shifts exactly for a constant service time and
    smears only for a callable CDF; gsbb_bound_convolution always smears.
    """
    if "waiting_curve" in arguments:
        if not callable(arguments["service_cdf"]):
            return {"fine_points": 0}
        grid_len = len(arguments["waiting_curve"].grid_s)
    else:
        grid_len = len(arguments["grid_s"])
    return {"fine_points": (grid_len - 1) * int(arguments["refine"]) + 1}


class Tracer:
    """In-memory span recorder; wrappers nest through an explicit stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        tracer = self
        signature = inspect.signature(fn) if attrs is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            span = Span(name, clock(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                tracer._stack.pop()
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(attrs(bound.arguments, result))
            return result

        return wrapper

    def _theta_exact(self, fn):
        """theta_exact with its MGF argument counted per evaluation."""
        tracer = self

        def counted_solver(mgf_excess, *args, **kwargs):
            evals = [0]

            def mgf(theta):
                evals[0] += 1
                return mgf_excess(theta)

            try:
                return fn(mgf, *args, **kwargs)
            finally:
                tracer.spans[tracer._stack[-1]].attrs["mgf_evals"] = evals[0]

        return self.wrap("analytic.theta", functools.wraps(fn)(counted_solver))

    def install(self) -> None:
        """Replace each layer's public functions at every lookup site.

        Only modules already imported are patched, so tracing never adds an
        import (the CLI module is loaded only in CLI processes). A name a
        module no longer has is skipped, and its metrics read 0.
        """
        analytic = sys.modules["mcfifo.analytic"]
        simulator = sys.modules["mcfifo.simulator"]
        by_name = {
            # name looked up: (span name, attrs, modules whose globals hold it)
            "generate_sequences": (
                "traffic.generate", _generated, ("experiments", "simulator")
            ),
            "merge_streams": ("simulator.merge", None, ("experiments", "simulator")),
            "run_fifo": ("simulator.run_fifo", _customers, ("experiments", "simulator")),
            "empirical_ccdf": (
                "simulator.empirical_ccdf", None, ("experiments", "simulator", "cli")
            ),
            "transient_delays": (
                "simulator.transient_delays", _needed, ("simulator", "cli")
            ),
            "simulate_case": (
                "experiments.simulate_case", _customers, ("experiments", "cli")
            ),
            "run_comparison": (
                "experiments.run_comparison", _violations, ("experiments", "cli")
            ),
            "case_bound_entries": (
                "experiments.case_bound_entries", None, ("experiments",)
            ),
            # private, but it is the CCDF stage of run_comparison: per-class
            # masks and class-id sets around the empirical_ccdf calls
            "_empirical_entries": (
                "experiments.empirical_entries", None, ("experiments",)
            ),
            "theta_md1": ("analytic.theta", None, ("analytic",)),
            "theta_mm1": ("analytic.theta", None, ("analytic",)),
            "theta_dmdm": ("analytic.theta", None, ("analytic",)),
            "gsbb_split_curve": ("analytic.split_curve", None, ("analytic",)),
            "delay_bound_convolve": (
                "analytic.convolution", _fine_points, ("analytic",)
            ),
            "gsbb_bound_convolution": (
                "analytic.convolution", _fine_points, ("analytic",)
            ),
            "waiting_bound_curve": ("analytic.curve", None, ("analytic",)),
            "step_bound_curve": ("analytic.curve", None, ("analytic", "experiments")),
            "bound_mstar_d1": ("analytic.curve", None, ("analytic",)),
            "bound_dmdm": ("analytic.curve", None, ("analytic",)),
        }
        for attr, (span_name, attrs, modules) in by_name.items():
            for short in modules:
                module = sys.modules.get(f"mcfifo.{short}")
                if module is not None and hasattr(module, attr):
                    original = getattr(module, attr)
                    self._patch(module, attr, self.wrap(span_name, original, attrs))
        if hasattr(analytic, "theta_exact"):
            self._patch(analytic, "theta_exact", self._theta_exact(analytic.theta_exact))
        if hasattr(simulator.RunResult, "write_csv"):
            csv_span = self.wrap("simulator.write_csv", simulator.RunResult.write_csv, _csv_bytes)
            self._patch(simulator.RunResult, "write_csv", csv_span)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Spans recorded since the last take, re-indexed from 0."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def span_to_dict(span: Span) -> dict:
    return {
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "parent": span.parent,
        "attrs": span.attrs,
    }


def span_from_dict(d: dict) -> Span:
    return Span(d["name"], d["start"], d["end"], d["parent"], d.get("attrs", {}))


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds from `python -X importtime`: mcfifo's top-level imports
    (cumulative), and the self time of every scipy and numpy module."""
    out = {"cli.import_s": 0.0, "cli.import_scipy_s": 0.0, "cli.import_numpy_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line.split(":", 1)[1].split("|")
        stripped = name.strip()
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        top = stripped.split(".")[0]
        if top == "mcfifo" and depth == 0:
            out["cli.import_s"] += int(cumulative_us) * 1e-6
        elif top == "scipy":
            out["cli.import_scipy_s"] += int(self_us) * 1e-6
        elif top == "numpy":
            out["cli.import_numpy_s"] += int(self_us) * 1e-6
    return out


#: What each span contributes to the per-layer metrics: its self time, its
#: inclusive time, its call count, and attrs summed under a metric name.
SPAN_METRICS = {
    "traffic.generate": {
        "self": "traffic.generate_s",
        "calls": "traffic.generate_calls",
        "customers": "traffic.customers_generated",
    },
    "simulator.merge": {"self": "simulator.merge_s"},
    "simulator.run_fifo": {
        "self": "simulator.run_fifo_s",
        "customers": "simulator.run_fifo_customers",
    },
    "simulator.empirical_ccdf": {
        "self": "simulator.empirical_ccdf_s",
        "calls": "simulator.empirical_ccdf_calls",
    },
    "simulator.transient_delays": {
        "total": "simulator.transient_delays_s",
        "needed": "replication_customers_needed",
    },
    "simulator.write_csv": {
        "self": "simulator.write_csv_s",
        "bytes": "simulator.records_bytes",
    },
    "experiments.simulate_case": {"self": "experiments.simulate_case_self_s"},
    "experiments.run_comparison": {
        "self": "experiments.run_comparison_self_s",
        "guaranteed_violations": "experiments.guaranteed_violations",
    },
    "experiments.case_bound_entries": {"total": "experiments.case_bound_entries_s"},
    "experiments.empirical_entries": {"self": "experiments.empirical_entries_self_s"},
    "analytic.theta": {"self": "analytic.theta_s", "mgf_evals": "analytic.theta_mgf_evals"},
    "analytic.split_curve": {"self": "analytic.split_curve_s"},
    "analytic.convolution": {
        "self": "analytic.convolution_s",
        "fine_points": "analytic.convolution_fine_points",
    },
    "analytic.curve": {"self": "analytic.curve_s"},
    "cli.cmd": {"self": "cli.cmd_self_s"},
}


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer sums over the spans of one operation."""
    out: dict[str, float] = {}

    def add(metric: str, value: float) -> None:
        out[metric] = out.get(metric, 0.0) + value

    own = self_times(spans)
    for span, self_s in zip(spans, own):
        rule = SPAN_METRICS.get(span.name, {})
        for key, metric in rule.items():
            if key == "self":
                add(metric, self_s)
            elif key == "total":
                add(metric, span.duration)
            elif key == "calls":
                add(metric, 1)
            elif key in span.attrs:
                add(metric, span.attrs[key])
        parent = spans[span.parent] if span.parent is not None else None
        if span.name == "simulator.run_fifo" and parent is not None:
            customers = span.attrs["customers"]
            if parent.name == "experiments.simulate_case":
                # customers simulated that simulate_case drops at the horizon
                add("experiments.customers_trimmed", customers - parent.attrs["customers"])
            if _has_ancestor(spans, span, "simulator.transient_delays"):
                add("replication_customers_simulated", customers)
    return out


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    while span.parent is not None:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False
