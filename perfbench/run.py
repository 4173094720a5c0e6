"""mcfifo benchmark: one workload, closed loop, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload long_run --seed 1 --seconds 18 --trace 0

Workloads: long_run, replications, cli, bound_sweep (see perfbench/README.md).
The run measures set-up in fresh interpreters, then cycles through the
workload's operations until --seconds have passed (at least one full pass),
checks every output outside the timed section, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 each operation
also runs once under the span wrappers right after its untraced run, and the
metrics are the per-layer ones. Lines before the last carry the run context
and the workload-specific figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "traffic.generate_s": "s",
    "traffic.generate_calls": "count",
    "traffic.customers_generated": "count",
    "simulator.merge_s": "s",
    "simulator.run_fifo_s": "s",
    "simulator.run_fifo_customers": "count",
    "simulator.empirical_ccdf_s": "s",
    "simulator.empirical_ccdf_calls": "count",
    "simulator.transient_delays_s": "s",
    "simulator.useful_customer_ratio": "ratio",
    "simulator.write_csv_s": "s",
    "simulator.records_bytes": "bytes",
    "simulator.oracle_max_abs_err_s": "s",
    "experiments.simulate_case_self_s": "s",
    "experiments.customers_trimmed": "count",
    "experiments.run_comparison_self_s": "s",
    "experiments.case_bound_entries_s": "s",
    "experiments.empirical_entries_self_s": "s",
    "experiments.guaranteed_violations": "count",
    "analytic.theta_s": "s",
    "analytic.theta_mgf_evals": "count",
    "analytic.split_curve_s": "s",
    "analytic.convolution_s": "s",
    "analytic.convolution_fine_points": "count",
    "analytic.curve_s": "s",
    "analytic.root_residual_max": "ratio",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_numpy_s": "s",
    "cli.cmd_self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.bounds_cmd_s": "s",
    "cli.simulate_cmd_s": "s",
    "cli.compare_cmd_s": "s",
    "trace.overhead_s": "s",
}

#: Measured once per process, so reported as the median process, not per pass.
PER_PROCESS = ("cli.import_s", "cli.import_scipy_s", "cli.import_numpy_s")

SETUP_PROBES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("long_run", "replications", "cli", "bound_sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy problem sizes, for the benchmark's self-test")
    return parser.parse_args(argv)


def import_program():
    """Import mcfifo from this checkout's sources, or exit without a result."""
    if not (ROOT / "src" / "mcfifo" / "__init__.py").is_file():
        sys.exit(f"error: no mcfifo sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import mcfifo

    if Path(mcfifo.__file__).resolve().parent != ROOT / "src" / "mcfifo":
        sys.exit(f"error: imported mcfifo from {mcfifo.__file__}, not this checkout")
    return mcfifo


# ------------------------------------------------------------------ measuring


def setup_seconds(workload, seed: int, tiny: bool, speed) -> list[tuple[float, float]]:
    """Fresh interpreters until the package is imported and inputs are built,
    as (raw seconds, reference-speed seconds) per probe.

    On the cli workload this is the wall time of `mcfifo preset-list`.
    """
    timed = []
    for _ in range(1 if tiny else SETUP_PROBES):
        speed.sample()
        if workload.name == "cli":
            start = time.perf_counter()
            proc = subprocess.run(workload.command_line(["preset-list"]), cwd=ROOT,
                                  env=workload.env(), capture_output=True, text=True,
                                  timeout=120)
            end = time.perf_counter()
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or [ln.split(":")[0] for ln in lines] != [
                f"case {k}" for k in range(1, 7)
            ]:
                sys.exit(f"error: preset-list failed: {proc.stderr[-500:]}")
        else:
            line = [sys.executable, str(Path(__file__).with_name("probe.py")),
                    workload.name, str(seed), "1" if tiny else "0"]
            start = time.perf_counter()
            with subprocess.Popen(line, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
                ready = proc.stdout.readline()
                end = time.perf_counter()
                proc.stdout.read()
                code = proc.wait(timeout=120)
            if ready.strip() != "ready" or code != 0:
                sys.exit(f"error: set-up probe exited {code}")
        timed.append((start, end))
    speed.sample()
    return [(end - start, (end - start) * speed.scale(start, end)) for start, end in timed]


class Results:
    """Times, layer sums and problems per operation key."""

    def __init__(self, ops) -> None:
        self.ops = {op.key: op for op in ops}
        self.times = {k: [] for k in self.ops}
        self.traced_times = {k: [] for k in self.ops}
        self.intervals = {k: [] for k in self.ops}  # (start, end) of each time
        self.traced_intervals = {k: [] for k in self.ops}
        self.layers = {k: [] for k in self.ops}
        self.attempts = {k: 0 for k in self.ops}
        self.failures = {k: 0 for k in self.ops}
        self.problems: list[str] = []
        self.spans: list[dict] = []

    def fail(self, key: str, problems: list[str]) -> None:
        self.failures[key] += 1
        self.problems.extend(problems)


def run_once(op, results: Results, spans_on=None):
    """One timed call and its check; returns the output, or None on failure.

    spans_on, a context manager, turns tracing on around the call only, so
    the check's own calls into mcfifo record no spans.
    """
    results.attempts[op.key] += 1
    try:
        with spans_on if spans_on is not None else nullcontext():
            start = time.perf_counter()
            out = op.run()
            elapsed = time.perf_counter() - start
    except Exception:  # a failing operation is counted, and the loop goes on
        results.fail(op.key, [f"{op.key}: raised\n{traceback.format_exc()}"])
        return None
    problems = op.check(out)
    if problems:
        results.fail(op.key, problems)
        return None
    traced = spans_on is not None
    (results.traced_times if traced else results.times)[op.key].append(elapsed)
    (results.traced_intervals if traced else results.intervals)[op.key].append(
        (start, start + elapsed)
    )
    return out


@contextmanager
def tracing(workload, tracer):
    """Spans on: wrappers in this process, or a traced child for CLI commands."""
    if workload.name == "cli":
        workload.traced = True
        try:
            yield
        finally:
            workload.traced = False
    else:
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()


def cli_layers(out) -> tuple[list, dict]:
    """Spans of one traced command, rooted at its parent-side wall time."""
    from spans import Span, parse_importtime, span_from_dict

    child = out.child
    spans = [
        Span("cli.cmd", out.spawn, out.exit, None),
        Span("cli.startup", out.spawn, child["main_start"], 0),
    ]
    for d in child["spans"]:
        span = span_from_dict(d)
        span.parent = 0 if span.parent is None else span.parent + 2
        spans.append(span)
    extra = parse_importtime(out.stderr)
    extra["cli.output_bytes"] = out.output_bytes
    return spans, extra


def measure(workload, seconds: float, trace: bool, speed) -> Results:
    from spans import Tracer, layer_totals, span_to_dict

    ops = workload.ops()
    results = Results(ops)
    tracer = Tracer()
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        i += 1
        speed.maybe_sample()
        run_once(op, results)
        if not trace:
            continue
        out = run_once(op, results, tracing(workload, tracer))
        spans = tracer.take()
        if out is None:
            continue
        extra = {}
        if workload.name == "cli":
            spans, extra = cli_layers(out)
        layers = layer_totals(spans)
        layers.update(extra)
        results.layers[op.key].append(layers)
        results.spans.append({"op": op.key, "spans": [span_to_dict(s) for s in spans]})
    speed.sample()
    return results


# -------------------------------------------------------------------- metrics


def per_pass(samples: dict[str, list[float]]) -> float:
    """One pass of the workload: the sum over operations of each one's median."""
    return sum(statistics.median(v) for v in samples.values() if v)


def at_reference_speed(times: dict, intervals: dict, speed) -> dict[str, list[float]]:
    return {
        key: [t * speed.scale(*iv) for t, iv in zip(times[key], intervals[key])]
        for key in times
    }


def end_to_end(results: Results, setup: list[tuple[float, float]], speed, rss_kb: int) -> dict:
    wall = per_pass(at_reference_speed(results.times, results.intervals, speed))
    units = sum(op.units for op in results.ops.values())
    values = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "wall_s": wall,
        "work_per_s": units / wall if wall > 0 else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(workload, results: Results, speed) -> dict:
    values = {name: 0.0 for name in PER_LAYER}
    names = set()
    for samples in results.layers.values():
        for layers in samples:
            names.update(layers)
    for name in names:
        if name in PER_PROCESS:
            every = [s.get(name, 0.0) for v in results.layers.values() for s in v]
            values[name] = statistics.median(every)
        else:
            values[name] = sum(
                statistics.median(s.get(name, 0.0) for s in v)
                for v in results.layers.values()
                if v
            )
    simulated = values.pop("replication_customers_simulated", 0.0)
    needed = values.pop("replication_customers_needed", 0.0)
    values["simulator.useful_customer_ratio"] = needed / simulated if simulated else 0.0
    if workload.name == "cli":
        for key in results.times:
            if results.times[key]:
                values[f"cli.{key}_cmd_s"] = statistics.median(results.times[key])
    values["simulator.oracle_max_abs_err_s"] = getattr(workload, "oracle_max_abs_err_s", 0.0)
    values["analytic.root_residual_max"] = getattr(workload, "root_residual_max", 0.0)
    values["trace.overhead_s"] = per_pass(
        at_reference_speed(results.traced_times, results.traced_intervals, speed)
    ) - per_pass(at_reference_speed(results.times, results.intervals, speed))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def details(workload, results: Results, e2e: dict, setup, speed, failed: int) -> dict:
    """The workload-specific figures a user reads, and the raw times behind
    the reference-speed ones, by name and unit."""
    attempted = sum(results.attempts.values())
    out = {"failed_ratio": {"value": failed / attempted, "unit": "ratio"}}
    if workload.name == "cli":
        scaled = at_reference_speed(results.times, results.intervals, speed)
        for key, times in scaled.items():
            if times:
                out[f"{key}_cmd_s"] = {"value": statistics.median(times), "unit": "s"}
    else:
        out[f"{workload.unit}_per_s"] = {"value": e2e["work_per_s"]["value"], "unit": "1/s"}
    raw = {
        "raw_setup_s": statistics.median(r for r, _ in setup),
        "raw_wall_s": per_pass(results.times),
        "host_probe_s": statistics.median(s for _, s in speed.samples),
    }
    out.update({name: {"value": value, "unit": "s"} for name, value in raw.items()})
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    cpu = "unknown"
    mem_kb = 0
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "mem_total_mb": mem_kb // 1024,
        "platform": platform.platform(),
    }


def versions(mcfifo) -> dict:
    out = {"python": platform.python_version(), "mcfifo": mcfifo.__version__}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = metadata.version(dist)  # no import: it would cost set-up
        except metadata.PackageNotFoundError:
            out[dist] = None
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    mcfifo = import_program()
    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed, args.tiny)
    speed = HostSpeed()
    setup = setup_seconds(workload, args.seed, args.tiny, speed)
    results = measure(workload, args.seconds, bool(args.trace), speed)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss

    for key, problems in workload.final_checks().items():
        if problems:
            # the output of every run of that operation is wrong
            results.failures[key] = results.attempts[key]
            results.problems.extend(problems)
    for problem in results.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    attempted = sum(results.attempts.values())
    failed = sum(results.failures.values())
    e2e = end_to_end(results, setup, speed, rss_kb)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "jobs": 1,
        "machine": machine(),
        "versions": versions(mcfifo),
        "git_commit": git_commit(),
        "setup_samples_s": [raw for raw, _ in setup],
        "host_probe_samples": len(speed.samples),
        "samples": {k: len(v) for k, v in results.times.items()},
        "traced_samples": {k: len(v) for k, v in results.traced_times.items()},
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"details": details(workload, results, e2e, setup, speed, failed)}))
    if args.trace:
        RUN_DIR.mkdir(exist_ok=True)
        with open(RUN_DIR / f"trace-{args.workload}.json", "w") as fh:
            json.dump({"context": context, "operations": results.spans}, fh)
    metrics = per_layer(workload, results, speed) if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
