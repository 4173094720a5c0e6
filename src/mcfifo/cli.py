"""Command-line frontend.

Commands: bounds (analytical values and curves, no simulation), simulate
(records and empirical CCDFs), compare (bounds versus simulation with a
violation report), preset-list. Cases come from the built-in presets or a
JSON config whose field names carry explicit units (period_ms,
packet_bytes, service_rate_mbps); everything is canonicalized to seconds
and bits on load.

Exit codes: 0 success, 2 configuration error, 3 a guaranteed bound was
violated beyond slack.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import analytic, experiments
from .errors import InvalidInputError, InvalidSpecError
from .experiments import (
    BOUNDS,
    DEFAULT_SEED,
    CaseConfig,
    CurveEntry,
    _empirical_entries,
    _is_deterministic,
    preset,
    run_comparison,
    simulate_case,
    write_curves_csv,
    write_json,
)
from .simulator import empirical_ccdf, transient_delays
from .traffic import (
    ClassSpec,
    Constant,
    CoupledPoisson,
    ExponentialMean,
    Periodic,
    Poisson,
)
from .units import bits_from_bytes, bps_from_mbps, seconds_from_ms

SEED_ENV_VAR = "MCFIFO_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3


def _arrival_from_json(obj: dict):
    kind = obj.get("kind")
    if kind == "periodic":
        return Periodic(seconds_from_ms(float(obj["period_ms"])))
    if kind == "poisson":
        return Poisson(float(obj["rate_per_s"]))
    if kind == "coupled_poisson":
        return CoupledPoisson(
            float(obj["rate_per_s"]),
            int(obj["coupling_group"]),
            obj.get("mechanism", "scaled"),
        )
    raise InvalidSpecError(f"unknown arrival kind {kind!r}")


def _size_from_json(obj: dict):
    kind = obj.get("kind")
    if kind == "constant":
        return Constant(bits_from_bytes(float(obj["packet_bytes"])))
    if kind == "exponential":
        return ExponentialMean(bits_from_bytes(float(obj["mean_packet_bytes"])))
    raise InvalidSpecError(f"unknown size kind {kind!r}")


def _config_from_json(path: str, fallback_seed: int) -> CaseConfig:
    with open(path) as fh:
        data = json.load(fh)
    specs = tuple(
        ClassSpec(
            class_id=int(c["class_id"]),
            arrival=_arrival_from_json(c["arrival"]),
            size=_size_from_json(c["size"]),
            service_rate_bps=bps_from_mbps(float(c["service_rate_mbps"])),
        )
        for c in data["classes"]
    )
    bounds = tuple(data.get("bounds", ()))
    for name in bounds:
        if name not in BOUNDS:
            raise InvalidSpecError(f"unknown bound name {name!r}")
    return CaseConfig(
        case_id=data.get("case_id", "custom"),
        specs=specs,
        customers=int(data.get("customers", CaseConfig.customers)),
        seed=int(data.get("seed", fallback_seed)),
        tau_max_s=seconds_from_ms(float(data["tau_max_ms"]))
        if "tau_max_ms" in data
        else CaseConfig.tau_max_s,
        grid_points=int(data.get("grid_points", CaseConfig.grid_points)),
        warmup_fraction=float(data.get("warmup_fraction", CaseConfig.warmup_fraction)),
        bounds=bounds,
        replications=int(data.get("replications", 1)),
    )


def _resolve_config(args) -> CaseConfig:
    """Seed priority: --seed, then a config-file seed, then MCFIFO_SEED."""
    if (args.case is None) == (args.config is None):
        raise InvalidInputError("provide exactly one of --case or --config")
    env_seed = os.environ.get(SEED_ENV_VAR)
    fallback_seed = int(env_seed) if env_seed else DEFAULT_SEED
    if args.case is not None:
        config = preset(args.case)
        if env_seed:
            config = replace(config, seed=int(env_seed))
    else:
        config = _config_from_json(args.config, fallback_seed)
    overrides = {}
    if args.customers is not None:
        overrides["customers"] = args.customers
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.tau_max is not None:
        overrides["tau_max_s"] = args.tau_max
    if args.grid_points is not None:
        overrides["grid_points"] = args.grid_points
    if args.warmup is not None:
        overrides["warmup_fraction"] = args.warmup
    return replace(config, **overrides) if overrides else config


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise InvalidInputError(f"output directory {out} is not writable")
    return out


def cmd_bounds(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args)
    # looked up at call time, so a wrapper set on the module is seen
    entries, values = experiments.case_bound_entries(config)
    payload = {
        "case_id": config.case_id,
        "stability": asdict(analytic.stability(config.specs)),
        "bounds": values,
        "curves": [e.metadata() for e in entries],
    }
    write_json(out / "bounds.json", payload)
    if args.format == "csv":
        write_curves_csv(out / "bound_curves.csv", entries)
    print(json.dumps(payload["bounds"], indent=2, sort_keys=True))
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args)
    result = simulate_case(config)
    result.write_csv(out / "records.csv")

    entries = [e for e in _empirical_entries(config, result) if e.class_id is not None]
    write_curves_csv(out / "ccdf.csv", entries)

    summary = {
        "case_id": config.case_id,
        "customers": len(result),
        "max_delay_s": float(result.delay_s.max()),
        "mean_waiting_s": float(result.waiting_s.mean()),
        "seed": config.seed,
    }
    if args.format == "json":
        write_json(out / "summary.json", summary)
    print(
        f"case={summary['case_id']} customers={summary['customers']} "
        f"max_delay_s={summary['max_delay_s']!r} "
        f"mean_waiting_s={summary['mean_waiting_s']!r}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args)
    comparison = run_comparison(config)
    curves = list(comparison.curves)

    if config.replications > 1 and not _is_deterministic(config):
        # transient curves of the first class's early customers
        first = config.specs[0].class_id
        js = (1, 10, 100)
        delays = transient_delays(config, js, first, config.replications)
        grid = config.grid()
        for j, values in delays.items():
            ccdf = empirical_ccdf(values, grid, warmup_discard=0.0)
            curves.append(
                CurveEntry(
                    f"sim_delay_c{first}_j{j}",
                    "empirical",
                    "delay",
                    first,
                    grid,
                    ccdf.fractions,
                    note=f"delay of the {j}-th class-{first} customer",
                )
            )

    write_curves_csv(out / "curves.csv", curves)
    summary = comparison.summary_dict()
    summary["seed"] = config.seed
    write_json(out / "summary.json", summary)

    hard_failures = comparison.guaranteed_violations
    hard_failures += int(comparison.values.get("delays_above_dd1", 0))
    for report in comparison.violations:
        flag = "guaranteed" if report.guaranteed else "informational"
        print(
            f"{report.bound_label} vs {report.target_label}: "
            f"{report.count} violation(s) over {report.checked_points} points [{flag}]"
        )
    if hard_failures:
        print(f"FAIL: {hard_failures} guaranteed-bound violation(s)", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_preset_list(args) -> int:
    for case_id in range(1, 7):
        config = preset(case_id)
        parts = []
        for s in config.specs:
            if isinstance(s.arrival, Periodic):
                arr = f"periodic {s.arrival.period_s * 1e3:g} ms"
            elif isinstance(s.arrival, CoupledPoisson):
                arr = f"coupled poisson {s.arrival.rate_hz:g}/s ({s.arrival.mechanism})"
            else:
                arr = f"poisson {s.arrival.rate_hz:g}/s"
            size = (
                f"{s.size.bits / 8:g} B"
                if isinstance(s.size, Constant)
                else f"exp mean {s.size.mean_bits / 8:g} B"
            )
            parts.append(
                f"class {s.class_id}: {arr}, {size}, {s.service_rate_bps / 1e6:g} Mbps"
            )
        print(f"case {case_id}: " + " | ".join(parts) + f" | bounds={','.join(config.bounds)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcfifo",
        description="Multiclass FIFO delay bounds and their simulation checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("bounds", cmd_bounds),
        ("simulate", cmd_simulate),
        ("compare", cmd_compare),
    ):
        p = sub.add_parser(name)
        p.add_argument("--case", type=int, choices=range(1, 7), default=None)
        p.add_argument("--config", type=str, default=None, help="JSON case config")
        p.add_argument("--customers", type=int, default=None)
        p.add_argument("--replications", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tau-max", type=float, default=None, help="grid end (seconds)")
        p.add_argument("--grid-points", type=int, default=None)
        p.add_argument("--warmup", type=float, default=None, help="discard fraction")
        p.add_argument("--out", type=str, default=".")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(fn=fn)
    p = sub.add_parser("preset-list")
    p.set_defaults(fn=cmd_preset_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidInputError, InvalidSpecError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
