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
    DEFAULT_SEED,
    PRESETS,
    CaseConfig,
    _empirical_entries,
    preset,
    run_comparison,
    simulate_case,
    write_curves_csv,
    write_json,
)
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


#: Keys a config file may hold: at the top level, in each class, and in
#: each arrival and size object by kind.
_CONFIG_KEYS = {
    "case_id", "classes", "customers", "seed", "tau_max_ms", "grid_points",
    "warmup_fraction", "bounds", "replications",
}
_CLASS_KEYS = {"class_id", "arrival", "size", "service_rate_mbps"}
_ARRIVAL_KEYS = {
    "periodic": {"kind", "period_ms"},
    "poisson": {"kind", "rate_per_s"},
    "coupled_poisson": {"kind", "rate_per_s", "coupling_group", "mechanism"},
}
_SIZE_KEYS = {
    "constant": {"kind", "packet_bytes"},
    "exponential": {"kind", "mean_packet_bytes"},
}
_REQUIRED = object()

#: Command-line flags (as argparse names them) that override a CaseConfig field.
_OVERRIDES = (
    ("customers", "customers"),
    ("replications", "replications"),
    ("seed", "seed"),
    ("tau_max", "tau_max_s"),
    ("grid_points", "grid_points"),
    ("warmup", "warmup_fraction"),
)


def _check_keys(obj, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise InvalidSpecError(f"{where}: expected a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise InvalidSpecError(f"{where}: unknown key {unknown[0]!r}")


def _field(obj: dict, key: str, where: str, cast=float, default=_REQUIRED):
    """obj[key] converted by cast, or default when the key is absent."""
    if key not in obj:
        if default is _REQUIRED:
            raise InvalidSpecError(f"{where}: missing key {key!r}")
        return default
    try:
        return cast(obj[key])
    except (TypeError, ValueError, OverflowError):
        raise InvalidSpecError(f"{where}: invalid {key}: {obj[key]!r}") from None


def _array(value) -> list:
    if not isinstance(value, list):
        raise TypeError(value)
    return value


def _integer(value) -> int:
    """A whole number as an int; a fraction is an error, not truncated."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(value)
    return int(value)


def _case_id(value) -> int | str:
    """A string or an integer, as JSON writes them; NaN, lists and the rest fail."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise TypeError(value)


def _kind(obj: dict, keys_by_kind: dict, where: str) -> str:
    """The object's kind, once its keys are checked against that kind."""
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in keys_by_kind:
        raise InvalidSpecError(f"{where}: unknown kind {kind!r}")
    _check_keys(obj, keys_by_kind[kind], where)
    return kind


def _arrival_from_json(obj, where: str):
    kind = _kind(obj, _ARRIVAL_KEYS, where)
    if kind == "periodic":
        return Periodic(seconds_from_ms(_field(obj, "period_ms", where)))
    rate = _field(obj, "rate_per_s", where)
    if kind == "poisson":
        return Poisson(rate)
    return CoupledPoisson(
        rate,
        _field(obj, "coupling_group", where, _integer),
        _field(obj, "mechanism", where, str, "scaled"),
    )


def _size_from_json(obj, where: str):
    if _kind(obj, _SIZE_KEYS, where) == "constant":
        return Constant(bits_from_bytes(_field(obj, "packet_bytes", where)))
    return ExponentialMean(bits_from_bytes(_field(obj, "mean_packet_bytes", where)))


def _class_from_json(obj, index: int) -> ClassSpec:
    _check_keys(obj, _CLASS_KEYS, f"classes[{index}]")
    class_id = _field(obj, "class_id", f"classes[{index}]", _integer)
    where = f"class {class_id}"
    return ClassSpec(
        class_id=class_id,
        arrival=_arrival_from_json(_field(obj, "arrival", where, dict), f"{where} arrival"),
        size=_size_from_json(_field(obj, "size", where, dict), f"{where} size"),
        service_rate_bps=bps_from_mbps(_field(obj, "service_rate_mbps", where)),
    )


def _config_from_json(path: str, fallback_seed: int) -> CaseConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise InvalidSpecError(f"{path}: malformed JSON: {exc}") from None
    _check_keys(data, _CONFIG_KEYS, "config")
    classes = _field(data, "classes", "config", _array)
    tau_max_ms = _field(data, "tau_max_ms", "config", float, None)
    return CaseConfig(
        case_id=_field(data, "case_id", "config", _case_id, "custom"),
        specs=tuple(_class_from_json(c, i) for i, c in enumerate(classes)),
        customers=_field(data, "customers", "config", _integer, CaseConfig.customers),
        seed=_field(data, "seed", "config", _integer, fallback_seed),
        tau_max_s=CaseConfig.tau_max_s if tau_max_ms is None else seconds_from_ms(tau_max_ms),
        grid_points=_field(data, "grid_points", "config", _integer, CaseConfig.grid_points),
        warmup_fraction=_field(
            data, "warmup_fraction", "config", float, CaseConfig.warmup_fraction
        ),
        bounds=tuple(_field(data, "bounds", "config", _array, [])),
        replications=_field(data, "replications", "config", _integer, 1),
    )


def _resolve_config(args) -> CaseConfig:
    """Seed priority: --seed, then a config-file seed, then MCFIFO_SEED."""
    if (args.case is None) == (args.config is None):
        raise InvalidInputError("provide exactly one of --case or --config")
    env_seed = os.environ.get(SEED_ENV_VAR)
    try:
        fallback_seed = int(env_seed) if env_seed else DEFAULT_SEED
    except ValueError:
        raise InvalidInputError(
            f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
        ) from None
    if args.case is not None:
        config = preset(args.case)
        if env_seed:
            config = replace(config, seed=fallback_seed)
    else:
        config = _config_from_json(args.config, fallback_seed)
    overrides = {
        field: getattr(args, flag)
        for flag, field in _OVERRIDES
        if getattr(args, flag) is not None
    }
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
    write_curves_csv(out / "curves.csv", comparison.curves)
    summary = comparison.summary_dict()
    summary["seed"] = config.seed
    write_json(out / "summary.json", summary)

    hard_failures = comparison.guaranteed_violations
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
    for case_id, config in PRESETS.items():
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
        p.add_argument("--case", type=int, choices=sorted(PRESETS), default=None)
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
    except (InvalidInputError, InvalidSpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
