"""Command-line frontend.

Commands: bounds (analytical values and curves, no simulation), simulate
(records and empirical CCDFs), compare (bounds versus simulation with a
violation report), preset-list. Cases come from the built-in presets or a
JSON config file, which this module opens and parses, rejecting a key given
twice; CaseConfig.from_dict reads the parsed config into seconds and bits.

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
    PRESETS,
    CaseConfig,
    preset,
    run_comparison,
    simulate,
    write_curves_csv,
    write_json,
)
from .traffic import Constant, CoupledPoisson, Periodic

SEED_ENV_VAR = "MCFIFO_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3


#: Command-line flags that override a CaseConfig field: the argparse name (the
#: flag is "--" + name, "_" written "-"), the CaseConfig field, type, help,
#: and the commands that read the field and so take the flag.
_OVERRIDES = (
    ("customers", "customers", int, None, ("simulate", "compare")),
    ("replications", "replications", int, None, ("compare",)),
    ("seed", "seed", int, None, ("simulate", "compare")),
    ("tau_max", "tau_max_s", float, "grid end (seconds)", ("bounds", "simulate", "compare")),
    ("grid_points", "grid_points", int, None, ("bounds", "simulate", "compare")),
    ("warmup", "warmup_fraction", float, "discard fraction", ("simulate", "compare")),
)


def _load_json(path: str):
    """The JSON value in the file at path; a key given twice in one object is
    an error, where json.load would keep the last value."""

    def unique(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InvalidSpecError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=unique)
        except InvalidSpecError:
            raise
        except ValueError as exc:
            raise InvalidSpecError(f"{path}: malformed JSON: {exc}") from None


def _resolve_config(args) -> CaseConfig:
    """Seed priority: --seed, then a config-file seed, then MCFIFO_SEED."""
    if (args.case is None) == (args.config is None):
        raise InvalidInputError("provide exactly one of --case or --config")
    env_seed = os.environ.get(SEED_ENV_VAR)
    try:
        fallback_seed = int(env_seed) if env_seed else None
    except ValueError:
        raise InvalidInputError(
            f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
        ) from None
    if args.case is not None:
        config, file_seed = preset(args.case), False
    else:
        data = _load_json(args.config)
        config, file_seed = CaseConfig.from_dict(data), "seed" in data
    if fallback_seed is not None and not file_seed:
        config = replace(config, seed=fallback_seed)
    overrides = {
        field: getattr(args, flag)
        for flag, field, *_ in _OVERRIDES
        if getattr(args, flag, None) is not None
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
    entries, values = simulate(config, out / "records.csv")
    write_curves_csv(out / "ccdf.csv", [e for e in entries if e.class_id is not None])

    summary = {"case_id": config.case_id, **values, "seed": config.seed}
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
    if "delays_above_dd1" in comparison.values:
        print("det_multiclass vs every delay: {delays_above_dd1} above the bound, largest "
              "{max_delay_s!r} s [guaranteed]".format(**comparison.values))
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
        for flag, _, kind, text, commands in _OVERRIDES:
            if name in commands:
                p.add_argument("--" + flag.replace("_", "-"), type=kind, default=None, help=text)
        p.add_argument("--out", type=str, default=".")
        if name != "compare":  # compare writes both curves.csv and summary.json
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
