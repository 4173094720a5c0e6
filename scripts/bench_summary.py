"""Summarise the recorded benchmark runs of one workload, side by side.

Usage (from any directory):

    python3 scripts/bench_summary.py --workload long_run
    python3 scripts/bench_summary.py --workload long_run --seeds 301-310

Reads BENCH_<workload>.json at the repository root (the JSON lines that
scripts/bench_record.py appends: a {"context": ...} line, then the run's
result line) and groups the runs by their label and seed. A later run of the
same label and seed replaces an earlier one. Traced runs carry the per-layer
metrics instead of the end-to-end ones, so they are left out of the
comparison and summarised apart. --seeds keeps only the listed seeds, as
comma-separated numbers or a-b ranges.

For each end-to-end metric named in BENCHMARK.json it prints each label's
run count, median and quartiles, and then, for each pair of labels, the
seeds both ran, paired: how many each side wins, ties counting for neither.
With a "parent" label the pairs are read against it, and the last line says
whether the other side shows a gain: it must win at least nine tenths of
the pairs, and its median must differ from the parent's by more than the
parent's interquartile range.

The output ends with one regression verdict per end-to-end metric and side,
read against "parent" with the metric's relative bound from BENCHMARK.json:
"beyond bound" when the side's median is worse than the parent's by more
than the bound, else "unresolved" when the parent's interquartile range
exceeds the bound times its median and not every run of the side beats
every parent run, else "within bound".

When the file holds traced runs, the output closes with each per-layer
metric named in BENCHMARK.json that they recorded: per label, its median
and run count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> set[int]:
    """'1,4-6' -> {1, 4, 5, 6}."""
    seeds: set[int] = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=None,
                        help="seeds to keep, e.g. 301-310 or 1,4-6")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="directory holding BENCHMARK.json and the BENCH files")
    return parser.parse_args(argv)


def read_runs(path: Path, names: list[str], seeds: set[int] | None) -> dict:
    """{label: {seed: {metric: value}}} of the runs with every named metric."""
    runs: dict[str, dict[int, dict[str, float]]] = {}
    context = None
    with open(path) as fh:
        for line in fh:
            obj = json.loads(line)
            if "context" in obj:
                context = obj["context"]
                continue
            metrics = obj.get("metrics", {})
            if context is None or not all(name in metrics for name in names):
                continue
            if seeds is None or context["seed"] in seeds:
                values = {name: metrics[name]["value"] for name in names}
                runs.setdefault(context.get("label"), {})[context["seed"]] = values
            context = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def paired(a: dict[int, float], b: dict[int, float], lower: bool) -> tuple[int, int, int]:
    """Seeds both ran: (wins of a, wins of b, ties)."""
    common = sorted(a.keys() & b.keys())
    a_wins = sum((a[s] < b[s]) if lower else (a[s] > b[s]) for s in common)
    ties = sum(a[s] == b[s] for s in common)
    return a_wins, len(common) - a_wins - ties, ties


def verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    """Whether change's runs are worse than parent's by more than the relative bound."""
    p_q1, p_med, p_q3 = quartiles(sorted(parent))
    c_med = statistics.median(change)
    worse = (c_med - p_med if lower else p_med - c_med) / p_med
    if worse > bound:
        return "beyond bound"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if (p_q3 - p_q1) / p_med > bound and not beats_all:
        return "unresolved"
    return "within bound"


def summary(runs: dict, metrics: list[dict]) -> list[str]:
    lines, verdicts = [], []
    labels = sorted(runs, key=lambda label: (label != "parent", str(label)))
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better)")
        by_label = {label: {s: v[name] for s, v in runs[label].items()} for label in labels}
        stats = {}
        for label in labels:
            values = sorted(by_label[label].values())
            stats[label] = quartiles(values)
            q1, med, q3 = stats[label]
            lines.append(f"  {label:<8} n={len(values):<3} median {med:.6g}"
                         f"  quartiles {q1:.6g} - {q3:.6g}")
        for a, b in combinations(labels, 2):
            a_wins, b_wins, ties = paired(by_label[a], by_label[b], lower)
            pairs = a_wins + b_wins + ties
            lines.append(f"  {b} vs {a}: {pairs} pairs, {b} wins {b_wins}, "
                         f"{a} wins {a_wins}, ties {ties}")
            if a != "parent" or not pairs:
                continue
            q1, med, q3 = stats[a]
            gap = stats[b][1] - med
            better = gap < 0 if lower else gap > 0
            gain = better and b_wins >= 0.9 * pairs and abs(gap) > q3 - q1
            lines.append(f"    median gap {gap:+.6g} ({100 * gap / med:+.1f} %), parent IQR "
                         f"{q3 - q1:.6g}: gain {'shown' if gain else 'not shown'}")
            found = verdict(list(by_label[a].values()), list(by_label[b].values()), lower,
                            metric["bound"])
            verdicts.append(f"{name} {b} vs parent: {found} "
                            f"(bound {100 * metric['bound']:g} %)")
    if verdicts:
        lines.append("regression verdicts")
        lines += [f"  {line}" for line in verdicts]
    return lines


def layer_summary(path: Path, metrics: list[dict], seeds: set[int] | None) -> list[str]:
    """Median and run count per label of each per-layer metric that
    traced runs recorded; no lines when there are none."""
    lines = []
    for metric in metrics:
        runs = read_runs(path, [metric["name"]], seeds)
        if not runs:
            continue
        lines.append(f"  {metric['name']} ({metric['unit']})")
        for label in sorted(runs, key=lambda label: (label != "parent", str(label))):
            values = [v[metric["name"]] for v in runs[label].values()]
            lines.append(f"    {label:<8} n={len(values):<3} median {statistics.median(values):.6g}")
    return ["per-layer metrics of traced runs"] + lines if lines else []


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((args.root / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    path = args.root / f"BENCH_{args.workload}.json"
    if not path.exists():
        sys.exit(f"error: no {path.name} in {args.root}")
    runs = read_runs(path, [m["name"] for m in metrics], args.seeds)
    layers = layer_summary(path, benchmark.get("per_layer", []), args.seeds)
    if not runs and not layers:
        sys.exit(f"error: no runs with every end-to-end metric in {path.name}")
    try:
        print("\n".join((summary(runs, metrics) if runs else []) + layers), flush=True)
    except BrokenPipeError:
        # the reader stopped reading, as `| head -1` does: stop quietly, and
        # point stdout at devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
