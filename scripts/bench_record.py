"""Run the benchmark for one workload and seed, and append the run to
BENCH_<workload>.json at the repository root.

Usage (from any directory):

    python3 scripts/bench_record.py --workload bound_sweep --seed 7 --label change
    python3 scripts/bench_record.py --workload bound_sweep --seed 7 --label parent \\
        --tree ../mcfifo-parent

The file holds JSON lines, two per run: the run's {"context": ...} line from
perfbench/run.py, with the label added, and its result line {"correct",
"attempted", "failed", "metrics"}. --tree is the checkout whose
perfbench/run.py and sources run (default: this one), so a parent commit and
a change can be recorded in one file; --label names the side of such a pair.
A run that exits non-zero or prints no result appends nothing. The run
length is perfbench/run.py's own default, so every recorded run, parent or
change, has the same one.

Each run works in a fresh copy of --tree, file for file, in a new temporary
directory, without .git, __pycache__, .perfbench_run and BENCH_*.json, and
the copy is deleted afterwards. So both sides of a pair sit at paths of one
shape and compile every module from source: set-up time and the cli
workload's times depend on the tree's directory and on a stale compiled
cache, not only on the code.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: What a tree's copy leaves out: history, compiled modules and earlier runs.
LEFT_OUT = (".git", "__pycache__", ".perfbench_run", "BENCH_*.json")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("long_run", "replications", "cli", "bound_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--label", required=True, help="e.g. parent or change")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tree", type=Path, default=ROOT)
    return parser.parse_args(argv)


def run_lines(args: argparse.Namespace) -> tuple[dict, dict]:
    """The context and result objects of one benchmark run, in a fresh copy of args.tree."""
    with tempfile.TemporaryDirectory(prefix="mcfifo-bench-") as work:
        tree = Path(work) / "tree"
        shutil.copytree(args.tree.resolve(), tree, ignore=shutil.ignore_patterns(*LEFT_OUT))
        line = [sys.executable, str(tree / "perfbench" / "run.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--trace", str(args.trace)]
        proc = subprocess.run(line, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    objects = [json.loads(text) for text in proc.stdout.splitlines() if text.startswith("{")]
    context = next((o["context"] for o in objects if "context" in o), None)
    if context is None or not objects or "metrics" not in objects[-1]:
        sys.exit(f"error: no result in the benchmark output: {proc.stdout[-2000:]}")
    return {**context, "label": args.label}, objects[-1]


def main(argv=None) -> int:
    args = parse_args(argv)
    context, result = run_lines(args)
    path = ROOT / f"BENCH_{args.workload}.json"
    with open(path, "a") as fh:
        fh.write(json.dumps({"context": context}) + "\n")
        fh.write(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
