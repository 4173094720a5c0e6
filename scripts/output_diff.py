"""Run a fixed list of mcfifo commands under this checkout and under another,
and report each command whose exit code, stdout, stderr or output files
differ byte for byte.

Usage (from any directory):

    python3 scripts/output_diff.py --tree ../mcfifo-parent

Each side runs the CLI in a temporary directory of its own, with
PYTHONPATH=<tree>/src and MCFIFO_SEED unset. Both directories hold the same
config files (the README's example and bad configs built from it) and take
the same relative --out paths, so every difference comes from the code. One
line per command; the exit status is 1 if any command differs.
"""

from __future__ import annotations

import argparse
import copy
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CASES = [str(k) for k in range(1, 7)]
COMMANDS = (
    [["preset-list"], ["--help"]]
    + [[name, "--help"] for name in ("bounds", "simulate", "compare", "preset-list")]
    + [["bounds", "--case", k] for k in CASES]
    + [["simulate", "--case", "4", "--customers", "40000", "--format", "json"]]
    + [["compare", "--case", k, "--customers", "200000"] for k in CASES]
    + [["compare", "--case", "3", "--customers", "200000", "--replications", "2000"]]
    # the grid ends at case 2's D/D/1 bound, which the run attains up to rounding
    + [["compare", "--case", "2", "--tau-max", "1.8e-4", "--customers", "20000"]]
    + [[name, "--config", "configs/readme.json"] for name in ("bounds", "simulate", "compare")]
)

#: Edits of the README example that the CLI must reject as configuration
#: errors. An edit that returns a string is the file's text.
BAD_CONFIGS = {
    "rate_true": lambda c: c["classes"][1]["arrival"].update(rate_per_s=True),
    "service_rate_true": lambda c: c["classes"][1].update(service_rate_mbps=True),
    "packet_bytes_string": lambda c: c["classes"][0]["size"].update(packet_bytes="100"),
    "tau_max_string": lambda c: c.update(tau_max_ms="5"),
    "warmup_false": lambda c: c.update(warmup_fraction=False),
    "arrival_pairs": lambda c: c["classes"][1].update(
        arrival=[["kind", "poisson"], ["rate_per_s", 1000]]
    ),
    "mechanism_number": lambda c: c["classes"][1].update(
        arrival={"kind": "coupled_poisson", "rate_per_s": 1000, "coupling_group": 1,
                 "mechanism": 5}
    ),
    "duplicate_key": lambda c: '{"customers": 5, ' + json.dumps(c)[1:],
    # Poisson classes of constant and exponential sizes, which md1 does not take
    "mixed_sizes": lambda c: c.update(
        classes=[
            {**c["classes"][0], "arrival": {"kind": "poisson", "rate_per_s": 10000}},
            c["classes"][1],
        ],
        bounds=["md1"],
    ),
    # a coupling group of one class, and a group that mixes mechanisms
    "coupling_single": lambda c: c["classes"][1].update(
        arrival={"kind": "coupled_poisson", "rate_per_s": 1000, "coupling_group": 1}
    ),
    "coupling_mixed": lambda c: c.update(
        classes=[
            {**c["classes"][0], "arrival": {"kind": "coupled_poisson", "rate_per_s": 10000,
                                            "coupling_group": 1, "mechanism": "scaled"}},
            {**c["classes"][1], "arrival": {"kind": "coupled_poisson", "rate_per_s": 1000,
                                            "coupling_group": 1, "mechanism": "synchronized"},
             "size": {"kind": "constant", "packet_bytes": 1250}},
        ],
        bounds=["md1"],
    ),
}
COMMANDS += [["bounds", "--config", f"configs/{name}.json"] for name in BAD_CONFIGS]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, required=True, help="checkout to compare with")
    return parser.parse_args(argv)


def readme_config() -> dict:
    """The config-file example of this checkout's README."""
    readme = (ROOT / "README.md").read_text()
    return json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])


def write_configs(directory: Path) -> None:
    directory.mkdir(parents=True)
    example = readme_config()
    (directory / "readme.json").write_text(json.dumps(example))
    for name, edit in BAD_CONFIGS.items():
        config = copy.deepcopy(example)
        text = edit(config)
        (directory / f"{name}.json").write_text(
            text if isinstance(text, str) else json.dumps(config)
        )


def diff_trees(a: Path, b: Path) -> list[str]:
    """The relative paths of files that differ between a and b or exist in one only."""
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    changed = {p for p in files[0] & files[1] if not filecmp.cmp(a / p, b / p, shallow=False)}
    return sorted(str(p) for p in (files[0] ^ files[1]) | changed)


def run(tree: Path, work: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = {k: v for k, v in os.environ.items() if k != "MCFIFO_SEED"}
    env["PYTHONPATH"] = str(tree / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "mcfifo.cli", *argv],
        cwd=work, env=env, capture_output=True, timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    trees = (ROOT, parse_args(argv).tree.resolve())
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / side for side in ("this", "tree")]
        for work in works:
            write_configs(work / "configs")
        for i, command in enumerate(COMMANDS):
            writes = command[0] != "preset-list" and "--help" not in command
            argv = command + ["--out", f"out/{i}"] if writes else command
            results = [run(tree, work, argv) for tree, work in zip(trees, works)]
            problems = [
                name for name, *pair in zip(("exit", "stdout", "stderr"), *results)
                if pair[0] != pair[1]
            ]
            outs = [work / "out" / str(i) for work in works]
            problems += diff_trees(*outs)
            for out in outs:
                shutil.rmtree(out, ignore_errors=True)
            line = " ".join(command)
            print(f"DIFF {line}: {', '.join(problems)}" if problems else f"same {line}")
            differing += bool(problems)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
