"""Run a fixed list of mcfifo commands under this checkout and under another,
and report each command whose exit code, stdout, stderr or output files
differ byte for byte. A JSON output that differs is followed by the
top-level keys whose values differ, and inside "values" by the nested ones,
as values.<key>.

Usage (from any directory):

    python3 scripts/output_diff.py --tree ../mcfifo-parent

Each side runs the CLI in a temporary directory of its own, with
PYTHONPATH=<tree>/src and MCFIFO_SEED unset. Both directories hold the same
config files (the README's example, and bad configs and valid couplings
built from it) and take the same relative --out paths, so every
difference comes from the code. One line per command; the exit status is 1
if any command differs.

Each line also gives the command's peak RSS in MB on each side, this
checkout's first, from os.wait4 of the CLI process itself. A harness that
forks its commands cannot read below its own RSS, since a forked child's
ru_maxrss counts the parent's pages at the fork; this script imports no
numpy, so its children read their own peak.
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
import threading
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CASES = [str(k) for k in range(1, 7)]
COMMANDS = (
    [["preset-list"], ["--help"]]
    + [[name, "--help"] for name in ("bounds", "simulate", "compare", "preset-list")]
    + [["bounds", "--case", k] for k in CASES]
    + [["simulate", "--case", "4", "--customers", "40000", "--format", "json"]]
    # the class columns of records.csv for a coupled case
    + [["simulate", "--case", "5", "--customers", "40000"]]
    + [["compare", "--case", k, "--customers", "200000"] for k in CASES]
    # transient curves: Poisson classes, the ragged rows of a synchronized
    # coupling, and periodic classes mixed with Poisson ones
    + [["compare", "--case", k, "--customers", "200000", "--replications", "2000"]
       for k in ("3", "5", "6")]
    # full-size runs that exit 3: their stdout and summary.json report the
    # flagged guaranteed points (146 and 650 at 1M customers)
    + [["compare", "--case", k, "--seed", "2"] for k in ("3", "4")]
    # the grid ends at case 1's or case 2's D/D/1 bound, which the run attains
    # up to rounding
    + [["compare", "--case", "1", "--tau-max", "1.4e-4", "--customers", "20000"]]
    + [["compare", "--case", "2", "--tau-max", "1.8e-4", "--customers", "20000"]]
    # a D/D/1 run whose window, warmup and horizon boundaries all fall
    # inside a window of the comparison's scan
    + [["compare", "--case", "2", "--customers", "70001", "--warmup", "0.5"]]
    # the edges of the windowed run: a warmup prefix of most of the run, none
    # at all, a ragged last window, and the windows simulate collects
    + [["compare", "--case", "5", "--warmup", "0.9"]]
    + [["compare", "--case", "4", "--warmup", "0"]]
    + [["compare", "--case", "6", "--customers", "3000001", "--seed", k] for k in ("1", "2")]
    + [["simulate", "--case", k, "--customers", "200001", "--format", "json"]
       for k in ("1", "2", "3", "5", "6")]
    # records.csv written a window at a time at full size, and a run that
    # fails once its rows are written, which must leave no records.csv
    + [["simulate", "--case", "3", "--customers", "1000000"]]
    + [["simulate", "--case", "5", "--customers", "3", "--seed", "3"]]
    # ccdf.csv counted from the windows simulate collects: a warmup prefix of
    # most of the run, and none at all
    + [["simulate", "--case", "4", "--customers", "70001", "--warmup", "0.9"]]
    + [["simulate", "--case", "6", "--customers", "70001", "--warmup", "0"]]
    # flags of fields the command does not read, which it rejects
    + [["bounds", "--case", "3", "--seed", "7"]]
    + [["simulate", "--case", "4", "--customers", "2000", "--replications", "5"]]
    # case 3's service times of 80 and 100 us are whole steps (4 and 5) of
    # this grid's 20 us step, so its delay curves shift onto grid points
    + [["bounds", "--case", "3", "--grid-points", "301"]]
    + [["compare", "--case", "3", "--grid-points", "301", "--customers", "200000"]]
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
    # md1 at load 1.12 + 0.1 = 1.22: class 1 at 28,000 arrivals/s, class 2 of constant sizes
    "overloaded": lambda c: c.update(
        classes=[
            {**c["classes"][0], "arrival": {"kind": "poisson", "rate_per_s": 28000}},
            {**c["classes"][1], "size": {"kind": "constant", "packet_bytes": 1250}},
        ],
        bounds=["md1"],
    ),
    # the example's mixed_pair bound on two Poisson classes
    "mixed_pair_poisson": lambda c: c["classes"][0].update(
        arrival={"kind": "poisson", "rate_per_s": 10000}
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
    # ids and the rates and times a class implies, which ClassSpec checks
    "class_id_negative": lambda c: c["classes"][1].update(class_id=-1),
    # one past the largest id of records.csv's int64 class column
    "class_id_huge": lambda c: c["classes"][1].update(class_id=2**63),
    "coupling_group_negative": lambda c: c.update(
        classes=[
            {**cls, "arrival": {"kind": "coupled_poisson", "rate_per_s": rate,
                                "coupling_group": -4}}
            for cls, rate in zip(c["classes"], (10000, 1000))
        ],
        bounds=[],
    ),
    # 1/period overflows to an infinite rate
    "period_underflow": lambda c: c["classes"][0]["arrival"].update(period_ms=1e-320),
    # size/rate underflows to a service time of 0
    "service_time_underflow": lambda c: c["classes"][1].update(
        size={"kind": "exponential", "mean_packet_bytes": 1e-300}, service_rate_mbps=1e300
    ),
}
COMMANDS += [["bounds", "--config", f"configs/{name}.json"] for name in BAD_CONFIGS]
# the ClassSpec checks reach every command: simulate and compare must reject
# these configs as bounds does, not fail in the draw or the bounds
COMMANDS += [
    [command, "--config", f"configs/{name}.json", "--customers", "20000"]
    for name in ("class_id_negative", "class_id_huge", "coupling_group_negative",
                 "period_underflow", "service_time_underflow")
    for command in ("simulate", "compare")
]


def _scaled(config: dict) -> None:
    """coupling_mixed with both classes scaled: a valid coupling, under
    which md1 is informational."""
    BAD_CONFIGS["coupling_mixed"](config)
    config["classes"][1]["arrival"]["mechanism"] = "scaled"


def _sync_master_last(config: dict) -> None:
    """Case 5's synchronized pair with the ids swapped, so the master (the
    faster class) has the higher id: class 1 the example's class 2 with
    constant sizes, class 2 of 100 B at 10,000/s and 10 Mbps."""
    first, second = config["classes"]
    group = {"kind": "coupled_poisson", "coupling_group": 1, "mechanism": "synchronized"}
    config.update(
        classes=[
            {**second, "class_id": 1, "arrival": {**group, "rate_per_s": 1000},
             "size": {"kind": "constant", "packet_bytes": 1250}},
            {**first, "class_id": 2, "arrival": {**group, "rate_per_s": 10000},
             "service_rate_mbps": 10},
        ],
        bounds=["md1", "split_constant"],
    )


def _case4_coupled(mechanism: str, config: dict) -> None:
    """Case 4's classes in one coupling group of this mechanism, under mm1:
    100 B and 1250 B mean sizes at 10,000 and 1,000 arrivals/s, served at 10
    and 100 Mbps."""
    first, second = config["classes"]
    group = {"kind": "coupled_poisson", "coupling_group": 1, "mechanism": mechanism}
    config.update(
        classes=[
            {**first, "arrival": {**group, "rate_per_s": 10000},
             "size": {"kind": "exponential", "mean_packet_bytes": 100}, "service_rate_mbps": 10},
            {**second, "arrival": {**group, "rate_per_s": 1000}},
        ],
        tau_max_ms=12,
        bounds=["mm1"],
    )


#: Edits of the README example that give valid configs.
GOOD_CONFIGS = {"scaled": _scaled, "sync_master_last": _sync_master_last}
#: Case 4 coupled each way, where mm1's curves are informational.
MM1_CONFIGS = {f"mm1_{m}": partial(_case4_coupled, m) for m in ("scaled", "synchronized")}
# a scaled coupling group, and a synchronized one whose thinned class's block
# comes before its master's, drawn by the long run and by the replications
COMMANDS += [
    command
    for name in GOOD_CONFIGS
    for command in (
        ["simulate", "--config", f"configs/{name}.json", "--customers", "40000"],
        ["compare", "--config", f"configs/{name}.json", "--customers", "200000",
         "--replications", "2000"],
    )
]
# the synchronized pair with its master at the higher id, and a warmup
# prefix of most of the run: the long run cuts its warmup labels and its
# prefix as their bounds fall
COMMANDS += [["compare", "--config", "configs/sync_master_last.json", "--customers", "200000",
              "--warmup", "0.9"]]
COMMANDS += [
    command
    for name in MM1_CONFIGS
    for command in (
        ["bounds", "--config", f"configs/{name}.json"],
        ["compare", "--config", f"configs/{name}.json", "--customers", "200000"],
    )
]
# the bad configs whose bound cannot be built, which compare must reject as bounds does
COMMANDS += [
    ["compare", "--config", f"configs/{name}.json"]
    for name in ("mixed_sizes", "overloaded", "mixed_pair_poisson")
]


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
    for name, edit in {**BAD_CONFIGS, **GOOD_CONFIGS, **MM1_CONFIGS}.items():
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


def moved_keys(a: Path, b: Path) -> list[str]:
    """The top-level keys of two JSON files whose values differ, a key that
    one file lacks included, with "values" replaced by the keys that differ
    inside it, as values.<key>. Empty unless both files hold JSON objects."""
    try:
        docs = [json.loads(path.read_text()) for path in (a, b)]
    except (OSError, ValueError):
        return []
    if not all(isinstance(doc, dict) for doc in docs):
        return []
    keys = _differing(*docs)
    if "values" in keys and all(isinstance(doc.get("values"), dict) for doc in docs):
        at = keys.index("values")
        keys[at : at + 1] = [f"values.{key}" for key in _differing(*(d["values"] for d in docs))]
    return keys


def _differing(x: dict, y: dict) -> list[str]:
    """The keys of two objects whose values differ as JSON, or that one lacks."""
    return [key for key in sorted(x.keys() | y.keys())
            if key not in x or key not in y
            or json.dumps(x[key], sort_keys=True) != json.dumps(y[key], sort_keys=True)]


def run(tree: Path, work: Path, argv: list[str]) -> tuple[int, bytes, bytes, float]:
    """The exit code, stdout and stderr of one CLI command, and its peak RSS in MB."""
    env = {k: v for k, v in os.environ.items() if k != "MCFIFO_SEED"}
    env["PYTHONPATH"] = str(tree / "src")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "mcfifo.cli", *argv], cwd=work, env=env, stdout=out, stderr=err
        )
        timer = threading.Timer(600, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0


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
            for path in diff_trees(*outs):
                keys = moved_keys(*(out / path for out in outs)) if path.endswith(".json") else []
                problems.append(f"{path} ({', '.join(keys)})" if keys else path)
            for out in outs:
                shutil.rmtree(out, ignore_errors=True)
            line = " ".join(command)
            rss = "{:7.1f} {:7.1f} MB".format(*(result[-1] for result in results))
            print(f"DIFF {rss} {line}: {', '.join(problems)}" if problems
                  else f"same {rss} {line}")
            differing += bool(problems)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
