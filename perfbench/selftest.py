"""Fast self-test of the benchmark (about a minute on two cores).

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and asserts that the
last line names every metric of BENCHMARK.json with its unit. Then feeds a
run with corrupted waits to the long_run oracle check, which must fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_appears_with_its_unit() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_tiny(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in listed}, (workload, trace, units)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name)
            print(f"ok  {workload} trace={trace}: {len(units)} metrics")


def test_corrupted_waits_fail_the_oracle_check() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from mcfifo import experiments
    from workloads import check_against_oracles

    config = replace(experiments.preset(3), customers=5_000)
    result = experiments.simulate_case(config)
    problems, err = check_against_oracles("case3", config, result, check_waits=True)
    assert problems == [] and err <= 1e-9, problems

    waits = result.waiting_s.copy()
    waits[len(waits) // 2] += 1e-6
    corrupted = replace(result, waiting_s=waits)
    problems, err = check_against_oracles("case3", config, corrupted, check_waits=True)
    assert problems and err > 0.5e-6, problems
    print(f"ok  corrupted waits rejected: {problems}")


if __name__ == "__main__":
    test_corrupted_waits_fail_the_oracle_check()
    test_every_metric_appears_with_its_unit()
    print("selftest passed")
