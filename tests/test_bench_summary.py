import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _write(root: Path, runs, per_layer=()) -> None:
    """BENCHMARK.json and BENCH_toy.json holding (label, seed, wall_s, trace) runs."""
    (root / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": METRICS, "per_layer": list(per_layer)})
    )
    with open(root / "BENCH_toy.json", "w") as fh:
        for label, seed, wall, trace in runs:
            fh.write(json.dumps({"context": {"seed": seed, "trace": trace, "label": label}}))
            fh.write("\n")
            if trace:
                metrics = {"simulator.run_fifo_s": {"value": wall, "unit": "s"}}
            else:
                metrics = {"wall_s": {"value": wall, "unit": "s"},
                           "work_per_s": {"value": 1.0 / wall, "unit": "1/s"}}
            fh.write(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                                 "metrics": metrics}) + "\n")


def _summary(tmp_path, capsys, *extra) -> list[str]:
    assert bench_summary.main(["--workload", "toy", "--root", str(tmp_path), *extra]) == 0
    return capsys.readouterr().out.splitlines()


def test_medians_quartiles_and_paired_wins(tmp_path, capsys):
    parent = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]
    change = [w - 0.1 for w in parent]
    change[3] = parent[3]  # a tie counts for neither side
    change[7] = parent[7] + 0.01  # one pair lost
    runs = [("change", 300 + i, c, 0) for i, c in enumerate(change)]
    runs += [("parent", 300 + i, p, 0) for i, p in enumerate(parent)]
    runs.append(("parent", 999, 5.0, 1))  # traced: no end-to-end metrics
    _write(tmp_path, runs)
    out = _summary(tmp_path, capsys)
    assert out[0] == "wall_s (s, lower is better)"
    assert out[1] == "  parent   n=10  median 1.09  quartiles 1.045 - 1.135"
    assert out[2] == "  change   n=10  median 1.01  quartiles 0.95 - 1.06"
    assert out[3] == "  change vs parent: 10 pairs, change wins 8, parent wins 1, ties 1"
    # 8 of 10 is short of nine tenths, whatever the gap
    assert out[4].endswith("parent IQR 0.09: gain not shown")
    assert out[5] == "work_per_s (1/s, higher is better)"
    assert out[8] == "  change vs parent: 10 pairs, change wins 8, parent wins 1, ties 1"


def test_gain_shown_and_seed_filter(tmp_path, capsys):
    runs = [("parent", s, 1.0 + 0.01 * s, 0) for s in range(10)]
    runs += [("change", s, 0.8 + 0.01 * s, 0) for s in range(10)]
    runs += [("change", 3, 2.0, 0)]  # a later run of the same seed replaces the first
    _write(tmp_path, runs)
    out = _summary(tmp_path, capsys)
    assert out[3] == "  change vs parent: 10 pairs, change wins 9, parent wins 1, ties 0"
    assert out[4].endswith("gain shown")
    out = _summary(tmp_path, capsys, "--seeds", "0-2,9")
    assert out[1].startswith("  parent   n=4 ")
    assert out[3] == "  change vs parent: 4 pairs, change wins 4, parent wins 0, ties 0"
    assert out[4].endswith("gain shown")


def test_gap_inside_the_parent_spread_is_no_gain(tmp_path, capsys):
    runs = [("parent", s, 1.0 + 0.1 * s, 0) for s in range(10)]
    runs += [("change", s, 0.99 + 0.1 * s, 0) for s in range(10)]
    _write(tmp_path, runs)
    out = _summary(tmp_path, capsys)
    assert out[3] == "  change vs parent: 10 pairs, change wins 10, parent wins 0, ties 0"
    assert out[4].endswith("gain not shown")


@pytest.mark.parametrize(
    "spread,change,found",
    [
        (0.01, lambda s: 1.05 + 0.01 * s, "within bound"),  # 5 % worse, bound 25 %
        (0.01, lambda s: 1.5 + 0.01 * s, "beyond bound"),
        # the parent's quartiles lie further apart than the bound: a median
        # inside that spread tells nothing, whichever side it falls on
        (0.1, lambda s: 1.0 + 0.1 * s, "unresolved"),
        (0.1, lambda s: 0.95 + 0.1 * s, "unresolved"),
        # ... unless every change run beats every parent run
        (0.1, lambda s: 0.1 + 0.05 * s, "within bound"),
    ],
)
def test_regression_verdict_per_metric(tmp_path, capsys, spread, change, found):
    runs = [("parent", s, 1.0 + spread * s, 0) for s in range(10)]
    runs += [("change", s, change(s), 0) for s in range(10)]
    _write(tmp_path, runs)
    out = _summary(tmp_path, capsys)
    assert out[-3:] == [
        "regression verdicts",
        f"  wall_s change vs parent: {found} (bound 25 %)",
        f"  work_per_s change vs parent: {found} (bound 25 %)",
    ]


def test_traced_runs_give_per_layer_medians(tmp_path, capsys):
    layers = [
        {"name": "simulator.run_fifo_s", "unit": "s", "better": "lower"},
        {"name": "analytic.theta_s", "unit": "s", "better": "lower"},  # never recorded
    ]
    runs = [("parent", s, 1.0 + 0.01 * s, 0) for s in range(3)]
    runs += [("change", s, 0.9 + 0.01 * s, 0) for s in range(3)]
    runs += [("parent", s, w, 1) for s, w in [(0, 0.5), (1, 0.7), (2, 0.6)]]
    runs += [("change", s, w, 1) for s, w in [(0, 0.4), (1, 0.2), (1, 0.3)]]
    _write(tmp_path, runs, layers)
    out = _summary(tmp_path, capsys)
    assert out[0] == "wall_s (s, lower is better)"
    assert out[1].startswith("  parent   n=3 ")  # traced runs stay out of the comparison
    assert out[-4:] == [
        "per-layer metrics of traced runs",
        "  simulator.run_fifo_s (s)",
        "    parent   n=3   median 0.6",
        "    change   n=2   median 0.35",  # seed 1's later run replaces its first
    ]
    out = _summary(tmp_path, capsys, "--seeds", "0")
    assert out[-2:] == ["    parent   n=1   median 0.5", "    change   n=1   median 0.4"]


def test_traced_runs_alone_still_summarised(tmp_path, capsys):
    layer = {"name": "simulator.run_fifo_s", "unit": "s", "better": "lower"}
    _write(tmp_path, [("parent", 1, 0.5, 1)], [layer])
    assert _summary(tmp_path, capsys) == [
        "per-layer metrics of traced runs",
        "  simulator.run_fifo_s (s)",
        "    parent   n=1   median 0.5",
    ]


@pytest.mark.parametrize("text,seeds", [("7", {7}), ("1,4-6", {1, 4, 5, 6})])
def test_parse_seeds(text, seeds):
    assert bench_summary.parse_seeds(text) == seeds


def test_missing_file_is_an_error(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    with pytest.raises(SystemExit, match="no BENCH_toy.json"):
        bench_summary.main(["--workload", "toy", "--root", str(tmp_path)])


def test_a_reader_that_stops_reading_ends_the_output_quietly(tmp_path):
    # as `bench_summary.py ... | head -1` does: the pipe is closed before
    # the summary is written, so every write of it fails
    _write(tmp_path, [("parent", 1, 1.0, 0), ("change", 1, 0.9, 0)])
    proc = subprocess.Popen(
        [sys.executable, str(_PATH), "--workload", "toy", "--root", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.stderr.close()
    assert err == b""
