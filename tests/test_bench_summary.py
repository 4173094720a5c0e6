import importlib.util
import json
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


def _write(root: Path, runs) -> None:
    """BENCHMARK.json and BENCH_toy.json holding (label, seed, wall_s, trace) runs."""
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
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


@pytest.mark.parametrize("text,seeds", [("7", {7}), ("1,4-6", {1, 4, 5, 6})])
def test_parse_seeds(text, seeds):
    assert bench_summary.parse_seeds(text) == seeds


def test_missing_file_is_an_error(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    with pytest.raises(SystemExit, match="no BENCH_toy.json"):
        bench_summary.main(["--workload", "toy", "--root", str(tmp_path)])
