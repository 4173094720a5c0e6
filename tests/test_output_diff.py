import importlib.util
import json
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "output_diff.py"
_spec = importlib.util.spec_from_file_location("output_diff", _PATH)
output_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_diff)


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_equal_trees_have_no_difference(tmp_path):
    files = {"summary.json": b'{"seed": 1}\n', "sub/curves.csv": b"curve_label,tau_s,prob\r\n"}
    a, b = _tree(tmp_path / "a", files), _tree(tmp_path / "b", files)
    assert output_diff.diff_trees(a, b) == []


def test_one_byte_is_a_difference(tmp_path):
    files = {"summary.json": b'{"seed": 1}\n', "sub/curves.csv": b"curve_label,tau_s,prob\r\n"}
    a = _tree(tmp_path / "a", files)
    b = _tree(tmp_path / "b", {**files, "sub/curves.csv": b"curve_label,tau_s,prob\n\n"})
    assert output_diff.diff_trees(a, b) == [str(Path("sub/curves.csv"))]
    (b / "extra.csv").write_bytes(b"")
    assert output_diff.diff_trees(a, b) == [str(Path("extra.csv")), str(Path("sub/curves.csv"))]


def test_a_json_output_names_the_keys_that_moved(tmp_path):
    # top-level keys whose values differ or that one side lacks, and inside
    # "values" the nested ones; equal values read as equal, and a file that
    # holds no JSON object names none
    summary = {"case_id": 4, "mean_waiting_s": 0.1, "seed": 1,
               "values": {"max_delay_s": 2.0, "theta_star_per_s": 5.0}}
    moved = {**summary, "mean_waiting_s": math.nextafter(0.1, 1.0), "extra": [],
             "values": {"max_delay_s": 2.5, "theta_star_per_s": 5.0, "added": 1}}
    files = {"a.json": summary, "b.json": moved, "c.json": [1], "d.json": summary}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert output_diff.moved_keys(tmp_path / "a.json", tmp_path / "b.json") == [
        "extra", "mean_waiting_s", "values.added", "values.max_delay_s"
    ]
    assert output_diff.moved_keys(tmp_path / "a.json", tmp_path / "d.json") == []
    assert output_diff.moved_keys(tmp_path / "a.json", tmp_path / "c.json") == []
    (tmp_path / "e.json").write_text("{")
    assert output_diff.moved_keys(tmp_path / "a.json", tmp_path / "e.json") == []
