import importlib.util
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

