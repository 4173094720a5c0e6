import argparse
import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

#: A perfbench/run.py that reports where it ran and the files beside it.
_STUB = """
import json, os
from pathlib import Path
root = Path(__file__).resolve().parent.parent
files = sorted(str(p.relative_to(root)) for p in root.rglob("*"))
print(json.dumps({"context": {"cwd": os.getcwd(), "root": str(root), "files": files}}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}}))
"""


def test_a_run_works_in_a_fresh_copy_of_the_tree(tmp_path):
    tree = tmp_path / "tree"
    files = {
        "perfbench/run.py": _STUB,
        "src/mcfifo/__init__.py": "",
        "src/mcfifo/__pycache__/__init__.cpython-311.pyc": "stale",
        ".git/HEAD": "ref: refs/heads/main\n",
        ".perfbench_run/out.json": "{}",
        "BENCH_cli.json": "{}\n",
    }
    for name, text in files.items():
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text(text)
    args = argparse.Namespace(workload="cli", seed=1, trace=0, label="change", tree=tree)
    context, result = bench_record.run_lines(args)
    assert result["correct"] is True
    assert context["label"] == "change"
    copy = Path(context["root"])
    assert context["cwd"] == str(copy) != str(tree.resolve())
    # only the sources came along, and the copy is gone after the run
    assert context["files"] == ["perfbench", "perfbench/run.py", "src", "src/mcfifo",
                                "src/mcfifo/__init__.py"]
    assert not copy.exists()
    # the tree itself is left as it was
    assert json.loads((tree / ".perfbench_run/out.json").read_text()) == {}
    assert (tree / "src/mcfifo/__pycache__").is_dir()
