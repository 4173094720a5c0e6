"""The benchmark harness under perfbench/ calls mcfifo through its modules
and is never edited with the package, so a name it reads must not move
away. This reads the harness and edits nothing."""

import ast
import importlib
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("analytic", "experiments", "oracle", "simulator", "traffic")


def _module_reads() -> set[tuple[str, str]]:
    """Every `<module>.<name>` the harness reads, for the modules above."""
    reads = set()
    for path in sorted(HARNESS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULES
            ):
                reads.add((node.value.id, node.attr))
    return reads


def test_every_module_name_the_benchmark_reads_exists():
    reads = _module_reads()
    assert {module for module, _ in reads} == set(MODULES)
    missing = [
        f"{module}.{name}"
        for module, name in sorted(reads)
        if not hasattr(importlib.import_module(f"mcfifo.{module}"), name)
    ]
    assert missing == []
