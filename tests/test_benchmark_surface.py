"""The benchmark harness under perfbench/ calls mcfifo through its modules
and is never edited with the package, so a name it reads must not move
away. This reads the harness and edits nothing."""

import ast
import importlib
import inspect
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


def _traced_names() -> dict[str, tuple[str, ...]]:
    """The `by_name` table of Tracer.install: each name the tracer looks up
    by string, with the modules whose globals it patches."""
    tree = ast.parse((HARNESS / "spans.py").read_text())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["by_name"]
            and isinstance(node.value, ast.Dict)
        ):
            return {
                ast.literal_eval(key): tuple(ast.literal_eval(value.elts[-1]))
                for key, value in zip(node.value.keys, node.value.values)
            }
    raise AssertionError("no by_name dict literal in perfbench/spans.py")


#: Names the tracer looks up where no module has them any more, so their
#: metrics read 0: the long run draws its arrivals a window at a time
#: through ArrivalStreams, and neither experiments nor simulator calls
#: generate_sequences (README, "the frozen harness").
NOT_LOOKED_UP = {"generate_sequences"}


def test_every_name_the_tracer_looks_up_exists():
    # a name no listed module has is skipped by the tracer, and its metrics read 0
    missing = [
        name
        for name, modules in sorted(_traced_names().items())
        if not any(hasattr(importlib.import_module(f"mcfifo.{m}"), name) for m in modules)
    ]
    assert set(missing) == NOT_LOOKED_UP
    assert hasattr(importlib.import_module("mcfifo.traffic"), "generate_sequences")
    assert hasattr(importlib.import_module("mcfifo.analytic"), "theta_exact")
    assert hasattr(importlib.import_module("mcfifo.simulator").RunResult, "write_csv")


def _fine_point_keys() -> set[str]:
    """The `arguments[...]` keys, and the keys tested with `in arguments`,
    of perfbench/spans.py::_fine_points, which reads the bound arguments
    of the two convolutions."""
    tree = ast.parse((HARNESS / "spans.py").read_text())
    function = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_fine_points"
    )
    keys = set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "arguments"
        ):
            keys.add(ast.literal_eval(node.slice))
        elif (
            isinstance(node, ast.Compare)
            and isinstance(node.ops[0], ast.In)
            and isinstance(node.comparators[0], ast.Name)
            and node.comparators[0].id == "arguments"
        ):
            keys.add(ast.literal_eval(node.left))
    return keys


def test_every_argument_the_tracer_reads_is_a_convolution_parameter():
    # the tracer binds the call's arguments by name, so a renamed parameter
    # makes a traced run fail with a KeyError
    analytic = importlib.import_module("mcfifo.analytic")
    parameters = {
        name
        for function in (analytic.gsbb_bound_convolution, analytic.delay_bound_convolve)
        for name in inspect.signature(function).parameters
    }
    keys = _fine_point_keys()
    assert {"grid_s", "refine"} <= keys
    assert sorted(keys - parameters) == []
