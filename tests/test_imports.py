"""The package's import graph: every import at module top, no cycle among
its modules, one list of public names, and no scipy at run time."""
import ast
import graphlib
import json
import types

import mixedmeans
from checkout import SRC, run_python
from mixedmeans import conditions, functionals, means, reduction, search

PACKAGE = SRC / "mixedmeans"
MODULES = {p.stem: ast.parse(p.read_text(), str(p)) for p in PACKAGE.glob("*.py")}


def _local_targets(node: ast.AST) -> set:
    """The package modules an import statement reads from; a name taken
    from the package itself counts as ``__init__``.  Imports within the
    package are relative, so an absolute one cannot hide an edge."""
    if isinstance(node, ast.ImportFrom) and node.level:
        if node.module:
            return {node.module.split(".")[0]}
        return {a.name if a.name in MODULES else "__init__" for a in node.names}
    if isinstance(node, ast.ImportFrom):
        names = [node.module]
    else:
        names = [a.name for a in node.names]
    assert all(n.split(".")[0] != "mixedmeans" for n in names), names
    return set()


def test_no_import_inside_a_function():
    found = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{name}.py:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_no_module_cycle():
    graph = {
        name: set().union(
            *(
                _local_targets(node)
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            )
        )
        for name, tree in MODULES.items()
    }
    assert graph["reduction"] >= {"search", "conditions", "means"}
    assert "reduction" not in graph["search"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError


def test_public_names_are_the_modules_all():
    public = {
        name for name, value in vars(mixedmeans).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    modules = (means, functionals, conditions, reduction, search)
    assert public == set().union(*(m.__all__ for m in modules))


_NO_SCIPY = """
import json, pathlib, sys
from mixedmeans import WeightSequence, find_stationary_d, power_mean
from mixedmeans.cli import run

tmp = pathlib.Path(sys.argv[1])
files = {"w4": [1, 1, 1, 4], "w7": [1, 1, 1, 1, 1, 1, 9], "head": [1, 1],
         "x4": [0.5, 2, 3, 7]}
for key, values in files.items():
    (tmp / f"{key}.json").write_text(
        json.dumps({("x" if key.startswith("x") else "w"): values}))
f = {key: str(tmp / f"{key}.json") for key in files}
for argv in (
    ["means", f["w4"], f["x4"], "--r", "2", "--s", "0.5"],
    ["check", f["w4"]],
    ["certify", f["w4"]],
    ["certify", f["w7"]],
    ["scan", f["head"], "--range", "3:6", "--steps", "2"],
    ["search", f["w4"], "--trials", "3"],
):
    assert run(argv) in (0, 2), argv
find_stationary_d(WeightSequence([1, 1, 10]))
power_mean([0.25, 0.75], [1.0, 3.0], 0.5)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_scipy_at_run_time(tmp_path):
    proc = run_python(
        ["-c", _NO_SCIPY, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
