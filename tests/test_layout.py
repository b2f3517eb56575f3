"""`src/chartlm` holds only what the command line, perfbench and `scripts/`
run: every module is imported by one of them, directly or through other
chartlm modules, and no module imports the test references that live in
`tests/` (`oracle.py`, `composites.py`). Every fused op, a method outside
`autodiff` that records a tape node itself, has its composite there."""

import ast
from pathlib import Path

import composites

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chartlm"
TEST_REFERENCES = {"oracle", "composites"}


def _module(path: Path) -> str:
    return "chartlm" if path.stem == "__init__" else f"chartlm.{path.stem}"


def _imports(path: Path) -> set[str]:
    """Every dotted name `path` imports, and each imported name under its
    module (`from . import nn` gives `chartlm.nn`); a relative import can
    only be one within the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(part for part in ("chartlm" if node.level else "", node.module)
                              if part)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


MODULES = {_module(path): path for path in PACKAGE.glob("*.py")}


def test_every_package_module_is_run_by_the_cli_perfbench_or_a_script():
    entry_points = [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    todo = ["chartlm.cli"] + [name for path in entry_points for name in _imports(path)]
    reached = set()
    while todo:
        name = todo.pop()
        if name in MODULES and name not in reached:
            reached |= {name, "chartlm"}  # importing a submodule runs the package's __init__
            todo += _imports(MODULES[name])
    assert sorted(set(MODULES) - reached) == []


def test_no_package_module_imports_a_test_reference():
    offenders = {module: sorted(name for name in _imports(path)
                                if TEST_REFERENCES & set(name.split(".")))
                 for module, path in MODULES.items()}
    assert {module: names for module, names in offenders.items() if names} == {}


def _records_a_node(function: ast.AST) -> bool:
    return any(isinstance(node, ast.Call)
               and (getattr(node.func, "attr", None) == "_node"
                    or getattr(node.func, "id", None) == "_node")
               for node in ast.walk(function))


def test_every_fused_op_has_its_composite():
    fused = set()
    for module, path in MODULES.items():
        if module == "chartlm.autodiff":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner in [tree, *(node for node in tree.body if isinstance(node, ast.ClassDef))]:
            fused |= {(getattr(owner, "name", None), node.name) for node in owner.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and _records_a_node(node)}
    assert fused == {(owner.__name__, attr) for owner, attr, _ in composites.FUSED}
