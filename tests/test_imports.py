"""The package's own imports: acyclic, and all of them at module level."""

import ast
import graphlib
from pathlib import Path

import indcert

PACKAGE = Path(indcert.__file__).parent
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _targets(node):
    """The package modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            return [parts[1]] if parts[0] == "indcert" and len(parts) > 1 else []
        if node.level == 1 and node.module:
            return [node.module.split(".")[0]]
        if node.level == 1:
            return [a.name for a in node.names if a.name in MODULES]
        return []
    return [a.name.split(".")[1] for a in node.names if a.name.startswith("indcert.")]


def internal_imports(path):
    """(module, inside a function) for each package module the file imports.
    `if TYPE_CHECKING:` blocks never run, so their imports are left out."""
    out = []
    stack = [(ast.parse(path.read_text(encoding="utf-8")), False)]
    while stack:
        node, in_function = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend((child, in_function) for child in node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((target, in_function) for target in _targets(node))
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))
    return out


def test_the_package_import_graph_is_acyclic():
    graph = {name: {t for t, _ in internal_imports(path)} for name, path in MODULES.items()}
    assert "homology" in graph["moves"]
    assert graph["homology"] == {"euler", "graphs"}
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError


def test_no_package_module_is_imported_inside_a_function():
    deferred = [
        (name, target)
        for name, path in MODULES.items()
        for target, in_function in internal_imports(path)
        if in_function
    ]
    assert deferred == []
