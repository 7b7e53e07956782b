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


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(source):
    """(module, name) for each private name that the source takes from a
    package module, by `from .module import _name` or as `module._name`."""
    tree = ast.parse(source)
    modules = {}            # local or dotted name -> the package module it names
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = (node.level == 1 and not node.module) or (
                node.level == 0 and node.module == "indcert"
            )
            for target in [] if package else _targets(node):
                out.extend((target, a.name) for a in node.names if _is_private(a.name))
            if package:
                modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("indcert."):
                    modules[a.asname or a.name] = a.name.split(".")[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            owner = ast.unparse(node.value)
            if owner in modules:
                out.append((modules[owner], node.attr))
    return out


def test_the_private_name_check_sees_both_forms():
    source = "from . import euler as e\nfrom .graphs import _identify\nx = e._sweep\n"
    assert sorted(private_reads(source)) == [("euler", "_sweep"), ("graphs", "_identify")]
    assert private_reads("import indcert.euler\nindcert.euler._sweep\n") == [("euler", "_sweep")]


def test_no_package_module_reads_another_modules_private_name():
    reads = {
        name: private_reads(path.read_text(encoding="utf-8"))
        for name, path in MODULES.items()
    }
    assert {name: found for name, found in reads.items() if found} == {}
