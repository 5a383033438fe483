"""The package's module layering, read from the source with ast.

Each module imports only the layers below it: quat, then qmat, then bundle
and kernel, then frames, then cli, with the package entry points on top.
Imports sit at module level, so a function that imports a sibling (a
deferred import hiding a cycle) fails here, and every name imported at
module level is used in its module (`__init__` re-exports, so it is exempt).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sp2span"
LAYERS = {
    "quat": 0,
    "qmat": 1,
    "bundle": 2,
    "kernel": 2,
    "frames": 3,
    "cli": 4,
    "__init__": 5,
    "__main__": 5,
}


def _sibling_imports(tree: ast.AST):
    """(node, sibling module name) for every import of a package module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                yield node, node.module.split(".")[0]
            elif node.level == 1:
                for alias in node.names:
                    yield node, alias.name
            elif node.level == 0 and (node.module or "").split(".")[0] == "sp2span":
                parts = node.module.split(".")
                names = parts[1:2] or [alias.name for alias in node.names]
                for name in names:
                    yield node, name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "sp2span" and len(parts) > 1:
                    yield node, parts[1]


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def test_every_module_has_a_layer():
    assert set(_modules()) == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_no_function_imports_a_sibling(module):
    tree = _modules()[module]
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found = [name for _, name in _sibling_imports(func) if name in LAYERS]
            assert not found, f"{module}.{func.name} imports {found} in its body"


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_sibling_imports_follow_the_layers(module):
    # Every edge points down, so the import graph has no cycle.
    tree = _modules()[module]
    for node, name in _sibling_imports(tree):
        if name in LAYERS:
            assert LAYERS[name] < LAYERS[module], (
                f"{module} (layer {LAYERS[module]}) imports {name} (layer {LAYERS[name]}) "
                f"at line {node.lineno}"
            )


def _module_level_imports(tree: ast.Module):
    """(bound name, line) for every import statement at module level, apart
    from the __future__ ones."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", sorted(set(LAYERS) - {"__init__"}))
def test_module_level_imports_are_used(module):
    # __init__ is exempt: it imports to re-export.
    tree = _modules()[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(name, line) for name, line in _module_level_imports(tree) if name not in used]
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_kernel_imports_no_numpy():
    # The span rows have one set of formulas, on 4-tuples of Python ints or
    # floats; numpy in kernel would be a second, float-only set.
    imported = set()
    for node in ast.walk(_modules()["kernel"]):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "numpy" not in imported
