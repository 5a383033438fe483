"""The package's module layering, read from the source with ast.

Each module imports only the layers below it: quat, then qmat, then bundle
and kernel, then frames, then cli, with the package entry points on top.
Imports sit at module level, so a function that imports a sibling (a
deferred import hiding a cycle) fails here, and every name imported at
module level is used in its module (`__init__` re-exports, so it is exempt).
The library is what a command runs: every module-level definition is
reached from `cli.main`, or waits on the ROADMAP item named for it in
UNREACHED.
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


# -- reachability from cli.main -----------------------------------------------------

# The definitions no command reaches yet, each with the ROADMAP item that
# calls or removes it.  An entry that becomes reachable, or is deleted,
# fails test_unreached_list_is_current, so the list only shrinks.
UNREACHED = {
    # pinned by perfbench/ until the benchmark is reworked
    ("bundle", "FiberNormalization"): "item 5",
    ("bundle", "in_ad_h_p"): "item 5",
    ("bundle", "normalize_fiber"): "item 5",
    ("frames", "_ratio"): "item 5",
    ("frames", "build_frame"): "item 5",
    ("frames", "verify_frame"): "item 5",
    ("quat", "NotRepresentable"): "item 5",
    # wait for the growth vector downstairs
    ("bundle", "e_action"): "item 3",
    ("bundle", "project_s4_gm"): "item 3",
}


def _definitions(tree: ast.Module):
    """name -> node of every def, class and assigned name at module level."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return out


def _sibling_bindings(tree: ast.Module):
    """(name -> (module, name) for `from .x import y`, name -> module for
    `from . import x`) at module level."""
    names, modules = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    names[alias.asname or alias.name] = (node.module, alias.name)
                else:
                    modules[alias.asname or alias.name] = alias.name
    return names, modules


def _reached(trees):
    """The (module, name) definitions reached from cli.main, name by name:
    a name in a reached definition (body, defaults, decorators, annotations;
    for a class, all its methods) reaches the definition it resolves to, in
    its own module or through `from .x import y`, and `x.attr` on a sibling
    module x reaches x's attr."""
    defs = {m: _definitions(t) for m, t in trees.items()}
    bindings = {m: _sibling_bindings(t) for m, t in trees.items()}

    def resolve(module, name):
        while name not in defs[module]:
            if name not in bindings[module][0]:
                return None
            module, name = bindings[module][0][name]
        return module, name

    seen = set()
    stack = [("cli", "main")]
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        modules = bindings[module][1]
        for node in ast.walk(defs[module][name]):
            target = None
            if isinstance(node, ast.Name):
                target = resolve(module, node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    target = resolve(modules[node.value.id], node.attr)
            if target is not None:
                stack.append(target)
    return seen


def _unreached():
    trees = _modules()
    reached = _reached(trees)
    return {
        (module, name)
        for module, tree in trees.items()
        if module != "__init__"
        for name in _definitions(tree)
        if (module, name) not in reached
    }


def test_every_definition_is_reached_or_waits_on_an_item():
    missing = sorted(_unreached() - set(UNREACHED))
    assert not missing, (
        f"no command reaches {missing}: call it from a command, move it to tests/, "
        "or name the ROADMAP item that will call it in UNREACHED"
    )


def test_unreached_list_is_current():
    stale = sorted(set(UNREACHED) - _unreached())
    assert not stale, f"UNREACHED lists {stale}, which a command reaches or which is gone"
