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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _arguments(args: ast.arguments):
    every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return [a for a in every if a is not None]


def _body(func):
    """A function's statements, or a lambda's expression, as a list."""
    return list(func.body) if isinstance(func.body, list) else [func.body]


def _bound_names(func):
    """The names a function or lambda binds for itself: its arguments, and
    every assignment or comprehension target, `except ... as` name, def,
    class and import in its body outside nested functions and classes."""
    bound = {a.arg for a in _arguments(func.args)}
    stack = _body(func)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return bound


def _module_scope_loads(root: ast.AST):
    """The ast.Name nodes in root read where they resolve to module scope.
    A name read inside a function that binds it (an argument, an assignment
    target, ...) is the function's own, not a use of the module's name;
    decorators, defaults and annotations are read in the enclosing scope."""
    reads = []

    def visit(node, shadowed):
        if isinstance(node, _FUNCTIONS):
            outer = node.args.defaults + [d for d in node.args.kw_defaults if d]
            if not isinstance(node, ast.Lambda):
                outer += node.decorator_list + [node.returns]
                outer += [a.annotation for a in _arguments(node.args)]
            for child in outer:
                if child is not None:
                    visit(child, shadowed)
            inner = shadowed | _bound_names(node)
            for child in _body(node):
                visit(child, inner)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
            reads.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(root, frozenset())
    return reads


def _unused_imports(tree: ast.Module):
    used = {node.id for node in _module_scope_loads(tree)}
    return [(name, line) for name, line in _module_level_imports(tree) if name not in used]


@pytest.mark.parametrize("module", sorted(set(LAYERS) - {"__init__"}))
def test_module_level_imports_are_used(module):
    # __init__ is exempt: it imports to re-export.
    unused = _unused_imports(_modules()[module])
    assert not unused, f"{module} imports names it never uses: {unused}"


SHADOWED_IMPORTS = """
from .quat import one, zero, qi, qj, quat

def defect(x, one):
    return x - one

def cleared(x):
    zero = x - x
    return [zero for qi in range(3)]

def uses(x, n=qj):
    return quat(x, n)
"""


def test_a_name_a_function_binds_is_not_a_use_of_the_import():
    # A parameter (one), a local (zero) or a comprehension target (qi) of
    # the import's name is not a use of it; a default (qj) is read in the
    # module's scope.  Counting every ast.Name as a use saw all five used.
    tree = ast.parse(SHADOWED_IMPORTS)
    every_name = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {"one", "zero", "qi", "qj", "quat"} <= every_name
    assert _unused_imports(tree) == [("one", 2), ("zero", 2), ("qi", 2)]


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
    ("qmat", "scalar_mat"): "item 3",  # only e_action calls it
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
    a name read in a reached definition (body, defaults, decorators,
    annotations; for a class, all its methods) where it resolves to module
    scope, by the rules of _module_scope_loads, reaches the definition it
    resolves to, in its own module or through `from .x import y`, and
    `x.attr` on such a read of a sibling module x reaches x's attr."""
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
        definition = defs[module][name]
        reads = _module_scope_loads(definition)
        targets = [resolve(module, node.id) for node in reads]
        read_ids = {id(node) for node in reads}
        for node in ast.walk(definition):
            if isinstance(node, ast.Attribute) and id(node.value) in read_ids:
                if node.value.id in modules:
                    targets.append(resolve(modules[node.value.id], node.attr))
        stack.extend(t for t in targets if t is not None)
    return seen


SHADOWED_DEFINITIONS = """
def main(argv, fmt=formatter):
    helper = argv[0]
    return run(helper, fmt)

def run(x, check):
    return [check(x) for verdict in ()]

def formatter(): ...
def helper(): ...
def check(): ...
def verdict(): ...
"""


def test_a_name_a_function_binds_reaches_no_definition():
    # In main, a local (helper) shares a definition's name; in run, a
    # parameter (check) and a comprehension target (verdict) do.  None of
    # them is a call of the definition; a default (formatter) and a call
    # (run) are.  Counting every ast.Name as a use reached all six.
    reached = _reached({"cli": ast.parse(SHADOWED_DEFINITIONS)})
    assert reached == {("cli", "main"), ("cli", "run"), ("cli", "formatter")}


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
