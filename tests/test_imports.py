"""Every module imports what it uses once, at module top, and every
name a module defines is used somewhere in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treecap"

# importing SciPy costs about 0.7 s cold and only the SLSQP route needs it
ALLOWED = {("oracle.py", "_solve_slsqp", "scipy.optimize")}


def _imports_in_functions(tree):
    """(function name, imported module) for each import in a body."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    yield from ((fn.name, a.name) for a in node.names)
                elif isinstance(node, ast.ImportFrom):
                    yield fn.name, "." * node.level + (node.module or "")


def test_no_function_imports_anything():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = {(path.name, fn, mod) for path in paths
             for fn, mod in _imports_in_functions(ast.parse(path.read_text()))}
    assert found <= ALLOWED, sorted(found - ALLOWED)


def _module_level_names(tree):
    """Names a module defines at top level: functions, classes and
    assignment targets, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and not (
                            n.id.startswith("__") and n.id.endswith("__")):
                        yield n.id


def _references(tree):
    """Names read, attributes taken and names imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)


def test_every_module_level_name_is_used_somewhere():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = sorted((module, name) for module, tree in trees.items()
                    for name in _module_level_names(tree)
                    if name not in used)
    assert not unused, unused
