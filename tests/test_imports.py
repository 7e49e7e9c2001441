"""Every module imports what it uses once, at module top."""

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
