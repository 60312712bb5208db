"""The README's *One child contract* and *Threads versus processes*, read
off the package source with ``ast``: each of ``os.fork``, the thread pool
and anonymous shared memory has one owner."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "uvpricer"


def _dotted(node):
    """``"a.b.c"`` of a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def uses(module, name):
    """``(file stem, scope)`` of every use of ``module.name`` in the
    package: ``module.name`` itself, or the bare ``name`` in a file that
    imports it from ``module``.  ``scope`` is the tuple of the class and
    function names that enclose the use."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = any(
            isinstance(node, ast.ImportFrom) and node.module == module
            and any(alias.name == name for alias in node.names)
            for node in ast.walk(tree))

        def visit(node, scope):
            if (_dotted(node) == f"{module}.{name}" or imported
                    and isinstance(node, ast.Name) and node.id == name):
                found.append((path.stem, scope))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                scope = scope + (node.name,)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())
    return found


@pytest.mark.parametrize("module, name, owner", [
    ("os", "fork", ("sde", ("_Job", "__init__"))),
    ("concurrent.futures", "ThreadPoolExecutor", ("sde", ("_march_chunks",))),
    ("mmap", "mmap", ("sde", ("_shared",))),
])
def test_one_owner(module, name, owner):
    """``module.name`` is used, and only inside its owner (or a function
    nested in it)."""
    stem, scope = owner
    found = uses(module, name)
    assert found, f"{module}.{name} is not used at all"
    assert all((s, sc[:len(scope)]) == owner for s, sc in found), found
