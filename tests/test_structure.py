"""The README's *One child contract*, *Threads versus processes* and *One
explicit march*, read off the package source with ``ast``: each of
``os.fork``, the thread pool, anonymous shared memory, the Brownian
increments and the tridiagonal kernel has one owner, and no solver reads
a stored surface's slices by time."""

import ast
import os
import subprocess
import sys
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
    ("rng", "normal_increments", ("sde", ("_march_chunks",))),
])
def test_one_owner(module, name, owner):
    """``module.name`` is used, and only inside its owner (or a function
    nested in it)."""
    stem, scope = owner
    found = uses(module, name)
    assert found, f"{module}.{name} is not used at all"
    assert all((s, sc[:len(scope)]) == owner for s, sc in found), found


def test_only_surface_reads_slices_by_time():
    """``PriceSurface.nearest_pos`` is read only inside ``surface``: a
    solver marches what it needs (the corrector its own limit) and never
    reads the interior slices of a stored surface."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [path.stem for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "nearest_pos"]
    assert found and set(found) == {"surface"}, found


def test_one_tridiagonal_kernel():
    """README *One explicit march*'s kernel: ``hjb._Tridiagonal`` is
    defined once, and only the march (``hjb._Marcher.__init__``) makes
    one.  No module imports ``scipy.linalg``: loading its LAPACK raised
    the sweep benchmark's peak memory by 11%."""
    defined, made, linalg = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, scope):
            if isinstance(node, ast.ClassDef) and node.name == "_Tridiagonal":
                defined.append((path.stem, scope))
            if (isinstance(node, ast.Name) and node.id == "_Tridiagonal"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "_Tridiagonal"):
                made.append((path.stem, scope))
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [f"{node.module}.{a.name}" for a in node.names]
                     if isinstance(node, ast.ImportFrom) else [_dotted(node)])
            linalg.extend(n for n in names if n and n.startswith("scipy.linalg"))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                scope = scope + (node.name,)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())
    assert defined == [("hjb", ())]
    assert made == [("hjb", ("_Marcher", "__init__"))]
    assert linalg == []


def test_a_price_run_leaves_scipy_linalg_unloaded(tmp_path):
    """``price`` on the quickstart config, in a fresh interpreter, never
    loads ``scipy.linalg``."""
    root = SRC.parents[1]
    code = ("import sys; from uvpricer.cli import main; "
            f"assert main(['price', '--config', {str(root / 'configs' / 'quickstart.json')!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0; "
            "print('scipy.linalg' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH", "")])))
    result = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"
