"""Every name that a module of the package imports is read in that module,
and no module imports ``scipy.linalg``.

No linter runs on the package, so a refactor that leaves an import behind
is caught here.  Names that a module lists in ``__all__`` (the package's
re-exports) and ``from __future__`` imports are exempt.  ``scipy.linalg``
is slow to import (it once cost about half the start-up time of a run), and
`repdyn.linalg` has numpy versions of what the package needs from it.
"""

import ast
from pathlib import Path

import pytest

import repdyn

SOURCES = sorted(Path(repdyn.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by an import in ``source`` that nothing there reads."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read - exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_dead_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .words import FlowLineWindow, alphabet\n"
        "from . import linalg\n"
        "__all__ = ['linalg']\n"
        "x: np.ndarray = alphabet(2)\n"
    )
    assert unused_imports(source) == ["FlowLineWindow"]


def scipy_linalg_imports(source):
    """The line of each import of ``scipy.linalg`` in ``source``, at any
    depth, as ``import scipy.linalg``, ``from scipy.linalg import ...`` or
    ``from scipy import linalg``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.")
               for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_linalg_import(path):
    assert scipy_linalg_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_lazy_scipy_linalg_import():
    source = (
        "import scipy.spatial\n"
        "from scipy import special\n"
        "def f(u):\n"
        "    import scipy.linalg\n"
        "    return scipy.linalg.norm(u)\n"
        "def g(u):\n"
        "    from scipy import linalg\n"
        "    from scipy.linalg import svd\n"
        "    return linalg.norm(u), svd(u)\n"
    )
    assert scipy_linalg_imports(source) == [4, 7, 8]
