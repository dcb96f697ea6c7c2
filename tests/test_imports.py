"""Every name that a module of the package imports is read in that module.

No linter runs on the package, so a refactor that leaves an import behind
is caught here.  Names that a module lists in ``__all__`` (the package's
re-exports) and ``from __future__`` imports are exempt.
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
