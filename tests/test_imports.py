"""Every name that a module of the package imports is read in that module,
every module-level private name is read somewhere in the package, every
dataclass field is read outside the tests, and no module imports
``scipy.linalg``.

No linter runs on the package, so a refactor that leaves an import, a
private helper or a field that only the tests read behind is caught here.
Names that a module lists in ``__all__`` (the package's re-exports) and
``from __future__`` imports are exempt.  ``scipy.linalg`` is slow to
import (it once cost about half the start-up time of a run), and
`repdyn.linalg` has numpy versions of what the package needs from it.
"""

import ast
from pathlib import Path

import pytest

import repdyn
from repdyn import cli

SOURCES = sorted(Path(repdyn.__file__).parent.glob("*.py"))
ROOT = Path(repdyn.__file__).resolve().parents[2]


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


def unread_private_names(sources):
    """``module.name`` of each module-level private name (``_name``, not
    ``__name__``) that a def, class or assignment in ``sources``, a dict of
    module name to source text, binds and that no source reads.  An
    attribute access or a ``from ... import`` of the name counts as a read.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_private_names(sources) == []


def test_the_check_sees_a_dead_helper():
    sources = {
        "a": (
            "_TOL = 1e-9\n"
            "_x, _unused_pair = 1, 2\n"
            "def _kept(u):\n"
            "    return u < _TOL\n"
            "def _dead(u):\n"
            "    return -u\n"
            "class _Box:\n"
            "    pass\n"
            "__all__ = []\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import _x\n"
            "def f(u):\n"
            "    return a._kept(u), a._Box\n"
        ),
    }
    assert unread_private_names(sources) == ["a._dead", "a._unused_pair"]


def is_dataclass(node):
    """Whether a class definition carries ``@dataclass`` or
    ``@dataclasses.dataclass``, called or not."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if "dataclass" in (getattr(decorator, "id", None), getattr(decorator, "attr", None)):
            return True
    return False


def unread_fields(sources, readers, summary_entries):
    """``module.Class.field`` of each field that a dataclass in ``sources``,
    a dict of module name to source text, declares and that nothing reads.
    A read is an attribute load of the field's name in one of the
    ``readers`` source texts, or an entry of ``summary_entries`` (the
    ``key`` or ``key=field`` strings of `cli._SUMMARY_KEYS`) that names it.
    """
    read = {entry.partition("=")[2] or entry for entry in summary_entries}
    for source in readers:
        read.update(node.attr for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                unread += [f"{module}.{node.name}.{item.target.id}" for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name)
                           and item.target.id not in read]
    return sorted(unread)


def test_every_dataclass_field_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    readers = list(sources.values()) + [
        path.read_text(encoding="utf-8")
        for folder in ("demos", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))
    ]
    entries = [entry for keys in cli._SUMMARY_KEYS.values() for entry in keys.split()]
    assert unread_fields(sources, readers, entries) == []


def test_the_check_sees_a_dead_field():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Report:\n"
        "    value: float\n"
        "    note: str\n"
        "    hidden: int = 0\n"
        "    def describe(self):\n"
        "        return self.note\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Record:\n"
        "    length: int\n"
        "    dead: int\n"
        "class Plain:\n"
        "    unchecked: int\n"
    )
    reader = "def f(report):\n    report.hidden = report.value\n"
    assert unread_fields({"a": source}, [source, reader], ["L=length"]) == [
        "a.Record.dead", "a.Report.hidden"]


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
