"""Every imported name in src/, tests/ and demos/ is used, and every name
that a module of the package lists in ``__all__`` is read outside tests.

A name counts as used when the module reads it anywhere or lists it in
``__all__``; an import statement marked ``# noqa: F401`` on any of its
lines is a deliberate re-export and is skipped.  ``perfbench/`` is left
out of the import scan: it is the benchmark's own contract.

An export counts as read when another module of src/, a demo or a
perfbench file reads it; importing it, as the package's ``__init__``
re-exports do, is not reading it.  The modules checked are found by
walking src/coldgraph, so a new module is checked as soon as it exists.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
PACKAGE = ROOT / "src" / "coldgraph"
READERS = sorted(p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))


def exported_names(tree):
    """The names of a module-level ``__all__ = [...]``, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return None


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(exported_names(tree) or ())
    return [(line, name) for name, line in imported if name not in used]


def test_scanner_flags_only_unused_names():
    source = (
        "import os\n"
        "import numpy as np\n"
        "import scipy.sparse\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from typing import (  # noqa: F401\n"
        "    Any,\n"
        ")\n"
        "from math import pi, tau\n"
        "__all__ = ['pi']\n"
        "x = np.zeros(scipy.sparse.eye(1).shape)\n"
    )
    assert unused_imports(source) == [(1, "os"), (8, "tau")]


def test_no_unused_imports():
    found = [
        f"{p.relative_to(ROOT)}:{line}: {name}"
        for p in FILES
        for line, name in unused_imports(p.read_text())
    ]
    assert len(FILES) > 30
    assert found == []


def read_names(source: str) -> set:
    """Every bare name and attribute name that ``source`` reads."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def unread_exports(path: Path, readers=READERS) -> list:
    """Names in the ``__all__`` of the module at ``path`` that no other
    file in ``readers`` reads."""
    others = [p for p in readers if p != path]
    read = set().union(*(read_names(p.read_text()) for p in others))
    # a perfbench probe names the function it wraps in a string
    read |= {c.value for p in others if p.parts[-2] == "perfbench"
             for c in ast.walk(ast.parse(p.read_text()))
             if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return sorted(set(exported_names(ast.parse(path.read_text()))) - read)


# dotted name under coldgraph -> path, for every module that defines __all__
EXPORTERS = {".".join(p.relative_to(PACKAGE).with_suffix("").parts): p
             for p in sorted(PACKAGE.rglob("*.py"))
             if exported_names(ast.parse(p.read_text())) is not None}


def test_exports_scanner_flags_unread_names(tmp_path):
    planted = tmp_path / "planted.py"
    reader = tmp_path / "reader.py"
    probes = tmp_path / "perfbench" / "probes.py"
    probes.parent.mkdir()
    planted.write_text(
        "__all__ = ['called', 'probed', 'unread', 'reexported']\n"
        "def unread(): return called()\n"
    )
    reader.write_text(
        '"""Names unread in a docstring."""\n'
        "from planted import called, reexported  # noqa: F401\n"
        "called()\n"
    )
    probes.write_text("PROBE = ('planted', 'probed')\n")
    assert unread_exports(planted, [planted, reader, probes]) == ["reexported", "unread"]


def test_walk_covers_every_module_that_exports():
    for name, path in EXPORTERS.items():
        module = importlib.import_module(f"coldgraph.{name}")
        assert Path(module.__file__) == path
        assert module.__all__ == exported_names(ast.parse(path.read_text()))
    # a module that sets __all__ in a form the walk misses would show here
    assert {p for p in PACKAGE.rglob("*.py") if "__all__" in p.read_text()} \
        == set(EXPORTERS.values())
    assert {"autodiff", "graph", "sampling", "evaluate", "models.train"} <= set(EXPORTERS)


@pytest.mark.parametrize("name", sorted(EXPORTERS))
def test_every_export_is_read_outside_tests(name):
    assert unread_exports(EXPORTERS[name]) == []
