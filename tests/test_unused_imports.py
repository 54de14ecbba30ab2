"""Every imported name in src/, tests/ and demos/ is used, and every name
the autodiff engine, the graph module and the sampling module export is
read outside tests.

A name counts as used when the module reads it anywhere or lists it in
``__all__``; an import statement marked ``# noqa: F401`` on any of its
lines is a deliberate re-export and is skipped.  ``perfbench/`` is left
out of the import scan: it is the benchmark's own contract.
"""

import ast
from pathlib import Path

from coldgraph import autodiff, graph, sampling

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


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
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
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


def unread_exports(module) -> list:
    """Names in ``module.__all__`` that no file under src/, demos/ or
    perfbench/ other than the module's own reads."""
    own = ROOT / "src" / (module.__name__.replace(".", "/") + ".py")
    readers = [p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
               if p != own]
    read = set().union(*(read_names(p.read_text()) for p in readers))
    # a perfbench probe names the function it wraps in a string
    read |= {c.value for p in readers if p.parts[-2] == "perfbench"
             for c in ast.walk(ast.parse(p.read_text()))
             if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return sorted(set(module.__all__) - read)


def test_every_autodiff_export_is_read_outside_tests():
    assert unread_exports(autodiff) == []


def test_every_graph_export_is_read_outside_tests():
    assert unread_exports(graph) == []


def test_every_sampling_export_is_read_outside_tests():
    assert unread_exports(sampling) == []
