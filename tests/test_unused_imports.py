"""Every module-level import and private name in ``src/`` is used.

An ``ast`` scan: a name bound by a module-level import must be read somewhere
in its module, or be listed in ``__all__``.  A module-level ``_``-prefixed
function, class or constant must be read somewhere in its module, and a
class's ``_``-prefixed method must be read as an attribute there.  The one
exception is a name kept only for the benchmark's tracer, whose line says so
with ``perfbench/tracing.py`` (and ``# noqa: F401`` on an import).
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bandit_debias"
MARKER = "perfbench/tracing.py"


def _reads(tree: ast.Module) -> set[str]:
    """The names that a module reads, and the strings of its ``__all__``."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return read


def _unused(source: str) -> list[str]:
    """The names that module-level imports bind in a module and nothing in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = _reads(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if "# noqa: F401" in text and MARKER in text:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def _bound(node: ast.stmt) -> list[str]:
    """The names that a module- or class-level definition or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    stores = (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return [n.id for n in stores]


def _unread_private(source: str) -> list[str]:
    """Module-level ``_`` names that nothing in their module reads, and ``_`` methods read as no attribute."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = _reads(tree)
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    scopes = [(tree.body, read, "")] + [
        ([s for s in node.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))], attributes, node.name + ".")
        for node in tree.body if isinstance(node, ast.ClassDef)
    ]
    unread = []
    for body, seen, owner in scopes:
        for node in body:
            if MARKER in lines[node.lineno - 1]:
                continue
            for name in _bound(node):
                if name.startswith("_") and not name.startswith("__") and name not in seen:
                    unread.append(f"line {node.lineno}: {owner}{name}")
    return unread


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_private_names_are_read(path):
    assert _unread_private(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys  # noqa: F401  (perfbench/tracing.py wraps it)\nfrom math import pi, tau\nprint(pi)\n"
    assert _unused(source) == ["line 1: os", "line 3: tau"]


def test_the_scan_finds_an_unread_private_name():
    source = "\n".join([
        "_LIMIT = 3",
        "_SCALE, _SHIFT = 2, 1",
        "_alias = print  # perfbench/tracing.py wraps it",
        "def _helper(): return _SCALE",
        "def _left_behind(): pass",
        "class _Unused: pass",
        "class World:",
        "    def _draw(self): return self._lookup()",
        "    def _lookup(self): return _helper()",
        "    def _old_lookup(self): pass",
        "_LIMIT = 4",
    ]) + "\n"
    assert _unread_private(source) == [
        "line 1: _LIMIT", "line 2: _SHIFT", "line 5: _left_behind", "line 6: _Unused", "line 11: _LIMIT",
        "line 8: World._draw", "line 10: World._old_lookup",
    ]
