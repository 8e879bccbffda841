"""Every module-level import in ``src/`` is used.

An ``ast`` scan: a name bound by a module-level import must be read somewhere
in its module, or be listed in ``__all__``.  The one exception is a name kept
only for the benchmark's tracer, whose import line says so with
``# noqa: F401`` and ``perfbench/tracing.py``.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bandit_debias"


def _unused(source: str) -> list[str]:
    """The names that module-level imports bind in a module and nothing in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if "# noqa: F401" in text and "perfbench/tracing.py" in text:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"line {node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys  # noqa: F401  (perfbench/tracing.py wraps it)\nfrom math import pi, tau\nprint(pi)\n"
    assert _unused(source) == ["line 1: os", "line 3: tau"]
