"""Every module-level function and class in ``src/`` has a caller outside the tests.

An ``ast`` scan: a function or class defined at module level in
``src/bandit_debias/`` must be named somewhere else in ``src/`` or anywhere
in ``perfbench/``.  A name counts as read, assigned, imported, taken as an
attribute or written as a string, since the benchmark's tracer patches by
string.  Mentions inside the definition itself do not count: a recursive
call, or a class naming itself in its methods, is no caller.  Code that only
the tests call belongs in the tests.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bandit_debias"
PERFBENCH = ROOT / "perfbench"


def _mentions(tree: ast.AST) -> Counter:
    """How many times a tree names each name: as a name, an imported name, an attribute or a string."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _uncalled(modules: dict[str, str], elsewhere: Counter) -> list[str]:
    """Each module-level function or class that only its own definition names, beyond ``elsewhere``."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    mentions = sum((_mentions(tree) for tree in trees.values()), elsewhere)
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if mentions[node.name] == _mentions(node)[node.name]:
                    uncalled.append(f"{module} line {node.lineno}: {node.name}")
    return uncalled


def test_every_definition_in_src_has_a_caller():
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = sum((_mentions(ast.parse(path.read_text())) for path in sorted(PERFBENCH.glob("*.py"))), Counter())
    assert _uncalled(modules, bench) == []


def test_the_scan_finds_a_definition_with_no_caller():
    modules = {
        "a.py": "\n".join([
            "def used(): return helper()",
            "def helper(): return helper()",
            "def lonely(): return lonely()",
            "class Alone:",
            "    def copy(self): return Alone()",
            "def patched(): pass",
            "def exported(): pass",
        ]) + "\n",
        "b.py": "from .a import used as renamed\n__all__ = ['exported']\nprint(renamed)\n",
    }
    bench = _mentions(ast.parse("tracer.patch(a, 'patched')\n"))
    assert _uncalled(modules, bench) == ["a.py line 3: lonely", "a.py line 4: Alone"]
