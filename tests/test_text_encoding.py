"""Every text-mode ``open`` and ``os.fdopen`` in ``src/`` names its encoding.

An ``ast`` scan.  A text file opened without ``encoding`` is decoded and
encoded with the locale's encoding, so a log that loads under a UTF-8 locale
would fail under C.  A call is binary, and needs no encoding, when its mode
(the second argument, or ``mode=``) is a string that holds "b"; a mode the
scan cannot read counts as text.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bandit_debias"


def _is_open(func: ast.expr) -> bool:
    return ((isinstance(func, ast.Name) and func.id == "open")
            or (isinstance(func, ast.Attribute) and func.attr == "fdopen"
                and isinstance(func.value, ast.Name) and func.value.id == "os"))


def _without_encoding(source: str) -> list[int]:
    """Lines of the text-mode ``open``/``os.fdopen`` calls that name no encoding."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and _is_open(node.func)):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        binary = isinstance(mode, ast.Constant) and isinstance(mode.value, str) and "b" in mode.value
        if not binary and "encoding" not in keywords and len(node.args) < 4:  # encoding is open's 4th argument
            lines.append(node.lineno)
    return lines


def test_every_text_file_in_src_names_its_encoding():
    unnamed = {path.name: _without_encoding(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in unnamed.items() if lines} == {}


def test_the_scan_finds_a_text_open_without_an_encoding():
    source = "\n".join([
        "open(p)",
        "open(p, 'rb')",
        "open(p, mode='wb')",
        "open(p, 'w', encoding='utf-8')",
        "open(p, 'r', -1, 'utf-8')",
        "os.fdopen(fd, 'w')",
        "os.fdopen(fd, 'wb')",
        "open(p, mode)",
        "Path(p).open('rb')",
    ]) + "\n"
    assert _without_encoding(source) == [1, 6, 8]
