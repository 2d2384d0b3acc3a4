"""No module in ``src/cvsteer`` writes JSON through ``json.dump`` or ``json.dumps``.

Every JSON output goes through ``cli._json_text``, which prints floats at 12
significant digits and an infinite time as the string "inf"; a second writer
would print other bytes for the same value.  ``json.load`` of state files is
the one use of json left.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cvsteer"
WRITERS = {"dump", "dumps"}


def _json_writer_uses(tree):
    """(line, text) of each ``json.dump``/``json.dumps`` a module reads and
    each that it imports from json."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in WRITERS:
            if isinstance(node.value, ast.Name) and node.value.id == "json":
                yield node.lineno, f"json.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            yield from ((node.lineno, f"from json import {a.name}") for a in node.names if a.name in WRITERS)


def test_no_module_writes_json_past_the_one_writer():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 5  # the walk sees the package
    uses = [
        f"{path.relative_to(PACKAGE).as_posix()}:{line}: {text}"
        for path in paths
        for line, text in _json_writer_uses(ast.parse(path.read_text()))
    ]
    assert uses == []
