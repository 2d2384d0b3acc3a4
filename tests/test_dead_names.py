"""Every private module-level name in ``src/cvsteer`` is read somewhere in the package.

A private function, class or constant that no code reads is left over from a
change that moved its job elsewhere; tests alone do not keep it alive.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cvsteer"


def _private_definitions(tree):
    """The private names that a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _reads(tree):
    """Every name a module reads, bare (``_f``) or as an attribute (``m._f``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_private_module_level_name_is_unread():
    trees = {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    defined = [(module, name) for module, tree in trees.items() for name in _private_definitions(tree)]
    assert len(defined) > 50  # the walk sees the package
    assert [f"{module}: {name}" for module, name in defined if name not in read] == []
