"""Every module-qualified or class-qualified name that README.md quotes exists
in the package.

README points readers at private functions by name (`measures._report_columns`,
`states._certified`, ...) and at members of the public classes
(`ChannelSpec.evolve`).  A rename or a deletion that leaves such a pointer
behind sends the reader to code that is gone.
"""

import importlib
import re
from pathlib import Path

import cvsteer

README = Path(__file__).resolve().parents[1] / "README.md"
_MODULES = ("states", "channels", "measures", "criteria", "cli", "verify", "oracle")
# The package's public classes, by name.
_CLASSES = {name: obj for name, obj in vars(cvsteer).items() if isinstance(obj, type)}
# A backticked span that starts with a module name (or a class name) and a
# dot; the name runs to the first character that cannot be part of a dotted
# name, such as the "(" of `measures._threshold_rows(rows, r)`.
_REFERENCE = re.compile(rf"`((?:{'|'.join(_MODULES)})(?:\.\w+)+)")
_MEMBER = re.compile(rf"`((?:{'|'.join(_CLASSES)})(?:\.\w+)+)")


def _resolves(reference: str) -> bool:
    head, *path = reference.split(".")
    obj = _CLASSES[head] if head in _CLASSES else importlib.import_module(f"cvsteer.{head}")
    for name in path:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_module_reference_in_the_readme_resolves():
    references = sorted(set(_REFERENCE.findall(README.read_text())))
    assert len(references) >= 10  # the pattern sees README's references
    assert [reference for reference in references if not _resolves(reference)] == []


def test_every_class_member_reference_in_the_readme_resolves():
    references = sorted(set(_MEMBER.findall(README.read_text())))
    assert "ChannelSpec.evolve" in references  # the pattern sees README's references
    assert [reference for reference in references if not _resolves(reference)] == []
