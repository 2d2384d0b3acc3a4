"""Every module-qualified name that README.md quotes exists in the package.

README points readers at private functions by name (`measures._report_columns`,
`states._certified`, ...).  A rename or a deletion that leaves such a pointer
behind sends the reader to code that is gone.
"""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
_MODULES = ("states", "channels", "measures", "criteria", "cli", "verify", "oracle")
# A backticked span that starts with a module name and a dot; the name runs
# to the first character that cannot be part of a dotted name, such as the
# "(" of `measures._threshold_rows(rows, r)`.
_REFERENCE = re.compile(rf"`((?:{'|'.join(_MODULES)})(?:\.\w+)+)")


def _resolves(reference: str) -> bool:
    module, *path = reference.split(".")
    obj = importlib.import_module(f"cvsteer.{module}")
    for name in path:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_module_reference_in_the_readme_resolves():
    references = sorted(set(_REFERENCE.findall(README.read_text())))
    assert len(references) >= 10  # the pattern sees README's references
    assert [reference for reference in references if not _resolves(reference)] == []
