"""The declared dependency floors cover what the package uses.

The package reads ``ndarray.mT``, which NumPy added in 2.0; scipy supports
NumPy 2 from 1.13.  A floor below these lets an install pass that fails on
the first stack the package touches.
"""

import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _floors() -> dict[str, tuple[int, ...]]:
    dependencies = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    floors = {}
    for spec in dependencies:
        name, version = re.fullmatch(r"([\w-]+)>=([\d.]+)", spec.replace(" ", "")).groups()
        floors[name] = tuple(int(part) for part in version.split("."))
    return floors


def test_the_numpy_floor_is_at_least_2_0_which_has_ndarray_mT():
    assert any(".mT" in path.read_text() for path in (ROOT / "src" / "cvsteer").glob("*.py"))
    assert _floors()["numpy"] >= (2, 0)


def test_the_scipy_floor_supports_numpy_2():
    assert _floors()["scipy"] >= (1, 13)
