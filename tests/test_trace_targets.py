"""Every layer target that the benchmark tracer wraps exists in the package.

``python -m bench --trace 1`` resolves each ``bench.tracer.LAYERS`` entry and
fails on a missing one; this keeps a renamed or deleted public function from
breaking the traced run unnoticed.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repository root holds bench/

from bench.tracer import LAYERS, _resolve  # noqa: E402

TARGETS = [target for targets in LAYERS.values() for target in targets]


@pytest.mark.parametrize("target", TARGETS)
def test_traced_layer_target_exists(target):
    importlib.import_module(f"cvsteer.{target.partition(':')[0]}")
    _, _, original = _resolve(target)
    assert callable(original)
