"""Every seed-1 benchmark op passes its own checks and digest.

The benchmark rejects a change whose op output moves by one byte, or whose
threshold rows or verify suites fail their checks; this runs each op of each
workload once, in-process, against ``bench/expected_digests.json``, so such a
change fails here first.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # the repository root holds bench/

import cvsteer.cli  # noqa: E402
from bench.ops import Ledger, run_op  # noqa: E402
from bench.workloads import DEFAULT_SEED, WORKLOADS, build  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeded_ops_pass_their_checks_and_digests(workload, tmp_path, monkeypatch):
    # ``point`` writes state files under tmp_path and names them relative to it.
    monkeypatch.chdir(tmp_path)
    expected = json.loads((ROOT / "bench" / "expected_digests.json").read_text())
    ledger = Ledger(expected, check_seeded=True)
    for op in build(workload, DEFAULT_SEED, tmp_path, tmp_path / "scratch"):
        ledger.record(run_op(cvsteer.cli.main, op))
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.failures
