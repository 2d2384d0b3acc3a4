"""Tests of the benchmark harness itself: ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bench.clock import REF_PROBE_S, SpeedSampler
from bench.ops import Ledger, Op, run_op
from bench.tracer import Tracer, self_times, summarize
from bench.worker import (
    END_TO_END_UNITS,
    EXPECTED_DIGESTS,
    PER_LAYER_UNITS,
    ROOT,
    combine,
    import_program,
    run_passes,
)
from bench.workloads import DEFAULT_SEED, WORKLOADS, build

cli = import_program()


def _build(workload, seed, root):
    return build(workload, seed, root, root / "out")


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted((root / "out").rglob("*.json"))}


def test_same_seed_same_inputs_and_digests(tmp_path, monkeypatch):
    first, second = tmp_path / "first", tmp_path / "second"
    for workload in WORKLOADS:
        assert _build(workload, 7, first) == _build(workload, 7, second)
    assert _files(first) == _files(second) != {}

    monkeypatch.chdir(first)
    ops = [op for op in _build("point", 7, first) if op.id in ("point/flags-003", "point/state-004")]
    ops += [op for op in _build("sweep", 7, first) if op.id in ("sweep/figure-3", "sweep/laser-b")]
    digests = [[run_op(cli.main, op).digest for op in ops] for _ in range(2)]
    assert digests[0] == digests[1]


def test_different_seed_different_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for workload in ("sweep", "threshold", "point"):
        seeded_a = [op.argv for op in _build(workload, 7, a) if op.seeded]
        seeded_b = [op.argv for op in _build(workload, 8, b) if op.seeded]
        assert len(seeded_a) == len(seeded_b) > 0
        assert seeded_a != seeded_b
    assert list(_files(a).values()) != list(_files(b).values())
    # The verify suites run on built-in grids: the seed does not apply.
    assert _build("verify", 7, a) == _build("verify", 8, b)


def test_default_seed_has_an_expected_digest_for_every_op(tmp_path):
    expected = json.loads(EXPECTED_DIGESTS.read_text())
    ids = {op.id for workload in WORKLOADS for op in _build(workload, DEFAULT_SEED, tmp_path)}
    assert ids == set(expected)


def test_self_time_of_synthetic_nested_spans():
    # root [0, 10] > a [1, 5] > a1 [2, 3];  root > b [6, 9]
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 5.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    own = self_times(starts, ends, parents)
    assert own.tolist() == [3.0, 3.0, 1.0, 3.0]
    # Self times of a tree tile the root span exactly.
    assert own.sum() == pytest.approx(ends[0] - starts[0])


def test_calibration_rescales_by_nearby_probe_speed():
    sampler = SpeedSampler()
    # Two probes inside the op at half the reference speed; a far one at full speed.
    sampler.times = [10.0, 10.5, 20.0]
    sampler.durations = [2 * REF_PROBE_S, 2 * REF_PROBE_S, REF_PROBE_S]
    net = 1.0 - 4 * REF_PROBE_S
    assert sampler.calibrate(10.0, 11.0) == pytest.approx(net / 2)
    # No probe near the op: the nearest one sets the speed.
    assert sampler.calibrate(19.0, 19.5) == pytest.approx(0.5)


def test_failing_op_is_counted_in_fail_rate():
    ops = [
        Op("ok", ("eval", "--r", "0.5"), "eval", seeded=True),
        Op("bad", ("threshold", "--channel", "laser", "--r", "-1"), "threshold", seeded=True),
    ]
    ledger = Ledger(expected={}, check_seeded=False)
    run_passes(cli.main, ops, ledger, seconds=0.0)
    assert (ledger.attempted, ledger.failed, ledger.fail_rate) == (2, 1, 0.5)
    assert dict(ledger.by_kind) == {"exit": 1}
    assert ledger.failures[0]["op"] == "bad"
    assert ledger.failures[0]["argv"] == list(ops[1].argv)
    assert "exit code 2" in ledger.failures[0]["problems"][0][1]


def test_digest_mismatch_is_a_failure():
    op = Op("ok", ("eval", "--r", "0.5"), "eval", seeded=False)
    ledger = Ledger(expected={"ok": "0" * 64}, check_seeded=False)
    ledger.record(run_op(cli.main, op))
    assert ledger.failed == 1 and dict(ledger.by_kind) == {"digest": 1}


def test_combine_pools_passes_and_fails_outputs_that_differ_between_workers():
    def part(digest, op_s):
        return {
            "env": {}, "op_s": op_s, "op_wall_s": op_s, "outputs_per_pass": 2, "probe_median_s": 4e-4,
            "peak_rss_mb": 80.0, "attempted": 2 * len(op_s), "failed": 0, "failures_by_kind": {},
            "failures": [], "digests": {"a": "1", "b": digest},
        }

    result = combine([part("2", [[1.0, 2.0]]), part("3", [[1.0, 3.0], [1.0, 4.0]])])
    assert result["passes"]["untraced"] == 3
    assert result["metrics"]["pass_s"] == 4.0
    assert result["metrics"]["outputs_per_s"] == 0.5
    assert (result["attempted"], result["failed"], result["failures_by_kind"]) == (6, 1, {"digest": 1})


def _bindings():
    """Every attribute of every cvsteer module and class, and the verify suite table."""
    snap = {}
    for name, module in sorted(sys.modules.items()):
        if name == "cvsteer" or name.startswith("cvsteer."):
            snap[name] = dict(vars(module))
            for attr, value in vars(module).items():
                if isinstance(value, type) and value.__module__ == name:
                    snap[f"{name}.{attr}"] = dict(vars(value))
    snap["SUITES"] = dict(sys.modules["cvsteer.verify"].SUITES)
    return snap


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[k].keys() == b[k].keys() and all(a[k][x] is b[k][x] for x in a[k]) for k in a
    )


def test_traced_run_restores_every_wrapped_attribute():
    import cvsteer.measures
    import cvsteer.states

    before = _bindings()
    original_make_tmsv = cvsteer.states.make_tmsv
    with Tracer() as tracer:
        assert cvsteer.measures.make_tmsv is not original_make_tmsv
        assert cvsteer.cli.make_tmsv is cvsteer.measures.make_tmsv
        assert not _same(before, _bindings())
        run_op(cli.main, Op("e", ("eval", "--r", "0.5", "--channel", "loss", "--t", "0.2"), "eval", seeded=True))
    assert _same(before, _bindings())
    assert cvsteer.measures.make_tmsv is original_make_tmsv
    names = {tracer.names[i] for i in tracer.name_ids}
    assert {"cli", "states.construct", "channels.evolve", "measures.quantifier", "criteria"} <= names


def test_traced_self_times_add_up_to_top_level_spans():
    op = Op("t", ("threshold", "--channel", "loss", "--r", "0.5", "--quantity", "two-way", "--format", "json"), "threshold", seeded=True)
    with Tracer() as tracer:
        outcome = run_op(cli.main, op)
    assert outcome.problems == []
    summary = summarize(tracer)
    _, starts, ends, parents = tracer.arrays()
    top = parents < 0
    assert summary["self_sum_s"] == pytest.approx(float((ends[top] - starts[top]).sum()), rel=1e-9)
    assert summary["self_sum_s"] <= outcome.seconds
    assert summary["calls"]["measures.scan"] == 1
    assert summary["scan_evals"] + summary["brentq_evals"] == summary["calls"]["channels.evolve"]
    assert summary["calls"]["oracle.pdf"] == 0
    assert np.all(self_times(starts, ends, parents) >= 0)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert Path(ROOT, spec["paths"][0], "__main__.py").is_file()
