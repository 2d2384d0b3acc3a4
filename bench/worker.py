"""Workload process: set up, run timed passes in a closed loop, report as JSON.

Run by ``python3 -m bench`` as ``python3 -m bench.worker --workload W --seed N
--seconds S --trace 0|1 [--setup-only]`` from the checkout root, in a fresh
interpreter whose BLAS thread cap is set in its environment.  It prints
``ready`` once set-up is done (the parent times set-up up to that line) and,
unless ``--setup-only``, one JSON object as its last line.

One Python thread issues one op at a time: each op starts only after the
previous one returned.  A pass is the workload's whole op list; passes repeat
until ``--seconds`` have elapsed.  With ``--trace 1`` the first half of the
time runs untraced and the second half traced, giving the trace overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .clock import SpeedSampler
from .ops import MAX_FAILURE_RECORDS, Ledger, run_op
from .tracer import Tracer, summarize
from .workloads import DEFAULT_SEED, WARMUP, build

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"

# End-to-end metrics of an untraced run with their units; the parent process
# measures setup_s.
END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "outputs_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics reported by a traced run, all per pass, with their units.
PER_LAYER_UNITS = {
    "states.construct.calls": "count",
    "states.construct.self_s": "s",
    "states.construct_per_output": "count",
    "states.symplectic.calls": "count",
    "states.symplectic.self_s": "s",
    "states.other.self_s": "s",
    "channels.evolve.calls": "count",
    "channels.evolve.self_s": "s",
    "criteria.calls": "count",
    "criteria.self_s": "s",
    "measures.quantifier.calls": "count",
    "measures.quantifier.self_s": "s",
    "measures.closed_form.self_s": "s",
    "measures.roots": "count",
    "measures.scan.evals": "count",
    "measures.scan.self_s": "s",
    "measures.brentq.evals": "count",
    "measures.brentq.self_s": "s",
    "measures.evals_per_root": "count",
    "oracle.pdf.calls": "count",
    "oracle.pdf.self_s": "s",
    "oracle.pdf.distinct_ratio": "ratio",
    "oracle.pdf.flops_computed": "flop",
    "oracle.inferred_variance.self_s": "s",
    "oracle.entropy.self_s": "s",
    "oracle.moments.self_s": "s",
    "oracle.symplectic.self_s": "s",
    "verify.pdf.s": "s",
    "verify.inferred-variance.s": "s",
    "verify.entropy.s": "s",
    "verify.moments.s": "s",
    "verify.symplectic.s": "s",
    "verify.thresholds.s": "s",
    "verify.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "trace.pass_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace_overhead": "ratio",
}


def import_program(root: Path = ROOT):
    """Import cvsteer.cli from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "cvsteer" / "__init__.py").is_file():
        raise SystemExit(f"error: no cvsteer sources under {src}")
    sys.path.insert(0, str(src))
    import cvsteer.cli

    if Path(cvsteer.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"error: imported cvsteer from {cvsteer.cli.__file__}, not {src}")
    return cvsteer.cli


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_quantile(samples: int) -> float:
    """The highest quantile, at most 0.99, with at least ten samples beyond it
    (0.99 on ``point``; lower on workloads with few, long ops)."""
    return max(0.5, min(0.99, 1.0 - 10.0 / samples))


@dataclass
class Passes:
    """What a timed loop over the workload's ops produced."""

    wall_s: list[float] = field(default_factory=list)  # per pass, sum of its ops' wall times
    intervals: list[list[tuple[float, float]]] = field(default_factory=list)  # per pass, per op
    outputs: int = 0  # rows, roots, suites or reports per pass
    out_bytes: int = 0  # stdout bytes per pass
    summaries: list[dict] = field(default_factory=list)  # per traced pass


def run_passes(main, ops, ledger, seconds: float, tracer=None) -> Passes:
    """Repeat passes over ``ops`` until ``seconds`` elapse (at least one pass).

    Only the ops are timed, not their checks.  With a ``tracer``, its spans
    are summarized after each pass and then dropped.
    """
    done = Passes()
    start = time.perf_counter()
    while not done.wall_s or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        intervals, done.outputs, done.out_bytes = [], 0, 0
        for op in ops:
            outcome = run_op(main, op)
            ledger.record(outcome)
            intervals.append((outcome.start, outcome.start + outcome.seconds))
            done.outputs += outcome.outputs
            done.out_bytes += len(outcome.stdout.encode())
        done.intervals.append(intervals)
        done.wall_s.append(sum(end - begin for begin, end in intervals))
        if tracer is not None:
            done.summaries.append(summarize(tracer))
    return done


def end_to_end_metrics(op_s: list[list[float]], outputs: int) -> dict:
    """Timed end-to-end metrics from per-pass lists of per-op seconds."""
    pass_s = statistics.median(sum(p) for p in op_s)
    ordered = sorted(t for p in op_s for t in p)
    return {
        "pass_s": pass_s,
        "outputs_per_s": outputs / pass_s,
        "op_p50_ms": 1e3 * _percentile(ordered, 0.50),
        "op_tail_ms": 1e3 * _percentile(ordered, tail_quantile(len(ordered))),
    }


def combine(parts: list[dict]) -> dict:
    """One untraced result from the reports of several measuring workers.

    Their passes are pooled, so a single process's layout and placement
    weigh less; an op whose output differs between workers fails.
    """
    op_s = [p for part in parts for p in part["op_s"]]
    wall_s = [p for part in parts for p in part["op_wall_s"]]
    outputs = parts[0]["outputs_per_pass"]
    result = {
        "env": parts[0]["env"],
        "metrics": end_to_end_metrics(op_s, outputs),
        "raw_wall": end_to_end_metrics(wall_s, outputs),
        "probe_median_s": statistics.median(part["probe_median_s"] for part in parts),
        "passes": {"untraced": len(op_s), "workers": len(parts)},
        "op_samples": sum(len(p) for p in op_s),
        "outputs_per_pass": outputs,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "failures_by_kind": dict(sum((Counter(part["failures_by_kind"]) for part in parts), Counter())),
        "failures": [f for part in parts for f in part["failures"]][:MAX_FAILURE_RECORDS],
        "digests": parts[0]["digests"],
    }
    result["metrics"]["peak_rss_mb"] = max(part["peak_rss_mb"] for part in parts)
    result["op_tail_quantile"] = tail_quantile(result["op_samples"])
    for part in parts[1:]:
        for op_id, digest in part["digests"].items():
            if result["digests"].get(op_id, digest) != digest:
                result["failed"] += 1
                result["failures_by_kind"]["digest"] = result["failures_by_kind"].get("digest", 0) + 1
                result["failures"].append({"op": op_id, "argv": [], "problems": [["digest", "output differs between workers"]]})
    return result


def _calibrated_pass_s(done: Passes, sampler: SpeedSampler) -> float:
    return statistics.median(sum(sampler.calibrate(begin, end) for begin, end in p) for p in done.intervals)


def layer_metrics(traced: Passes, untraced: Passes, sampler: SpeedSampler) -> dict:
    """Per-pass means of the traced passes' layer totals (raw wall time), and
    the tracing overhead from calibrated pass times."""
    summaries, outputs = traced.summaries, traced.outputs
    n = len(summaries)

    def mean(key, name=None):
        return sum(s[key] if name is None else s[key].get(name, 0) for s in summaries) / n

    def self_s(prefix):
        return sum(v for s in summaries for k, v in s["self_s"].items() if k.startswith(prefix)) / n

    roots = mean("calls", "measures.scan")
    scan_evals, brentq_evals = mean("scan_evals"), mean("brentq_evals")
    pdf_calls = mean("calls", "oracle.pdf")
    pdf_distinct = sum(len(set(s["pdf_keys"])) for s in summaries) / n
    traced_pass_s = sum(traced.wall_s) / n
    m = {
        "states.construct.calls": mean("calls", "states.construct"),
        "states.construct.self_s": mean("self_s", "states.construct"),
        "states.construct_per_output": mean("calls", "states.construct") / outputs,
        "states.symplectic.calls": mean("calls", "states.symplectic"),
        "states.symplectic.self_s": mean("self_s", "states.symplectic"),
        "states.other.self_s": mean("self_s", "states.other"),
        "channels.evolve.calls": mean("calls", "channels.evolve"),
        "channels.evolve.self_s": mean("self_s", "channels.evolve"),
        "criteria.calls": mean("calls", "criteria"),
        "criteria.self_s": mean("self_s", "criteria"),
        "measures.quantifier.calls": mean("calls", "measures.quantifier"),
        "measures.quantifier.self_s": mean("self_s", "measures.quantifier"),
        "measures.closed_form.self_s": mean("self_s", "measures.closed_form"),
        "measures.roots": roots,
        "measures.scan.evals": scan_evals,
        "measures.scan.self_s": mean("self_s", "measures.scan"),
        "measures.brentq.evals": brentq_evals,
        "measures.brentq.self_s": mean("self_s", "measures.brentq"),
        "measures.evals_per_root": (scan_evals + brentq_evals) / roots if roots else 0.0,
        "oracle.pdf.calls": pdf_calls,
        "oracle.pdf.self_s": mean("self_s", "oracle.pdf"),
        "oracle.pdf.distinct_ratio": pdf_distinct / pdf_calls if pdf_calls else 0.0,
        # Computed, not counted: the two complex n x n matmuls of each
        # inversion (8 real flops per complex multiply-add).
        "oracle.pdf.flops_computed": sum(16 * size**3 for s in summaries for size in s["pdf_sizes"]) / n,
        "oracle.inferred_variance.self_s": mean("self_s", "oracle.inferred_variance"),
        "oracle.entropy.self_s": mean("self_s", "oracle.entropy"),
        "oracle.moments.self_s": mean("self_s", "oracle.moments"),
        "oracle.symplectic.self_s": mean("self_s", "oracle.symplectic"),
        "verify.self_s": self_s("verify."),
        "cli.calls": mean("calls", "cli"),
        "cli.self_s": mean("self_s", "cli"),
        "cli.bytes_out": traced.out_bytes,
        "trace.pass_s": traced_pass_s,
        "trace.unattributed_s": traced_pass_s - mean("self_sum_s"),
        "trace.spans": mean("spans"),
        "trace_overhead": _calibrated_pass_s(traced, sampler) / _calibrated_pass_s(untraced, sampler) - 1.0,
    }
    for suite in ("pdf", "inferred-variance", "entropy", "moments", "symplectic", "thresholds"):
        m[f"verify.{suite}.s"] = mean("total_s", f"verify.{suite}")
    return {name: m[name] for name in PER_LAYER_UNITS}


def _setup(args):
    """Import the program, generate the inputs and run the warm-up op."""
    cli = import_program()
    ops = build(args.workload, args.seed, ROOT, OUT_DIR)
    run_op(cli.main, next(op for op in ops if op.id == WARMUP[args.workload]))
    return cli, ops


def _ledger(seed: int) -> Ledger:
    expected = json.loads(EXPECTED_DIGESTS.read_text())
    return Ledger(expected, check_seeded=seed == DEFAULT_SEED)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.trace:
        cli, ops = _setup(args)
        print("ready", flush=True)
        result, ledger = {"env": environment()}, _ledger(args.seed)
        with SpeedSampler() as sampler:
            untraced = run_passes(cli.main, ops, ledger, args.seconds / 2)
            with Tracer() as tracer:
                traced = run_passes(cli.main, ops, ledger, args.seconds / 2, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.csv.gz"
        tracer.write_spans(spans)
        result["metrics"] = layer_metrics(traced, untraced, sampler)
        result["passes"] = {"untraced": len(untraced.wall_s), "traced": len(traced.wall_s)}
        result["spans_file"] = spans.relative_to(ROOT).as_posix()
    else:
        with SpeedSampler() as sampler:
            cli, ops = _setup(args)
            # The parent times set-up up to this line; it subtracts the probe
            # time spent so far and calibrates with the median probe duration
            # (the first probes run cold, so the mean reads too slow).
            print(f"ready {sum(sampler.durations):.9f} {statistics.median(sampler.durations):.9e}", flush=True)
            if args.setup_only:
                return 0
            result, ledger = {"env": environment()}, _ledger(args.seed)
            done = run_passes(cli.main, ops, ledger, args.seconds)
        result["op_s"] = [[sampler.calibrate(begin, end) for begin, end in p] for p in done.intervals]
        result["op_wall_s"] = [[end - begin for begin, end in p] for p in done.intervals]
        result["outputs_per_pass"] = done.outputs
        result["probe_median_s"] = statistics.median(sampler.durations)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        failures_by_kind=dict(ledger.by_kind),
        failures=ledger.failures,
        digests=ledger.digests,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
