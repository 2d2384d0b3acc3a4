"""cvsteer benchmark: ``python3 -m bench --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout; the program is imported from
``src/``, never from an installed copy.  Each workload runs in fresh
interpreters started here, with BLAS threads capped at the number of usable
CPUs through the environment:

* ``SETUP_RUNS`` interpreters that only set up, plus ``MEASURING_RUNS``
  measuring ones.  ``setup_s`` is the median, over all of them, of the
  calibrated time from starting the interpreter until it has imported
  ``cvsteer.cli``, generated its inputs and run one warm-up op.
* each measuring interpreter then runs timed passes for its share of
  ``--seconds``, and their passes are pooled.  A traced run uses one
  interpreter and no set-up runs.

Every metric is printed by name with its unit, the full record (environment,
failures with their inputs, every output digest) is written to
``.bench_out/<workload>-seed<N>-trace<T>.json``, and the last line of stdout
is the JSON summary ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs the four workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from .clock import REF_PROBE_S
from .worker import END_TO_END_UNITS, PER_LAYER_UNITS, combine
from .workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 3
# Untraced runs split --seconds over this many measuring interpreters and pool
# their passes: run-to-run spread comes partly from the process itself.
MEASURING_RUNS = 2
# Every run must end within 180 s; workers are killed past this budget.
RUN_BUDGET_S = 170.0

# The issue-facing name of a generic metric on each workload.
ALIASES = {
    "sweep": {"outputs_per_s": "rows_per_s"},
    "threshold": {"outputs_per_s": "roots_per_s"},
    "verify": {"outputs_per_s": "suites_per_s"},
    "point": {"outputs_per_s": "evals_per_s", "op_p50_ms": "eval_p50_ms", "op_tail_ms": "eval_p99_ms"},
}


class WorkerError(RuntimeError):
    pass


def _read_commit(root: Path) -> str | None:
    """HEAD's commit id when the checkout is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker(argv: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Start a worker; return (its calibrated set-up time, the rest of its stdout).

    Set-up runs from starting the interpreter until the worker prints its
    ``ready`` line.  An untraced worker appends the probe time it spent so far
    and its median probe duration, which calibrate that wall time like the
    ops' (see clock.py); a traced worker's set-up time is left uncalibrated.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.worker", *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    word, *probes = first.split()
    if word != "ready" or code != 0:
        raise WorkerError(f"worker {' '.join(argv)} exited with code {code} (ready line {first.strip()!r})")
    if probes:
        spent, probe_s = map(float, probes)
        setup_s = (setup_s - spent) * REF_PROBE_S / probe_s
    return setup_s, rest


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    nproc = str(len(os.sched_getaffinity(0)))
    # A fixed hash seed gives every run the same dict and set layouts.
    env = dict(
        os.environ, OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc, MKL_NUM_THREADS=nproc, PYTHONHASHSEED="0"
    )
    base = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if trace:
        # Set-up time is only reported by untraced runs.
        setups, rest = [], _worker(base + ["--seconds", str(seconds)], env, deadline)[1]
        result = json.loads(rest.strip().splitlines()[-1])
    else:
        share = ["--seconds", str(seconds / MEASURING_RUNS)]
        setups = [_worker(base + share + ["--setup-only"], env, deadline)[0] for _ in range(SETUP_RUNS)]
        parts = []
        for _ in range(MEASURING_RUNS):
            setup_s, rest = _worker(base + share, env, deadline)
            setups.append(setup_s)
            parts.append(json.loads(rest.strip().splitlines()[-1]))
        result = combine(parts)
        result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    result["env"].update(commit=_read_commit(ROOT), seed=seed, traced=bool(trace), workload=workload)
    return result


def _print_summary(workload: str, result: dict, trace: int) -> None:
    env = result["env"]
    print(
        f"== {workload}  seed={env['seed']}  trace={trace}  commit={env['commit']}  python {env['python']}  "
        f"numpy {env['numpy']}  scipy {env['scipy']}  blas {env['blas']} ({env['blas_threads']} threads)  "
        f"nproc {env['nproc']}  passes {result['passes']}"
    )
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    aliases = {} if trace else ALIASES[workload]
    for name, value in result["metrics"].items():
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        extra = ""
        if name == "op_p50_ms":
            extra = f"  (n={result['op_samples']})"
        elif name == "op_tail_ms":
            extra = f"  (p{100 * result['op_tail_quantile']:.4g}, n={result['op_samples']})"
        print(f"  {name:<34} {value:>16.6g} {units[name]}{alias}{extra}")
    if "raw_wall" in result:
        raw = "  ".join(f"{k} {v:.6g}" for k, v in result["raw_wall"].items())
        print(f"  uncalibrated wall time: {raw}  (median probe {result['probe_median_s']:.4g} s)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_rate':<34} {failed / attempted:>16.6g} fraction  ({failed}/{attempted} ops)")
    print(f"  failures by kind: {result['failures_by_kind'] or 'none'}")
    for failure in result["failures"]:
        print(f"  FAILED {failure['op']}: {failure['problems']}  argv={' '.join(failure['argv'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 reports per-layer metrics")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "cvsteer" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no cvsteer sources (src/cvsteer)", file=sys.stderr)
        return 2

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(exist_ok=True)
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except (WorkerError, ValueError, KeyError, IndexError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        out = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1, sort_keys=True))
        _print_summary(workload, result, args.trace)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, value in result["metrics"].items():
            summary["metrics"][prefix + name] = {"value": value, "unit": units[name]}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
