"""Benchmark operations: one cvsteer CLI call each, run in-process, checked and accounted.

An op fails on a nonzero exit code or an exception, an output digest that
differs from the expected one (or from its own earlier passes), a verify suite
that reports FAIL, a closed-form threshold that differs from its bisected
root by more than the ``verify thresholds`` tolerance, a ``MultiRootError``,
or output that does not parse.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field

# Relative tolerance of ``cvsteer verify thresholds``.
THRESHOLD_REL_TOL = 1e-6
# Failure details kept per run; every failure is still counted.
MAX_FAILURE_RECORDS = 50


@dataclass(frozen=True)
class Op:
    """One CLI invocation and how to check its output.

    ``check`` is one of "csv", "threshold", "verify", "eval".  ``seeded`` ops
    take their argv from the seed, so their expected digests only hold at the
    default seed.  ``rows`` is the expected number of CSV data rows, when
    known; ``outputs`` fixes the number of outputs the op counts for (rows,
    roots, suites or reports) when the output itself does not show it.
    """

    id: str
    argv: tuple[str, ...]
    check: str
    seeded: bool
    rows: int | None = None
    outputs: int | None = None


@dataclass
class Outcome:
    op: Op
    start: float  # time.perf_counter() when the call began
    seconds: float
    stdout: str
    digest: str
    outputs: int
    problems: list[tuple[str, str]]


def run_op(main, op: Op) -> Outcome:
    """Call ``main(argv)`` with captured stdout/stderr; only the call is timed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(op.argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # any escaping exception is a failed op
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - start
    stdout, stderr = out.getvalue(), err.getvalue()
    outputs, problems = check_output(op, code, stdout, stderr)
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    return Outcome(op, start, seconds, stdout, digest, outputs, problems)


def check_output(op: Op, code, stdout: str, stderr: str) -> tuple[int, list[tuple[str, str]]]:
    """(outputs produced, [(failure kind, detail)]) for one op's exit code and output."""
    if code != 0:
        if op.check == "verify" and code == 1 and "[FAIL]" in stdout:
            failed = [line for line in stdout.splitlines() if line.endswith("[FAIL]")]
            return 0, [("suite_fail", "; ".join(failed))]
        # MultiRootError is a CvSteerError, which main() turns into exit code 2
        # with the exception's message ("... changes sign N times ...").
        if code == 2 and "changes sign" in stderr:
            return 0, [("multiroot", stderr.strip())]
        return 0, [("exit", f"exit code {code}: {stderr.strip()[-300:]}")]
    try:
        return CHECKS[op.check](op, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return 0, [("output", f"{type(exc).__name__}: {exc}")]


def _check_csv(op: Op, stdout: str):
    lines = [line for line in stdout.splitlines() if not line.startswith("#")]
    width = len(lines[0].split(","))
    rows = lines[1:]
    for row in rows:
        fields = row.split(",")
        if len(fields) != width:
            raise ValueError(f"row {row!r} has {len(fields)} fields, header has {width}")
        for value in fields:
            float(value)  # numbers, 0/1 booleans and "inf" all parse
    if op.rows is not None and len(rows) != op.rows:
        return len(rows), [("output", f"{len(rows)} rows, expected {op.rows}")]
    return len(rows), []


def _as_time(value) -> float:
    return math.inf if value == "inf" else float(value)


def _check_threshold(op: Op, stdout: str):
    problems, roots = [], 0
    for row in json.loads(stdout):
        if row["status"] == "never-steerable":
            continue
        if row["status"] != "ok":
            raise ValueError(f"unexpected status {row['status']!r}")
        roots += 1
        closed, numeric = _as_time(row["t_closed"]), _as_time(row["t_numeric"])
        if math.isinf(closed) or math.isinf(numeric):
            rel = 0.0 if closed == numeric else math.inf
        else:
            rel = abs(closed - numeric) / max(1.0, abs(closed))
        if not rel <= THRESHOLD_REL_TOL:
            problems.append(
                ("threshold_disagree", f"{row['direction']}: closed {closed!r} vs bisected {numeric!r} (rel {rel:.3e})")
            )
    return (op.outputs if op.outputs is not None else roots), problems


def _check_verify(op: Op, stdout: str):
    lines = stdout.splitlines()
    if not lines or not all(line.endswith("[PASS]") for line in lines):
        raise ValueError(f"suite output without PASS verdicts: {stdout!r}")
    return (op.outputs if op.outputs is not None else len(lines)), []


_REPORT_KEYS = {"reid", "entropic", "steerability", "log_negativity", "verdicts"}


def _check_eval(op: Op, stdout: str):
    report = json.loads(stdout)
    missing = _REPORT_KEYS - set(report)
    if missing:
        raise KeyError(f"report lacks {sorted(missing)}")
    return 1, []


CHECKS = {"csv": _check_csv, "threshold": _check_threshold, "verify": _check_verify, "eval": _check_eval}


@dataclass
class Ledger:
    """Attempted and failed ops, failures by kind, and every op's output digest.

    ``expected`` maps op ids to sha256 digests; seeded ops are compared with it
    only when ``check_seeded`` (the run uses the default seed).  An op's
    digest must also stay the same in every pass of a run.
    """

    expected: dict[str, str]
    check_seeded: bool
    attempted: int = 0
    failed: int = 0
    by_kind: Counter = field(default_factory=Counter)
    failures: list[dict] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def record(self, outcome: Outcome) -> None:
        op, problems = outcome.op, list(outcome.problems)
        first = self.digests.setdefault(op.id, outcome.digest)
        if first != outcome.digest:
            problems.append(("digest", "output changed between passes"))
        elif not op.seeded or self.check_seeded:
            want = self.expected.get(op.id)
            if want is None:
                problems.append(("digest", "no expected digest stored for this op"))
            elif want != outcome.digest:
                problems.append(("digest", f"sha256 {outcome.digest} != expected {want}"))
        self.attempted += 1
        if problems:
            self.failed += 1
            self.by_kind.update({kind for kind, _ in problems})
            if len(self.failures) < MAX_FAILURE_RECORDS:
                self.failures.append(
                    {"op": op.id, "argv": list(op.argv), "problems": [list(p) for p in problems]}
                )

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
