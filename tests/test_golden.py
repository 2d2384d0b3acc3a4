"""Golden outputs: the CLI reproduces recorded stdout and stderr byte for byte.

``tests/golden/cli_digests.json`` holds, per case, the argument vector, the
exit code and the sha256 of stdout and of stderr.  The cases cover every
figure preset in CSV and JSON, generic sweeps over every swept variable,
channel kind and side, sweeps and reports without a channel, single-state
reports from flags and from a state file (``golden/displaced-state.json``),
threshold tables and the printed deviations and worst cases of every
`verify` suite.  A duration or swept variable that the kind has no rate for
exits 2, and its error message is pinned through the stderr digest.
A refactor that changes one printed digit fails here.

``tests/golden/cli_usage_digests.json`` pins the argument parser the same
way: help text, usage errors and unrecognized arguments, with the sha256 of
stdout and of stderr and the exit code (of ``SystemExit`` where argparse
exits), rendered at a fixed terminal width of 80 columns.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.  It prints the id of each
case whose exit code or digest it rewrites, and of each case it adds or drops.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from cvsteer.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"
USAGE_GOLDEN = Path(__file__).parent / "golden" / "cli_usage_digests.json"

_FIGURES = ("1", "2a", "2b", "3", "4", "5")
_KINDS = ("loss", "gain", "thermal", "laser", "phase-sensitive")
_SIDES = ("a", "b", "two")
_RATES = {
    "loss": ["--kappa", "0.7"],
    "gain": ["--g", "0.8"],
    "thermal": ["--kappa", "0.9", "--nbar", "0.6"],
    "laser": ["--g", "0.5", "--kappa", "1.3"],
    "phase-sensitive": ["--kappa", "1.1", "--nbar", "0.8", "--M", "-0.7"],
}
# (start, stop, extra flags) per swept variable; r and nbar sweeps need a
# duration flag (gain channels take g t, the others kappa t).
_SPANS = {
    "t": ("0", "0.6", []),
    "kt": ("0", "1.2", []),
    "gt": ("0", "1", []),
    "one-minus-T": ("0", "0.95", []),
    "r": ("0.05", "1.5", ["--kt", "0.4"]),
    "nbar": ("0.5", "1.5", ["--kt", "0.4"]),
}
_R_BY_SIDE = {"a": "0.4", "b": "0.7", "two": "1.1"}
_QUANTITIES = ("a-to-b", "b-to-a", "two-way", "inseparability", "all")


def _sweep_argv(var, kind, side, steps="11"):
    start, stop, extra = _SPANS[var]
    if kind == "gain" and extra:
        extra = ["--gt", "0.3"]
    argv = ["sweep", "--var", var, "--start", start, "--stop", stop, "--steps", steps, "--r", _R_BY_SIDE[side]]
    return argv + ["--channel", kind, "--side", side] + _RATES[kind] + extra


def cases() -> dict[str, list[str]]:
    """Case id -> argument vector."""
    out = {}
    for fig in _FIGURES:
        out[f"figure-{fig}-csv"] = ["sweep", "--figure", fig]
        out[f"figure-{fig}-json"] = ["sweep", "--figure", fig, "--format", "json"]
    out["figure-3-provenance"] = ["sweep", "--figure", "3", "--provenance"]
    out["explain-all"] = ["sweep", "--explain"]
    out["explain-4"] = ["sweep", "--figure", "4", "--explain"]
    for var in _SPANS:
        for kind in _KINDS:
            for side in _SIDES:
                out[f"sweep-{var}-{kind}-{side}"] = _sweep_argv(var, kind, side)
        kind = _KINDS[list(_SPANS).index(var) % len(_KINDS)]
        out[f"sweep-{var}-{kind}-json"] = _sweep_argv(var, kind, "two", steps="5") + ["--format", "json"]
    for var, start, stop in (("t", "0", "1"), ("r", "0", "1.2"), ("nbar", "0", "1"), ("kt", "0", "1")):
        out[f"sweep-{var}-no-channel"] = ["sweep", "--var", var, "--start", start, "--stop", stop, "--steps", "7"]
    out["sweep-r-no-channel-duration"] = ["sweep", "--var", "r", "--start", "0", "--stop", "1.2", "--steps", "7", "--t", "0.3"]
    # Zero duration is the identity channel: any valid rate prints the TMSV.
    out["sweep-r-zero-duration"] = ["sweep", "--var", "r", "--steps", "5", "--channel", "loss", "--kappa", "2"]
    out["sweep-one-minus-T-provenance"] = _sweep_argv("one-minus-T", "thermal", "b") + ["--provenance"]
    # Without --start/--stop each variable sweeps its default range; one-minus-T's stops short of 1.
    out["sweep-one-minus-T-default-range"] = ["sweep", "--var", "one-minus-T", "--channel", "loss", "--steps", "3"]
    for kind in _KINDS:
        for side in _SIDES:
            out[f"eval-{kind}-{side}"] = ["eval", "--r", _R_BY_SIDE[side], "--channel", kind, "--side", side] + _RATES[
                kind
            ] + ["--t", "0.35"]
    # Without --channel a duration leaves the state as it is; state files
    # resolve against the tests directory.
    out["eval-no-channel"] = ["eval", "--r", "0.5", "--t", "0.3"]
    out["eval-state-file"] = ["eval", "--state", "golden/displaced-state.json", "--include-state"]
    out["eval-include-state"] = ["eval", "--r", "0.9", "--channel", "laser", "--g", "2", "--kt", "0.2", "--include-state"]
    # Bath squeezing whose square overflows: checked unsquared, exit 2 beyond
    # the bound; at |M| = nbar = 1e300, within it, the evolved state is too large.
    for name, nbar in (("beyond", "1e100"), ("at", "1e300")):
        out[f"eval-huge-bath-squeezing-{name}"] = ["eval", "--r", "0.5", "--channel", "phase-sensitive", "--nbar", nbar,
                                                   "--M", "1e300", "--t", "1"]
    for kind in ("loss", "gain", "thermal", "laser"):
        out[f"threshold-{kind}-json"] = ["threshold", "--channel", kind, "--r", "0.6"] + _RATES[kind] + ["--format", "json"]
    out["threshold-laser-table"] = ["threshold", "--channel", "laser", "--r", "0.6"] + _RATES["laser"]
    # Threshold tables share one scan per channel: every quantity on every
    # channel, inseparability on each side, degenerate rates (kappa = g), a
    # thermal point with nbar >= (e^{2r} - 1)/2 and strong gain.
    tables = {}
    for kind in ("loss", "gain", "thermal", "laser"):
        for quantity in _QUANTITIES:
            tables[f"{kind}-{quantity}"] = ["--channel", kind, "--r", "0.9", "--quantity", quantity] + _RATES[kind]
    for side in _SIDES:
        tables[f"inseparability-{side}"] = ["--channel", "laser", "--r", "0.8", "--quantity", "inseparability",
                                            "--side", side] + _RATES["laser"]
    tables["degenerate-rates"] = ["--channel", "laser", "--r", "0.7", "--g", "1", "--kappa", "1"]
    tables["thermal-window"] = ["--channel", "thermal", "--r", "0.1", "--nbar", "0.2"]
    tables["strong-gain"] = ["--channel", "gain", "--r", "1.5", "--g", "3"]
    for name, flags in tables.items():
        out[f"threshold-{name}-table"] = ["threshold", *flags]
        out[f"threshold-{name}-json"] = ["threshold", *flags, "--format", "json"]
    # Roots near 1e-301: brentq's absolute tolerance scales with the horizon 50 / (g + kappa).
    out["threshold-huge-gain-table"] = ["threshold", "--channel", "laser", "--g", "1e300", "--kappa", "1", "--r", "0.5"]
    # Window-edge points where the two-way closed form divides by zero: printed nan, status disagree.
    edge = "0.11070137908008487"
    out["threshold-thermal-window-edge-table"] = ["threshold", "--channel", "thermal", "--nbar", edge, "--r", "0.1"]
    out["threshold-laser-window-edge-table"] = ["threshold", "--channel", "laser", "--g", edge, "--kappa",
                                                "1.11070137908008487", "--r", "0.1"]
    for suite in ("pdf", "inferred-variance", "entropy", "moments", "symplectic", "thresholds", "all"):
        out[f"verify-{suite}"] = ["verify", suite]
    return out


def usage_cases() -> dict[str, list[str]]:
    """Case id -> argument vector of a help or usage-error call."""
    out = {
        "no-arguments": [],
        "help-short": ["-h"],
        "help-long": ["--help"],
        "help-before-command": ["-h", "eval"],
        "unknown-command": ["foo"],
    }
    for command in ("eval", "sweep", "threshold", "verify"):
        out[f"{command}-help"] = [command, "-h"]
    out.update({
        "verify-no-suite": ["verify"],
        "verify-unknown-suite": ["verify", "nope"],
        "threshold-no-flags": ["threshold"],
        "threshold-missing-r": ["threshold", "--channel", "loss"],
        "eval-unknown-flag": ["eval", "--bogus", "1"],
        "eval-bad-float": ["eval", "--r", "x"],
        "eval-missing-value": ["eval", "--r"],
        "eval-bad-choice": ["eval", "--side", "c"],
        "sweep-bad-choice": ["sweep", "--figure", "9"],
        "eval-trailing-positional": ["eval", "--r", "0.5", "extra"],
        "verify-trailing-flag": ["verify", "pdf", "--x"],
        "eval-after-double-dash": ["eval", "--r", "1", "--", "x"],
        "eval-abbreviated-flag": ["eval", "--chan", "loss", "--r", "0.3", "--kt", "0.2"],
    })
    return out


@contextlib.contextmanager
def _chdir(path):
    """``contextlib.chdir``, which Python 3.10, the declared floor, lacks."""
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def run(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call; an argparse
    exit counts with the code of its SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with _chdir(Path(__file__).parent), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _golden(path=GOLDEN) -> dict:
    return json.loads(path.read_text())


def test_golden_cases_are_current():
    assert sorted(_golden()) == sorted(cases())
    assert sorted(_golden(USAGE_GOLDEN)) == sorted(usage_cases())


def _record_of(argv) -> dict:
    code, stdout, stderr = run(argv)
    return {"argv": argv, "exit": code, "sha256": _digest(stdout), "stderr_sha256": _digest(stderr)}


def _check(path, table, case):
    expected = _golden(path)[case]
    assert expected["argv"] == table[case]
    actual = _record_of(expected["argv"])
    assert actual["exit"] == expected["exit"]
    for key, stream in (("sha256", "stdout"), ("stderr_sha256", "stderr")):
        assert actual[key] == expected[key], f"{stream} of {' '.join(expected['argv'])} changed"


@pytest.mark.parametrize("case", sorted(cases()))
def test_cli_reproduces_golden_output(case):
    _check(GOLDEN, cases(), case)


@pytest.mark.parametrize("case", sorted(usage_cases()))
def test_cli_reproduces_golden_help_and_usage_errors(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    _check(USAGE_GOLDEN, usage_cases(), case)


def _record(path, table):
    """Rewrite the golden file of table and print each case it moves."""
    old = _golden(path) if path.exists() else {}
    records = {name: _record_of(argv) for name, argv in sorted(table.items())}
    for name in sorted(old.keys() - records.keys()):
        print(f"dropped {name}")
    for name, record in records.items():
        if name not in old:
            print(f"added {name}")
            continue
        moved = [key for key, value in record.items() if old[name].get(key) != value]
        if moved:
            print(f"rewrote {name}: {', '.join(moved)}")
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {path}")


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    _record(GOLDEN, cases())
    _record(USAGE_GOLDEN, usage_cases())
