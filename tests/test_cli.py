"""Command-line interface: subcommands, formats, determinism, exit codes."""

import contextlib
import io
import itertools
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvsteer
from cvsteer import channels, criteria, measures
from cvsteer.channels import _KIND_RATES, ChannelSide, ChannelSpec, thermal_preset
from cvsteer.cli import FIGURE_PRESETS, _MAX_STEPS, _PRESET_RATES, _X_TO_T, _command_parser, _fmt, _preset_rows
from cvsteer.cli import _json_text, _write_table, main
from cvsteer.cli import state_from_dict, state_to_dict
from cvsteer.errors import DegenerateInputError
from cvsteer.measures import SteeringReport, ThresholdResult, _closed_form, _report_columns
from cvsteer.states import make_tmsv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_state_json_round_trip():
    s = make_tmsv(0.8)
    again = state_from_dict(state_to_dict(s))
    assert again == s
    with pytest.raises(Exception):
        state_from_dict({"mean": [0, 0, 0, 0]})


def test_eval_tmsv(capsys):
    code, out, _ = run_cli(capsys, "eval", "--r", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["reid"]["a_to_b"] == pytest.approx(0.104994, abs=1e-6)
    assert report["log_negativity"] == pytest.approx(1.0, abs=1e-9)
    assert report["verdicts"]["steerable_a_to_b"] is True


def test_eval_vacuum_all_zero_steering(capsys):
    code, out, _ = run_cli(capsys, "eval", "--r", "0")
    assert code == 0
    report = json.loads(out)
    assert report["steerability"] == {"a_to_b": 0.0, "b_to_a": 0.0}
    assert report["log_negativity"] == 0.0
    assert report["verdicts"]["entangled"] is False


def test_eval_loss_kills_steering_before_entanglement(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--r", "0.5", "--channel", "loss", "--kt", "0.4", "--side", "two"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["steerable_a_to_b"] is False
    assert report["verdicts"]["steerable_b_to_a"] is False
    assert report["verdicts"]["entangled"] is True


def test_eval_from_state_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_dict(make_tmsv(0.5))))
    code, out, _ = run_cli(capsys, "eval", "--state", str(path))
    assert code == 0
    assert json.loads(out)["log_negativity"] == pytest.approx(1.0, abs=1e-9)


def test_eval_conflicting_time_flags_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--r", "0.5", "--channel", "loss", "--t", "1", "--kt", "1"
    )
    assert code == 2
    assert "at most one" in err


def test_sweep_generic_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--var", "kt", "--start", "0", "--stop", "0.6", "--steps", "4",
        "--r", "0.5", "--channel", "loss", "--side", "two",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("kt,reid_a_to_b,")
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[-1] == "0"  # separable flag


def test_sweep_is_deterministic(capsys):
    args = ("sweep", "--figure", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_sweep_figure_presets_are_data():
    preset = FIGURE_PRESETS["3"]
    assert preset["r_values"] == [0.5]
    assert preset["gamma_values"] == [0.5, 1.0, 2.0]
    assert FIGURE_PRESETS["2a"]["r_values"] == [0.5, 0.88]
    assert FIGURE_PRESETS["4"]["m_values"][2] == pytest.approx(math.sqrt(2.0))


def test_sweep_explain(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--figure", "3", "--explain")
    assert code == 0
    assert json.loads(out)["columns"][0] == "kt"


def test_sweep_out_file_and_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CVSTEER_OUT_DIR", str(tmp_path))
    code, out, _ = run_cli(
        capsys,
        "sweep", "--var", "kt", "--start", "0", "--stop", "0.2", "--steps", "2",
        "--r", "0.5", "--channel", "loss", "--out", "data.csv",
    )
    assert code == 0
    assert out == ""
    written = (tmp_path / "data.csv").read_text()
    assert written.startswith("kt,")


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--var", "kt", "--start", "0", "--stop", "0.2", "--steps", "2",
        "--r", "0.5", "--channel", "loss", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["steerable_a_to_b"] is True


def _json_ready(value):
    """The writer's rounding as an input to json.dumps: a copy of the
    converter that every JSON output went through before ``_json_text``."""
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            return None
        return float(f"{value:.12g}")
    return value


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # +-inf, NaN, -0.0 and subnormals included
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e-300, 1e308, 0.1 + 0.2]),
    st.text(),  # non-ASCII, quotes, backslashes and control characters included
    st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é", "\u2028", "𝔼_N"]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(st.text(), inner)),
    max_leaves=40,
)


@given(_JSON_VALUES)
@example({"a\"b\n": ["é", (), {}], "": {"x": [[]], "y": (1.5, True, None, -0.0, math.inf, -math.inf, math.nan)}})
def test_json_text_is_json_dumps_of_the_rounded_value(value):
    assert _json_text(value) == json.dumps(_json_ready(value), indent=2)


@pytest.mark.parametrize("value", [np.bool_(True), {1, 2}, [np.int64(3)], {"a": (0.5, {0.5})}, b"x", 1j])
def test_json_text_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(_json_ready(value), indent=2)
    with pytest.raises(TypeError):
        _json_text(value)


_GENERIC_SWEEP_FLAGS = {
    "--var": "t", "--start": "0", "--stop": "1", "--channel": "loss", "--g": "1", "--kappa": "5", "--nbar": "1",
    "--M": "0", "--t": "1", "--kt": "1", "--gt": "1",
}


@pytest.mark.parametrize("mode", [("--figure", "3"), ("--explain",), ("--figure", "4", "--explain")],
                         ids=["figure", "explain", "figure-explain"])
@pytest.mark.parametrize("flag", list(_GENERIC_SWEEP_FLAGS))
def test_sweep_figure_and_explain_refuse_the_flags_they_do_not_read(capsys, mode, flag):
    reader = "--explain" if "--explain" in mode else "--figure"
    code, out, err = run_cli(capsys, "sweep", *mode, flag, _GENERIC_SWEEP_FLAGS[flag])
    assert (code, out, err) == (2, "", f"error: {flag} not read by {reader}\n")


def test_sweep_figure_names_every_unread_flag_and_keeps_its_output_flags(capsys):
    assert run_cli(capsys, "sweep", "--figure", "3", "--channel", "loss", "--kappa", "5") == (
        2, "", "error: --channel, --kappa not read by --figure\n"
    )
    code, out, err = run_cli(capsys, "sweep", "--figure", "3", "--provenance")
    assert (code, err) == (0, "") and out.startswith("# cvsteer sweep --figure 3\n")
    assert run_cli(capsys, "sweep", "--figure", "3", "--format", "json")[::2] == (0, "")


def test_sweep_without_figure_or_var_exits_2(capsys):
    code, _, err = run_cli(capsys, "sweep")
    assert code == 2
    assert "figure" in err


def test_sweep_unknown_preset_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--figure", "7"])
    assert exc.value.code == 2


def test_threshold_table(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--channel", "loss", "--r", "0.5", "--quantity", "b-to-a"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split()[0] == "direction"
    fields = lines[1].split()
    assert fields[0] == "b_to_a"
    assert float(fields[1]) == pytest.approx(0.346574, abs=1e-6)
    assert fields[-1] == "ok"


def test_threshold_json_inf_serialization(capsys):
    code, out, _ = run_cli(
        capsys,
        "threshold", "--channel", "loss", "--r", "0.5", "--quantity", "a-to-b",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["t_closed"] == "inf"
    assert rows[0]["t_numeric"] == "inf"


def test_threshold_thermal_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "threshold", "--channel", "thermal", "--r", "0.5", "--nbar", "1",
        "--quantity", "b-to-a", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["t_closed"] == pytest.approx(0.143841, abs=1e-6)


@pytest.mark.xfail(strict=True, reason="two_way_thermal_threshold(nbar, r) ignores --kappa (ROADMAP item 4)")
def test_threshold_thermal_two_way_time_scales_with_kappa(capsys):
    def t_closed(kappa):
        code, out, _ = run_cli(
            capsys,
            "threshold", "--channel", "thermal", "--kappa", kappa, "--nbar", "0.5", "--r", "1",
            "--quantity", "two-way", "--format", "json",
        )
        assert code == 0
        return json.loads(out)[0]["t_closed"]

    assert t_closed("2") == pytest.approx(t_closed("1") / 2, rel=1e-12)


@pytest.mark.parametrize(("g", "beyond"), [("1e-300", {"a_to_b", "inseparability"}), ("1e300", {"b_to_a", "inseparability"})])
def test_threshold_closed_form_beyond_scan_horizon_is_flagged(capsys, g, beyond):
    # t_max = 50 / (g + kappa); each flagged row has an infinite bisected root
    # and a finite closed form past t_max, which the scan cannot confirm.
    code, out, _ = run_cli(capsys, "threshold", "--channel", "laser", "--g", g, "--kappa", "1", "--r", "0.5")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    t_max = 50.0 / (float(g) + 1.0)
    for direction, t_closed, t_numeric, _, status in rows:
        flagged = t_numeric == "inf" and t_max < float(t_closed) < math.inf
        assert status == ("beyond-scan-horizon" if flagged else "ok")
    assert {row[0] for row in rows if row[-1] != "ok"} == beyond


def fresh_python(*args):
    """(exit code, stdout, stderr) of ``python *args`` in a new interpreter
    that imports this cvsteer."""
    src = str(Path(cvsteer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def fresh_cli(*argv):
    """(exit code, stdout, stderr) of ``python -m cvsteer`` in a new interpreter."""
    return fresh_python("-m", "cvsteer", *argv)


def modules_after(*calls, names=("scipy", "scipy.optimize", "scipy.linalg", "mpmath")):
    """In a new interpreter, import cvsteer.cli and run each argv through
    ``main``; after each call, the modules of ``names`` then loaded (by
    default scipy's of interest and mpmath, a test-only dependency)."""
    script = (
        "import contextlib, io, sys\n"
        "from cvsteer import cli\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(list(argv)) == 0, argv\n"
        f"    print(' '.join(m for m in {names!r} if m in sys.modules))\n"
    )
    code, out, err = fresh_python("-c", script)
    assert code == 0, err
    return [line.split() for line in out.splitlines()]


def test_eval_and_sweep_load_no_scipy():
    # scipy takes longer to import than these calls take to run, and mpmath
    # is for tests only.
    calls = (("eval", "--r", "0.5", "--channel", "thermal", "--nbar", "0.5", "--t", "0.3"), ("sweep", "--figure", "1"))
    assert modules_after(*calls) == [[], []]


def test_threshold_and_random_states_load_their_scipy_module():
    # Bisected roots go through measures' own brentq, so only the random
    # states of the oracle suites need scipy (scipy.linalg.expm).
    threshold = ("threshold", "--channel", "loss", "--r", "0.6", "--quantity", "b-to-a", "--side", "b")
    calls = (threshold, ("verify", "thresholds"), ("verify", "symplectic"))
    after_threshold, after_thresholds_suite, after_symplectic = modules_after(*calls)
    assert after_threshold == after_thresholds_suite == []
    assert after_symplectic == ["scipy", "scipy.linalg"]


def test_only_verify_loads_the_oracle_suites():
    # The oracle suites and their scipy are for ``verify`` alone; every other
    # command's process skips their import (ROADMAP item 13).  No command
    # needs numpy.ma, which np.unique imports on its first call.
    calls = (
        ("eval", "--r", "0.5", "--channel", "loss", "--t", "0.2"),
        ("sweep", "--figure", "1"),
        ("threshold", "--channel", "laser", "--g", "0.1", "--kappa", "1", "--r", "0.5"),
        ("verify", "thresholds"),
    )
    after = modules_after(*calls, names=("cvsteer.verify", "cvsteer.oracle", "scipy", "numpy.ma"))
    assert after == [[], [], [], ["cvsteer.verify", "cvsteer.oracle"]]


def test_python_m_cvsteer_runs_the_cli(capsys):
    code, out, _ = run_cli(capsys, "eval", "--r", "0.5")
    assert fresh_cli("eval", "--r", "0.5")[:2] == (code, out)


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "pdf")
    assert code == 0
    assert "[PASS]" in out


def test_eval_overflowing_gain_exits_2_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "eval", "--r", "0.5", "--channel", "gain", "--g", "3", "--t", "50")
    assert code == 2
    assert out == ""
    assert "det V would overflow" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--r", "0.5", "--channel", "gain", "--g", "3", "--t", "200"),
        ("sweep", "--var", "gt", "--start", "0", "--stop", "200", "--steps", "5", "--channel", "gain", "--g", "3"),
    ],
)
def test_exp_overflow_exits_2_without_warnings(capsys, argv):
    # exp(2 g t) itself overflows here, in the one-state and the batched map.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "overflow" in err


@pytest.mark.parametrize("side", ["a", "b", "two"])
@pytest.mark.parametrize(
    ("kind", "rates", "duration", "bath", "near_limit"),
    [
        ("loss", ("--kappa",), ("--kt", "0.3"), (), "1e308"),
        ("gain", ("--g",), ("--gt", "0.3"), (), "1e308"),
        ("thermal", ("--kappa",), ("--kt", "0.3"), ("--nbar", "0.2"), "1e308"),
        ("phase-sensitive", ("--kappa",), ("--kt", "0.3"), ("--nbar", "0.2", "--M", "0.1"), "1e308"),
        ("laser", ("--g", "--kappa"), ("--kt", "1"), (), repr(2.0**1023)),
    ],
    ids=["loss", "gain", "thermal", "phase-sensitive", "laser"],
)
def test_a_rate_near_the_float_limit_evolves_as_rate_one(capsys, kind, rates, duration, bath, near_limit, side):
    # 2 * rate overflows from rate ~ 9e307 on while rate * t stays 0.3, so
    # the channel factors take rate * t first and then scale by 2.  The laser
    # channel's kappa + g = 2^1024 overflows too, so it adds kappa t and g t,
    # here 2^1023 * 2^-1023 = 1 each, exactly.
    def report(value):
        flags = [arg for rate in rates for arg in (rate, value)]
        return run_cli(capsys, "eval", "--r", "0.8", "--channel", kind, "--side", side, *flags, *duration, *bath)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near = report(near_limit)
    assert near == report("1") and near[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--var", "kt", "--channel", "loss", "--kappa", "1e-310", "--steps", "3"),
        ("sweep", "--var", "gt", "--channel", "gain", "--g", "1e-310", "--steps", "3"),
        ("eval", "--r", "0.5", "--channel", "loss", "--kappa", "1e-320", "--kt", "0.3"),
    ],
)
def test_duration_over_a_subnormal_rate_exits_2_without_warnings(capsys, argv):
    # kt / kappa overflows to inf, which is no duration, swept or scalar.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, *argv) == (2, "", "error: durations must be finite and >= 0\n")


@pytest.mark.parametrize("stop", ["1", "1.5"])
def test_sweep_one_minus_t_outside_unit_interval_exits_2(capsys, stop):
    # 1 - T = 1 - e^{-2t} < 1 for every finite duration; log1p(-x) fails at x >= 1.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys,
            "sweep", "--var", "one-minus-T", "--start", "0", "--stop", stop, "--steps", "3", "--channel", "loss",
        )
    assert code == 2
    assert out == ""
    assert err == f"error: one-minus-T must be in [0, 1), got {float(stop):.12g}\n"


_IDENTITY_ROWS = "[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]"


@pytest.mark.parametrize(
    ("content", "message"),
    [
        (f'{{"mean": [0, 0, 0, 0], "cm": [["a", 0, 0, 0], {_IDENTITY_ROWS}]}}',
         "cm must be an array of real numbers: could not convert string to float: 'a'"),
        (f'{{"mean": [0, 0, 0, 0], "cm": [[1, 0, 0], {_IDENTITY_ROWS}]}}', "cm must be an array of real numbers: "),
        (f'{{"mean": [{{"a": 1}}, 0, 0, 0], "cm": [[1, 0, 0, 0], {_IDENTITY_ROWS}]}}',
         "mean must be an array of real numbers: float() argument must be"),
        (f'{{"mean": [0, 0, 0, 0], "cm": [[1{"0" * 400}, 0, 0, 0], {_IDENTITY_ROWS}]}}',
         "cm must be an array of real numbers: int too large to convert to float"),
        # numpy would read these two as 1.0; a state file holds JSON numbers only.
        (f'{{"mean": [0, 0, 0, 0], "cm": [["1", 0, 0, 0], {_IDENTITY_ROWS}]}}',
         'cm must be an array of real numbers: got the string "1"'),
        (f'{{"mean": [true, 0, 0, 0], "cm": [[1, 0, 0, 0], {_IDENTITY_ROWS}]}}',
         "mean must be an array of real numbers: got the boolean true"),
        (f'{{"mean": [[0, 0], [0, 0]], "cm": [[1, 0, 0, 0], {_IDENTITY_ROWS}]}}',
         "mean must have 4 entries, got shape (2, 2)"),
    ],
    ids=[
        "string-entry", "ragged-cm", "object-in-mean", "401-digit-integer", "numeric-string-entry", "boolean-in-mean",
        "nested-mean",
    ],
)
def test_eval_state_file_with_malformed_values_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "state.json"
    path.write_text(content)
    code, out, err = run_cli(capsys, "eval", "--state", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


@pytest.mark.parametrize(("content", "message"), [("[1,2", "not a JSON state file"), ("[1,2]", "must be an object")])
def test_eval_malformed_state_file_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "state.json"
    path.write_text(content)
    code, out, err = run_cli(capsys, "eval", "--state", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_cli_keeps_no_state_between_calls(capsys):
    # A flag given to one call must not leak into the next, whatever ran between.
    assert run_cli(capsys, "eval", "--channel", "loss", "--kt", "0.2")[0] == 0
    assert run_cli(capsys, "sweep", "--var", "r", "--steps", "3", "--channel", "gain", "--gt", "0.1")[0] == 0
    assert run_cli(capsys, "eval", "--r", "0.3") == fresh_cli("eval", "--r", "0.3")


@pytest.mark.parametrize("argv", [("eval", "--r", "0.5"), ("threshold", "--channel", "loss", "--r", "0.5", "--side", "b")])
def test_main_without_arguments_reads_sys_argv(capsys, monkeypatch, argv):
    # The console script calls main() with no arguments.
    expected = run_cli(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["cvsteer", *argv])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected


def test_main_without_arguments_reports_usage_errors_of_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["cvsteer", "eval", "--r", "0.5", "extra"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("cvsteer: error: unrecognized arguments: extra\n")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("--channel", "loss", "--r", "1e-9", "--kappa", "0.23"), "error: r = 1e-09 is outside ("),
        (("--channel", "loss", "--r", "400", "--kappa", "1"), "error: r = 400.0 is outside ("),
        (("--channel", "laser", "--g", "1e-320", "--kappa", "1e-320", "--r", "0.5"), "error: g + kappa = "),
    ],
    ids=["tiny-r", "huge-r", "underflowing-rate-sum"],
)
def test_threshold_out_of_range_input_exits_2_naming_it(capsys, argv, message):
    # 1e-9: the two-way closed form divided 0 by 0; 400: cosh 2r overflowed;
    # an underflowing g + kappa reported the internal t_max instead.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "threshold", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(message) and len(err.splitlines()) == 1
    assert "t_max" not in err


@pytest.mark.parametrize(
    ("g", "kappa", "flags", "direction", "num", "den"),
    [
        (7.2514e164, 2.47608e-253, ("--quantity", "inseparability", "--side", "b"), "inseparability", 2.47608e-253,
         7.2514e164),
        (1e300, 1e-300, ("--quantity", "b-to-a"), "b_to_a", 2e-300, 1e300),
    ],
    ids=["inseparability-kappa-over-g", "b-to-a-2kappa-over-sum"],
)
def test_threshold_closed_form_of_an_underflowing_rate_ratio(capsys, g, kappa, flags, direction, num, den):
    # num / den underflows to 0, so ln(num / den) failed; the closed form is
    # ln(num) - ln(den) over 2 (kappa - g), past the scan horizon 50 / (g + kappa).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(
            capsys, "threshold", "--channel", "laser", "--g", str(g), "--kappa", str(kappa), "--r", "0.94", *flags
        )
    assert code == 0
    row, = [line.split() for line in out.splitlines()[1:] if line.startswith(direction)]
    _, t_closed, t_numeric, _, status = row
    assert float(t_closed) == pytest.approx((math.log(num) - math.log(den)) / (2.0 * (kappa - g)), rel=1e-11)
    assert float(t_closed) > 50.0 / (g + kappa)
    assert (t_numeric, status) == ("inf", "beyond-scan-horizon")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("eval", "--r", "0.5", "--kt", "0.3"), "error: --kt needs a channel with a positive loss rate\n"),
        (("eval", "--r", "0.5", "--gt", "0.3", "--g", "2"), "error: --gt needs a channel with a positive gain rate\n"),
        (("sweep", "--var", "kt", "--steps", "3"), "error: sweeping kt needs a channel with a positive loss rate\n"),
        # The TMSV is built before the duration is read, so a bad --r is reported first.
        (("eval", "--r", "-1", "--kt", "0.3"), "error: squeezing parameter must be >= 0, got -1.0\n"),
        (("eval", "--r", "nan", "--t", "1", "--kt", "1"), "error: squeezing parameter must be finite, got nan\n"),
        # An r sweep reads its duration first.
        (("sweep", "--var", "r", "--start", "-1", "--steps", "3", "--kt", "0.3"),
         "error: --kt needs a channel with a positive loss rate\n"),
        # The identity channel checks its durations as every other channel does.
        (("eval", "--r", "0.5", "--t", "-1"), "error: durations must be finite and >= 0\n"),
        (("sweep", "--var", "t", "--start", "-1", "--steps", "3"), "error: durations must be finite and >= 0\n"),
    ],
)
def test_duration_without_channel_exits_2(capsys, argv, message):
    # No --channel is the identity channel: it checks durations as any channel
    # does, and it has no rate to scale kt or gt by.
    assert run_cli(capsys, *argv) == (2, "", message)


def test_r_sweep_checks_each_tmsv_before_the_channel(capsys):
    # The channel shrinks the state back under the scale limit, so only the
    # TMSV's own check rejects r = 90, as eval --r 90 does.
    code, out, err = run_cli(
        capsys, "sweep", "--var", "r", "--start", "88.5", "--stop", "90", "--steps", "2", "--channel", "loss", "--kt", "2"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: covariance scale 1.489e+78 exceeds") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--r", "400"),
        ("eval", "--r", "1e308"),
        ("sweep", "--var", "r", "--start", "0", "--stop", "1e3", "--steps", "3"),
    ],
)
def test_overflowing_squeezing_exits_2_without_warnings(capsys, argv):
    # cosh 2r and sinh 2r (and 2r itself at 1e308) overflow to inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: covariance matrix must be finite\n"


def test_threshold_row_without_a_root_inside_the_scan_is_unresolved(capsys):
    # At r = 1e-6 the one-side E_N sinks into the scan's noise band: the scan
    # finds no root although the closed form ln 2 lies inside t_max = 50 / 1.5.
    code, out, _ = run_cli(capsys, "threshold", "--channel", "laser", "--r", "1e-6", "--g", "0.5", "--kappa", "1",
                           "--quantity", "inseparability", "--side", "b")
    assert code == 0
    (direction, t_closed, t_numeric, _, status), = [line.split() for line in out.splitlines()[1:]]
    assert (direction, t_numeric, status) == ("inseparability", "inf", "unresolved")
    assert float(t_closed) == pytest.approx(math.log(2.0), rel=1e-11)


def test_threshold_row_whose_closed_form_misses_the_root_disagrees(capsys):
    # Near r = 2.3e-7 the bisected b_to_a root is 1.6e-3 off ln 2 / (2 kappa),
    # which the closed form gives (ROADMAP item 2): the row must not read ok.
    code, out, _ = run_cli(capsys, "threshold", "--channel", "loss", "--kappa", "0.23", "--r", "2.3e-7",
                           "--quantity", "b-to-a", "--side", "b")
    assert code == 0
    (direction, t_closed, t_numeric, _, status), = [line.split() for line in out.splitlines()[1:]]
    assert (direction, status) == ("b_to_a", "disagree")
    assert float(t_closed) == pytest.approx(math.log(2.0) / 0.46, rel=1e-11)
    assert float(t_numeric) == pytest.approx(1.50839, rel=1e-5)


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("eval", "--r", "0.5", "--kappa", "2", "--t", "1"), "error: --kappa given without --channel\n"),
        (("eval", "--r", "0.5", "--g", "2"), "error: --g given without --channel\n"),
        (("eval", "--r", "0.5", "--nbar", "1", "--M", "0.5"), "error: --nbar, --M given without --channel\n"),
        (("sweep", "--var", "t", "--steps", "3", "--kappa", "2"), "error: --kappa given without --channel\n"),
        (("sweep", "--var", "r", "--steps", "3", "--g", "1", "--t", "0.2"), "error: --g given without --channel\n"),
        (("sweep", "--var", "nbar", "--steps", "3", "--nbar", "1"),
         "error: --nbar, --var nbar given without --channel\n"),
        (("eval", "--r", "0.5", "--channel", "loss", "--nbar", "5", "--M", "2", "--kt", "0.3"),
         "error: --nbar, --M not read by --channel loss\n"),
        (("eval", "--r", "0.5", "--channel", "gain", "--kappa", "2", "--gt", "0.3"),
         "error: --kappa not read by --channel gain\n"),
        (("eval", "--r", "0.5", "--channel", "thermal", "--M", "0.5"), "error: --M not read by --channel thermal\n"),
        (("sweep", "--var", "t", "--steps", "3", "--channel", "laser", "--nbar", "1"),
         "error: --nbar not read by --channel laser\n"),
        (("sweep", "--var", "r", "--steps", "3", "--channel", "phase-sensitive", "--g", "1", "--kt", "0.2"),
         "error: --g not read by --channel phase-sensitive\n"),
        (("threshold", "--channel", "loss", "--r", "0.5", "--g", "2"), "error: --g not read by --channel loss\n"),
    ],
)
def test_rate_flags_without_channel_exit_2(capsys, argv, message):
    # A rate flag that the channel kind does not read is a mistake, not a
    # no-op; the identity channel (no --channel) reads no rates at all.
    assert run_cli(capsys, *argv) == (2, "", message)


_BAD_RATES = [
    (("eval", "--r", "0.5", "--channel", "thermal", "--kappa", "1", "--nbar", "-1"),
     "error: nbar must be finite and >= 0, got -1.0\n"),
    (("eval", "--r", "0.5", "--channel", "laser", "--kappa", "-2"), "error: kappa must be finite and >= 0, got -2.0\n"),
    (("eval", "--r", "0.5", "--channel", "phase-sensitive", "--nbar", "1", "--M", "3"),
     "error: |m|^2 = 9 exceeds nbar(nbar+1) = 2\n"),
    (("sweep", "--var", "nbar", "--channel", "thermal", "--kappa", "1", "--start", "-1", "--stop", "1", "--steps", "3"),
     "error: nbar must be finite and >= 0, got -1.0\n"),
    (("sweep", "--var", "nbar", "--channel", "phase-sensitive", "--M", "1", "--start", "0", "--stop", "1", "--steps", "3"),
     "error: |m|^2 = 1 exceeds nbar(nbar+1) = 0\n"),
    (("sweep", "--var", "r", "--channel", "gain", "--g", "nan", "--steps", "3"), "error: g must be finite and >= 0, got nan\n"),
]


@pytest.mark.parametrize("duration", [(), ("--t", "1")], ids=["zero-duration", "positive-duration"])
@pytest.mark.parametrize(("argv", "message"), _BAD_RATES)
def test_bad_rate_flags_exit_2_at_every_duration(capsys, argv, message, duration):
    # The rates are checked when the channel is made, so a zero duration
    # rejects a bad rate flag with the message a positive duration gives.
    assert run_cli(capsys, *argv, *duration) == (2, "", message)


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("eval", "--r", "0.5", "--channel", "loss", "--kappa", "-1", "--gt", "0.3"),
         "error: kappa must be finite and >= 0, got -1.0\n"),
        (("eval", "--r", "0.5", "--channel", "thermal", "--nbar", "-1", "--g", "1"),
         "error: nbar must be finite and >= 0, got -1.0\n"),
        (("sweep", "--var", "kt", "--steps", "3", "--channel", "phase-sensitive", "--M", "1", "--g", "1"),
         "error: |m|^2 = 1 exceeds nbar(nbar+1) = 0\n"),
    ],
    ids=["before-a-duration-error", "before-an-unread-flag", "sweep-before-an-unread-flag"],
)
def test_a_bad_rate_is_reported_before_the_flags_other_faults(capsys, argv, message):
    # The channel is made, and its rates checked, before the durations and
    # the unread rate flags are looked at.
    assert run_cli(capsys, *argv) == (2, "", message)


@pytest.mark.parametrize("value", ["-1", "nan"])
@pytest.mark.parametrize(
    ("kind", "rate"),
    [(kind, rate) for kind in ("loss", "gain", "thermal", "laser") for rate in _KIND_RATES[kind]],
)
def test_threshold_reports_a_bad_rate_as_eval_does(capsys, kind, rate, value):
    # One rate rule and message for the channel map and for threshold rows.
    code, out, err = run_cli(capsys, "threshold", "--channel", kind, f"--{rate}", value, "--r", "0.5")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {rate} must be finite and >= 0, got ")
    assert run_cli(capsys, "eval", "--r", "0.5", "--channel", kind, f"--{rate}", value, "--t", "1") == (2, "", err)


def test_phase_sensitive_nbar_sweep_checks_each_row_not_the_base_nbar(capsys):
    # The flags' nbar is the default 0, which fails |M|^2 <= nbar(nbar + 1)
    # for M = 1; only the swept values, all >= 1, make channels.
    argv = ("sweep", "--var", "nbar", "--channel", "phase-sensitive", "--M", "1")
    code, out, err = run_cli(capsys, *argv, "--start", "1", "--stop", "2", "--steps", "3", "--kt", "0.4")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 3


@pytest.mark.parametrize(
    ("argv", "code", "err"),
    [
        (["eval", "--r", "0.5"], 0, ""),
        (["eval", "--r", "0.5", "--t", "-1"], 2, "error: durations must be finite and >= 0\n"),
    ],
    ids=["ok", "bad-duration"],
)
def test_python_m_cvsteer_runs_main(capsys, monkeypatch, argv, code, err):
    expected = run_cli(capsys, *argv)
    assert expected[::2] == (code, err)
    monkeypatch.setattr(sys, "argv", ["cvsteer", *argv])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("cvsteer", run_name="__main__")
    captured = capsys.readouterr()
    assert (info.value.code, captured.out, captured.err) == expected


# Each duration flag and swept variable, with the rate it counts in (or is).
_NEEDED_RATE = {
    "--kt": "kappa",
    "--gt": "g",
    "--var kt": "kappa",
    "--var gt": "g",
    "--var one-minus-T": "kappa",
    "--var nbar": "nbar",
}


@pytest.mark.parametrize("flag", list(_NEEDED_RATE))
@pytest.mark.parametrize("kind", list(_KIND_RATES))
def test_a_duration_or_swept_rate_exits_2_exactly_when_the_kind_lacks_its_rate(capsys, kind, flag):
    channel = () if kind == "identity" else ("--channel", kind)
    if flag.startswith("--var"):
        var = flag.split()[1]
        argv, source = ("sweep", "--var", var, "--stop", "0.5", "--steps", "3", *channel), f"sweeping {var}"
    else:
        argv, source = ("eval", "--r", "0.5", *channel, flag, "0.3"), flag
    code, out, err = run_cli(capsys, *argv)
    if _NEEDED_RATE[flag] in _KIND_RATES[kind]:
        assert (code, err) == (0, "") and out
    elif flag == "--var nbar":
        where = "given without --channel" if kind == "identity" else f"not read by --channel {kind}"
        assert (code, out, err) == (2, "", f"error: --var nbar {where}\n")
    else:
        which = "gain" if _NEEDED_RATE[flag] == "g" else "loss"
        assert (code, out, err) == (2, "", f"error: {source} needs a channel with a positive {which} rate\n")


def test_steps_above_the_cap_exit_2_before_allocating(capsys):
    for steps, message in ((_MAX_STEPS + 1, f"<= {_MAX_STEPS}, got {_MAX_STEPS + 1}"), (1, ">= 2")):
        argv = ("sweep", "--var", "t", "--channel", "loss", "--kappa", "1", "--stop", "1", "--steps", str(steps))
        assert run_cli(capsys, *argv) == (2, "", f"error: --steps must be {message}\n")


def test_subcommand_parser_is_built_once_and_keeps_no_state(capsys):
    assert _command_parser("eval") is _command_parser("eval")
    code, out, _ = run_cli(capsys, "sweep", "--var", "r", "--steps", "3")
    assert (code, len(out.splitlines())) == (0, 1 + 3)
    code, out, _ = run_cli(capsys, "sweep", "--var", "r")
    assert (code, len(out.splitlines())) == (0, 1 + 51)


def _exp2(t):
    return math.inf if math.isinf(t) else math.exp(2.0 * t)


def test_figure_1_cells_equal_the_public_closed_forms_bit_for_bit():
    columns, rows = _preset_rows("1")
    assert len(rows) == FIGURE_PRESETS["1"]["grid"] ** 2
    window = 0
    for nbar, r, ab, ba, two in rows:
        rates = thermal_preset(1.0, nbar, 0.0)
        one_side = ChannelSpec("laser", ChannelSide.B, g=rates.g, kappa=rates.kappa)
        t_ab, t_ba = (_closed_form(one_side, direction, r) for direction in ("a_to_b", "b_to_a"))
        t_two = _closed_form(ChannelSpec("thermal", kappa=1.0, nbar=nbar), "two-way", r)
        assert (ab, ba, two) == (_exp2(t_ab), _exp2(t_ba), _exp2(t_two))
        window += nbar >= 0.5 * math.expm1(2.0 * r)  # the never-steerable window
    assert window > 0  # the never-steerable window is covered, where the cell reads 1
    assert sum(row[4] == 1.0 for row in rows) == window


def test_figure_1_builds_no_per_cell_objects(monkeypatch):
    counts = {"ChannelSpec": 0, "ThresholdResult": 0, "describe": 0}

    def counting(cls, name, attr):
        original = getattr(cls, attr)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, attr, wrapper)

    counting(ChannelSpec, "ChannelSpec", "__post_init__")
    counting(ChannelSpec, "describe", "describe")
    counting(ThresholdResult, "ThresholdResult", "__init__")
    assert main(["sweep", "--figure", "1", "--out", os.devnull]) == 0
    # 625 cells; one object per cell (or per grid row) would exceed this.
    assert max(counts.values()) <= 2, counts


# Each quantity column of figures 2a-5: (channel side, SteeringReport field).
_PRESET_FIELDS = {
    "g1_a_to_b": ("b", "g_a_to_b"),
    "g1_b_to_a": ("b", "g_b_to_a"),
    "g2_twoway": ("two", "g_twoway"),
    "e_n": ("two", "e_n"),
}
_SWEEP_FIGURES = ["2a", "2b", "3", "4", "5"]


@pytest.mark.parametrize("name", _SWEEP_FIGURES)
def test_preset_columns_equal_the_full_report_of_each_point_bit_for_bit(name):
    # Each point's stack rebuilt alone and given the whole report: every
    # printed quantity column is its field, bit for bit.
    preset = FIGURE_PRESETS[name]
    columns, rows = _preset_rows(name)
    ts = _X_TO_T[preset["x"]](np.linspace(*preset["x_range"], preset["steps"]))
    swept = {key[: -len("_values")]: values for key, values in preset.items() if key.endswith("_values")}
    points = [dict(zip(swept, combo)) for combo in itertools.product(*swept.values())]
    n, printed = len(ts), [column for column in columns if column in _PRESET_FIELDS]
    assert len(rows) == len(points) * n and printed
    for p, point in enumerate(points):
        rates = {"nbar": preset.get("nbar", 0.0)}
        rates.update((_PRESET_RATES[key], value) for key, value in point.items() if key != "r")
        for column in printed:
            side, field = _PRESET_FIELDS[column]
            channel = ChannelSpec(preset["channel"], ChannelSide(preset.get("side", side)), **rates)
            tmsv = make_tmsv(point["r"])
            stack = channels._evolve_stack(tmsv.cm, tmsv._det_v, (channel,), ts)[0]
            report = _report_columns(stack, SteeringReport.__dataclass_fields__, np.linalg.det(stack))
            values = [row[columns.index(column)] for row in rows[p * n : (p + 1) * n]]
            assert [v.hex() for v in values] == [v.hex() for v in report[field]], (column, point)


@pytest.mark.parametrize("name", _SWEEP_FIGURES)
def test_presets_compute_no_inferred_variance(monkeypatch, name):
    # No Reid or entropic column is printed, so none is computed.
    calls, inferred = [], criteria._inferred_variances

    def counting(*args):
        calls.append(args[1:])
        return inferred(*args)

    monkeypatch.setattr(criteria, "_inferred_variances", counting)
    monkeypatch.setattr(measures, "_inferred_variances", counting)
    assert main(["sweep", "--figure", name, "--out", os.devnull]) == 0
    assert calls == []


@pytest.mark.parametrize(
    ("name", "specs"), [("2a", [4, 4]), ("2b", [2, 2]), ("3", [3, 3]), ("4", [6]), ("5", [6])]
)
def test_presets_evolve_one_channel_per_point(monkeypatch, name, specs):
    # One evolve per printed side, given one ChannelSpec per point (a
    # combination of the preset's swept values), not one per row.
    calls, evolve = [], cvsteer.cli._evolve_stack

    def counting(cms, det_v, channels, t):
        calls.append(len(channels))
        return evolve(cms, det_v, channels, t)

    monkeypatch.setattr(cvsteer.cli, "_evolve_stack", counting)
    _preset_rows(name)
    assert calls == specs


@pytest.mark.parametrize("name", _SWEEP_FIGURES)
def test_presets_validate_their_tmsvs_as_one_stack(monkeypatch, name):
    # As a --var r sweep does: one validation of every point's TMSV, no state per point.
    stacks, validate = [], cvsteer.cli._validate_cms
    monkeypatch.setattr(cvsteer.cli, "make_tmsv", lambda r: pytest.fail(f"make_tmsv({r})"))
    monkeypatch.setattr(cvsteer.cli, "_validate_cms", lambda cms: stacks.append(cms.shape) or validate(cms))
    _preset_rows(name)
    points = [len(values) for key, values in FIGURE_PRESETS[name].items() if key.endswith("_values")]
    assert stacks == [(math.prod(points), 4, 4)]


@pytest.mark.parametrize("name", _SWEEP_FIGURES)
def test_presets_take_det_v_from_their_validations(monkeypatch, name):
    # The only stacked np.linalg.det calls are the validations' own, of the
    # evolved stacks and of the TMSV stack: E_N takes the det V they computed.
    inside, validating_dets, other_dets = [False], [], []
    det = np.linalg.det

    def logging_det(a):
        if np.ndim(a) > 2:
            (validating_dets if inside[0] else other_dets).append(np.shape(a))
        return det(a)

    def validating(validation):
        def call(*args):
            inside[0] = True
            try:
                return validation(*args)
            finally:
                inside[0] = False

        return call

    monkeypatch.setattr(np.linalg, "det", logging_det)
    monkeypatch.setattr(channels, "_validated_stack", validating(channels._validated_stack))
    monkeypatch.setattr(cvsteer.cli, "_validate_cms", validating(cvsteer.cli._validate_cms))
    assert main(["sweep", "--figure", name, "--out", os.devnull]) == 0
    assert validating_dets and other_dets == []


def _csv_lines(columns, rows):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        _write_table(columns, rows, "csv", None)
    return buffer.getvalue().splitlines()


def _fmt_lines(columns, rows):
    return [",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]


_CSV_VALUES = st.one_of(st.floats(allow_infinity=False), st.booleans(), st.sampled_from([math.inf, math.nan]))


@given(rows=st.lists(st.tuples(_CSV_VALUES, _CSV_VALUES, _CSV_VALUES), max_size=8))
@example(rows=[(0.0, -0.0, 1e-300), (1e300, -1e300, -1e-300), (True, False, math.inf), (math.nan, 5e-324, 0.1)])
def test_csv_template_prints_what_fmt_prints(rows):
    columns = ("x", "y", "z")
    assert _csv_lines(columns, rows) == _fmt_lines(columns, rows)


def test_csv_template_prints_negative_infinity_as_such():
    # The one value where the two differ: _fmt prints -inf as "inf".  No CSV
    # column can hold it, as the tests below pin.
    assert _csv_lines(("x",), [(-math.inf,)]) == ["x", "-inf"]
    assert _fmt_lines(("x",), [(-math.inf,)]) == ["x", "inf"]


@pytest.mark.parametrize("var", ["t", "kt", "gt", "nbar", "r", "one-minus-T"])
@pytest.mark.parametrize("bounds", [("--start=-inf",), ("--stop=-inf",), ("--start=inf",), ("--stop=nan",)])
def test_non_finite_sweep_bounds_exit_2(capsys, var, bounds):
    # The swept column is the only CSV column taken from user input; the
    # report columns are clamped at 0 (Reid, steerability, E_N), 0/1 (verdicts)
    # or logs of inferred variances checked to be positive (entropic sums).
    code, out, err = run_cli(capsys, "sweep", "--var", var, "--steps", "3", "--channel", "laser", "--kt", "0.1", *bounds)
    assert (code, out) == (2, "")
    assert err.startswith("error: --start and --stop must be finite, got ")


@pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
def test_figure_presets_hold_no_negative_infinity(name):
    _, rows = _preset_rows(name)
    assert all(v != -math.inf for row in rows for v in row)


def test_entropic_sum_refuses_a_zero_inferred_variance():
    # The guard that keeps the entropic columns finite: ln 0 would be -inf.
    cm = np.array([[2.0, 0, 2.0, 0], [0, 2.0, 0, -2.0], [2.0, 0, 2.0, 0], [0, -2.0, 0, 2.0]])
    with pytest.raises(DegenerateInputError):
        _report_columns(cm[None], ("entropic_a_to_b",), np.linalg.det(cm[None]))


@pytest.mark.parametrize("command", [("eval", "--t", "1"), ("threshold",)], ids=["eval", "threshold"])
def test_thermal_rates_that_overflow_are_named(capsys, command):
    # g = kappa*nbar and kappa*(nbar + 1) overflow: the error names the flags given, not g.
    code, out, err = run_cli(capsys, command[0], "--r", "0.5", "--channel", "thermal", "--kappa", "1e200",
                             "--nbar", "1e200", *command[1:])
    assert (code, out) == (2, "")
    assert err == "error: kappa*(nbar + 1) must be finite, got kappa = 1e+200, nbar = 1e+200\n"


_EDGE_RATE = 0.11070137908008487  # nbar at the edge of the r = 0.1 thermal window, and its laser twin
_THRESHOLD_RATE = st.floats(0.0, 5.0, exclude_min=True)


@given(
    kind=st.sampled_from(["loss", "gain", "thermal", "laser"]),
    quantity=st.sampled_from(["two-way", "a-to-b", "b-to-a", "inseparability", "all"]),
    r=st.floats(0.05, 2.5),
    g=_THRESHOLD_RATE,
    kappa=_THRESHOLD_RATE,
    nbar=_THRESHOLD_RATE,
)
@example(kind="thermal", quantity="all", r=0.1, g=1.0, kappa=1.0, nbar=_EDGE_RATE)
@example(kind="laser", quantity="all", r=0.1, g=_EDGE_RATE, kappa=1.11070137908008487, nbar=1.0)
@example(kind="thermal", quantity="all", r=0.5, g=1.0, kappa=1e200, nbar=1e200)
@settings(max_examples=60, deadline=None)
def test_threshold_exits_0_or_2_and_never_raises(kind, quantity, r, g, kappa, nbar):
    rates = {"g": g, "kappa": kappa, "nbar": nbar}
    argv = ["threshold", "--channel", kind, "--r", repr(r), "--quantity", quantity]
    argv += [arg for rate in _KIND_RATES[kind] for arg in (f"--{rate}", repr(rates[rate]))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue() == "") in ((0, True), (2, False))
