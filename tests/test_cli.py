"""Command-line interface: subcommands, formats, determinism, exit codes."""

import json
import math
import warnings

import pytest

from cvsteer.cli import FIGURE_PRESETS, main, state_from_dict, state_to_dict
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
