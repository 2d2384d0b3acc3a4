"""Command-line front-end: single-point reports, figure-style sweeps,
threshold tables and oracle verification runs.

Output is deterministic: floats carry 12 significant digits, infinite
thresholds serialize as the string "inf", and no timestamps are emitted.
Set CVSTEER_OUT_DIR to redirect relative --out paths.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .channels import _KIND_RATES, ChannelSide, ChannelSpec, _evolve_stack, thermal_preset
from .errors import CvSteerError, InvalidArgumentError
from .measures import _TABLE_QUANTITIES, _check_r, _one_side_times, _report_columns, _two_way_thermal_time
from .measures import SteeringReport, steering_report, threshold_table
from .states import TwoModeGaussianState, _tmsv_cms, _validate_cms, make_tmsv

__all__ = ["main", "state_to_dict", "state_from_dict"]

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# state (de)serialization: the JSON schema for two-mode Gaussian states

def state_to_dict(state: TwoModeGaussianState) -> dict:
    """{"mean": [4 floats], "cm": [[4x4 floats]]} in (Q1,P1,Q2,P2) order."""
    return {"mean": state.mean.tolist(), "cm": state.cm.tolist()}


def state_from_dict(data: dict) -> TwoModeGaussianState:
    if not isinstance(data, dict):
        raise CvSteerError(f"state JSON must be an object with 'mean' and 'cm' keys, got {type(data).__name__}")
    try:
        state = TwoModeGaussianState(data["mean"], data["cm"])
    except KeyError as exc:
        raise CvSteerError(f"state JSON needs 'mean' and 'cm' keys, missing {exc}") from exc
    # numpy reads the JSON string "1" and true as numbers; the schema holds numbers only.
    for name in ("mean", "cm"):
        leaf = _string_or_boolean([data[name]])
        if leaf is not None:
            kind = "boolean" if isinstance(leaf, bool) else "string"
            raise InvalidArgumentError(f"{name} must be an array of real numbers: got the {kind} {_json_text(leaf)}")
    return state


def _string_or_boolean(values: list):
    """The first string or boolean among the leaves of nested JSON arrays, or None."""
    for item in values:
        if isinstance(item, (str, bool)):
            return item
        if isinstance(item, list) and (found := _string_or_boolean(item)) is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# formatting helpers

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.12g}"
    return str(value)


def _json_text(value) -> str:
    """``value`` as indented JSON text, the bytes of
    ``json.dumps(value, indent=2)`` after two rules: a float prints at 12
    significant digits (through ``float.__repr__`` of its %.12g), except
    that +-inf prints as the string "inf" and NaN as null.  Tuples print as
    lists; a dict's keys must be strings; any other type json would refuse
    raises TypeError."""
    out = []
    _json_chunks(value, "\n", out)
    return "".join(out)


def _json_chunks(value, newline: str, out: list) -> None:
    """Append the JSON text of ``value`` to ``out`` in json's order of type
    tests (bools before ints); ``newline`` starts a line at its depth."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if math.isinf(value):
            out.append('"inf"')
        elif math.isnan(value):
            out.append("null")
        else:
            out.append(repr(float(f"{value:.12g}")))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[" + inner)
        for i, item in enumerate(value):
            if i:
                out.append("," + inner)
            _json_chunks(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{" + inner)
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(("," + inner if i else "") + encode_basestring_ascii(key) + ": ")
            _json_chunks(item, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _open_out(path: str | None):
    if path is None:
        return sys.stdout, False
    out_dir = os.environ.get("CVSTEER_OUT_DIR")
    if out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    return open(path, "w", newline=""), True


def _write_table(columns, rows, fmt, out, provenance=None):
    stream, close = _open_out(out)
    try:
        if fmt == "json":
            stream.write(_json_text([dict(zip(columns, row)) for row in rows]) + "\n")
        else:
            if provenance:
                stream.write(f"# {provenance}\n")
            stream.write(",".join(columns) + "\n")
            # One %.12g template per table.  Every column holds floats or
            # bools, which it prints as _fmt does; only -inf would differ
            # ("-inf", not "inf"), and no column can hold -inf.
            template = ",".join(["%.12g"] * len(columns)) + "\n"
            stream.write("".join([template % row for row in rows]))
    finally:
        if close:
            stream.close()


# ---------------------------------------------------------------------------
# channel construction from flags

def _channel_from_args(args, nbar=None) -> ChannelSpec:
    """The --channel on --side with the rates given as flags, nbar (if given)
    in place of --nbar; ChannelSpec's defaults fill in the others.  No
    --channel is the identity channel."""
    rates = {"g": args.g, "kappa": args.kappa, "nbar": args.nbar if nbar is None else nbar, "m": getattr(args, "M", None)}
    given = {name: value for name, value in rates.items() if value is not None}
    return ChannelSpec(kind=args.channel or "identity", side=ChannelSide(args.side), **given)


def _check_rates_read(args) -> None:
    """Refuse a rate flag (--M sets m), or a swept nbar, that ``_KIND_RATES``
    does not list for the channel kind; the identity channel, no --channel,
    reads none.  Called once the durations are read, so that a duration flag's
    own error (--gt without a gain rate, say) is reported first."""
    kind = args.channel or "identity"
    given = [(f"--{f}", f.lower()) for f in ("g", "kappa", "nbar", "M") if getattr(args, f, None) is not None]
    if getattr(args, "var", None) == "nbar":
        given.append(("--var nbar", "nbar"))
    unread = [flag for flag, rate in given if rate not in _KIND_RATES[kind]]
    if unread:
        where = "given without --channel" if args.channel is None else f"not read by --channel {kind}"
        raise CvSteerError(f"{', '.join(unread)} {where}")


def _durations(args, channel: ChannelSpec, swept: np.ndarray | None = None):
    """Durations in the channel: of the swept values of --var t, kt, gt or
    one-minus-T, or else the one duration of --t, --kt or --gt (0 if none).

    kt and one-minus-T = 1 - e^{-2t} count in units of the loss rate kappa,
    gt in units of the gain rate g: a kind that ``_KIND_RATES`` does not list
    that rate for has none to scale them by.
    """
    if swept is not None:
        var, values, source = args.var, swept, f"sweeping {args.var}"
    else:
        given = [var for var in ("t", "kt", "gt") if getattr(args, var) is not None]
        if len(given) > 1:
            raise CvSteerError("give at most one of --t, --kt, --gt")
        if not given:
            return 0.0
        var = given[0]
        values, source = getattr(args, var), f"--{var}"
    if var == "t":
        return values
    unit, which = ("g", "gain") if var == "gt" else ("kappa", "loss")
    rate = getattr(channel, unit) if unit in _KIND_RATES[channel.kind] else 0.0
    if rate <= 0:
        raise CvSteerError(f"{source} needs a channel with a positive {which} rate")
    if var == "one-minus-T":
        outside = values[~((values >= 0.0) & (values < 1.0))]
        if outside.size:
            raise CvSteerError(f"one-minus-T must be in [0, 1), got {outside[0]:.12g}")
        values = _log_time(values)
    with np.errstate(over="ignore"):  # an overflow to inf is refused as a duration, as on the scalar path
        return values / rate


def _add_channel_flags(parser):
    parser.add_argument("--channel", choices=[kind for kind in _KIND_RATES if kind != "identity"])
    parser.add_argument("--side", choices=["a", "b", "two"], default="two")
    parser.add_argument("--g", type=float, help="gain rate (default 1 when the channel uses it)")
    parser.add_argument("--kappa", type=float, help="loss rate (default 1 when the channel uses it)")
    parser.add_argument("--nbar", type=float, help="thermal occupation")
    parser.add_argument("--M", type=float, help="bath squeezing (real; |M|^2 <= nbar(nbar+1))")
    parser.add_argument("--t", type=float, help="absolute duration (needs explicit rates)")
    parser.add_argument("--kt", type=float, help="dimensionless kappa*t")
    parser.add_argument("--gt", type=float, help="dimensionless g*t")


# ---------------------------------------------------------------------------
# eval

def _cmd_eval(args) -> int:
    if args.state is not None:
        with open(args.state) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # malformed JSON or undecodable bytes
                raise CvSteerError(f"{args.state} is not a JSON state file: {exc}") from exc
        state = state_from_dict(data)
    else:
        state = make_tmsv(args.r)
    channel = _channel_from_args(args)
    t = _durations(args, channel)
    _check_rates_read(args)
    state = channel.evolve(state, t)
    report = steering_report(state).as_dict()
    if args.include_state:
        report["state"] = state_to_dict(state)
    print(_json_text(report))
    return 0


# ---------------------------------------------------------------------------
# sweep

FIGURE_PRESETS = {
    "1": {
        "description": "Steerable-time surfaces e^{2 kappa t_c} over (nbar, r) for one- and "
        "two-side thermal channels (long format).",
        "channel": "thermal",
        "nbar_range": [0.02, 1.5],
        "r_range": [0.1, 1.5],
        "grid": 25,
        "columns": ["nbar", "r", "exp2kt_one_side_a_to_b", "exp2kt_one_side_b_to_a", "exp2kt_two_side_two_way"],
    },
    "2a": {
        "description": "Steerability vs T = 1 - e^{-2 kappa t} for the thermal channel "
        "(includes photon loss at nbar = 0).",
        "channel": "thermal",
        "r_values": [0.5, 0.88],
        "nbar_values": [0.0, 1.0],
        "x": "one_minus_R",
        "x_range": [0.0, 0.95],
        "steps": 96,
        "columns": ["one_minus_R", "r", "nbar", "g1_a_to_b", "g1_b_to_a", "g2_twoway"],
    },
    "2b": {
        "description": "Steerability vs 1 - 1/R = 1 - e^{-2 g t} for the gain channel.",
        "channel": "gain",
        "r_values": [0.5, 0.88],
        "x": "one_minus_inv_R",
        "x_range": [0.0, 0.95],
        "steps": 96,
        "columns": ["one_minus_inv_R", "r", "g1_a_to_b", "g1_b_to_a", "g2_twoway"],
    },
    "3": {
        "description": "Steerability vs kappa*t for the laser channel, r = 0.5, "
        "gamma = g/kappa in {0.5, 1, 2}.",
        "channel": "laser",
        "r_values": [0.5],
        "gamma_values": [0.5, 1.0, 2.0],
        "x": "kt",
        "x_range": [0.0, 0.5],
        "steps": 101,
        "columns": ["kt", "gamma", "g1_a_to_b", "g1_b_to_a", "g2_twoway"],
    },
    "4": {
        "description": "Entanglement and steerability vs 1 - T for the two-side "
        "phase-sensitive channel; r in {0.3, 0.6}, nbar = 1, M in {0, 1, sqrt(2)}.",
        "channel": "phase-sensitive",
        "side": "two",
        "r_values": [0.3, 0.6],
        "nbar": 1.0,
        "m_values": [0.0, 1.0, SQRT2],
        "x": "one_minus_T",
        "x_range": [0.0, 0.95],
        "steps": 96,
        "columns": ["one_minus_T", "r", "m", "e_n", "g2_twoway"],
    },
    "5": {
        "description": "Entanglement and directional steerability vs 1 - T for the one-side "
        "phase-sensitive channel on B; r in {0.3, 0.6}, nbar = 1, M in {0, 1, sqrt(2)}.",
        "channel": "phase-sensitive",
        "side": "b",
        "r_values": [0.3, 0.6],
        "nbar": 1.0,
        "m_values": [0.0, 1.0, SQRT2],
        "x": "one_minus_T",
        "x_range": [0.0, 0.95],
        "steps": 96,
        "columns": ["one_minus_T", "r", "m", "g1_a_to_b", "g1_b_to_a", "e_n"],
    },
}


def _log_time(xs: np.ndarray) -> np.ndarray:
    """Durations t with 1 - e^{-2t} = x; math.log1p per element, since
    np.log1p on an array differs from it in the last bit."""
    return np.array([-0.5 * math.log1p(-x) for x in xs.tolist()])


# How the figure presets 2a-5 read as sweeps.  A preset sweeps its "x" axis
# (mapped to durations, rates normalized to 1) over every combination of its
# "<name>_values" lists; r sets the TMSV and the others the channel rates.
_X_TO_T = {"kt": lambda xs: xs, "one_minus_R": _log_time, "one_minus_inv_R": _log_time, "one_minus_T": _log_time}
_PRESET_RATES = {"nbar": "nbar", "gamma": "g", "m": "m"}
# Report columns: column -> (channel side, SteeringReport field).  g1 is the
# one-side channel on B, g2 the two-side one; a preset with a "side" takes
# every column from that side.
_PRESET_QUANTITIES = {
    "g1_a_to_b": ("b", "g_a_to_b"),
    "g1_b_to_a": ("b", "g_b_to_a"),
    "g2_twoway": ("two", "g_twoway"),
    "e_n": ("two", "e_n"),
}


def _preset_rows(name: str):
    """(columns, rows) of a figure preset.  Figures 2a-5 validate their TMSVs as
    one stack, evolve each side that prints a field as one stack, one channel per
    point, and ask ``measures._report_columns`` for its printed fields only; the
    rows zip x tiled, each swept value repeated and the report columns as given."""
    preset = FIGURE_PRESETS[name]
    if name == "1":
        # The grid is checked once, as the threshold functions check each
        # argument; each cell then calls their closed forms directly.
        nbars = np.linspace(*preset["nbar_range"], preset["grid"]).tolist()
        rs = np.linspace(*preset["r_range"], preset["grid"]).tolist()
        for r in rs:
            _check_r(r)
        exp2 = lambda t: math.inf if math.isinf(t) else math.exp(2.0 * t)
        rows = []
        for nbar in nbars:
            rates = thermal_preset(1.0, nbar, 0.0)
            for r in rs:
                t_ab, t_ba = _one_side_times(rates.g, rates.kappa, r)
                rows.append((nbar, r, exp2(t_ab), exp2(t_ba), exp2(_two_way_thermal_time(nbar, r))))
        return preset["columns"], rows

    xs = np.linspace(*preset["x_range"], preset["steps"])
    ts = _X_TO_T[preset["x"]](xs)
    swept = {key[: -len("_values")]: values for key, values in preset.items() if key.endswith("_values")}
    points = [dict(zip(swept, combo)) for combo in itertools.product(*swept.values())]
    fields = {}  # side -> {column: SteeringReport field}
    for column, (side, field) in _PRESET_QUANTITIES.items():
        if column in preset["columns"]:
            fields.setdefault(preset.get("side", side), {})[column] = field
    # Every column over every row: row p * n + i is point p at duration ts[i].
    n = len(ts)
    values = {preset["x"]: np.tile(xs, len(points)).tolist()}
    values.update((key, [point[key] for point in points for _ in range(n)]) for key in swept)
    cms, det_v = _validate_cms(_tmsv_cms([point["r"] for point in points]))  # make_tmsv's checks, on each TMSV
    cms, det_v = np.repeat(cms, n, axis=0), np.repeat(det_v, n)
    rates = [{"nbar": preset.get("nbar", 0.0), **{_PRESET_RATES[k]: x for k, x in p.items() if k != "r"}} for p in points]
    for side, columns in fields.items():
        specs = [ChannelSpec(kind=preset["channel"], side=ChannelSide(side), **r) for r in rates]
        stack, _, stack_det_v = _evolve_stack(cms, det_v, specs, np.tile(ts, len(points)))
        report = _report_columns(stack, columns.values(), stack_det_v)
        values.update((column, report[field]) for column, field in columns.items())
    return preset["columns"], list(zip(*(values[column] for column in preset["columns"])))


# Swept variable -> its default (start, stop); one-minus-T excludes 1.
_SWEEP_VARS = {
    "t": (0.0, 1.0),
    "kt": (0.0, 1.0),
    "gt": (0.0, 1.0),
    "nbar": (0.0, 1.0),
    "r": (0.0, 1.0),
    "one-minus-T": (0.0, 0.99),
}
# The most rows a generic sweep computes: its (N, 4, 4) stack is then 12.8 MB.
_MAX_STEPS = 100_000


def _generic_sweep_rows(args):
    if args.steps < 2:
        raise CvSteerError("--steps must be >= 2")
    if args.steps > _MAX_STEPS:
        raise CvSteerError(f"--steps must be <= {_MAX_STEPS}, got {args.steps}")
    default_start, default_stop = _SWEEP_VARS[args.var]
    start = default_start if args.start is None else args.start
    stop = default_stop if args.stop is None else args.stop
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise CvSteerError(f"--start and --stop must be finite, got {start} and {stop}")
    values = np.linspace(start, stop, args.steps)
    channels = [_channel_from_args(args, nbar) for nbar in (values.tolist() if args.var == "nbar" else [None])]
    channel = channels[0]
    if args.var in ("r", "nbar"):
        # r and nbar change the state or the bath at one duration: row i is
        # the TMSV with the i-th r, or the channel with the i-th nbar.
        ts = np.full(len(values), _durations(args, channel))
        cms, det_v = _validate_cms(_tmsv_cms(values if args.var == "r" else args.r))  # checks each TMSV, as make_tmsv does
    else:
        cms, det_v = _validate_cms(_tmsv_cms(args.r))
        ts = _durations(args, channel, values)
    _check_rates_read(args)
    stack, _, det_v = _evolve_stack(cms, det_v, channels, ts)
    fields = [field for field in SteeringReport.__dataclass_fields__ if field != "entangled"]  # it prints separable
    report = _report_columns(stack, fields, det_v)
    return [args.var, *report], list(zip(values.tolist(), *report.values()))


def _cmd_sweep(args) -> int:
    if args.figure or args.explain:  # they read none of a generic sweep's flags that default to None
        flags = ("var", "start", "stop", "channel", "g", "kappa", "nbar", "M", "t", "kt", "gt")
        unread = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
        if unread:
            raise CvSteerError(f"{', '.join(unread)} not read by {'--explain' if args.explain else '--figure'}")
    if args.explain:
        print(_json_text(FIGURE_PRESETS[args.figure] if args.figure else FIGURE_PRESETS))
        return 0
    if args.figure:
        columns, rows = _preset_rows(args.figure)
        provenance = f"cvsteer sweep --figure {args.figure}" if args.provenance else None
    else:
        if args.var is None:
            raise CvSteerError("give either --figure or --var with --start/--stop/--steps")
        columns, rows = _generic_sweep_rows(args)
        provenance = f"cvsteer sweep --var {args.var}" if args.provenance else None
    _write_table(columns, rows, args.format, args.out, provenance)
    return 0


# ---------------------------------------------------------------------------
# threshold

def _cmd_threshold(args) -> int:
    _check_rates_read(args)
    results = threshold_table(_channel_from_args(args), args.r, args.quantity)
    if args.format == "json":
        print(_json_text([res.as_dict() for res in results]))
        return 0
    header = f"{'direction':<16} {'t_closed':>18} {'t_numeric':>18} {'agreement':>12} status"
    print(header)
    for res in results:
        print(
            f"{res.direction:<16} {_fmt(res.t_closed):>18} {_fmt(res.t_numeric):>18} "
            f"{_fmt(res.agreement):>12} {res.status}"
        )
    return 0


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    from .verify import run_suites  # the oracle suites load with this command alone

    results = run_suites(args.suite)
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        ok = ok and res.passed
        print(
            f"{res.name:<18} max deviation {res.max_deviation:.3e} "
            f"(tolerance {res.tolerance:.0e}) worst: {res.worst_case} [{status}]"
        )
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _eval_args(p):
    p.add_argument("--r", type=float, default=0.0, help="TMSV squeezing parameter")
    p.add_argument("--state", help="JSON file with {'mean': [...], 'cm': [[...]]}")
    p.add_argument("--include-state", action="store_true", help="embed the evolved state in the report")
    _add_channel_flags(p)
    p.set_defaults(func=_cmd_eval)


def _sweep_args(p):
    p.add_argument("--figure", choices=sorted(FIGURE_PRESETS))
    p.add_argument("--explain", action="store_true", help="print preset definitions and exit")
    p.add_argument("--var", choices=_SWEEP_VARS, help="swept variable for a generic sweep")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--steps", type=int, default=51)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--provenance", action="store_true", help="prepend a provenance comment to CSV")
    _add_channel_flags(p)
    p.set_defaults(func=_cmd_sweep)


def _threshold_args(p):
    p.add_argument("--channel", choices=["loss", "gain", "thermal", "laser"], required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--g", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--nbar", type=float)
    p.add_argument("--side", choices=["a", "b", "two"], default="two", help="side for inseparability")
    p.add_argument("--quantity", choices=_TABLE_QUANTITIES, default="all")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_threshold)


def _verify_args(p):
    from .verify import SUITES

    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.set_defaults(func=_cmd_verify)


# Subcommand -> (help line, function that adds its arguments and its func).
_COMMANDS = {
    "eval": ("steering report for one state", _eval_args),
    "sweep": ("parameter sweeps, figure presets included", _sweep_args),
    "threshold": ("closed-form vs bisected threshold times", _threshold_args),
    "verify": ("run the brute-force oracle suites", _verify_args),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvsteer",
        description="EPR steering and entanglement of two-mode Gaussian states in noisy channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=summary))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, built once per process.  Reusing it
    carries nothing from one call to the next: every default is a scalar and
    each parse fills a fresh Namespace."""
    parser = argparse.ArgumentParser(prog=f"cvsteer {name}")
    _COMMANDS[name][1](parser)
    return parser


def main(argv=None) -> int:
    """Run one CLI call on argv (default sys.argv[1:]).

    A named subcommand is parsed by its own parser alone, exactly as the tree
    would parse it, since the tree costs more to build than most calls take;
    that parser is built on the command's first call in the process.
    Top-level help, a missing or unknown command and leftover arguments still
    go to the tree from build_parser(): only it prints their usage and errors.
    """
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command is not None:
        args, extra = _command_parser(command).parse_known_args(argv[1:])
    if command is None or extra:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CvSteerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
