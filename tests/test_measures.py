"""Steerability quantifier, logarithmic negativity and threshold times."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cvsteer import channels, criteria, measures, states, verify
from cvsteer.channels import ChannelSide, ChannelSpec
from cvsteer.cli import main
from cvsteer.criteria import SteeringDirection
from cvsteer.errors import DegenerateInputError, InvalidArgumentError, MultiRootError
from cvsteer.criteria import entropic_sum, reid_product
from cvsteer.measures import (
    SteeringReport,
    ThresholdResult,
    _brackets,
    _default_t_max,
    _scan_grid,
    _report_columns,
    _signed_quantity,
    gaussian_steerability,
    inseparability_threshold,
    log_negativity,
    log_negativity_exponent,
    numeric_threshold,
    one_side_thresholds,
    steerability_exponent,
    steering_report,
    threshold_table,
    two_way_laser_threshold,
    two_way_thermal_threshold,
)
from cvsteer.states import _MAX_SCALE, TwoModeGaussianState, make_tmsv, vacuum
from cvsteer.verify import random_physical_state

# Every field of a SteeringReport, in its order.
_FIELDS = tuple(SteeringReport.__dataclass_fields__)


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
def test_tmsv_steerability_closed_form(r):
    s = make_tmsv(r)
    for direction in SteeringDirection:
        assert gaussian_steerability(s, direction) == pytest.approx(
            math.log(math.cosh(2 * r)), rel=1e-12
        )


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
def test_tmsv_log_negativity_is_twice_r(r):
    assert log_negativity(make_tmsv(r)) == pytest.approx(2.0 * r, rel=1e-10)


def test_vacuum_has_no_correlations():
    v = vacuum()
    for direction in SteeringDirection:
        assert gaussian_steerability(v, direction) == 0.0
    assert log_negativity(v) == 0.0


def test_steerability_clamped_at_zero():
    separable = TwoModeGaussianState(np.zeros(4), np.diag([2.0, 2.0, 3.0, 3.0]))
    for direction in SteeringDirection:
        assert gaussian_steerability(separable, direction) == 0.0
    assert log_negativity(separable) == 0.0


def test_steering_report_round_trip():
    report = steering_report(make_tmsv(0.5))
    d = report.as_dict()
    assert d["verdicts"]["steerable_a_to_b"] is True
    assert d["verdicts"]["entangled"] is True
    assert d["steerability"]["a_to_b"] == pytest.approx(d["steerability"]["b_to_a"])
    assert d["reid"]["a_to_b"] == pytest.approx(1 / (4 * math.cosh(1.0) ** 2))
    assert d["log_negativity"] == pytest.approx(1.0)


def test_loss_two_way_threshold_is_half_log_two():
    for r in (0.3, 0.5, 1.0):
        res = two_way_laser_threshold(0.0, 1.0, r)
        assert res.t_closed == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert res.agreement < 1e-8
        assert res.status == "ok"


@given(r=st.floats(0.1, 2.0), kappa=st.floats(0.1, 3.0), s=st.floats(0.02, 0.98))
@settings(max_examples=80, deadline=None)
def test_two_side_loss_steers_less_than_one_side_loss_until_their_shared_time(r, kappa, s):
    # The abstract: "two-side loss presents a smaller steerability than
    # one-side loss although they share the same two-way steerable time",
    # ln 2 / (2 kappa), on the per-state path.
    shared = math.log(2.0) / (2.0 * kappa)
    state = make_tmsv(r)
    one_side, two_side = (ChannelSpec("loss", side, kappa=kappa) for side in (ChannelSide.B, ChannelSide.BOTH))
    g_one, g_two = (steering_report(channel.evolve(state, s * shared)).g_twoway for channel in (one_side, two_side))
    assert g_one > g_two > 0.0
    after = [steering_report(channel.evolve(state, 1.02 * shared)).g_twoway for channel in (one_side, two_side)]
    assert after == [0.0, 0.0]


@given(r=st.floats(0.05, 2.0), kappa=st.floats(0.05, 3.0), gains=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)))
@settings(max_examples=60, deadline=None)
def test_more_gain_shortens_every_steerable_and_inseparable_time(r, kappa, gains):
    # The abstract: "the gain process will introduce additional noise ...
    # such that the steerable time is reduced".  Every row of the laser
    # table (two-way on both sides, a->b and b->a on B, inseparability on B
    # and on both sides) ends sooner at the larger gain, on both paths.
    g1, g2 = sorted(gains)
    assume(g2 - g1 >= 1e-3)  # times of nearly equal gains may tie in the last bits
    low, high = (threshold_table(ChannelSpec("laser", g=g, kappa=kappa), r) for g in (g1, g2))
    for before, after in zip(low, high):
        assert (before.channel.side, before.direction) == (after.channel.side, after.direction)
        if before.status != "ok" or after.status != "ok":
            continue
        for t1, t2 in ((before.t_closed, after.t_closed), (before.t_numeric, after.t_numeric)):
            assert t2 < t1 or t1 == t2 == math.inf, (before, after)


@given(r=st.floats(0.05, 2.0), kappa=st.floats(0.05, 3.0), g=st.floats(0.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_the_gained_party_steers_longer_above_the_balance_point(r, kappa, g):
    # The abstract: "the more gained party can steer the other's state, while
    # the other party cannot steer the gained party in a certain threshold
    # value".  With the laser channel on B, B steers A for longer exactly when
    # g / kappa > tanh^2 r: the thermal balance point nbar = sinh^2 r of
    # acceptance test 5, where g / kappa = nbar / (nbar + 1).
    balance = math.tanh(r) ** 2
    assume(abs(g / kappa - balance) > 1e-6 * balance)
    a_to_b, b_to_a = one_side_thresholds(g, kappa, r)
    assert (b_to_a.t_closed > a_to_b.t_closed) == (g / kappa > balance)
    assert (b_to_a.t_numeric > a_to_b.t_numeric) == (g / kappa > balance)


def test_gain_two_way_threshold_bounded():
    bound = 0.5 * math.log(1.5)
    for r in (0.3, 0.5, 1.0, 2.0):
        res = two_way_laser_threshold(1.0, 0.0, r)
        assert 0.0 < res.t_closed < bound
        assert res.agreement < 1e-8


def test_balanced_rates_threshold_matches_neighbors():
    exact = two_way_laser_threshold(1.0, 1.0, 0.5)
    near = two_way_laser_threshold(1.0, 1.0 + 1e-9, 0.5)
    assert exact.t_closed == pytest.approx(near.t_closed, rel=1e-6)
    assert exact.agreement < 1e-10


def test_thermal_threshold_inside_window():
    res = two_way_thermal_threshold(0.2, 0.8)
    assert res.status == "ok"
    assert res.t_closed > 0
    assert res.agreement < 1e-8


def test_thermal_threshold_outside_window_is_never_steerable():
    r = 0.5
    cutoff = 0.5 * math.expm1(2 * r)
    res = two_way_thermal_threshold(cutoff + 0.01, r)
    assert res.status == "never-steerable"
    assert res.t_closed == 0.0


def test_thermal_threshold_status_comes_from_the_window_not_the_time():
    # Just inside the closed form's range its time rounds to exactly 0; the
    # row is still bisected, not reported as never-steerable, and its status
    # shows that the closed form misses the root.
    nbar, r = 0.7517950634612653, 0.45886287625418065
    assert nbar < 0.5 * math.expm1(2 * r)
    res = two_way_thermal_threshold(nbar, r)
    assert res.status == "disagree"
    assert res.t_numeric == pytest.approx(0.0566386615628, rel=1e-9)


@pytest.mark.parametrize(
    ("row", "t_closed", "t_numeric"),
    [
        (lambda: two_way_thermal_threshold(38.2846049402939, 2.1755852842809364), -0.0477, 0.00317130076579),
        (lambda: two_way_laser_threshold(0.7517950634612653, 1.7517950634612653, 0.45886287625418065),
         0.1877, 0.0566386615628),
        (lambda: two_way_laser_threshold(38.2846049402939, 39.2846049402939, 2.1755852842809364),
         0.0, 0.00317130076579),
    ],
    ids=["thermal-38.28", "laser-0.7518", "laser-38.28"],
)
def test_closed_form_that_misses_a_finite_root_disagrees(row, t_closed, t_numeric):
    # Window-edge cancellation in both two-way closed forms (ROADMAP item 2);
    # the thermal 0.7518 row is test_thermal_threshold_status_comes_from_the_window_not_the_time.
    res = row()
    assert res.status == "disagree"
    assert res.t_closed == pytest.approx(t_closed, abs=1e-4)
    assert res.t_numeric == pytest.approx(t_numeric, rel=1e-9)
    assert res.relative_gap > measures._THRESHOLD_REL_TOL


def test_relative_gap_is_the_verify_thresholds_rule():
    row = lambda t_closed, t_numeric: ThresholdResult(ChannelSpec("loss"), "two-way", t_closed, t_numeric)
    assert row(0.5, 0.5 + 1e-7).relative_gap == pytest.approx(1e-7)  # absolute below 1
    assert row(4.0, 4.0 + 1e-6).relative_gap == pytest.approx(2.5e-7)  # relative above 1
    assert row(math.inf, math.inf).relative_gap == 0.0
    assert row(math.inf, 2.0).relative_gap == math.inf
    assert row(2.0, math.inf).relative_gap == math.inf


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="relative_gap divides by max(1, |t_closed|), so a 1.2% error far below t = 1 reads ok (ROADMAP item 2)",
)
def test_relative_gap_sees_a_relative_error_below_one():
    # The g = 1e300 two-way pair before brentq's xtol scaled with t_max.
    res = ThresholdResult(ChannelSpec("laser", g=1e300), "two-way", 7.48267810701e-302, 7.57567146238e-302)
    assert res.relative_gap > measures._THRESHOLD_REL_TOL


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: two_way_laser_threshold(-1.0, 1.0, 0.5), "g must be finite and >= 0, got -1.0"),
        (lambda: inseparability_threshold(math.nan, 1.0, 0.5, ChannelSide.B), "g must be finite and >= 0, got nan"),
        (lambda: two_way_thermal_threshold(-1.0, 0.5), "nbar must be finite and >= 0, got -1.0"),
        (lambda: one_side_thresholds(0.0, 0.0, 0.5), "g and kappa cannot both be zero"),
    ],
    ids=["laser-negative-g", "inseparability-nan-g", "thermal-negative-nbar", "both-rates-zero"],
)
def test_threshold_helpers_check_rates_with_the_channel_rule(call, message):
    # The rate rule and message of ChannelSpec.evolve, plus the threshold's
    # own rule: its scan horizon 50 / (g + kappa) needs a nonzero rate.
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert str(info.value) == message


def _two_way_thermal(nbar, r):
    """(closed form, bisected root) of the two-way thermal row."""
    channel = ChannelSpec("thermal", nbar=nbar)
    return measures._closed_form(channel, "two-way", r), numeric_threshold(channel, r, "G_twoway", 50.0)


def _two_way_laser(g, kappa, r):
    """(closed form, bisected root) of the two-way laser row."""
    channel = ChannelSpec("laser", g=g, kappa=kappa)
    t_max = _default_t_max(g, kappa)
    return measures._closed_form(channel, "two-way", r), numeric_threshold(channel, r, "G_twoway", t_max)


# Loss at kappa = 0.23, r = 2.3e-7: the two-way and b_to_a times are both
# ln 2 / (2 kappa) there.
_LOSS_KAPPA, _TINY_R = 0.23, 2.3e-7
_LOSS_EXACT = math.log(2.0) / (2.0 * _LOSS_KAPPA)


def _item(n, why):
    return pytest.mark.xfail(strict=True, reason=f"{why} (ROADMAP item {n})")


_EDGE = "two-way closed form cancels at the thermal window edge"


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: _two_way_thermal(0.11070137908008487, 0.1), marks=_item(2, "ZeroDivisionError"),
                     id="thermal-0.1107"),
        pytest.param(lambda: _two_way_thermal(0.143, 0.1), marks=_item(2, "never-steerable, root 0.02873"),
                     id="thermal-0.143"),
        pytest.param(lambda: _two_way_thermal(0.7517950634612653, 0.45886287625418065), marks=_item(2, _EDGE),
                     id="thermal-0.7518"),
        pytest.param(lambda: _two_way_thermal(38.2846049402939, 2.1755852842809364), marks=_item(2, _EDGE),
                     id="thermal-38.28"),
        pytest.param(lambda: _two_way_laser(0.11070137908008487, 1.11070137908008487, 0.1),
                     marks=_item(2, "ZeroDivisionError"), id="laser-0.1107"),
        # The laser twin of the 0.143 thermal row already agrees (ROADMAP item 2).
        pytest.param(lambda: _two_way_laser(0.143, 1.143, 0.1), id="laser-0.143"),
        pytest.param(lambda: _two_way_laser(0.7517950634612653, 1.7517950634612653, 0.45886287625418065),
                     marks=_item(2, _EDGE), id="laser-0.7518"),
        pytest.param(lambda: _two_way_laser(38.2846049402939, 39.2846049402939, 2.1755852842809364),
                     marks=_item(2, _EDGE), id="laser-38.28"),
        pytest.param(lambda: (measures._closed_form(ChannelSpec("laser", g=0.0, kappa=_LOSS_KAPPA), "two-way", _TINY_R),
                              _LOSS_EXACT), marks=_item(2, "gives 1.51125"), id="loss-tiny-r-two-way"),
        pytest.param(lambda: (numeric_threshold(ChannelSpec("loss", side=ChannelSide.B, kappa=_LOSS_KAPPA), _TINY_R,
                                                "G_BtoA", 50.0 / _LOSS_KAPPA), _LOSS_EXACT),
                     marks=_item(2, "bisected root 1.6e-3 off"), id="loss-tiny-r-b_to_a"),
        # brentq's xtol scales with the horizon 50 / (g + kappa) = 5e-299 here.
        pytest.param(lambda: _two_way_laser(1e300, 1.0, 0.5), id="laser-g1e300"),
    ],
)
def test_threshold_meets_its_reference(case):
    value, reference = case()
    assert math.isclose(value, reference, rel_tol=1e-6)


@pytest.mark.xfail(strict=True, reason="E_N loses its sign below the discriminant's precision floor (ROADMAP item 4)")
def test_log_negativity_sign_near_separability():
    # 60-digit arithmetic gives E_N = +3.6e-12 here; the float exponent is -1.67e-10.
    channel = ChannelSpec("phase-sensitive", nbar=1.0, m=math.sqrt(2.0))
    assert log_negativity_exponent(channel.evolve(make_tmsv(0.6), 12.0)) > 0.0


def test_one_side_loss_thresholds():
    t_ab, t_ba = one_side_thresholds(0.0, 1.0, 0.5)
    assert math.isinf(t_ab.t_closed) and math.isinf(t_ab.t_numeric)
    assert t_ba.t_closed == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    assert t_ba.agreement < 1e-8


def test_one_side_gain_thresholds():
    r = 0.5
    t_ab, t_ba = one_side_thresholds(1.0, 0.0, r)
    expected = 0.5 * math.log(2.0 - 1.0 / math.cosh(r) ** 2)
    assert t_ab.t_closed == pytest.approx(expected, abs=1e-12)
    assert t_ab.agreement < 1e-8
    assert math.isinf(t_ba.t_closed) and math.isinf(t_ba.t_numeric)


def test_thermal_one_side_b_to_a_example():
    # nbar = 1 maps to g = kappa, kappa -> 2 kappa; the closed form gives
    # ln(4/3)/2 in units of 1/kappa.
    t_ab, t_ba = one_side_thresholds(1.0, 2.0, 0.5)
    assert t_ba.t_closed == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)
    assert t_ba.agreement < 1e-8


def test_inseparability_thresholds():
    r = 0.5
    one_side = inseparability_threshold(0.5, 1.0, r, ChannelSide.B)
    assert one_side.t_closed == pytest.approx(math.log(2.0), abs=1e-12)
    assert one_side.agreement < 1e-8
    two_side = inseparability_threshold(0.5, 1.0, r, ChannelSide.BOTH)
    th = math.tanh(r)
    expected = math.log((0.5 + th) / (0.5 * (1 + th))) / (2 * 0.5)
    assert two_side.t_closed == pytest.approx(expected, abs=1e-12)
    pure_loss = inseparability_threshold(0.0, 1.0, r, ChannelSide.BOTH)
    assert math.isinf(pure_loss.t_closed) and math.isinf(pure_loss.t_numeric)


def test_inseparability_one_side_is_r_independent():
    values = [
        inseparability_threshold(0.5, 1.0, r, ChannelSide.B).t_closed for r in (0.3, 0.6, 1.0)
    ]
    assert max(values) - min(values) < 1e-12


def test_numeric_threshold_argument_validation():
    spec = ChannelSpec(kind="loss", side=ChannelSide.BOTH)
    with pytest.raises(InvalidArgumentError):
        numeric_threshold(spec, 0.5, "nonsense", t_max=1.0)
    with pytest.raises(InvalidArgumentError):
        numeric_threshold(spec, 0.5, "G_twoway", t_max=-1.0)
    with pytest.raises(InvalidArgumentError):
        two_way_laser_threshold(0.0, 0.0, 0.5)
    with pytest.raises(InvalidArgumentError):
        two_way_laser_threshold(1.0, 1.0, -0.5)
    with pytest.raises(InvalidArgumentError):
        two_way_thermal_threshold(-0.1, 0.5)


def test_numeric_threshold_infinite_sentinel():
    spec = ChannelSpec(kind="loss", side=ChannelSide.B)
    assert math.isinf(numeric_threshold(spec, 0.5, "G_AtoB", t_max=10.0))


def test_root_below_the_first_scan_point_is_bracketed_from_the_origin(monkeypatch):
    # The one-side gain a_to_b time, 0.5 ln(2 - sech^2 r), is 5e-11 at
    # r = 1e-5: below the first scan point 5e-8, so the origin opens the bracket.
    brackets, port = [], measures.brentq

    def logging(f, a, b, **kwargs):
        brackets.append((a, b))
        return port(f, a, b, **kwargs)

    monkeypatch.setattr(measures, "brentq", logging)
    r = 1e-5
    root = numeric_threshold(ChannelSpec("gain", side=ChannelSide.B, g=1.0), r, "G_AtoB", 50.0)
    assert math.isclose(root, 0.5 * math.log(2.0 - 1.0 / math.cosh(r) ** 2), rel_tol=1e-6)
    assert brackets == [(0.0, _scan_grid(50.0)[0])]


def _crossing_twice(cms, quantity, det_v):
    """Scan signs that are negative on the middle third of a scan stack (the
    quantity is positive at t = 0), with no log arguments."""
    k = np.arange(len(cms))
    return np.where((3 * k > len(cms)) & (3 * k < 2 * len(cms)), -1.0, 1.0), None


def test_several_sign_changes_raise_multi_root_error_with_every_bracket(monkeypatch, capsys):
    # No channel's quantity was found to cross twice; this one is made to.
    monkeypatch.setattr(measures, "_scan_signs", _crossing_twice)
    with pytest.raises(MultiRootError, match="G_AtoB changes sign 2 times") as err:
        numeric_threshold(ChannelSpec("loss"), 0.5, "G_AtoB", 50.0)
    assert len(err.value.brackets) == 2
    assert main(["threshold", "--channel", "loss", "--kappa", "1", "--r", "0.5"]) == 2
    out, err_text = capsys.readouterr()
    assert out == "" and "changes sign 2 times" in err_text


def test_each_finite_root_goes_once_through_measures_brentq(monkeypatch):
    # measures.brentq is a port of scipy's; the benchmark tracer wraps it by
    # name, so every bisected root must call that module global.
    from scipy.optimize import brentq as scipy_brentq

    calls, port = [], measures.brentq

    def counting(f, a, b, **kwargs):
        calls.append((f, a, b, kwargs))
        return port(f, a, b, **kwargs)

    monkeypatch.setattr(measures, "brentq", counting)
    spec = ChannelSpec(kind="loss", side=ChannelSide.B)
    roots = numeric_threshold(spec, 0.6, ("G_AtoB", "G_BtoA", "G_twoway", "E_N"), t_max=50.0)
    finite = [t for t in roots if math.isfinite(t)]
    assert len(finite) == len(calls) == 2
    for root, (f, a, b, kwargs) in zip(finite, calls):
        assert kwargs == {"xtol": 1e-15, "rtol": 1e-12}
        assert root == scipy_brentq(f, a, b, **kwargs)


def _brentq_runs(f, a, b, **kwargs):
    """(outcome, points f was called at) of measures.brentq and of
    scipy.optimize.brentq on the same bracket; the outcome is the root's
    bits, or the type of the exception raised."""
    from scipy.optimize import brentq as scipy_brentq

    runs = []
    for solver in (measures.brentq, scipy_brentq):
        points = []

        def logged(x):
            points.append(x)
            return f(x)

        try:
            outcome = solver(logged, a, b, **kwargs).hex()
        except Exception as exc:  # the type is what is compared
            outcome = type(exc)
        runs.append((outcome, points))
    return runs


# Smooth functions with one sign change, at p, on the drawn brackets.
_SMOOTH = {
    "cubic": lambda c, p: lambda x: c * (x - p) + (x - p) ** 3,
    "atan": lambda c, p: lambda x: math.atan(c * (x - p)),
    "expm1": lambda c, p: lambda x: math.expm1(c * (x - p)),
    "tanh-cubed": lambda c, p: lambda x: math.tanh(c * (x - p)) ** 3,
    "tiny-linear": lambda c, p: lambda x: 1e-300 * c * (x - p),
    "sin": lambda c, p: lambda x: math.sin(c * (x - p)) + 0.5 * (x - p),
}


@given(
    shape=st.sampled_from(sorted(_SMOOTH)),
    c=st.floats(0.01, 50.0),
    p=st.floats(-1.0, 1.0),
    below=st.floats(1e-9, 3.0),
    above=st.floats(1e-9, 3.0),
    flip=st.booleans(),
    swap=st.booleans(),
    tolerances=st.sampled_from([{}, {"xtol": 1e-15, "rtol": 1e-12}, {"xtol": 1e-4}, {"rtol": 1e-6}, {"maxiter": 4}]),
)
@example(shape="cubic", c=1.0, p=0.0, below=1.0, above=1.0, flip=False, swap=False, tolerances={})  # a bisection step hits f = 0
@example(shape="tiny-linear", c=1.0, p=0.3, below=1.3, above=0.7, flip=False, swap=False,
         tolerances={})  # an extrapolation's denominator underflows to 0
@example(shape="expm1", c=16.4, p=-0.2, below=1.1, above=0.2, flip=False, swap=False,
         tolerances={})  # a short step that only the 3 |sbis| - delta bound refuses
@settings(max_examples=300, deadline=None)
def test_brentq_equals_scipys_bit_for_bit(shape, c, p, below, above, flip, swap, tolerances):
    g = _SMOOTH[shape](c, p)
    f = (lambda x: -g(x)) if flip else g
    a, b = (p + above, p - below) if swap else (p - below, p + above)
    ours, scipys = _brentq_runs(f, a, b, **tolerances)
    assert ours == scipys


@pytest.mark.parametrize(("a", "b"), [(-0.0, 1.0), (-1.0, -0.0), (0.0, -1.0)])
def test_brentq_returns_a_zero_endpoint_with_its_sign(a, b):
    ours, scipys = _brentq_runs(lambda x: x, a, b)
    assert ours == scipys and ours[0] in ((-0.0).hex(), (0.0).hex())


@pytest.mark.parametrize(
    ("f", "a", "b", "kwargs", "error"),
    [
        (lambda x: x * x + 1.0, -1.0, 2.0, {}, ValueError),  # f(a), f(b) of one sign
        (lambda x: 1e-200 * (x * x + 1.0), -1.0, 2.0, {}, ValueError),  # ... whose product underflows
        (lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0, {}, ValueError),  # NaN on the way
        (lambda x: math.nan, 0.0, 1.0, {}, ValueError),  # NaN at a
        (lambda x: math.atan(x - 0.3), 0.0, 1.0, {"maxiter": 2}, RuntimeError),  # out of iterations
    ],
    ids=["same-sign", "same-sign-tiny", "nan-inside", "nan-at-a", "maxiter"],
)
def test_brentq_raises_what_scipy_raises(f, a, b, kwargs, error):
    ours, scipys = _brentq_runs(f, a, b, **kwargs)
    assert ours == scipys and ours[0] is error


@pytest.mark.parametrize("kind", ["loss", "gain", "thermal", "laser", "phase-sensitive"])
@pytest.mark.parametrize("side", list(ChannelSide))
def test_bisected_roots_equal_scipys_bit_for_bit(monkeypatch, kind, side):
    brackets, port = [], measures.brentq

    def logging(f, a, b, **kwargs):
        brackets.append((f, a, b, kwargs))
        return port(f, a, b, **kwargs)

    monkeypatch.setattr(measures, "brentq", logging)
    channel = ChannelSpec(kind=kind, side=side, g=0.7, kappa=1.3, nbar=0.4, m=0.3)
    for r in (0.3, 1.1):
        try:
            numeric_threshold(channel, r, ("G_AtoB", "G_BtoA", "G_twoway", "E_N"), t_max=50.0)
        except MultiRootError:
            pass
    monkeypatch.undo()
    assert brackets
    for f, a, b, kwargs in brackets:
        ours, scipys = _brentq_runs(f, a, b, **kwargs)
        assert ours == scipys and isinstance(ours[0], str)


@pytest.mark.parametrize("kind", ["loss", "gain", "thermal", "laser", "phase-sensitive"])
@pytest.mark.parametrize("side", list(ChannelSide))
def test_bisection_takes_its_bracket_ends_from_the_scan(monkeypatch, kind, side):
    # brentq's first two points are t = 0 or scan points, whose values the
    # sign check and the scan hold: no single-state evaluation repeats them.
    from scipy.optimize import brentq as scipy_brentq

    durations, evolve = [], channels._evolve_stack
    brackets, port = [], measures.brentq

    def logging_evolve(cms, det_v, specs, t):
        if isinstance(t, float):
            durations.append(t)
        return evolve(cms, det_v, specs, t)

    def logging_brentq(f, a, b, **kwargs):
        brackets.append((a, b, kwargs))
        return port(f, a, b, **kwargs)

    monkeypatch.setattr(channels, "_evolve_stack", logging_evolve)
    monkeypatch.setattr(measures, "brentq", logging_brentq)
    channel = ChannelSpec(kind=kind, side=side, g=0.7, kappa=1.3, nbar=0.4, m=0.3)
    known = {0.0, *_scan_grid(50.0).tolist()}
    roots = []
    for r in (0.3, 1.1):
        state0 = make_tmsv(r)
        for name in ("G_AtoB", "G_BtoA", "G_twoway", "E_N"):
            del brackets[:]
            try:
                root = numeric_threshold(channel, r, name, t_max=50.0)
            except MultiRootError:
                continue
            assert len(brackets) == math.isfinite(root)
            if brackets:
                roots.append((state0, name, root, *brackets[0]))
    assert roots and durations
    assert known.isdisjoint(durations)
    monkeypatch.undo()
    for state0, name, root, a, b, kwargs in roots:
        fresh = lambda t: _evolved_quantity(channel, state0, t, name)
        assert scipy_brentq(fresh, a, b, **kwargs).hex() == root.hex()


def test_threshold_result_serialization():
    res = two_way_laser_threshold(0.0, 1.0, 0.5)
    d = res.as_dict()
    assert d["direction"] == "two-way"
    assert d["status"] == "ok"
    t_ab, _ = one_side_thresholds(0.0, 1.0, 0.5)
    assert t_ab.as_dict()["t_closed"] == "inf"
    assert t_ab.as_dict()["t_numeric"] == "inf"


def _outcome(call):
    """("ok", float bits) or ("raise", exception type, message) of one call."""
    try:
        value = call()
    except Exception as exc:  # the tuple call must raise the same
        return ("raise", type(exc), str(exc))
    return ("ok", [v.hex() for v in value] if isinstance(value, tuple) else value.hex())


@given(
    kind=st.sampled_from(["loss", "gain", "thermal", "laser", "phase-sensitive"]),
    side=st.sampled_from(list(ChannelSide)),
    names=st.lists(st.sampled_from(["G_AtoB", "G_BtoA", "G_twoway", "E_N", "nonsense"]), min_size=1, max_size=5),
    r=st.floats(0.0, 1.5),
    g=st.floats(0.0, 3.0),
    kappa=st.floats(0.0, 3.0),
    nbar=st.floats(0.0, 1.5),
    m_fraction=st.floats(-1.0, 1.0),
    t_max=st.floats(-1.0, 200.0),
)
@example(kind="gain", side=ChannelSide.BOTH, names=["E_N", "G_twoway"], r=0.5, g=3.0, kappa=1.0, nbar=0.0,
         m_fraction=0.0, t_max=200.0)  # the shared scan overflows
@example(kind="laser", side=ChannelSide.B, names=["G_AtoB", "nonsense"], r=0.0, g=1.0, kappa=1.0, nbar=0.0,
         m_fraction=0.0, t_max=10.0)  # not positive at t = 0 before the unknown name
@settings(max_examples=40, deadline=None)
def test_tuple_call_equals_one_quantity_calls(kind, side, names, r, g, kappa, nbar, m_fraction, t_max):
    m = m_fraction * math.sqrt(nbar * (nbar + 1.0))
    channel = ChannelSpec(kind=kind, side=side, g=g, kappa=kappa, nbar=nbar, m=m)
    singles = [_outcome(lambda: numeric_threshold(channel, r, name, t_max)) for name in names]
    failed = [single for single in singles if single[0] == "raise"]
    expected = failed[0] if failed else ("ok", [single[1] for single in singles])
    assert _outcome(lambda: numeric_threshold(channel, r, tuple(names), t_max)) == expected


def _brackets_loop(ts, signs):
    # The scan's bracket rule as a loop over the grid: the reference.
    brackets, prev_t, prev_s = [], 0.0, 1.0
    for t, s in zip(ts, signs):
        if s == 0.0:
            continue
        if s != prev_s:
            brackets.append((prev_t, t))
        prev_t, prev_s = t, s
    return brackets


@given(signs=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), max_size=60))
def test_brackets_equal_the_loop_over_the_grid(signs):
    ts = np.cumsum(np.full(len(signs), 0.25))
    assert _brackets(ts, np.array(signs)) == _brackets_loop(ts, signs)


def _lapack_calls(monkeypatch):
    """A dict that counts ``np.linalg.det`` and ``np.linalg.eigvalsh`` calls
    by (name, "one" for one 4x4 matrix or "stack")."""
    calls = {}

    def counting(name, function):
        def wrapper(a, *args, **kwargs):
            key = (name, "one" if np.ndim(a) == 2 else "stack")
            calls[key] = calls.get(key, 0) + 1
            return function(a, *args, **kwargs)

        return wrapper

    for name in ("det", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


_LASER = ChannelSpec("laser", ChannelSide.BOTH, g=0.5, kappa=1.3)
_TMSV = make_tmsv(0.7)
_EVOLVED = _LASER.evolve(_TMSV, 0.3)


@pytest.mark.parametrize(
    ("call", "expected"),
    [
        (lambda: channels._evolve_stack(_TMSV.cm, _TMSV._det_v, (_LASER,), 0.3)[0], {("det", "one"): 1}),
        (lambda: _signed_quantity(_EVOLVED.cm, "G_twoway", _EVOLVED._det_v), {}),
        (lambda: _signed_quantity(_EVOLVED.cm, "E_N", _EVOLVED._det_v), {}),
        (lambda: steering_report(_LASER.evolve(_TMSV, 0.3)), {("det", "one"): 1}),
        (lambda: numeric_threshold(_LASER, 0.7, ("G_twoway", "E_N"), 25.0), {("det", "one"): 9, ("det", "stack"): 1}),
    ],
    ids=["evolve_stack", "G_twoway", "E_N", "steering_report", "numeric_threshold"],
)
def test_lapack_work_of_one_matrix_and_a_scan(monkeypatch, call, expected):
    # Timing on a shared host swings by more than these calls cost, so the
    # work itself is pinned: one det V per validation, which every later
    # quantity reads (none for G or E_N), one stacked det per scan, and no
    # eigensolver for a certified state.  numeric_threshold validates the
    # TMSV and one matrix per root step: 1 + 8.
    calls = _lapack_calls(monkeypatch)
    call()
    assert calls == expected


def test_each_root_step_assembles_one_4x4_matrix(monkeypatch):
    # The channel map hands its entries to validation, which assembles the
    # one matrix (or the scan's one stack) that LAPACK's det reads.
    assembled, matrix = [], states._matrix
    steps, evolve = [], channels._evolve_stack

    def counting_matrix(rows, shape):
        assembled.append((len(rows), bool(shape)))
        return matrix(rows, shape)

    def counting_evolve(cms, det_v, specs, t):
        steps.append(np.ndim(t) == 0)
        return evolve(cms, det_v, specs, t)

    monkeypatch.setattr(states, "_matrix", counting_matrix)
    monkeypatch.setattr(channels, "_evolve_stack", counting_evolve)
    numeric_threshold(_LASER, 0.7, ("G_twoway", "E_N"), 25.0)
    assert steps.count(True) == 8 and steps.count(False) == 1
    # The TMSV's entries (``_tmsv_cms``) and its validation, then one per
    # root step; the scan's stack.
    assert assembled.count((4, False)) == 2 + 8 and assembled.count((4, True)) == 1


def _scan_stacks(monkeypatch):
    """A list that counts every multi-duration stack the channel driver builds."""
    built, evolve = [], channels._evolve_stack

    def counting(cms, det_v, specs, t):
        if np.size(t) > 1:
            built.append(specs[0])
        return evolve(cms, det_v, specs, t)

    monkeypatch.setattr(channels, "_evolve_stack", counting)
    return built


@pytest.mark.parametrize(
    ("channel", "r", "scans"),
    [
        (ChannelSpec("loss", kappa=0.7), 0.6, 2),
        (ChannelSpec("gain", g=0.8), 0.6, 2),
        (ChannelSpec("laser", g=0.5, kappa=1.3), 0.6, 2),
        (ChannelSpec("thermal", kappa=0.9, nbar=0.6), 0.6, 3),
        (ChannelSpec("thermal", nbar=0.2), 0.1, 2),  # the two-way row is never-steerable: no thermal scan
    ],
)
def test_threshold_table_scans_each_channel_once(monkeypatch, channel, r, scans):
    built = _scan_stacks(monkeypatch)
    rows = threshold_table(channel, r, "all")
    assert len(rows) == 5 and len(built) == scans
    assert len(set(built)) == scans


def test_one_side_thresholds_share_one_scan(monkeypatch):
    built = _scan_stacks(monkeypatch)
    t_ab, t_ba = one_side_thresholds(0.5, 1.0, 0.5)
    assert len(built) == 1
    t_max = _default_t_max(0.5, 1.0)
    assert [t_ab.t_numeric, t_ba.t_numeric] == [numeric_threshold(built[0], 0.5, q, t_max) for q in ("G_AtoB", "G_BtoA")]



def test_numeric_threshold_builds_its_scan_grid_once(monkeypatch):
    grids, scan_grid = [], measures._scan_grid
    monkeypatch.setattr(measures, "_scan_grid", lambda t_max: grids.append(t_max) or scan_grid(t_max))
    numeric_threshold(ChannelSpec("laser", g=0.5, kappa=1.3), 0.9, ("G_AtoB", "G_BtoA", "G_twoway", "E_N"), 50.0)
    assert grids == [50.0]


@pytest.mark.parametrize(("quantity", "names"), [("a-to-b", ("G_AtoB",)), ("b-to-a", ("G_BtoA",))])
def test_threshold_table_roots_only_the_rows_it_prints(monkeypatch, quantity, names):
    asked, root = [], measures.numeric_threshold

    def recording(channel, r, quantity, t_max):
        asked.append(quantity)
        return root(channel, r, quantity, t_max)

    monkeypatch.setattr(measures, "numeric_threshold", recording)
    rows = threshold_table(ChannelSpec("laser", g=0.5, kappa=1.3), 0.9, quantity)
    assert asked == [names]
    assert [res.direction for res in rows] == [quantity.replace("-", "_")]


@pytest.mark.parametrize("quantity", ["a_to_b", "bogus", ""])
def test_threshold_table_refuses_an_unknown_quantity(quantity):
    # "a_to_b" is a row's direction, not a table quantity.
    expected = "'a-to-b', 'b-to-a', 'two-way', 'inseparability', 'all'"
    with pytest.raises(InvalidArgumentError, match=f"unknown quantity {quantity!r}; expected one of \\({expected}\\)"):
        threshold_table(ChannelSpec("loss"), 0.5, quantity)


@pytest.mark.parametrize(
    "channel",
    [ChannelSpec("thermal", nbar=0.11070137908008487), ChannelSpec("laser", g=0.11070137908008487, kappa=1.11070137908008487)],
    ids=["thermal", "laser"],
)
def test_closed_form_that_divides_by_zero_disagrees_with_its_root(channel):
    # The two-way form's quadratic coefficient is 0 at this thermal window-edge
    # point and at its laser twin (ROADMAP item 2); the row keeps its root.
    with pytest.raises(ZeroDivisionError):
        measures._closed_form(channel, "two-way", 0.1)
    (row,) = threshold_table(channel, 0.1, "two-way")
    assert math.isnan(row.t_closed) and math.isnan(row.agreement) and row.status == "disagree"
    assert math.isclose(row.t_numeric, 0.0357905911027, rel_tol=1e-11)

@pytest.mark.parametrize("quantity", ["all", "two-way", "inseparability"])
def test_threshold_table_refuses_the_phase_sensitive_channel(quantity):
    # Every row reads laser rates, which this kind has not; the rows read
    # their rates from the channels' checked params, not from laser_params.
    message = "^channel kind 'phase-sensitive' has no laser parameterization$"
    with pytest.raises(InvalidArgumentError, match=message):
        threshold_table(ChannelSpec("phase-sensitive", nbar=0.4, m=0.3), 0.5, quantity)


def _refuse_second_rate_reads(monkeypatch):
    """Make the rate reads that rebuild a spec's checked params raise."""
    fail = lambda *args: pytest.fail("rates read past the spec's checked params")
    monkeypatch.setattr(ChannelSpec, "laser_params", fail)
    monkeypatch.setattr(verify, "thermal_preset", fail)


@pytest.mark.parametrize("kind", ["loss", "gain", "thermal", "laser"])
def test_threshold_table_reads_rates_from_the_spec(monkeypatch, kind):
    channel = ChannelSpec(kind, ChannelSide.B, g=0.4, kappa=1.2, nbar=0.3)
    expected = _bits(threshold_table(channel, 0.6))
    _refuse_second_rate_reads(monkeypatch)
    assert _bits(threshold_table(channel, 0.6)) == expected


def test_verify_thresholds_reads_rates_from_the_specs(monkeypatch):
    expected = _bits(verify._threshold_results())
    _refuse_second_rate_reads(monkeypatch)
    assert _bits(verify._threshold_results()) == expected


@pytest.mark.parametrize("channel", [ChannelSpec("phase-sensitive", nbar=0.4, m=0.3), ChannelSpec("identity")])
def test_threshold_rows_refuse_a_kind_without_laser_rates(channel):
    # The rows' own entry point names the kind, as threshold_table does; it
    # must not fail on reading a rate the kind has not.
    message = f"^channel kind '{channel.kind}' has no laser parameterization$"
    with pytest.raises(InvalidArgumentError, match=message):
        measures._threshold_rows([(channel, "two-way")], 0.5)


@pytest.mark.parametrize("kind, rates", [("loss", {"kappa": 0.7}), ("gain", {"g": 0.6})])
@pytest.mark.parametrize("side", [ChannelSide.B, ChannelSide.BOTH])
def test_loss_and_gain_rows_equal_their_laser_twins_bit_for_bit(kind, rates, side):
    # A loss spec keeps the default g = 1 and a gain spec kappa = 1, which
    # their kinds never read: the row's closed form and horizon must not either.
    channel = ChannelSpec(kind, side, **rates)
    params = channel.laser_params(0.0)
    twin = ChannelSpec("laser", side, g=params.g, kappa=params.kappa)
    for r in (0.3, 1.0):
        for direction in ("two-way", "a_to_b", "b_to_a", "inseparability"):
            (row,) = measures._threshold_rows([(channel, direction)], r)
            (twin_row,) = measures._threshold_rows([(twin, direction)], r)
            assert _bits([row])[0][1:] == _bits([twin_row])[0][1:]


def _today_signs(values, quantity):
    """The scan's sign rule on the values themselves."""
    return np.where(np.abs(values) <= measures._QUANTITIES[quantity][2], 0.0, np.sign(values))


@pytest.mark.parametrize("kind", ["loss", "gain", "thermal", "laser", "phase-sensitive"])
@pytest.mark.parametrize("side", list(ChannelSide))
def test_scan_signs_and_bracket_ends_equal_the_values_rule(monkeypatch, kind, side):
    # The scan reads most signs off the log arguments without the log; every
    # sign and every bracket end brentq starts from must be what the values
    # themselves give.  At r <= 1e-3 the values stay near the noise floor, so
    # points inside the band, which do take the log, occur.
    ends, port = [], measures.brentq

    def logging_brentq(f, a, b, **kwargs):
        ends.append((f(a), f(b), a, b))
        return port(f, a, b, **kwargs)

    monkeypatch.setattr(measures, "brentq", logging_brentq)
    channel = ChannelSpec(kind=kind, side=side, g=0.7, kappa=1.3, nbar=0.4, m=0.3)
    ts = _scan_grid(25.0)
    in_band = bracketed = 0
    for r in (1e-4, 1e-3, 0.6):
        state0 = make_tmsv(r)
        stack, _, det_v = channels._evolve_stack(state0.cm, state0._det_v, (channel,), ts)
        for name in ("G_AtoB", "G_BtoA", "G_twoway", "E_N"):
            values = _signed_quantity(stack, name, det_v)
            signs, args = measures._scan_signs(stack, name, det_v)
            assert signs.tolist() == _today_signs(values, name).tolist()
            k, _, floor = measures._QUANTITIES[name]
            width = 100.0 * floor / k
            in_band += int(np.count_nonzero(np.abs(np.maximum.reduce(args) - 1.0) < width))
            del ends[:]
            try:
                numeric_threshold(channel, r, name, t_max=25.0)
            except MultiRootError:
                continue
            bracketed += len(ends)
            for f_a, f_b, a, b in ends:
                for t, value in ((a, f_a), (b, f_b)):
                    known = _signed_quantity(state0.cm, name, state0._det_v) if t == 0.0 else values[ts.searchsorted(t)]
                    assert float(value).hex() == float(known).hex()
    assert in_band > 0 and bracketed > 0


def test_threshold_table_solves_no_eigenproblem_on_a_stack(monkeypatch):
    # Every scan stack of a table is certified, and so is every single state
    # of the root phase, on floats: no eigvalsh call, on a stack or on one
    # matrix.  A TMSV at r = 8, which the certificate cannot prove, shows
    # that the count sees one-matrix calls.
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def logging_eigvalsh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", logging_eigvalsh)
    for flags in (["--channel", "laser", "--g", "0.5", "--kappa", "1.3"], ["--channel", "thermal", "--nbar", "0.2"]):
        assert main(["threshold", *flags, "--r", "0.6", "--quantity", "all"]) == 0
    assert shapes == []
    make_tmsv(8.0)
    assert shapes == [(4, 4)]


def test_inseparability_scan_takes_det_v_from_its_validation(monkeypatch):
    # The scan stack's certificate computes det V; the E_N sign scan takes it
    # for the partial transpose, whose det is the same bits, so one root
    # makes one stacked np.linalg.det call.
    stacked, det = [], np.linalg.det

    def logging_det(a):
        if np.ndim(a) > 2:
            stacked.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", logging_det)
    root = numeric_threshold(ChannelSpec("laser", g=0.5, kappa=1.3), 0.9, "E_N", 50.0)
    assert math.isfinite(root) and len(stacked) == 1


def _per_helper_threshold_rows():
    """The ``verify thresholds`` rows, bisected one helper call at a time."""
    for r in (0.3, 0.5, 1.0):
        yield two_way_laser_threshold(0.0, 1.0, r)
        yield two_way_laser_threshold(1.0, 0.0, r)
        for gamma in (0.5, 1.0, 2.0):
            yield two_way_laser_threshold(gamma, 1.0, r)
        for g, kappa in ((0.0, 1.0), (1.0, 0.0), (0.5, 1.0)):
            yield from one_side_thresholds(g, kappa, r)
        yield inseparability_threshold(1.0, 0.0, r, ChannelSide.BOTH)
        yield inseparability_threshold(0.5, 1.0, r, ChannelSide.BOTH)
        yield inseparability_threshold(0.5, 1.0, r, ChannelSide.B)
    for nbar, r in ((0.0, 0.5), (0.2, 0.8), (0.5, 1.0)):
        yield two_way_thermal_threshold(nbar, r)
        if nbar > 0:
            yield inseparability_threshold(nbar, nbar + 1.0, r, ChannelSide.BOTH)
            yield inseparability_threshold(nbar, nbar + 1.0, r, ChannelSide.B)


def _bits(rows):
    return [(res.channel, res.direction, res.t_closed.hex(), res.t_numeric.hex(), res.status) for res in rows]


def test_verify_thresholds_scans_each_channel_once_per_r(monkeypatch):
    # 8 distinct channels per laser r and 1, 3, 3 at the thermal points: 31
    # scans; one helper call at a time takes 11 per laser r, 40 in all.
    built = _scan_stacks(monkeypatch)
    rows = list(verify._threshold_results())
    assert len(rows) == 49 and len(built) == 31
    monkeypatch.undo()
    assert _bits(rows) == _bits(_per_helper_threshold_rows())


@pytest.mark.parametrize(("g", "direction"), [(1e-300, "a_to_b"), (1e300, "b_to_a")])
def test_closed_form_beyond_the_scan_is_not_ok(g, direction):
    rows = {res.direction: res for res in one_side_thresholds(g, 1.0, 0.5)}
    res = rows[direction]
    t_max = _default_t_max(g, 1.0)
    assert t_max < res.t_closed < math.inf and math.isinf(res.t_numeric)
    assert res.status == "beyond-scan-horizon"
    other = rows[({"a_to_b", "b_to_a"} - {direction}).pop()]
    assert other.status == "ok" and math.isfinite(other.t_numeric)


def _per_state_quantity(state, quantity):
    a_to_b = lambda: steerability_exponent(state, SteeringDirection.A_TO_B)
    b_to_a = lambda: steerability_exponent(state, SteeringDirection.B_TO_A)
    if quantity == "G_AtoB":
        return a_to_b()
    if quantity == "G_BtoA":
        return b_to_a()
    if quantity == "G_twoway":
        return min(a_to_b(), b_to_a())
    return log_negativity_exponent(state)


@given(
    kind=st.sampled_from(["loss", "gain", "thermal", "laser", "phase-sensitive"]),
    side=st.sampled_from(list(ChannelSide)),
    quantity=st.sampled_from(["G_AtoB", "G_BtoA", "G_twoway", "E_N"]),
    r=st.floats(0.05, 1.5),
    g=st.floats(0.1, 3.0),
    kappa=st.floats(0.1, 3.0),
    nbar=st.floats(0.0, 1.5),
    m_fraction=st.floats(-1.0, 1.0),
)
@settings(max_examples=15, deadline=None)
def test_stacked_scan_equals_per_state_values_exactly(kind, side, quantity, r, g, kappa, nbar, m_fraction):
    # The bracket, and so every printed digit of the bisected root, depends on
    # the stacked values being the per-state values bit for bit.
    m = m_fraction * math.sqrt(nbar * (nbar + 1.0))
    channel = ChannelSpec(kind=kind, side=side, g=g, kappa=kappa, nbar=nbar, m=m)
    state0 = make_tmsv(r)
    ts = np.concatenate([[0.0], _scan_grid(50.0 / (g + kappa))])
    stacked = _evolved_quantity(channel, state0, ts, quantity)
    per_state = [_per_state_quantity(channel.evolve(state0, t), quantity) for t in ts]
    assert stacked.tolist() == per_state
    for t in ts[::97]:
        assert _evolved_quantity(channel, state0, [t], quantity)[0] == _per_state_quantity(
            channel.evolve(state0, t), quantity
        )


def _evolved_quantity(channel, state0, t, quantity):
    """``_signed_quantity`` of state0's matrix after one duration t, or of
    the stack after each duration in t, with the det V of its validation:
    the root phase's and the scan's arithmetic."""
    cms, _, det_v = channels._evolve_stack(state0.cm, state0._det_v, (channel,), t)
    return _signed_quantity(cms, quantity, det_v)


def _value_or_error(evaluate):
    """evaluate()'s float, or its error's type and message."""
    try:
        return float(evaluate())
    except Exception as exc:
        return type(exc), str(exc)


@given(
    kind=st.sampled_from(["loss", "gain", "thermal", "laser", "phase-sensitive"]),
    side=st.sampled_from(list(ChannelSide)),
    quantity=st.sampled_from(["G_AtoB", "G_BtoA", "G_twoway", "E_N"]),
    r=st.floats(0.05, 3.0),
    g=st.floats(0.1, 3.0),
    kappa=st.floats(0.1, 3.0),
    nbar=st.floats(0.0, 1.5),
    m_fraction=st.floats(-1.0, 1.0),
)
@settings(max_examples=15, deadline=None)
def test_stacked_scan_equals_per_state_values_at_strong_squeezing(kind, side, quantity, r, g, kappa, nbar, m_fraction):
    # test_stacked_scan_equals_per_state_values_exactly up to r = 3, where
    # the TMSV's entries reach cosh 6 = 202.
    m = m_fraction * math.sqrt(nbar * (nbar + 1.0))
    channel = ChannelSpec(kind=kind, side=side, g=g, kappa=kappa, nbar=nbar, m=m)
    state0 = make_tmsv(r)
    ts = np.concatenate([[0.0], _scan_grid(50.0 / (g + kappa))])
    stacked = _evolved_quantity(channel, state0, ts, quantity)
    assert stacked.tolist() == [_per_state_quantity(channel.evolve(state0, t), quantity) for t in ts]


@given(
    side=st.sampled_from(list(ChannelSide)),
    quantity=st.sampled_from(["G_AtoB", "G_BtoA", "G_twoway", "E_N"]),
    r=st.floats(0.05, 3.0),
    g=st.floats(0.1, 3.0),
    gt=st.floats(20.0, 400.0),
)
@settings(max_examples=30, deadline=None)
@example(side=ChannelSide.BOTH, quantity="E_N", r=0.5, g=1.0, gt=100.0)  # past _MAX_SCALE
@example(side=ChannelSide.B, quantity="G_AtoB", r=3.0, g=3.0, gt=354.0)  # entries overflow, exp(2 g t) not
@example(side=ChannelSide.A, quantity="G_twoway", r=0.05, g=0.1, gt=360.0)  # exp(2 g t) overflows
def test_one_gain_duration_evaluates_or_raises_as_its_stack(side, quantity, r, g, gt):
    # One duration takes the float path, a one-point stack the array path:
    # the same value, or the same DegenerateInputError, and no RuntimeWarning.
    channel, state0, t = ChannelSpec("gain", side, g=g), make_tmsv(r), gt / g
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = _value_or_error(lambda: _per_state_quantity(channel.evolve(state0, t), quantity))
        stacked = _value_or_error(lambda: _evolved_quantity(channel, state0, [t], quantity)[0])
        root = _value_or_error(lambda: _evolved_quantity(channel, state0, t, quantity))
    assert one == stacked == root
    if 2.0 * gt > math.log(_MAX_SCALE):
        assert one[0] is DegenerateInputError


@pytest.mark.parametrize("t_max", [50.0, 200.0])  # 200: exp(2 g t) itself overflows
def test_overflowing_scan_is_degenerate_without_warnings(t_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError, match="overflow"):
            numeric_threshold(ChannelSpec("gain", g=3.0), 0.5, "E_N", t_max=t_max)


def _assert_stacked_report_matches(states):
    # Each stacked column entry equals the one-state report field and the
    # scalar API value exactly, with the same Python type.
    stack = np.stack([s.cm for s in states])
    columns = _report_columns(stack, _FIELDS, np.linalg.det(stack))
    assert list(columns) == [f for f in SteeringReport.__dataclass_fields__]
    for k, state in enumerate(states):
        report = steering_report(state)
        for name, values in columns.items():
            assert values[k] == getattr(report, name)
            assert type(values[k]) is type(getattr(report, name))
        ab, ba = SteeringDirection.A_TO_B, SteeringDirection.B_TO_A
        assert report.reid_a_to_b == reid_product(state, ab) and report.reid_b_to_a == reid_product(state, ba)
        assert report.entropic_a_to_b == entropic_sum(state, ab)
        assert report.entropic_b_to_a == entropic_sum(state, ba)
        assert report.g_a_to_b == gaussian_steerability(state, ab)
        assert report.g_b_to_a == gaussian_steerability(state, ba)
        assert report.g_twoway == min(report.g_a_to_b, report.g_b_to_a)
        assert report.e_n == log_negativity(state)
        assert report.entangled is (report.e_n > 0.0)
        assert report.separable is (not report.entangled)


def _report_bits(cms, det_v):
    """``_report_columns``' columns of every field with every float as its
    hex string, or its error's type and message."""
    try:
        report = _report_columns(cms, _FIELDS, det_v)
    except Exception as exc:
        return type(exc), str(exc)
    return {name: [v.hex() if isinstance(v, float) else v for v in values] for name, values in report.items()}


@given(
    kind=st.sampled_from(["loss", "gain", "thermal", "laser", "phase-sensitive"]),
    side=st.sampled_from(list(ChannelSide)),
    r=st.floats(0.0, 3.0),
    g=st.floats(0.1, 3.0),
    kappa=st.floats(0.1, 3.0),
    nbar=st.floats(0.0, 1.5),
    m_fraction=st.floats(-1.0, 1.0),
)
@settings(max_examples=30, deadline=None)
def test_report_with_det_v_from_validation_equals_the_report_without(kind, side, r, g, kappa, nbar, m_fraction):
    # E_N of the partial transpose takes validation's det V: the same bits.
    # At some r >= 2 (r = 2.0 among them) the pure TMSV at t = 0 fails the
    # certificate, and the eigvalsh rule's det V is kept instead.
    m = m_fraction * math.sqrt(nbar * (nbar + 1.0))
    channel = ChannelSpec(kind=kind, side=side, g=g, kappa=kappa, nbar=nbar, m=m)
    ts = np.concatenate([[0.0], _scan_grid(50.0 / (g + kappa))[::8]])
    state0 = make_tmsv(r)
    stack, _, det_v = channels._evolve_stack(state0.cm, state0._det_v, (channel,), ts)
    assert det_v.tobytes() == np.linalg.det(stack).tobytes()
    assert _report_bits(stack, det_v) == _report_bits(stack, np.linalg.det(stack))


@pytest.mark.parametrize("r", [0.5, 3.0])
@pytest.mark.parametrize("side", [ChannelSide.A, ChannelSide.B])
def test_report_of_an_uncertified_stack_takes_det_v_itself(side, r):
    # Entries past _MAX_SCALE / 8 fail the certificate but pass the eigvalsh
    # rule: validation takes det V from the rule, the det of the stack, and
    # the report equals each state's own report.
    channel, state0 = ChannelSpec("gain", side, g=1.0), make_tmsv(r)
    ts = np.linspace(0.0, 0.5 * math.log(_MAX_SCALE / (2.0 * math.cosh(2.0 * r))), 5)
    stack, _, det_v = channels._evolve_stack(state0.cm, state0._det_v, (channel,), ts)
    assert det_v.tobytes() == np.linalg.det(stack).tobytes() and np.abs(stack).max() > _MAX_SCALE / 8.0
    assert _report_bits(stack, det_v) == _report_bits(stack, np.linalg.det(stack))
    _assert_stacked_report_matches([channel.evolve(state0, t) for t in ts.tolist()])


def _williamson_matrix(rng, h_scale):
    """S diag(nu1, nu1, nu2, nu2) S^T with S = expm(Omega H): physical."""
    from scipy.linalg import expm

    h = rng.normal(scale=h_scale, size=(4, 4))
    s = expm(states.SYMPLECTIC_FORM @ (h + h.T))
    nu1, nu2 = rng.uniform(1.0, 3.0, size=2)
    return s @ np.diag([nu1, nu1, nu2, nu2]) @ s.T


_WAYS = ("certified", "uncertified", "past-certified-scale", "make_tmsv", "evolve", "swapped", "random_physical_state")


@given(
    way=st.sampled_from(_WAYS),
    seed=st.integers(0, 2**32 - 1),
    r=st.floats(0.0, 3.0),
    kind=st.sampled_from(["identity", "loss", "gain", "thermal", "laser", "phase-sensitive"]),
    side=st.sampled_from(list(ChannelSide)),
    t=st.floats(0.0, 3.0),
)
@settings(max_examples=200, deadline=None)
def test_every_state_keeps_the_det_v_of_its_matrix(way, seed, r, kind, side, t):
    # However a state is made, the det V it keeps is np.linalg.det of its
    # matrix bit for bit, so every quantity that reads it equals the same
    # quantity given a det V computed afresh.
    rng = np.random.default_rng(seed)
    if way in ("certified", "uncertified"):
        cm = _williamson_matrix(rng, 0.05 if way == "certified" else 1.0)
        assume((states._certified(states._entries(cm), ()) is None) == (way == "uncertified"))
        state = TwoModeGaussianState(rng.normal(size=4), cm)
    elif way == "past-certified-scale":  # fails the certificate's scale bound, passes the eigvalsh rule
        scale = rng.uniform(1.01, 2.0) * states._CERTIFIED_SCALE / math.cosh(2.0 * r)
        state = TwoModeGaussianState(np.zeros(4), scale * make_tmsv(r).cm)
    elif way == "make_tmsv":
        state = make_tmsv(r)
    elif way == "evolve":
        nbar = rng.uniform(0.0, 1.5)
        m = rng.uniform(-1.0, 1.0) * math.sqrt(nbar * (nbar + 1.0))
        channel = ChannelSpec(kind=kind, side=side, g=rng.uniform(0.1, 3.0), kappa=rng.uniform(0.1, 3.0), nbar=nbar, m=m)
        state = channel.evolve(make_tmsv(r), t)
    elif way == "swapped":
        state = ChannelSpec(kind, side, nbar=0.4, m=0.3).evolve(random_physical_state(rng), t).swapped()
    else:
        state = random_physical_state(rng, with_mean=True)
    det_v = np.linalg.det(state.cm)
    assert type(state._det_v) is float and state._det_v.hex() == float(det_v).hex()
    fresh = _report_columns(state.cm, _FIELDS, float(det_v))
    assert {name: value.hex() if isinstance(value, float) else value for name, value in fresh.items()} == {
        name: value.hex() if isinstance(value, float) else value for name, value in vars(steering_report(state)).items()
    }
    for quantity in measures._QUANTITIES:
        kept = _signed_quantity(state.cm, quantity, state._det_v)
        assert kept.hex() == _signed_quantity(state.cm, quantity, float(det_v)).hex()


@pytest.mark.parametrize("stacked", [False, True])
def test_a_report_computes_each_inferred_variance_once(monkeypatch, stacked):
    # Q and P in each direction, shared by the Reid product and the entropic sum.
    calls, inferred = [], criteria._inferred_variances

    def counting(cms, direction, quadrature):
        calls.append((direction, quadrature))
        return inferred(cms, direction, quadrature)

    monkeypatch.setattr(criteria, "_inferred_variances", counting)
    monkeypatch.setattr(measures, "_inferred_variances", counting)
    state = ChannelSpec("laser", g=0.5, kappa=1.3).evolve(make_tmsv(0.7), 0.2)
    if stacked:
        _report_columns(np.stack([state.cm] * 3), _FIELDS, np.array([state._det_v] * 3))
    else:
        steering_report(state)
    assert len(calls) == len(set(calls)) == 4


def test_a_one_state_report_reads_its_matrix_once(monkeypatch):
    # Every stage takes the 4x4 entries the report read, and every field is
    # already a Python float or bool, so no field goes through np.asarray.
    reads, converted = [], []
    entries, asarray = states._entries, np.asarray

    def counting_entries(cms):
        reads.append(cms.shape)
        return entries(cms)

    def counting_asarray(*args, **kwargs):
        converted.append(args)
        return asarray(*args, **kwargs)

    monkeypatch.setattr(measures, "_entries", counting_entries)
    monkeypatch.setattr(criteria, "_entries", counting_entries)
    monkeypatch.setattr(np, "asarray", counting_asarray)
    report = steering_report(_EVOLVED)
    assert reads.count((4, 4)) == 1 and converted == []
    assert all(type(value) in (float, bool) for value in vars(report).values())


# Blocks I, I and 2 diag(1, -1): G and E_N pass their checks, and the Q
# inferred variance of A -> B, 1/2 (1 - 4), is clamped to 0.
_DEGENERATE_CONDITIONAL = np.array([[1.0, 0, 2, 0], [0, 1, 0, -2], [2, 0, 1, 0], [0, -2, 0, 1]])
# diag(1, 1, -1, -1): G and E_N pass their checks, and B -> A conditions on -1.
_NON_POSITIVE_CONDITIONING = np.diag([1.0, 1.0, -1.0, -1.0])


@pytest.mark.parametrize(
    ("cms", "message"),
    [
        (_DEGENERATE_CONDITIONAL[None], "conditional distribution is degenerate"),
        (_NON_POSITIVE_CONDITIONING[None], "conditioning variance is not positive"),
        (_NON_POSITIVE_CONDITIONING, "conditioning variance is not positive"),
        # Every Reid check comes before the entropic ones, whichever matrix is first.
        (np.stack([_DEGENERATE_CONDITIONAL, _NON_POSITIVE_CONDITIONING]), "conditioning variance is not positive"),
    ],
    ids=["degenerate", "conditioning", "conditioning-one", "both"],
)
def test_report_raises_in_the_order_of_the_public_functions(cms, message):
    with pytest.raises(DegenerateInputError, match=f"^{message}$"):
        _report_columns(cms, _FIELDS, np.linalg.det(cms))


# The checks of a report, in the order they raise: name -> the check on
# (cms, det_v).  A field asks for the groups it reads (``_FIELD_GROUPS``).
_AB, _BA = SteeringDirection.A_TO_B, SteeringDirection.B_TO_A
_CHECK_GROUPS = {
    "G_AtoB": lambda cms, det_v: _signed_quantity(cms, "G_AtoB", det_v),
    "G_BtoA": lambda cms, det_v: _signed_quantity(cms, "G_BtoA", det_v),
    "E_N": lambda cms, det_v: _signed_quantity(cms, "E_N", det_v),
    "conditioning_a_to_b": lambda cms, det_v: _variances(cms, _AB),
    "conditioning_b_to_a": lambda cms, det_v: _variances(cms, _BA),
    "entropic_a_to_b": lambda cms, det_v: criteria._entropic_sum(_variances(cms, _AB)),
    "entropic_b_to_a": lambda cms, det_v: criteria._entropic_sum(_variances(cms, _BA)),
}
_FIELD_GROUPS = {
    "reid_a_to_b": ("conditioning_a_to_b",),
    "reid_b_to_a": ("conditioning_b_to_a",),
    "entropic_a_to_b": ("conditioning_a_to_b", "entropic_a_to_b"),
    "entropic_b_to_a": ("conditioning_b_to_a", "entropic_b_to_a"),
    "g_a_to_b": ("G_AtoB",),
    "g_b_to_a": ("G_BtoA",),
    "g_twoway": ("G_AtoB", "G_BtoA"),
    "e_n": ("E_N",),
    "steerable_a_to_b": ("G_AtoB",),
    "steerable_b_to_a": ("G_BtoA",),
    "entangled": ("E_N",),
    "separable": ("E_N",),
}


def _variances(cms, direction):
    v = states._entries(cms)
    return [criteria._inferred_variances(v, direction, quad) for quad in criteria.Quadrature]


def _first_error(cms, det_v, fields):
    """The type and message of the first check that raises among the
    groups ``fields`` read, in the order of ``_CHECK_GROUPS``, or None."""
    groups = {group for field in fields for group in _FIELD_GROUPS[field]}
    for group, check in _CHECK_GROUPS.items():
        if group in groups:
            try:
                check(cms, det_v)
            except Exception as exc:
                return type(exc), str(exc)
    return None


def _typed_bits(value):
    """A report entry or column with each float as its hex string, and each
    entry's Python type."""
    if isinstance(value, list):
        return [_typed_bits(v) for v in value]
    return type(value), value.hex() if isinstance(value, float) else value


@st.composite
def _report_inputs(draw):
    """(cms, det_v): a random physical stack, one random physical matrix, or
    the raw matrices of ``test_report_raises_in_the_order_of_the_public_functions``."""
    way = draw(st.sampled_from(["stack", "one", "raw"]))
    if way == "raw":
        cms = draw(st.sampled_from([_DEGENERATE_CONDITIONAL, _NON_POSITIVE_CONDITIONING]))
        if draw(st.booleans()):
            cms = np.stack([cms, _DEGENERATE_CONDITIONAL, _NON_POSITIVE_CONDITIONING][: draw(st.integers(1, 3))])
        return cms, np.linalg.det(cms)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    _, cms, det_v = verify._random_physical_cms(rng, draw(st.integers(1, 5)))
    if way == "one":
        return cms[0], float(det_v[0])
    return cms, det_v


@given(inputs=_report_inputs(), fields=st.lists(st.sampled_from(_FIELDS), min_size=1, max_size=len(_FIELDS), unique=True))
@settings(max_examples=150, deadline=None)
def test_any_fields_in_any_order_are_the_full_reports_entries(inputs, fields):
    # Asked for any fields, a report gives the full report's entries bit for
    # bit, with the same Python types, in the order asked; or it raises what
    # the full report raises first among the checks those fields read.
    cms, det_v = inputs
    error = _first_error(cms, det_v, fields)
    try:
        columns = _report_columns(cms, fields, det_v)
    except Exception as exc:
        assert (type(exc), str(exc)) == error
        return
    assert error is None and list(columns) == fields
    try:
        full = _report_columns(cms, _FIELDS, det_v)
    except DegenerateInputError:  # some field not asked for fails its check: each field alone instead
        full = {field: _report_columns(cms, (field,), det_v)[field] for field in fields}
    assert {field: _typed_bits(columns[field]) for field in fields} == {field: _typed_bits(full[field]) for field in fields}
    if cms.ndim == 3:
        assert all(type(column) is list and len(column) == len(cms) for column in columns.values())


def test_report_fields_compute_only_the_quantities_they_read(monkeypatch):
    calls = []

    def counting(name):
        f = getattr(measures, name)
        return lambda *args: calls.append(name) or f(*args)

    for name in ("_inferred_variances", "_conditional_dets", "_transposed_nus"):
        monkeypatch.setattr(measures, name, counting(name))
    _, cms, det_v = verify._random_physical_cms(np.random.default_rng(7), 3)
    for fields, work in [
        (("entropic_b_to_a",), ["_inferred_variances"] * 2),
        (("separable",), ["_transposed_nus"]),
        (("g_twoway", "steerable_a_to_b"), ["_conditional_dets"] * 2),
        (_FIELDS, ["_conditional_dets"] * 2 + ["_transposed_nus"] + ["_inferred_variances"] * 4),
    ]:
        calls.clear()
        _report_columns(cms, fields, det_v)
        assert calls == work, fields


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=824)  # a conditional Reid variance where x ** 2 on one matrix differed from the stack's square
@settings(max_examples=20, deadline=None)
def test_stacked_report_equals_per_state_report_on_random_states(seed):
    rng = np.random.default_rng(seed)
    _assert_stacked_report_matches([random_physical_state(rng, with_mean=True) for _ in range(6)] + [vacuum()])


@given(
    kind=st.sampled_from(["loss", "gain", "thermal", "laser", "phase-sensitive"]),
    side=st.sampled_from(list(ChannelSide)),
    r=st.floats(0.0, 1.5),
    g=st.floats(0.1, 3.0),
    kappa=st.floats(0.1, 3.0),
    nbar=st.floats(0.0, 1.5),
    m_fraction=st.floats(-1.0, 1.0),
)
@settings(max_examples=25, deadline=None)
def test_stacked_report_equals_per_state_report_along_channels(kind, side, r, g, kappa, nbar, m_fraction):
    m = m_fraction * math.sqrt(nbar * (nbar + 1.0))
    channel = ChannelSpec(kind=kind, side=side, g=g, kappa=kappa, nbar=nbar, m=m)
    state0 = make_tmsv(r)
    _assert_stacked_report_matches([channel.evolve(state0, t) for t in (0.0, 1e-6, 0.05, 0.3, 1.0, 4.0)])
