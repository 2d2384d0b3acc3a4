"""Steerability quantifier, logarithmic negativity and threshold times."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsteer.channels import ChannelSide, ChannelSpec
from cvsteer.criteria import SteeringDirection
from cvsteer.errors import DegenerateInputError, InvalidArgumentError
from cvsteer.measures import (
    _scan_grid,
    _signed_quantity,
    gaussian_steerability,
    inseparability_threshold,
    log_negativity,
    log_negativity_exponent,
    numeric_threshold,
    one_side_thresholds,
    steerability_exponent,
    steering_report,
    two_way_laser_threshold,
    two_way_thermal_threshold,
)
from cvsteer.states import TwoModeGaussianState, make_tmsv, vacuum


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


def test_closed_form_only_mode_skips_bisection():
    res = two_way_laser_threshold(0.5, 1.0, 0.5, bisect=False)
    assert res.status == "closed-form-only"
    assert math.isnan(res.t_numeric)
    assert res.t_closed == pytest.approx(two_way_laser_threshold(0.5, 1.0, 0.5).t_closed)


def test_threshold_result_serialization():
    res = two_way_laser_threshold(0.0, 1.0, 0.5)
    d = res.as_dict()
    assert d["direction"] == "two-way"
    assert d["status"] == "ok"
    t_ab, _ = one_side_thresholds(0.0, 1.0, 0.5)
    assert t_ab.as_dict()["t_closed"] == "inf"
    assert t_ab.as_dict()["t_numeric"] == "inf"


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
    stacked = _signed_quantity(channel.evolve_cms(state0, ts), quantity)
    per_state = [_per_state_quantity(channel.evolve(state0, t), quantity) for t in ts]
    assert stacked.tolist() == per_state
    for t in ts[::97]:
        assert _signed_quantity(channel.evolve_cms(state0, [t]), quantity)[0] == _per_state_quantity(
            channel.evolve(state0, t), quantity
        )


@pytest.mark.parametrize("t_max", [50.0, 200.0])  # 200: exp(2 g t) itself overflows
def test_overflowing_scan_is_degenerate_without_warnings(t_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError, match="overflow"):
            numeric_threshold(ChannelSpec("gain", g=3.0), 0.5, "E_N", t_max=t_max)
