"""Laser and phase-sensitive channel maps at the covariance-matrix level."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsteer.channels import (
    ChannelSide,
    ChannelSpec,
    LaserChannelParams,
    PhaseSensitiveParams,
    _bath_factors,
    _evolve_stack,
    apply_laser,
    apply_phase_sensitive,
    thermal_preset,
    v_infinity,
)
from cvsteer.errors import InvalidArgumentError
from cvsteer.measures import log_negativity, steering_report
from cvsteer.states import TwoModeGaussianState, _tmsv_cms, make_tmsv, symplectic_eigenvalues, vacuum
from cvsteer.verify import random_physical_state


def test_identity_at_zero_time():
    params = LaserChannelParams(0.7, 1.3, 0.0)
    assert params.survival == 1.0
    assert params.noise == 0.0
    s = make_tmsv(0.5)
    out = apply_laser(s, params, ChannelSide.BOTH)
    assert np.allclose(out.cm, s.cm)


def test_loss_preset_coefficients():
    kt = 0.4
    params = ChannelSpec(kind="loss").laser_params(kt)
    assert (params.g, params.kappa) == (0.0, 1.0)
    assert params.survival == pytest.approx(math.exp(-2 * kt))
    assert params.noise == pytest.approx(1.0 - math.exp(-2 * kt))


def test_gain_preset_coefficients():
    gt = 0.3
    params = ChannelSpec(kind="gain").laser_params(gt)
    assert (params.g, params.kappa) == (1.0, 0.0)
    big_r = math.exp(2 * gt)
    assert params.survival == pytest.approx(big_r)
    assert params.noise == pytest.approx(big_r - 1.0)


def test_thermal_preset_coefficients():
    nbar, kt = 1.5, 0.25
    params = thermal_preset(1.0, nbar, kt)
    assert params.g == pytest.approx(nbar)
    assert params.kappa == pytest.approx(nbar + 1.0)
    assert params.survival == pytest.approx(math.exp(-2 * kt))
    assert params.noise == pytest.approx((2 * nbar + 1) * (1 - math.exp(-2 * kt)))


def test_balanced_rates_use_stable_limit():
    params = LaserChannelParams(1.0, 1.0, 0.2)
    assert params.survival == 1.0
    assert params.noise == pytest.approx(2.0 * 2.0 * 0.2)
    near = LaserChannelParams(1.0, 1.0 + 1e-13, 0.2)
    assert near.noise == pytest.approx(params.noise, rel=1e-9)


def test_numpy_scalar_rates_whose_sum_overflows_give_the_factors_without_a_warning():
    # kappa + g overflows, kappa t + g t is 2: R = 1 and A = 2 (kappa t + g t) = 4.
    params = LaserChannelParams(np.float64(2.0**1023), 2.0**1023, 2.0**-1023)
    assert (params.survival, params.noise) == (1.0, 4.0)
    assert type(params.noise) is float


def test_rejects_negative_parameters():
    with pytest.raises(InvalidArgumentError):
        LaserChannelParams(-0.1, 1.0, 0.1)
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="loss").laser_params(-0.1)
    with pytest.raises(InvalidArgumentError):
        thermal_preset(1.0, -0.5, 0.1)


@pytest.mark.parametrize(("kappa", "nbar"), [(1e200, 1e200), (1e308, 1.0)])
def test_thermal_preset_refuses_rates_whose_product_overflows(kappa, nbar):
    # At (1e308, 1) only kappa*(nbar + 1) overflows; kappa*nbar never does alone.
    with pytest.raises(InvalidArgumentError) as info:
        thermal_preset(kappa, nbar, 0.0)
    assert str(info.value) == f"kappa*(nbar + 1) must be finite, got kappa = {kappa}, nbar = {nbar}"


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: thermal_preset(-1.0, 0.5, 0.1), "kappa must be finite and >= 0, got -1.0"),
        (lambda: PhaseSensitiveParams(kappa=1.0, nbar=1.0, m=complex(math.nan, 0.0), t=0.0),
         "m must be finite, got (nan+0j)"),
        # Two bad rates: the first in each constructor's own order is reported.
        (lambda: LaserChannelParams(g=math.nan, kappa=-1.0, t=0.1), "g must be finite and >= 0, got nan"),
        (lambda: LaserChannelParams(g=1.0, kappa=math.inf, t=-1.0), "kappa must be finite and >= 0, got inf"),
        (lambda: thermal_preset(-1.0, math.nan, 0.1), "nbar must be finite and >= 0, got nan"),
        (lambda: PhaseSensitiveParams(kappa=-1.0, nbar=-2.0, m=0.0, t=0.0), "kappa must be finite and >= 0, got -1.0"),
        (lambda: PhaseSensitiveParams(kappa=1.0, nbar=math.inf, m=0.0, t=-1.0),
         "nbar must be finite and >= 0, got inf"),
    ],
    ids=["thermal-kappa", "phase-sensitive-m", "laser-g-kappa", "laser-kappa-t", "thermal-nbar-kappa",
         "phase-sensitive-kappa-nbar", "phase-sensitive-nbar-t"],
)
def test_constructors_report_the_first_bad_rate(build, message):
    with pytest.raises(InvalidArgumentError) as info:
        build()
    assert str(info.value) == message


def test_two_side_laser_closed_form():
    r, kt = 0.5, 0.3
    params = LaserChannelParams(0.0, 1.0, kt)
    out = apply_laser(make_tmsv(r), params, ChannelSide.BOTH)
    surv = math.exp(-2 * kt)
    b = (1 - surv) + surv * math.cosh(2 * r)
    c = surv * math.sinh(2 * r)
    assert out.cm[0, 0] == pytest.approx(b)
    assert out.cm[2, 2] == pytest.approx(b)
    assert out.cm[0, 2] == pytest.approx(c)
    assert out.cm[1, 3] == pytest.approx(-c)


def test_one_side_laser_touches_only_b():
    r, kt = 0.5, 0.3
    s = make_tmsv(r)
    out = apply_laser(s, LaserChannelParams(0.0, 1.0, kt), ChannelSide.B)
    surv = math.exp(-2 * kt)
    assert np.allclose(out.cm[:2, :2], s.cm[:2, :2])
    assert np.allclose(out.cm[:2, 2:], math.sqrt(surv) * s.cm[:2, 2:])
    assert out.cm[2, 2] == pytest.approx((1 - surv) + surv * math.cosh(2 * r))


@pytest.mark.parametrize("kind", ["identity", "loss", "gain", "thermal", "laser", "phase-sensitive"])
@pytest.mark.parametrize("side", list(ChannelSide))
def test_mean_scales_with_square_root_of_survival(kind, side):
    spec = ChannelSpec(kind=kind, side=side, g=0.7, kappa=1.3, nbar=0.8, m=0.3 - 0.5j)
    s = TwoModeGaussianState([1.0, -2.0, 3.0, -4.5], make_tmsv(0.3).cm)
    t = 0.37
    expected = s.mean.copy()
    views = []
    if kind == "phase-sensitive":
        params = PhaseSensitiveParams(kappa=spec.kappa, nbar=spec.nbar, m=spec.m, t=t)
        factor = np.sqrt(_bath_factors(spec.kappa, t)[0])
        views.append(apply_phase_sensitive(s, params, side))
    elif kind != "identity":
        params = spec.laser_params(t)
        factor = np.sqrt(params.survival)
        views.append(apply_laser(s, params, side))
    if kind != "identity":
        for mode in side.modes:
            expected[mode.block] = s.mean[mode.block] * factor
    for out in [spec.evolve(s, t), *views]:
        assert np.array_equal(out.mean, expected)
        assert np.array_equal(out.cm, spec.evolve(s, t).cm)


def test_laser_semigroup_property():
    r = 0.6
    spec = ChannelSpec(kind="laser", side=ChannelSide.BOTH, g=0.4, kappa=1.1)
    s = make_tmsv(r)
    sequential = spec.evolve(spec.evolve(s, 0.17), 0.29)
    direct = spec.evolve(s, 0.46)
    assert np.allclose(sequential.cm, direct.cm, atol=1e-12)


_KINDS = ("identity", "loss", "gain", "thermal", "laser", "phase-sensitive")


@st.composite
def _channels(draw):
    """Every channel kind and side, with rates up to 3 and any admissible real m."""
    nbar = draw(st.floats(0.0, 1.5))
    m = draw(st.floats(-1.0, 1.0)) * math.sqrt(nbar * (nbar + 1.0))
    kind, side = draw(st.sampled_from(_KINDS)), draw(st.sampled_from(list(ChannelSide)))
    return ChannelSpec(kind=kind, side=side, g=draw(st.floats(0.0, 3.0)), kappa=draw(st.floats(0.0, 3.0)), nbar=nbar, m=m)


@st.composite
def _states(draw):
    """A TMSV with r <= 1.5, or a seeded random mixed state with a mean."""
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    if seed is None:
        return make_tmsv(draw(st.floats(0.0, 1.5)))
    return random_physical_state(np.random.default_rng(seed), with_mean=True)


@given(channel=_channels(), state=_states(), t1=st.floats(0.0, 1.0), t2=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_evolution_is_a_semigroup(channel, state, t1, t2):
    twice, once = channel.evolve(channel.evolve(state, t1), t2), channel.evolve(state, t1 + t2)
    for a, b in ((twice.cm, once.cm), (twice.mean, once.mean)):
        assert np.allclose(a, b, rtol=1e-11, atol=1e-11 * np.abs(b).max())


_MIRROR = {ChannelSide.A: ChannelSide.B, ChannelSide.B: ChannelSide.A, ChannelSide.BOTH: ChannelSide.BOTH}


@given(channel=_channels(), state=_states(), t=st.floats(0.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_channel_commutes_with_the_mode_swap(channel, state, t):
    # The channel on A of the swapped state is the swap of the channel on B.
    mirrored = replace(channel, side=_MIRROR[channel.side]).evolve(state.swapped(), t)
    evolved = channel.evolve(state, t)
    assert mirrored == evolved.swapped()
    report, swapped = steering_report(evolved), steering_report(mirrored)
    for field in ("reid", "entropic", "g"):
        assert getattr(swapped, f"{field}_a_to_b") == getattr(report, f"{field}_b_to_a")
        assert getattr(swapped, f"{field}_b_to_a") == getattr(report, f"{field}_a_to_b")
    # E_N takes a square root of a near-cancelling discriminant: its rounding
    # error reaches sqrt(eps) ~ 1e-8, the scan's E_N noise floor is 1e-7.
    assert swapped.e_n == pytest.approx(report.e_n, rel=1e-9, abs=1e-7)


@given(channel=_channels(), state=_states(), ts=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_log_negativity_never_grows_along_a_channel(channel, state, ts):
    # Each channel is a local operation, and evolve(s, t2) = evolve(evolve(s, t1), t2 - t1).
    values = [log_negativity(channel.evolve(state, t)) for t in sorted(ts)]
    assert all(later <= earlier + 1e-7 for earlier, later in zip(values, values[1:]))


@given(
    r=st.floats(0, 1.5),
    g=st.floats(0, 2),
    kappa=st.floats(0, 2),
    t=st.floats(0, 2),
)
@settings(max_examples=80, deadline=None)
def test_laser_preserves_physicality(r, g, kappa, t):
    out = apply_laser(make_tmsv(r), LaserChannelParams(g, kappa, t), ChannelSide.BOTH)
    _, nu2 = symplectic_eigenvalues(out.cm)
    assert nu2 >= 1.0 - 1e-6


def test_v_infinity_matrix():
    params = PhaseSensitiveParams(kappa=1.0, nbar=1.0, m=1.0 + 0.5j, t=0.1)
    v = v_infinity(params)
    assert v[0, 0] == pytest.approx(3.0 + 2.0)
    assert v[1, 1] == pytest.approx(3.0 - 2.0)
    assert v[0, 1] == pytest.approx(1.0)


def test_phase_sensitive_rejects_overstrong_squeezing():
    with pytest.raises(InvalidArgumentError):
        PhaseSensitiveParams(kappa=1.0, nbar=1.0, m=1.5, t=0.1)  # |m|^2 > 2


@pytest.mark.parametrize(
    ("nbar", "m", "admissible"),
    [
        (1e100, 1e300, False),  # |m|^2 overflows, nbar(nbar + 1) does not
        (1e300, 1e300, True),  # both overflow; |m|^2 = nbar^2 < nbar(nbar + 1)
        (1e300, 1.001e300, False),
        (0.0, 1e200, False),
        (1e300, 1.7e308 + 1.7e308j, False),  # |m| itself overflows
        (1.0, math.sqrt(2.0), True),  # |m|^2 = 2 up to rounding, inside the slack
    ],
)
def test_phase_sensitive_squeezing_bound_holds_where_the_square_overflows(nbar, m, admissible):
    if admissible:
        PhaseSensitiveParams(kappa=1.0, nbar=nbar, m=m, t=0.0)
    else:
        with pytest.raises(InvalidArgumentError, match="exceeds"):
            PhaseSensitiveParams(kappa=1.0, nbar=nbar, m=m, t=0.0)


def test_phase_sensitive_reduces_to_thermal_at_m_zero():
    s = make_tmsv(0.7)
    nbar, kt = 1.5, 0.37
    for side in ChannelSide:
        via_ps = apply_phase_sensitive(
            s, PhaseSensitiveParams(kappa=1.0, nbar=nbar, m=0.0, t=kt), side
        )
        via_laser = apply_laser(s, thermal_preset(1.0, nbar, kt), side)
        assert np.max(np.abs(via_ps.cm - via_laser.cm)) < 1e-12


def test_phase_sensitive_stationary_state():
    params = PhaseSensitiveParams(kappa=1.0, nbar=1.0, m=1.0, t=30.0)
    out = apply_phase_sensitive(vacuum(), params, ChannelSide.BOTH)
    v = v_infinity(params)
    assert np.allclose(out.block(list(ChannelSide.BOTH.modes)[0]), v, atol=1e-12)
    assert np.allclose(out.cross_block, 0.0, atol=1e-12)


def test_channel_spec_validation_and_describe():
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="banana")
    spec = ChannelSpec(kind="thermal", side=ChannelSide.B, nbar=0.5)
    desc = spec.describe()
    assert desc == {"kind": "thermal", "side": "b", "kappa": 1.0, "nbar": 0.5}
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="phase-sensitive").laser_params(0.1)


@pytest.mark.parametrize(
    ("kind", "rates"),
    [
        ("identity", {}),
        ("loss", {"kappa": 1.3}),
        ("gain", {"g": 0.7}),
        ("thermal", {"kappa": 1.3, "nbar": 0.8}),
        ("laser", {"g": 0.7, "kappa": 1.3}),
        ("phase-sensitive", {"kappa": 1.3, "nbar": 0.8, "m": {"re": 0.3, "im": -0.5}}),
    ],
)
def test_describe_lists_the_rates_of_its_kind_in_order(kind, rates):
    desc = ChannelSpec(kind=kind, side=ChannelSide.A, g=0.7, kappa=1.3, nbar=0.8, m=0.3 - 0.5j).describe()
    assert list(desc.items()) == [("kind", kind), ("side", "a"), *rates.items()]


def test_channel_spec_identity_kind():
    s = make_tmsv(0.4)
    assert ChannelSpec(kind="identity").evolve(s, 5.0) is s


@pytest.mark.parametrize("kind", ["identity", "loss", "gain", "thermal", "laser", "phase-sensitive"])
@pytest.mark.parametrize("side", list(ChannelSide))
def test_evolve_stack_of_one_channel_matches_evolve_bit_for_bit(kind, side):
    spec = ChannelSpec(kind=kind, side=side, g=0.7, kappa=1.3, nbar=0.8, m=0.3 - 0.5j)
    s = make_tmsv(0.6)
    ts = np.array([0.0, 1e-7, 0.05, 0.4, 2.0])
    stack = _evolve_stack(s.cm, s._det_v, (spec,), ts)[0]
    assert stack.shape == (5, 4, 4)
    for t, cm in zip(ts, stack):
        assert np.array_equal(cm, spec.evolve(s, t).cm)
        assert np.array_equal(_evolve_stack(s.cm, s._det_v, (spec,), [t])[0][0], cm)


@pytest.mark.parametrize("kind", ["identity", "loss", "gain", "thermal", "laser", "phase-sensitive"])
@pytest.mark.parametrize("side", list(ChannelSide))
def test_evolve_stack_rows_match_evolve_bit_for_bit(kind, side):
    spec = ChannelSpec(kind=kind, side=side, g=0.7, kappa=1.3, nbar=0.8, m=0.3 - 0.5j)
    rs = np.linspace(0.05, 1.5, 7)
    nbars = np.linspace(0.6, 1.5, 7)
    ts = np.array([0.0, 1e-7, 0.05, 0.4, 2.0, 0.3, 0.3])
    # One state per row (an r sweep) and one channel per row (an nbar sweep).
    tmsvs = [make_tmsv(r) for r in rs]
    per_state = _evolve_stack(_tmsv_cms(rs), [s._det_v for s in tmsvs], (spec,), ts)[0]
    channels = [replace(spec, nbar=v) for v in nbars.tolist()]
    per_channel = _evolve_stack(make_tmsv(0.6).cm, make_tmsv(0.6)._det_v, channels, ts)[0]
    for r, channel, t, a, b in zip(rs, channels, ts, per_state, per_channel):
        assert np.array_equal(a, spec.evolve(make_tmsv(r), t).cm)
        assert np.array_equal(b, channel.evolve(make_tmsv(0.6), t).cm)


@pytest.mark.parametrize(("k", "n"), [(1, 5), (4, 1), (3, 4)], ids=["one-shared", "one-per-row", "grouped"])
@pytest.mark.parametrize("kind", _KINDS)
@given(side=st.sampled_from(list(ChannelSide)), data=st.data())
@settings(max_examples=12, deadline=None)
def test_evolve_stack_of_k_channels_equals_their_per_row_expansion(kind, k, n, side, data):
    # k channels over k * n rows, each covering n consecutive rows, give the
    # stack, sq and det V of the per-row list, bit for bit, from one state
    # shared by every row or one state per row.
    channels = [replace(data.draw(_channels()), kind=kind, side=side) for _ in range(k)]
    ts = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=k * n, max_size=k * n)))
    states = data.draw(st.lists(_states(), min_size=1, max_size=1) | st.lists(_states(), min_size=k * n, max_size=k * n))
    cms, det_v = np.array([s.cm for s in states]), np.array([s._det_v for s in states])
    if len(states) == 1:
        cms, det_v = cms[0], det_v[0]
    grouped = _evolve_stack(cms, det_v, channels, ts)
    per_row = _evolve_stack(cms, det_v, [channel for channel in channels for _ in range(n)], ts)
    for a, b in zip(grouped, per_row):
        assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize(
    ("rates", "message"),
    [
        ({"kind": "thermal", "nbar": -1.0}, "nbar must be finite and >= 0, got -1.0"),
        ({"kind": "thermal", "kappa": 1e308, "nbar": 1.0}, "kappa*(nbar + 1) must be finite, got kappa = 1e+308, nbar = 1.0"),
        ({"kind": "gain", "g": -1.0}, "g must be finite and >= 0, got -1.0"),
        ({"kind": "loss", "kappa": math.nan}, "kappa must be finite and >= 0, got nan"),
        ({"kind": "laser", "g": math.inf, "kappa": -1.0}, "g must be finite and >= 0, got inf"),
        ({"kind": "phase-sensitive", "nbar": 0.2, "m": 0.9}, "|m|^2 = 0.81 exceeds nbar(nbar+1) = 0.24"),
        ({"kind": "phase-sensitive", "kappa": -1.0, "m": math.nan}, "kappa must be finite and >= 0, got -1.0"),
    ],
    ids=["thermal-nbar", "thermal-overflow", "gain-g", "loss-kappa", "laser-g-kappa", "phase-sensitive-m",
         "phase-sensitive-kappa-m"],
)
def test_channel_spec_checks_its_rates_when_made(rates, message):
    with pytest.raises(InvalidArgumentError) as info:
        ChannelSpec(**rates)
    assert str(info.value) == message


def test_channel_spec_checks_only_the_rates_its_kind_reads():
    bad = {"g": -1.0, "kappa": -1.0, "nbar": -1.0, "m": math.nan}
    assert ChannelSpec(kind="identity", **bad).describe() == {"kind": "identity", "side": "two"}
    assert ChannelSpec(kind="loss", **{**bad, "kappa": 1.0}).describe()["kappa"] == 1.0
    assert ChannelSpec(kind="gain", **{**bad, "g": 1.0}).describe()["g"] == 1.0
    assert ChannelSpec(kind="thermal", **{**bad, "kappa": 1.0, "nbar": 0.5}).describe()["nbar"] == 0.5


def test_channel_spec_keeps_its_checked_params_out_of_eq_hash_and_repr():
    spec = ChannelSpec(kind="thermal", side=ChannelSide.B, kappa=2.0, nbar=0.5)
    twin = ChannelSpec(kind="thermal", side=ChannelSide.B, kappa=2.0, nbar=0.5)
    assert spec == twin and hash(spec) == hash(twin) and spec._params is not twin._params
    assert "_params" not in repr(spec)
    assert replace(spec, nbar=1.0)._params == LaserChannelParams(g=2.0, kappa=4.0, t=0.0)
    with pytest.raises(InvalidArgumentError, match="nbar must be finite"):
        replace(spec, nbar=-1.0)


def test_evolve_stack_at_zero_duration_returns_the_input():
    s = make_tmsv(0.5)
    good = [ChannelSpec(kind="phase-sensitive", nbar=v, m=0.4) for v in (1.0, 0.2)]
    stack, sq, det_v = _evolve_stack(s.cm, s._det_v, good, np.zeros(2))
    assert np.array_equal(stack, np.stack([s.cm, s.cm])) and sq is None
    assert det_v.tolist() == [s._det_v, s._det_v]
    assert ChannelSpec(kind="thermal", nbar=0.5).evolve(s, 0.0) is s


def test_evolve_stack_at_balanced_rates_uses_the_analytic_limit():
    spec = ChannelSpec(kind="laser", side=ChannelSide.BOTH, g=1.0, kappa=1.0)
    s = make_tmsv(0.5)
    ts = np.array([0.1, 0.3])
    for t, cm in zip(ts, _evolve_stack(s.cm, s._det_v, (spec,), ts)[0]):
        assert np.array_equal(cm, spec.evolve(s, t).cm)
        assert cm[0, 0] == pytest.approx(math.cosh(1.0) + 4.0 * t, rel=1e-14)


def test_evolve_stack_validates_durations_and_rates():
    s = make_tmsv(0.5)
    with pytest.raises(InvalidArgumentError):
        _evolve_stack(s.cm, s._det_v, (ChannelSpec(kind="loss"),), np.array([0.1, -0.2]))
    with pytest.raises(InvalidArgumentError):
        _evolve_stack(s.cm, s._det_v, (ChannelSpec(kind="loss"),), np.array([0.1, np.nan]))
    with pytest.raises(InvalidArgumentError):
        _evolve_stack(s.cm, s._det_v, (ChannelSpec(kind="gain", g=-1.0),), np.array([0.1]))
    with pytest.raises(InvalidArgumentError):
        _evolve_stack(s.cm, s._det_v, (ChannelSpec(kind="phase-sensitive", nbar=1.0, m=1.5),), np.array([0.1]))


def test_evolve_rejects_a_mean_that_overflows():
    # Gain scales the mean by e^{g t} ~ 148; the covariance matrix stays in range.
    s = TwoModeGaussianState([1e307, 0.0, 0.0, 0.0], make_tmsv(0.3).cm)
    with pytest.raises(InvalidArgumentError, match="mean must be finite"):
        ChannelSpec(kind="gain", side=ChannelSide.A).evolve(s, 5.0)
