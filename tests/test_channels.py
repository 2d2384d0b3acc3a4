"""Laser and phase-sensitive channel maps at the covariance-matrix level."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsteer.channels import (
    ChannelSide,
    ChannelSpec,
    LaserChannelParams,
    PhaseSensitiveParams,
    apply_laser,
    apply_phase_sensitive,
    gain_preset,
    laser_coefficients,
    loss_preset,
    thermal_preset,
    v_infinity,
)
from cvsteer.errors import InvalidArgumentError
from cvsteer.states import make_tmsv, symplectic_eigenvalues, vacuum


def test_identity_at_zero_time():
    params = laser_coefficients(0.7, 1.3, 0.0)
    assert params.survival == 1.0
    assert params.noise == 0.0
    s = make_tmsv(0.5)
    out = apply_laser(s, params, ChannelSide.BOTH)
    assert np.allclose(out.cm, s.cm)


def test_loss_preset_coefficients():
    kt = 0.4
    params = loss_preset(1.0, kt)
    assert params.survival == pytest.approx(math.exp(-2 * kt))
    assert params.noise == pytest.approx(1.0 - math.exp(-2 * kt))


def test_gain_preset_coefficients():
    gt = 0.3
    params = gain_preset(1.0, gt)
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
    params = laser_coefficients(1.0, 1.0, 0.2)
    assert params.survival == 1.0
    assert params.noise == pytest.approx(2.0 * 2.0 * 0.2)
    near = laser_coefficients(1.0, 1.0 + 1e-13, 0.2)
    assert near.noise == pytest.approx(params.noise, rel=1e-9)


def test_rejects_negative_parameters():
    with pytest.raises(InvalidArgumentError):
        laser_coefficients(-0.1, 1.0, 0.1)
    with pytest.raises(InvalidArgumentError):
        loss_preset(1.0, -0.1)
    with pytest.raises(InvalidArgumentError):
        thermal_preset(1.0, -0.5, 0.1)


def test_two_side_laser_closed_form():
    r, kt = 0.5, 0.3
    params = loss_preset(1.0, kt)
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
    out = apply_laser(s, loss_preset(1.0, kt), ChannelSide.B)
    surv = math.exp(-2 * kt)
    assert np.allclose(out.cm[:2, :2], s.cm[:2, :2])
    assert np.allclose(out.cm[:2, 2:], math.sqrt(surv) * s.cm[:2, 2:])
    assert out.cm[2, 2] == pytest.approx((1 - surv) + surv * math.cosh(2 * r))


def test_mean_scales_with_square_root_of_survival():
    from cvsteer.states import TwoModeGaussianState

    s = TwoModeGaussianState([1.0, 2.0, 3.0, 4.0], make_tmsv(0.3).cm)
    out = apply_laser(s, loss_preset(1.0, 0.5), ChannelSide.B)
    surv = math.sqrt(math.exp(-1.0))
    assert np.allclose(out.mean, [1.0, 2.0, 3.0 * surv, 4.0 * surv])


def test_laser_semigroup_property():
    r = 0.6
    spec = ChannelSpec(kind="laser", side=ChannelSide.BOTH, g=0.4, kappa=1.1)
    s = make_tmsv(r)
    sequential = spec.evolve(spec.evolve(s, 0.17), 0.29)
    direct = spec.evolve(s, 0.46)
    assert np.allclose(sequential.cm, direct.cm, atol=1e-12)


@given(
    r=st.floats(0, 1.5),
    g=st.floats(0, 2),
    kappa=st.floats(0, 2),
    t=st.floats(0, 2),
)
@settings(max_examples=80, deadline=None)
def test_laser_preserves_physicality(r, g, kappa, t):
    out = apply_laser(make_tmsv(r), laser_coefficients(g, kappa, t), ChannelSide.BOTH)
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


def test_channel_spec_identity_kind():
    s = make_tmsv(0.4)
    assert ChannelSpec(kind="identity").evolve(s, 5.0) is s


@pytest.mark.parametrize("kind", ["identity", "loss", "gain", "thermal", "laser", "phase-sensitive"])
@pytest.mark.parametrize("side", list(ChannelSide))
def test_evolve_cms_matches_evolve_bit_for_bit(kind, side):
    spec = ChannelSpec(kind=kind, side=side, g=0.7, kappa=1.3, nbar=0.8, m=0.3 - 0.5j)
    s = make_tmsv(0.6)
    ts = np.array([0.0, 1e-7, 0.05, 0.4, 2.0])
    stack = spec.evolve_cms(s, ts)
    assert stack.shape == (5, 4, 4)
    for t, cm in zip(ts, stack):
        assert np.array_equal(cm, spec.evolve(s, t).cm)
        assert np.array_equal(spec.evolve_cms(s, [t])[0], cm)


def test_evolve_cms_at_balanced_rates_uses_the_analytic_limit():
    spec = ChannelSpec(kind="laser", side=ChannelSide.BOTH, g=1.0, kappa=1.0)
    s = make_tmsv(0.5)
    ts = np.array([0.1, 0.3])
    for t, cm in zip(ts, spec.evolve_cms(s, ts)):
        assert np.array_equal(cm, spec.evolve(s, t).cm)
        assert cm[0, 0] == pytest.approx(math.cosh(1.0) + 4.0 * t, rel=1e-14)


def test_evolve_cms_validates_durations_and_rates():
    s = make_tmsv(0.5)
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="loss").evolve_cms(s, np.array([0.1, -0.2]))
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="loss").evolve_cms(s, np.array([0.1, np.nan]))
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="gain", g=-1.0).evolve_cms(s, np.array([0.1]))
    with pytest.raises(InvalidArgumentError):
        ChannelSpec(kind="phase-sensitive", nbar=1.0, m=1.5).evolve_cms(s, np.array([0.1]))
