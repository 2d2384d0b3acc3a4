"""State construction, characteristic function and symplectic spectrum."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsteer.errors import DegenerateInputError, InvalidArgumentError, UnphysicalStateError
from cvsteer.states import (
    _MAX_SCALE,
    SYMPLECTIC_FORM,
    CfPoint,
    ModeLabel,
    TwoModeGaussianState,
    _tmsv_cms,
    _validate_cms,
    cf_eval,
    make_tmsv,
    partial_transpose,
    symplectic_eigenvalues,
    vacuum,
)


def test_symplectic_form_shape():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(SYMPLECTIC_FORM, np.kron(np.eye(2), j))
    assert not SYMPLECTIC_FORM.flags.writeable


def test_vacuum_is_identity():
    v = vacuum()
    assert np.array_equal(v.cm, np.eye(4))
    assert np.array_equal(v.mean, np.zeros(4))
    assert symplectic_eigenvalues(v.cm) == (1.0, 1.0)


def test_tmsv_matrix_entries():
    r = 0.7
    s = make_tmsv(r)
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    assert s.cm[0, 0] == pytest.approx(ch)
    assert s.cm[0, 2] == pytest.approx(sh)
    assert s.cm[1, 3] == pytest.approx(-sh)
    assert s.cm[0, 1] == 0.0


@pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 1.0, 2.0])
def test_tmsv_is_pure(r):
    nu1, nu2 = symplectic_eigenvalues(make_tmsv(r).cm)
    assert nu1 == pytest.approx(1.0, abs=1e-6)
    assert nu2 == pytest.approx(1.0, abs=1e-6)


def test_tmsv_rejects_bad_squeezing():
    with pytest.raises(InvalidArgumentError):
        make_tmsv(-0.1)
    with pytest.raises(InvalidArgumentError):
        make_tmsv(float("nan"))


def test_state_validation_rejects_garbage():
    with pytest.raises(InvalidArgumentError):
        TwoModeGaussianState(np.zeros(3), np.eye(4))
    with pytest.raises(InvalidArgumentError):
        TwoModeGaussianState(np.zeros(4), np.eye(3))
    with pytest.raises(UnphysicalStateError):
        TwoModeGaussianState(np.zeros(4), 0.5 * np.eye(4))  # below vacuum noise
    lopsided = np.eye(4)
    lopsided[0, 1] = 1e-3
    with pytest.raises(UnphysicalStateError):
        TwoModeGaussianState(np.zeros(4), lopsided)


_EYE_ROWS = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize(
    ("mean", "cm", "name"),
    [
        ([0, 0, 0, 0], [["a", 0, 0, 0], *_EYE_ROWS], "cm"),
        ([0, 0, 0, 0], [[1, 0, 0], *_EYE_ROWS], "cm"),
        ([{"a": 1}, 0, 0, 0], [[1, 0, 0, 0], *_EYE_ROWS], "mean"),
        ([0, 0, 0, 0], [[10**400, 0, 0, 0], *_EYE_ROWS], "cm"),
    ],
    ids=["string-entry", "ragged-cm", "object-in-mean", "401-digit-integer"],
)
def test_state_values_that_are_not_real_numbers_are_named(mean, cm, name):
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be an array of real numbers: "):
        TwoModeGaussianState(mean, cm)


def test_state_is_immutable():
    s = vacuum()
    with pytest.raises(AttributeError):
        s.mean = np.ones(4)
    assert not s.cm.flags.writeable


def test_blocks_and_swap():
    s = make_tmsv(0.4)
    assert np.array_equal(s.block(ModeLabel.A), s.cm[:2, :2])
    assert np.array_equal(s.cross_block, s.cm[:2, 2:])
    sw = s.swapped()
    assert np.array_equal(sw.cm, s.cm)  # TMSV is exchange symmetric
    displaced = TwoModeGaussianState([1.0, 2.0, 3.0, 4.0], s.cm)
    assert np.array_equal(displaced.swapped().mean, [3.0, 4.0, 1.0, 2.0])


def test_cf_at_origin_is_one():
    assert cf_eval(make_tmsv(0.9), CfPoint(0, 0, 0, 0)) == 1.0 + 0.0j


def test_cf_matches_quadratic_form():
    r = 0.6
    s = make_tmsv(r)
    q1, q2 = 0.3, -0.4
    p1, p2 = 0.2, 0.5
    # Direct expansion of the exponent for the exchange-symmetric state.
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    exponent = -0.5 * ch * (q1**2 + p1**2 + q2**2 + p2**2) + sh * (q1 * q2 - p1 * p2)
    assert cf_eval(s, CfPoint(q1, p1, q2, p2)) == pytest.approx(math.exp(exponent))


def test_cf_with_displacement_is_unimodular_phase():
    s = TwoModeGaussianState([0.5, -0.3, 0.2, 0.1], np.eye(4))
    val = cf_eval(s, CfPoint(0.1, 0.2, 0.3, 0.4))
    zero_mean = cf_eval(vacuum(), CfPoint(0.1, 0.2, 0.3, 0.4))
    assert abs(val) == pytest.approx(abs(zero_mean))
    assert val != zero_mean


@given(
    q1=st.floats(-2, 2), p1=st.floats(-2, 2),
    q2=st.floats(-2, 2), p2=st.floats(-2, 2),
    r=st.floats(0, 1.5),
)
@settings(max_examples=60, deadline=None)
def test_cf_bounded_by_one(q1, p1, q2, p2, r):
    val = cf_eval(make_tmsv(r), CfPoint(q1, p1, q2, p2))
    assert abs(val) <= 1.0 + 1e-12


def test_partial_transpose_flips_momentum_signs():
    s = make_tmsv(0.5)
    pt = partial_transpose(s, ModeLabel.B)
    assert pt[1, 3] == -s.cm[1, 3]
    assert pt[3, 3] == s.cm[3, 3]
    assert pt[0, 2] == s.cm[0, 2]


@given(r=st.floats(0, 1.5))
@settings(max_examples=40, deadline=None)
def test_partial_transpose_is_involutive(r):
    s = make_tmsv(r)
    pt = partial_transpose(s, ModeLabel.B)
    again = pt * np.outer([1, 1, 1, -1], [1, 1, 1, -1])
    assert np.array_equal(again, s.cm)


def test_partial_transpose_detects_tmsv_entanglement():
    r = 0.5
    _, nu2 = symplectic_eigenvalues(partial_transpose(make_tmsv(r), ModeLabel.B))
    assert nu2 == pytest.approx(math.exp(-2 * r), rel=1e-12)


def test_symplectic_eigenvalues_thermal_product_state():
    cm = np.diag([3.0, 3.0, 5.0, 5.0])
    assert symplectic_eigenvalues(cm) == pytest.approx((5.0, 3.0))


def test_symplectic_eigenvalues_rejects_asymmetric():
    m = np.eye(4)
    m[0, 1] = 0.5
    with pytest.raises(InvalidArgumentError):
        symplectic_eigenvalues(m)


def _valid_stack():
    return np.stack([make_tmsv(r).cm for r in (0.1, 0.5, 1.0)] + [np.diag([3.0, 3.0, 5.0, 5.0])])


def test_tmsv_stack_matches_make_tmsv_bit_for_bit():
    rs = np.linspace(0.0, 3.0, 31)
    stack = _tmsv_cms(rs)
    assert stack.shape == (31, 4, 4)
    for r, cm in zip(rs.tolist(), stack):
        assert np.array_equal(cm, make_tmsv(r).cm)
    with pytest.raises(InvalidArgumentError, match="got -0.5"):
        _tmsv_cms(np.array([0.1, -0.5, -1.0]))
    with pytest.raises(InvalidArgumentError, match="finite"):
        _tmsv_cms(np.array([0.1, np.inf]))


def test_validate_cms_keeps_a_valid_stack_bit_for_bit():
    stack = _valid_stack()
    out = _validate_cms(stack)
    assert np.array_equal(out, stack)
    assert np.array_equal(_validate_cms(stack[1]), make_tmsv(0.5).cm)


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.diag([1.0, 1.0, 1.0, -1.0]), UnphysicalStateError),  # not positive definite
        (np.diag([0.5, 0.5, 1.0, 1.0]), UnphysicalStateError),  # uncertainty bound violated
        (np.eye(4) + np.diag([1e-3, 0.0, 0.0], k=1), UnphysicalStateError),  # asymmetric beyond SYMMETRY_TOL
        (np.diag([1.0, 1.0, 1.0, np.inf]), InvalidArgumentError),  # not finite
        (4.0 * _MAX_SCALE * np.eye(4), DegenerateInputError),  # det V would overflow
    ],
)
def test_validate_cms_rejects_a_stack_with_one_bad_member(bad, error):
    with pytest.raises(error):
        TwoModeGaussianState(np.zeros(4), bad)
    stack = _valid_stack()
    stack[2] = bad
    with pytest.raises(error):
        _validate_cms(stack)


def test_overflowing_scale_is_degenerate_without_warnings():
    cm = make_tmsv(0.5).cm * 1e130
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError, match="overflow"):
            TwoModeGaussianState(np.zeros(4), cm)
        with pytest.raises(DegenerateInputError, match="overflow"):
            symplectic_eigenvalues(cm)


def test_symplectic_eigenvalues_of_a_stack_match_one_matrix_bit_for_bit():
    stack = _valid_stack()
    nu1, nu2 = symplectic_eigenvalues(stack)
    assert nu1.shape == nu2.shape == (4,)
    for cm, pair in zip(stack, zip(nu1.tolist(), nu2.tolist())):
        assert symplectic_eigenvalues(cm) == pair


@pytest.mark.parametrize(
    "bad",
    [
        np.diag([1.0, 1.0, 1.0, -1.0]),  # not positive definite
        np.eye(4) + np.diag([1e-3, 0.0, 0.0], k=1),  # asymmetric
    ],
)
def test_symplectic_eigenvalues_rejects_a_stack_with_one_bad_member(bad):
    stack = _valid_stack()
    stack[2] = bad
    with pytest.raises(InvalidArgumentError):
        symplectic_eigenvalues(stack)
    with pytest.raises(InvalidArgumentError):
        symplectic_eigenvalues(np.eye(3))


# Open physicality bugs (ROADMAP item 4): the correct behaviour, pinned until
# the scale-invariant check lands.


@pytest.mark.xfail(strict=True, reason="uncertainty slack 1e-7 * max_eig**2 admits nu_min = 0.316 (ROADMAP item 4)")
def test_rejects_unphysical_state_with_a_large_entry():
    with pytest.raises(UnphysicalStateError):
        TwoModeGaussianState(np.zeros(4), np.diag([1e4, 1e-5, 1.0, 1.0]))


@pytest.mark.xfail(
    strict=True,
    raises=DegenerateInputError,
    reason="np.linalg.det loses det V = 1 at entries near 1e8 (ROADMAP item 4)",
)
def test_accepts_strongly_squeezed_tmsv():
    assert np.array_equal(make_tmsv(10.0).cm, _tmsv_cms(10.0))
