"""State construction, characteristic function and symplectic spectrum."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvsteer import channels, states
from cvsteer.channels import ChannelSide, ChannelSpec
from cvsteer.errors import DegenerateInputError, InvalidArgumentError, UnphysicalStateError
from cvsteer.measures import _scan_grid
from cvsteer.states import (
    _MAX_SCALE,
    PHYSICALITY_TOL,
    SYMPLECTIC_FORM,
    CfPoint,
    ModeLabel,
    TwoModeGaussianState,
    _CERTIFIED_SCALE,
    _check_scale,
    _certified,
    _entries,
    _matrix,
    _partial_transpose_cms,
    _symplectic_spectra,
    _tmsv_cms,
    _validate_cms,
    _validated_stack,
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


@pytest.mark.parametrize("mean", [[[0, 0], [0, 0]], [[0], [0], [0], [0]], [[0, 0, 0, 0]]])
def test_a_mean_that_is_not_a_flat_list_of_four_is_refused(mean):
    # A 4x1 or 2x2 mean holds four numbers, but not as the vector (Q1, P1, Q2, P2).
    with pytest.raises(InvalidArgumentError) as raised:
        TwoModeGaussianState(mean, np.eye(4))
    assert str(raised.value) == f"mean must have 4 entries, got shape {np.shape(mean)}"


def test_the_callers_mean_array_stays_writable():
    mean = np.zeros(4)
    state = TwoModeGaussianState(mean, np.eye(4))
    assert mean.flags.writeable and not state.mean.flags.writeable


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


def _zero_filled_tmsv_cms(r):
    """``_tmsv_cms`` as it was written before it assembled its 16 entries:
    the reference for that change."""
    r = np.asarray(r, dtype=float)
    for bad, rule in ((~np.isfinite(r), "finite"), (r < 0, ">= 0")):
        if bad.any():
            raise InvalidArgumentError(f"squeezing parameter must be {rule}, got {r[bad][0]}")
    with np.errstate(over="ignore"):
        ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    cms = np.zeros(r.shape + (4, 4))
    for i in range(4):
        cms[..., i, i] = ch
    cms[..., 0, 2] = cms[..., 2, 0] = sh
    cms[..., 1, 3] = cms[..., 3, 1] = -sh
    return cms


def _result_or_error(call):
    """(the value of call(), None), or (None, (type, message)) of its error."""
    try:
        return call(), None
    except (InvalidArgumentError, DegenerateInputError, UnphysicalStateError) as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("r", [0.0, 5e-324, 0.3, 1.7, 7.0, 354.0, 1e308, math.inf, -math.inf, math.nan, -1.0, -0.0])
def test_tmsv_equals_the_zero_filled_construction_bit_for_bit(r):
    stack = [0.5, r, 0.1, r]
    for rs in (r, stack, np.array(stack).reshape(2, 2)):
        cms, error = _result_or_error(lambda: _tmsv_cms(rs))
        reference, reference_error = _result_or_error(lambda: _zero_filled_tmsv_cms(rs))
        assert error == reference_error
        if error is None:
            assert cms.flags.c_contiguous and cms.shape == reference.shape and cms.tobytes() == reference.tobytes()
    state, error = _result_or_error(lambda: make_tmsv(r))
    reference, reference_error = _result_or_error(lambda: TwoModeGaussianState(np.zeros(4), _zero_filled_tmsv_cms(r)))
    assert error == reference_error
    if error is None:
        assert state.cm.tobytes() == reference.cm.tobytes() and state.mean.tobytes() == reference.mean.tobytes()
        assert state._det_v == reference._det_v


def test_validate_cms_keeps_a_valid_stack_bit_for_bit():
    stack = _valid_stack()
    out, det_v = _validate_cms(stack)
    assert np.array_equal(out, stack) and det_v.tobytes() == np.linalg.det(stack).tobytes()
    cm, det_v = _validate_cms(stack[1])
    assert np.array_equal(cm, make_tmsv(0.5).cm) and det_v == make_tmsv(0.5)._det_v


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


# Each has a closed-form symplectic spectrum of about 1 (nu = 1, 1 for the
# first two; 3 and 0.9999999999999999 for the third), so only the
# positive-definiteness check can refuse it.
_INDEFINITE = {
    "minus-identity": -np.eye(4),
    "negative-mode-b": np.diag([1.0, 1.0, -1.0, -1.0]),
    "over-correlated": np.block([[np.eye(2), 2.0 * np.eye(2)], [2.0 * np.eye(2), np.eye(2)]]),
}


@pytest.mark.parametrize("bad", _INDEFINITE.values(), ids=_INDEFINITE.keys())
def test_indefinite_matrix_with_a_unit_symplectic_spectrum_is_refused(bad):
    assert math.isclose(float(_symplectic_spectra(bad)[1]), 1.0)
    message = "^covariance matrix is not positive definite$"
    with pytest.raises(UnphysicalStateError, match=message):
        TwoModeGaussianState(np.zeros(4), bad)
    for row in range(4):
        stack = _valid_stack()
        stack[row] = bad
        with pytest.raises(UnphysicalStateError, match=message):
            _validate_cms(stack)


def _eigvalsh_rule(cms):
    """``_validate_cms`` without its certificate: every decision of a stack
    read off ``eigvalsh``, as the rule is stated, and the det V of what it
    accepts."""
    if not np.isfinite(cms).all():
        raise InvalidArgumentError("covariance matrix must be finite")
    transposed = cms.mT
    asym = np.abs(cms - transposed).max()
    if asym > 1e-9:
        raise UnphysicalStateError(f"covariance matrix asymmetry {asym:.3e} exceeds 1e-09")
    cms = 0.5 * (cms + transposed)
    eigs = np.linalg.eigvalsh(cms)
    top = eigs[..., -1]
    scale = np.maximum(1.0, top)
    if (eigs[..., 0] <= -1e-9 * scale).any():
        raise UnphysicalStateError("covariance matrix is not positive definite")
    _check_scale(top)
    _, nu2 = _symplectic_spectra(cms)
    violated = nu2 < 1.0 - PHYSICALITY_TOL * (scale * scale)
    if violated.any():
        raise UnphysicalStateError(
            f"uncertainty relation violated: smallest symplectic eigenvalue {nu2[violated].min():.12g} < 1"
        )
    return cms, np.linalg.det(cms)


def _outcome(validate, cms):
    """The bytes of the stack and det V ``validate`` returns, or its error's
    type and message."""
    try:
        out, det_v = validate(cms.copy())
        return out.tobytes(), np.asarray(det_v).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def _assembled_validation(cms):
    """``_validated_stack`` of the entries of ``cms``, as the channel map
    validates: the eigvalsh rule, when it is needed, takes the stack
    assembled from the entries."""
    return _validated_stack(_entries(cms), cms.shape[:-2])


def _array_outcome(validate, cms):
    """``_outcome`` of ``validate`` on ``cms`` itself, not on a copy, with
    the returned array's layout and whether it is a new array."""
    try:
        out, det_v = validate(cms)
    except Exception as exc:
        return type(exc), str(exc)
    new = not np.shares_memory(out, cms)
    return out.tobytes(), np.asarray(det_v).tobytes(), out.flags.c_contiguous, new


def _uncertified_stack():
    # Members past the certified scale and pure TMSVs past r = 5.5: the
    # eigvalsh rule decides the whole stack.
    return np.concatenate([_valid_stack(), 2.0 * _CERTIFIED_SCALE * np.eye(4)[None], _tmsv_cms([7.0, 7.5])])


def _asymmetric(stack, size):
    out = stack.copy()
    out[..., 0, 1] += size
    return out


_VALIDATION_INPUTS = {
    "certified": _valid_stack(),
    "uncertified": _uncertified_stack(),
    "uncertified-with-a-bad-member": np.concatenate([_uncertified_stack(), np.diag([0.5, 0.5, 1.0, 1.0])[None]]),
    "asymmetric-within-tolerance": _asymmetric(_uncertified_stack(), 4e-10),
    "asymmetric-beyond-tolerance": _asymmetric(_uncertified_stack(), 4e-9),
    "fortran-ordered": np.asfortranarray(_uncertified_stack()),
    "transposed-view": _asymmetric(_uncertified_stack(), 4e-10).transpose(0, 2, 1),
    "strided-view": np.repeat(np.repeat(_uncertified_stack(), 2, axis=1), 2, axis=2)[::-1, ::2, ::2],
    "strided-one-matrix": np.repeat(np.repeat(_tmsv_cms(7.0), 2, axis=0), 2, axis=1)[::2, ::2],
    "fortran-one-matrix": np.asfortranarray(_asymmetric(_tmsv_cms(0.5), 4e-10)),
    "not-finite": np.concatenate([_uncertified_stack(), np.diag([1.0, 1.0, 1.0, np.nan])[None]]),
}


@pytest.mark.parametrize("cms", _VALIDATION_INPUTS.values(), ids=_VALIDATION_INPUTS.keys())
def test_validating_an_array_equals_validating_its_entries(cms):
    # The same bytes, det V and C-ordered new array, or the same error and
    # message, whatever the input's layout.
    assert _array_outcome(_validate_cms, cms) == _array_outcome(_assembled_validation, cms)
    for cm in cms.reshape(-1, 4, 4):
        assert _array_outcome(_validate_cms, cm) == _array_outcome(_assembled_validation, cm)


def test_verify_symplectic_assembles_no_stack(monkeypatch, capsys):
    # Its stack fails the certificate: the eigvalsh rule reads the stack
    # that was given, and no stack is assembled from its entries.
    from cvsteer.cli import main

    assembled, ruled, matrix, rule = [], [], states._matrix, states._eigvalsh_rule
    monkeypatch.setattr(states, "_matrix", lambda rows, shape: assembled.append(shape) or matrix(rows, shape))
    monkeypatch.setattr(states, "_eigvalsh_rule", lambda cms: ruled.append(cms.shape) or rule(cms))
    assert main(["verify", "symplectic"]) == 0
    assert [shape for shape in assembled if shape] == [] and [shape for shape in ruled if len(shape) > 2]


_KINDS = ("loss", "gain", "thermal", "laser", "phase-sensitive")


def _unvalidated(v, shape):
    """``states._validated_stack`` without its checks: the assembled
    entries, and no det V."""
    return _matrix(v, shape), None


def _certified_stack(cms):
    """``_certified`` of one matrix or a stack."""
    return _certified(_entries(cms), cms.shape[:-2])


@st.composite
def _channel_scans(draw, kinds=_KINDS, sides=tuple(ChannelSide)):
    """Unvalidated channel-map stacks of a TMSV: every kind and side (or the
    given ones), on every 16th point of the threshold scan."""
    g, kappa = draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0))
    nbar = draw(st.floats(0.0, 1.5))
    m = draw(st.floats(-1.0, 1.0)) * math.sqrt(nbar * (nbar + 1.0))
    channel = ChannelSpec(
        kind=draw(st.sampled_from(kinds)),
        side=draw(st.sampled_from(sides)),
        g=g,
        kappa=kappa,
        nbar=nbar,
        m=m,
    )
    ts = _scan_grid(50.0 / (g + kappa))[::16]
    with mock.patch.object(channels, "_validated_stack", _unvalidated):
        state = make_tmsv(draw(st.floats(0.0, 3.0)))
        return channels._evolve_stack(state.cm, state._det_v, (channel,), ts)[0]


@st.composite
def _williamson_states(draw):
    """S diag(nu1, nu1, nu2, nu2) S^T with S = expm(Omega H): physical for
    nu >= 1, and refused a little below."""
    from scipy.linalg import expm

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        h = rng.normal(scale=draw(st.sampled_from([0.35, 1.0])), size=(4, 4))
        s = expm(SYMPLECTIC_FORM @ (h + h.T))
        nu1, nu2 = rng.uniform(0.999999, 3.0, size=2)
        rows.append(s @ np.diag([nu1, nu1, nu2, nu2]) @ s.T)
    return np.stack(rows)


@st.composite
def _near_boundary_standard_forms(draw):
    """Blocks a I, b I and c Z, Z = diag(1, -1) or I, with c^2 = ab (1 + s eps)
    and eps down to 1e-12: the scaled off-diagonal sum c / sqrt(ab) straddles
    the certificate's margin, and past 1 the matrix is indefinite (with Z = I
    and a large, its symplectic spectrum a + c, |a - c| can still pass)."""
    a, b = 10.0 ** draw(st.floats(0.0, 13.0)), 10.0 ** draw(st.floats(0.0, 13.0))
    eps = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))
    c = math.sqrt(a * b * (1.0 + draw(st.floats(-4.0, 4.0)) * eps))
    return _standard_form(a, b, c, draw(st.sampled_from([-1.0, 1.0])))


def _standard_form(a, b, c, z=-1.0):
    """The one-matrix stack of blocks a I, b I and c diag(1, z)."""
    return np.array([[a, 0, c, 0], [0, a, 0, z * c], [c, 0, b, 0], [0, z * c, 0, b]], dtype=float)[None]


@st.composite
def _slightly_asymmetric(draw):
    """Channel scans or Williamson states plus an antisymmetric error whose
    largest asymmetry lies near SYMMETRY_TOL, on either side of it: the rule
    symmetrizes these, or refuses them with the asymmetry in its message."""
    stack = draw(st.one_of(_channel_scans(), _williamson_states()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.uniform(-1.0, 1.0, size=stack.shape)
    noise = noise - noise.mT  # the asymmetry of V + noise is 2 |noise_ij|
    noise *= draw(st.sampled_from([0.25, 0.5, 0.99, 1.0, 1.01, 2.0])) * 0.5e-9 / np.abs(noise).max()
    return stack + noise


_STACKS = st.one_of(
    _channel_scans(),
    _williamson_states(),
    _near_boundary_standard_forms(),
    _slightly_asymmetric(),
    st.lists(st.floats(0.0, math.log(_MAX_SCALE) / 2.0), min_size=1, max_size=6).map(_tmsv_cms),
    # r >= 7: tanh 2r is within 1e-12 of 1, past the certificate's margin.
    st.lists(st.floats(7.0, 20.0), min_size=1, max_size=3).map(_tmsv_cms),
    # nu * TMSV has both symplectic eigenvalues nu: near 1 the rule's slack
    # 1e-7 max(1, lambda_max)^2 accepts some and refuses others.
    st.tuples(st.floats(0.0, 3.0), st.floats(-1e-5, 1e-5)).map(lambda p: (1.0 + p[1]) * _tmsv_cms([p[0]])),
    st.sampled_from(list(_INDEFINITE.values())).map(lambda cm: cm[None]),
    # ROADMAP item 4's bug 1: nu_min = 0.316, which the rule accepts.
    st.just(np.diag([1e4, 1e-5, 1.0, 1.0])[None]),
    # Scales near _MAX_SCALE: the certificate's own bound is _MAX_SCALE / 8.
    st.floats(-6.0, 1.0).map(lambda k: (2.0**k * _MAX_SCALE) * make_tmsv(0.3).cm[None] / math.cosh(0.6)),
    st.floats(0.99, 1.01).map(lambda x: (x * _CERTIFIED_SCALE) * make_tmsv(0.3).cm[None] / math.cosh(0.6)),
)


@given(stack=_STACKS, valid_rows=st.integers(0, 3), position=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
# A coupling c / sqrt(ab) of exactly 1 - 1e-12 at a scale where the
# uncertainty slack accepts the state.
@example(stack=_standard_form(1e13, 1e13, 1e13 * math.sqrt(1.0 - 2e-12)), valid_rows=1, position=0)
# Indefinite (eigenvalue -500) with a coupling of 1.0005 and nu = 2000500, 500.
@example(stack=_standard_form(1e6, 1e6, 1.0005e6, 1.0), valid_rows=3, position=1)
# Every entry at the certificate's scale bound, and just past it.
@example(stack=_CERTIFIED_SCALE * np.eye(4)[None], valid_rows=0, position=0)
@example(stack=np.nextafter(_CERTIFIED_SCALE, math.inf) * np.eye(4)[None], valid_rows=0, position=0)
@example(stack=_tmsv_cms([7.0, 7.5]), valid_rows=1, position=0)
def test_stacked_validation_decides_as_the_eigvalsh_rule(stack, valid_rows, position):
    # The certificate may only skip the eigensolver where the rule accepts:
    # on acceptance the same bytes, on refusal the same error and message.
    # One matrix takes the certificate on Python floats, under the same rule.
    stack = np.concatenate([_valid_stack()[:valid_rows], stack])
    stack = np.roll(stack, position, axis=0)
    assert _outcome(_validate_cms, stack) == _outcome(_eigvalsh_rule, stack)
    for cm in stack:
        assert _outcome(_validate_cms, cm) == _outcome(_eigvalsh_rule, cm)


def _assert_partial_transpose_keeps_det_v(stack):
    # The partial transpose D V D, D = diag(1, 1, 1, -1), meets the same LU
    # operations as V up to exact sign flips, so the E_N scan takes its
    # determinant from V's validation.
    transposed = _partial_transpose_cms(stack, ModeLabel.B)
    assert np.linalg.det(transposed).tobytes() == np.linalg.det(stack).tobytes()
    for cm, pt in zip(stack, transposed):
        assert np.linalg.det(pt).tobytes() == np.linalg.det(cm).tobytes()


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("side", list(ChannelSide))
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_partial_transpose_keeps_det_v_bit_for_bit_along_channels(kind, side, data):
    _assert_partial_transpose_keeps_det_v(data.draw(_channel_scans(kinds=[kind], sides=[side])))


@given(stack=_williamson_states())
@settings(max_examples=50, deadline=None)
def test_partial_transpose_keeps_det_v_bit_for_bit_on_williamson_states(stack):
    _assert_partial_transpose_keeps_det_v(stack)


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("side", list(ChannelSide))
def test_threshold_scans_are_certified(kind, side):
    # The scan stacks of a threshold skip the eigensolver; a member the
    # certificate cannot prove (a pure TMSV at r = 90, tanh 2r = 1) sends
    # its whole stack to it.
    channel = ChannelSpec(kind=kind, side=side, g=0.7, kappa=1.3, nbar=0.4, m=0.3)
    with mock.patch.object(channels, "_validated_stack", _unvalidated):
        state = make_tmsv(0.8)
        stack = channels._evolve_stack(state.cm, state._det_v, (channel,), _scan_grid(25.0))[0]
    assert _certified_stack(0.5 * (stack + stack.mT)) is not None
    assert _certified_stack(np.concatenate([stack, _tmsv_cms([90.0])])) is None


def test_pure_tmsvs_are_certified():
    # A pure TMSV's nu2 comes through a discriminant that vanishes, so its
    # rounding grows with the squared scale; the certificate's slack grows
    # with the largest diagonal entry as the rule's does with the largest
    # eigenvalue, and proves these without the eigensolver, keeping det V.
    stack = _tmsv_cms(np.linspace(0.5, 5.5, 101))
    proved, det_v = _certified_stack(stack)
    assert proved.tobytes() == stack.tobytes()
    assert det_v.tobytes() == np.linalg.det(stack).tobytes()
    for cm in stack:
        assert _certified_stack(cm) is not None


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
    reason="in float64 cosh(20) == sinh(20), so the stored matrix is exactly singular from r = 9.75 on (ROADMAP item 4)",
)
def test_accepts_strongly_squeezed_tmsv():
    assert np.array_equal(make_tmsv(10.0).cm, _tmsv_cms(10.0))
