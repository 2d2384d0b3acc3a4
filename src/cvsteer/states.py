"""Two-mode Gaussian states and their symplectic algebra.

Conventions (fixed once, used everywhere):
    Q = a + a†,  P = (a - a†)/i,  so [Q, P] = 2i and the vacuum covariance
    matrix is the 4x4 identity.  Vectors are ordered (Q1, P1, Q2, P2); mode 1
    belongs to Alice (A), mode 2 to Bob (B).  The characteristic function is
    Weyl (symmetric) ordered.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError, UnphysicalStateError

__all__ = [
    "ModeLabel",
    "CfPoint",
    "TwoModeGaussianState",
    "SYMPLECTIC_FORM",
    "make_tmsv",
    "vacuum",
    "cf_eval",
    "partial_transpose",
    "symplectic_eigenvalues",
]

# Omega = diag(J, J) with J = [[0, 1], [-1, 0]], for the (Q1,P1,Q2,P2) layout.
SYMPLECTIC_FORM = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
SYMPLECTIC_FORM.setflags(write=False)

# Constructors symmetrize (M + M^T)/2 but reject anything more lopsided than
# this, to keep downstream determinants stable.
SYMMETRY_TOL = 1e-9
# The closed-form symplectic spectrum takes a square root of a discriminant
# that vanishes for pure states, so rounding error of order eps in det V
# shows up as sqrt(eps) ~ 1e-8 in the smallest eigenvalue.  The uncertainty
# check must leave room for that amplification.
PHYSICALITY_TOL = 1e-7
# Largest covariance eigenvalue for which det V and Delta^2 in the closed-form
# symplectic spectrum stay finite (|Delta| <= 6 max_eig^2 for a positive matrix).
_MAX_SCALE = float(np.finfo(float).max) ** 0.25 / 4.0
# ``_certified``'s bound on the diagonal: lambda_max <= 2 max_i v_ii stays
# below _MAX_SCALE with room for the eigensolver's error.
_CERTIFIED_SCALE = _MAX_SCALE / 8.0
# ``_certified`` asks each row's scaled off-diagonal sum to stay this far
# below 1, far more than the sum's rounding error.
_DOMINANCE_MARGIN = 1e-12


class ModeLabel(enum.Enum):
    """The two parties: A holds mode 1, B holds mode 2."""

    A = 1
    B = 2

    @property
    def block(self) -> slice:
        """Index slice of this mode's 2x2 block in the 4x4 covariance matrix."""
        return slice(0, 2) if self is ModeLabel.A else slice(2, 4)


@dataclass(frozen=True)
class CfPoint:
    """Real arguments of the characteristic function: alpha = q1 + i p1, beta = q2 + i p2."""

    q1: float
    p1: float
    q2: float
    p2: float

    def __post_init__(self):
        vals = (self.q1, self.p1, self.q2, self.p2)
        if not all(np.isfinite(v) for v in vals):
            raise InvalidArgumentError(f"CF arguments must be finite, got {vals}")

    def as_array(self) -> np.ndarray:
        return np.array([self.q1, self.p1, self.q2, self.p2])


def _float_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; anything else raises InvalidArgumentError naming ``name``."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{name} must be an array of real numbers: {exc}") from None


class TwoModeGaussianState:
    """Immutable mean vector + 4x4 covariance matrix of a physical state.

    The covariance matrix holds second central moments of (Q1, P1, Q2, P2)
    with vacuum normalized to the identity.  Construction enforces symmetry,
    positive definiteness and the uncertainty bound (symplectic eigenvalues
    >= 1 - PHYSICALITY_TOL).
    """

    __slots__ = ("_mean", "_cm", "_det_v")

    def __init__(self, mean, cm):
        mean, cm = _float_array(mean, "mean").view(), _float_array(cm, "cm")  # the caller's array stays writable
        if mean.shape != (4,):
            raise InvalidArgumentError(f"mean must have 4 entries, got shape {mean.shape}")
        if cm.shape != (4, 4):
            raise InvalidArgumentError(f"cm must be 4x4, got shape {cm.shape}")
        if not np.all(np.isfinite(mean)):
            raise InvalidArgumentError("mean must be finite")
        self._freeze(mean, *_validate_cms(cm))

    @classmethod
    def _validated(cls, mean: np.ndarray, cm: np.ndarray, det_v: float) -> "TwoModeGaussianState":
        """The state of a finite length-4 mean, and a 4x4 matrix and its det V
        that ``_validate_cms`` returned, without checking them again."""
        state = object.__new__(cls)
        state._freeze(mean, cm, det_v)
        return state

    def _freeze(self, mean: np.ndarray, cm: np.ndarray, det_v: float) -> None:
        mean.setflags(write=False)
        cm.setflags(write=False)
        object.__setattr__(self, "_mean", mean)
        object.__setattr__(self, "_cm", cm)
        # np.linalg.det(cm) bit for bit, from the validation that accepted cm.
        object.__setattr__(self, "_det_v", det_v)

    def __setattr__(self, name, value):
        raise AttributeError("TwoModeGaussianState is immutable")

    @property
    def mean(self) -> np.ndarray:
        return self._mean

    @property
    def cm(self) -> np.ndarray:
        return self._cm

    def block(self, mode: ModeLabel) -> np.ndarray:
        """The 2x2 diagonal block of the given mode."""
        s = mode.block
        return self._cm[s, s]

    @property
    def cross_block(self) -> np.ndarray:
        """The 2x2 A-B correlation block (rows mode A, columns mode B)."""
        return self._cm[0:2, 2:4]

    def swapped(self) -> "TwoModeGaussianState":
        """The same state with the two modes relabelled A <-> B."""
        perm = [2, 3, 0, 1]
        return TwoModeGaussianState(self._mean[perm], self._cm[np.ix_(perm, perm)])

    def __repr__(self):
        return f"TwoModeGaussianState(mean={self._mean.tolist()}, cm={self._cm.tolist()})"

    def __eq__(self, other):
        if not isinstance(other, TwoModeGaussianState):
            return NotImplemented
        return np.array_equal(self._mean, other._mean) and np.array_equal(self._cm, other._cm)

    def __hash__(self):
        return hash((self._mean.tobytes(), self._cm.tobytes()))


def vacuum() -> TwoModeGaussianState:
    """The two-mode vacuum."""
    return TwoModeGaussianState(np.zeros(4), np.eye(4))


def make_tmsv(r: float) -> TwoModeGaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r >= 0.

    Diagonal entries cosh 2r, Q-Q correlation +sinh 2r, P-P correlation
    -sinh 2r; a pure state (both symplectic eigenvalues exactly 1).
    """
    return TwoModeGaussianState(np.zeros(4), _tmsv_cms(r))


def _tmsv_cms(r) -> np.ndarray:
    """The (unvalidated) covariance matrices of ``make_tmsv`` for each
    squeezing parameter in r: one 4x4 matrix for a float, an (N, 4, 4) stack
    for N values."""
    r = np.asarray(r, dtype=float)
    for bad, rule in ((~np.isfinite(r), "finite"), (r < 0, ">= 0")):
        if _any(bad):
            raise InvalidArgumentError(f"squeezing parameter must be {rule}, got {r[bad][0]}")
    with np.errstate(over="ignore"):  # an overflow is an inf entry, which validation rejects
        ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    return _matrix(((ch, 0.0, sh, 0.0), (0.0, ch, 0.0, -sh), (sh, 0.0, ch, 0.0), (0.0, -sh, 0.0, ch)), r.shape)


def cf_eval(state: TwoModeGaussianState, pt: CfPoint) -> complex:
    """Characteristic function chi(q1, p1; q2, p2) of the state.

    chi(xi) = exp{ i (Omega xi) . mean - 1/2 xi^T Omega V Omega^T xi }, which
    for zero-mean states is real with chi(0) = 1 and |chi| <= 1 everywhere.
    """
    xi = pt.as_array()
    eta = SYMPLECTIC_FORM @ xi
    quad = eta @ state.cm @ eta
    return complex(np.exp(-0.5 * quad) * np.exp(1j * (eta @ state.mean)))


def partial_transpose(state: TwoModeGaussianState, mode: ModeLabel) -> np.ndarray:
    """Covariance matrix after transposing the given mode.

    Flips the sign of that mode's P row and column.  The result is a plain
    symmetric matrix: it need not satisfy the uncertainty bound (that failure
    is exactly what signals entanglement).
    """
    return _partial_transpose_cms(state.cm, mode)


def _partial_transpose_cms(cms: np.ndarray, mode: ModeLabel) -> np.ndarray:
    """``partial_transpose`` of a (..., 4, 4) stack of covariance matrices."""
    p_index = 1 if mode is ModeLabel.A else 3
    flip = np.ones(4)
    flip[p_index] = -1.0
    return cms * np.outer(flip, flip)


def _validate_cms(cms: np.ndarray):
    """The state constructor's checks on a (..., 4, 4) stack, or one matrix.

    Each matrix must be finite, symmetric to SYMMETRY_TOL, positive definite
    relative to its scale, small enough that det V cannot overflow, and obey
    the uncertainty bound nu2 >= 1 - PHYSICALITY_TOL * max(1, max_eig)^2.
    Raises if any member fails; returns (V, det_v): the symmetrized stack
    (bit-identical to the input when that is symmetric), always a new
    C-ordered array, and its det V (``_validated_stack``).  What the
    certificate cannot prove takes the eigvalsh rule on ``cms`` itself, so
    no stack is assembled from its entries.
    """
    return _certified(_entries(cms), cms.shape[:-2]) or _eigvalsh_rule(np.ascontiguousarray(cms))


def _validated_stack(v, shape: tuple):
    """(cms, det_v): the matrix or ``shape`` stack of entries v (``_entries``:
    Python floats for shape (), else arrays of that shape), symmetrized,
    after the checks of ``_validate_cms``, and the det V of each member,
    ``np.linalg.det`` of the returned matrix or stack bit for bit.

    The rule is read off ``eigvalsh``.  ``_certified`` proves without an
    eigensolver that the rule accepts; only what it cannot prove takes the
    eigensolver (a stack as a whole, assembled from v), so each decision,
    error type and message is the rule's.
    """
    return _certified(v, shape) or _eigvalsh_rule(_matrix(v, shape))


def _eigvalsh_rule(cms: np.ndarray):
    """(V, det_v): (V + V^T)/2 of each matrix and its det V, after checking
    that it is finite, symmetric to SYMMETRY_TOL and passes the rule of
    ``_validate_cms``, read off ``eigvalsh``."""
    if not np.isfinite(cms).all():
        raise InvalidArgumentError("covariance matrix must be finite")
    transposed = cms.mT
    asym = np.abs(cms - transposed).max()
    if asym > SYMMETRY_TOL:
        raise UnphysicalStateError(f"covariance matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    cms = 0.5 * (cms + transposed)
    eigs = np.linalg.eigvalsh(cms)
    # The eigensolver's absolute error grows with the largest eigenvalue,
    # so the definiteness test must be relative to the matrix scale
    # (strongly amplified states are legitimately ill-conditioned).
    top = eigs[..., -1]
    scale = np.maximum(1.0, top)
    if _any(eigs[..., 0] <= -1e-9 * scale):
        raise UnphysicalStateError("covariance matrix is not positive definite")
    _check_scale(top)
    det_v = _value(np.linalg.det(cms))
    _, nu2 = _spectra(*_block_dets(_entries(cms)), det_v)
    # For pure states the discriminant under the square root vanishes
    # identically, so its rounding error (of order eps times the fourth
    # power of the matrix norm) dominates: the slack must grow with the
    # squared scale of the matrix or strongly squeezed pure states would
    # be rejected.
    violated = nu2 < 1.0 - PHYSICALITY_TOL * (scale * scale)
    if _any(violated):
        smallest = np.min(nu2, where=violated, initial=math.inf)
        raise UnphysicalStateError(f"uncertainty relation violated: smallest symplectic eigenvalue {smallest:.12g} < 1")
    return cms, det_v


def _certified(v, shape: tuple):
    """(V, det_v) of the matrix or ``shape`` stack of entries v when every
    member provably passes the eigvalsh rule of ``_validate_cms``, else None;
    judged on the entries, without an eigensolver.  V is the symmetrized
    matrix or stack, (V + V^T)/2 bit for bit, assembled once, and det_v its
    ``np.linalg.det``.

    The certificate, for each matrix with diagonal d and symmetrized entries
    s_ij = (v_ij + v_ji)/2:
      - every d_i > 0, max_i d_i <= _CERTIFIED_SCALE = _MAX_SCALE / 8, and
        sum_{i<j} |v_ij - v_ji| <= SYMMETRY_TOL, which bounds the largest
        asymmetry the rule reads.  A NaN or an infinity fails one of these;
      - for every row, sum_{j != i} |s_ij| / sqrt(d_i d_j) <= 1 -
        _DOMINANCE_MARGIN.  Then D^{-1/2} V D^{-1/2} is strictly diagonally
        dominant with a unit diagonal, so its eigenvalues lie in (0, 2) (the
        margin dwarfs the sums' rounding error of a few eps): V is positive
        definite with lambda_max <= 2 max_i d_i <= _MAX_SCALE / 4, below the
        rule's scale bound.  For a positive definite V, LAPACK's computed
        eigenvalues obey lambda_min >= -p(4) eps lambda_max (LAPACK Users'
        Guide, section 4.7), far above the rule's -1e-9 max(1, lambda_max);
      - nu1^2 > 0 and det V > 0, by the rule's own arithmetic (``_spectra``
        of V and its ``np.linalg.det``), so the nu2 below is the rule's;
      - nu2 >= 1 - PHYSICALITY_TOL s^2 with s = max(1, (1 - 1e-12) max_i d_i).
        The rule's slack has scale = max(1, lambda_max) in place of s.
        lambda_max >= max_i d_i (the Rayleigh quotient of a unit vector), and
        the eigensolver's error, a few eps lambda_max <= a few eps max_i d_i,
        is far below 1e-12 max_i d_i: the computed scale is at least s, so
        the rule's bound is at most this one.
    A member that fails only makes the answer None.  An overflow on the way
    only fails a test, so a stack computes with numpy's warnings off.
    """
    (v00, v01, v02, v03), (v10, v11, v12, v13), (v20, v21, v22, v23), (v30, v31, v32, v33) = v
    with _quiet(v00):
        d_max = _max(v00, v11, v22, v33)
        if not _all((v00 > 0.0) & (v11 > 0.0) & (v22 > 0.0) & (v33 > 0.0) & (d_max <= _CERTIFIED_SCALE)):
            return None
        asym = abs(v01 - v10) + abs(v02 - v20) + abs(v03 - v30) + abs(v12 - v21) + abs(v13 - v31) + abs(v23 - v32)
        s01, s02, s03 = 0.5 * (v01 + v10), 0.5 * (v02 + v20), 0.5 * (v03 + v30)
        s12, s13, s23 = 0.5 * (v12 + v21), 0.5 * (v13 + v31), 0.5 * (v23 + v32)
        # Only this test reads w, so x ** 0.5 (pow on a float) serves.
        w0, w1, w2, w3 = 1.0 / v00**0.5, 1.0 / v11**0.5, 1.0 / v22**0.5, 1.0 / v33**0.5
        c01, c02, c03 = abs(s01) * w0 * w1, abs(s02) * w0 * w2, abs(s03) * w0 * w3
        c12, c13, c23 = abs(s12) * w1 * w2, abs(s13) * w1 * w3, abs(s23) * w2 * w3
        coupling = _max(c01 + c02 + c03, c01 + c12 + c13, c02 + c12 + c23, c03 + c13 + c23)
        if not _all((asym <= SYMMETRY_TOL) & (coupling <= 1.0 - _DOMINANCE_MARGIN)):
            return None
    # (v + v)/2 = v exactly, so the diagonal is the symmetrized one.
    s = ((v00, s01, s02, s03), (s01, v11, s12, s13), (s02, s12, v22, s23), (s03, s13, s23, v33))
    cms = _matrix(s, shape)
    det_v = _value(np.linalg.det(cms))
    try:
        _, nu2 = _spectra(*_block_dets(s), det_v)
    except DegenerateInputError:
        return None
    scale = _max((1.0 - _DOMINANCE_MARGIN) * d_max, 1.0)
    return (cms, det_v) if _all(nu2 >= 1.0 - PHYSICALITY_TOL * (scale * scale)) else None


def symplectic_eigenvalues(cm: np.ndarray):
    """The two symplectic eigenvalues (nu1 >= nu2 > 0) of a 4x4 covariance matrix.

    Uses the closed form 2 nu^2 = Delta +- sqrt(Delta^2 - 4 det V) with
    Delta = det A + det B + 2 det C for the blocks of V.  These are the moduli
    of the eigenvalues of i Omega V, each with multiplicity two.  One matrix
    gives a tuple of floats; a (..., 4, 4) stack gives arrays (nu1, nu2), and
    raises if any member fails the input checks.
    """
    cm = np.asarray(cm, dtype=float)
    if cm.ndim < 2 or cm.shape[-2:] != (4, 4):
        raise InvalidArgumentError(f"expected a 4x4 matrix, got shape {cm.shape}")
    if np.max(np.abs(cm - cm.mT)) > SYMMETRY_TOL:
        raise InvalidArgumentError("matrix is not symmetric")
    eigs = np.linalg.eigvalsh(cm)
    if _any(eigs[..., 0] <= -1e-9 * np.maximum(1.0, eigs[..., -1])):
        raise InvalidArgumentError("matrix is not positive definite")
    _check_scale(eigs[..., -1])
    nu1, nu2 = _symplectic_spectra(cm)
    if cm.ndim == 2:
        return float(nu1), float(nu2)
    return nu1, nu2


def _symplectic_spectra(cms: np.ndarray):
    """``symplectic_eigenvalues`` of one matrix or a (..., 4, 4) stack,
    without input checks: for validated stacks, or congruent ones like
    their partial transposes."""
    nu1_sq, nu2 = _spectra(*_block_dets(_entries(cms)), np.linalg.det(cms))
    return _sqrt(nu1_sq), nu2


def _block_dets(v):
    """(det A, det B, det C) of the 2x2 blocks of the matrices with entries
    v, in closed form (np.linalg.det loses precision near the boundaries)."""
    (v00, v01, v02, v03), (v10, v11, v12, v13), (v20, v21, v22, v23), (v30, v31, v32, v33) = v
    return v00 * v11 - v01 * v10, v22 * v33 - v23 * v32, v02 * v13 - v03 * v12


def _spectra(a, b, c, det_v):
    """(nu1^2, nu2) from the block determinants a, b, c and det V:
    2 nu^2 = Delta +- sqrt(Delta^2 - 4 det V) with Delta = a + b + 2c."""
    delta = a + b + 2.0 * c
    nu1_sq = 0.5 * (delta + _sqrt(_max(delta * delta - 4.0 * det_v, 0.0)))
    # Written so that a NaN fails as well; below _MAX_SCALE nothing overflows.
    if not _all((nu1_sq > 0.0) & (det_v > 0.0)):
        raise DegenerateInputError("symplectic spectrum collapsed to zero")
    # (delta - root)/2 cancels catastrophically when nu1 >> nu2 (strongly
    # amplified states); the product form is algebraically identical.
    return nu1_sq, _sqrt(det_v / nu1_sq)


def _check_scale(max_eig) -> None:
    if _any(max_eig > _MAX_SCALE):
        raise DegenerateInputError(
            f"covariance scale {np.max(max_eig):.3e} exceeds {_MAX_SCALE:.3e}: det V would overflow"
        )


# Shape helpers: each stage of the engine is written once on the entries of
# a matrix, Python floats for one matrix and arrays over a stack for a stack.
# Past ``channels._evolve_stack``'s test for one duration, only these
# helpers tell the two apart.


def _entries(cms):
    """The entries v[i][j] of one n x n matrix as Python floats, or of a
    (..., n, n) stack as arrays over its leading axes (a view, matrix axes
    first)."""
    return cms.tolist() if cms.ndim == 2 else cms.transpose(-2, -1, *range(cms.ndim - 2))


def _value(x):
    """One matrix's 0-d result as a Python float; a stack's array as it is."""
    return float(x) if x.ndim == 0 else x


def _matrix(rows, shape: tuple) -> np.ndarray:
    """The C-ordered array of the n x n entries ``rows``: one matrix for
    shape (), else a shape + (n, n) stack of entries that broadcast to shape."""
    if not shape:
        return np.array(rows)
    out = np.empty((len(rows), len(rows)) + shape)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = x
    return np.ascontiguousarray(out.transpose(*range(2, out.ndim), 0, 1))


def _any(mask) -> bool:
    """``mask.any()``; one value's mask (a bool, numpy's or 0-d) skips the
    costlier reduction."""
    return mask if type(mask) is bool else bool(mask.any() if mask.ndim else mask)


def _all(mask) -> bool:
    """``mask.all()``; one value's mask (a bool, numpy's or 0-d) skips the
    costlier reduction."""
    return mask if type(mask) is bool else bool(mask.all() if mask.ndim else mask)


_NO_CONTEXT = contextlib.nullcontext()


def _quiet(x):
    """numpy's floating-point warnings off for an array's arithmetic; no
    context for a Python float's, which warns of nothing."""
    return _NO_CONTEXT if type(x) is float else np.errstate(all="ignore")


def _clamp(x):
    """max(0.0, x) elementwise: zero unless x > 0 (so -0.0 and NaN give 0.0);
    plain ``max`` for one value keeps the per-state path fast."""
    if isinstance(x, float):
        return max(0.0, x)
    return np.where(x > 0.0, x, 0.0)


def _max(*values):
    """The largest of ``values``: plain ``max`` of Python floats, else
    ``np.maximum`` elementwise (which propagates NaN)."""
    return max(values) if type(values[0]) is float else functools.reduce(np.maximum, values)


def _quotient(num, den, limit):
    """num / den elementwise, ``limit`` where den == 0 (Python floats for a float den)."""
    if isinstance(den, float):
        return num / den if den != 0.0 else limit
    return np.divide(num, den, out=np.array(limit, dtype=float), where=den != 0.0)


def _sqrt(x):
    """Square root elementwise: ``math.sqrt`` of a Python float, ``np.sqrt``
    of an array or a numpy scalar (both correctly rounded)."""
    return math.sqrt(x) if type(x) is float else np.sqrt(x)


def _log(x):
    """Natural log, through ``math.log`` element by element: np.log differs
    from it in the last bit for a fraction of inputs, and a stack must equal
    its one-state views."""
    if isinstance(x, float):
        return math.log(x)
    return np.fromiter(map(math.log, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)
