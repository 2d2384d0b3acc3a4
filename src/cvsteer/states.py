"""Two-mode Gaussian states and their symplectic algebra.

Conventions (fixed once, used everywhere):
    Q = a + a†,  P = (a - a†)/i,  so [Q, P] = 2i and the vacuum covariance
    matrix is the 4x4 identity.  Vectors are ordered (Q1, P1, Q2, P2); mode 1
    belongs to Alice (A), mode 2 to Bob (B).  The characteristic function is
    Weyl (symmetric) ordered.
"""

from __future__ import annotations

import enum
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
_MAX_SCALE = np.finfo(float).max ** 0.25 / 4.0
# ``_certified``'s bound on every entry: lambda_max <= 4 max |v_ij| stays
# below _MAX_SCALE with room for the eigensolver's error.
_CERTIFIED_SCALE = _MAX_SCALE / 8.0
# ``_certified`` asks each row's scaled off-diagonal sum to stay this far
# below 1, far more than the sum's rounding error.
_DOMINANCE_MARGIN = 1e-12
_OFF_DIAGONAL = 1.0 - np.eye(4)
_OFF_DIAGONAL.setflags(write=False)


class ModeLabel(enum.Enum):
    """The two parties: A holds mode 1, B holds mode 2."""

    A = 1
    B = 2

    @property
    def block(self) -> slice:
        """Index slice of this mode's 2x2 block in the 4x4 covariance matrix."""
        return slice(0, 2) if self is ModeLabel.A else slice(2, 4)

    @property
    def other(self) -> "ModeLabel":
        return ModeLabel.B if self is ModeLabel.A else ModeLabel.A


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

    __slots__ = ("_mean", "_cm")

    def __init__(self, mean, cm):
        mean, cm = _float_array(mean, "mean").reshape(-1), _float_array(cm, "cm")
        if mean.shape != (4,):
            raise InvalidArgumentError(f"mean must have 4 entries, got shape {mean.shape}")
        if cm.shape != (4, 4):
            raise InvalidArgumentError(f"cm must be 4x4, got shape {cm.shape}")
        if not np.all(np.isfinite(mean)):
            raise InvalidArgumentError("mean must be finite")
        self._freeze(mean, _validate_cms(cm))

    @classmethod
    def _validated(cls, mean: np.ndarray, cm: np.ndarray) -> "TwoModeGaussianState":
        """The state of a finite length-4 mean and a 4x4 matrix that
        ``_validate_cms`` returned, without checking either again."""
        state = object.__new__(cls)
        state._freeze(mean, cm)
        return state

    def _freeze(self, mean: np.ndarray, cm: np.ndarray) -> None:
        mean.setflags(write=False)
        cm.setflags(write=False)
        object.__setattr__(self, "_mean", mean)
        object.__setattr__(self, "_cm", cm)

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
    cms = np.zeros(r.shape + (4, 4))
    for i in range(4):
        cms[..., i, i] = ch
    cms[..., 0, 2] = cms[..., 2, 0] = sh
    cms[..., 1, 3] = cms[..., 3, 1] = -sh
    return cms


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


def _validate_cms(cms: np.ndarray) -> np.ndarray:
    """The state constructor's checks on a (..., 4, 4) stack, or one matrix.

    Each matrix must be finite, symmetric to SYMMETRY_TOL, positive definite
    relative to its scale, small enough that det V cannot overflow, and obey
    the uncertainty bound nu2 >= 1 - PHYSICALITY_TOL * max(1, max_eig)^2.
    Raises if any member fails; returns the symmetrized stack (bit-identical
    to the input when that is symmetric), always a new array.

    The rule is read off ``eigvalsh``.  A stack first tries ``_certified``,
    and one matrix ``_validate_rows``, which runs the same tests on Python
    floats; each proves without an eigensolver that the rule accepts.  Only
    what they cannot prove takes the eigensolver (a stack as a whole), so
    each decision, error type and message is the rule's.
    """
    if cms.ndim == 2:
        return _validate_rows(cms.tolist())
    return _validated_stack(cms)[0]


def _validated_stack(cms: np.ndarray):
    """(stack, det_v): ``_validate_cms`` of a (..., 4, 4) stack, and the det V
    of each member that ``_certified`` computed to prove it, or None when
    the stack took the eigvalsh rule."""
    cms = _symmetrized(cms)
    det_v = _certified(cms)
    if det_v is None:
        _check_eigvalsh_rule(cms)
    return cms, det_v


def _validate_rows(rows: list) -> np.ndarray:
    """``_validate_cms`` of one matrix given as four rows of Python floats.

    ``_certified_rows`` runs the certificate on the floats; a matrix it
    cannot prove takes the eigvalsh rule as an array."""
    cm = _certified_rows(rows)
    if cm is None:
        cm = _symmetrized(np.array(rows))
        _check_eigvalsh_rule(cm)
    return cm


def _symmetrized(cms: np.ndarray) -> np.ndarray:
    """(V + V^T)/2 of each matrix, after checking that it is finite and
    symmetric to SYMMETRY_TOL."""
    if not np.isfinite(cms).all():
        raise InvalidArgumentError("covariance matrix must be finite")
    transposed = cms.mT
    asym = np.abs(cms - transposed).max()
    if asym > SYMMETRY_TOL:
        raise UnphysicalStateError(f"covariance matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    return 0.5 * (cms + transposed)


def _check_eigvalsh_rule(cms: np.ndarray) -> None:
    """Raise unless every finite, symmetric matrix of ``cms`` passes the rule
    of ``_validate_cms``, read off ``eigvalsh``."""
    eigs = np.linalg.eigvalsh(cms)
    # The eigensolver's absolute error grows with the largest eigenvalue,
    # so the definiteness test must be relative to the matrix scale
    # (strongly amplified states are legitimately ill-conditioned).
    top = eigs[..., -1]
    scale = np.maximum(1.0, top)
    if _any(eigs[..., 0] <= -1e-9 * scale):
        raise UnphysicalStateError("covariance matrix is not positive definite")
    _check_scale(top)
    _, nu2 = _symplectic_spectra(cms)
    # For pure states the discriminant under the square root vanishes
    # identically, so its rounding error (of order eps times the fourth
    # power of the matrix norm) dominates: the slack must grow with the
    # squared scale of the matrix or strongly squeezed pure states would
    # be rejected.
    violated = nu2 < 1.0 - PHYSICALITY_TOL * (scale * scale)
    if _any(violated):
        raise UnphysicalStateError(
            f"uncertainty relation violated: smallest symplectic eigenvalue {nu2[violated].min():.12g} < 1"
        )


def _certified(cms: np.ndarray):
    """det V of each member of the symmetric stack ``cms`` when every member
    provably passes the eigvalsh rule of ``_validate_cms``, else None;
    judged without an eigensolver.

    The certificate, for each matrix V with diagonal d:
      - every d_i > 0 and, for every row, sum_{j != i} |v_ij| / sqrt(d_i d_j)
        <= 1 - _DOMINANCE_MARGIN.  Then D^{-1/2} V D^{-1/2} is strictly
        diagonally dominant with a unit diagonal, so V is positive definite
        (the margin dwarfs the sums' rounding error of a few eps).  For a
        positive definite V, LAPACK's computed eigenvalues obey
        lambda_min >= -p(4) eps lambda_max (LAPACK Users' Guide, section 4.7),
        far above the rule's -1e-9 max(1, lambda_max);
      - max |v_ij| <= _CERTIFIED_SCALE = _MAX_SCALE / 8, so lambda_max <=
        ||V||_2 <= 4 max |v_ij| stays below _MAX_SCALE with room for the
        eigensolver's error;
      - nu1^2 > 0 and det V > 0, by ``_symplectic_spectra``'s own arithmetic;
      - nu2 >= 1 - PHYSICALITY_TOL, by the same arithmetic: with
        scale = max(1, lambda_max) >= 1, 1 - tol scale^2 <= 1 - tol.
    A member that fails (NaN included) only makes the answer None.
    """
    with np.errstate(all="ignore"):  # a failing member may divide by zero or overflow
        magnitudes = np.abs(cms)
        if not magnitudes.max() <= _CERTIFIED_SCALE:
            return None
        d = np.diagonal(cms, axis1=-2, axis2=-1)
        s = 1.0 / np.sqrt(d)
        coupling = ((magnitudes * _OFF_DIAGONAL) @ s[..., None])[..., 0] * s
        if not ((d > 0.0).all() and (coupling <= 1.0 - _DOMINANCE_MARGIN).all()):
            return None
        nu1_sq, det_v = _spectrum_terms(cms)
        nu2 = np.sqrt(det_v / nu1_sq)
        return det_v if ((nu1_sq > 0.0) & (det_v > 0.0) & (nu2 >= 1.0 - PHYSICALITY_TOL)).all() else None


def _certified_rows(rows: list):
    """``_certified`` of one matrix given as four rows of Python floats, run
    on the floats: the symmetrized matrix as an array when it is proved, else
    None.

    Symmetry to SYMMETRY_TOL comes first (a NaN or infinite off-diagonal
    entry fails it), then the scale and dominance tests, which refuse most
    matrices that are not proved; only then does ``np.linalg.det`` give the
    det V of nu2.  Each float operation of nu2 is the one the eigvalsh rule
    makes on the array, so the two nu2 are the same float.
    """
    (v00, v01, v02, v03), (v10, v11, v12, v13), (v20, v21, v22, v23), (v30, v31, v32, v33) = rows
    # The sum bounds the largest asymmetry, which the rule reads.
    asym = abs(v01 - v10) + abs(v02 - v20) + abs(v03 - v30) + abs(v12 - v21) + abs(v13 - v31) + abs(v23 - v32)
    if not asym <= SYMMETRY_TOL:
        return None
    s01, s02, s03 = 0.5 * (v01 + v10), 0.5 * (v02 + v20), 0.5 * (v03 + v30)
    s12, s13, s23 = 0.5 * (v12 + v21), 0.5 * (v13 + v31), 0.5 * (v23 + v32)
    a01, a02, a03, a12, a13, a23 = abs(s01), abs(s02), abs(s03), abs(s12), abs(s13), abs(s23)
    if not (v00 > 0.0 and v11 > 0.0 and v22 > 0.0 and v33 > 0.0):  # NaN too
        return None
    if not max(v00, v11, v22, v33, a01, a02, a03, a12, a13, a23) <= _CERTIFIED_SCALE:
        return None
    w0, w1, w2, w3 = 1.0 / math.sqrt(v00), 1.0 / math.sqrt(v11), 1.0 / math.sqrt(v22), 1.0 / math.sqrt(v33)
    coupling = max(
        (a01 * w1 + a02 * w2 + a03 * w3) * w0,
        (a01 * w0 + a12 * w2 + a13 * w3) * w1,
        (a02 * w0 + a12 * w1 + a23 * w3) * w2,
        (a03 * w0 + a13 * w1 + a23 * w2) * w3,
    )
    if not coupling <= 1.0 - _DOMINANCE_MARGIN:
        return None
    cm = np.array([[v00, s01, s02, s03], [s01, v11, s12, s13], [s02, s12, v22, s23], [s03, s13, s23, v33]])
    try:
        det_v = float(np.linalg.det(cm))
        nu2 = _smaller_nu(v00 * v11 - s01 * s01, v22 * v33 - s23 * s23, s02 * s13 - s03 * s12, det_v)
    except DegenerateInputError:
        return None
    return cm if nu2 >= 1.0 - PHYSICALITY_TOL else None


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


def _symplectic_spectra(cms: np.ndarray, det_v=None):
    """``symplectic_eigenvalues`` of a (..., 4, 4) stack, without input checks.

    For validated stacks, or congruent ones like their partial transposes.
    ``det_v``, when given, is det V of each matrix, computed elsewhere.
    """
    nu1_sq, det_v = _spectrum_terms(cms, det_v)
    # Written so that a NaN fails as well; below _MAX_SCALE nothing overflows.
    if _any(~((nu1_sq > 0.0) & (det_v > 0.0))):
        raise DegenerateInputError("symplectic spectrum collapsed to zero")
    # (delta - root)/2 cancels catastrophically when nu1 >> nu2 (strongly
    # amplified states); the product form is algebraically identical.
    return np.sqrt(nu1_sq), np.sqrt(det_v / nu1_sq)


def _spectrum_terms(cms: np.ndarray, det_v=None):
    """(nu1^2, det V) of ``_symplectic_spectra``, without its check."""
    a = _det2(cms[..., 0:2, 0:2])
    b = _det2(cms[..., 2:4, 2:4])
    c = _det2(cms[..., 0:2, 2:4])
    delta = a + b + 2.0 * c
    if det_v is None:
        det_v = np.linalg.det(cms)
    root = np.sqrt(np.maximum(delta * delta - 4.0 * det_v, 0.0))
    return 0.5 * (delta + root), det_v


def _smaller_nu(a: float, b: float, c: float, det_v: float) -> float:
    """nu2 of ``_symplectic_spectra`` for one matrix, on Python floats, from
    the determinants a, b, c of its blocks A, B, C and det V: the same float
    operations, and the same raise."""
    delta = a + b + 2.0 * c
    nu1_sq = 0.5 * (delta + math.sqrt(max(delta * delta - 4.0 * det_v, 0.0)))
    if not (nu1_sq > 0.0 and det_v > 0.0):
        raise DegenerateInputError("symplectic spectrum collapsed to zero")
    return math.sqrt(det_v / nu1_sq)


def _check_scale(max_eig) -> None:
    if _any(max_eig > _MAX_SCALE):
        raise DegenerateInputError(
            f"covariance scale {np.max(max_eig):.3e} exceeds {_MAX_SCALE:.3e}: det V would overflow"
        )


def _any(mask) -> bool:
    """``mask.any()``; a single matrix's scalar mask skips the costlier reduction."""
    return bool(mask) if mask.ndim == 0 else bool(mask.any())


def _clamp(x):
    """max(0.0, x) elementwise: zero unless x > 0 (so -0.0 and NaN give 0.0);
    plain ``max`` for one value keeps the per-state path fast."""
    if isinstance(x, float):
        return max(0.0, x)
    return np.where(x > 0.0, x, 0.0)


def _det2(m: np.ndarray):
    """Determinants of (..., 2, 2) blocks in closed form (np.linalg.det loses
    precision near steerable boundaries); a scalar for a single block."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _log(x):
    """Natural log, through ``math.log`` element by element: np.log differs
    from it in the last bit for a fraction of inputs, and a stack must equal
    its one-state views."""
    if isinstance(x, float):
        return math.log(x)
    return np.fromiter(map(math.log, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)
