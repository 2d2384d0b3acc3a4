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
    to the input when that is symmetric).
    """
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
    return cms


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
    """``symplectic_eigenvalues`` of a (..., 4, 4) stack, without input checks.

    For validated stacks, or congruent ones like their partial transposes.
    """
    a = _det2(cms[..., 0:2, 0:2])
    b = _det2(cms[..., 2:4, 2:4])
    c = _det2(cms[..., 0:2, 2:4])
    delta = a + b + 2.0 * c
    det_v = np.linalg.det(cms)
    root = np.sqrt(np.maximum(delta * delta - 4.0 * det_v, 0.0))
    nu1_sq = 0.5 * (delta + root)
    # Written so that a NaN fails as well; below _MAX_SCALE nothing overflows.
    if _any(~((nu1_sq > 0.0) & (det_v > 0.0))):
        raise DegenerateInputError("symplectic spectrum collapsed to zero")
    # (delta - root)/2 cancels catastrophically when nu1 >> nu2 (strongly
    # amplified states); the product form is algebraically identical.
    return np.sqrt(nu1_sq), np.sqrt(det_v / nu1_sq)


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
    if m.ndim == 2:
        # Plain indexing keeps the per-state path fast (and yields a numpy
        # scalar rather than a 0-d array).
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _log(x):
    """Natural log, through ``math.log`` element by element: np.log differs
    from it in the last bit for a fraction of inputs, and a stack must equal
    its one-state views."""
    if isinstance(x, float):
        return math.log(x)
    return np.fromiter(map(math.log, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)
