"""Qualitative steering tests: Reid inferred-variance product and entropic sum.

Both criteria are evaluated in Gaussian closed form directly from covariance
matrix elements, which stays numerically stable arbitrarily close to the
steerable boundary.  The bounds (1/4 for the Reid product, ln(e*pi) for the
entropic sum) presume the [Q, P] = 2i convention fixed in ``states``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .states import TwoModeGaussianState, _any, _clamp, _log

__all__ = [
    "SteeringDirection",
    "Quadrature",
    "Criterion",
    "ReidEstimate",
    "REID_BOUND",
    "ENTROPIC_BOUND",
    "reid_estimate",
    "reid_inferred_variance",
    "reid_product",
    "entropic_sum",
    "is_steerable",
]

REID_BOUND = 0.25
ENTROPIC_BOUND = 1.0 + math.log(math.pi)  # ln(e*pi)


class SteeringDirection(enum.Enum):
    """A_TO_B: Alice steers Bob (mode 2 inferred from mode 1); B_TO_A: reverse."""

    A_TO_B = "a_to_b"
    B_TO_A = "b_to_a"


class Quadrature(enum.Enum):
    Q = "q"
    P = "p"


class Criterion(enum.Enum):
    REID = "reid"
    ENTROPIC = "entropic"


@dataclass(frozen=True)
class ReidEstimate:
    """Optimal linear inference x_est = d - lam * x_measured (in eigenvalue units)."""

    lam: float
    d: float


def _moment_indices(direction: SteeringDirection, quadrature: Quadrature) -> tuple[int, int]:
    """(conditioning index, inferred index) into the (Q1,P1,Q2,P2) layout."""
    offset = 0 if quadrature is Quadrature.Q else 1
    if direction is SteeringDirection.A_TO_B:
        return offset, offset + 2
    return offset + 2, offset


def reid_estimate(
    state: TwoModeGaussianState,
    direction: SteeringDirection,
    quadrature: Quadrature,
) -> ReidEstimate:
    """Slope and offset minimizing the inferred variance, in closed form."""
    i, j = _moment_indices(direction, quadrature)
    v_cond = state.cm[i, i]
    if v_cond <= 0.0:
        raise DegenerateInputError("conditioning variance is not positive")
    lam = -state.cm[i, j] / v_cond
    d = (lam * state.mean[i] + state.mean[j]) / math.sqrt(2.0)
    return ReidEstimate(lam=float(lam), d=float(d))


def reid_inferred_variance(
    state: TwoModeGaussianState,
    direction: SteeringDirection,
    quadrature: Quadrature,
) -> float:
    """Minimized inferred variance (1/2)[V(X_out) - E^2 / V(X_in)] >= 0."""
    return float(_inferred_variances(state.cm, direction, quadrature))


def reid_product(state: TwoModeGaussianState, direction: SteeringDirection) -> float:
    """Product of minimized Q and P inferred variances; steerable iff < 1/4."""
    return float(_reid_products(state.cm, direction))


def entropic_sum(state: TwoModeGaussianState, direction: SteeringDirection) -> float:
    """H(X_out|X_in) + H(P_out|P_in) for Gaussian statistics; steerable iff < ln(e*pi).

    Each conditional entropy is (1/2) ln(pi*e * 2*inferred_variance), the
    differential entropy of the Gaussian conditional distribution in
    eigenvalue units.
    """
    return float(_entropic_sums(state.cm, direction))


def _inferred_variances(cms: np.ndarray, direction: SteeringDirection, quadrature: Quadrature):
    """``reid_inferred_variance`` of a (..., 4, 4) stack, or of one (4, 4) matrix."""
    i, j = _moment_indices(direction, quadrature)
    if cms.ndim > 2:
        # Matrix axes first, so that plain indexing serves both cases and one
        # matrix's entries stay numpy scalars (the fast per-state path).
        cms = np.moveaxis(cms, (-2, -1), (0, 1))
    v_in = cms[i, i]
    if _any(v_in <= 0.0):
        raise DegenerateInputError("conditioning variance is not positive")
    # x * x, not x ** 2: a numpy scalar's power rounds differently from an
    # array's square, and one matrix must give the stack's values bit for bit.
    cross = cms[i, j]
    return _clamp(0.5 * (cms[j, j] - cross * cross / v_in))


def _reid_products(cms: np.ndarray, direction: SteeringDirection):
    """``reid_product`` of a (..., 4, 4) stack, or of one (4, 4) matrix."""
    return _inferred_variances(cms, direction, Quadrature.Q) * _inferred_variances(cms, direction, Quadrature.P)


def _entropic_sums(cms: np.ndarray, direction: SteeringDirection):
    """``entropic_sum`` of a (..., 4, 4) stack, or of one (4, 4) matrix."""
    total = 0.0
    for quad in (Quadrature.Q, Quadrature.P):
        var = _inferred_variances(cms, direction, quad)
        if _any(var <= 0.0):
            raise DegenerateInputError("conditional distribution is degenerate")
        total += 0.5 * _log(2.0 * math.pi * math.e * var)
    return total


def is_steerable(
    state: TwoModeGaussianState,
    direction: SteeringDirection,
    criterion: Criterion = Criterion.REID,
) -> tuple[bool, float]:
    """Steering verdict plus signed margin (negative margin = steerable)."""
    if criterion is Criterion.REID:
        margin = reid_product(state, direction) - REID_BOUND
    elif criterion is Criterion.ENTROPIC:
        margin = entropic_sum(state, direction) - ENTROPIC_BOUND
    else:
        raise InvalidArgumentError(f"unknown criterion {criterion!r}")
    return margin < 0.0, float(margin)
