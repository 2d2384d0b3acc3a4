"""Qualitative steering tests: Reid inferred-variance product and entropic sum.

Both criteria are evaluated in Gaussian closed form directly from covariance
matrix elements, which stays numerically stable arbitrarily close to the
steerable boundary.  The bounds (1/4 for the Reid product, ln(e*pi) for the
entropic sum) presume the [Q, P] = 2i convention fixed in ``states``.

Both read one direction's Q and P inferred variances (``_inferred_variances``,
on the entries of one matrix or a stack, which each caller reads once);
``measures._report_columns`` shares them between the two and is the only
code that computes them over a stack.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegenerateInputError, InvalidArgumentError
from .states import TwoModeGaussianState, _any, _clamp, _entries, _log

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
    return float(_inferred_variances(_entries(state.cm), direction, quadrature))


def reid_product(state: TwoModeGaussianState, direction: SteeringDirection) -> float:
    """Product of minimized Q and P inferred variances; steerable iff < 1/4."""
    v = _entries(state.cm)
    q_var, p_var = (_inferred_variances(v, direction, quad) for quad in Quadrature)
    return float(q_var * p_var)


def entropic_sum(state: TwoModeGaussianState, direction: SteeringDirection) -> float:
    """H(X_out|X_in) + H(P_out|P_in) for Gaussian statistics; steerable iff < ln(e*pi).

    Each conditional entropy is (1/2) ln(pi*e * 2*inferred_variance), the
    differential entropy of the Gaussian conditional distribution in
    eigenvalue units.
    """
    v = _entries(state.cm)
    return float(_entropic_sum([_inferred_variances(v, direction, quad) for quad in Quadrature]))


def _inferred_variances(v, direction: SteeringDirection, quadrature: Quadrature):
    """``reid_inferred_variance`` of the matrix or stack with entries v
    (``_entries``): Python floats for one matrix, arrays for a stack."""
    i, j = _moment_indices(direction, quadrature)
    v_in = v[i][i]
    if _any(v_in <= 0.0):
        raise DegenerateInputError("conditioning variance is not positive")
    # x * x, not x ** 2: a float's power need not round as an array's square
    # does, and one matrix must give the stack's values bit for bit.
    cross = v[i][j]
    return _clamp(0.5 * (v[j][j] - cross * cross / v_in))


def _entropic_sum(variances):
    """The entropic sum of one direction's (Q, P) inferred variances."""
    total = 0.0
    for var in variances:
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
