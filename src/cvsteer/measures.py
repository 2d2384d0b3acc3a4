"""Quantitative steerability, logarithmic negativity and threshold times.

Thresholds come in two flavours everywhere: a closed form evaluated from the
channel parameters, and a bracketing + bisection root of the exact
covariance-matrix-level condition.  The bisected value is authoritative; the
closed forms are verified against it (this protects against branch and sign
choices in the quadratic threshold expressions when coefficients change sign
across parameter space).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .channels import ChannelSide, ChannelSpec
from .criteria import SteeringDirection, entropic_sum, reid_product
from .errors import DegenerateInputError, InvalidArgumentError, MultiRootError
from .states import (
    ModeLabel,
    TwoModeGaussianState,
    _any,
    _det2,
    _partial_transpose_cms,
    _symplectic_spectra,
    make_tmsv,
)

__all__ = [
    "SteeringReport",
    "ThresholdResult",
    "INFINITE_THRESHOLD",
    "gaussian_steerability",
    "steerability_exponent",
    "log_negativity",
    "log_negativity_exponent",
    "numeric_threshold",
    "two_way_laser_threshold",
    "two_way_thermal_threshold",
    "one_side_thresholds",
    "inseparability_threshold",
    "steering_report",
]

# Typed sentinel for a quantity that never decays; serialized as the string
# "inf", never as a float, in CLI output.
INFINITE_THRESHOLD = math.inf

# Rates close enough to kappa = g that Omega-based closed forms are replaced
# by their analytic limits.
_RATE_DEGENERACY_TOL = 1e-12

# Signed quantities smaller in magnitude than this are indistinguishable from
# rounding noise during the bracketing scan.  The steerability exponent comes
# from a well-conditioned Schur complement; the entanglement exponent takes a
# square root of a near-cancelling discriminant, which amplifies rounding
# error of order eps to sqrt(eps) ~ 1e-8 when the eigenvalue sits near 1.
_SIGN_NOISE_FLOOR = {"G_AtoB": 1e-13, "G_BtoA": 1e-13, "G_twoway": 1e-13, "E_N": 1e-7}

_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_ADJUGATE_SIGNS.setflags(write=False)


def _log(x):
    # math.log element by element: np.log differs from it in the last bit for
    # a fraction of inputs, and a stack must equal its one-state views.
    if isinstance(x, float):
        return math.log(x)
    return np.fromiter(map(math.log, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def _steerability_exponents(cms: np.ndarray, direction: SteeringDirection):
    """``steerability_exponent`` of a (..., 4, 4) stack, or a float for one matrix.

    The steered party's block conditioned on the steerer's optimal Gaussian
    measurement is a Schur complement; its 2x2 determinant comes in closed
    form for precision near the boundary.
    """
    if direction is SteeringDirection.A_TO_B:
        steerer, steered, cross = cms[..., 0:2, 0:2], cms[..., 2:4, 2:4], cms[..., 0:2, 2:4]
    else:
        steerer, steered, cross = cms[..., 2:4, 2:4], cms[..., 0:2, 0:2], cms[..., 0:2, 2:4].mT
    det_s = _det2(steerer)
    if _any(~(det_s > 0.0)):
        raise DegenerateInputError("steering party block is singular")
    # adj [[a, b], [c, d]] = [[d, -b], [-c, a]]: both axes reversed, transposed, signed.
    inverse = steerer[..., ::-1, ::-1].mT * _ADJUGATE_SIGNS / det_s[..., None, None]
    det_cond = _det2(steered - cross.mT @ inverse @ cross)
    if _any(~(det_cond > 0.0)):
        raise DegenerateInputError("conditional covariance is singular")
    return -0.5 * _log(det_cond)


def _log_negativity_exponents(cms: np.ndarray):
    """``log_negativity_exponent`` of a (..., 4, 4) stack, or a float for one matrix."""
    _, nu_s = _symplectic_spectra(_partial_transpose_cms(cms, ModeLabel.B))
    return -_log(nu_s)


def steerability_exponent(state: TwoModeGaussianState, direction: SteeringDirection) -> float:
    """Unclamped steerability (1/2) ln(det steering-block / det full CM).

    Positive iff the state is steerable in ``direction``; the clamped
    quantifier is ``max(0, .)`` of this.  Computed as -(1/2) ln det of the
    2x2 conditional block, using closed-form 2x2 determinants for precision
    near the boundary.
    """
    return float(_steerability_exponents(state.cm, direction))


def gaussian_steerability(state: TwoModeGaussianState, direction: SteeringDirection) -> float:
    """Gaussian steerability quantifier, >= 0; zero iff not steerable."""
    return max(0.0, steerability_exponent(state, direction))


def log_negativity_exponent(state: TwoModeGaussianState) -> float:
    """Unclamped -ln(nu_s) of the partial transpose; positive iff entangled."""
    return float(_log_negativity_exponents(state.cm))


def log_negativity(state: TwoModeGaussianState) -> float:
    """Logarithmic negativity E_N = max(0, -ln nu_s), an entanglement monotone."""
    return max(0.0, log_negativity_exponent(state))


@dataclass(frozen=True)
class SteeringReport:
    """All steering/entanglement quantities of one state, with verdicts."""

    reid_a_to_b: float
    reid_b_to_a: float
    entropic_a_to_b: float
    entropic_b_to_a: float
    g_a_to_b: float
    g_b_to_a: float
    e_n: float
    steerable_a_to_b: bool
    steerable_b_to_a: bool
    entangled: bool

    def as_dict(self) -> dict:
        return {
            "reid": {"a_to_b": self.reid_a_to_b, "b_to_a": self.reid_b_to_a},
            "entropic": {"a_to_b": self.entropic_a_to_b, "b_to_a": self.entropic_b_to_a},
            "steerability": {"a_to_b": self.g_a_to_b, "b_to_a": self.g_b_to_a},
            "log_negativity": self.e_n,
            "verdicts": {
                "steerable_a_to_b": self.steerable_a_to_b,
                "steerable_b_to_a": self.steerable_b_to_a,
                "entangled": self.entangled,
            },
        }


def steering_report(state: TwoModeGaussianState) -> SteeringReport:
    """Evaluate every criterion and quantifier on one state.

    Verdicts derive from the steerability quantifier; for the channel-family
    states treated here (diagonal-block covariances) its boundary coincides
    with the Reid product crossing 1/4 and the entropic sum crossing
    ln(e*pi).  Steerability in either direction implies entanglement.
    """
    g_ab = gaussian_steerability(state, SteeringDirection.A_TO_B)
    g_ba = gaussian_steerability(state, SteeringDirection.B_TO_A)
    e_n = log_negativity(state)
    return SteeringReport(
        reid_a_to_b=reid_product(state, SteeringDirection.A_TO_B),
        reid_b_to_a=reid_product(state, SteeringDirection.B_TO_A),
        entropic_a_to_b=entropic_sum(state, SteeringDirection.A_TO_B),
        entropic_b_to_a=entropic_sum(state, SteeringDirection.B_TO_A),
        g_a_to_b=g_ab,
        g_b_to_a=g_ba,
        e_n=e_n,
        steerable_a_to_b=g_ab > 0.0,
        steerable_b_to_a=g_ba > 0.0,
        entangled=e_n > 0.0,
    )


@dataclass(frozen=True)
class ThresholdResult:
    """Closed-form and bisected threshold times for one channel/quantity."""

    channel: dict
    direction: str
    t_closed: float
    t_numeric: float
    status: str = "ok"

    @property
    def agreement(self) -> float:
        if math.isinf(self.t_closed) and math.isinf(self.t_numeric):
            return 0.0
        return abs(self.t_closed - self.t_numeric)

    def as_dict(self) -> dict:
        fmt = lambda v: "inf" if math.isinf(v) else v
        return {
            "channel": self.channel,
            "direction": self.direction,
            "t_closed": fmt(self.t_closed),
            "t_numeric": fmt(self.t_numeric),
            "agreement": fmt(self.agreement),
            "status": self.status,
        }


_QUANTITIES = ("G_AtoB", "G_BtoA", "G_twoway", "E_N")


def _signed_quantity(cms: np.ndarray, quantity: str) -> np.ndarray:
    """The signed threshold quantity (positive before the threshold) over a
    (..., 4, 4) stack; equal bit for bit to the per-state quantifiers."""
    if quantity == "E_N":
        return _log_negativity_exponents(cms)
    if quantity == "G_AtoB":
        return _steerability_exponents(cms, SteeringDirection.A_TO_B)
    if quantity == "G_BtoA":
        return _steerability_exponents(cms, SteeringDirection.B_TO_A)
    return np.minimum(
        _steerability_exponents(cms, SteeringDirection.A_TO_B),
        _steerability_exponents(cms, SteeringDirection.B_TO_A),
    )


def _scan_grid(t_max: float) -> np.ndarray:
    """The bracketing scan's durations in (0, t_max]: a geometric head
    resolves thresholds far below t_max, a linear tail covers the rest."""
    return np.unique(
        np.concatenate(
            [
                np.geomspace(t_max * 1e-9, t_max, 400),
                np.linspace(t_max / 400, t_max, 400),
            ]
        )
    )


def numeric_threshold(channel: ChannelSpec, r: float, quantity: str, t_max: float) -> float:
    """Smallest t in (0, t_max] where the signed quantity hits zero.

    The quantity of the evolved TMSV is scanned on an 800-point grid as one
    stacked batch: a single channel map builds the (800, 4, 4) covariance
    matrices, they are validated once with the state constructor's checks,
    and the quantity comes from closed-form 2x2 determinants on the stack.
    ``brentq`` then refines the one bracketing pair on the N = 1 view of the
    same function, whose values equal the per-state quantifiers bit for bit.
    No closed-form threshold expression enters, so the bisected value is an
    independent check on them.

    Returns the infinite sentinel when the quantity stays positive on the
    whole interval.  A non-monotone sign pattern (several crossings) raises
    MultiRootError carrying every bracket found.
    """
    if quantity not in _QUANTITIES:
        raise InvalidArgumentError(f"unknown quantity {quantity!r}; expected one of {_QUANTITIES}")
    if not (t_max > 0.0 and math.isfinite(t_max)):
        raise InvalidArgumentError(f"t_max must be finite and > 0, got {t_max}")
    state0 = make_tmsv(r)

    def signed(ts):
        return _signed_quantity(channel.evolve_cms(state0, ts), quantity)

    def f(t):
        return signed([t])[0]

    if f(0.0) <= 0.0:
        raise InvalidArgumentError(f"{quantity} must be positive at t = 0")
    ts = _scan_grid(t_max)
    values = signed(ts)
    # Quantities that decay towards zero without crossing it jitter at the
    # rounding level for large t; values inside the noise band carry no sign.
    signs = np.where(np.abs(values) <= _SIGN_NOISE_FLOOR[quantity], 0.0, np.sign(values))
    brackets = []
    prev_t, prev_s = 0.0, 1.0
    for t, s in zip(ts, signs):
        if s == 0.0:
            continue
        if s != prev_s:
            brackets.append((prev_t, t))
        prev_t, prev_s = t, s
    if not brackets:
        return INFINITE_THRESHOLD
    if len(brackets) > 1:
        raise MultiRootError(
            f"{quantity} changes sign {len(brackets)} times in (0, {t_max}]", brackets
        )
    lo, hi = brackets[0]
    if lo == 0.0:
        lo = ts[0] * 0.5
        if f(lo) <= 0.0:
            lo = 0.0  # root essentially at the origin; brentq still needs f(lo) > 0
    return float(brentq(f, lo, hi, xtol=1e-15, rtol=1e-12))


def _default_t_max(g: float, kappa: float) -> float:
    """Scan horizon of 50 time units of 1/(g + kappa)."""
    rate = g + kappa
    if rate <= 0.0:
        raise InvalidArgumentError("g and kappa cannot both be zero")
    return 50.0 * (1.0 / rate)


def two_way_laser_threshold(g: float, kappa: float, r: float, *, bisect: bool = True) -> ThresholdResult:
    """Two-way steering threshold of the TMSV under the two-side laser channel.

    Closed form: the positive root of the quadratic steerability condition in
    the added-noise coefficient, mapped back to time.  Degenerates at
    kappa = g, where the analytic limit in the noise coefficient is used.
    """
    _check_threshold_args(g, kappa, r)
    ch, sh2 = math.cosh(2.0 * r), 2.0 * math.sinh(r) ** 2
    if abs(kappa - g) <= _RATE_DEGENERACY_TOL * (kappa + g):
        # Omega -> infinity; the condition reduces to A^2 + (2 cosh2r - 1) A = 2 sinh^2 r
        # with A = 2 (kappa + g) t.
        b_lim = 2.0 * ch - 1.0
        a_star = 0.5 * (-b_lim + math.sqrt(b_lim * b_lim + 4.0 * sh2))
        t_closed = a_star / (2.0 * (kappa + g))
    else:
        omega = (kappa + g) / (kappa - g)
        a = (omega * omega + 1.0 - 2.0 * omega * ch) / omega**2
        b = (2.0 * omega * ch + ch - 2.0 - omega) / omega
        c = sh2
        arg = 1.0 + (b - math.sqrt(b * b + 4.0 * a * c)) / (2.0 * omega * a)
        t_closed = math.log(1.0 / arg) / (2.0 * (kappa - g))
    channel = ChannelSpec(kind="laser", side=ChannelSide.BOTH, g=g, kappa=kappa)
    if not bisect:
        return ThresholdResult(channel.describe(), "two-way", t_closed, math.nan, status="closed-form-only")
    t_numeric = numeric_threshold(channel, r, "G_twoway", t_max=_default_t_max(g, kappa))
    return ThresholdResult(channel.describe(), "two-way", t_closed, t_numeric)


def two_way_thermal_threshold(nbar: float, r: float, *, bisect: bool = True) -> ThresholdResult:
    """Two-way steering threshold (in units of 1/kappa) under the two-side
    thermal channel.

    The closed form holds for 0 <= nbar < (e^{2r} - 1)/2; outside that window
    the threshold is reported as zero with status "never-steerable".
    """
    if not np.isfinite(nbar) or nbar < 0:
        raise InvalidArgumentError(f"nbar must be finite and >= 0, got {nbar}")
    if not (np.isfinite(r) and r > 0):
        raise InvalidArgumentError(f"r must be finite and > 0, got {r}")
    channel = ChannelSpec(kind="thermal", side=ChannelSide.BOTH, kappa=1.0, nbar=nbar)
    if nbar >= 0.5 * math.expm1(2.0 * r):
        return ThresholdResult(channel.describe(), "two-way", 0.0, 0.0, status="never-steerable")
    n = 2.0 * nbar + 1.0
    alpha = (n + 1.0) ** 2 - 4.0 * n * math.cosh(r) ** 2
    beta = (2.0 * n - 1.0) * (math.cosh(2.0 * r) - n)
    delta = n * (n - 1.0)
    t_closed = 0.5 * math.log(
        2.0 * abs(alpha) / (beta + math.sqrt(beta * beta + 4.0 * abs(alpha) * delta))
    )
    if not bisect:
        return ThresholdResult(channel.describe(), "two-way", t_closed, math.nan, status="closed-form-only")
    t_numeric = numeric_threshold(channel, r, "G_twoway", t_max=50.0)
    return ThresholdResult(channel.describe(), "two-way", t_closed, t_numeric)


def one_side_thresholds(g: float, kappa: float, r: float, *, bisect: bool = True) -> tuple[ThresholdResult, ThresholdResult]:
    """Steering thresholds (t_AtoB, t_BtoA) when only mode B passes the laser channel.

    Closed forms:
        t_AtoB = ln[(kappa sinh^2 r + g cosh^2 r) / (g cosh 2r)] / (2 (kappa - g))
        t_BtoA = ln[2 kappa / (kappa + g)] / (2 (kappa - g))
    with the pure-loss (g = 0) A->B threshold infinite, the pure-gain
    (kappa = 0) B->A threshold infinite, and analytic limits at kappa = g.
    """
    _check_threshold_args(g, kappa, r)
    ch = math.cosh(2.0 * r)
    sh_sq, ch_sq = math.sinh(r) ** 2, math.cosh(r) ** 2
    degenerate = abs(kappa - g) <= _RATE_DEGENERACY_TOL * (kappa + g)
    if g == 0.0:
        t_ab = INFINITE_THRESHOLD
    elif degenerate:
        t_ab = sh_sq / (2.0 * kappa * ch)
    else:
        t_ab = math.log((kappa * sh_sq + g * ch_sq) / (g * ch)) / (2.0 * (kappa - g))
    if kappa == 0.0:
        t_ba = INFINITE_THRESHOLD
    elif degenerate:
        t_ba = 1.0 / (4.0 * kappa)
    else:
        t_ba = math.log(2.0 * kappa / (kappa + g)) / (2.0 * (kappa - g))
    channel = ChannelSpec(kind="laser", side=ChannelSide.B, g=g, kappa=kappa)
    desc = channel.describe()
    if not bisect:
        return (
            ThresholdResult(desc, "a_to_b", t_ab, math.nan, status="closed-form-only"),
            ThresholdResult(desc, "b_to_a", t_ba, math.nan, status="closed-form-only"),
        )
    t_max = _default_t_max(g, kappa)
    num_ab = numeric_threshold(channel, r, "G_AtoB", t_max)
    num_ba = numeric_threshold(channel, r, "G_BtoA", t_max)
    return (
        ThresholdResult(desc, "a_to_b", t_ab, num_ab),
        ThresholdResult(desc, "b_to_a", t_ba, num_ba),
    )


def inseparability_threshold(g: float, kappa: float, r: float, side: ChannelSide, *, bisect: bool = True) -> ThresholdResult:
    """Entanglement sudden-death time under the laser channel.

    Two-side: t_c = ln[(g + kappa tanh r) / (g (1 + tanh r))] / (2 (kappa - g)),
    infinite for pure loss.  One-side: t_c = ln(kappa / g) / (2 (kappa - g)),
    independent of r, infinite for pure loss and pure gain.
    """
    _check_threshold_args(g, kappa, r)
    th = math.tanh(r)
    degenerate = abs(kappa - g) <= _RATE_DEGENERACY_TOL * (kappa + g)
    if side is ChannelSide.BOTH:
        if g == 0.0:
            t_closed = INFINITE_THRESHOLD
        elif degenerate:
            t_closed = th / (2.0 * kappa * (1.0 + th))
        else:
            t_closed = math.log((g + kappa * th) / (g * (1.0 + th))) / (2.0 * (kappa - g))
    else:
        if g == 0.0 or kappa == 0.0:
            t_closed = INFINITE_THRESHOLD
        elif degenerate:
            t_closed = 1.0 / (2.0 * kappa)
        else:
            t_closed = math.log(kappa / g) / (2.0 * (kappa - g))
    channel = ChannelSpec(kind="laser", side=side, g=g, kappa=kappa)
    if not bisect:
        return ThresholdResult(channel.describe(), "inseparability", t_closed, math.nan, status="closed-form-only")
    t_numeric = numeric_threshold(channel, r, "E_N", t_max=_default_t_max(g, kappa))
    return ThresholdResult(channel.describe(), "inseparability", t_closed, t_numeric)


def _check_threshold_args(g: float, kappa: float, r: float) -> None:
    if not (np.isfinite(g) and np.isfinite(kappa) and g >= 0 and kappa >= 0):
        raise InvalidArgumentError(f"rates must be finite and >= 0, got g={g}, kappa={kappa}")
    if g == 0.0 and kappa == 0.0:
        raise InvalidArgumentError("g and kappa cannot both be zero")
    if not (np.isfinite(r) and r > 0):
        raise InvalidArgumentError(f"r must be finite and > 0, got {r}")
