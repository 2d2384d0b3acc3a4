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
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import channels
from .channels import ChannelSide, ChannelSpec
from .criteria import SteeringDirection, _entropic_sums, _reid_products
from .errors import DegenerateInputError, InvalidArgumentError, MultiRootError
from .states import (
    _MAX_SCALE,
    ModeLabel,
    TwoModeGaussianState,
    _any,
    _clamp,
    _det2,
    _log,
    _partial_transpose_cms,
    _smaller_nu,
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
    "threshold_table",
    "steering_report",
]

# Typed sentinel for a quantity that never decays; serialized as the string
# "inf", never as a float, in CLI output.
INFINITE_THRESHOLD = math.inf

# Rates close enough to kappa = g that Omega-based closed forms are replaced
# by their analytic limits.
_RATE_DEGENERACY_TOL = 1e-12

# Each signed quantity, name -> (k, steering directions, noise floor).  It is
# -k ln x of one log argument x per direction (``_conditional_dets``), the
# smaller value for G_twoway; no direction means E_N, whose x is the partial
# transpose's nu_s (``_transposed_nus``).  Values smaller in magnitude than
# the noise floor are indistinguishable from rounding noise during the
# bracketing scan.  The steerability exponent comes from a well-conditioned
# Schur complement; the entanglement exponent takes a square root of a
# near-cancelling discriminant, which amplifies rounding error of order eps
# to sqrt(eps) ~ 1e-8 when the eigenvalue sits near 1.
_QUANTITIES = {
    "G_AtoB": (0.5, (SteeringDirection.A_TO_B,), 1e-13),
    "G_BtoA": (0.5, (SteeringDirection.B_TO_A,), 1e-13),
    "G_twoway": (0.5, (SteeringDirection.A_TO_B, SteeringDirection.B_TO_A), 1e-13),
    "E_N": (1.0, (), 1e-7),
}
# The quantity that is the steerability in one direction.
_STEERABILITY = {SteeringDirection.A_TO_B: "G_AtoB", SteeringDirection.B_TO_A: "G_BtoA"}

# The squeezing r a threshold accepts: below _R_MIN the TMSV's steerability at
# t = 0, ln cosh 2r, lies inside the scan's noise floor (and the two-way
# closed form's coefficients cancel); above _R_MAX its covariance scale e^{2r}
# exceeds the limit of the state's validation.
_R_MIN = 0.5 * math.acosh(math.exp(_QUANTITIES["G_twoway"][2]))
_R_MAX = 0.5 * math.log(_MAX_SCALE)

# A closed form whose ``ThresholdResult.relative_gap`` to its bisected root
# exceeds this disagrees with it; also the ``verify thresholds`` tolerance.
_THRESHOLD_REL_TOL = 1e-6

_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
_ADJUGATE_SIGNS.setflags(write=False)


def _conditional_dets(cms: np.ndarray, direction: SteeringDirection):
    """The log argument x of the steerability -(1/2) ln x in ``direction``:
    the determinant of the steered party's block conditioned on the
    steerer's optimal Gaussian measurement.  That block is a Schur
    complement; its 2x2 determinant comes in closed form for precision near
    the boundary.

    One matrix does its 2x2 arithmetic on Python floats, with the float
    operations of the stack, but still forms cross^T inverse cross with
    numpy's matmul: BLAS fuses its multiply-adds, so plain floats would give
    other bits.
    """
    if direction is SteeringDirection.A_TO_B:
        steerer, steered, cross = cms[..., 0:2, 0:2], cms[..., 2:4, 2:4], cms[..., 0:2, 2:4]
    else:
        steerer, steered, cross = cms[..., 2:4, 2:4], cms[..., 0:2, 0:2], cms[..., 0:2, 2:4].mT
    if cms.ndim == 2:
        (s00, s01), (s10, s11) = steerer.tolist()
        det_s = s00 * s11 - s01 * s10
        if not det_s > 0.0:
            raise DegenerateInputError("steering party block is singular")
        inverse = np.array([[s11 / det_s, -s01 / det_s], [-s10 / det_s, s00 / det_s]])
        (p00, p01), (p10, p11) = (cross.mT @ inverse @ cross).tolist()
        (t00, t01), (t10, t11) = steered.tolist()
        det_cond = (t00 - p00) * (t11 - p11) - (t01 - p01) * (t10 - p10)
        if not det_cond > 0.0:
            raise DegenerateInputError("conditional covariance is singular")
        return det_cond
    det_s = _det2(steerer)
    if _any(~(det_s > 0.0)):
        raise DegenerateInputError("steering party block is singular")
    # adj [[a, b], [c, d]] = [[d, -b], [-c, a]]: both axes reversed, transposed, signed.
    inverse = steerer[..., ::-1, ::-1].mT * _ADJUGATE_SIGNS / det_s[..., None, None]
    det_cond = _det2(steered - cross.mT @ inverse @ cross)
    if _any(~(det_cond > 0.0)):
        raise DegenerateInputError("conditional covariance is singular")
    return det_cond


def _transposed_nus(cms: np.ndarray, det_v=None):
    """The log argument x of E_N's exponent -ln x: the smaller symplectic
    eigenvalue nu_s of the partial transpose.

    The partial transpose is D V D with D = diag(1, 1, 1, -1), and LU with
    partial pivoting makes the same float operations on it up to exact sign
    flips, so its ``np.linalg.det`` is det V bit for bit.  A stack takes
    ``det_v``, the det V of each matrix, when given (a scan takes it from its
    validation); one matrix takes det V itself and the rest on floats.
    """
    if cms.ndim == 2:
        (v00, v01, v02, v03), (v10, v11, v12, v13), (v20, v21, v22, v23), (v30, v31, v32, v33) = cms.tolist()
        # The partial transpose negates v_i3 and v_3i for i != 3.
        a = v00 * v11 - v01 * v10
        b = v22 * v33 - (-v23) * (-v32)
        c = v02 * (-v13) - (-v03) * v12
        return _smaller_nu(a, b, c, float(np.linalg.det(cms)))
    return _symplectic_spectra(_partial_transpose_cms(cms, ModeLabel.B), det_v)[1]


def steerability_exponent(state: TwoModeGaussianState, direction: SteeringDirection) -> float:
    """Unclamped steerability (1/2) ln(det steering-block / det full CM).

    Positive iff the state is steerable in ``direction``; the clamped
    quantifier is ``max(0, .)`` of this.  Computed as -(1/2) ln det of the
    2x2 conditional block, using closed-form 2x2 determinants for precision
    near the boundary.
    """
    return float(_signed_quantity(state.cm, _STEERABILITY[direction]))


def gaussian_steerability(state: TwoModeGaussianState, direction: SteeringDirection) -> float:
    """Gaussian steerability quantifier, >= 0; zero iff not steerable."""
    return float(_clamp(_signed_quantity(state.cm, _STEERABILITY[direction])))


def log_negativity_exponent(state: TwoModeGaussianState) -> float:
    """Unclamped -ln(nu_s) of the partial transpose; positive iff entangled."""
    return float(_signed_quantity(state.cm, "E_N"))


def log_negativity(state: TwoModeGaussianState) -> float:
    """Logarithmic negativity E_N = max(0, -ln nu_s), an entanglement monotone."""
    return float(_clamp(_signed_quantity(state.cm, "E_N")))


@dataclass(frozen=True)
class SteeringReport:
    """All steering/entanglement quantities of one state, with verdicts."""

    reid_a_to_b: float
    reid_b_to_a: float
    entropic_a_to_b: float
    entropic_b_to_a: float
    g_a_to_b: float
    g_b_to_a: float
    g_twoway: float
    e_n: float
    steerable_a_to_b: bool
    steerable_b_to_a: bool
    entangled: bool
    separable: bool

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
    return SteeringReport(**_steering_reports(state.cm))


def _steering_reports(cms: np.ndarray) -> dict[str, list]:
    """Every ``SteeringReport`` field over an (N, 4, 4) stack of physical
    covariance matrices, as lists of Python floats and bools; entry k equals
    ``steering_report`` of matrix k bit for bit.  One (4, 4) matrix gives
    one float or bool per field."""
    g_ab, g_ba, e_n = (_clamp(_signed_quantity(cms, name)) for name in ("G_AtoB", "G_BtoA", "E_N"))
    columns = {
        "reid_a_to_b": _reid_products(cms, SteeringDirection.A_TO_B),
        "reid_b_to_a": _reid_products(cms, SteeringDirection.B_TO_A),
        "entropic_a_to_b": _entropic_sums(cms, SteeringDirection.A_TO_B),
        "entropic_b_to_a": _entropic_sums(cms, SteeringDirection.B_TO_A),
        "g_a_to_b": g_ab,
        "g_b_to_a": g_ba,
        "g_twoway": np.minimum(g_ab, g_ba),
        "e_n": e_n,
        "steerable_a_to_b": g_ab > 0.0,
        "steerable_b_to_a": g_ba > 0.0,
        "entangled": e_n > 0.0,
        "separable": e_n <= 0.0,  # e_n is clamped: never NaN
    }
    return {name: np.asarray(values).tolist() for name, values in columns.items()}


@dataclass(frozen=True)
class ThresholdResult:
    """Closed-form and bisected threshold times for one channel/quantity."""

    channel: ChannelSpec
    direction: str
    t_closed: float
    t_numeric: float
    status: str = "ok"

    @property
    def agreement(self) -> float:
        if math.isinf(self.t_closed) and math.isinf(self.t_numeric):
            return 0.0
        return abs(self.t_closed - self.t_numeric)

    @property
    def relative_gap(self) -> float:
        """agreement / max(1, |t_closed|); infinite when exactly one time is."""
        if math.isinf(self.t_closed) or math.isinf(self.t_numeric):
            return 0.0 if self.agreement == 0.0 else math.inf
        return self.agreement / max(1.0, abs(self.t_closed))

    def as_dict(self) -> dict:
        fmt = lambda v: "inf" if math.isinf(v) else v
        return {
            "channel": self.channel.describe(),
            "direction": self.direction,
            "t_closed": fmt(self.t_closed),
            "t_numeric": fmt(self.t_numeric),
            "agreement": fmt(self.agreement),
            "status": self.status,
        }


def _signed_quantity(cms: np.ndarray, quantity: str) -> np.ndarray:
    """The signed threshold quantity (positive before the threshold) over a
    (..., 4, 4) stack, or a float for one matrix: the per-state quantifiers."""
    return _from_log_arguments(_log_arguments(cms, quantity), quantity)


def _log_arguments(cms: np.ndarray, quantity: str, det_v=None) -> tuple:
    """The arguments x of the logs a signed quantity takes, one per direction
    in ``_QUANTITIES``, or E_N's nu_s (given the stack's ``det_v``) for
    none.  Every x is > 0, or the quantity raises."""
    return tuple(_conditional_dets(cms, d) for d in _QUANTITIES[quantity][1]) or (_transposed_nus(cms, det_v),)


def _from_log_arguments(args: tuple, quantity: str):
    """The signed quantity -k ln x of its ``_log_arguments``, arrays or
    floats: the smaller value where there are two."""
    k = _QUANTITIES[quantity][0]
    values = [-k * _log(x) for x in args]
    return values[0] if len(values) == 1 else np.minimum(*values)


def _scan_signs(cms: np.ndarray, quantity: str, det_v=None):
    """(signs, args): the bracketing scan's sign of the signed quantity at
    every matrix of the stack, and its ``_log_arguments`` (given the stack's
    ``det_v``), from which ``_from_log_arguments`` gives any one matrix's
    value bit for bit.

    The sign is 0 where |value| <= the quantity's noise floor, else the
    value's sign.  With k the log's factor and w = 100 floors / k, a point
    whose every argument is at most 1 - w has a value of at least about 100
    floors, so its sign is +1; one with an argument of at least 1 + w has a
    value of at most about -100 floors, so its sign is -1.  The log is taken
    only at the points in between.
    """
    k, _, floor = _QUANTITIES[quantity]
    args = _log_arguments(cms, quantity, det_v)
    largest = args[0] if len(args) == 1 else np.maximum(*args)  # the smallest value's argument
    width = 100.0 * floor / k
    positive, negative = largest <= 1.0 - width, largest >= 1.0 + width
    signs = np.where(positive, 1.0, np.where(negative, -1.0, 0.0))
    unsure = np.flatnonzero(~(positive | negative))  # NaN too
    if unsure.size:
        # Quantities that decay towards zero without crossing it jitter at the
        # rounding level for large t; values inside the noise band carry no sign.
        values = _from_log_arguments(tuple(x[unsure] for x in args), quantity)
        signs[unsure] = np.where(np.abs(values) <= floor, 0.0, np.sign(values))
    return signs, args


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


def numeric_threshold(channel: ChannelSpec, r: float, quantity: str | tuple[str, ...], t_max: float):
    """Smallest t in (0, t_max] where the signed quantity hits zero.

    ``quantity`` is one name, giving a float, or a tuple of names, giving a
    tuple of floats.  The evolved TMSV is scanned on an 800-point grid as one
    stacked batch: the TMSV, the grid and, from a single channel map, the
    (800, 4, 4) covariance matrices are built once per call, whatever the
    number of quantities, and the matrices are validated once with the state
    constructor's checks (a certified stack skips the eigensolver, and its
    certificate's det V is kept for the E_N scan).  In one loop each
    quantity then takes its own checks, sign scan of that stack
    (``_scan_signs``, which takes the log only at points near the noise
    band), noise floor and bracket, and ``brentq`` refines the one
    bracketing pair.  It starts from the values at both bracket ends, the
    sign check's at t = 0 or the one ``_from_log_arguments`` gives from the
    scan's stored log arguments, and evaluates only the points inside, on
    one 4x4 matrix each, whose channel map, validation and quantity run on
    Python floats; the scan's signs and every point equal the per-state
    quantifiers' bit for bit.  No closed-form threshold expression enters,
    so the bisected value is an independent check on them.

    A quantity that stays positive on the whole interval gives the infinite
    sentinel.  A non-monotone sign pattern (several crossings) raises
    MultiRootError carrying every bracket found.  A tuple call raises what the
    first failing quantity's own call would raise.
    """
    single = isinstance(quantity, str)
    state0 = ts = scan = det_v = None  # the TMSV, the grid, its stack and det V, built when first needed
    roots = []
    for name in [quantity] if single else quantity:
        if name not in _QUANTITIES:
            raise InvalidArgumentError(f"unknown quantity {name!r}; expected one of {tuple(_QUANTITIES)}")
        if not (t_max > 0.0 and math.isfinite(t_max)):
            raise InvalidArgumentError(f"t_max must be finite and > 0, got {t_max}")
        if state0 is None:
            state0 = make_tmsv(r)
        f0 = _signed_quantity(state0.cm, name)
        if f0 <= 0.0:
            raise InvalidArgumentError(f"{name} must be positive at t = 0")
        if scan is None:
            ts = _scan_grid(t_max)
            scan, _, det_v = channels._evolve_stack(state0.cm, (channel,), ts)
        signs, args = _scan_signs(scan, name, det_v)
        brackets = _brackets(ts, signs)
        if len(brackets) > 1:
            raise MultiRootError(f"{name} changes sign {len(brackets)} times in (0, {t_max}]", brackets)

        def f(t, name=name, f0=f0, args=args):  # bound now: f may be called after the loop moves on
            # A bracket end is t = 0 or a scan point, whose value is known.
            if t == 0.0:
                return f0
            i = ts.searchsorted(t)
            if i < len(ts) and ts[i] == t:
                return _from_log_arguments(tuple(x[i] for x in args), name)
            return _signed_quantity(channel.evolve_cms(state0, float(t)), name)

        # f(0) > 0, so a bracket that opens at the origin is a bracket as it is.
        # brentq's xtol is absolute; scaled by a horizon below 1, it still
        # resolves roots far below 1e-15 (near 1e-301 at g = 1e300).
        xtol = 1e-15 * min(1.0, t_max)
        roots.append(float(brentq(f, *brackets[0], xtol=xtol, rtol=1e-12)) if brackets else INFINITE_THRESHOLD)
    return roots[0] if single else tuple(roots)


def brentq(f, a, b, xtol=2e-12, rtol=4 * sys.float_info.epsilon, maxiter=100):
    """A root of f in [a, b], bit for bit the one scipy's ``brentq`` gives.

    A port of scipy's C loop (``Zeros/brentq.c``) that makes the same float
    operations in the same order; importing scipy's optimize package would
    take longer than most threshold calls take to run.  f(a) and f(b) of one
    sign, or a NaN value of f, raise ValueError; no convergence within
    ``maxiter`` steps raises RuntimeError.
    """

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is then inf or NaN, which the test below rejects
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _brackets(ts: np.ndarray, signs: np.ndarray) -> list[tuple[float, float]]:
    """(previous signed t, t) at each t whose sign differs from that of the
    signed point before it.  Zeros carry no sign; the origin is positive."""
    signed_ts, signs = ts[signs != 0.0], signs[signs != 0.0]
    change = signs != np.concatenate([[1.0], signs[:-1]])
    return list(zip(np.concatenate([[0.0], signed_ts[:-1]])[change].tolist(), signed_ts[change].tolist()))


def _default_t_max(g: float, kappa: float) -> float:
    """Scan horizon of 50 / (g + kappa), for the rates of a threshold row
    that ``_threshold_rows`` has checked: finite, >= 0 and not both zero."""
    rate = g + kappa
    t_max = 50.0 * (1.0 / rate)
    if not 0.0 < t_max < math.inf:  # the sum under- or overflowed
        raise InvalidArgumentError(f"g + kappa = {rate:.6g} is out of range: the scan horizon 50 / (g + kappa) is {t_max}")
    return t_max


def two_way_laser_threshold(g: float, kappa: float, r: float) -> ThresholdResult:
    """Two-way steering threshold of the TMSV under the two-side laser channel.

    Closed form: the positive root of the quadratic steerability condition in
    the added-noise coefficient, mapped back to time.  Degenerates at
    kappa = g, where the analytic limit in the noise coefficient is used.
    """
    return _threshold_rows([(ChannelSpec("laser", ChannelSide.BOTH, g=g, kappa=kappa), "two-way")], r)[0]


def two_way_thermal_threshold(nbar: float, r: float) -> ThresholdResult:
    """Two-way steering threshold (in units of 1/kappa) under the two-side
    thermal channel.

    The closed form holds for 0 <= nbar < (e^{2r} - 1)/2; outside that window
    the threshold is reported as zero with status "never-steerable".
    """
    return _threshold_rows([(ChannelSpec("thermal", kappa=1.0, nbar=nbar), "two-way")], r)[0]


def _two_way_thermal_time(nbar: float, r: float) -> float:
    """The closed form of ``two_way_thermal_threshold`` on checked floats: 0
    in the never-steerable window nbar >= (e^{2r} - 1)/2.  Just outside the
    window the formula itself can give 0 too, so the window is not read off
    the result."""
    if nbar >= 0.5 * math.expm1(2.0 * r):
        return 0.0
    n = 2.0 * nbar + 1.0
    alpha = (n + 1.0) ** 2 - 4.0 * n * math.cosh(r) ** 2
    beta = (2.0 * n - 1.0) * (math.cosh(2.0 * r) - n)
    delta = n * (n - 1.0)
    return 0.5 * math.log(2.0 * abs(alpha) / (beta + math.sqrt(beta * beta + 4.0 * abs(alpha) * delta)))


def one_side_thresholds(g: float, kappa: float, r: float) -> tuple[ThresholdResult, ThresholdResult]:
    """Steering thresholds (t_AtoB, t_BtoA) when only mode B passes the laser channel.

    Closed forms:
        t_AtoB = ln[(kappa sinh^2 r + g cosh^2 r) / (g cosh 2r)] / (2 (kappa - g))
        t_BtoA = ln[2 kappa / (kappa + g)] / (2 (kappa - g))
    with the pure-loss (g = 0) A->B threshold infinite, the pure-gain
    (kappa = 0) B->A threshold infinite, and analytic limits at kappa = g.
    """
    channel = ChannelSpec("laser", ChannelSide.B, g=g, kappa=kappa)
    return tuple(_threshold_rows([(channel, "a_to_b"), (channel, "b_to_a")], r))


def _one_side_times(g: float, kappa: float, r: float) -> tuple[float, float]:
    """The closed forms (t_AtoB, t_BtoA) of ``one_side_thresholds`` on
    checked floats."""
    ch = math.cosh(2.0 * r)
    sh_sq, ch_sq = math.sinh(r) ** 2, math.cosh(r) ** 2
    degenerate = abs(kappa - g) <= _RATE_DEGENERACY_TOL * (kappa + g)
    if g == 0.0:
        t_ab = INFINITE_THRESHOLD
    elif degenerate:
        t_ab = sh_sq / (2.0 * kappa * ch)
    else:
        t_ab = _log_ratio(kappa * sh_sq + g * ch_sq, g * ch) / (2.0 * (kappa - g))
    if kappa == 0.0:
        t_ba = INFINITE_THRESHOLD
    elif degenerate:
        t_ba = 1.0 / (4.0 * kappa)
    else:
        t_ba = _log_ratio(2.0 * kappa, kappa + g) / (2.0 * (kappa - g))
    return t_ab, t_ba


def inseparability_threshold(g: float, kappa: float, r: float, side: ChannelSide) -> ThresholdResult:
    """Entanglement sudden-death time under the laser channel.

    Two-side: t_c = ln[(g + kappa tanh r) / (g (1 + tanh r))] / (2 (kappa - g)),
    infinite for pure loss.  One-side: t_c = ln(kappa / g) / (2 (kappa - g)),
    independent of r, infinite for pure loss and pure gain.
    """
    return _threshold_rows([(ChannelSpec("laser", side, g=g, kappa=kappa), "inseparability")], r)[0]


def _check_r(r: float) -> None:
    if not _R_MIN < r <= _R_MAX:  # NaN fails too
        raise InvalidArgumentError(
            f"r = {r} is outside ({_R_MIN:.3g}, {_R_MAX:.4g}]: below, the threshold scan cannot resolve the "
            "TMSV's steering; above, its covariance scale overflows"
        )


def _log_ratio(num: float, den: float) -> float:
    """ln(num / den), also where the quotient of two finite rates under- or
    overflows."""
    ratio = num / den
    return math.log(ratio) if 0.0 < ratio < math.inf else math.log(num) - math.log(den)


# The ``quantity`` values of ``threshold_table``, as ``cvsteer threshold --quantity`` lists them.
_TABLE_QUANTITIES = ("a-to-b", "b-to-a", "two-way", "inseparability", "all")


def threshold_table(channel: ChannelSpec, r: float, quantity: str = "all") -> list[ThresholdResult]:
    """The rows of ``cvsteer threshold`` for a loss, gain, thermal or laser
    channel: "two-way", "a-to-b", "b-to-a", "inseparability" on
    ``channel.side``, or "all" of them with inseparability on side B and on
    both sides; any other ``quantity`` raises InvalidArgumentError.  The
    thermal channel's two-way row is the thermal channel itself (kappa = 1),
    every other row the laser channel of its rates."""
    if quantity not in _TABLE_QUANTITIES:
        raise InvalidArgumentError(f"unknown quantity {quantity!r}; expected one of {_TABLE_QUANTITIES}")
    rates = channel.laser_params(0.0)
    laser = lambda side: ChannelSpec("laser", side, g=rates.g, kappa=rates.kappa)
    rows = []
    if quantity in ("two-way", "all"):
        if channel.kind == "thermal":
            rows.append((ChannelSpec("thermal", kappa=1.0, nbar=channel.nbar), "two-way"))
        else:
            rows.append((laser(ChannelSide.BOTH), "two-way"))
    if quantity in ("a-to-b", "all"):
        rows.append((laser(ChannelSide.B), "a_to_b"))
    if quantity in ("b-to-a", "all"):
        rows.append((laser(ChannelSide.B), "b_to_a"))
    if quantity in ("inseparability", "all"):
        sides = [ChannelSide.B, ChannelSide.BOTH] if quantity == "all" else [channel.side]
        rows += [(laser(side), "inseparability") for side in sides]
    return _threshold_rows(rows, r)


def _closed_form(channel: ChannelSpec, direction: str, r: float) -> float:
    """The closed-form time of the threshold row (channel, direction), on
    checked arguments: the thermal channel's two-way row, or any row of a
    laser channel, whose inseparability form depends on its side.  A loss
    or gain channel is the laser channel of its rates (``laser_params``)."""
    if channel.kind == "thermal":
        return _two_way_thermal_time(channel.nbar, r)
    rates = channel.laser_params(0.0)
    g, kappa = rates.g, rates.kappa
    if direction in ("a_to_b", "b_to_a"):
        return _one_side_times(g, kappa, r)[direction == "b_to_a"]
    degenerate = abs(kappa - g) <= _RATE_DEGENERACY_TOL * (kappa + g)
    if direction == "two-way":
        ch, sh2 = math.cosh(2.0 * r), 2.0 * math.sinh(r) ** 2
        if degenerate:
            # Omega -> infinity; the condition reduces to A^2 + (2 cosh2r - 1) A = 2 sinh^2 r
            # with A = 2 (kappa + g) t.
            b_lim = 2.0 * ch - 1.0
            a_star = 0.5 * (-b_lim + math.sqrt(b_lim * b_lim + 4.0 * sh2))
            return a_star / (2.0 * (kappa + g))
        omega = (kappa + g) / (kappa - g)
        a = (omega * omega + 1.0 - 2.0 * omega * ch) / omega**2
        b = (2.0 * omega * ch + ch - 2.0 - omega) / omega
        arg = 1.0 + (b - math.sqrt(b * b + 4.0 * a * sh2)) / (2.0 * omega * a)
        return math.log(1.0 / arg) / (2.0 * (kappa - g))
    th = math.tanh(r)
    if channel.side is ChannelSide.BOTH:
        if g == 0.0:
            return INFINITE_THRESHOLD
        if degenerate:
            return th / (2.0 * kappa * (1.0 + th))
        return _log_ratio(g + kappa * th, g * (1.0 + th)) / (2.0 * (kappa - g))
    if g == 0.0 or kappa == 0.0:
        return INFINITE_THRESHOLD
    if degenerate:
        return 1.0 / (2.0 * kappa)
    return _log_ratio(kappa, g) / (2.0 * (kappa - g))


_ROOT_QUANTITY = {"two-way": "G_twoway", "a_to_b": "G_AtoB", "b_to_a": "G_BtoA", "inseparability": "E_N"}


def _threshold_rows(rows: list[tuple[ChannelSpec, str]], r: float) -> list[ThresholdResult]:
    """The result of each threshold row (channel, direction), in row order.

    Each row's laser rates g and kappa (not both zero), then r, are checked
    and its closed form taken, row by row; a thermal two-way row in the
    window nbar >= (e^{2r} - 1)/2 is "never-steerable" and has no root.  Then one ``numeric_threshold`` call,
    so one scan, roots every row of a distinct channel: 50 time units for the
    thermal channel (kappa = 1), ``_default_t_max`` for a laser channel.  An
    infinite root against a finite closed form is not "ok":
    "beyond-scan-horizon" when the closed form lies past the scan, else
    "unresolved".  Any other relative gap above the tolerance is "disagree",
    and so is a closed form that divides by zero, taken as NaN."""
    results, groups = [], {}
    for channel, direction in rows:
        rates = channel.laser_params(0.0)  # g and kappa, checked when the channel was made
        if rates.g == 0.0 and rates.kappa == 0.0:  # the scan horizon 50 / (g + kappa) needs a rate
            raise InvalidArgumentError("g and kappa cannot both be zero")
        _check_r(r)
        if channel.kind == "thermal" and channel.nbar >= 0.5 * math.expm1(2.0 * r):  # _two_way_thermal_time's window
            results.append(ThresholdResult(channel, direction, 0.0, 0.0, status="never-steerable"))
            continue
        try:
            t_closed = _closed_form(channel, direction, r)
        except ZeroDivisionError:  # undefined at this point: no time to compare with
            t_closed = math.nan
        groups.setdefault(channel, []).append(len(results))
        results.append(ThresholdResult(channel, direction, t_closed, math.nan))
    for channel, indices in groups.items():
        rates = channel.laser_params(0.0)
        t_max = 50.0 if channel.kind == "thermal" else _default_t_max(rates.g, rates.kappa)
        roots = numeric_threshold(channel, r, tuple(_ROOT_QUANTITY[results[i].direction] for i in indices), t_max)
        for i, t_numeric in zip(indices, roots):
            res = replace(results[i], t_numeric=t_numeric)
            status = "ok" if res.relative_gap <= _THRESHOLD_REL_TOL else "disagree"  # NaN disagrees
            if math.isinf(t_numeric) and math.isfinite(res.t_closed):  # no root to compare with
                status = "beyond-scan-horizon" if res.t_closed > t_max else "unresolved"
            results[i] = replace(res, status=status)
    return results
