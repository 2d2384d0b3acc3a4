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
from dataclasses import dataclass

import numpy as np

from . import channels
from .channels import ChannelSide, ChannelSpec
from .criteria import Quadrature, SteeringDirection, _entropic_sum, _inferred_variances
from .errors import DegenerateInputError, InvalidArgumentError, MultiRootError
from .states import (
    _MAX_SCALE,
    TwoModeGaussianState,
    _all,
    _block_dets,
    _clamp,
    _entries,
    _log,
    _matrix,
    _spectra,
    _value,
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
# Each steering direction: the signed quantity that is its steerability,
# then its ``SteeringReport`` fields: the clamped G, the verdict G > 0, the
# Reid product and the entropic sum.
_DIRECTIONS = {
    SteeringDirection.A_TO_B: ("G_AtoB", "g_a_to_b", "steerable_a_to_b", "reid_a_to_b", "entropic_a_to_b"),
    SteeringDirection.B_TO_A: ("G_BtoA", "g_b_to_a", "steerable_b_to_a", "reid_b_to_a", "entropic_b_to_a"),
}

# The squeezing r a threshold accepts: below _R_MIN the TMSV's steerability at
# t = 0, ln cosh 2r, lies inside the scan's noise floor (and the two-way
# closed form's coefficients cancel); above _R_MAX its covariance scale e^{2r}
# exceeds the limit of the state's validation.
_R_MIN = 0.5 * math.acosh(math.exp(_QUANTITIES["G_twoway"][2]))
_R_MAX = 0.5 * math.log(_MAX_SCALE)

# A closed form whose ``ThresholdResult.relative_gap`` to its bisected root
# exceeds this disagrees with it; also the ``verify thresholds`` tolerance.
_THRESHOLD_REL_TOL = 1e-6


def _conditional_dets(cms: np.ndarray, v, direction: SteeringDirection):
    """The log argument x of the steerability -(1/2) ln x in ``direction``:
    the determinant of the steered party's block conditioned on the
    steerer's optimal Gaussian measurement, for the matrix or stack ``cms``
    with entries v (``_entries``).  That block is a Schur complement; its
    2x2 determinants come in closed form from the entries, for precision
    near the boundary.  cross^T inverse cross stays numpy's matmul on the
    matrices and a contiguous inverse: BLAS fuses its multiply-adds, so the
    entries would give other bits.
    """
    if direction is SteeringDirection.A_TO_B:
        (s00, s01, _, _), (s10, s11, _, _), (_, _, t00, t01), (_, _, t10, t11) = v
        cross = cms[..., 0:2, 2:4]
    else:
        (t00, t01, _, _), (t10, t11, _, _), (_, _, s00, s01), (_, _, s10, s11) = v
        # A copy, not the transposed view: a stack's matmuls run faster on it
        # and give the same bits.
        cross = np.ascontiguousarray(cms[..., 0:2, 2:4].mT)
    det_s = s00 * s11 - s01 * s10
    if not _all(det_s > 0.0):
        raise DegenerateInputError("steering party block is singular")
    inverse = _matrix(((s11 / det_s, -s01 / det_s), (-s10 / det_s, s00 / det_s)), cms.shape[:-2])
    (p00, p01), (p10, p11) = _entries(cross.mT @ inverse @ cross)
    det_cond = (t00 - p00) * (t11 - p11) - (t01 - p01) * (t10 - p10)
    if not _all(det_cond > 0.0):
        raise DegenerateInputError("conditional covariance is singular")
    return det_cond


def _transposed_nus(v, det_v):
    """The log argument x of E_N's exponent -ln x: the smaller symplectic
    eigenvalue nu_s of the partial transpose of the matrices with entries v.

    The partial transpose is D V D with D = diag(1, 1, 1, -1), which keeps
    det A and det B and negates det C exactly.  LU with partial pivoting
    makes the same float operations on it as on V up to exact sign flips,
    so its ``np.linalg.det`` is det V bit for bit: ``det_v``, the det V that
    each matrix's validation kept, and no LAPACK call is made here.
    """
    a, b, c = _block_dets(v)
    return _spectra(a, b, -c, det_v)[1]


def steerability_exponent(state: TwoModeGaussianState, direction: SteeringDirection) -> float:
    """Unclamped steerability (1/2) ln(det steering-block / det full CM).

    Positive iff the state is steerable in ``direction``; the clamped
    quantifier is ``max(0, .)`` of this.  Computed as -(1/2) ln det of the
    2x2 conditional block, using closed-form 2x2 determinants for precision
    near the boundary.
    """
    return float(_signed_quantity(state.cm, _DIRECTIONS[direction][0], state._det_v))


def gaussian_steerability(state: TwoModeGaussianState, direction: SteeringDirection) -> float:
    """Gaussian steerability quantifier, >= 0; zero iff not steerable."""
    return float(_clamp(_signed_quantity(state.cm, _DIRECTIONS[direction][0], state._det_v)))


def log_negativity_exponent(state: TwoModeGaussianState) -> float:
    """Unclamped -ln(nu_s) of the partial transpose; positive iff entangled."""
    return float(_signed_quantity(state.cm, "E_N", state._det_v))


def log_negativity(state: TwoModeGaussianState) -> float:
    """Logarithmic negativity E_N = max(0, -ln nu_s), an entanglement monotone."""
    return float(_clamp(_signed_quantity(state.cm, "E_N", state._det_v)))


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
    """Evaluate every criterion and quantifier on one state: all twelve
    fields of ``_report_columns``, each quantity computed once.

    Verdicts derive from the steerability quantifier; for the channel-family
    states treated here (diagonal-block covariances) its boundary coincides
    with the Reid product crossing 1/4 and the entropic sum crossing
    ln(e*pi).  Steerability in either direction implies entanglement.
    """
    return SteeringReport(**_report_columns(state.cm, SteeringReport.__dataclass_fields__, state._det_v))


def _report_columns(cms: np.ndarray, fields, det_v) -> dict:
    """The ``SteeringReport`` fields named in ``fields``, in that order, over
    a (..., 4, 4) stack of physical covariance matrices with det V ``det_v``
    (which E_N reads), as lists of Python floats and bools, or one value per
    field for one (4, 4) matrix; entry k equals ``steering_report`` of
    matrix k bit for bit.

    Each quantity is computed once, and only if a field in ``fields`` reads
    it: g_twoway reads both clamped G, the verdicts G or E_N, and a
    direction's Reid product and entropic sum its Q and P inferred
    variances.  The checks raise in the order of the public functions: G
    a->b, G b->a, E_N, conditioning variances, then the entropic sums'.
    """
    fields, v = tuple(fields), _entries(cms)
    wanted, columns, pairs = set(fields), {}, {}
    clamped = lambda quantity: _clamp(_from_log_arguments(_log_arguments(cms, v, quantity, det_v), quantity))
    for quantity, g, steerable, _, _ in _DIRECTIONS.values():
        if g in wanted or steerable in wanted or "g_twoway" in wanted:
            columns[g] = clamped(quantity)
            if steerable in wanted:
                columns[steerable] = columns[g] > 0.0
    if "g_twoway" in wanted:
        columns["g_twoway"] = _value(np.minimum(columns["g_a_to_b"], columns["g_b_to_a"]))
    if "e_n" in wanted or "entangled" in wanted or "separable" in wanted:
        e_n = columns["e_n"] = clamped("E_N")
        if "entangled" in wanted:
            columns["entangled"] = e_n > 0.0
        if "separable" in wanted:
            columns["separable"] = e_n <= 0.0  # e_n is clamped: never NaN
    for direction, (_, _, _, reid, entropic) in _DIRECTIONS.items():
        if reid in wanted or entropic in wanted:
            pair = [_inferred_variances(v, direction, Quadrature.Q), _inferred_variances(v, direction, Quadrature.P)]
            if reid in wanted:
                columns[reid] = pair[0] * pair[1]
            if entropic in wanted:
                pairs[entropic] = pair
    for entropic, pair in pairs.items():  # after every conditioning check
        columns[entropic] = _entropic_sum(pair)
    if cms.ndim == 2:  # one matrix's fields are Python floats and bools already
        return {field: columns[field] for field in fields}
    return {field: columns[field].tolist() for field in fields}


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
        return _relative_gap(self.t_closed, self.t_numeric)

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


def _relative_gap(t_closed: float, t_numeric: float) -> float:
    """``ThresholdResult.relative_gap`` of the two times."""
    if math.isinf(t_closed) or math.isinf(t_numeric):
        return 0.0 if math.isinf(t_closed) and math.isinf(t_numeric) else math.inf
    return abs(t_closed - t_numeric) / max(1.0, abs(t_closed))


def _signed_quantity(cms: np.ndarray, quantity: str, det_v) -> np.ndarray:
    """The signed threshold quantity (positive before the threshold) over a
    (..., 4, 4) stack, or a float for one matrix: the per-state quantifiers.
    ``det_v`` is the det V of each matrix, which only E_N reads."""
    return _from_log_arguments(_log_arguments(cms, _entries(cms), quantity, det_v), quantity)


def _log_arguments(cms: np.ndarray, v, quantity: str, det_v) -> tuple:
    """The arguments x of the logs a signed quantity takes on the matrices
    ``cms`` with entries v, one per direction in ``_QUANTITIES``, or E_N's
    nu_s (from the matrices' ``det_v``) for none.  Every x is > 0, or the
    quantity raises."""
    directions = _QUANTITIES[quantity][1]
    return tuple(_conditional_dets(cms, v, d) for d in directions) or (_transposed_nus(v, det_v),)


def _from_log_arguments(args: tuple, quantity: str):
    """The signed quantity -k ln x of its ``_log_arguments``, arrays or
    floats: the smaller value where there are two."""
    k = _QUANTITIES[quantity][0]
    values = [-k * _log(x) for x in args]
    return values[0] if len(values) == 1 else np.minimum(*values)


def _scan_signs(cms: np.ndarray, quantity: str, det_v):
    """(signs, args): the bracketing scan's sign of the signed quantity at
    every matrix of the stack, and its ``_log_arguments`` (from the stack's
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
    args = _log_arguments(cms, _entries(cms), quantity, det_v)
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
    resolves thresholds far below t_max, a linear tail covers the rest.
    Sorted, each duration once: np.unique's values, without its import of
    numpy.ma."""
    ts = np.concatenate([np.geomspace(t_max * 1e-9, t_max, 400), np.linspace(t_max / 400, t_max, 400)])
    ts.sort()
    return ts[np.concatenate(([True], ts[1:] != ts[:-1]))]


def numeric_threshold(channel: ChannelSpec, r: float, quantity: str | tuple[str, ...], t_max: float):
    """Smallest t in (0, t_max] where the signed quantity hits zero.

    ``quantity`` is one name, giving a float, or a tuple of names, giving a
    tuple of floats.  The evolved TMSV is scanned on an 800-point grid as one
    stacked batch: the TMSV, the grid and, from a single channel map, the
    (800, 4, 4) covariance matrices are built once per call, whatever the
    number of quantities, and the matrices are validated once with the state
    constructor's checks (a certified stack skips the eigensolver).  In one
    loop each quantity then takes its own checks, sign scan of that stack
    (``_scan_signs``, which takes the log only at points near the noise
    band), noise floor and bracket, and ``brentq`` refines the one
    bracketing pair.  It starts from the values at both bracket ends, the
    sign check's at t = 0 or the one ``_from_log_arguments`` gives from the
    scan's stored log arguments, and evaluates only the points inside, on
    one 4x4 matrix each, whose channel map, validation and quantity run on
    Python floats; the scan's signs and every point equal the per-state
    quantifiers' bit for bit.  E_N reads the det V that each validation
    kept, the TMSV's at t = 0, so each matrix is factored once.  No
    closed-form threshold expression enters, so the bisected value is an
    independent check on them.

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
        f0 = _signed_quantity(state0.cm, name, state0._det_v)
        if f0 <= 0.0:
            raise InvalidArgumentError(f"{name} must be positive at t = 0")
        if scan is None:
            ts = _scan_grid(t_max)
            scan, _, det_v = channels._evolve_stack(state0.cm, state0._det_v, (channel,), ts)
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
            cm, _, det_t = channels._evolve_stack(state0.cm, state0._det_v, (channel,), t)
            return _signed_quantity(cm, name, det_t)

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
    rates = channel._laser_rates()
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
    or gain channel is the laser channel of its rates, which the channel
    checked when it was made (``ChannelSpec._params``)."""
    if channel.kind == "thermal":
        return _two_way_thermal_time(channel.nbar, r)
    g, kappa = channel._params.g, channel._params.kappa
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

    Each row's laser rates g and kappa (not both zero), read once from the
    channel's checked params (``ChannelSpec._laser_rates``: a kind without
    them raises InvalidArgumentError), then r, are checked and its closed form
    taken, row by row; a thermal two-way row in the window
    nbar >= (e^{2r} - 1)/2 is "never-steerable" and has no root.  Then one
    ``numeric_threshold`` call, so one scan, roots every row of a distinct
    channel: 50 time units for the thermal channel (kappa = 1),
    ``_default_t_max`` for a laser channel.  An infinite root against a
    finite closed form is not "ok": "beyond-scan-horizon" when the closed
    form lies past the scan, else "unresolved".  Any other relative gap
    above the tolerance is "disagree", and so is a closed form that divides
    by zero, taken as NaN.  Each result is made once, when its root is
    known."""
    results, groups = [], {}
    for channel, direction in rows:
        rates = channel._laser_rates()
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
        results.append((direction, t_closed))
    for channel, indices in groups.items():
        rates = channel._params
        t_max = 50.0 if channel.kind == "thermal" else _default_t_max(rates.g, rates.kappa)
        roots = numeric_threshold(channel, r, tuple(_ROOT_QUANTITY[results[i][0]] for i in indices), t_max)
        for i, t_numeric in zip(indices, roots):
            direction, t_closed = results[i]
            status = "ok" if _relative_gap(t_closed, t_numeric) <= _THRESHOLD_REL_TOL else "disagree"  # NaN disagrees
            if math.isinf(t_numeric) and math.isfinite(t_closed):  # no root to compare with
                status = "beyond-scan-horizon" if t_closed > t_max else "unresolved"
            results[i] = ThresholdResult(channel, direction, t_closed, t_numeric, status)
    return results
