"""Covariance-matrix maps for laser (gain + loss) and phase-sensitive channels.

Symbol note: the literature reuses R and T with several meanings.  Internally
a laser channel is stored as a survival factor ``survival = exp(-2(kappa-g)t)``
and an added-noise coefficient ``noise``; the gain-channel (R = e^{2gt}) and
thermal-channel (R = e^{-2 kappa t}, T = 1 - R, N = 2 nbar + 1)
parameterizations of the same map are recovered by ``ChannelSpec`` kinds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .states import ModeLabel, TwoModeGaussianState, _all, _any, _entries, _quotient, _sqrt, _validated_stack, _value

__all__ = [
    "ChannelSide",
    "ChannelSpec",
    "LaserChannelParams",
    "PhaseSensitiveParams",
    "thermal_preset",
    "apply_laser",
    "v_infinity",
    "apply_phase_sensitive",
]

# Strong gain overflows exp at long durations.  The channel terms and map are
# computed with these floating-point warnings off, and ``_evolve_stack`` turns
# a non-finite result into DegenerateInputError.
_OVERFLOW_QUIET = {"over": "ignore", "invalid": "ignore"}


class ChannelSide(enum.Enum):
    """Which mode(s) pass through the channel."""

    A = "a"
    B = "b"
    BOTH = "two"

    @property
    def modes(self) -> tuple[ModeLabel, ...]:
        if self is ChannelSide.A:
            return (ModeLabel.A,)
        if self is ChannelSide.B:
            return (ModeLabel.B,)
        return (ModeLabel.A, ModeLabel.B)


@dataclass(frozen=True)
class LaserChannelParams:
    """Gain rate g, loss rate kappa and duration t of a laser channel.

    Derived quantities:
        survival  R = exp(-2 (kappa - g) t)   (amplification when g > kappa)
        noise     A = Omega (1 - R) with Omega = (kappa + g)/(kappa - g),
                  continued analytically to A = 2 (kappa + g) t at kappa = g.
    A >= 0 for all admissible parameters; t = 0 is the identity channel.
    """

    g: float
    kappa: float
    t: float

    def __post_init__(self):
        _check_nonnegative(g=self.g, kappa=self.kappa, t=self.t)

    @property
    def survival(self) -> float:
        return self._factors()[0]

    @property
    def noise(self) -> float:
        return self._factors()[1]

    def _factors(self) -> tuple[float, float]:
        with np.errstate(**_OVERFLOW_QUIET):  # numpy-scalar rates warn where kappa + g overflows
            return tuple(map(float, _laser_factors(self.g, self.kappa, self.t)))


def _check_nonnegative(**rates: float) -> None:
    """Raise on the first rate, in argument order, that is not finite and >= 0."""
    for name, v in rates.items():
        if not np.isfinite(v) or v < 0:
            raise InvalidArgumentError(f"{name} must be finite and >= 0, got {v}")


def _laser_factors(g, kappa, t):
    """Survival R and added noise A of the laser channel, elementwise (floats for floats)."""
    x = 2.0 * ((kappa - g) * t)  # rate * t first: 2 * rate alone may overflow
    rate_t = 2.0 * ((kappa + g) * t)
    finite = kappa + g < math.inf
    if not _all(finite):  # where kappa + g overflows, kappa t + g t may not
        rate_t = _value(np.where(finite, rate_t, 2.0 * (kappa * t + g * t)))
    # Omega (1 - R) = 2 (kappa + g) t * (1 - e^{-x}) / x, stable at kappa ~ g;
    # where x = 0 it keeps its limit 2 (kappa + g) t.
    return _value(np.exp(-x)), _quotient(rate_t * -_value(np.expm1(-x)), x, rate_t)


def thermal_preset(kappa: float, nbar: float, t: float) -> LaserChannelParams:
    """Thermal channel with occupation nbar: g -> kappa*nbar, kappa -> kappa*(nbar+1)."""
    _check_nonnegative(nbar=nbar, kappa=kappa)
    if not math.isfinite(float(kappa) * (float(nbar) + 1.0)):  # then kappa*nbar <= kappa*(nbar + 1) is too
        raise InvalidArgumentError(f"kappa*(nbar + 1) must be finite, got kappa = {kappa}, nbar = {nbar}")
    return LaserChannelParams(g=kappa * nbar, kappa=kappa * (nbar + 1.0), t=t)


def apply_laser(
    state: TwoModeGaussianState,
    params: LaserChannelParams,
    side: ChannelSide,
) -> TwoModeGaussianState:
    """Evolve a state through the laser channel on the given side(s).

    Per decohered mode the 2x2 diagonal block maps to noise*I + survival*block
    and the mean scales by sqrt(survival); each correlation to a decohered mode
    scales by sqrt(survival).  A view of ``ChannelSpec.evolve``.
    """
    return ChannelSpec("laser", side, g=params.g, kappa=params.kappa).evolve(state, params.t)


# The first index of each decohered mode's 2x2 block, by channel side.
_BLOCK_STARTS = {ChannelSide.A: (0,), ChannelSide.B: (2,), ChannelSide.BOTH: (0, 2)}


def _channel_map(v, sq, keep, added, side: ChannelSide) -> list:
    """The Gaussian channel V -> X V X^T + Y on the entries v of V.

    X scales each decohered mode by sq = sqrt(keep) and Y adds ``added`` to
    its diagonal block, which becomes added + keep * block.  v, sq, keep and
    the 2x2 entries ``added`` are those of one matrix, or arrays over a
    stack (v may be one matrix shared by every row), and the result is the
    entries of the unvalidated matrix or stack, each of ``keep``'s shape.
    """
    starts = _BLOCK_STARTS[side]
    (a00, a01, c00, c01), (a10, a11, c10, c11), (d00, d01, b00, b01), (d10, d11, b10, b11) = v
    for _ in starts:  # each decohered mode scales the correlations once
        c00, c01, c10, c11, d00, d01, d10, d11 = (x * sq for x in (c00, c01, c10, c11, d00, d01, d10, d11))
    rows = [[a00, a01, c00, c01], [a10, a11, c10, c11], [d00, d01, b00, b01], [d10, d11, b10, b11]]
    (y00, y01), (y10, y11) = added
    for lo in starts:
        rows[lo][lo : lo + 2] = y00 + keep * v[lo][lo], y01 + keep * v[lo][lo + 1]
        rows[lo + 1][lo : lo + 2] = y10 + keep * v[lo + 1][lo], y11 + keep * v[lo + 1][lo + 1]
    if type(keep) is not float:  # a shared matrix's entries that no decohered mode touched
        rows = [[np.full(keep.shape, x) if type(x) is float else x for x in row] for row in rows]
    return rows


@dataclass(frozen=True)
class PhaseSensitiveParams:
    """Squeezed thermal bath: loss rate kappa, occupation nbar, complex squeezing m.

    The channel reads transmission T = exp(-2 kappa t) and mixing R = 1 - T
    from ``_bath_factors``, and the bath's covariance (N = 2 nbar + 1) from
    ``v_infinity``.  A qualified bath density operator requires
    |m|^2 <= nbar (nbar + 1).
    """

    kappa: float
    nbar: float
    m: complex
    t: float

    def __post_init__(self):
        _check_nonnegative(kappa=self.kappa, nbar=self.nbar, t=self.t)
        m = complex(self.m)
        if not (np.isfinite(m.real) and np.isfinite(m.imag)):
            raise InvalidArgumentError(f"m must be finite, got {m}")
        bound = self.nbar * (self.nbar + 1.0)
        try:
            if abs(m) ** 2 > bound + 1e-12:
                raise InvalidArgumentError(f"|m|^2 = {abs(m) ** 2:.12g} exceeds nbar(nbar+1) = {bound:.12g}")
        except OverflowError:  # |m| > 1e154: compare |m| with the bound's root, the slack relative as at |m| ~ 1
            m_abs, root = math.hypot(m.real, m.imag), math.sqrt(self.nbar) * math.sqrt(self.nbar + 1.0)
            if m_abs - root > 1e-12 * root:
                raise InvalidArgumentError(f"|m| = {m_abs:.12g} exceeds sqrt(nbar(nbar+1)) = {root:.12g}") from None
        object.__setattr__(self, "m", m)


def _bath_factors(kappa, t):
    """Transmission T = exp(-2 kappa t) and mixing R = 1 - T, elementwise (floats for floats)."""
    x = -2.0 * (kappa * t)
    return _value(np.exp(x)), -_value(np.expm1(x))


def v_infinity(params: PhaseSensitiveParams) -> np.ndarray:
    """Single-mode covariance matrix of the bath's stationary state (t -> infinity)."""
    n = 2.0 * params.nbar + 1.0
    re_m, im_m = 2.0 * params.m.real, 2.0 * params.m.imag
    return np.array([[n + re_m, im_m], [im_m, n - re_m]])


def apply_phase_sensitive(
    state: TwoModeGaussianState,
    params: PhaseSensitiveParams,
    side: ChannelSide,
) -> TwoModeGaussianState:
    """Evolve a state through the phase-sensitive environment on the given side(s).

    Per decohered mode: block -> mixing * V_inf + transmission * block, mean
    scales by sqrt(transmission), correlations to the mode by sqrt(transmission).
    With m = 0 this is exactly the thermal laser channel.  A view of
    ``ChannelSpec.evolve``.
    """
    spec = ChannelSpec("phase-sensitive", side, kappa=params.kappa, nbar=params.nbar, m=params.m)
    return spec.evolve(state, params.t)


# The rates each channel kind reads, in ``ChannelSpec.describe()`` order.
_KIND_RATES = {
    "identity": (),
    "loss": ("kappa",),
    "gain": ("g",),
    "thermal": ("kappa", "nbar"),
    "laser": ("g", "kappa"),
    "phase-sensitive": ("kappa", "nbar", "m"),
}


@dataclass(frozen=True)
class ChannelSpec:
    """A channel family with fixed rates, evaluated at varying durations.

    ``kind`` selects the map; only the rates ``_KIND_RATES`` lists for it
    are consulted, and they are checked when the spec is made, so a spec
    that exists is a channel the map can run.  Rates default to 1 so
    durations read as dimensionless products (kappa*t or g*t).
    """

    kind: str
    side: ChannelSide = ChannelSide.BOTH
    g: float = 1.0
    kappa: float = 1.0
    nbar: float = 0.0
    m: complex = 0.0
    # The checked rates at t = 0; None for the identity kind, which reads none.
    _params: LaserChannelParams | PhaseSensitiveParams | None = field(init=False, repr=False, compare=False)
    # The entries (floats) of the 2x2 block that a decohered mode's added noise
    # scales: the bath's ``v_infinity`` for the phase-sensitive kind, else I.
    _block: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, params, block = self.kind, None, ((1.0, 0.0), (0.0, 1.0))
        if kind not in _KIND_RATES:
            raise InvalidArgumentError(f"unknown channel kind {kind!r}; expected one of {tuple(_KIND_RATES)}")
        if kind == "phase-sensitive":
            params = PhaseSensitiveParams(kappa=self.kappa, nbar=self.nbar, m=self.m, t=0.0)
            block = tuple(map(tuple, v_infinity(params).tolist()))
        elif kind == "thermal":
            params = thermal_preset(self.kappa, self.nbar, 0.0)
        elif kind != "identity":
            params = LaserChannelParams(0.0 if kind == "loss" else self.g, 0.0 if kind == "gain" else self.kappa, 0.0)
        object.__setattr__(self, "_params", params)
        object.__setattr__(self, "_block", block)

    def laser_params(self, t: float) -> LaserChannelParams:
        """The laser rates of this loss, gain, thermal or laser channel at duration t."""
        params = self._laser_rates()
        return LaserChannelParams(params.g, params.kappa, t)

    def _laser_rates(self) -> LaserChannelParams:
        """``_params`` of a loss, gain, thermal or laser channel: its laser
        rates at t = 0, checked when the spec was made."""
        if not isinstance(self._params, LaserChannelParams):
            raise InvalidArgumentError(f"channel kind {self.kind!r} has no laser parameterization")
        return self._params

    def evolve(self, state: TwoModeGaussianState, t: float) -> TwoModeGaussianState:
        """The state after duration t in this channel.

        The one-state case of ``_evolve_stack``: the mean of each decohered
        mode scales by the same sqrt(keep) as its rows and columns.  Zero
        duration and the identity kind return ``state`` itself.
        """
        cm, sq, det_v = _evolve_stack(state.cm, state._det_v, (self,), t)
        if sq is None:
            return state
        mean = state.mean.copy()
        with np.errstate(**_OVERFLOW_QUIET):
            for mode in self.side.modes:
                mean[mode.block] *= sq
        if not np.isfinite(mean).all():
            raise InvalidArgumentError("mean must be finite")
        return TwoModeGaussianState._validated(mean, cm, det_v)

    def describe(self) -> dict:
        """JSON-ready summary of the channel (used in threshold reports)."""
        out = {"kind": self.kind, "side": self.side.value}
        for name in _KIND_RATES[self.kind]:
            value = getattr(self, name)
            out[name] = {"re": complex(value).real, "im": complex(value).imag} if name == "m" else value
        return out


def _evolve_stack(cms: np.ndarray, det_v, channels, t):
    """(stack, sq, det_v): row i of the (N, 4, 4) stack is the covariance
    matrix after duration t[i] in its channel, from one channel map on the
    entries of ``cms`` and one validation, which gives det_v, each row's det V.

    ``cms`` is one validated 4x4 matrix shared by every row or an (N, 4, 4)
    stack with one per row, and ``det_v`` its det V; ``channels`` is k
    ChannelSpecs of one kind and side, whose rates may differ, each the
    channel of N / k consecutive rows.  A 0-d t, with one channel and one
    matrix, gives one 4x4 matrix, whose map and validation run on its entries
    as Python floats; ``keep`` and ``added`` still come from numpy's exp and
    expm1.  A map that overflows raises DegenerateInputError.  ``sq`` =
    sqrt(keep) is the factor of each decohered mode.  Zero duration and the
    identity kind return ``cms`` and ``det_v``, broadcast to the durations'
    shape unless t is 0-d, with sq = None.
    """
    if type(t) is not float:
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:  # one duration: plain floats keep the one-state path fast
            t = float(t)
    if not _all((0.0 <= t) & (t < math.inf)):
        raise InvalidArgumentError("durations must be finite and >= 0")
    first, shape = channels[0], np.shape(t)
    if first.kind == "identity" or not _any(t != 0.0):
        if shape:
            cms, det_v = np.broadcast_to(cms, shape + (4, 4)), np.broadcast_to(det_v, shape)
        return cms, None, det_v
    with np.errstate(**_OVERFLOW_QUIET):
        keep, added = _stack_terms(channels, t)
        sq = _sqrt(keep)
        v = _channel_map(_entries(cms), sq, keep, added, first.side)
    try:
        cms, det_v = _validated_stack(v, shape)
    except InvalidArgumentError:  # validation's first check: a non-finite entry, here an overflow
        raise DegenerateInputError("covariance matrix overflows the float range") from None
    return cms, sq, det_v


def _stack_terms(channels, t):
    """The (keep, added) arguments of the channel map for durations t, from
    the checked ``_params`` and ``_block`` of k channels of one kind, each
    read once and repeated over its len(t) / k consecutive rows; the terms
    elementwise, ``added`` as the entries of a 2x2 block, Python floats for
    one channel and one duration.  exp and expm1 are numpy's, not math's."""
    one, first = len(channels) == 1, channels[0]
    per_row = lambda values: np.repeat(values, len(t) // len(channels), axis=0)  # called only when k > 1
    rate = lambda name: getattr(first._params, name) if one else per_row([getattr(c._params, name) for c in channels])
    if isinstance(first._params, PhaseSensitiveParams):
        keep, scale = _bath_factors(rate("kappa"), t)
    else:
        keep, scale = _laser_factors(rate("g"), rate("kappa"), t)
    (b00, b01), (b10, b11) = first._block if one else _entries(per_row([c._block for c in channels]))
    return keep, ((scale * b00, scale * b01), (scale * b10, scale * b11))
