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
from .states import ModeLabel, TwoModeGaussianState, _validate_rows, _validated_stack

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

_EYE2 = np.eye(2)
_EYE2.setflags(write=False)

# Strong gain overflows exp at long durations.  The channel terms and map are
# computed with these floating-point warnings off, and ``_channel_map`` turns
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
        return float(_laser_factors(self.g, self.kappa, self.t)[0])

    @property
    def noise(self) -> float:
        return float(_laser_factors(self.g, self.kappa, self.t)[1])


def _check_nonnegative(**rates: float) -> None:
    """Raise on the first rate, in argument order, that is not finite and >= 0."""
    for name, v in rates.items():
        if not np.isfinite(v) or v < 0:
            raise InvalidArgumentError(f"{name} must be finite and >= 0, got {v}")


def _laser_factors(g: float, kappa: float, t):
    """Survival R and added noise A of the laser channel, elementwise in t."""
    x = 2.0 * (kappa - g) * t
    rate_t = 2.0 * (kappa + g) * t
    # Omega (1 - R) = 2 (kappa + g) t * (1 - e^{-x}) / x, stable at kappa ~ g;
    # where x = 0 it keeps its limit 2 (kappa + g) t.
    noise = np.divide(rate_t * (-np.expm1(-x)), x, out=np.array(rate_t, dtype=float), where=x != 0.0)
    return np.exp(-x), noise[()]


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


def _channel_map(cms: np.ndarray, sq, keep, added: np.ndarray, side: ChannelSide) -> np.ndarray:
    """The Gaussian channel V -> X V X^T + Y on the covariance matrix.

    X scales each decohered mode by sq = sqrt(keep) and Y adds ``added`` to
    its diagonal block, which becomes added + keep * block.  ``keep`` is an
    (N, 1, 1) stack and ``added`` (N, 2, 2), giving the (N, 4, 4) stack;
    ``cms`` is one 4x4 matrix or a stack of that shape.  The result is finite
    (or this raises DegenerateInputError) but otherwise unvalidated.
    """
    cm = np.empty(np.shape(keep)[:-2] + (4, 4))
    cm[...] = cms
    for mode in side.modes:
        blk = mode.block
        cm[..., blk, :] *= sq
        cm[..., :, blk] *= sq
        cm[..., blk, blk] = added + keep * cms[..., blk, blk]
    if not np.isfinite(cm).all():
        raise DegenerateInputError("covariance matrix overflows the float range")
    return cm


def _channel_map_rows(rows: list, sq: float, keep: float, added: list, side: ChannelSide) -> list:
    """``_channel_map`` of one matrix on Python floats: ``rows`` and
    ``added`` are nested lists, and every entry takes the float operations
    it takes in the array map, in the same order."""
    cm = [row[:] for row in rows]
    for mode in side.modes:
        lo = mode.block.start
        for i in (lo, lo + 1):
            cm[i] = [v * sq for v in cm[i]]
        for row in cm:
            row[lo] *= sq
            row[lo + 1] *= sq
        for p in (0, 1):
            for q in (0, 1):
                cm[lo + p][lo + q] = added[p][q] + keep * rows[lo + p][lo + q]
    if not all(map(math.isfinite, cm[0] + cm[1] + cm[2] + cm[3])):
        raise DegenerateInputError("covariance matrix overflows the float range")
    return cm


@dataclass(frozen=True)
class PhaseSensitiveParams:
    """Squeezed thermal bath: loss rate kappa, occupation nbar, complex squeezing m.

    Derived: N = 2 nbar + 1, mixing R = 1 - exp(-2 kappa t) and transmission
    T = exp(-2 kappa t) with R + T = 1.  A qualified bath density operator
    requires |m|^2 <= nbar (nbar + 1).
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

    @property
    def n_factor(self) -> float:
        return 2.0 * self.nbar + 1.0

    @property
    def mixing(self) -> float:
        return float(_bath_factors(self.kappa, self.t)[1])

    @property
    def transmission(self) -> float:
        return float(_bath_factors(self.kappa, self.t)[0])


def _bath_factors(kappa: float, t):
    """Transmission T = exp(-2 kappa t) and mixing R = 1 - T, elementwise in t."""
    x = -2.0 * kappa * t
    return np.exp(x), -np.expm1(x)


def v_infinity(params: PhaseSensitiveParams) -> np.ndarray:
    """Single-mode covariance matrix of the bath's stationary state (t -> infinity)."""
    n = params.n_factor
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

    def __post_init__(self):
        kind, params = self.kind, None
        if kind not in _KIND_RATES:
            raise InvalidArgumentError(f"unknown channel kind {kind!r}; expected one of {tuple(_KIND_RATES)}")
        if kind == "phase-sensitive":
            params = PhaseSensitiveParams(kappa=self.kappa, nbar=self.nbar, m=self.m, t=0.0)
        elif kind == "thermal":
            params = thermal_preset(self.kappa, self.nbar, 0.0)
        elif kind != "identity":
            params = LaserChannelParams(0.0 if kind == "loss" else self.g, 0.0 if kind == "gain" else self.kappa, 0.0)
        object.__setattr__(self, "_params", params)

    def laser_params(self, t: float) -> LaserChannelParams:
        """The laser rates of this loss, gain, thermal or laser channel at duration t."""
        params = self._params
        if not isinstance(params, LaserChannelParams):
            raise InvalidArgumentError(f"channel kind {self.kind!r} has no laser parameterization")
        return LaserChannelParams(params.g, params.kappa, t)

    def evolve(self, state: TwoModeGaussianState, t: float) -> TwoModeGaussianState:
        """The state after duration t in this channel.

        The one-state case of ``_evolve_stack``: the mean of each decohered
        mode scales by the same sqrt(keep) as its rows and columns.  Zero
        duration and the identity kind return ``state`` itself.
        """
        cm, sq, _ = _evolve_stack(state.cm, (self,), t)
        if sq is None:
            return state
        mean = state.mean.copy()
        with np.errstate(**_OVERFLOW_QUIET):
            for mode in self.side.modes:
                mean[mode.block] *= sq
        if not np.isfinite(mean).all():
            raise InvalidArgumentError("mean must be finite")
        return TwoModeGaussianState._validated(mean, cm)

    def evolve_cms(self, state: TwoModeGaussianState, t) -> np.ndarray:
        """Covariance matrices after each duration in t, as one stack.

        The stacked form of ``evolve``: for an array of N durations it returns
        the (N, 4, 4) covariance matrices, built by one channel map and
        validated once with the constructor's checks.  Entries equal those of
        ``evolve(state, t).cm`` bit for bit.
        """
        return _evolve_stack(state.cm, (self,), t)[0]

    def describe(self) -> dict:
        """JSON-ready summary of the channel (used in threshold reports)."""
        out = {"kind": self.kind, "side": self.side.value}
        for name in _KIND_RATES[self.kind]:
            value = getattr(self, name)
            out[name] = {"re": complex(value).real, "im": complex(value).imag} if name == "m" else value
        return out


def _evolve_stack(cms: np.ndarray, channels, t):
    """(stack, sq, det_v): row i of the (N, 4, 4) stack is the covariance
    matrix after duration t[i] in channels[i], built by one channel map and
    validated once.

    ``cms`` is one 4x4 matrix shared by every row or an (N, 4, 4) stack with
    one matrix per row; ``channels`` is one ChannelSpec shared by every row or
    N of them with the same kind and side, which may differ in their rates.
    A 0-d t, with one channel and one matrix, gives one 4x4 matrix: its
    ``keep`` and ``added`` still come from numpy's exp and expm1, but the map
    and the validation run on Python floats (``_channel_map_rows``,
    ``states._validate_rows``), with the same float operations as the
    stack's.  ``sq`` = sqrt(keep) is the factor of each decohered mode;
    ``det_v`` is the det V of every row that the stack's validation computed
    (``states._validated_stack``), or None.  Zero duration and the identity
    kind return ``cms`` broadcast and unvalidated, with sq = det_v = None.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:  # one duration: plain floats keep the one-state path fast
        t = float(t)
        valid, zero = 0.0 <= t < math.inf, t == 0.0
    else:
        valid, zero = bool(np.isfinite(t).all() and (t >= 0.0).all()), not t.any()
    if not valid:
        raise InvalidArgumentError("durations must be finite and >= 0")
    first = channels[0]
    if first.kind == "identity" or zero:
        return np.broadcast_to(cms, np.shape(t) + (4, 4)), None, None
    if isinstance(t, float):
        with np.errstate(**_OVERFLOW_QUIET):
            keep, added = _stack_terms([first._params], t)
        keep = float(keep)
        sq = math.sqrt(keep)
        return _validate_rows(_channel_map_rows(cms.tolist(), sq, keep, added.tolist(), first.side)), sq, None
    with np.errstate(**_OVERFLOW_QUIET):
        keep, added = _stack_terms([c._params for c in channels], t[..., None, None])
        sq = np.sqrt(keep)
        cms = _channel_map(cms, sq, keep, added, first.side)
    cms, det_v = _validated_stack(cms)
    return cms, sq, det_v


def _stack_terms(params: list, t):
    """The (keep, added) arguments of the channel map for durations t, a
    float (``_channel_map_rows``) or an (N, 1, 1) array (``_channel_map``),
    from the channels' checked ``_params``, all of one kind: the terms of
    every row are computed once, elementwise."""
    if isinstance(params[0], PhaseSensitiveParams):
        transmission, mixing = _bath_factors(_column([p.kappa for p in params]), t)
        return transmission, mixing * _column([v_infinity(p) for p in params])
    survival, noise = _laser_factors(_column([p.g for p in params]), _column([p.kappa for p in params]), t)
    return survival, noise * _EYE2


def _column(values: list):
    """One rate or 2x2 matrix as it is, or one per row along a new leading
    axis: rates as an (N, 1, 1) column, matrices as an (N, 2, 2) stack."""
    if len(values) == 1:
        return values[0]
    rows = np.array(values)
    return rows if rows.ndim == 3 else rows[:, None, None]
