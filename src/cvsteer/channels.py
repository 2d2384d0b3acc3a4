"""Covariance-matrix maps for laser (gain + loss) and phase-sensitive channels.

Symbol note: the literature reuses R and T with several meanings.  Internally
a laser channel is stored as a survival factor ``survival = exp(-2(kappa-g)t)``
and an added-noise coefficient ``noise``; the gain-channel (R = e^{2gt}) and
thermal-channel (R = e^{-2 kappa t}, T = 1 - R, N = 2 nbar + 1)
parameterizations of the same map are recovered by the presets below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .states import ModeLabel, TwoModeGaussianState, _validate_cms

__all__ = [
    "ChannelSide",
    "ChannelSpec",
    "LaserChannelParams",
    "PhaseSensitiveParams",
    "laser_coefficients",
    "loss_preset",
    "gain_preset",
    "thermal_preset",
    "apply_laser",
    "v_infinity",
    "apply_phase_sensitive",
]

_EYE2 = np.eye(2)
_EYE2.setflags(write=False)


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
        for name, v in (("g", self.g), ("kappa", self.kappa), ("t", self.t)):
            if not np.isfinite(v) or v < 0:
                raise InvalidArgumentError(f"{name} must be finite and >= 0, got {v}")

    @property
    def survival(self) -> float:
        return float(_laser_factors(self.g, self.kappa, self.t)[0])

    @property
    def noise(self) -> float:
        return float(_laser_factors(self.g, self.kappa, self.t)[1])


def _laser_factors(g: float, kappa: float, t):
    """Survival R and added noise A of the laser channel, elementwise in t."""
    x = 2.0 * (kappa - g) * t
    rate_t = 2.0 * (kappa + g) * t
    # Omega (1 - R) = 2 (kappa + g) t * (1 - e^{-x}) / x, stable at kappa ~ g;
    # where x = 0 it keeps its limit 2 (kappa + g) t.
    noise = np.divide(rate_t * (-np.expm1(-x)), x, out=np.array(rate_t, dtype=float), where=x != 0.0)
    return np.exp(-x), noise[()]


def laser_coefficients(g: float, kappa: float, t: float) -> LaserChannelParams:
    """Validated laser-channel parameters for gain g, loss kappa, duration t."""
    return LaserChannelParams(g=g, kappa=kappa, t=t)


def loss_preset(kappa: float, t: float) -> LaserChannelParams:
    """Pure photon-loss channel (g = 0)."""
    return LaserChannelParams(g=0.0, kappa=kappa, t=t)


def gain_preset(g: float, t: float) -> LaserChannelParams:
    """Pure photon-gain (linear amplifier) channel (kappa = 0)."""
    return LaserChannelParams(g=g, kappa=0.0, t=t)


def thermal_preset(kappa: float, nbar: float, t: float) -> LaserChannelParams:
    """Thermal channel with occupation nbar: g -> kappa*nbar, kappa -> kappa*(nbar+1)."""
    if not np.isfinite(nbar) or nbar < 0:
        raise InvalidArgumentError(f"nbar must be finite and >= 0, got {nbar}")
    if not np.isfinite(kappa) or kappa < 0:
        raise InvalidArgumentError(f"kappa must be finite and >= 0, got {kappa}")
    return LaserChannelParams(g=kappa * nbar, kappa=kappa * (nbar + 1.0), t=t)


def apply_laser(
    state: TwoModeGaussianState,
    params: LaserChannelParams,
    side: ChannelSide,
) -> TwoModeGaussianState:
    """Evolve a state through the laser channel on the given side(s).

    Per decohered mode the 2x2 diagonal block maps to noise*I + survival*block
    and the mean scales by sqrt(survival); each correlation to a decohered mode
    scales by sqrt(survival).
    """
    return _apply_channel(state, *_laser_terms(params.g, params.kappa, params.t), side)


def _laser_terms(g: float, kappa: float, t):
    """The laser channel's (keep, added) arguments of ``_channel_map``."""
    survival, noise = _laser_factors(g, kappa, t)
    return survival, noise * _EYE2


def _apply_channel(state: TwoModeGaussianState, keep: float, added: np.ndarray, side: ChannelSide):
    """One state through ``_channel_map``; the mean of each decohered mode
    scales by sqrt(keep)."""
    sq = np.sqrt(keep)
    mean = state.mean.copy()
    for mode in side.modes:
        mean[mode.block] *= sq
    return TwoModeGaussianState(mean, _channel_map(state, sq, keep, added, side))


def _channel_map(state: TwoModeGaussianState, sq, keep, added: np.ndarray, side: ChannelSide) -> np.ndarray:
    """The Gaussian channel V -> X V X^T + Y on the covariance matrix.

    X scales each decohered mode by sq = sqrt(keep) and Y adds ``added`` to
    its diagonal block, which becomes added + keep * block.  ``keep`` is a
    float, giving one 4x4 matrix, or an (N, 1, 1) stack with ``added``
    (N, 2, 2), giving the (N, 4, 4) stack.  The result is unvalidated.
    """
    cm = np.empty(np.shape(keep)[:-2] + (4, 4))
    cm[...] = state.cm
    for mode in side.modes:
        blk = mode.block
        cm[..., blk, :] *= sq
        cm[..., :, blk] *= sq
        cm[..., blk, blk] = added + keep * state.block(mode)
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
        for name, v in (("kappa", self.kappa), ("nbar", self.nbar), ("t", self.t)):
            if not np.isfinite(v) or v < 0:
                raise InvalidArgumentError(f"{name} must be finite and >= 0, got {v}")
        m = complex(self.m)
        if not (np.isfinite(m.real) and np.isfinite(m.imag)):
            raise InvalidArgumentError(f"m must be finite, got {m}")
        if abs(m) ** 2 > self.nbar * (self.nbar + 1.0) + 1e-12:
            raise InvalidArgumentError(
                f"|m|^2 = {abs(m) ** 2:.12g} exceeds nbar(nbar+1) = {self.nbar * (self.nbar + 1.0):.12g}"
            )
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
    With m = 0 this is exactly the thermal laser channel.
    """
    return _apply_channel(state, *_bath_terms(params, params.t), side)


def _bath_terms(params: PhaseSensitiveParams, t):
    """The phase-sensitive channel's (keep, added) arguments of ``_channel_map``."""
    transmission, mixing = _bath_factors(params.kappa, t)
    return transmission, mixing * v_infinity(params)


_CHANNEL_KINDS = ("identity", "loss", "gain", "thermal", "laser", "phase-sensitive")


@dataclass(frozen=True)
class ChannelSpec:
    """A channel family with fixed rates, evaluated at varying durations.

    ``kind`` selects the map; only the rates it uses are consulted:
        loss            kappa
        gain            g
        thermal         kappa, nbar
        laser           g, kappa
        phase-sensitive kappa, nbar, m
    Rates default to 1 so durations read as dimensionless products (kappa*t
    or g*t).
    """

    kind: str
    side: ChannelSide = ChannelSide.BOTH
    g: float = 1.0
    kappa: float = 1.0
    nbar: float = 0.0
    m: complex = 0.0

    def __post_init__(self):
        if self.kind not in _CHANNEL_KINDS:
            raise InvalidArgumentError(f"unknown channel kind {self.kind!r}; expected one of {_CHANNEL_KINDS}")

    def laser_params(self, t: float) -> LaserChannelParams:
        if self.kind == "loss":
            return loss_preset(self.kappa, t)
        if self.kind == "gain":
            return gain_preset(self.g, t)
        if self.kind == "thermal":
            return thermal_preset(self.kappa, self.nbar, t)
        if self.kind == "laser":
            return laser_coefficients(self.g, self.kappa, t)
        raise InvalidArgumentError(f"channel kind {self.kind!r} has no laser parameterization")

    def evolve(self, state: TwoModeGaussianState, t: float) -> TwoModeGaussianState:
        """The state after duration t in this channel."""
        if self.kind == "identity" or t == 0.0:
            return state
        if self.kind == "phase-sensitive":
            params = PhaseSensitiveParams(kappa=self.kappa, nbar=self.nbar, m=self.m, t=t)
            return apply_phase_sensitive(state, params, self.side)
        return apply_laser(state, self.laser_params(t), self.side)

    def evolve_cms(self, state: TwoModeGaussianState, t) -> np.ndarray:
        """Covariance matrices after each duration in t, as one stack.

        The stacked form of ``evolve``: for an array of N durations it returns
        the (N, 4, 4) covariance matrices, built by one channel map and
        validated once with the constructor's checks.  Entries equal those of
        ``evolve(state, t).cm`` bit for bit.
        """
        t = np.asarray(t, dtype=float)
        if not (np.all(np.isfinite(t)) and np.all(t >= 0.0)):
            raise InvalidArgumentError("durations must be finite and >= 0")
        if self.kind == "identity":
            return np.broadcast_to(state.cm, t.shape + (4, 4))
        t = t[..., None, None]
        # Strong gain overflows exp at long durations; such members are
        # rejected below, so the batch raises instead of warning.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "phase-sensitive":
                params = PhaseSensitiveParams(kappa=self.kappa, nbar=self.nbar, m=self.m, t=0.0)
                keep, added = _bath_terms(params, t)
            else:
                rates = self.laser_params(0.0)
                keep, added = _laser_terms(rates.g, rates.kappa, t)
            cms = _channel_map(state, np.sqrt(keep), keep, added, self.side)
        if not np.all(np.isfinite(cms)):
            raise DegenerateInputError("covariance matrix overflows float range at these durations")
        return _validate_cms(cms)

    def describe(self) -> dict:
        """JSON-ready summary of the channel (used in threshold reports)."""
        out = {"kind": self.kind, "side": self.side.value}
        if self.kind in ("gain", "laser"):
            out["g"] = self.g
        if self.kind in ("loss", "thermal", "laser", "phase-sensitive"):
            out["kappa"] = self.kappa
        if self.kind in ("thermal", "phase-sensitive"):
            out["nbar"] = self.nbar
        if self.kind == "phase-sensitive":
            out["m"] = {"re": complex(self.m).real, "im": complex(self.m).imag}
        return out
