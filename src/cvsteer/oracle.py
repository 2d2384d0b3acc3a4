"""Brute-force numerical verification path, independent of the closed forms.

Joint quadrature PDFs are recovered from the characteristic function by
direct Fourier inversion on a grid, inferred variances by re-minimizing the
linear estimate over tabulated moments, entropies by Riemann sums, moments by
Richardson-extrapolated finite differences of the CF at the origin, and
symplectic spectra by dense eigendecomposition.  Nothing here reuses the
Gaussian closed forms being checked.

``numeric_symplectic`` takes one 4x4 matrix or a (..., 4, 4) stack, so a
suite checks all its samples in one call; every other function works on one
state or one table.  ``pdf_from_cf`` builds its CF grid by broadcasting the
two grid axes, without an (n^2, 4) array of CF arguments, and its inversion
kernel from the top-left quarter of the q kernel, cached for the last pair of grids;
a mirrored state's second pair reuses the first one's kernel-chi product.

Scaling note: quadrature eigenvalues carry a sqrt(2) (Q|qbar> = sqrt(2) qbar
|qbar>), which is why the inversion kernel is exp(-i sqrt(2) (qbar1 p1 +
qbar2 p2)).  Dropping that factor is the classic off-by-sqrt(2) bug.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    GridResolutionError,
    InvalidArgumentError,
    NumericalPairingError,
)
from .states import SYMPLECTIC_FORM, CfPoint, TwoModeGaussianState, _any, cf_eval

__all__ = [
    "Grid2D",
    "default_grid",
    "pdf_from_cf",
    "numeric_inferred_variance",
    "numeric_entropy",
    "numeric_conditional_entropy_sum",
    "numeric_moments",
    "numeric_second_moment",
    "numeric_symplectic",
]

# Residual FFT-free inversion leaves tiny negative ringing; anything worse
# means the grid is wrong.
RINGING_TOL = 1e-9
NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True)
class Grid2D:
    """Symmetric square grid [-L, L]^2 with n points per axis (n a power of two)."""

    length: float
    n: int = 256

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0):
            raise InvalidArgumentError(f"grid length must be finite and > 0, got {self.length}")
        if self.n < 4 or self.n & (self.n - 1):
            raise InvalidArgumentError(f"grid size must be a power of two >= 4, got {self.n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.length / self.n

    @property
    def axis(self) -> np.ndarray:
        # Midpoint lattice: symmetric about 0 without duplicating endpoints.
        return (np.arange(self.n) - self.n / 2 + 0.5) * self.spacing


def default_grid(state: TwoModeGaussianState) -> Grid2D:
    """Output grid sized so Gaussian tails fall below ~1e-14 at the edge."""
    return Grid2D(length=8.0 * math.sqrt(float(np.max(np.diag(state.cm)))))


def _integration_grid(state: TwoModeGaussianState, variables: str, n: int) -> Grid2D:
    # The CF decays like exp(-lambda_min u^2 / 2) where lambda_min is the
    # smallest eigenvalue of the relevant 2x2 moment block; size only, the
    # values themselves come from cf_eval.
    idx = [0, 2] if variables == "q" else [1, 3]
    block = state.cm[np.ix_(idx, idx)]
    lam_min = float(np.min(np.linalg.eigvalsh(block)))
    if lam_min <= 0.0:
        raise DegenerateInputError("quadrature moment block is singular")
    return Grid2D(length=8.0 / math.sqrt(lam_min), n=n)


def _cf_grid(state: TwoModeGaussianState, variables: str, u: np.ndarray) -> np.ndarray:
    """cf_eval batched over a square grid of one conjugate-variable pair.  The bottom
    n/2 rows are the top ones conjugated and rotated 180 degrees, chi(-xi) = chi(xi)*,
    bit for bit: numpy's exp of (+-0, -theta) is the conjugate of its exp of (+-0, theta)."""
    # eta = Omega xi has two nonzero components, one per grid axis: the grid
    # of (p1, p2) gives eta_Q = (p1, p2), that of (q1, q2) eta_P = -(q1, q2).
    # Mode 1's is the column u[:, None] (table axis 0), mode 2's the row
    # u[None, :] (axis 1).
    cols, axis = ((0, 2), u) if variables == "q" else ((1, 3), -u)
    rows = len(u) // 2
    eta = dict(zip(cols, (axis[:rows, None], axis[None, :])))
    # eta^T V eta per point, accumulated i major, j minor like the unoptimized
    # np.einsum("ni,ij,nj->n"), so the values equal it bit for bit at a
    # fraction of its cost; the terms of the zero components are skipped.
    quad = np.zeros((rows, len(u)))
    for i in cols:
        for j in cols:
            quad += eta[i] * state.cm[i, j] * eta[j]
    chi = np.empty((len(u), len(u)), dtype=complex)  # filled in place: np.concatenate costs RSS
    chi[:rows] = np.exp(-0.5 * quad)
    if state.mean[list(cols)].any():  # mean components of +-0 make the unit phase exactly 1+0j
        phase = eta[cols[0]] * state.mean[cols[0]] + eta[cols[1]] * state.mean[cols[1]]
        chi[:rows] *= np.exp(1j * phase)
    np.conjugate(chi[rows - 1 :: -1, ::-1], out=chi[rows:])
    return chi


@functools.lru_cache(maxsize=1)
def _half_kernel(grid: Grid2D, inner: Grid2D) -> np.ndarray:
    """Rows 0 .. n/2 - 1 of the q kernel exp(-i sqrt(2) x u^T), read-only; only
    the left n/2 columns go through exp, as column n-1-j is column j's conjugate."""
    m = grid.n // 2  # inner has as many points as grid
    half = np.empty((m, 2 * m), dtype=complex)
    left = half[:, :m]  # built in place: a concatenated half raised verify's peak RSS by 1.4 MB
    np.multiply(-1j * math.sqrt(2.0), np.outer(grid.axis[:m], inner.axis[:m]), out=left)
    np.exp(left, out=left)
    np.conjugate(left[:, ::-1], out=half[:, m:])
    half.flags.writeable = False
    return half


# The last call's first product phase @ chi, kept only for a zero-mean pair and
# only until the next call: [((variables, grid, inner, V_xx, V_xy, V_yx, V_yy), product)].
_mirror_slot: list[tuple[tuple, np.ndarray]] = []


def pdf_from_cf(state: TwoModeGaussianState, variables: str) -> tuple[np.ndarray, Grid2D]:
    """Tabulated joint PDF of (qbar1, qbar2) or (pbar1, pbar2) by CF inversion.

    P(qbar1, qbar2) = (1/2 pi^2) * integral dp1 dp2
        exp(-i sqrt(2) (qbar1 p1 + qbar2 p2)) chi(0, p1; 0, p2),
    and the momentum PDF uses the conjugate kernel on chi(q1, 0; q2, 0).
    Returns (table, default_grid(state)); table[i, j] is the density at (axis[i], axis[j]).
    Scaled in place, with max |imag| from the extremes: no full-grid temporary.

    Each call empties the slot.  A zero-mean pair leaves its product phase @ chi
    there; the other pair of a mirrored state (zero mean, equal grids, equal
    diagonal and exactly negated cross entries, as in phase-insensitive standard
    form) takes it rotated 180 degrees and skips its chi and one GEMM.  Its chi is
    the first one's with the columns reversed and its kernel the first one's with
    the rows reversed, so each entry is the same terms summed in the same order.
    """
    previous = _mirror_slot.pop() if _mirror_slot else (None, None)
    if variables not in ("q", "p"):
        raise InvalidArgumentError(f"variables must be 'q' or 'p', got {variables!r}")
    grid = default_grid(state)
    inner = _integration_grid(state, variables, grid.n)
    cols = [0, 2] if variables == "q" else [1, 3]
    (vxx, vxy), (vyx, vyy) = state.cm[np.ix_(cols, cols)].tolist()
    zero_mean = not state.mean[cols].any()
    mirror = ("p" if variables == "q" else "q", grid, inner, vxx, -vxy, -vyx, vyy)
    reused = zero_mean and previous[0] == mirror
    product = previous[1] if reused else None
    del previous  # a product not taken is freed before chi is made
    # Midpoint lattices are odd, x[n-1-i] == -x[i] and u[n-1-j] == -u[j]
    # exactly, so the exp arguments repeat: the q kernel K is its own 180
    # degree rotation and the p kernel exp(+i sqrt(2) x u^T) is K[::-1].
    # The cached half is made before chi, so that it does not land among
    # chi's freed temporaries: made after them, peak RSS of a verify run rose
    # by about 2 MB.
    half = _half_kernel(grid, inner)
    chi = None if reused else _cf_grid(state, variables, inner.axis)
    halves = (half, half[::-1, ::-1]) if variables == "q" else (half[:, ::-1], half[::-1])
    phase = np.concatenate(halves)
    if reused:  # rotated in place, C-contiguous, so the second GEMM is the usual call
        rows = grid.n // 2
        bottom = product[rows - 1 :: -1, ::-1].copy()
        product[:rows] = product[rows:][::-1, ::-1]
        product[rows:] = bottom
    else:
        product = phase @ chi
    table = product @ phase.T
    if zero_mean and not reused:  # only after its last use: another thread may take it
        _mirror_slot.append(((variables, grid, inner, vxx, vxy, vyx, vyy), product))
    table *= inner.spacing**2 / (2.0 * math.pi**2)
    worst_imag = abs(max(float(table.imag.max()), -float(table.imag.min())))  # abs: NaN stays, -0 is +0
    table = table.real
    if worst_imag > RINGING_TOL or float(table.min()) < -RINGING_TOL:
        raise GridResolutionError(
            f"CF inversion artifacts exceed tolerance (imag {worst_imag:.3e}, min {table.min():.3e})"
        )
    mass = float(table.sum()) * grid.spacing**2
    if abs(mass - 1.0) > NORMALIZATION_TOL:
        raise GridResolutionError(f"reconstructed PDF integrates to {mass:.9f}, not 1")
    return table, grid


def numeric_inferred_variance(table: np.ndarray, grid: Grid2D, direction: str = "a_to_b") -> float:
    """Minimum over (lam, d) of E[(x_out - d + lam x_in)^2] on a tabulated joint PDF.

    Solved through the normal equations on Riemann-sum moments; 'a_to_b'
    infers variable 2 from variable 1.
    """
    if direction not in ("a_to_b", "b_to_a"):
        raise InvalidArgumentError(f"direction must be 'a_to_b' or 'b_to_a', got {direction!r}")
    x = grid.axis
    w = table * grid.spacing**2
    m_in, m_out = (0, 1) if direction == "a_to_b" else (1, 0)
    marginals = [w.sum(axis=1 - k) for k in (0, 1)]
    mean = [float((m * x).sum()) for m in marginals]
    xx = [float((m * x * x).sum()) for m in marginals]
    cross = float(x @ w @ x)
    var_in = xx[m_in] - mean[m_in] ** 2
    if var_in <= 0.0:
        raise DegenerateInputError("tabulated conditioning marginal is degenerate")
    cov = cross - mean[0] * mean[1]
    return float(xx[m_out] - mean[m_out] ** 2 - cov * cov / var_in)


def numeric_entropy(table: np.ndarray, grid: Grid2D, kind: str = "joint") -> float:
    """Riemann-sum differential entropy of a tabulated PDF.

    kind 'joint' uses the full 2D table with measure h^2; 'marginal' first
    integrates out the second variable and uses measure h.
    """
    if kind not in ("joint", "marginal"):
        raise InvalidArgumentError(f"kind must be 'joint' or 'marginal', got {kind!r}")
    if float(np.min(table)) < -RINGING_TOL:
        raise GridResolutionError("PDF table has negative cells beyond ringing tolerance")
    h = grid.spacing
    p = table.sum(axis=1) * h if kind == "marginal" else table
    p = p[p > 0.0]  # the cells that clipping the ringing to 0 would leave nonzero, gathered once
    value = -(p * np.log(p)).sum() * h
    return float(value if kind == "marginal" else value * h)


def numeric_conditional_entropy_sum(state: TwoModeGaussianState, direction: str = "a_to_b") -> float:
    """H(X_out|X_in) + H(P_out|P_in) built purely from reconstructed PDFs."""
    total = 0.0
    for variables in ("q", "p"):
        table, grid = pdf_from_cf(state, variables)
        if direction == "b_to_a":
            table = table.T
        joint = numeric_entropy(table, grid, "joint")
        marginal = numeric_entropy(table, grid, "marginal")
        total += joint - marginal
    return total


_FD_STEP = 1e-4


def _cf_on_axis(state: TwoModeGaussianState, shifts: dict[int, float]) -> complex:
    args = [0.0, 0.0, 0.0, 0.0]
    for k, v in shifts.items():
        args[k] = v
    return cf_eval(state, CfPoint(*args))


# CF variable paired with each phase-space component of (Q1, P1, Q2, P2),
# and the sign of the pairing: Q_l couples to +p_l, P_l to -q_l.
_CONJUGATE = {0: (1, +1.0), 1: (0, -1.0), 2: (3, +1.0), 3: (2, -1.0)}


def numeric_first_moment(state: TwoModeGaussianState, index: int) -> float:
    """<x_index> by Richardson-extrapolated central differences of the CF."""
    var, sign = _CONJUGATE[index]

    def deriv(h: float) -> float:
        chi_p = _cf_on_axis(state, {var: h})
        chi_m = _cf_on_axis(state, {var: -h})
        return ((chi_p - chi_m) / (2.0 * h) / 1j).real

    d1, d2 = deriv(_FD_STEP), deriv(_FD_STEP / 2.0)
    return sign * (4.0 * d2 - d1) / 3.0


def numeric_second_moment(state: TwoModeGaussianState, i: int, j: int) -> float:
    """Symmetrized raw second moment <x_i x_j> from CF derivatives at the origin."""
    vi, si = _CONJUGATE[i]
    vj, sj = _CONJUGATE[j]

    if vi == vj:

        def deriv(h: float) -> float:
            chi_p = _cf_on_axis(state, {vi: h})
            chi_0 = _cf_on_axis(state, {})
            chi_m = _cf_on_axis(state, {vi: -h})
            return -((chi_p - 2.0 * chi_0 + chi_m) / (h * h)).real

    else:

        def deriv(h: float) -> float:
            pp = _cf_on_axis(state, {vi: h, vj: h})
            pm = _cf_on_axis(state, {vi: h, vj: -h})
            mp = _cf_on_axis(state, {vi: -h, vj: h})
            mm = _cf_on_axis(state, {vi: -h, vj: -h})
            return -((pp - pm - mp + mm) / (4.0 * h * h)).real

    d1, d2 = deriv(_FD_STEP), deriv(_FD_STEP / 2.0)
    return si * sj * (4.0 * d2 - d1) / 3.0


def numeric_moments(state: TwoModeGaussianState) -> tuple[np.ndarray, np.ndarray]:
    """(mean vector, covariance matrix) recovered entirely from the CF."""
    mean = np.array([numeric_first_moment(state, k) for k in range(4)])
    cm = np.empty((4, 4))
    for i in range(4):
        for j in range(i, 4):
            cm[i, j] = cm[j, i] = numeric_second_moment(state, i, j) - mean[i] * mean[j]
    return mean, cm


def numeric_symplectic(cm: np.ndarray):
    """Symplectic eigenvalues by dense eigendecomposition of Omega @ cm.

    Eigenvalues come in +-(i nu) pairs; their moduli are paired up and the two
    distinct values returned sorted descending: a tuple of floats for one
    matrix, arrays (nu1, nu2) for a (..., 4, 4) stack, which raises if any
    member fails a check.  The moduli-pairing check is reachable only through
    a patched eigensolver: ``np.linalg.eigvals`` of a real matrix returns exact
    conjugate pairs, and real eigenvalues fail the purely-imaginary check first.
    """
    cm = np.asarray(cm, dtype=float)
    if cm.ndim < 2 or cm.shape[-2:] != (4, 4):
        raise InvalidArgumentError(f"expected a 4x4 matrix, got shape {cm.shape}")
    if np.max(np.abs(cm - cm.mT)) > 1e-9:
        raise InvalidArgumentError("matrix is not symmetric")
    eigs = np.linalg.eigvals(SYMPLECTIC_FORM @ cm)
    if _any(np.max(np.abs(eigs.real), axis=-1) > 1e-8 * np.max(np.abs(eigs), axis=-1)):
        raise NumericalPairingError("eigenvalues of Omega V are not purely imaginary")
    mods = np.sort(np.abs(eigs.imag), axis=-1)
    # Pairs (mods[0], mods[1]) and (mods[2], mods[3]) of each member.
    first, second = mods[..., 0::2], mods[..., 1::2]
    unpaired = (np.abs(first - second) > 1e-8 * np.maximum(1.0, second)).any(axis=-1)
    if _any(unpaired):
        raise NumericalPairingError(f"symplectic moduli failed to pair: {mods[unpaired][0]}")
    nu2, nu1 = np.moveaxis(0.5 * (first + second), -1, 0)
    if cm.ndim == 2:
        return float(nu1), float(nu2)
    return nu1, nu2
