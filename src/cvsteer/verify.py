"""Cross-validation suites: closed forms against the brute-force oracle.

Each suite makes a (deviation, case) pair per check on a standard grid;
``_worst`` keeps the first largest, or a NaN, and compares it with the suite
tolerance.  The CF suites (pdf, inferred-variance, entropy) share one walk,
``_cf_suites``, that inverts each family state's q and p tables once, so
``verify all`` inverts 24 tables, as does each CF suite alone.  Used by
``cvsteer verify`` and by the acceptance tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .channels import (
    ChannelSide,
    ChannelSpec,
    LaserChannelParams,
    PhaseSensitiveParams,
    apply_laser,
    apply_phase_sensitive,
    thermal_preset,
)
from .criteria import SteeringDirection, entropic_sum, reid_inferred_variance, Quadrature
from .errors import InvalidArgumentError
from .measures import _THRESHOLD_REL_TOL, _threshold_rows
from .states import (
    SYMPLECTIC_FORM,
    ModeLabel,
    TwoModeGaussianState,
    _partial_transpose_cms,
    _validate_cms,
    make_tmsv,
    symplectic_eigenvalues,
)

__all__ = ["SuiteResult", "SUITES", "run_suites", "random_physical_state"]

@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_deviation: float
    tolerance: float
    worst_case: str

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tolerance


def _worst(name: str, tolerance: float, deviations) -> SuiteResult:
    """The first largest (deviation, case) pair, or the first NaN one, so that a broken check fails."""
    worst, worst_case = 0.0, ""
    for dev, case in deviations:
        if math.isnan(dev):
            return SuiteResult(name, math.nan, tolerance, case)
        if dev > worst:
            worst, worst_case = dev, case
    return SuiteResult(name, worst, tolerance, worst_case)


def _max_abs(*diffs) -> float:
    """The largest |entry| of the differences, NaN if any entry is NaN."""
    return float(np.max([np.max(np.abs(d)) for d in diffs]))


def random_physical_state(rng: np.random.Generator, *, with_mean: bool = False) -> TwoModeGaussianState:
    """Random two-mode Gaussian state via a Williamson construction.

    V = S diag(nu1, nu1, nu2, nu2) S^T with S = expm(Omega H) symplectic for
    symmetric H, so physicality holds by construction.
    """
    means, cms, det_v = _random_physical_cms(rng, 1, with_mean=with_mean)
    return TwoModeGaussianState._validated(means[0], cms[0], float(det_v[0]))


def _random_physical_cms(rng: np.random.Generator, n: int, *, with_mean: bool = False):
    """(means, cms, det_v) of n ``random_physical_state`` draws, as an (n, 4)
    array, a validated (n, 4, 4) stack and its det V, bit for bit the states
    of n calls in a row.

    The draws keep the per-state order (H, then nu, then the mean); the
    matrix work is done once on the stack.  scipy.linalg is imported here,
    not with the module, so that only the random states pay for it.
    """
    from scipy.linalg import expm

    hs, nus, means = np.empty((n, 4, 4)), np.empty((n, 2)), np.zeros((n, 4))
    for k in range(n):
        hs[k] = rng.normal(scale=0.35, size=(4, 4))
        nus[k] = rng.uniform(1.0, 3.0, size=2)
        if with_mean:
            means[k] = rng.normal(scale=1.0, size=4)
    s = expm(SYMPLECTIC_FORM @ (hs + hs.mT))
    d = np.zeros((n, 4, 4))
    d[:, range(4), range(4)] = np.repeat(nus, 2, axis=1)
    return (means, *_validate_cms(s @ d @ s.mT))


def _decohered_family():
    """(label, state, B, C) for the two-side laser family on the standard grid."""
    cases = [(f"tmsv r={r}", make_tmsv(r), math.cosh(2 * r), math.sinh(2 * r)) for r in (0.3, 0.5, 0.88)]
    r = 0.5
    for kt in (0.1, 0.3, 0.6):
        for label, params in (
            ("loss", LaserChannelParams(0.0, 1.0, kt)),
            ("thermal nbar=1", thermal_preset(1.0, 1.0, kt)),
            ("gain", LaserChannelParams(1.0, 0.0, 0.25 * kt)),
        ):
            state = apply_laser(make_tmsv(r), params, ChannelSide.BOTH)
            b = params.noise + params.survival * math.cosh(2 * r)
            c = params.survival * math.sinh(2 * r)
            cases.append((f"{label} r={r} t={params.t}", state, b, c))
    return cases


def _closed_form_joint_pdf(x: np.ndarray, b: float, c: float, variables: str) -> np.ndarray:
    # P(x1, x2) = exp(-[B(x1^2+x2^2) -+ 2C x1 x2]/(B^2-C^2)) / (pi sqrt(B^2-C^2)), the
    # momentum pair flipping the correlation term; x is odd, so the top rows are mirrored.
    sign = 1.0 if variables == "q" else -1.0
    x1, x2 = np.meshgrid(x[: len(x) // 2], x, indexing="ij")
    det = b * b - c * c
    top = np.exp(-(b * (x1**2 + x2**2) - sign * 2.0 * c * x1 * x2) / det) / (math.pi * math.sqrt(det))
    return np.concatenate((top, top[::-1, ::-1]))


def _pdf_deviations(label, state, b, c, tables):
    for variables, (table, grid) in tables.items():
        yield _max_abs(table - _closed_form_joint_pdf(grid.axis, b, c, variables)), f"{label} [{variables}]"


def _inferred_variance_deviations(label, state, b, c, tables):
    closed = (b * b - c * c) / (2.0 * b)
    for variables, (table, grid) in tables.items():
        numeric = oracle.numeric_inferred_variance(table, grid, "a_to_b")
        module_value = reid_inferred_variance(state, SteeringDirection.A_TO_B, Quadrature(variables))
        yield _max_abs(numeric - closed, numeric - module_value), f"{label} [{variables}]"


def _entropy_deviations(label, state, b, c, tables):
    det = b * b - c * c
    closed = {"joint": math.log(math.e * math.pi * math.sqrt(det)), "marginal": 0.5 * math.log(math.pi * math.e * b)}
    cond_sum = 0.0
    for variables, (table, grid) in tables.items():
        numeric = {part: oracle.numeric_entropy(table, grid, part) for part in closed}
        cond_sum += numeric["joint"] - numeric["marginal"]
        for part, value in numeric.items():
            yield abs(value - closed[part]), f"{label} [{variables} {part}]"
    yield abs(cond_sum - math.log(math.pi * math.e * det / b)), f"{label} [conditional-sum]"
    yield abs(cond_sum - entropic_sum(state, SteeringDirection.A_TO_B)), f"{label} [entropic-criterion]"


# name -> (tolerance, one family state's (deviation, case) pairs), in SUITES order.
_CF_SUITES = {
    "pdf": (1e-7, _pdf_deviations),
    "inferred-variance": (1e-6, _inferred_variance_deviations),
    "entropy": (1e-5, _entropy_deviations),
}


def _cf_suites(names) -> list[SuiteResult]:
    """The named CF suites from one walk over ``_decohered_family``: each state's
    q and p tables are inverted once, shared, and kept until the next state's
    replace them (freeing them first doubles the next inversion's page faults)."""
    deviations = {name: [] for name in names}
    for label, state, b, c in _decohered_family():
        tables = {variables: oracle.pdf_from_cf(state, variables) for variables in ("q", "p")}
        for name in names:
            deviations[name] += _CF_SUITES[name][1](label, state, b, c, tables)
    return [_worst(name, _CF_SUITES[name][0], deviations[name]) for name in names]


def _cf_suite(name: str) -> SuiteResult:
    return _cf_suites((name,))[0]


def _moment_states():
    yield "tmsv r=0.3", make_tmsv(0.3)
    yield "tmsv r=3", make_tmsv(3.0)
    yield "one-side laser", apply_laser(make_tmsv(0.8), LaserChannelParams(0.4, 1.0, 0.3), ChannelSide.B)
    params = PhaseSensitiveParams(kappa=1.0, nbar=1.0, m=1.0 + 0.4j, t=0.3)
    yield "phase-sensitive", apply_phase_sensitive(make_tmsv(0.6), params, ChannelSide.B)
    yield "displaced tmsv", TwoModeGaussianState([0.3, -0.2, 0.1, 0.4], make_tmsv(0.5).cm)


def _suite_moments() -> SuiteResult:
    deviations = []
    for label, state in _moment_states():
        mean, cm = oracle.numeric_moments(state)
        deviations.append((_max_abs(mean - state.mean, cm - state.cm), label))
    return _worst("moments", 1e-7, deviations)


def _suite_symplectic() -> SuiteResult:
    _, cms, _ = _random_physical_cms(np.random.default_rng(20240817), 1000)
    # Sample k's matrix and its partial transpose are rows 2k and 2k + 1, so
    # the first maximum is the worst case a per-sample loop would report.
    stack = np.stack([cms, _partial_transpose_cms(cms, ModeLabel.B)], axis=1).reshape(-1, 4, 4)
    closed = symplectic_eigenvalues(stack)
    numeric = oracle.numeric_symplectic(stack)
    dev = np.maximum(np.abs(closed[0] - numeric[0]), np.abs(closed[1] - numeric[1]))
    worst = int(np.argmax(dev))  # the first maximum, or the first NaN
    k, is_pt = divmod(worst, 2)
    return _worst("symplectic", 1e-9, [(float(dev[worst]), f"sample {k} [{'pt' if is_pt else 'cm'}]")])


def _threshold_results():
    """The grid's rows; each r's are rooted together, as ``threshold_table`` does."""
    laser = lambda g, kappa, side=ChannelSide.BOTH: ChannelSpec("laser", side, g=g, kappa=kappa)
    for r in (0.3, 0.5, 1.0):
        rates = ((0.0, 1.0), (1.0, 0.0), (0.5, 1.0), (1.0, 1.0), (2.0, 1.0))
        rows = [(laser(g, kappa), "two-way") for g, kappa in rates]
        for g, kappa in ((0.0, 1.0), (1.0, 0.0), (0.5, 1.0)):
            rows += [(laser(g, kappa, ChannelSide.B), "a_to_b"), (laser(g, kappa, ChannelSide.B), "b_to_a")]
        for g, kappa, side in ((1.0, 0.0, ChannelSide.BOTH), (0.5, 1.0, ChannelSide.BOTH), (0.5, 1.0, ChannelSide.B)):
            rows.append((laser(g, kappa, side), "inseparability"))
        yield from _threshold_rows(rows, r)
    for nbar, r in ((0.0, 0.5), (0.2, 0.8), (0.5, 1.0)):
        rows = [(ChannelSpec("thermal", kappa=1.0, nbar=nbar), "two-way")]
        preset = thermal_preset(1.0, nbar, 0.0)
        if nbar > 0:
            for side in (ChannelSide.BOTH, ChannelSide.B):
                rows.append((laser(preset.g, preset.kappa, side), "inseparability"))
        yield from _threshold_rows(rows, r)


def _suite_thresholds() -> SuiteResult:
    deviations = ((res.relative_gap, f"{res.channel.describe()} {res.direction}") for res in _threshold_results())
    return _worst("thresholds", _THRESHOLD_REL_TOL, deviations)


SUITES = {
    **{name: functools.partial(_cf_suite, name) for name in _CF_SUITES},
    "moments": _suite_moments,
    "symplectic": _suite_symplectic,
    "thresholds": _suite_thresholds,
}


def run_suites(name: str) -> list[SuiteResult]:
    """The named suite's result, or every suite's in SUITES order for "all"."""
    if name == "all":  # the CF suites come first in SUITES and share one walk
        return _cf_suites(_CF_SUITES) + [suite() for key, suite in SUITES.items() if key not in _CF_SUITES]
    if name not in SUITES:
        raise InvalidArgumentError(f"unknown suite {name!r}; expected one of {sorted(SUITES)} or 'all'")
    return [SUITES[name]()]
