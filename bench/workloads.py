"""The four workloads: seeded CLI argument vectors (and state files) per pass.

Why each workload exists:

* ``sweep``     the per-state path: the six figure presets plus seeded generic
                sweeps over every channel kind and side.  No bisection, no
                oracle.  The only bulk path through ``steering_report`` and
                hence ``criteria``.
* ``threshold`` ``verify thresholds`` plus seeded ``threshold --quantity all``
                tables.  Each bisected root is an 800-point scan of scalar
                evolve+measure calls plus a few ``brentq`` steps.
* ``verify``    the five oracle suites (CF inversion, finite differences,
                dense eigensolvers).  No channel scans, no bisection.
* ``point``     single-state ``eval`` calls, half from flags and half from
                ``--state`` files: the N = 1 path where argparse, JSON and one
                validation dominate.

Draws are never filtered or re-drawn: every range below is admissible by
construction.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .ops import Op

WORKLOADS = ("sweep", "threshold", "verify", "point")
DEFAULT_SEED = 1

FIGURES = ("1", "2a", "2b", "3", "4", "5")
SUITES = ("pdf", "inferred-variance", "entropy", "moments", "symplectic")
CHANNELS = ("loss", "gain", "thermal", "laser", "phase-sensitive")
SIDES = ("a", "b", "two")
THRESHOLD_CHANNELS = ("loss", "gain", "thermal", "laser")

SWEEP_STEPS = 41
TABLES_PER_CHANNEL = 1
POINT_FLAG_EVALS = 50
POINT_STATE_EVALS = 50
# Bisected roots computed by ``cvsteer verify thresholds`` on its built-in grid
# (the traced run counts them as numeric_threshold calls).
VERIFY_THRESHOLD_ROOTS = 49

# Swept variables per channel kind, and the duration flag used when the swept
# variable is not a duration.
_SWEEP_VARS = {
    "loss": ("kt", "one-minus-T", "r"),
    "gain": ("gt", "t", "r"),
    "thermal": ("kt", "one-minus-T", "nbar"),
    "laser": ("kt", "t", "r"),
    "phase-sensitive": ("kt", "one-minus-T", "r"),
}
_DURATION_FLAG = {"gain": "--gt"}
# (start, stop) of each swept variable; a (low, high) stop is drawn uniformly.
# Durations are dimensionless products (kappa t, g t) except the absolute t,
# whose range keeps g t <= 1.5 like the others for rates up to 3.
_SWEEP_SPAN = {
    "kt": (0.0, (0.2, 1.5)),
    "gt": (0.0, (0.2, 1.5)),
    "t": (0.0, (0.05, 0.5)),
    "one-minus-T": (0.0, 0.95),
    "r": (0.05, 1.5),
    "nbar": (0.0, 1.5),
}


def _num(x: float) -> str:
    return f"{x:.6g}"


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _rate_flags(rng: np.random.Generator, kind: str) -> list[str]:
    """Channel rates: g, kappa in [0.1, 3] with g/kappa in [0.1, 3] for the
    laser, nbar in [0, 1.5] and real bath squeezing |M|^2 <= nbar (nbar + 1)."""
    if kind == "gain":
        return ["--g", _num(rng.uniform(0.1, 3.0))]
    kappa = rng.uniform(0.1, 3.0)
    flags = ["--kappa", _num(kappa)]
    if kind == "laser":
        flags += ["--g", _num(kappa * rng.uniform(0.1, 3.0))]
    if kind in ("thermal", "phase-sensitive"):
        nbar = rng.uniform(0.0, 1.5)
        flags += ["--nbar", _num(nbar)]
        if kind == "phase-sensitive":
            # 0.999 keeps |M| admissible after rounding to 6 digits.
            flags += ["--M", _num(rng.uniform(-1.0, 1.0) * math.sqrt(nbar * (nbar + 1.0)) * 0.999)]
    return flags


def _sweep_ops(rng: np.random.Generator) -> list[Op]:
    ops = [Op(f"sweep/figure-{fig}", ("sweep", "--figure", fig), "csv", seeded=False) for fig in FIGURES]
    for kind in CHANNELS:
        for side in SIDES:
            var = _SWEEP_VARS[kind][int(rng.integers(3))]
            start, stop = _SWEEP_SPAN[var]
            if isinstance(stop, tuple):
                stop = rng.uniform(*stop)
            argv = ["sweep", "--var", var, "--start", _num(start), "--stop", _num(stop), "--steps", str(SWEEP_STEPS)]
            argv += ["--channel", kind, "--side", side, "--r", _num(rng.uniform(0.2, 1.5))]
            argv += _rate_flags(rng, kind)
            if var in ("r", "nbar"):
                argv += [_DURATION_FLAG.get(kind, "--kt"), _num(rng.uniform(0.0, 1.0))]
            ops.append(Op(f"sweep/{kind}-{side}", tuple(argv), "csv", seeded=True, rows=SWEEP_STEPS))
    return ops


def _threshold_ops(rng: np.random.Generator) -> list[Op]:
    ops = [Op("threshold/verify-thresholds", ("verify", "thresholds"), "verify", seeded=False, outputs=VERIFY_THRESHOLD_ROOTS)]
    for kind in THRESHOLD_CHANNELS:
        for k in range(TABLES_PER_CHANNEL):
            argv = ["threshold", "--channel", kind, "--r", _num(rng.uniform(0.2, 1.5))]
            argv += _rate_flags(rng, kind) + ["--quantity", "all", "--format", "json"]
            ops.append(Op(f"threshold/{kind}-{k}", tuple(argv), "threshold", seeded=True))
    return ops


def _verify_ops() -> list[Op]:
    return [Op(f"verify/{suite}", ("verify", suite), "verify", seeded=False, outputs=1) for suite in SUITES]


def _point_ops(rng: np.random.Generator, state_dir: Path, root: Path, random_state) -> list[Op]:
    ops = []
    for i in range(POINT_FLAG_EVALS):
        kind, side = CHANNELS[i % len(CHANNELS)], SIDES[(i // len(CHANNELS)) % len(SIDES)]
        # Absolute duration t in [0, 0.5] keeps g t <= 1.5 for rates up to 3.
        argv = ["eval", "--r", _num(rng.uniform(0.05, 1.5)), "--channel", kind, "--side", side]
        argv += _rate_flags(rng, kind) + ["--t", _num(rng.uniform(0.0, 0.5))]
        ops.append(Op(f"point/flags-{i:03d}", tuple(argv), "eval", seeded=True))
    state_dir.mkdir(parents=True, exist_ok=True)
    for i in range(POINT_STATE_EVALS):
        state = random_state(rng, with_mean=True)
        path = state_dir / f"state-{i:03d}.json"
        path.write_text(json.dumps({"mean": state.mean.tolist(), "cm": state.cm.tolist()}))
        rel = path.relative_to(root).as_posix()
        ops.append(Op(f"point/state-{i:03d}", ("eval", "--state", rel), "eval", seeded=True))
    return ops


def build(workload: str, seed: int, root: Path, scratch: Path) -> list[Op]:
    """The ops of one pass of ``workload`` at ``seed``; ``point`` writes its
    state files under ``scratch`` (inside the checkout ``root``)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = _rng(workload, seed)
    if workload == "sweep":
        return _sweep_ops(rng)
    if workload == "threshold":
        return _threshold_ops(rng)
    if workload == "verify":
        return _verify_ops()
    from cvsteer.verify import random_physical_state

    return _point_ops(rng, scratch / f"point-states-seed{seed}", root, random_physical_state)


# The op run once during set-up, so lazy imports and caches are warm before timing.
WARMUP = {
    "sweep": "sweep/loss-a",
    "threshold": "threshold/loss-0",
    "verify": "verify/moments",
    "point": "point/flags-000",
}
