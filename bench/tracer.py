"""In-memory span tracer for the cvsteer layers, installed from outside the package.

While a ``Tracer`` is active, every import site of each traced function (a
module global, a class attribute or an entry of ``cvsteer.verify.SUITES``) is
replaced by a timing wrapper, so calls made through ``from .x import f``
bindings are seen too.  Leaving the context restores every replaced value.
Nothing under ``src/`` is edited.

A span is (layer name, start, end, parent span).  A call into the layer that
is already the innermost open span is folded into that span, so
``ChannelSpec.evolve -> apply_laser`` is one ``channels.evolve`` span and
``steering_report -> gaussian_steerability`` one quantifier span.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

import numpy as np

# Layer span name -> traced callables, as "module:attribute" or
# "module:Class.method" relative to the cvsteer package.
LAYERS = {
    "states.construct": ("states:TwoModeGaussianState.__init__",),
    "states.symplectic": ("states:symplectic_eigenvalues",),
    "states.other": (
        "states:make_tmsv",
        "states:vacuum",
        "states:partial_transpose",
        "states:cf_eval",
        "states:TwoModeGaussianState.swapped",
    ),
    "channels.evolve": (
        "channels:ChannelSpec.evolve",
        "channels:apply_laser",
        "channels:apply_phase_sensitive",
    ),
    "criteria": (
        "criteria:reid_estimate",
        "criteria:reid_inferred_variance",
        "criteria:reid_product",
        "criteria:entropic_sum",
        "criteria:is_steerable",
    ),
    "measures.quantifier": (
        "measures:steering_report",
        "measures:gaussian_steerability",
        "measures:steerability_exponent",
        "measures:log_negativity",
        "measures:log_negativity_exponent",
    ),
    "measures.closed_form": (
        "measures:two_way_laser_threshold",
        "measures:two_way_thermal_threshold",
        "measures:one_side_thresholds",
        "measures:inseparability_threshold",
    ),
    "measures.scan": ("measures:numeric_threshold",),
    "measures.brentq": ("measures:brentq",),
    "oracle.pdf": ("oracle:pdf_from_cf",),
    "oracle.inferred_variance": ("oracle:numeric_inferred_variance",),
    "oracle.entropy": ("oracle:numeric_entropy", "oracle:numeric_conditional_entropy_sum"),
    "oracle.moments": ("oracle:numeric_moments", "oracle:numeric_first_moment", "oracle:numeric_second_moment"),
    "oracle.symplectic": ("oracle:numeric_symplectic",),
    "verify.random_state": ("verify:random_physical_state",),
    "cli": ("cli:main",),
}
# Each entry of cvsteer.verify.SUITES is traced as "verify.<suite name>".
SUITE_PREFIX = "verify."


def _pdf_note(args, kwargs, result):
    """Identity of a CF-inversion table (state, variables, grid) and its grid size."""
    state, variables = args[0], args[1] if len(args) > 1 else kwargs["variables"]
    table, grid = result
    key = (state.mean.tobytes(), state.cm.tobytes(), variables, grid.length, grid.n)
    return key, grid.n


NOTES = {"oracle.pdf": _pdf_note}


def _resolve(target: str):
    """(owner, attribute, original) for a "module:attr" or "module:Class.attr" target."""
    module_name, _, path = target.partition(":")
    owner = sys.modules[f"cvsteer.{module_name}"]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = vars(owner)[attr]
    return owner, attr, original


class Tracer:
    """Context manager that wraps the layers of an imported cvsteer and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.notes: dict[int, object] = {}

    def reset(self) -> None:
        """Drop recorded spans in place (the wrapping stays installed)."""
        for arr in (self.name_ids, self.starts, self.ends, self.parents):
            del arr[:]
        self.notes.clear()
        self._stack.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` that records a ``name`` span around each outermost call."""
        nid = self._name_id(name)
        note = NOTES.get(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and name_ids[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install(self) -> None:
        import cvsteer.verify

        wrappers = {}
        for name, targets in LAYERS.items():
            for target in targets:
                owner, attr, original = _resolve(target)
                if isinstance(owner, type):
                    self._patch(owner, attr, self.wrap(name, original))
                else:
                    wrappers[id(original)] = (original, self.wrap(name, original))
        # Replace every module-level binding of a traced function, in every
        # cvsteer module, so re-exports and ``from`` imports are covered.
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "cvsteer" or mod_name.startswith("cvsteer.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        suites = cvsteer.verify.SUITES
        for suite, fn in list(suites.items()):
            self._patches.append((suites, suite, fn))
            suites[suite] = self.wrap(SUITE_PREFIX + suite, fn)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def arrays(self):
        """(name ids, start, end, parent) of the recorded spans as numpy arrays."""
        return (
            np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            np.frombuffer(self.starts, dtype=np.float64).copy(),
            np.frombuffer(self.ends, dtype=np.float64).copy(),
            np.frombuffer(self.parents, dtype=np.int64).copy(),
        )

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped CSV; ``root`` is the op's top-level span."""
        name_ids, starts, ends, parents = self.arrays()
        roots = _roots(parents)
        t0 = starts[0] if len(starts) else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("span,name,start_s,end_s,parent,root\n")
            for i in range(len(starts)):
                fh.write(
                    f"{i},{self.names[name_ids[i]]},{starts[i] - t0:.9f},{ends[i] - t0:.9f},{parents[i]},{roots[i]}\n"
                )


def self_times(starts, ends, parents) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    starts, ends, parents = (np.asarray(a) for a in (starts, ends, parents))
    dur = ends - starts
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    return dur - child


def _roots(parents) -> list[int]:
    # Parents always precede their children, so one forward pass suffices.
    roots = [0] * len(parents)
    for i, p in enumerate(parents):
        roots[i] = i if p < 0 else roots[p]
    return roots


def _nearest(name_ids, parents, wanted: set[int]) -> np.ndarray:
    """For each span, the name id of its nearest ancestor-or-self in ``wanted`` (-1 if none)."""
    ctx = np.full(len(parents), -1, dtype=np.int64)
    for i, (nid, p) in enumerate(zip(name_ids.tolist(), parents.tolist())):
        ctx[i] = nid if nid in wanted else (ctx[p] if p >= 0 else -1)
    return ctx


def summarize(tracer: Tracer) -> dict:
    """Per-layer totals of the recorded spans.

    Returns ``{"calls": {name: n}, "self_s": {name: s}, "total_s": {name: s},
    "spans": n, "self_sum_s": s, "scan_evals": n, "brentq_evals": n,
    "pdf_keys": [...], "pdf_sizes": [...]}``.
    """
    name_ids, starts, ends, parents = tracer.arrays()
    n_names = len(tracer.names)
    own = self_times(starts, ends, parents)
    calls = np.bincount(name_ids, minlength=n_names)
    self_s = np.bincount(name_ids, weights=own, minlength=n_names)
    total_s = np.bincount(name_ids, weights=ends - starts, minlength=n_names)
    ids = tracer._name_ids
    scan, brentq, evolve = ids["measures.scan"], ids["measures.brentq"], ids["channels.evolve"]
    # Every evaluation of a threshold's signed quantity evolves the state once,
    # so evolve spans under the scan (or under brentq) count its evaluations.
    ctx = _nearest(name_ids, parents, {scan, brentq})
    is_evolve = name_ids == evolve
    notes = [tracer.notes[i] for i in sorted(tracer.notes)]
    return {
        "calls": {n: int(calls[i]) for i, n in enumerate(tracer.names)},
        "self_s": {n: float(self_s[i]) for i, n in enumerate(tracer.names)},
        "total_s": {n: float(total_s[i]) for i, n in enumerate(tracer.names)},
        "spans": int(len(starts)),
        "self_sum_s": float(own.sum()),
        "scan_evals": int(np.count_nonzero(is_evolve & (ctx == scan))),
        "brentq_evals": int(np.count_nonzero(is_evolve & (ctx == brentq))),
        "pdf_keys": [key for key, _ in notes],
        "pdf_sizes": [n for _, n in notes],
    }
