"""The brute-force verification path itself: sanity and error handling."""

import dataclasses
import math
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from cvsteer import oracle, verify
from cvsteer.cli import main
from cvsteer.errors import GridResolutionError, InvalidArgumentError, NumericalPairingError
from cvsteer.oracle import (
    Grid2D,
    _cf_grid,
    _integration_grid,
    default_grid,
    numeric_conditional_entropy_sum,
    numeric_entropy,
    numeric_inferred_variance,
    numeric_moments,
    numeric_symplectic,
    pdf_from_cf,
)
from cvsteer.states import (
    SYMPLECTIC_FORM,
    ModeLabel,
    TwoModeGaussianState,
    _partial_transpose_cms,
    make_tmsv,
    partial_transpose,
    symplectic_eigenvalues,
    vacuum,
)
from cvsteer.verify import (
    SUITES,
    SuiteResult,
    _decohered_family,
    _moment_states,
    _random_physical_cms,
    _suite_symplectic,
    random_physical_state,
    run_suites,
)


def test_grid_properties():
    grid = Grid2D(length=4.0, n=8)
    assert grid.spacing == 1.0
    assert np.allclose(grid.axis, [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5])
    with pytest.raises(InvalidArgumentError):
        Grid2D(length=4.0, n=100)  # not a power of two
    with pytest.raises(InvalidArgumentError):
        Grid2D(length=-1.0)


def test_default_grid_scales_with_state():
    small = default_grid(vacuum())
    big = default_grid(make_tmsv(1.5))
    assert big.length > small.length


def test_pdf_normalization_and_positivity():
    table, grid = pdf_from_cf(make_tmsv(0.5), "q")
    mass = table.sum() * grid.spacing**2
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert table.min() > -1e-9
    with pytest.raises(InvalidArgumentError):
        pdf_from_cf(make_tmsv(0.5), "x")


def test_vacuum_pdf_is_standard_gaussian():
    # With the sqrt(2) eigenvalue scaling the vacuum marginal has variance 1/2.
    table, grid = pdf_from_cf(vacuum(), "q")
    x = grid.axis
    marginal = table.sum(axis=1) * grid.spacing
    expected = np.exp(-(x**2)) / math.sqrt(math.pi)
    assert np.max(np.abs(marginal - expected)) < 1e-9


def test_numeric_inferred_variance_directions():
    table, grid = pdf_from_cf(make_tmsv(0.6), "q")
    # The raw second-moment form on the sqrt(2)-scaled table equals the
    # minimized (1/2)[V - E^2/V] in eigenvalue units, here 1/(2 cosh 2r).
    expected = 0.5 / math.cosh(1.2)
    ab = numeric_inferred_variance(table, grid, "a_to_b")
    ba = numeric_inferred_variance(table, grid, "b_to_a")
    assert ab == pytest.approx(ba, abs=1e-10)
    assert ab == pytest.approx(expected, abs=1e-8)
    with pytest.raises(InvalidArgumentError):
        numeric_inferred_variance(table, grid, "sideways")


def test_numeric_entropy_vacuum_marginal():
    table, grid = pdf_from_cf(vacuum(), "q")
    # Gaussian with variance 1/2: h = (1/2) ln(pi e).
    assert numeric_entropy(table, grid, "marginal") == pytest.approx(
        0.5 * math.log(math.pi * math.e), abs=1e-8
    )
    with pytest.raises(InvalidArgumentError):
        numeric_entropy(table, grid, "scrambled")


def test_conditional_entropy_sum_matches_closed_form():
    from cvsteer.criteria import SteeringDirection, entropic_sum

    s = make_tmsv(0.5)
    numeric = numeric_conditional_entropy_sum(s, "a_to_b")
    assert numeric == pytest.approx(entropic_sum(s, SteeringDirection.A_TO_B), abs=1e-6)


def test_conditional_entropy_sum_b_to_a_transposes_the_tables():
    from cvsteer.criteria import SteeringDirection, entropic_sum

    # One-side loss and gain make the state asymmetric, so a missing
    # transpose would give the a_to_b sum, 0.029 away.
    s = dict(_moment_states())["one-side laser"]
    expected = entropic_sum(s, SteeringDirection.B_TO_A)
    assert abs(expected - entropic_sum(s, SteeringDirection.A_TO_B)) > 1e-2
    assert numeric_conditional_entropy_sum(s, "b_to_a") == pytest.approx(expected, abs=1e-5)


def test_numeric_moments_recover_displaced_state():
    state = TwoModeGaussianState([0.3, -0.2, 0.1, 0.4], make_tmsv(0.5).cm)
    mean, cm = numeric_moments(state)
    assert np.max(np.abs(mean - state.mean)) < 1e-8
    assert np.max(np.abs(cm - state.cm)) < 1e-7


def test_numeric_symplectic_agrees_with_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(25):
        state = random_physical_state(rng)
        closed = symplectic_eigenvalues(state.cm)
        numeric = numeric_symplectic(state.cm)
        assert numeric[0] == pytest.approx(closed[0], abs=1e-9)
        assert numeric[1] == pytest.approx(closed[1], abs=1e-9)
    with pytest.raises(InvalidArgumentError):
        numeric_symplectic(np.eye(3))


def test_random_physical_state_is_physical():
    rng = np.random.default_rng(11)
    for _ in range(50):
        state = random_physical_state(rng)
        _, nu2 = symplectic_eigenvalues(state.cm)
        assert nu2 >= 1.0 - 1e-6


def test_run_suite_name_validation():
    with pytest.raises(InvalidArgumentError):
        run_suites("bogus")
    assert set(SUITES) == {
        "pdf",
        "inferred-variance",
        "entropy",
        "moments",
        "symplectic",
        "thresholds",
    }


def test_run_single_suite():
    results = run_suites("pdf")
    assert len(results) == 1
    assert results[0].name == "pdf"
    assert results[0].passed


def test_cf_grid_equals_einsum_reference():
    # The accumulated quadratic form must equal np.einsum("ni,ij,nj->n") on the
    # full (n^2, 4) eta, and the phase its matrix-vector product with the
    # mean, bit for bit, so every oracle table is unchanged.
    rng = np.random.default_rng(5)
    states = (
        [c[1] for c in _decohered_family()]
        + [s for _, s in _moment_states()]
        + [random_physical_state(rng, with_mean=True) for _ in range(3)]
    )
    for state in states:
        for variables, cols in (("q", (1, 3)), ("p", (0, 2))):
            u = _integration_grid(state, variables, 256).axis
            u1, u2 = np.meshgrid(u, u, indexing="ij")
            xi = np.zeros((u.size**2, 4))
            xi[:, cols[0]], xi[:, cols[1]] = u1.ravel(), u2.ravel()
            eta = xi @ SYMPLECTIC_FORM.T
            quad = np.einsum("ni,ij,nj->n", eta, state.cm, eta)
            expected = np.exp(-0.5 * quad) * np.exp(1j * (eta @ state.mean))
            assert np.array_equal(_cf_grid(state, variables, u), expected.reshape(u.size, u.size))


def _full_kernel(grid, inner, variables):
    """The inversion kernel exp(-+i sqrt(2) x u^T) with every entry computed."""
    kernel_sign = -1.0 if variables == "q" else +1.0
    return np.exp(kernel_sign * 1j * math.sqrt(2.0) * np.outer(grid.axis, inner.axis))


def _full_chi(state, variables, u):
    """The CF grid with every row and the unit phase of every state computed."""
    cols, axis = ((0, 2), u) if variables == "q" else ((1, 3), -u)
    eta = dict(zip(cols, (axis[:, None], axis[None, :])))
    quad = np.zeros((len(u), len(u)))
    for i in cols:
        for j in cols:
            quad += eta[i] * state.cm[i, j] * eta[j]
    phase = eta[cols[0]] * state.mean[cols[0]] + eta[cols[1]] * state.mean[cols[1]]
    return np.exp(-0.5 * quad) * np.exp(1j * phase)


def _reference_pdf_from_cf(state, variables):
    """``pdf_from_cf`` with the full kernel and the unit phase of every state
    computed, its checks included: (table, grid), or the error it raises."""
    grid = default_grid(state)
    inner = _integration_grid(state, variables, grid.n)
    chi = _full_chi(state, variables, inner.axis)
    kernel = _full_kernel(grid, inner, variables)
    table = (inner.spacing**2 / (2.0 * math.pi**2)) * (kernel @ chi @ kernel.T)
    worst_imag = float(np.max(np.abs(table.imag)))
    table = table.real
    if worst_imag > oracle.RINGING_TOL or float(table.min()) < -oracle.RINGING_TOL:
        return GridResolutionError(
            f"CF inversion artifacts exceed tolerance (imag {worst_imag:.3e}, min {table.min():.3e})"
        )
    mass = float(table.sum()) * grid.spacing**2
    if abs(mass - 1.0) > oracle.NORMALIZATION_TOL:
        return GridResolutionError(f"reconstructed PDF integrates to {mass:.9f}, not 1")
    return table, grid


def _inverted_states():
    rng = np.random.default_rng(11)
    yield from ((label, state) for label, state, _, _ in _decohered_family())
    yield from _moment_states()
    yield "vacuum", vacuum()
    # One mode displaced, and a mean of signed zeros: the unit phase may be
    # skipped only when both components of the pair are zero.
    yield "mode-2 displaced", TwoModeGaussianState([0.0, 0.0, 0.4, -0.3], make_tmsv(0.5).cm)
    yield "signed-zero mean", TwoModeGaussianState([-0.0, 0.0, 0.0, -0.0], make_tmsv(0.5).cm)
    for k in range(40):
        yield f"random {k}", random_physical_state(rng, with_mean=k % 2 == 1)


def test_pdf_tables_equal_the_full_kernel_inversion_bit_for_bit():
    # The half kernel and the skipped unit phase of zero-mean states must
    # leave every table, grid and error message as the full computation has them.
    inverted = 0
    for label, state in _inverted_states():
        for variables in ("q", "p"):
            expected = _reference_pdf_from_cf(state, variables)
            if isinstance(expected, GridResolutionError):
                with pytest.raises(GridResolutionError) as raised:
                    pdf_from_cf(state, variables)
                assert str(raised.value) == str(expected), label
                continue
            table, grid = pdf_from_cf(state, variables)
            assert grid == expected[1], label
            assert table.tobytes() == expected[0].tobytes(), f"{label} [{variables}]"
            inverted += 1
    assert inverted >= 2 * (len(_decohered_family()) + 5 + 3 + 30)


def test_half_kernel_is_read_only_and_shared_by_a_family_states_q_and_p():
    for _, state, _, _ in _decohered_family():
        oracle._half_kernel.cache_clear()
        pdf_from_cf(state, "q")
        pdf_from_cf(state, "p")
        info = oracle._half_kernel.cache_info()
        assert (info.hits, info.misses) == (1, 1)
    grid = default_grid(state)
    half = oracle._half_kernel(grid, _integration_grid(state, "p", grid.n))
    assert half.shape == (grid.n // 2, grid.n) and not half.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        half[0, 0] = 0.0


def test_kernel_symmetries_hold_bit_for_bit_on_this_platform():
    # The half kernel and the half chi rest on exact equalities: the midpoint
    # lattices are odd, so the q kernel's exp arguments repeat under a 180
    # degree rotation and the p kernel's are the q kernel's with the rows
    # reversed; each kernel's column n-1-j is the conjugate of column j, as
    # numpy's complex exp of (+-0, -theta) is the conjugate of its exp of
    # (+-0, theta); and a zero-mean chi's terms at (-u1, -u2) are products of
    # negated factors.  A failure here names the cause before any table or
    # digest test moves.
    for label, state, _, _ in _decohered_family():
        assert not state.mean.any(), label
        grid = default_grid(state)
        for variables in ("q", "p"):
            inner = _integration_grid(state, variables, grid.n)
            for axis in (grid.axis, inner.axis):
                assert axis[::-1].tobytes() == (-axis).tobytes(), label
            q_kernel = _full_kernel(grid, inner, "q")
            assert q_kernel.tobytes() == q_kernel[::-1, ::-1].tobytes(), label
            assert _full_kernel(grid, inner, "p").tobytes() == q_kernel[::-1].tobytes(), label
            for kernel in (q_kernel, _full_kernel(grid, inner, "p")):
                assert kernel[:, ::-1].tobytes() == kernel.conj().tobytes(), label
            chi = _full_chi(state, variables, inner.axis)
            assert chi.tobytes() == chi[::-1, ::-1].tobytes(), f"{label} [{variables}]"


def test_a_zero_mean_pair_sends_half_the_kernel_and_half_of_chi_through_exp(monkeypatch):
    # One q-then-p pair of a family state: the q kernel's 128 x 128 left half
    # once, then the top 128 x 256 rows of each chi, against 163 840 elements
    # with the full kernel rows and full chis.
    state = _decohered_family()[4][1]
    exp = np.exp
    sizes = []
    monkeypatch.setattr(np, "exp", lambda x, *args, **kwargs: sizes.append(np.size(x)) or exp(x, *args, **kwargs))
    oracle._half_kernel.cache_clear()
    pdf_from_cf(state, "q")
    pdf_from_cf(state, "p")
    assert sum(sizes) == 128 * 128 + 2 * 128 * 256 == 81_920


def _reference_closed_form_joint_pdf(x, b, c, variables):
    """``verify._closed_form_joint_pdf`` with every row of the grid evaluated."""
    sign = 1.0 if variables == "q" else -1.0
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    det = b * b - c * c
    return np.exp(-(b * (x1**2 + x2**2) - sign * 2.0 * c * x1 * x2) / det) / (math.pi * math.sqrt(det))


def _reference_inferred_variance(table, grid, direction):
    """``numeric_inferred_variance`` with each marginal summed where it is read."""
    x = grid.axis
    w = table * grid.spacing**2
    m_in, m_out = (0, 1) if direction == "a_to_b" else (1, 0)
    mean = [float((w.sum(axis=1 - k) * x).sum()) for k in (0, 1)]
    xx = [float((w.sum(axis=1 - k) * x * x).sum()) for k in (0, 1)]
    cross = float(x @ w @ x)
    var_in = xx[m_in] - mean[m_in] ** 2
    cov = cross - mean[0] * mean[1]
    return float(xx[m_out] - mean[m_out] ** 2 - cov * cov / var_in)


def test_closed_form_pdfs_and_inferred_variances_equal_their_full_evaluations_bit_for_bit():
    for label, state, b, c in _decohered_family():
        for variables in ("q", "p"):
            table, grid = pdf_from_cf(state, variables)
            closed = verify._closed_form_joint_pdf(grid.axis, b, c, variables)
            expected = _reference_closed_form_joint_pdf(grid.axis, b, c, variables)
            assert closed.tobytes() == expected.tobytes(), f"{label} [{variables}]"
            for direction in ("a_to_b", "b_to_a"):
                numeric = numeric_inferred_variance(table, grid, direction)
                assert numeric.hex() == _reference_inferred_variance(table, grid, direction).hex(), label


def _random_symmetric_stack(seed=13, n=40):
    rng = np.random.default_rng(seed)
    _, cms, _ = _random_physical_cms(rng, n)
    return np.concatenate([cms, _partial_transpose_cms(cms, ModeLabel.B)])


def test_numeric_symplectic_of_a_stack_matches_one_matrix_bit_for_bit():
    stack = _random_symmetric_stack()
    nu1, nu2 = numeric_symplectic(stack)
    assert nu1.shape == nu2.shape == (len(stack),)
    for cm, pair in zip(stack, zip(nu1.tolist(), nu2.tolist())):
        assert numeric_symplectic(cm) == pair
    nu1, nu2 = numeric_symplectic(stack.reshape(2, -1, 4, 4))
    assert nu1.shape == (2, len(stack) // 2)


def test_numeric_symplectic_rejects_a_stack_with_one_bad_member(monkeypatch):
    stack = _random_symmetric_stack()
    asymmetric = stack.copy()
    asymmetric[5, 0, 1] += 1e-6
    with pytest.raises(InvalidArgumentError, match="not symmetric"):
        numeric_symplectic(asymmetric)
    indefinite = stack.copy()
    indefinite[5] = np.diag([1.0, -1.0, 1.0, 1.0])  # Omega V has eigenvalues +-1
    with pytest.raises(NumericalPairingError, match="purely imaginary"):
        numeric_symplectic(indefinite)
    with pytest.raises(InvalidArgumentError):
        numeric_symplectic(np.eye(3))

    # A real matrix has conjugate eigenvalue pairs, so the moduli always pair
    # up; an eigensolver that broke one member's pairs must still be caught.
    eigvals = np.linalg.eigvals

    def unpaired(m):
        eigs = eigvals(m)
        eigs[5] = [2j, -2j, 1j, -1.5j]
        return eigs

    monkeypatch.setattr(np.linalg, "eigvals", unpaired)
    with pytest.raises(NumericalPairingError, match="failed to pair"):
        numeric_symplectic(stack)


def _reference_random_state(rng, with_mean=False):
    """The per-state Williamson draw, written out one matrix at a time."""
    h = rng.normal(scale=0.35, size=(4, 4))
    h = h + h.T
    s = expm(SYMPLECTIC_FORM @ h)
    nus = rng.uniform(1.0, 3.0, size=2)
    d = np.diag(np.repeat(nus, 2))
    mean = rng.normal(scale=1.0, size=4) if with_mean else np.zeros(4)
    return TwoModeGaussianState(mean, s @ d @ s.T)


@pytest.mark.parametrize("with_mean", [False, True])
def test_batched_drawer_matches_random_physical_state_bit_for_bit(with_mean):
    means, cms, det_v = _random_physical_cms(np.random.default_rng(17), 60, with_mean=with_mean)
    one, reference = np.random.default_rng(17), np.random.default_rng(17)
    for mean, cm, d in zip(means, cms, det_v.tolist()):
        state, expected = random_physical_state(one, with_mean=with_mean), _reference_random_state(reference, with_mean)
        assert state == expected
        assert np.array_equal(mean, expected.mean) and np.array_equal(cm, expected.cm)
        assert state._det_v.hex() == d.hex() == expected._det_v.hex()


def test_batched_symplectic_suite_equals_per_sample_loop():
    rng = np.random.default_rng(20240817)
    worst, worst_case = 0.0, ""
    for k in range(1000):
        state = _reference_random_state(rng)
        for label, cm in (("cm", state.cm), ("pt", partial_transpose(state, ModeLabel.B))):
            closed = symplectic_eigenvalues(cm)
            numeric = numeric_symplectic(cm)
            dev = max(abs(closed[0] - numeric[0]), abs(closed[1] - numeric[1]))
            if dev > worst:
                worst, worst_case = dev, f"sample {k} [{label}]"
    assert _suite_symplectic() == SuiteResult("symplectic", worst, 1e-9, worst_case)


def _count_tables(monkeypatch):
    """Patch ``oracle.pdf_from_cf`` to count its calls and to check, at every
    call, that no table older than the previous state's two is still held."""
    inverted, calls = [], [0]
    original = oracle.pdf_from_cf

    def counted(state, variables):
        held = 2 + len(inverted) % 2  # the previous state's q and p, and this state's q
        assert all(ref() is None for ref in inverted[: len(inverted) - held])
        table, grid = original(state, variables)
        inverted.append(weakref.ref(table))
        calls[0] += 1
        return table, grid

    monkeypatch.setattr(oracle, "pdf_from_cf", counted)
    return calls


def test_all_equals_the_single_suites_and_inverts_each_table_once(monkeypatch):
    calls = _count_tables(monkeypatch)
    together = run_suites("all")
    assert calls[0] == 2 * len(_decohered_family()) == 24
    alone = []
    for name in SUITES:
        calls[0] = 0
        alone += run_suites(name)
        assert calls[0] == (24 if name in ("pdf", "inferred-variance", "entropy") else 0)
    assert together == alone
    assert [res.name for res in together] == list(SUITES)


def _nan_table(monkeypatch):
    original = oracle.pdf_from_cf

    def patched(state, variables):
        table, grid = original(state, variables)
        table = table.copy()
        table[0, 0] = math.nan
        return table, grid

    monkeypatch.setattr(oracle, "pdf_from_cf", patched)


def _nan_moment(monkeypatch):
    original = oracle.numeric_moments

    def patched(state):
        mean, cm = original(state)
        cm = cm.copy()
        cm[3, 3] = math.nan  # the mean agrees, so max(mean dev, cm dev) would drop the NaN
        return mean, cm

    monkeypatch.setattr(oracle, "numeric_moments", patched)


def _nan_symplectic_entry(monkeypatch):
    original = oracle.numeric_symplectic

    def patched(cm):
        nu1, nu2 = original(cm)
        nu2 = nu2.copy()
        nu2[7] = math.nan  # row 7 is the partial transpose of sample 3
        return nu1, nu2

    monkeypatch.setattr(oracle, "numeric_symplectic", patched)


def _nan_threshold_row(monkeypatch):
    rows = list(verify._threshold_results())
    rows[4] = dataclasses.replace(rows[4], t_numeric=math.nan)
    monkeypatch.setattr(verify, "_threshold_results", lambda: iter(rows))
    return f"{rows[4].channel.describe()} {rows[4].direction}"


_NAN_PATCHES = {
    "pdf": (_nan_table, "tmsv r=0.3 [q]"),
    "inferred-variance": (
        lambda mp: mp.setattr(oracle, "numeric_inferred_variance", lambda *args: math.nan), "tmsv r=0.3 [q]"
    ),
    "entropy": (lambda mp: mp.setattr(oracle, "numeric_entropy", lambda *args: math.nan), "tmsv r=0.3 [q joint]"),
    "moments": (_nan_moment, "tmsv r=0.3"),
    "symplectic": (_nan_symplectic_entry, "sample 3 [pt]"),
    "thresholds": (_nan_threshold_row, None),
}


@pytest.mark.parametrize("suite", sorted(_NAN_PATCHES))
def test_a_nan_deviation_fails_its_suite(monkeypatch, capsys, suite):
    # NaN compares false with everything, so a `dev > worst` reduction would
    # skip it and report a pass with max deviation 0: the NaN must be the worst.
    patch, worst_case = _NAN_PATCHES[suite]
    worst_case = patch(monkeypatch) or worst_case
    (result,) = run_suites(suite)
    assert math.isnan(result.max_deviation) and not result.passed
    assert result.worst_case == worst_case
    assert main(["verify", suite]) == 1
    out = capsys.readouterr().out
    assert f"max deviation nan (tolerance {result.tolerance:.0e}) worst: {worst_case} [FAIL]" in out
