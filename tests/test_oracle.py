"""The brute-force verification path itself: sanity and error handling."""

import math

import numpy as np
import pytest

from cvsteer.errors import InvalidArgumentError
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
from cvsteer.states import SYMPLECTIC_FORM, TwoModeGaussianState, make_tmsv, symplectic_eigenvalues, vacuum
from cvsteer.verify import SUITES, _decohered_family, random_physical_state, run_suite, run_suites


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
        run_suite("bogus")
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
    # The accumulated quadratic form must equal np.einsum("ni,ij,nj->n") bit
    # for bit, so every oracle table is unchanged.
    rng = np.random.default_rng(5)
    states = [c[1] for c in _decohered_family()[::4]] + [random_physical_state(rng, with_mean=True) for _ in range(3)]
    for state in states:
        for variables, cols in (("q", (1, 3)), ("p", (0, 2))):
            u = _integration_grid(state, variables, 64).axis
            u1, u2 = np.meshgrid(u, u, indexing="ij")
            xi = np.zeros((u.size**2, 4))
            xi[:, cols[0]], xi[:, cols[1]] = u1.ravel(), u2.ravel()
            eta = xi @ SYMPLECTIC_FORM.T
            quad = np.einsum("ni,ij,nj->n", eta, state.cm, eta)
            expected = np.exp(-0.5 * quad) * np.exp(1j * (eta @ state.mean))
            assert np.array_equal(_cf_grid(state, variables, u), expected.reshape(u.size, u.size))
