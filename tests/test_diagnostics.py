import math

import numpy as np
import pytest

import bgkspectral as bk
from conftest import state_with


@pytest.fixture(scope="module")
def harmonic_basis(harmonic_table):
    return bk.build_functional_basis(harmonic_table, 8)


@pytest.fixture(scope="module")
def doublewell_basis(doublewell_table):
    return bk.build_functional_basis(doublewell_table, 8)


def test_zero_state(harmonic_basis):
    state = bk.SpectralState(C=np.zeros((5, 9)))
    cons = bk.conserved_functionals(state, harmonic_basis)
    assert np.array_equal(cons, np.zeros(6))
    assert bk.l2_norm(state) == 0.0


def test_mass_matches_quadrature(doublewell_basis, doublewell_table,
                                 doublewell_weddle, doublewell_pot):
    state = bk.SpectralState(C=np.zeros((3, 9)))
    state.C[0, 0] = 1.0
    cons = bk.conserved_functionals(state, doublewell_basis)
    assert cons[0] == 1.0                       # mass
    # oracle: direct quadrature of C_0(x) rho(x)
    c0 = state.C[0] @ bk.eval_poly_all(doublewell_table, 8, doublewell_weddle.nodes)
    direct = float(doublewell_weddle.weights @ c0)
    assert cons[0] == pytest.approx(direct, abs=1e-12)


def test_harmonic_extras_none_for_general_potential(doublewell_basis):
    state = bk.SpectralState(C=np.ones((4, 9)))
    cons = bk.conserved_functionals(state, doublewell_basis)
    assert cons.shape == (2,)                   # mass, energy_plus only


def test_a_basis_built_for_another_n_is_rejected(doublewell_table):
    # Cut to the basis's length, energy_plus of this state would read
    # 1/sqrt(2) = 0.7071 and miss the phi-moment of C[0, 4].
    state = state_with([(0, 4, 1.0), (2, 0, 1.0)], 4, 30)
    full = bk.build_functional_basis(doublewell_table, 30)
    assert bk.conserved_functionals(state, full)[1] == pytest.approx(
        1.1772, abs=1e-4)
    short = bk.build_functional_basis(doublewell_table, 2)
    with pytest.raises(ValueError):
        bk.conserved_functionals(state, short)
    with pytest.raises(ValueError):
        bk.purge_equilibrium_components(state, short)


def test_superposition_is_exact(harmonic_basis):
    rng = np.random.default_rng(3)
    u = bk.SpectralState(C=rng.standard_normal((5, 9)))
    w = bk.SpectralState(C=rng.standard_normal((5, 9)))
    alpha, beta = 2.5, -0.75
    combo = bk.SpectralState(C=alpha * u.C + beta * w.C)
    cu = bk.conserved_functionals(u, harmonic_basis)
    cw = bk.conserved_functionals(w, harmonic_basis)
    cc = bk.conserved_functionals(combo, harmonic_basis)
    assert cc.shape == (6,)
    for c, expect in zip(cc, alpha * cu + beta * cw):
        assert c == pytest.approx(expect, rel=1e-12, abs=1e-13)


def test_single_coefficient_norm():
    state = bk.SpectralState(C=np.zeros((4, 4)))
    state.C[2, 1] = 3.0
    assert bk.l2_norm(state) == 3.0


def test_norm_of_tiny_state_does_not_underflow():
    # The plain sum of squares of 1e-200 entries underflows to 0.
    state = bk.SpectralState(C=np.full((2, 2), 1e-200))
    assert bk.l2_norm(state) == pytest.approx(2e-200, rel=1e-15, abs=0.0)


def test_preset_norm_is_sqrt_two():
    state = state_with([(1, 2, 1.0), (2, 1, 1.0)], 20, 5)
    assert bk.l2_norm(state) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_norm_matches_two_dimensional_quadrature(doublewell_table, doublewell_pot):
    # Parseval cross-check: integrate h^2 against the Maxwellian with a
    # tensor Gauss rule (space rule from the table, Hermite rule in velocity).
    rng = np.random.default_rng(11)
    K, N = 6, 7
    state = bk.SpectralState(C=rng.standard_normal((K + 1, N + 1)))
    xrule = bk.build_quadrature(doublewell_pot, "gauss_from_jacobi", N + 1,
                                table=doublewell_table)
    vnodes, vweights = np.polynomial.hermite_e.hermegauss(K + 1)
    vweights = vweights / math.sqrt(2.0 * math.pi)
    grid = bk.snapshot(state, bk.eval_poly_all(doublewell_table, N, xrule.nodes),
                       bk.hermite_eval_all(K, vnodes))
    integral = float(xrule.weights @ (grid ** 2) @ vweights)
    assert math.sqrt(integral) == pytest.approx(bk.l2_norm(state), rel=1e-8)


def _series_from_norms(times, norms):
    series = bk.DiagnosticsSeries()
    series.times = list(times)
    series.norms = list(norms)
    return series


def test_fit_constant_series():
    t = np.linspace(0, 5, 40)
    fit = bk.fit_decay_rate(_series_from_norms(t, np.full(40, 2.0)), 0.0, 5.0)
    assert fit.rate == 0.0
    assert fit.r_squared == 0.0


def test_fit_exact_exponential():
    t = np.linspace(0, 5, 200)
    fit = bk.fit_decay_rate(_series_from_norms(t, 5.0 * np.exp(-2.0 * t)), 1.0, 4.0)
    assert fit.rate == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-10)


def test_fit_window_validation():
    t = np.linspace(0, 5, 100)
    series = _series_from_norms(t, np.exp(-t))
    with pytest.raises(ValueError, match="no samples"):
        bk.fit_decay_rate(series, 10.0, 20.0)
    with pytest.raises(ValueError, match="at least 10"):
        bk.fit_decay_rate(series, 0.0, 0.2)
    bad = _series_from_norms(t, np.concatenate([np.ones(50), -np.ones(50)]))
    with pytest.raises(ValueError, match="positive"):
        bk.fit_decay_rate(bad, 0.0, 5.0)


def test_snapshot_trivials(doublewell_table):
    p = bk.eval_poly_all(doublewell_table, 5, np.linspace(-2, 2, 9))
    h = bk.hermite_eval_all(3, np.linspace(-3, 3, 7))
    zero = bk.SpectralState(C=np.zeros((4, 6)))
    assert np.all(bk.snapshot(zero, p, h) == 0.0)
    const = bk.SpectralState(C=np.zeros((4, 6)))
    const.C[0, 0] = 1.0
    grid = bk.snapshot(const, p, h)
    assert np.allclose(grid, 1.0, atol=1e-12)


def test_snapshot_against_naive_sum(doublewell_table):
    rng = np.random.default_rng(17)
    state = bk.SpectralState(C=rng.standard_normal((5, 7)))
    x0, v0 = 0.8, -1.3
    grid = bk.snapshot(state, bk.eval_poly_all(doublewell_table, 6, np.array([x0])),
                       bk.hermite_eval_all(4, np.array([v0])))
    naive = 0.0
    p = bk.eval_poly_all(doublewell_table, 6, x0)
    h = bk.hermite_eval_all(4, v0)
    for k in range(5):
        for n in range(7):
            naive += state.C[k, n] * p[n] * h[k]
    assert grid[0, 0] == pytest.approx(naive, abs=1e-12)


def test_preset_functionals_stay_zero(harmonic_table):
    dc = bk.build_deriv_couplings(harmonic_table, 5)
    gen = bk.assemble_generator(dc.A, 20)
    basis = bk.build_functional_basis(harmonic_table, 5)
    state = state_with([(1, 2, 1.0), (2, 1, 1.0)], 20, 5)
    plan = bk.make_stepping_plan(gen, 0.02)
    series = bk.DiagnosticsSeries()
    series.record(state, basis)
    for _ in range(50):
        state = bk.step(plan, state)
        series.record(state, basis)
    worst = np.max(np.abs(series.conserved))
    assert worst <= 1e-12
    assert all(b <= a * (1 + 1e-13)
               for a, b in zip(series.norms, series.norms[1:]))
