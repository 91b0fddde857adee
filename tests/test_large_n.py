"""Exactness of the x-space operators and of the scheme at large space truncation.

The couplings and functional vectors come from Jacobi-matrix algebra, so
their structural zeros are exact and their closed forms hold to rounding for
every N the recurrence table reaches, not only in the small-N regime.
"""

import numpy as np
import pytest

import bgkspectral as bk

from conftest import inner_products

SEXTIC_COEFFS = (0.0, 0.0, 0.0, 1.0)
N_VALUES = (60, 120, 200)
POTENTIALS = ("harmonic", "doublewell", "sextic")


@pytest.fixture(scope="module")
def sextic_table():
    pot = bk.normalize_potential(bk.RawPotential(SEXTIC_COEFFS))
    return bk.build_recurrence(pot, max(N_VALUES) + pot.degree + 2)


@pytest.fixture(scope="module")
def tables(harmonic_table, doublewell_table, sextic_table):
    return {"harmonic": harmonic_table, "doublewell": doublewell_table,
            "sextic": sextic_table}


@pytest.mark.parametrize("N", N_VALUES)
def test_harmonic_couplings_closed_form(harmonic_table, N):
    # P_r' = sqrt(r) P_{r-1} for the Gaussian weight: A[1, j] = sqrt(j + 1)
    A = bk.build_deriv_couplings(harmonic_table, N).A
    assert A.shape == (2, N + 1)
    assert np.all(A[0] == 0.0) and A[1, N] == 0.0
    assert np.max(np.abs(A[1, :N] - np.sqrt(np.arange(1, N + 1)))) <= 1e-13


@pytest.mark.parametrize("N", N_VALUES)
@pytest.mark.parametrize("name", POTENTIALS)
def test_couplings_live_on_odd_offsets(tables, name, N):
    # The band stores offsets 0 .. deg(phi) - 1, so every wider offset is a
    # zero by construction; within it only the odd offsets are nonzero.
    table = tables[name]
    A = bk.build_deriv_couplings(table, N).A
    assert A.shape == (table.weight.degree, N + 1)
    for off in range(len(A)):
        diag = A[off, :N + 1 - off]
        if off % 2:
            assert np.all(diag != 0.0), off
        else:
            assert np.all(diag == 0.0), off
        assert np.all(A[off, N + 1 - off:] == 0.0), off


@pytest.mark.parametrize("N", N_VALUES)
def test_harmonic_functional_basis(harmonic_table, N):
    basis = bk.build_functional_basis(harmonic_table, N)
    others = np.setdiff1d(np.arange(N + 1), [0, 2])
    assert np.max(np.abs(basis.ip_phi[others])) <= 1e-14
    e1 = np.zeros(N + 1)
    e1[1] = harmonic_table.a[0] * harmonic_table.a[1]
    assert np.max(np.abs(basis.ip_x - e1)) <= 1e-14


@pytest.mark.parametrize("name", ("harmonic", "doublewell"))
def test_functional_basis_matches_quadrature(request, name):
    # oracle: composite-rule quadrature of <phi, P_k> and <x, P_k>
    table = request.getfixturevalue(f"{name}_table")
    rule = request.getfixturevalue(f"{name}_weddle")
    basis = bk.build_functional_basis(table, 30)
    ip_phi = inner_products(table, rule, table.weight, 30)
    ip_x = inner_products(table, rule, lambda x: x, 30)
    assert np.max(np.abs(basis.ip_phi - ip_phi)) <= 1e-10
    assert np.max(np.abs(basis.ip_x - ip_x)) <= 1e-10


@pytest.mark.parametrize("N", N_VALUES)
@pytest.mark.parametrize("name", POTENTIALS)
def test_long_run_keeps_structure(tables, name, N):
    K, dt, steps = 20, 1e-2, 1000
    table = tables[name]
    gen = bk.assemble_generator(bk.build_deriv_couplings(table, N).A, K)
    basis = bk.build_functional_basis(table, N)
    plan = bk.make_stepping_plan(gen, dt)
    rng = np.random.default_rng(20250 + N)
    state = rng.standard_normal((K + 1, N + 1))
    limit = 1e-12 * bk.l2_norm(state)
    start = bk.conserved_functionals(state, basis)
    norm = bk.l2_norm(state)
    for _ in range(steps):
        state = bk.step(plan, state)
        cons = bk.conserved_functionals(state, basis)
        assert abs(cons[0] - start[0]) <= limit    # mass
        assert abs(cons[1] - start[1]) <= limit    # energy_plus
        new_norm = bk.l2_norm(state)
        assert new_norm <= norm
        norm = new_norm
