import numpy as np
import pytest

import bgkspectral as bk


@pytest.fixture(scope="module")
def dw_phi(doublewell_table, doublewell_pot):
    return bk.build_phi_matrix(doublewell_table, doublewell_pot, 44)


def test_harmonic_phi_is_jacobi(harmonic_table, harmonic_pot):
    # phi' = x, so the multiplication matrix is the Jacobi matrix itself.
    phi = bk.build_phi_matrix(harmonic_table, harmonic_pot, 30)
    expect = bk.jacobi_matrix(harmonic_table, 30)
    assert np.max(np.abs(phi.toarray() - expect)) <= 1e-12


def test_quartic_band_closed_forms(dw_phi, doublewell_table, doublewell_pot):
    mat = dw_phi.toarray()
    a = doublewell_table.a
    g2 = doublewell_pot.coeffs[2]
    k = np.arange(1, 41)
    l_k = k / a[k]
    assert np.max(np.abs(mat[k, k - 1] - l_k) / l_k) <= 1e-10
    k3 = np.arange(3, 41)
    p_band = 4 * g2 * a[k3] * a[k3 - 1] * a[k3 - 2]
    assert np.max(np.abs(mat[k3, k3 - 3] - p_band) / p_band) <= 1e-10
    assert np.all(np.diag(mat) == 0.0)


def test_phi_symmetry_and_sparsity(dw_phi):
    mat = dw_phi.toarray()
    assert np.max(np.abs(mat - mat.T)) == 0.0
    # entries vanish off the odd offsets 1 and 3
    for off in range(dw_phi.size):
        diag = np.diagonal(mat, offset=off)
        if off in (1, 3):
            assert np.any(diag != 0.0)
        else:
            assert np.all(diag == 0.0)
    assert dw_phi.bandwidth == 3


def test_upper_plus_lower_reassembles(dw_phi):
    mat = dw_phi.toarray()
    total = bk.derivative_matrix(dw_phi) + bk.adjoint_derivative_matrix(dw_phi)
    assert np.array_equal(total, mat)


def test_phi_requires_long_table(doublewell_pot, doublewell_table):
    with pytest.raises(ValueError):
        bk.build_phi_matrix(doublewell_table, doublewell_pot,
                            doublewell_table.n_max + 10)


def test_harmonic_couplings(harmonic_table):
    dc = bk.build_deriv_couplings(harmonic_table, 10)
    r = np.arange(11)
    expect = np.zeros((11, 11))
    expect[r[1:], r[1:] - 1] = np.sqrt(r[1:])
    assert np.max(np.abs(dc.A - expect)) <= 1e-12


def test_couplings_structure(doublewell_table):
    dc = bk.build_deriv_couplings(doublewell_table, 10)
    assert np.all(dc.A[0, :] == 0.0)
    r, n = np.indices(dc.A.shape)
    assert np.all(dc.A[(n >= r) | ((r - n) % 2 == 0)] == 0.0)


def test_couplings_match_phi_upper(doublewell_table, dw_phi):
    dc = bk.build_deriv_couplings(doublewell_table, 12)
    mat = dw_phi.toarray()
    for r in range(13):
        for n in range(r):
            assert dc.A[r, n] == mat[n, r]


def test_coupling_spot_check_composite(doublewell_table, doublewell_weddle):
    # independent composite-rule quadrature of P_3' P_0 rho
    dc = bk.build_deriv_couplings(doublewell_table, 5)
    from bgkspectral.orthopoly import eval_poly_and_deriv_all
    p, dp = eval_poly_and_deriv_all(doublewell_table, 5, doublewell_weddle.nodes)
    direct = doublewell_weddle.weights @ (dp[3] * p[0])
    assert dc.A[3, 0] == pytest.approx(direct, abs=1e-10)


def test_omega_corner_and_positivity(dw_phi):
    om = bk.build_omega_matrix(dw_phi, 40)
    mat = om.toarray()
    assert mat[0, 0] == 1.0
    assert np.max(np.abs(mat - mat.T)) == 0.0
    assert np.linalg.eigvalsh(mat).min() >= 1.0 - 1e-8


def test_omega_harmonic_is_diagonal(harmonic_table, harmonic_pot):
    phi = bk.build_phi_matrix(harmonic_table, harmonic_pot, 35)
    om = bk.build_omega_matrix(phi, 30).toarray()
    assert np.allclose(np.diag(om), np.arange(1, 31), atol=1e-12)
    assert np.max(np.abs(om - np.diag(np.diag(om)))) <= 1e-13


def test_omega_quartic_pattern(dw_phi, doublewell_table, doublewell_pot):
    # Entry pattern from the product of the two triangles of Phi:
    # diag(i) = 1 + l_i^2 + p_{i-2}^2, off(i, i+2) = l_i p_i with
    # l_i = i / a_i and p_j = 4 g2 a_{j+2} a_{j+1} a_j.
    om = bk.build_omega_matrix(dw_phi, 40).toarray()
    a = doublewell_table.a
    g2 = doublewell_pot.coeffs[2]
    size = 40
    l = np.zeros(size + 2)
    idx = np.arange(1, size + 2)
    l[idx] = idx / a[idx]
    p = np.zeros(size + 2)
    j = np.arange(1, size - 1)
    p[j] = 4 * g2 * a[j + 2] * a[j + 1] * a[j]
    diag = 1.0 + l[:size] ** 2
    diag[2:] += p[:size - 2] ** 2
    assert np.max(np.abs(np.diag(om) - diag)) <= 1e-10
    i = np.arange(1, size - 2)
    off = l[i] * p[i]
    assert np.max(np.abs(om[i, i + 2] - off)) <= 1e-10
    # explicit product of truncated factors as an independent path
    lower = bk.adjoint_derivative_matrix(dw_phi)
    direct = (lower @ lower.T + np.eye(dw_phi.size))[:size, :size]
    assert np.max(np.abs(om - direct)) == 0.0
    assert om[3, 1] == pytest.approx(l[1] * p[1], rel=1e-12)


def test_omega_requires_margin(dw_phi):
    with pytest.raises(ValueError):
        bk.build_omega_matrix(dw_phi, dw_phi.size)


def test_banded_operator_roundtrip(dw_phi):
    mat = dw_phi.toarray()
    assert mat.shape == (dw_phi.size, dw_phi.size)
    # bands store exactly the matrix content
    rebuilt = bk.BandedOperator(size=dw_phi.size, bands=dw_phi.bands,
                                symmetry="symmetric").toarray()
    assert np.array_equal(rebuilt, mat)
