import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import bgkspectral as bk
from bgkspectral.potential import _full_coeffs

KERNEL_POTENTIALS = [(0.5 * math.log(2.0 * math.pi), 0.5), (1.0, -2.0, 1.0),
                     (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, -3.0, 0.5, 0.2)]


@pytest.fixture(scope="module")
def dw_phi(doublewell_table, doublewell_pot):
    return bk.build_phi_matrix(doublewell_table, doublewell_pot, 44)


def test_harmonic_phi_is_jacobi(harmonic_table, harmonic_pot):
    # phi' = x, so the multiplication matrix is the Jacobi matrix itself.
    phi = bk.build_phi_matrix(harmonic_table, harmonic_pot, 30)
    off = harmonic_table.a[1:30]
    expect = np.diag(off, 1) + np.diag(off, -1)
    assert np.max(np.abs(phi - expect)) <= 1e-12


def _dense_horner(table, coeffs, size):
    """p(J) by Horner's rule with dense products on an explicit tridiagonal J."""
    off = table.a[1:size]
    j = np.diag(off, 1) + np.diag(off, -1)
    acc = np.zeros_like(j)
    np.fill_diagonal(acc, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc @ j
        acc[np.diag_indices(size)] += c
    return acc


@pytest.mark.parametrize("coeffs", KERNEL_POTENTIALS)
def test_jacobi_horner_matches_dense_horner(coeffs):
    pot = bk.normalize_potential(bk.RawPotential(coeffs))
    table = bk.build_recurrence(pot, 576 + pot.degree + 1)
    full = _full_coeffs(pot.coeffs)
    for size in (4, 16, 64, 576):
        big = size + pot.degree + 2
        dense = _dense_horner(table, npoly.polyder(full), big)[:size, :size]
        phi = bk.build_phi_matrix(table, pot, size)
        assert np.max(np.abs(phi - dense)) <= 1e-12 * np.max(np.abs(dense))
        basis = bk.build_functional_basis(table, size - 1)
        ip_phi = table.a[0] * _dense_horner(table, full, big)[:size, 0]
        assert np.max(np.abs(basis.ip_phi - ip_phi)) \
            <= 1e-14 * np.max(np.abs(ip_phi))
        assert np.array_equal(basis.ip_x,
                              np.eye(size)[1] * table.a[0] * table.a[1])


def _allocating_horner(a, coeffs, v):
    """Horner's loop with a fresh array per step, the in-place kernel's reference."""
    off = a[1:len(v)].reshape((-1,) + (1,) * (v.ndim - 1))
    out = coeffs[-1] * v
    for c in coeffs[-2::-1]:
        jw = np.zeros_like(out)
        jw[:-1] = off * out[1:]
        jw[1:] += off * out[:-1]
        if c != 0.0:
            jw += c * v
        out = jw
    return out


@pytest.mark.parametrize("coeffs", KERNEL_POTENTIALS)
def test_jacobi_horner_is_the_allocating_loop_bit_for_bit(coeffs,
                                                          doublewell_table):
    full = _full_coeffs(coeffs)
    vs = (np.eye(60, 40), np.eye(60)[0], np.eye(1),
          np.random.default_rng(3).standard_normal((50, 3)))
    for v in vs:
        kept = v.copy()
        for p in (full, npoly.polyder(full)):
            got = bk.jacobi_horner(doublewell_table.a, p, v)
            want = _allocating_horner(doublewell_table.a, p, v)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert v.tobytes() == kept.tobytes()


def test_jacobi_horner_requires_long_table(harmonic_table):
    too_long = np.eye(harmonic_table.n_max + 2, 3)
    with pytest.raises(ValueError):
        bk.jacobi_horner(harmonic_table.a, [0.0, 1.0], too_long)


def test_quartic_band_closed_forms(dw_phi, doublewell_table, doublewell_pot):
    a = doublewell_table.a
    g2 = doublewell_pot.coeffs[2]
    k = np.arange(1, 41)
    l_k = k / a[k]
    assert np.max(np.abs(dw_phi[k, k - 1] - l_k) / l_k) <= 1e-10
    k3 = np.arange(3, 41)
    p_band = 4 * g2 * a[k3] * a[k3 - 1] * a[k3 - 2]
    assert np.max(np.abs(dw_phi[k3, k3 - 3] - p_band) / p_band) <= 1e-10
    assert np.all(np.diag(dw_phi) == 0.0)


def test_phi_symmetry_and_sparsity(dw_phi):
    assert np.max(np.abs(dw_phi - dw_phi.T)) == 0.0
    # entries vanish off the odd offsets 1 and 3
    for off in range(len(dw_phi)):
        diag = np.diagonal(dw_phi, offset=off)
        if off in (1, 3):
            assert np.any(diag != 0.0)
        else:
            assert np.all(diag == 0.0)


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
    for r in range(13):
        for n in range(r):
            assert dc.A[r, n] == dw_phi[n, r]


def test_coupling_spot_check_composite(doublewell_table, doublewell_weddle):
    # independent composite-rule quadrature of P_3' P_0 rho
    dc = bk.build_deriv_couplings(doublewell_table, 5)
    from bgkspectral.orthopoly import eval_poly_and_deriv_all
    p, dp = eval_poly_and_deriv_all(doublewell_table, 5, doublewell_weddle.nodes)
    direct = doublewell_weddle.weights @ (dp[3] * p[0])
    assert dc.A[3, 0] == pytest.approx(direct, abs=1e-10)


def test_omega_corner_and_positivity(dw_phi):
    mat = bk.build_omega_matrix(dw_phi, 40)
    assert mat[0, 0] == 1.0
    assert np.max(np.abs(mat - mat.T)) == 0.0
    assert np.linalg.eigvalsh(mat).min() >= 1.0 - 1e-8


def test_omega_harmonic_is_diagonal(harmonic_table, harmonic_pot):
    phi = bk.build_phi_matrix(harmonic_table, harmonic_pot, 35)
    om = bk.build_omega_matrix(phi, 30)
    assert np.allclose(np.diag(om), np.arange(1, 31), atol=1e-12)
    assert np.max(np.abs(om - np.diag(np.diag(om)))) <= 1e-13


def test_omega_quartic_pattern(dw_phi, doublewell_table, doublewell_pot):
    # Entry pattern from the product of the two triangles of Phi:
    # diag(i) = 1 + l_i^2 + p_{i-2}^2, off(i, i+2) = l_i p_i with
    # l_i = i / a_i and p_j = 4 g2 a_{j+2} a_{j+1} a_j.
    om = bk.build_omega_matrix(dw_phi, 40)
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
    lower = np.tril(dw_phi, -1)
    direct = (lower @ lower.T + np.eye(len(dw_phi)))[:size, :size]
    assert np.max(np.abs(om - direct)) == 0.0
    assert om[3, 1] == pytest.approx(l[1] * p[1], rel=1e-12)


def test_omega_requires_margin(dw_phi):
    with pytest.raises(ValueError):
        bk.build_omega_matrix(dw_phi, len(dw_phi))
