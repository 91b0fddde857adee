import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.linalg import eigvals_banded

import bgkspectral as bk
from bgkspectral.potential import _full_coeffs

KERNEL_POTENTIALS = [(0.5 * math.log(2.0 * math.pi), 0.5), (1.0, -2.0, 1.0),
                     (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, -3.0, 0.5, 0.2)]


@pytest.fixture(scope="module")
def dw_phi(doublewell_table):
    return bk.build_phi_matrix(doublewell_table, 44)


def test_harmonic_phi_is_jacobi(harmonic_table):
    # phi' = x, so the multiplication matrix is the Jacobi matrix itself.
    band = bk.build_phi_matrix(harmonic_table, 30)
    assert band.shape == (2, 30)
    assert np.all(band[0] == 0.0) and band[1, -1] == 0.0
    assert np.max(np.abs(band[1, :29] - harmonic_table.a[1:30])) <= 1e-12


def _dense_lower(band):
    """The strictly lower triangle a lower band stores, as a dense array."""
    size = band.shape[1]
    lower = np.zeros((size, size))
    for k in range(1, min(len(band), size)):
        lower += np.diag(band[k, :size - k], -k)
    return lower


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
        band = bk.build_phi_matrix(table, size)
        assert band.shape == (pot.degree, size) and np.all(band[::2] == 0.0)
        phi = _dense_lower(band)
        # The probe columns read the entries phi'(J) gives on each unit
        # vector, bit for bit, so the couplings expanded from the band are
        # the arrays the eye-column construction produced.
        columns = bk.jacobi_horner(table.a, npoly.polyder(full), np.eye(big, size))
        assert phi.tobytes() == np.tril(columns[:size], -1).tobytes()
        phi += phi.T
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
    assert np.max(np.abs(dw_phi[1, k - 1] - l_k) / l_k) <= 1e-10
    k3 = np.arange(3, 41)
    p_band = 4 * g2 * a[k3] * a[k3 - 1] * a[k3 - 2]
    assert np.max(np.abs(dw_phi[3, k3 - 3] - p_band) / p_band) <= 1e-10
    assert np.all(dw_phi[0] == 0.0)


def test_phi_symmetry_and_sparsity(dw_phi):
    # The band stores the lower triangle; the upper one is its mirror.  The
    # entries vanish off the odd offsets 1 and 3 and below the last row.
    assert dw_phi.shape == (4, 44)
    assert np.all(dw_phi[(0, 2), :] == 0.0)
    for off in (1, 3):
        assert np.all(dw_phi[off, :44 - off] != 0.0)
        assert np.all(dw_phi[off, 44 - off:] == 0.0)


def test_phi_requires_long_table(doublewell_pot, doublewell_table):
    with pytest.raises(ValueError):
        bk.build_phi_matrix(doublewell_table, doublewell_table.n_max + 10)
    # The block of size s reads a_0 .. a_{s + deg + 1}.
    longest = doublewell_table.n_max - doublewell_pot.degree - 1
    bk.build_phi_matrix(doublewell_table, longest)
    with pytest.raises(ValueError):
        bk.build_phi_matrix(doublewell_table, longest + 1)


def test_harmonic_couplings(harmonic_table):
    # P_r' = sqrt(r) P_{r-1}: the band's one odd row holds A[1, j] = sqrt(j+1).
    A = bk.build_deriv_couplings(harmonic_table, 10).A
    assert A.shape == (2, 11)
    assert np.all(A[0] == 0.0) and A[1, 10] == 0.0
    assert np.max(np.abs(A[1, :10] - np.sqrt(np.arange(1, 11)))) <= 1e-12


def test_couplings_structure(doublewell_table):
    # Offsets 1 and 3 hold the couplings; the diagonal, the even rows and
    # every entry past r = j + s = 10 are exact zeros.
    A = bk.build_deriv_couplings(doublewell_table, 10).A
    assert A.shape == (4, 11)
    assert np.all(A[::2] == 0.0)
    for s in (1, 3):
        assert np.all(A[s, :11 - s] != 0.0) and np.all(A[s, 11 - s:] == 0.0)


def test_couplings_match_phi_upper(doublewell_table, dw_phi):
    # The couplings of size 13 are the leading block of a larger Phi band,
    # bit for bit: cutting the Jacobi matrix later changes no entry.
    A = bk.build_deriv_couplings(doublewell_table, 12).A
    for s in range(len(A)):
        assert np.array_equal(A[s, :13 - s], dw_phi[s, :13 - s])


def test_coupling_spot_check_composite(doublewell_table, doublewell_weddle):
    # independent composite-rule quadrature of P_3' P_0 rho
    A = bk.build_deriv_couplings(doublewell_table, 5).A
    x, a = doublewell_weddle.nodes, doublewell_table.a
    p = bk.eval_poly_all(doublewell_table, 3, x)
    # P_3' from x P_k = a_{k+1} P_{k+1} + a_k P_{k-1} differentiated term by
    # term: a_{k+1} P_{k+1}' = P_k + x P_k' - a_k P_{k-1}', P_{-1}' = P_0' = 0.
    dp = [np.zeros_like(x), np.zeros_like(x)]
    for k in range(3):
        dp.append((p[k] + x * dp[-1] - a[k] * dp[-2]) / a[k + 1])
    direct = doublewell_weddle.weights @ (dp[-1] * p[0])
    assert A[3, 0] == pytest.approx(direct, abs=1e-10)


def test_omega_corner_and_positivity(dw_phi):
    band = bk.build_omega_matrix(dw_phi, 40)
    assert band.shape == (3, 40)
    assert band[0, 0] == 1.0
    # Omega lives on the even offsets, inside the leading block.
    assert np.all(band[1] == 0.0) and np.all(band[2, -2:] == 0.0)
    assert eigvals_banded(band, lower=True).min() >= 1.0 - 1e-8


def test_omega_harmonic_is_diagonal(harmonic_table):
    phi = bk.build_phi_matrix(harmonic_table, 35)
    om = bk.build_omega_matrix(phi, 30)
    assert om.shape == (1, 30)
    assert np.allclose(om[0], np.arange(1, 31), atol=1e-12)


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
    assert np.max(np.abs(om[0] - diag)) <= 1e-10
    i = np.arange(1, size - 2)
    off = l[i] * p[i]
    assert np.max(np.abs(om[2, i] - off)) <= 1e-10
    # explicit product of truncated factors as an independent path
    lower = _dense_lower(dw_phi)
    direct = (lower @ lower.T + np.eye(len(lower)))[:size, :size]
    assert np.max(np.abs(_dense_lower(om) + np.diag(om[0]) - np.tril(direct))) \
        <= 1e-15 * np.max(np.abs(direct))
    assert om[2, 1] == pytest.approx(l[1] * p[1], rel=1e-12)


def test_omega_requires_margin(dw_phi):
    # Omega's leading block reads only rows of d* inside it, so the band's
    # own width suffices and one more column is too many.
    width = dw_phi.shape[1]
    with pytest.raises(ValueError):
        bk.build_omega_matrix(dw_phi, width + 1)
    om = bk.build_omega_matrix(dw_phi, width)
    lower = _dense_lower(dw_phi)
    direct = lower @ lower.T + np.eye(width)
    assert np.max(np.abs(_dense_lower(om) + np.diag(om[0]) - np.tril(direct))) \
        <= 1e-15 * np.max(np.abs(direct))
