import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.polynomial import polynomial as npoly
from scipy.linalg import eigvals_banded, sqrtm

import bgkspectral as bk
from bgkspectral import cli, conjecture_lab
from bgkspectral.errors import InvalidPotentialError
from bgkspectral.potential import _full_coeffs
from conftest import potentials_and_sizes

SEXTIC_COEFFS = (0.0, 0.0, 0.0, 1.0)
OCTIC_COEFFS = (0.0, 1.0, -3.0, 0.5, 0.2)


def _dense_phi_matrix(table, pot, size):
    """Reference Phi: phi'(J) on every unit vector, mirrored into a dense array."""
    big = size + pot.degree + 2
    dcoeffs = npoly.polyder(_full_coeffs(pot.coeffs))
    acc = bk.jacobi_horner(table.a, dcoeffs, np.eye(big, size))
    phi = np.tril(acc[:size], -1)
    for offset in range(1, pot.degree, 2):
        idx = np.arange(size - offset)
        phi[idx, idx + offset] = phi[idx + offset, idx]
    return phi


def _dense_omega_matrix(phi, size):
    """Reference Omega: the dense product of the triangles of a dense Phi."""
    lower = np.tril(phi, -1)
    om = lower @ lower.T
    om[np.diag_indices(len(phi))] += 1.0
    return om[:size, :size].copy()


def _dense_eigh_kn(table, pot, N, m_big):
    """Reference K_N: Omega powers from the symmetric eigendecomposition,
    compositions chained through a dense projector and embedding."""
    two_m = pot.degree
    phi = _dense_phi_matrix(table, pot, m_big + two_m)
    lower = np.tril(phi, -1)[:m_big, :m_big]
    upper = np.triu(phi, 1)[:m_big, :m_big]
    omega = _dense_omega_matrix(phi, m_big)

    evals, vecs = np.linalg.eigh(omega)
    if evals.min() <= 0.0:
        raise RuntimeError(
            f"Omega truncation not positive definite (min eigenvalue {evals.min()}); "
            "operator assembly is inconsistent"
        )
    om_isqrt = (vecs * evals ** -0.5) @ vecs.T
    om_inv = (vecs / evals) @ vecs.T

    proj = np.zeros((m_big, m_big))
    proj[np.arange(N + 1), np.arange(N + 1)] = 1.0
    embed = np.eye(m_big)[:, : N + 1]

    ps = proj @ lower
    comps = (
        om_isqrt @ ps @ embed,
        om_inv @ upper @ ps @ embed,
        om_inv @ ps @ ps @ embed,
        om_inv @ proj @ lower @ upper @ embed,
    )
    return np.array([np.linalg.norm(c, ord=2) for c in comps])


def _harmonic_closed_forms(n):
    # Spectral calculus for the Gaussian weight: d* raises the index with
    # weight sqrt(n+1), Omega is diagonal with entries n+1, and the
    # projection truncates the raised index at n.
    kn0 = math.sqrt(n / (n + 1)) if n >= 1 else 0.0
    kn1 = 1.0 if n >= 1 else 0.0
    kn2 = math.sqrt((n - 1) * n) / (n + 1) if n >= 2 else 0.0
    kn3 = n / (n + 1)
    return np.array([kn0, kn1, kn2, kn3])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32])
def test_harmonic_closed_forms(harmonic_table, harmonic_pot, n):
    report = bk.estimate_kn(harmonic_table, harmonic_pot, n, 4 * (n + 16))
    assert np.max(np.abs(np.array(report.kn) - _harmonic_closed_forms(n))) <= 1e-10
    # Harmonic Omega is diagonal: nothing couples the truncation to the rest.
    assert report.bound == (0.0, 0.0, 0.0, 0.0)


def test_constant_input_edge_case(harmonic_table, harmonic_pot):
    # On constants, d* produces phi', whose projection onto the constants
    # vanishes by parity, so all four norms are zero.
    report = bk.estimate_kn(harmonic_table, harmonic_pot, 0, 64)
    assert np.max(report.kn) <= 1e-14


def test_harmonic_sweep_monotone(harmonic_pot):
    reports = bk.kn_sweep(harmonic_pot, list(range(1, 33)))
    kn0 = [r.kn[0] for r in reports]
    assert all(b > a for a, b in zip(kn0, kn0[1:]))
    assert all(v < 1.0 for v in kn0)
    assert all(r.converged for r in reports)


def test_square_root_construction_paths_agree(doublewell_table, doublewell_pot):
    # eigendecomposition vs inverse followed by principal matrix square root
    phi = _dense_phi_matrix(doublewell_table, doublewell_pot, 60)
    omega = _dense_omega_matrix(phi, 50)
    evals, vecs = np.linalg.eigh(omega)
    via_eig = (vecs * evals ** -0.5) @ vecs.T
    via_sqrtm = np.real(sqrtm(np.linalg.inv(omega)))
    assert np.max(np.abs(via_eig - via_sqrtm)) <= 1e-10


def test_sweep_estimates_each_n_once_at_four_times_n_plus_pad(doublewell_pot,
                                                              monkeypatch):
    calls = []

    def counting_estimate(table, pot, N, m_big):
        calls.append((table, N, m_big))
        return bk.estimate_kn(table, pot, N, m_big)

    monkeypatch.setattr(conjecture_lab, "estimate_kn", counting_estimate)
    reports = conjecture_lab.kn_sweep(doublewell_pot, [4, 8, 16])
    assert [(N, m_big) for _, N, m_big in calls] == [
        (N, 4 * (N + 16)) for N in (4, 8, 16)]
    for report, (table, N, m_big) in zip(reports, calls):
        assert report == bk.estimate_kn(table, doublewell_pot, N, m_big)
        assert report.converged == (report.relative_bound <= 0.01)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(potentials_and_sizes(max_size=40))
def test_truncation_bound_covers_the_change_to_eight_times_n_plus_pad(drawn):
    # At 1.1-2 (N + pad) the estimates still move by up to about 1e-4 on the
    # way to 8 (N + pad), well above rounding, which the slack covers.
    coeffs, n = drawn
    try:
        pot = bk.normalize_potential(bk.RawPotential(tuple(coeffs)))
    except InvalidPotentialError:
        return
    pad = max(16, 2 * pot.degree)
    table = bk.build_recurrence(pot, 8 * (n + pad) + 2 * pot.degree + 2)
    oracle = np.array(bk.estimate_kn(table, pot, n, 8 * (n + pad)).kn)
    for factor in (1.1, 1.25, 1.5, 2.0):
        report = bk.estimate_kn(table, pot, n, int(factor * (n + pad)))
        change = np.abs(np.array(report.kn) - oracle)
        assert np.all(change <= np.array(report.bound)
                      + 1e-14 * np.maximum(oracle, 1.0)), (coeffs, n, factor)


def test_relative_bound_and_the_converged_flag():
    report = conjecture_lab.KNReport(N=1, m_big=40, kn=(0.5, 1.0, 0.0, 2.0),
                                     bound=(1e-3, 1e-4, 0.0, 2e-2),
                                     freud_residual=None)
    assert report.relative_bound == 1e-2 and report.converged
    worse = dataclasses.replace(report, bound=(1e-3, 1e-4, 1e-30, 0.0))
    assert worse.relative_bound == math.inf and not worse.converged


def test_omega_spectrum_bounded_below(doublewell_table):
    phi = bk.build_phi_matrix(doublewell_table, 80)
    omega = bk.build_omega_matrix(phi[:, :70])
    assert eigvals_banded(omega, lower=True).min() >= 1.0 - 1e-8


def test_doublewell_sweep_reports(doublewell_pot):
    reports = bk.kn_sweep(doublewell_pot, [4, 8, 16, 32])
    assert [r.N for r in reports] == [4, 8, 16, 32]
    for r in reports:
        assert r.converged
        assert all(v >= 0.0 for v in r.kn)
        assert r.m_big == 4 * (r.N + 16)
    # no boundedness assertion: the N-dependence is an open question


def _assert_matches_dense_eigh_oracle(pot, n_values):
    pad = max(16, 2 * pot.degree)
    table = bk.build_recurrence(pot, 4 * (max(n_values) + pad) + 2 * pot.degree + 2)
    for n in n_values:
        for m_big in (f * (n + pad) for f in (1, 2, 4)):
            got = np.array(bk.estimate_kn(table, pot, n, m_big).kn)
            want = _dense_eigh_kn(table, pot, n, m_big)
            # relative above 1, absolute below
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(np.abs(want), 1.0))


@pytest.mark.parametrize("coeffs", [(0.5 * math.log(2.0 * math.pi), 0.5),
                                    (1.0, -2.0, 1.0), SEXTIC_COEFFS, OCTIC_COEFFS])
def test_solve_matches_dense_eigh_oracle(coeffs):
    # Odd N + 1 (even N) gives parity blocks of unequal size, even N + 1 equal
    # ones; at N = 0 the odd block is empty.
    _assert_matches_dense_eigh_oracle(bk.normalize_potential(bk.RawPotential(coeffs)),
                                      (0, 1, 4, 5, 16, 33, 64))


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(potentials_and_sizes(max_size=40))
def test_parity_blocks_match_dense_eigh_oracle_on_drawn_potentials(drawn):
    coeffs, n = drawn
    _assert_matches_dense_eigh_oracle(
        bk.normalize_potential(bk.RawPotential(tuple(coeffs))), (n,))


def test_estimate_allocates_no_ambient_square(doublewell_pot):
    # An m_big x m_big float array alone is 2.5 MiB at m_big = 576; the
    # dense path peaked at 12.8 MiB.  The parity blocks peak at 0.74 MiB:
    # the two solves Z_p, 288 x 65 each (0.29 MiB together, each written
    # over its unit columns), and the dense 129 x 129 leading block X of d*
    # (0.13 MiB) are most of it.
    table = bk.build_recurrence(doublewell_pot, 586)
    bk.estimate_kn(table, doublewell_pot, 128, 576)
    tracemalloc.start()
    try:
        bk.estimate_kn(table, doublewell_pot, 128, 576)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_indefinite_omega_is_a_typed_failure(monkeypatch, tmp_path,
                                             doublewell_table, doublewell_pot):
    def indefinite(phi):
        omega = np.zeros((len(phi) - 1, phi.shape[1]))
        omega[0] = -1.0
        return omega

    monkeypatch.setattr(conjecture_lab, "build_omega_matrix", indefinite)
    with pytest.raises(np.linalg.LinAlgError):
        bk.estimate_kn(doublewell_table, doublewell_pot, 4, 40)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": [1.0, -2.0, 1.0], "K": 4, "N": 4,
                               "T": 0.1, "outputs": ["kn"], "kn_n_values": [4]}))
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == 3
    assert not out.exists()


def test_galerkin_stabilization(doublewell_table, doublewell_pot):
    values = [np.array(bk.estimate_kn(doublewell_table, doublewell_pot, 8, big).kn)
              for big in (48, 96)]
    rel = np.abs(values[0] - values[1]) / np.maximum(np.abs(values[1]), 1e-12)
    assert np.max(rel) <= 0.01


def test_ambient_size_validation(harmonic_table, harmonic_pot):
    with pytest.raises(ValueError):
        bk.estimate_kn(harmonic_table, harmonic_pot, 10, 12)


def test_a_potential_other_than_the_tables_is_rejected(doublewell_table,
                                                      harmonic_pot):
    # Phi and Omega come from the table's own potential, so a second one
    # could only mislabel the report.
    with pytest.raises(ValueError, match="potential"):
        bk.estimate_kn(doublewell_table, harmonic_pot, 16, 128)


def test_negative_truncation_is_rejected(harmonic_table, harmonic_pot):
    # N = -1 would otherwise slice empty blocks and report four zeros.
    with pytest.raises(ValueError, match="negative"):
        bk.estimate_kn(harmonic_table, harmonic_pot, -1, 64)


def test_empty_sweep(harmonic_pot):
    assert bk.kn_sweep(harmonic_pot, []) == []


def test_sweep_leaves_room_for_high_degree():
    # deg(phi) = 10: estimate_kn needs m_big >= N + 20, which N + 16 lacks.
    pot = bk.normalize_potential(bk.RawPotential((0, 0, 0, 0, 0, 1)))
    (report,) = bk.kn_sweep(pot, [4])
    assert report.m_big == 4 * (4 + 20)
    assert all(math.isfinite(v) and v > 0 for v in report.kn)


def test_sweep_builds_its_own_table(harmonic_pot):
    reports = bk.kn_sweep(harmonic_pot, [2])
    assert len(reports) == 1
    assert reports[0].kn[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-10)
