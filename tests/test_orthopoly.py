import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import bgkspectral as bk
from bgkspectral.errors import PrecisionFailureError
from bgkspectral.orthopoly import _stieltjes_pass, _weight_moments_mp
from bgkspectral.weddle import panel_rule


def test_weddle_panel_exactness():
    # Closed Newton-Cotes on six strips integrates degree-7 polynomials exactly.
    x, w = panel_rule(-1.0, 2.0, 1)
    for deg in range(8):
        exact = (2.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
        assert w @ x ** deg == pytest.approx(exact, rel=1e-14)


def test_adaptive_integration_gives_up():
    from bgkspectral.errors import IntegrationFailureError
    from bgkspectral.weddle import integrate_adaptive
    with pytest.raises(IntegrationFailureError):
        integrate_adaptive(lambda x: np.cos(1e7 * x), 0.0, 1.0,
                           rel_tol=1e-14, max_nodes=512)


def test_harmonic_coefficients_are_sqrt_k(harmonic_table):
    k = np.arange(1, 41)
    rel = np.abs(harmonic_table.a[k] - np.sqrt(k)) / np.sqrt(k)
    assert np.max(rel) <= 1e-12
    assert harmonic_table.a[0] == pytest.approx(1.0, abs=1e-12)


def test_a0_is_one_for_any_normalized_weight(doublewell_table):
    assert doublewell_table.a[0] == pytest.approx(1.0, abs=1e-12)


def test_magnus_asymptotics(doublewell_table, doublewell_pot):
    const = bk.magnus_constant(doublewell_pot)
    n = 200
    ratio = doublewell_table.a[n] * n ** -0.25 / const
    assert abs(ratio - 1.0) <= 0.10


def test_magnus_flatness(doublewell_table):
    n = np.arange(150, 201)
    scaled = doublewell_table.a[n] * n ** -0.25
    assert np.ptp(scaled) / np.mean(scaled) < 0.02


def test_eval_poly_base_cases(harmonic_table, doublewell_table):
    for table in (harmonic_table, doublewell_table):
        assert bk.eval_poly_all(table, 0, 1.7)[0] == pytest.approx(1.0, rel=1e-12)
    # harmonic: P_1(x) = x and P_2(x) = (x^2 - 1)/sqrt(2)
    xs = np.linspace(-3, 3, 7)
    p = bk.eval_poly_all(harmonic_table, 2, xs)
    assert np.allclose(p[1], xs, atol=1e-12)
    assert np.allclose(p[2], (xs ** 2 - 1) / math.sqrt(2), atol=1e-12)


def test_eval_poly_out_of_range(harmonic_table):
    with pytest.raises(IndexError):
        bk.eval_poly_all(harmonic_table, harmonic_table.n_max + 1, 0.0)


def test_poly_parity(doublewell_table):
    xs = np.linspace(0.1, 2.5, 9)
    p_pos = bk.eval_poly_all(doublewell_table, 12, xs)
    p_neg = bk.eval_poly_all(doublewell_table, 12, -xs)
    for n in range(13):
        assert np.allclose(p_neg[n], (-1.0) ** n * p_pos[n], atol=1e-10)


def test_recurrence_residual(doublewell_table, doublewell_weddle):
    # || x P_n - a_{n+1} P_{n+1} - a_n P_{n-1} ||_rho should vanish.
    rule = doublewell_weddle
    a = doublewell_table.a
    p = bk.eval_poly_all(doublewell_table, 11, rule.nodes)
    for n in range(1, 10):
        resid = rule.nodes * p[n] - a[n + 1] * p[n + 1] - a[n] * p[n - 1]
        norm2 = rule.weights @ resid ** 2
        assert norm2 <= 1e-20


def test_orthonormality_both_rules(harmonic_table, harmonic_gauss, harmonic_weddle):
    for rule in (harmonic_gauss, harmonic_weddle):
        p = bk.eval_poly_all(harmonic_table, 12, rule.nodes)
        gram = (p * rule.weights) @ p.T
        assert np.max(np.abs(gram - np.eye(13))) <= 1e-10


def test_gram_matrix_to_degree_40(doublewell_table, doublewell_weddle,
                                  harmonic_table, harmonic_weddle):
    for table, rule in ((doublewell_table, doublewell_weddle),
                        (harmonic_table, harmonic_weddle)):
        p = bk.eval_poly_all(table, 40, rule.nodes)
        gram = (p * rule.weights) @ p.T
        assert np.max(np.abs(gram - np.eye(41))) <= 1e-9


def test_quadrature_invariants(doublewell_gauss, doublewell_weddle, doublewell_table):
    for rule in (doublewell_gauss, doublewell_weddle):
        assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-10)
        assert rule.weights @ rule.nodes == pytest.approx(0.0, abs=1e-12)
    # <x, P_1> = a_1 follows from one step of the recurrence
    v = bk.inner_products(doublewell_table, doublewell_gauss, lambda x: x, 3)
    assert v[1] == pytest.approx(doublewell_table.a[1], rel=1e-12)
    assert abs(v[0]) <= 1e-12 and abs(v[2]) <= 1e-12


def test_inner_products_unit_vectors(doublewell_table, doublewell_gauss):
    ones = bk.inner_products(doublewell_table, doublewell_gauss,
                             lambda x: np.ones_like(x), 6)
    expect = np.zeros(7)
    expect[0] = 1.0
    assert np.allclose(ones, expect, atol=1e-12)
    p3 = bk.inner_products(doublewell_table, doublewell_gauss,
                           lambda x: bk.eval_poly_all(doublewell_table, 3, x)[3], 6)
    expect = np.zeros(7)
    expect[3] = 1.0
    assert np.allclose(p3, expect, atol=1e-10)


def test_harmonic_potential_expansion(harmonic_table, harmonic_gauss, harmonic_pot):
    # (x^2 + log 2 pi)/2 expanded in {1, x, (x^2-1)/sqrt 2}
    v = bk.inner_products(harmonic_table, harmonic_gauss, harmonic_pot, 6)
    assert v[0] == pytest.approx(0.5 * (1 + math.log(2 * math.pi)), rel=1e-12)
    assert v[2] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    others = np.delete(v, [0, 2])
    assert np.max(np.abs(others)) <= 1e-10


@pytest.mark.parametrize("coeffs", [(0.5 * math.log(2 * math.pi), 0.5),
                                    (1.0, -2.0, 1.0)])
def test_stieltjes_vs_extended_chebyshev(coeffs):
    pot = bk.normalize_potential(bk.RawPotential(coeffs))
    st = bk.build_recurrence(pot, 20)
    ch = bk.chebyshev_recurrence(pot, 20)
    rel = np.abs(st.a - ch.a) / ch.a
    assert np.max(rel) <= 1e-10


FREUD_POTENTIALS = [(0.5 * math.log(2.0 * math.pi), 0.5), (1.0, -2.0, 1.0),
                    (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, -3.0, 0.5, 0.2)]


@pytest.fixture(scope="module")
def certified_tables():
    pots = [bk.normalize_potential(bk.RawPotential(c)) for c in FREUD_POTENTIALS]
    return [bk.build_recurrence(pot, 586) for pot in pots]


def test_freud_residual_of_the_harmonic_closed_form(harmonic_pot):
    a = np.sqrt(np.arange(601.0))
    a[0] = 1.0
    assert bk.freud_residual(a, harmonic_pot) <= 1e-14


def test_freud_residual_detects_one_perturbed_coefficient(certified_tables):
    for table in certified_tables:
        n_max = table.n_max
        assert bk.freud_residual(table.a, table.weight) <= 1e-12
        for n in (1, n_max // 2, n_max - 1, n_max):
            a = table.a.copy()
            a[n] *= 1.0 + 1e-10
            assert bk.freud_residual(a, table.weight) > 1e-12, (table.weight, n)


def test_freud_residual_reads_only_rows_the_truncation_keeps_exact():
    # Degree 10 and n_max = 2: no row n <= n_max + 1 - deg/2 exists, so there
    # is nothing to certify, and the table is returned from the first pass.
    pot = bk.normalize_potential(bk.RawPotential((0, 0, 0, 0, 0, 1)))
    assert bk.freud_residual(np.ones(3), pot) == 0.0
    st = bk.build_recurrence(pot, 2)
    ch = bk.chebyshev_recurrence(pot, 2)
    assert np.max(np.abs(st.a - ch.a) / ch.a) <= 1e-12


def test_freud_residual_rejects_an_underresolved_pass(doublewell_pot):
    cutoff = bk.tail_cutoff(doublewell_pot, poly_degree=2 * 586 + 2)
    coarse = _stieltjes_pass(doublewell_pot, 586, 1172, cutoff)
    fine = _stieltjes_pass(doublewell_pot, 586, 2344, cutoff)
    assert bk.freud_residual(coarse, doublewell_pot) > 1e-12
    assert bk.freud_residual(fine, doublewell_pot) <= 1e-12


def test_build_recurrence_refines_an_uncertified_first_pass():
    # A deep double well: the first pass, on 4 n_max panels, resolves the
    # narrow wells to about 1e-7 only and fails the certificate.
    pot = bk.normalize_potential(bk.RawPotential((0.0, -30.0, 1.0)))
    n_max = 100
    cutoff = bk.tail_cutoff(pot, poly_degree=2 * n_max + 2)
    first = _stieltjes_pass(pot, n_max, 4 * n_max, cutoff)
    assert bk.freud_residual(first, pot) > 1e-12
    table = bk.build_recurrence(pot, n_max)
    assert bk.freud_residual(table.a, pot) <= 1e-12
    fine = _stieltjes_pass(pot, n_max, 16 * n_max + 1024, cutoff)
    assert np.max(np.abs(table.a - fine) / fine) <= 1e-12


def test_moment_ladder_against_direct_quadrature(doublewell_pot):
    # The ladder fills high moments from two seeds; check one directly.
    with mp.workdps(40):
        moments = _weight_moments_mp(doublewell_pot, 10, 40)
        coeffs = [mp.mpf(c) for c in doublewell_pot.coeffs]

        def phi(x):
            return coeffs[0] + coeffs[1] * x ** 2 + coeffs[2] * x ** 4

        direct = 2 * mp.quad(lambda x: x ** 10 * mp.exp(-phi(x)), [0, 1, 3, 6, mp.inf])
        assert abs(moments[10] - direct) / direct < mp.mpf("1e-25")
        assert moments[3] == 0


def test_chebyshev_breakdown_reports_index(doublewell_pot):
    with pytest.raises(PrecisionFailureError) as err:
        bk.chebyshev_recurrence(doublewell_pot, 30, dps=8)
    assert err.value.index >= 1


def test_build_recurrence_argument_validation(harmonic_pot, harmonic_table):
    with pytest.raises(ValueError):
        bk.build_recurrence(harmonic_pot, 0)
    with pytest.raises(ValueError):
        bk.chebyshev_recurrence(harmonic_pot, 0)
    with pytest.raises(ValueError):
        bk.build_quadrature(harmonic_pot, "gauss_from_jacobi", 10)
    with pytest.raises(ValueError):
        bk.build_quadrature(harmonic_pot, "composite_weddle", 0)
    with pytest.raises(ValueError):
        bk.build_quadrature(harmonic_pot, "weird", 4)


def test_import_leaves_out_mpmath():
    # Only the extended-precision cross-check path needs mpmath.
    env = dict(os.environ, PYTHONPATH=str(Path(bk.__file__).resolve().parents[1]))
    code = "import sys, bgkspectral; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_hermite_eval(harmonic_table):
    vs = np.linspace(-2, 2, 5)
    h = bk.hermite_eval_all(3, vs)
    assert np.allclose(h[0], 1.0)
    assert np.allclose(h[1], vs)
    assert np.allclose(h[2], (vs ** 2 - 1) / math.sqrt(2))
    # identical to the space family in the harmonic case
    p = bk.eval_poly_all(harmonic_table, 3, vs)
    assert np.allclose(h, p, atol=1e-12)
