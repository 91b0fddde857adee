import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings

import bgkspectral as bk
from bgkspectral import orthopoly
from bgkspectral.errors import (IntegrationFailureError, InvalidPotentialError,
                                PrecisionFailureError)
from bgkspectral.orthopoly import _half_line_seed, _stieltjes_pass
from bgkspectral.weddle import panel_rule
from conftest import integrate_adaptive, inner_products, potentials_and_sizes
from oracles import chebyshev_recurrence, magnus_constant, weight_moments_mp


def test_weddle_panel_exactness():
    # Closed Newton-Cotes on six strips integrates degree-7 polynomials exactly.
    x, w = panel_rule(-1.0, 2.0, 1)
    for deg in range(8):
        exact = (2.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
        assert w @ x ** deg == pytest.approx(exact, rel=1e-14)


def test_adaptive_integration_gives_up():
    # About 1.6e6 periods on [0, 1]: even the finest rule within the node
    # budget samples each period at fewer than two nodes.
    with pytest.raises(IntegrationFailureError, match="did not reach"):
        integrate_adaptive(lambda x: np.cos(1e7 * x), 0.0, 1.0)


def test_harmonic_coefficients_are_sqrt_k(harmonic_table):
    k = np.arange(1, harmonic_table.n_max + 1)
    rel = np.abs(harmonic_table.a[k] - np.sqrt(k)) / np.sqrt(k)
    assert np.max(rel) <= 1e-12
    assert harmonic_table.a[0] == pytest.approx(1.0, abs=1e-12)


def test_a0_is_one_for_any_normalized_weight(doublewell_table):
    assert doublewell_table.a[0] == pytest.approx(1.0, abs=1e-12)


def test_magnus_asymptotics(doublewell_table, doublewell_pot):
    const = magnus_constant(doublewell_pot)
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
    v = inner_products(doublewell_table, doublewell_gauss, lambda x: x, 3)
    assert v[1] == pytest.approx(doublewell_table.a[1], rel=1e-12)
    assert abs(v[0]) <= 1e-12 and abs(v[2]) <= 1e-12


def test_inner_products_unit_vectors(doublewell_table, doublewell_gauss):
    ones = inner_products(doublewell_table, doublewell_gauss,
                          lambda x: np.ones_like(x), 6)
    expect = np.zeros(7)
    expect[0] = 1.0
    assert np.allclose(ones, expect, atol=1e-12)
    p3 = inner_products(doublewell_table, doublewell_gauss,
                        lambda x: bk.eval_poly_all(doublewell_table, 3, x)[3], 6)
    expect = np.zeros(7)
    expect[3] = 1.0
    assert np.allclose(p3, expect, atol=1e-10)


def test_harmonic_potential_expansion(harmonic_table, harmonic_gauss, harmonic_pot):
    # (x^2 + log 2 pi)/2 expanded in {1, x, (x^2-1)/sqrt 2}
    v = inner_products(harmonic_table, harmonic_gauss, harmonic_pot, 6)
    assert v[0] == pytest.approx(0.5 * (1 + math.log(2 * math.pi)), rel=1e-12)
    assert v[2] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    others = np.delete(v, [0, 2])
    assert np.max(np.abs(others)) <= 1e-10


@pytest.mark.parametrize("coeffs", [(0.5 * math.log(2 * math.pi), 0.5),
                                    (1.0, -2.0, 1.0)])
def test_stieltjes_vs_extended_chebyshev(coeffs):
    pot = bk.normalize_potential(bk.RawPotential(coeffs))
    st = bk.build_recurrence(pot, 20)
    ch = chebyshev_recurrence(pot, 20)
    rel = np.abs(st.a - ch.a) / ch.a
    assert np.max(rel) <= 1e-10


FREUD_POTENTIALS = [(0.5 * math.log(2.0 * math.pi), 0.5), (1.0, -2.0, 1.0),
                    (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, -3.0, 0.5, 0.2)]


@pytest.fixture(scope="module")
def certified_tables():
    pots = [bk.normalize_potential(bk.RawPotential(c)) for c in FREUD_POTENTIALS]
    return [bk.build_recurrence(pot, 586) for pot in pots]


def test_certified_tables_come_from_the_first_pass(certified_tables):
    # The plain three-term pass certifies at n_max = 586 on its first
    # max(256, 4 n_max) intervals for every potential here.
    for table in certified_tables:
        assert table.panels == 4 * 586 == 2344, table.weight
        assert table.freud_residual <= 1e-12


def _trapezoidal_weights(nodes, h):
    """Weights of the trapezoidal rule on `nodes` equispaced nodes h apart."""
    w = np.full(nodes, h)
    w[[0, -1]] *= 0.5
    return w


def _full_line_pass(pot, n_max, panels, cutoff):
    """The Stieltjes pass on the symmetric trapezoidal rule with 2 * panels
    intervals of [-cutoff, cutoff], one fresh array a row.  The node j h is
    one product, exact at 0 and mirrored bit for bit."""
    h = cutoff / panels
    x = h * np.arange(-panels, panels + 1.0)
    w = _trapezoidal_weights(len(x), h)
    q = np.exp(-0.5 * pot(x))
    a = np.empty(n_max + 1)
    a[0] = math.sqrt(float(w @ (q * q)))
    q /= a[0]
    q_prev = np.zeros_like(q)
    for n in range(n_max):
        y = x * q - a[n] * q_prev
        a[n + 1] = math.sqrt(float(w @ (y * y)))
        q_prev = q
        q = y / a[n + 1]
    return a


def _half_vs_full_line(pot, n_max):
    cutoff = bk.tail_cutoff(pot, poly_degree=2 * n_max + 2)
    panels = max(256, 4 * n_max)
    half = _stieltjes_pass(pot, n_max, panels, cutoff)
    full = _full_line_pass(pot, n_max, panels, cutoff)
    return float(np.max(np.abs(half - full) / full))


def test_half_line_pass_matches_the_full_line_rule(certified_tables):
    for table in certified_tables:
        assert _half_vs_full_line(table.weight, table.n_max) <= 4e-15, table.weight


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(potentials_and_sizes())
def test_half_line_pass_matches_the_full_line_rule_on_drawn_potentials(drawn):
    try:
        pot = bk.normalize_potential(bk.RawPotential(tuple(drawn[0])))
    except InvalidPotentialError:
        return
    for n_max in (10, 50, 200):
        assert _half_vs_full_line(pot, n_max) <= 4e-15, (drawn[0], n_max)


def _five_pass_rows(pot, n_max, panels, cutoff):
    """The half-line pass on every node, with the weights kept apart from the
    values: each row is x q - a q_prev, then y * y, a weighted sum and a
    divide."""
    x = np.linspace(0.0, cutoff, panels + 1)
    w = 2.0 * _trapezoidal_weights(len(x), cutoff / panels)
    q = np.exp(-0.5 * pot(x))
    a = np.empty(n_max + 1)
    a[0] = math.sqrt(float(w @ (q * q)))
    q /= a[0]
    q_prev = np.zeros_like(q)
    for n in range(n_max):
        y = x * q - a[n] * q_prev
        a[n + 1] = math.sqrt(float(w @ (y * y)))
        q_prev, q = q, y / a[n + 1]
    return a


def test_live_node_pass_matches_the_five_pass_rows(certified_tables):
    for table in certified_tables:
        pot, n_max = table.weight, table.n_max
        cutoff = bk.tail_cutoff(pot, poly_degree=2 * n_max + 2)
        want = _five_pass_rows(pot, n_max, table.panels, cutoff)
        assert np.max(np.abs(table.a - want) / want) <= 1e-15, pot


def test_the_pass_drops_only_nodes_whose_seed_is_zero(certified_tables):
    # On the double well at n_max = 586 the weight underflows beyond about
    # 15.3 of a cutoff of 20.2, so about a quarter of the nodes go.
    dropped = []
    for table in certified_tables:
        pot = table.weight
        cutoff = bk.tail_cutoff(pot, poly_degree=2 * table.n_max + 2)
        x_all = np.linspace(0.0, cutoff, table.panels + 1)
        x, q, _ = _half_line_seed(pot, table.panels, cutoff)
        assert np.array_equal(x, x_all[:len(x)]) and q[-1] > 0.0
        assert np.all(np.exp(-0.5 * pot(x_all[len(x):])) == 0.0)
        dropped.append(1.0 - len(x) / len(x_all))
    assert dropped[1] > 0.2


def test_a_seed_that_vanishes_everywhere_is_a_typed_failure():
    # exp(-1000) underflows at every node.
    pot = bk.NormalizedPotential(coeffs=(2000.0, 1.0), scale=1.0, log_shift=0.0)
    with pytest.raises(PrecisionFailureError, match="every node"):
        _stieltjes_pass(pot, 10, 256, 8.0)


def test_every_pass_keeps_to_the_node_budget(harmonic_pot, monkeypatch):
    # n_max = 200,000 starts on 800,000 intervals, past the budget of
    # 2^22 / 6: the first pass must not run, as the doubled ones never do.
    passes = []
    monkeypatch.setattr(orthopoly, "_stieltjes_pass",
                        lambda *args: passes.append(args))
    with pytest.raises(IntegrationFailureError, match="budget"):
        bk.build_recurrence(harmonic_pot, 200_000)
    assert passes == []


def test_harmonic_coefficients_are_sqrt_k_to_rounding_at_680(harmonic_pot):
    table = bk.build_recurrence(harmonic_pot, 680)
    k = np.arange(1, 681)
    assert np.max(np.abs(table.a[k] - np.sqrt(k)) / np.sqrt(k)) <= 2e-15


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
    ch = chebyshev_recurrence(pot, 2)
    assert np.max(np.abs(st.a - ch.a) / ch.a) <= 1e-12


def test_freud_residual_rejects_an_underresolved_pass(doublewell_pot):
    cutoff = bk.tail_cutoff(doublewell_pot, poly_degree=2 * 586 + 2)
    # 600 intervals read about 3e-12, 700 about 1e-14.
    coarse = _stieltjes_pass(doublewell_pot, 586, 600, cutoff)
    fine = _stieltjes_pass(doublewell_pot, 586, 700, cutoff)
    assert bk.freud_residual(coarse, doublewell_pot) > 1e-12
    assert bk.freud_residual(fine, doublewell_pot) <= 1e-12


def test_build_recurrence_refines_an_uncertified_first_pass():
    # A sextic with its wells at |x| ≈ 4.6 before normalization: the first
    # pass, on 256 intervals, reads a Freud residual of about 2e-11, and the
    # doubled pass certifies.
    pot = bk.normalize_potential(bk.RawPotential((0.0, 0.0, -2.0, 0.0625)))
    n_max = 50
    cutoff = bk.tail_cutoff(pot, poly_degree=2 * n_max + 2)
    first = _stieltjes_pass(pot, n_max, 256, cutoff)
    assert bk.freud_residual(first, pot) > 1e-12
    table = bk.build_recurrence(pot, n_max)
    assert table.panels == 512
    assert bk.freud_residual(table.a, pot) <= 1e-12
    fine = _stieltjes_pass(pot, n_max, 16 * n_max + 1024, cutoff)
    assert np.max(np.abs(table.a - fine) / fine) <= 1e-12


def test_deep_double_well_certifies_on_the_first_pass():
    # The narrow wells of (0, -30, 1) need no doubling on the trapezoidal
    # rule: the first pass of 4 n_max intervals reads about 4e-13.
    pot = bk.normalize_potential(bk.RawPotential((0.0, -30.0, 1.0)))
    n_max = 100
    table = bk.build_recurrence(pot, n_max)
    assert table.panels == 4 * n_max == 400
    assert table.freud_residual <= 1e-12
    cutoff = bk.tail_cutoff(pot, poly_degree=2 * n_max + 2)
    fine = _stieltjes_pass(pot, n_max, 16 * n_max + 1024, cutoff)
    assert np.max(np.abs(table.a - fine) / fine) <= 1e-12


def test_build_recurrence_fails_fast_once_the_residual_stalls(harmonic_pot,
                                                           monkeypatch):
    # Near n_max = 700 the sampled weight underflows in its tail, and doubling
    # the panels stops improving the table: the residual reads about 4e-10,
    # 1e-10, 2e-10, ... instead of reaching 1e-12.
    panels = []

    def counting_pass(pot, n_max, count, cutoff):
        panels.append(count)
        return _stieltjes_pass(pot, n_max, count, cutoff)

    monkeypatch.setattr(orthopoly, "_stieltjes_pass", counting_pass)
    with pytest.raises(IntegrationFailureError, match="Freud residual"):
        bk.build_recurrence(harmonic_pot, 700)
    assert len(panels) <= 3


def test_moment_ladder_against_direct_quadrature(doublewell_pot):
    # The ladder fills high moments from two seeds; check one directly.
    with mp.workdps(40):
        moments = weight_moments_mp(doublewell_pot, 10)
        coeffs = [mp.mpf(c) for c in doublewell_pot.coeffs]

        def phi(x):
            return coeffs[0] + coeffs[1] * x ** 2 + coeffs[2] * x ** 4

        direct = 2 * mp.quad(lambda x: x ** 10 * mp.exp(-phi(x)), [0, 1, 3, 6, mp.inf])
        assert abs(moments[10] - direct) / direct < mp.mpf("1e-25")
        assert moments[3] == 0


def test_chebyshev_breakdown_reports_index(doublewell_pot):
    with pytest.raises(PrecisionFailureError) as err:
        chebyshev_recurrence(doublewell_pot, 30, dps=8)
    assert re.search(r"at index [1-9]", str(err.value))


def test_build_recurrence_argument_validation(harmonic_pot, harmonic_table):
    with pytest.raises(ValueError):
        bk.build_recurrence(harmonic_pot, 0)
    with pytest.raises(ValueError):
        chebyshev_recurrence(harmonic_pot, 0)
    with pytest.raises(ValueError):
        bk.build_quadrature(harmonic_pot, "gauss_from_jacobi", 10)
    with pytest.raises(ValueError):
        bk.build_quadrature(harmonic_pot, "composite_weddle", 0)
    with pytest.raises(ValueError):
        bk.build_quadrature(harmonic_pot, "weird", 4)


def test_import_leaves_out_mpmath(tmp_path):
    # Only the tests' extended-precision oracles need mpmath.  With its import
    # blocked, a preset run, the snapshot-writing fig4 preset and a K_N lab
    # run (the benchmark's kn_lab config) still exit 0.
    kn_config = tmp_path / "kn_lab.json"
    kn_config.write_text(json.dumps({
        "potential": [1.0, -2.0, 1.0], "K": 4, "N": 4, "dt": 1e-2, "T": 0.1,
        "initial": [[1, 1, 1.0], [3, 2, 0.5]],
        "outputs": ["norms", "conserved", "kn", "recurrence"],
        "kn_n_values": [16, 32, 64, 128]}))
    runs = [["--preset", "harmonic_fig1"], ["--preset", "doublewell_fig4"],
            ["--config", str(kn_config)]]
    runs = [args + ["--out-dir", str(tmp_path / str(i))]
            for i, args in enumerate(runs)]
    env = dict(os.environ, PYTHONPATH=str(Path(bk.__file__).resolve().parents[1]))
    code = ("import json, sys, bgkspectral; print('mpmath' in sys.modules); "
            "sys.modules['mpmath'] = None; from bgkspectral import cli; "
            "print([cli.main(args) for args in json.loads(sys.argv[1])])")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                         check=True, capture_output=True, text=True).stdout
    lines = out.split("\n")
    assert lines[0] == "False"
    assert lines[-2] == "[0, 0, 0]"
    assert (tmp_path / "1" / "snapshot_12.csv").is_file()
    assert (tmp_path / "2" / "kn_table.csv").is_file()


def test_hermite_eval(harmonic_table):
    vs = np.linspace(-2, 2, 5)
    h = bk.hermite_eval_all(3, vs)
    assert np.allclose(h[0], 1.0)
    assert np.allclose(h[1], vs)
    assert np.allclose(h[2], (vs ** 2 - 1) / math.sqrt(2))
    # identical to the space family in the harmonic case
    p = bk.eval_poly_all(harmonic_table, 3, vs)
    assert np.allclose(h, p, atol=1e-12)
