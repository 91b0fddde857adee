import json
import math
import re
import warnings

import numpy as np
from numpy.polynomial import polynomial as npoly
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import bgkspectral as bk
from bgkspectral import cli
from bgkspectral.errors import IntegrationFailureError, InvalidPotentialError

from conftest import (DOUBLE_WELL_COEFFS, HARMONIC_COEFFS, scanned_tail_cutoff,
                      weddle_normalized_coeffs)


def test_harmonic_already_normalized():
    pot = bk.normalize_potential(bk.RawPotential(HARMONIC_COEFFS))
    assert pot.scale == pytest.approx(1.0, abs=1e-12)
    assert pot.log_shift == pytest.approx(0.0, abs=1e-12)
    assert pot.harmonic
    assert np.allclose(pot.coeffs, HARMONIC_COEFFS, atol=1e-12)


def test_plain_quadratic_maps_to_harmonic():
    # For phi = x^2 the Gaussian integrals give c = sqrt(2 pi), gamma = 1/sqrt(2),
    # and the normalized potential is (x^2 + log(2 pi)) / 2.
    pot = bk.normalize_potential(bk.RawPotential((0.0, 1.0)))
    assert math.exp(pot.log_shift) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-11)
    assert pot.scale == pytest.approx(1 / math.sqrt(2), rel=1e-11)
    assert pot.coeffs[0] == pytest.approx(0.5 * math.log(2 * math.pi), rel=1e-11)
    assert pot.coeffs[1] == pytest.approx(0.5, rel=1e-11)


def test_double_well_self_consistency():
    # Independent oracle: adaptive scipy quadrature of the two defining integrals.
    pot = bk.normalize_potential(bk.RawPotential(DOUBLE_WELL_COEFFS))
    mass, _ = quad(lambda x: math.exp(-pot(x)), -np.inf, np.inf)
    curv, _ = quad(lambda x: pot.deriv2(x) * math.exp(-pot(x)), -np.inf, np.inf)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert curv == pytest.approx(1.0, abs=1e-10)
    assert not pot.harmonic
    assert pot.degree == 4


def test_weight_is_centered(doublewell_pot):
    val, _ = quad(lambda x: x * math.exp(-doublewell_pot(x)), -np.inf, np.inf)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_eval_harmonic_values(harmonic_pot):
    assert harmonic_pot(0.0) == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-15)
    assert npoly.polyval(3.0, harmonic_pot.deriv_coeffs) == pytest.approx(
        3.0, abs=1e-15)
    assert harmonic_pot.deriv2(11.0) == pytest.approx(1.0, abs=1e-15)


def test_deriv2_matches_finite_difference(doublewell_pot):
    h = 1e-6
    x = 0.7
    dphi = doublewell_pot.deriv_coeffs
    fd = (npoly.polyval(x + h, dphi) - npoly.polyval(x - h, dphi)) / (2 * h)
    exact = doublewell_pot.deriv2(x)
    assert abs(fd - exact) / abs(exact) <= 1e-8


@pytest.mark.parametrize("coeffs", [HARMONIC_COEFFS, DOUBLE_WELL_COEFFS,
                                    (0.5, -1.0, 0.25, 0.125)])
def test_cached_coefficients_evaluate_bit_for_bit(coeffs):
    # The coefficient arrays are built once per potential; values must match
    # the ones built afresh on every call, on scalars and on arrays.
    pot = bk.RawPotential(coeffs)
    full = np.zeros(2 * len(coeffs) - 1)
    full[::2] = coeffs
    powers = (full, npoly.polyder(full), npoly.polyder(full, 2))
    for x in (0.0, 0.7, -3.25, np.linspace(-6.0, 6.0, 101)):
        got = (pot(x), npoly.polyval(x, pot.deriv_coeffs), pot.deriv2(x))
        for value, c in zip(got, powers):
            want = npoly.polyval(x, c)
            assert np.asarray(value).tobytes() == np.asarray(want).tobytes()
    assert pot.deriv_coeffs is pot.deriv_coeffs
    with pytest.raises(ValueError):
        pot.deriv_coeffs[0] = 1.0


@settings(derandomize=True, database=None)
@given(st.floats(min_value=-20.0, max_value=20.0))
def test_parity(x):
    pot = bk.RawPotential(DOUBLE_WELL_COEFFS)
    assert pot(x) == pot(-x)


def test_idempotence(doublewell_pot):
    again = bk.normalize_potential(bk.RawPotential(doublewell_pot.coeffs))
    assert again.scale == pytest.approx(1.0, abs=1e-10)
    assert again.log_shift == pytest.approx(0.0, abs=1e-10)


def test_invalid_leading_coefficient():
    with pytest.raises(InvalidPotentialError):
        bk.RawPotential((1.0, -2.0, -1.0))
    with pytest.raises(InvalidPotentialError):
        bk.RawPotential((1.0, 0.0))


def test_degree_too_low():
    with pytest.raises(InvalidPotentialError):
        bk.RawPotential((1.0,))


def test_tail_cutoff_bounds(harmonic_pot):
    cut = bk.tail_cutoff(harmonic_pot)
    # exp(-phi(L)) must be below double-precision relevance
    assert harmonic_pot(cut) >= 80.0
    larger = bk.tail_cutoff(harmonic_pot, poly_degree=100)
    assert larger > cut
    # A weight narrower than the search start keeps the cutoff there.
    steep = bk.RawPotential((0.0, 1000.0))
    assert bk.tail_cutoff(steep) == 0.5
    assert bk.normalize_potential(steep).scale == pytest.approx(
        1.0 / math.sqrt(2000.0), rel=1e-12)


def test_overflowing_weight_is_a_typed_error():
    # phi's minimum is about -11,799, where exp(-phi) overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidPotentialError, match="-11799"):
            bk.normalize_potential(bk.RawPotential((0.0, -2.0, 2.0, -2.0, 0.05)))


def test_deep_well_normalizes():
    # phi dips to about -500: I0 is about 4e214 and I2 1e221, so their
    # product overflows, but log c = (log I0 + log I2) / 2 does not.
    raw = bk.RawPotential((2000.0, -1e6, 1e8))
    pot = bk.normalize_potential(raw)
    assert pot.log_shift == pytest.approx(501.612, abs=1e-3)
    L = bk.tail_cutoff(pot, poly_degree=pot.degree - 2)
    mass, _ = quad(lambda x: math.exp(-pot(x)), -L, L, points=[-1.0, 1.0], limit=200)
    curv, _ = quad(lambda x: pot.deriv2(x) * math.exp(-pot(x)), -L, L,
                   points=[-1.0, 1.0], limit=200)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert curv == pytest.approx(1.0, abs=1e-10)


# Outer wells at |x| ~ 4.47 lie 5.9 below phi(0): a cutoff at the central
# well alone keeps 0.27% of the weight's mass.
MULTI_WELL_COEFFS = (0.0, 400.0, -40.0148, 1.0)


def _critical_radii(pot):
    """The positive real roots of phi', ascending."""
    roots = npoly.polyroots(pot.deriv_coeffs)
    real = roots.real[np.abs(roots.imag) <= 1e-9 * np.abs(roots)]
    return np.sort(real[real > 0.0])


def _whole_line(f, pot):
    """Integral of f over the real line, split at the critical points of pot."""
    edges = [0.0, *_critical_radii(pot), math.inf]
    return 2.0 * sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(edges[:-1], edges[1:]))


def test_multi_well_cutoff_covers_the_outer_wells():
    raw = bk.RawPotential(MULTI_WELL_COEFFS)
    outer = _critical_radii(raw)[-1]
    assert outer == pytest.approx(4.47, abs=0.01)
    assert bk.tail_cutoff(raw) > outer
    assert raw.floor == pytest.approx(raw(outer), rel=1e-12)
    pot = bk.normalize_potential(raw)
    mass = _whole_line(lambda x: math.exp(-pot(x)), pot)
    curv = _whole_line(lambda x: pot.deriv2(x) * math.exp(-pot(x)), pot)
    assert abs(mass - 1.0) <= 1e-10 and abs(curv - 1.0) <= 1e-10


def test_multi_well_run_is_a_typed_failure(tmp_path):
    # The Stieltjes pass does not certify this weight; that is exit 3, not a
    # table of the central well alone.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": list(MULTI_WELL_COEFFS),
                               "K": 4, "N": 8, "T": 0.1}))
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out-dir", str(out)]) == 3
    assert not out.exists()


@st.composite
def multi_wells(draw):
    """a x^2 - b x^4 + x^6 with b^2 > 4a: its outer wells lie below phi(0)."""
    a = draw(st.floats(0.05, 400.0))
    b = 2.0 * math.sqrt(a * draw(st.floats(1.0005, 4.0)))
    return (0.0, a, -b, 1.0)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(multi_wells())
@example(MULTI_WELL_COEFFS)
def test_cutoff_keeps_all_but_a_negligible_share_of_the_mass(coeffs):
    raw = bk.RawPotential(coeffs)
    L = bk.tail_cutoff(raw)
    # Relative to the minimum, so that deep wells do not overflow.
    floor = np.min(raw(np.append(_critical_radii(raw), 0.0)))
    rel = lambda x: math.exp(floor - raw(x))
    total = _whole_line(rel, raw)
    outside = 2.0 * quad(rel, L, math.inf, epsabs=0.0, epsrel=1e-10)[0]
    assert outside <= math.exp(-70.0) * total


def test_steep_potentials_at_the_node_budget():
    # The finest trapezoidal rule the 2^22-node budget affords on [0, 0.5]
    # has 96 * 2^15 intervals.  [0, 1e12] and [0, 0, 1e20] normalize to
    # their closed forms; on [0, 1e13] and [0, 0, 1e24] the last two rules
    # disagree, which is reported against the coefficients, and [0, 1e16]
    # lies within 2^-22 of the origin.
    quadratic = bk.normalize_potential(bk.RawPotential((0.0, 1e12)))
    assert quadratic.scale == 1.0 / math.sqrt(2e12)
    assert quadratic.log_shift == pytest.approx(0.5 * math.log(2.0 * math.pi),
                                                rel=2e-15)
    # phi = a x^4: I0 = Gamma(1/4) / (2 a^(1/4)), I2 = 6 a^(1/4) Gamma(3/4).
    quartic = bk.normalize_potential(bk.RawPotential((0.0, 0.0, 1e20)))
    assert quartic.scale == pytest.approx(
        math.sqrt(math.gamma(0.25) / (12.0 * math.gamma(0.75))) / 1e5, rel=2e-15)
    for coeffs in ((0.0, 1e13), (0.0, 0.0, 1e24)):
        with pytest.raises(InvalidPotentialError, match=re.escape(str(coeffs))) as err:
            bk.normalize_potential(bk.RawPotential(coeffs))
        assert isinstance(err.value.__cause__, IntegrationFailureError)
    with pytest.raises(InvalidPotentialError, match="too narrow"):
        bk.normalize_potential(bk.RawPotential((0.0, 1e16)))


@pytest.mark.parametrize("coeffs", [HARMONIC_COEFFS, DOUBLE_WELL_COEFFS,
                                    (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, -1.0, 0.3),
                                    (0.0, 1.0, -3.0, 0.5, 0.2), (0.0, -30.0, 1.0)])
def test_trapezoidal_normalization_matches_the_weddle_oracle(coeffs):
    raw = bk.RawPotential(coeffs)
    np.testing.assert_allclose(bk.normalize_potential(raw).coeffs,
                               weddle_normalized_coeffs(raw), rtol=2e-15, atol=0.0)


def test_steep_quadratic_is_closer_to_its_closed_form_than_the_oracle():
    # On [0, 1e10] the Weddle oracle's log-shift is 9.9e-13 off
    # log sqrt(2 pi); the trapezoidal rule's is within rounding.
    raw = bk.RawPotential((0.0, 1e10))
    exact = (0.5 * math.log(2.0 * math.pi), 0.5)
    np.testing.assert_allclose(bk.normalize_potential(raw).coeffs, exact,
                               rtol=2e-15, atol=0.0)
    np.testing.assert_allclose(weddle_normalized_coeffs(raw), exact,
                               rtol=1e-12, atol=0.0)


def _cutoff_or_message(cutoff, pot, poly_degree):
    try:
        return cutoff(pot, poly_degree)
    except InvalidPotentialError as exc:
        return str(exc)


@st.composite
def scaled_potentials(draw):
    """Coefficients of a potential of degree 2..8, scaled by 10^-8..10^12."""
    m = draw(st.integers(1, 4))
    lower = draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m))
    scale = 10.0 ** draw(st.integers(-8, 12))
    return tuple(scale * c for c in lower + [draw(st.floats(0.05, 2.0))])


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(scaled_potentials(), st.integers(0, 1500))
@example((0.0, 1e16), 0)                       # narrow
@example((0.0, 1e308), 0)                      # overflows
@example((0.0, 1e-30), 0)                      # no cutoff up to 1e9
@example((0.0,) * 40 + (1.0,), 0)              # probes past L overflow
def test_bisection_finds_the_scanned_cutoff(coeffs, n):
    pot = bk.RawPotential(coeffs)
    for d in (0, pot.degree - 2, 2 * n + 2):
        assert (_cutoff_or_message(bk.tail_cutoff, pot, d)
                == _cutoff_or_message(scanned_tail_cutoff, pot, d))


@pytest.mark.parametrize("coeffs, message", [
    ((0.0, 1e16), "too narrow to integrate"),
    ((0.0, 1e308), "overflows double precision"),
    ((0.0, 1e-30), "failed to locate an integration cutoff"),
])
def test_cutoff_rejections_match_the_scan(coeffs, message):
    pot = bk.RawPotential(coeffs)
    for cutoff in (bk.tail_cutoff, scanned_tail_cutoff):
        with pytest.raises(InvalidPotentialError, match=message):
            cutoff(pot, 0)
