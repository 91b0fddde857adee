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

from conftest import DOUBLE_WELL_COEFFS, HARMONIC_COEFFS


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
    assert harmonic_pot.deriv(3.0) == pytest.approx(3.0, abs=1e-15)
    assert harmonic_pot.deriv2(11.0) == pytest.approx(1.0, abs=1e-15)


def test_deriv2_matches_finite_difference(doublewell_pot):
    h = 1e-6
    x = 0.7
    fd = (doublewell_pot.deriv(x + h) - doublewell_pot.deriv(x - h)) / (2 * h)
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
        got = (pot(x), pot.deriv(x), pot.deriv2(x))
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
    # [0, 1e10] still normalizes; the two steeper weights exhaust the
    # adaptive rule's nodes, which is reported against the coefficients.
    pot = bk.normalize_potential(bk.RawPotential((0.0, 1e10)))
    assert pot.scale == pytest.approx(1.0 / math.sqrt(2e10), rel=1e-12)
    for coeffs in ((0.0, 1e12), (0.0, 0.0, 1e20)):
        with pytest.raises(InvalidPotentialError, match=re.escape(str(coeffs))) as err:
            bk.normalize_potential(bk.RawPotential(coeffs))
        assert isinstance(err.value.__cause__, IntegrationFailureError)
