import math

import numpy as np
from numpy.polynomial import polynomial as npoly
import pytest
from hypothesis import strategies as st

import bgkspectral as bk
from bgkspectral.cli import _is_finite, _is_int
from bgkspectral.errors import (ConfigError, IntegrationFailureError,
                                InvalidPotentialError, describe)
from bgkspectral.potential import (_MAX_NODES, _REL_TOL, _TAIL_MARGIN,
                                   _real_root_radii)
from bgkspectral.weddle import panel_rule

HARMONIC_COEFFS = (0.5 * math.log(2.0 * math.pi), 0.5)
DOUBLE_WELL_COEFFS = (1.0, -2.0, 1.0)


def inner_products(table, rule, f, n):
    """Vector of <f, P_k>, k = 0..n, under the weight rho, by the quadrature `rule`."""
    return bk.eval_poly_all(table, n, rule.nodes) @ (rule.weights * f(rule.nodes))


def integrate_adaptive(f, lo: float, hi: float) -> float:
    """Integrate f over [lo, hi] by composite Weddle, doubling panels from 16
    until successive values agree to _REL_TOL; past _MAX_NODES nodes, raise
    IntegrationFailureError.  The oracle of `bk.normalize_potential`'s
    integrals, on a rule independent of its trapezoidal one."""
    panels = 16
    prev = None
    while True:
        x, w = panel_rule(lo, hi, panels)
        val = float(w @ np.asarray(f(x), dtype=float))
        if prev is not None and abs(val - prev) <= _REL_TOL * max(abs(val), 1e-300):
            return val
        panels *= 2
        if 6 * panels + 1 > _MAX_NODES:
            raise IntegrationFailureError(
                f"composite quadrature on [{lo}, {hi}] did not reach rel_tol={_REL_TOL} "
                f"within {_MAX_NODES} nodes"
            )
        prev = val


def scanned_tail_cutoff(pot, poly_degree: int = 0) -> float:
    """`bk.tail_cutoff` by a walk up the grid 0.5 * 1.0625^k, one point at a time."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            xdphi = npoly.polysub(npoly.polymulx(pot.deriv_coeffs), [poly_degree])
            rising = np.max(_real_root_radii(xdphi), initial=0.0)

            def negligible(L: float) -> bool:
                return L > rising and (pot(L) - pot.floor - poly_degree
                                       * math.log(max(L, math.e))) >= _TAIL_MARGIN

            if negligible(1.0 / _MAX_NODES):
                raise InvalidPotentialError(f"potential {pot.coeffs}: exp(-phi) "
                                            "is too narrow to integrate")
            L = 0.5
            while not negligible(L):
                L *= 1.0625
                if L > 1e9:
                    raise InvalidPotentialError("failed to locate an integration cutoff")
            return L
    except FloatingPointError:
        raise InvalidPotentialError(
            f"potential {pot.coeffs} overflows double precision") from None


def weddle_normalized_coeffs(raw) -> tuple[float, ...]:
    """The coefficients of `bk.normalize_potential(raw)` with I0 and I2 taken
    by `integrate_adaptive` over their own scanned cutoffs."""
    L0 = scanned_tail_cutoff(raw, poly_degree=0)
    L2 = scanned_tail_cutoff(raw, poly_degree=raw.degree - 2)
    i0 = integrate_adaptive(lambda x: np.exp(-raw(x)), -L0, L0)
    i2 = integrate_adaptive(lambda x: raw.deriv2(x) * np.exp(-raw(x)), -L2, L2)
    gamma = math.sqrt(i0 / i2)
    coeffs = [g * gamma ** (2 * i) for i, g in enumerate(raw.coeffs)]
    coeffs[0] += 0.5 * (math.log(i0) + math.log(i2))
    return tuple(coeffs)


def state_with(entries, K: int, N: int) -> np.ndarray:
    """The (K + 1, N + 1) coefficient array with the listed (k, n, value)
    coefficients set and the others zero."""
    c = np.zeros((K + 1, N + 1))
    for k, n, value in entries:
        c[k, n] = value
    return c


def checked_initial(initial, K: int, N: int):
    """The `initial` rules of `RunConfig.validate()`, one entry at a time:
    the ConfigError for the first entry in list order that is not a
    (k, n, value) triple of integers and a finite number, or is out of
    range; else the one for the first entry that repeats an earlier (k, n);
    else the entries as (int k, int n, float value).  The oracle of
    validate()'s single pass over `initial`."""
    checked = []
    for entry in initial:
        try:
            k, n, value = entry
        except (TypeError, ValueError):
            raise ConfigError(f"initial entries must be (k, n, value): "
                              f"{describe(entry)}") from None
        if not (_is_int(k) and _is_int(n) and _is_finite(value)):
            raise ConfigError(f"initial entry {describe(entry)}: k and n must "
                              "be integers and the value a finite number")
        if not (0 <= k <= K and 0 <= n <= N):
            raise ConfigError(f"initial coefficient ({describe(k)}, {describe(n)}) "
                              "out of range")
        checked.append((int(k), int(n), float(value)))
    seen = set()
    for (k, n, _), entry in zip(checked, initial):
        if (k, n) in seen:
            raise ConfigError(f"initial coefficient ({describe(entry[0])}, "
                              f"{describe(entry[1])}) given twice")
        seen.add((k, n))
    return checked


@st.composite
def potentials_and_sizes(draw, max_size=150):
    """Coefficients of phi, lowest power first, and a size deg(phi)..max_size."""
    m = draw(st.integers(1, 4))                               # deg(phi) = 2m
    lower = draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m))
    lead = draw(st.floats(0.05, 2.0))
    return lower + [lead], draw(st.integers(2 * m, max_size))


@pytest.fixture(scope="session")
def harmonic_pot():
    return bk.normalize_potential(bk.RawPotential(HARMONIC_COEFFS))


@pytest.fixture(scope="session")
def doublewell_pot():
    return bk.normalize_potential(bk.RawPotential(DOUBLE_WELL_COEFFS))


@pytest.fixture(scope="session")
def harmonic_table(harmonic_pot):
    return bk.build_recurrence(harmonic_pot, 260)


@pytest.fixture(scope="session")
def doublewell_table(doublewell_pot):
    return bk.build_recurrence(doublewell_pot, 230)


@pytest.fixture(scope="session")
def harmonic_gauss(harmonic_pot, harmonic_table):
    return bk.build_quadrature(harmonic_pot, "gauss_from_jacobi", 64,
                               table=harmonic_table)


@pytest.fixture(scope="session")
def doublewell_gauss(doublewell_pot, doublewell_table):
    return bk.build_quadrature(doublewell_pot, "gauss_from_jacobi", 64,
                               table=doublewell_table)


@pytest.fixture(scope="session")
def harmonic_weddle(harmonic_pot):
    return bk.build_quadrature(harmonic_pot, "composite_weddle", 4096,
                               max_degree=84)


@pytest.fixture(scope="session")
def doublewell_weddle(doublewell_pot):
    return bk.build_quadrature(doublewell_pot, "composite_weddle", 4096,
                               max_degree=84)
