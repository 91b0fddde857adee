import math

import pytest
from hypothesis import strategies as st

import bgkspectral as bk

HARMONIC_COEFFS = (0.5 * math.log(2.0 * math.pi), 0.5)
DOUBLE_WELL_COEFFS = (1.0, -2.0, 1.0)


def inner_products(table, rule, f, n):
    """Vector of <f, P_k>, k = 0..n, under the weight rho, by the quadrature `rule`."""
    return bk.eval_poly_all(table, n, rule.nodes) @ (rule.weights * f(rule.nodes))


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
