"""Orthonormal polynomials for weights rho = exp(-phi) with polynomial phi.

The family P_0, P_1, ... is defined by the symmetric three-term recurrence

    x P_n(x) = a_{n+1} P_{n+1}(x) + a_n P_{n-1}(x),   P_0 = 1/a_0,  P_{-1} = 0,

with a_0 = sqrt(integral of rho).  One construction of the coefficients a_n
is provided: `build_recurrence`, a discretized Stieltjes procedure in
ordinary double precision.  The independent construction it is checked
against, the Chebyshev algorithm on power moments in software extended
precision (exponentially ill-conditioned in double precision), is a test
oracle and lives in the tests, in `tests/oracles.py`.

`build_recurrence` certifies its table a posteriori with Freud's identity
[phi'(J)]_{n,n-1} = n / a_n, read off the Jacobi matrix J by `jacobi_horner`
(`freud_residual`), to 1e-12.  A pass samples the weight on the trapezoidal
rule, which converges exponentially on the pass's integrands P_n^2 rho
(entire, and decaying faster than any exponential).  The weight is even, so
P_n has parity (-1)^n and every integrand is even: a pass samples only
[0, cutoff], on equal intervals with the end weights halved, and twice its
sums are the full-line trapezoidal sums exactly.  The first pass takes
max(256, 4 n_max) intervals; an uncertified pass doubles the count.  Each
row of a pass is one three-term update, one dot product and one scaling,
over the live nodes only: the seed carries the square roots of the rule's
weights, and the trailing nodes where it underflowed to 0 are dropped.  A
doubled pass that fails to halve the residual, or any pass, the first one
included, that would take more than 2^22 / 6 intervals, raises
IntegrationFailureError; the budget is checked before the pass runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import IntegrationFailureError, PrecisionFailureError, describe
from .potential import _MAX_NODES, NormalizedPotential, tail_cutoff
from .weddle import panel_rule

# The interval budget of a pass: 699,050 trapezoidal intervals of the half
# line, a sixth of the normalization's node budget `_MAX_NODES`.  A table to
# n_max above 174,762 (a first pass of 4 n_max intervals) is refused before
# any pass runs.
_MAX_PANELS = _MAX_NODES // 6


@dataclass(frozen=True)
class RecurrenceTable:
    """Recurrence coefficients a_0..a_n_max for one normalized weight."""

    a: np.ndarray
    weight: NormalizedPotential
    # Certificate of the Stieltjes pass `build_recurrence` returned, and its
    # count of half-line intervals; None for tables from other constructions.
    freud_residual: float | None = None
    panels: int | None = None

    @property
    def n_max(self) -> int:
        return len(self.a) - 1


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights approximating integrals against the weight rho."""

    nodes: np.ndarray
    weights: np.ndarray


def _half_line_seed(pot, panels: int, cutoff: float):
    """Nodes x, seed values q and scale s of a Stieltjes pass on the
    trapezoidal rule with `panels` equal intervals of [0, cutoff].

    Every integrand of the pass, P_n^2 rho, is even, entire and decays
    faster than any exponential, and for such integrands the trapezoidal
    rule converges exponentially in the node spacing (Trefethen and
    Weideman, SIAM Review 56, 2014).  The weight h is halved at 0 and at the
    cutoff, so twice the half-line sum is the full-line trapezoidal sum on
    [-cutoff, cutoff] exactly.  The pass works with sqrt(rho)-weighted
    polynomial values, which stay bounded where plain P_n(x) would overflow
    outside the bulk, and the seed also carries sqrt(w / w_min), a factor
    >= 1 at every node, so that each inner product is s times one dot
    product, s the doubled smallest weight.  A node whose seed underflowed
    to 0 stays 0 in every row of the recurrence, so the trailing run of such
    nodes is dropped.
    """
    x = np.linspace(0.0, cutoff, panels + 1)
    w = np.full(panels + 1, cutoff / panels)
    w[[0, -1]] *= 0.5
    q = np.exp(-0.5 * pot(x)) * np.sqrt(w / w.min())
    live = np.flatnonzero(q)
    if not len(live):
        raise PrecisionFailureError(
            "Stieltjes breakdown: the sampled weight vanishes at every node")
    return x[:live[-1] + 1], q[:live[-1] + 1], 2.0 * float(w.min())


def _stieltjes_pass(pot, n_max: int, panels: int, cutoff: float) -> np.ndarray:
    """a_0..a_n_max from the trapezoidal rule on `panels` intervals of
    [0, cutoff], sampled at the live nodes of `_half_line_seed`."""
    x, q, scale = _half_line_seed(pot, panels, cutoff)
    a = np.empty(n_max + 1)
    a[0] = math.sqrt(scale * float(q @ q))
    q *= 1.0 / a[0]
    q_prev = np.zeros_like(q)
    # Rows rotate through three preallocated buffers, q_prev <- q <- y.
    y = np.empty_like(q)
    tmp = np.empty_like(q)
    for n in range(n_max):
        np.multiply(x, q, out=y)
        np.multiply(a[n], q_prev, out=tmp)
        y -= tmp
        nrm = math.sqrt(scale * float(y @ y))
        if not nrm > 0.0:
            raise PrecisionFailureError(
                f"Stieltjes breakdown: vanishing norm at index {n + 1}")
        a[n + 1] = nrm
        y *= 1.0 / nrm
        q_prev, q, y = q, y, q_prev
    return a


def jacobi_horner(a: np.ndarray, coeffs, v: np.ndarray) -> np.ndarray:
    """p(J) v by Horner's rule, J the Jacobi matrix of `a` cut to len(v) rows.

    `coeffs` lists p in ascending powers.  J is never formed: (J w)_i =
    a_i w_{i-1} + a_{i+1} w_{i+1} is two shifted, scaled copies of the rows
    of w.  `v` may carry trailing axes, which are transformed column by column.
    Each step writes into one of two preallocated buffers through one scratch
    buffer; `v` is left unchanged.
    """
    if len(a) < len(v):
        raise ValueError(f"recurrence coefficients reach {len(a) - 1}, "
                         f"need {len(v) - 1}")
    off = a[1:len(v)].reshape((-1,) + (1,) * (v.ndim - 1))
    out = coeffs[-1] * v
    jw = np.empty_like(out)
    tmp = np.empty_like(out)
    for c in coeffs[-2::-1]:
        np.multiply(off, out[1:], out=jw[:-1])
        jw[-1:] = 0.0
        np.multiply(off, out[:-1], out=tmp[1:])
        jw[1:] += tmp[1:]
        if c != 0.0:
            np.multiply(c, v, out=tmp)
            jw += tmp
        out, jw = jw, out
    return out


def jacobi_band(a: np.ndarray, coeffs, rows: int) -> np.ndarray:
    """Lower band of p(J) for an odd polynomial p, J cut to `rows` rows.

    Returns `band` with band[k, j] = [p(J)]_{j+k, j} for k = 0 .. deg(p), the
    LAPACK lower band storage; entries past the last row are zero.  p must
    be odd (exact zeros at the even powers of `coeffs`), so p(J) lives on the
    odd offsets and the even rows of `band` stay zero.  The band is read from
    p(J) applied to deg(p) + 2 probe columns, column j summing the unit
    vectors e_i with i = j mod (deg(p) + 2).  Every Horner partial sum
    reaches rows of one parity only from each unit vector, and neighbours in
    a column lie deg(p) + 2 apart, an odd number, so at most one of them
    puts a nonzero in any row; unit vectors further apart reach no common
    row.  Each entry thus equals the one `jacobi_horner` gives on its unit
    vector alone, bit for bit.  No dense p(J) is formed.
    """
    width = len(coeffs)
    probes = (np.arange(rows)[:, None] % (width + 1)
              == np.arange(width + 1)).astype(float)
    applied = jacobi_horner(a, coeffs, probes)
    band = np.zeros((width, rows))
    for k in range(1, width, 2):
        j = np.arange(max(rows - k, 0))
        band[k, j] = applied[j + k, j % (width + 1)]
    return band


def freud_residual(a: np.ndarray, pot: NormalizedPotential) -> float:
    """Worst relative defect of Freud's identity [phi'(J)]_{n,n-1} = n / a_n.

    P_n' = (n / a_n) P_{n-1} + lower degrees, and <P_n', P_{n-1}> =
    <phi' P_n, P_{n-1}> by parts, so every exact table satisfies the identity
    for n >= 1 (Freud, Proc. R. Irish Acad. 76A, 1976).  J cut to the
    len(a) rows of the table keeps entry (n, n-1) of phi'(J) exact for
    n <= n_max + 1 - deg/2, and only those rows are read, from the first
    sub-diagonal of `jacobi_band`; a table too short for any such row
    reads 0.
    """
    sub = jacobi_band(a, pot.deriv_coeffs, len(a))[1]
    n = np.arange(1, len(a) - pot.degree // 2 + 1)
    return float(np.max(np.abs(sub[n - 1] * a[n] / n - 1.0), initial=0.0))


def build_recurrence(pot: NormalizedPotential, n_max: int) -> RecurrenceTable:
    """Recurrence coefficients a_0..a_n_max for the weight rho = exp(-pot).

    A discretized Stieltjes procedure in double precision: the weight is
    sampled on the trapezoidal rule over the truncated support, starting at
    max(256, 4 n_max) intervals of the half-line [0, cutoff].  The first
    pass whose `freud_residual` is at most 1e-12 is returned, with that
    residual and its interval count; otherwise the count doubles.  A doubled
    pass that does not halve the residual of the pass before it has reached
    the rounding floor of the sampled weight, and raises
    IntegrationFailureError, as does a pass that would take more than
    2^22 / 6 intervals.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    panels = max(256, 4 * n_max)
    previous = math.inf
    cutoff = None
    while True:
        # The first pass's budget is checked before the cutoff, whose
        # polynomial arithmetic overflows on an n_max past double range.
        if panels > _MAX_PANELS:
            raise IntegrationFailureError(
                f"Stieltjes discretization to n_max={describe(n_max)} needs "
                f"{describe(panels)} intervals, past the budget of 2^22 / 6")
        if cutoff is None:
            cutoff = tail_cutoff(pot, poly_degree=2 * n_max + 2)
        a = _stieltjes_pass(pot, n_max, panels, cutoff)
        residual = freud_residual(a, pot)
        if residual <= 1e-12:
            return RecurrenceTable(a=a, weight=pot, freud_residual=residual,
                                   panels=panels)
        if not residual <= 0.5 * previous:
            raise IntegrationFailureError(
                f"Stieltjes discretization stalled at Freud residual "
                f"{residual:.3g} on {panels} intervals (previous pass "
                f"{previous:.3g}); not certified to 1e-12")
        previous = residual
        panels *= 2


def _three_term_all(a: np.ndarray, n: int, x) -> np.ndarray:
    """Values of p_0..p_n at x for x p_k = a_{k+1} p_{k+1} + a_k p_{k-1},
    p_0 = 1 / a_0; shape (n+1,) + shape(x)."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n + 1,) + x.shape)
    out[0] = 1.0 / a[0]
    if n >= 1:
        out[1] = x * out[0] / a[1]
    for k in range(1, n):
        out[k + 1] = (x * out[k] - a[k] * out[k - 1]) / a[k + 1]
    return out


def eval_poly_all(table: RecurrenceTable, n: int, x) -> np.ndarray:
    """Values of P_0..P_n at x; shape (n+1,) + shape(x)."""
    if not 0 <= n <= table.n_max:
        raise IndexError(f"polynomial index {n} outside table range {table.n_max}")
    return _three_term_all(table.a, n, x)


def hermite_eval_all(k_max: int, v) -> np.ndarray:
    """Orthonormal Hermite values H_0..H_k_max for the unit Gaussian weight,
    whose recurrence has a_0 = 1 and a_n = sqrt(n)."""
    a = np.sqrt(np.arange(k_max + 1.0))
    a[0] = 1.0
    return _three_term_all(a, k_max, v)


def build_quadrature(pot: NormalizedPotential, kind: str, resolution: int,
                     table: RecurrenceTable | None = None,
                     max_degree: int = 0) -> QuadratureRule:
    """Quadrature rule for integrals against rho = exp(-pot).

    Parameters
    ----------
    kind : {"composite_weddle", "gauss_from_jacobi"}
        Composite rule over a truncated interval (weights absorb rho), or the
        Gauss rule read off the Jacobi matrix of the recurrence table.
    resolution : int
        Panel count for the composite rule, node count for the Gauss rule.
    table : RecurrenceTable, optional
        Required for the Gauss rule; must reach index `resolution - 1`.
    max_degree : int
        For the composite rule, largest polynomial degree the rule is meant
        to integrate; widens the truncation interval accordingly.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if kind == "composite_weddle":
        cutoff = tail_cutoff(pot, poly_degree=max_degree)
        x, w = panel_rule(-cutoff, cutoff, resolution)
        return QuadratureRule(nodes=x, weights=w * np.exp(-pot(x)))
    if kind == "gauss_from_jacobi":
        if table is None or table.n_max < resolution:
            raise ValueError("gauss_from_jacobi needs a recurrence table reaching "
                             f"index {resolution}")
        nodes, vecs = eigh_tridiagonal(np.zeros(resolution),
                                       table.a[1:resolution])
        weights = (table.a[0] ** 2) * vecs[0, :] ** 2
        return QuadratureRule(nodes=nodes, weights=weights)
    raise ValueError(f"unknown quadrature kind {kind!r}")

