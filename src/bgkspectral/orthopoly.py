"""Orthonormal polynomials for weights rho = exp(-phi) with polynomial phi.

The family P_0, P_1, ... is defined by the symmetric three-term recurrence

    x P_n(x) = a_{n+1} P_{n+1}(x) + a_n P_{n-1}(x),   P_0 = 1/a_0,  P_{-1} = 0,

with a_0 = sqrt(integral of rho).  Two independent constructions of the
coefficients a_n are provided: `build_recurrence`, a discretized Stieltjes
procedure in ordinary double precision (the production path), and
`chebyshev_recurrence`, a moment-based recurrence run in software extended
precision (the cross-check oracle, exponentially ill-conditioned in double
precision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import IntegrationFailureError, PrecisionFailureError
from .potential import NormalizedPotential, tail_cutoff
from .weddle import panel_rule


@dataclass(frozen=True)
class RecurrenceTable:
    """Recurrence coefficients a_0..a_n_max for one normalized weight."""

    a: np.ndarray
    weight: NormalizedPotential

    @property
    def n_max(self) -> int:
        return len(self.a) - 1


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights approximating integrals against the weight rho."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str


def _stieltjes_pass(pot, n_max: int, panels: int, cutoff: float) -> np.ndarray:
    x, w = panel_rule(-cutoff, cutoff, panels)
    # Work with sqrt(rho)-weighted polynomial values: same recurrence, but the
    # values stay bounded where plain P_n(x) would overflow outside the bulk.
    q = np.exp(-0.5 * pot(x))
    a = np.empty(n_max + 1)
    a[0] = math.sqrt(float(w @ (q * q)))
    q /= a[0]
    q_prev = np.zeros_like(q)
    for n in range(n_max):
        y = x * q
        if n > 0:
            y -= a[n] * q_prev
        # One local reorthogonalization sweep keeps drift at rounding level.
        y -= (w @ (y * q)) * q
        if n > 0:
            y -= (w @ (y * q_prev)) * q_prev
        nrm = math.sqrt(float(w @ (y * y)))
        if not nrm > 0.0:
            raise PrecisionFailureError(
                f"Stieltjes breakdown: vanishing norm at index {n + 1}", n + 1
            )
        a[n + 1] = nrm
        q_prev = q
        q = y / nrm
    return a


def _weight_moments_mp(pot, top: int, dps: int) -> list:
    """Even moments m_0, m_1, ..., m_top of rho in extended precision.

    Only the seed moments m_0, m_2, ..., m_{2m-2} are integrated directly;
    the rest follow exactly from integration by parts against phi':
    sum_i 2 i c_i m_{k+2i-1} = k m_{k-1}.  Odd moments vanish by parity.
    """
    import mpmath as mp
    coeffs = [mp.mpf(c) for c in pot.coeffs]
    m_half = len(coeffs) - 1

    cut = tail_cutoff(pot, poly_degree=2 * m_half)

    def phi_mp(x):
        acc = coeffs[-1]
        u = x * x
        for c in coeffs[-2::-1]:
            acc = acc * u + c
        return acc

    moments = [mp.mpf(0)] * (top + 1)
    splits = [mp.mpf(0)] + [mp.mpf(cut) * f for f in (0.125, 0.25, 0.5, 1.0)] + [mp.inf]
    for k in range(0, min(2 * m_half - 1, top + 1), 2):
        moments[k] = 2 * mp.quad(lambda x: x ** k * mp.exp(-phi_mp(x)), splits)

    lead = 2 * m_half * coeffs[-1]
    k = 1
    while k + 2 * m_half - 1 <= top:
        rhs = k * moments[k - 1]
        for i in range(1, m_half):
            rhs -= 2 * i * coeffs[i] * moments[k + 2 * i - 1]
        moments[k + 2 * m_half - 1] = rhs / lead
        k += 2
    return moments


def chebyshev_recurrence(pot: NormalizedPotential, n_max: int,
                         dps: int = 60) -> RecurrenceTable:
    """Recurrence coefficients a_0..a_n_max from power moments, in extended precision.

    The Chebyshev algorithm maps the moments of rho = exp(-pot) to the
    recurrence.  It is exponentially ill-conditioned, so it runs with `dps`
    decimal digits and is meant as an independent cross-check of
    `build_recurrence` for moderate n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # Imported here: only this cross-check path needs extended precision.
    import mpmath as mp
    n = n_max + 1
    with mp.workdps(dps):
        mom = _weight_moments_mp(pot, 2 * n - 1, dps)
        sig_prev = [mp.mpf(0)] * (2 * n)
        sig = list(mom)
        alpha = mom[1] / mom[0]
        beta = [mom[0]]
        alphas = [alpha]
        for k in range(1, n):
            sig_next = [mp.mpf(0)] * (2 * n)
            for ell in range(k, 2 * n - k):
                sig_next[ell] = (sig[ell + 1] - alphas[k - 1] * sig[ell]
                                 - beta[k - 1] * sig_prev[ell])
            if sig_next[k] <= 0:
                raise PrecisionFailureError(
                    f"Chebyshev algorithm lost positivity at index {k}; "
                    f"raise the working precision (dps={dps})", k
                )
            alphas.append(sig_next[k + 1] / sig_next[k] - sig[k] / sig[k - 1])
            beta.append(sig_next[k] / sig[k - 1])
            sig_prev, sig = sig, sig_next
        # The weight is even, so the diagonal recurrence terms must vanish.
        bad, drift = max(enumerate(abs(al) for al in alphas), key=lambda t: t[1])
        if drift > mp.mpf(10) ** (-dps // 2):
            raise PrecisionFailureError(
                f"Chebyshev algorithm symmetry drift {mp.nstr(drift)} at index "
                f"{bad} exceeds the precision budget at dps={dps}", bad
            )
        a = np.array([float(mp.sqrt(b)) for b in beta])
    return RecurrenceTable(a=a, weight=pot)


def build_recurrence(pot: NormalizedPotential, n_max: int) -> RecurrenceTable:
    """Recurrence coefficients a_0..a_n_max for the weight rho = exp(-pot).

    A discretized Stieltjes procedure in double precision: the weight is
    sampled on a composite rule over the truncated support, and the panel
    count doubles until two passes agree to a relative 1e-12.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cutoff = tail_cutoff(pot, poly_degree=2 * n_max + 2)
    panels = max(256, 2 * n_max)
    prev = None
    while True:
        a = _stieltjes_pass(pot, n_max, panels, cutoff)
        if prev is not None:
            err = float(np.max(np.abs(a - prev) / np.maximum(a, 1e-300)))
            if err <= 1e-12:
                return RecurrenceTable(a=a, weight=pot)
        panels *= 2
        if 6 * panels + 1 > (1 << 22):
            raise IntegrationFailureError(
                "Stieltjes discretization did not converge to 1e-12")
        prev = a


def eval_poly_all(table: RecurrenceTable, n: int, x) -> np.ndarray:
    """Values of P_0..P_n at x; shape (n+1,) + shape(x)."""
    if not 0 <= n <= table.n_max:
        raise IndexError(f"polynomial index {n} outside table range {table.n_max}")
    x = np.asarray(x, dtype=float)
    a = table.a
    out = np.empty((n + 1,) + x.shape)
    out[0] = 1.0 / a[0]
    if n >= 1:
        out[1] = x * out[0] / a[1]
    for k in range(1, n):
        out[k + 1] = (x * out[k] - a[k] * out[k - 1]) / a[k + 1]
    return out


def eval_poly_and_deriv_all(table: RecurrenceTable, n: int, x):
    """Values and first derivatives of P_0..P_n at x."""
    x = np.asarray(x, dtype=float)
    p = eval_poly_all(table, n, x)
    a = table.a
    dp = np.zeros_like(p)
    if n >= 1:
        dp[1] = p[0] / a[1]
    for k in range(1, n):
        dp[k + 1] = (p[k] + x * dp[k] - a[k] * dp[k - 1]) / a[k + 1]
    return p, dp


def hermite_eval_all(k_max: int, v) -> np.ndarray:
    """Orthonormal Hermite values H_0..H_k_max for the unit Gaussian weight."""
    v = np.asarray(v, dtype=float)
    out = np.empty((k_max + 1,) + v.shape)
    out[0] = np.ones_like(v)
    if k_max >= 1:
        out[1] = v
    for k in range(1, k_max):
        out[k + 1] = (v * out[k] - math.sqrt(k) * out[k - 1]) / math.sqrt(k + 1)
    return out


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
        return QuadratureRule(nodes=x, weights=w * np.exp(-pot(x)), kind=kind)
    if kind == "gauss_from_jacobi":
        if table is None or table.n_max < resolution:
            raise ValueError("gauss_from_jacobi needs a recurrence table reaching "
                             f"index {resolution}")
        nodes, vecs = eigh_tridiagonal(np.zeros(resolution),
                                       table.a[1:resolution])
        weights = (table.a[0] ** 2) * vecs[0, :] ** 2
        return QuadratureRule(nodes=nodes, weights=weights, kind=kind)
    raise ValueError(f"unknown quadrature kind {kind!r}")


def inner_products(table: RecurrenceTable, rule: QuadratureRule, f, n: int) -> np.ndarray:
    """Vector of <f, P_k> for k = 0..n under the weight rho."""
    p = eval_poly_all(table, n, rule.nodes)
    fx = np.asarray(f(rule.nodes), dtype=float)
    return p @ (rule.weights * fx)


def magnus_constant(pot: NormalizedPotential) -> float:
    """Growth constant c with a_n ~ c * n^(1/deg) for this weight."""
    m = pot.degree // 2
    lead = pot.coeffs[-1]
    return (math.factorial(m - 1) ** 2
            / (2.0 * lead * math.factorial(2 * m - 1))) ** (1.0 / (2 * m))
