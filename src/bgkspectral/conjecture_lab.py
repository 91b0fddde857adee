"""Numerical study of the projected-operator norm constants.

Four compositions built from the projection onto the retained polynomial
space, the derivative pair d / d*, and negative powers of Omega = d* d + 1
enter the decay analysis of the scheme; whether their norms stay bounded as
the space truncation N grows is an open question.  This module estimates the
norms through Galerkin truncations of Omega at an ambient size M_big and
reports how they stabilize as M_big grows, which is the only honesty
mechanism available: nothing here is proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded

from .operators import build_omega_matrix, build_phi_matrix
from .orthopoly import RecurrenceTable, build_recurrence
from .potential import NormalizedPotential

# Ambient sizes of `kn_sweep`, in multiples of N + pad.
_M_FACTORS = (2, 4)


@dataclass(frozen=True)
class KNReport:
    """Norm estimates for one space truncation N at ambient size m_big."""

    N: int
    m_big: int
    kn: tuple[float, float, float, float]
    converged: bool


def _sqrt_top_eigenvalue(gram: np.ndarray) -> float:
    # The largest eigenvalue of a Gram matrix is >= 0; rounding need not keep
    # a zero one non-negative.
    return math.sqrt(max(0.0, np.linalg.eigvalsh(gram)[-1]))


def estimate_kn(table: RecurrenceTable, pot: NormalizedPotential, N: int,
                m_big: int) -> np.ndarray:
    """Largest singular values of the four projected compositions on X_N.

    With L the m_big truncation of d* (the strictly lower part of Phi, whose
    strictly upper part is exactly L^T) and X = L[:N+1, :N+1] = P d* E, the
    compositions are Omega^(-1/2) X, Omega^(-1) L^T X, Omega^(-1) X X and
    Omega^(-1) P L L^T E, each applied to a block whose rows beyond N vanish;
    L^T X and P L L^T E are X^T X and X X^T there.  Phi and Omega stay in
    band storage, and no m_big x m_big array is formed.  A banded Cholesky
    factorization of Omega guards positive definiteness (an inconsistent
    Omega raises LinAlgError), and one banded solve with it covers all four
    right-hand sides, sparse products of the band of X.  Each norm is the
    square root of the largest eigenvalue of an (N+1)-sized Gram matrix,
    with ||Omega^(-1/2) X||^2 = lambda_max(X^T Omega^(-1) X).
    """
    if N < 0:
        raise ValueError(f"N={N} is negative")
    two_m = pot.degree
    if m_big < N + 2 * two_m:
        raise ValueError(
            f"m_big={m_big} leaves no room for the degree growth of d* "
            f"(need at least N + {2 * two_m})"
        )
    phi = build_phi_matrix(table, pot, m_big + two_m)
    factor = cholesky_banded(build_omega_matrix(phi, m_big), lower=True)

    n1 = N + 1
    x = sp.dia_array((phi[:, :n1], -np.arange(len(phi))), shape=(n1, n1)).tocsr()
    rhs = np.zeros((m_big, 4 * n1), order="F")
    for k, block in enumerate((x, x.T @ x, x @ x, x @ x.T)):
        rhs[:n1, k * n1:(k + 1) * n1] = block.toarray()
    w = cho_solve_banded((factor, True), rhs, overwrite_b=True)
    kn0 = _sqrt_top_eigenvalue(x.T @ w[:n1, :n1])
    return np.array([kn0] + [_sqrt_top_eigenvalue(block.T @ block)
                             for block in (w[:, k * n1:(k + 1) * n1]
                                           for k in (1, 2, 3))])


def kn_sweep(pot: NormalizedPotential, n_values) -> list[KNReport]:
    """Norm estimates over a list of truncations N, with a stabilization check.

    For each N the estimates are computed at the two ambient sizes
    (2, 4) * (N + pad), with pad = max(16, 2 deg(phi)) so that both leave
    the room `estimate_kn` needs; the reported values come from the larger
    size and are flagged converged only when the two sizes agree to 1%
    componentwise.  The sweep builds its own recurrence table, long
    enough for the largest ambient size, so the values depend only on the
    potential and N.
    """
    n_values = list(n_values)
    if not n_values:
        return []
    two_m = pot.degree
    pad = max(16, 2 * two_m)
    max_big = max(f * (n + pad) for n in n_values for f in _M_FACTORS)
    table = build_recurrence(pot, max_big + 2 * two_m + 2)
    reports = []
    for n in n_values:
        bigs = [f * (n + pad) for f in _M_FACTORS]
        prev, last = (estimate_kn(table, pot, n, b) for b in bigs)
        converged = np.all(np.abs(prev - last) <= 0.01 * np.maximum(np.abs(last), 1e-12))
        reports.append(KNReport(N=n, m_big=bigs[-1], kn=tuple(last.tolist()),
                                converged=bool(converged)))
    return reports
