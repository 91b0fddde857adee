"""Numerical study of the projected-operator norm constants.

Four compositions built from the projection onto the retained polynomial
space, the derivative pair d / d*, and negative powers of Omega = d* d + 1
enter the decay analysis of the scheme; whether their norms stay bounded as
the space truncation N grows is an open question.  This module estimates the
norms through Galerkin truncations of Omega at an ambient size M_big and
reports how they stabilize as M_big grows, which is the only honesty
mechanism available: nothing here is proven.

phi is even, so Omega keeps the parity of the basis index and d* flips it.
Each estimate therefore works in two parity blocks: Omega_p, banded with
deg(phi)/2 diagonals, is factored and solved once against its own unit
columns, and every norm is the larger of two per-parity top eigenvalues of
Gram matrices, such as B^T (Z^T Z) B, of at most ceil((N+1)/2) rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .operators import build_omega_matrix, build_phi_matrix
from .orthopoly import RecurrenceTable, build_recurrence
from .potential import NormalizedPotential

# Ambient sizes of `kn_sweep`, in multiples of N + pad.
_M_FACTORS = (2, 4)


@dataclass(frozen=True)
class KNReport:
    """Norm estimates for one space truncation N at ambient size m_big, with
    the Freud residual that certifies the sweep's recurrence table."""

    N: int
    m_big: int
    kn: tuple[float, float, float, float]
    converged: bool
    freud_residual: float


def _sqrt_top_eigenvalue(gram: np.ndarray) -> float:
    # The largest eigenvalue of a Gram matrix is >= 0; rounding need not keep
    # a zero one non-negative.  An empty parity block (N = 0) reads 0.
    evals = np.linalg.eigvalsh(gram)
    return math.sqrt(max(0.0, evals[-1])) if len(evals) else 0.0


def estimate_kn(table: RecurrenceTable, pot: NormalizedPotential, N: int,
                m_big: int) -> np.ndarray:
    """Largest singular values of the four projected compositions on X_N.

    With L the m_big truncation of d* (the strictly lower part of Phi, whose
    strictly upper part is exactly L^T) and X = L[:N+1, :N+1] = P d* E, the
    compositions are Omega^(-1/2) X, Omega^(-1) L^T X, Omega^(-1) X X and
    Omega^(-1) P L L^T E, each applied to a block whose rows beyond N vanish;
    L^T X and P L L^T E are X^T X and X X^T there.  Phi and Omega stay in
    band storage, and no m_big x m_big array is formed.

    phi is even, so d* flips the parity of the index and Omega keeps it:
    Omega splits into two parity blocks Omega_p, each banded with deg(phi)/2
    diagonals (the even rows of Omega's band at the columns of parity p),
    and X into X_q, the block that maps parity q to 1 - q.  A banded
    Cholesky factorization of each Omega_p guards positive definiteness (an
    inconsistent Omega raises LinAlgError), and one banded solve with it
    gives Z_p = Omega_p^(-1) E_p against the unit columns of parity p below
    N + 1.  Then ||Omega^(-1/2) X||^2 is the larger over q of
    lambda_max(X_q^T Z_{1-q}[:n] X_q), and each of the other three norms
    squared is the larger over q of lambda_max(B^T (Z_q^T Z_q) B), with
    B = X_q^T X_q, X_{1-q} X_q and X_{1-q} X_{1-q}^T in turn.
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
    omega = build_omega_matrix(phi, m_big)

    n1 = N + 1
    x = np.zeros((n1, n1))
    for k in range(1, min(len(phi), n1), 2):
        j = np.arange(n1 - k)
        x[j + k, j] = phi[k, :n1 - k]
    z = []
    for p in (0, 1):
        factor = cholesky_banded(omega[0::2, p::2], lower=True)
        unit = np.eye(factor.shape[1], len(range(p, n1, 2)), order="F")
        z.append(cho_solve_banded((factor, True), unit, overwrite_b=True))

    kn = np.zeros(4)
    for q in (0, 1):
        x_q, x_back = x[1 - q::2, q::2], x[q::2, 1 - q::2]
        gram = z[q].T @ z[q]
        blocks = [x_q.T @ z[1 - q][:len(x_q)] @ x_q]
        blocks += [b.T @ gram @ b
                   for b in (x_q.T @ x_q, x_back @ x_q, x_back @ x_back.T)]
        kn = np.maximum(kn, [_sqrt_top_eigenvalue(g) for g in blocks])
    return kn


def kn_sweep(pot: NormalizedPotential, n_values) -> list[KNReport]:
    """Norm estimates over a list of truncations N, with a stabilization check.

    For each N the estimates are computed at the two ambient sizes
    (2, 4) * (N + pad), with pad = max(16, 2 deg(phi)) so that both leave
    the room `estimate_kn` needs; the reported values come from the larger
    size and are flagged converged only when the two sizes agree to 1%
    componentwise.  The sweep builds its own recurrence table, long
    enough for the largest ambient size, so the values depend only on the
    potential and N; each report carries that table's Freud residual.
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
                                converged=bool(converged),
                                freud_residual=table.freud_residual))
    return reports
