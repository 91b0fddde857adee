"""Numerical study of the projected-operator norm constants.

Four compositions built from the projection onto the retained polynomial
space, the derivative pair d / d*, and negative powers of Omega = d* d + 1
enter the decay analysis of the scheme; whether their norms stay bounded as
the space truncation N grows is an open question.  This module estimates the
norms through Galerkin truncations of Omega at an ambient size M_big, with a
certified bound on how far each estimate can lie from its M_big -> infinity
limit.  Nothing is proven about the N-dependence itself.

phi is even, so Omega keeps the parity of the basis index and d* flips it.
Each estimate therefore works in two parity blocks: Omega_p, banded with
deg(phi)/2 diagonals, is factored and solved once against its own unit
columns, and every norm is the larger of two per-parity top eigenvalues of
Gram matrices, such as B^T (Z^T Z) B, of at most ceil((N+1)/2) rows.

The truncation bound (Demko, Moss and Smith, Math. Comp. 43, 1984, on the
decay of banded inverses): split the untruncated Omega_p as
[[Omega_M, C], [C^T, D]].  Omega >= I, so ||D^-1|| <= 1, and the inverse of
the Schur complement Omega_M - C D^-1 C^T, the leading block of Omega_p^-1,
has norm <= 1.  For Z_M = Omega_M^-1 E and Z the untruncated solve,

    ||Z[:M] - Z_M|| <= ||C||^2 ||Z_M[tail]|| = delta,
    ||Z[M:]|| <= ||C|| (||Z_M[tail]|| + delta),

with `tail` the last deg(phi)/2 - 1 rows of Z_M, the only rows C touches.
Weyl's inequality carries delta through the Gram matrix of kn0, and
submultiplicativity carries both through ||Z B|| to kn1-kn3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .operators import build_omega_matrix, build_phi_matrix
from .orthopoly import RecurrenceTable, build_recurrence
from .potential import NormalizedPotential

# Ambient size of `kn_sweep`, in multiples of N + pad.
_M_FACTOR = 4


@dataclass(frozen=True)
class KNReport:
    """Norm estimates for one space truncation N at ambient size m_big, the
    certified bound on each estimate's distance from its m_big -> infinity
    limit, and the Freud residual of the recurrence table they come from."""

    N: int
    m_big: int
    kn: tuple[float, float, float, float]
    bound: tuple[float, float, float, float]
    freud_residual: float | None

    @property
    def relative_bound(self) -> float:
        """Worst bound relative to its estimate; a vanishing estimate with a
        vanishing bound counts 0, with a positive one infinity."""
        return max(b / k if k > 0.0 else (0.0 if b == 0.0 else math.inf)
                   for k, b in zip(self.kn, self.bound))

    @property
    def converged(self) -> bool:
        """Each estimate is certified to 1% of its value."""
        return self.relative_bound <= 0.01


def _sqrt_top_eigenvalue(gram: np.ndarray) -> float:
    # The largest eigenvalue of a Gram matrix is >= 0; rounding need not keep
    # a zero one non-negative.  An empty parity block (N = 0) reads 0.
    evals = np.linalg.eigvalsh(gram)
    return math.sqrt(max(0.0, evals[-1])) if len(evals) else 0.0


def _dense_lower(phi: np.ndarray, size: int) -> np.ndarray:
    """The leading `size` block of d*, the strictly lower part of `phi`."""
    out = np.zeros((size, size))
    for k in range(1, min(len(phi), size), 2):
        j = np.arange(size - k)
        out[j + k, j] = phi[k, :size - k]
    return out


def estimate_kn(table: RecurrenceTable, pot: NormalizedPotential, N: int,
                m_big: int) -> KNReport:
    """Largest singular values of the four projected compositions on X_N,
    with a certified bound on their truncation error at ambient size m_big;
    `pot` must be `table.weight`, and any other raises ValueError.

    With L the m_big truncation of d* (the strictly lower part of Phi, whose
    strictly upper part is exactly L^T) and X = L[:N+1, :N+1] = P d* E, the
    compositions are Omega^(-1/2) X, Omega^(-1) L^T X, Omega^(-1) X X and
    Omega^(-1) P L L^T E, each applied to a block whose rows beyond N vanish;
    L^T X and P L L^T E are X^T X and X X^T there.  Phi and Omega stay in
    band storage, and no m_big x m_big array is formed.

    phi is even, so d* flips the parity of the index and Omega keeps it:
    Omega splits into two parity blocks Omega_p, each banded with deg(phi)/2
    diagonals (the even rows of Omega's band at the columns of parity p),
    and X into X_q, the block that maps parity q to 1 - q.  One
    `solveh_banded` call per block factors Omega_p, which guards positive
    definiteness (an inconsistent Omega raises LinAlgError), and solves
    Z_p = Omega_p^(-1) E_p against the unit columns of parity p below N + 1.
    Then ||Omega^(-1/2) X||^2 is the larger over q of
    lambda_max(X_q^T Z_{1-q}[:n] X_q), and each of the other three norms
    squared is the larger over q of lambda_max(B^T (Z_q^T Z_q) B), with
    B = X_q^T X_q, X_{1-q} X_q and X_{1-q} X_{1-q}^T in turn.

    The coupling C of the module docstring holds the entries
    Omega[j + d, j] with j < m_big <= j + d, so Omega's band is built at
    m_big + deg(phi), which holds them exactly, and each solve reads only
    its leading m_big columns.  Every norm in the bound is a Frobenius norm,
    an upper bound on the 2-norm that equals it for the one-row C and tail
    of a quartic phi.
    """
    if pot != table.weight:
        raise ValueError("pot is not table.weight, the table's potential")
    if N < 0:
        raise ValueError(f"N={N} is negative")
    two_m = pot.degree
    if m_big < N + 2 * two_m:
        raise ValueError(
            f"m_big={m_big} leaves no room for the degree growth of d* "
            f"(need at least N + {2 * two_m})"
        )
    phi = build_phi_matrix(table, m_big + two_m)
    omega = build_omega_matrix(phi)

    n1 = N + 1
    x = _dense_lower(phi, n1)
    # Omega across the cut, band[d, j] with j < m_big <= j + d, in column j - lo.
    lo = m_big - two_m + 2
    offset = np.arange(2, two_m - 1, 2)[:, None]
    cross = np.where(np.arange(lo, m_big) + offset >= m_big,
                     omega[2::2, lo:m_big], 0.0)
    z, delta, beyond = [], [], []
    for p in (0, 1):
        unit = np.eye(len(range(p, m_big, 2)), len(range(p, n1, 2)), order="F")
        z.append(solveh_banded(omega[0::2, p:m_big:2], unit, overwrite_b=True,
                               lower=True))
        c_norm = np.linalg.norm(cross[:, (p - lo) % 2::2])
        tail_norm = np.linalg.norm(z[p][len(z[p]) - two_m // 2 + 1:])
        delta.append(c_norm ** 2 * tail_norm)
        beyond.append(math.hypot(delta[p], c_norm * (tail_norm + delta[p])))

    kn = np.zeros(4)
    bound = np.zeros(4)
    for q in (0, 1):
        x_q, x_back = x[1 - q::2, q::2], x[q::2, 1 - q::2]
        gram = z[q].T @ z[q]
        blocks = [x_q.T @ z[1 - q][:len(x_q)] @ x_q]
        bs = (x_q.T @ x_q, x_back @ x_q, x_back @ x_back.T)
        blocks += [b.T @ gram @ b for b in bs]
        kn = np.maximum(kn, [_sqrt_top_eigenvalue(g) for g in blocks])
        bound = np.maximum(bound, [np.linalg.norm(x_q) ** 2 * delta[1 - q]]
                           + [np.linalg.norm(b) * beyond[q] for b in bs])
    # Weyl bounds the change of kn0^2, and |sqrt(u) - sqrt(v)| is at most
    # both sqrt|u - v| and |u - v| / sqrt(v).
    bound[0] = min(math.sqrt(bound[0]),
                   bound[0] / kn[0] if kn[0] > 0.0 else math.inf)
    return KNReport(N=N, m_big=m_big, kn=tuple(kn.tolist()),
                    bound=tuple(bound.tolist()),
                    freud_residual=table.freud_residual)


def kn_sweep(pot: NormalizedPotential, n_values) -> list[KNReport]:
    """Certified norm estimates over a list of truncations N.

    For each N the estimate is computed once, at the ambient size
    4 (N + pad), with pad = max(16, 2 deg(phi)) so that it leaves the room
    `estimate_kn` needs; a report is `converged` when its certified
    truncation bound is at most 1% of each estimate.  The sweep builds its
    own recurrence table, long enough for the largest ambient size, so the
    values depend only on the potential and N; each report carries that
    table's Freud residual.
    """
    n_values = list(n_values)
    if not n_values:
        return []
    two_m = pot.degree
    pad = max(16, 2 * two_m)
    table = build_recurrence(pot, _M_FACTOR * (max(n_values) + pad)
                             + 2 * two_m + 2)
    return [estimate_kn(table, pot, n, _M_FACTOR * (n + pad)) for n in n_values]
