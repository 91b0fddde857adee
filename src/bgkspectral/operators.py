"""Matrix representations of x-space operators in the orthonormal basis.

Every operator is a dense numpy array.  The multiplication operator by phi'
is a symmetric matrix Phi, banded on odd offsets, whose strictly lower part
represents the adjoint derivative d* = -d/dx + phi' and whose strictly upper
part represents d/dx (their sum is multiplication by phi').  The derivative
couplings and the weighted Laplacian plus identity, Omega = d* d + 1, follow
exactly from those two triangles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .orthopoly import RecurrenceTable, jacobi_horner
from .potential import NormalizedPotential, _full_coeffs


@dataclass(frozen=True)
class DerivCouplings:
    """Dense couplings A[r, n] = <P_r', P_n> between basis polynomials."""

    A: np.ndarray
    table: RecurrenceTable = field(repr=False)


def build_phi_matrix(table: RecurrenceTable, pot: NormalizedPotential,
                     size: int) -> np.ndarray:
    """Dense symmetric matrix of multiplication by phi' in the orthonormal basis.

    phi' is an odd polynomial of degree 2m-1, so the matrix is the same
    polynomial evaluated at the Jacobi matrix; applying it to the first `size`
    unit vectors of a space `size` plus a margin long and truncating keeps
    the retained block exact.  The result is banded on the odd offsets 1, 3,
    ..., 2m-1, and its strictly lower triangle is copied into the upper one
    along those diagonals, so that symmetry holds exactly at entry level.
    """
    big = size + pot.degree + 2
    if table.n_max < big - 1:
        raise ValueError(
            f"recurrence table reaches {table.n_max}, need {big - 1} for size {size}"
        )
    dcoeffs = npoly.polyder(_full_coeffs(pot.coeffs))
    acc = jacobi_horner(table.a, dcoeffs, np.eye(big, size))
    phi = np.tril(acc[:size], -1)
    for offset in range(1, pot.degree, 2):
        idx = np.arange(size - offset)
        phi[idx, idx + offset] = phi[idx + offset, idx]
    return phi


def build_deriv_couplings(table: RecurrenceTable, n: int) -> DerivCouplings:
    """Couplings A[r, k] = <P_r', P_k> for r, k = 0..n, by integration by parts.

    For k < r, <P_r', P_k> = <phi' P_r, P_k> - <P_r, P_k'>, and the last term
    vanishes because P_k' has degree below r; for k >= r the entry vanishes
    because P_r' has degree r - 1.  So A is exactly the strictly lower part of
    Phi: banded on the odd offsets 1, 3, ..., deg(phi) - 1, with every other
    entry an exact zero.
    """
    phi = build_phi_matrix(table, table.weight, n + 1)
    return DerivCouplings(A=np.tril(phi, -1), table=table)


def build_omega_matrix(phi: np.ndarray, size: int) -> np.ndarray:
    """Truncation of Omega = d* d + 1, with d* the strictly lower part of Phi.

    Phi e_0 = phi'(J) e_0 ends at row deg(phi) - 1, the bandwidth of Phi;
    the leading `size` block of the product is exact when Phi reaches that
    far beyond it.
    """
    bandwidth = int(np.flatnonzero(phi[:, 0]).max(initial=0))
    if len(phi) < size + bandwidth:
        raise ValueError(
            f"phi matrix of size {len(phi)} too small for omega size {size} "
            f"(bandwidth {bandwidth})"
        )
    lower = np.tril(phi, -1)
    # numpy forms lower @ lower.T with a symmetric rank-k product, so the
    # result is exactly symmetric without mirroring.
    om = lower @ lower.T
    om[np.diag_indices(len(phi))] += 1.0
    return om[:size, :size].copy()
