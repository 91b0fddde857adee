"""Matrix representations of x-space operators in the orthonormal basis.

The multiplication operator by phi' is a symmetric matrix Phi, banded on odd
offsets below deg(phi), whose strictly lower part represents the adjoint
derivative d* = -d/dx + phi' and whose strictly upper part represents d/dx
(their sum is multiplication by phi').  The derivative couplings and the
weighted Laplacian plus identity, Omega = d* d + 1, follow exactly from those
two triangles.  Phi, the couplings (Phi's band itself) and Omega are held in
LAPACK lower band storage, band[k, j] = M[j + k, j].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orthopoly import RecurrenceTable, jacobi_band


@dataclass(frozen=True)
class DerivCouplings:
    """Couplings A[s, j] = <P_{j+s}', P_j>: Phi's band, shape (deg(phi), n + 1)."""

    A: np.ndarray


def build_phi_matrix(table: RecurrenceTable, size: int) -> np.ndarray:
    """Lower band of the leading `size` block of Phi, multiplication by phi'
    for the potential of `table.weight`.

    Returns `band` of shape (deg(phi), size) with band[k, j] = Phi[j + k, j]:
    the diagonal and the even rows are zero, the odd rows 1, 3, ...,
    deg(phi) - 1 hold the strictly lower odd diagonals, and entries below
    row size - 1 are zero.  Phi is symmetric, so this is all of it.  phi' is
    an odd polynomial of degree deg(phi) - 1, so Phi is that polynomial of
    the Jacobi matrix; evaluating it on J cut to `size` plus a margin rows
    keeps the retained block exact; `jacobi_horner` raises ValueError when
    the table is too short for that margin.
    """
    pot = table.weight
    big = size + pot.degree + 2
    band = jacobi_band(table.a, pot.deriv_coeffs, big)[:, :size]
    for k in range(1, len(band), 2):
        band[k, max(size - k, 0):] = 0.0
    return band


def build_deriv_couplings(table: RecurrenceTable, n: int) -> DerivCouplings:
    """Couplings <P_r', P_k> for r, k = 0..n, by integration by parts.

    For k < r, <P_r', P_k> = <phi' P_r, P_k> - <P_r, P_k'>, and the last term
    vanishes because P_k' has degree below r; for k >= r the entry vanishes
    because P_r' has degree r - 1.  So the couplings are exactly the strictly
    lower part of Phi, which its band already holds: A[s, j] = <P_{j+s}', P_j>
    on the odd rows s = 1, 3, ..., deg(phi) - 1, with the diagonal, the even
    rows and the entries past r = n exact zeros.
    """
    return DerivCouplings(A=build_phi_matrix(table, n + 1))


def build_omega_matrix(phi: np.ndarray, size: int) -> np.ndarray:
    """Lower band of the leading `size` block of Omega = d* d + 1.

    `phi` is a band from `build_phi_matrix`, and d* = L is its strictly
    lower part.  Omega = L L^T + 1 lives on the even offsets up to
    deg(phi) - 2; the result has shape (deg(phi) - 1, size) in the same
    storage, band[d, j] = Omega[j + d, j], formed diagonal by diagonal from
    Omega[j + d, j] = sum over odd s of L[j + d, j - s] L[j, j - s], which
    reads only rows of L below `size`, so `phi` must have `size` columns.
    """
    if phi.shape[1] < size:
        raise ValueError(
            f"phi band of size {phi.shape[1]} too small for omega size {size}"
        )
    om = np.zeros((len(phi) - 1, size))
    for s in range(1, len(phi), 2):
        for d in range(0, len(phi) - s, 2):
            cols = max(size - s - d, 0)
            om[d, s:s + cols] += phi[s + d, :cols] * phi[s, :cols]
    om[0] += 1.0
    return om
