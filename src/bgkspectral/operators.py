"""Matrix representations of x-space operators in the orthonormal basis.

The multiplication operator by phi' is a symmetric band matrix Phi whose
strictly lower part represents the adjoint derivative d* = -d/dx + phi' and
whose strictly upper part represents d/dx (their sum is multiplication by
phi').  The derivative couplings and the weighted Laplacian plus identity,
Omega = d* d + 1, follow exactly from those two triangles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .orthopoly import RecurrenceTable
from .potential import NormalizedPotential, _full_coeffs


@dataclass(frozen=True)
class BandedOperator:
    """Symmetric-band storage: offset -> diagonal entries."""

    size: int
    bands: dict[int, np.ndarray]
    symmetry: str = "general"

    @property
    def bandwidth(self) -> int:
        return max((abs(o) for o in self.bands), default=0)

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.size, self.size))
        for off, diag in self.bands.items():
            idx = np.arange(self.size - abs(off))
            if off >= 0:
                out[idx, idx + off] = diag
            else:
                out[idx - off, idx] = diag
        return out


@dataclass(frozen=True)
class DerivCouplings:
    """Dense couplings A[r, n] = <P_r', P_n> between basis polynomials."""

    A: np.ndarray
    table: RecurrenceTable = field(repr=False)


def _lower_bands_mirrored(mat: np.ndarray, offsets) -> dict[int, np.ndarray]:
    # Assemble from one triangle so symmetry holds exactly at entry level.
    bands: dict[int, np.ndarray] = {}
    for off in offsets:
        diag = np.diagonal(mat, offset=-abs(off)).copy()
        bands[-abs(off)] = diag
        if off != 0:
            bands[abs(off)] = diag
        else:
            bands[0] = diag
    return bands


def jacobi_matrix(table: RecurrenceTable, size: int) -> np.ndarray:
    """Dense truncation of the x-multiplication (Jacobi) matrix."""
    if table.n_max < size - 1:
        raise ValueError(f"recurrence table too short for size {size}")
    j = np.zeros((size, size))
    idx = np.arange(size - 1)
    off = table.a[1:size]
    j[idx, idx + 1] = off
    j[idx + 1, idx] = off
    return j


def build_phi_matrix(table: RecurrenceTable, pot: NormalizedPotential,
                     size: int) -> BandedOperator:
    """Band matrix of multiplication by phi' in the orthonormal basis.

    phi' is an odd polynomial of degree 2m-1, so the matrix is the same
    polynomial evaluated at the Jacobi matrix; assembling at `size` plus a
    margin and truncating keeps the retained block exact.
    """
    two_m = pot.degree
    margin = two_m + 2
    big = size + margin
    if table.n_max < big - 1:
        raise ValueError(
            f"recurrence table reaches {table.n_max}, need {big - 1} for size {size}"
        )
    j = jacobi_matrix(table, big)
    dcoeffs = npoly.polyder(_full_coeffs(pot.coeffs))
    acc = np.zeros_like(j)
    np.fill_diagonal(acc, dcoeffs[-1])
    for c in dcoeffs[-2::-1]:
        acc = acc @ j
        if c != 0.0:
            acc[np.diag_indices(big)] += c
    phi_full = acc[:size, :size]
    offsets = range(1, two_m, 2)
    return BandedOperator(size=size,
                          bands=_lower_bands_mirrored(phi_full, offsets),
                          symmetry="symmetric")


def derivative_matrix(phi: BandedOperator) -> np.ndarray:
    """Matrix of d/dx: the strictly upper part of Phi."""
    return np.triu(phi.toarray(), 1)


def adjoint_derivative_matrix(phi: BandedOperator) -> np.ndarray:
    """Matrix of d* = -d/dx + phi': the strictly lower part of Phi."""
    return np.tril(phi.toarray(), -1)


def build_deriv_couplings(table: RecurrenceTable, n: int) -> DerivCouplings:
    """Couplings A[r, k] = <P_r', P_k> for r, k = 0..n, by integration by parts.

    For k < r, <P_r', P_k> = <phi' P_r, P_k> - <P_r, P_k'>, and the last term
    vanishes because P_k' has degree below r; for k >= r the entry vanishes
    because P_r' has degree r - 1.  So A is exactly the strictly lower part of
    Phi: banded on the odd offsets 1, 3, ..., deg(phi) - 1, with every other
    entry an exact zero.
    """
    phi = build_phi_matrix(table, table.weight, n + 1)
    return DerivCouplings(A=np.tril(phi.toarray(), -1), table=table)


def build_omega_matrix(phi: BandedOperator, size: int) -> BandedOperator:
    """Truncation of Omega = d* d + 1 from the two triangles of Phi."""
    if phi.size < size + phi.bandwidth:
        raise ValueError(
            f"phi matrix of size {phi.size} too small for omega size {size} "
            f"(bandwidth {phi.bandwidth})"
        )
    lower = adjoint_derivative_matrix(phi)
    om = lower @ lower.T
    om[np.diag_indices(phi.size)] += 1.0
    om = om[:size, :size]
    offsets = range(0, phi.bandwidth, 2)
    return BandedOperator(size=size,
                          bands=_lower_bands_mirrored(om, offsets),
                          symmetry="symmetric")
