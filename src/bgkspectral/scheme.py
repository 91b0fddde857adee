"""Semi-discrete generator and implicit Euler stepping for the coefficient ODE.

The state collects the coefficients C[k][n] of the perturbation on the tensor
basis (space polynomial n, velocity Hermite k).  The generator couples
neighbouring velocity modes through the derivative couplings A and damps the
modes k >= 3; its transport part is exactly skew-symmetric, so the implicit
Euler step is unconditionally norm non-increasing.

The same structure makes the system I - dt M positive real: its symmetric part
is diagonal with entries 1 or 1 + dt.  Gaussian elimination on such a matrix,
under any symmetric reordering, needs no pivoting and every pivot is >= 1
(Golub & Van Loan, LAA 28, 1979), so the factorization orders only for fill
and its structure does not depend on dt or on the last bits of M.  One step
of fixed-precision iterative refinement (Skeel, Math. Comp. 35, 1980) runs
when a solve misses the residual gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import SolverConsistencyError
from .operators import DerivCouplings


@dataclass(frozen=True)
class SpectralState:
    """Coefficient array C of shape (K+1, N+1) at time t."""

    C: np.ndarray
    t: float = 0.0

    @property
    def K(self) -> int:
        return self.C.shape[0] - 1

    @property
    def N(self) -> int:
        return self.C.shape[1] - 1


@dataclass(frozen=True)
class Generator:
    """Sparse (CSR) matrix of the coefficient ODE, block tridiagonal in k."""

    matrix: sp.csr_matrix = field(repr=False)
    K: int
    N: int


@dataclass(frozen=True)
class SteppingPlan:
    """One pivot-free LU factorization of (I - dt M), reused for every step."""

    dt: float
    lu: object = field(repr=False)
    system: sp.csc_matrix = field(repr=False)
    K: int
    N: int
    solve_rel_tol: float = 1e-12


def assemble_generator(couplings: DerivCouplings, K: int, N: int) -> Generator:
    """Assemble the generator for truncation parameters (K, N).

    Requires N >= deg(phi): otherwise phi' leaves the retained polynomial
    space and the discrete conservation identities silently break, so the
    violation is an error rather than a warning.
    """
    if K < 0 or N < 0:
        raise ValueError("K and N must be nonnegative")
    deg = couplings.table.weight.degree
    if N < deg:
        raise ValueError(
            f"truncation N={N} below the potential degree {deg}; "
            "the conservation structure requires N >= deg(phi)"
        )
    if couplings.A.shape[0] < N + 1:
        raise ValueError("derivative couplings too small for N")
    a = sp.csr_matrix(couplings.A[: N + 1, : N + 1])
    ks = np.sqrt(np.arange(1.0, K + 1.0))
    up = sp.diags(ks, 1, shape=(K + 1, K + 1))
    low = sp.diags(-ks, -1, shape=(K + 1, K + 1))
    damp = sp.diags(-(np.arange(K + 1) >= 3).astype(float), 0,
                    shape=(K + 1, K + 1))
    m = (sp.kron(up, a, format="csr")
         + sp.kron(low, a.T.tocsr(), format="csr")
         + sp.kron(damp, sp.identity(N + 1, format="csr"), format="csr"))
    m = m.tocsr()
    m.eliminate_zeros()
    return Generator(matrix=m, K=K, N=N)


def make_stepping_plan(gen: Generator, dt: float) -> SteppingPlan:
    """Factor (I - dt M) once for repeated implicit Euler solves.

    No row pivoting: the LU keeps the minimum-degree ordering of M + M^T on
    its diagonal (perm_r == perm_c), and every pivot is >= 1.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    dim = (gen.K + 1) * (gen.N + 1)
    system = (sp.identity(dim, format="csc") - dt * gen.matrix.tocsc()).tocsc()
    lu = splu(system, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options=dict(SymmetricMode=True))
    return SteppingPlan(dt=dt, lu=lu, system=system, K=gen.K, N=gen.N)


def step(plan: SteppingPlan, state: SpectralState) -> SpectralState:
    """One implicit Euler step: solve (I - dt M) C_next = C.

    A state that is not finite raises before any solve.  A solve whose
    residual misses the gate gets one refinement step; a residual that still
    misses it, or is not finite, raises.
    """
    if state.C.shape != (plan.K + 1, plan.N + 1):
        raise ValueError("state shape does not match the stepping plan")
    b = state.C.ravel()
    tol = plan.solve_rel_tol * np.linalg.norm(b)
    if not math.isfinite(tol):
        raise SolverConsistencyError(
            "implicit Euler step on a state that is not finite")
    x = plan.lu.solve(b)
    r = plan.system @ x - b
    resid = np.linalg.norm(r)
    if not resid <= tol:
        x -= plan.lu.solve(r)
        resid = np.linalg.norm(plan.system @ x - b)
        if not resid <= tol:
            raise SolverConsistencyError(
                f"implicit Euler solve residual {resid:.3e} exceeds "
                f"{plan.solve_rel_tol:.1e} * ||b||"
            )
    return SpectralState(C=x.reshape(plan.K + 1, plan.N + 1), t=state.t + plan.dt)


def project_initial_condition(entries, K: int, N: int) -> SpectralState:
    """State with the listed (k, n, value) coefficients set, others zero."""
    c = np.zeros((K + 1, N + 1))
    for k, n, value in entries:
        if not (0 <= k <= K and 0 <= n <= N):
            raise IndexError(f"coefficient ({k}, {n}) outside (K, N) = ({K}, {N})")
        c[k, n] = float(value)
    return SpectralState(C=c, t=0.0)


def purge_equilibrium_components(state: SpectralState, ip_phi: np.ndarray,
                                 harmonic: bool) -> SpectralState:
    """Remove the steady/oscillatory components so the conserved functionals vanish.

    Adjusts the coefficient slots carrying the spectral representation of the
    equilibrium modes: mass C[0,0], energy C[2,0] (paired with the phi-moment
    of C[0,:]), and in the harmonic case also the position/momentum slots.
    """
    c = state.C.copy()
    K, N = state.K, state.N
    c[0, 0] = 0.0
    # phi is even, so ip_phi[1] = 0 and zeroing C[0,1] leaves phi_r unchanged.
    n_ip = min(N, len(ip_phi) - 1)
    phi_r = float(c[0, : n_ip + 1] @ ip_phi[: n_ip + 1])
    if harmonic:
        if N >= 1:
            c[0, 1] = 0.0
        if K >= 1:
            c[1, 0] = 0.0
            if N >= 1:
                c[1, 1] = 0.0
        if N >= 2:
            c[0, 2] -= phi_r / ip_phi[2]
        if K >= 2:
            c[2, 0] = 0.0
    else:
        if K >= 2:
            c[2, 0] = -np.sqrt(2.0) * phi_r
        elif N >= 2 and ip_phi[2] != 0.0:
            c[0, 2] -= phi_r / ip_phi[2]
    return SpectralState(C=c, t=state.t)
