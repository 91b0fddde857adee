"""Semi-discrete generator and implicit Euler stepping for the coefficient ODE.

The state collects the coefficients C[k][n] of the perturbation on the tensor
basis (space polynomial n, velocity Hermite k).  The generator couples
neighbouring velocity modes through the derivative couplings A, read straight
from Phi's lower band (the odd diagonals of d* below deg(phi), N + 1 wide),
and damps the modes k >= 3; its transport part is exactly skew-symmetric, so
the implicit Euler step is unconditionally norm non-increasing.

The same structure lets the implicit Euler system be solved by exact
elimination.  The diagonal of I - dt M is T = 1 + dt [k >= 3], and transport
links mode k only to k - 1 and k + 1, so in the even-k/odd-k split

    I - dt M = [[T_e, -G], [G^T, T_o]],    G = dt M[even k, odd k],

with T_e and T_o diagonal.  Eliminating the odd unknowns leaves the Schur
complement S = T_e + G T_o^-1 G^T on the even ones: symmetric, banded and
S >= I, so its Cholesky factor S = U^T U needs no pivoting and has a
diagonal >= 1 (Golub & Van Loan, *Matrix Computations*, 4.3 and 4.5; Benzi,
Golub & Liesen, Acta Numerica 14, 2005).  The odd unknowns follow as
x_o = T_o^-1 (b_o - G^T x_e).

The reduced unknowns are ordered in closed form.  A links n only to n plus
an odd offset below deg(phi), so k + n keeps its parity and S splits into two
independent blocks.  S links (k, n) to (k', n') with |k - k'| <= 2 and
|n - n'| <= 2 (deg(phi) - 1); within a block the unknowns are ranked by
n // 2 + (deg(phi) / 2) (k / 2), which weighs a step of 2 in k like a step of
deg(phi) in n.  On every shape measured this gives the bandwidth of reverse
Cuthill-McKee: 1 for (deg, K, N) = (2, 10, 600), 21 for (6, 80, 60).

Each `step` checks the residual against 1e-12 ||b||; a solve that misses it
gets up to five steps of fixed-precision iterative refinement against I - dt M
itself (Skeel, Math. Comp. 35, 1980; five is LAPACK xGERFS's ITMAX).  The
gate is relative to ||b|| while ||I - dt M|| grows with dt, and the
elimination squares the conditioning of the first solve, so at large dt it
takes two or three refinements where a sparse LU takes one.  The residual of
I - dt M itself cannot fall far below eps dt ||M|| ||x||, so from about
dt = 1e5 some configurations miss the gate under any solver; each miss raises
`SolverConsistencyError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs

from .errors import SolverConsistencyError, describe

# Residual gate of `step`, relative to the norm of the right-hand side.
_SOLVE_REL_TOL = 1e-12
# Refinement steps a solve may take to meet the gate (ITMAX of LAPACK xGERFS).
_MAX_REFINEMENTS = 5


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
class EvenOddCholesky:
    """Solver for I - dt M through the Cholesky factor of its even-k Schur complement.

    `band` holds U, S = U^T U, in LAPACK upper band storage,
    band[kd + i - j, j] = U[i, j].  `restrict` maps b to the reduced
    right-hand side b_e + G T_o^-1 b_o, and `extend` with `odd_scale` maps the
    reduced solution back: x = extend x_e + odd_scale * b.  Both sparse maps
    act on the original index order and list the reduced unknowns in band
    order.  A Cholesky factor is the LU factor with L = U^T; both are
    exposed as sparse matrices.
    """

    band: np.ndarray = field(repr=False)
    restrict: sp.csr_matrix = field(repr=False)
    extend: sp.csr_matrix = field(repr=False)
    odd_scale: np.ndarray = field(repr=False)

    @property
    def U(self) -> sp.dia_matrix:
        """U as a `dia_matrix` view of `band`, without a copy."""
        kd, n = self.band.shape[0] - 1, self.band.shape[1]
        return sp.dia_matrix((self.band, np.arange(kd, -1, -1)), shape=(n, n))

    @property
    def L(self) -> sp.dia_matrix:
        return self.U.T

    def solve(self, b: np.ndarray) -> np.ndarray:
        # Raw dpbtrs: cho_solve_banded's argument checks cost about 3.5 us a
        # call, more than the whole band solve on a preset-sized system.
        x_e, _ = dpbtrs(self.band, self.restrict @ b, overwrite_b=1)
        return self.extend @ x_e + self.odd_scale * b


@dataclass(frozen=True)
class SteppingPlan:
    """One factorization of (I - dt M), reused for every step.

    The factor keeps the name `lu` (an `EvenOddCholesky`): the Cholesky
    factor is an LU factorization with L = U^T, and `lu.solve`, `lu.L` and
    `lu.U` are the interface the benchmark's `scheme.lu_fill` count and the
    tests read.
    """

    dt: float
    lu: EvenOddCholesky = field(repr=False)
    system: sp.csr_matrix = field(repr=False)
    K: int
    N: int


def check_truncation(K: int, N: int, degree: int) -> None:
    """Raise ValueError unless N >= deg(phi) = `degree` and K >= 2: otherwise
    phi' leaves the retained polynomial space or the energy, velocity mode
    k = 2, is dropped, and the discrete conservation identities break."""
    if K < 2:
        raise ValueError(f"truncation K={describe(K)} below 2; the conservation "
                         "structure requires K >= 2, the energy mode")
    if N < degree:
        raise ValueError(f"truncation N={describe(N)} below the potential "
                         f"degree {degree}; the conservation structure "
                         "requires N >= deg(phi)")


def assemble_generator(band: np.ndarray, K: int) -> Generator:
    """Assemble the generator for truncation parameters (K, N) from Phi's lower band.

    M[(k, r), (k + 1, n)] = sqrt(k + 1) A[r, n] and its negative transpose
    couple neighbouring velocity modes, and M[(k, n), (k, n)] = -1 damps the
    modes k >= 3; index (k, n) is k (N + 1) + n.  The couplings A are the
    strictly lower part of Phi (`operators.build_deriv_couplings`), and only
    the nonzeros of its lower band `band`, shape (deg(phi), N + 1), enter:
    A[r, n] = band[r - n, n]; `build_phi_matrix` leaves exact zeros past
    row N, so every coupling stays inside the truncation.

    `check_truncation` raises ValueError unless N >= deg(phi) and K >= 2.
    """
    deg, N = band.shape[0], band.shape[1] - 1
    check_truncation(K, N, deg)
    s, n = np.nonzero(band)
    r = n + s
    k = np.repeat(np.arange(K), len(r))
    up_rows = k * (N + 1) + np.tile(r, K)
    up_cols = (k + 1) * (N + 1) + np.tile(n, K)
    up = np.repeat(np.sqrt(np.arange(1.0, K + 1.0)), len(r)) * np.tile(band[s, n], K)
    dim = (K + 1) * (N + 1)
    damped = np.arange(3 * (N + 1), dim)
    m = sp.csr_matrix(
        (np.concatenate([up, -up, np.full(len(damped), -1.0)]),
         (np.concatenate([up_rows, up_cols, damped]),
          np.concatenate([up_cols, up_rows, damped]))),
        shape=(dim, dim))
    return Generator(matrix=m, K=K, N=N)


def make_stepping_plan(gen: Generator, dt: float) -> SteppingPlan:
    """Factor (I - dt M) once for repeated implicit Euler solves.

    Forms the even-k Schur complement S = T_e + W W^T, W = G T_o^-1/2, in
    the closed-form band order of the module docstring, factors S = L L^T in
    lower band storage and moves U = L^T into the upper storage the solve
    reads.  Both storages give the same bits; with two OpenBLAS threads the
    lower factorization is 4-10x faster (n = 2501, kd = 21) and the upper
    solve about 2x.  The bandwidth is read from the coupling pattern, so the
    factor's size depends on neither dt nor the values of M.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    K, N = gen.K, gen.N
    dim = (K + 1) * (N + 1)
    k, n = np.divmod(np.arange(dim), N + 1)
    t = 1.0 + dt * (k >= 3)
    even = k % 2 == 0
    m = gen.matrix.tocoo()
    # A's widest offset is deg(phi) - 1.
    half_deg = (int(np.max(np.abs(n[m.row] - n[m.col]))) + 1) // 2
    ev = np.flatnonzero(even)
    order = ev[np.lexsort((k[ev], n[ev] // 2 + half_deg * (k[ev] // 2),
                           (k[ev] + n[ev]) % 2))]
    n_e = len(order)
    pos = np.zeros(dim, dtype=np.intp)
    pos[order] = np.arange(n_e)

    sel = even[m.row] & ~even[m.col]
    g_rows, g_cols = pos[m.row[sel]], m.col[sel]
    g = dt * m.data[sel]
    w = sp.csr_matrix((g / np.sqrt(t[g_cols]), (g_rows, g_cols)),
                      shape=(n_e, dim))
    # W W^T's bandwidth from W's pattern: the widest row span of a column.
    lo, hi = np.full(dim, n_e), np.full(dim, -1)
    np.minimum.at(lo, g_cols, g_rows)
    np.maximum.at(hi, g_cols, g_rows)
    kd = int(np.max(hi - lo))
    s = (w @ w.T).tocoo()
    lower = s.row >= s.col
    band = np.zeros((kd + 1, n_e), order="F")
    band[s.row[lower] - s.col[lower], s.col[lower]] = s.data[lower]
    band[0] += t[order]
    del w, s  # free S's triplets before the maps allocate their own
    try:
        band = cholesky_banded(band, overwrite_ab=True, lower=True,
                               check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolverConsistencyError(
            f"Cholesky factorization of the Schur complement failed: {exc}") from exc
    # Upper row kd - d of U = L^T is lower row d of L shifted right by d.
    for d in range(kd // 2 + 1):
        row = band[d, :n_e - d].copy()
        band[d, :kd - d], band[d, kd - d:] = 0.0, band[kd - d, :n_e - kd + d]
        band[kd - d, :d], band[kd - d, d:] = 0.0, row

    # restrict = perm + G T_o^-1, extend = perm^T - T_o^-1 G^T, in band order.
    coupling = g / t[g_cols]
    rows = np.concatenate([np.arange(n_e), g_rows])
    cols = np.concatenate([order, g_cols])
    restrict = sp.csr_matrix((np.concatenate([np.ones(n_e), coupling]),
                              (rows, cols)), shape=(n_e, dim))
    extend = sp.csr_matrix((np.concatenate([np.ones(n_e), -coupling]),
                            (cols, rows)), shape=(dim, n_e))
    odd_scale = np.where(even, 0.0, 1.0 / t)
    system = sp.identity(dim, format="csr") - dt * gen.matrix
    lu = EvenOddCholesky(band=band, restrict=restrict, extend=extend,
                         odd_scale=odd_scale)
    return SteppingPlan(dt=dt, lu=lu, system=system, K=K, N=N)


def step(plan: SteppingPlan, state: SpectralState) -> SpectralState:
    """One implicit Euler step: solve (I - dt M) C_next = C.

    A state that is not finite raises before any solve.  A solve whose
    residual misses the gate gets up to `_MAX_REFINEMENTS` refinement steps;
    a residual that still misses it, or is not finite, raises.
    """
    if state.C.shape != (plan.K + 1, plan.N + 1):
        raise ValueError("state shape does not match the stepping plan")
    b = state.C.ravel()
    tol = _SOLVE_REL_TOL * _norm(b)
    if not math.isfinite(tol):
        raise SolverConsistencyError(
            "implicit Euler step on a state that is not finite")
    x = plan.lu.solve(b)
    r = plan.system @ x - b
    resid = _norm(r)
    refinements = 0
    while not resid <= tol:
        if refinements == _MAX_REFINEMENTS or not math.isfinite(resid):
            raise SolverConsistencyError(
                f"implicit Euler solve residual {resid:.3e} exceeds "
                f"{_SOLVE_REL_TOL:.1e} * ||b|| after {refinements} refinement steps"
            )
        x -= plan.lu.solve(r)
        r = plan.system @ x - b
        resid = _norm(r)
        refinements += 1
    return SpectralState(C=x.reshape(plan.K + 1, plan.N + 1), t=state.t + plan.dt)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, as np.linalg.norm computes it, without its dispatch."""
    return math.sqrt(v.dot(v))


def project_initial_condition(entries, K: int, N: int) -> SpectralState:
    """State with the listed (k, n, value) coefficients set, others zero;
    of entries that repeat a (k, n), the last one wins."""
    c = np.zeros((K + 1, N + 1))
    for k, n, value in entries:
        if not (0 <= k <= K and 0 <= n <= N):
            raise IndexError(f"coefficient ({k}, {n}) outside (K, N) = ({K}, {N})")
        c[k, n] = float(value)
    return SpectralState(C=c, t=0.0)
