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
# The kernel behind `csr_matrix @ vector`; scipy exports it from no public module.
from scipy.sparse._sparsetools import csr_matvec

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
    order; `solve` applies them with `_matvec`, scipy's CSR kernel on their
    arrays, bit for bit the `@` products.  A Cholesky factor is the LU
    factor with L = U^T; both are exposed as sparse matrices.
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

    @property
    def nnz(self) -> int:
        """Entries of U, `U.nnz`, counted from the band's shape: diagonal d
        of the kd + 1 holds n - d."""
        kd, n = self.band.shape[0] - 1, self.band.shape[1]
        return (kd + 1) * n - kd * (kd + 1) // 2

    def solve(self, b: np.ndarray) -> np.ndarray:
        # Raw dpbtrs: cho_solve_banded's argument checks cost about 3.5 us a
        # call, more than the whole band solve on a preset-sized system.
        x_e, _ = dpbtrs(self.band, _matvec(self.restrict, b), overwrite_b=1)
        return _matvec(self.extend, x_e) + self.odd_scale * b


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

    The CSR arrays are written directly, in canonical order.  Row i of every
    block row k has one pattern: A^T's row i in block k - 1, the damping on
    the diagonal, then A's row i in block k + 1, each sorted by column.  It
    is laid out once and tiled across k, keeping the parts mode k has.

    `check_truncation` raises ValueError unless N >= deg(phi) and K >= 2.
    """
    deg, N = band.shape[0], band.shape[1] - 1
    check_truncation(K, N, deg)
    w = N + 1
    s, n = np.nonzero(band)
    r = n + s
    by_row = np.lexsort((n, r))
    # One block row: (row, part, column, value) of A^T's entries (part 0,
    # block k - 1), the damping (part 1) and A's entries (part 2, block k + 1).
    row = np.concatenate([n, np.arange(w), r[by_row]])
    part = np.repeat([0, 1, 2], [len(n), w, len(n)])
    col = np.concatenate([r - w, np.arange(w), n[by_row] + w])
    val = np.concatenate([band[s, n], np.ones(w), band[s, n][by_row]])
    at = np.argsort(row * 3 + part, kind="stable")
    part, col, val = part[at], col[at], val[at]
    # has[k, part]: mode k couples to k - 1 (k >= 1), is damped (k >= 3) and
    # couples to k + 1 (k < K); scale[k, part] multiplies that part's values.
    k = np.arange(K + 1)
    has = np.stack([k >= 1, k >= 3, k < K], axis=1)
    scale = np.stack([-np.sqrt(k), -np.ones(K + 1), np.sqrt(k + 1.0)], axis=1)
    per_row = np.stack([np.bincount(n, minlength=w), np.ones(w, dtype=np.intp),
                        np.bincount(r, minlength=w)])
    indptr = np.concatenate([[0], np.cumsum(has.astype(np.intp) @ per_row)])
    keep = has[:, part]
    data = scale[:, part]
    data *= val
    dim = (K + 1) * w
    m = sp.csr_matrix((data[keep], (k[:, None] * w + col)[keep], indptr),
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

    Every sparse structure is written in canonical CSR order from M's CSR
    arrays, read as they are.  W's rows are M's even rows in band order
    without their damping entry.  `system` holds -dt M off the diagonal and
    1 - dt M on it; the rows of modes 0..2, which M does not damp, get
    their 1 inserted.  `restrict`'s rows are the even rows of `system` with
    the identity on the diagonal, between the couplings to mode k - 1 and
    to mode k + 1, and `extend` has restrict's transposed pattern.  Every
    block row of M repeats block row 1's pattern (`assemble_generator`),
    which gives each row's number of couplings to mode k - 1.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    K, N = gen.K, gen.N
    w = N + 1
    dim = (K + 1) * w
    indptr, indices, data = gen.matrix.indptr, gen.matrix.indices, gen.matrix.data
    # Block row 1: row i couples to mode 0 (A^T's row i), then to mode 2.
    ptr = indptr[w:2 * w + 1]
    i1 = np.repeat(np.arange(w), np.diff(ptr))
    j1 = indices[ptr[0]:ptr[-1]]
    below = j1 < w
    n_low = np.bincount(i1[below], minlength=w)
    # A's widest offset is deg(phi) - 1.
    half_deg = (int(np.max(j1[below] - i1[below], initial=0)) + 1) // 2
    k2, n = np.divmod(np.arange((K // 2 + 1) * w), w)
    by = np.lexsort((k2, n // 2 + half_deg * k2, n % 2))
    k, n = 2 * k2[by], n[by]
    order = k * w + n
    n_e = len(order)
    # t = 1 + dt [k >= 3], the diagonal of I - dt M, by mode.
    t = 1.0 + dt * (np.arange(K + 1) >= 3)

    # W = G T_o^-1/2, G = dt M[even k, odd k]: M's even rows in band order
    # without the damping entry that rows k >= 3 hold after their couplings
    # to mode k - 1.
    src, m_ptr = _gather_rows(indptr, order)
    src = np.delete(src, (m_ptr[:-1] + n_low[n])[k >= 3])
    g_cols = indices[src]
    g = data[src] * dt
    g /= np.repeat(np.sqrt(t), w)[g_cols]
    w_ptr = m_ptr - np.concatenate([[0], np.cumsum(k >= 3)])
    w_mat = sp.csr_matrix((g, g_cols, w_ptr), shape=(n_e, dim))
    del src, g, g_cols
    # W^T, which W @ W.T would form itself; its rows are W's columns, so
    # W W^T's bandwidth is the widest span of one of its rows.
    w_t = w_mat.T.tocsr()
    full = np.flatnonzero(np.diff(w_t.indptr))
    kd = int(np.max(w_t.indices[w_t.indptr[full + 1] - 1] - w_t.indices[w_t.indptr[full]],
                    initial=0))
    s = (w_mat @ w_t).tocoo()
    del w_mat, w_t
    lower = s.row >= s.col
    row, col = s.row[lower], s.col[lower]
    band = np.zeros((kd + 1, n_e), order="F")
    band[row - col, col] = s.data[lower]
    band[0] += t[k]
    del s, lower, row, col  # free S's triplets before the factor
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

    # I - dt M; the rows of modes 0..2 get their diagonal 1 after their
    # couplings to mode k - 1.
    head = indptr[3 * w]
    at = indptr[:3 * w] + np.concatenate([np.zeros(w, dtype=np.intp), n_low, n_low])
    sys_ptr = indptr + np.minimum(np.arange(dim + 1), 3 * w)
    sys_data = np.empty(len(data) + 3 * w)
    sys_data[:head + 3 * w] = np.insert(data[:head] * -dt, at, 1.0)
    np.multiply(data[head:], -dt, out=sys_data[head + 3 * w:])
    diag = sys_ptr[3 * w:dim] + np.tile(n_low, K - 2)
    sys_data[diag] = 1.0 - dt * data[diag - 3 * w]
    sys_indices = np.concatenate([np.insert(indices[:head], at, np.arange(3 * w)),
                                  indices[head:]])
    system = sp.csr_matrix((sys_data, sys_indices, sys_ptr), shape=(dim, dim))
    # restrict = perm + G T_o^-1: the even rows of I - dt M in band order,
    # G = -(I - dt M) off the diagonal and the identity on it.
    src, r_ptr = _gather_rows(sys_ptr, order)
    r_cols = sys_indices[src]
    r_data = sys_data[src]
    r_data /= np.repeat(-t, w)[r_cols]
    r_data[r_ptr[:-1] + n_low[n] * (k >= 1)] = 1.0
    restrict = sp.csr_matrix((r_data, r_cols, r_ptr), shape=(n_e, dim))
    # extend = perm^T - T_o^-1 G^T: restrict's transpose, negated but for the
    # identity, the one entry of each even row.
    ext = restrict.tocsc()
    np.negative(ext.data, out=ext.data)
    ext.data[ext.indptr[order]] = 1.0
    extend = sp.csr_matrix((ext.data, ext.indices, ext.indptr), shape=(dim, n_e))
    odd_scale = np.repeat(np.where(np.arange(K + 1) % 2 == 1, 1.0 / t, 0.0), w)
    lu = EvenOddCholesky(band=band, restrict=restrict, extend=extend,
                         odd_scale=odd_scale)
    return SteppingPlan(dt=dt, lu=lu, system=system, K=K, N=N)


def _gather_rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of `rows`, in that order, in the arrays of a
    CSR matrix with row pointer `indptr`, and the row pointer they form."""
    length = indptr[rows + 1] - indptr[rows]
    ptr = np.concatenate([[0], np.cumsum(length)])
    return np.arange(ptr[-1]) + np.repeat(indptr[rows] - ptr[:-1], length), ptr


def step(plan: SteppingPlan, state: SpectralState) -> SpectralState:
    """One implicit Euler step: solve (I - dt M) C_next = C.

    The solve and the residual (I - dt M) x - C run through `_matvec` on the
    plan's CSR arrays, with the bits of `plan.system @ x`; C may be of any
    real dtype and memory layout, and C_next is float64.  A state whose
    norm is not finite raises before any solve.  A solve whose residual
    misses the gate gets up to `_MAX_REFINEMENTS` refinement steps; a
    residual that still misses it, or is not finite, raises.
    """
    if state.C.shape != (plan.K + 1, plan.N + 1):
        raise ValueError("state shape does not match the stepping plan")
    b = state.C.ravel()
    tol = _SOLVE_REL_TOL * _norm(b)
    if not math.isfinite(tol):
        raise SolverConsistencyError(
            "implicit Euler step on a state whose norm is not finite")
    x = plan.lu.solve(b)
    r = _matvec(plan.system, x) - b
    resid = _norm(r)
    refinements = 0
    while not resid <= tol:
        if refinements == _MAX_REFINEMENTS or not math.isfinite(resid):
            raise SolverConsistencyError(
                f"implicit Euler solve residual {resid:.3e} exceeds "
                f"{_SOLVE_REL_TOL:.1e} * ||b|| after {refinements} refinement steps"
            )
        x -= plan.lu.solve(r)
        r = _matvec(plan.system, x) - b
        resid = _norm(r)
        refinements += 1
    return SpectralState(C=x.reshape(plan.K + 1, plan.N + 1), t=state.t + plan.dt)


def _matvec(a: sp.csr_matrix, v: np.ndarray) -> np.ndarray:
    """a @ v for a float64 CSR matrix and a vector, as scipy's own
    `_matmul_vector` computes it: `csr_matvec` on a's arrays into a zeroed
    float64 vector, so the bits are the same, without the type and shape
    dispatch of `@`, which costs more than the product at a preset's size."""
    m, n = a.shape
    out = np.zeros(m)
    csr_matvec(m, n, a.indptr, a.indices, a.data, v, out)
    return out


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, as np.linalg.norm computes it, without its dispatch."""
    return math.sqrt(v.dot(v))


def initial_state(keys: np.ndarray, values: np.ndarray, K: int, N: int) -> SpectralState:
    """State at t = 0 whose coefficient k (N + 1) + n is `values[j]` where
    `keys[j]` is that flat index, others zero; `keys` repeats no index."""
    c = np.zeros((K + 1, N + 1))
    c.ravel()[keys] = values
    return SpectralState(C=c, t=0.0)

