import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.linalg.lapack import dpbtrs
from scipy.sparse._base import _spbase
from scipy.sparse.linalg import splu

import bgkspectral as bk
from bgkspectral import cli
from conftest import state_with


@pytest.fixture(scope="module")
def harmonic_setup(harmonic_table):
    def make(K, N):
        dc = bk.build_deriv_couplings(harmonic_table, N)
        gen = bk.assemble_generator(dc.A, K)
        basis = bk.build_functional_basis(harmonic_table, N)
        return dc, gen, basis
    return make


@pytest.fixture(scope="module")
def doublewell_setup(doublewell_table):
    def make(K, N):
        dc = bk.build_deriv_couplings(doublewell_table, N)
        gen = bk.assemble_generator(dc.A, K)
        basis = bk.build_functional_basis(doublewell_table, N)
        return dc, gen, basis
    return make


def test_hand_assembled_small_generator(harmonic_setup):
    # K = 2, N = 2, the smallest truncation both rules (N >= deg(phi) and
    # K >= 2) allow.  Couplings: d/dt C_{0,1} = C_{1,0};
    # d/dt C_{0,2} = sqrt(2) C_{1,1}; d/dt C_{1,1} = sqrt(2) C_{2,0};
    # d/dt C_{1,2} = 2 C_{2,1}; each coupling's transpose enters with a minus
    # sign, and no mode is damped.  Index (k, n) -> 3k + n.
    _, gen, _ = harmonic_setup(2, 2)
    expect = np.zeros((9, 9))
    expect[1, 3] = 1.0
    expect[2, 4] = math.sqrt(2.0)
    expect[4, 6] = math.sqrt(2.0)
    expect[5, 7] = 2.0
    expect[3, 1] = -1.0
    expect[4, 2] = -math.sqrt(2.0)
    expect[6, 4] = -math.sqrt(2.0)
    expect[7, 5] = -2.0
    assert np.max(np.abs(gen.matrix.toarray() - expect)) <= 1e-13


def test_no_damped_modes_means_skew(harmonic_setup):
    _, gen, _ = harmonic_setup(2, 4)
    m = gen.matrix.toarray()
    assert np.array_equal(m + m.T, np.zeros_like(m))


def test_symmetric_part_is_damping_only(doublewell_setup):
    _, gen, _ = doublewell_setup(20, 30)
    m = gen.matrix
    sym = (m + m.T).toarray()
    expect = np.zeros((21 * 31, 21 * 31))
    idx = np.arange(3 * 31, 21 * 31)
    expect[idx, idx] = -2.0
    assert np.array_equal(sym, expect)


def test_quadratic_form_matches_damped_mass(doublewell_setup):
    _, gen, _ = doublewell_setup(20, 30)
    m = gen.matrix
    rng = np.random.default_rng(42)
    for _ in range(100):
        u = rng.standard_normal((21, 31))
        u /= np.linalg.norm(u)
        quad_form = float(u.ravel() @ (m @ u.ravel()))
        expect = -float(np.sum(u[3:] ** 2))
        assert abs(quad_form - expect) <= 1e-12


def test_mode_coupling_pattern(harmonic_setup):
    # A state supported on velocity mode k = 1 flows only into k in {0, 2}.
    _, gen, _ = harmonic_setup(5, 4)
    state = np.zeros((6, 5))
    state[1] = np.arange(1.0, 6.0)
    out = (gen.matrix @ state.ravel()).reshape(6, 5)
    assert np.any(out[0] != 0.0) and np.any(out[2] != 0.0)
    assert np.all(out[1] == 0.0)
    assert np.all(out[3:] == 0.0)


def test_nnz_bound(doublewell_setup):
    dc, gen, _ = doublewell_setup(20, 30)
    nnz_a = np.count_nonzero(dc.A)
    assert gen.matrix.nnz <= 21 * (2 * nnz_a + 31)


def test_truncation_requirement_enforced(doublewell_setup, doublewell_table):
    dc = bk.build_deriv_couplings(doublewell_table, 3)
    with pytest.raises(ValueError, match="N >= deg"):
        bk.assemble_generator(dc.A, 5)
    # Energy is the velocity mode k = 2, so K < 2 cannot conserve it.
    band = bk.build_deriv_couplings(doublewell_table, 30).A
    for K in (-1, 0, 1):
        with pytest.raises(ValueError, match="K >= 2"):
            bk.assemble_generator(band, K)


def test_zero_state_stays_zero(harmonic_setup):
    _, gen, _ = harmonic_setup(4, 3)
    plan = bk.make_stepping_plan(gen, 0.1)
    state = state_with([], 4, 3)
    out = bk.step(plan, state)
    assert np.all(out == 0.0)


def test_dt_must_be_positive(harmonic_setup):
    _, gen, _ = harmonic_setup(4, 3)
    with pytest.raises(ValueError):
        bk.make_stepping_plan(gen, 0.0)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_dt_must_be_finite(harmonic_setup, dt):
    _, gen, _ = harmonic_setup(4, 3)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        bk.make_stepping_plan(gen, dt)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_state_fails_the_residual_gate(harmonic_setup, bad):
    _, gen, _ = harmonic_setup(4, 3)
    plan = bk.make_stepping_plan(gen, 0.1)
    state = state_with([(1, 2, 1.0), (0, 0, bad)], 4, 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(bk.SolverConsistencyError):
            bk.step(plan, state)
    assert caught == []


def test_lu_is_pivot_free_and_structural(doublewell_setup):
    # The even-k Schur complement S of I - dt M satisfies S >= I, so its
    # Cholesky factor needs no pivoting and has a diagonal >= 1, and its band
    # depends on the sparsity pattern alone: not on dt, not on the last bit of
    # an entry.
    _, gen, _ = doublewell_setup(20, 30)
    nudged = gen.matrix.copy()
    nudged.data = np.nextafter(nudged.data, np.inf)
    nudged_gen = bk.Generator(matrix=nudged, K=gen.K, N=gen.N)
    fills = set()
    for dt in (1e-4, 1e-2, 1.0, 100.0):
        lu = bk.make_stepping_plan(gen, dt).lu
        assert np.min(lu.U.diagonal()) >= 1.0 - 1e-12
        nudged_lu = bk.make_stepping_plan(nudged_gen, dt).lu
        fills |= {lu.L.nnz + lu.U.nnz, nudged_lu.L.nnz + nudged_lu.U.nnz}
    assert len(fills) == 1


def _dense_couplings(band, N):
    """The leading (N + 1) block of the couplings a band holds, as a dense array."""
    a = np.zeros((N + 1, N + 1))
    for s in range(1, min(len(band), N + 1)):
        j = np.arange(N + 1 - s)
        a[j + s, j] = band[s, :N + 1 - s]
    return a


def _kron_generator(dc, K, N):
    a = sp.csr_matrix(_dense_couplings(dc.A, N))
    ks = np.sqrt(np.arange(1.0, K + 1.0))
    up = sp.diags(ks, 1, shape=(K + 1, K + 1))
    low = sp.diags(-ks, -1, shape=(K + 1, K + 1))
    damp = sp.diags(-(np.arange(K + 1) >= 3).astype(float), 0,
                    shape=(K + 1, K + 1))
    m = (sp.kron(up, a, format="csr")
         + sp.kron(low, a.T.tocsr(), format="csr")
         + sp.kron(damp, sp.identity(N + 1, format="csr"), format="csr")).tocsr()
    m.eliminate_zeros()
    return m


def _assert_matches_the_kronecker_oracle(dc, K, N):
    # M = up (x) A + low (x) A^T + damp (x) I, entry for entry and bit for bit.
    oracle = _kron_generator(dc, K, N)
    m = bk.assemble_generator(dc.A, K).matrix
    assert m.has_canonical_format
    assert np.array_equal(m.indptr, oracle.indptr)
    assert np.array_equal(m.indices, oracle.indices)
    assert np.array_equal(m.data, oracle.data)


@pytest.mark.parametrize("K", [2, 3, 20])
def test_generator_matches_the_kronecker_oracle(doublewell_table, K):
    _assert_matches_the_kronecker_oracle(
        bk.build_deriv_couplings(doublewell_table, 30), K, 30)


# Every band width of the domain, at N = deg(phi), where the band is cut by
# the truncation in every column, and at N = 60.
@pytest.mark.parametrize("K", [2, 3, 20])
@pytest.mark.parametrize("coeffs", [(0.0, 1.0), (1.0, -2.0, 1.0), (0.0, 0.0, 0.0, 1.0),
                                    (0.0, 1.0, -3.0, 0.5, 0.2)],
                         ids=["harmonic", "double_well", "sextic", "octic"])
def test_generator_matches_the_kronecker_oracle_on_every_band(coeffs, K):
    pot = bk.normalize_potential(bk.RawPotential(coeffs))
    table = bk.build_recurrence(pot, 60 + pot.degree + 2)
    for N in (pot.degree, 60):
        _assert_matches_the_kronecker_oracle(bk.build_deriv_couplings(table, N), K, N)


def test_assembly_allocates_no_dense_couplings(doublewell_pot):
    # One (N + 1)^2 float array is 7.6 MiB at N = 1000; the couplings band is
    # 4 x 1001 floats (31 KiB), and the peak, about 2.0 MiB, is the
    # (K + 1) x (one block row's entries) arrays the CSR arrays are cut from.
    table = bk.build_recurrence(doublewell_pot, 1006)
    tracemalloc.start()
    try:
        bk.assemble_generator(bk.build_deriv_couplings(table, 1000).A, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.8 * 2 ** 20


@pytest.mark.parametrize("dt", [1e-2, 1.0, 100.0])
def test_schur_complement_on_even_modes_is_at_least_identity(doublewell_setup,
                                                              dt):
    # Transport links k only to k +- 1 and the damping is diagonal, so the
    # even/even and odd/odd blocks of I - dt M are diagonal, and eliminating
    # the odd modes leaves S = T_e + G T_o^-1 G^T >= I.  The factor is that S
    # in another order: U^T U has the spectrum of S.
    _, gen, _ = doublewell_setup(9, 12)
    plan = bk.make_stepping_plan(gen, dt)
    system = plan.system.toarray()
    k = np.arange(system.shape[0]) // 13
    e, o = np.flatnonzero(k % 2 == 0), np.flatnonzero(k % 2 == 1)
    for block in (system[np.ix_(e, e)], system[np.ix_(o, o)]):
        assert np.array_equal(block, np.diag(np.diag(block)))
    s = system[np.ix_(e, e)] - system[np.ix_(e, o)] @ np.linalg.solve(
        system[np.ix_(o, o)], system[np.ix_(o, e)])
    assert np.allclose(s, s.T, rtol=0.0, atol=1e-12 * np.max(np.abs(s)))
    lam = np.linalg.eigvalsh(s)
    assert lam[0] >= 1.0 - 1e-12 * lam[-1]
    u = plan.lu.U.toarray()
    assert np.allclose(np.linalg.eigvalsh(u.T @ u), lam, rtol=0.0,
                       atol=1e-12 * lam[-1])


def test_band_of_the_harmonic_schur_complement_is_tridiagonal(harmonic_pot):
    # deg(phi) = 2: the closed-form order leaves bandwidth 1 at N = 600,
    # where sorting by k first gives about 300.
    table = bk.build_recurrence(harmonic_pot, 604)
    gen = bk.assemble_generator(bk.build_deriv_couplings(table, 600).A, 10)
    lu = bk.make_stepping_plan(gen, 1e-2).lu
    assert lu.U.offsets.max() == 1 and lu.band.shape == (2, 6 * 601)
    assert lu.nnz == lu.U.nnz == 2 * 6 * 601 - 1


def test_refinement_rescues_a_solve_that_misses_the_gate():
    # Sextic, K=20, N=150, dt=100: the pivot-free solve of this right-hand
    # side misses the 1e-12 residual gate; one refinement step meets it.
    pot = bk.normalize_potential(bk.RawPotential((0.0, 0.0, 0.0, 1.0)))
    K, N = 20, 150
    table = bk.build_recurrence(pot, N + pot.degree + 2)
    gen = bk.assemble_generator(bk.build_deriv_couplings(table, N).A, K)
    plan = bk.make_stepping_plan(gen, 100.0)
    b = np.random.default_rng(3).standard_normal((K + 1) * (N + 1))
    b_norm = np.linalg.norm(b)
    unrefined = plan.lu.solve(b)
    assert np.linalg.norm(plan.system @ unrefined - b) > 1e-12 * b_norm
    x = bk.step(plan, b.reshape(K + 1, N + 1)).ravel()
    assert np.linalg.norm(plan.system @ x - b) <= 1e-12 * b_norm
    oracle = splu(plan.system.tocsc()).solve(b)
    assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_a_tiny_state_is_refined_as_at_unit_scale(doublewell_setup, monkeypatch):
    # Below ||b|| = 1e-154 both squares of the gate underflow to 0, so a
    # solve perturbed by 1e-6 would pass it unrefined, 1e-6 off.  The step
    # solves such a state at unit scale: it refines there and scales back,
    # bit for bit the unit state's step scaled by the same power of two.
    _, gen, _ = doublewell_setup(10, 10)
    plan = bk.make_stepping_plan(gen, 0.1)
    solve = bk.scheme.EvenOddCholesky.solve
    monkeypatch.setattr(bk.scheme.EvenOddCholesky, "solve",
                        lambda lu, b: solve(lu, b) * (1.0 + 1e-6))
    c = np.random.default_rng(5).standard_normal((11, 11))
    tiny = np.ldexp(c, -532)
    assert np.linalg.norm(tiny) < 1e-158
    x = bk.step(plan, c)
    resid = plan.system @ x.ravel() - c.ravel()
    assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(c)
    assert np.array_equal(bk.step(plan, tiny), np.ldexp(x, -532))


def test_package_imports_no_sparse_linalg():
    # The solver needs only scipy.sparse and LAPACK; scipy.sparse.linalg (and
    # scipy.sparse.csgraph, which imports it) would add to every run's memory.
    src = Path(bk.__file__).resolve().parent.parent
    code = ("import sys, bgkspectral.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.sparse.linalg', 'scipy.sparse.csgraph'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("coeffs, K, N, dt", [
    ((1.0, -2.0, 1.0), 20, 30, 1e5),
    ((0.0, 0.0, 0.0, 1.0), 80, 60, 1e5),
    ((0.0, 1.0, -3.0, 0.5, 0.2), 60, 150, 1e5),
    ((0.0, 0.0, 0.0, 1.0), 80, 60, 3e5),
])
def test_step_meets_the_gate_at_large_dt(coeffs, K, N, dt):
    # ||I - dt M|| grows with dt while the gate stays 1e-12 ||b||, and the
    # even-k Schur complement squares the conditioning of the first solve.
    # At dt = 1e5 one refinement step meets the gate on these systems; the
    # sextic at dt = 3e5 needs two, as a sparse LU needs one.  Not every
    # system does: where the rounding floor of the residual itself lies above
    # the gate, the step raises SolverConsistencyError under any solver.
    pot = bk.normalize_potential(bk.RawPotential(coeffs))
    table = bk.build_recurrence(pot, N + pot.degree + 2)
    gen = bk.assemble_generator(bk.build_deriv_couplings(table, N).A, K)
    plan = bk.make_stepping_plan(gen, dt)
    for seed in range(8):
        b = np.random.default_rng(seed).standard_normal((K + 1) * (N + 1))
        x = bk.step(plan, b.reshape(K + 1, N + 1)).ravel()
        assert np.linalg.norm(plan.system @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_step_raises_once_refinement_cannot_meet_the_gate(doublewell_setup):
    # At dt = 1e7 the residual of I - dt M cannot be computed to 1e-12 ||b||:
    # refinement stops after its last step and the step raises.
    _, gen, _ = doublewell_setup(20, 5)
    plan = bk.make_stepping_plan(gen, 1e7)
    b = np.random.default_rng(0).standard_normal(21 * 6)
    with pytest.raises(bk.SolverConsistencyError, match="after 5 refinement steps"):
        bk.step(plan, b.reshape(21, 6))


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(1e-4, 2.0))
def test_norm_never_increases(harmonic_setup, seed, dt):
    _, gen, _ = harmonic_setup(6, 4)
    rng = np.random.default_rng(seed)
    state = rng.standard_normal((7, 5))
    plan = bk.make_stepping_plan(gen, dt)
    for _ in range(3):
        nxt = bk.step(plan, state)
        assert bk.l2_norm(nxt) <= bk.l2_norm(state) * (1 + 1e-13)
        state = nxt


def test_one_step_matches_matrix_exponential(harmonic_setup):
    _, gen, _ = harmonic_setup(5, 5)
    m = gen.matrix.toarray()
    state = state_with([(1, 2, 1.0), (2, 1, 1.0)], 5, 5)
    plan = bk.make_stepping_plan(gen, 1e-3)
    out = bk.step(plan, state)
    ref = expm(1e-3 * m) @ state.ravel()
    rel = np.linalg.norm(out.ravel() - ref) / np.linalg.norm(ref)
    assert rel <= 1e-5


def test_local_error_is_second_order(harmonic_setup):
    # Against the exact flow, one implicit Euler step errs at O(dt^2).
    _, gen, _ = harmonic_setup(2, 4)
    m = gen.matrix.toarray()
    state = state_with([(1, 2, 1.0), (2, 1, 1.0)], 2, 4)
    errs = []
    for dt in (1e-3, 5e-4):
        plan = bk.make_stepping_plan(gen, dt)
        out = bk.step(plan, state)
        ref = expm(dt * m) @ state.ravel()
        errs.append(np.linalg.norm(out.ravel() - ref))
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0


def test_trajectory_matches_dense_solver(doublewell_setup):
    # Independent dense oracle: solve (I - dt M) directly each step.
    _, gen, _ = doublewell_setup(6, 5)
    m = gen.matrix.toarray()
    dim = m.shape[0]
    dt = 0.05
    plan = bk.make_stepping_plan(gen, dt)
    state = state_with([(2, 1, 1.0)], 6, 5)
    dense = state.ravel().copy()
    system = np.eye(dim) - dt * m
    for _ in range(20):
        state = bk.step(plan, state)
        dense = np.linalg.solve(system, dense)
        assert np.linalg.norm(state.ravel() - dense) <= 1e-12 * np.linalg.norm(dense)


def test_purge_leaves_compliant_state_alone(harmonic_setup):
    _, _, basis = harmonic_setup(20, 5)
    state = state_with([(1, 2, 1.0), (2, 1, 1.0)], 20, 5)
    purged = bk.purge_equilibrium_components(state, basis)
    assert np.array_equal(purged, state)


def test_purge_pure_mass_general(doublewell_setup):
    _, _, basis = doublewell_setup(5, 5)
    state = state_with([(0, 0, 1.0)], 5, 5)
    purged = bk.purge_equilibrium_components(state, basis)
    mass, energy_plus = bk.conserved_functionals(purged, basis)
    assert mass == 0.0
    assert abs(energy_plus) <= 1e-14


def test_purge_harmonic_momentum(harmonic_setup):
    _, _, basis = harmonic_setup(5, 5)
    state = state_with([(1, 0, 1.0)], 5, 5)
    purged = bk.purge_equilibrium_components(state, basis)
    cons = bk.conserved_functionals(purged, basis)
    assert cons.shape == (6,)
    for value in cons:
        assert abs(value) <= 1e-14


def test_purge_messy_state_all_functionals(harmonic_setup):
    _, _, basis = harmonic_setup(6, 5)
    rng = np.random.default_rng(7)
    state = rng.standard_normal((7, 6))
    purged = bk.purge_equilibrium_components(state, basis)
    cons = bk.conserved_functionals(purged, basis)
    for value in cons:
        assert abs(value) <= 1e-13


def test_conservation_along_run(harmonic_setup, doublewell_setup):
    cases = [
        (harmonic_setup, [(1, 2, 1.0), (2, 1, 1.0)]),
        (doublewell_setup, [(2, 1, 1.0)]),
    ]
    for make, entries in cases:
        _, gen, basis = make(20, 5)
        state = state_with(entries, 20, 5)
        norm0 = bk.l2_norm(state)
        plan = bk.make_stepping_plan(gen, 0.01)
        for _ in range(200):
            state = bk.step(plan, state)
            cons = bk.conserved_functionals(state, basis)
            assert np.max(np.abs(cons)) <= 1e-11 * norm0


def test_step_shape_mismatch(harmonic_setup):
    _, gen, _ = harmonic_setup(4, 3)
    plan = bk.make_stepping_plan(gen, 0.1)
    with pytest.raises(ValueError):
        bk.step(plan, np.zeros((2, 2)))


# (potential, K, N, dt) of the harmonic_fig1 and doublewell_fig4 presets and
# of the scale_stepping benchmark, and the last at a dt whose first solve
# misses the residual gate, so `step` refines.
_KERNEL_SHAPES = {
    "fig1": (cli.HARMONIC_COEFFS, 20, 5, 1e-2),
    "fig4": (cli.DOUBLE_WELL_COEFFS, 20, 30, 1e-2),
    "scale_stepping": ((0.0, 0.0, 0.0, 1.0), 80, 60, 1e-2),
    "scale_stepping_refined": ((0.0, 0.0, 0.0, 1.0), 80, 60, 3e5),
}


@pytest.fixture(scope="module")
def kernel_plans():
    plans = {}
    for name, (coeffs, K, N, dt) in _KERNEL_SHAPES.items():
        pot = bk.normalize_potential(bk.RawPotential(tuple(coeffs)))
        table = bk.build_recurrence(pot, N + pot.degree + 2)
        gen = bk.assemble_generator(bk.build_deriv_couplings(table, N).A, K)
        plans[name] = bk.make_stepping_plan(gen, dt)
    return plans


def test_factor_entries_are_counted_from_the_band(kernel_plans):
    # The count needs no sparse matrix; it is what the dia_matrix view holds.
    # scale_stepping's band (n = 2501, kd = 21) holds half its pinned LU
    # fill of 109,582.
    for name, plan in kernel_plans.items():
        assert plan.lu.nnz == plan.lu.U.nnz, name
    assert kernel_plans["scale_stepping"].lu.nnz == 54_791


def _operator_solve(plan, b):
    # The solve as scipy's `@` writes it.
    x_e, _ = dpbtrs(plan.lu.band, plan.lu.restrict @ b, overwrite_b=1)
    return plan.lu.extend @ x_e + plan.lu.odd_scale * b


def _operator_step(plan, C):
    # `step`'s gate and refinement loop with every product written as `@`.
    b = C.ravel()
    tol = 1e-12 * math.sqrt(b.dot(b))
    x = _operator_solve(plan, b)
    r = plan.system @ x - b
    while not math.sqrt(r.dot(r)) <= tol:
        x -= _operator_solve(plan, r)
        r = plan.system @ x - b
    return x.reshape(C.shape)


def _kernel_states(K, N):
    rng = np.random.default_rng(29)
    return {
        "float": rng.standard_normal((K + 1, N + 1)),
        "int": rng.integers(-9, 10, (K + 1, N + 1)),
        "fortran": np.asfortranarray(rng.standard_normal((K + 1, N + 1))),
        "strided": rng.standard_normal((K + 1, 2 * (N + 1)))[:, ::2],
    }


@pytest.mark.parametrize("shape", list(_KERNEL_SHAPES))
def test_kernel_products_give_the_bits_of_the_sparse_operator(kernel_plans, shape):
    # The solve and the residual call scipy's csr_matvec on the plan's CSR
    # arrays; every state, int-valued and non-contiguous ones too, must come
    # out with the bits the csr_matrix `@` products give.
    plan = kernel_plans[shape]
    _, K, N, _ = _KERNEL_SHAPES[shape]
    for kind, C in _kernel_states(K, N).items():
        b = C.ravel()
        assert plan.lu.solve(b).tobytes() == _operator_solve(plan, b).tobytes(), kind
        got = bk.step(plan, C)
        assert got.dtype == np.float64
        assert got.tobytes() == _operator_step(plan, C).tobytes(), kind
    strided = np.random.default_rng(31).standard_normal(2 * (K + 1) * (N + 1))[::2]
    assert plan.lu.solve(strided).tobytes() == _operator_solve(plan, strided).tobytes()


def test_the_refined_kernel_shape_refines(kernel_plans):
    # Without a refinement step the large-dt case would not reach the loop.
    plan = kernel_plans["scale_stepping_refined"]
    b = _kernel_states(80, 60)["float"].ravel()
    r = plan.system @ _operator_solve(plan, b) - b
    assert np.linalg.norm(r) > 1e-12 * np.linalg.norm(b)


def test_fig4_run_makes_no_sparse_vector_product(monkeypatch):
    # Every product of a step goes to scipy's kernel directly; none takes
    # the type and shape dispatch of `@`.  The set-up's one sparse-sparse
    # product, W W^T, still does.
    matmul = _spbase.__matmul__

    def sparse_only(self, other):
        if isinstance(other, np.ndarray):
            raise AssertionError("csr_matrix @ vector in a run")
        return matmul(self, other)

    monkeypatch.setattr(_spbase, "__matmul__", sparse_only)
    with pytest.raises(AssertionError, match="in a run"):
        sp.identity(3, format="csr") @ np.ones(3)
    result = cli.simulate(cli.RunConfig.from_dict(cli.PRESETS["doublewell_fig4"]))
    assert result.summary["steps"] == 1200 and len(result.snapshots) == 6
