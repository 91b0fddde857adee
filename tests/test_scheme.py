import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import splu

import bgkspectral as bk


@pytest.fixture(scope="module")
def harmonic_setup(harmonic_table):
    def make(K, N):
        dc = bk.build_deriv_couplings(harmonic_table, N)
        gen = bk.assemble_generator(dc, K, N)
        basis = bk.build_functional_basis(harmonic_table, N)
        return dc, gen, basis
    return make


@pytest.fixture(scope="module")
def doublewell_setup(doublewell_table):
    def make(K, N):
        dc = bk.build_deriv_couplings(doublewell_table, N)
        gen = bk.assemble_generator(dc, K, N)
        basis = bk.build_functional_basis(doublewell_table, N)
        return dc, gen, basis
    return make


def test_hand_assembled_small_generator(harmonic_setup):
    # K = 1, N = 2 (smallest truncation the degree requirement allows).
    # Couplings: d/dt C_{0,1} = C_{1,0}; d/dt C_{0,2} = sqrt(2) C_{1,1};
    # the k = 1 row is minus the transpose.  Index (k, n) -> 3k + n.
    _, gen, _ = harmonic_setup(1, 2)
    expect = np.zeros((6, 6))
    expect[1, 3] = 1.0
    expect[2, 4] = math.sqrt(2.0)
    expect[3, 1] = -1.0
    expect[4, 2] = -math.sqrt(2.0)
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
    nnz_a = np.count_nonzero(dc.A[:31, :31])
    assert gen.matrix.nnz <= 21 * (2 * nnz_a + 31)


def test_truncation_requirement_enforced(doublewell_setup, doublewell_table):
    dc = bk.build_deriv_couplings(doublewell_table, 3)
    with pytest.raises(ValueError, match="N >= deg"):
        bk.assemble_generator(dc, 5, 3)
    with pytest.raises(ValueError):
        bk.assemble_generator(dc, -1, 3)


def test_zero_state_stays_zero(harmonic_setup):
    _, gen, _ = harmonic_setup(4, 3)
    plan = bk.make_stepping_plan(gen, 0.1)
    state = bk.project_initial_condition([], 4, 3)
    out = bk.step(plan, state)
    assert np.all(out.C == 0.0)
    assert out.t == pytest.approx(0.1)


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
    state = bk.project_initial_condition([(1, 2, 1.0), (0, 0, bad)], 4, 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(bk.SolverConsistencyError):
            bk.step(plan, state)
    assert caught == []


def test_lu_is_pivot_free_and_structural(doublewell_setup):
    # I - dt M is positive real, so the factorization keeps its symmetric
    # ordering on the diagonal, every pivot is >= 1, and the fill depends on
    # the sparsity pattern alone: not on dt, not on the last bit of an entry.
    _, gen, _ = doublewell_setup(20, 30)
    nudged = gen.matrix.copy()
    nudged.data = np.nextafter(nudged.data, np.inf)
    nudged_gen = bk.Generator(matrix=nudged, K=gen.K, N=gen.N)
    fills = set()
    for dt in (1e-4, 1e-2, 1.0, 100.0):
        lu = bk.make_stepping_plan(gen, dt).lu
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert np.min(lu.U.diagonal()) >= 1.0 - 1e-12
        nudged_lu = bk.make_stepping_plan(nudged_gen, dt).lu
        fills |= {lu.L.nnz + lu.U.nnz, nudged_lu.L.nnz + nudged_lu.U.nnz}
    assert len(fills) == 1


def test_refinement_rescues_a_solve_that_misses_the_gate():
    # Sextic, K=20, N=150, dt=100: the pivot-free solve of this right-hand
    # side misses the 1e-12 residual gate; one refinement step meets it.
    pot = bk.normalize_potential(bk.RawPotential((0.0, 0.0, 0.0, 1.0)))
    K, N = 20, 150
    table = bk.build_recurrence(pot, N + pot.degree + 2)
    gen = bk.assemble_generator(bk.build_deriv_couplings(table, N), K, N)
    plan = bk.make_stepping_plan(gen, 100.0)
    b = np.random.default_rng(3).standard_normal((K + 1) * (N + 1))
    b_norm = np.linalg.norm(b)
    unrefined = plan.lu.solve(b)
    assert np.linalg.norm(plan.system @ unrefined - b) > 1e-12 * b_norm
    x = bk.step(plan, bk.SpectralState(C=b.reshape(K + 1, N + 1))).C.ravel()
    assert np.linalg.norm(plan.system @ x - b) <= 1e-12 * b_norm
    oracle = splu(plan.system).solve(b)
    assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(1e-4, 2.0))
def test_norm_never_increases(harmonic_setup, seed, dt):
    _, gen, _ = harmonic_setup(6, 4)
    rng = np.random.default_rng(seed)
    state = bk.SpectralState(C=rng.standard_normal((7, 5)))
    plan = bk.make_stepping_plan(gen, dt)
    for _ in range(3):
        nxt = bk.step(plan, state)
        assert bk.l2_norm(nxt) <= bk.l2_norm(state) * (1 + 1e-13)
        state = nxt


def test_one_step_matches_matrix_exponential(harmonic_setup):
    _, gen, _ = harmonic_setup(5, 5)
    m = gen.matrix.toarray()
    state = bk.project_initial_condition([(1, 2, 1.0), (2, 1, 1.0)], 5, 5)
    plan = bk.make_stepping_plan(gen, 1e-3)
    out = bk.step(plan, state)
    ref = expm(1e-3 * m) @ state.C.ravel()
    rel = np.linalg.norm(out.C.ravel() - ref) / np.linalg.norm(ref)
    assert rel <= 1e-5


def test_local_error_is_second_order(harmonic_setup):
    # Against the exact flow, one implicit Euler step errs at O(dt^2).
    _, gen, _ = harmonic_setup(2, 4)
    m = gen.matrix.toarray()
    state = bk.project_initial_condition([(1, 2, 1.0), (2, 1, 1.0)], 2, 4)
    errs = []
    for dt in (1e-3, 5e-4):
        plan = bk.make_stepping_plan(gen, dt)
        out = bk.step(plan, state)
        ref = expm(dt * m) @ state.C.ravel()
        errs.append(np.linalg.norm(out.C.ravel() - ref))
    ratio = errs[0] / errs[1]
    assert 3.0 <= ratio <= 5.0


def test_trajectory_matches_dense_solver(doublewell_setup):
    # Independent dense oracle: solve (I - dt M) directly each step.
    _, gen, _ = doublewell_setup(6, 5)
    m = gen.matrix.toarray()
    dim = m.shape[0]
    dt = 0.05
    plan = bk.make_stepping_plan(gen, dt)
    state = bk.project_initial_condition([(2, 1, 1.0)], 6, 5)
    dense = state.C.ravel().copy()
    system = np.eye(dim) - dt * m
    for _ in range(20):
        state = bk.step(plan, state)
        dense = np.linalg.solve(system, dense)
        assert np.linalg.norm(state.C.ravel() - dense) <= 1e-12 * np.linalg.norm(dense)


def test_project_initial_condition_presets(harmonic_setup, doublewell_setup):
    state = bk.project_initial_condition([(1, 2, 1.0), (2, 1, 1.0)], 20, 5)
    expect = np.zeros((21, 6))
    expect[1, 2] = 1.0
    expect[2, 1] = 1.0
    assert np.array_equal(state.C, expect)
    with pytest.raises(IndexError):
        bk.project_initial_condition([(21, 0, 1.0)], 20, 5)
    with pytest.raises(IndexError):
        bk.project_initial_condition([(0, 6, 1.0)], 20, 5)


def test_purge_leaves_compliant_state_alone(harmonic_setup):
    _, _, basis = harmonic_setup(20, 5)
    state = bk.project_initial_condition([(1, 2, 1.0), (2, 1, 1.0)], 20, 5)
    purged = bk.purge_equilibrium_components(state, basis.ip_phi, basis.harmonic)
    assert np.array_equal(purged.C, state.C)


def test_purge_pure_mass_general(doublewell_setup):
    _, _, basis = doublewell_setup(5, 5)
    state = bk.project_initial_condition([(0, 0, 1.0)], 5, 5)
    purged = bk.purge_equilibrium_components(state, basis.ip_phi, basis.harmonic)
    mass, energy_plus = bk.conserved_functionals(purged, basis)
    assert mass == 0.0
    assert abs(energy_plus) <= 1e-14


def test_purge_harmonic_momentum(harmonic_setup):
    _, _, basis = harmonic_setup(5, 5)
    state = bk.project_initial_condition([(1, 0, 1.0)], 5, 5)
    purged = bk.purge_equilibrium_components(state, basis.ip_phi, basis.harmonic)
    cons = bk.conserved_functionals(purged, basis)
    assert cons.shape == (6,)
    for value in cons:
        assert abs(value) <= 1e-14


def test_purge_messy_state_all_functionals(harmonic_setup):
    _, _, basis = harmonic_setup(6, 5)
    rng = np.random.default_rng(7)
    state = bk.SpectralState(C=rng.standard_normal((7, 6)))
    purged = bk.purge_equilibrium_components(state, basis.ip_phi, basis.harmonic)
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
        state = bk.project_initial_condition(entries, 20, 5)
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
        bk.step(plan, bk.SpectralState(C=np.zeros((2, 2))))
