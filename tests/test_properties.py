"""Properties of `cli.simulate` and its layers over the validated domain.

Each drawn configuration either raises a typed error (a configuration error
or one of the numerical failures `main()` maps to exit code 3) or satisfies
the discrete structure of the scheme: mass and energy_plus stay constant, the
harmonic-only functionals evolve exactly as implicit Euler evolves a
rotation, the norm never increases, and `cli.run` writes exactly what
`write_artifacts` writes for the same configuration.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.sparse.linalg import splu

import bgkspectral as bk
from bgkspectral import cli, diagnostics
from bgkspectral.errors import (ConfigError, IntegrationFailureError,
                                InvalidPotentialError, PrecisionFailureError)
from bgkspectral.orthopoly import _stieltjes_pass
from conftest import potentials_and_sizes


def _config(potential, K, N, dt, steps, initial, purge):
    return {
        "potential": potential, "K": K, "N": N, "dt": dt, "T": steps * dt,
        "initial": initial, "purge": purge,
        "outputs": ["norms", "conserved", "snapshots", "recurrence"],
        "snapshot_times": [0.0, steps * dt], "snapshot_points": [4, 3],
    }


@st.composite
def configs(draw):
    m = draw(st.integers(1, 4))                               # deg(phi) = 2m
    lower = draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m))
    lead = draw(st.floats(0.05, 2.0))
    K = draw(st.integers(3, 20))
    N = draw(st.integers(2 * m, 40))
    entries = draw(st.lists(st.tuples(st.integers(0, K), st.integers(0, N),
                                      st.floats(-1.0, 1.0)),
                            min_size=1, max_size=6, unique_by=lambda e: e[:2]))
    return _config(lower + [lead], K, N, draw(st.floats(1e-3, 1.0)),
                   draw(st.integers(1, 40)), [list(e) for e in entries],
                   draw(st.booleans()))


def _rotation_error(z: np.ndarray, omega: float, dt: float) -> float:
    """Distance of z from implicit Euler on dz/dt = -i omega z started at z[0]."""
    n = np.arange(len(z))
    return float(np.max(np.abs(z - z[0] * (1.0 + 1j * omega * dt) ** -n)))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(configs())
# Harmonic, rx != 0: rx and m0 rotate, so they are not constants of the motion.
@example(_config([0.0, 0.05], 3, 2, 0.05, 18, [[0, 1, 0.05]], False))
# Harmonic, purged to a state of norm ~1e-16 that still turns energy_minus.
@example(_config([-0.8004674058998063, 0.32761674839345906], 3, 8,
                 0.4020236808355091, 8, [[0, 2, 0.9576153357607473]], True))
# A state of norm 5e-208: its sum of squares underflowed and the norm read 0.
@example(_config([0.12651614792674434, 0.3459652059201921, -0.0,
                  0.7635511981639664], 10, 19, 0.12651614792674434, 2,
                 [[7, 17, 5.382583613943773e-208]], False))
def test_simulate_keeps_the_discrete_structure(data):
    try:
        result = cli.simulate(cli.RunConfig.from_dict(data))
    except (ConfigError, *cli.NUMERICAL_ERRORS):
        return
    c = result.conserved
    limit = 1e-12 * result.norms[0]
    assert np.max(np.abs(c[:, :2] - c[0, :2])) <= limit     # mass, energy_plus
    if c.shape[1] == 6:
        # The harmonic pairs rotate undamped in the continuous model, at
        # frequency 1 (rx, m0) and 2 (mx, energy_minus less its steady mass
        # part -<phi, P_0> mass); implicit Euler turns and damps them exactly.
        ip0 = diagnostics.build_functional_basis(result.table, data["N"]).ip_phi[0]
        assert _rotation_error(c[:, 2] + 1j * c[:, 3], 1.0, data["dt"]) <= limit
        assert _rotation_error(c[:, 4] + 1j * (c[:, 5] + ip0 * c[:, 0]), 2.0,
                               data["dt"]) <= limit
    assert np.all(np.diff(result.norms) <= 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        cli.write_artifacts(result, Path(tmp) / "written")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(cli.RunConfig.from_dict(data), Path(tmp) / "run")
        assert _files(Path(tmp) / "written") == _files(Path(tmp) / "run")


# Inside the draw domain of test_simulate_keeps_the_discrete_structure: the
# norm rises at steps 27, 28, 30, 33-36 and 39, by up to 1.6e-16 relative,
# while mass and energy drift by 2.0e-15.
_STEADY_STATE = _config([1.7695077517265148, 0.715278340677401], 4, 25,
                        0.9014154050020589, 40,
                        [[2, 0, -0.9919138060186745],
                         [0, 0, -0.0719153870778464]], False)


@pytest.mark.xfail(strict=True, reason=(
    "near the conserved part the dissipation per step falls below the "
    "rounding of ||x||^2, so the norm can rise by one ulp (ROADMAP item 3)"))
def test_norm_never_increases_near_the_steady_state():
    result = cli.simulate(cli.RunConfig.from_dict(_STEADY_STATE))
    assert np.all(np.diff(result.norms) <= 0.0)


def test_summary_counts_the_norm_increases():
    steady = cli.simulate(cli.RunConfig.from_dict(_STEADY_STATE))
    assert steady.summary["norm_increases"] == 8
    assert list(np.flatnonzero(np.diff(steady.norms) > 0.0) + 1) == [
        27, 28, 30, 33, 34, 35, 36, 39]
    fig3 = cli.simulate(cli.RunConfig.from_dict(cli.PRESETS["doublewell_fig3"]))
    assert fig3.summary["norm_increases"] == 0


@st.composite
def wide_configs(draw):
    m = draw(st.integers(1, 4))                               # deg(phi) = 2m
    lower = draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m))
    lead = draw(st.floats(0.05, 2.0))
    K = draw(st.integers(2, 60))
    N = draw(st.integers(2 * m, 150))
    entries = draw(st.lists(st.tuples(st.integers(0, K), st.integers(0, N),
                                      st.floats(-1.0, 1.0)),
                            min_size=1, max_size=6, unique_by=lambda e: e[:2]))
    data = _config(lower + [lead], K, N, 10.0 ** draw(st.floats(-4.0, 0.0)),
                   draw(st.integers(1, 5)), [list(e) for e in entries],
                   draw(st.booleans()))
    return {**data, "outputs": ["norms", "conserved"], "snapshot_times": []}


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(wide_configs())
# The corner of the domain: degree 8, the largest K and N, the smallest dt.
@example({**_config([0.0, 1.0, -3.0, 0.5, 0.2], 60, 150, 1e-4, 5,
                    [[0, 4, 1.0], [3, 150, -0.5], [60, 7, 0.25]], False),
          "outputs": ["norms", "conserved"], "snapshot_times": []})
def test_every_validated_config_runs_or_fails_typed(data):
    try:
        result = cli.simulate(cli.RunConfig.from_dict(data))
    except (ConfigError, *cli.NUMERICAL_ERRORS):
        return
    c = result.conserved
    assert np.max(np.abs(c[:, :2] - c[0, :2])) <= 1e-12 * result.norms[0]


def _drawn_table(coeffs, N):
    """Recurrence table for the drawn potential, long enough for N, or None
    when the potential fails with a typed error."""
    try:
        pot = bk.normalize_potential(bk.RawPotential(tuple(coeffs)))
        return bk.build_recurrence(pot, N + pot.degree + 2)
    except (InvalidPotentialError, IntegrationFailureError, PrecisionFailureError):
        return None


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(potentials_and_sizes())
def test_couplings_satisfy_freuds_identity(drawn):
    # P_n' = (n / a_n) P_{n-1} + lower degrees, so <P_n', P_{n-1}>, held at
    # A[1, n - 1] of the band, is n / a_n exactly: a certificate of the
    # recurrence table and of A = tril(Phi, -1) together.
    coeffs, N = drawn
    table = _drawn_table(coeffs, N)
    if table is None:
        return
    A = bk.build_deriv_couplings(table, N).A
    n = np.arange(1, N + 1)
    assert np.max(np.abs(A[1, n - 1] * table.a[n] / n - 1.0)) <= 1e-10


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(potentials_and_sizes(max_size=400))
def test_certified_recurrence_matches_a_finer_pass(drawn):
    # Freud's identity does not constrain a_0, so the whole table, a_0
    # included, is checked against a pass on four or more times the panels.
    coeffs, n_max = drawn
    try:
        pot = bk.normalize_potential(bk.RawPotential(tuple(coeffs)))
        table = bk.build_recurrence(pot, n_max)
    except (InvalidPotentialError, IntegrationFailureError, PrecisionFailureError):
        return
    assert bk.freud_residual(table.a, pot) <= 1e-12
    cutoff = bk.tail_cutoff(pot, poly_degree=2 * n_max + 2)
    fine = _stieltjes_pass(pot, n_max, 16 * n_max + 1024, cutoff)
    assert np.max(np.abs(table.a - fine) / fine) <= 1e-12


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(potentials_and_sizes(max_size=40))
def test_stieltjes_matches_extended_precision_oracle(drawn):
    coeffs, n_max = drawn
    try:
        pot = bk.normalize_potential(bk.RawPotential(tuple(coeffs)))
        stieltjes = bk.build_recurrence(pot, n_max)
        oracle = bk.chebyshev_recurrence(pot, n_max)
    except (InvalidPotentialError, IntegrationFailureError, PrecisionFailureError):
        return
    assert np.max(np.abs(stieltjes.a - oracle.a) / oracle.a) <= 1e-10


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(potentials_and_sizes(), st.integers(3, 60), st.floats(-4.0, 2.0),
       st.integers(0, 2 ** 32 - 1))
# The corner of the domain: degree 8, the largest K and N, the largest dt.
@example(([0.0, 1.0, -3.0, 0.5, 0.2], 150), 60, 2.0, 0)
def test_pivot_free_step_meets_the_gate_and_the_pivoting_oracle(drawn, K,
                                                                 log_dt, seed):
    coeffs, N = drawn
    table = _drawn_table(coeffs, N)
    if table is None:
        return
    gen = bk.assemble_generator(bk.build_deriv_couplings(table, N).A, K)
    plan = bk.make_stepping_plan(gen, 10.0 ** log_dt)
    assert np.min(plan.lu.U.diagonal()) >= 1.0 - 1e-12
    b = np.random.default_rng(seed).standard_normal((K + 1) * (N + 1))
    x = bk.step(plan, bk.SpectralState(C=b.reshape(K + 1, N + 1))).C.ravel()
    assert np.linalg.norm(plan.system @ x - b) <= 1e-12 * np.linalg.norm(b)
    oracle = splu(plan.system.tocsc()).solve(b)
    assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)


def _upper_storage_plan(gen, dt):
    """Band, restrict and extend of `make_stepping_plan`, built the direct way:
    S factored in upper band storage, the maps as perm +- coupling, and the
    bandwidth from W's pattern sorted by column."""
    K, N = gen.K, gen.N
    dim = (K + 1) * (N + 1)
    k, n = np.divmod(np.arange(dim), N + 1)
    t = 1.0 + dt * (k >= 3)
    even = k % 2 == 0
    m = gen.matrix.tocoo()
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
    by_col = np.lexsort((g_rows, g_cols))
    rows, cols = g_rows[by_col], g_cols[by_col]
    starts = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1]])
    ends = np.r_[starts[1:], len(rows)] - 1
    kd = int(np.max(rows[ends] - rows[starts]))
    s = (w @ w.T).tocoo()
    upper = s.row <= s.col
    band = np.zeros((kd + 1, n_e), order="F")
    band[kd + s.row[upper] - s.col[upper], s.col[upper]] = s.data[upper]
    band[kd] += t[order]
    band = cholesky_banded(band, lower=False, check_finite=False)
    perm = sp.csr_matrix((np.ones(n_e), (np.arange(n_e), order)),
                         shape=(n_e, dim))
    coupling = sp.csr_matrix((g / t[g_cols], (g_rows, g_cols)),
                             shape=(n_e, dim))
    return band, perm + coupling, (perm - coupling).T.tocsr()


def _same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(potentials_and_sizes(), st.integers(2, 60), st.floats(-4.0, 2.0))
# The widest band of the domain (kd = 58), past LAPACK's blocked-code switch.
@example(([0.0, 1.0, -3.0, 0.5, 0.2], 150), 60, 2.0)
def test_stepping_plan_matches_the_upper_storage_oracle_bit_for_bit(drawn, K,
                                                                    log_dt):
    # The plan factors S in lower band storage and moves the factor into the
    # upper storage the solve reads; it builds each map once from triplets.
    # Neither may move a bit of the factor, the maps or the system.
    coeffs, N = drawn
    table = _drawn_table(coeffs, N)
    if table is None:
        return
    gen = bk.assemble_generator(bk.build_deriv_couplings(table, N).A, K)
    dt = 10.0 ** log_dt
    plan = bk.make_stepping_plan(gen, dt)
    band, restrict, extend = _upper_storage_plan(gen, dt)
    assert _same_bytes(plan.lu.band, band) and plan.lu.band.flags.f_contiguous
    for got, want in ((plan.lu.restrict, restrict), (plan.lu.extend, extend)):
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            assert _same_bytes(getattr(got, name), getattr(want, name))
    system = (sp.identity(gen.matrix.shape[0], format="csr")
              - dt * gen.matrix)
    for name in ("indptr", "indices", "data"):
        assert _same_bytes(getattr(plan.system, name), getattr(system, name))


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(potentials_and_sizes(), st.integers(2, 60))
def test_symmetric_part_of_the_generator_is_the_damping(drawn, K):
    # The transport part is exactly skew, so M + M^T is -2 on the diagonal of
    # the damped modes k >= 3 and 0 everywhere else, bit for bit.
    coeffs, N = drawn
    table = _drawn_table(coeffs, N)
    if table is None:
        return
    m = bk.assemble_generator(bk.build_deriv_couplings(table, N).A, K).matrix
    sym = (m + m.T).tocoo()
    assert np.all(sym.data[sym.row != sym.col] == 0.0)
    damped = np.arange(m.shape[0]) >= 3 * (N + 1)
    assert np.array_equal(sym.diagonal(), np.where(damped, -2.0, 0.0))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(potentials_and_sizes(), st.integers(2, 60), st.integers(0, 2 ** 32 - 1))
def test_purge_zeroes_every_conserved_functional(drawn, K, seed):
    # Each functional of the purged state is a dot product over C[0] with
    # ip_phi or a sum of a few entries of C, so rounding bounds it.
    coeffs, N = drawn
    table = _drawn_table(coeffs, N)
    if table is None:
        return
    basis = bk.build_functional_basis(table, N)
    c = np.random.default_rng(seed).standard_normal((K + 1, N + 1))
    purged = bk.purge_equilibrium_components(bk.SpectralState(C=c), basis)
    cons = bk.conserved_functionals(purged, basis)
    bound = 8 * np.finfo(float).eps * (
        np.linalg.norm(c[0]) * np.linalg.norm(basis.ip_phi) + np.linalg.norm(c))
    assert np.max(np.abs(cons)) <= bound


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(potentials_and_sizes(), st.integers(3, 60), st.floats(-4.0, 2.0),
       st.integers(0, 2 ** 32 - 1))
def test_step_satisfies_the_discrete_energy_identity(drawn, K, log_dt, seed):
    # With M = T - D, T skew and D the projector onto k >= 3, the exact
    # x = (I - dt M)^-1 b satisfies
    #     ||b||^2 - ||x||^2 = 2 dt ||x_{k>=3}||^2 + ||x - b||^2,
    # and a solve with residual r = (I - dt M) x - b moves the left side
    # minus the right by exactly -2 <x, r>.
    coeffs, N = drawn
    table = _drawn_table(coeffs, N)
    if table is None:
        return
    dt = 10.0 ** log_dt
    gen = bk.assemble_generator(bk.build_deriv_couplings(table, N).A, K)
    plan = bk.make_stepping_plan(gen, dt)
    eps = np.finfo(float).eps
    state = bk.SpectralState(C=np.random.default_rng(seed).standard_normal(
        (K + 1, N + 1)))
    for _ in range(10):
        b = state.C.ravel()
        state = bk.step(plan, state)
        x = state.C.ravel()
        bb = b @ b
        defect = (bb - x @ x - 2.0 * dt * np.sum(state.C[3:] ** 2)
                  - (x - b) @ (x - b))
        r = plan.system @ x - b
        assert abs(defect) <= (2.0 * np.linalg.norm(x) * np.linalg.norm(r)
                               + 16.0 * eps * bb)
