"""Norms, conserved functionals and their purge, decay-rate fits and physical-space snapshots."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .orthopoly import (RecurrenceTable, eval_poly_all, hermite_eval_all,
                        jacobi_horner)
from .scheme import SpectralState


@dataclass(frozen=True)
class FunctionalBasis:
    """Precomputed inner-product vectors feeding the conserved functionals."""

    ip_phi: np.ndarray
    ip_x: np.ndarray
    harmonic: bool


def build_functional_basis(table: RecurrenceTable, n: int) -> FunctionalBasis:
    """Inner products <phi, P_k> and <x, P_k>, k = 0..n, from the Jacobi matrix J.

    P_0 = 1/a_0, so <f, P_k> = a_0 [f(J) e_0]_k for a polynomial f.  J^j e_0
    is supported on indices <= j, so evaluating phi(J) e_0 with J cut to
    n + 1 + deg(phi) rows leaves the retained entries exact.  For f = x this
    gives a_0 a_1 e_1.
    """
    pot = table.weight
    e0 = np.zeros(n + 1 + pot.degree)
    e0[0] = 1.0
    a0 = float(table.a[0])
    ip_x = np.zeros(n + 1)
    ip_x[1:2] = a0 * table.a[1]
    return FunctionalBasis(
        ip_phi=a0 * jacobi_horner(table.a, pot.power_coeffs, e0)[: n + 1],
        ip_x=ip_x,
        harmonic=pot.harmonic,
    )


# Column order of conserved.csv; a general potential has only the first two.
CONSERVED_COLUMNS = ("mass", "energy_plus", "rx", "m0", "mx", "energy_minus")


def conserved_functionals(state: SpectralState, basis: FunctionalBasis) -> np.ndarray:
    """Values of the conservation-law functionals, in `CONSERVED_COLUMNS` order.

    The local mass, momentum and energy densities are the velocity modes
    k = 0, 1, 2; every functional is a fixed linear form in their space
    coefficients.  Returns 6 values for a harmonic potential, 2 otherwise.
    A basis built for another N raises ValueError.
    """
    c = state.C
    mass = float(c[0, 0])
    e0 = float(c[2, 0]) if state.K >= 2 else 0.0
    phi_r = float(c[0] @ basis.ip_phi)
    energy_plus = e0 / math.sqrt(2.0) + phi_r
    if not basis.harmonic:
        return np.array([mass, energy_plus])
    rx = float(c[0] @ basis.ip_x)
    m0 = float(c[1, 0]) if state.K >= 1 else 0.0
    mx = float(c[1] @ basis.ip_x) if state.K >= 1 else 0.0
    energy_minus = e0 / math.sqrt(2.0) - phi_r
    return np.array([mass, energy_plus, rx, m0, mx, energy_minus])


def purge_equilibrium_components(state: SpectralState,
                                 basis: FunctionalBasis) -> SpectralState:
    """Remove the steady/oscillatory components so the conserved functionals vanish.

    Adjusts the slots that `conserved_functionals` reads: mass C[0,0], energy
    C[2,0] (paired with the phi-moment of C[0,:]), and in the harmonic case
    also the position/momentum slots.  A basis built for another N raises
    ValueError.
    """
    c = state.C.copy()
    K, N = state.K, state.N
    ip_phi = basis.ip_phi
    c[0, 0] = 0.0
    # phi is even, so ip_phi[1] = 0 and zeroing C[0,1] leaves phi_r unchanged.
    phi_r = float(c[0] @ ip_phi)
    if basis.harmonic:
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


def l2_norm(state: SpectralState) -> float:
    """Maxwellian-weighted L2 norm of the expansion (Parseval)."""
    norm = float(np.linalg.norm(state.C))
    # Below 1e-150 the plain sum of squares underflows; hypot rescales.
    return norm if norm >= 1e-150 else math.hypot(*state.C.ravel())


@dataclass
class DiagnosticsSeries:
    """Per-step time, norm and conserved values, appended by `record`."""

    times: list[float] = field(default_factory=list)
    norms: list[float] = field(default_factory=list)
    conserved: list[np.ndarray] = field(default_factory=list)

    def record(self, state: SpectralState, basis: FunctionalBasis) -> None:
        self.times.append(state.t)
        self.norms.append(l2_norm(state))
        self.conserved.append(conserved_functionals(state, basis))


@dataclass(frozen=True)
class DecayFit:
    rate: float
    intercept: float
    r_squared: float


def fit_decay_rate(series: DiagnosticsSeries, t_start: float,
                   t_end: float) -> DecayFit:
    """Least-squares exponential decay rate of the norm over a time window.

    Fits a line through (t, log norm); the rate is minus the slope.  The
    r_squared value lets callers reject windows that are not log-linear; a
    constant series returns rate 0 with the 0-by-convention r_squared.
    """
    t = np.asarray(series.times)
    nrm = np.asarray(series.norms)
    mask = (t >= t_start) & (t <= t_end)
    if not np.any(mask):
        raise ValueError(f"no samples in window [{t_start}, {t_end}]")
    if np.count_nonzero(mask) < 10:
        raise ValueError("need at least 10 samples in the fit window")
    if np.any(nrm[mask] <= 0.0):
        raise ValueError("norms must be positive to fit a decay rate")
    tw = t[mask]
    logn = np.log(nrm[mask])
    if np.ptp(logn) == 0.0:
        return DecayFit(rate=0.0, intercept=float(logn[0]), r_squared=0.0)
    slope, intercept = np.polyfit(tw, logn, 1)
    resid = logn - (slope * tw + intercept)
    ss_tot = float(np.sum((logn - logn.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return DecayFit(rate=-float(slope), intercept=float(intercept), r_squared=r2)


def snapshot(state: SpectralState, x_grid, v_grid,
             table: RecurrenceTable) -> np.ndarray:
    """Values of the reconstructed perturbation on an (x, v) grid.

    Returns h[i, j] = h(t, x_i, v_j), evaluated as two matrix products of the
    basis-evaluation matrices with the coefficient array.
    """
    p = eval_poly_all(table, state.N, x_grid)
    h = hermite_eval_all(state.K, v_grid)
    return p.T @ state.C.T @ h
