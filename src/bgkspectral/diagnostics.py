"""Norms, conserved functionals, decay-rate fits and physical-space snapshots."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import jacobi_matrix
from .orthopoly import RecurrenceTable, eval_poly_all, hermite_eval_all
from .potential import _full_coeffs
from .scheme import SpectralState


@dataclass(frozen=True)
class FunctionalBasis:
    """Precomputed inner-product vectors feeding the conserved functionals."""

    ip_phi: np.ndarray
    ip_x: np.ndarray
    a1: float
    harmonic: bool


def build_functional_basis(table: RecurrenceTable, n: int) -> FunctionalBasis:
    """Inner products <phi, P_k> and <x, P_k>, k = 0..n, from the Jacobi matrix J.

    P_0 = 1/a_0, so <f, P_k> = a_0 [f(J) e_0]_k for a polynomial f.  phi(J) e_0
    is evaluated by Horner on a vector; J^j e_0 is supported on indices <= j,
    so truncating J to n + 1 + deg(phi) leaves the retained entries exact.
    For f = x this gives a_0 a_1 e_1.
    """
    pot = table.weight
    j = jacobi_matrix(table, n + 1 + pot.degree)
    coeffs = _full_coeffs(pot.coeffs)
    v = np.zeros(len(j))
    v[0] = coeffs[-1]
    for c in coeffs[-2::-1]:
        v = j @ v
        v[0] += c
    a0 = float(table.a[0])
    return FunctionalBasis(
        ip_phi=a0 * v[: n + 1],
        ip_x=a0 * j[: n + 1, 0],
        a1=float(table.a[1]),
        harmonic=pot.harmonic,
    )


@dataclass(frozen=True)
class ConservedSet:
    """Values of the conserved functionals; harmonic-only entries are None
    for a general potential."""

    mass: float
    energy_plus: float
    rx: float | None = None
    m0: float | None = None
    mx: float | None = None
    energy_minus: float | None = None

    def active_values(self) -> list[float]:
        return [v for v in (self.mass, self.energy_plus, self.rx, self.m0,
                            self.mx, self.energy_minus) if v is not None]


def conserved_functionals(state: SpectralState, basis: FunctionalBasis) -> ConservedSet:
    """Evaluate the conservation-law functionals on the current coefficients.

    The local mass, momentum and energy densities are the velocity modes
    k = 0, 1, 2; every functional is a fixed linear form in their space
    coefficients.
    """
    c = state.C
    n = min(state.N, len(basis.ip_phi) - 1)
    ip_phi = basis.ip_phi[: n + 1]
    ip_x = basis.ip_x[: n + 1]
    mass = float(c[0, 0])
    e0 = float(c[2, 0]) if state.K >= 2 else 0.0
    phi_r = float(c[0, : n + 1] @ ip_phi)
    energy_plus = e0 / math.sqrt(2.0) + phi_r
    if not basis.harmonic:
        return ConservedSet(mass=mass, energy_plus=energy_plus)
    rx = float(c[0, : n + 1] @ ip_x)
    m0 = float(c[1, 0]) if state.K >= 1 else 0.0
    mx = float(c[1, : n + 1] @ ip_x) if state.K >= 1 else 0.0
    energy_minus = e0 / math.sqrt(2.0) - phi_r
    return ConservedSet(mass=mass, energy_plus=energy_plus, rx=rx, m0=m0,
                        mx=mx, energy_minus=energy_minus)


def l2_norm(state: SpectralState) -> float:
    """Maxwellian-weighted L2 norm of the expansion (Parseval)."""
    return float(np.linalg.norm(state.C))


def per_mode_norms(state: SpectralState) -> np.ndarray:
    """Norms of the velocity modes C_k, k = 0..K."""
    return np.linalg.norm(state.C, axis=1)


@dataclass
class DiagnosticsSeries:
    """Per-step records of time, norm, per-mode norms and conserved values."""

    times: list[float] = field(default_factory=list)
    norms: list[float] = field(default_factory=list)
    mode_norms: list[np.ndarray] = field(default_factory=list)
    conserved: list[ConservedSet] = field(default_factory=list)

    def record(self, state: SpectralState, basis: FunctionalBasis) -> None:
        self.times.append(state.t)
        self.norms.append(l2_norm(state))
        self.mode_norms.append(per_mode_norms(state))
        self.conserved.append(conserved_functionals(state, basis))

    def __len__(self) -> int:
        return len(self.times)


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
    x_grid = np.asarray(x_grid, dtype=float)
    v_grid = np.asarray(v_grid, dtype=float)
    p = eval_poly_all(table, state.N, x_grid)
    h = hermite_eval_all(state.K, v_grid)
    return p.T @ state.C.T @ h
