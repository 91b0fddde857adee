"""Fully spectral solver for the linear BGK equation with polynomial confinement.

Velocity is discretized on orthonormal Hermite polynomials, space on the
orthonormal polynomials of the weight exp(-phi) for an even polynomial
potential phi, and time by implicit Euler.  On the truncations it enforces,
N >= deg(phi) and K >= 2, the discretization preserves the conservation laws
exactly and, in exact arithmetic, keeps the norm non-increasing step by step;
in floating point it can rise by an ulp or two, which
`summary["norm_increases"]` counts.
"""

from .conjecture_lab import KNReport, estimate_kn, kn_sweep
from .diagnostics import (DecayFit, DiagnosticsSeries, FunctionalBasis,
                          build_functional_basis, conserved_functionals,
                          fit_decay_rate, l2_norm,
                          purge_equilibrium_components, snapshot)
from .errors import (ConfigError, IntegrationFailureError,
                     InvalidPotentialError, PrecisionFailureError,
                     SolverConsistencyError)
from .operators import (DerivCouplings, build_deriv_couplings,
                        build_omega_matrix, build_phi_matrix)
from .orthopoly import (QuadratureRule, RecurrenceTable, build_quadrature,
                        build_recurrence, eval_poly_all, freud_residual,
                        hermite_eval_all, jacobi_horner)
from .potential import (NormalizedPotential, RawPotential, normalize_potential,
                        tail_cutoff)
from .scheme import (Generator, SteppingPlan, assemble_generator,
                     make_stepping_plan, step)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DecayFit", "DerivCouplings",
    "DiagnosticsSeries", "FunctionalBasis", "Generator",
    "IntegrationFailureError", "InvalidPotentialError", "KNReport",
    "NormalizedPotential", "PrecisionFailureError", "QuadratureRule",
    "RawPotential", "RecurrenceTable", "SolverConsistencyError",
    "SteppingPlan", "assemble_generator",
    "build_deriv_couplings", "build_functional_basis", "build_omega_matrix",
    "build_phi_matrix", "build_quadrature", "build_recurrence",
    "conserved_functionals", "estimate_kn", "eval_poly_all", "fit_decay_rate",
    "freud_residual", "hermite_eval_all", "jacobi_horner", "kn_sweep",
    "l2_norm", "make_stepping_plan", "normalize_potential",
    "purge_equilibrium_components", "snapshot", "step", "tail_cutoff",
]
