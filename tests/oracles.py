"""Extended-precision oracles for the recurrence tables of `bgkspectral`.

The package builds its tables in double precision only (`build_recurrence`).
The oracles here come from a different construction: the Chebyshev algorithm
on power moments, run in mpmath's software precision, and the Magnus growth
constant of the coefficients.  Only the tests need mpmath.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from bgkspectral.errors import PrecisionFailureError
from bgkspectral.orthopoly import RecurrenceTable
from bgkspectral.potential import NormalizedPotential, tail_cutoff


def weight_moments_mp(pot: NormalizedPotential, top: int) -> list:
    """Even moments m_0, m_1, ..., m_top of rho = exp(-pot), at mpmath's
    working precision.

    Only the seed moments m_0, m_2, ..., m_{2m-2} are integrated directly;
    the rest follow exactly from integration by parts against phi':
    sum_i 2 i c_i m_{k+2i-1} = k m_{k-1}.  Odd moments vanish by parity.
    """
    coeffs = [mp.mpf(c) for c in pot.coeffs]
    m_half = len(coeffs) - 1

    cut = tail_cutoff(pot, poly_degree=2 * m_half)

    def phi_mp(x):
        acc = coeffs[-1]
        u = x * x
        for c in coeffs[-2::-1]:
            acc = acc * u + c
        return acc

    moments = [mp.mpf(0)] * (top + 1)
    splits = [mp.mpf(0)] + [mp.mpf(cut) * f for f in (0.125, 0.25, 0.5, 1.0)] + [mp.inf]
    for k in range(0, min(2 * m_half - 1, top + 1), 2):
        moments[k] = 2 * mp.quad(lambda x: x ** k * mp.exp(-phi_mp(x)), splits)

    lead = 2 * m_half * coeffs[-1]
    k = 1
    while k + 2 * m_half - 1 <= top:
        rhs = k * moments[k - 1]
        for i in range(1, m_half):
            rhs -= 2 * i * coeffs[i] * moments[k + 2 * i - 1]
        moments[k + 2 * m_half - 1] = rhs / lead
        k += 2
    return moments


def chebyshev_recurrence(pot: NormalizedPotential, n_max: int,
                         dps: int = 60) -> RecurrenceTable:
    """Recurrence coefficients a_0..a_n_max from power moments, in extended precision.

    The Chebyshev algorithm maps the moments of rho = exp(-pot) to the
    recurrence.  It is exponentially ill-conditioned, so it runs with `dps`
    decimal digits and is meant as an independent cross-check of
    `build_recurrence` for moderate n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = n_max + 1
    with mp.workdps(dps):
        mom = weight_moments_mp(pot, 2 * n - 1)
        sig_prev = [mp.mpf(0)] * (2 * n)
        sig = list(mom)
        alpha = mom[1] / mom[0]
        beta = [mom[0]]
        alphas = [alpha]
        for k in range(1, n):
            sig_next = [mp.mpf(0)] * (2 * n)
            for ell in range(k, 2 * n - k):
                sig_next[ell] = (sig[ell + 1] - alphas[k - 1] * sig[ell]
                                 - beta[k - 1] * sig_prev[ell])
            if sig_next[k] <= 0:
                raise PrecisionFailureError(
                    f"Chebyshev algorithm lost positivity at index {k}; "
                    f"raise the working precision (dps={dps})")
            alphas.append(sig_next[k + 1] / sig_next[k] - sig[k] / sig[k - 1])
            beta.append(sig_next[k] / sig[k - 1])
            sig_prev, sig = sig, sig_next
        # The weight is even, so the diagonal recurrence terms must vanish.
        bad, drift = max(enumerate(abs(al) for al in alphas), key=lambda t: t[1])
        if drift > mp.mpf(10) ** (-dps // 2):
            raise PrecisionFailureError(
                f"Chebyshev algorithm symmetry drift {mp.nstr(drift)} at index "
                f"{bad} exceeds the precision budget at dps={dps}")
        a = np.array([float(mp.sqrt(b)) for b in beta])
    return RecurrenceTable(a=a, weight=pot)


def magnus_constant(pot: NormalizedPotential) -> float:
    """Growth constant c with a_n ~ c * n^(1/deg) for this weight."""
    m = pot.degree // 2
    lead = pot.coeffs[-1]
    return (math.factorial(m - 1) ** 2
            / (2.0 * lead * math.factorial(2 * m - 1))) ** (1.0 / (2 * m))
