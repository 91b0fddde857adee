"""Even polynomial confinement potentials and their normalization.

A potential is stored through its even-power coefficients (c_0, ..., c_m) for
phi(x) = sum_i c_i x^(2i).  Normalization rescales and shifts the potential so
that the weight rho = exp(-phi) has unit mass and unit mean curvature,
<1> = <phi''> = 1, which also centers the weight (phi is even).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import IntegrationFailureError, InvalidPotentialError
from .weddle import _MAX_NODES, _REL_TOL, integrate_adaptive

# Log-weight drop, from the potential's minimum, that counts as negligible.
_TAIL_MARGIN = 80.0


def _full_coeffs(even_coeffs) -> np.ndarray:
    full = np.zeros(2 * len(even_coeffs) - 1)
    full[::2] = even_coeffs
    return full


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _real_root_radii(coeffs) -> np.ndarray:
    """|r| over the real roots r of `coeffs`, to a generous tolerance."""
    roots = npoly.polyroots(coeffs)
    real = np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots))
    return np.abs(roots.real[real])


def _validate_even_coeffs(coeffs) -> tuple[float, ...]:
    coeffs = tuple(float(c) for c in coeffs)
    if len(coeffs) < 2:
        raise InvalidPotentialError("potential must have degree >= 2")
    if coeffs[-1] <= 0.0:
        raise InvalidPotentialError(
            f"leading coefficient must be positive, got {coeffs[-1]}"
        )
    return coeffs


class _EvenPolynomial:
    """Evaluation shared by the potential classes, from their `coeffs` field."""

    coeffs: tuple[float, ...]

    @property
    def degree(self) -> int:
        return 2 * (len(self.coeffs) - 1)

    @property
    def harmonic(self) -> bool:
        return self.degree == 2

    # The coefficients in ascending powers of x are computed once per
    # potential and read-only; `coeffs` is frozen, so they cannot go stale.
    @cached_property
    def power_coeffs(self) -> np.ndarray:
        return _read_only(_full_coeffs(self.coeffs))

    @cached_property
    def deriv_coeffs(self) -> np.ndarray:
        return _read_only(npoly.polyder(self.power_coeffs))

    @cached_property
    def deriv2_coeffs(self) -> np.ndarray:
        return _read_only(npoly.polyder(self.power_coeffs, 2))

    @cached_property
    def floor(self) -> float:
        """Minimum of phi, at 0 or a real root of phi'; a missed root raises it."""
        return float(np.min(self(np.append(_real_root_radii(self.deriv_coeffs), 0.0))))

    def __call__(self, x):
        return npoly.polyval(x, self.power_coeffs)

    def deriv2(self, x):
        return npoly.polyval(x, self.deriv2_coeffs)


@dataclass(frozen=True)
class RawPotential(_EvenPolynomial):
    """Even polynomial potential as supplied by the user, before normalization."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _validate_even_coeffs(self.coeffs))


@dataclass(frozen=True)
class NormalizedPotential(_EvenPolynomial):
    """Normalized potential with the scale and shift that produced it.

    `scale` and `log_shift` record the substitution phi(scale * x) + log_shift,
    so callers can map back to the original coordinates.
    """

    coeffs: tuple[float, ...]
    scale: float
    log_shift: float


def tail_cutoff(pot, poly_degree: int = 0) -> float:
    """Radius L beyond which |x|^poly_degree * exp(-pot(x)) is negligible.

    L is the first point of the grid 0.5 * 1.0625^k past the last real root
    of x phi'(x) - poly_degree, beyond which phi - poly_degree log|x| only
    grows, at which that stands _TAIL_MARGIN above `pot.floor`.  A potential
    that overflows double precision, or whose weight lies within
    1 / _MAX_NODES of the origin, between two nodes of every rule
    `integrate_adaptive` can afford on [-0.5, 0.5], raises
    InvalidPotentialError.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            xdphi = npoly.polysub(npoly.polymulx(pot.deriv_coeffs), [poly_degree])
            rising = np.max(_real_root_radii(xdphi), initial=0.0)

            def negligible(L: float) -> bool:
                return L > rising and (pot(L) - pot.floor - poly_degree
                                       * math.log(max(L, math.e))) >= _TAIL_MARGIN

            if negligible(1.0 / _MAX_NODES):
                raise InvalidPotentialError(f"potential {pot.coeffs}: exp(-phi) "
                                            "is too narrow to integrate")
            L = 0.5
            while not negligible(L):
                L *= 1.0625
                if L > 1e9:
                    raise InvalidPotentialError("failed to locate an integration cutoff")
            return L
    except FloatingPointError:
        raise InvalidPotentialError(
            f"potential {pot.coeffs} overflows double precision") from None


def normalize_potential(raw: RawPotential) -> NormalizedPotential:
    """Rescale and shift `raw` so that <1> = <phi''> = 1 under rho = exp(-phi).

    The shift is log c, c = sqrt(I0 * I2), the scale gamma = sqrt(I0 / I2),
    with I0 and I2 the integrals of exp(-phi) and phi'' exp(-phi) by adaptive
    composite quadrature to relative tolerance 1e-12 over `tail_cutoff`
    windows, past every well; the normalized moments are checked to 1e-10.  A
    potential whose floor `raw.floor` is so deep that exp(-phi) overflows
    raises InvalidPotentialError naming it, as do a potential `tail_cutoff`
    rejects and one whose weight no rule within the node budget resolves.
    """
    L0 = tail_cutoff(raw, poly_degree=0)
    L2 = tail_cutoff(raw, poly_degree=raw.degree - 2)
    try:
        with np.errstate(over="raise"):
            i0 = integrate_adaptive(lambda x: np.exp(-raw(x)), -L0, L0)
            i2 = integrate_adaptive(lambda x: raw.deriv2(x) * np.exp(-raw(x)),
                                    -L2, L2)
    except FloatingPointError:
        raise InvalidPotentialError(
            f"exp(-phi) overflows double precision: phi dips to {raw.floor:.6g}"
        ) from None
    except IntegrationFailureError as exc:
        raise InvalidPotentialError(
            f"potential {raw.coeffs}: exp(-phi) is not resolved within "
            f"{_MAX_NODES} quadrature nodes") from exc
    if i0 <= 0.0 or i2 <= 0.0:
        raise InvalidPotentialError(
            f"normalization integrals must be positive, got {i0}, {i2}"
        )

    # log c, not c = sqrt(I0 I2): the product overflows for deep wells.
    log_c = 0.5 * (math.log(i0) + math.log(i2))
    gamma = math.sqrt(i0 / i2)
    coeffs = [g * gamma ** (2 * i) for i, g in enumerate(raw.coeffs)]
    coeffs[0] += log_c
    pot = NormalizedPotential(
        coeffs=tuple(coeffs),
        scale=gamma,
        log_shift=log_c,
    )

    check_tol = max(100.0 * _REL_TOL, 1e-11)
    L = tail_cutoff(pot, poly_degree=pot.degree - 2)
    r0 = integrate_adaptive(lambda x: np.exp(-pot(x)), -L, L)
    r2 = integrate_adaptive(lambda x: pot.deriv2(x) * np.exp(-pot(x)), -L, L)
    if abs(r0 - 1.0) > check_tol or abs(r2 - 1.0) > check_tol:
        raise InvalidPotentialError(
            f"normalization residuals too large: <1>-1={r0 - 1.0:.3e}, "
            f"<phi''>-1={r2 - 1.0:.3e}"
        )
    return pot
