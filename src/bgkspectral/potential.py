"""Even polynomial confinement potentials and their normalization.

A potential is stored through its even-power coefficients (c_0, ..., c_m) for
phi(x) = sum_i c_i x^(2i).  Normalization rescales and shifts the potential so
that the weight rho = exp(-phi) has unit mass and unit mean curvature,
<1> = <phi''> = 1, which also centers the weight (phi is even).

The normalization integrals converge to the relative tolerance `_REL_TOL`
within the node budget `_MAX_NODES`; `orthopoly` sizes the interval budget
of its Stieltjes passes from the same node budget.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import IntegrationFailureError, InvalidPotentialError

_REL_TOL = 1e-12
_MAX_NODES = 1 << 22
# Log-weight drop, from the potential's minimum, that counts as negligible.
_TAIL_MARGIN = 80.0


def _full_coeffs(even_coeffs) -> np.ndarray:
    full = np.zeros(2 * len(even_coeffs) - 1)
    full[::2] = even_coeffs
    return full


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    """The derivative's coefficients, the products npoly.polyder forms."""
    return coeffs[1:] * np.arange(1, len(coeffs))


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
        return _read_only(_derivative(self.power_coeffs))

    @cached_property
    def deriv2_coeffs(self) -> np.ndarray:
        return _read_only(_derivative(self.deriv_coeffs))

    @cached_property
    def critical_radii(self) -> np.ndarray:
        """|x| at the real critical points of phi, the roots of phi'."""
        return _read_only(_real_root_radii(self.deriv_coeffs))

    @cached_property
    def floor(self) -> float:
        """Minimum of phi, at 0 or a critical point; a missed root raises it."""
        return float(np.min(self(np.append(self.critical_radii, 0.0))))

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


def _cutoff_grid() -> tuple[float, ...]:
    """The candidate cutoffs 0.5 * 1.0625^k up to 1e9, by repeated multiplication."""
    grid = [0.5]
    while grid[-1] * 1.0625 <= 1e9:
        grid.append(grid[-1] * 1.0625)
    return tuple(grid)


_CUTOFF_GRID = _cutoff_grid()


def tail_cutoff(pot, poly_degree: int = 0) -> float:
    """Radius L beyond which |x|^poly_degree * exp(-pot(x)) is negligible.

    L is the first point of the grid 0.5 * 1.0625^k, up to 1e9, past the
    last real root of x phi'(x) - poly_degree, beyond which phi -
    poly_degree log|x| only grows, at which that stands _TAIL_MARGIN above
    `pot.floor`; that growth makes the test monotone, so L is found by
    bisection.  A potential that overflows double precision, or whose
    weight lies within 1 / _MAX_NODES of the origin, within two intervals
    of the finest trapezoidal rule the node budget affords on [0, 0.5],
    raises InvalidPotentialError.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            # x phi'(x) - poly_degree; phi' has no constant term.
            xdphi = np.append(0.0, pot.deriv_coeffs)
            xdphi[0] -= poly_degree
            rising = np.max(_real_root_radii(xdphi), initial=0.0)

            def rise(L: float) -> float:
                return pot(L) - pot.floor - poly_degree * math.log(max(L, math.e))

            narrow = 1.0 / _MAX_NODES
            if narrow > rising and rise(narrow) >= _TAIL_MARGIN:
                raise InvalidPotentialError(f"potential {pot.coeffs}: exp(-phi) "
                                            "is too narrow to integrate")

            def past(L: float) -> bool:
                # A rise that overflows is past the margin too; if it is
                # the first such point, it raises again below.
                try:
                    return rise(L) >= _TAIL_MARGIN
                except FloatingPointError:
                    return True

            lo, hi = bisect.bisect_right(_CUTOFF_GRID, rising), len(_CUTOFF_GRID)
            while lo < hi:
                mid = (lo + hi) // 2
                if past(_CUTOFF_GRID[mid]):
                    hi = mid
                else:
                    lo = mid + 1
            if hi == len(_CUTOFF_GRID):
                raise InvalidPotentialError("failed to locate an integration cutoff")
            rise(_CUTOFF_GRID[hi])          # raises again if its rise overflowed
            return _CUTOFF_GRID[hi]
    except FloatingPointError:
        raise InvalidPotentialError(
            f"potential {pot.coeffs} overflows double precision") from None


# Intervals of the first trapezoidal rule of `_weight_integrals`.
_FIRST_INTERVALS = 96


def _integrands(pot, x: np.ndarray) -> np.ndarray:
    """Rows exp(-phi(x)) and phi''(x) exp(-phi(x))."""
    rho = np.exp(-pot(x))
    return np.stack((rho, rho * pot.deriv2(x)))


def _weight_integrals(pot, cutoff: float) -> tuple[float, float]:
    """Integrals of exp(-phi) and phi'' exp(-phi) over [-cutoff, cutoff].

    Both integrands are even, entire and decay faster than any exponential,
    so the trapezoidal rule converges exponentially on them (Trefethen and
    Weideman, SIAM Review 56, 2014).  The rule samples the half line
    [0, cutoff] on 96 intervals, then doubles them, evaluating only the new
    midpoints and adding them to the running sums, until both integrals
    agree with the previous rule's to _REL_TOL.  A rule past _MAX_NODES
    nodes raises IntegrationFailureError.
    """
    n = _FIRST_INTERVALS
    terms = _integrands(pot, np.linspace(0.0, cutoff, n + 1))
    # The two end nodes carry half the weight of the others.
    sums = terms[:, 1:-1].sum(axis=1) + 0.5 * (terms[:, 0] + terms[:, -1])
    prev = None
    while True:
        # Twice the half-line rule is the rule on [-cutoff, cutoff].
        val = (2.0 * cutoff / n) * sums
        if prev is not None and np.all(
                np.abs(val - prev) <= _REL_TOL * np.maximum(np.abs(val), 1e-300)):
            return float(val[0]), float(val[1])
        if 2 * n + 1 > _MAX_NODES:
            raise IntegrationFailureError(
                f"trapezoidal rule on [0, {cutoff}] did not reach rel_tol="
                f"{_REL_TOL} within {_MAX_NODES} nodes")
        sums += _integrands(pot, (np.arange(n) + 0.5) * (cutoff / n)).sum(axis=1)
        n *= 2
        prev = val


def normalize_potential(raw: RawPotential) -> NormalizedPotential:
    """Rescale and shift `raw` so that <1> = <phi''> = 1 under rho = exp(-phi).

    The shift is log c, c = sqrt(I0 * I2), the scale gamma = sqrt(I0 / I2),
    with I0 and I2 the integrals of exp(-phi) and phi'' exp(-phi), both on
    one nested trapezoidal rule to relative tolerance 1e-12 over the
    `tail_cutoff` window of |x|^(deg - 2) exp(-phi), past every well; the
    normalized moments are checked to 1e-10 the same way.  A potential
    whose floor `raw.floor` is so deep that exp(-phi) overflows raises
    InvalidPotentialError naming it, as do a potential `tail_cutoff`
    rejects and one whose weight no rule within the node budget resolves.
    """
    L = tail_cutoff(raw, poly_degree=raw.degree - 2)
    try:
        with np.errstate(over="raise"):
            i0, i2 = _weight_integrals(raw, L)
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
    # phi(gamma x) + log c has the critical points of phi divided by gamma,
    # so its floor needs no root solve of its own.
    object.__setattr__(pot, "critical_radii", _read_only(raw.critical_radii / gamma))

    check_tol = max(100.0 * _REL_TOL, 1e-11)
    r0, r2 = _weight_integrals(pot, tail_cutoff(pot, poly_degree=pot.degree - 2))
    if abs(r0 - 1.0) > check_tol or abs(r2 - 1.0) > check_tol:
        raise InvalidPotentialError(
            f"normalization residuals too large: <1>-1={r0 - 1.0:.3e}, "
            f"<phi''>-1={r2 - 1.0:.3e}"
        )
    return pot
