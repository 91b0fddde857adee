"""Composite Weddle quadrature: closed Newton-Cotes on six subintervals per panel."""

import numpy as np

from .errors import IntegrationFailureError

# Closed Newton-Cotes weights on 7 equispaced points (degree of exactness 7),
# normalized so that the panel integral is h * PANEL_WEIGHTS @ f.
PANEL_WEIGHTS = np.array([41.0, 216.0, 27.0, 272.0, 27.0, 216.0, 41.0]) / 140.0

# Convergence tolerance and node budget of `integrate_adaptive`.
_REL_TOL = 1e-12
_MAX_NODES = 1 << 22


def panel_rule(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for `panels` composite panels over [lo, hi]."""
    if panels < 1:
        raise ValueError("panels must be >= 1")
    n = 6 * panels + 1
    x = np.linspace(lo, hi, n)
    h = (hi - lo) / (6 * panels)
    w = np.empty(n)
    for j in range(1, 6):
        w[j::6] = PANEL_WEIGHTS[j]
    # Interior panel boundaries are shared by two panels.
    w[0::6] = 2.0 * PANEL_WEIGHTS[0]
    w[0] = w[-1] = PANEL_WEIGHTS[0]
    return x, w * h


def integrate_adaptive(f, lo: float, hi: float) -> float:
    """Integrate f over [lo, hi], doubling panels from 16 until successive
    values agree to _REL_TOL; past _MAX_NODES nodes, raise IntegrationFailureError."""
    panels = 16
    prev = None
    while True:
        x, w = panel_rule(lo, hi, panels)
        val = float(w @ np.asarray(f(x), dtype=float))
        if prev is not None and abs(val - prev) <= _REL_TOL * max(abs(val), 1e-300):
            return val
        panels *= 2
        if 6 * panels + 1 > _MAX_NODES:
            raise IntegrationFailureError(
                f"composite quadrature on [{lo}, {hi}] did not reach rel_tol={_REL_TOL} "
                f"within {_MAX_NODES} nodes"
            )
        prev = val
