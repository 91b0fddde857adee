"""Composite Weddle quadrature: closed Newton-Cotes on six subintervals per panel.

It serves `orthopoly.build_quadrature` and the tests' oracles; no solver
path integrates with it.
"""

import numpy as np

# Closed Newton-Cotes weights on 7 equispaced points (degree of exactness 7),
# normalized so that the panel integral is h * PANEL_WEIGHTS @ f.
PANEL_WEIGHTS = np.array([41.0, 216.0, 27.0, 272.0, 27.0, 216.0, 41.0]) / 140.0


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
