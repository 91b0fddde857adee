"""The benchmark's span tracer still finds every function it wraps.

`benchmarks/spans.py` replaces module attributes of `cli`, `scheme`,
`diagnostics` and `conjecture_lab`; a call that no longer goes through one of
them would silently read 0 in a per-layer metric.
"""

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from bgkspectral import cli

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_layer_records_a_span(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from spans import _TARGETS, Tracer

    monkeypatch.setattr(cli, "SNAPSHOT_GRID", np.linspace(-4.0, 4.0, 4))
    data = {"potential": [0.5 * math.log(2 * math.pi), 0.5], "K": 4, "N": 4,
            "dt": 0.05, "T": 1.0, "initial": [[1, 2, 1.0]],
            "outputs": ["norms", "conserved", "kn"],
            "snapshot_times": [0.5],
            "kn_n_values": [2]}
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(cli.RunConfig.from_dict(data), tmp_path)
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    # cli.run builds no Gauss rule, so orthopoly.quadrature is never called.
    expected = {name for name, _, _ in _TARGETS} - {"orthopoly.quadrature"}
    assert expected - recorded == set()
