"""Span tracing of the bgkspectral layers, applied from outside the package.

`Tracer.install()` replaces the public functions in the module namespaces
where `cli`, `scheme` and `conjecture_lab` look them up with wrappers that
record one span per call: (name, start, end, parent, run id).  Counts
(matrix nonzeros, LU fill, recurrence length, ...) are recorded at the same
boundaries.  Nothing under `src/` is edited; `uninstall()` restores the
original functions.  Spans stay in memory until `write` at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _artifact_bytes(out_dir) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())


def _lu_fill(plan) -> int:
    return int(plan.lu.L.nnz + plan.lu.U.nnz)


# (span name, module attribute path as looked up by the caller, count hook)
# A count hook maps (args, result) to {count name: value}.
_TARGETS = [
    ("cli.run", ("cli", "run"),
     lambda a, r: {"cli.artifact_bytes": _artifact_bytes(a[1])}),
    ("potential.normalize", ("cli", "normalize_potential"), None),
    ("orthopoly.recurrence", ("cli", "build_recurrence"),
     lambda a, r: {"orthopoly.recurrence_n": int(a[1])}),
    ("orthopoly.quadrature", ("cli", "build_quadrature"), None),
    ("operators.couplings", ("cli", "build_deriv_couplings"),
     lambda a, r: {"operators.couplings_nnz": int(np.count_nonzero(r.A))}),
    ("conjecture_lab.kn_sweep", ("cli", "kn_sweep"), None),
    ("diagnostics.basis", ("diagnostics", "build_functional_basis"), None),
    ("diagnostics.snapshot", ("diagnostics", "snapshot"), None),
    ("diagnostics.fit", ("diagnostics", "fit_decay_rate"), None),
    ("diagnostics.record", ("diagnostics", "DiagnosticsSeries", "record"), None),
    ("scheme.assemble", ("scheme", "assemble_generator"),
     lambda a, r: {"scheme.generator_nnz": int(r.matrix.nnz)}),
    ("scheme.factor", ("scheme", "make_stepping_plan"),
     lambda a, r: {"scheme.lu_fill": _lu_fill(r)}),
    ("scheme.step", ("scheme", "step"), None),
    ("conjecture_lab.estimate", ("conjecture_lab", "estimate_kn"),
     lambda a, r: {"conjecture_lab.m_big_max": int(a[3])}),
    ("orthopoly.recurrence", ("conjecture_lab", "build_recurrence"),
     lambda a, r: {"orthopoly.recurrence_n": int(a[1])}),
    ("operators.phi_omega", ("conjecture_lab", "build_phi_matrix"), None),
    ("operators.phi_omega", ("conjecture_lab", "build_omega_matrix"), None),
]

ROOT_SPAN = "cli.run"


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self):
        self.spans: list[tuple] = []     # (name, start, end, parent, run)
        self.counts: list[tuple] = []    # (name, value, run)
        self.run_id = "0"
        self.done: list[tuple] = []      # (spans, counts) of finished runs
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, count_hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.run_id)
            if count_hook is not None:
                for key, value in count_hook(args, result).items():
                    self.counts.append((key, value, self.run_id))
            return result
        return traced

    def install(self) -> None:
        from bgkspectral import cli, conjecture_lab, diagnostics, scheme
        modules = {"cli": cli, "conjecture_lab": conjecture_lab,
                   "diagnostics": diagnostics, "scheme": scheme}
        for name, path, hook in _TARGETS:
            owner = modules[path[0]]
            for attr in path[1:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            self._saved.append((owner, path[-1], original))
            setattr(owner, path[-1], self._wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> tuple[list, list]:
        """Spans and counts recorded since the last call; kept for `write`."""
        taken = (self.spans, self.counts)
        self.done.append(taken)
        self.spans, self.counts = [], []
        return taken

    def write(self, path: Path) -> None:
        """Write the spans and counts of every taken run as JSON lines."""
        with open(path, "w") as fh:
            for spans, counts in self.done:
                for n, s, e, p, r in spans:
                    fh.write(json.dumps({"span": n, "start": s, "end": e,
                                         "parent": p, "run": r}) + "\n")
                for n, v, r in counts:
                    fh.write(json.dumps({"count": n, "value": v, "run": r}) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def self_time_by_span(spans) -> dict[str, float]:
    """Total self time of each span name in one run."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return totals


def layer_metrics(spans, counts) -> dict[str, dict]:
    """Per-layer metrics of one run from its spans and counts.

    Self times of `operators.phi_omega`, `diagnostics.snapshot` and the
    `conjecture_lab` spans are left to `self_time_by_span`: each is called by
    one workload only and would read exactly 0 on the others.
    """
    self_s = self_time_by_span(spans)
    steps_us = [(e - s) * 1e6 for n, s, e, _, _ in spans if n == "scheme.step"]
    summed: dict[str, float] = defaultdict(float)
    peak: dict[str, float] = defaultdict(float)
    for name, value, _ in counts:
        summed[name] += value
        peak[name] = max(peak[name], value)
    n_calls = sum(1 for s in spans if s[0] == "conjecture_lab.estimate")
    seconds = {
        "cli.self_s": self_s["cli.run"],
        "scheme.assemble_s": self_s["scheme.assemble"],
        "scheme.factor_s": self_s["scheme.factor"],
        "scheme.step_s": self_s["scheme.step"],
        "operators.couplings_s": self_s["operators.couplings"],
        "orthopoly.recurrence_s": self_s["orthopoly.recurrence"],
        "orthopoly.quadrature_s": self_s["orthopoly.quadrature"],
        "potential.normalize_s": self_s["potential.normalize"],
        "diagnostics.record_s": self_s["diagnostics.record"],
        "diagnostics.basis_s": self_s["diagnostics.basis"],
        "diagnostics.fit_s": self_s["diagnostics.fit"],
    }
    out = {k: {"value": v, "unit": "s"} for k, v in seconds.items()}
    out["scheme.step_us.p50"] = {"value": _pct(steps_us, 50), "unit": "us"}
    out["scheme.step_us.p99"] = {"value": _pct(steps_us, 99), "unit": "us"}
    for name, value in {
        "cli.artifact_bytes": summed["cli.artifact_bytes"],
        "scheme.generator_nnz": summed["scheme.generator_nnz"],
        "scheme.lu_fill": summed["scheme.lu_fill"],
        "scheme.steps": len(steps_us),
        "operators.couplings_nnz": summed["operators.couplings_nnz"],
        "orthopoly.recurrence_n": peak["orthopoly.recurrence_n"],
        "conjecture_lab.estimate_calls": n_calls,
        "conjecture_lab.m_big_max": peak["conjecture_lab.m_big_max"],
    }.items():
        out[name] = {"value": int(value), "unit": "B" if name.endswith("bytes")
                     else "count"}
    return out
