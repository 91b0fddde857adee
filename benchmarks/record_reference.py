"""Record the reference values the benchmark checks every run against.

    python3 benchmarks/record_reference.py      # from the root of a checkout

Runs each workload once at the current commit and writes `reference.json`
beside this file.  For `scale_stepping` it records, at every checkpoint, the
Gram matrix of the norms reached from the fixed directions B_j, from runs
started at B_i and at B_i + B_j (the solver is linear, so
<R_i, R_j> = (|R_i + R_j|^2 - |R_i|^2 - |R_j|^2) / 2), plus the conserved
functionals of each B_j.  Re-record only when a change is meant to alter
the solver's results beyond the checks' tolerance, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from workloads import (REFERENCE, SCALE_CHECKPOINT_EVERY, SCALE_DIRECTIONS,
                       WORKLOADS, ScaleStepping, read_table)


def scale_reference(scratch: Path) -> dict:
    dirs = ScaleStepping.directions()
    workload = ScaleStepping(0)
    out = scratch / "scale"

    def run(c0: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """Squared checkpoint norms and t=0 (mass, energy_plus) from C0."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        workload.run_config(ScaleStepping.config_for(c0), out)
        _, nrm = read_table(out / "norms.csv")
        _, cons = read_table(out / "conserved.csv")
        return nrm[::SCALE_CHECKPOINT_EVERY, 1] ** 2, [cons[0, 1], cons[0, 2]]

    singles = [run(d) for d in dirs]
    n_check = len(singles[0][0])
    gram = np.zeros((n_check, SCALE_DIRECTIONS, SCALE_DIRECTIONS))
    for i in range(SCALE_DIRECTIONS):
        gram[:, i, i] = singles[i][0]
        for j in range(i):
            both, _ = run(dirs[i] + dirs[j])
            gram[:, i, j] = gram[:, j, i] = 0.5 * (both - singles[i][0]
                                                    - singles[j][0])
    return {"checkpoints": list(range(0, n_check * SCALE_CHECKPOINT_EVERY,
                                      SCALE_CHECKPOINT_EVERY)),
            "gram": gram.tolist(),
            "conserved": [[float(c) for c in cons] for _, cons in singles]}


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    scratch = root / ".bench_run" / "reference"
    reference = {}
    for name, cls in WORKLOADS.items():
        if cls is ScaleStepping:
            reference[name] = scale_reference(scratch)
            continue
        out = scratch / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        workload = cls(0)
        workload.run(out)
        reference[name] = workload.observed(out)
    shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
