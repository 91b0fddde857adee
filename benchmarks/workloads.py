"""The benchmark workloads and the correctness checks on their artifacts.

Each workload is one complete solver run through `cli.run`, the public entry
point behind the command line, in this process.

Every run is checked:

* each conserved functional stays within DRIFT_TOL * ||C0|| of its t=0 value;
* the norm never increases from one step to the next;
* the values in `expected()` (final norm, decay rate, snapshot RMS, K_N
  table) match `reference.json`, recorded with `record_reference.py`, to
  REL_TOL.  A tolerance, not a checksum, so that a more accurate operator
  assembly (rounding-level changes) still passes;
* every K_N row is flagged converged (`kn_lab`);
* repeated runs of one config give byte-identical artifacts (checked by the
  caller, which compares artifact digests across the runs of one process).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

REL_TOL = 1e-8
DRIFT_TOL = 1e-12

# scale_stepping draws C0 = sum_j v_j B_j: the weights v come from the
# benchmark seed, the dense directions B_j are fixed.  The solver is linear,
# so the squared norm at each checkpoint is v^T G v for a Gram matrix G
# recorded once; any seed can then be checked exactly.
SCALE_DIRECTIONS = 4
SCALE_CHECKPOINT_EVERY = 100  # steps


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """CSV artifact as (header, float array); empty cells become NaN."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = [[float(x) if x else math.nan for x in row] for row in rows[1:]]
    return rows[0], np.array(data, dtype=float)


def fit_rate(t: np.ndarray, norms: np.ndarray, T: float) -> float | None:
    """Least-squares decay rate of the norm over [0.2 T, T], as the CLI fits it."""
    mask = (t >= 0.2 * T) & (t <= T)
    if np.count_nonzero(mask) < 10:
        return None
    return -float(np.polyfit(t[mask], np.log(norms[mask]), 1)[0])


def invariant_problems(out_dir: Path) -> list[str]:
    """Conserved-functional drift and norm monotonicity of one run."""
    problems = []
    _, nrm = read_table(out_dir / "norms.csv")
    norms = nrm[:, 1]
    rises = np.flatnonzero(norms[1:] > norms[:-1])
    if rises.size:
        problems.append(f"norm increases at step {rises[0] + 1}")
    header, cons = read_table(out_dir / "conserved.csv")
    limit = DRIFT_TOL * norms[0]
    for j, name in enumerate(header[1:], start=1):
        col = cons[:, j]
        if np.isnan(col).all():
            continue
        drift = float(np.max(np.abs(col - col[0])))
        if not drift <= limit:
            problems.append(f"{name} drifts {drift:.3e} > {limit:.3e}")
    return problems


class Workload:
    """One solver run through `cli.run`, in this process."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def config(self) -> dict:
        raise NotImplementedError

    def setup_config(self) -> dict:
        """The same config cut to one step and the norms output."""
        cfg = self.config()
        return dict(cfg, T=cfg["dt"], outputs=["norms"], snapshot_times=[])

    def run_config(self, cfg: dict, out_dir: Path) -> None:
        from bgkspectral import cli
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(cli.RunConfig.from_dict(cfg), out_dir)

    def run(self, out_dir: Path) -> None:
        self.run_config(self.config(), out_dir)

    def setup(self, out_dir: Path) -> None:
        self.run_config(self.setup_config(), out_dir)

    def observed(self, out_dir: Path) -> dict[str, float]:
        """Values compared against the reference."""
        _, nrm = read_table(out_dir / "norms.csv")
        out = {"final_norm": float(nrm[-1, 1])}
        rate = fit_rate(nrm[:, 0], nrm[:, 1], self.config()["T"])
        if rate is not None:
            out["kappa"] = rate
        return out

    def expected(self) -> dict[str, tuple[float, float]]:
        """Reference value and tolerance scale for each observed key."""
        ref = json.loads(REFERENCE.read_text())[self.name]
        return {k: (v, abs(v)) for k, v in ref.items()}

    def check(self, out_dir: Path) -> list[str]:
        """Problems found in one run's artifacts; empty when the run is correct."""
        problems = invariant_problems(out_dir)
        got = self.observed(out_dir)
        for key, (want, scale) in self.expected().items():
            value = got.get(key)
            if value is None or not abs(value - want) <= REL_TOL * scale:
                problems.append(f"{key} = {value!r}, reference {want!r}")
        return problems


class Fig4Artifacts(Workload):
    """The doublewell_fig4 preset: 13.5 MB of snapshot CSV, light stepping."""

    name = "fig4_artifacts"

    def config(self) -> dict:
        from bgkspectral import cli
        return dict(cli.PRESETS["doublewell_fig4"])

    def observed(self, out_dir: Path) -> dict[str, float]:
        out = super().observed(out_dir)
        for path in sorted(out_dir.glob("snapshot_*.csv")):
            h = np.loadtxt(path, delimiter=",", skiprows=1, usecols=2)
            out[f"{path.stem}.rms"] = float(np.sqrt(np.mean(h * h)))
        return out


class ScaleStepping(Workload):
    """Sextic potential at K=80, N=60: the sparse solve dominates."""

    name = "scale_stepping"
    K, N, DT, T = 80, 60, 1e-2, 10.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self._config = self.config_for(
            np.tensordot(self.weights(), self.directions(), 1))

    def weights(self) -> np.ndarray:
        return np.random.RandomState(self.seed).standard_normal(SCALE_DIRECTIONS)

    @classmethod
    def directions(cls) -> np.ndarray:
        # Legacy RandomState streams are frozen across numpy versions.
        return np.stack([np.random.RandomState(1000 + j)
                         .standard_normal((cls.K + 1, cls.N + 1))
                         for j in range(SCALE_DIRECTIONS)])

    @classmethod
    def config_for(cls, c0: np.ndarray) -> dict:
        return {
            "potential": [0.0, 0.0, 0.0, 1.0], "K": cls.K, "N": cls.N,
            "dt": cls.DT, "T": cls.T, "outputs": ["norms", "conserved"],
            "initial": [[k, n, float(c0[k, n])]
                        for k in range(cls.K + 1) for n in range(cls.N + 1)],
        }

    def config(self) -> dict:
        return self._config

    def observed(self, out_dir: Path) -> dict[str, float]:
        _, nrm = read_table(out_dir / "norms.csv")
        _, cons = read_table(out_dir / "conserved.csv")
        out = {f"norm@{i}": float(nrm[i, 1])
               for i in range(0, len(nrm), SCALE_CHECKPOINT_EVERY)}
        out["mass"], out["energy_plus"] = float(cons[0, 1]), float(cons[0, 2])
        return out

    def expected(self) -> dict[str, tuple[float, float]]:
        ref = json.loads(REFERENCE.read_text())[self.name]
        v = self.weights()
        out = {}
        for step, gram in zip(ref["checkpoints"], ref["gram"]):
            want = math.sqrt(float(v @ np.array(gram) @ v))
            out[f"norm@{step}"] = (want, want)
        for j, key in enumerate(("mass", "energy_plus")):
            c = np.array(ref["conserved"])[:, j]
            out[key] = (float(v @ c), float(np.abs(v) @ np.abs(c)))
        return out


class KnLab(Workload):
    """The K_N conjecture lab on the double well; stepping is minimal."""

    name = "kn_lab"

    def config(self) -> dict:
        from bgkspectral import cli
        return {
            "potential": list(cli.DOUBLE_WELL_COEFFS), "K": 4, "N": 4,
            "dt": 1e-2, "T": 0.1, "initial": [[1, 1, 1.0], [3, 2, 0.5]],
            "outputs": ["norms", "conserved", "kn", "recurrence"],
            "kn_n_values": [16, 32, 64, 128],
        }

    def observed(self, out_dir: Path) -> dict[str, float]:
        out = super().observed(out_dir)
        with open(out_dir / "kn_table.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                n = row["N"]
                out[f"N={n}.converged"] = float(row["converged"] == "true")
                out[f"N={n}.M_big"] = float(row["M_big"])
                for j in range(4):
                    out[f"N={n}.kn{j}"] = float(row[f"kn{j}"])
        return out

    def check(self, out_dir: Path) -> list[str]:
        problems = super().check(out_dir)
        problems += [f"{key} is false" for key, value in self.observed(out_dir).items()
                     if key.endswith(".converged") and value != 1.0]
        return problems


WORKLOADS = {w.name: w for w in (Fig4Artifacts, ScaleStepping, KnLab)}
