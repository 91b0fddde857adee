"""Configuration-driven experiment runner emitting CSV artifacts."""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from . import diagnostics, scheme
from .conjecture_lab import KNReport, kn_sweep
from .errors import ConfigError, InvalidPotentialError
# benchmarks/spans.py traces build_deriv_couplings (counting the nonzeros of
# its `.A`, Phi's lower band, which the generator takes) and build_quadrature
# (not called here) by these names; only those hooks keep DerivCouplings,
# build_deriv_couplings and this build_quadrature import.
from .operators import build_deriv_couplings
from .orthopoly import (RecurrenceTable, build_quadrature,  # noqa: F401
                        build_recurrence, eval_poly_all, hermite_eval_all)
from .potential import RawPotential, normalize_potential

HARMONIC_COEFFS = [0.5 * math.log(2.0 * math.pi), 0.5]
DOUBLE_WELL_COEFFS = [1.0, -2.0, 1.0]

KNOWN_OUTPUTS = ("norms", "conserved", "snapshots", "recurrence", "kn")

MAX_STEPS = 10 ** 7

# Failures of a validated run, reported by main() with exit code 3.
NUMERICAL_ERRORS = (InvalidPotentialError, ArithmeticError, RuntimeError,
                    np.linalg.LinAlgError)


@dataclass
class RunConfig:
    potential: list[float]
    K: int
    N: int
    dt: float = 1e-2
    T: float = 10.0
    initial: list = field(default_factory=list)
    purge: bool = False
    outputs: list[str] = field(default_factory=lambda: ["norms", "conserved"])
    snapshot_times: list[float] = field(default_factory=list)
    snapshot_range: list[float] = field(default_factory=lambda: [-4.0, 4.0, -4.0, 4.0])
    snapshot_points: list[int] = field(default_factory=lambda: [201, 201])
    fit_window: list[float] | None = None
    kn_n_values: list[int] = field(default_factory=lambda: [4, 8, 16, 32])

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config {data!r} is not a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        missing = {"potential", "K", "N"} - set(data)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return cls(**data)

    def validate(self) -> None:
        lists = [("potential", self.potential), ("outputs", self.outputs),
                 ("snapshot_times", self.snapshot_times),
                 ("snapshot_range", self.snapshot_range),
                 ("snapshot_points", self.snapshot_points),
                 ("kn_n_values", self.kn_n_values), ("initial", self.initial)]
        if self.fit_window is not None:
            lists.append(("fit_window", self.fit_window))
        for name, value in lists:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name}: {value!r} is not a list")
        counts = [("K", self.K), ("N", self.N)] \
            + [("snapshot_points", p) for p in self.snapshot_points] \
            + [("kn_n_values", n) for n in self.kn_n_values]
        for name, value in counts:
            if not _is_int(value):
                raise ConfigError(f"{name}: {value!r} is not an integer")
        reals = [("dt", self.dt), ("T", self.T)] \
            + [("potential", c) for c in self.potential] \
            + [("snapshot_times", t) for t in self.snapshot_times] \
            + [("snapshot_range", v) for v in self.snapshot_range] \
            + [("fit_window", t) for t in self.fit_window or ()]
        for name, value in reals:
            if not _is_finite(value):
                raise ConfigError(f"{name}: {value!r} is not a finite number")
        if len(self.potential) < 2:
            raise ConfigError("potential: need at least two even-power coefficients")
        if self.potential[-1] <= 0:
            raise ConfigError("potential: leading coefficient must be positive")
        degree = 2 * (len(self.potential) - 1)
        if self.N < degree:
            raise ConfigError(
                f"N={self.N} violates the truncation requirement N >= deg(phi) = {degree}"
            )
        if self.K < 2:
            raise ConfigError(f"K={self.K} violates the truncation requirement "
                              "K >= 2, the energy mode k = 2")
        if any(n < 0 for n in self.kn_n_values):
            raise ConfigError(f"kn_n_values: {self.kn_n_values} has a negative entry")
        if not isinstance(self.purge, bool):
            raise ConfigError(f"purge: {self.purge!r} is not a boolean")
        if self.dt <= 0 or self.T <= 0:
            raise ConfigError("dt and T must be positive")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
            raise ConfigError(f"T/dt = {steps} is not an integer step count")
        if round(steps) > MAX_STEPS:
            raise ConfigError(f"step count {round(steps)} exceeds {MAX_STEPS}")
        bad = [name for name in self.outputs if name not in KNOWN_OUTPUTS]
        if bad:
            raise ConfigError(f"unknown outputs: {bad}")
        given, width = set(), int(self.N) + 1
        for entry in self.initial:
            try:
                k, n, value = entry
            except (TypeError, ValueError):
                raise ConfigError(f"initial entries must be (k, n, value): "
                                  f"{entry!r}") from None
            if not (_is_int(k) and _is_int(n) and _is_finite(value)):
                raise ConfigError(f"initial entry {entry}: k and n must be "
                                  "integers and the value a finite number")
            if not (0 <= k <= self.K and 0 <= n <= self.N):
                raise ConfigError(f"initial coefficient ({k}, {n}) out of range")
            key = int(k) * width + int(n)
            if key in given:
                raise ConfigError(f"initial coefficient ({k}, {n}) given twice")
            given.add(key)
        if len(self.snapshot_range) != 4 or len(self.snapshot_points) != 2:
            raise ConfigError("snapshot_range needs 4 entries, snapshot_points 2")
        if any(p < 2 for p in self.snapshot_points):
            raise ConfigError("snapshot_points entries must be >= 2")
        names: dict[str, int] = {}
        for t in self.snapshot_times:
            if t < 0 or t > self.T + 1e-12:
                raise ConfigError(f"snapshot time {t} outside [0, T]")
            at = t / self.dt
            if abs(at - round(at)) > 1e-9 * max(at, 1.0):
                raise ConfigError(f"snapshot time {t} is not a multiple of dt={self.dt}")
            name = f"snapshot_{t:g}.csv"
            if names.setdefault(name, round(at)) != round(at):
                raise ConfigError(f"snapshot times at steps {names[name]} and "
                                  f"{round(at)} share the file name {name}")
        if self.fit_window is not None:
            if len(self.fit_window) != 2 or not self.fit_window[0] < self.fit_window[1]:
                raise ConfigError("fit_window must be [t_start, t_end] with t_start < t_end")


# Concrete types, not the numbers ABCs: an ABC check costs about 1 us, and
# validate() runs them over every `initial` entry.  The exact int and float
# that JSON gives pass on the first test; any other value takes the full one.
def _is_int(value) -> bool:
    return type(value) is int or (isinstance(value, (int, np.integer))
                                  and not isinstance(value, bool))


def _is_finite(value) -> bool:
    return (type(value) is float
            or isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)) and math.isfinite(value)


PRESETS: dict[str, dict] = {
    "harmonic_fig1": {
        "potential": HARMONIC_COEFFS,
        "K": 20, "N": 5, "dt": 1e-2, "T": 10.0,
        "initial": [[1, 2, 1.0], [2, 1, 1.0]],
        "outputs": ["norms", "conserved"],
    },
    "doublewell_fig3": {
        "potential": DOUBLE_WELL_COEFFS,
        "K": 20, "N": 5, "dt": 1e-2, "T": 10.0,
        "initial": [[2, 1, 1.0]],
        "outputs": ["norms", "conserved"],
    },
    "doublewell_fig4": {
        "potential": DOUBLE_WELL_COEFFS,
        "K": 20, "N": 30, "dt": 1e-2, "T": 12.0,
        # The purge offsets C[2,0] against the phi-moment of C[0,:], so every
        # conserved functional starts at zero.
        "initial": [[0, 1, 1.0], [0, 2, 1.0], [2, 1, 1.0]],
        "purge": True,
        "outputs": ["norms", "conserved", "snapshots"],
        # Sampling instants sit on the decay envelope, clear of the
        # oscillatory ripple of the slow modes.
        "snapshot_times": [0.0, 2.5, 5.0, 7.5, 10.0, 12.0],
    },
}


def _write_csv(path: Path, header: str, row_template: str, rows) -> None:
    """Write `header`, then `row_template % row` for each value tuple in `rows`.

    '%.17g' % x gives the same text as f"{x:.17g}"; one `%` per row instead
    of one format call per cell is what keeps large snapshots cheap.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row_template % row)


def _snapshot_rows(grid: np.ndarray, xs_text: list[str]):
    """Value tuples (x, h_0, x, h_1, ...) of one snapshot grid, one per x."""
    cells = [None] * (2 * grid.shape[1])
    for x_text, hrow in zip(xs_text, grid):
        cells[::2] = (x_text,) * grid.shape[1]
        cells[1::2] = hrow.tolist()
        yield tuple(cells)


@dataclass(frozen=True)
class RunResult:
    """Everything one run computes: per-step `times`, `norms` and `conserved`
    rows (columns `diagnostics.CONSERVED_COLUMNS[:m]`), the states at the
    snapshot steps, the recurrence table and, if requested, the K_N reports.
    """

    config: RunConfig
    times: np.ndarray
    norms: np.ndarray
    conserved: np.ndarray
    snapshots: tuple[scheme.SpectralState, ...]
    table: RecurrenceTable
    kn: list[KNReport] | None
    summary: dict


def simulate(config: RunConfig) -> RunResult:
    """Validate and run one configured experiment in memory; writes no file."""
    config.validate()
    pot = normalize_potential(RawPotential(tuple(config.potential)))
    # build_phi_matrix at size N + 1 reads a_0..a_{N + deg + 2}.
    table = build_recurrence(pot, config.N + pot.degree + 2)
    band = build_deriv_couplings(table, config.N).A
    basis = diagnostics.build_functional_basis(table, config.N)

    state = scheme.project_initial_condition(config.initial, config.K, config.N)
    if config.purge:
        state = diagnostics.purge_equilibrium_components(state, basis)

    gen = scheme.assemble_generator(band, config.K)
    plan = scheme.make_stepping_plan(gen, config.dt)
    steps = round(config.T / config.dt)

    # Each snapshot carries its configured time, the one validate() named
    # its file from, not the accumulated sum of steps.
    snap_times = {round(t / config.dt): t for t in config.snapshot_times} \
        if "snapshots" in config.outputs else {}
    series = diagnostics.DiagnosticsSeries()
    series.record(state, basis)
    snapshots = [replace(state, t=snap_times[0])] if 0 in snap_times else []
    for i in range(1, steps + 1):
        state = scheme.step(plan, state)
        series.record(state, basis)
        if i in snap_times:
            snapshots.append(replace(state, t=snap_times[i]))

    reports = kn_sweep(pot, config.kn_n_values) \
        if "kn" in config.outputs else None

    window = config.fit_window or [0.2 * config.T, config.T]
    summary = {"steps": steps, "final_norm": series.norms[-1]}
    try:
        fit = diagnostics.fit_decay_rate(series, window[0], window[1])
        summary["kappa"] = fit.rate
        summary["r_squared"] = fit.r_squared
    except ValueError:
        summary["kappa"] = None
        summary["r_squared"] = None
    norms = np.array(series.norms)
    summary["norm_increases"] = int(np.count_nonzero(np.diff(norms) > 0))
    conserved = np.array(series.conserved)
    # Mass and energy_plus are invariants for every potential; the
    # harmonic-only columns rotate (README, Artifacts) and are left out.
    summary["max_conserved_drift"] = float(
        np.max(np.abs(conserved[:, :2] - conserved[0, :2])))
    summary["freud_residual"] = table.freud_residual
    summary["recurrence_panels"] = table.panels
    summary["dim"] = plan.system.shape[0]
    summary["generator_nnz"] = gen.matrix.nnz
    summary["factor_nnz"] = plan.lu.U.nnz
    if reports is not None:
        summary["kn_freud_residual"] = max(
            (r.freud_residual for r in reports), default=None)
        summary["kn_truncation_bound"] = max(
            (r.relative_bound for r in reports), default=None)
    return RunResult(config=config, times=np.array(series.times),
                     norms=norms, conserved=conserved,
                     snapshots=tuple(snapshots), table=table, kn=reports,
                     summary=summary)


def write_artifacts(result: RunResult, out_dir: Path) -> None:
    """Create `out_dir` and write the CSV files the config's outputs name;
    a snapshot that could overflow raises OverflowError before any file."""
    config = result.config
    if result.snapshots:
        xs = np.linspace(config.snapshot_range[0], config.snapshot_range[1],
                         config.snapshot_points[0])
        vs = np.linspace(config.snapshot_range[2], config.snapshot_range[3],
                         config.snapshot_points[1])
        # h[i, j] = sum P_n(x_i) C[k, n] H_k(v_j), so max|C| ||P[:, i]||_1
        # ||H[:, j]||_1 bounds |h| and every partial sum of the product.
        with np.errstate(over="ignore", invalid="ignore"):
            bound = max(np.max(np.abs(st.C)) for st in result.snapshots) \
                * np.max(np.abs(eval_poly_all(result.table, config.N, xs)).sum(0)) \
                * np.max(np.abs(hermite_eval_all(config.K, vs)).sum(0))
        if not np.isfinite(bound):
            raise OverflowError(f"snapshot_range {config.snapshot_range} "
                                "gives snapshot values past double precision")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    times = result.times.tolist()
    if "norms" in config.outputs:
        _write_csv(out_dir / "norms.csv", "t,norm", "%.17g,%.17g\n",
                   zip(times, result.norms.tolist()))
    if "conserved" in config.outputs:
        m = result.conserved.shape[1]
        # General potentials leave the harmonic-only cells empty.
        _write_csv(out_dir / "conserved.csv",
                   ",".join(("t",) + diagnostics.CONSERVED_COLUMNS),
                   "%.17g" + ",%.17g" * m
                   + "," * (len(diagnostics.CONSERVED_COLUMNS) - m) + "\n",
                   ((t, *row) for t, row in zip(times, result.conserved.tolist())))
    if result.snapshots:
        # One line per v with the v cell filled in; x and h are %-slots.
        grid_row = "".join("%%s,%.17g,%%.17g\n" % v for v in vs.tolist())
        xs_text = ["%.17g" % x for x in xs.tolist()]
        for st in result.snapshots:
            grid = diagnostics.snapshot(st, xs, vs, result.table)
            _write_csv(out_dir / f"snapshot_{st.t:g}.csv", "x,v,h", grid_row,
                       _snapshot_rows(grid, xs_text))
    if "recurrence" in config.outputs:
        _write_csv(out_dir / "recurrence.csv", "n,a_n", "%d,%.17g\n",
                   enumerate(result.table.a.tolist()))
    if result.kn is not None:
        _write_csv(out_dir / "kn_table.csv", "N,M_big,kn0,kn1,kn2,kn3,converged",
                   "%d,%d,%.17g,%.17g,%.17g,%.17g,%s\n",
                   ((r.N, r.m_big, *r.kn, str(r.converged).lower())
                    for r in result.kn))


def run(config: RunConfig, out_dir: Path) -> dict:
    """Execute one configured experiment and write its artifacts; returns the summary.

    Nothing is written unless the whole computation succeeds.
    """
    result = simulate(config)
    write_artifacts(result, out_dir)
    kappa = result.summary["kappa"]
    print(f"[bgkspectral] steps={result.summary['steps']} "
          f"kappa={'n/a' if kappa is None else format(kappa, '.17g')} "
          f"max_conserved_drift={result.summary['max_conserved_drift']:.17g}")
    return result.summary


def _load_config(args) -> RunConfig:
    if len([s for s in (args.dump_preset, args.preset, args.config) if s]) != 1:
        raise ConfigError("give one of --dump-preset, --preset or --config")
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        return RunConfig.from_dict(data)
    preset = args.dump_preset or args.preset
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; known: {sorted(PRESETS)}")
    return RunConfig.from_dict(dict(PRESETS[preset]))


def _parse_sweep(spec: str, config: RunConfig,
                 out_dir: Path) -> tuple[list[RunConfig], list[Path]]:
    """The validated variants of `field=v1,v2,...` and their directories."""
    if "=" not in spec:
        raise ConfigError("--sweep expects <field>=<v1,v2,...>")
    name, _, raw = spec.partition("=")
    if name not in config.__dataclass_fields__:
        raise ConfigError(f"unknown sweep field {name!r}")
    try:
        values = [json.loads(v) for v in raw.split(",") if v]
        if not all(isinstance(v, (int, float)) for v in values):
            raise ValueError("each value names a directory, so it must be "
                             "a JSON number or boolean")
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep values {raw!r}: {exc}") from exc
    if not values:
        raise ConfigError("empty sweep value list")
    variants = [replace(config, **{name: v}) for v in values]
    for variant in variants:
        variant.validate()
    dirs = [out_dir / f"{name}_{v:g}" for v in values]
    shared = sorted({str(d) for d in dirs if dirs.count(d) > 1})
    if shared:
        raise ConfigError(f"sweep values share output directories {shared}")
    return variants, dirs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bgkspectral",
        description="Spectral solver for the confined linear BGK equation",
    )
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--preset", help="name of a built-in configuration")
    parser.add_argument("--out-dir", default="out", help="artifact directory")
    parser.add_argument("--sweep", help="field=v1,v2,... run one variant per value")
    parser.add_argument("--dump-preset", metavar="NAME",
                        help="print a preset as JSON and exit")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args)
        if args.dump_preset:
            config.validate()
            print(json.dumps(asdict(config), indent=2))
            return 0
        out_dir = Path(args.out_dir)
        if args.sweep:
            variants, dirs = _parse_sweep(args.sweep, config, out_dir)
            with ProcessPoolExecutor(max_workers=min(len(variants), 4)) as pool:
                list(pool.map(run, variants, dirs))
        else:
            run(config, out_dir)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
