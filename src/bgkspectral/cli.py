"""Configuration-driven experiment runner emitting CSV artifacts."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from . import diagnostics, scheme
from .conjecture_lab import KNReport, kn_sweep
from .csv_writer import format_cells, text_cells, write_csv as _write_csv
from .errors import ConfigError, InvalidPotentialError, describe
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

KNOWN_OUTPUTS = ("norms", "conserved", "recurrence", "kn")

MAX_STEPS = 10 ** 7

# The x and v points of every snapshot.
SNAPSHOT_GRID = np.linspace(-4.0, 4.0, 201)
SNAPSHOT_GRID.flags.writeable = False

# Failures of a validated run, reported by main() with exit code 3.
NUMERICAL_ERRORS = (InvalidPotentialError, ArithmeticError, RuntimeError,
                    np.linalg.LinAlgError, MemoryError)


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
    kn_n_values: list[int] = field(default_factory=lambda: [4, 8, 16, 32])

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config {describe(data)} is not a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        missing = {"potential", "K", "N"} - set(data)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return cls(**data)

    def validate(self) -> tuple[np.ndarray, np.ndarray]:
        """Raise ConfigError naming the first rule the config breaks.

        Returns the `initial` entries as flat keys k (N + 1) + n and values,
        in list order, for `scheme.initial_state`; no key repeats, and the
        values' sum of squares is within double range.
        """
        lists = [("potential", self.potential), ("outputs", self.outputs),
                 ("snapshot_times", self.snapshot_times),
                 ("kn_n_values", self.kn_n_values), ("initial", self.initial)]
        for name, value in lists:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{name}: {describe(value)} is not a list")
        counts = [("K", self.K), ("N", self.N)] \
            + [("kn_n_values", n) for n in self.kn_n_values]
        for name, value in counts:
            if not _is_int(value):
                raise ConfigError(f"{name}: {describe(value)} is not an integer")
        reals = [("dt", self.dt), ("T", self.T)] \
            + [("potential", c) for c in self.potential] \
            + [("snapshot_times", t) for t in self.snapshot_times]
        for name, value in reals:
            if not _is_finite(value):
                raise ConfigError(f"{name}: {describe(value)} is not a finite number")
        # The code that runs the potential and the truncation owns their rules.
        try:
            scheme.check_truncation(self.K, self.N,
                                    RawPotential(tuple(self.potential)).degree)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if any(n < 0 for n in self.kn_n_values):
            raise ConfigError(f"kn_n_values: {describe(self.kn_n_values)} has a "
                              "negative entry")
        if not isinstance(self.purge, bool):
            raise ConfigError(f"purge: {describe(self.purge)} is not a boolean")
        if self.dt <= 0 or self.T <= 0:
            raise ConfigError("dt and T must be positive")
        # A quotient past double range is inf, which the checks reject;
        # numpy scalars would also warn of it.
        with np.errstate(over="ignore"):
            steps = self.T / self.dt
            snapshot_steps = [t / self.dt for t in self.snapshot_times]
        if not steps < MAX_STEPS + 0.5:
            raise ConfigError(f"T/dt = {steps} exceeds {MAX_STEPS} steps")
        if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
            raise ConfigError(f"T/dt = {steps} is not an integer step count")
        bad = [name for name in self.outputs if name not in KNOWN_OUTPUTS]
        if bad:
            raise ConfigError(f"unknown outputs: {bad}")
        # numpy indexes no array past intp-max bytes; the run's float64 arrays
        # are the (K + 1, N + 1) state and the snapshot grid's two bases.
        k1, n1, p = int(self.K) + 1, int(self.N) + 1, len(SNAPSHOT_GRID)
        if max(k1 * n1, n1 * p, k1 * p) > np.iinfo(np.intp).max // 8:
            raise ConfigError(f"K={describe(self.K)}, N={describe(self.N)} need an "
                              "array past the size numpy can index")
        keys, values = [], []
        K, N, width = self.K, self.N, int(self.N) + 1
        for entry in self.initial:
            try:
                k, n, value = entry
            except (TypeError, ValueError):
                raise ConfigError(f"initial entries must be (k, n, value): "
                                  f"{describe(entry)}") from None
            exact = (type(k) is int and type(n) is int and type(value) is float
                     and math.isfinite(value))
            if not (exact or _is_int(k) and _is_int(n) and _is_finite(value)):
                raise ConfigError(f"initial entry {describe(entry)}: k and n must "
                                  "be integers and the value a finite number")
            if not (0 <= k <= K and 0 <= n <= N):
                raise ConfigError(f"initial coefficient ({describe(k)}, {describe(n)}) "
                                  "out of range")
            if exact:
                keys.append(k * width + n)
                values.append(value)
            else:
                keys.append(int(k) * width + int(n))
                values.append(float(value))
        keys = np.array(keys, dtype=np.intp)
        # A stable sort puts each repeat after the entry it repeats, in a
        # fraction of the memory of a hash set.  Every key is below
        # (K + 1)(N + 1), which the size check above keeps within intp.
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        repeats = order[1:][ranked[1:] == ranked[:-1]]
        if repeats.size:
            k, n, _ = self.initial[repeats.min()]
            raise ConfigError(f"initial coefficient ({describe(k)}, {describe(n)}) "
                              "given twice")
        names: dict[str, int] = {}
        for t, at in zip(self.snapshot_times, snapshot_steps):
            if t < 0 or t > self.T + 1e-12:
                raise ConfigError(f"snapshot time {t} outside [0, T]")
            if not math.isfinite(at) or abs(at - round(at)) > 1e-9 * max(at, 1.0):
                raise ConfigError(f"snapshot time {t} is not a multiple of dt={self.dt}")
            name = f"snapshot_{t:g}.csv"
            if names.setdefault(name, round(at)) != round(at):
                raise ConfigError(f"snapshot times at steps {names[name]} and "
                                  f"{round(at)} share the file name {name}")
        values = np.array(values)
        # The step never increases the norm, so a finite norm at t = 0 stays
        # finite; a sum of squares past double range is inf, not a warning.
        with np.errstate(over="ignore"):
            finite_norm = math.isfinite(values @ values)
        if not finite_norm:
            raise ConfigError("initial values: their sum of squares passes "
                              "double range, so the state's norm is not finite")
        return keys, values


# Concrete types, not the numbers ABCs: an ABC check costs about 1 us, and
# validate() runs them over every `initial` entry.  The exact int and float
# that JSON gives pass on the first test; any other value takes the full one.
def _is_int(value) -> bool:
    return type(value) is int or (isinstance(value, (int, np.integer))
                                  and not isinstance(value, bool))


# An int past double range is not finite either; math.isfinite would raise
# OverflowError converting it, so ints are compared with the range instead.
def _is_finite(value) -> bool:
    if type(value) is float or isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


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
        "outputs": ["norms", "conserved"],
        # Sampling instants sit on the decay envelope, clear of the
        # oscillatory ripple of the slow modes.
        "snapshot_times": [0.0, 2.5, 5.0, 7.5, 10.0, 12.0],
    },
}


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
    """Validate and run one configured experiment in memory; writes no file.

    A purge that takes the initial norm past double range is a ConfigError,
    as `RunConfig.validate` makes one of such an unpurged state.
    """
    keys, values = config.validate()
    pot = normalize_potential(RawPotential(tuple(config.potential)))
    # build_phi_matrix at size N + 1 reads a_0..a_{N + deg + 2}.
    table = build_recurrence(pot, config.N + pot.degree + 2)
    band = build_deriv_couplings(table, config.N).A
    basis = diagnostics.build_functional_basis(table, config.N)

    state = scheme.initial_state(keys, values, config.K, config.N)
    if config.purge:
        state = diagnostics.purge_equilibrium_components(state, basis)
        # The purge writes the phi-moment of C[0, :] into C[2, 0], which can
        # take a norm validate() found finite past double range.
        with np.errstate(over="ignore"):
            finite_norm = math.isfinite(diagnostics.l2_norm(state))
        if not finite_norm:
            raise ConfigError("initial values: after the purge their sum of "
                              "squares passes double range, so the state's "
                              "norm is not finite")

    gen = scheme.assemble_generator(band, config.K)
    plan = scheme.make_stepping_plan(gen, config.dt)
    steps = round(config.T / config.dt)

    # Each snapshot carries its configured time, the one validate() named
    # its file from, not the accumulated sum of steps.
    snap_times = {round(t / config.dt): t for t in config.snapshot_times}
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

    summary = {"steps": steps, "final_norm": series.norms[-1]}
    try:
        fit = diagnostics.fit_decay_rate(series, 0.2 * config.T, config.T)
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
    summary["factor_nnz"] = plan.lu.nnz
    if reports is not None:
        summary["kn_freud_residual"] = max(
            (r.freud_residual for r in reports), default=None)
        summary["kn_truncation_bound"] = max(
            (r.relative_bound for r in reports), default=None)
    return RunResult(config=config, times=np.array(series.times),
                     norms=norms, conserved=conserved,
                     snapshots=tuple(snapshots), table=table, kn=reports,
                     summary=summary)


def _csv_files(result: RunResult):
    """(name, header, columns) of each CSV file the config's outputs name,
    apart from the snapshots.  Integers below 2^53, as floats, print the
    same through '%.17g' as through '%d'."""
    config, times = result.config, result.times
    if "norms" in config.outputs:
        yield "norms.csv", "t,norm", [times, result.norms]
    if "conserved" in config.outputs:
        # General potentials leave the harmonic-only cells empty.
        empty = np.zeros((1, 0), np.uint8)
        m = result.conserved.shape[1]
        yield ("conserved.csv", ",".join(("t",) + diagnostics.CONSERVED_COLUMNS),
               [times, *result.conserved.T]
               + [empty] * (len(diagnostics.CONSERVED_COLUMNS) - m))
    if "recurrence" in config.outputs:
        a = result.table.a
        yield "recurrence.csv", "n,a_n", [np.arange(a.size, dtype=float), a]
    if result.kn is not None:
        rows = result.kn
        yield ("kn_table.csv", "N,M_big,kn0,kn1,kn2,kn3,converged",
               [np.array([r.N for r in rows], float),
                np.array([r.m_big for r in rows], float),
                *np.array([r.kn for r in rows], float).reshape(-1, 4).T,
                text_cells([str(r.converged).lower() for r in rows])])


def write_artifacts(result: RunResult, out_dir: Path) -> None:
    """Create `out_dir` and write the CSV files the config's outputs name
    and one per snapshot time; a snapshot that could overflow raises
    OverflowError before any file.

    Each file is written under a temporary name, and all of them are moved
    into place only once every one is written; a failed write or move
    removes what this call wrote, and `out_dir` too if this call created it.
    Every file goes through `csv_writer.write_csv` in this process; the
    snapshots' x and v cells and the bases at the grid are computed once for
    all of them.
    """
    config, grid = result.config, SNAPSHOT_GRID
    if result.snapshots:
        # h[i, j] = sum P_n(x_i) C[k, n] H_k(v_j), so max|C| ||P[:, i]||_1
        # ||H[:, j]||_1 bounds |h| and every partial sum of the product.
        with np.errstate(over="ignore", invalid="ignore"):
            p = eval_poly_all(result.table, config.N, grid)
            h = hermite_eval_all(config.K, grid)
            bound = max(np.max(np.abs(st.C)) for st in result.snapshots) \
                * np.max(np.abs(p).sum(0)) * np.max(np.abs(h).sum(0))
        if not np.isfinite(bound):
            raise OverflowError(f"snapshot values on [{grid[0]:g}, {grid[-1]:g}]^2 "
                                "pass double precision")
        # Every snapshot row repeats an x and a v cell: the slots no grid
        # value uses are dropped once, rather than stripped from every row.
        cells = format_cells(grid)
        cells = cells[:, cells.any(0)]
    tables = list(_csv_files(result))
    snapshots = {f"snapshot_{st.t:g}.csv": st for st in result.snapshots}
    out_dir = Path(out_dir)
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    partial = {name: out_dir / f".{name}.partial"
               for name in [table[0] for table in tables] + list(snapshots)}
    moved: list[Path] = []
    try:
        for name, *table in tables:
            _write_csv(partial[name], *table)
        for name, st in snapshots.items():
            _write_csv(partial[name], "x,v,h",
                       [cells[:, None], cells[None],
                        diagnostics.snapshot(st, p, h)])
        for name, tmp in partial.items():
            moved.append(tmp.replace(out_dir / name))
    except BaseException:
        for path in list(partial.values()) + moved:
            with contextlib.suppress(OSError):
                path.unlink()
        if created:
            with contextlib.suppress(OSError):
                out_dir.rmdir()
        raise


def run(config: RunConfig, out_dir: Path) -> dict:
    """Execute one configured experiment and write its artifacts; returns the summary.

    Nothing is written unless the whole computation succeeds; a directory
    that cannot be written is a ConfigError naming it.
    """
    result = simulate(config)
    try:
        write_artifacts(result, out_dir)
    except OSError as exc:
        raise ConfigError(f"cannot write artifacts to {out_dir}: {exc}") from exc
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
        except (OSError, ValueError) as exc:   # also not UTF-8, or past int digits
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
