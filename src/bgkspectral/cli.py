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
from .conjecture_lab import kn_sweep
from .errors import ConfigError, InvalidPotentialError
from .operators import build_deriv_couplings
# build_quadrature is not called here; benchmarks/spans.py traces it by this name.
from .orthopoly import build_quadrature, build_recurrence  # noqa: F401
from .potential import RawPotential, normalize_potential

HARMONIC_COEFFS = [0.5 * math.log(2.0 * math.pi), 0.5]
DOUBLE_WELL_COEFFS = [1.0, -2.0, 1.0]

KNOWN_OUTPUTS = ("norms", "conserved", "snapshots", "recurrence", "kn")

MAX_STEPS = 10 ** 7


@dataclass
class RunConfig:
    potential: list[float]
    K: int
    N: int
    dt: float = 1e-2
    T: float = 10.0
    initial: list | str = field(default_factory=list)
    purge: bool = False
    outputs: list[str] = field(default_factory=lambda: ["norms", "conserved"])
    snapshot_times: list[float] = field(default_factory=list)
    snapshot_range: list[float] = field(default_factory=lambda: [-4.0, 4.0, -4.0, 4.0])
    snapshot_points: list[int] = field(default_factory=lambda: [201, 201])
    fit_window: list[float] | None = None
    quad_tol: float = 1e-12
    n_max: int | None = None
    kn_n_values: list[int] = field(default_factory=lambda: [4, 8, 16, 32])

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        missing = {"potential", "K", "N"} - set(data)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return cls(**data)

    def validate(self) -> None:
        if len(self.potential) < 2:
            raise ConfigError("potential: need at least two even-power coefficients")
        if self.potential[-1] <= 0:
            raise ConfigError("potential: leading coefficient must be positive")
        degree = 2 * (len(self.potential) - 1)
        if self.N < degree:
            raise ConfigError(
                f"N={self.N} violates the truncation requirement N >= deg(phi) = {degree}"
            )
        if self.K < 0:
            raise ConfigError("K must be nonnegative")
        if self.dt <= 0 or self.T <= 0:
            raise ConfigError("dt and T must be positive")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
            raise ConfigError(f"T/dt = {steps} is not an integer step count")
        if round(steps) > MAX_STEPS:
            raise ConfigError(f"step count {round(steps)} exceeds {MAX_STEPS}")
        if self.n_max is not None and self.n_max < _min_n_max(self.N, degree):
            raise ConfigError(f"n_max={self.n_max} is below N + deg(phi) + 2 = "
                              f"{_min_n_max(self.N, degree)}")
        bad = set(self.outputs) - set(KNOWN_OUTPUTS)
        if bad:
            raise ConfigError(f"unknown outputs: {sorted(bad)}")
        if isinstance(self.initial, str):
            if self.initial not in INITIAL_CONDITIONS:
                raise ConfigError(f"unknown initial-condition preset {self.initial!r}")
        else:
            for entry in self.initial:
                if len(entry) != 3:
                    raise ConfigError(f"initial entries must be (k, n, value): {entry}")
                k, n, _ = entry
                if not (0 <= int(k) <= self.K and 0 <= int(n) <= self.N):
                    raise ConfigError(f"initial coefficient ({k}, {n}) out of range")
        if len(self.snapshot_range) != 4 or len(self.snapshot_points) != 2:
            raise ConfigError("snapshot_range needs 4 entries, snapshot_points 2")
        if any(p < 2 for p in self.snapshot_points):
            raise ConfigError("snapshot_points entries must be >= 2")
        if not all(math.isfinite(v) for v in self.snapshot_range):
            raise ConfigError("snapshot_range must be finite")
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
        if self.quad_tol <= 0:
            raise ConfigError("quad_tol must be positive")


def _min_n_max(N: int, degree: int) -> int:
    # build_phi_matrix at size N + 1 reads a_0..a_{N + deg + 2}.
    return N + degree + 2


def _fig4_initial(ip_phi: np.ndarray) -> list:
    # Energy-balanced mass/energy perturbation: the C[2,0] slot offsets the
    # phi-moment of C[0,:] so every conserved functional starts at zero.
    return [
        (0, 1, 1.0),
        (0, 2, 1.0),
        (2, 0, -math.sqrt(2.0) * float(ip_phi[2])),
        (2, 1, 1.0),
    ]


INITIAL_CONDITIONS = {
    "harmonic_fig1": lambda ip_phi: [(1, 2, 1.0), (2, 1, 1.0)],
    "doublewell_fig3": lambda ip_phi: [(2, 1, 1.0)],
    "doublewell_fig4": _fig4_initial,
}

PRESETS: dict[str, dict] = {
    "harmonic_fig1": {
        "potential": HARMONIC_COEFFS,
        "K": 20, "N": 5, "dt": 1e-2, "T": 10.0,
        "initial": "harmonic_fig1",
        "outputs": ["norms", "conserved"],
    },
    "doublewell_fig3": {
        "potential": DOUBLE_WELL_COEFFS,
        "K": 20, "N": 5, "dt": 1e-2, "T": 10.0,
        "initial": "doublewell_fig3",
        "outputs": ["norms", "conserved"],
    },
    "doublewell_fig4": {
        "potential": DOUBLE_WELL_COEFFS,
        "K": 20, "N": 30, "dt": 1e-2, "T": 12.0,
        "initial": "doublewell_fig4",
        "outputs": ["norms", "conserved", "snapshots"],
        # Sampling instants sit on the decay envelope, clear of the
        # oscillatory ripple of the slow modes.
        "snapshot_times": [0.0, 2.5, 5.0, 7.5, 10.0, 12.0],
    },
}


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def run(config: RunConfig, out_dir: Path) -> dict:
    """Execute one configured experiment; returns the summary mapping."""
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    pot = normalize_potential(RawPotential(tuple(config.potential)),
                              quad_tol=config.quad_tol)
    n_max = config.n_max if config.n_max is not None \
        else _min_n_max(config.N, pot.degree)
    table = build_recurrence(pot, n_max)
    couplings = build_deriv_couplings(table, config.N)
    basis = diagnostics.build_functional_basis(table, config.N)

    if isinstance(config.initial, str):
        entries = INITIAL_CONDITIONS[config.initial](basis.ip_phi)
    else:
        entries = [(int(k), int(n), float(v)) for k, n, v in config.initial]
    state = scheme.project_initial_condition(entries, config.K, config.N)
    if config.purge:
        state = scheme.purge_equilibrium_components(state, basis.ip_phi,
                                                    basis.harmonic)

    gen = scheme.assemble_generator(couplings, config.K, config.N)
    plan = scheme.make_stepping_plan(gen, config.dt)
    steps = round(config.T / config.dt)

    snap_steps = {int(round(t / config.dt)) for t in config.snapshot_times}
    xs = np.linspace(config.snapshot_range[0], config.snapshot_range[1],
                     config.snapshot_points[0])
    vs = np.linspace(config.snapshot_range[2], config.snapshot_range[3],
                     config.snapshot_points[1])

    def emit_snapshot(st: scheme.SpectralState) -> None:
        grid = diagnostics.snapshot(st, xs, vs, table)
        rows = ([_fmt(x), _fmt(v), _fmt(grid[i, j])]
                for i, x in enumerate(xs) for j, v in enumerate(vs))
        _write_csv(out_dir / f"snapshot_{st.t:g}.csv", "x,v,h", rows)

    series = diagnostics.DiagnosticsSeries()
    series.record(state, basis)
    if "snapshots" in config.outputs and 0 in snap_steps:
        emit_snapshot(state)
    for i in range(1, steps + 1):
        state = scheme.step(plan, state)
        series.record(state, basis)
        if "snapshots" in config.outputs and i in snap_steps:
            emit_snapshot(state)

    if "norms" in config.outputs:
        _write_csv(out_dir / "norms.csv", "t,norm",
                   ([_fmt(t), _fmt(n)] for t, n in zip(series.times, series.norms)))
    if "conserved" in config.outputs:
        _write_csv(
            out_dir / "conserved.csv",
            "t,mass,energy_plus,rx,m0,mx,energy_minus",
            ([_fmt(t), _fmt(c.mass), _fmt(c.energy_plus), _fmt(c.rx),
              _fmt(c.m0), _fmt(c.mx), _fmt(c.energy_minus)]
             for t, c in zip(series.times, series.conserved)),
        )
    if "recurrence" in config.outputs:
        _write_csv(out_dir / "recurrence.csv", "n,a_n",
                   ([str(n), _fmt(a)] for n, a in enumerate(table.a)))
    if "kn" in config.outputs:
        reports = kn_sweep(pot, config.kn_n_values, table=table)
        _write_csv(out_dir / "kn_table.csv", "N,M_big,kn0,kn1,kn2,kn3,converged",
                   ([str(r.N), str(r.m_big), _fmt(r.kn[0]), _fmt(r.kn[1]),
                     _fmt(r.kn[2]), _fmt(r.kn[3]), str(r.converged).lower()]
                    for r in reports))

    window = config.fit_window or [0.2 * config.T, config.T]
    summary = {"steps": steps, "final_norm": series.norms[-1]}
    try:
        fit = diagnostics.fit_decay_rate(series, window[0], window[1])
        summary["kappa"] = fit.rate
        summary["r_squared"] = fit.r_squared
    except ValueError:
        summary["kappa"] = None
        summary["r_squared"] = None
    drift = max((max(abs(v) for v in c.active_values()) for c in series.conserved),
                default=0.0)
    summary["max_conserved_drift"] = drift

    kappa = summary["kappa"]
    print(f"[bgkspectral] steps={steps} "
          f"kappa={_fmt(kappa) if kappa is not None else 'n/a'} "
          f"max_conserved_drift={_fmt(drift)}")
    return summary


def _load_config(args) -> RunConfig:
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"known: {sorted(PRESETS)}")
        return RunConfig.from_dict(dict(PRESETS[args.preset]))
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        return RunConfig.from_dict(data)
    raise ConfigError("one of --preset or --config is required")


def _parse_sweep(spec: str, config: RunConfig) -> list[tuple[str, object]]:
    if "=" not in spec:
        raise ConfigError("--sweep expects <field>=<v1,v2,...>")
    name, _, raw = spec.partition("=")
    if name not in config.__dataclass_fields__:
        raise ConfigError(f"unknown sweep field {name!r}")
    current = getattr(config, name)
    caster = int if isinstance(current, int) and not isinstance(current, bool) \
        else float
    try:
        values = [caster(v) for v in raw.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep values {raw!r}") from exc
    if not values:
        raise ConfigError("empty sweep value list")
    return [(name, v) for v in values]


def _run_variant(payload) -> dict:
    data, out_dir = payload
    return run(RunConfig.from_dict(data), Path(out_dir))


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
        if args.dump_preset:
            if args.dump_preset not in PRESETS:
                raise ConfigError(f"unknown preset {args.dump_preset!r}")
            cfg = RunConfig.from_dict(dict(PRESETS[args.dump_preset]))
            cfg.validate()
            print(json.dumps(asdict(cfg), indent=2))
            return 0
        config = _load_config(args)
        config.validate()
        out_dir = Path(args.out_dir)
        if args.sweep:
            variants = _parse_sweep(args.sweep, config)
            payloads = []
            for name, value in variants:
                data = asdict(replace(config, **{name: value}))
                RunConfig.from_dict(data).validate()
                payloads.append((data, str(out_dir / f"{name}_{value:g}")))
            with ProcessPoolExecutor(max_workers=min(len(payloads), 4)) as pool:
                list(pool.map(_run_variant, payloads))
        else:
            run(config, out_dir)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InvalidPotentialError, ArithmeticError, RuntimeError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
