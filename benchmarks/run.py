"""End-to-end and per-layer benchmark of bgkspectral.

Run from the root of a checkout (the directory holding `src/bgkspectral`):

    python3 benchmarks/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With `--trace 0` it reports the end-to-end metrics, measured with tracing
off: the median wall time of one complete run (`run_s`), the median cost of
the same run cut to one step (`setup_s`) and the peak resident memory of a
process that runs only the workload (`peak_rss_mb`).  The highest percentile
the run count supports is printed and recorded beside them.  With
`--trace 1` it alternates untraced and traced runs and reports per-layer
self times and counts from the spans, plus the tracing overhead.  Failed
runs are counted against attempted runs in `failed`/`attempted` (the
`failed_ops` ratio).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The environment record, the
seed, every run time and every failure are written to
`.bench_run/<workload>/result.json`; traced spans to
`.bench_run/<workload>/spans.jsonl`.

One warm-up run of each workload is discarded.  Every workload runs in this
process; cold start (a fresh interpreter importing the package) appears only
in the per-layer `cli.import_s`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60
IMPORT_REPS = 3
TAIL_SAMPLES = 10  # samples required beyond the reported tail percentile


def tree_digest(path: Path, pattern: str = "*") -> str:
    digest = hashlib.sha256()
    for f in sorted(p for p in path.rglob(pattern) if p.is_file()):
        digest.update(str(f.relative_to(path)).encode() + b"\0")
        digest.update(f.read_bytes())
    return digest.hexdigest()


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be queried."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(root: Path) -> dict:
    import scipy
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_sha256": tree_digest(root / "src" / "bgkspectral", "*.py"),
    }


class Ledger:
    """Attempted and failed operations of one workload.

    Every full run is checked; a run whose artifacts are byte-identical to
    the first checked run inherits that run's verdict, and one that differs
    fails and is checked in full.
    """

    def __init__(self, workload, runs_dir: Path):
        self.workload = workload
        self.runs_dir = runs_dir
        self.attempted = 0
        self.failures: list[list[str]] = []
        self._first: tuple[str, list[str]] | None = None

    def _check(self, out_dir: Path) -> list[str]:
        digest = tree_digest(out_dir)
        if self._first is None:
            self._first = (digest, self.workload.check(out_dir))
            return self._first[1]
        if digest == self._first[0]:
            return self._first[1]
        return (["artifacts differ from the first run of this config"]
                + self.workload.check(out_dir))

    def op(self, fn, check: bool = True) -> float | None:
        """Run fn(out_dir) once; its wall time, or None when it failed."""
        self.attempted += 1
        out_dir = self.runs_dir / f"op{self.attempted}"
        out_dir.mkdir(parents=True)
        try:
            start = time.perf_counter()
            fn(out_dir)
            elapsed = time.perf_counter() - start
            problems = self._check(out_dir) if check else []
        except subprocess.CalledProcessError as exc:
            problems = [f"exit {exc.returncode}: {exc.stderr.strip()[-400:]}"]
        except Exception as exc:  # any failure of the solver counts as a failed op
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failures.append(problems)
            return None
        return elapsed


def fresh_import_s(env: dict) -> float:
    argv = [sys.executable, "-c",
            "import time; t = time.perf_counter(); import bgkspectral.cli; "
            "print(time.perf_counter() - t)"]
    out = subprocess.run(argv, env=env, check=True, capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S).stdout
    return float(out.split()[-1])


def peak_rss_mb(workload, out_dir: Path, env: dict) -> float:
    argv = [sys.executable, str(HERE / "child.py"), workload.name,
            str(workload.seed), str(out_dir)]
    out = subprocess.run(argv, env=env, check=True, capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S).stdout
    return float(out.split()[-1])


def tail(times: list[float]) -> tuple[float, int]:
    """Value and level of the highest percentile with TAIL_SAMPLES beyond it."""
    level = max(50, int(100 * (1 - TAIL_SAMPLES / len(times))))
    return float(np.percentile(times, level)), level


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_end_to_end(workload, ledger: Ledger, seconds: float, env: dict):
    ledger.op(workload.run)  # warm-up, discarded
    times, setups = [], []
    deadline = time.perf_counter() + seconds
    # Setups alternate with full runs so both sample the same machine state.
    while time.perf_counter() < deadline:
        for fn, out, check in ((workload.run, times, True),
                               (workload.setup, setups, False)):
            elapsed = ledger.op(fn, check=check)
            if elapsed is not None:
                out.append(elapsed)
    rss = []
    ledger.op(lambda out: rss.append(peak_rss_mb(workload, out, env)), check=False)
    if not (times and setups and rss):
        return {}, {"error": "no successful run"}
    tail_s, level = tail(times)
    metrics = {
        "run_s": metric(statistics.median(times), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(rss[0], "MiB"),
    }
    note = {"run_s_n": len(times), f"run_s_p{level}": tail_s,
            "run_times_s": times, "setup_times_s": setups}
    return metrics, note


def measure_layers(workload, ledger: Ledger, seconds: float, env: dict):
    from spans import ROOT_SPAN, Tracer, layer_metrics, self_time_by_span
    tracer = Tracer()

    def traced(out_dir: Path) -> None:
        tracer.install()
        try:
            workload.run(out_dir)
        finally:
            tracer.uninstall()
        roots = sum(1 for s in tracer.spans if s[0] == ROOT_SPAN)
        if roots != 1:
            raise RuntimeError(f"trace recorded {roots} {ROOT_SPAN} spans")

    ledger.op(workload.run)  # warm-up, discarded
    plain, traced_times, per_run, by_span = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < 2:
        if i % 2 == 0:
            elapsed = ledger.op(workload.run)
            if elapsed is not None:
                plain.append(elapsed)
        else:
            tracer.run_id = str(i)
            elapsed = ledger.op(traced)
            spans, counts = tracer.take()
            if elapsed is not None:
                traced_times.append(elapsed)
                per_run.append(layer_metrics(spans, counts))
                by_span.append(self_time_by_span(spans))
        i += 1
    if not (plain and per_run):
        return {}, {"error": "no successful run"}, tracer
    imports = [fresh_import_s(env) for _ in range(IMPORT_REPS)]
    metrics = {}
    for name, first in per_run[0].items():
        values = [run[name]["value"] for run in per_run]
        metrics[name] = metric(statistics.median(values), first["unit"])
    metrics["cli.import_s"] = metric(statistics.median(imports), "s")
    traced_s = statistics.median(traced_times)
    metrics["trace.run_s"] = metric(traced_s, "s")
    metrics["trace.overhead_s"] = metric(traced_s - statistics.median(plain), "s")
    self_s = {name: statistics.median(run.get(name, 0.0) for run in by_span)
              for name in sorted(set().union(*by_span))}
    shares: dict[str, float] = {}
    for name, value in self_s.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + value / traced_s
    note = {"largest_self_time": max(self_s, key=self_s.get),
            "self_share_by_module": {k: round(v, 3) for k, v in
                                     sorted(shares.items(), key=lambda kv: -kv[1])},
            "self_s_by_span": self_s,
            "untraced_times_s": plain, "traced_times_s": traced_times}
    return metrics, note, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path, env: dict, env_record: dict) -> dict:
    workload = WORKLOADS[name](seed)
    work = root / ".bench_run" / name
    runs_dir = work / f"runs-{os.getpid()}"
    shutil.rmtree(runs_dir, ignore_errors=True)
    runs_dir.mkdir(parents=True)
    ledger = Ledger(workload, runs_dir)
    try:
        if trace:
            metrics, note, tracer = measure_layers(workload, ledger, seconds, env)
            tracer.write(work / "spans.jsonl")
        else:
            metrics, note = measure_end_to_end(workload, ledger, seconds, env)
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
    failed = len(ledger.failures)
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": ledger.attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=name, seed=seed, seconds=seconds,
                  trace=int(trace), failures=ledger.failures,
                  environment=env_record, **note)
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    counts = ", ".join(f"{k}={v}" for k, v in note.items() if not isinstance(v, list))
    print(f"{name} seed={seed}: {shown}; failed_ops={failed}/{ledger.attempted}"
          f" = {failed / ledger.attempted:.3g} ({counts})")
    for problems in ledger.failures[:3]:
        print(f"  failure: {'; '.join(problems)[:500]}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "bgkspectral" / "__init__.py").is_file():
        print(f"error: {src / 'bgkspectral'} not found; run from the root of a "
              "bgkspectral checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    import bgkspectral.cli
    if Path(bgkspectral.cli.__file__).resolve().parent != (src / "bgkspectral").resolve():
        print(f"error: imported bgkspectral from {bgkspectral.cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    env_record = environment(root)
    print("environment: " + json.dumps(env_record))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  root, env, env_record)
               for name in names}
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
