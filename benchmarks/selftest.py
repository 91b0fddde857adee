"""Self-test of the benchmark harness; takes under a minute.

    python3 benchmarks/selftest.py      # from the root of a checkout

1. Every workload, with `--trace 0` and `--trace 1` and a one-second run,
   prints a last line whose schema matches BENCHMARK.json, with `correct`
   true and no failed operation.
2. Deliberately corrupted artifacts are caught by the checks and counted as
   failed operations.
3. In a directory holding only BENCHMARK.json and the benchmark, `run.py`
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_schema(spec: dict, workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, \
        set(result["metrics"]) ^ {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    print(f"ok   schema {workload} --trace {trace}")


def check_corruption(scratch: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from run import Ledger
    from workloads import KnLab

    def bump_last_norm(out: Path) -> None:
        path = out / "norms.csv"
        lines = path.read_text().splitlines()
        t, norm = lines[-1].split(",")
        lines[-1] = f"{t},{float(norm) * 1.5!r}"
        path.write_text("\n".join(lines) + "\n")

    def append_blank(out: Path) -> None:
        with open(out / "kn_table.csv", "a") as fh:
            fh.write("\n")

    def change_kn(out: Path) -> None:
        path = out / "kn_table.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-6))
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    def unconverge(out: Path) -> None:
        path = out / "kn_table.csv"
        path.write_text(path.read_text().replace(",true\n", ",false\n", 1))

    for corrupt, expect in ((bump_last_norm, "norm increases"),
                            (append_blank, "artifacts differ"),
                            (change_kn, "kn0"),
                            (unconverge, "converged is false")):
        workload = KnLab(0)
        ledger = Ledger(workload, scratch / corrupt.__name__)
        calls = []

        def run(out: Path) -> None:
            workload.run(out)
            calls.append(out)
            if len(calls) == 2:
                corrupt(out)

        times = [ledger.op(run) for _ in range(3)]
        assert ledger.attempted == 3 and len(ledger.failures) == 1, ledger.failures
        assert times[1] is None and times[0] is not None and times[2] is not None
        assert any(expect in p for p in ledger.failures[0]), ledger.failures
        print(f"ok   corrupted artifact counted ({corrupt.__name__}: "
              f"{ledger.failures[0][0]})")


def check_bare_directory(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "kn_lab", 0)
    assert proc.returncode != 0, proc.stdout
    assert "{" not in proc.stdout, proc.stdout
    print("ok   bare directory exits", proc.returncode, "without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".bench_run" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        check_bare_directory(scratch)
        check_corruption(scratch)
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                check_schema(spec, workload, trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
