"""Run one workload once in a fresh process and print its peak memory.

    python3 benchmarks/child.py <workload> <seed> <out_dir>

Prints the peak resident memory of this process in MiB as the last line.
`src/` must be on PYTHONPATH.  The peak is VmHWM, the high-water mark of this
process's own address space: `getrusage` would also report the parent's peak,
which a child spawned with vfork inherits at exec.
"""

from __future__ import annotations

import sys
from pathlib import Path

from workloads import WORKLOADS


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM not reported by /proc/self/status")


def main(argv: list[str]) -> int:
    name, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    WORKLOADS[name](seed).run(out_dir)
    print(peak_rss_kib() / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
