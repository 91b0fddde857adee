"""The CSV text of the artifacts, written with the standard library alone.

`cli.write_artifacts` writes every file through `write_csv`.  Run as a
script, this module is its second writer process: it reads snapshot files,
marshalled, on standard input and writes each through the same functions.
It imports neither numpy nor the package, so with `-I -S` the process starts
in 10-25 ms on a 2-core VM, where importing the package takes 0.3 s.
"""

import marshal
import sys
from array import array


def write_csv(path, header: str, row_template: str, rows) -> None:
    """Write `header`, then `row_template % row` for each value tuple in `rows`.

    '%.17g' % x gives the same text as f"{x:.17g}"; one `%` per row instead
    of one format call per cell is what keeps large snapshots cheap.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row_template % row)


def snapshot_rows(values, xs_text: list[str]):
    """Value tuples (x, h_0, x, h_1, ...) of one snapshot, one per x.

    `values` holds h row by row, one row per entry of `xs_text`, as a flat
    numpy array or an `array("d")`: both slice and convert by `tolist()`.
    """
    width = len(values) // len(xs_text)
    cells = [None] * (2 * width)
    for i, x_text in enumerate(xs_text):
        cells[::2] = (x_text,) * width
        cells[1::2] = values[i * width:(i + 1) * width].tolist()
        yield tuple(cells)


def main() -> int:
    """Write the snapshots on standard input: a count, then one marshalled
    (path, row template, x texts, float64 bytes of h) per file.  A failure
    exits 1 with its message as the one line on standard error."""
    try:
        for _ in range(marshal.load(sys.stdin.buffer)):
            path, row_template, xs_text, raw = marshal.load(sys.stdin.buffer)
            write_csv(path, "x,v,h", row_template,
                      snapshot_rows(array("d", raw), xs_text))
    except Exception as exc:
        sys.stderr.write(str(exc) or type(exc).__name__)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
