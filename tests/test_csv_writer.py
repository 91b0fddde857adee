"""`csv_writer.format_cells` against CPython's own '%.17g', the oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgkspectral import cli, csv_writer, diagnostics
from bgkspectral.orthopoly import eval_poly_all, hermite_eval_all


def _texts(values) -> list[bytes]:
    cells = csv_writer.format_cells(np.asarray(values, np.float64))
    return [row.tobytes().replace(b"\0", b"") for row in cells.reshape(-1, csv_writer.WIDTH)]


def _assert_percent(values) -> None:
    values = np.asarray(values, np.float64).ravel()
    got = _texts(values)
    want = [b"%.17g" % v for v in values.tolist()]
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, wrong[:10]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=256))
def test_every_bit_pattern_prints_as_percent_17g(bits):
    # Raw patterns cover both zeros, subnormals, infinities and NaNs as well
    # as every exponent of the normal range.
    _assert_percent(np.array(bits, np.uint64).view(np.float64))


def _neighbours(values):
    values = np.asarray(values, np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0),
                           np.nextafter(values, np.inf)])


BOUNDARIES = {
    # Every power of ten that is a positive double, with its neighbours.
    "powers_of_ten": _neighbours([float(f"1e{k}") for k in range(-320, 309)]),
    # Where the notation switches between exponent and fixed.
    "switch_points": _neighbours([1e-4 * (1 - 2 ** -52), 1e-4, 9.9999999999999999e16,
                                  1e17, 1e16, 0.001, 1e-5]),
    # Seventeen nines: the doubles nearest a carry into the next power of
    # ten (none carries, since 17 digits tell every pair of doubles apart),
    # where log10 may also round up to the next integer.
    "nines": _neighbours([float("99999999999999999e%d" % k)
                          for k in range(-323, 292, 3)]),
    # x 10^(16 - X) lands exactly on a half: the tie goes to the even digit.
    "exact_ties": np.array([2091755748717130.8, 2091755748717131.2, 1.5e15 + 0.25,
                            1.5e15 + 0.75, 123456789012345.125]),
    "integers": np.concatenate([np.arange(0.0, 1e5), 10.0 ** np.arange(18),
                                np.random.default_rng(5).integers(0, 10 ** 17, 10000)
                                .astype(float)]),
    "extremes": np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                          2.2250738585072014e-308, 1.7976931348623157e308,
                          math.inf, -math.inf, math.nan, -math.nan]),
}


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_boundary_values_print_as_percent_17g(name):
    values = BOUNDARIES[name]
    _assert_percent(np.concatenate([values, -values]))


def test_exact_ties_need_no_fallback(monkeypatch):
    # The halves sit in the fixed range, where 10^(16 - X) is exact, so the
    # vectorized digits, not the per-value fallback, must round them to even.
    ties = BOUNDARIES["exact_ties"]
    for v in ties.tolist():
        assert (Fraction(v) * 10 ** (16 - math.floor(math.log10(v)))).denominator == 2
    fallback, text = [], csv_writer._text
    monkeypatch.setattr(csv_writer, "_text",
                        lambda strings, width=0: fallback.append(strings)
                        or text(strings, width))
    _assert_percent(np.concatenate([ties, -ties]))
    assert fallback == []


def test_text_follows_the_values_shape():
    values = np.array([[1.5, -2.0, 3e-7], [0.0, 1e300, 12.25]])
    cells = csv_writer.format_cells(values)
    assert cells.shape == (2, 3, csv_writer.WIDTH)
    assert _texts(values) == [b"%.17g" % v for v in values.ravel().tolist()]


def test_fig4_snapshots_match_a_plain_percent_loop(tmp_path):
    result = cli.simulate(cli.RunConfig.from_dict(cli.PRESETS["doublewell_fig4"]))
    cli.write_artifacts(result, tmp_path)
    grid = cli.SNAPSHOT_GRID.tolist()
    assert len(result.snapshots) == 6
    cfg = result.config
    p = eval_poly_all(result.table, cfg.N, cli.SNAPSHOT_GRID)
    hermite = hermite_eval_all(cfg.K, cli.SNAPSHOT_GRID)
    for t, c in result.snapshots:
        h = diagnostics.snapshot(c, p, hermite).tolist()
        lines = ["x,v,h\n"]
        for i, x in enumerate(grid):
            for j, v in enumerate(grid):
                lines.append("%.17g,%.17g,%.17g\n" % (x, v, h[i][j]))
        path = tmp_path / f"snapshot_{t:g}.csv"
        assert path.read_text() == "".join(lines), path.name


def _read_rows(path):
    return path.read_text().splitlines()


@pytest.mark.parametrize("rows", [0, 1, csv_writer.CHUNK_ROWS,
                                  2 * csv_writer.CHUNK_ROWS + 7])
def test_write_csv_matches_a_percent_loop_across_chunks(tmp_path, rows):
    rng = np.random.default_rng(rows)
    a, b = rng.standard_normal((2, rows)) * 10.0 ** rng.integers(-8, 8, (2, rows))
    flags = [["true", "false"][i % 2] for i in range(rows)]
    empty = np.zeros((1, 0), np.uint8)
    path = tmp_path / "t.csv"
    csv_writer.write_csv(path, "a,b,c,d,e", [a, b, empty,
                                              csv_writer.text_cells(flags), a])
    want = ["a,b,c,d,e"] + ["%.17g,%.17g,,%s,%.17g" % (x, y, f, x)
                            for x, y, f in zip(a.tolist(), b.tolist(), flags)]
    assert _read_rows(path) == want


@pytest.mark.parametrize("shape", [(3, 5), (2, csv_writer.CHUNK_ROWS + 3),
                                   (csv_writer.CHUNK_ROWS // 7 + 2, 7)])
def test_write_csv_broadcasts_a_grid_in_whole_lines(tmp_path, shape):
    # The snapshot layout: x cells along the first axis, v cells along the
    # second, one value per (x, v).
    rng = np.random.default_rng(sum(shape))
    xs, vs = rng.standard_normal(shape[0]), rng.standard_normal(shape[1])
    h = rng.standard_normal(shape)
    path = tmp_path / "g.csv"
    csv_writer.write_csv(path, "x,v,h", [csv_writer.format_cells(xs)[:, None],
                                         csv_writer.format_cells(vs)[None], h])
    want = ["x,v,h"] + ["%.17g,%.17g,%.17g" % (x, v, h[i, j])
                        for i, x in enumerate(xs.tolist())
                        for j, v in enumerate(vs.tolist())]
    assert _read_rows(path) == want
