"""Golden bytes of the CSV and SVG writers.

Every artifact's bytes follow from these formats, so the reruns and the
benchmark oracles rely on them staying fixed.
"""

import numpy as np
import pytest

import nhskin.io
from nhskin.io import fmt_complex, fmt_float, write_csv, write_svg_heatmap

NAN, INF = float("nan"), float("inf")

HEADER = ["i", "f", "b", "c", "s"]
COLUMNS = [
    np.array([0, -3, 7, 12, 100, 2**40]),
    np.array([1e-05, 1e16, -0.0, NAN, INF, 0.1]),
    np.array([True, False, True, False, True, False]),
    np.array([1 - 2j, complex(0.5, NAN), complex(-0.0, -0.0), complex(INF, 1e-300), 0.1 + 0.2j, 3]),
    ["skin", "", "bulk", "a b", "x", "y"],
]
GOLDEN_CSV = (
    "i,f,b,c,s\n"
    "0,1e-05,1,1.0-2.0i,skin\n"
    "-3,1e+16,0,0.5+nani,\n"
    "7,-0.0,1,-0.0+0.0i,bulk\n"
    "12,nan,0,inf+1e-300i,a b\n"
    "100,inf,1,0.1+0.2i,x\n"
    "1099511627776,0.1,0,3.0+0.0i,y\n"
)


def test_csv_formats_each_dtype(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, HEADER, COLUMNS)
    assert path.read_text() == GOLDEN_CSV


def test_csv_float_cells_are_fmt_float(tmp_path):
    values = [1e-05, 1e16, -0.0, NAN, INF, -INF, 0.1, 1 / 3, 5e-324, 1.7976931348623157e308]
    path = tmp_path / "f.csv"
    write_csv(path, ["f"], [values])
    assert path.read_text().splitlines()[1:] == [fmt_float(v) for v in values]
    assert fmt_complex(complex(1e-05, -INF)) == "1e-05-infi"


def test_csv_empty_table_is_its_header(tmp_path):
    path = tmp_path / "e.csv"
    write_csv(path, ["a", "b"], [[], []])
    assert path.read_text() == "a,b\n"


_SVG_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">\n'
    '<rect width="640" height="480" fill="white"/>\n'
    '<text x="320" y="20" text-anchor="middle" font-family="sans-serif" font-size="14">{}</text>\n'
)


def test_heatmap_skips_cells_at_or_below_zero(tmp_path):
    path = tmp_path / "h.svg"
    write_svg_heatmap(path, [[0.0, 1.0, 0.5], [0.25, 0.0, -1.0]], title="t")
    assert path.read_text() == _SVG_HEAD.format("t") + (
        '<rect x="230.0" y="50.0" width="180.5" height="190.5" fill="rgb(0,0,0)"/>\n'
        '<rect x="410.0" y="50.0" width="180.5" height="190.5" fill="rgb(127,127,127)"/>\n'
        '<rect x="50.0" y="240.0" width="180.5" height="190.5" fill="rgb(191,191,191)"/>\n'
        "</svg>\n"
    )


def test_heatmap_subsamples_wide_grids(tmp_path):
    # 5 columns over max_cols = 2: every third column (0 and 3) is drawn
    path = tmp_path / "w.svg"
    write_svg_heatmap(path, np.arange(10.0).reshape(2, 5), title="w", max_cols=2)
    assert path.read_text() == _SVG_HEAD.format("w") + (
        '<rect x="320.0" y="50.0" width="270.5" height="190.5" fill="rgb(159,159,159)"/>\n'
        '<rect x="50.0" y="240.0" width="270.5" height="190.5" fill="rgb(95,95,95)"/>\n'
        '<rect x="320.0" y="240.0" width="270.5" height="190.5" fill="rgb(0,0,0)"/>\n'
        "</svg>\n"
    )


def test_csv_rows_span_write_chunks(tmp_path):
    n = 2 * nhskin.io._CHUNK_ROWS + 3
    ints, floats = np.arange(n), np.arange(n) / 7
    path = tmp_path / "c.csv"
    write_csv(path, ["i", "f"], [ints, floats])
    rows = [f"{i},{fmt_float(x)}\n" for i, x in zip(ints.tolist(), floats.tolist())]
    assert path.read_text() == "i,f\n" + "".join(rows)


def test_csv_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "r.csv", ["a", "b"], [[1, 2], [1]])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "r.csv", ["a", "b"], [[1, 2]])


def test_heatmap_refuses_non_finite_cells(tmp_path):
    with pytest.raises(ValueError):
        write_svg_heatmap(tmp_path / "n.svg", [[0.0, NAN], [1.0, 2.0]])
