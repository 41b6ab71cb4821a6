"""Golden bytes of the CSV and SVG writers, and how every writer replaces
the file at its path.

Every artifact's bytes follow from these formats, so the reruns and the
benchmark oracles rely on them staying fixed.
"""

import os
import re

import numpy as np
import pytest

import nhskin.io
from nhskin.io import (
    fmt_complex,
    fmt_float,
    write_csv,
    write_manifest,
    write_pgm,
    write_svg_heatmap,
    write_svg_scatter,
)

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


def test_heatmap_merges_runs_of_equal_shade(tmp_path):
    # the zero breaks the row; its right-hand 0.5 has the shade of the first run
    path = tmp_path / "m.svg"
    write_svg_heatmap(path, [[0.5, 0.5, 1.0, 0.0, 0.5]], title="m")
    assert path.read_text() == _SVG_HEAD.format("m") + (
        '<rect x="50.0" y="50.0" width="216.5" height="380.5" fill="rgb(127,127,127)"/>\n'
        '<rect x="266.0" y="50.0" width="108.5" height="380.5" fill="rgb(0,0,0)"/>\n'
        '<rect x="482.0" y="50.0" width="108.5" height="380.5" fill="rgb(127,127,127)"/>\n'
        "</svg>\n"
    )


def _cell_rects(grid, max_cols=240):
    """Reference heatmap: the cell width and one (x, y, shade) per drawn cell."""
    g = np.asarray(grid, dtype=float)
    if g.shape[1] > max_cols:
        g = g[:, :: int(np.ceil(g.shape[1] / max_cols))]
    vmax = g.max() if g.max() > 0 else 1.0
    nr, nc = g.shape
    cw, ch = 540 / nc, 380 / nr
    cells = [
        (f"{50 + j * cw:.1f}", f"{50 + i * ch:.1f}", int(255 * (1 - g[i, j] / vmax)))
        for i in range(nr)
        for j in range(nc)
        if g[i, j] / vmax > 0
    ]
    return cw, cells


_RECT = re.compile(r'<rect x="([-0-9.]+)" y="([-0-9.]+)" width="([0-9.]+)" height="[0-9.]+" fill="rgb\((\d+),')


@pytest.mark.parametrize("seed", range(6))
def test_merged_heatmap_keeps_every_cell_shade(tmp_path, seed):
    rng = np.random.default_rng(seed)
    nr, nc = rng.integers(1, 40, size=2)
    if seed == 5:  # wider than _SVG_COLS (every third column is drawn), and in three row blocks
        nr, nc = 100, 500
    # few levels, so that runs of equal shade are common; some cells <= 0
    grid = rng.integers(-1, 4, size=(nr, nc)) * rng.choice([1.0, 0.37])
    path = tmp_path / "p.svg"
    write_svg_heatmap(path, grid, title="p")
    cw, ref = _cell_rects(grid)
    column = {x: j for j, x in enumerate(f"{50 + j * cw:.1f}" for j in range(round(540 / cw)))}
    drawn = {}
    for x, y, width, shade in _RECT.findall(path.read_text()):
        j, k = column[x], round((float(width) - 0.5) / cw)
        assert k >= 1
        # the run's right edge is its last cell's, up to .1f rounding of x and width
        assert abs(float(x) + float(width) - (50 + (j + k) * cw + 0.5)) <= 0.1 + 1e-9
        for jj in range(j, j + k):
            assert (jj, y) not in drawn
            drawn[jj, y] = int(shade)
    assert drawn == {(column[x], y): s for x, y, s in ref}


def test_csv_rows_span_write_chunks(tmp_path):
    n = nhskin.io._CSV_CELLS + 3  # two columns: chunks of _CSV_CELLS // 2 rows
    ints, floats = np.arange(n), np.arange(n) / 7
    path = tmp_path / "c.csv"
    write_csv(path, ["i", "f"], [ints, floats])
    rows = [f"{i},{fmt_float(x)}\n" for i, x in zip(ints.tolist(), floats.tolist())]
    assert path.read_text() == "i,f\n" + "".join(rows)


def test_csv_wider_than_a_chunk_writes_row_by_row(tmp_path):
    n = nhskin.io._CSV_CELLS + 5
    columns = [np.array([j, -j, 2 * j]) / 4 for j in range(n)]
    path = tmp_path / "wide.csv"
    write_csv(path, [f"c{j}" for j in range(n)], columns)
    rows = [",".join(fmt_float(c[i]) for c in columns) for i in range(3)]
    header = ",".join(f"c{j}" for j in range(n))
    assert path.read_text() == "\n".join([header, *rows]) + "\n"


def test_csv_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "r.csv", ["a", "b"], [[1, 2], [1]])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "r.csv", ["a", "b"], [[1, 2]])


def test_heatmap_refuses_non_finite_cells(tmp_path):
    with pytest.raises(ValueError):
        write_svg_heatmap(tmp_path / "n.svg", [[0.0, NAN], [1.0, 2.0]])


# ------------------------------------------------- replacing the old artifact

# each writer with the file name it writes in a directory; manifest.json's is fixed
WRITERS = {
    "csv": ("t.csv", lambda d: write_csv(d / "t.csv", HEADER, COLUMNS)),
    "pgm": ("t.pgm", lambda d: write_pgm(d / "t.pgm", [[True, False, True], [False, False, True]])),
    "scatter": ("s.svg", lambda d: write_svg_scatter(d / "s.svg", [([0.0, 1.0], [1.0, -1.0], "red", "a")])),
    "heatmap": ("h.svg", lambda d: write_svg_heatmap(d / "h.svg", [[0.0, 1.0], [0.5, 0.25]], title="h")),
    "manifest": ("manifest.json", lambda d: write_manifest(d, {"command": "t", "sizes": [4]})),
}


def _fresh_bytes(tmp_path, kind) -> bytes:
    """The writer's bytes in a directory it creates its file in."""
    name, write = WRITERS[kind]
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    write(fresh)
    assert os.listdir(fresh) == [name]
    return (fresh / name).read_bytes()


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_writer_replaces_a_longer_file_with_a_new_one(tmp_path, kind):
    new = _fresh_bytes(tmp_path, kind)
    name, write = WRITERS[kind]
    path = tmp_path / name
    old = b"x" * (len(new) + 4096)
    path.write_bytes(old)
    with open(path, "rb") as held:  # an open handle keeps the old inode from reuse
        write(tmp_path)
        assert os.stat(path).st_ino != os.fstat(held.fileno()).st_ino
        assert held.read() == old  # the old file was not truncated
    assert path.read_bytes() == new


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_writer_replaces_a_symlink_and_leaves_its_target(tmp_path, kind):
    new = _fresh_bytes(tmp_path, kind)
    name, write = WRITERS[kind]
    target = tmp_path / "target.txt"
    target.write_bytes(b"keep me\n")
    (tmp_path / name).symlink_to(target)
    write(tmp_path)
    assert not (tmp_path / name).is_symlink()
    assert (tmp_path / name).read_bytes() == new
    assert target.read_bytes() == b"keep me\n"


def test_writer_replaces_hard_links_and_read_only_files(tmp_path):
    new = _fresh_bytes(tmp_path, "csv")
    path, other = tmp_path / "t.csv", tmp_path / "other.csv"
    other.write_bytes(b"other\n")
    os.link(other, path)
    other.chmod(0o444)
    write_csv(path, HEADER, COLUMNS)
    assert path.read_bytes() == new
    assert other.read_bytes() == b"other\n"
    assert os.stat(path).st_nlink == 1 and os.stat(other).st_nlink == 1


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_writer_creates_its_file_in_a_fresh_directory(tmp_path, kind):
    # the golden formats above, and no temporary or leftover file beside it
    new = _fresh_bytes(tmp_path, kind)
    assert new
    if kind == "csv":
        assert new.decode() == GOLDEN_CSV
