"""File output and number formatting.

All text output is deterministic: floats are printed with repr (shortest
round-trip form), rows are written in a fixed order, and manifests carry no
timestamps, so identical configurations produce byte-identical files.

Every writer creates its file anew: whatever is at the path is unlinked
first, never truncated and written through, which on a rerun into the same
directory is also the cheaper of the two.  So a symlink or hard link at an
artifact path is replaced by a regular file (its target, or the file's other
name, keeps the old bytes), and a read-only artifact in a writable directory
is replaced too.
"""

from __future__ import annotations

import json
import os
from typing import Sequence


def fmt_float(x) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def fmt_complex(z) -> str:
    """Complex literal in the ``a+bi`` form used on the command line."""
    z = complex(z)
    sign = "+" if z.imag >= 0 or z.imag != z.imag else "-"
    return f"{fmt_float(z.real)}{sign}{fmt_float(abs(z.imag))}i"


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` literals (also bare reals and ``bi``).

    Python's complex() already handles the grammar once the trailing i is
    turned into j; parentheses are not accepted.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if s[-1] in "iI":
        s = s[:-1] + "j"
    if s in ("j", "-j", "+j"):
        s = s[:-1] + "1j"
    elif s.endswith("+j") or s.endswith("-j"):
        s = s[:-1] + "1j"
    try:
        return complex(s)
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}; expected a+bi") from None


def _new_file(path, mode="w", **kwargs):
    """open(path, mode) on a file created anew, after unlinking any old one."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, mode, **kwargs)


# cell format by dtype kind; anything else (ints, strings) goes through str
_FORMATS = {"b": lambda v: "1" if v else "0", "f": repr, "c": fmt_complex}
# cells held per write, not rows, so a wide table or grid holds no more in
# memory than a narrow one
_CSV_CELLS = 3 * 8192
_SVG_CELLS = 8192
_SVG_COLS = 240  # a wider heatmap grid is column-subsampled


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """One column per header entry, each formatted once by its dtype: floats
    as `fmt_float`, ints with str, bools as 1/0, complex as `fmt_complex`,
    strings unchanged.  Rows are written in chunks of about `_CSV_CELLS`
    cells, so no whole-file string is built."""
    import numpy as np

    n = len(columns[0]) if len(columns) else 0
    if len(columns) != len(header) or any(len(c) != n for c in columns):
        raise ValueError("write_csv needs one column per header entry, all of one length")
    rows = max(1, _CSV_CELLS // max(1, len(columns)))
    with _new_file(path, newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, rows):
            cells = []
            for col in columns:
                a = np.asarray(col[lo : lo + rows])
                cells.append(map(_FORMATS.get(a.dtype.kind, str), a.tolist()))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_pgm(path, occupancy) -> None:
    """Binary PGM (P5) of a boolean grid.

    Grid convention: occupancy[ix, iy] with ix the horizontal axis and iy
    increasing upward; the image is written top row first.
    """
    import numpy as np

    occ = np.asarray(occupancy, dtype=bool)
    nx, ny = occ.shape
    img = np.where(occ.T[::-1], 0, 255).astype(np.uint8)  # occupied = black
    with _new_file(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


# ---------------------------------------------------------------- SVG helpers

_SVG_W, _SVG_H, _MARG = 640, 480, 50


def _svg_open(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


def _scale(v):
    """The (low, high) axis range of the float array v; a constant gets a unit range."""
    vmin, vmax = float(v.min()), float(v.max())
    span = vmax - vmin
    if span <= 0:
        span = 1.0
        vmin -= 0.5
    return vmin, vmin + span


def write_svg_scatter(path, groups, title="", xlabel="Re E", ylabel="Im E") -> None:
    """Minimal static scatter; groups = [(xs, ys, color, label), ...]."""
    import numpy as np

    xs_all = np.concatenate([np.asarray(g[0], float) for g in groups if len(g[0])])
    ys_all = np.concatenate([np.asarray(g[1], float) for g in groups if len(g[1])])
    body = _svg_open(title)
    x0, x1 = _scale(xs_all)
    y0, y1 = _scale(ys_all)
    body.append(
        f'<rect x="{_MARG}" y="{_MARG}" width="{_SVG_W - 2 * _MARG}" '
        f'height="{_SVG_H - 2 * _MARG}" fill="none" stroke="black"/>'
    )
    for lab, px, py in (
        (f"{x0:.3g}", _MARG, _SVG_H - _MARG + 16),
        (f"{x1:.3g}", _SVG_W - _MARG, _SVG_H - _MARG + 16),
    ):
        body.append(
            f'<text x="{px}" y="{py}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{lab}</text>'
        )
    body.append(
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    body.append(
        f'<text x="14" y="{_SVG_H // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 14 {_SVG_H // 2})">{ylabel}</text>'
    )
    legend_y = _MARG + 12
    for xs, ys, color, label in groups:
        xs = np.asarray(xs, float)
        ys = np.asarray(ys, float)
        if len(xs):
            px = _MARG + (xs - x0) / (x1 - x0) * (_SVG_W - 2 * _MARG)
            py = (_SVG_H - _MARG) + (ys - y0) / (y1 - y0) * (2 * _MARG - _SVG_H)
            for a, b in zip(px.tolist(), py.tolist()):
                body.append(f'<circle cx="{a:.1f}" cy="{b:.1f}" r="2" fill="{color}"/>')
        if label:
            body.append(
                f'<circle cx="{_SVG_W - _MARG - 100}" cy="{legend_y - 4}" r="3" fill="{color}"/>'
            )
            body.append(
                f'<text x="{_SVG_W - _MARG - 92}" y="{legend_y}" font-family="sans-serif" '
                f'font-size="11">{label}</text>'
            )
            legend_y += 14
    body.append("</svg>")
    with _new_file(path) as fh:
        fh.write("\n".join(body) + "\n")


def write_svg_heatmap(path, grid, title="") -> None:
    """Grayscale heatmap of a 2D array (rows drawn top-down).

    Arrays wider than `_SVG_COLS` are column-subsampled so the file stays
    small; data fidelity lives in the CSVs, the SVG is a quick look.  Cells
    <= 0 are not drawn, and each row's run of k adjacent cells of one shade
    is one rect of width k * cw + 0.5.
    """
    import numpy as np

    g = np.asarray(grid, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("heatmap grid has non-finite entries")
    if g.shape[1] > _SVG_COLS:
        step = int(np.ceil(g.shape[1] / _SVG_COLS))
        g = g[:, ::step]
    vmax = g.max() if g.max() > 0 else 1.0
    nr, nc = g.shape
    cw = (_SVG_W - 2 * _MARG) / nc
    ch = (_SVG_H - 2 * _MARG) / nr
    # a run is an x prefix, a y, a width by run length and a shade, all built once
    xs = [f'<rect x="{_MARG + j * cw:.1f}" y="' for j in range(nc)]
    tail = f'" height="{ch + 0.5:.1f}" fill="rgb('
    widths = [f'" width="{k * cw + 0.5:.1f}{tail}' for k in range(nc + 1)]
    fills = [f'{s},{s},{s})"/>\n' for s in range(256)]
    block = max(1, _SVG_CELLS // nc)
    with _new_file(path) as fh:
        fh.write("\n".join(_svg_open(title)) + "\n")
        for lo in range(0, nr, block):
            v = g[lo : lo + block] / vmax
            # -1 marks undrawn cells; 255 * (1 - v) truncates like int() on 0 < v <= 1
            shade = np.where(v > 0, 255 * (1 - v), -1).astype(int)
            # -2 at both ends of each row differs from every shade, so no run crosses rows
            edge = np.full((len(v), 1), -2)
            new = np.diff(np.hstack([edge, shade, edge]), axis=1) != 0
            drawn = shade >= 0
            starts = np.flatnonzero(new[:, :-1] & drawn)
            lengths = np.flatnonzero(new[:, 1:] & drawn) - starts + 1
            rows, cols = np.divmod(starts, nc)
            ys = [f"{_MARG + i * ch:.1f}" for i in range(lo, lo + len(v))]
            runs = zip(rows.tolist(), cols.tolist(), lengths.tolist(), shade.ravel()[starts].tolist())
            fh.write("".join(xs[j] + ys[i] + widths[k] + fills[s] for i, j, k, s in runs))
        fh.write("</svg>\n")


def write_manifest(outdir, payload: dict) -> None:
    """Config echo + versions; no timestamps, so reruns are byte-identical."""
    import numpy

    from . import __version__

    record = dict(payload)
    record["versions"] = {"nhskin": __version__, "numpy": numpy.__version__}
    with _new_file(os.path.join(outdir, "manifest.json")) as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
