"""File output and number formatting.

All text output is deterministic: floats are printed with repr (shortest
round-trip form), rows are written in a fixed order, and manifests carry no
timestamps, so identical configurations produce byte-identical files.
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


# cell format by dtype kind; anything else (ints, strings) goes through str
_FORMATS = {"b": lambda v: "1" if v else "0", "f": repr, "c": fmt_complex}
_CHUNK_ROWS = 8192


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """One column per header entry, each formatted once by its dtype: floats
    as `fmt_float`, ints with str, bools as 1/0, complex as `fmt_complex`,
    strings unchanged.  Rows are written in chunks, so no whole-file string
    is built."""
    import numpy as np

    n = len(columns[0]) if len(columns) else 0
    if len(columns) != len(header) or any(len(c) != n for c in columns):
        raise ValueError("write_csv needs one column per header entry, all of one length")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _CHUNK_ROWS):
            cells = []
            for col in columns:
                a = np.asarray(col[lo : lo + _CHUNK_ROWS])
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
    with open(path, "wb") as fh:
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


def _scale(vals, lo_px, hi_px):
    import numpy as np

    v = np.asarray(vals, dtype=float)
    vmin, vmax = float(v.min()), float(v.max())
    span = vmax - vmin
    if span <= 0:
        span = 1.0
        vmin -= 0.5
    return lo_px + (v - vmin) / span * (hi_px - lo_px), (vmin, vmin + span)


def write_svg_scatter(path, groups, title="", xlabel="Re E", ylabel="Im E") -> None:
    """Minimal static scatter; groups = [(xs, ys, color, label), ...]."""
    import numpy as np

    xs_all = np.concatenate([np.asarray(g[0], float) for g in groups if len(g[0])])
    ys_all = np.concatenate([np.asarray(g[1], float) for g in groups if len(g[1])])
    body = _svg_open(title)
    px_all, (x0, x1) = _scale(xs_all, _MARG, _SVG_W - _MARG)
    py_all, (y0, y1) = _scale(ys_all, _SVG_H - _MARG, _MARG)
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
            for a, b in zip(px, py):
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
    with open(path, "w") as fh:
        fh.write("\n".join(body) + "\n")


def write_svg_heatmap(path, grid, title="", max_cols=240) -> None:
    """Grayscale heatmap of a 2D array (rows drawn top-down).

    Wide arrays are column-subsampled so the file stays small; data fidelity
    lives in the CSVs, the SVG is a quick look.
    """
    import numpy as np

    g = np.asarray(grid, dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("heatmap grid has non-finite entries")
    if g.shape[1] > max_cols:
        step = int(np.ceil(g.shape[1] / max_cols))
        g = g[:, ::step]
    vmax = g.max() if g.max() > 0 else 1.0
    nr, nc = g.shape
    cw = (_SVG_W - 2 * _MARG) / nc
    ch = (_SVG_H - 2 * _MARG) / nr
    # each drawn cell is an x prefix, a y and a shade suffix, all built once
    xs = [f'<rect x="{_MARG + j * cw:.1f}" y="' for j in range(nc)]
    tail = f'" width="{cw + 0.5:.1f}" height="{ch + 0.5:.1f}" fill="rgb('
    fills = [f'{tail}{s},{s},{s})"/>\n' for s in range(256)]
    with open(path, "w") as fh:
        fh.write("\n".join(_svg_open(title)) + "\n")
        for i in range(nr):
            y = f"{_MARG + i * ch:.1f}"
            v = g[i] / vmax
            cols = np.flatnonzero(v > 0)
            shades = (255 * (1 - v[cols])).astype(int)  # truncates like int() on 0 < v <= 1
            fh.write("".join(xs[j] + y + fills[s] for j, s in zip(cols.tolist(), shades.tolist())))
        fh.write("</svg>\n")


def write_manifest(outdir, payload: dict) -> None:
    """Config echo + versions; no timestamps, so reruns are byte-identical."""
    import numpy
    import scipy

    from . import __version__

    record = dict(payload)
    record["versions"] = {
        "nhskin": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
