"""Independent correctness checks for benchmark jobs.

`expectations(job)` runs once at set-up and computes what a job's output
must agree with, from closed forms or brute force that never call
`nhskin`.  `check(job, outdir, stdout, expect)` then reads the files and the
summary a job wrote and returns ``None`` when they agree, or the reason they
do not.  Both use numpy only.
"""

from __future__ import annotations

import csv
import os
import re

import numpy as np

K_FINE = 8192
# the reference winding count is trusted only this far from the PBC bands
GAP_TRUST = 0.02
# 2x the largest nearest-neighbour spacing of the 20x20 asym2d OBC spectrum
AMOEBA_INSIDE = 0.15
AMOEBA_OUTSIDE = 0.5
# `crossover` readings may fall by up to this many times the measured
# double-precision floor of a general eigensolve of the open chain (below)
CROSSOVER_FLOOR_FACTOR = 10.0


# ------------------------------------------------------------ Bloch models


def _bloch_bands(kind: str, params: dict, ks: np.ndarray) -> np.ndarray:
    """Band energies, shape (len(ks), bands), for H(k) = sum_D A_D e^{ikD}."""
    if kind.endswith("_hn"):
        jl, jr = params["jl"], params["jr"]
        return (jl * np.exp(1j * ks) + jr * np.exp(-1j * ks))[:, None]
    t1, t2, g = params["t1"], params["t2"], params["gamma"]
    # H(k) = [[0, t1 + g + t2 e^{-ik}], [t1 - g + t2 e^{ik}, 0]]
    root = np.sqrt((t1 + g + t2 * np.exp(-1j * ks)) * (t1 - g + t2 * np.exp(1j * ks)))
    return np.stack([root, -root], axis=1)


def winding_reference(kind: str, params: dict, energies) -> tuple:
    """Winding of det[H(k) - E_B] around 0 and the least band distance, for
    each base energy E_B, on a fine k-grid."""
    ks = np.linspace(-np.pi, np.pi, K_FINE + 1)
    diff = _bloch_bands(kind, params, ks)[None] - np.asarray(energies, dtype=complex)[:, None, None]
    det = diff.prod(axis=2)
    w = np.angle(det[:, 1:] / det[:, :-1]).sum(axis=1) / (2 * np.pi)
    return np.rint(w).astype(int), np.abs(diff).min(axis=(1, 2))


def _asym2d_obc_spectrum() -> np.ndarray:
    """Brute-force 20x20 open-boundary spectrum of asym2d(0.5, 1.0, 0.2)."""
    L = 20
    hops = {(1, 0): 0.5, (0, -1): 0.5, (-1, 0): 1.0, (0, 1): 1.0}
    hops.update({d: 0.2 for d in ((1, 1), (1, -1), (-1, 1), (-1, -1))})
    H = np.zeros((L * L, L * L))
    for x in range(L):
        for y in range(L):
            for (dx, dy), t in hops.items():
                if 0 <= x + dx < L and 0 <= y + dy < L:
                    H[x * L + y, (x + dx) * L + (y + dy)] = t
    return np.linalg.eigvals(H)


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=0).max(), d.min(axis=1).max()))


def _hn_obc_closed_form(jl: float, jr: float, N: int) -> np.ndarray:
    return (2 * np.sqrt(jl * jr) * np.cos(np.arange(1, N + 1) * np.pi / (N + 1))).astype(complex)


def crossover_reference(jl: float, jr: float, N: int) -> dict:
    """What a hatano-nelson `crossover` run must agree with.

    ``pbc_distance``: the Hausdorff distance between the periodic ring
    (epsilon = 1, a circulant, so its spectrum is exact in closed form) and
    the open chain.  ``floor``: how far a general eigensolve of the open
    chain lands from its closed form in double precision.  The chain is
    non-normal with eigenvalue condition numbers ~ (J_R/J_L)^(N/2), so
    readings at small epsilon carry roundoff of this size, not signal.
    """
    obc = _hn_obc_closed_form(jl, jr, N)
    pbc = jl * np.exp(2j * np.pi * np.arange(N) / N) + jr * np.exp(-2j * np.pi * np.arange(N) / N)
    H = np.diag(np.full(N - 1, jl), 1) + np.diag(np.full(N - 1, jr), -1)
    return {"pbc_distance": _hausdorff(pbc, obc), "floor": _hausdorff(np.linalg.eigvals(H), obc)}


def expectations(jobs: list) -> list:
    """Per-job reference data, in job order (JSON-serialisable)."""
    obc2d = None
    out = []
    for job in jobs:
        kind, p = job["kind"], job["params"]
        exp = {}
        if kind == "localize_hn":
            (w,), _ = winding_reference(kind, p, [0.0])
            exp["side"] = "right" if w < 0 else "left"
        elif kind.startswith("winding"):
            axis = np.linspace(-2.0, 2.0, p["grid"])
            (w0,), _ = winding_reference(kind, p, [0.0])
            exp["w0"] = int(w0)
            exp["map"] = []
            for re_ in axis:  # one grid row at a time keeps the arrays small
                ws, dmin = winding_reference(kind, p, re_ + 1j * axis)
                for im, w, d in zip(axis, ws, dmin):
                    exp["map"].append([float(re_), float(im), int(w) if d > GAP_TRUST else None])
        elif kind == "amoeba":
            if obc2d is None:
                obc2d = _asym2d_obc_spectrum()
            E = complex(p["energy"].replace("i", "j"))
            dist = float(np.abs(obc2d - E).min())
            exp["hole"] = None if AMOEBA_INSIDE < dist < AMOEBA_OUTSIDE else dist >= AMOEBA_OUTSIDE
        elif kind == "crossover":
            exp.update(crossover_reference(p["jl"], p["jr"], p["N"]))
        out.append(exp)
    return out


# ------------------------------------------------------------------ checks


def _rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _col(rows: list, name: str) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def _summary_counts(stdout: str) -> dict:
    """Parse `localize`'s "label/side: n, ..." summary into {(label, side): n}."""
    counts = {}
    for part in stdout.strip().splitlines()[-1].split(", "):
        key, n = part.rsplit(": ", 1)
        label, _, side = key.partition("/")
        counts[(label, side or None)] = int(n)
    return counts


def _number_after(stdout: str, prefix: str) -> float:
    m = re.search(re.escape(prefix) + r"\s*([-+0-9.eE]+)", stdout)
    if m is None:
        raise ValueError(f"no {prefix!r} line in output")
    return float(m.group(1))


def _spectrum_hn(job, outdir, stdout, exp):
    p = job["params"]
    rows = _rows(os.path.join(outdir, "obc_spectrum.csv"))
    re_e, im_e = _col(rows, "re_e"), _col(rows, "im_e")
    N = p["N"]
    want = _hn_obc_closed_form(p["jl"], p["jr"], N).real
    if len(re_e) != N:
        return f"{len(re_e)} eigenvalues, expected {N}"
    if np.abs(im_e).max() >= 1e-8:
        return f"max |Im E| = {np.abs(im_e).max():.3e} >= 1e-8"
    err = np.abs(np.sort(re_e) - np.sort(want)).max()
    return None if err < 1e-6 else f"closed-form deviation {err:.3e} >= 1e-6"


def _spectrum_ssh(job, outdir, stdout, exp):
    rows = _rows(os.path.join(outdir, "obc_spectrum.csv"))
    E = _col(rows, "re_e") + 1j * _col(rows, "im_e")
    if len(E) != 2 * job["params"]["N"]:
        return f"{len(E)} eigenvalues, expected {2 * job['params']['N']}"
    if np.abs(E.imag).max() >= 1e-8:
        return f"max |Im E| = {np.abs(E.imag).max():.3e} >= 1e-8"
    zero = int(np.sum(np.abs(E) < 1e-8))
    return None if zero == 2 else f"{zero} states with |E| < 1e-8, expected 2"


def _localize_hn(job, outdir, stdout, exp):
    counts = _summary_counts(stdout)
    want = {("skin", exp["side"]): job["params"]["N"]}
    return None if counts == want else f"labels {counts}, expected {want}"


_CIRCLE = re.compile(r'<circle cx="([-0-9.]+)" cy="[-0-9.]+" r="2" fill="(\w+)"/>')


def _localize_ssh(job, outdir, stdout, exp):
    counts = _summary_counts(stdout)
    n_topo = sum(n for (label, _), n in counts.items() if label == "topological_boundary")
    if n_topo != 2:
        return f"{n_topo} topological_boundary states, expected 2"
    if sum(counts.values()) != 2 * job["params"]["N"]:
        return f"{sum(counts.values())} states classified, expected {2 * job['params']['N']}"
    with open(os.path.join(outdir, "localize.svg")) as fh:
        pts = [(float(x), colour) for x, colour in _CIRCLE.findall(fh.read())]
    xs = [x for x, _ in pts]
    # the spectrum is chiral (E <-> -E), so E = 0 sits midway across the plot
    zero = 0.5 * (min(xs) + max(xs))
    at_zero = sorted(colour for x, colour in pts if abs(x - zero) < 2.0)
    if at_zero != ["goldenrod", "goldenrod"]:
        return f"states drawn at E = 0: {at_zero}, expected the two topological ones"
    return None


def _gbz(job, outdir, stdout, exp):
    p = job["params"]
    if job["kind"] == "gbz_hn":
        radius = np.sqrt(p["jr"] / p["jl"])
    else:
        radius = np.sqrt((p["t1"] - p["gamma"]) / (p["t1"] + p["gamma"]))
    rows = _rows(os.path.join(outdir, "gbz.csv"))
    if not rows:
        return "no GBZ samples"
    dev = np.abs(np.hypot(_col(rows, "re_beta"), _col(rows, "im_beta")) - radius).max()
    return None if dev < 1e-6 else f"| |beta| - {radius:.6f} | = {dev:.3e} >= 1e-6"


def _winding(job, outdir, stdout, exp):
    (point,) = _rows(os.path.join(outdir, "winding.csv"))
    if int(point["w"]) != exp["w0"]:
        return f"w(0) = {point['w']}, reference {exp['w0']}"
    rows = _rows(os.path.join(outdir, "winding_map.csv"))
    if len(rows) != len(exp["map"]):
        return f"{len(rows)} map rows, expected {len(exp['map'])}"
    for row, (re_, im, w) in zip(rows, exp["map"]):
        if abs(float(row["re_base"]) - re_) > 1e-12 or abs(float(row["im_base"]) - im) > 1e-12:
            return f"map point ({row['re_base']}, {row['im_base']}) out of order"
        if w is not None and row["w"] != str(w):
            return f"w({re_:+.4f}{im:+.4f}i) = {row['w']!r}, reference {w}"
    return None


def _amoeba(job, outdir, stdout, exp):
    if exp["hole"] is None:
        return f"energy {job['params']['energy']} is neither clearly inside nor outside"
    got = stdout.strip().splitlines()[-1]
    want = f"hole: {'true' if exp['hole'] else 'false'}"
    return None if got == want else f"{got!r}, brute force says {want!r}"


def _crossover(job, outdir, stdout, exp):
    rows = _rows(os.path.join(outdir, "crossover.csv"))
    d = _col(rows, "distance")
    if len(d) != 25 or float(rows[-1]["epsilon"]) != 1.0:
        return f"{len(d)} couplings up to {rows[-1]['epsilon']}, expected 25 up to 1"
    if abs(d[-1] - exp["pbc_distance"]) >= 1e-8:
        return f"distance {d[-1]:.9f} at epsilon = 1, closed form {exp['pbc_distance']:.9f}"
    drop = float(np.max(-np.diff(d)))
    tol = max(1e-9, CROSSOVER_FLOOR_FACTOR * exp["floor"])
    return None if drop < tol else f"distance falls by {drop:.3e} as epsilon grows (roundoff floor {exp['floor']:.3e})"


def _sensor_ssh(job, outdir, stdout, exp):
    slope = _number_after(stdout, "slope of ln|dE| vs N:")
    return None if slope > 0 else f"slope {slope} <= 0"


def _sensor_hn(job, outdir, stdout, exp):
    rows = _rows(os.path.join(outdir, "sensor.csv"))
    de = _col(rows, "delta_e")
    if [int(r["N"]) for r in rows] != job["params"]["sizes"]:
        return "sensor rows do not match the requested sizes"
    return None if np.all(np.isfinite(de)) and np.all(de > 0) else f"shifts {de.tolist()}"


def _reciprocity(job, outdir, stdout, exp):
    # asymmetric hopping makes |chi_ij| != |chi_ji|
    got = stdout.strip().splitlines()[-1]
    return None if got.startswith("reciprocal: false") else got


def _funnel(job, outdir, stdout, exp):
    mass = _number_after(stdout, "final density within 5 sites of the interface:")
    return None if mass >= 0.80 else f"interface mass {mass} < 0.80"


_CHECKS = {
    "spectrum_hn": _spectrum_hn,
    "spectrum_ssh": _spectrum_ssh,
    "localize_hn": _localize_hn,
    "localize_ssh": _localize_ssh,
    "gbz_hn": _gbz,
    "gbz_ssh": _gbz,
    "winding_hn": _winding,
    "winding_ssh": _winding,
    "amoeba": _amoeba,
    "crossover": _crossover,
    "sensor_ssh": _sensor_ssh,
    "sensor_hn": _sensor_hn,
    "reciprocity": _reciprocity,
    "funnel": _funnel,
}


def check(job: dict, outdir: str, stdout: str, expect: dict):
    """None when the job's output agrees with its oracle, else the reason."""
    try:
        return _CHECKS[job["kind"]](job, outdir, stdout, expect)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
