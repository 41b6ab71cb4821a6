"""Spectral topology under periodic boundaries: point gaps and winding.

The winding number of det[H(k)] - E_B around zero is computed by unwrapped
phase accumulation on an adaptively refined k-grid rather than by numerical
differentiation of log det: the integrand is singular where the bands touch
E_B, while phase steps capped below pi/2 stay unambiguous all the way up to
the gap-closing tolerance.

Neither the Bloch bands nor H(k) on the starting k-grid depend on E_B, so
one call samples them once and works every base point from them:
`_windings` takes each point's gap distance from the shared band energies,
sums the phase steps of det[H(k) - E_B] for all open points in one array
pass, and bisects only the points where a step reaches pi/2.
`winding_number` and `point_gap_open` are its one-point case, and
`winding_map` runs it over a grid.  Base points are worked in chunks of
`_CHUNK`, so the work arrays do not grow with the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GapClosedError, WindingError
from .model import LatticeModel, bloch_samples

_STEP_CAP = np.pi / 2
_GAP_K = 2048  # k samples of the point-gap test
_CHUNK = 8  # base points per array pass; the gap pass holds 8 x 2048 x B energies
_K_INIT = 256  # k intervals before bisection
_MAX_ROUNDS = 30


@dataclass(frozen=True)
class WindingResult:
    w: int
    E_B: complex
    raw_integral: complex
    k_samples_used: int


class WindingMap(list):
    """Rows (Re E_B, Im E_B, w) of `winding_map`, w blank where the gap is
    closed or the winding is not integral; `bisected` counts the base points
    whose k-grid had to be refined."""

    def __init__(self, rows, bisected: int):
        super().__init__(rows)
        self.bisected = bisected


def _band_energies(model: LatticeModel, k_grid: int) -> np.ndarray:
    """Periodic band energies on `k_grid` points of the zone, shape (k_grid, B)."""
    ks = np.linspace(-np.pi, np.pi, int(k_grid), endpoint=False)
    Hs = bloch_samples(model, ks[:, None])
    return Hs[:, :, 0] if model.bands == 1 else np.linalg.eigvals(Hs)


def _gap_distances(bands: np.ndarray, E_B: np.ndarray) -> np.ndarray:
    """Least distance from each base point of the 1-D array E_B to the bands."""
    return np.abs(bands - E_B[:, None, None]).min(axis=(1, 2))


def _det_minus(Hs: np.ndarray, E_B: np.ndarray) -> np.ndarray:
    """det[H(k) - E_B], one row per base point of E_B, one column per k of Hs."""
    if Hs.shape[-1] == 1:
        return Hs[:, 0, 0] - E_B[:, None]
    return np.linalg.det(Hs - E_B[:, None, None, None] * np.eye(Hs.shape[-1]))


def _refine(model: LatticeModel, E_B: complex, ks, fs, max_rounds: int):
    """Bisect every k interval of one base point whose phase step reaches
    pi/2 until none does; (phase total / 2pi, k samples used), with a nan
    total if `max_rounds` bisections do not settle it."""
    for _ in range(max_rounds):
        steps = np.angle(fs[1:] / fs[:-1])
        bad = np.abs(steps) >= _STEP_CAP
        if not bad.any():
            return float(steps.sum()) / (2 * np.pi), len(ks)
        mid = 0.5 * (ks[:-1][bad] + ks[1:][bad])
        fmid = _det_minus(bloch_samples(model, mid[:, None]), np.array([E_B]))[0]
        at = np.flatnonzero(bad) + 1
        ks = np.insert(ks, at, mid)
        fs = np.insert(fs, at, fmid)
    return np.nan, len(ks)


def _windings(model: LatticeModel, E_B: np.ndarray, k_init: int, gap_tol: float,
              max_rounds: int):
    """Gap distance, phase total / 2pi, winding, k samples used and whether
    the grid was bisected, for each base point of the 1-D complex array E_B.
    The total is nan where the gap is closed (distance <= gap_tol) or the
    refinement did not settle; the winding is nan there too and where the
    total is not within 1e-4 of an integer."""
    if model.dimension != 1:
        raise ValueError("winding number is defined for 1D models only")
    bands = _band_energies(model, _GAP_K)
    ks = np.linspace(-np.pi, np.pi, int(k_init) + 1)
    Hs = bloch_samples(model, ks[:, None])
    dist = np.empty(E_B.size)
    total = np.full(E_B.size, np.nan)
    used = np.zeros(E_B.size, dtype=int)
    bisected = np.zeros(E_B.size, dtype=bool)
    for lo in range(0, E_B.size, _CHUNK):
        dist[lo : lo + _CHUNK] = _gap_distances(bands, E_B[lo : lo + _CHUNK])
        rows = lo + np.flatnonzero(dist[lo : lo + _CHUNK] > gap_tol)
        fs = _det_minus(Hs, E_B[rows])
        steps = np.angle(fs[:, 1:] / fs[:, :-1])
        total[rows] = steps.sum(axis=1) / (2 * np.pi)
        used[rows] = len(ks)
        refine = (np.abs(steps) >= _STEP_CAP).any(axis=1)
        bisected[rows[refine]] = True
        for i in np.flatnonzero(refine):
            total[rows[i]], used[rows[i]] = _refine(model, E_B[rows[i]], ks, fs[i], max_rounds)
    w = np.round(total)
    w[~(np.abs(total - w) < 1e-4)] = np.nan
    return dist, total, w, used, bisected


def point_gap_open(model: LatticeModel, E_B, k_grid: int = _GAP_K, gap_tol: float = 1e-6) -> dict:
    """Whether the periodic bands avoid E_B, and by how much."""
    if model.dimension != 1:
        raise ValueError("point-gap test is defined for 1D models only")
    (min_dist,) = _gap_distances(_band_energies(model, k_grid), np.array([complex(E_B)]))
    return {"open": bool(min_dist > gap_tol), "min_dist": float(min_dist)}


def winding_number(
    model: LatticeModel,
    E_B,
    k_init: int = _K_INIT,
    gap_tol: float = 1e-6,
    max_rounds: int = _MAX_ROUNDS,
) -> WindingResult:
    """Spectral winding of det[H(k)] - E_B as k crosses the Brillouin zone.

    Requires an open point gap at E_B (a closed gap marks a transition where
    the winding is undefined).  The k-grid is bisected wherever a phase step
    reaches pi/2, so the unwrapped total is exact once refinement stops.
    """
    E_B = complex(E_B)
    (dist,), (total,), (w,), (used,), _ = _windings(
        model, np.array([E_B]), k_init, gap_tol, max_rounds
    )
    if not dist > gap_tol:
        raise GapClosedError(
            f"point gap closed at E_B={E_B} (min band distance {dist:.3e}); "
            "winding undefined at a gap-closing transition"
        )
    if np.isnan(total):
        raise WindingError("phase refinement did not converge; gap too small?")
    if np.isnan(w):
        raise WindingError(
            f"phase integral {total:.6f} is not integral to 1e-4 at E_B={E_B}"
        )
    return WindingResult(w=int(w), E_B=E_B, raw_integral=complex(total), k_samples_used=int(used))


def predict_skin_side(w):
    """Localization side implied by the winding: negative piles up right,
    positive left, zero none.  Accepts a WindingResult or a bare integer."""
    value = w.w if isinstance(w, WindingResult) else int(w)
    if value < 0:
        return "right"
    if value > 0:
        return "left"
    return None


def winding_map(model: LatticeModel, re_range, im_range, resolution: int = 40,
                gap_tol: float = 1e-6):
    """Winding over a base-point grid; rows (Re E_B, Im E_B, w) with w blank
    where the gap closes.  Intended for phase-diagram CSV export.

    Returns a `WindingMap`: the list of rows, Re E_B the outer loop, plus
    the count of base points that needed bisection."""
    res = np.linspace(*re_range, resolution)
    ims = np.linspace(*im_range, resolution)
    E_B = np.empty((res.size, ims.size), dtype=complex)
    E_B.real, E_B.imag = res[:, None], ims[None, :]
    _, _, w, _, bisected = _windings(model, E_B.ravel(), _K_INIT, gap_tol, _MAX_ROUNDS)
    rows = (
        (float(e.real), float(e.imag), "" if np.isnan(wi) else int(wi))
        for e, wi in zip(E_B.ravel(), w)
    )
    return WindingMap(rows, int(bisected.sum()))
