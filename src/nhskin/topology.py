"""Spectral topology under periodic boundaries: point gaps and winding.

By the argument principle, the winding of det[H(k) - E_B] as k crosses the
Brillouin zone is the number of roots of beta^q det[E_B - H(beta)] inside the
unit circle minus the pole order q, and the point gap is closed exactly when
a root lies on |beta| = 1.  One batched companion-matrix solve of the model's
characteristic polynomial, `_windings`, thus decides both for every base
point; no k-grid is sampled or refined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GapClosedError
from .model import _REL_COEFF_TOL, LatticeModel, _companion_roots, bloch_samples, char_poly


@dataclass(frozen=True)
class WindingResult:
    """w at E_B; raw_integral, the phase sum of det[H(k) - E_B] / 2pi on 257 k,
    cross-checks it; root_margin is the least | |beta| - 1 | over the roots."""

    w: int
    E_B: complex
    raw_integral: complex
    root_margin: float


def _windings(model: LatticeModel, E_B: np.ndarray, gap_tol: float):
    """Winding and root margin for each base point of the 1-D complex array
    E_B; the winding is nan where the gap is closed (margin <= gap_tol)."""
    if model.dimension != 1:
        raise ValueError("winding number is defined for 1D models only")
    if not np.isfinite(E_B).all():
        raise ValueError("base energies must be finite")
    cp = char_poly(model)
    c = cp.at(E_B)  # c[:, j] multiplies beta^(j + lo)
    small = np.abs(c) <= _REL_COEFF_TOL * np.abs(c).max(axis=1, keepdims=True)
    # vanishing leading coefficients are roots at infinity; a vanishing trailing
    # one is a root at 0, which the companion matrix counts inside
    top = small[:, ::-1].cumprod(axis=1).sum(axis=1)
    # all vanish where E_B lies on a flat band
    inside, margin = np.zeros(E_B.size), np.where(top == c.shape[1], 0.0, np.inf)
    for b in set(top):
        rows = top == b
        if c.shape[1] - b > 1:
            mods = np.abs(_companion_roots(c[rows, : c.shape[1] - b]))
            inside[rows] = (mods < 1).sum(axis=1)
            margin[rows] = np.abs(mods - 1).min(axis=1)
    return np.where(margin > gap_tol, inside + cp.lo[0], np.nan), margin


def point_gap_open(model: LatticeModel, E_B, k_grid: int = 2048, gap_tol: float = 1e-6) -> dict:
    """Whether no characteristic root lies within gap_tol of |beta| = 1, and the
    least distance from E_B to the bands sampled on `k_grid` points."""
    E_B = complex(E_B)
    _, (margin,) = _windings(model, np.array([E_B]), gap_tol)
    ks = np.linspace(-np.pi, np.pi, int(k_grid), endpoint=False)
    Hs = bloch_samples(model, ks[:, None])
    bands = Hs[:, :, 0] if model.bands == 1 else np.linalg.eigvals(Hs)
    return {"open": bool(margin > gap_tol), "min_dist": float(np.abs(bands - E_B).min())}


def winding_number(model: LatticeModel, E_B, gap_tol: float = 1e-6) -> WindingResult:
    """Spectral winding of det[H(k)] - E_B as k crosses the Brillouin zone;
    GapClosedError where the point gap at E_B is closed and w is undefined."""
    E_B = complex(E_B)
    (w,), (margin,) = _windings(model, np.array([E_B]), gap_tol)
    if np.isnan(w):
        raise GapClosedError(f"point gap closed at E_B={E_B} (characteristic root within "
                             f"{margin:.3e} of |beta| = 1); winding undefined there")
    ks = np.linspace(-np.pi, np.pi, 257)
    Hs = bloch_samples(model, ks[:, None])
    f = Hs[:, 0, 0] - E_B if model.bands == 1 else np.linalg.det(Hs - E_B * np.eye(model.bands))
    raw = np.angle(f[1:] / f[:-1]).sum() / (2 * np.pi)
    return WindingResult(w=int(w), E_B=E_B, raw_integral=complex(raw), root_margin=float(margin))


def predict_skin_side(w):
    """Localization side implied by the winding: negative piles up right,
    positive left, zero none.  Accepts a WindingResult or a bare integer."""
    value = w.w if isinstance(w, WindingResult) else int(w)
    return "right" if value < 0 else "left" if value > 0 else None


def winding_map(model: LatticeModel, re_range, im_range, resolution: int = 40,
                gap_tol: float = 1e-6) -> list:
    """Winding over a base-point grid for phase-diagram CSV export: rows
    (Re E_B, Im E_B, w), Re E_B the outer loop, w blank where the gap closes."""
    res = np.linspace(*re_range, resolution)
    ims = np.linspace(*im_range, resolution)
    w, _ = _windings(model, (res[:, None] + 1j * ims).ravel(), gap_tol)
    cells = ((float(re), float(im)) for re in res for im in ims)
    return [(re, im, "" if np.isnan(wi) else int(wi)) for (re, im), wi in zip(cells, w)]
