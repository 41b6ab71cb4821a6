"""Spectral topology under periodic boundaries: point gaps and winding.

By the argument principle, the winding of det[H(k) - E_B] as k crosses the
Brillouin zone is the number of roots of beta^q det[E_B - H(beta)] inside the
unit circle minus the pole order q, and the point gap is closed exactly when
a root lies on |beta| = 1.  One batched solve of the model's characteristic
polynomial, `_windings`, thus decides both for every base point; no k-grid is
sampled or refined.  A vanishing leading coefficient is a root at inf, which
lies outside, a vanishing trailing one a root at 0, inside, and a base point
on a flat band, where every coefficient vanishes, closes the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GapClosedError
from .model import LatticeModel, _char_roots, bloch_samples, char_poly


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
    # a root at inf lies outside, one at 0 inside; nan rows are flat bands
    mods = np.abs(_char_roots(cp.at(E_B)))
    margin = np.abs(mods - 1).min(axis=1)
    margin[np.isnan(margin)] = 0.0
    return np.where(margin > gap_tol, (mods < 1).sum(axis=1) + cp.lo[0], np.nan), margin


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
                gap_tol: float = 1e-6) -> tuple:
    """Winding over a base-point grid for phase-diagram CSV export: the flat
    columns (Re E_B, Im E_B, w), Re E_B the outer loop, w nan where the gap closes."""
    axes = np.linspace(*re_range, resolution), np.linspace(*im_range, resolution)
    re, im = (x.ravel() for x in np.meshgrid(*axes, indexing="ij"))
    return re, im, _windings(model, re + 1j * im, gap_tol)[0]
