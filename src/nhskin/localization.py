"""State-profile analytics and the skin-vs-topological classifier.

Right-eigenvector density alone cannot tell a skin state from a topological
end state: both pile up at a boundary.  The biorthogonal density
<L|proj_n|R> separates them — it stays delocalized for skin states (its
participation ratio grows with system size) and stays boundary-pinned for
genuine topological modes.  Weights can be negative or complex, so the
participation ratio is taken on their absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import EPVicinityError
from .realspace import IndexMap, RealSpaceOperator

SKIN = "skin"
TOPOLOGICAL = "topological_boundary"
BULK = "bulk"


def _index_map(obj) -> IndexMap:
    if isinstance(obj, IndexMap):
        return obj
    if isinstance(obj, RealSpaceOperator):
        return obj.index_map
    raise TypeError("expected an IndexMap or RealSpaceOperator")


@dataclass
class SiteProfile:
    """Cell-resolved, orbital-summed weights of one state.

    kind 'right'/'left': nonnegative reals summing to 1.
    kind 'biorthogonal': complex weights summing to 1 (by <L|R> = 1).
    """

    weights: np.ndarray
    kind: str
    shape: Tuple[int, ...] = field(default=())

    @property
    def n_cells(self) -> int:
        return len(self.weights)

    @property
    def normalization(self) -> complex:
        return complex(self.weights.sum())


def _cell_sum(values: np.ndarray, imap: IndexMap) -> np.ndarray:
    """Orbital-summed cell values along the last axis (rows are sites)."""
    out = np.zeros(values.shape[:-1] + (imap.n_cells,), dtype=values.dtype)
    np.add.at(out, (..., imap.cell_index_of_rows()), values)
    return out


def _rows(v) -> np.ndarray:
    """One state as a single complex row."""
    return np.asarray(v, dtype=complex).reshape(1, -1)


def _right_weights(Rt: np.ndarray, imap: IndexMap) -> np.ndarray:
    """|psi_n|^2 per cell over <psi|psi>, one row per state (row of Rt)."""
    # stacked 1 x n @ n x 1 products: the same dot routine as numpy.vdot
    nrm2 = (np.conj(Rt)[:, None, :] @ Rt[:, :, None])[:, 0, 0].real
    if np.any(nrm2 == 0):
        raise ValueError("cannot profile the zero vector")
    return _cell_sum(np.abs(Rt) ** 2, imap) / nrm2[:, None]


def _bio_weights(Lc: np.ndarray, Rt: np.ndarray, imap: IndexMap) -> np.ndarray:
    """conj(L)_n R_n per cell over <L|R>, one row per pair; Lc is conj(L)."""
    ip = (Lc[:, None, :] @ Rt[:, :, None])[:, 0, 0]
    bad = np.flatnonzero(np.abs(ip) < 1e-12)
    if bad.size:
        raise EPVicinityError(
            f"|<L|R>| = {abs(ip[bad[0]]):.3e} is below 1e-12; biorthogonal profile refused"
        )
    return _cell_sum(Lc * Rt, imap) / ip[:, None]


def density_profile(state, index_map) -> SiteProfile:
    """|psi_n|^2 per cell, orbitals summed, normalized to 1."""
    imap = _index_map(index_map)
    w = _right_weights(_rows(state), imap)[0]
    return SiteProfile(weights=w, kind="right", shape=imap.sizes)


def biorthogonal_density(L, R, index_map) -> SiteProfile:
    """Complex weights conj(L)_n R_n / <L|R> per cell.

    Refuses when |<L|R>| < 1e-12: that is the fingerprint of an exceptional
    point, where matched left/right pairs stop spanning the space and the
    biorthogonal decomposition is meaningless.
    """
    imap = _index_map(index_map)
    w = _bio_weights(np.conj(_rows(L)), _rows(R), imap)[0]
    return SiteProfile(weights=w, kind="biorthogonal", shape=imap.sizes)


def decay_fit(profile: SiteProfile, window) -> dict:
    """Least-squares slope of ln(weights) over a site window.

    rate > 0 means growth toward the right; r_squared reports fit quality.
    """
    a, b = int(window[0]), int(window[1])
    if not (0 <= a < b <= profile.n_cells):
        raise ValueError(f"window {window} not inside [0, {profile.n_cells})")
    if b - a < 5:
        raise ValueError("window must span at least 5 sites")
    w = np.abs(np.asarray(profile.weights))[a:b]
    if np.any(w <= 0):
        raise ValueError("nonpositive weights in window; cannot fit log-decay")
    x = np.arange(a, b, dtype=float)
    y = np.log(w)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return {"rate": float(slope), "r_squared": r2}


def _participation(weights: np.ndarray) -> np.ndarray:
    """PR of |weights| along the last axis, one per row."""
    p = np.abs(weights)
    s = p.sum(axis=-1, keepdims=True)
    if np.any(s == 0):
        raise ValueError("all-zero profile")
    p /= s
    return 1.0 / np.sum(p**2, axis=-1)


def participation_ratio(profile: SiteProfile) -> float:
    """PR of |weights| (normalized); n_cells for uniform, 1 for a point."""
    return float(_participation(np.asarray(profile.weights)))


@dataclass(frozen=True)
class Thresholds:
    """Classifier cutoffs; the defaults were validated on the built-ins.

    edge_region: outer fraction of cells per side counted as 'edge'.
    edge_fraction: minimal edge weight for a boundary-accumulated state.
    pr_scale: biorthogonal PR below pr_scale * n_cells counts as localized.
    """

    edge_fraction: float = 0.5
    pr_scale: float = 0.2
    edge_region: float = 0.1


@dataclass(frozen=True)
class StateClass:
    label: str
    side: Optional[str]
    metrics: dict


def _edge_masses(weights: np.ndarray, edge_region: float):
    """Shares of |weights| in the outer cells of each end, one pair per row."""
    n = weights.shape[-1]
    ne = max(1, int(np.ceil(edge_region * n)))
    w = np.abs(weights)
    total = w.sum(axis=-1)
    return w[..., :ne].sum(axis=-1) / total, w[..., -ne:].sum(axis=-1) / total


def _classify(Lt: np.ndarray, Rt: np.ndarray, imap: IndexMap, th: Thresholds) -> list:
    """Verdicts for the matched pairs in the rows of Lt and Rt, in one pass.

    Rows of every intermediate array are states, so each per-state sum runs
    over one row exactly as it would for a single vector.
    """
    right = _right_weights(Rt, imap)
    bio = _bio_weights(np.conj(Lt), Rt, imap)
    lf, rf = _edge_masses(right, th.edge_region)
    blf, brf = _edge_masses(bio, th.edge_region)
    edge = np.maximum(lf, rf)
    pr = _participation(bio)
    n = imap.n_cells
    out = []
    for i in range(len(pr)):
        metrics = {
            "right_edge_fraction": float(edge[i]),
            "biorthogonal_participation_ratio_scaled": float(pr[i] / n),
        }
        if edge[i] > th.edge_fraction and pr[i] > th.pr_scale * n:
            side = "right" if rf[i] >= lf[i] else "left"
            out.append(StateClass(label=SKIN, side=side, metrics=metrics))
        elif edge[i] > th.edge_fraction:
            side = "right" if brf[i] >= blf[i] else "left"
            out.append(StateClass(label=TOPOLOGICAL, side=side, metrics=metrics))
        else:
            out.append(StateClass(label=BULK, side=None, metrics=metrics))
    return out


def classify_state(L, R, index_map, thresholds: Thresholds | None = None) -> StateClass:
    """Skin / topological-boundary / bulk verdict for one matched pair.

    Skin: right profile boundary-accumulated while the biorthogonal profile
    stays delocalized.  Topological boundary: both are boundary-localized
    (side taken from the biorthogonal profile, which may differ from the
    right-vector side when left and right states live on opposite ends).
    Bulk: everything else.  Exceptional-point refusals propagate.
    """
    imap = _index_map(index_map)
    return _classify(_rows(L), _rows(R), imap, thresholds or Thresholds())[0]


def classify_spectrum(system, op, thresholds: Thresholds | None = None):
    """classify_state over every matched pair of a BiorthogonalSystem, batched."""
    return _classify(system.left.T, system.right.T, _index_map(op), thresholds or Thresholds())


def export_profiles_csv(path, profiles, labels=None) -> None:
    """site index, Re(weight), Im(weight), kind tag — one block per profile."""
    from .io import write_csv

    weights = [np.asarray(prof.weights, dtype=complex) for prof in profiles]
    sizes = [len(w) for w in weights]
    tags = np.asarray([labels[j] if labels else prof.kind for j, prof in enumerate(profiles)], str)
    w = np.concatenate(weights or [np.zeros(0, complex)])
    site = np.concatenate([np.arange(k) for k in sizes] or [np.zeros(0, int)])
    columns = [site, w.real, w.imag, np.repeat(tags, sizes)]
    write_csv(path, ["site", "re_weight", "im_weight", "kind"], columns)
