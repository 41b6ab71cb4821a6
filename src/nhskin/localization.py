"""State-profile analytics and the skin-vs-topological classifier.

Right-eigenvector density alone cannot tell a skin state from a topological
end state: both pile up at a boundary.  The biorthogonal density
<L|proj_n|R> separates them — it stays delocalized for skin states (its
participation ratio grows with system size) and stays boundary-pinned for
genuine topological modes.  Weights can be negative or complex, so the
participation ratio is taken on their absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EPVicinityError
from .realspace import IndexMap, RealSpaceOperator

SKIN = "skin"
TOPOLOGICAL = "topological_boundary"
BULK = "bulk"
SIDE_TOL = 1e-12  # edge masses this close tie: the side of a topological state is "both"
# classifier cutoffs, validated on the built-ins
EDGE_REGION = 0.1  # outer fraction of cells per side counted as 'edge'
EDGE_FRACTION = 0.5  # minimal edge weight for a boundary-accumulated state
PR_SCALE = 0.2  # biorthogonal PR below PR_SCALE * n_cells counts as localized


def _index_map(obj) -> IndexMap:
    if isinstance(obj, IndexMap):
        return obj
    if isinstance(obj, RealSpaceOperator):
        return obj.index_map
    raise TypeError("expected an IndexMap or RealSpaceOperator")


def _rows(v) -> np.ndarray:
    """One state as a single row in its own arithmetic: float64 or complex128
    as given, any other dtype promoted to the one of the two that holds it."""
    v = np.asarray(v)
    return v.astype(np.result_type(v, float), copy=False).reshape(1, -1)


def _right_weights(Rt: np.ndarray, imap: IndexMap) -> np.ndarray:
    """|psi_n|^2 per cell over <psi|psi>, one row per state (row of Rt)."""
    # stacked 1 x n @ n x 1 products: the same dot routine as numpy.vdot
    nrm2 = (Rt.conj()[:, None, :] @ Rt[:, :, None])[:, 0, 0].real
    if np.any(nrm2 == 0):
        raise ValueError("cannot profile the zero vector")
    return imap.cell_sum(np.abs(Rt) ** 2) / nrm2[:, None]


def _bio_weights(Lt: np.ndarray, Rt: np.ndarray, imap: IndexMap) -> np.ndarray:
    """conj(L)_n R_n per cell over <L|R>, one row per pair (row of Lt, Rt)."""
    Lc = Lt.conj()  # the array itself when real: conjugation copies complex rows only
    ip = (Lc[:, None, :] @ Rt[:, :, None])[:, 0, 0]
    bad = np.flatnonzero(np.abs(ip) < 1e-12)
    if bad.size:
        raise EPVicinityError(
            f"|<L|R>| = {abs(ip[bad[0]]):.3e} is below 1e-12; biorthogonal profile refused"
        )
    return imap.cell_sum(Lc * Rt) / ip[:, None]


def density_profile(state, index_map) -> np.ndarray:
    """|psi_n|^2 per cell, orbitals summed, normalized to 1."""
    return _right_weights(_rows(state), _index_map(index_map))[0]


def biorthogonal_density(L, R, index_map) -> np.ndarray:
    """Weights conj(L)_n R_n / <L|R> per cell (real for real L, R), summing to 1.

    Refuses when |<L|R>| < 1e-12: that is the fingerprint of an exceptional
    point, where matched left/right pairs stop spanning the space and the
    biorthogonal decomposition is meaningless.
    """
    return _bio_weights(_rows(L), _rows(R), _index_map(index_map))[0]


def _participation(weights: np.ndarray) -> np.ndarray:
    """PR of |weights| along the last axis, one per row."""
    p = np.abs(weights)
    s = p.sum(axis=-1, keepdims=True)
    if np.any(s == 0):
        raise ValueError("all-zero profile")
    p /= s
    return 1.0 / np.sum(p**2, axis=-1)


def participation_ratio(weights) -> float:
    """PR of |weights| (normalized); n_cells for uniform, 1 for a point."""
    return float(_participation(np.asarray(weights)))


@dataclass(frozen=True)
class Classification:
    """One verdict per matched pair, as columns: `label` and `side` ("" for
    bulk), the right edge fraction, the biorthogonal participation ratio over
    n_cells, and `profiles`, the right weights per cell, one row per state."""

    label: np.ndarray
    side: np.ndarray
    edge_fraction: np.ndarray
    pr_scaled: np.ndarray
    profiles: np.ndarray


def _edge_masses(weights: np.ndarray):
    """Shares of |weights| in the outer cells of each end, one pair per row."""
    n = weights.shape[-1]
    ne = max(1, int(np.ceil(EDGE_REGION * n)))
    w = np.abs(weights)
    total = w.sum(axis=-1)
    return w[..., :ne].sum(axis=-1) / total, w[..., -ne:].sum(axis=-1) / total


def classify_spectrum(system, op):
    """Skin / topological-boundary / bulk verdict for every matched pair of a
    BiorthogonalSystem, batched, as one `Classification` of columns.

    Skin: right profile boundary-accumulated while the biorthogonal profile
    stays delocalized.  Topological boundary: both are boundary-localized
    (side taken from the biorthogonal profile, which may differ from the
    right-vector side when left and right states live on opposite ends;
    "both" when its two edge masses agree within SIDE_TOL, as for the
    mirror-symmetric zero pair of an open nh-SSH chain).
    Bulk: everything else.  Exceptional-point refusals propagate.

    The biorthogonal weights conj(L)_n R_n are read as conj(Lb)_n Vb_n, so
    no left vector is built; rows of every array are states, so each
    per-state sum runs exactly as it would for a single vector.
    """
    imap = _index_map(op)
    right = _right_weights(system.right.T, imap)
    bio = _bio_weights(system.Lb.T, system.Vb.T, imap)
    lf, rf = _edge_masses(right)
    blf, brf = _edge_masses(bio)
    tied = np.abs(brf - blf) <= SIDE_TOL
    edge = np.maximum(lf, rf)
    pr = _participation(bio)
    n = imap.n_cells
    # the per-state tests in order: skin first, then any other boundary-accumulated state
    accumulated = edge > EDGE_FRACTION
    tests = [accumulated & (pr > PR_SCALE * n), accumulated]
    label = np.select(tests, [SKIN, TOPOLOGICAL], BULK)
    bio_side = np.where(tied, "both", np.where(brf > blf, "right", "left"))
    side = np.select(tests, [np.where(rf >= lf, "right", "left"), bio_side], "")
    return Classification(label, side, edge, pr / n, right)
