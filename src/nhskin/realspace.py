"""Dense real-space operators for finite lattices.

Boundary handling is a single code path: every axis carries a wrap factor
(0 for open, 1 for periodic, epsilon for partially coupled ends), and a bond
that wraps one or more axes is multiplied by the product of their factors.
That makes Coupled(0) literally the open matrix and Coupled(1) literally the
periodic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import BuildError
from .model import LatticeModel

OBC = "obc"
PBC = "pbc"


@dataclass(frozen=True)
class Coupled:
    """End-to-end coupling scale for one axis; wrap bonds pick up epsilon."""

    epsilon: complex


def _wrap_factors(boundary, dimension: int) -> np.ndarray:
    """One wrap factor per axis: 0 for open, 1 for periodic, epsilon for Coupled."""
    axes = (boundary,) * dimension if isinstance(boundary, (str, Coupled)) else tuple(boundary)
    if len(axes) != dimension:
        raise BuildError(f"boundary spec has {len(axes)} axes, model has {dimension}")
    out = []
    for ax in axes:
        if isinstance(ax, Coupled):
            out.append(ax.epsilon)
        elif isinstance(ax, str) and ax.lower() in (OBC, PBC):
            out.append(float(ax.lower() == PBC))
        else:
            raise BuildError(f"unknown boundary kind {ax!r}")
    return np.array(out, dtype=complex)


@dataclass(frozen=True)
class IndexMap:
    """Bijection between (cell vector, orbital) and matrix row index.

    Rows are cell-major in C order over the axes, orbitals contiguous within
    a cell: row = linear(cell) * bands + orbital.
    """

    sizes: Tuple[int, ...]
    bands: int

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.sizes))

    def cell_sum(self, values: np.ndarray) -> np.ndarray:
        """Orbital-summed cell values along the last axis (rows are sites)."""
        return values.reshape(values.shape[:-1] + (self.n_cells, self.bands)).sum(-1)


@dataclass
class RealSpaceOperator:
    """Dense finite-lattice Hamiltonian with its site bookkeeping: float64 from
    `build` when every amplitude and wrap factor is real, else complex128."""

    matrix: np.ndarray
    index_map: IndexMap

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build(model: LatticeModel, sizes, boundary=OBC) -> RealSpaceOperator:
    """Assemble the dense Hamiltonian of `model` on a finite lattice.

    sizes gives cells per axis (each >= 2); hopping offsets must fit inside
    the lattice so no bond wraps more than once.
    """
    sizes = tuple(int(s) for s in np.atleast_1d(sizes))
    if len(sizes) != model.dimension:
        raise BuildError(f"sizes has {len(sizes)} axes, model has {model.dimension}")
    if any(s < 2 for s in sizes):
        raise BuildError(f"every axis needs at least 2 cells, got {sizes}")
    for t in model.terms:
        if any(abs(o) >= s for o, s in zip(t.offset, sizes)):
            raise BuildError(
                f"hopping offset {t.offset} does not fit in lattice {sizes}"
            )
    H = _assemble(model, sizes, _wrap_factors(boundary, model.dimension))
    return RealSpaceOperator(matrix=H, index_map=IndexMap(sizes=sizes, bands=model.bands))


def _assemble(model: LatticeModel, sizes, factors, inner=1.0) -> np.ndarray:
    """`build`'s matrix for wrap factors per axis, other bonds scaled by inner."""
    amps = np.array([t.amplitude for t in model.terms])
    if not (factors.imag.any() or amps.imag.any()):  # the same products in half the bytes
        factors, amps = factors.real, amps.real
    B = model.bands
    N = int(np.prod(sizes)) * B
    H = np.zeros((N, N), dtype=amps.dtype)

    cells = np.indices(sizes).reshape(len(sizes), -1).T  # (n_cells, d), C order
    lin = np.arange(cells.shape[0])
    for t, amplitude in zip(model.terms, amps):
        target = cells + np.asarray(t.offset, dtype=int)
        factor = np.ones(cells.shape[0], dtype=H.dtype)
        if inner != 1:
            factor[np.all((target >= 0) & (target < sizes), axis=1)] = inner
        for ax, s in enumerate(sizes):
            wrapped = (target[:, ax] < 0) | (target[:, ax] >= s)
            if wrapped.any():
                factor[wrapped] *= factors[ax]
            target[:, ax] %= s
        keep = factor != 0
        if not keep.any():
            continue
        tlin = np.ravel_multi_index(target[keep].T, sizes)
        rows = lin[keep] * B
        cols = tlin * B
        for a in range(B):
            for b in range(B):
                amp = amplitude[a, b]
                if amp != 0:
                    H[rows + a, cols + b] += amp * factor[keep]
    return H


def from_matrix(matrix) -> RealSpaceOperator:
    """Wrap an explicit square matrix (e.g. a position-dependent chain) as an
    operator on a one-band chain, one cell per row."""
    M = np.asarray(matrix, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise BuildError("matrix must be square")
    return RealSpaceOperator(matrix=M, index_map=IndexMap(sizes=(M.shape[0],), bands=1))
