"""Dense real-space operators for finite lattices.

Boundary handling is a single code path: every axis carries a wrap factor
(0 for open, 1 for periodic, epsilon for partially coupled ends), and a bond
that wraps one or more axes is multiplied by the product of their factors.
That makes Coupled(0) literally the open matrix and Coupled(1) literally the
periodic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import BuildError
from .model import LatticeModel

OBC = "obc"
PBC = "pbc"


@dataclass(frozen=True)
class Coupled:
    """End-to-end coupling scale for one axis; wrap bonds pick up epsilon."""

    epsilon: complex

    def factor(self) -> complex:
        return complex(self.epsilon)


BoundaryKind = Union[str, Coupled]


def _normalize_boundary(boundary, dimension: int) -> Tuple[BoundaryKind, ...]:
    if isinstance(boundary, (str, Coupled)):
        axes = (boundary,) * dimension
    else:
        axes = tuple(boundary)
        if len(axes) != dimension:
            raise BuildError(
                f"boundary spec has {len(axes)} axes, model has {dimension}"
            )
    out = []
    for ax in axes:
        if isinstance(ax, str):
            kind = ax.lower()
            if kind not in (OBC, PBC):
                raise BuildError(f"unknown boundary kind {ax!r}")
            out.append(kind)
        elif isinstance(ax, Coupled):
            out.append(ax)
        else:
            raise BuildError(f"unknown boundary kind {ax!r}")
    return tuple(out)


def _wrap_factor(kind: BoundaryKind) -> complex:
    if kind == OBC:
        return 0.0
    if kind == PBC:
        return 1.0
    return kind.factor()


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

    @property
    def n_sites(self) -> int:
        return self.n_cells * self.bands

    def row(self, cell, orbital: int = 0) -> int:
        cell = tuple(int(c) for c in np.atleast_1d(cell))
        lin = int(np.ravel_multi_index(cell, self.sizes))
        return lin * self.bands + int(orbital)

    def cell_index_of_rows(self) -> np.ndarray:
        """Linear cell index for every matrix row (length n_sites)."""
        return np.repeat(np.arange(self.n_cells), self.bands)


@dataclass
class RealSpaceOperator:
    """Dense finite-lattice Hamiltonian with its site bookkeeping."""

    matrix: np.ndarray
    index_map: IndexMap
    boundary: Tuple[BoundaryKind, ...]
    name: Optional[str] = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def sizes(self) -> Tuple[int, ...]:
        return self.index_map.sizes

    @property
    def bands(self) -> int:
        return self.index_map.bands


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
    bnd = _normalize_boundary(boundary, model.dimension)
    factors = [_wrap_factor(k) for k in bnd]
    imap = IndexMap(sizes=sizes, bands=model.bands)
    B = model.bands
    N = imap.n_sites
    H = np.zeros((N, N), dtype=complex)

    cells = np.array(list(np.ndindex(*sizes)), dtype=int)  # (n_cells, d)
    lin = np.arange(cells.shape[0])
    for t in model.terms:
        target = cells + np.asarray(t.offset, dtype=int)
        factor = np.ones(cells.shape[0], dtype=complex)
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
                amp = t.amplitude[a, b]
                if amp != 0:
                    H[rows + a, cols + b] += amp * factor[keep]
    return RealSpaceOperator(matrix=H, index_map=imap, boundary=bnd, name=model.name)


def from_matrix(matrix, bands: int = 1, boundary=OBC, name=None) -> RealSpaceOperator:
    """Wrap an explicit matrix (e.g. position-dependent chains) as an operator."""
    M = np.asarray(matrix, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise BuildError("matrix must be square")
    if M.shape[0] % bands:
        raise BuildError("matrix size is not a multiple of the band count")
    imap = IndexMap(sizes=(M.shape[0] // bands,), bands=bands)
    return RealSpaceOperator(
        matrix=M, index_map=imap, boundary=_normalize_boundary(boundary, 1), name=name
    )


def add_onsite_disorder(op: RealSpaceOperator, strength: float, seed: int) -> RealSpaceOperator:
    """Fresh operator with independent uniform([-strength, strength]) real
    on-site energies; deterministic for a given seed."""
    if strength < 0:
        raise BuildError("disorder strength must be >= 0")
    rng = np.random.default_rng(seed)
    M = op.matrix.copy()
    M[np.diag_indices_from(M)] += rng.uniform(-strength, strength, size=op.n)
    return RealSpaceOperator(
        matrix=M, index_map=op.index_map, boundary=op.boundary, name=op.name
    )


def export_matrix_csv(op: RealSpaceOperator, path) -> None:
    """Nonzero entries as (row, col, re, im) rows."""
    from .io import write_csv

    rows, cols = np.nonzero(op.matrix)
    vals = op.matrix[rows, cols]
    write_csv(path, ["row", "col", "re", "im"], [rows, cols, vals.real, vals.imag])
