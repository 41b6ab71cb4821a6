"""Biorthogonal eigendecomposition with conditioning diagnostics.

Skin-effect matrices are spectacularly non-normal: the right-eigenvector
matrix condition number grows exponentially with system size, and beyond a
few hundred sites a naive dense eigensolve returns pseudospectrum artifacts
instead of eigenvalues.  LAPACK's balancing step does not help here (row and
column norms are already equal for an asymmetric chain), but an *imaginary
gauge* similarity does: rescaling site n by exp(l_n) with
l_j - l_i = log(|H_ji|/|H_ij|) / 2 across each two-sided bond makes |H_ij|
symmetric exactly whenever that bond field is curl-free, which covers every
open chain.  Eigenvalues are preserved exactly; eigenvectors transform by the
known diagonal, so nothing is lost undoing the gauge afterwards.

After the gauge an open chain with real (or conjugate-paired) hoppings is
Hermitian, usually real symmetric, with the same eigenvalues (Yao & Wang,
PRL 121, 086803 (2018)).  Every solve here tests the gauged matrix for that
once and then takes `eigh`/`eigvalsh` on its Hermitian part, in real
arithmetic when its imaginary part is exactly zero; the left vectors are
then the right ones in the gauged basis, so no inverse, no `cond` of the
eigenvector matrix and no adjoint solve is needed.  Rounding in exp(l)
leaves an asymmetry of about 1.5 eps max|l| max|H_b|, so the test accepts
up to 4 eps (1 + max|l|) max|H_b|, which also bounds the eigenvalue shift
of the symmetrisation to about that size.  Everything else (exceptional
points and one-way chains, periodic and partially coupled rings, lattices
with flux) keeps the general `eig`, in real arithmetic when H_b is real.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError
from .realspace import RealSpaceOperator

_EPS = float(np.finfo(float).eps)
COND_LIMIT = 1.0 / np.sqrt(_EPS)


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, RealSpaceOperator):
        return op.matrix
    M = np.asarray(op, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix or RealSpaceOperator")
    return M


def gauge_log_scales(H, flux_tol: float = 1e-9, blowup: float = 4.0) -> np.ndarray:
    """Per-site log scales that symmetrize |H|, or zeros when impossible.

    A spanning forest of the hopping graph fixes l up to a constant per
    component; the assignment is then checked on *every* edge (cycles may
    carry nonzero flux, e.g. rings or 2D lattices with diagonals, in which
    case no exact gauge exists and the identity is returned).  A blow-up
    guard also bails out if scaling would inflate the largest amplitude by
    more than `blowup`, so one-sided numerics can't get worse than untouched.
    """
    H = np.asarray(H)
    n = H.shape[0]
    A = np.abs(H).astype(float)
    np.fill_diagonal(A, 0.0)
    if not A.any():
        return np.zeros(n)
    l = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    sym = A + A.T
    adj = [np.nonzero(sym[i])[0] for i in range(n)]
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if seen[j]:
                    continue
                if A[i, j] > 0 and A[j, i] > 0:
                    l[j] = l[i] + 0.5 * (np.log(A[j, i]) - np.log(A[i, j]))
                else:
                    l[j] = l[i]  # one-way bond carries no symmetrization constraint
                seen[j] = True
                queue.append(j)
    ii, jj = np.nonzero(A)
    two_sided = A[jj, ii] > 0
    dl = l[jj] - l[ii]
    want = np.where(
        two_sided,
        0.5 * (np.log(np.where(two_sided, A[jj, ii], 1.0)) - np.log(A[ii, jj])),
        dl,
    )
    if np.any(np.abs(dl - want) > flux_tol):
        return np.zeros(n)
    scaled_log_max = float(np.max(np.log(A[ii, jj]) + dl))
    if not np.isfinite(scaled_log_max) or scaled_log_max > np.log(A.max()) + np.log(blowup):
        return np.zeros(n)
    return l - l.mean()


def _gauged(H):
    """(H_b = D^-1 H D, per-site scale factors d or None, Hermitian H_b or None).

    The third item is the symmetrised H_b, real when its imaginary part is
    exactly zero, if H_b is Hermitian within the rounding of the gauge, and
    None otherwise.
    """
    l = gauge_log_scales(H)
    if l.any():
        d = np.exp(l)
        Hb = H * (d[None, :] / d[:, None])
    else:
        Hb, d = H, None
    tol = 4 * _EPS * (1 + np.abs(l).max(initial=0.0)) * np.abs(Hb).max(initial=0.0)
    Hh = Hb.conj().T
    if np.abs(Hb - Hh).max(initial=0.0) > tol:
        return Hb, d, None
    Hh = 0.5 * (Hb + Hh)
    return Hb, d, (Hh.real if not Hh.imag.any() else Hh)


def _gauged_eig(H, vectors: bool = True):
    """Eigenpairs of the gauged H: (w, Vb, Hb, d, hermitian), Vb in the gauged
    basis (None when vectors is False).  Hermitian H_b goes to eigh and
    everything else to the general eig, each in real arithmetic when H_b is
    real; w and Vb are then real too unless the spectrum is complex."""
    if not np.all(np.isfinite(H)):
        raise EigensolverError("matrix has non-finite entries")
    Hb, d, Hh = _gauged(H)
    if not Hb.imag.any():
        Hb = Hb.real
    la = np.linalg
    try:
        if Hh is not None:
            w, Vb = la.eigh(Hh) if vectors else (la.eigvalsh(Hh), None)
        else:
            w, Vb = la.eig(Hb) if vectors else (la.eigvals(Hb), None)
    except la.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    return w, Vb, Hb, d, Hh is not None


def _min_pair_gap(w: np.ndarray) -> float:
    """Smallest distance between two eigenvalues; inf for fewer than two."""
    if len(w) < 2:
        return np.inf
    from scipy.spatial import cKDTree

    pts = np.column_stack([w.real, w.imag])
    dd, _ = cKDTree(pts).query(pts, k=2)
    return float(dd[:, 1].min())


def dense_spectrum(op) -> np.ndarray:
    """Eigenvalues only, gauge-stabilized, sorted by (Re, Im)."""
    w = np.asarray(_gauged_eig(_as_matrix(op), vectors=False)[0], dtype=complex)
    return w[np.lexsort((w.imag, w.real))]


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Matched eigen-triples (E_i, R_i, L_i) with conditioning diagnostics.

    right[:, i] has unit norm with its largest component rotated to the
    positive real axis; left[:, i] is scaled so <L_i|R_i> = 1 whenever the
    pairing is numerically meaningful.  `condition` is the condition number
    of the physical right-eigenvector matrix; `biorth_residual` is
    max |L_b^H V_b - I| in the gauged basis, where the physical column-norm
    ratios cannot amplify rounding; ep_flag marks decompositions whose
    conditioning (or biorthogonality residual) is consistent with an
    exceptional point or extreme non-normality.  `solver` names the path
    taken: "eigh" (Hermitian after the gauge), "eig" (left vectors from the
    inverse) or "eig+adjoint" (left vectors from an adjoint solve).
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    condition: float
    min_pair_gap: float
    ep_flag: bool
    biorth_residual: float
    solver: str

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def pair(self, i: int):
        return self.eigenvalues[i], self.right[:, i], self.left[:, i]


def eig_biorthogonal(op, tol_biorth: float = 1e-8) -> BiorthogonalSystem:
    """Full right+left eigensystem of a dense operator.

    When the gauged matrix is Hermitian its unitary eigenvector matrix is its
    own left partner.  Otherwise left vectors come from inverting the
    right-eigenvector matrix (exact biorthonormality by construction) whenever
    that inverse is trustworthy in the gauged working basis; otherwise from a
    separate adjoint eigensolve with greedy conjugate-eigenvalue matching.
    The inverse-route decision is made on the gauged basis because the
    physical matrix's exponential ill-conditioning is carried exactly by the
    diagonal gauge factors.
    """
    w, Vb, Hb, d, hermitian = _gauged_eig(_as_matrix(op))
    order = np.lexsort((w.imag, w.real))
    w, Vb = w[order], Vb[:, order]

    if hermitian:
        Lb, solver = Vb, "eigh"
    elif np.linalg.cond(Vb) < COND_LIMIT:
        Lb, solver = np.linalg.inv(Vb).conj().T, "eig"
    else:
        # adjoint solve; match each left eigenvalue to the conjugate right one
        try:
            wl, Wb = np.linalg.eig(Hb.conj().T)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"adjoint eig failed to converge: {exc}") from exc
        Lb, solver = np.empty_like(Vb, dtype=complex), "eig+adjoint"
        used = np.zeros(len(wl), dtype=bool)
        for i, wi in enumerate(w):
            dists = np.where(used, np.inf, np.abs(wl - np.conj(wi)))
            j = int(np.argmin(dists))
            used[j] = True
            col = Wb[:, j]
            ip = np.vdot(col, Vb[:, i])
            # biorthonormalize when the pairing supports it; else keep unit norm
            Lb[:, i] = col / np.conj(ip) if abs(ip) > 1e-12 else col
    residual = float(np.max(np.abs(Lb.conj().T @ Vb - np.eye(len(w)))))
    scale = d[:, None] if d is not None else 1.0
    R, L = Vb * scale, Lb / scale

    norms = np.linalg.norm(R, axis=0)
    R /= norms
    L *= norms
    # phase convention: largest-magnitude component of each right vector real-positive
    lead = R[np.argmax(np.abs(R), axis=0), np.arange(R.shape[1])]
    phase = lead / np.abs(lead)
    R /= phase[None, :]
    L *= np.conj(phase)[None, :]

    condition = float(np.linalg.cond(R))
    ep = (condition > COND_LIMIT) or (residual > tol_biorth)
    return BiorthogonalSystem(
        eigenvalues=np.asarray(w, dtype=complex),
        right=np.asarray(R, dtype=complex),
        left=np.asarray(L, dtype=complex),
        condition=condition,
        min_pair_gap=_min_pair_gap(w),
        ep_flag=bool(ep),
        biorth_residual=residual,
        solver=solver,
    )


def non_normality(op) -> float:
    """Frobenius norm of [H, H^dag]; zero iff H is normal."""
    H = _as_matrix(op)
    Hd = H.conj().T
    return float(np.linalg.norm(H @ Hd - Hd @ H, "fro"))


def ep_diagnostic(op) -> dict:
    """kappa_V, minimal eigenvalue pair gap, and the eigenbasis defect.

    defect_estimate counts missing eigenvector directions: matrix dimension
    minus the numerical rank of the right-eigenvector matrix at tolerance
    sqrt(machine eps) * largest singular value.
    """
    w, Vb, _, d, _ = _gauged_eig(_as_matrix(op))
    V = Vb * d[:, None] if d is not None else Vb
    V = V / np.linalg.norm(V, axis=0)
    s = np.linalg.svd(V, compute_uv=False)
    rank = int(np.sum(s > np.sqrt(_EPS) * s[0]))
    kappa = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    return {
        "kappa_V": kappa,
        "min_pair_gap": _min_pair_gap(w),
        "defect_estimate": len(w) - rank,
    }


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite sets of complex numbers."""
    from scipy.spatial import cKDTree

    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    pa = np.column_stack([a.real, a.imag])
    pb = np.column_stack([b.real, b.imag])
    d_ab = cKDTree(pb).query(pa)[0].max()
    d_ba = cKDTree(pa).query(pb)[0].max()
    return float(max(d_ab, d_ba))


def export_spectrum_csv(path, system: BiorthogonalSystem, profiles: bool = False) -> None:
    """index, Re E, Im E, per-eigenvalue condition; optionally per-site |psi|."""
    from .io import write_csv

    kappa_i = np.linalg.norm(system.left, axis=0) * np.linalg.norm(system.right, axis=0)
    header = ["index", "re_e", "im_e", "kappa_i"]
    if profiles:
        header += [f"abs_psi_{n}" for n in range(system.right.shape[0])]
    ev = system.eigenvalues
    columns = [np.arange(len(ev)), ev.real, ev.imag, kappa_i]
    if profiles:
        columns += list(np.abs(system.right))
    write_csv(path, header, columns)
