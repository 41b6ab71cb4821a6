"""Biorthogonal eigendecomposition with an exceptional-point test.

Skin-effect matrices are spectacularly non-normal: the right-eigenvector
matrix condition number grows exponentially with system size, and beyond a
few hundred sites a naive dense eigensolve returns pseudospectrum artifacts
instead of eigenvalues.  LAPACK's balancing step does not help here (row and
column norms are already equal for an asymmetric chain), but an *imaginary
gauge* similarity does: rescaling site n by exp(l_n) with
l_j - l_i = log(|H_ji|/|H_ij|) / 2 across each two-sided bond makes |H_ij|
symmetric exactly whenever that bond field is curl-free, which covers every
open chain.  Eigenvalues are preserved exactly; eigenvectors transform by the
known diagonal, so nothing is lost undoing the gauge afterwards.  A solve
has a pattern part, from one `H != 0` pass: the bond list (each nonzero and
its transposed entry) and one breadth-first spanning forest of it, the only
walk over the graph, whose tree serves both the gauge's sums and the
two-colouring below.  Its value part (gauge, finiteness, flux, blow-up and Hermitian
tests) is O(nnz).  Matrices of one nonzero pattern, such as a crossover's
rings H0 + eps W (`family_spectra`), share one pattern part.  The scales
exp(l) are kept as f 2^x, so they never overflow.

After the gauge an open chain with real (or conjugate-paired) hoppings is
Hermitian, usually real symmetric, with the same eigenvalues (Yao & Wang,
PRL 121, 086803 (2018)).  Every solve here tests the gauged matrix for that
once and symmetrises it, in real arithmetic when its imaginary part is
exactly zero; the left vectors are then the right ones in the gauged basis.
Rounding in exp(l) leaves an asymmetry of about 1.5 eps max|l| max|H_b|, so
the test accepts up to 4 eps (1 + max|l|) max|H_b|, which also bounds the
eigenvalue shift of the symmetrisation to about that size.  There are three
solver paths:

- "chiral": a Hermitian H_b with no diagonal whose bond graph has two
  colours (no odd cycle; the parity of depth in the spanning forest
  finds them) is [[0, B], [B^H, 0]] on its two sublattices, p x q.
  Its eigenvalues are -S, |p - q| exact zeros and +S for the singular values
  S of B, its eigenvectors (u, -/+ w)/sqrt 2 and the null vectors of the
  longer side, all from one SVD of the half-size block.  This covers the
  built-in open chains (Hatano-Nelson, nh-SSH) and any open square lattice
  with nearest-neighbour hopping.  The spectrum comes out exactly +-
  symmetric, so the two values of a zero pair are exact negatives.
- "eigh": any other Hermitian H_b (on-site terms, odd cycles), by
  `eigh`/`eigvalsh`.
- "eig": everything else (exceptional points and one-way chains, periodic
  and partially coupled rings, lattices with flux) keeps the general
  eigensolver, in real arithmetic when H_b is real: one LAPACK `geev` call
  returns the right vectors, sorted by (Re, Im), and the left ones are the
  rows of their inverse.  The Hermitian paths come out in that order already.

A Hermitian H_b can always be diagonalized, so only the eig path can meet
an exceptional point, and only there is the gauged vectors' conditioning
measured.  The physical basis adds the skin effect's non-normality
(Trefethen & Embree, 2005), which the gauge removes exactly and which is
no exceptional point.  One BiorthogonalSystem holds a solve's gauged
vectors and gauge, and derives from them on first read what each caller
needs: condition numbers, the EP test, the physical vectors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EigensolverError
from .realspace import RealSpaceOperator

_EPS = float(np.finfo(float).eps)
COND_LIMIT = 1.0 / np.sqrt(_EPS)
FLUX_TOL = 1e-9  # largest log-scale mismatch around a cycle that the gauge accepts
BLOWUP = 4.0  # largest growth of max|H| that the gauge may cause


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, RealSpaceOperator):
        return op.matrix
    M = np.asarray(op)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix or RealSpaceOperator")
    # float64 and complex128 are kept as given, without a copy
    return M.astype(np.result_type(M, float), copy=False)


def _entries(H):
    """(i, j, k) over every entry with H_ij or H_ji nonzero, row-major: entry
    k[e] is entry e's transpose.  A one-sided bond gets its zero partner."""
    n = H.shape[0]
    key = np.flatnonzero(H != 0)  # i n + j, sorted; np.union1d would import numpy.ma
    tkey = key % n * n + key // n
    key = np.sort(np.concatenate([key, tkey[~np.isin(tkey, key, assume_unique=True)]]))
    i, j = np.divmod(key, n)
    return i, j, np.searchsorted(key, j * n + i)


def _spanning_tree(n, i, j):
    """Breadth-first spanning forest of the row-major (CSR) bond list (i, j),
    each component rooted at its first site: (v, u, e) for every other site v
    in visiting order, reached from u over bond e, and the depth of each site."""
    start, nbr = np.searchsorted(i, np.arange(n + 1)).tolist(), j.tolist()
    depth, tree = [-1] * n, []
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root], queue = 0, deque([root])
        while queue:
            u = queue.popleft()
            for e in range(start[u], start[u + 1]):
                v = nbr[e]
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    tree.append((v, u, e))
                    queue.append(v)
    return tree, np.array(depth, dtype=int)


def _pattern(H):
    """What H's nonzero pattern alone fixes: (i, j, k) of `_entries`, the
    `_spanning_tree` forest and odd, the sites of odd depth if that two-colours
    the bonds (no diagonal, no odd cycle), else None."""
    i, j, k = _entries(H)
    tree, depth = _spanning_tree(H.shape[0], i, j)
    odd = depth % 2 == 1
    return i, j, k, tree, None if np.any(odd[i] == odd[j]) else odd


def gauge_log_scales(n, pattern, h) -> np.ndarray:
    """Per-site log scales that symmetrize the n x n |H|, or zeros when
    impossible, from its `_pattern` and h = H[i, j] on its bond list.

    The spanning forest fixes l up to a constant per component; the
    assignment is then checked on *every* edge (cycles may carry nonzero
    flux, e.g. rings or 2D lattices with diagonals, in which case no exact
    gauge exists and the identity is returned).  A blow-up guard also bails
    out if scaling would inflate the largest amplitude by more than BLOWUP,
    so one-sided numerics can't get worse than untouched.
    """
    i, j, k, tree, _ = pattern
    a = np.abs(h)
    a[i == j] = 0.0
    on = a > 0
    if not on.any():
        return np.zeros(n)
    log_a = np.log(a, out=np.zeros_like(a), where=on)
    two_sided = on & on[k]
    # half-log ratio across each edge; a one-way bond carries no constraint
    half = np.where(two_sided, 0.5 * (log_a[k] - log_a), 0.0)
    l, steps = [0.0] * n, half.tolist()
    for v, u, e in tree:  # sums along the forest's bonds, 0 at each root
        l[v] = l[u] + steps[e]
    l = np.array(l)
    dl = l[j] - l[i]
    if np.any(np.abs(dl[two_sided] - half[two_sided]) > FLUX_TOL):
        return np.zeros(n)
    scaled_log_max = float(np.max(log_a[on] + dl[on]))
    if not np.isfinite(scaled_log_max) or scaled_log_max > np.log(a.max()) + np.log(BLOWUP):
        return np.zeros(n)
    return l - l.mean()


def _split_scales(l):
    """(f, x) with exp(l) = f 2^x and 1/2 <= f < 1, so that no scale
    overflows: np.frexp(np.exp(l)) wherever exp(l) stays a positive float."""
    with np.errstate(over="ignore"):
        d = np.exp(l)
    if np.all((d > 0) & (d < np.inf)):
        return np.frexp(d)
    x = np.floor(l / np.log(2)).astype(int) + 1
    return np.exp(l - x * np.log(2)), x


def _hermitian_part(hb, k, tol):
    """Entries of (H_b + H_b^H)/2 from those of H_b, or None unless Hermitian within tol."""
    hh = hb[k].conj()
    return 0.5 * (hb + hh) if np.abs(hb - hh).max(initial=0.0) <= tol else None


def _gauged(H, pattern=None):
    """(M, scales, hermitian, odd) for H_b = D^-1 H D, D = diag(f 2^x) for scales
    (f, x) or None: M is H_b symmetrised if H_b is Hermitian within the rounding
    of the gauge, else H_b, and real when its imaginary part is exactly zero.
    odd is the pattern's, when M is Hermitian.  pattern is `_pattern(H)`, which
    matrices with one nonzero pattern share; the rest is O(nnz)."""
    i, j, k, _, odd = pattern = _pattern(H) if pattern is None else pattern
    h = H[i, j]
    if not np.all(np.isfinite(h)):
        raise EigensolverError("matrix has non-finite entries")
    l = gauge_log_scales(len(H), pattern, h)
    scales = _split_scales(l) if l.any() else None
    f, x = scales or (None, None)
    # h d_j / d_i, which the BLOWUP guard bounds even where d is no float
    hb = h if f is None else h * np.ldexp(f[j] / f[i], x[j] - x[i])
    tol = 4 * _EPS * (1 + np.abs(l).max(initial=0.0)) * np.abs(hb).max(initial=0.0)
    s = _hermitian_part(hb, k, tol)
    v = hb if s is None else s
    if not v.imag.any():
        v, H = v.real, H.real
    if s is not None or scales is not None:  # the matrix to solve, from its entries
        H = np.zeros(H.shape, dtype=v.dtype)
        H[i, j] = v
    return H, scales, s is not None, None if s is None else odd


def _chiral_eig(M, odd, vectors: bool):
    """(w, V) of a Hermitian M that couples only the sites in odd to the
    others, from the SVD B = U S W^H of its p x q block B = M[~odd, odd]:
    w is -S, |p - q| zeros and +S, ascending, and V holds (u_k, -w_k)/sqrt 2,
    the null vectors of the longer side and (u_k, w_k)/sqrt 2 in that order,
    in Fortran order (None when vectors is False)."""
    a, b = np.flatnonzero(~odd), np.flatnonzero(odd)
    B = M[np.ix_(a, b)]
    p, q = B.shape
    r, z = min(p, q), abs(p - q)
    if vectors:
        U, s, Wh = np.linalg.svd(B)
        W = Wh.conj().T
        U[:, :r] *= np.sqrt(0.5)
        W[:, :r] *= np.sqrt(0.5)
        V = np.zeros((p + q, p + q), dtype=B.dtype, order="F")
        V[a, r + z :] = U[:, :r][:, ::-1]
        V[b, r + z :] = W[:, :r][:, ::-1]
        V[a, :r] = U[:, :r]
        V[b, :r] = np.negative(W[:, :r], out=W[:, :r])
        rows, X = (a, U) if p > q else (b, W)  # the null vectors of the longer side
        V[rows, r : r + z] = X[:, r:]
    else:
        s, V = np.linalg.svd(B, compute_uv=False), None
    return np.concatenate([0.0 - s, np.zeros(z), s[::-1]]), V  # 0.0 - s is never -0.0


def _gauged_eig(H, vectors: bool = True, pattern=None):
    """(w, Vb, Lb, scales, solver): eigenvalues of the gauged H sorted by (Re, Im),
    its right and left vectors in the gauged basis (None when vectors is
    False), the gauge's (f, x) and the path: the SVD of a Hermitian H_b's
    two-sublattice block ("chiral"), eigh of any other Hermitian H_b
    ("eigh"; both ascending, with Lb = Vb) or one general eig ("eig", sorted
    here, with Lb from `_left_vectors`), each in real arithmetic when H_b is
    real.  pattern is passed on to `_gauged`."""
    M, scales, hermitian, odd = _gauged(H, pattern)
    solver = "eig" if not hermitian else "eigh" if odd is None else "chiral"
    la = np.linalg
    try:
        if solver == "chiral":
            w, Vb = _chiral_eig(M, odd, vectors)
        elif solver == "eigh":
            w, Vb = la.eigh(M) if vectors else (la.eigvalsh(M), None)
        elif vectors:
            w, Vb = la.eig(M)
            Lb = _left_vectors(Vb)
        else:
            w, Vb, Lb = la.eigvals(M), None, None
    except la.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    Lb = Vb if hermitian else Lb
    if solver == "eig":
        order = np.lexsort((w.imag, w.real))
        w = w[order]
        if vectors:
            Vb, Lb = Vb[:, order], Lb[:, order]
    return w, Vb, Lb, scales, solver


def _left_vectors(Vb):
    """Lb = (Vb^-1)^H, so <Lb_i|Vb_i> = 1 and, for geev's unit Vb_i, ||Lb_i|| is
    the gauged kappa_i.  A pair with no dual keeps |<Lb_i|Vb_i>| < 1e-12: a
    column past 1e12 is stored at unit norm, where that is 1/kappa_i, and one
    past the float range, or each of a singular Vb's, as zeros."""
    try:
        Lb = np.linalg.inv(Vb).conj().T
    except np.linalg.LinAlgError:  # an exact exceptional point
        return np.zeros_like(Vb)
    with np.errstate(over="ignore", invalid="ignore"):  # inv may overflow without raising
        norm = np.linalg.norm(Lb, axis=0)
        return np.where(np.isfinite(norm), Lb / np.where(norm > 1e12, norm, 1.0), 0.0)


def _conditioning(Vb):
    """(s_0/s_min, count of s <= sqrt(eps) s_0) from the singular values s of
    the eig path's gauged right vectors (unit columns)."""
    s = np.linalg.svd(Vb, compute_uv=False)
    kappa = float(s[0] / s[-1]) if s[-1] > 0 else np.inf
    return kappa, int(np.sum(s <= np.sqrt(_EPS) * s[0]))


def dense_spectrum(op) -> np.ndarray:
    """Eigenvalues only, gauge-stabilized, sorted by (Re, Im)."""
    return np.asarray(_gauged_eig(_as_matrix(op), vectors=False)[0], dtype=complex)


def _log2_norms(V, A, scales, sign: int):
    """(m, e) with ||D^sign V[:, i]|| = m_i 2^e_i for A = |V|^2, D = diag(f 2^x),
    (f, x) = scales, and sign +-1.  D^sign is scaled exactly, by a power of two,
    to at most 2, so no sum of squares overflows; a column whose sum is below
    2^-1000, where squares lose bits, is scaled by the largest power of two
    among its entries instead."""
    f, x = scales[0] ** sign, scales[1] * sign  # D^sign = f 2^x with 1/2 <= f <= 2
    m = np.sqrt(np.ldexp(f, x - x.max()) ** 2 @ A)
    e = np.full(m.size, x.max())
    if (out := m < 2.0**-500).any():
        fv, ev = np.frexp(np.abs(V[:, out]))
        ex = ev + x[:, None]
        e[out] = np.where(fv > 0, ex, ex.min()).max(axis=0)
        m[out] = np.linalg.norm(np.ldexp(fv * f[:, None], ex - e[out]), axis=0)
    return m, e


@dataclass(frozen=True)
class BiorthogonalSystem:
    """One gauged solve, sorted by (Re, Im), and the eigen-triples (E_i, R_i,
    L_i) derived from it on first read.

    Fields: the complex eigenvalues; the right and left vectors Vb and Lb of
    H_b = D^-1 H D, in the solver's dtype (float64 on the Hermitian paths
    for a real H_b, and on eig for a real H_b with an all-real spectrum;
    complex otherwise), with Lb = Vb on the Hermitian paths and
    <Lb_i|Vb_i> = 1 on eig wherever that pairing is numerically
    meaningful; the scales (f, x) of D = diag(f 2^x) (1/2 and 1 for no
    gauge); and `solver`: "chiral", "eigh" or "eig" (module docstring).

    Derived: `conditions`, ||L_i|| ||R_i|| at <L_i|R_i> = 1, inf beyond the
    float range or for a pair with no dual, never nan; `ep_flag`; `right`,
    R_i = D Vb_i at unit norm, largest component real and positive, which
    never overflows; and `left`, L_i = D^-1 Lb_i at <L_i|R_i> = <Lb_i|Vb_i>,
    which alone raises EigensolverError past the float range.  conj(L_i) R_i
    = conj(Lb_i) Vb_i entry by entry, so a biorthogonal density needs neither.
    """

    eigenvalues: np.ndarray
    Vb: np.ndarray
    Lb: np.ndarray
    scales: tuple
    solver: str

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def conditions(self) -> np.ndarray:
        Vb, Lb, scales = self.Vb, self.Lb, self.scales
        A = Vb * Vb if Vb.dtype == float else (Vb.conj() * Vb).real
        B = A if Lb is Vb else Lb * Lb if Lb.dtype == float else (Lb.conj() * Lb).real
        (mr, er), (ml, el) = _log2_norms(Vb, A, scales, 1), _log2_norms(Lb, B, scales, -1)
        with np.errstate(over="ignore"):
            kappa = np.ldexp(mr * ml, er + el)
        if self.solver == "eig":  # a pair with no dual (`_left_vectors`)
            kappa[np.abs(np.sum(Lb.conj() * Vb, axis=0)) <= 1e-12] = np.inf
        return kappa

    @cached_property
    def ep_flag(self) -> bool:
        """Set when cond(Vb) > COND_LIMIT in the gauged basis, which bounds
        |Lb^H Vb - I|, about eps cond(Vb), too: the skin effect's non-normality,
        which the gauge removes, is no exceptional point and would amplify
        rounding.  Only eig takes this measure: a Hermitian H_b is diagonalizable."""
        return self.solver == "eig" and bool(_conditioning(self.Vb)[0] > COND_LIMIT)

    @cached_property
    def right(self) -> np.ndarray:
        Vb, (f, x) = self.Vb, self.scales
        m, e = _log2_norms(Vb, np.abs(Vb) ** 2, (f, x), 1)  # ||D Vb_i|| = m_i 2^e_i
        # D Vb_i / (m_i 2^e_i) by the powers of two 2^(x - e_i) <= 1, e_i = max x,
        # but in the columns _log2_norms rescaled: there 2^(x - e_i) is taken in
        # two halves that cannot overflow (x - e_i passes 1074 only where Vb is 0)
        R = np.multiply(Vb, np.ldexp(f, x - x.max())[:, None] / m, order="F")
        if (t := e != x.max()).any():
            k = np.minimum(x[:, None] - e[t], 2046)
            R[:, t] = Vb[:, t] * np.ldexp(f[:, None] / m[t], k // 2) * np.ldexp(1.0, k - k // 2)
        lead = R[np.argmax(np.abs(R), axis=0), np.arange(self.n)]
        R /= lead / np.abs(lead)  # the largest entry real and positive
        return R

    @cached_property
    def left(self) -> np.ndarray:
        R, (f, x) = self.right, self.scales
        k, cols = np.argmax(np.abs(R), axis=0), np.arange(self.n)  # each largest entry
        c = self.Vb[k, cols] / R[k, cols]  # c_i / d_k for R_i = D Vb_i / c_i
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.ldexp(f[k] / f[:, None], x[k] - x[:, None]) * c.conj()
            L = np.multiply(self.Lb, scale, order="F")
        if not np.isfinite(L).all():
            raise EigensolverError("physical eigenvectors leave the float range")
        return L


def eig_biorthogonal(op) -> BiorthogonalSystem:
    """Full right+left eigensystem of a dense operator from one eigensolve."""
    w, Vb, Lb, scales, solver = _gauged_eig(_as_matrix(op))
    scales = scales or np.frexp(np.ones(len(w)))  # no gauge: d = 1 = 0.5 2^1
    return BiorthogonalSystem(np.asarray(w, dtype=complex), Vb, Lb, scales, solver)


def family_spectra(H0, W, epsilons) -> list:
    """dense_spectrum(H0 + eps W) for each eps in turn.  Members whose nonzero
    pattern is the family's, that of H0 or W, share one pattern part; any
    other (eps = 0, or a bond eps W that underflows) derives its own."""
    wi, wj = np.nonzero(W)  # only these entries differ from H0's: no n x n temporary
    wv = W[wi, wj]
    nz = H0 != 0
    nz[wi, wj] = True
    family, count = _pattern(nz), np.count_nonzero(nz)
    del W, nz  # only W's nonzero entries are held through the solves
    out = []
    for eps in epsilons:
        M = H0.astype(np.result_type(H0, wv, eps))
        M[wi, wj] += eps * wv
        shared = family if np.count_nonzero(M) == count else None
        out.append(np.asarray(_gauged_eig(M, False, shared)[0], dtype=complex))
    return out


def non_normality(op) -> float:
    """Frobenius norm of [H, H^dag]; zero iff H is normal."""
    H = _as_matrix(op)
    Hd = H.conj().T
    return float(np.linalg.norm(H @ Hd - Hd @ H, "fro"))


def ep_diagnostic(op) -> dict:
    """kappa_V, the condition number of the gauged right-vector matrix that
    ep_flag tests (1 on the Hermitian paths), and defect_estimate, its count
    of singular values at most sqrt(eps) times the largest (the missing
    eigenvector directions), from the gauged vectors of eig_biorthogonal."""
    system = eig_biorthogonal(op)  # Vb is unitary off the eig path: no SVD there
    kappa, defect = _conditioning(system.Vb) if system.solver == "eig" else (1.0, 0)
    return {"kappa_V": kappa, "defect_estimate": defect}


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite sets of complex numbers."""
    a, b = (np.asarray(z, dtype=complex).ravel() for z in (a, b))
    # sqrt(dx^2 + dy^2): np.abs rounds some distances differently in the
    # last bit, which crossover.csv would show
    dx, dy = a.real[:, None] - b.real, a.imag[:, None] - b.imag
    D = np.sqrt(dx * dx + dy * dy)
    return float(max(D.min(axis=1).max(), D.min(axis=0).max()))
