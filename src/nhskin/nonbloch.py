"""Non-Bloch band theory: 1D generalized Brillouin zone and 2D amoebas.

The open-boundary spectrum of a 1D chain lives not on the Bloch circle
|beta| = 1 but on the curve where the two middle-modulus characteristic
roots degenerate: with roots of beta^q det[E - H(beta)] sorted ascending by
modulus and q the pole order, E belongs to the OBC spectrum iff
|beta_q| = |beta_{q+1}|.  In 2D no such curve exists; instead the amoeba of
det[E - H(beta_x, beta_y)] — the image of its zero set under coordinate-wise
log-modulus — develops a central hole exactly when E lies outside the OBC
spectrum.

Both tests read the model's one characteristic polynomial, `char_poly`, whose
exact exponent span fixes q; `gbz_membership` expands it once, `gbz_curve`
twice, the second time for its one `beta_roots` check.  The 1D roots come from
`model._char_roots` in one batched companion solve, so `beta_roots`
takes one energy or a 1-D array of energies.  The amoeba reads only root
moduli; those of its quadratics in beta_y come in closed form from
`model._quadratic_moduli`.  Either way a vanishing end coefficient comes back
as a root at inf or 0; `beta_roots` refuses both, and the amoeba drops the
samples with a root at inf.  The hole test reads the same extreme moduli
per raster column and one batched root count.  The numerical settings no
caller varies are the module constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DegenerateCharPolyError, SamplingError
from .model import LatticeModel, _char_roots, _quadratic_moduli, char_poly

COPY_TOL = 1e-6  # relative distance within which two roots are one multiple root
MAX_BAD_FRACTION = 0.01  # of amoeba samples with a vanishing leading coefficient
BLOCK_SAMPLES = 32768  # amoeba samples per column block: its temporaries fit a 4 MiB L2 cache


def _pair_residual(roots: np.ndarray, q: int) -> np.ndarray:
    """Relative modulus gap of the middle roots roots[..., q - 1], roots[..., q]."""
    b1, b2 = np.abs(roots[..., q - 1]), np.abs(roots[..., q])
    return np.abs(b1 - b2) / b1


def _char_poly_1d(model: LatticeModel, name: str):
    """The characteristic polynomial of a 1D model that hops both ways."""
    if model.dimension != 1:
        raise ValueError(f"{name} is defined for 1D models only")
    cp = char_poly(model)
    lo, hi = cp.span(0)
    if hi < 1 or lo > -1:
        raise DegenerateCharPolyError(
            "characteristic polynomial reaches only one hopping direction; "
            "no finite generalized zone exists (one-way hopping)"
        )
    return cp


def _sorted_roots(cp, E) -> np.ndarray:
    """`beta_roots` of an already expanded characteristic polynomial."""
    roots = _char_roots(cp.at(E))
    bad = (~np.isfinite(roots) | (roots == 0)).any(axis=-1)
    if bad.any():
        E_bad = np.asarray(E)[bad][0]
        raise DegenerateCharPolyError(
            f"degenerate leading/trailing characteristic coefficient at E={E_bad}"
        )
    order = np.lexsort((np.angle(roots), np.abs(roots)), axis=-1)
    return np.take_along_axis(roots, order, axis=-1)


def beta_roots(model: LatticeModel, E) -> np.ndarray:
    """All roots of beta^q det[E - H(beta)], ascending by (modulus, argument).

    q is the pole order; the root count is p + q with [-q, p] the exact
    exponent span.  E is one energy (one row of roots) or a 1-D array of
    energies (one sorted row per energy).  One-way hopping (vanishing
    leading or trailing coefficient, a root at inf or 0) has no finite set
    of characteristic roots and is reported.
    """
    return _sorted_roots(_char_poly_1d(model, "beta_roots"), E)


def gbz_membership(model: LatticeModel, E, gbz_tol: float = 1e-6) -> dict:
    """Middle-modulus degeneracy verdict at one energy."""
    cp = _char_poly_1d(model, "gbz_membership")
    roots = _sorted_roots(cp, E)
    q = -cp.span(0)[0]
    residual = float(_pair_residual(roots, q))
    return {
        "member": bool(residual < gbz_tol),
        "residual": residual,
        "beta_pair": (complex(roots[q - 1]), complex(roots[q])),
    }


@dataclass(frozen=True)
class GBZSample:
    """One point of the generalized zone: beta with its energy and the
    modulus-degeneracy residual; side is the localization verdict
    ('left' for |beta| < 1, 'right' for |beta| > 1, 'bloch' on the circle)."""

    beta: complex
    energy: complex
    modulus_residual: float
    side: str


def _f_and_grad(cp, beta, E):
    """det[E - H(beta)] with its partial derivatives in beta and in E."""
    j, k = np.arange(cp.coeffs.shape[1]) + cp.lo[0], np.arange(cp.coeffs.shape[0])
    pw, Ek = beta[..., None] ** j, E[..., None] ** k
    a, da = pw @ cp.coeffs.T, (pw * j / beta[..., None]) @ cp.coeffs.T  # E-coefficients
    return (a * Ek).sum(-1), (da * Ek).sum(-1), (a[..., 1:] * k[1:] * Ek[..., :-1]).sum(-1)


def gbz_curve(model: LatticeModel, N_seed: int = 400, gbz_tol: float = 1e-6) -> List[GBZSample]:
    """The generalized zone, sampled as an N_seed-cell chain samples it.

    Roots beta and beta e^{i theta} of one energy are the zeros of the resultant
    R(beta) = Res_E[f(beta, .), f(beta e^{i theta}, .)], f = det[E - H(beta)]
    (Yang et al., PRL 125, 226402 (2020)).  For theta = 2 pi m / (N_seed + 1),
    m = 1..N_seed, one FFT of 2B x 2B Sylvester determinants on the unit circle
    gives R's Laurent coefficients; its roots (less those at 0 or inf) take the
    energy their two polynomials share and one Newton step on the pair.  A root
    is kept when beta and beta e^{i theta} are the middle-modulus pair at E, to
    within gbz_tol.  For Hatano-Nelson the energies are the N_seed-site OBC
    eigenvalues, each once per root of its pair.
    """
    if N_seed < 1:
        raise SamplingError(f"the zone needs at least one theta sample, got N_seed = {N_seed}")
    cp = _char_poly_1d(model, "gbz_curve")
    (lo, hi), B = cp.span(0), cp.coeffs.shape[0] - 1
    j = np.arange(lo, hi + 1)
    theta = 2 * np.pi * np.arange(1, N_seed + 1) / (N_seed + 1)
    M = 2 * B * (hi - lo) + 1  # R spans the exponents [2B lo, 2B hi]
    pw = np.exp(2j * np.pi * np.arange(M) / M)[:, None] ** j
    a = pw @ cp.coeffs.T  # (M, B + 1): the E-coefficients of f(beta, .)
    # rows of f(beta e^{i theta}, .) less those of f(beta, .): the same
    # determinant, without cancelling two nearly equal rows at small theta
    d = (pw * np.expm1(1j * theta[:, None, None] * j)) @ cp.coeffs.T
    syl = np.zeros((N_seed, M, 2 * B, 2 * B), dtype=complex)
    for i in range(B):
        syl[..., i, i : i + B + 1] = a[..., ::-1]
        syl[..., B + i, i : i + B + 1] = d[..., ::-1]
    R = np.fft.fft(np.linalg.det(syl), axis=-1)[:, np.arange(2 * B * lo, 2 * B * hi + 1) % M]
    roots = _char_roots(R)
    valid = np.isfinite(roots) & (roots != 0)
    roots = np.where(valid, roots, 1.0)
    turn = np.broadcast_to(np.exp(1j * theta)[:, None], roots.shape)

    same = np.abs(roots[..., :, None] - roots[..., None, :]) <= COPY_TOL * np.abs(roots)[..., None]
    copy = np.tril(same, -1).sum(-1)[..., None]
    lead = np.take_along_axis(roots, same.argmax(-1), -1)  # the first copy of each root
    E = np.ones(roots.shape + (B,), dtype=complex)  # the roots of each f(lead, .)
    E[valid] = _char_roots(lead[valid][:, None] ** j @ cp.coeffs.T)
    # best shared energy first; the copies of a multiple root take them in turn
    miss = np.abs(_f_and_grad(cp, (lead * turn)[..., None], E)[0])
    pick = np.take_along_axis(np.argsort(miss, -1), np.minimum(copy, B - 1), -1)
    beta, E, turn = roots[valid], np.take_along_axis(E, pick, -1)[valid, 0], turn[valid]

    # one Newton step on the pair restores the digits a multiple root loses
    f1, f1b, f1e = _f_and_grad(cp, beta, E)
    f2, f2b, f2e = _f_and_grad(cp, beta * turn, E)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = f1b * f2e - f1e * f2b * turn
        beta, E = beta - (f1 * f2e - f2 * f1e) / det, E - (f2 * f1b - f1 * f2b * turn) / det
    ok = np.isfinite(beta) & np.isfinite(E)
    beta, E = beta[ok], E[ok]

    at_E = beta_roots(model, E)  # one batch through the public function, so traces count it
    residual = _pair_residual(at_E, -lo)
    kept = (residual < gbz_tol) & (np.abs(np.abs(at_E[:, -lo - 1] / beta) - 1) < gbz_tol)
    if not kept.any():
        raise SamplingError(f"no point of the zone on {N_seed} theta samples (a flat band?)")
    mod = np.abs(beta)
    side = np.where(mod < 1 - gbz_tol, "left", np.where(mod > 1 + gbz_tol, "right", "bloch"))
    cols = (beta[kept].tolist(), E[kept].tolist(), residual[kept].tolist(), side[kept].tolist())
    return [GBZSample(*row) for row in zip(*cols)]


# ------------------------------------------------------------------- amoebas


@dataclass
class AmoebaRaster:
    """Boolean occupancy over (log|beta_x|, log|beta_y|), and the widest column
    gap in the central complement component (-inf where there is none)."""

    window: Tuple[Tuple[float, float], Tuple[float, float]]
    resolution: Tuple[int, int]
    occupancy: np.ndarray
    hole_margin: float

    def axis_centers(self, axis: int) -> np.ndarray:
        return np.linspace(*self.window[axis], self.resolution[axis])


def amoeba_points(
    model: LatticeModel,
    E,
    r_x_samples: int = 300,
    phase_samples: int = 600,
    window: Tuple[Tuple[float, float], Tuple[float, float]] = ((-3.0, 3.0), (-3.0, 3.0)),
) -> AmoebaRaster:
    """Rasterize the amoeba of det[E - H(beta_x, beta_y)] = 0.

    For each log-modulus r_x and phase phi the substitution
    beta_x = exp(r_x + i phi) leaves a univariate characteristic polynomial
    in beta_y.  Its coefficients are separable sums
    sum_k e^{k r_x} coef[k, j] e^{i k phi}, one small matrix product per
    block of raster columns; a block holds about BLOCK_SAMPLES samples, so
    its temporaries stay in cache.  Only the root moduli of each block are
    computed, for all branches at once: in closed form when the polynomial
    is quadratic (its beta_y exponents span two, as in asym2d), else by
    batched companion matrices.  Along each raster column the sorted root
    moduli are continuous functions of the phase, so every modulus rank
    sweeps a full interval over the phase circle; those intervals are what
    get filled, from the log of each column's extreme moduli.  (Marking
    isolated root samples instead leaves sampling pinholes.)  With q the pole
    order in beta_y, a column's gap runs from the top of rank q - 1 to the
    bottom of rank q; it lies in the central complement component when
    det[E - H(beta_x, e^mu)] at its mid-height mu has q_x roots inside
    |beta_x| = e^{r_x} (f has no zero on a torus in the complement, so one
    phase of beta_y does).  Samples with a root at infinity (a vanishing
    leading coefficient) are dropped, on up to MAX_BAD_FRACTION of the
    samples; an empty sampling plan, or a window without lo < hi on each
    axis, is refused.  The defaults are sized so the built-in tentacle
    widths span several grid cells.
    """
    if model.dimension != 2:
        raise ValueError("amoeba construction requires a 2D model")
    cp = char_poly(model)
    ylo_s, yhi_s = cp.span(1)
    deg = yhi_s - ylo_s
    if deg < 1:
        raise DegenerateCharPolyError("model has no hopping along the y axis")
    (xlo, xhi), (ylo, yhi) = window
    nx = ny = int(r_x_samples)
    nph = int(phase_samples)
    if min(nx, nph) < 1:
        raise SamplingError(f"empty sampling plan: {nx} raster columns x {nph} phases")
    if not (xlo < xhi and ylo < yhi):
        raise SamplingError(f"the window needs lo < hi on both axes, got {window}")
    rx = np.linspace(xlo, xhi, nx)
    ph = np.linspace(0.0, 2 * np.pi, nph, endpoint=False)
    kx = np.arange(cp.coeffs.shape[1]) + cp.lo[0]
    # beta_x^k = e^{k r_x} e^{i k phi}, so the coefficient of beta_y^(j + ylo_s),
    # A[j] = sum_k e^{k r_x} coef[k, j] e^{i k phi}, is one small product per block
    waves = cp.at(E).T[:, :, None] * np.exp(1j * kx[:, None] * ph)  # (deg + 1, k, phase)
    ext = np.empty((deg, 2, nx))  # per rank and column: lowest, highest modulus
    n_good, step = 0, max(1, BLOCK_SAMPLES // nph)
    for i in range(0, nx, step):
        A = np.exp(np.multiply.outer(rx[i : i + step], kx)) @ waves  # (deg + 1, column, phase)
        if deg == 2:
            ranks = _quadratic_moduli(*A)
        else:
            ranks = np.moveaxis(np.sort(np.abs(_char_roots(np.moveaxis(A, 0, -1))), axis=-1), -1, 0)
        good = np.isfinite(ranks[-1])  # sorted last, a root at inf or a nan row shows there
        n_good += np.count_nonzero(good)
        for rank, out in zip(ranks, ext[..., i : i + step]):
            rank[~good] = np.nan
            out[:] = np.nanmin(rank, axis=1), np.nanmax(rank, axis=1)
    bad_fraction = 1.0 - n_good / (nx * nph)
    if bad_fraction > MAX_BAD_FRACTION:
        raise SamplingError(
            f"{bad_fraction:.1%} of amoeba samples have degenerate leading "
            f"coefficients (limit {MAX_BAD_FRACTION:.1%})"
        )
    with np.errstate(divide="ignore"):
        ext = np.log(ext)  # log is monotone: the log-modulus interval each rank sweeps

    occ = np.zeros((nx, ny), dtype=bool)
    yscale = (ny - 1) / (yhi - ylo)
    for a, b in ext:
        visible = ~np.isnan(a) & (b >= ylo) & (a <= yhi)
        ia = np.clip(np.floor((a - ylo) * yscale), 0, ny - 1).astype(int)
        ib = np.clip(np.ceil((b - ylo) * yscale), 0, ny - 1).astype(int)
        for i in np.nonzero(visible)[0]:
            occ[i, ia[i] : ib[i] + 1] = True

    q, margin = -ylo_s, -np.inf
    if 1 <= q < deg:
        top, bottom = ext[q - 1, 1], ext[q, 0]
        cols = np.flatnonzero(np.isfinite(top + bottom))  # a column without a good sample is nan
        mid = 0.5 * (top[cols] + bottom[cols])
        ky = np.arange(cp.coeffs.shape[2]) + ylo_s
        roots = _char_roots(np.exp(np.multiply.outer(mid, ky)) @ cp.at(E).T)  # (column, q_x + p_x)
        count = np.count_nonzero(np.abs(roots) < np.exp(rx[cols, None]), axis=1)
        margin = float(np.max((bottom - top)[cols][count == -cp.lo[0]], initial=-np.inf))

    return AmoebaRaster(
        window=((float(xlo), float(xhi)), (float(ylo), float(yhi))),
        resolution=(nx, ny),
        occupancy=occ,
        hole_margin=margin,
    )


def has_hole(raster: AmoebaRaster) -> bool:
    """Whether the amoeba has a central hole, a complement component of order
    (q_x, q_y), the pole orders: `hole_margin` wider than COPY_TOL.  Closer
    ranks are one multiple root, as on the real axis of a separable model,
    whose exact zero gap comes out near 1e-14."""
    return raster.hole_margin > COPY_TOL


def obc_member_2d(model: LatticeModel, E) -> bool:
    """E belongs to the 2D OBC spectrum iff its amoeba has no central hole
    (Wang, Song & Wang, PRX 14, 021011 (2024)), read from `hole_margin` at
    the default sampling plan."""
    return not has_hole(amoeba_points(model, E))


# ------------------------------------------------------------------- exports


def export_gbz_csv(path, samples: List[GBZSample]) -> None:
    from .io import write_csv

    beta = np.array([s.beta for s in samples], dtype=complex)
    energy = np.array([s.energy for s in samples], dtype=complex)
    residual = [s.modulus_residual for s in samples]
    write_csv(
        path,
        ["re_beta", "im_beta", "re_e", "im_e", "residual", "side"],
        [beta.real, beta.imag, energy.real, energy.imag, residual, [s.side for s in samples]],
    )


def export_raster_pgm(raster: AmoebaRaster, path) -> None:
    from .io import write_pgm

    write_pgm(path, raster.occupancy)


def export_raster_csv(raster: AmoebaRaster, path) -> None:
    """Occupied-cell centers as an (r_x, log|beta_y|) point cloud."""
    from .io import write_csv

    xs = raster.axis_centers(0)
    ys = raster.axis_centers(1)
    ix, iy = np.nonzero(raster.occupancy)
    write_csv(path, ["rx", "log_abs_beta_y"], [xs[ix], ys[iy]])
