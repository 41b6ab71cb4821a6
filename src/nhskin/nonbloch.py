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
twice however many seeds it refines.  Its roots come from
`model._char_roots` in one batched companion solve, so `beta_roots`
takes one energy or a 1-D array of energies; a vanishing end coefficient
comes back as a root at inf or 0, which `beta_roots` refuses and the amoeba
drops.  The numerical settings no caller varies are the module constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DegenerateCharPolyError, RefinementError, SamplingError
from .model import LatticeModel, _char_roots, char_poly
from .realspace import build
from .spectral import dense_spectrum

REFINE_TOL = 1e-8  # energy tolerance of each GBZ seed refinement
MAX_FAILURE_FRACTION = 0.05  # of GBZ seeds left off the zone after refinement
MAX_BAD_FRACTION = 0.01  # of amoeba samples with a vanishing leading coefficient
MIN_HOLE_CELLS = 4  # smallest unreached complement component that is a hole


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


def _side_of(beta: complex, tol: float) -> str:
    m = abs(beta)
    if m < 1 - tol:
        return "left"
    if m > 1 + tol:
        return "right"
    return "bloch"


def gbz_curve(model: LatticeModel, N_seed: int = 400, gbz_tol: float = 1e-6) -> List[GBZSample]:
    """Generalized-zone samples seeded from a finite-lattice spectrum.

    Finite-size eigenvalues sit O(1/N) off the infinite-size curve, so each
    seed whose residual is not already below gbz_tol / 10 is nudged along
    the local normal of the spectral curve to the minimum of the
    modulus-degeneracy residual, to within REFINE_TOL in energy.  Both
    degenerate-modulus roots are emitted per refined energy; more than
    MAX_FAILURE_FRACTION of seeds left at or above gbz_tol is an error.
    """
    from scipy.optimize import minimize_scalar

    cp = _char_poly_1d(model, "gbz_curve")
    q = -cp.span(0)[0]
    seeds = dense_spectrum(build(model, [int(N_seed)], "obc"))

    def normal(i: int) -> complex:
        a = seeds[max(i - 1, 0)]
        b = seeds[min(i + 1, len(seeds) - 1)]
        t = b - a
        if abs(t) < 1e-14:
            return 1j
        return 1j * t / abs(t)

    spacing = np.maximum(np.abs(np.diff(seeds, prepend=seeds[0] - (seeds[1] - seeds[0]))), 1e-6)
    E_ref = seeds.astype(complex)
    # the seed batch goes through the public beta_roots so traces count it
    r_ref = _pair_residual(beta_roots(model, E_ref), q)
    for i in np.flatnonzero(r_ref >= gbz_tol * 0.1):
        E0, nhat = E_ref[i], normal(i)
        h = 2.0 * float(spacing[i])
        opt = minimize_scalar(
            lambda t: _pair_residual(_sorted_roots(cp, E0 + t * nhat), q),
            bounds=(-h, h),
            method="bounded",
            options={"xatol": REFINE_TOL},
        )
        E_ref[i] = E0 + float(opt.x) * nhat
        r_ref[i] = opt.fun
    kept = r_ref < gbz_tol
    failures = np.flatnonzero(~kept).tolist()
    if len(failures) > MAX_FAILURE_FRACTION * len(seeds):
        raise RefinementError(
            f"{len(failures)}/{len(seeds)} seeds failed GBZ refinement; "
            f"first failing indices: {failures[:10]}"
        )
    return [
        GBZSample(
            beta=complex(b),
            energy=complex(E),
            modulus_residual=float(r),
            side=_side_of(b, gbz_tol),
        )
        for E, r, roots in zip(E_ref[kept], r_ref[kept], _sorted_roots(cp, E_ref[kept]))
        for b in roots[q - 1 : q + 1]
    ]


# ------------------------------------------------------------------- amoebas


@dataclass
class AmoebaRaster:
    """Boolean occupancy over (log|beta_x|, log|beta_y|)."""

    window: Tuple[Tuple[float, float], Tuple[float, float]]
    resolution: Tuple[int, int]
    occupancy: np.ndarray

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
    in beta_y, solved for all branches at once via batched companion
    matrices.  Along each raster column the sorted root moduli are continuous
    functions of the phase, so every modulus rank sweeps a full interval over
    the phase circle; those intervals are what get filled.  (Marking isolated
    root samples instead leaves sampling pinholes that read as spurious
    holes.)  Samples with a root at infinity (a vanishing leading
    coefficient) are dropped, on up to MAX_BAD_FRACTION of the samples; an
    empty sampling plan is refused.  The defaults are sized so the built-in
    tentacle widths span several grid cells.
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
    rx = np.linspace(xlo, xhi, nx)
    ph = np.linspace(0.0, 2 * np.pi, nph, endpoint=False)
    bx = np.exp(rx[:, None] + 1j * ph[None, :])  # (nx, nph)

    # A[..., j] multiplies beta_y^(j + ylo_s); each power of beta_x is taken once
    A = np.zeros((nx, nph, deg + 1), dtype=complex)
    for jx, row in enumerate(cp.at(E)):
        bx_pow = bx ** (jx + cp.lo[0])
        for jy in np.flatnonzero(row):
            A[..., jy] += row[jy] * bx_pow

    roots = _char_roots(A)
    good = np.isfinite(roots).all(axis=-1)
    bad_fraction = 1.0 - good.mean()
    if bad_fraction > MAX_BAD_FRACTION:
        raise SamplingError(
            f"{bad_fraction:.1%} of amoeba samples have degenerate leading "
            f"coefficients (limit {MAX_BAD_FRACTION:.1%})"
        )
    with np.errstate(divide="ignore"):
        ry = np.log(np.abs(roots))
    ry = np.sort(ry, axis=-1)  # sorted moduli: continuous in the phase
    ry[~good] = np.nan

    occ = np.zeros((nx, ny), dtype=bool)
    yscale = (ny - 1) / (yhi - ylo)

    with np.errstate(invalid="ignore"):
        ymin = np.nanmin(ry, axis=1)  # (nx, deg) per-rank interval bottom
        ymax = np.nanmax(ry, axis=1)
    for r in range(deg):
        a, b = ymin[:, r], ymax[:, r]
        visible = ~np.isnan(a) & (b >= ylo) & (a <= yhi)
        ia = np.clip(np.floor((a - ylo) * yscale), 0, ny - 1).astype(int)
        ib = np.clip(np.ceil((b - ylo) * yscale), 0, ny - 1).astype(int)
        for i in np.nonzero(visible)[0]:
            occ[i, ia[i] : ib[i] + 1] = True

    return AmoebaRaster(
        window=((float(xlo), float(xhi)), (float(ylo), float(yhi))),
        resolution=(nx, ny),
        occupancy=occ,
    )


def has_hole(raster: AmoebaRaster) -> bool:
    """Flood-fill the complement from the window boundary (4-connectivity);
    a hole is an unreached complement component of at least MIN_HOLE_CELLS.
    The minimum size suppresses single-cell pinholes from finite sampling."""
    from scipy import ndimage

    labels, n = ndimage.label(~raster.occupancy)  # default structure = 4-connectivity
    sizes = np.bincount(labels.ravel(), minlength=n + 1)
    sizes[0] = 0  # label 0 is the occupied cells
    sizes[np.concatenate([labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]])] = 0
    return bool((sizes >= MIN_HOLE_CELLS).any())


def obc_member_2d(model: LatticeModel, E) -> bool:
    """E belongs to the 2D OBC spectrum iff its amoeba has no hole."""
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
