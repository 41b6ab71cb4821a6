"""Driven response and dynamics on finite lattices.

Non-reciprocal hopping shows up here three ways: a non-symmetric
susceptibility |chi_ij| != |chi_ji|, end-to-end amplification ratios that
grow exponentially with system size, and wave packets that funnel toward an
interface where the preferred direction flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import AmbiguousTargetError, SingularProbeError, StepSizeError
from .model import LatticeModel
from .realspace import RealSpaceOperator, _assemble, build, from_matrix
from .spectral import _as_matrix, dense_spectrum, family_spectra, hausdorff_distance


@dataclass(frozen=True)
class Susceptibility:
    """Linear response chi(omega) = -i (omega - H)^{-1} with its reciprocity
    defect max_ij ||chi_ij| - |chi_ji||."""

    omega: complex
    chi: np.ndarray
    asymmetry: float


def susceptibility(op, omega) -> Susceptibility:
    H = _as_matrix(op)
    return _susceptibility(H, omega, np.linalg.norm(H, 2))


def _susceptibility(H: np.ndarray, omega, scale: float) -> Susceptibility:
    """`susceptibility` with ||H||_2 (a full SVD) passed in, so a sweep over
    frequencies computes it once."""
    A = complex(omega) * np.eye(H.shape[0]) - H
    smin = np.linalg.svd(A, compute_uv=False)[-1]
    if smin <= 1e-10 * max(scale, 1.0):
        raise SingularProbeError(
            f"probe frequency {omega} sits on (or too near) an eigenvalue; "
            f"sigma_min = {smin:.3e}"
        )
    chi = -1j * np.linalg.inv(A)
    mag = np.abs(chi)
    asymmetry = float(np.max(np.abs(mag - mag.T)))
    return Susceptibility(omega=complex(omega), chi=chi, asymmetry=asymmetry)


def reciprocity_test(op, omegas: Iterable[complex]) -> np.ndarray:
    """The asymmetry max_ij ||chi_ij| - |chi_ji|| at each frequency."""
    H = _as_matrix(op)
    scale = np.linalg.norm(H, 2)
    return np.array([_susceptibility(H, w, scale).asymmetry for w in omegas])


def amplification_log_ratio(op, omega=0.0) -> float:
    """log |chi_{N1} / chi_{1N}|: end-to-end gain imbalance.

    Both cofactors share det(omega - H), so the ratio reduces to corner
    minors and stays finite even where the resolvent itself diverges; the
    log-determinants are taken directly to avoid overflow at large N.
    """
    H = _as_matrix(op)
    A = complex(omega) * np.eye(H.shape[0]) - H
    s_top = np.linalg.slogdet(A[1:, :-1])
    s_bot = np.linalg.slogdet(A[:-1, 1:])
    if s_top[0] == 0 or s_bot[0] == 0:
        raise SingularProbeError("corner minor is exactly singular; gain ratio undefined")
    return float(s_top[1] - s_bot[1])


@dataclass
class Trajectory:
    """Renormalized time evolution: unit-norm states plus the accumulated
    log of the norm growth that was divided out."""

    times: np.ndarray
    states: np.ndarray  # (n_steps + 1, N)
    densities: np.ndarray  # (n_steps + 1, n_cells)
    log_growth: np.ndarray  # cumulative log ||psi_raw||


def time_evolve(
    op: RealSpaceOperator,
    psi0: np.ndarray,
    t_max: float,
    dt: float,
) -> Trajectory:
    """Propagate psi under exp(-i H dt) steps with per-step renormalization.

    Non-Hermitian norms can grow by e^{||H|| t}; renormalizing each step and
    logging the factor keeps every intermediate finite.  One propagator U
    serves every step, since dt is constant: the Taylor series of
    exp(-i H dt) through the 16th power, summed by Horner.  The guard
    dt ||H||_2 < 0.5 keeps one step from crossing an appreciable fraction
    of the spectrum, and it also bounds the dropped remainder by
    0.5^17 / 17! ~ 2e-20 relative, far below double precision.
    """
    if not (0 < dt < np.inf and 0 <= t_max < np.inf):
        raise ValueError(f"need finite dt > 0 and t_max >= 0, got dt={dt}, t_max={t_max}")
    H = op.matrix
    hnorm = np.linalg.norm(H, 2)
    if dt * hnorm >= 0.5:
        raise StepSizeError(
            f"dt * ||H|| = {dt * hnorm:.3f} >= 0.5; reduce the time step"
        )
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.shape != (op.n,):
        raise ValueError(f"initial state must have shape ({op.n},)")
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ValueError("initial state is identically zero")
    psi /= nrm

    n_steps = int(round(t_max / dt))
    A = -1j * dt * H
    U = eye = np.eye(op.n)
    for m in range(16, 0, -1):
        U = eye + (A @ U) / m
    states = np.zeros((n_steps + 1, op.n), dtype=complex)
    logg = np.zeros(n_steps + 1)
    states[0] = psi
    for k in range(1, n_steps + 1):
        psi = U @ psi
        nrm = np.linalg.norm(psi)
        psi /= nrm
        states[k] = psi
        logg[k] = logg[k - 1] + np.log(nrm)
    dens = op.index_map.cell_sum(np.abs(states) ** 2)
    times = np.arange(n_steps + 1) * dt
    return Trajectory(times=times, states=states, densities=dens, log_growth=logg)


def funnel_model(J_L: float, J_R: float, N_half: int) -> RealSpaceOperator:
    """Chain of two mirrored non-reciprocal halves meeting at an interface.

    Both halves amplify toward the center, so any excitation funnels to the
    interface.  The interface bond carries the mean amplitude both ways.
    """
    if abs(abs(J_L) - abs(J_R)) < 1e-14:
        raise ValueError("funnel requires asymmetric hopping, |J_L| != |J_R|")
    if N_half < 2:
        raise ValueError("need at least two sites per half")
    N = 2 * int(N_half)
    mid = (J_L + J_R) / 2.0
    H = np.zeros((N, N), dtype=complex)
    for n in range(N - 1):
        if n < N_half - 1:
            up, dn = J_L, J_R  # left half: amplification to the right
        elif n == N_half - 1:
            up = dn = mid
        else:
            up, dn = J_R, J_L  # right half: mirrored
        H[n, n + 1] = up
        H[n + 1, n] = dn
    return from_matrix(H)


def _ring_family(model: LatticeModel, cells: int, epsilons):
    """Yields the open chain H0's spectrum, then its Coupled(eps) ring's per eps:
    H0 + eps W with the wrap bonds W, build's ring bit for bit in 1D (an entry
    holds at most one open and one wrap bond), solved as one `family_spectra`."""
    H0 = build(model, [cells], "obc").matrix
    yield dense_spectrum(H0)
    yield from family_spectra(H0, _assemble(model, (cells,), np.ones(1), inner=0.0), epsilons)


def sensor_sweep(
    model: LatticeModel,
    epsilon: float,
    N_list: Sequence[int],
    target: complex = 0.0,
) -> np.ndarray:
    """|dE|, the shift of the eigenvalue nearest `target` under weak boundary
    coupling, for each size in `N_list`.

    N counts lattice sites.  For each size the reference mode is picked from
    the open-boundary spectrum; if any other eigenvalue sits within 1e-9 of
    the reference the tracking is ill-posed and an error is raised.  The
    coupled eigenvalue is then the one nearest that reference.
    """
    out = []
    B = model.bands
    for N in N_list:
        if N % B != 0:
            raise ValueError(f"N={N} sites is not a whole number of {B}-site cells")
        spectra = _ring_family(model, N // B, [epsilon])
        e_obc = next(spectra)
        d = np.abs(e_obc - complex(target))
        pick = int(np.argmin(d))
        ref = e_obc[pick]
        rest = np.delete(e_obc, pick)
        # a (near-)duplicate of the reference makes the shift untrackable
        if len(rest) and np.min(np.abs(rest - ref)) < 1e-9:
            raise AmbiguousTargetError(
                f"another open-boundary eigenvalue sits within "
                f"{np.min(np.abs(rest - ref)):.3e} of the tracked one at N={N}"
            )
        e_c = next(spectra)
        shifted = e_c[np.argmin(np.abs(e_c - ref))]
        out.append(float(abs(shifted - ref)))
    return np.array(out)


def boundary_crossover(
    model: LatticeModel,
    N: int,
    epsilons: Sequence[float],
) -> tuple:
    """Spectral migration from the open-boundary cloud toward the periodic
    loops as the boundary link is turned on: the arrays (distance, max_imag),
    one entry per eps.  The rings are one `_ring_family`, each entry the one a
    build and dense_spectrum per eps would give."""
    e_obc, *rings = _ring_family(model, int(N), [float(eps) for eps in epsilons])
    distance = np.array([hausdorff_distance(e, e_obc) for e in rings])
    return distance, np.array([np.max(np.abs(e.imag)) for e in rings])
