import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from nhskin import nonbloch
from nhskin.errors import SamplingError
from nhskin.model import LatticeModel, HoppingTerm, _char_roots, builtin_2d, char_poly
from nhskin.nonbloch import (
    amoeba_points,
    has_hole,
    obc_member_2d,
)
from nhskin.realspace import OBC, build
from nhskin.spectral import dense_spectrum


def criterion_07_energies():
    m = builtin_2d(0.5, 1.0, 0.2)
    e2d = dense_spectrum(build(m, [20, 20], "obc"))
    centroid = complex(np.mean(e2d))
    reach = float(np.max(np.abs(e2d - centroid)))
    inside = e2d[np.argsort(np.abs(e2d - centroid))[:10]]
    outside = centroid + (reach + 1.0) * np.exp(2j * np.pi * np.arange(10) / 10)
    return m, [complex(E) for E in (*inside, *outside)]


def companion_moduli(c, b, a):
    moduli = np.sort(np.abs(_char_roots(np.stack((c, b, a), axis=-1))), axis=-1)
    return moduli[..., 0], moduli[..., 1]


def test_closed_form_amoeba_matches_companion_solve(monkeypatch):
    m, energies = criterion_07_energies()
    plan = dict(r_x_samples=60, phase_samples=120)
    fast = [amoeba_points(m, E, **plan).occupancy for E in energies]
    monkeypatch.setattr(nonbloch, "_quadratic_moduli", companion_moduli)
    for E, occ in zip(energies, fast):
        np.testing.assert_array_equal(occ, amoeba_points(m, E, **plan).occupancy)


def companion_raster(model, E, nx, nph, window=((-3.0, 3.0), (-3.0, 3.0))):
    """The raster from one companion solve over the whole (column, phase) grid,
    every phase solved, with beta_x^k taken as powers of exp(r_x + i phi):
    (occupancy, hole margin, dropped samples).  The margin's root count takes
    numpy.roots of each column's polynomial in beta_x."""
    cp = char_poly(model)
    (xlo, xhi), (ylo, yhi) = window
    rx = np.linspace(xlo, xhi, nx)
    bx = np.exp(rx[:, None] + 1j * np.linspace(0.0, 2 * np.pi, nph, endpoint=False))
    A = sum(np.multiply.outer(bx ** (k + cp.lo[0]), row) for k, row in enumerate(cp.at(E)))
    roots = _char_roots(A)
    good = np.isfinite(roots).all(axis=-1)
    with np.errstate(divide="ignore"):
        ry = np.sort(np.log(np.abs(roots)), axis=-1)
    ry[~good] = np.nan
    occ = np.zeros((nx, nx), dtype=bool)
    scale = (nx - 1) / (yhi - ylo)
    ext = []
    for rank in np.moveaxis(ry, -1, 0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # a column with no good sample
            lo, hi = np.nanmin(rank, axis=1), np.nanmax(rank, axis=1)
        ext.append((lo, hi))
        for i in range(nx):
            if hi[i] >= ylo and lo[i] <= yhi:  # False on nan
                first = int(np.clip(np.floor((lo[i] - ylo) * scale), 0, nx - 1))
                last = int(np.clip(np.ceil((hi[i] - ylo) * scale), 0, nx - 1))
                occ[i, first : last + 1] = True
    q, margin = -cp.span(1)[0], -np.inf
    top, bottom = ext[q - 1][1], ext[q][0]
    for i in np.flatnonzero(np.isfinite(top + bottom)):
        mu = 0.5 * (top[i] + bottom[i])
        cx = cp.at(E) @ np.exp(mu * (np.arange(cp.coeffs.shape[2]) + cp.lo[1]))  # in beta_x
        inside = np.count_nonzero(np.abs(np.roots(cx[::-1])) < np.exp(rx[i]))
        if inside == -cp.span(0)[0]:
            margin = max(margin, bottom[i] - top[i])
    return occ, margin, int(np.count_nonzero(~good))


def asym2d_second_neighbour_y():
    """asym2d with y hops at +-2: quartic in beta_y, so the companion path."""
    extra = (HoppingTerm((0, 2), [[0.3]]), HoppingTerm((0, -2), [[0.15]]))
    return LatticeModel(dimension=2, bands=1, terms=builtin_2d(0.5, 1.0, 0.2).terms + extra)


@pytest.mark.parametrize("columns", [1, 63, 65, 129])
def test_column_blocks_match_whole_grid_solve(columns, monkeypatch):
    # 64 columns per block: a one-column block, one short block, one full
    # block and a one-column tail, two full blocks and a tail
    nph = 120
    monkeypatch.setattr(nonbloch, "BLOCK_SAMPLES", 64 * nph)
    asym2d, custom = builtin_2d(0.5, 1.0, 0.2), ((-1.0, 2.0), (-2.5, 1.5))
    for m, E, window in [(asym2d, 0.7, ((-3.0, 3.0), (-3.0, 3.0))), (asym2d, 4.5, custom),
                         (asym2d_second_neighbour_y(), 1.0 + 0.5j, custom)]:
        got = amoeba_points(m, E, r_x_samples=columns, phase_samples=nph, window=window)
        ref, _, dropped = companion_raster(m, E, columns, nph, window)
        assert dropped == 0
        np.testing.assert_array_equal(got.occupancy, ref)


@pytest.mark.parametrize("nph", [80, 81])
@pytest.mark.parametrize("E", [4.5, 0.7, -3.466, 1.0 + 0.5j, 4.75j])
def test_half_circle_at_real_energy_matches_full_plan(E, nph):
    # a real polynomial at phase 2 pi - phi is the conjugate of the one at
    # phi: its root moduli, the raster and the margin are those of every phase
    for m in (builtin_2d(0.5, 1.0, 0.2), asym2d_second_neighbour_y()):
        got = amoeba_points(m, E, r_x_samples=40, phase_samples=nph)
        occ, margin, dropped = companion_raster(m, E, 40, nph)
        assert dropped == 0
        np.testing.assert_array_equal(got.occupancy, occ)
        assert got.hole_margin == margin or abs(got.hole_margin - margin) <= 1e-12


@pytest.mark.parametrize("nph, solved", [(80, 41), (81, 41), (1, 1), (2, 2)])
def test_real_coefficients_solve_half_the_phases(nph, solved, monkeypatch):
    phases, quadratic = [], nonbloch._quadratic_moduli

    def spy(c, b, a):
        phases.append(c.shape[-1])
        return quadratic(c, b, a)

    monkeypatch.setattr(nonbloch, "_quadratic_moduli", spy)
    m = builtin_2d(0.5, 1.0, 0.2)
    amoeba_points(m, 4.5, r_x_samples=10, phase_samples=nph)
    amoeba_points(m, 4.5 + 1e-3j, r_x_samples=10, phase_samples=nph)
    assert phases == [solved, nph]


def test_vanishing_leading_coefficient_drops_samples():
    # asym2d's leading beta_y coefficient -(J_R + tp (beta_x + 1 / beta_x)) vanishes
    # at beta_x = -e^r, cosh r = J_R / (2 tp): phi = pi in the middle column of a
    # window centred on r
    m = builtin_2d(0.5, 1.0, 0.2)
    r = np.arccosh(2.5)
    window = ((r - 1.0, r + 1.0), (-3.0, 3.0))
    ref, _, dropped = companion_raster(m, 0.7, 11, 120, window)
    assert dropped == 1  # 1 of 1320 samples, under MAX_BAD_FRACTION
    got = amoeba_points(m, 0.7, r_x_samples=11, phase_samples=120, window=window)
    np.testing.assert_array_equal(got.occupancy, ref)
    # 1 of 40 samples is over it
    with pytest.raises(SamplingError, match="2.5% of amoeba samples"):
        amoeba_points(m, 0.7, r_x_samples=5, phase_samples=8, window=window)


def test_amoeba_peak_memory():
    m = builtin_2d(0.5, 1.0, 0.2)
    amoeba_points(m, 0.7)  # first-call imports and caches are not the raster's
    tracemalloc.start()
    try:
        amoeba_points(m, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6  # bytes, at the default 300 columns x 600 phases


def test_amoeba_command_leaves_scipy_ndimage_unloaded(tmp_path):
    args = ["amoeba", "--builtin", "asym2d", "--jl", "0.5", "--jr", "1.0", "--tp", "0.2",
            "--energy", "4+0i", "--resolution", "40", "--phases", "80", "--format", "pgm",
            "--out", str(tmp_path)]
    script = (
        "import sys\n"
        "from nhskin.cli import main\n"
        f"assert main({args!r}) == 0\n"
        "print('scipy.ndimage' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


def test_interior_energy_has_no_hole():
    m = builtin_2d(0.5, 1.0, 0.2)
    ev = dense_spectrum(build(m, [20, 20], OBC))
    e = ev[np.argmin(np.abs(ev - ev.mean()))]
    raster = amoeba_points(m, e, r_x_samples=150, phase_samples=300)
    assert not has_hole(raster)
    assert obc_member_2d(m, e)


def test_outside_energy_has_hole():
    m = builtin_2d(0.5, 1.0, 0.2)
    raster = amoeba_points(m, 4.5, r_x_samples=150, phase_samples=300)
    assert has_hole(raster)
    assert not obc_member_2d(m, 4.5)


# asym2d(0.5, 1, 0) separates: its OBC spectrum is 2 sqrt(J_L J_R)(cos k_x + cos k_y),
# the real segment [-2.83, 2.83], so off the axis there is a central hole and on it none
@pytest.mark.parametrize(
    "tp, E, hole",
    [
        (0.2, -3.466, True),  # a hole behind a strip of amoeba thinner than one raster cell
        (0.0, -2 + 0.01j, True),
        (0.0, 0.3 + 0.01j, True),
        (0.0, 1.7 - 0.05j, True),
        (0.0, -0.952 + 0.036j, True),
        *[(0.0, E, False) for E in (-2.7, -1.8, -0.9, 0.0, 0.9, 1.8, 2.7)],
    ],
)
def test_central_hole_against_oracles(tp, E, hole):
    m = builtin_2d(0.5, 1.0, tp)
    if tp:
        assert np.min(np.abs(dense_spectrum(build(m, [30, 30], OBC)) - E)) > 1.5
    assert obc_member_2d(m, E) is not hole


def test_axis_swap_symmetry():
    # swapping the two axes of the model transposes the amoeba
    m = builtin_2d(0.6, 1.1, 0.15)
    swapped = LatticeModel(
        dimension=2,
        bands=1,
        terms=[
            HoppingTerm(offset=(t.offset[1], t.offset[0]), amplitude=t.amplitude)
            for t in m.terms
        ],
    )
    e = 0.9 + 0.2j
    a = amoeba_points(m, e, r_x_samples=120, phase_samples=240)
    b = amoeba_points(swapped, e, r_x_samples=120, phase_samples=240)
    mismatch = np.mean(a.occupancy != b.occupancy.T)
    assert mismatch < 0.02


def test_amoeba_requires_2d():
    from nhskin.model import builtin_hatano_nelson

    with pytest.raises(ValueError):
        amoeba_points(builtin_hatano_nelson(0.5, 1.0), 0.0)


@pytest.mark.parametrize(
    "plan",
    [
        {"r_x_samples": 0, "phase_samples": 40},
        {"r_x_samples": 40, "phase_samples": 0},
        {"window": ((3.0, -3.0), (-3.0, 3.0))},
        {"window": ((-3.0, 3.0), (3.0, -3.0))},
        {"window": ((1.0, 1.0), (-3.0, 3.0))},
    ],
    ids=["no-columns", "no-phases", "window-x-reversed", "window-y-reversed", "window-x-empty"],
)
def test_empty_sampling_plan_is_refused(plan):
    # an empty raster would make the bad-sample fraction nan, which passes
    # the MAX_BAD_FRACTION guard unnoticed; a reversed y axis fills no cell
    # and would read as "no hole"
    from nhskin.errors import SamplingError

    with pytest.raises(SamplingError):
        amoeba_points(builtin_2d(0.5, 1.0, 0.2), 4.0, **plan)
