import subprocess
import sys

import numpy as np
import pytest

from nhskin import nonbloch
from nhskin.model import LatticeModel, HoppingTerm, _char_roots, builtin_2d
from nhskin.nonbloch import (
    AmoebaRaster,
    amoeba_points,
    export_raster_csv,
    export_raster_pgm,
    has_hole,
    obc_member_2d,
)
from nhskin.realspace import OBC, build
from nhskin.spectral import dense_spectrum


def ring_raster(inner=8, outer=20, n=60):
    y, x = np.meshgrid(np.arange(n), np.arange(n))
    r = np.hypot(x - n / 2, y - n / 2)
    occ = (r >= inner) & (r <= outer)
    return AmoebaRaster(window=((-3, 3), (-3, 3)), resolution=(n, n), occupancy=occ)


def test_hole_detection_on_synthetic_rings():
    assert has_hole(ring_raster())
    filled = ring_raster(inner=0)
    assert not has_hole(filled)


def test_min_hole_cells_suppresses_pinholes():
    r = ring_raster(inner=0)
    r.occupancy[30, 30] = False  # single dead cell inside the body
    assert not has_hole(r)
    r.occupancy[30, 31] = r.occupancy[31, 30] = False  # three cells, one short of four
    assert not has_hole(r)
    r.occupancy[31, 31] = False  # a 2x2 dead block: four cells make a hole
    assert has_hole(r)


def test_hole_touching_border_does_not_count():
    n = 60
    occ = np.ones((n, n), dtype=bool)
    occ[20:40, 30:] = False  # notch open to the border
    r = AmoebaRaster(window=((-3, 3), (-3, 3)), resolution=(n, n), occupancy=occ)
    assert not has_hole(r)


def reference_has_hole(occupancy):
    # the same verdict through scipy.ndimage's component labelling
    from scipy import ndimage

    labels, n = ndimage.label(~occupancy)
    sizes = np.bincount(labels.ravel(), minlength=n + 1)
    sizes[0] = 0
    sizes[np.concatenate([labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]])] = 0
    return bool((sizes >= nonbloch.MIN_HOLE_CELLS).any())


def test_has_hole_matches_component_labelling():
    rng = np.random.default_rng(3)
    rasters = [ring_raster().occupancy, ring_raster(inner=0).occupancy]
    pinholes = ring_raster(inner=0).occupancy
    for i, j in [(22, 22), (22, 30), (30, 22), (35, 35), (30, 30)]:
        pinholes[i, j : j + 2] = False  # five separate 2-cell pinholes, ten cells in all
    rasters.append(pinholes)
    for _ in range(300):
        shape = tuple(rng.integers(1, 25, size=2))
        rasters.append(rng.random(shape) < rng.uniform(0.3, 0.9))
    verdicts = [has_hole(AmoebaRaster(((-3, 3), (-3, 3)), r.shape, r)) for r in rasters]
    assert verdicts == [reference_has_hole(r) for r in rasters]
    assert verdicts[:3] == [True, False, False]
    assert 30 < sum(verdicts) < 270  # the random rasters include both verdicts


def criterion_07_energies():
    m = builtin_2d(0.5, 1.0, 0.2)
    e2d = dense_spectrum(build(m, [20, 20], "obc"))
    centroid = complex(np.mean(e2d))
    reach = float(np.max(np.abs(e2d - centroid)))
    inside = e2d[np.argsort(np.abs(e2d - centroid))[:10]]
    outside = centroid + (reach + 1.0) * np.exp(2j * np.pi * np.arange(10) / 10)
    return m, [complex(E) for E in (*inside, *outside)]


def test_closed_form_amoeba_matches_companion_solve(monkeypatch):
    m, energies = criterion_07_energies()
    plan = dict(r_x_samples=60, phase_samples=120)
    fast = [amoeba_points(m, E, **plan).occupancy for E in energies]
    monkeypatch.setattr(nonbloch, "_quadratic_roots", _char_roots)
    for E, occ in zip(energies, fast):
        np.testing.assert_array_equal(occ, amoeba_points(m, E, **plan).occupancy)


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


def test_pgm_export(tmp_path):
    r = ring_raster(n=40)
    path = tmp_path / "ring.pgm"
    export_raster_pgm(r, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n40 40\n255\n")
    pixels = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8)
    assert (pixels == 0).sum() == r.occupancy.sum()


def test_point_cloud_export(tmp_path):
    r = ring_raster(n=30)
    path = tmp_path / "cloud.csv"
    export_raster_csv(r, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rx,log_abs_beta_y"
    assert len(lines) == 1 + r.occupancy.sum()
