import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from nhskin.cli import build_parser, main
from nhskin.response import funnel_model, time_evolve

CLI = [sys.executable, "-m", "nhskin.cli"]
HN = ["--builtin", "hatano-nelson", "--jl", "0.5", "--jr", "1.0"]
SSH = ["--builtin", "nh-ssh", "--t1", "0.6", "--t2", "1.0", "--gamma", "0.3"]
ASYM2D = ["--builtin", "asym2d", "--jl", "0.5", "--jr", "1.0", "--tp", "0.2"]
SMALL_AMOEBA = ["--energy", "4+0i", "--resolution", "40", "--phases", "80"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


def test_winding_prints_integer(tmp_path):
    r = run("winding", "--builtin", "hatano-nelson", "--jl", "0.5", "--jr", "1.0",
            "--base", "0+0i", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "w = -1" in r.stdout


def test_missing_builtin_parameter_is_usage_error(tmp_path):
    r = run("spectrum", "--builtin", "hatano-nelson", "--jl", "0.5", "--out", str(tmp_path))
    assert r.returncode == 2
    assert "--jr" in r.stderr


def test_model_and_builtin_are_exclusive(tmp_path):
    r = run("spectrum", "--model", "m.json", "--builtin", "hatano-nelson",
            "--jl", "1", "--jr", "1", "--out", str(tmp_path))
    assert r.returncode == 2


def test_no_command_is_usage_error():
    assert run().returncode == 2


def test_computational_failure_exits_one(tmp_path):
    # Hermitian chain: the point gap at 0 is closed
    r = run("winding", "--builtin", "hatano-nelson", "--jl", "1", "--jr", "1",
            "--out", str(tmp_path))
    assert r.returncode == 1
    assert "error" in r.stderr.lower()


def test_gbz_without_theta_samples_exits_one(tmp_path, capsys):
    assert main(["gbz", *HN, "-N", "0", "--out", str(tmp_path)]) == 1
    assert "SamplingError" in capsys.readouterr().err


def test_spectrum_outputs_and_determinism(tmp_path):
    args = ["spectrum", "--builtin", "hatano-nelson", "--jl", "0.5", "--jr", "1.0",
            "-N", "40", "--k-samples", "64"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(*args, "--out", str(d1)).returncode == 0
    assert run(*args, "--out", str(d2)).returncode == 0
    for name in ("pbc_bands.csv", "obc_spectrum.csv", "spectrum.svg"):
        assert (d1 / name).exists()
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    m1 = json.loads((d1 / "manifest.json").read_text())
    m2 = json.loads((d2 / "manifest.json").read_text())
    assert m1["command"] == "spectrum"
    assert "versions" in m1 and "numpy" in m1["versions"]
    m1["config"].pop("out"), m2["config"].pop("out")
    assert m1 == m2


def test_spectrum_from_model_file(tmp_path):
    doc = {
        "dimension": 1,
        "bands": 1,
        "terms": [
            {"offset": [1], "amplitude": [[{"re": 0.5, "im": 0.0}]]},
            {"offset": [-1], "amplitude": [[{"re": 1.0, "im": 0.0}]]},
        ],
        "name": "hn-file",
    }
    path = tmp_path / "hn.json"
    path.write_text(json.dumps(doc))
    r = run("spectrum", "--model", str(path), "-N", "20", "--out", str(tmp_path / "out"))
    assert r.returncode == 0, r.stderr


def _raise(*args, **kwargs):
    raise AssertionError("spectrum built physical vectors or took an exceptional-point measure")


def _forbid_ep_measures_and_physical_vectors(monkeypatch):
    import nhskin.spectral

    for name in ("_conditioning", "_biorth_residual"):
        monkeypatch.setattr(nhskin.spectral, name, _raise)
    for name in ("right", "left"):
        monkeypatch.setattr(nhskin.spectral.BiorthogonalSystem, name, property(_raise))


def test_spectrum_takes_no_ep_measure_on_the_eig_path(tmp_path, monkeypatch):
    # the complex chain (hoppings 1.0, 0.8, 0.3 and 0.192 e^{0.7i} at offsets
    # +1, -1, +2 and -2) stays non-Hermitian after its gauge: spectrum reads
    # each kappa_i off the one eig solve's gauged vectors
    import nhskin.spectral

    amps = (1.0, 0.8, 0.3, 0.192 * np.exp(0.7j))
    terms = [
        {"offset": [o], "amplitude": [[{"re": complex(a).real, "im": complex(a).imag}]]}
        for o, a in zip((1, -1, 2, -2), amps)
    ]
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"dimension": 1, "bands": 1, "terms": terms}))
    from nhskin.model import load_model
    from nhskin.realspace import build

    H = build(load_model(str(path)), [40], "obc").matrix
    assert nhskin.spectral._gauged_eig(H, vectors=False)[4] == "eig"
    _forbid_ep_measures_and_physical_vectors(monkeypatch)
    assert main(["spectrum", "--model", str(path), "-N", "40", "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "obc_spectrum.csv").read_text().splitlines()
    assert rows[0] == "index,re_e,im_e,kappa_i" and len(rows) == 41


def test_steep_spectrum_writes_finite_kappa(tmp_path):
    # kappa_i reaches about 1e198 here; the norms of physical vectors overflow
    args = ["spectrum", "--builtin", "hatano-nelson", "--jl", "0.01", "--jr", "1.0", "-N", "201"]
    r = run(*args, "--out", str(tmp_path))
    assert r.returncode == 0 and r.stderr == "", r.stderr  # no RuntimeWarning either
    rows = (tmp_path / "obc_spectrum.csv").read_text().splitlines()[1:]
    kappa = np.array([float(row.split(",")[3]) for row in rows])
    assert len(kappa) == 201 and np.isfinite(kappa).all() and kappa.max() > 1e197


def test_bad_model_file_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 1, "bands": 1, "terms": []}))
    r = run("spectrum", "--model", str(path), "--out", str(tmp_path / "out"))
    assert r.returncode == 1
    assert "term" in r.stderr.lower() or "model" in r.stderr.lower()


@pytest.mark.parametrize(
    "args, error",
    [
        (["winding", "--builtin", "hatano-nelson", "--jl", "inf", "--jr", "1"], "ModelFormatError"),
        (
            ["amoeba", "--builtin", "asym2d", "--jl", "nan", "--jr", "1", "--tp", "0.2", *SMALL_AMOEBA],
            "ModelFormatError",
        ),
        (["gbz", "--builtin", "hatano-nelson", "--jl", "nan", "--jr", "1"], "ModelFormatError"),
        (["spectrum", "--model", "nan.json", "-N", "10"], "ModelFormatError"),
        (["amoeba", *ASYM2D, *SMALL_AMOEBA, "--window", "-3", "3", "3", "-3"], "SamplingError"),
    ],
    ids=["winding-jl-inf", "amoeba-jl-nan", "gbz-jl-nan", "model-file-nan", "amoeba-window-reversed"],
)
def test_refused_inputs_exit_one_and_write_nothing(tmp_path, monkeypatch, capsys, args, error):
    # refused where they enter, not blamed on a closed gap, degenerate
    # coefficients or a failed eigensolve, and a reversed window axis would
    # rasterize nothing and read as "hole: false"
    # the README's example model with a NaN amplitude
    doc = {
        "dimension": 1,
        "bands": 1,
        "terms": [
            {"offset": [1], "amplitude": [[{"re": float("nan"), "im": 0.0}]]},
            {"offset": [-1], "amplitude": [[{"re": 1.0, "im": 0.0}]]},
        ],
    }
    (tmp_path / "nan.json").write_text(json.dumps(doc))  # json writes, and reads back, a bare NaN
    monkeypatch.chdir(tmp_path)
    assert main([*args, "--out", "out"]) == 1
    assert error in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_manifest_records_the_defaults_used(tmp_path):
    assert main(["gbz", *HN, "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert config["sizes"] == 400 and config["tol"] == 1e-06


def test_gbz_hermitian_reports_unit_circle(tmp_path):
    r = run("gbz", "--builtin", "hatano-nelson", "--jl", "1", "--jr", "1",
            "-N", "80", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "max | |beta| - 1 |" in r.stdout
    dev = float(r.stdout.rsplit("=", 1)[1])
    assert dev < 1e-6
    assert (tmp_path / "gbz.csv").exists()


def test_amoeba_hole_verdicts(tmp_path):
    base = ["amoeba", "--builtin", "asym2d", "--jl", "0.5", "--jr", "1.0", "--tp", "0.2",
            "--resolution", "100", "--phases", "200"]
    r_out = run(*base, "--energy", "4+0i", "--out", str(tmp_path / "o"))
    assert r_out.returncode == 0, r_out.stderr
    assert "hole: true" in r_out.stdout
    assert (tmp_path / "o" / "amoeba.pgm").read_bytes().startswith(b"P5\n")
    # a leading-dash literal must use the --flag=value form
    r_in = run(*base, "--energy=-0.005+0i", "--out", str(tmp_path / "i"))
    assert r_in.returncode == 0, r_in.stderr
    assert "hole: false" in r_in.stdout


def test_localize_summary(tmp_path):
    # the near-zero pair only decouples from the bulk at larger N; at a
    # dozen cells the two end modes hybridize and read as bulk
    r = run("localize", "--builtin", "nh-ssh", "--t1", "0.6", "--t2", "1.0",
            "--gamma", "0.3", "-N", "40", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "topological_boundary" in r.stdout
    assert "skin" in r.stdout
    lines = (tmp_path / "states.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 80


@pytest.mark.parametrize("cells", ["30", "100"])
def test_localize_puts_the_tied_zero_pair_on_both_sides(tmp_path, capsys, cells):
    # each gauged zero mode has half its weight on each end, so the two
    # biorthogonal edge masses are equal in exact arithmetic
    ssh = ["--builtin", "nh-ssh", "--t1", "0.6", "--t2", "1.0", "--gamma", "0.2"]
    args = ["localize", *ssh, "-N", cells, "--format", "svg", "--out", str(tmp_path)]
    assert main(args) == 0
    assert "topological_boundary/both: 2" in capsys.readouterr().out


COMPLEX_CHAIN = {1: 1.0, -1: 0.8, 2: 0.3, -2: 0.192 * np.exp(0.7j)}  # complex eigenvectors


@pytest.mark.parametrize("chain", ["hn174", "ssh40", "complex30"])
def test_localize_profiles_are_the_per_state_density_profiles(tmp_path, chain):
    from nhskin.localization import density_profile
    from nhskin.model import builtin_hatano_nelson, builtin_nh_ssh, load_model
    from nhskin.realspace import build
    from nhskin.spectral import eig_biorthogonal

    path = tmp_path / "m.json"
    terms = [{"offset": [k], "amplitude": [[{"re": complex(a).real, "im": complex(a).imag}]]}
             for k, a in COMPLEX_CHAIN.items()]
    path.write_text(json.dumps({"dimension": 1, "bands": 1, "terms": terms}))
    ssh = ["--builtin", "nh-ssh", "--t1", "0.6", "--t2", "1.0", "--gamma", "0.2"]
    model_args, model, n = {
        "hn174": (HN, builtin_hatano_nelson(0.5, 1.0), 174),
        "ssh40": (ssh, builtin_nh_ssh(0.6, 1.0, 0.2), 40),
        "complex30": (["--model", str(path)], load_model(path), 30),
    }[chain]
    out = tmp_path / "run"
    assert main(["localize", *model_args, "-N", str(n), "--format", "csv", "--out", str(out)]) == 0
    weight = np.loadtxt(out / "profiles.csv", delimiter=",", skiprows=1, usecols=1)
    op = build(model, [n], "obc")
    system = eig_biorthogonal(op)
    ref = np.concatenate([density_profile(system.right[:, i], op.index_map) for i in range(op.n)])
    assert ref.dtype == float
    np.testing.assert_array_equal(weight, ref)


def test_gbz_csv(tmp_path):
    from nhskin.model import builtin_hatano_nelson
    from nhskin.nonbloch import gbz_curve

    assert main(["gbz", *HN, "-N", "50", "--format", "csv", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "gbz.csv").read_text().splitlines()
    assert lines[0] == "re_beta,im_beta,re_e,im_e,residual,side"
    zone = gbz_curve(builtin_hatano_nelson(0.5, 1.0), N_seed=50)
    assert len(lines) == len(zone.beta) + 1
    cells = np.array([line.split(",")[:5] for line in lines[1:]], dtype=float)
    ref = [zone.beta.real, zone.beta.imag, zone.energy.real, zone.energy.imag, zone.residual]
    np.testing.assert_array_equal(cells, np.column_stack(ref))
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == zone.side.tolist()


# a window unequal on its two axes, so the x and y cell centres differ
AMOEBA_WINDOW = ["--window", "-2", "2.5", "-1.5", "3"]


def _amoeba_raster():
    from nhskin.model import builtin_2d
    from nhskin.nonbloch import amoeba_points

    window = ((-2.0, 2.5), (-1.5, 3.0))
    raster = amoeba_points(builtin_2d(0.5, 1.0, 0.2), 4 + 0j, r_x_samples=40, phase_samples=80,
                           window=window)
    assert 0 < raster.occupancy.sum() < raster.occupancy.size
    return raster


def test_pgm_export(tmp_path):
    args = ["amoeba", *ASYM2D, *SMALL_AMOEBA, *AMOEBA_WINDOW, "--format", "pgm"]
    assert main([*args, "--out", str(tmp_path)]) == 0
    occ = _amoeba_raster().occupancy
    data = (tmp_path / "amoeba.pgm").read_bytes()
    assert data.startswith(b"P5\n40 40\n255\n")
    pixels = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8)
    assert (pixels == 0).sum() == occ.sum()
    # top image row first: the image is the occupancy with y flipped upward
    np.testing.assert_array_equal(pixels.reshape(40, 40), np.where(occ.T[::-1], 0, 255))


def test_point_cloud_export(tmp_path):
    args = ["amoeba", *ASYM2D, *SMALL_AMOEBA, *AMOEBA_WINDOW, "--format", "csv"]
    assert main([*args, "--out", str(tmp_path)]) == 0
    occ = _amoeba_raster().occupancy
    lines = (tmp_path / "amoeba_points.csv").read_text().splitlines()
    assert lines[0] == "rx,log_abs_beta_y"
    assert len(lines) == 1 + occ.sum()
    ix, iy = np.nonzero(occ)
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    xs, ys = np.linspace(-2.0, 2.5, 40), np.linspace(-1.5, 3.0, 40)
    assert rows == list(zip(xs[ix].tolist(), ys[iy].tolist()))


def test_profiles_csv(tmp_path):
    from nhskin.localization import density_profile
    from nhskin.model import builtin_nh_ssh
    from nhskin.realspace import build
    from nhskin.spectral import eig_biorthogonal

    ssh = ["--builtin", "nh-ssh", "--t1", "0.6", "--t2", "1.0", "--gamma", "0.2"]
    assert main(["localize", *ssh, "-N", "30", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "profiles.csv").read_text().splitlines()
    assert lines[0] == "site,weight,kind"
    labels = [line.split(",")[3] for line in (tmp_path / "states.csv").read_text().splitlines()[1:]]
    assert {"skin", "topological_boundary"} <= set(labels)
    op = build(builtin_nh_ssh(0.6, 1.0, 0.2), [30], "obc")
    right = eig_biorthogonal(op).right
    assert len(lines) == 1 + op.n * 30 and len(labels) == op.n
    for i, label in enumerate(labels):
        block = [line.split(",") for line in lines[1 + 30 * i : 1 + 30 * (i + 1)]]
        ref = density_profile(right[:, i], op.index_map)
        assert [int(b[0]) for b in block] == list(range(30))
        assert [float(b[1]) for b in block] == ref.tolist()
        assert all(len(b) == 3 and b[2] == label for b in block)


def test_funnel_run(tmp_path):
    r = run("funnel", "--half", "8", "--site", "2", "--tmax", "4", "--dt", "0.05",
            "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "final density" in r.stdout
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t," + ",".join(f"site_{j}" for j in range(16))


def test_funnel_trajectory_parses_back_bit_for_bit(tmp_path):
    assert main(["funnel", "--half", "8", "--site", "2", "--tmax", "4", "--out", str(tmp_path)]) == 0
    op = funnel_model(0.5, 1.0, 8)
    psi0 = np.zeros(op.n, dtype=complex)
    psi0[2] = 1.0
    traj = time_evolve(op, psi0, 4.0, 0.05)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    table = np.array([[float(x) for x in line.split(",")] for line in lines])
    assert table.shape == (len(traj.times), 1 + op.n)
    assert np.array_equal(table[:, 0], traj.times)
    assert np.array_equal(table[:, 1:], traj.densities)


def test_funnel_write_peak_memory(tmp_path):
    # formatting the whole wide table or grid at once peaks near 3.7 MB
    args = build_parser().parse_args(["funnel"])
    artifacts, _ = args.func(args, None)
    for name, write in artifacts:  # first-call imports and caches are not the writers'
        write(tmp_path / name)
    tracemalloc.start()
    try:
        for name, write in artifacts:
            write(tmp_path / name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6  # bytes, at the default 60 sites x 801 steps


def test_sensor_run(tmp_path):
    r = run("sensor", "--builtin", "nh-ssh", "--t1", "0.6", "--t2", "1.0", "--gamma", "0.3",
            "-N", "10", "14", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "slope" in r.stdout
    assert (tmp_path / "sensor.csv").read_text().startswith("N,delta_e")


def test_crossover_run(tmp_path):
    r = run("crossover", "--builtin", "hatano-nelson", "--jl", "0.5", "--jr", "1.0",
            "-N", "20", "--eps-count", "5", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "crossover.csv").exists()


def test_reciprocity_run(tmp_path):
    r = run("reciprocity", "--builtin", "hatano-nelson", "--jl", "1", "--jr", "1",
            "-N", "10", "--omegas", "3", "2+1i", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "reciprocal: true" in r.stdout


def test_csv_only_format_skips_svg(tmp_path):
    r = run("spectrum", "--builtin", "hatano-nelson", "--jl", "0.5", "--jr", "1.0",
            "-N", "16", "--format", "csv", "--out", str(tmp_path))
    assert r.returncode == 0
    assert (tmp_path / "obc_spectrum.csv").exists()
    assert not (tmp_path / "spectrum.svg").exists()
    # writers run only for the selected extensions, so the per-state
    # profiles of localize and the winding map are skipped with their CSVs
    cases = [
        (["localize", *SSH, "-N", "20", "--format", "svg"], ["localize.svg", "manifest.json"]),
        (["winding", *HN, "--grid", "4", "--format", "svg"], ["manifest.json"]),
        (["amoeba", *ASYM2D, *SMALL_AMOEBA, "--format", "pgm"], ["amoeba.pgm", "manifest.json"]),
    ]
    for args, written in cases:
        out = tmp_path / args[0]
        assert main([*args, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == written


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", *HN, "-N", "20", "--k-samples", "32"],
        ["winding", *HN, "--grid", "3"],
        ["gbz", *HN, "-N", "40"],
        ["amoeba", *ASYM2D, *SMALL_AMOEBA],
        ["localize", *SSH, "-N", "20"],
        ["funnel", "--half", "6", "--tmax", "2"],
        ["sensor", *SSH, "-N", "10", "12"],
        ["crossover", *HN, "-N", "16", "--eps-count", "4"],
        ["reciprocity", *HN, "-N", "8"],
    ],
    ids=lambda args: args[0],
)
def test_rerun_is_byte_identical(tmp_path, monkeypatch, capsys, args):
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main([*args, "--out", "out"]) == 0
        files = {p.name: p.read_bytes() for p in (tmp_path / name / "out").iterdir()}
        runs.append((files, capsys.readouterr().out))
    assert "manifest.json" in runs[0][0] and len(runs[0][0]) > 1
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "args",
    [
        ["funnel", "-N", "5"],
        ["spectrum", *HN, "--tol", "1e-3"],
        ["winding", *HN, "-N", "5"],
        ["amoeba", *ASYM2D, *SMALL_AMOEBA, "-N", "5"],
        ["amoeba", *ASYM2D, *SMALL_AMOEBA, "--min-hole-cells", "4"],
        ["crossover", *HN, "-N", "8", "--eps-count", "0"],
        ["crossover", *HN, "-N", "8", "--eps-min", "0"],
        ["crossover", *HN, "-N", "8", "--eps-min", "1e-3", "--eps-max", "1e-6"],
        ["spectrum", *HN, "-N", "8", "--format", "cvs"],
        ["spectrum", *HN, "-N", "8", "--format", ""],
        ["winding", *HN, "--grid", "-3"],
        ["amoeba", *ASYM2D, "--energy", "4+0i", "--resolution", "0", "--phases", "80"],
        ["amoeba", *ASYM2D, "--energy", "4+0i", "--resolution", "40", "--phases", "0"],
        ["winding", *HN, "--base", "nan+0i"],
        ["winding", *HN, "--base", "inf+0i"],
        ["winding", *HN, "--grid", "3", "--window", "nan", "1", "-1", "1"],
        ["winding", *HN, "--tol", "-1"],
        ["winding", *HN, "--tol", "0"],
        ["winding", *HN, "--tol", "inf"],
        ["gbz", *HN, "-N", "20", "--tol", "-1"],
        ["gbz", *HN, "-N", "20", "--tol", "0"],
        ["reciprocity", *HN, "-N", "8", "--tol", "-1"],
        ["reciprocity", *HN, "-N", "8", "--tol", "0"],
        ["amoeba", *ASYM2D, *SMALL_AMOEBA, "--energy", "nan+0i"],
        ["amoeba", *ASYM2D, *SMALL_AMOEBA, "--energy", "inf+0i"],
        ["amoeba", *ASYM2D, *SMALL_AMOEBA, "--window", "nan", "1", "-1", "1"],
        ["sensor", *HN, "-N", "8", "10", "--target", "nan+0i"],
        ["sensor", *HN, "-N", "8", "10", "--target", "0-infi"],
        ["reciprocity", *HN, "-N", "8", "--omegas", "3", "nan+0i"],
        ["reciprocity", *HN, "-N", "8", "--omegas", "1+infi"],
        ["sensor", *HN, "-N", "8", "10", "--target", "abc"],
        ["winding", *HN, "--base", "1+"],
        ["amoeba", *ASYM2D, *SMALL_AMOEBA, "--energy", "x"],
        ["reciprocity", *HN, "-N", "8", "--omegas", "3", "zz"],
        ["funnel", "--half", "6", "--dt", "0"],
        ["funnel", "--half", "6", "--dt", "-0.05"],
        ["funnel", "--half", "6", "--dt", "nan"],
        ["funnel", "--half", "6", "--dt", "inf"],
        ["funnel", "--half", "6", "--tmax", "-1"],
        ["funnel", "--half", "6", "--tmax", "nan"],
        ["funnel", "--half", "6", "--tmax", "inf"],
        ["funnel", "--half", "6", "--jl", "nan"],
        ["funnel", "--half", "6", "--jl=-inf"],
        ["funnel", "--half", "6", "--jr", "inf"],
        ["spectrum", *HN, "-N", "10", "20"],
        ["localize", *SSH, "-N", "30", "40"],
        ["spectrum", *HN, "-N", "8", "--k-samples", "0"],
        ["spectrum", *HN, "-N", "8", "--k-samples", "-1"],
        ["sensor", *HN, "-N", "8", "10", "--epsilon", "nan"],
        ["funnel", "--half", "1"],
        ["funnel", "--half", "0"],
        ["funnel", "--half", "-3"],
        ["funnel", "--half", "6", "--site", "-1"],
        ["funnel", "--half", "6", "--site", "12"],
        ["funnel", "--half", "6", "--jl", "1", "--jr", "-1"],
        ["funnel", "--half", "6", "--jl", "0.7", "--jr", "0.7"],
    ],
    ids=[
        "funnel-N",
        "spectrum-tol",
        "winding-N",
        "amoeba-N",
        "amoeba-min-hole-cells",
        "crossover-count0",
        "crossover-min0",
        "crossover-min-above-max",
        "format-typo",
        "format-empty",
        "winding-grid-negative",
        "amoeba-resolution0",
        "amoeba-phases0",
        "winding-base-nan",
        "winding-base-inf",
        "winding-window-nan",
        "winding-tol-negative",
        "winding-tol0",
        "winding-tol-inf",
        "gbz-tol-negative",
        "gbz-tol0",
        "reciprocity-tol-negative",
        "reciprocity-tol0",
        "amoeba-energy-nan",
        "amoeba-energy-inf",
        "amoeba-window-nan",
        "sensor-target-nan",
        "sensor-target-inf",
        "reciprocity-omegas-nan",
        "reciprocity-omegas-inf",
        "sensor-target-malformed",
        "winding-base-malformed",
        "amoeba-energy-malformed",
        "reciprocity-omegas-malformed",
        "funnel-dt0",
        "funnel-dt-negative",
        "funnel-dt-nan",
        "funnel-dt-inf",
        "funnel-tmax-negative",
        "funnel-tmax-nan",
        "funnel-tmax-inf",
        "funnel-jl-nan",
        "funnel-jl-inf",
        "funnel-jr-inf",
        "spectrum-two-sizes",
        "localize-two-sizes",
        "spectrum-k-samples0",
        "spectrum-k-samples-negative",
        "sensor-epsilon-nan",
        "funnel-half1",
        "funnel-half0",
        "funnel-half-negative",
        "funnel-site-negative",
        "funnel-site-past-chain",
        "funnel-jl-minus-jr",
        "funnel-jl-equals-jr",
    ],
)
def test_undeclared_options_are_usage_errors(tmp_path, args):
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_winding_map_reports_its_health(tmp_path, capsys):
    # HN(1, 1) is Hermitian: the five real-axis grid points lie on the band
    # and stay blank
    args = ["winding", "--builtin", "hatano-nelson", "--jl", "1", "--jr", "1", "--base", "0+1i"]
    assert main([*args, "--grid", "5", "--window", "-1", "1", "-0.5", "0.5", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "map: 25 points, 5 blank (gap closed)"
    assert (tmp_path / "winding_map.csv").read_text().count(",\n") == 5


@pytest.mark.parametrize(
    "args",
    [
        ["crossover", *HN, "-N", "8", "--eps-count", "0"],
        ["crossover", *HN, "-N", "8", "--format", "cvs"],
        ["spectrum", "--builtin", "hatano-nelson", "--jl", "0.5"],
        ["localize", "--model", "m.json", *HN],
        ["winding", *HN, "--grid", "-3"],
        ["amoeba", *ASYM2D, "--energy", "4+0i", "--resolution", "0"],
        ["amoeba", *ASYM2D, "--energy", "4+0i", "--phases", "0"],
        ["funnel", "--half", "6", "--site", "12"],
        ["funnel", "--half", "6", "--jl", "1", "--jr", "-1"],
    ],
    ids=[
        "crossover-count0",
        "format-typo",
        "missing-parameter",
        "model-and-builtin",
        "winding-grid-negative",
        "amoeba-resolution0",
        "amoeba-phases0",
        "funnel-site-past-chain",
        "funnel-jl-minus-jr",
    ],
)
def test_usage_errors_after_parsing_show_the_command_usage(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: nhskin {args[0]} ")
    assert not any(tmp_path.iterdir())


def test_spectral_commands_leave_scipy_spatial_unloaded(tmp_path):
    # eigenvalue distances are computed in numpy, so these runs need no
    # scipy.spatial import
    runs = [
        ["spectrum", *HN, "-N", "30", "--out", str(tmp_path / "spectrum")],
        ["localize", *SSH, "-N", "20", "--out", str(tmp_path / "localize")],
        ["crossover", *HN, "-N", "20", "--eps-count", "3", "--out", str(tmp_path / "crossover")],
    ]
    script = (
        "import sys\n"
        "from nhskin.cli import main\n"
        f"for args in {runs!r}:\n"
        "    assert main(args) == 0\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


def test_gauge_hermitian_chains_leave_scipy_linalg_sparse_and_numpy_ma_unloaded(tmp_path):
    # the gauge and the Hermitian test read the bond list in numpy and the
    # solve is numpy's eigh: importing scipy.linalg would cost more than the
    # whole solve at these sizes, and np.unique (behind np.union1d) imports
    # numpy.ma, about 1 MB of resident memory
    runs = [
        ["spectrum", *HN, "-N", "60", "--out", str(tmp_path / "spectrum")],
        ["localize", *SSH, "-N", "30", "--out", str(tmp_path / "localize")],
    ]
    script = (
        "import sys\n"
        "from nhskin.cli import main\n"
        f"for args in {runs!r}:\n"
        "    assert main(args) == 0\n"
        "print([m in sys.modules for m in ('scipy.linalg', 'scipy.sparse', 'numpy.ma')])\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[False, False, False]"


def test_boundary_response_commands_leave_scipy_linalg_unloaded(tmp_path):
    # funnel's propagator is a numpy Taylor polynomial, crossover and sensor
    # need eigenvalues only and reciprocity inverts in numpy: importing
    # scipy.linalg would cost more than any of these jobs
    runs = [
        ["funnel", "--half", "6", "--tmax", "2", "--out", str(tmp_path / "funnel")],
        ["crossover", *HN, "-N", "12", "--eps-count", "3", "--out", str(tmp_path / "crossover")],
        ["sensor", *SSH, "-N", "10", "12", "--out", str(tmp_path / "sensor")],
        ["reciprocity", *HN, "-N", "8", "--out", str(tmp_path / "reciprocity")],
    ]
    script = (
        "import sys\n"
        "from nhskin.cli import main\n"
        f"for args in {runs!r}:\n"
        "    assert main(args) == 0\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "model, n",
    [(HN, "50"), (["--builtin", "nh-ssh", "--t1", "0.6", "--t2", "1.0", "--gamma", "0.2"], "60")],
    ids=["hn50", "nh-ssh60"],
)
def test_svg_only_spectrum_computes_no_eigenvectors(tmp_path, monkeypatch, capsys, model, n):
    import nhskin.spectral

    args = ["spectrum", *model, "-N", n]
    assert main([*args, "--out", str(tmp_path / "all")]) == 0
    default = capsys.readouterr().out
    _forbid_ep_measures_and_physical_vectors(monkeypatch)
    monkeypatch.setattr(nhskin.spectral.BiorthogonalSystem, "conditions", property(_raise))
    solve = nhskin.spectral._gauged_eig
    monkeypatch.setattr(nhskin.spectral, "_gauged_eig", lambda H, vectors=True, pattern=None:
                        _raise() if vectors else solve(H, vectors, pattern))
    assert main([*args, "--format", "svg", "--out", str(tmp_path / "svg")]) == 0
    assert capsys.readouterr().out == default
    assert sorted(p.name for p in (tmp_path / "svg").iterdir()) == ["manifest.json", "spectrum.svg"]


@pytest.mark.parametrize("n", [312, 400, 600, 650, 700, 1000])
def test_steep_chains_past_the_gauge_float_range(tmp_path, n):
    # HN(0.01, 1): the physical left vectors leave the float range from
    # n = 312 and exp(l) of the gauge overflows from n = 618.  spectrum
    # writes kappa_i = inf from n = 600 (every one exceeds the float range),
    # localize classifies every state from the unit right vectors and the
    # gauged biorthogonal weights; neither warns
    args = ["--builtin", "hatano-nelson", "--jl", "0.01", "--jr", "1.0", "-N", str(n)]
    code = ("import sys, warnings; warnings.simplefilter('error'); "
            "from nhskin.cli import main; sys.exit(main(sys.argv[1:]))")

    def nhskin(*argv):
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)

    r = nhskin("spectrum", *args, "--out", str(tmp_path / "s"))
    assert r.returncode == 0 and r.stderr == "", r.stderr
    rows = (tmp_path / "s" / "obc_spectrum.csv").read_text().splitlines()[1:]
    assert len(rows) == n and "nan" not in "".join(rows)
    if n >= 600:
        assert all(row.endswith(",inf") for row in rows)
    # the largest chains write only the SVG: their profiles.csv holds n^2 rows
    fmt = ["--format", "svg"] if n >= 600 else []
    r = nhskin("localize", *args, *fmt, "--out", str(tmp_path / "l"))
    assert r.returncode == 0 and r.stderr == "", r.stderr
    assert r.stdout == f"skin/right: {n}\n"
    if not fmt:
        states = (tmp_path / "l" / "states.csv").read_text().splitlines()[1:]
        assert len(states) == n and all(",skin,right," in row for row in states)
