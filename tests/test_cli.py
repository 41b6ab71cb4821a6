import json
import subprocess
import sys

import pytest

from nhskin.cli import main

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


def test_bad_model_file_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 1, "bands": 1, "terms": []}))
    r = run("spectrum", "--model", str(path), "--out", str(tmp_path / "out"))
    assert r.returncode == 1
    assert "term" in r.stderr.lower() or "model" in r.stderr.lower()


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


def test_funnel_run(tmp_path):
    r = run("funnel", "--half", "8", "--site", "2", "--tmax", "4", "--dt", "0.05",
            "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert "final density" in r.stdout
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,site,density"


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
    ],
    ids=[
        "crossover-count0",
        "format-typo",
        "missing-parameter",
        "model-and-builtin",
        "winding-grid-negative",
        "amoeba-resolution0",
        "amoeba-phases0",
    ],
)
def test_usage_errors_after_parsing_show_the_command_usage(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: nhskin {args[0]} ")
    assert not any(tmp_path.iterdir())


def test_thread_cap_env_respected(tmp_path):
    # the cap must be exported before numpy loads; a crash here means the
    # import ordering regressed
    import os

    env = dict(os.environ, NHSKIN_THREADS="1")
    r = subprocess.run(
        CLI + ["winding", "--builtin", "hatano-nelson", "--jl", "0.5", "--jr", "1.0",
               "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 0
    assert "w = -1" in r.stdout


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
