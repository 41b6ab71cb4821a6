"""Self-tests of the benchmark: generator, oracles, tracer and entry point.

    python3 -m pytest bench/tests -q
"""

import csv
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import tracing
import worker
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parents[1]


def test_generator_is_deterministic_per_seed():
    for w in WORKLOADS:
        assert generate(w, 7) == generate(w, 7)
        assert generate(w, 7) != generate(w, 8)


def test_generated_sizes_stay_in_their_ranges():
    ranges = {"spectrum_hn": (200, 450), "spectrum_ssh": (100, 220), "localize_hn": (100, 200),
              "localize_ssh": (50, 100), "gbz_hn": (150, 250), "gbz_ssh": (150, 250),
              "crossover": (60, 100), "reciprocity": (100, 200)}
    for seed in range(20):
        for w in WORKLOADS:
            for job in generate(w, seed):
                lo, hi = ranges.get(job["kind"], (None, None))
                if lo is not None:
                    assert lo <= job["params"]["N"] <= hi, job
                for n in job["params"].get("sizes", []):
                    assert 40 <= n <= 160


def _rewrite_csv(path, column, row, value):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = value
    with open(path, "w", newline="") as fh:
        out = csv.DictWriter(fh, fieldnames=list(rows[0]))
        out.writeheader()
        out.writerows(rows)


def test_oracle_rejects_perturbed_spectrum(tmp_path):
    job = {"kind": "spectrum_hn", "params": {"jl": 0.5, "jr": 1.0, "N": 40},
           "argv": ["spectrum", "--builtin", "hatano-nelson", "--jl", "0.5", "--jr", "1.0", "-N", "40"]}
    _, rc, stdout, _ = worker.run_job(job, str(tmp_path))
    assert rc == 0
    assert oracles.check(job, str(tmp_path), stdout, {}) is None
    path = tmp_path / "obc_spectrum.csv"
    with open(path, newline="") as fh:
        e0 = float(next(csv.DictReader(fh))["re_e"])
    _rewrite_csv(path, "re_e", 0, repr(e0 + 1e-5))
    assert "closed-form" in oracles.check(job, str(tmp_path), stdout, {})


def test_oracle_rejects_perturbed_winding_map(tmp_path):
    params = {"jl": 0.5, "jr": 1.0, "grid": 6}
    job = {"kind": "winding_hn", "params": params,
           "argv": ["winding", "--builtin", "hatano-nelson", "--jl", "0.5", "--jr", "1.0", "--grid", "6"]}
    (expect,) = oracles.expectations([job])
    _, rc, stdout, _ = worker.run_job(job, str(tmp_path))
    assert rc == 0
    assert oracles.check(job, str(tmp_path), stdout, expect) is None
    row = next(i for i, (_, _, w) in enumerate(expect["map"]) if w == -1)
    _rewrite_csv(tmp_path / "winding_map.csv", "w", row, "0")
    assert "reference -1" in oracles.check(job, str(tmp_path), stdout, expect)


def test_oracle_rejects_perturbed_crossover(tmp_path):
    params = {"jl": 0.5, "jr": 1.0, "N": 20}
    job = {"kind": "crossover", "params": params,
           "argv": ["crossover", "--builtin", "hatano-nelson", "--jl", "0.5", "--jr", "1.0", "-N", "20"]}
    (expect,) = oracles.expectations([job])
    _, rc, stdout, _ = worker.run_job(job, str(tmp_path))
    assert rc == 0
    assert oracles.check(job, str(tmp_path), stdout, expect) is None
    path = tmp_path / "crossover.csv"
    _rewrite_csv(path, "distance", 20, "0.001")
    assert "falls by" in oracles.check(job, str(tmp_path), stdout, expect)
    _rewrite_csv(path, "distance", 24, repr(expect["pbc_distance"] + 1e-6))
    assert "closed form" in oracles.check(job, str(tmp_path), stdout, expect)


def test_self_time_of_nested_spans():
    spans = [
        ("cli.main", 0.0, 10.0, -1, None),
        ("spectral.eig_biorthogonal", 1.0, 7.0, 0, None),
        ("numpy.linalg.eig", 2.0, 5.0, 1, (1, 4)),
        ("spectral.gauge_log_scales", 5.0, 6.0, 1, 1),
        ("io.write_csv", 8.0, 9.5, 0, 100),
    ]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["spectral.eig_biorthogonal.self_s"] == pytest.approx(2.0)
    assert m["spectral.self_s"] == pytest.approx(3.0)
    assert m["spectral.linalg_s"] == pytest.approx(3.0)
    assert m["spectral.gauge_log_scales.s"] == pytest.approx(1.0)
    assert m["io.self_s"] == pytest.approx(1.5)
    assert (m["spectral.calls"], m["cli.calls"], m["io.calls"]) == (2, 1, 1)
    assert m["spectral.eig_n3"] == 64
    assert m["io.bytes_written"] == 100
    assert m["spectral.gauge_applied_frac"] == 1.0


SMALL_JOBS = [
    ["spectrum", "--builtin", "hatano-nelson", "--jl", "0.5", "--jr", "1.0", "-N", "30"],
    ["localize", "--builtin", "nh-ssh", "--t1", "0.6", "--t2", "1.0", "--gamma", "0.2", "-N", "10", "--format", "svg"],
    ["gbz", "--builtin", "nh-ssh", "--t1", "0.6", "--t2", "1.0", "--gamma", "0.2", "-N", "20"],
    ["winding", "--builtin", "nh-ssh", "--t1", "0.6", "--t2", "1.0", "--gamma", "0.2", "--grid", "3"],
    ["amoeba", "--builtin", "asym2d", "--jl", "0.5", "--jr", "1.0", "--tp", "0.2", "--energy=0.5+0i",
     "--resolution", "40", "--phases", "80", "--format", "pgm"],
    ["crossover", "--builtin", "hatano-nelson", "--jl", "0.5", "--jr", "1.0", "-N", "20", "--eps-count", "5"],
    ["funnel", "--half", "6", "--tmax", "2"],
]


def test_traced_runs_repeat_every_count(tmp_path):
    import nhskin.model
    import nhskin.nonbloch

    tracer = tracing.Tracer()

    def traced_pass():
        tracer.install()
        try:
            for i, argv in enumerate(SMALL_JOBS):
                _, rc, _, err = worker.run_job({"argv": argv}, str(tmp_path / f"job_{i}"))
                assert rc == 0, err
        finally:
            tracer.uninstall()
        return tracing.layer_metrics(tracer.take())

    first, second = traced_pass(), traced_pass()
    counts = [*tracing.COUNT_METRICS, "spectral.gauge_applied_frac"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    for k in ("model.char_poly.calls", "nonbloch.beta_roots.calls", "nonbloch.companion_solves",
              "model.bloch_samples.k_points", "spectral.eig_n3", "io.bytes_written"):
        assert first[k] > 0, k
    # uninstall puts the originals back, in the defining and the importing module
    assert nhskin.nonbloch.char_poly is nhskin.model.char_poly
    assert nhskin.model.char_poly.__module__ == "nhskin.model"


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "obc_eigen", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
