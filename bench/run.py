"""nhskin benchmark: one workload at one seed, reported as one line of JSON.

    python3 bench/run.py --workload obc_eigen --seed 1 --seconds 25 --trace 0

Builds the workload's job list from the seed, computes the oracles'
reference data, then runs the jobs in one child process (`worker.py`) with
BLAS/OpenMP pinned to one thread.  `--trace 0` reports the end-to-end
metrics named in BENCHMARK.json, `--trace 1` the per-layer ones.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
details, failures and the spans of a traced run go to `.bench_out/<workload>/`.
See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import TAIL_PERCENTILE, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "NHSKIN_THREADS")
SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 150
_IMPORT = "import importlib, sys\nfor m in sys.argv[1:]: importlib.import_module(m)"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(modules: list) -> list:
    """Wall time of fresh interpreters importing what the workload imports."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _IMPORT, *modules], env=_env(), cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def run_worker(spec_path: Path, result_path: Path) -> None:
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)]
    with subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=sys.stderr) as child:
        try:
            rc = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise RuntimeError(f"worker exceeded {CHILD_TIMEOUT_S} s") from None
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nhskin" / "cli.py").is_file():
        print(f"error: no nhskin sources at {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    # before numpy loads, here and in every child
    os.environ.update({var: str(THREADS) for var in THREAD_VARS})
    import oracles

    jobs = generate(args.workload, args.seed)
    tail = TAIL_PERCENTILE[args.workload]
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec = {
        "jobs": jobs,
        "expect": oracles.expectations(jobs),
        "out_root": str(out),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        # ten job runs beyond the tail percentile
        "min_executions": round(10 / (1 - tail / 100)),
    }
    (out / "spec.json").write_text(json.dumps(spec))
    try:
        run_worker(out / "spec.json", out / "worker.json")
        res = json.loads((out / "worker.json").read_text())
        if not args.trace:
            setup = setup_seconds(res["modules"])
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = res["per_layer"]
    else:
        jobs_s = res["job_s"]
        values = {
            "wall_s": statistics.median(res["pass_s"]),
            "job_p50_s": statistics.median(jobs_s),
            "job_tail_s": statistics.quantiles(jobs_s, n=100)[tail - 1],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = len(res["failures"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "threads": THREADS,
        "trace": args.trace,
        "passes": len(res["pass_s"]),
        "jobs_per_pass": len(jobs),
        "job_executions_timed": len(res["job_s"]),
        "job_tail_percentile": tail,
        "setup_modules": res["modules"],
        "failures": res["failures"],
        "metrics": metrics,
    }
    (out / "report.json").write_text(json.dumps(report, indent=1))
    for f in res["failures"]:
        print(f"FAILED job {f['job']} {' '.join(f['argv'])}: {f['reason']}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} threads={THREADS} passes={len(res['pass_s'])} "
        f"jobs/pass={len(jobs)} timed_job_runs={len(res['job_s'])} job_tail=p{tail}"
    )
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"], "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
