"""Child process of the benchmark: runs one workload's jobs in a closed loop.

    python3 bench/worker.py SPEC.json RESULT.json

SPEC holds the job list with oracle expectations, the output root, the
measuring time and the trace flag.  Thread caps and PYTHONPATH come from the
environment the parent sets, before numpy loads.  Each job is a call of
`nhskin.cli.main(argv)` in this process, the next starting when the previous
returns.  Oracles run after each job, outside its timed interval.

A warm-up runs the first job of each kind, untimed, so lazy imports and
first-call costs stay out of the timed passes.  Timed passes
then repeat until the measuring time is spent, with at least MIN_PASSES
passes and the spec's floor of job runs.
With tracing, traced and untraced passes alternate, so the overhead of the
tracer is measured in the same process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import nhskin.cli
import oracles
import tracing

MIN_PASSES = 5
MIN_TRACED_PASSES = 3
MAX_MEASURE_S = 120.0


def run_job(job: dict, outdir: str):
    """(wall seconds, exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    argv = [*job["argv"], "--out", outdir]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = nhskin.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the loop must go on; the traceback is the failure reason
        rc = -1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return wall, rc, out.getvalue(), err.getvalue()


class Loop:
    def __init__(self, spec: dict):
        self.jobs = spec["jobs"]
        self.expect = spec["expect"]
        self.out_root = spec["out_root"]
        self.attempted = 0
        self.failures = []

    def run_pass(self, job_times=None, first_of_kind=False) -> float:
        """Run every job once, or the first job of each kind; return the
        summed job wall time."""
        total, kinds = 0.0, set()
        for i, job in enumerate(self.jobs):
            if first_of_kind and job["kind"] in kinds:
                continue
            kinds.add(job["kind"])
            outdir = os.path.join(self.out_root, f"job_{i:02d}")
            wall, rc, stdout, stderr = run_job(job, outdir)
            total += wall
            if job_times is not None:
                job_times.append(wall)
            self.attempted += 1
            reason = f"exit {rc}: {stderr.strip()[-300:]}" if rc != 0 else oracles.check(
                job, outdir, stdout, self.expect[i]
            )
            if reason is not None:
                self.failures.append({"job": i, "argv": job["argv"], "reason": reason})
        return total


def loaded_modules() -> list:
    """nhskin modules and scipy subpackages this process has imported."""
    return sorted(
        m
        for m in sys.modules
        if m.startswith("nhskin.")
        or (m.startswith("scipy.") and m.count(".") == 1 and not m.split(".")[1].startswith("_"))
    )


def measure(spec: dict) -> dict:
    loop = Loop(spec)
    loop.run_pass(first_of_kind=True)
    modules = loaded_modules()

    tracer = tracing.Tracer() if spec["trace"] else None
    seconds = spec["seconds"]
    plain, traced, job_times, layers, spans = [], [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if tracer is None:
            done = len(plain) >= MIN_PASSES and len(job_times) >= spec["min_executions"]
        else:
            done = min(len(plain), len(traced)) >= MIN_TRACED_PASSES
        if (elapsed >= seconds and done) or elapsed >= MAX_MEASURE_S:
            break
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(loop.run_pass())
            finally:
                tracer.uninstall()
            spans.append(tracer.take())
            layers.append(tracing.layer_metrics(spans[-1]))
        else:
            plain.append(loop.run_pass(job_times if tracer is None else None))

    result = {
        "attempted": loop.attempted,
        "failures": loop.failures,
        "modules": modules,
        "pass_s": plain,
        "job_s": job_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.pass_s"] = statistics.median(traced)
        per_layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        per_layer["spectral.share"] = (
            per_layer["spectral.self_s"] + per_layer["spectral.linalg_s"]
        ) / per_layer["trace.pass_s"]
        per_layer["io.share"] = per_layer["io.self_s"] / per_layer["trace.pass_s"]
        result["per_layer"] = per_layer
        tracing.write_spans(os.path.join(spec["out_root"], "spans.csv"), spans)
    return result


def main(argv: list) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = measure(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
