"""Seeded job lists for the benchmark workloads.

A job is one `nhskin` command line plus the parameters its oracle needs:
``{"kind": ..., "argv": [...], "params": {...}}``.  The program only ever
sees ``argv``.  Everything is drawn from ``random.Random(seed)``, so a seed
fixes the job list exactly.

Sizes cost up to O(N^3), so drawing them uniformly over a range would make
the work of a pass swing by a factor of three from seed to seed.  Each size
range is therefore split into equal strata, one per job of that kind; a job
sits at its stratum's centre with a seeded jitter of +-2 %.  The physical
parameters (hoppings, energies) are drawn uniformly within strata of the
ranges in which each oracle holds, in seeded order.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("obc_eigen", "nonbloch_maps", "boundary_response")

JITTER = 0.02

ASYM2D = ("0.5", "1.0", "0.2")  # J_L, J_R, t' of the 2D amoeba model
AMOEBA_OUTSIDE_RADIUS = 4.75  # 20x20 OBC spectrum reaches |E| = 3.64


def _centres(lo: float, hi: float, k: int) -> list:
    width = (hi - lo) / k
    return [lo + (i + 0.5) * width for i in range(k)]


def _sizes(rng: random.Random, lo: int, hi: int, k: int) -> list:
    """k sizes, one per stratum of [lo, hi], each within JITTER of its centre."""
    return [int(round(c * (1.0 + rng.uniform(-JITTER, JITTER)))) for c in _centres(lo, hi, k)]


def _draws(rng: random.Random, lo: float, hi: float, k: int) -> list:
    """k values, one uniform in each stratum of [lo, hi], in seeded order."""
    width = (hi - lo) / k
    vals = [round(lo + (i + rng.random()) * width, 4) for i in range(k)]
    rng.shuffle(vals)
    return vals


def _hn(jl: float) -> tuple:
    return {"jl": jl, "jr": 1.0}, ["--builtin", "hatano-nelson", "--jl", str(jl), "--jr", "1.0"]


def _ssh(t1: float, gamma: float) -> tuple:
    params = {"t1": t1, "t2": 1.0, "gamma": gamma}
    return params, ["--builtin", "nh-ssh", "--t1", str(t1), "--t2", "1.0", "--gamma", str(gamma)]


def _job(kind: str, command: str, model: tuple, extra: list, **params) -> dict:
    p, model_argv = model
    return {"kind": kind, "argv": [command, *model_argv, *extra], "params": {**p, **params}}


def _hn_jobs(rng, kind, command, sizes, extra=()) -> list:
    return [
        _job(kind, command, _hn(jl), ["-N", str(n), *extra], N=n)
        for n, jl in zip(sizes, _draws(rng, 0.3, 0.8, len(sizes)))
    ]


def _ssh_jobs(rng, kind, command, sizes, extra=()) -> list:
    k = len(sizes)
    return [
        _job(kind, command, _ssh(t1, g), ["-N", str(n), *extra], N=n)
        for n, t1, g in zip(sizes, _draws(rng, 0.5, 0.8, k), _draws(rng, 0.1, 0.3, k))
    ]


# A run's median and tail percentile of job times must land well inside a
# group of jobs of like duration, not on the edge between two groups.  A
# shared host that runs in a slow mode with bursts of a ~1.5x faster one
# makes a statistic at a group edge jump between groups as the share of
# fast bursts changes from run to run (bench/README.md, "Sizes and the
# seed").  TAIL_PERCENTILE is the highest percentile that keeps ten job runs
# beyond it at the run's job-count floor (`run.py`), and each list below
# places it and the median inside a group.
TAIL_PERCENTILE = {"obc_eigen": 85, "nonbloch_maps": 80, "boundary_response": 85}


def _obc_eigen(rng: random.Random) -> list:
    # three localize jobs of ~0.1 s, three spectra of ~0.25 s (hatano-nelson
    # from 200-290 sites, nh-ssh from 100-150 cells) and three of ~0.75 s
    # (hatano-nelson from 360-450, nh-ssh from 170-220): the median sits
    # mid-way through the middle group and the 85th percentile 55 % of the
    # way through the top one
    return [
        *_hn_jobs(rng, "spectrum_hn", "spectrum", _sizes(rng, 200, 290, 2) + _sizes(rng, 360, 450, 2)),
        *_ssh_jobs(rng, "spectrum_ssh", "spectrum", _sizes(rng, 100, 150, 1) + _sizes(rng, 170, 220, 1)),
        *_hn_jobs(rng, "localize_hn", "localize", _sizes(rng, 100, 200, 2), ["--format", "svg"]),
        *_ssh_jobs(rng, "localize_ssh", "localize", _sizes(rng, 50, 100, 1), ["--format", "svg"]),
    ]


def _nonbloch_maps(rng: random.Random) -> list:
    # two short jobs (gbz_hn, winding_hn), two amoebas of ~0.55 s and three
    # of ~0.9 s (gbz_ssh from the upper half of its size range, two nh-ssh
    # winding maps): the median sits 75 % of the way through the amoebas and
    # the 80th percentile 55 % of the way through the top group
    jobs = [
        *_hn_jobs(rng, "gbz_hn", "gbz", _sizes(rng, 150, 250, 1)),
        *_ssh_jobs(rng, "gbz_ssh", "gbz", _sizes(rng, 200, 250, 1)),
    ]
    (jl,) = _draws(rng, 0.3, 0.8, 1)
    jobs.append(_job("winding_hn", "winding", _hn(jl), ["--grid", "30"], grid=30))
    # two 11x11 maps stand for one 16x16 one, so the cost is averaged over
    # two parameter strata; t1 + gamma < t2 = 1 keeps the point gap at E_B = 0 open
    for t1, g in zip(_draws(rng, 0.5, 0.7, 2), _draws(rng, 0.1, 0.2, 2)):
        jobs.append(_job("winding_ssh", "winding", _ssh(t1, g), ["--grid", "11"], grid=11))

    model = ({}, ["--builtin", "asym2d", "--jl", ASYM2D[0], "--jr", ASYM2D[1], "--tp", ASYM2D[2]])
    (x,) = _draws(rng, -1.0, 3.0, 1)
    theta = rng.uniform(0.0, 2 * math.pi)
    outside = AMOEBA_OUTSIDE_RADIUS * complex(math.cos(theta), math.sin(theta))
    for E in (complex(x, 0.0), outside):
        literal = f"{E.real:.4f}{E.imag:+.4f}i"
        jobs.append(_job("amoeba", "amoeba", model, [f"--energy={literal}", "--format", "pgm"], energy=literal))
    return jobs


def _boundary_response(rng: random.Random) -> list:
    (t1,), (g,), (jl,) = _draws(rng, 0.5, 0.8, 1), _draws(rng, 0.1, 0.3, 1), _draws(rng, 0.3, 0.8, 1)
    sizes = _sizes(rng, 40, 160, 4)
    (funnel_jl,) = _draws(rng, 0.3, 0.45, 1)  # interface mass >= 0.95 here; 0.81 at the default 0.5
    # three short jobs (sensor_ssh, reciprocity), three of ~0.2 s (crossover
    # near 70 sites, sensor_hn) and three of ~0.55 s (crossover near 90 sites,
    # funnel): the median sits mid-way through the middle group and the 85th
    # percentile 55 % of the way through the top one
    return [
        *_hn_jobs(rng, "crossover", "crossover", _sizes(rng, 60, 100, 2) + _sizes(rng, 60, 80, 1)),
        _job("sensor_ssh", "sensor", _ssh(t1, g), []),  # default sizes
        _job("sensor_hn", "sensor", _hn(jl), ["-N", *map(str, sizes)], sizes=sizes),
        *_hn_jobs(rng, "reciprocity", "reciprocity", _sizes(rng, 100, 200, 2)),
        {"kind": "funnel", "argv": ["funnel"], "params": {}},
        {"kind": "funnel", "argv": ["funnel", "--jl", str(funnel_jl)], "params": {"jl": funnel_jl}},
    ]


_GENERATORS = {
    "obc_eigen": _obc_eigen,
    "nonbloch_maps": _nonbloch_maps,
    "boundary_response": _boundary_response,
}


def generate(workload: str, seed: int) -> list:
    """The job list of one pass of `workload`, fixed by `seed`."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(seed))
