"""
Putting the skin effect to work
===============================

Three response-side consequences of non-reciprocity: chains amplify
signals directionally, mirrored chains funnel any excitation to their
interface, and a weak boundary link shifts an eigenvalue by an amount that
grows exponentially with system size.
"""

import numpy as np

from nhskin.model import builtin_hatano_nelson, builtin_nh_ssh
from nhskin.realspace import build
from nhskin.response import (
    amplification_log_ratio,
    funnel_model,
    sensor_sweep,
    time_evolve,
)

# --- directional amplification: end-to-end gain ratio grows like (J_R/J_L)^N
m = builtin_hatano_nelson(0.5, 1.0)
for N in (5, 10, 20):
    g = amplification_log_ratio(build(m, [N], "obc"), omega=0.0)
    print(f"N = {N:2d}: log gain ratio = {g:.6f}  ((N-1) log 2 = {(N - 1) * np.log(2):.6f})")

# --- funneling: drop a delta pulse anywhere, it ends up at the interface
op = funnel_model(0.5, 1.0, 30)
psi0 = np.zeros(op.n)
psi0[5] = 1.0  # far left of the left half
traj = time_evolve(op, psi0, t_max=40.0, dt=0.05)
center = op.n / 2 - 0.5
near = np.abs(np.arange(op.n) - center) <= 5.0
for frac in (0.0, 0.25, 0.5, 1.0):
    k = int(frac * (len(traj.times) - 1))
    mass = traj.densities[k][near].sum()
    print(f"t = {traj.times[k]:5.1f}: density within 5 sites of the interface = {mass:.3f}")

# --- sensing: ln |delta E| vs N slopes upward only with non-reciprocity
for gamma, tag in ((0.3, "non-reciprocal"), (0.0, "Hermitian control")):
    ns = [10, 14, 18, 22]
    delta = sensor_sweep(builtin_nh_ssh(0.6, 1.0, gamma), 1e-4, ns)
    slope = np.polyfit(ns, np.log(delta), 1)[0]
    print(f"{tag}: slope d ln|dE| / dN = {slope:+.4f}")
