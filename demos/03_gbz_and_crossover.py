"""
The generalized Brillouin zone and the OBC-PBC crossover
========================================================

Open-chain eigenstates behave like Bloch waves with a complex momentum:
beta = e^{ik} moves off the unit circle onto the GBZ.  For the
Hatano-Nelson chain that curve is a circle of radius sqrt(J_R/J_L); its
departure from radius 1 *is* the skin effect, and reconnecting the chain
ends with an exponentially small link already undoes it.
"""

import numpy as np

from nhskin.model import builtin_hatano_nelson, builtin_nh_ssh
from nhskin.nonbloch import gbz_curve, gbz_membership
from nhskin.response import boundary_crossover

m = builtin_hatano_nelson(0.5, 1.0)
zone = gbz_curve(m, N_seed=200)
radii = np.abs(zone.beta)
print(f"HN GBZ: {len(radii)} samples, radius {radii.mean():.6f} "
      f"(analytic sqrt(J_R/J_L) = {np.sqrt(2):.6f}), spread {np.ptp(radii):.1e}")
print("sides on the curve:", sorted(set(zone.side.tolist())))

ssh = builtin_nh_ssh(0.6, 1.0, 0.3)
radii = np.abs(gbz_curve(ssh, N_seed=150).beta)
print(f"NH-SSH GBZ radius {radii.mean():.6f} "
      f"(analytic sqrt((t1-g)/(t1+g)) = {np.sqrt(0.3 / 0.9):.6f})")

# membership test: the two middle characteristic roots must share a modulus
for E in (0.5, 0.5 + 0.4j):
    v = gbz_membership(m, E)
    print(f"E = {E}: member = {v['member']}  (residual {v['residual']:.2e})")

# how strong must the boundary link be before the spectrum leaves the OBC
# cloud?  The crossover coupling shrinks exponentially with chain length.
eps = np.logspace(-16, 0, 17)
for N in (20, 30, 40):
    rows = boundary_crossover(m, N, eps)
    d = np.array([r["distance"] for r in rows])
    star = eps[np.argmax(d >= d[-1] / 2)]
    print(f"N = {N}: half-distance crossover at eps* ~ {star:.1e}")
