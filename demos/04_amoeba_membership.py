"""
Amoeba holes decide 2D spectral membership
==========================================

In two dimensions there is no GBZ curve to march along.  Instead, map the
characteristic variety det[E - H(beta_x, beta_y)] = 0 through the
coordinate-wise log-modulus: the resulting amoeba has a central hole
exactly when E lies outside the open-boundary spectrum.
"""

import os

import numpy as np

from nhskin.io import write_pgm
from nhskin.model import builtin_2d
from nhskin.nonbloch import amoeba_points, has_hole, obc_member_2d
from nhskin.realspace import build
from nhskin.spectral import dense_spectrum

m = builtin_2d(0.5, 1.0, 0.2)

# brute-force reference: a 20 x 20 open lattice
spec = dense_spectrum(build(m, [20, 20], "obc"))
center = complex(np.mean(spec))
print(f"dense 20x20 spectrum: centroid {center:.3f}, "
      f"reach {np.max(np.abs(spec - center)):.3f}")

os.makedirs("demo_out", exist_ok=True)
for E, tag in ((center, "inside"), (4.5 + 0.0j, "outside")):
    raster = amoeba_points(m, E, r_x_samples=150, phase_samples=300)
    hole = has_hole(raster)
    filled = int(raster.occupancy.sum())
    print(f"E = {E:.3f} ({tag}): {filled} occupied cells, hole = {hole}")
    write_pgm(f"demo_out/amoeba_{tag}.pgm", raster.occupancy)
print("wrote demo_out/amoeba_inside.pgm and demo_out/amoeba_outside.pgm")

# the one-call membership verdict agrees with the pictures
print("member(centroid) =", obc_member_2d(m, center))
print("member(4.5)      =", obc_member_2d(m, 4.5 + 0.0j))
