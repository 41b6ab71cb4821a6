"""
Boundary sensitivity of a non-reciprocal chain
==============================================

Under periodic boundaries the Hatano-Nelson spectrum traces an ellipse in
the complex plane; cutting the chain open collapses every eigenvalue onto
the real axis and piles all eigenstates against one edge.
"""

import os

import numpy as np

from nhskin.io import write_svg_scatter
from nhskin.localization import classify_spectrum
from nhskin.model import bloch_samples, builtin_hatano_nelson
from nhskin.realspace import build
from nhskin.spectral import dense_spectrum, eig_biorthogonal

J_L, J_R, N = 0.5, 1.0, 60
m = builtin_hatano_nelson(J_L, J_R)

# PBC bands: one complex loop, sampled over the Brillouin zone
ks = np.linspace(-np.pi, np.pi, 512, endpoint=False)
pbc = bloch_samples(m, ks)[:, 0, 0]
print(f"PBC loop: |Re| up to {np.max(np.abs(pbc.real)):.3f}, "
      f"|Im| up to {np.max(np.abs(pbc.imag)):.3f}")

# OBC spectrum: real, and matching the analytic 2 sqrt(J_L J_R) cos(...) form
obc = dense_spectrum(build(m, [N], "obc"))
want = 2 * np.sqrt(J_L * J_R) * np.cos(np.arange(1, N + 1) * np.pi / (N + 1))
print(f"OBC spectrum: max |Im| = {np.max(np.abs(obc.imag)):.2e}, "
      f"closed-form error = {np.max(np.abs(np.sort(obc.real) - np.sort(want))):.2e}")

# every OBC eigenstate hugs the right edge, yet its biorthogonal profile is
# delocalized -- that combination is the skin-effect fingerprint
op = build(m, [N], "obc")
classes = classify_spectrum(eig_biorthogonal(op), op)
labels = sorted(set(zip(classes.label.tolist(), classes.side.tolist())))
print("state classes found:", labels)

edge = np.mean(classes.edge_fraction)
print(f"mean weight in the outer 10% of sites: {edge:.3f}")

os.makedirs("demo_out", exist_ok=True)
write_svg_scatter(
    "demo_out/spectra.svg",
    [
        (pbc.real, pbc.imag, "#888888", "PBC"),
        (obc.real, obc.imag, "#c0392b", "OBC"),
    ],
    title="periodic loop vs open-chain line",
)
print("wrote demo_out/spectra.svg")
