"""
Point-gap winding predicts the skin side
========================================

The integer winding of det[H(k) - E_B] around zero is quantized wherever
the periodic bands avoid E_B.  Its sign says which edge the open-chain
eigenstates will choose, before any real-space diagonalization.
"""

import numpy as np

from nhskin.errors import GapClosedError
from nhskin.model import builtin_hatano_nelson, builtin_nh_ssh
from nhskin.topology import predict_skin_side, winding_number

m = builtin_hatano_nelson(0.5, 1.0)

for e_b in (0.0, 1.0 + 0.2j, 3.0):
    r = winding_number(m, e_b)
    print(f"E_B = {e_b}: w = {r.w:+d}  -> skin side: {predict_skin_side(r)}")

# swapping the hoppings mirrors the chain and flips the integer
print("swapped hoppings:", winding_number(builtin_hatano_nelson(1.0, 0.5), 0.0).w)

# at the reciprocal point the gap closes and the winding refuses to answer
try:
    winding_number(builtin_hatano_nelson(1.0, 1.0), 0.0)
except GapClosedError as exc:
    print("J_L = J_R:", exc)

# a coarse map of w over the complex plane; '.' marks base points on (or
# numerically too close to) the bands, where the integer is undefined
ssh = builtin_nh_ssh(0.6, 1.0, 0.3)
res = np.linspace(-1.6, 1.6, 33)
ims = np.linspace(-0.6, 0.6, 13)
print("\nNH-SSH winding map (Re in [-1.6, 1.6], Im in [-0.6, 0.6]):")
for im in ims[::-1]:
    row = ""
    for re in res:
        try:
            w = winding_number(ssh, complex(re, im)).w
            row += {1: "+", -1: "-", 0: "0"}.get(w, "?")
        except GapClosedError:
            row += "."
    print(row)
# mid-gap sits in the w = 0 pocket: the zero modes there are line-gap
# topology, not skin states
