"""Multiple operator integrals, operator derivatives, Taylor remainders.

The remainder of the operator Taylor expansion of f(H+V) equals a single
operator integral with the perturbed operator in the second slot.
"""

import numpy as np

from opshift import (
    HermitianOperator,
    MoiSymbol,
    OperatorTuple,
    frechet_derivative,
    moi_eval,
    rational_from_poles,
    taylor_remainder,
)
from opshift.ensembles import random_pair, rng_stream

H, V = random_pair(rng_stream(7, 0), dim=3, h_norm=1.0, v_norm=0.5)
f = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])

# --- a first-order integral is the derivative of the matrix function ----------

D1 = frechet_derivative(f, H, V.entries, 1)
step = 1e-6
from opshift import func_calculus

fd = (func_calculus(f, HermitianOperator(H.entries + step * V.entries))
      - func_calculus(f, HermitianOperator(H.entries - step * V.entries))) / (2 * step)
print("first derivative vs central difference:", np.linalg.norm(D1 - fd, 2))

# --- separated evaluation for simple-pole rationals ----------------------------
# f = scale / prod_i (x - z_i) = sum_i c_i / (x - z_i), so its second-order integral
# over (H, H+V, H) is sum_i c_i (H - z_i)^-1 V (H+V - z_i)^-1 V (H - z_i)^-1

sym = MoiSymbol(f, 0, 2)
tup = OperatorTuple((H, H + V, H), (V.entries, V.entries))
spectral_sum = moi_eval(sym, tup)
poles = [z for z, _ in f.factors]
pole_sum = 0
for z in poles:
    c = f.scale / np.prod([z - w for w in poles if w != z])
    R = [np.linalg.inv(h.entries - z * np.eye(H.dim)) for h in tup.operators]
    pole_sum = pole_sum + c * R[0] @ V.entries @ R[1] @ V.entries @ R[2]
print("spectral sum vs pole decomposition:    ", np.linalg.norm(spectral_sum - pole_sum, 2))

# --- Taylor remainders: direct subtraction vs the integral form ----------------

for n in (1, 2, 3):
    direct = taylor_remainder(f, H, V, n, "direct")
    integral = taylor_remainder(f, H, V, n, "moi")
    print(f"order {n} remainder, direct vs integral:", np.linalg.norm(direct - integral, 2))

# --- the remainder shrinks like ||V||^n ----------------------------------------

print("\nremainder norms under V -> tV:")
for t in (1.0, 0.5, 0.25):
    r = taylor_remainder(f, H, t * V, 3, "direct")
    print(f"  t = {t}: {np.linalg.norm(r, 2):.3e}")
