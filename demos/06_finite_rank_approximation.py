"""Finite-rank approximation of a perturbation through spectral windows.

V_k compresses V onto a growing spectral window of H; norms stay
dominated, dressed Schatten defects shrink monotonically, remainder
traces converge uniformly over normalized bump families, and the shift
densities converge in L1.
"""

import numpy as np

from opshift import (
    convergence_report,
    finite_rank_sequence,
    remainder_sup_experiment,
    shift_density_convergence,
)
from opshift.ensembles import normalized_bump_family, random_hermitian, rng_stream

rng = rng_stream(42, 6)
H = random_hermitian(rng, 4, 2.0)
V = random_hermitian(rng, 4, 0.8)

eigs = np.sort(np.abs(H.decomposition().eigenvalues))
windows = [float(e) + 1e-9 for e in eigs] + [float(eigs[-1]) + 1.0]
seq = finite_rank_sequence(H, V, windows=windows)
print("windows:", [round(w, 3) for w in seq.windows])
print("ranks:  ", seq.ranks)
print("norm domination:", [round(t.norm(), 4) for t in seq.terms], "<=", round(V.norm(), 4))

rows = convergence_report(H, V, seq, n=2)
print("\nper-window defects (dressed Schatten / resolvent):")
for r in rows:
    print(f"  window {r.window:7.3f}  rank {r.rank}  {r.schatten_defect:.3e}  {r.resolvent_defect:.3e}")

lo = float(np.min(H.decomposition().eigenvalues)) - V.norm() - 1.0
hi = float(np.max(H.decomposition().eigenvalues)) + V.norm() + 1.0
bumps = normalized_bump_family(rng, 10, (lo, hi), m=3)
sups = remainder_sup_experiment(H, V, seq, m=3, bump_family=bumps)
print("\nremainder-trace sup over the family:", [f"{v:.3e}" for v in sups])

dists = shift_density_convergence(H, V, seq, m=3)
print("shift-density L1 distances:        ", [f"{v:.3e}" for v in dists])
