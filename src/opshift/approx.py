"""Finite-rank approximation sequences and their convergence reports.

A perturbation V is approximated by V_k = P_k V P_k, at its numerical
rank, with P_k the spectral projection of H onto a growing window.  On
matrices the sequence reaches V exactly once the window covers the
spectrum.  P_k commutes with R = (H - i)^-1, so |P_k V P_k| <= |V| and
|R P_k V P_k R|_n <= |R V R|_n hold for every window; the module
reports the convergence along the sequence: Schatten and resolvent
defects, remainder-trace suprema over normalized bump families, and L1
distances of the shift densities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import HermitianOperator, schatten_norm
from .cov import remainder_traces
# taylor_remainder stays importable here: bench/tracing.py patches it at this import site
from .moi import taylor_remainder  # noqa: F401
# ssf_compute stays importable here: bench/tracing.py patches it at this import site
from .ssf import shift_densities, ssf_compute  # noqa: F401

__all__ = [
    "ApproximationSequence",
    "finite_rank_sequence",
    "convergence_report",
    "ConvergenceRow",
    "remainder_sup_experiment",
    "shift_density_convergence",
]


@dataclass(frozen=True)
class ApproximationSequence:
    terms: tuple  # HermitianOperator per window
    windows: tuple
    ranks: tuple

    def __post_init__(self):
        if len(self.terms) != len(self.windows) or len(self.ranks) != len(self.terms):
            raise ValidationError("terms, windows and ranks must align")


def finite_rank_sequence(H: HermitianOperator, V: HermitianOperator, windows) -> ApproximationSequence:
    """V_k = P_k V P_k at its numerical rank, P_k = E_H((-w, w)).

    The rank counts the eigenvalues of P_k V P_k above 1e-14 (1 + |V|).
    """
    if len(windows) == 0:
        raise ValidationError("need at least one window")
    ws = [float(w) for w in windows]
    if any(b <= a for a, b in zip(ws, ws[1:])):
        raise ValidationError("windows must be increasing")
    dec = H.decomposition()
    spectrum_radius = float(np.max(np.abs(dec.eigenvalues)))
    terms, ranks = [], []
    for w in ws:
        proj = np.zeros((H.dim, H.dim), dtype=complex)
        for lam, p in zip(dec.eigenvalues, dec.projections):
            if -w < lam < w:
                proj = proj + p
        compressed = proj @ V.entries @ proj
        compressed = 0.5 * (compressed + compressed.conj().T)
        lam_c, vec_c = np.linalg.eigh(compressed)
        order = np.argsort(-np.abs(lam_c), kind="stable")
        rank = int(np.sum(np.abs(lam_c) > 1e-14 * (1.0 + V.norm())))
        if w > spectrum_radius and rank == len(order):
            # the compression is the identity conjugation; keep V bitwise
            vk = V
        else:
            keep = order[:rank]
            mat = (vec_c[:, keep] * lam_c[keep]) @ vec_c[:, keep].conj().T
            vk = HermitianOperator(0.5 * (mat + mat.conj().T))
        terms.append(vk)
        ranks.append(rank)
    return ApproximationSequence(tuple(terms), tuple(ws), tuple(ranks))


@dataclass(frozen=True)
class ConvergenceRow:
    window: float
    rank: int
    schatten_defect: float
    resolvent_defect: float
    triple_product_defects: tuple


def convergence_report(H, V, seq: ApproximationSequence, n):
    """Per-window Schatten defects and triple-product limit defects.

    Each row reports the Schatten-n distances of R(H+V_k) V_k R(H),
    R(H+V_k) (V-V_k) R(H+V) and R(H+V_k) V R(H+V_k), R(X) = (X-i)^-1,
    from their limits R(H+V) V R(H), 0 and R(H+V) V R(H+V).
    """
    rH, rHV = H.resolvent(), (H + V).resolvent()
    limits = (rHV @ V.entries @ rH, 0.0, rHV @ V.entries @ rHV)
    rows = []
    for vk, w, rank in zip(seq.terms, seq.windows, seq.ranks):
        rHk = (H + vk).resolvent()
        s_defect = schatten_norm(rH @ (vk.entries - V.entries) @ rH, n)
        r_defect = schatten_norm(rHk - rHV, n)
        values = (rHk @ vk.entries @ rH, rHk @ (V.entries - vk.entries) @ rHV, rHk @ V.entries @ rHk)
        triple = tuple(schatten_norm(value - limit, n) for value, limit in zip(values, limits))
        rows.append(ConvergenceRow(w, rank, float(s_defect), float(r_defect), triple))
    return rows


def remainder_sup_experiment(H, V, seq: ApproximationSequence, m, bump_family):
    """Per-window sup over the family of |Tr(R_m(V) - R_m(V_k))|.

    Family members must be normalized to sup|f^(m)| <= 1 on their
    support (validated on a grid, to 1e-6).
    """
    if m < 3:
        raise ValidationError("the remainder comparison needs m >= 3")
    for f in bump_family:
        if f.support is None:
            raise ValidationError("family members must be compactly supported")
        if f.sup_deriv(m) > 1.0 + 1e-6:
            raise ValidationError("family member violates the sup|f^(m)| <= 1 normalization")
    traces = remainder_traces(bump_family, H, [V, *seq.terms], m).tolist()
    return [max((abs(b - t) for b, t in zip(traces[0], row)), default=0.0) for row in traces[1:]]


def shift_density_convergence(H, V, seq: ApproximationSequence, m):
    """L1 distance on the spectral hull between eta_m(H, V_k) and eta_m(H, V),
    with every density from one stacked pass (:func:`opshift.ssf.shift_densities`)."""
    # a window past the spectrum keeps V itself (finite_rank_sequence)
    fresh = [vk for vk in seq.terms if vk is not V]
    eta, *etas = shift_densities(H, [V] + fresh, m)
    etas = iter(etas)
    return [(eta.density - (eta if vk is V else next(etas)).density).l1_norm() for vk in seq.terms]
