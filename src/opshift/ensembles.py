"""Deterministic random ensembles and admissible function families.

All randomness flows through counter-based Philox generators keyed by
(seed, stream), so any consumer can rebuild exactly the same ensemble
from the two integers.
"""

from __future__ import annotations

import numpy as np

from .functions import GaussianFunction, RationalFunction, bump, rational_from_poles
from .linalg import HermitianOperator

__all__ = [
    "rng_stream",
    "random_hermitian",
    "random_hermitians",
    "random_pair",
    "real_rational",
    "admissible_family",
    "normalized_bump_family",
]


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for a named (seed, stream) pair."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) + (np.uint64(stream) << np.uint64(32))))


def random_hermitian(rng, dim, norm=1.0) -> HermitianOperator:
    return random_hermitians(rng, 1, dim, norm)[0]


def random_hermitians(rng, count, dim, norm=1.0) -> list:
    """``count`` draws of :func:`random_hermitian`, bit for bit, from one
    normal draw (the stream of ``count`` (2, dim, dim) draws) and one
    stacked ``eigvalsh`` for their 2-norms."""
    draw = rng.standard_normal((count, 2, dim, dim))
    a = draw[:, 0] + 1j * draw[:, 1]
    h = 0.5 * (a + np.swapaxes(a.conj(), -1, -2))
    lam = np.linalg.eigvalsh(h)
    op_norm = np.maximum(-lam[:, 0], lam[:, -1])
    scale = np.divide(norm, op_norm, out=np.ones(count), where=op_norm > 0)
    return [HermitianOperator(x) for x in h * scale[:, None, None]]


def random_pair(rng, dim, h_norm=1.0, v_norm=0.5):
    return random_hermitian(rng, dim, h_norm), random_hermitian(rng, dim, v_norm)


def real_rational(rng, decay, spread=2.0) -> RationalFunction:
    """Real-valued product of conjugate pole pairs with the exact decay order.

    ``decay`` must be even: each factor ((x-a)^2 + b^2)^-1 contributes two.
    """
    if decay % 2:
        decay += 1
    poles = []
    for _ in range(decay // 2):
        a = float(rng.uniform(-spread, spread))
        b = float(rng.uniform(0.6, 1.8))
        poles.extend([a + 1j * b, a - 1j * b])
    return rational_from_poles(poles)


def admissible_family(rng, count, n_deriv, k_weight, spread=2.0):
    """Mixed rational/gaussian/bump family inside the weighted class
    (n_deriv, k_weight); members rotate through the three kinds."""
    out = []
    min_decay = k_weight + 1
    if min_decay % 2:
        min_decay += 1
    for i in range(count):
        kind = i % 3
        if kind == 0:
            out.append(real_rational(rng, min_decay, spread))
        elif kind == 1:
            center = float(rng.uniform(-spread, spread))
            width = float(rng.uniform(0.5, 1.5))
            out.append(GaussianFunction(center, width, (1.0,)))
        else:
            c = float(rng.uniform(-spread, spread))
            half = float(rng.uniform(1.0, 2.5))
            out.append(bump(c - half, c + half, smoothness=n_deriv + 2))
    return out


def normalized_bump_family(rng, count, interval, m, smoothness=None):
    """Bumps inside ``interval`` scaled so that sup |f^(m)| = 1."""
    lo, hi = interval
    if smoothness is None:
        smoothness = m + 2
    out = []
    for _ in range(count):
        a = float(rng.uniform(lo, lo + 0.4 * (hi - lo)))
        b = float(rng.uniform(hi - 0.4 * (hi - lo), hi))
        f = bump(a, b, smoothness=smoothness)
        sup = f.sup_deriv(m)
        if sup > 0:
            f = bump(a, b, smoothness=smoothness, prefactor=(1.0 / sup,))
        out.append(f)
    return out
