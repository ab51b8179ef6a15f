"""Reference answers that share no evaluator with ``src/opshift``.

Every function here works on plain numpy arrays (the operator entries
and the density's breakpoints/coefficients), so a defect in the
program's divided differences, operator-integral loop, B-spline kernels
or weighted-norm routine cannot leak into the reference.

The remainder pattern is the one ``taylor_remainder(..., method="moi")``
evaluates: operators (H, H+V, H, ..., H) with m copies of V.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np

MP_DIGITS = 60
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def partial_fractions(poles, scale=1.0):
    """Coefficients c_i with scale * prod (x - z_j)^-1 = sum c_i / (x - z_i)."""
    out = []
    for i, zi in enumerate(poles):
        c = complex(scale)
        for j, zj in enumerate(poles):
            if j != i:
                c /= zi - zj
        out.append(c)
    return out


def _resolvent_chains(poles, H, V, m):
    """Per pole z: (H-z)^-1 V (H+V-z)^-1 V (H-z)^-1 ... V (H-z)^-1."""
    eye = np.eye(len(H))
    for z in poles:
        rh = np.linalg.inv(H - z * eye)
        prod = rh @ V @ np.linalg.inv(H + V - z * eye)
        for _ in range(m - 1):
            prod = prod @ V @ rh
        yield prod


def rational_remainder(poles, H, V, m, scale=1.0):
    """Remainder operator integral for a simple-pole rational symbol.

    For f = sum c_i / (x - z_i) the order-m divided difference separates
    into (-1)^m c_i prod_j (l_j - z_i)^-1, so the operator integral is a
    pole-indexed sum of resolvent products.
    """
    out = np.zeros(H.shape, dtype=complex)
    for c, chain in zip(partial_fractions(poles, scale), _resolvent_chains(poles, H, V, m)):
        out += c * (-1.0) ** m * chain
    return out


def _abs_cycle_weight(H, V, m):
    """sum over eigen-tuples of |tuple weight| for Tr of the remainder pattern.

    In the eigenbases U of H and W of H+V each tuple weight is a product
    of entries of A = U*VW, B = W*VU and C = U*VU around a closed cycle,
    so the sum of magnitudes is Tr(|A| |B| |C|^(m-2)).
    """
    _, U = np.linalg.eigh(H)
    _, W = np.linalg.eigh(H + V)
    a = np.abs(U.conj().T @ V @ W)
    b = np.abs(W.conj().T @ V @ U)
    c = np.abs(U.conj().T @ V @ U)
    prod = a @ b
    for _ in range(m - 2):
        prod = prod @ c
    return float(np.trace(prod))


def rational_remainder_trace(poles, H, V, m, scale=1.0):
    """(Tr R_m(f), a priori scale) for a simple-pole rational f.

    The scale is sum |tuple weight| / m! * sup |f^(m)|, with the sup
    bounded by sum |c_i| m! / |Im z_i|^(m+1).  It bounds |Tr R_m(f)| from
    above and shrinks with V like the trace itself, so a residual
    measured against it cannot hide behind a large constant.
    """
    coeffs = partial_fractions(poles, scale)
    trace = sum(
        c * (-1.0) ** m * np.trace(chain) for c, chain in zip(coeffs, _resolvent_chains(poles, H, V, m))
    )
    sup = sum(abs(c) / abs(complex(z).imag) ** (m + 1) for c, z in zip(coeffs, poles))
    return complex(trace), _abs_cycle_weight(H, V, m) * sup


def gaussian_taylor(center, width):
    """k, x -> g^(k)(x) / k! for g = exp(-(x-center)^2 / (2 width^2)), in mpmath."""
    s2 = mpmath.sqrt(2) * mpmath.mpf(width)
    c = mpmath.mpf(center)

    def coeff(k, x):
        y = (x - c) / s2
        return (-1 / s2) ** k * mpmath.hermite(k, y) * mpmath.exp(-y * y) / mpmath.factorial(k)

    return coeff


def rational_taylor(poles, scale=1.0):
    """k, x -> f^(k)(x) / k! for a simple-pole rational f, in mpmath."""
    terms = [(mpmath.mpc(c), mpmath.mpc(z)) for c, z in zip(partial_fractions(poles, scale), poles)]

    def coeff(k, x):
        return sum(c * (-1) ** k / (x - z) ** (k + 1) for c, z in terms)

    return coeff


def mp_remainder(taylor_coeff, H, V, m):
    """Remainder operator integral from mpmath divided differences.

    Divided differences are taken at ``MP_DIGITS`` digits over the
    float eigenvalues of H and H+V by the symmetric recursion over node
    multisets (confluent groups use Taylor coefficients), then contracted
    with the eigenbasis blocks in double precision.  The contraction has
    no cancellation: every term carries m factors of V.
    """
    lam, U = np.linalg.eigh(H)
    mu, W = np.linalg.eigh(H + V)
    d = len(lam)
    a = U.conj().T @ V @ W
    b = W.conj().T @ V @ U
    c = U.conj().T @ V @ U
    with mpmath.workdps(MP_DIGITS):
        values = [mpmath.mpf(float(x)) for x in np.concatenate([lam, mu])]
        order = sorted(range(2 * d), key=lambda i: values[i])
        rank = {node: r for r, node in enumerate(order)}
        nodes = [values[i] for i in order]
        memo = {}

        def dd(key):
            hit = memo.get(key)
            if hit is None:
                if nodes[key[0]] == nodes[key[-1]]:
                    hit = taylor_coeff(len(key) - 1, nodes[key[0]])
                else:
                    hit = (dd(key[1:]) - dd(key[:-1])) / (nodes[key[-1]] - nodes[key[0]])
                memo[key] = hit
            return hit

        table = np.empty((d,) * (m + 1), dtype=complex)
        for idx in itertools.product(range(d), repeat=m + 1):
            key = tuple(sorted([rank[idx[0]], rank[d + idx[1]]] + [rank[j] for j in idx[2:]]))
            table[idx] = complex(dd(key))
    letters = "abcdefghijklmnop"[: m + 1]
    chain = ",".join(letters[k : k + 2] for k in range(m))
    t_u = np.einsum(f"{letters},{chain}->{letters[0]}{letters[-1]}", table, a, b, *([c] * (m - 2)))
    return U @ t_u @ U.conj().T


def weighted_abs_norm(breakpoints, coeffs, atoms, weight_exponent):
    """Integral of |p(x)| (1+|x|)^-w over a piecewise polynomial.

    Each piece is evaluated in its own local basis (ascending powers of
    x - midpoint) and integrated by 40-point Gauss-Legendre on segments
    split at the piece's real roots and at 0, where the integrand has
    kinks.
    """
    w = weight_exponent
    total = 0.0
    for lo, hi, c in zip(breakpoints[:-1], breakpoints[1:], coeffs):
        mid = 0.5 * (lo + hi)
        c = np.real(np.asarray(c, dtype=complex))
        cuts = {lo, hi}
        if lo < 0.0 < hi:
            cuts.add(0.0)
        trimmed = np.trim_zeros(c, "b")
        if len(trimmed) > 1:
            for r in np.roots(trimmed[::-1]):
                if abs(r.imag) <= 1e-12 * (1.0 + abs(r.real)) and lo < mid + r.real < hi:
                    cuts.add(mid + r.real)
        cuts = sorted(cuts)
        for a, b in zip(cuts[:-1], cuts[1:]):
            x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
            vals = np.abs(np.polynomial.polynomial.polyval(x - mid, c)) * (1.0 + np.abs(x)) ** (-w)
            total += 0.5 * (b - a) * float(np.dot(_GL_WEIGHTS, vals))
    for x, mass in atoms:
        total += abs(complex(mass)) * (1.0 + abs(x)) ** (-w)
    return total


def scalar_eta(h, v, m, x):
    """eta_m of the 1x1 pair (h, v), v > 0: (h+v-x)^(m-1)/(m-1)! on [h, h+v].

    From the Taylor remainder with integral rest term,
    f(h+v) - sum_k f^(k)(h) v^k/k! = int_h^(h+v) f^(m)(x) (h+v-x)^(m-1)/(m-1)! dx.
    """
    x = np.asarray(x, dtype=float)
    inside = (x >= h) & (x <= h + v)
    return np.where(inside, (h + v - x) ** (m - 1) / math.factorial(m - 1), 0.0)


def relative_error(value, reference):
    ref = np.linalg.norm(reference)
    return float(np.linalg.norm(np.asarray(value) - reference) / ref) if ref > 0 else float(np.linalg.norm(value))
