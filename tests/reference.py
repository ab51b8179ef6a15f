"""Reference evaluators the tests compare the package against.

No product code calls them: each one is the slow, direct form of
something the package computes another way.

- :func:`eigen_tuples`, the per-tuple projection loop behind the
  eigenbasis chain of ``moi_eval`` and of the density weights;
- :func:`moi_eval_separated_rational`, the pole sum of resolvent
  products for simple-pole rational symbols;
- :func:`_ssf_counting`, eta_1 as a difference of eigenvalue counting
  functions.
"""

import numpy as np

from opshift.errors import ValidationError
from opshift.moi import check_tuple_budget
from opshift.piecewise import PiecewisePolynomial
from opshift.ssf import SpectralShiftDensity


def eigen_tuples(operators, arguments):
    """Yield (nodes, product) for every eigen-tuple with a nonzero product.

    For operators H_0..H_p with clustered spectral projections P^k_j and
    arguments A_1..A_p, the product of the tuple (j_0, ..., j_p) is
    P^0_{j0} A_1 P^1_{j1} ... A_p P^p_{jp} and its nodes are the matching
    eigenvalues.  Tuples come in lexicographic order, tuples with a common
    head share its prefix product, and any tuple crossing an exactly zero
    block P^k_a A_{k+1} P^{k+1}_b is skipped.  The tuple count is checked
    against ``moi.TUPLE_BUDGET`` before any block is built.
    """
    decs = check_tuple_budget(operators)
    eigs = [d.eigenvalues.tolist() for d in decs]
    p = len(arguments)
    # blocks[k][a] lists (b, P^k_a A_{k+1} P^{k+1}_b) over the nonzero blocks only
    blocks = []
    for k, v in enumerate(arguments):
        row = []
        for pa in decs[k].projections:
            pairs = ((b, pa @ v @ pb) for b, pb in enumerate(decs[k + 1].projections))
            row.append([(b, blk) for b, blk in pairs if np.any(blk)])
        blocks.append(row)

    def extend(k, a, nodes, prod):
        if k == p:
            yield nodes, prod
            return
        for b, blk in blocks[k][a]:
            yield from extend(k + 1, b, nodes + (eigs[k + 1][b],), blk if prod is None else prod @ blk)

    for a, proj in enumerate(decs[0].projections):
        yield from extend(0, a, (eigs[0][a],), proj if p == 0 else None)


def moi_eval_separated_rational(symbol, optuple):
    """Independent cross-check for simple-pole rational symbols.

    For f = scale * prod_i (x - z_i)^(-1) the divided difference
    separates, f^[p](l_0..l_p) = sum_i c_i (-1)^p prod_j (l_j - z_i)^(-1),
    so the operator integral is a pole-indexed sum of resolvent products.
    Only simple poles and no numerator factors are supported.
    """
    f = symbol.weighted
    if getattr(f, "kind", None) != "rational":
        raise ValidationError("separated evaluation needs a rational symbol")
    if any(m != 1 for _, m in f.factors):
        raise ValidationError("separated evaluation needs simple poles only")
    poles = [z for z, _ in f.factors]
    p = optuple.order
    if symbol.order != p:
        raise ValidationError("symbol order must match the argument count")
    dim = optuple.dim
    out = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(dim)
    for i, zi in enumerate(poles):
        # partial-fraction coefficient of 1/(x - z_i)
        ci = complex(f.scale)
        for j, zj in enumerate(poles):
            if j != i:
                ci /= zi - zj
        piece = np.linalg.inv(optuple.operators[0].entries - zi * eye)
        for k in range(p):
            piece = piece @ optuple.arguments[k] @ np.linalg.inv(optuple.operators[k + 1].entries - zi * eye)
        out = out + ci * (-1.0) ** p * piece
    return out


def _ssf_counting(H, V):
    """eta_1 as the difference of eigenvalue counting functions."""
    dh = H.decomposition()
    dhv = (H + V).decomposition()
    pts = []
    for lam, mult in zip(dh.eigenvalues, dh.multiplicities()):
        pts.append((float(lam), mult))
    for lam, mult in zip(dhv.eigenvalues, dhv.multiplicities()):
        pts.append((float(lam), -mult))
    xs = sorted(set(x for x, _ in pts))
    if len(xs) == 1:
        density = PiecewisePolynomial.zero((xs[0], xs[0] + 1.0))
        return SpectralShiftDensity(1, density, "counting", 0.0, 1.0)
    # eta_1 = N_H - N_{H+V}, right-continuous on half-open intervals
    values = []
    for lo in xs[:-1]:
        count = sum(mult for x, mult in pts if x <= lo)
        values.append(float(count))
    density = PiecewisePolynomial(
        np.asarray(xs, dtype=float), tuple(np.array([v], dtype=complex) for v in values)
    )
    return SpectralShiftDensity(1, density, "counting", 0.0, max(1.0, density.coefficient_scale()))
