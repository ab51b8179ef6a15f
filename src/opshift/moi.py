"""Multiple operator integrals on finite-dimensional operators.

On matrices the defining double limit collapses to the exact spectral
sum over eigenvalue-cluster tuples,

    T_phi(V_1, ..., V_p) = sum phi(lam_{j0}, ..., lam_{jp})
                               P_{j0} V_1 P_{j1} ... V_p P_{jp},

which this module evaluates with a deterministic reduction order.  On
top of the evaluator sit higher-order operator derivatives, Taylor
remainders in both their direct and integral forms, and the
one-slot perturbation identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, ValidationError
from .functions import TestFunction, divided_difference, weight_multiply
from .linalg import HermitianOperator, func_calculus, schatten_norm

__all__ = [
    "MoiSymbol",
    "OperatorTuple",
    "check_tuple_budget",
    "eigen_tuples",
    "moi_eval",
    "moi_eval_separated_rational",
    "frechet_derivative",
    "taylor_remainder",
    "perturbation_identity",
    "PerturbationReport",
    "TUPLE_BUDGET",
]

TUPLE_BUDGET = 10**7


@dataclass(frozen=True)
class MoiSymbol:
    """Divided-difference symbol ((base * u^weight_power))^[order]."""

    base: TestFunction
    weight_power: int = 0
    order: int = 0

    def __post_init__(self):
        if self.weight_power < 0 or self.order < 0:
            raise ValidationError("weight power and order must be nonnegative")
        object.__setattr__(self, "_weighted", weight_multiply(self.base, self.weight_power))

    @property
    def weighted(self) -> TestFunction:
        return self._weighted

    def value(self, nodes, cache=None):
        if len(nodes) != self.order + 1:
            raise ValidationError("node count must equal order + 1")
        if cache is None:
            return divided_difference(self._weighted, nodes)
        key = tuple(sorted(float(v) for v in nodes))
        hit = cache.get(key)
        if hit is None:
            hit = divided_difference(self._weighted, key)
            cache[key] = hit
        return hit


@dataclass(frozen=True)
class OperatorTuple:
    """Operators H_0..H_p with arguments V_1..V_p."""

    operators: tuple
    arguments: tuple

    def __post_init__(self):
        ops = tuple(self.operators)
        args = tuple(np.asarray(v.entries if isinstance(v, HermitianOperator) else v, dtype=complex) for v in self.arguments)
        if len(ops) < 1:
            raise ValidationError("need at least one operator")
        if len(args) != len(ops) - 1:
            raise ValidationError("argument count must be operator count minus one")
        dim = ops[0].dim
        for h in ops:
            if not isinstance(h, HermitianOperator):
                raise ValidationError("operators must be HermitianOperator instances")
            if h.dim != dim:
                raise ValidationError("all operators must share one dimension")
        for v in args:
            if v.shape != (dim, dim):
                raise ValidationError("arguments must match the operator dimension")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "arguments", args)

    @property
    def dim(self):
        return self.operators[0].dim

    @property
    def order(self):
        return len(self.arguments)


def check_tuple_budget(operators):
    """Decompositions of the operators, after checking that their
    eigenvalue-cluster tuple count stays within ``TUPLE_BUDGET``."""
    decs = [h.decomposition() for h in operators]
    n_tuples = math.prod(len(d.eigenvalues) for d in decs)
    if n_tuples > TUPLE_BUDGET:
        raise BudgetError(f"{n_tuples} eigenvalue tuples exceed the budget {TUPLE_BUDGET}")
    return decs


def eigen_tuples(operators, arguments):
    """Yield (nodes, product) for every eigen-tuple with a nonzero product.

    For operators H_0..H_p with clustered spectral projections P^k_j and
    arguments A_1..A_p, the product of the tuple (j_0, ..., j_p) is
    P^0_{j0} A_1 P^1_{j1} ... A_p P^p_{jp} and its nodes are the matching
    eigenvalues.  Tuples come in lexicographic order, tuples with a common
    head share its prefix product, and any tuple crossing an exactly zero
    block P^k_a A_{k+1} P^{k+1}_b is skipped.  The tuple count is checked
    against ``TUPLE_BUDGET`` before any block is built.
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


def moi_eval(symbol: MoiSymbol, optuple: OperatorTuple) -> np.ndarray:
    """Exact spectral-sum evaluation of the operator integral.

    Terms are summed in the fixed lexicographic order of
    :func:`eigen_tuples`, so the result is reproducible bit for bit.
    Symbol values are cached per sorted node tuple (divided differences
    are symmetric, and the remainder pattern repeats node multisets).
    """
    p = optuple.order
    if symbol.order != p:
        raise ValidationError("symbol order must match the argument count")
    all_eigs = np.concatenate([h.decomposition().eigenvalues for h in optuple.operators])
    _check_symbol_poles(symbol, all_eigs)
    if p == 0:
        return func_calculus(symbol.weighted, optuple.operators[0])
    cache = {}
    out = np.zeros((optuple.dim, optuple.dim), dtype=complex)
    for nodes, prod in eigen_tuples(optuple.operators, optuple.arguments):
        out += symbol.value(nodes, cache) * prod
    return out


def _check_symbol_poles(symbol, eigenvalues):
    for z in symbol.weighted.poles():
        if min(abs(complex(z) - lam) for lam in eigenvalues) < 1e-12:
            raise DomainError(f"symbol pole {z} lies on an operator spectrum")


def moi_eval_separated_rational(symbol: MoiSymbol, optuple: OperatorTuple) -> np.ndarray:
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


def frechet_derivative(f: TestFunction, H: HermitianOperator, V, k: int) -> np.ndarray:
    """k-th Taylor coefficient (1/k!) d^k/dt^k f(H + tV) at t = 0."""
    if k < 0:
        raise ValidationError("derivative order must be nonnegative")
    if k == 0:
        return func_calculus(f, H)
    vt = OperatorTuple((H,) * (k + 1), (V,) * k)
    return moi_eval(MoiSymbol(f, 0, k), vt)


def taylor_remainder(f: TestFunction, H: HermitianOperator, V: HermitianOperator, n: int, method="direct") -> np.ndarray:
    """f(H+V) minus its order-(n-1) operator Taylor polynomial.

    method="direct" subtracts the derivative terms; method="moi"
    evaluates the single operator integral with operator pattern
    (H, H+V, H, ..., H) and n copies of V.
    """
    if n < 1:
        raise ValidationError("remainder order must be at least 1")
    if method == "direct":
        out = func_calculus(f, H + V)
        for k in range(n):
            out = out - frechet_derivative(f, H, V.entries, k)
        return out
    if method == "moi":
        ops = (H, H + V) + (H,) * (n - 1)
        return moi_eval(MoiSymbol(f, 0, n), OperatorTuple(ops, (V.entries,) * n))
    raise ValidationError("method must be 'direct' or 'moi'")


@dataclass(frozen=True)
class PerturbationReport:
    residual: float
    scale: float
    lhs_a: np.ndarray
    lhs_b: np.ndarray
    rhs: np.ndarray


def perturbation_identity(f: TestFunction, optuple: OperatorTuple, A: HermitianOperator, B: HermitianOperator, slot: int) -> PerturbationReport:
    """One-slot operator replacement identity.

    ``optuple`` is the full left-hand configuration with ``A`` at operator
    position ``slot`` (1-based); the difference against the same integral
    with ``B`` in that position equals one order-(n+1) integral carrying
    the extra argument A - B next to the A, B pair.
    """
    n = optuple.order
    if not (1 <= slot <= n + 1):
        raise ValidationError("slot must lie in 1..n+1")
    ops = list(optuple.operators)
    if ops[slot - 1] is not A and not np.array_equal(ops[slot - 1].entries, A.entries):
        raise ValidationError("tuple must carry A at the requested slot")
    if A.dim != B.dim or A.dim != optuple.dim:
        raise ValidationError("dimension mismatch")
    args = list(optuple.arguments)
    sym_n = MoiSymbol(f, 0, n)
    lhs_a = moi_eval(sym_n, optuple)
    ops_b = list(ops)
    ops_b[slot - 1] = B
    lhs_b = moi_eval(sym_n, OperatorTuple(tuple(ops_b), tuple(args)))
    ops_r = ops[:slot] + [B] + ops[slot:]
    args_r = args[: slot - 1] + [A.entries - B.entries] + args[slot - 1 :]
    rhs = moi_eval(MoiSymbol(f, 0, n + 1), OperatorTuple(tuple(ops_r), tuple(args_r)))
    diff = lhs_a - lhs_b - rhs
    scale = 1.0 + schatten_norm(lhs_a, np.inf) + schatten_norm(lhs_b, np.inf) + schatten_norm(rhs, np.inf)
    return PerturbationReport(
        residual=float(np.linalg.norm(diff, 2)),
        scale=scale,
        lhs_a=lhs_a,
        lhs_b=lhs_b,
        rhs=rhs,
    )
