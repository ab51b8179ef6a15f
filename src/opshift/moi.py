"""Multiple operator integrals on finite-dimensional operators.

On matrices the defining double limit collapses to the exact spectral
sum over eigenvalue-cluster tuples,

    T_phi(V_1, ..., V_p) = sum phi(lam_{j0}, ..., lam_{jp})
                               P_{j0} V_1 P_{j1} ... V_p P_{jp},

which eigenbasis chains evaluate: for :func:`moi_eval` a batch of one
chain, for the expansions of :mod:`opshift.cov` a batch per symbol, and,
closed into cycles, for its density weights.  On top sit higher-order operator
derivatives, Taylor remainders in direct and integral forms, and the
one-slot perturbation identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .functions import TestFunction, divided_difference, weight_multiply
from .linalg import HermitianOperator, _check_poles_off, func_calculus, schatten_norm

__all__ = [
    "MoiSymbol",
    "OperatorTuple",
    "check_tuple_budget",
    "moi_eval",
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


# elements per intermediate array of an eigenbasis chain: the clusters of H_0
# are taken in chunks, so its memory stays near 16 bytes * 2**18 = 4 MB
_CYCLE_CHUNK = 2**18


def _eigenbasis_factors(decs, arguments):
    """F_k = X_{k-1}^* A_k X_k in the eigenbases X_k of the decompositions."""
    xs = [d.eigenvectors for d in decs]
    return [xs[k].conj().T @ arguments[k] @ xs[k + 1] for k in range(len(arguments))]


def _cluster_codes(decs):
    """(starts, values, codes): each H_k's first column per cluster, the
    sorted distinct eigenvalues of all the decompositions, and each H_k's
    cluster nodes as indices into them."""
    starts = [np.searchsorted(d.labels, np.arange(len(d.eigenvalues))) for d in decs]  # labels run 0, 0, 1, ...
    values = np.sort(np.concatenate([d.eigenvalues for d in decs]))
    # distinct values by hand: np.unique without return_inverse imports numpy.ma (about 1 MB)
    values = values[np.append(True, values[1:] != values[:-1])]
    return starts, values, [np.searchsorted(values, d.eigenvalues).astype(np.int32) for d in decs]


def _chain_chunks(factors, starts, dim, per_entry):
    """(lo, hi, _chain_block) per chunk of whole clusters of H_0 (the block
    is None for p = 0), whose widest array holds ``_CYCLE_CHUNK //
    per_entry`` elements or one cluster; ``starts`` holds the cluster starts
    of H_0..H_p."""
    p, counts = len(factors), [len(s) for s in starts]
    # widest intermediate of _chain_block and of its callers per column of H_0
    widest = max([math.prod(counts[1:k]) * dim * dim for k in range(1, p)] + [math.prod(counts[1:p]) * dim])
    edges = np.append(starts[0], dim)
    step = max(1, _CYCLE_CHUNK // (per_entry * widest * int(np.max(np.diff(edges)))))
    bounds = [(edges[j], edges[min(j + step, counts[0])]) for j in range(0, counts[0], step)]
    return ((lo, hi, _chain_block(factors, starts, lo, hi) if p else None) for lo, hi in bounds)


def _chain_block(factors, starts, lo, hi):
    """Open chain (i_0, j_1, ..., j_{p-1}, i_p) of the H_0 columns [lo, hi): each
    i_k is summed into its cluster j_k once F_{k+1} is applied."""
    chain = factors[0][lo:hi]
    for k in range(1, len(factors)):
        chain = _cluster_sum(chain[..., None] * factors[k], starts[k], -2)
    return chain


def _cluster_sum(a, starts, axis):
    """Sum the runs of entries along ``axis`` that start at ``starts``."""
    return a if len(starts) == a.shape[axis] else np.add.reduceat(a, starts, axis=axis)


def _group_rows(rows):
    """Sort each row in place and number the distinct rows: (the distinct rows
    in ascending lexicographic order, each row's group).  A column lexsort is
    about five times faster than ``np.unique(axis=0)`` on byte strings."""
    rows.sort(axis=1)
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    group = np.empty(len(rows), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return rows[first], group


def _chain_cores(f, decs, chains):
    """core[i_0, i_p] per chain of a batch under one symbol f^[p], p >= 1:
    chain (slots, factors) runs over H_{slots[0]}..H_{slots[p]}, and
    X_{slots[0]} core X_{slots[p]}^* is its operator integral.  The chunks of
    all chains are contracted in groups, each closed by the chunk that brings
    it to ``_CYCLE_CHUNK // (16 (p+1))`` entries, with values cached across
    the batch.  Callers check the budget first."""
    p = len(chains[0][1])
    # chunks 16(p+1) times smaller: each entry carries p+1 node codes through sorted copies
    per_entry, dim = 16 * (p + 1), decs[0].dim
    starts, values, codes = _cluster_codes(decs)
    cores = [np.zeros((dim, dim), dtype=complex) for _ in chains]
    cache, group, size = {}, [], 0
    for core, (slots, factors) in zip(cores, chains):
        head, tail = (codes[s][decs[s].labels] for s in (slots[0], slots[p]))  # node code per column
        for lo, hi, chain in _chain_chunks(factors, [starts[s] for s in slots], dim, per_entry):
            hit = np.flatnonzero(chain)
            columns = [head[lo:hi], *(codes[s] for s in slots[1:p]), tail]
            rows = np.stack([c[i] for c, i in zip(columns, np.unravel_index(hit, chain.shape))], axis=1)
            group.append((core[lo:hi], chain, hit, rows))
            size += chain.size
            # a group is contracted once it reaches the bound, before the next chunk is built
            if size >= _CYCLE_CHUNK // per_entry:
                _contract_group(f, values, cache, group)
                group, size = [], 0
    if group:
        _contract_group(f, values, cache, group)
    return cores


def _contract_group(f, values, cache, group):
    """Each (core rows, chain, nonzero entries, node-code rows) of a group:
    the chain weighted by f^[p] at each entry's nodes, summed over its inner
    axes, from one :func:`divided_difference` call over the group's rows not
    yet in ``cache`` (a row's value does not depend on the rest of its call)."""
    keys, which = _group_rows(np.concatenate([rows for *_, rows in group]))
    rows = list(map(tuple, keys.tolist()))
    fresh = [i for i, row in enumerate(rows) if row not in cache]
    if fresh:
        cache.update(zip([rows[i] for i in fresh], divided_difference(f, values[keys[fresh]])))
    vals, at = np.array([cache[row] for row in rows])[which], 0
    for out, chain, hit, _ in group:
        terms = np.zeros(chain.shape, dtype=complex)
        terms.flat[hit] = vals[at : at + len(hit)] * chain.flat[hit]
        out[...] = terms.sum(axis=tuple(range(1, chain.ndim - 1)))
        at += len(hit)


def moi_eval(symbol: MoiSymbol, optuple: OperatorTuple) -> np.ndarray:
    """Exact spectral-sum evaluation of the operator integral: the batch of
    one chain of :func:`_chain_cores` over the eigenbasis factors of the
    arguments gives core[i_0, i_p]; returns X_0 core X_p^*, every reduction
    in a fixed order."""
    p = optuple.order
    if symbol.order != p:
        raise ValidationError("symbol order must match the argument count")
    f = symbol.weighted
    _check_poles_off(f, np.concatenate([h.decomposition().eigenvalues for h in optuple.operators]), "operator spectra")
    if p == 0:
        return func_calculus(f, optuple.operators[0])
    decs = check_tuple_budget(optuple.operators)
    (core,) = _chain_cores(f, decs, [(range(p + 1), _eigenbasis_factors(decs, optuple.arguments))])
    return decs[0].eigenvectors @ core @ decs[p].eigenvectors.conj().T


def frechet_derivative(f: TestFunction, H: HermitianOperator, V, k: int) -> np.ndarray:
    """k-th Taylor coefficient (1/k!) d^k/dt^k f(H + tV) at t = 0."""
    if k < 0:
        raise ValidationError("derivative order must be nonnegative")
    return moi_eval(MoiSymbol(f, 0, k), OperatorTuple((H,) * (k + 1), (V,) * k))


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
