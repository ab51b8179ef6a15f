"""Multiple operator integrals on finite-dimensional operators.

On matrices the defining double limit collapses to the exact spectral
sum over eigenvalue-cluster tuples,

    T_phi(V_1, ..., V_p) = sum phi(lam_{j0}, ..., lam_{jp})
                               P_{j0} V_1 P_{j1} ... V_p P_{jp},

which eigenbasis chains evaluate: for :func:`moi_eval` a batch of one
chain, for the expansions of :mod:`opshift.cov` a batch per symbol, and,
closed into cycles, for the density weights of a family of perturbations.
One generator walks every batch in stacked chunks, and one coder turns a
chunk's nonzero entries into node rows.  On top sit higher-order operator
derivatives, Taylor remainders in direct and integral forms, and the
one-slot perturbation identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .functions import TestFunction, divided_difference, weight_multiply
from .linalg import HermitianOperator, _check_poles_off, func_calculus
from .piecewise import _distinct

__all__ = [
    "MoiSymbol",
    "OperatorTuple",
    "check_tuple_budget",
    "moi_eval",
    "moi_evals",
    "frechet_derivative",
    "taylor_remainder",
    "perturbation_identity",
    "perturbation_identities",
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


def _as_matrix(u):
    return np.asarray(u.entries if isinstance(u, HermitianOperator) else u, dtype=complex)


@dataclass(frozen=True)
class OperatorTuple:
    """Operators H_0..H_p with arguments V_1..V_p."""

    operators: tuple
    arguments: tuple

    def __post_init__(self):
        ops = tuple(self.operators)
        args = tuple(_as_matrix(v) for v in self.arguments)
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
    """F_k = X_{k-1}^* A_k X_k in the eigenbases X_k of the decompositions;
    a repeated (decomposition, argument, decomposition) triple, as on the
    remainder pattern (H, H+V, H, ..., H), is formed once."""
    seen, out = {}, []
    for k, a in enumerate(arguments):
        key = (id(decs[k]), id(a), id(decs[k + 1]))
        if key not in seen:
            seen[key] = decs[k].eigenvectors.conj().T @ a @ decs[k + 1].eigenvectors
        out.append(seen[key])
    return out


def _cluster_codes(decs):
    """(starts, values, table, K): each H_k's first column per cluster, the
    sorted distinct eigenvalues of all the decompositions, and per H_k a row
    of node codes (indices into ``values``), its clusters' from column 0 and
    its eigenvector columns' from column K on, once per distinct H_k."""
    distinct = list({id(d): d for d in decs}.values())
    eigenvalues = np.concatenate([d.eigenvalues for d in distinct])
    values = _distinct(eigenvalues)
    at, found = np.searchsorted(values, eigenvalues).astype(np.int32), {}
    K = max(len(d.eigenvalues) for d in distinct)
    table = np.zeros((len(distinct), K + max(d.dim for d in distinct)), dtype=np.int32)
    for row, d in zip(table, distinct):
        # labels run 0, 0, 1, ...; kept off the decomposition, which a caller may hold long
        found[id(d)] = d.labels.searchsorted(np.arange(len(d.eigenvalues))), len(found)
        c, at = at[: len(d.eigenvalues)], at[len(d.eigenvalues) :]
        row[: len(c)], row[K : K + d.dim] = c, c[d.labels]
    starts, rows = zip(*(found[id(d)] for d in decs))
    return list(starts), values, table.take(rows, axis=0), K


def _chain_chunks(factors, starts, dim, fit):
    """(lo, hi, _chain_block) per chunk of ``max(1, fit)`` whole clusters of
    H_0 (the block is None for p = 0); ``starts`` holds the cluster starts
    of H_0..H_p."""
    edges, count = np.append(starts[0], dim), len(starts[0])
    bounds = [(edges[j], edges[min(j + max(1, fit), count)]) for j in range(0, count, max(1, fit))]
    return ((lo, hi, _chain_block(factors, starts, lo, hi) if len(factors) else None) for lo, hi in bounds)


def _chain_fit(starts, dim, per_entry):
    """How many of the widest clusters of H_0 one chunk holds: the widest
    intermediate of :func:`_chain_block` and of its callers per column of
    H_0, for the cluster starts of H_0..H_p, times the widest cluster, fits
    ``_CYCLE_CHUNK // per_entry`` that many times (0 if not once)."""
    counts, p = [len(s) for s in starts], len(starts) - 1
    widest = max([math.prod(counts[1:k]) * dim * dim for k in range(1, p)] + [math.prod(counts[1:p]) * dim])
    return _CYCLE_CHUNK // (per_entry * widest * int(np.diff(np.append(starts[0], dim)).max()))


def _chain_block(factors, starts, lo, hi):
    """Open chain (i_0, j_1, ..., j_{p-1}, i_p) of the H_0 columns [lo, hi): each
    i_k is summed into its cluster j_k once F_{k+1} is applied.  Factors
    with a leading axis give one chain per entry of it, stacked."""
    chain = factors[0][..., lo:hi, :]
    for k in range(1, len(factors)):
        f = factors[k]
        chain = chain[..., None] * f.reshape(f.shape[:-2] + (1,) * k + f.shape[-2:])
        if len(starts[k]) < chain.shape[-2]:  # the runs of columns of a cluster, summed
            chain = np.add.reduceat(chain, starts[k], axis=-2)
    return chain


def _chain_stacks(starts, slots, factors, dim, per_entry):
    """(chains, lo, hi, chain) per chunk of a batch of chains of one
    dimension, chain c over the operators ``slots[c]`` with factors[k][c]
    between them: chains with equal cluster starts slot by slot stacked,
    as many as :func:`_chain_fit` allows (at least one), each stack in the
    chunks of :func:`_chain_chunks`.  ``chains`` picks the stack's rows of
    ``slots`` (a slice when the whole batch is one stack)."""
    shapes, rows, stacks = [s.tobytes() for s in starts], slots.tolist(), {}
    for c, row in enumerate(rows):
        stacks.setdefault(tuple(shapes[k] for k in row), []).append(c)
    for members in stacks.values():
        ends = [starts[k] for k in rows[members[0]]]
        fit = _chain_fit(ends, dim, per_entry)
        for first in range(0, len(members), max(1, fit)):
            chains = members[first : first + max(1, fit)]
            size, chains = len(chains), slice(None) if len(chains) == len(slots) else chains
            for lo, hi, chain in _chain_chunks([a[chains] for a in factors], ends, dim, fit // size):
                yield chains, lo, hi, chain


def _chain_rows(table, K, stack, lo, block):
    """(nonzero entries, node-code rows) of a chunk block[c, i_0 - lo, j_1,
    ..., j_{p-1}, i_p] of the chains over the operators ``stack[c]``: the
    open ends coded by eigenvector column, the inner axes by cluster, in
    rows of ``table`` (:func:`_cluster_codes`)."""
    hit = np.flatnonzero(block)
    ix = np.unravel_index(hit, block.shape)
    # a block [c, i_0 - lo] of p = 0 has one end
    where = np.array([K + lo + ix[1], *ix[2:-1], K + ix[-1]][: block.ndim - 1]).T
    return hit, table[stack.take(ix[0], axis=0), where]


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


def _group_sums(group, weights, count):
    """Complex weights summed by group, in input order within each group."""
    sums = np.empty(count, dtype=complex)
    sums.real = np.bincount(group, weights.real, count)
    sums.imag = np.bincount(group, weights.imag, count)
    return sums


def _chain_cores(f, decs, slots, factors, clusters=None):
    """core[c, i_0, i_p] per chain c of a batch under one symbol f^[p],
    p >= 1, as a (chains, dim, dim) array.  Chain c runs over the operators
    H_{slots[c, 0]}..H_{slots[c, p]} with factors[k][c] between
    H_{slots[c, k]} and H_{slots[c, k+1]}, and X_{slots[c, 0]} core[c]
    X_{slots[c, p]}^* is its operator integral.  ``clusters`` is
    :func:`_cluster_codes` of ``decs``, computed here if not given.

    The chains are walked in the stacked chunks of :func:`_chain_stacks`.
    The chunks are contracted in groups, each closed by the chunk that
    brings it to ``_CYCLE_CHUNK // (16 (p+1))`` entries, with one
    :func:`divided_difference` call per group over its distinct rows.  A
    batch that closes in one group takes their values straight from the
    call, a longer one caches them across its groups.  Callers check the
    budget first."""
    slots = np.asarray(slots)
    p = slots.shape[1] - 1
    # chunks 16(p+1) times smaller: each entry carries p+1 node codes through sorted copies
    per_entry, dim = 16 * (p + 1), decs[0].dim
    starts, values, table, K = clusters or _cluster_codes(decs)
    cores = np.zeros((len(slots), dim, dim), dtype=complex)
    cache, group, size = None, [], 0
    for chains, lo, hi, chain in _chain_stacks(starts, slots, factors, dim, per_entry):
        group.append((cores, (chains, slice(lo, hi)), chain, *_chain_rows(table, K, slots[chains], lo, chain)))
        size += chain.size
        # a group is contracted once it reaches the bound, before the next chunk is built
        if size >= _CYCLE_CHUNK // per_entry:
            cache = {} if cache is None else cache
            _contract_group(f, values, group, cache)
            group, size = [], 0
    if group:
        _contract_group(f, values, group, cache)
    return cores


def _contract_group(f, values, group, cache):
    """Each (cores, index of its rows, stacked chain, nonzero entries, node-code
    rows) of a group: the chain weighted by f^[p] at each entry's nodes,
    summed over its inner axes, from one :func:`divided_difference` call
    over the group's distinct rows, or those of them not yet in ``cache``
    when one is given (a row's value does not depend on the rest of its
    call)."""
    keys, which = _group_rows(np.concatenate([rows for *_, rows in group]))
    if cache is None:
        vals = divided_difference(f, values[keys])[which]
    else:
        rows = list(map(tuple, keys.tolist()))
        fresh = [i for i, row in enumerate(rows) if row not in cache]
        if fresh:
            cache.update(zip([rows[i] for i in fresh], divided_difference(f, values[keys[fresh]])))
        vals = np.array([cache[row] for row in rows])[which]
    at = 0
    for cores, index, chain, hit, _ in group:
        if len(hit) == chain.size:
            terms = vals[at : at + len(hit)].reshape(chain.shape) * chain
        else:
            terms = np.zeros(chain.shape, dtype=complex)
            terms.flat[hit] = vals[at : at + len(hit)] * chain.flat[hit]
        cores[index] = terms.sum(axis=tuple(range(2, chain.ndim - 1)))
        at += len(hit)


def _tuple_weights(members):
    """Tr(U_0 P_{j0} U_1 ... U_m P_{jm}) summed by sorted node multiset, for
    every member (U_0, [U_1..U_m], [H_0..H_m]) of one order m: each open
    chain of :func:`_chain_stacks` closed by Z[i_m, i_0], Z = X_m^* U_0 X_0,
    its entries summed by node row.  On the remainder pattern (H_m is H_0,
    U_0 = I) Z is exactly I, so only the cycles j_m = j_0 carry weight.

    All members' decompositions take one :func:`_cluster_codes` call, and
    member b's node codes are offset by b V, V = len(values), so one row
    grouping keeps the members apart.  Returns (nodes, weights, owner): the
    distinct sorted node rows, shape (kernels, m+1), ascending within each
    member and in member order, their summed complex weights, and each
    row's member; chain entries of weight exactly 0 are left out.  Every
    member's budget is checked before any contraction."""
    m, decs, closings = len(members[0][1]), [], []
    for U0, Us, Hs in members:
        if len(Us) != m or len(Hs) != m + 1:
            raise ValidationError("need m+1 operators, and one order for every member")
        u0, ds = _as_matrix(U0), check_tuple_budget(Hs)
        remainder = Hs[-1] is Hs[0] and np.array_equal(u0, np.eye(len(u0)))
        closings.append(np.eye(len(u0), dtype=complex) if remainder else ds[-1].eigenvectors.conj().T @ u0 @ ds[0].eigenvectors)
        decs.append(ds)
    starts, values, table, K = _cluster_codes([d for ds in decs for d in ds])
    V, every = len(values), np.arange(len(members) * (m + 1))
    table = table + every[:, None] // (m + 1) * V  # int64: b V passes 2^31 long before the codes do
    groups = []
    for at in _by_dim([len(z) for z in closings]):
        dim, slots = len(closings[at[0]]), every.reshape(-1, m + 1).take(at, axis=0)
        factors = [_stacked(a) for a in zip(*(_eigenbasis_factors(decs[b], [_as_matrix(u) for u in members[b][1]]) for b in at))]
        closing = _stacked([closings[b] for b in at])
        for chains, lo, hi, chain in _chain_stacks(starts, slots, factors, dim, 1):
            z = closing[chains]
            if m:
                block = chain * z.transpose(0, 2, 1)[:, lo:hi].reshape((len(z), hi - lo) + (1,) * (m - 1) + (dim,))
            else:
                block = np.diagonal(z, axis1=1, axis2=2)[:, lo:hi]
            hit, rows = _chain_rows(table, K, slots[chains], lo, block)
            keys, group = _group_rows(rows)
            groups.append((keys, _group_sums(group, block.reshape(-1)[hit], len(keys))))
    keys, weights = groups[0]
    if len(groups) > 1:
        keys, group = _group_rows(np.concatenate([k for k, _ in groups]))
        weights = _group_sums(group, np.concatenate([w for _, w in groups]), len(keys))
    return values[keys % V], weights, keys[:, 0] // V


def _by_dim(dims):
    """Indices of the entries of ``dims`` per distinct value, in order of
    first appearance."""
    groups = {}
    for i, d in enumerate(dims):
        groups.setdefault(d, []).append(i)
    return groups.values()


def moi_evals(symbol: MoiSymbol, optuples) -> list:
    """:func:`moi_eval` of every tuple of a family, all of the symbol's
    order p.  The poles of every tuple, then the budget of every tuple,
    are checked before any chain is built.  For p >= 1 the tuples of one
    dimension are one batch of :func:`_chain_cores` over their
    concatenated decompositions; each tuple's value does not depend on the
    rest of its family."""
    optuples = list(optuples)
    p, f = symbol.order, symbol.weighted
    for t in optuples:
        if t.order != p:
            raise ValidationError("symbol order must match the argument count")
        _check_poles_off(f, np.concatenate([h.decomposition().eigenvalues for h in t.operators]), "operator spectra")
    if p == 0:
        return [func_calculus(f, t.operators[0]) for t in optuples]
    decs = [check_tuple_budget(t.operators) for t in optuples]
    out = [None] * len(optuples)
    for members in _by_dim([t.dim for t in optuples]):
        flat = [d for i in members for d in decs[i]]
        factors = [_stacked(a) for a in zip(*(_eigenbasis_factors(decs[i], optuples[i].arguments) for i in members))]
        cores = _chain_cores(f, flat, np.arange(len(flat)).reshape(len(members), p + 1), factors)
        first, last = (np.stack([decs[i][k].eigenvectors for i in members]) for k in (0, p))
        for i, value in zip(members, first @ cores @ last.conj().swapaxes(1, 2)):
            out[i] = value
    return out


def _stacked(arrays):
    """``np.stack`` of the arrays; one array gets its leading axis as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def moi_eval(symbol: MoiSymbol, optuple: OperatorTuple) -> np.ndarray:
    """Exact spectral-sum evaluation of the operator integral: the batch of
    one of :func:`moi_evals`, one chain of :func:`_chain_cores` over the
    eigenbasis factors of the arguments giving core[i_0, i_p]; returns
    X_0 core X_p^*, every reduction in a fixed order."""
    (out,) = moi_evals(symbol, [optuple])
    return out


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
    """One-slot operator replacement identity: the batch of one of
    :func:`perturbation_identities`.

    ``optuple`` is the full left-hand configuration with ``A`` at operator
    position ``slot`` (1-based); the difference against the same integral
    with ``B`` in that position equals one order-(n+1) integral carrying
    the extra argument A - B next to the A, B pair.
    """
    (out,) = perturbation_identities(f, [(optuple, A, B, slot)])
    return out


def perturbation_identities(f: TestFunction, members) -> list:
    """:func:`perturbation_identity` of every member (optuple, A, B, slot)
    of a family.  The budgets of all three integrals of every member are
    checked before any chain is built; the integrals of one order, across
    all members, are one :func:`moi_evals` call, and the four spectral
    norms of every member of one dimension come from one stacked SVD."""
    tuples = []  # lhs_a, lhs_b and rhs per member
    for optuple, A, B, slot in members:
        n = optuple.order
        if not (1 <= slot <= n + 1):
            raise ValidationError("slot must lie in 1..n+1")
        ops = list(optuple.operators)
        if ops[slot - 1] is not A and not np.array_equal(ops[slot - 1].entries, A.entries):
            raise ValidationError("tuple must carry A at the requested slot")
        if A.dim != B.dim or A.dim != optuple.dim:
            raise ValidationError("dimension mismatch")
        args = list(optuple.arguments)
        ops_b = list(ops)
        ops_b[slot - 1] = B
        ops_r = ops[:slot] + [B] + ops[slot:]
        args_r = args[: slot - 1] + [A.entries - B.entries] + args[slot - 1 :]
        tuples += [optuple, OperatorTuple(tuple(ops_b), tuple(args)), OperatorTuple(tuple(ops_r), tuple(args_r))]
    for t in tuples:
        check_tuple_budget(t.operators)
    values = [None] * len(tuples)
    for order in sorted({t.order for t in tuples}):
        at = [i for i, t in enumerate(tuples) if t.order == order]
        for i, value in zip(at, moi_evals(MoiSymbol(f, 0, order), [tuples[i] for i in at])):
            values[i] = value
    out = [None] * (len(tuples) // 3)
    for group in _by_dim([t.dim for t in tuples[::3]]):
        mats = []
        for b in group:
            lhs_a, lhs_b, rhs = values[3 * b : 3 * b + 3]
            mats += [lhs_a - lhs_b - rhs, lhs_a, lhs_b, rhs]
        norms = np.linalg.svd(np.stack(mats), compute_uv=False).max(axis=-1).reshape(len(group), 4).tolist()
        for b, (residual, norm_a, norm_b, norm_r) in zip(group, norms):
            lhs_a, lhs_b, rhs = values[3 * b : 3 * b + 3]
            out[b] = PerturbationReport(residual=residual, scale=1.0 + norm_a + norm_b + norm_r, lhs_a=lhs_a, lhs_b=lhs_b, rhs=rhs)
    return out
