"""Signature-driven change-of-variables expansions for operator integrals.

A signature is a word over {L, 0, R} prescribing, for each argument
slot, on which side resolvents are attached.  The machinery here covers

* the checked-operator construction (the four-case resolvent table),
* the terms of the expansion along a signature: one enumerator,
  :func:`_expansion_terms`, gives every index tuple with its sign and
  weight power,
* the scalar expansion identity for divided-difference symbols,
* the operator expansion of a generic integral into weighted integrals
  of resolvent-dressed arguments, in one eigenbasis pass whose terms of
  each order come from one batch of eigenbasis chains, and through it
  the alternating-signature decompositions used for Taylor remainders
  and the three single-step identities (expansions along one-letter
  signatures),
* the mixed-norm product bounding trace measures,
* the constructive trace measure: the trace of U_0 T_{g^[m]}(U_1..U_m)
  as an integral of g^(m) u^(m+2) against an explicit piecewise density,
  whose tuple weights come from one cycle product in the eigenbases of
  the H_k (:func:`opshift.moi._tuple_weights`, on the chains that the
  operator integrals walk) and whose divided-difference kernels are
  folded in one array pass, for one operator tuple or a stacked family
  of them, and
* the remainder traces Tr R_m(f; H, V) of a whole function family from
  one set of closed-cycle weights per perturbation and order.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from .errors import ValidationError
from .functions import TestFunction, _bspline_levels, _merge_rows, divided_difference, peano_kernel, weight_multiply
from .linalg import HermitianOperator, _check_poles_off, schatten_norm
from .moi import _CYCLE_CHUNK, MoiSymbol, OperatorTuple, _as_matrix, _by_dim, _chain_cores, _cluster_codes, _group_sums, _tuple_weights, check_tuple_budget, moi_eval
from .piecewise import PiecewisePolynomial, _distinct, _weighted_modulus, integral_against_derivative

__all__ = [
    "EpsilonSignature",
    "ExpansionTerm",
    "CovExpansion",
    "BoundReport",
    "WeightedTraceMeasure",
    "TraceMeasureReport",
    "build_check_operators",
    "checked_product",
    "signature_for_J",
    "alternating_signature",
    "cov_scalar_identity",
    "cov_scalar_identities",
    "cov_expand",
    "cov_expansions",
    "corollary_expand",
    "basic_change_of_variables",
    "pJ_alpha",
    "eigen_tuple_density",
    "eigen_tuple_densities",
    "kernel_sum_density",
    "trace_via_measure",
    "remainder_traces",
    "expansion_terms_json",
]

_U_INV = lambda lam: 1.0 / (lam - 1j)


@dataclass(frozen=True)
class EpsilonSignature:
    """Word over {L, 0, R}; the first letter may not be L, the last not R."""

    entries: tuple

    def __post_init__(self):
        ent = tuple(str(e) for e in self.entries)
        for e in ent:
            if e not in ("L", "0", "R"):
                raise ValidationError("signature letters must be 'L', '0' or 'R'")
        if len(ent) < 1:
            raise ValidationError("signature must be nonempty")
        if ent[0] == "L":
            raise ValidationError("first signature letter may not be 'L'")
        if ent[-1] == "R":
            raise ValidationError("last signature letter may not be 'R'")
        object.__setattr__(self, "entries", ent)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @property
    def m(self):
        return len(self.entries) - 1

    def zero_set(self):
        return tuple(i for i, e in enumerate(self.entries) if e == "0")

    @property
    def q(self):
        return len(self.zero_set())


def alternating_signature(m: int) -> EpsilonSignature:
    """(R, L, R, L, ...) of length m+1 for odd m; trailing 0 for even m."""
    if m < 1:
        raise ValidationError("need m >= 1")
    if m % 2 == 1:
        return EpsilonSignature(tuple("R" if i % 2 == 0 else "L" for i in range(m + 1)))
    ent = ["R" if i % 2 == 0 else "L" for i in range(m)] + ["0"]
    return EpsilonSignature(tuple(ent))


def build_check_operators(eps: EpsilonSignature, Hs, Us):
    """Checked operators per the four-case resolvent table (eps[-1] := 0)."""
    if len(eps) != len(Hs) or len(Us) != len(Hs):
        raise ValidationError("signature, operators and arguments must have equal length")
    out = []
    for j, u in enumerate(Us):
        u = _as_matrix(u)
        left = eps[j - 1] == "R" if j >= 1 else False
        right = eps[j] == "L"
        if left:
            u = Hs[j - 1].resolvent() @ u
        if right:
            u = u @ Hs[j].resolvent()
        out.append(u)
    return out


def checked_product(checked, i, j, dim):
    """Product checked[i+1] ... checked[j]; the empty product is the identity."""
    if j < i:
        raise ValidationError("need i <= j")
    out = np.eye(dim, dtype=complex)
    for k in range(i + 1, j + 1):
        out = out @ checked[k]
    return out


def _spaced_subset(J, m: int):
    """J as a sorted list, checked to be a subset of 1..m whose indices lie
    pairwise at distance >= 2."""
    J = sorted(set(int(j) for j in J))
    if any(not 1 <= j <= m for j in J):
        raise ValidationError("J must be a subset of 1..m")
    if any(b - a < 2 for a, b in zip(J, J[1:])):
        raise ValidationError("indices in J must be pairwise at distance >= 2")
    return J


def signature_for_J(J, m: int) -> EpsilonSignature:
    """An {L, R} signature with eps_0 = R, eps_m = L that double-dresses
    exactly the slots in J (which must be pairwise at distance >= 2)."""
    J = _spaced_subset(J, m)
    ent = ["R"] * m + ["L"]
    for j in J:
        ent[j - 1] = "R"
        ent[j] = "L"
    return EpsilonSignature(tuple(ent))


# ---------------------------------------------------------------------------
# expansion terms and the scalar expansion identity


def _expansion_terms(eps: EpsilonSignature):
    """The terms of the expansion along eps, in order: (sign, k, weight
    power, index tuple) for k = max(0, q-1)..m over the (k+1)-subsets of
    0..m that contain the zero set, with sign (-1)^(m-k) and weight power
    k-q+1.  The one enumeration behind every expansion in this package."""
    m, q, zeros = eps.m, eps.q, set(eps.zero_set())
    for k in range(max(0, q - 1), m + 1):
        for combo in itertools.combinations(range(m + 1), k + 1):
            if zeros.issubset(combo):
                yield (-1) ** (m - k), k, k - q + 1, combo


@functools.lru_cache(maxsize=256)
def _term_groups(eps: EpsilonSignature):
    """The terms of :func:`_expansion_terms` by order k: (sign, k, weight
    power, index tuples as a read-only (terms, k+1) array), k ascending."""
    groups = []
    for k, group in itertools.groupby(_expansion_terms(eps), key=lambda t: t[1]):
        signs, _, powers, combos = zip(*group)
        combos = np.array(combos)
        combos.setflags(write=False)
        groups.append((signs[0], k, powers[0], combos))
    return tuple(groups)


def cov_scalar_identity(g: TestFunction, eps: EpsilonSignature, lambdas):
    """Evaluate both sides of the scalar expansion identity at explicit nodes:
    the batch of one of :func:`cov_scalar_identities`.

    Returns (lhs, rhs, residual, scale) where lhs = g^[m](lambdas) and
    rhs is the signed sum over admissible index tuples of weighted
    divided differences times reciprocal-u factors.
    """
    (out,) = cov_scalar_identities(g, [(eps, lambdas)])
    return out


def cov_scalar_identities(g: TestFunction, members):
    """:func:`cov_scalar_identity` of every member (eps, lambdas) of a
    family: one batched divided difference per symbol (g u^w)^[k] over the
    index rows of every member, the left sides g^[m] joining the terms of
    (k, w) = (m, 0).  A row's value does not depend on its batch."""
    lams, batches = [], {}
    for b, (eps, lambdas) in enumerate(members):
        lam = [float(v) for v in lambdas]
        if len(eps) != len(lam):
            raise ValidationError("signature length must match the node count")
        lams.append(lam)
        nodes = np.array(lam)
        batches.setdefault((len(lam) - 1, 0), []).append((b, None, nodes[None]))
        for _, k, power, combos in _term_groups(eps):
            batches.setdefault((k, power), []).append((b, k, nodes[combos]))
    parts = [{} for _ in lams]
    for (k, power), batch in batches.items():
        values, at = divided_difference(weight_multiply(g, power), np.concatenate([rows for *_, rows in batch])), 0
        for b, key, rows in batch:
            parts[b][key] = values[at : at + len(rows)]
            at += len(rows)
    out = []
    for (eps, _), lam, found in zip(members, lams, parts):
        lhs = complex(found[None][0])
        u_factor = math.prod((_U_INV(lam[i]) for i in range(len(lam)) if eps[i] != "0"), start=1.0 + 0.0j)
        terms = np.concatenate([sign * found[k] for sign, k, _, _ in _term_groups(eps)]) * u_factor
        rhs = complex(terms.sum())
        out.append((lhs, rhs, abs(lhs - rhs), 1.0 + abs(lhs) + float(np.abs(terms).sum())))
    return out


# ---------------------------------------------------------------------------
# operator expansion


@dataclass(frozen=True)
class ExpansionTerm:
    sign: int
    k: int
    indices: tuple
    weight_power: int
    value: np.ndarray  # unsigned contribution


@dataclass(frozen=True)
class CovExpansion:
    terms: tuple
    lhs: np.ndarray
    rhs: np.ndarray
    residual: float
    scale: float


def _product_descriptor(i, j):
    if j <= i:
        return "I"
    return "V(" + ",".join(str(t) for t in range(i + 1, j + 1)) + ")"


def _dressed_terms(eps: EpsilonSignature, Hs, args):
    """The terms of :func:`_expansion_terms` with the checked products
    around each: (sign, k, weight power, index tuple, left, inner arguments,
    right), where left = checked[1..i_0], the inner arguments run between
    consecutive indices, and right = checked[i_k+1..m]."""
    m, dim = len(args), Hs[0].dim
    # slot 0 is never touched by the expansion products; a placeholder keeps
    # the checked list aligned with the argument indexing 1..m
    checked = build_check_operators(eps, Hs, [np.zeros((dim, dim))] + list(args))
    for sign, k, power, combo in _expansion_terms(eps):
        inner = [checked_product(checked, a, b, dim) for a, b in zip(combo[:-1], combo[1:])]
        left, right = checked_product(checked, 0, combo[0], dim), checked_product(checked, combo[-1], m, dim)
        yield sign, k, power, combo, left, inner, right


def cov_expand(g: TestFunction, eps: EpsilonSignature, Hs, Vs) -> CovExpansion:
    """Expand T_{g^[m]}(V_1..V_m) along a signature: the batch of one of
    :func:`cov_expansions`.

    The left side is the plain spectral-sum evaluation.  The right side
    sums the terms of :func:`_expansion_terms` in one eigenbasis pass: with
    the checked arguments C_j in the eigenbases, E_j = X_{j-1}^* C_j X_j, and
    their products G_{a,b} = E_{a+1} ... E_b, the term (i_0..i_k) is
    X_0 G_{0,i_0} core G_{i_k,m} X_m^*.  The cores of all terms of one order
    k share the symbol (g u^(k-q+1))^[k] and come from one batch of
    :func:`opshift.moi._chain_cores` over the chains G_{i_0,i_1}, ...,
    G_{i_{k-1},i_k}; an order-0 core is the diagonal of g u^(1-q) at the
    eigenvalues.
    """
    (out,) = cov_expansions(g, [(eps, Hs, Vs)])
    return out


def cov_expansions(g: TestFunction, members) -> list:
    """:func:`cov_expand` of every member (eps, Hs, Vs) of a family, in one
    stacked pass per dimension.

    The poles of g on every member's spectra, then every member's budget,
    are checked before any chain is built (every term's tuples are a subset
    of the left side's).  Within one dimension the members' decompositions
    are concatenated and their slots offset: all terms of one (k, weight
    power) share one :func:`opshift.moi._chain_cores` batch, which the left
    sides g^[m] join at (k, w) = (m, 0).  The G products and the left and
    right stacks of the members of one order are stacked matmuls, and all
    spectral norms of a dimension come from one SVD call.  Each member's
    expansion does not depend on the rest of its family."""
    members = [(eps, tuple(Hs), [_as_matrix(v) for v in Vs]) for eps, Hs, Vs in members]
    for eps, Hs, args in members:
        if len(Hs) != len(args) + 1 or len(eps) != len(args) + 1:
            raise ValidationError("need m+1 operators and a length-m+1 signature")
        OperatorTuple(Hs, args)  # checks the operator types and argument shapes
        _check_poles_off(g, np.concatenate([h.decomposition().eigenvalues for h in Hs]), "operator spectra")
    decs = [check_tuple_budget(Hs) for _, Hs, _ in members]
    out = [None] * len(members)
    for group in _by_dim([Hs[0].dim for _, Hs, _ in members]):
        for b, expansion in zip(group, _expansions_of_one_dim(g, [members[b] for b in group], [decs[b] for b in group])):
            out[b] = expansion
    return out


def _expansions_of_one_dim(g, members, decs):
    """:func:`cov_expansions` of members (eps, Hs, args) that share one
    dimension, with their decompositions."""
    dim = decs[0][0].dim
    flat = [d for ds in decs for d in ds]
    offsets = np.cumsum([0] + [len(ds) for ds in decs]).tolist()
    # per (k, weight power), across members: (member, key, slot rows, factors
    # per step, left and right stacks).  A term of order k is X_0 G_{0,i_0}
    # core G_{i_k,m} X_m^* with G[a, b] = E_{a+1} ... E_b (a < b) and
    # G_{i,i} = I skipped, under key k; the left side is the one chain
    # 0..m of the plain arguments' factors under (m, 0), key None
    batches = {}
    for at in _by_dim([len(args) for _, _, args in members]):
        m = len(members[at[0]][2])
        x = np.stack([[d.eigenvectors for d in decs[b]] for b in at])
        xh = x.conj().swapaxes(-1, -2)
        plain = xh[:, :-1] @ np.stack([members[b][2] for b in at]) @ x[:, 1:]
        # slot 0 is never touched by the expansion products; a placeholder keeps
        # the checked list aligned with the argument indexing 1..m
        checked = np.stack([build_check_operators(members[b][0], members[b][1], [np.zeros((dim, dim))] + members[b][2])[1:] for b in at])
        factors = xh[:, :-1] @ checked @ x[:, 1:]
        G = np.zeros((len(at), m + 1, m + 1, dim, dim), dtype=complex)
        for a, c in itertools.combinations(range(m + 1), 2):
            G[:, a, c] = G[:, a, c - 1] @ factors[:, c - 1] if c > a + 1 else factors[:, a]
        left, right = np.empty_like(G[:, 0]), np.empty_like(G[:, 0])
        left[:, 0], right[:, m] = x[:, 0], xh[:, m]
        left[:, 1:] = x[:, :1] @ G[:, 0, 1:]
        right[:, :m] = G[:, :m, m] @ xh[:, m : m + 1]
        for j, b in enumerate(at):
            batches.setdefault((m, 0), []).append((b, None, np.arange(m + 1)[None], list(plain[j, :, None]), x[j, :1], xh[j, m:]))
            for _, k, power, combos in _term_groups(members[b][0]):
                steps = [G[j, combos[:, i], combos[:, i + 1]] for i in range(k)]
                batches.setdefault((k, power), []).append((b, k, combos, steps, left[j, combos[:, 0]], right[j, combos[:, -1]]))
    clusters = _cluster_codes(flat)
    parts = [{} for _ in members]
    for (k, power), batch in batches.items():
        gk = weight_multiply(g, power)
        if k:
            slots = np.concatenate([rows + offsets[b] for b, _, rows, *_ in batch])
            cores = _chain_cores(gk, flat, slots, [np.concatenate(f) for f in zip(*(steps for *_, steps, _, _ in batch))], clusters)
        else:
            cores = np.stack([np.diag(np.asarray(gk.eval_deriv(0, decs[b][i].eigenvalues), dtype=complex)[decs[b][i].labels]) for b, _, rows, *_ in batch for i in rows[:, 0]])
        values = np.concatenate([lefts for *_, lefts, _ in batch]) @ cores @ np.concatenate([rights for *_, rights in batch])
        at = 0
        for b, key, rows, *_ in batch:
            parts[b][key] = values[at : at + len(rows)]
            at += len(rows)
    expansions, stacked = [], []
    for (eps, _, _), found in zip(members, parts):
        (value,) = found[None]
        rhs = np.zeros((dim, dim), dtype=complex)
        terms, values = [], []
        for sign, k, power, combos in _term_groups(eps):
            part = found[k]
            # every term of order k carries the sign (-1)^(m-k)
            rhs = rhs + sign * part.sum(axis=0)
            values.append(part)
            terms += [ExpansionTerm(sign, k, combo, power, v) for combo, v in zip(map(tuple, combos.tolist()), part)]
        expansions.append((tuple(terms), value, rhs))
        stacked += [np.stack([value - rhs, value])] + values
    # spectral norms of lhs - rhs, lhs and every term of every member from one
    # stacked call; the term norms are added in order (sum() compensates from Python 3.12)
    norms = iter(np.linalg.svd(np.concatenate(stacked), compute_uv=False).max(axis=-1).tolist())
    out = []
    for terms, value, rhs in expansions:
        residual, lhs_norm = next(norms), next(norms)
        mag = 0.0
        for _ in terms:
            mag += next(norms)
        out.append(CovExpansion(terms, value, rhs, residual, 1.0 + lhs_norm + mag))
    return out


def corollary_expand(f: TestFunction, parity: str, Hs, Vs) -> CovExpansion:
    """Alternating-signature decomposition of f^[2n-1] or f^[2n].

    parity="odd" expects 2n-1 arguments and uses the fully alternating
    signature; parity="even" expects 2n arguments and a trailing zero,
    whose k = 0 term degenerates to (product of checked arguments) f(H_m).
    """
    m = len(Vs)
    if parity == "odd":
        if m % 2 == 0:
            raise ValidationError("odd parity needs an odd argument count")
    elif parity == "even":
        if m % 2 == 1:
            raise ValidationError("even parity needs an even argument count")
    else:
        raise ValidationError("parity must be 'odd' or 'even'")
    return cov_expand(f, alternating_signature(m), Hs, Vs)


def basic_change_of_variables(f: TestFunction, Hs, Vs, variant, j=None):
    """The three single-step weight-shift identities, as :func:`cov_expand`
    along one-letter signatures.

    variant "left" extracts the resolvent at the first operator,
    signature (R, 0, ..., 0); "inner" at argument slot j (1 <= j <= n-1),
    L at slot j and 0 elsewhere; "right" at the last, (0, ..., 0, L).
    Each expansion has two terms: T_{(fu)^[n]} with one argument dressed
    by the resolvent, minus T_{f^[n-1]} with the resolvent slot removed.
    Returns (lhs, rhs, residual, scale) with scale 1 + |lhs| + |rhs|.
    """
    n = len(Vs)
    if len(Hs) != n + 1:
        raise ValidationError("need n+1 operators")
    return _weight_shift_values(cov_expand(f, _weight_shift_signature(n, variant, j), Hs, Vs))


def _weight_shift_signature(n, variant, j=None):
    """The one-letter signature of a :func:`basic_change_of_variables` variant."""
    ent = ["0"] * (n + 1)
    if variant == "left":
        ent[0] = "R"
    elif variant == "inner":
        if j is None or not (1 <= j <= n - 1):
            raise ValidationError("inner variant needs 1 <= j <= n-1")
        ent[j] = "L"
    elif variant == "right":
        ent[n] = "L"
    else:
        raise ValidationError("variant must be 'left', 'inner' or 'right'")
    return EpsilonSignature(tuple(ent))


def _weight_shift_values(exp: CovExpansion):
    """(lhs, rhs, residual, 1 + |lhs| + |rhs|) of a weight-shift expansion."""
    lhs_norm, rhs_norm = np.linalg.svd(np.stack([exp.lhs, exp.rhs]), compute_uv=False).max(axis=-1).tolist()
    return exp.lhs, exp.rhs, exp.residual, 1.0 + lhs_norm + rhs_norm


# ---------------------------------------------------------------------------
# mixed-norm bound


@dataclass(frozen=True)
class BoundReport:
    J: tuple
    r: float
    p_value: float
    operator_norm_factor: float
    resolvent_factors: dict
    schatten_factors: dict


def pJ_alpha(Us, Hs, J, alphas, n: int) -> BoundReport:
    """Mixed-norm product from operator norms, double-resolvented
    Schatten-n norms over J, and Schatten-alpha norms elsewhere."""
    m = len(Us) - 1
    if len(Hs) != m + 1 or len(alphas) != m + 1:
        raise ValidationError("need matching operator, argument and exponent counts")
    J = _spaced_subset(J, m)
    inv = 0.0
    for j, a in enumerate(alphas):
        a = float(a)
        if not a >= 1.0:
            raise ValidationError("exponents must lie in [1, inf]")
        if j in J and not np.isinf(a):
            raise ValidationError("slots in J must carry the exponent infinity")
        inv += 0.0 if np.isinf(a) else 1.0 / a
    if abs(inv - 1.0) > 1e-12:
        raise ValidationError("exponents must satisfy sum 1/alpha_j = 1")
    mats = [_as_matrix(u) for u in Us]
    r = len(J) / (n + len(J))
    op_factor = math.prod(schatten_norm(u, np.inf) ** r for u in mats)
    res_factors = {}
    for j in J:
        left = Hs[j - 1].resolvent() if j - 1 >= 0 else Hs[m].resolvent()
        dressed = left @ mats[j] @ Hs[j].resolvent()
        res_factors[j] = schatten_norm(dressed, n) ** (1.0 - r)
    sch_factors = {}
    for j in range(m + 1):
        if j in J:
            continue
        sch_factors[j] = schatten_norm(mats[j], alphas[j]) ** (1.0 - r)
    p_value = op_factor * math.prod(res_factors.values(), start=1.0) * math.prod(sch_factors.values(), start=1.0)
    return BoundReport(tuple(J), r, float(p_value), float(op_factor), res_factors, sch_factors)


# ---------------------------------------------------------------------------
# constructive trace measure


@dataclass(frozen=True)
class WeightedTraceMeasure:
    """Measure d(mu) = u^(-weight_exponent) * density(x) dx (plus atoms).

    ``density`` is the piecewise-polynomial part before the u-weighting,
    so integrals of h * u^weight_exponent against the measure reduce to
    integrals of h against the density.
    """

    density: PiecewisePolynomial
    weight_exponent: float

    def norm(self):
        """Total variation: the integral of |u|^(-w) |density| =
        (1+x^2)^(-w/2) |density(x)| plus the atoms, by the split
        Gauss-Legendre rule of :mod:`opshift.piecewise` on segments split
        at the real roots of the real and imaginary parts, where the
        modulus kinks.

        A polynomial tail of degree d decays like C |x|^(d - w) under the
        weight.  It is cut into geometric pieces [a, 2a] out to the X where
        the remainder C X^(d+1-w)/(w-d-1) falls below 1e-16 of the finite
        part, and the rule runs on the refined grid.
        """
        w = self.weight_exponent
        density = self.density
        total = _weighted_modulus(density, w)
        bp = density.breakpoints
        points = []
        for tail, edge, side in ((density.left_tail, bp[0], -1.0), (density.right_tail, bp[-1], 1.0)):
            c = np.trim_zeros(np.asarray(tail if tail is not None else [0.0]), "b")
            if not len(c):
                continue
            decay = w - len(c)  # remainder exponent w - d - 1
            if decay <= 0:
                raise ValidationError(f"a tail of degree {len(c) - 1} has no finite norm under the weight u^-{w}")
            far = (abs(c[-1]) / (decay * 1e-16 * (total or abs(c[-1])))) ** (1.0 / decay)
            doublings = math.ceil(math.log2(min(far, 1e100) / (1.0 + abs(edge)) + 1.0))
            points.append(edge + side * (1.0 + abs(edge)) * (2.0 ** np.arange(1, doublings + 1) - 1.0))
        if points:
            total = _weighted_modulus(density.refined(np.concatenate(points)), w)
        for x, mass in density.atoms:
            total += abs(complex(mass)) * (1.0 + x * x) ** (-w / 2.0)
        return total


@dataclass(frozen=True)
class TraceMeasureReport:
    measure: WeightedTraceMeasure
    trace: complex
    integral: complex
    residual: float
    scale: float
    measure_norm: float
    p_value: float
    ratio: float


def eigen_tuple_density(U0, Us, Hs):
    """Density rho with Tr(U_0 P_{j0} U_1 P_{j1} ... U_m P_{jm}) summed
    against divided-difference kernels:

        Tr(U_0 T_{g^[m]}(U_1..U_m)) = integral of g^(m) * rho.

    The batch of one of :func:`eigen_tuple_densities`: the weights of all
    eigenvalue-cluster tuples come from one cycle product in the eigenbases
    (:func:`opshift.moi._tuple_weights`), which raises ``BudgetError``
    before any work on over-budget enumerations.  They are grouped by node
    multiset, and the kernels of all multisets are folded in one array pass
    (:func:`_fold_kernels`).
    Returns (density, total_kernel_weight).
    """
    (out,) = eigen_tuple_densities([(U0, Us, Hs)])
    return out


def eigen_tuple_densities(members):
    """:func:`eigen_tuple_density` of every member (U_0, Us, Hs) of one
    order, from one stacked pass over a family of perturbations.

    Every member's budget is checked before any work.  The members are then
    taken in runs whose cluster tuples add up to at most ``_CYCLE_CHUNK``
    (or one member that alone has more), and each run's weights are folded
    before the next run's are built, so the node rows held at once stay at
    the size of one chunk or of one member.  Returns one (density,
    total_kernel_weight) per member.
    """
    members = list(members)
    sizes = [math.prod(len(d.eigenvalues) for d in check_tuple_budget(Hs)) for _, _, Hs in members]
    runs, total = [], _CYCLE_CHUNK
    for member, size in zip(members, sizes):
        if total + size > _CYCLE_CHUNK:
            runs.append([])
            total = 0
        runs[-1].append(member)
        total += size
    return [out for run in runs for out in _fold_kernels(*_tuple_weights(run), len(run[0][1]), [_hull(Hs) for _, _, Hs in run])]


def kernel_sum_density(U0, Us, Hs):
    """Reference for :func:`eigen_tuple_density`: the same weights, with
    one ``peano_kernel`` per node multiset added in by
    ``PiecewisePolynomial.__add__``.  Exact but one refinement per kernel;
    the ``ssf`` suite checks the array fold against it.
    Returns (density, total_kernel_weight)."""
    nodes, weights, _ = _tuple_weights([(U0, Us, Hs)])
    return _sum_kernels(nodes, weights, len(Us), _hull(Hs))


def remainder_traces(fs, H: HermitianOperator, Vs, m: int) -> np.ndarray:
    """Tr R_m(f; H, V) = Tr f(H+V) - sum_{k<m} Tr T_{f^[k]}(V, ..., V) for
    every V in Vs (rows) and f in fs (columns).

    The traces are linear in f with weights that depend on (H, V, k) only:
    each order k builds the closed-cycle weights of every V in one stacked
    :func:`opshift.moi._tuple_weights` pass on the all-H pattern (the
    closing factor is I), order 0 with the multiplicities of every H + V's
    clusters for Tr f(H+V); each (f, k) takes one divided difference over
    the node rows of every V.  The subtraction keeps the round-off of Tr f(H+V), about
    1e-16 of sum |f(lambda_j)| at any size of V; the remainder integral of
    :mod:`opshift.ssf` and ``taylor_remainder(method="moi")`` avoid it.
    """
    if m < 1:
        raise ValidationError("remainder order must be at least 1")
    eye = np.eye(H.dim, dtype=complex)
    mats = [_as_matrix(v) for v in Vs]
    sums = [HermitianOperator(H.entries + v) for v in mats]
    spectra = np.concatenate([h.decomposition().eigenvalues for h in [H] + sums])
    # per order k: (node rows, signed weights, row of Vs) over every V; order 0
    # takes Tr f(H+V) from the clusters of every H + V, less Tr f(H), in one call
    nodes, weights, owner = _tuple_weights([(eye, [], [h]) for h in sums + [H] * len(mats)])
    parts = [(nodes, np.where(owner < len(mats), weights, -weights), owner % len(mats))]
    for k in range(1, m):
        nodes, weights, owner = _tuple_weights([(eye, [v] * k, [H] * (k + 1)) for v in mats])
        parts.append((nodes, -weights, owner))
    for f in fs:
        _check_poles_off(f, spectra, "spectra of H and H + V")
    out = np.zeros((len(mats), len(fs)), dtype=complex)
    for nodes, weights, owner in parts:
        for j, f in enumerate(fs):
            out[:, j] += _group_sums(owner, weights * divided_difference(f, nodes), len(mats))
    return out


# elements per Cox-de Boor level array: _fold_kernels takes the kernels in
# chunks, so its memory stays near 8 bytes * 2**18 = 2 MB per array
_FOLD_CHUNK = 2**18


def _fold_kernels(nodes, weights, owner, m, hulls):
    """Sum of w * peano_kernel(row) over the node rows of each member and
    their weights, in one array pass for all members.

    Every kernel is written on its member's grid (the union of the member's
    merged knots and atom points), padded to the widest member's, in each
    interval's midpoint variable, so the Cox-de Boor recursion runs on
    coefficient arrays of shape (kernels, splines, intervals, degree+1) and
    each member's weighted sum is one contraction per chunk of kernels.
    Rows whose nodes merge to a single point are atoms of mass w/m!.
    ``owner`` is ascending, one member per entry of ``hulls``; a member
    without rows is the zero density on its hull.  Returns one (density,
    total_kernel_weight) per member.
    """
    fact = math.factorial(m)
    zs = _merge_rows(nodes)
    point = zs[:, 0] == zs[:, -1]
    ends = np.searchsorted(owner, np.arange(len(hulls) + 1)).tolist()
    grids, atoms = [], []
    for lo, hi in zip(ends[:-1], ends[1:]):
        z, at, w = zs[lo:hi], point[lo:hi], weights[lo:hi]
        atom_x = _distinct(z[at, 0])
        atoms.append(tuple(zip(atom_x.tolist(), _group_sums(np.searchsorted(atom_x, z[at, 0]), w[at] / fact, len(atom_x)).tolist())))
        grids.append(_distinct(z[~at], atom_x))
    # every member's interval starts and midpoints; a padding interval starts
    # at infinity, so no kernel reaches it
    width = max(0, max(len(g) for g in grids) - 1)
    lo, mid = np.full((len(grids), width), np.inf), np.zeros((len(grids), width))
    for b, grid in enumerate(grids):
        if len(grid):
            lo[b, : len(grid) - 1], mid[b, : len(grid) - 1] = grid[:-1], 0.5 * (grid[:-1] + grid[1:])
    curve = ~point
    knots, weights_k, owner_k = zs[curve], weights[curve], owner[curve]
    runs = np.searchsorted(owner_k, np.arange(len(grids) + 1)).tolist()
    coeffs = np.zeros((len(grids), width, max(m, 1)), dtype=complex)
    step = max(1, _FOLD_CHUNK // max(1, m * width * m))
    for start in range(0, len(knots), step):
        stop = min(start + step, len(knots))
        own = owner_k[start:stop]
        # each member's run of kernels in the chunk; a kernel vanishes on the
        # intervals that start outside [z_0, z_m), so only the columns that
        # some kernel of the chunk reaches are built
        spans = [(b, max(runs[b], start), min(runs[b + 1], stop)) for b in range(int(own[0]), int(own[-1]) + 1) if runs[b] < runs[b + 1]]
        j0 = min(int(np.searchsorted(lo[b], knots[a:e, 0].min())) for b, a, e in spans)
        j1 = max(int(np.searchsorted(lo[b], knots[a:e, -1].max())) for b, a, e in spans)
        # one grid per kernel, or the one grid of a batch of one
        grid = (lo[own][:, None, j0:j1], mid[own][:, None, j0:j1]) if len(grids) > 1 else (lo[0, j0:j1], mid[0, j0:j1])
        levels = _bspline_levels(knots[start:stop], *grid)
        for b, a, e in spans:
            coeffs[b, j0:j1] += np.einsum("k,kjd->jd", weights_k[a:e], levels[a - start : e - start])
    out = []
    for b, (grid, hull) in enumerate(zip(grids, hulls)):
        if not len(grid):
            out.append((PiecewisePolynomial.zero(hull), 0.0))
            continue
        density = PiecewisePolynomial(grid, coeffs[b, : len(grid) - 1], atoms[b])
        out.append((density, float(np.sum(np.abs(weights[ends[b] : ends[b + 1]]))) / fact))
    return out


def _sum_kernels(nodes, weights, m, hull):
    """Sum of w * peano_kernel(row), one kernel at a time: the reference
    for :func:`_fold_kernels`.  Returns (density, total_kernel_weight)."""
    density = None
    for row, w in zip(nodes.tolist(), weights.tolist()):
        kern = peano_kernel(row).scaled(w)
        density = kern if density is None else density + kern
    if density is None:
        density = PiecewisePolynomial.zero(hull)
    return density, sum(abs(w) for w in weights.tolist()) / math.factorial(m)


def trace_via_measure(U0, g: TestFunction, Us, Hs) -> TraceMeasureReport:
    """Trace of U_0 T_{g^[m]}(U_1..U_m) as an explicit weighted integral.

    The measure is assembled from eigen-tuple weights and divided-
    difference kernels, so the integral side never touches the operator
    integral; the trace side evaluates the plain spectral sum.  The
    report also carries the measure norm and its ratio against the
    mixed-norm product with J empty and every exponent m+1, that is the
    product of the Schatten-(m+1) norms of U_0..U_m.
    """
    m = len(Us)
    if len(Hs) != m + 1:
        raise ValidationError("need m+1 operators")
    mats, u0 = [_as_matrix(u) for u in Us], _as_matrix(U0)
    density, total_weight = eigen_tuple_density(u0, mats, Hs)
    measure = WeightedTraceMeasure(density, m + 2)
    core = moi_eval(MoiSymbol(g, 0, m), OperatorTuple(tuple(Hs), tuple(mats)))
    trace_direct = complex(np.trace(u0 @ core))
    integral = integral_against_derivative(g, m, density)
    residual = abs(trace_direct - integral)
    scale = 1.0 + abs(trace_direct) + total_weight * max(1.0, g.sup_deriv(m, *_hull(Hs)))
    measure_norm = measure.norm()
    p_value = math.prod(schatten_norm(u, m + 1) for u in [u0] + mats)
    ratio = measure_norm / p_value if p_value > 0 else math.inf if measure_norm > 0 else 0.0
    return TraceMeasureReport(
        measure=measure,
        trace=trace_direct,
        integral=integral,
        residual=residual,
        scale=scale,
        measure_norm=measure_norm,
        p_value=p_value,
        ratio=ratio,
    )


def _hull(Hs):
    lo = float(min(h.decomposition().eigenvalues.min() for h in Hs))
    hi = float(max(h.decomposition().eigenvalues.max() for h in Hs))
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


def expansion_terms_json(expansion: CovExpansion) -> str:
    """Expansion-term dump: sign, indices, weight power, and the products
    around each core, "I" or "V(i+1,...,j)" for checked[i+1..j]."""
    m = max(t.indices[-1] for t in expansion.terms)  # the k = m term is (0, ..., m)
    rows = []
    for t in expansion.terms:
        ix = t.indices
        rows.append(
            {
                "sign": t.sign,
                "k": t.k,
                "indices": list(ix),
                "weight_power": t.weight_power,
                "left": _product_descriptor(0, ix[0]),
                "inner": [_product_descriptor(a, b) for a, b in zip(ix[:-1], ix[1:])],
                "right": _product_descriptor(ix[-1], m),
            }
        )
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))
