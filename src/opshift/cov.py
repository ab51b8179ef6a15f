"""Signature-driven change-of-variables expansions for operator integrals.

A signature is a word over {L, 0, R} prescribing, for each argument
slot, on which side resolvents are attached.  The machinery here covers

* the checked-operator construction (the four-case resolvent table),
* the terms of the expansion along a signature: one enumerator,
  :func:`_expansion_terms`, gives every index tuple with its sign and
  weight power,
* the scalar expansion identity for divided-difference symbols,
* the operator expansion of a generic integral into weighted integrals
  of resolvent-dressed arguments, and through it the alternating-
  signature decompositions used for Taylor remainders and the three
  single-step identities (expansions along one-letter signatures),
* the mixed-norm product bounding trace measures, and
* the constructive trace measure: the trace of U_0 T_{g^[m]}(U_1..U_m)
  as an integral of g^(m) u^(m+2) against an explicit piecewise density,
  whose tuple weights come from one cycle product in the eigenbases of
  the H_k and whose divided-difference kernels are folded in one array
  pass.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from .errors import ValidationError
from .functions import TestFunction, _bspline_levels, _merge_rows, divided_difference, peano_kernel, weight_multiply
from .linalg import HermitianOperator, schatten_norm
from .moi import MoiSymbol, OperatorTuple, _cluster_sum, _eigenbasis_chain, _group_rows, moi_eval
from .piecewise import PiecewisePolynomial, _weighted_modulus, integral_against_derivative

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
    "cov_expand",
    "corollary_expand",
    "basic_change_of_variables",
    "pJ_alpha",
    "eigen_tuple_density",
    "kernel_sum_density",
    "trace_via_measure",
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
        u = np.asarray(u.entries if isinstance(u, HermitianOperator) else u, dtype=complex)
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


def cov_scalar_identity(g: TestFunction, eps: EpsilonSignature, lambdas):
    """Evaluate both sides of the scalar expansion identity at explicit nodes.

    Returns (lhs, rhs, residual, scale) where lhs = g^[m](lambdas) and
    rhs is the signed sum over admissible index tuples of weighted
    divided differences times reciprocal-u factors, one batched divided
    difference per order k.
    """
    lam = [float(v) for v in lambdas]
    if len(eps) != len(lam):
        raise ValidationError("signature length must match the node count")
    u_factor = math.prod(
        (_U_INV(lam[i]) for i in range(len(lam)) if eps[i] != "0"), start=1.0 + 0.0j
    )
    lhs = divided_difference(g, lam)
    rhs = 0.0 + 0.0j
    mag = 0.0
    for _, group in itertools.groupby(_expansion_terms(eps), key=lambda t: t[1]):
        signs, _, powers, combos = zip(*group)
        terms = signs[0] * divided_difference(weight_multiply(g, powers[0]), np.array(lam)[np.array(combos)]) * u_factor
        rhs += terms.sum()
        mag += np.abs(terms).sum()
    scale = 1.0 + abs(lhs) + mag
    return lhs, rhs, abs(lhs - rhs), scale


# ---------------------------------------------------------------------------
# operator expansion


@dataclass(frozen=True)
class ExpansionTerm:
    sign: int
    k: int
    indices: tuple
    weight_power: int
    value: np.ndarray  # unsigned contribution
    left_descriptor: str
    inner_descriptors: tuple
    right_descriptor: str


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
    """Expand T_{g^[m]}(V_1..V_m) along a signature.

    The left side is the plain spectral-sum evaluation; the right side
    sums, over the terms of :func:`_expansion_terms`, products of checked
    arguments around weighted integrals of (g u^(k-q+1))^[k].
    """
    m = len(Vs)
    if len(Hs) != m + 1 or len(eps) != m + 1:
        raise ValidationError("need m+1 operators and a length-m+1 signature")
    dim = Hs[0].dim
    args = [np.asarray(v.entries if isinstance(v, HermitianOperator) else v, dtype=complex) for v in Vs]
    lhs = moi_eval(MoiSymbol(g, 0, m), OperatorTuple(tuple(Hs), tuple(args)))
    rhs = np.zeros((dim, dim), dtype=complex)
    terms = []
    mag = 0.0
    for sign, k, power, combo, left, inner, right in _dressed_terms(eps, Hs, args):
        core = moi_eval(MoiSymbol(g, power, k), OperatorTuple(tuple(Hs[i] for i in combo), tuple(inner)))
        value = left @ core @ right
        rhs = rhs + sign * value
        mag += float(np.linalg.norm(value, 2))
        inner_desc = tuple(_product_descriptor(a, b) for a, b in zip(combo[:-1], combo[1:]))
        left_desc, right_desc = _product_descriptor(0, combo[0]), _product_descriptor(combo[-1], m)
        terms.append(ExpansionTerm(sign, k, combo, power, value, left_desc, inner_desc, right_desc))
    residual = float(np.linalg.norm(lhs - rhs, 2))
    scale = 1.0 + float(np.linalg.norm(lhs, 2)) + mag
    return CovExpansion(tuple(terms), lhs, rhs, residual, scale)


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
    exp = cov_expand(f, EpsilonSignature(tuple(ent)), Hs, Vs)
    scale = 1.0 + float(np.linalg.norm(exp.lhs, 2)) + float(np.linalg.norm(exp.rhs, 2))
    return exp.lhs, exp.rhs, exp.residual, scale


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
    mats = [np.asarray(u.entries if isinstance(u, HermitianOperator) else u, dtype=complex) for u in Us]
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
    weight_exponent: int

    def norm(self):
        """Total variation: the integral of |u|^(-w) |density| =
        (1+x^2)^(-w/2) |density(x)| plus the atoms, by the split
        Gauss-Legendre rule of :mod:`opshift.piecewise` on segments split
        at the real roots of the real and imaginary parts, where the
        modulus kinks."""
        w = self.weight_exponent
        total = _weighted_modulus(self.density, w)
        for x, mass in self.density.atoms:
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

    The weights of all eigenvalue-cluster tuples come from one cycle
    product in the eigenbases (:func:`_tuple_weights`), which raises
    ``BudgetError`` before any work on over-budget enumerations.  They are
    grouped by node multiset, and the kernels of all multisets are folded
    in one array pass (:func:`_fold_kernels`).
    Returns (density, total_kernel_weight).
    """
    return _fold_kernels(*_tuple_weights(U0, Us, Hs), len(Us), _hull(Hs))


def kernel_sum_density(U0, Us, Hs):
    """Reference for :func:`eigen_tuple_density`: the same weights, with
    one ``peano_kernel`` per node multiset added in by
    ``PiecewisePolynomial.__add__``.  Exact but one refinement per kernel;
    the ``ssf`` suite checks the array fold against it.
    Returns (density, total_kernel_weight)."""
    return _sum_kernels(*_tuple_weights(U0, Us, Hs), len(Us), _hull(Hs))


def _tuple_weights(U0, Us, Hs):
    """Tr(U_0 P_{j0} U_1 ... U_m P_{jm}) summed by sorted node multiset: each
    open chain of :func:`opshift.moi._eigenbasis_chain` closed by Z[i_m,i_0],
    Z = X_m^* U_0 X_0, with i_m and i_0 summed into their clusters.  On the
    remainder pattern (H_m is H_0, U_0 = I) Z is exactly I, so only the
    cycles j_m = j_0 carry weight.  Returns (nodes, weights): the distinct
    sorted node rows, shape (kernels, m+1), ascending, and their summed
    complex weights; cluster tuples of weight exactly 0 are left out."""
    m = len(Us)
    if len(Hs) != m + 1:
        raise ValidationError("need m+1 operators")
    mats = [np.asarray(u.entries if isinstance(u, HermitianOperator) else u, dtype=complex) for u in Us]
    u0 = np.asarray(U0.entries if isinstance(U0, HermitianOperator) else U0, dtype=complex)
    decs, starts, values, codes, chunks = _eigenbasis_chain(Hs, mats)
    dim = len(u0)
    remainder = Hs[-1] is Hs[0] and np.array_equal(u0, np.eye(dim))
    closing = np.eye(dim, dtype=complex) if remainder else decs[-1].eigenvectors.conj().T @ u0 @ decs[0].eigenvectors
    groups = []
    for lo, hi, chain in chunks:
        if m:
            close = closing.T[lo:hi].reshape((hi - lo,) + (1,) * (m - 1) + (dim,))
            block = _cluster_sum(chain * close, starts[m], -1)
        else:
            block = np.diagonal(closing)[lo:hi]
        block = _cluster_sum(block, starts[0][(starts[0] >= lo) & (starts[0] < hi)] - lo, 0)
        hit = np.nonzero(block)
        rows = np.stack([codes[0][decs[0].labels[lo] + hit[0]]] + [codes[k][hit[k]] for k in range(1, m + 1)], axis=1)
        keys, group = _group_rows(rows)
        groups.append((keys, _group_sums(group, block[hit], len(keys))))
    keys, weights = groups[0]
    if len(groups) > 1:
        keys, group = _group_rows(np.concatenate([k for k, _ in groups]))
        weights = _group_sums(group, np.concatenate([w for _, w in groups]), len(keys))
    return values[keys], weights


def _group_sums(group, weights, count):
    """Complex weights summed by group, in input order within each group."""
    sums = np.empty(count, dtype=complex)
    sums.real = np.bincount(group, weights.real, count)
    sums.imag = np.bincount(group, weights.imag, count)
    return sums


# elements per Cox-de Boor level array: _fold_kernels takes the kernels in
# chunks, so its memory stays near 8 bytes * 2**18 = 2 MB per array
_FOLD_CHUNK = 2**18


def _fold_kernels(nodes, weights, m, hull):
    """Sum of w * peano_kernel(row) over the node rows and their weights,
    in one array pass.

    Every kernel is written on the global grid (the union of all merged
    knots and atom points) in each interval's midpoint variable, so the
    Cox-de Boor recursion runs on coefficient arrays of shape (kernels,
    splines, intervals, degree+1) and the weighted sum is one contraction.
    Rows whose nodes merge to a single point are atoms of mass w/m!.
    Returns (density, total_kernel_weight).
    """
    if not len(weights):
        return PiecewisePolynomial.zero(hull), 0.0
    fact = math.factorial(m)
    zs = _merge_rows(nodes)
    point = zs[:, 0] == zs[:, -1]
    atom_x, where = np.unique(zs[point, 0], return_inverse=True)
    masses = weights[point] / fact
    atom_mass = _group_sums(where, masses, len(atom_x))
    knots, weights_k = zs[~point], weights[~point]
    grid = np.union1d(knots.ravel(), atom_x)
    lo, mid = grid[:-1], 0.5 * (grid[:-1] + grid[1:])
    coeffs = np.zeros((len(mid), max(m, 1)), dtype=complex)
    step = max(1, _FOLD_CHUNK // max(1, m * len(mid) * m))
    for start in range(0, len(knots), step):
        z = knots[start : start + step]
        coeffs += np.einsum("k,kjd->jd", weights_k[start : start + step], _bspline_levels(z, lo, mid))
    atoms = tuple(zip(atom_x.tolist(), atom_mass.tolist()))
    return PiecewisePolynomial(grid, coeffs, atoms), float(np.sum(np.abs(weights))) / fact


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
    mats = [np.asarray(u.entries if isinstance(u, HermitianOperator) else u, dtype=complex) for u in Us]
    u0 = np.asarray(U0.entries if isinstance(U0, HermitianOperator) else U0, dtype=complex)
    density, total_weight = eigen_tuple_density(u0, mats, Hs)
    measure = WeightedTraceMeasure(density, m + 2)
    core = moi_eval(MoiSymbol(g, 0, m), OperatorTuple(tuple(Hs), tuple(mats)))
    trace_direct = complex(np.trace(u0 @ core))
    integral = integral_against_derivative(g, m, density)
    residual = abs(trace_direct - integral)
    scale = 1.0 + abs(trace_direct) + total_weight * max(1.0, g.sup_deriv(m, *_hull(Hs)))
    measure_norm = measure.norm()
    # with J empty, r = 0 and the Schatten index n of pJ_alpha has no effect
    report = pJ_alpha([u0] + mats, list(Hs), (), (float(m + 1),) * (m + 1), 2)
    ratio = measure_norm / report.p_value if report.p_value > 0 else math.inf if measure_norm > 0 else 0.0
    return TraceMeasureReport(
        measure=measure,
        trace=trace_direct,
        integral=integral,
        residual=residual,
        scale=scale,
        measure_norm=measure_norm,
        p_value=report.p_value,
        ratio=ratio,
    )


def _hull(Hs):
    lo = float(min(h.decomposition().eigenvalues.min() for h in Hs))
    hi = float(max(h.decomposition().eigenvalues.max() for h in Hs))
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


def expansion_terms_json(expansion: CovExpansion) -> str:
    """Expansion-term dump: sign, indices, weight power, slot descriptors."""
    rows = []
    for t in expansion.terms:
        rows.append(
            {
                "sign": t.sign,
                "k": t.k,
                "indices": list(t.indices),
                "weight_power": t.weight_power,
                "left": t.left_descriptor,
                "inner": list(t.inner_descriptors),
                "right": t.right_descriptor,
            }
        )
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))
