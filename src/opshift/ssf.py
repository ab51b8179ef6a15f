"""Higher-order spectral shift densities on finite-dimensional pairs.

For a Hermitian pair (H, V) and order m the density eta_m satisfies the
trace formula

    Tr(R_m(f)) = integral of f^(m) * eta_m,

where R_m(f) is the order-m Taylor remainder of f(H+V).  On matrices
eta_m is an exact piecewise polynomial: the remainder is one operator
integral on :func:`opshift.moi.remainder_pattern` (re-imported here),
its trace is a sum of eigen-tuple weights times divided differences,
and each divided difference is the integral of f^(m) against a B-spline
kernel; a family of perturbations V takes one stacked pass.  The module
also provides a reconstruction from trace data (its design matrix in
closed form) for uniqueness tests, weighted-norm scaling reports,
per-term trace measures, and the measure weight shift: u^m mu for a
measure mu (atoms are ``PiecewisePolynomial`` atoms) through k
antiderivatives, normed by :meth:`opshift.cov.WeightedTraceMeasure.norm`.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cov import WeightedTraceMeasure, _dressed_terms, alternating_signature, corollary_expand, eigen_tuple_densities, eigen_tuple_density, remainder_traces
from .errors import ValidationError
from .functions import PolynomialFunction, TestFunction, bump, class_membership, weight_multiply
from .linalg import HermitianOperator, schatten_norm
# moi_eval stays importable here: bench/tracing.py patches it at this import site
from .moi import moi_eval, remainder_pattern  # noqa: F401
# weighted_abs_integral stays importable here: bench/tracing.py patches it at this import site
from .piecewise import PiecewisePolynomial, integral_against_derivative, weighted_abs_integral, weighted_abs_integrals, _distinct, _shift_rows  # noqa: F401

__all__ = [
    "SpectralShiftDensity",
    "ssf_compute",
    "shift_densities",
    "verify_trace_formula",
    "TraceFormulaReport",
    "weighted_norm_and_scaling",
    "weight_exponent_survey",
    "ScalingReport",
    "uniqueness_fit",
    "reconstruct_density",
    "measure_weight_shift",
    "WeightShiftReport",
    "rp_term_measures",
    "RpTermReport",
    "remainder_pattern",
]

ATOM_MASS_TOL = 1e-10


@dataclass(frozen=True)
class SpectralShiftDensity:
    """Real piecewise-polynomial density for one (H, V, m) triple."""

    order: int
    density: PiecewisePolynomial
    construction: str
    imag_residue: float
    scale: float

    def __post_init__(self):
        if self.order < 1:
            raise ValidationError("order must be at least 1")
        if self.density.atomic_mass() > ATOM_MASS_TOL * (1.0 + self.scale):
            warnings.warn(
                f"shift density of order {self.order} carries atomic mass "
                f"{self.density.atomic_mass():.3e}; the density should be purely absolutely continuous",
                stacklevel=3,
            )

    def support(self):
        return self.density.support()

    def integrate_against(self, f: TestFunction):
        """Integral of f^(order) against the density."""
        return integral_against_derivative(f, self.order, self.density)

    def l1_norm(self):
        return self.density.l1_norm()

    def __call__(self, x):
        return np.real(self.density(x))


def ssf_compute(H: HermitianOperator, V: HermitianOperator, m: int) -> SpectralShiftDensity:
    """Spectral shift density of order m: the eigen-tuple weights of the
    remainder integral against divided-difference kernels, exact for
    every m >= 1.  The batch of one of :func:`shift_densities`.
    """
    _check_pair(H, V, m)
    ops, args = remainder_pattern(H, V, m)
    return _shift_density(m, *eigen_tuple_density(np.eye(H.dim, dtype=complex), list(args), list(ops)))


def shift_densities(H: HermitianOperator, Vs, m: int):
    """:func:`ssf_compute` of (H, V) for every V in Vs, from one stacked
    pass of :func:`opshift.cov.eigen_tuple_densities` over the family."""
    for V in Vs:
        _check_pair(H, V, m)
    eye = np.eye(H.dim, dtype=complex)
    members = [(eye, list(args), list(ops)) for ops, args in (remainder_pattern(H, V, m) for V in Vs)]
    return [_shift_density(m, *pair) for pair in eigen_tuple_densities(members)]


def _check_pair(H, V, m):
    if m < 1:
        raise ValidationError("order must be at least 1")
    if H.dim != V.dim:
        raise ValidationError("dimension mismatch")


def _shift_density(m, density, total_weight):
    """The real part of a remainder density, with its imaginary residue
    and a-priori scale."""
    return SpectralShiftDensity(
        order=m,
        density=density.real_part(),
        construction="bspline",
        imag_residue=density.imag_magnitude(),
        scale=max(1.0, density.coefficient_scale(), total_weight),
    )


# ---------------------------------------------------------------------------
# trace formula verification


@dataclass(frozen=True)
class TraceFormulaReport:
    order: int
    weight_class: int
    max_relative_residual: float
    residuals: tuple
    traces: tuple
    rejected: tuple  # (index, reason) pairs
    max_monomial_trace: float  # max |Tr R_m(x^k)| over k < m, zero by exactness


def _orders_for(n, parity):
    if n < 2:
        raise ValidationError("the higher-order theory starts at n = 2")
    if parity == "odd":
        return 2 * n - 1, 4 * n + 2
    if parity == "even":
        return 2 * n, 4 * n + 3
    raise ValidationError("parity must be 'odd' or 'even'")


def verify_trace_formula(H, V, n, parity, family) -> TraceFormulaReport:
    """Compare Tr R_m(f) against the integral of f^(m) eta_m over a family.

    Family members failing the weighted-class gate are rejected with the
    membership reason and excluded from the residual maximum.  The same
    :func:`opshift.cov.remainder_traces` call also takes the monomials x^k,
    k < m, whose remainder traces vanish.
    """
    m, k_class = _orders_for(n, parity)
    admissible = []
    rejected = []
    for i, f in enumerate(family):
        dec = class_membership(f, m, k_class)
        if dec.member:
            admissible.append((i, f))
        else:
            rejected.append((i, dec.reason))
    eta = ssf_compute(H, V, m)
    residuals = []
    traces = []
    fs = [f for _, f in admissible]
    monos = [PolynomialFunction(tuple([0.0] * k + [1.0])) for k in range(m)]
    # each column of remainder_traces is computed independently of the others
    row = remainder_traces(fs + monos, H, [V], m)[0]
    for f, lhs in zip(fs, row[: len(fs)].tolist()):
        rhs = eta.integrate_against(f)
        residuals.append(abs(lhs - rhs) / (1.0 + abs(lhs)))
        traces.append(lhs)
    max_res = max(residuals) if residuals else 0.0
    vanish = float(np.max(np.abs(row[len(fs) :])))
    return TraceFormulaReport(m, k_class, float(max_res), tuple(residuals), tuple(traces), tuple(rejected), vanish)


# ---------------------------------------------------------------------------
# weighted norm and scaling


@dataclass(frozen=True)
class ScalingReport:
    order: int
    weight_exponent: int
    weighted_l1: float
    rhs_factor: float
    ratio: float
    scales: tuple  # (t, weighted_l1(tV)) pairs
    slope: float | None
    density: PiecewisePolynomial | None = field(default=None, repr=False, compare=False)  # eta_m at t = 1

    def small_t_slope(self):
        """Log-log slope over the scales t <= 2^-4, which fixes the order
        of the norm as t -> 0; the bound says nothing about larger t.
        None if fewer than two such scales remain or a norm vanishes."""
        small = [(t, v) for t, v in self.scales if t <= 2.0**-4]
        if len(small) < 2 or not all(v > 0 for _, v in small):
            return None
        ts, values = zip(*small)
        return float(np.polyfit(np.log(ts), np.log(values), 1)[0])


def _bound_factor(H, V, n, parity):
    """(1 + |V|^2) |V|^p |R V R|_n^n with R = (H - i)^(-1), p = n - 1 (odd) or n (even)."""
    power = n - 1 if parity == "odd" else n
    rH = H.resolvent()
    vnorm = V.norm()
    return (1.0 + vnorm**2) * vnorm**power * schatten_norm(rH @ V.entries @ rH, n) ** n


def weight_exponent_survey(reports):
    """Reported (never asserted) tightness probe for the weight exponent.

    ``reports`` are the :class:`ScalingReport` of one order and parity
    over an ensemble; each carries its density at t = 1 and its bound
    factor.  For integer weights from w_ref - 4 up to the
    reference exponent w_ref, tabulate the worst ratio of the weighted
    density norm to the bound factor across the ensemble, and report the
    smallest weight whose worst ratio stays within a factor two of the
    reference weight's.  A report's own exponent reuses its
    ``weighted_l1``; the other weights of every density come from one
    :func:`opshift.piecewise.weighted_abs_integrals` call.
    """
    w_ref = reports[0].weight_exponent
    weights = list(range(max(1, w_ref - 4), w_ref + 1))
    worst = {w: 0.0 for w in weights}
    live = [rep for rep in reports if rep.rhs_factor != 0.0]
    if live:
        others = weights[:-1]
        for rep, row in zip(live, weighted_abs_integrals([rep.density for rep in live], others)):
            norms = dict(zip(others, row))
            norms[w_ref] = rep.weighted_l1  # weighted_abs_integral at its own exponent
            for w in weights:
                worst[w] = max(worst[w], norms[w] / rep.rhs_factor)
    reference = worst[w_ref]
    smallest = w_ref
    for w in weights:
        if reference == 0.0 or worst[w] <= 2.0 * reference:
            smallest = w
            break
    return {"weights": worst, "reference_exponent": w_ref, "smallest_stable_exponent": smallest}


def weighted_norm_and_scaling(H, V, n, parity) -> ScalingReport:
    """Weighted L1 norm of eta_m, the bound's right-hand factor, and the
    fitted log-log slope of the norm under V -> tV, t = 1, 1/2, ..., 2^-8.

    The nine densities eta_m(H, tV) come from one stacked pass
    (:func:`shift_densities`) and their weighted norms from one
    :func:`opshift.piecewise.weighted_abs_integrals` call."""
    m, w = _orders_for(n, parity)
    ts = [2.0 ** (-j) for j in range(9)]
    etas = shift_densities(H, [V] + [t * V for t in ts[1:]], m)
    values = [row[0] for row in weighted_abs_integrals([eta.density for eta in etas], [w])]
    weighted = values[0]
    rhs = _bound_factor(H, V, n, parity)
    slope = None
    if all(v > 0 for v in values):
        slope = float(np.polyfit(np.log(ts), np.log(values), 1)[0])
    ratio = weighted / rhs if rhs > 0 else (math.inf if weighted > 0 else 0.0)
    return ScalingReport(m, w, float(weighted), float(rhs), float(ratio), tuple(zip(ts, values)), slope, etas[0].density)


# ---------------------------------------------------------------------------
# uniqueness up to a polynomial


def uniqueness_fit(eta_a: SpectralShiftDensity, eta_b: SpectralShiftDensity, m: int):
    """Least-squares polynomial (degree <= m-1) explaining eta_a - eta_b.

    Returns (coefficients, post-fit L1 residual); the projection uses the
    orthogonal Legendre basis on the joint support, and every moment is
    exact.
    """
    if eta_a.order != m or eta_b.order != m:
        raise ValidationError("both densities must have the requested order")
    delta = eta_a.density.real_part() - eta_b.density.real_part()
    lo = min(eta_a.support()[0], eta_b.support()[0])
    hi = max(eta_a.support()[1], eta_b.support()[1])
    if hi <= lo:
        hi = lo + 1.0
    coeffs = np.zeros(m, dtype=float)
    for k in range(m):
        # Legendre P_k((2x - lo - hi)/(hi - lo)) in powers of x; squared norm (hi-lo)/(2k+1)
        pk = np.polynomial.Legendre.basis(k, domain=[lo, hi]).convert(kind=np.polynomial.Polynomial).coef
        moment = np.real(integral_against_derivative(PolynomialFunction(tuple(pk)), 0, delta))
        coeffs[: len(pk)] += moment / ((hi - lo) / (2 * k + 1)) * pk
    # subtract the fitted polynomial on the support of delta and measure L1
    fitted = _poly_on_grid(coeffs, delta.breakpoints)
    residual = (delta - fitted).l1_norm()
    return coeffs, float(residual)


def _poly_on_grid(coeffs, breakpoints):
    bp = np.asarray(breakpoints, dtype=float)
    mids = 0.5 * (bp[:-1] + bp[1:])
    return PiecewisePolynomial(bp, _shift_rows(np.tile(np.asarray(coeffs, dtype=complex), (len(mids), 1)), mids))


def reconstruct_density(H, V, m) -> SpectralShiftDensity:
    """Density recovered from trace data alone (regularized least squares).

    Trace values of the remainder on a family of bumps supported strictly
    inside the spectral hull constrain a piecewise-polynomial ansatz on
    the eigenvalue grid; bumps interior to the hull are blind to
    polynomial summands of degree < m, so the minimum-norm solution may
    differ from the kernel construction by exactly such a polynomial.
    """
    rng = np.random.default_rng(7)
    eigs = np.concatenate([H.decomposition().eigenvalues, (H + V).decomposition().eigenvalues])
    lo, hi = float(np.min(eigs)), float(np.max(eigs))
    if hi - lo < 1e-6:
        hi = lo + 1.0
    grid = _distinct(eigs)
    n_int = len(grid) - 1
    n_basis = n_int * m

    # supports at many scales, strictly inside the hull so that the trace
    # data stays blind to polynomial summands of degree < m; grid-aware
    # members resolve narrow spectral gaps that random supports miss
    pad = 0.01 * (hi - lo)
    span = hi - lo - 2 * pad
    bumps = []
    for i0 in range(n_int):
        a, b = grid[i0], grid[i0 + 1]
        width = b - a
        for scale in (0.6, 1.5, 3.0):
            u1 = max(lo + pad, 0.5 * (a + b) - 0.5 * scale * width)
            u2 = min(hi - pad, 0.5 * (a + b) + 0.5 * scale * width)
            if u2 - u1 > 1e-8:
                bumps.append(bump(u1, u2, smoothness=m + 2))
    while len(bumps) < max(50, 2 * n_basis):
        u1, u2 = np.sort(rng.uniform(lo + pad, hi - pad, 2))
        if u2 - u1 < 0.05 * span:
            mid = 0.5 * (u1 + u2)
            u1 = max(lo + pad, mid - 0.025 * span)
            u2 = min(hi - pad, mid + 0.025 * span)
        bumps.append(bump(u1, u2, smoothness=m + 2))
    # a bump with no grid point inside its support is blind: its row and its trace vanish
    bumps = [f for f in bumps if np.any((grid > f.a) & (grid < f.b))]
    y = np.real(remainder_traces(bumps, H, [V], m)[0])
    # A[r, i m + d] = integral of f_r^(m) (x - c_i)^d over interval i (midpoint c_i), by parts
    # sum_{j <= d} (-1)^j d!/(d-j)! [f_r^(m-1-j)(x) (x - c_i)^(d-j)] at its ends: exact for C^(m+2) bumps
    derivs = np.array([[np.real(f.eval_deriv(k, grid)) for k in range(m)] for f in bumps])
    half = 0.5 * np.diff(grid)
    A = np.zeros((len(bumps), n_int, m))
    for d in range(m):
        for j in range(d + 1):
            ends = derivs[:, m - 1 - j]
            A[:, :, d] += (-1) ** j * math.perm(d, j) * (ends[:, 1:] * half ** (d - j) - ends[:, :-1] * (-half) ** (d - j))
    A = A.reshape(len(bumps), n_basis)
    # two-sided equilibration, then a minimum-norm solve with the singular
    # spectrum truncated at the noise floor; the surviving ambiguity is the
    # polynomial blindness of interior bumps, removed later by the fit
    row_scale = np.maximum(np.linalg.norm(A, axis=1), 1e-30)
    As = A / row_scale[:, None]
    ys = y / row_scale
    col_scale = np.maximum(np.linalg.norm(As, axis=0), 1e-30)
    As = As / col_scale[None, :]
    u_svd, s_svd, vt_svd = np.linalg.svd(As, full_matrices=False)
    cutoff = 1e-11 * s_svd[0]
    inv = np.where(s_svd > cutoff, 1.0 / np.where(s_svd > cutoff, s_svd, 1.0), 0.0)
    coef = (vt_svd.T * inv) @ (u_svd.T @ ys) / col_scale
    rows = tuple(coef[i0 * m : (i0 + 1) * m].astype(complex) for i0 in range(n_int))
    density = PiecewisePolynomial(grid, rows)
    return SpectralShiftDensity(m, density, "reconstruction", 0.0, max(1.0, density.coefficient_scale()))


# ---------------------------------------------------------------------------
# measure weight shift


@dataclass(frozen=True)
class WeightShiftReport:
    xi: PiecewisePolynomial  # k-fold antiderivative of u^m mu
    k: int
    base_power: int
    epsilon: float
    residuals: tuple
    mu_tilde_norm: float
    bound_value: float
    bound_holds: bool


def _u_l1_norm(epsilon):
    # integral of (1+x^2)^(-(1+eps)/2) over the line
    return float(math.sqrt(math.pi) * math.gamma(epsilon / 2.0) / math.gamma((1.0 + epsilon) / 2.0))


def measure_weight_shift(mu: PiecewisePolynomial, n: int, m: int, k: int, epsilon: float, test_family=()) -> WeightShiftReport:
    """Shift the weight of a finite measure onto repeated antiderivatives.

    Builds xi_0 = u^m mu and its antiderivatives xi_1..xi_k from 0 (which
    jump at the atoms of mu), and verifies, for each supplied test
    function g,

        integral g^(n) u^m dmu = integral g^(n+k) u^(m+k+eps) * density,

    with density = (-1)^k u^(-m-k-eps) xi_k.  The weights cancel, so the
    right-hand side is the integral of (-1)^k g^(n+k) xi_k.  Also checks
    the total variation of the shifted measure u^(-m-k-eps) xi_k against
    the closed-form norm of u^(-1-eps) times the total variation of mu.
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValidationError("epsilon must lie in (0, 1]")
    if n < 0 or m < 0 or k < 0:
        raise ValidationError("orders must be nonnegative")
    xi = mu
    for _ in range(m):
        xi = xi.multiply_linear(-1j, 1)
    lhs_vals = [integral_against_derivative(g, n, xi) for g in test_family]
    for _ in range(k):
        xi = xi.antiderivative(0.0)
    residuals = [
        abs(lhs - (-1.0) ** k * integral_against_derivative(g, n + k, xi)) for g, lhs in zip(test_family, lhs_vals)
    ]
    norm_tilde = WeightedTraceMeasure(xi, m + k + epsilon).norm()
    bound = _u_l1_norm(epsilon) * WeightedTraceMeasure(mu, 0).norm()
    return WeightShiftReport(
        xi,
        k,
        m,
        float(epsilon),
        tuple(residuals),
        float(norm_tilde),
        float(bound),
        bool(norm_tilde <= bound + 1e-12 * (1.0 + bound)),
    )


# ---------------------------------------------------------------------------
# per-term trace measures


@dataclass(frozen=True)
class RpTermReport:
    p: int
    sign: int
    measure: WeightedTraceMeasure
    trace_residuals: tuple
    traces: tuple


def rp_term_measures(H, V, n, parity, family) -> dict:
    """Per-term decomposition of the remainder trace with explicit measures.

    Splits Tr R_m into the terms of the alternating-signature expansion
    (:func:`opshift.cov.corollary_expand`) grouped by their order p.  The
    measure of order p sums the eigen-tuple densities of its terms, each
    with U_0 = right * left, the checked products around the term.  For
    each family member the per-p traces come from the expansion's term
    values and are checked against the integrals of (f u^w)^(p) against
    the measure, and the signed sum, the trace of the expansion's right
    side, against the full remainder trace.
    """
    m, _ = _orders_for(n, parity)
    ops, args = remainder_pattern(H, V, m)
    Hs = list(ops)
    expansions = [corollary_expand(f, parity, Hs, args) for f in family]
    reports = []
    for p, group in itertools.groupby(_dressed_terms(alternating_signature(m), Hs, args), key=lambda t: t[1]):
        density = None
        for sign, _, power, combo, left, inner, right in group:
            dens_i, _ = eigen_tuple_density(right @ left, inner, [Hs[i] for i in combo])
            density = dens_i if density is None else density + dens_i
        # every term of order p carries the same sign and weight power
        traces = [sum(complex(np.trace(t.value)) for t in exp.terms if t.k == p) for exp in expansions]
        residuals = [
            abs(trace - integral_against_derivative(weight_multiply(f, power), p, density))
            for f, trace in zip(family, traces)
        ]
        reports.append(RpTermReport(p, sign, WeightedTraceMeasure(density, p + 2), tuple(residuals), tuple(traces)))

    sum_residuals = []
    for exp, direct in zip(expansions, remainder_traces(family, H, [V], m)[0].tolist()):
        total = complex(np.trace(exp.rhs))
        sum_residuals.append(abs(total - direct) / (1.0 + abs(direct)))
    return {"terms": reports, "signed_sum_residuals": tuple(sum_residuals)}
