"""Structured scalar test functions with exact derivatives.

Four families are supported, each closed under multiplication by powers
of the weight u(x) = x - i and equipped with closed-form derivatives of
every order:

* products of complex linear factors with integer exponents
  (bounded rationals, written multiplicatively so that decay order is
  exact bookkeeping rather than a numerical question),
* polynomial-prefactor Gaussians,
* compactly supported polynomial bumps of prescribed smoothness,
* plain polynomials.

On top of these the module provides divided differences, taken at one
node row or at every row of a (rows, p+1) array in one call.  Nothing
divides by a node gap and nodes are never merged.  A proper rational
with simple poles p_j takes the residue form

    f[z_0..z_p] = (-1)^p sum_j r_j / prod_i (z_i - p_j)

in one broadcast over all rows and poles, with its residues r_j cached
per (factors, scale).  A row whose terms sum in modulus to more than
RESIDUE_GUARD = 1e2 times |f[z]| cancels too much for that form (close
poles, or nodes far from the poles against their spread); it takes the
Opitz recurrence, which reads f[z_0..z_p] as entry (0, p) of f(J), J the
bidiagonal Opitz matrix of the nodes, and so does every row of a
rational with a multiple pole or of an improper one.  Polynomials and
bumps on rows inside their support build the first row of f(J) from
linear factors over all rows at once, Gaussians take one small matrix
exponential per row, and bump rows across a kink integrate f^(p)
against their B-spline (Peano) kernel.  The module also provides
analytic weighted-class membership decisions and the B-spline kernels
themselves, whose clusters closer than NODE_MERGE_RELTOL merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .piecewise import PiecewisePolynomial, _gauss_legendre, _horner, _polymul, _polyval, _polyder

__all__ = [
    "TestFunction",
    "RationalFunction",
    "GaussianFunction",
    "BumpFunction",
    "PolynomialFunction",
    "bump",
    "ClassMembership",
    "rational_from_poles",
    "divided_difference",
    "weight_multiply",
    "class_membership",
    "peano_kernel",
    "leibniz_weighted_sup_bound",
    "NODE_MERGE_RELTOL",
]

NODE_MERGE_RELTOL = 1e-8  # kernel knots closer than this (times 1 + span) are treated confluently

_U_ROOT = 1j  # u(x) = x - i vanishes at x = i


class TestFunction:
    """Base class; subclasses provide exact derivatives of all orders."""

    kind = "abstract"
    # smoothness: largest m with f in C^m globally (math.inf when smooth)
    smoothness = math.inf
    # decay_order d: f(x) = O(|x|^-d); None means faster than any power
    decay_order: int | None = None
    support: tuple | None = None
    kink_points: tuple = ()

    def __call__(self, x):
        return self.eval_deriv(0, x)

    def eval_deriv(self, order, x):
        raise NotImplementedError

    def times_u(self, power=1):
        raise NotImplementedError

    def poles(self):
        return ()

    def sup_deriv(self, order, lo=None, hi=None):
        """Grid estimate (4001 points) of sup |f^(order)| on [lo, hi] (or the support)."""
        if lo is None or hi is None:
            if self.support is None:
                raise ValidationError("sup estimate needs an interval for unbounded-support functions")
            lo, hi = self.support
        xs = np.linspace(lo, hi, 4001)
        return float(np.max(np.abs(self.eval_deriv(order, xs))))


@dataclass(frozen=True)
class RationalFunction(TestFunction):
    """scale * prod_j (x - z_j)^(-m_j) with all z_j off the real axis.

    Positive exponents m_j are pole orders, negative exponents are
    numerator factors; the representation is closed under products and
    u-multiplication, and derivative evaluation uses the logarithmic
    derivative recurrence f^(k+1) = (f * s)^(k), s = -sum m_j/(x-z_j).
    """

    factors: tuple  # ((z, m), ...), m != 0
    scale: complex = 1.0

    kind = "rational"

    def __post_init__(self):
        for z, m in self.factors:
            if abs(complex(z).imag) == 0.0:
                raise ValidationError("rational factors must have poles/zeros off the real axis")
            if m == 0:
                raise ValidationError("zero exponents are not allowed")

    @property
    def decay_order(self):
        return int(sum(m for _, m in self.factors))

    def poles(self):
        return tuple(z for z, m in self.factors if m > 0)

    def eval_deriv(self, order, x):
        x = np.asarray(x, dtype=complex)
        f = np.full(x.shape, complex(self.scale))
        for z, m in self.factors:
            f = f * (x - z) ** (-m)
        if order == 0:
            return f
        # s^(r) for r = 0..order-1
        s_derivs = []
        for r in range(order):
            s = np.zeros(x.shape, dtype=complex)
            for z, m in self.factors:
                s += -m * (-1.0) ** r * math.factorial(r) * (x - z) ** (-(r + 1))
            s_derivs.append(s)
        derivs = [f]
        for k in range(order):
            nxt = np.zeros(x.shape, dtype=complex)
            for i in range(k + 1):
                nxt += math.comb(k, i) * derivs[i] * s_derivs[k - i]
            derivs.append(nxt)
        return derivs[order]

    def times_u(self, power=1):
        if power == 0:
            return self
        return self._times_factor(_U_ROOT, -power)

    def _times_factor(self, z, m):
        fac = dict()
        for zz, mm in self.factors:
            fac[complex(zz)] = fac.get(complex(zz), 0) + mm
        fac[complex(z)] = fac.get(complex(z), 0) + m
        factors = tuple((zz, mm) for zz, mm in sorted(fac.items(), key=lambda t: (t[0].real, t[0].imag)) if mm != 0)
        return RationalFunction(factors, self.scale)

    def multiply(self, other: "RationalFunction"):
        out = self
        for z, m in other.factors:
            out = out._times_factor(z, m)
        return RationalFunction(out.factors, out.scale * other.scale)


def rational_from_poles(poles, scale=1.0):
    """Product of simple reciprocal factors prod (x - z)^(-1)."""
    fac = dict()
    for z in poles:
        fac[complex(z)] = fac.get(complex(z), 0) + 1
    factors = tuple(sorted(fac.items(), key=lambda t: (t[0].real, t[0].imag)))
    return RationalFunction(factors, scale)


@dataclass(frozen=True)
class GaussianFunction(TestFunction):
    """prefactor(x) * exp(-(x-center)^2 / (2 width^2))."""

    center: float = 0.0
    width: float = 1.0
    prefactor: tuple = (1.0,)  # ascending coefficients in (x - center)

    kind = "gaussian"
    decay_order = None

    def __post_init__(self):
        if not self.width > 0:
            raise ValidationError("gaussian width must be positive")
        object.__setattr__(self, "prefactor", tuple(complex(c) for c in self.prefactor))

    def eval_deriv(self, order, x):
        x = np.asarray(x, dtype=float)
        s = x - self.center
        q = np.asarray(self.prefactor, dtype=complex)
        w2 = self.width**2
        for _ in range(order):
            # (q e^g)' = (q' + q g') e^g with g' = -s/w^2
            q = np.polynomial.polynomial.polyadd(_polyder(q), _polymul(q, [0.0, -1.0 / w2]))
        return _polyval(q, s) * np.exp(-(s**2) / (2.0 * w2))

    def times_u(self, power=1):
        q = np.asarray(self.prefactor, dtype=complex)
        for _ in range(power):
            # u(x) = (x - center) + (center - i) in the local variable
            q = _polymul(q, [self.center - 1j, 1.0])
        return GaussianFunction(self.center, self.width, tuple(q))


@dataclass(frozen=True)
class BumpFunction(TestFunction):
    """Polynomial bump: prefactor(x) * ((x-a)(b-x))^(smoothness+1) on (a, b).

    Globally C^smoothness, identically zero outside (a, b).  Use
    :func:`bump` for a peak-normalized instance.
    """

    a: float
    b: float
    smoothness: int = 4
    prefactor: tuple = (1.0,)  # ascending coefficients in (x - (a+b)/2)

    kind = "bump"
    decay_order = None

    def __post_init__(self):
        if not self.b > self.a:
            raise ValidationError("bump needs a < b")
        if self.smoothness < 1:
            raise ValidationError("bump smoothness must be >= 1")
        object.__setattr__(self, "prefactor", tuple(complex(c) for c in self.prefactor))
        object.__setattr__(self, "kink_points", (self.a, self.b))

    @property
    def support(self):
        return (self.a, self.b)

    def eval_deriv(self, order, x):
        x = np.asarray(x, dtype=float)
        out = self._deriv_at(order, np.atleast_1d(x) - self.a, self.b - np.atleast_1d(x))
        return out[0] if x.ndim == 0 else out

    def _deriv_at(self, order, xa, bx):
        """f^(order) at the points with distances xa = x - a and bx = b - x
        (zero where either is not positive), by Leibniz over q(s), (x-a)^r
        and (b-x)^r, r = smoothness+1, never expanded: the monomial form
        cancels near the kinks, these do not."""
        inside = (xa > 0) & (bx > 0)
        out = np.zeros(inside.shape, dtype=complex)
        xa, bx, r = xa[inside], bx[inside], self.smoothness + 1
        # the j-th derivatives of (x-a)^r and of (b-x)^r
        left = [math.perm(r, j) * xa ** (r - j) for j in range(min(r, order) + 1)]
        right = [math.perm(r, j) * bx ** (r - j) * (-1) ** j for j in range(min(r, order) + 1)]
        s, acc = 0.5 * (xa - bx), 0.0
        for i in range(min(order, len(self.prefactor) - 1) + 1):
            n = order - i
            both = sum(math.comb(n, j) * left[j] * right[n - j] for j in range(max(0, n - r), min(r, n) + 1))
            acc = acc + math.comb(order, i) * _polyval(_polyder(self.prefactor, i), s) * both
        out[inside] = acc
        return out

    def times_u(self, power=1):
        q = np.asarray(self.prefactor, dtype=complex)
        mid = 0.5 * (self.a + self.b)
        for _ in range(power):
            q = _polymul(q, [mid - 1j, 1.0])
        return BumpFunction(self.a, self.b, self.smoothness, tuple(q))


def bump(a, b, smoothness=4, prefactor=None):
    """Bump on (a, b) scaled so that the value at the midpoint is prefactor(mid)."""
    half = 0.5 * (b - a)
    scale = half ** (-2 * (smoothness + 1))
    pre = (scale,) if prefactor is None else tuple(scale * complex(c) for c in prefactor)
    return BumpFunction(a, b, smoothness, pre)


@dataclass(frozen=True)
class PolynomialFunction(TestFunction):
    """Plain polynomial with ascending coefficients."""

    coefficients: tuple

    kind = "polynomial"

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in self.coefficients))

    @property
    def decay_order(self):
        deg = len(np.trim_zeros(np.asarray(self.coefficients), "b")) - 1
        return -max(deg, 0)

    def degree(self):
        c = np.trim_zeros(np.asarray(self.coefficients), "b")
        return len(c) - 1 if len(c) else -1

    def eval_deriv(self, order, x):
        x = np.asarray(x, dtype=complex)
        c = np.asarray(self.coefficients, dtype=complex)
        return _polyval(_polyder(c, order) if order else c, x)

    def times_u(self, power=1):
        c = np.asarray(self.coefficients, dtype=complex)
        for _ in range(power):
            c = _polymul(c, [-1j, 1.0])
        return PolynomialFunction(tuple(c))


@lru_cache(maxsize=32)
def weight_multiply(f: TestFunction, power: int) -> TestFunction:
    """Multiply f by u^power, u(x) = x - i; cached, since an expansion
    asks for the same few powers of one f."""
    if power < 0:
        raise ValidationError("weight power must be nonnegative")
    if power == 0:
        return f
    return f.times_u(power)


# ---------------------------------------------------------------------------
# divided differences


def _merge_rows(rows):
    """Every row of a (rows, k) array sorted ascending, with each cluster of
    nodes chained by gaps of at most NODE_MERGE_RELTOL * (1 + span) set to
    one value: its common value if its ends are equal, else its
    left-to-right mean (a mean of equal values can land an ulp off them and
    cut a sliver interval), in one pass over the k columns."""
    x = np.asarray(rows, dtype=float)
    tol = NODE_MERGE_RELTOL * (1.0 + (x[:, -1] - x[:, 0]))
    starts = np.ones(x.shape, dtype=bool)
    starts[:, 1:] = np.diff(x, axis=1) > tol[:, None]
    first, total, count = x.copy(), x.copy(), np.ones(x.shape)
    for c in range(1, x.shape[1]):
        joined = ~starts[:, c]
        first[:, c] = np.where(joined, first[:, c - 1], first[:, c])
        total[:, c] = np.where(joined, total[:, c] + total[:, c - 1], total[:, c])
        count[:, c] = np.where(joined, count[:, c - 1] + 1.0, 1.0)
    # the last column of each group holds its full sum; carry it leftwards
    rep = np.where(first == x, x, total / count)
    for c in range(x.shape[1] - 2, -1, -1):
        rep[:, c] = np.where(starts[:, c + 1], rep[:, c], rep[:, c + 1])
    return rep


def divided_difference(f: TestFunction, nodes):
    """Divided difference of order len(nodes)-1, confluent at repeated nodes.

    A 1-D ``nodes`` gives a complex; a (rows, p+1) array gives the array of
    every row's value from one evaluation pass over all rows.  The nodes are
    taken as given: none are merged, and no evaluator divides by a gap."""
    rows = np.asarray(nodes, dtype=float)
    if rows.shape[-1] == 0:
        raise ValidationError("need at least one node")
    zs = np.sort(np.atleast_2d(rows), axis=1)
    if isinstance(f, RationalFunction):
        vals = _rational_divided_difference(f, zs)
    elif isinstance(f, GaussianFunction):
        vals = _gaussian_divided_difference(f, zs)
    elif isinstance(f, BumpFunction):
        vals = _bump_divided_difference(f, zs)
    else:
        vals = _first_row(f.coefficients, zs)[:, -1]
    return complex(vals[0]) if rows.ndim == 1 else vals


def _times_linear(row, d):
    """row <- row (J - z) in place for every row, d = zs - z, with J the Opitz
    matrix of the row's nodes zs (zs on the diagonal, ones above it)."""
    row[:, 1:] = row[:, 1:] * d[:, 1:] + row[:, :-1]
    # not *=: numpy's in-place complex product rounds differently on one
    # element than on many, and a row must not depend on its batch
    row[:, 0] = row[:, 0] * d[:, 0]
    return row


def _first_row(coeffs, d):
    """First row of q(J - z) for ascending coefficients of q, by Horner."""
    row = np.zeros(d.shape, dtype=complex)
    for c in reversed(coeffs):
        _times_linear(row, d)[:, 0] += c
    return row


# rows whose partial-fraction terms exceed |f[z]| by more than this factor
# cancel too much for the residue form; they take the Opitz recurrence
RESIDUE_GUARD = 1e2


@lru_cache(maxsize=32)
def _partial_fractions(factors, scale):
    """((Re p, -Im p), (r, -r)) as columns over the poles p_j of
    scale * prod (x - z)^(-m) when it is proper (decay order >= 1) with
    simple, distinct poles: then f(x) = sum_j r_j / (x - p_j) with
    r_j = scale * prod_{z != p_j} (p_j - z)^(-m), and -r serves odd
    orders.  None for any other rational."""
    zs, ms = [complex(z) for z, _ in factors], [m for _, m in factors]
    if len(set(zs)) < len(zs) or max(ms, default=0) > 1 or sum(ms) < 1:
        return None
    poles = [p for p, m in zip(zs, ms) if m == 1]
    residues = np.array([scale * math.prod((p - z) ** -m for z, m in zip(zs, ms) if z != p) for p in poles], dtype=complex)
    poles = np.array(poles)[:, None]
    return (poles.real.copy(), -poles.imag), (residues[:, None], -residues[:, None])


def _rational_divided_difference(f: RationalFunction, zs):
    """f[zs] for every row of zs.  A proper rational with simple poles
    takes the residue form of its divided difference (de Boor, Surv.
    Approx. Theory 1 (2005)),

        f[z_0..z_p] = (-1)^p sum_j r_j / prod_i (z_i - p_j),

    one broadcast over all rows and poles, with the residues r_j cached per
    (factors, scale).  Rows where sum_j |r_j / prod_i (z_i - p_j)| exceeds
    RESIDUE_GUARD |f[z]| lose too many digits to cancellation (close poles,
    or nodes far from the poles against their spread); they, and every row
    of a rational with a multiple pole or of an improper one, take
    :func:`_opitz_divided_difference`.  Neither path divides by a node gap,
    and each row's value depends on that row alone."""
    parts = _partial_fractions(f.factors, complex(f.scale))
    if parts is None:
        return _opitz_divided_difference(f, zs)
    (re, minus_im), signed = parts
    p = zs.shape[1] - 1
    residues = signed[p % 2]
    vals = np.empty(len(zs), dtype=complex)
    # row chunks keep the (p+1, poles, rows) array near 16 bytes * 2**16 = 1 MB
    step = max(1, 2**16 // (len(re) * (p + 1)))
    for lo in range(0, len(zs), step):
        z = zs[lo : lo + step]
        # z_i - p_j, written part by part: numpy's complex ops are slow on broadcast operands
        d = np.empty((p + 1, len(re), len(z)), dtype=complex)
        np.subtract(z.T[:, None, :], re, out=d.real)
        d.imag = minus_im
        prod = d[0]
        for col in d[1:]:
            prod = prod * col
        terms = residues / prod
        # sums over the poles in index order (accumulate): a row's value does not depend on its batch
        v = vals[lo : lo + step] = np.add.accumulate(terms)[-1]
        bad = (np.add.accumulate(np.abs(terms))[-1] > RESIDUE_GUARD * np.abs(v)).nonzero()[0]
        if bad.size:
            vals[lo + bad] = _opitz_divided_difference(f, z[bad])
    return vals


def _opitz_divided_difference(f: RationalFunction, zs):
    """f[zs] for every row of zs as the last entry of the first row of f(J).
    Each factor (x - z)^(-m) is one bidiagonal solve or product per unit of
    |m|, with pivots x_k - z off the real axis, run over all rows at once;
    nothing divides by a node gap, so close nodes lose no digits."""
    row = np.zeros(zs.shape, dtype=complex)
    row[:, 0] = f.scale
    for z, m in f.factors:
        d = zs - complex(z)
        for _ in range(abs(m)):
            if m < 0:
                _times_linear(row, d)
            else:  # row <- row (J - z)^-1
                row[:, 0] /= d[:, 0]
                for k in range(1, zs.shape[1]):
                    row[:, k] = (row[:, k] - row[:, k - 1]) / d[:, k]
    return row[:, -1]


def _gaussian_divided_difference(f: GaussianFunction, zs):
    """f[zs] for every row of zs as entry (0, p) of f(J) = q(S) exp(-S^2 / (2 w^2)),
    S = J - center: the first rows of q(S) are one Horner pass over all
    rows, the exponential one :func:`_expm` per row."""
    d = zs - f.center
    S, rows = [np.diag(s) + np.eye(len(s), k=1) for s in d], _first_row(f.prefactor, d)
    return np.array([row @ _expm(-(M @ M) / (2.0 * f.width**2))[:, -1] for row, M in zip(rows, S)], dtype=complex)


def _bump_divided_difference(f: BumpFunction, zs):
    """f[zs] for every row of zs.  On rows inside [a, b] f is the polynomial
    P = q(x - mid) (x - a)^r (b - x)^r, r = smoothness + 1: one Horner pass
    and 2r linear factors.  Rows outside (a, b) give 0, rows across a kink
    the Peano identity, which needs p <= r.  More than r equal nodes at a
    kink would need f^(r) there, which does not exist."""
    p, r = zs.shape[1] - 1, f.smoothness + 1
    if any(np.any(np.sum(zs == kink, axis=1) > r) for kink in f.kink_points):
        raise ValidationError(f"nodes require derivative order > {f.smoothness} at a C^{f.smoothness} point")
    first, last = zs[:, 0], zs[:, -1]
    across = ((first < f.a) & (f.a < last)) | ((first < f.b) & (f.b < last))
    if p > r and across.any():
        raise ValidationError(f"a row of order {p} across a kink needs more than C^{f.smoothness}")
    inside = (first >= f.a) & (last <= f.b)
    z = zs[inside]
    row = _first_row(f.prefactor, z - 0.5 * (f.a + f.b))
    for _ in range(r):
        _times_linear(_times_linear(row, z - f.a), z - f.b)
    vals = np.zeros(len(zs), dtype=complex)
    vals[inside] = (-1) ** r * row[:, -1]
    if across.any():
        vals[across] = _peano_divided_difference(f, zs[across])
    return vals


def _peano_divided_difference(f: BumpFunction, zs):
    """f[zs] = integral of f^(p) times the Peano kernel of zs, for rows of a
    bump that is C^(p-1).  Both factors are polynomials between the row's
    knots and the kinks, so Gauss-Legendre is exact there.  The work runs in
    coordinates shifted by the row's first node, and f^(p) comes from the
    distances to a and b: absolute coordinates would round the kernel's
    position by eps |x|, which is large against a narrow row."""
    p, z = zs.shape[1] - 1, zs - zs[:, :1]
    kinks = np.clip(np.array(f.kink_points) - zs[:, :1], 0.0, z[:, -1:])
    grid = np.sort(np.concatenate([z, kinks], axis=1), axis=1)
    mid, half = 0.5 * (grid[:, 1:] + grid[:, :-1]), 0.5 * (grid[:, 1:] - grid[:, :-1])
    kernel = _bspline_levels(z, grid[:, None, :-1], mid[:, None])
    nodes, weights = _gauss_legendre((len(f.prefactor) + 2 * f.smoothness + 2) // 2)
    s = half[..., None] * nodes
    x, start = mid[..., None] + s, zs[:, :1, None]
    kern = _horner(kernel.reshape(-1, p), s.reshape(-1, len(nodes))).reshape(s.shape)
    values = f._deriv_at(p, (start - f.a) + x, (f.b - start) - x) * kern
    return np.sum(values @ weights * half, axis=1)


# Pade-13 coefficients and the 1-norm up to which that approximant needs no scaling
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0, 129060195264000.0,
    10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(A):
    """exp(A) by the [13/13] Pade approximant with scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26 (2005))."""
    norm = np.linalg.norm(A, 1)
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    A = A / 2.0**s
    b, eye = _PADE13, np.eye(len(A))
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


# ---------------------------------------------------------------------------
# weighted-class membership


@dataclass(frozen=True)
class ClassMembership:
    n: int
    k: int
    member: bool
    reason: str


def class_membership(f: TestFunction, n: int, k: int) -> ClassMembership:
    """Analytic decision whether all weighted derivatives (f u^l)^(m),
    l <= k, m <= n, have integrable Fourier transforms.

    The decision is a function of the kind and the decay/smoothness
    bookkeeping only; it never inspects sampled values.
    """
    if n < 0 or k < 0:
        raise ValidationError("orders must be nonnegative")
    if f.kind == "rational":
        d = f.decay_order
        if d >= k + 1:
            return ClassMembership(n, k, True, f"rational with decay order {d} >= k+1 = {k + 1}")
        return ClassMembership(n, k, False, f"rational decay order {d} < k+1 = {k + 1}; f*u^{k} does not vanish at infinity")
    if f.kind == "gaussian":
        return ClassMembership(n, k, True, "Schwartz-type function")
    if f.kind == "bump":
        if f.smoothness >= n + 1:
            return ClassMembership(n, k, True, f"compactly supported C^{f.smoothness} with {f.smoothness} >= n+1")
        return ClassMembership(n, k, False, f"bump is only C^{f.smoothness} < n+1 = {n + 1}")
    if f.kind == "polynomial":
        deg = f.degree()
        if deg < 0:
            return ClassMembership(n, k, True, "identically zero")
        if deg >= 1:
            return ClassMembership(n, k, False, "nonconstant polynomial is unbounded")
        return ClassMembership(n, k, False, "nonzero constant does not vanish at infinity")
    raise ValidationError(f"unknown function kind {f.kind!r}")


# ---------------------------------------------------------------------------
# Peano kernels (B-spline representation of divided differences)


def peano_kernel(nodes) -> PiecewisePolynomial:
    """Density K with divided_difference(f, nodes) = integral of f^(p) * K.

    K is the B-spline over the given knots, merged by :func:`_merge_rows`,
    scaled to total mass 1/p!.  All-equal node tuples yield a pure atom of
    mass 1/p! at the common value; otherwise the kernel is built by the
    Cox-de Boor recursion on exact piecewise-polynomial arithmetic.
    """
    zs = _merge_rows(np.sort(np.asarray(nodes, dtype=float))[None])[0].tolist()
    p = len(zs) - 1
    if p < 1:
        raise ValidationError("a kernel needs at least two nodes")
    if zs[0] == zs[-1]:
        return PiecewisePolynomial.atom(zs[0], 1.0 / math.factorial(p))
    return _bspline_kernel(tuple(zs))


@lru_cache(maxsize=4096)
def _bspline_kernel(knots):
    zs = list(knots)
    p = len(zs) - 1
    grid = np.array(sorted(set(zs)), dtype=float)
    zero = PiecewisePolynomial(grid, tuple(np.zeros(1) for _ in range(len(grid) - 1)))

    def indicator(i):
        if zs[i + 1] > zs[i]:
            lo = np.searchsorted(grid, zs[i])
            hi = np.searchsorted(grid, zs[i + 1])
            coeffs = [np.ones(1) if lo <= j < hi else np.zeros(1) for j in range(len(grid) - 1)]
            return PiecewisePolynomial(grid, tuple(coeffs))
        return zero

    level = [indicator(i) for i in range(p)]
    for k in range(1, p):
        nxt = []
        for i in range(p - k):
            acc = zero
            if zs[i + k] > zs[i]:
                acc = acc + level[i].multiply_linear(-zs[i], 1.0).scaled(1.0 / (zs[i + k] - zs[i]))
            if zs[i + k + 1] > zs[i + 1]:
                acc = acc + level[i + 1].multiply_linear(zs[i + k + 1], -1.0).scaled(
                    1.0 / (zs[i + k + 1] - zs[i + 1])
                )
            nxt.append(acc)
        level = nxt
    n_spline = level[0]
    return n_spline.scaled(1.0 / ((zs[-1] - zs[0]) * math.factorial(p - 1)))


def _bspline_levels(z, lo, mid):
    """Peano kernels of the knot rows z (shape (kernels, p+1)) on the grid
    intervals [lo_j, lo_{j+1}) of one grid, or of one grid per kernel given
    as shape (kernels, 1, intervals): shape (kernels, intervals, p),
    ascending coefficients in x - mid_j.  Each level multiplies by the linear factors (x - z_i)/(z_{i+k} - z_i)
    and (z_{i+k+1} - x)/(z_{i+k+1} - z_{i+1}) of :func:`_bspline_kernel`;
    empty knot spans contribute nothing."""
    p = z.shape[1] - 1
    # level 0: indicators of [z_i, z_{i+1}), which are unions of grid intervals
    level = ((z[:, :-1, None] <= lo) & (lo < z[:, 1:, None]))[..., None].astype(float)

    def times_linear(c, a, b):
        # c * (a + b s) in the midpoint variable s = x - mid
        out = np.zeros(c.shape[:-1] + (c.shape[-1] + 1,))
        out[..., :-1] = c * a[..., None]
        out[..., 1:] += b * c
        return out

    def inverse_span(span):
        return np.divide(1.0, span, out=np.zeros_like(span), where=span > 0)[..., None, None]

    for k in range(1, p):
        inv_l = inverse_span(z[:, k:p] - z[:, : p - k])
        inv_r = inverse_span(z[:, k + 1 :] - z[:, 1 : p - k + 1])
        left = times_linear(level[:, :-1], mid - z[:, : p - k, None], 1.0)
        right = times_linear(level[:, 1:], z[:, k + 1 :, None] - mid, -1.0)
        level = left * inv_l + right * inv_r
    return level[:, 0] / ((z[:, -1] - z[:, 0]) * math.factorial(p - 1))[:, None, None]


def leibniz_weighted_sup_bound(n: int, k: int, a: float, p: int) -> float:
    """Explicit constant c with sup |(f u^k)^(p)| <= c * sup |f^(n)|
    for every f supported in (-a, a) with n continuous derivatives.

    Combines the product rule, |u| <= sqrt(1+a^2) on (-a, a), and the
    mean-value bound sup|f^(j)| <= (2a)^(n-j) sup|f^(n)|.
    """
    if p > n:
        raise ValidationError("derivative order exceeds available smoothness")
    total = 0.0
    mod_u = math.sqrt(1.0 + a * a)
    for j in range(0, p + 1):
        q = p - j  # derivative order falling on u^k
        if q > k:
            continue
        falling = math.prod(range(k - q + 1, k + 1)) if q else 1
        total += math.comb(p, j) * (2.0 * a) ** (n - j) * falling * mod_u ** (k - q)
    return total
