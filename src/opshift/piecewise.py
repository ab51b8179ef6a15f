"""Piecewise polynomials with exact arithmetic.

A :class:`PiecewisePolynomial` stores breakpoints and, per interval,
monomial coefficients centered at the interval midpoint.  Optional
atomic parts (weighted point masses) and semi-infinite polynomial
tails are supported; densities built from Peano kernels are compactly
supported, while repeated antiderivatives of step functions need the
tails.  All manipulations (sums, linear multiplications,
antiderivatives, integrals against derivatives of smooth functions)
are closed form; no quadrature is involved unless stated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import ValidationError

__all__ = [
    "PiecewisePolynomial",
    "DiscreteMeasure",
    "integral_against_derivative",
    "weighted_abs_integral",
]


def _shift_coeffs(coeffs, delta):
    """Coefficients of p(s + delta) given ascending coefficients of p(s)."""
    c = np.asarray(coeffs)
    n = len(c)
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        if c[j] == 0:
            continue
        for k in range(j + 1):
            out[k] += c[j] * math.comb(j, k) * delta ** (j - k)
    return out


def _polymul(a, b):
    return np.convolve(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _polyval(coeffs, x):
    c = np.asarray(coeffs)
    if len(c) == 0:
        return np.zeros_like(np.asarray(x, dtype=complex))
    return np.polynomial.polynomial.polyval(x, c)


def _polyder(coeffs, order=1):
    return np.polynomial.polynomial.polyder(np.asarray(coeffs, dtype=complex), order)


def _polyint(coeffs):
    return np.polynomial.polynomial.polyint(np.asarray(coeffs, dtype=complex))


def _trim(coeffs, tol=0.0):
    c = np.asarray(coeffs, dtype=complex)
    nz = np.nonzero(np.abs(c) > tol)[0]
    if len(nz) == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1]


def _real_roots_in(coeffs, lo, hi):
    """Real roots of a (real-part) polynomial strictly inside (lo, hi)."""
    c = np.real(np.asarray(coeffs, dtype=complex))
    scale = np.max(np.abs(c)) if len(c) else 0.0
    if scale == 0.0:
        return []
    c = np.trim_zeros(c, "b")
    if len(c) <= 1:
        return []
    # leading coefficients that are pure noise destabilize np.roots
    while len(c) > 1 and abs(c[-1]) < 1e-13 * scale:
        c = c[:-1]
    if len(c) <= 1:
        return []
    roots = np.roots(c[::-1])
    out = []
    for r in roots:
        if abs(r.imag) < 1e-9 * (1.0 + abs(r.real)) and lo < r.real < hi:
            out.append(float(r.real))
    return sorted(out)


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Breakpoint-based polynomial density with optional atoms and tails."""

    breakpoints: np.ndarray
    coeffs: tuple  # one ascending coefficient array per interval, centered at midpoints
    atoms: tuple = ()  # ((x, mass), ...)
    left_tail: np.ndarray | None = None  # centered at breakpoints[0]
    right_tail: np.ndarray | None = None  # centered at breakpoints[-1]

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.ndim != 1 or len(bp) < 1:
            raise ValidationError("breakpoints must be a nonempty 1-d list")
        if np.any(np.diff(bp) <= 0):
            raise ValidationError("breakpoints must be strictly ascending")
        if len(self.coeffs) != len(bp) - 1:
            raise ValidationError("need one coefficient row per interval")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(
            self, "coeffs", tuple(np.asarray(c, dtype=complex) for c in self.coeffs)
        )
        bp.setflags(write=False)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(breakpoints=(0.0, 1.0)):
        bp = np.asarray(breakpoints, dtype=float)
        return PiecewisePolynomial(bp, tuple(np.zeros(1) for _ in range(len(bp) - 1)))

    @staticmethod
    def indicator(a, b):
        """Indicator of [a, b)."""
        if not b > a:
            raise ValidationError("indicator needs a < b")
        return PiecewisePolynomial(np.array([a, b]), (np.ones(1),))

    @staticmethod
    def atom(x, mass):
        return PiecewisePolynomial(np.array([float(x)]), (), atoms=((float(x), complex(mass)),))

    @staticmethod
    def step(breakpoints, values, left_value=0.0, right_value=None):
        """Right-continuous step function with semi-infinite constant tails."""
        bp = np.asarray(breakpoints, dtype=float)
        vals = list(values)
        if len(vals) != len(bp) - 1:
            raise ValidationError("need one value per interval")
        if right_value is None:
            right_value = vals[-1] if vals else left_value
        return PiecewisePolynomial(
            bp,
            tuple(np.array([v], dtype=complex) for v in vals),
            left_tail=np.array([left_value], dtype=complex),
            right_tail=np.array([right_value], dtype=complex),
        )

    # -- basic queries ------------------------------------------------

    def support(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def degree(self):
        degs = [len(_trim(c)) - 1 for c in self.coeffs]
        for t in (self.left_tail, self.right_tail):
            if t is not None:
                degs.append(len(_trim(t)) - 1)
        return max(degs) if degs else 0

    def _midpoints(self):
        return 0.5 * (self.breakpoints[:-1] + self.breakpoints[1:])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        out = np.zeros(xv.shape, dtype=complex)
        bp = self.breakpoints
        idx = np.searchsorted(bp, xv, side="right") - 1
        mids = self._midpoints()
        for i in range(len(bp) - 1):
            mask = idx == i
            if np.any(mask):
                out[mask] = _polyval(self.coeffs[i], xv[mask] - mids[i])
        # right boundary belongs to the last interval when no tail is present
        if self.right_tail is None and len(bp) > 1:
            mask = xv == bp[-1]
            if np.any(mask):
                out[mask] = _polyval(self.coeffs[-1], xv[mask] - mids[-1])
        if self.left_tail is not None:
            mask = xv < bp[0]
            if np.any(mask):
                out[mask] = _polyval(self.left_tail, xv[mask] - bp[0])
        if self.right_tail is not None:
            mask = xv >= bp[-1]
            if np.any(mask):
                out[mask] = _polyval(self.right_tail, xv[mask] - bp[-1])
        return out[0] if scalar else out

    # -- algebra ------------------------------------------------------

    def refined(self, new_breakpoints):
        """Same function expressed on a grid containing the old breakpoints."""
        bp_new = np.union1d(self.breakpoints, np.asarray(new_breakpoints, dtype=float))
        mids_new = 0.5 * (bp_new[:-1] + bp_new[1:])
        mids_old = self._midpoints()
        coeffs = []
        for i, m_new in enumerate(mids_new):
            lo = bp_new[i]
            j = np.searchsorted(self.breakpoints, lo, side="right") - 1
            if 0 <= j < len(self.coeffs):
                coeffs.append(_shift_coeffs(self.coeffs[j], m_new - mids_old[j]))
            elif j < 0 and self.left_tail is not None:
                coeffs.append(_shift_coeffs(self.left_tail, m_new - self.breakpoints[0]))
            elif j >= len(self.coeffs) and self.right_tail is not None:
                coeffs.append(_shift_coeffs(self.right_tail, m_new - self.breakpoints[-1]))
            else:
                coeffs.append(np.zeros(1, dtype=complex))
        lt = None if self.left_tail is None else _shift_coeffs(self.left_tail, bp_new[0] - self.breakpoints[0])
        rt = None if self.right_tail is None else _shift_coeffs(self.right_tail, bp_new[-1] - self.breakpoints[-1])
        return PiecewisePolynomial(bp_new, tuple(coeffs), self.atoms, lt, rt)

    def __add__(self, other):
        if not isinstance(other, PiecewisePolynomial):
            return NotImplemented
        bp = np.union1d(self.breakpoints, other.breakpoints)
        a = self.refined(bp)
        b = other.refined(bp)

        def _padsum(x, y):
            n = max(len(x), len(y))
            out = np.zeros(n, dtype=complex)
            out[: len(x)] += x
            out[: len(y)] += y
            return out

        coeffs = tuple(_padsum(ca, cb) for ca, cb in zip(a.coeffs, b.coeffs))

        def _tailsum(ta, tb):
            if ta is None and tb is None:
                return None
            return _padsum(
                ta if ta is not None else np.zeros(1),
                tb if tb is not None else np.zeros(1),
            )

        atom_acc = {}
        for x, w in tuple(a.atoms) + tuple(b.atoms):
            atom_acc[x] = atom_acc.get(x, 0.0) + w
        atoms = tuple(sorted(atom_acc.items()))
        return PiecewisePolynomial(
            bp, coeffs, atoms, _tailsum(a.left_tail, b.left_tail), _tailsum(a.right_tail, b.right_tail)
        )

    def scaled(self, factor):
        factor = complex(factor)
        return PiecewisePolynomial(
            self.breakpoints,
            tuple(c * factor for c in self.coeffs),
            tuple((x, w * factor) for x, w in self.atoms),
            None if self.left_tail is None else self.left_tail * factor,
            None if self.right_tail is None else self.right_tail * factor,
        )

    def __neg__(self):
        return self.scaled(-1.0)

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def multiply_linear(self, c0, c1=1.0):
        """Multiply the density by (c0 + c1*x); atom masses scale by the value."""
        mids = self._midpoints()
        coeffs = tuple(
            _polymul(c, [c0 + c1 * m, c1]) for c, m in zip(self.coeffs, mids)
        )
        lt = None if self.left_tail is None else _polymul(self.left_tail, [c0 + c1 * self.breakpoints[0], c1])
        rt = None if self.right_tail is None else _polymul(self.right_tail, [c0 + c1 * self.breakpoints[-1], c1])
        atoms = tuple((x, w * (c0 + c1 * x)) for x, w in self.atoms)
        return PiecewisePolynomial(self.breakpoints, coeffs, atoms, lt, rt)

    def real_part(self):
        return PiecewisePolynomial(
            self.breakpoints,
            tuple(np.real(c).astype(complex) for c in self.coeffs),
            tuple((x, complex(w.real)) for x, w in self.atoms),
            None if self.left_tail is None else np.real(self.left_tail).astype(complex),
            None if self.right_tail is None else np.real(self.right_tail).astype(complex),
        )

    def imag_magnitude(self):
        """Largest imaginary coefficient/atom magnitude (roundoff diagnostic)."""
        vals = [0.0]
        for c in self.coeffs:
            if len(c):
                vals.append(float(np.max(np.abs(np.imag(c)))))
        for _, w in self.atoms:
            vals.append(abs(complex(w).imag))
        for t in (self.left_tail, self.right_tail):
            if t is not None and len(t):
                vals.append(float(np.max(np.abs(np.imag(t)))))
        return max(vals)

    def coefficient_scale(self):
        vals = [0.0]
        for c in self.coeffs:
            if len(c):
                vals.append(float(np.max(np.abs(c))))
        for _, w in self.atoms:
            vals.append(abs(complex(w)))
        return max(vals)

    def atomic_mass(self):
        return float(sum(abs(complex(w)) for _, w in self.atoms))

    # -- calculus -----------------------------------------------------

    def antiderivative(self, base=0.0):
        """Continuous antiderivative F with F(base) = 0 (density part only).

        Atoms are not allowed here; cumulative functions of discrete
        measures are built by :meth:`DiscreteMeasure.cumulative`.
        """
        if self.atoms:
            raise ValidationError("antiderivative of an atomic part is a step; use DiscreteMeasure")
        bp = self.breakpoints
        mids = self._midpoints()
        prim = [_polyint(c) for c in self.coeffs]
        # accumulate continuity constants from the leftmost finite breakpoint
        consts = np.zeros(len(self.coeffs) + 1, dtype=complex)
        running = 0.0 + 0.0j
        for i, p in enumerate(prim):
            h = 0.5 * (bp[i + 1] - bp[i])
            lo = _polyval(p, -h)
            hi = _polyval(p, h)
            consts[i] = running - lo
            running = running + (hi - lo)
        consts[len(self.coeffs)] = running

        coeffs = []
        for i, p in enumerate(prim):
            q = p.copy()
            q[0] += consts[i]
            coeffs.append(q)
        lt = None
        rt = None
        if self.left_tail is not None:
            q = _polyint(self.left_tail)
            q[0] += 0.0 - _polyval(q, 0.0)  # F(bp[0]) = 0 before offsetting
            lt = q
        if self.right_tail is not None:
            q = _polyint(self.right_tail)
            q[0] += consts[-1] - _polyval(q, 0.0)
            rt = q
        if self.left_tail is None and self.right_tail is None:
            # constant outside the support of the density
            lt = np.array([0.0 + 0.0j])
            rt = np.array([consts[-1]])
        out = PiecewisePolynomial(bp, tuple(coeffs), (), lt, rt)
        return _offset(out, -complex(out(base)))

    def lebesgue_integral(self):
        """Integral of the density part over the real line (tails must vanish)."""
        for t in (self.left_tail, self.right_tail):
            if t is not None and np.any(np.abs(t) > 0):
                raise ValidationError("integral of a function with nonzero tails diverges")
        total = 0.0 + 0.0j
        bp = self.breakpoints
        for i, c in enumerate(self.coeffs):
            h = 0.5 * (bp[i + 1] - bp[i])
            p = _polyint(c)
            total += _polyval(p, h) - _polyval(p, -h)
        return total

    def l1_norm(self):
        """Exact integral of |real part| plus total atomic variation."""
        for t in (self.left_tail, self.right_tail):
            if t is not None and np.any(np.abs(t) > 0):
                raise ValidationError("l1_norm needs a compactly supported density")
        total = 0.0
        bp = self.breakpoints
        mids = self._midpoints()
        for i, c in enumerate(self.coeffs):
            lo, hi = bp[i], bp[i + 1]
            cr = np.real(c)
            pts = [lo] + [mids[i] + r for r in _real_roots_in(cr, lo - mids[i], hi - mids[i])] + [hi]
            p = _polyint(cr)
            for a, b in zip(pts[:-1], pts[1:]):
                seg = _polyval(p, b - mids[i]) - _polyval(p, a - mids[i])
                total += abs(np.real(seg))
        return total + self.atomic_mass()

    # -- serialization -------------------------------------------------

    def to_json_dict(self, imag_tol=1e-9):
        """JSON-ready dict: {breakpoints, coeffs, atoms} (real coefficients)."""
        if self.imag_magnitude() > imag_tol * (1.0 + self.coefficient_scale()):
            raise ValidationError("refusing to serialize a density with a large imaginary part")
        out = {
            "breakpoints": [float(b) for b in self.breakpoints],
            "coeffs": [[float(v.real) for v in c] for c in self.coeffs],
            "atoms": [{"x": float(x), "mass": float(complex(w).real)} for x, w in self.atoms],
        }
        if self.left_tail is not None:
            out["left_tail"] = [float(v.real) for v in self.left_tail]
        if self.right_tail is not None:
            out["right_tail"] = [float(v.real) for v in self.right_tail]
        return out

    def to_json(self, **kw):
        return json.dumps(self.to_json_dict(**kw), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json_dict(d):
        return PiecewisePolynomial(
            np.asarray(d["breakpoints"], dtype=float),
            tuple(np.asarray(c, dtype=complex) for c in d["coeffs"]),
            tuple((a["x"], complex(a["mass"])) for a in d.get("atoms", [])),
            None if "left_tail" not in d else np.asarray(d["left_tail"], dtype=complex),
            None if "right_tail" not in d else np.asarray(d["right_tail"], dtype=complex),
        )

    @staticmethod
    def from_json(s):
        return PiecewisePolynomial.from_json_dict(json.loads(s))

    def sample_rows(self, grid):
        """(x, value) rows on a grid, for CSV export."""
        vals = self(np.asarray(grid, dtype=float))
        return [(float(x), float(np.real(v))) for x, v in zip(grid, np.atleast_1d(vals))]


def _offset(pp: PiecewisePolynomial, c):
    def bump(t):
        if t is None:
            return None
        out = t.copy()
        out[0] += c
        return out

    coeffs = []
    for arr in pp.coeffs:
        q = arr.copy()
        q[0] += c
        coeffs.append(q)
    return PiecewisePolynomial(pp.breakpoints, tuple(coeffs), pp.atoms, bump(pp.left_tail), bump(pp.right_tail))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many weighted point masses."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=complex)
        if pts.shape != wts.shape or pts.ndim != 1:
            raise ValidationError("points and weights must be 1-d and of equal length")
        order = np.argsort(pts, kind="stable")
        object.__setattr__(self, "points", pts[order])
        object.__setattr__(self, "weights", wts[order])

    def total_variation(self):
        return float(np.sum(np.abs(self.weights)))

    def integrate(self, func):
        if len(self.points) == 0:
            return 0.0 + 0.0j
        return complex(np.sum(self.weights * np.asarray(func(self.points), dtype=complex)))

    def cumulative(self, value_at_point=None):
        """Step function x -> integral over (0, x] (signed for x < 0).

        ``value_at_point`` maps mass locations to the integrand value
        (defaults to 1), so cumulative(u**m) realizes x -> int_0^x u^m dmu.
        """
        if len(self.points) == 0:
            return PiecewisePolynomial.step(np.array([0.0, 1.0]), [0.0], 0.0, 0.0)
        vals = np.ones(len(self.points), dtype=complex)
        if value_at_point is not None:
            vals = np.asarray(value_at_point(self.points), dtype=complex)
        masses = self.weights * vals
        xs, inv = np.unique(self.points, return_inverse=True)
        jumps = np.zeros(len(xs), dtype=complex)
        for i, m in zip(inv, masses):
            jumps[i] += m
        cum = np.cumsum(jumps)
        g0 = complex(cum[np.searchsorted(xs, 0.0, side="right") - 1]) if xs[0] <= 0.0 else 0.0
        if len(xs) == 1:
            bp = np.array([xs[0], xs[0] + 1.0])
            return PiecewisePolynomial.step(bp, [cum[0] - g0], -g0, cum[0] - g0)
        values = [complex(cum[i]) - g0 for i in range(len(xs) - 1)]
        return PiecewisePolynomial.step(xs, values, -g0, complex(cum[-1]) - g0)


def integral_against_derivative(f, order, pp: PiecewisePolynomial, include_atoms=True):
    """Closed-form integral of f^(order) times the density, plus atom terms.

    Uses repeated integration by parts on each interval: the density is
    polynomial per piece, so the integral reduces to boundary evaluations
    of lower derivatives of f.  Tail pieces assume that the boundary
    products vanish at infinity, which holds for every decaying test
    function paired with the polynomially growing antiderivatives used
    here.  Atoms contribute mass * f^(order)(x).
    """
    bp = pp.breakpoints
    mids = pp._midpoints()
    total = 0.0 + 0.0j

    def piece_integral(coeffs, center, lo, hi):
        # int_lo^hi f^(order)(x) q(x-center) dx by parts; q^(deg+1) = 0
        acc = 0.0 + 0.0j
        q = np.asarray(coeffs, dtype=complex)
        for j in range(len(q)):
            if order - 1 - j < 0:
                # density degree reaches the derivative order: integrate the rest directly
                rest = _polyder(q, j) if j else q
                a = -np.inf if lo is None else lo
                b = np.inf if hi is None else hi
                val, _ = _quad_complex(lambda x: f.eval_deriv(0, x) * _polyval(rest, x - center), a, b)
                acc += (-1.0) ** j * val
                return acc
            qj = _polyder(q, j) if j else q
            hi_term = 0.0 if hi is None else f.eval_deriv(order - 1 - j, hi) * _polyval(qj, hi - center)
            lo_term = 0.0 if lo is None else f.eval_deriv(order - 1 - j, lo) * _polyval(qj, lo - center)
            acc += (-1.0) ** j * (hi_term - lo_term)
        return acc

    kinks = [k for k in getattr(f, "kink_points", ()) ]
    grid = np.union1d(bp, [k for k in kinks if bp[0] < k < bp[-1]]) if kinks else bp
    ppr = pp.refined(grid) if len(grid) != len(bp) else pp
    bp = ppr.breakpoints
    mids = ppr._midpoints()
    for i, c in enumerate(ppr.coeffs):
        total += piece_integral(c, mids[i], bp[i], bp[i + 1])
    if ppr.left_tail is not None and np.any(np.abs(ppr.left_tail) > 0):
        total += piece_integral(ppr.left_tail, bp[0], None, bp[0])
    if ppr.right_tail is not None and np.any(np.abs(ppr.right_tail) > 0):
        total += piece_integral(ppr.right_tail, bp[-1], bp[-1], None)
    if include_atoms:
        for x, w in ppr.atoms:
            total += w * f.eval_deriv(order, x)
    return total


def _quad_complex(func, lo, hi, **kw):
    re, re_err = quad(lambda x: np.real(func(x)), lo, hi, limit=200, **kw)
    im, im_err = quad(lambda x: np.imag(func(x)), lo, hi, limit=200, **kw)
    return re + 1j * im, re_err + im_err


def weighted_abs_integral(pp: PiecewisePolynomial, weight_exponent, include_atoms=True):
    """Exact integral of |density(x)| * (1+|x|)^(-w) for real densities.

    Intervals are split at 0 and at the real roots of each polynomial
    piece, after which every segment integrates in closed form in the
    shifted basis (1+|x|)^j.  Polynomial tails are admitted when the
    weight dominates their growth.
    """
    w = int(weight_exponent)

    def seg_integral(coeffs, center, lo, hi):
        # |x| does not change sign inside (lo, hi)
        c = np.real(np.asarray(coeffs, dtype=complex))
        if hi is not None and lo is not None and hi <= lo:
            return 0.0
        if lo is not None and lo >= 0:
            # y = 1 + x
            q = _shift_coeffs(c, -(1.0 + center))  # p as polynomial in y... see below
            q = np.real(q)
            a = 1.0 + lo
            b = None if hi is None else 1.0 + hi
        else:
            # segment in x <= 0: y = 1 - x, descending in x
            q = np.real(_reflect_coeffs(c, 1.0 - center))
            a = 1.0 if hi is None else 1.0 - hi
            b = None if lo is None else 1.0 - lo
            a, b = (a, b)
        total = 0.0
        for k, qk in enumerate(q):
            if qk == 0.0:
                continue
            e = k - w
            if b is None:
                if e >= -1:
                    raise ValidationError("tail grows too fast for this weight")
                total += -qk * a ** (e + 1) / (e + 1)
            elif e == -1:
                total += qk * (math.log(b) - math.log(a))
            else:
                total += qk * (b ** (e + 1) - a ** (e + 1)) / (e + 1)
        return total

    bp = list(pp.breakpoints)
    if bp[0] < 0.0 < bp[-1]:
        ppr = pp.refined(np.array([0.0]))
    else:
        ppr = pp
    bp = ppr.breakpoints
    mids = ppr._midpoints()
    total = 0.0
    for i, c in enumerate(ppr.coeffs):
        lo, hi = bp[i], bp[i + 1]
        roots = [mids[i] + r for r in _real_roots_in(np.real(c), lo - mids[i], hi - mids[i])]
        pts = [lo] + roots + [hi]
        for a, b in zip(pts[:-1], pts[1:]):
            val = seg_integral(c, mids[i], a, b)
            total += abs(val)
    for tail, side in ((ppr.left_tail, "L"), (ppr.right_tail, "R")):
        if tail is None or not np.any(np.abs(tail) > 0):
            continue
        # split the tail at its real roots out to where sign is settled
        center = bp[0] if side == "L" else bp[-1]
        far = 1e9
        roots = _real_roots_in(np.real(tail), -far if side == "L" else 0.0, 0.0 if side == "L" else far)
        pts = sorted(center + r for r in roots)
        if side == "R":
            edges = [bp[-1]] + pts
            for a, b in zip(edges[:-1], edges[1:]):
                total += abs(seg_integral(tail, center, a, b))
            total += abs(seg_integral(tail, center, edges[-1], None))
        else:
            edges = pts + [bp[0]]
            total += abs(seg_integral(tail, center, None, edges[0]))
            for a, b in zip(edges[:-1], edges[1:]):
                total += abs(seg_integral(tail, center, a, b))
    if include_atoms:
        for x, m in ppr.atoms:
            total += abs(complex(m)) * (1.0 + abs(x)) ** (-w)
    return total


def _reflect_coeffs(coeffs, delta):
    """Coefficients in y of p(s) with s = delta - y (s centered as given)."""
    c = np.asarray(coeffs, dtype=complex)
    out = np.zeros(len(c), dtype=complex)
    for j in range(len(c)):
        if c[j] == 0:
            continue
        # s^j = (delta - y)^j
        for k in range(j + 1):
            out[k] += c[j] * math.comb(j, k) * delta ** (j - k) * (-1.0) ** k
    return out
