"""Piecewise polynomials and integrals against them.

A :class:`PiecewisePolynomial` stores breakpoints and, per interval, one
row of monomial coefficients centered at the interval midpoint, all rows
in one (intervals, degree+1) array.  It is the one type for measures:
optional atoms (weighted point masses, built by
:meth:`PiecewisePolynomial.atom`) and semi-infinite polynomial tails are
supported.  Densities built from Peano kernels are compactly supported,
while antiderivatives, which jump at the atoms, need the tails.  Sums,
linear multiplications and antiderivatives are exact.

Integrals of a factor g against the finite intervals (the trace side
``f^(m)`` against a shift density, weighted L1 norms) go through one
split Gauss-Legendre rule: each interval is cut at the factor's kinks,
and for absolute values at the real roots of its piece, then into equal
pieces short enough for every piece to sit inside a large Bernstein
ellipse of the factor (Trefethen, *Approximation Theory and
Approximation Practice*, ch. 19).  The rule is exact when g is a
polynomial between kinks and accurate to rounding when g is analytic
near the real axis.  Tails integrate by parts in closed form against
f^(m), and atoms exactly; the weighted norms take compactly supported
densities only.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

__all__ = [
    "PiecewisePolynomial",
    "integral_against_derivative",
    "weighted_abs_integral",
    "weighted_abs_integrals",
]


def _shift_rows(rows, delta):
    """Ascending coefficients of p_i(s + delta_i) for each row p_i of ``rows``."""
    rows = np.asarray(rows, dtype=complex)
    n = rows.shape[-1]
    j, k = np.indices((n, n))
    binom = np.array([[math.comb(a, b) for b in range(n)] for a in range(n)], dtype=float)
    mats = binom * np.asarray(delta, dtype=float)[:, None, None] ** np.maximum(j - k, 0)
    return np.einsum("rj,rjk->rk", rows, mats)


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


def _horner(rows, s, dtype=complex):
    """Row i of ``rows`` (ascending coefficients) evaluated at s[i], where
    s has shape (len(rows),) or (len(rows), k)."""
    rows = rows.reshape(rows.shape[:1] + (1,) * (s.ndim - 1) + rows.shape[1:])
    out = np.zeros(s.shape, dtype=dtype)
    for d in range(rows.shape[-1] - 1, -1, -1):
        out = out * s + rows[..., d]
    return out


def _widen(rows, width):
    """Zero-pad the last axis of ``rows`` to ``width`` coefficients."""
    pad = [(0, 0)] * (rows.ndim - 1) + [(0, width - rows.shape[-1])]
    return np.pad(rows, pad)


def _joined(arrays):
    """``np.concatenate`` of 1-d arrays; one array is returned as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _stack_rows(arrays):
    """The rows of 2-d arrays one after another, zero-padded on the right
    to the widest; one array is returned as it is."""
    if len(arrays) == 1:
        return arrays[0]
    out = np.zeros((sum(len(a) for a in arrays), max(a.shape[1] for a in arrays)), dtype=np.result_type(*arrays))
    at = 0
    for a in arrays:
        out[at : at + len(a), : a.shape[1]] = a
        at += len(a)
    return out


def _padsum(x, y):
    width = max(x.shape[-1], y.shape[-1])
    return _widen(x, width) + _widen(y, width)


def _distinct(*arrays):
    """Sorted distinct entries of the arrays together, bit for bit those of
    ``np.union1d``/``np.unique``: one sort and a neighbour mask.  Both numpy
    functions import ``numpy.ma`` on first use (about 1.7 MB of RSS)."""
    values = np.sort(np.concatenate([np.ravel(a) for a in arrays]))
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _as_rows(coeffs):
    """One (intervals, degree+1) complex array from rows of any lengths."""
    if isinstance(coeffs, np.ndarray) and coeffs.ndim == 2:
        return coeffs.astype(complex, copy=False)
    rows = [np.atleast_1d(np.asarray(c, dtype=complex)) for c in coeffs]
    out = np.zeros((len(rows), max((len(r) for r in rows), default=1)), dtype=complex)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Breakpoint-based polynomial density with optional atoms and tails."""

    breakpoints: np.ndarray
    coeffs: np.ndarray  # (intervals, degree+1): ascending, centered at midpoints; iterates by interval
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
        object.__setattr__(self, "coeffs", _as_rows(self.coeffs))
        bp.setflags(write=False)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(breakpoints=(0.0, 1.0)):
        bp = np.asarray(breakpoints, dtype=float)
        return PiecewisePolynomial(bp, np.zeros((len(bp) - 1, 1)))

    @staticmethod
    def indicator(a, b):
        """Indicator of [a, b)."""
        if not b > a:
            raise ValidationError("indicator needs a < b")
        return PiecewisePolynomial(np.array([a, b]), (np.ones(1),))

    @staticmethod
    def atom(points, masses):
        """Point masses at ``points``; masses at coinciding points add up,
        and no points give :meth:`zero`."""
        xs, where = np.unique(np.atleast_1d(np.asarray(points, dtype=float)), return_inverse=True)
        masses = np.atleast_1d(np.asarray(masses, dtype=complex))
        if masses.shape != where.shape:
            raise ValidationError("need one mass per point")
        if not len(xs):
            return PiecewisePolynomial.zero()
        total = np.zeros(len(xs), dtype=complex)
        np.add.at(total, where, masses)
        return PiecewisePolynomial(xs, np.zeros((len(xs) - 1, 1)), tuple(zip(xs.tolist(), total.tolist())))

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
            np.array(vals, dtype=complex).reshape(-1, 1),
            left_tail=np.array([left_value], dtype=complex),
            right_tail=np.array([right_value], dtype=complex),
        )

    # -- basic queries ------------------------------------------------

    def support(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def degree(self):
        live = np.flatnonzero(np.any(self.coeffs != 0, axis=0))
        degs = [live[-1] if len(live) else 0]
        for t in (self.left_tail, self.right_tail):
            if t is not None:
                degs.append(len(_trim(t)) - 1)
        return int(max(degs))

    def _midpoints(self):
        return 0.5 * (self.breakpoints[:-1] + self.breakpoints[1:])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        xv = np.atleast_1d(x)
        out = np.zeros(xv.shape, dtype=complex)
        bp = self.breakpoints
        n = len(bp) - 1
        if n:
            idx = np.searchsorted(bp, xv, side="right") - 1
            # right boundary belongs to the last interval when no tail is present
            if self.right_tail is None:
                idx[xv == bp[-1]] = n - 1
            inside = (idx >= 0) & (idx < n)
            j = idx[inside]
            out[inside] = _horner(self.coeffs[j], xv[inside] - self._midpoints()[j])
        if self.left_tail is not None:
            mask = xv < bp[0]
            out[mask] = _polyval(self.left_tail, xv[mask] - bp[0])
        if self.right_tail is not None:
            mask = xv >= bp[-1]
            out[mask] = _polyval(self.right_tail, xv[mask] - bp[-1])
        return out[0] if x.ndim == 0 else out

    # -- algebra ------------------------------------------------------

    def refined(self, new_breakpoints):
        """Same function expressed on a grid containing the old breakpoints."""
        bp = self.breakpoints
        bp_new = _distinct(bp, np.asarray(new_breakpoints, dtype=float))
        mids_new = 0.5 * (bp_new[:-1] + bp_new[1:])
        # source rows: the left tail (or zero), every interval, the right tail (or zero)
        zero = np.zeros(1, dtype=complex)
        lt = zero if self.left_tail is None else self.left_tail
        rt = zero if self.right_tail is None else self.right_tail
        width = max(self.coeffs.shape[1], len(lt), len(rt))
        src = np.vstack([_widen(lt, width), _widen(self.coeffs, width), _widen(rt, width)])
        centers = np.concatenate([bp[:1], self._midpoints(), bp[-1:]])
        owner = np.searchsorted(bp, bp_new[:-1], side="right")
        coeffs = _shift_rows(src[owner], mids_new - centers[owner])
        lt = None if self.left_tail is None else _shift_rows(self.left_tail[None], [bp_new[0] - bp[0]])[0]
        rt = None if self.right_tail is None else _shift_rows(self.right_tail[None], [bp_new[-1] - bp[-1]])[0]
        return PiecewisePolynomial(bp_new, coeffs, self.atoms, lt, rt)

    def __add__(self, other):
        if not isinstance(other, PiecewisePolynomial):
            return NotImplemented
        bp = _distinct(self.breakpoints, other.breakpoints)
        a = self.refined(bp)
        b = other.refined(bp)

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
            bp, _padsum(a.coeffs, b.coeffs), atoms, _tailsum(a.left_tail, b.left_tail), _tailsum(a.right_tail, b.right_tail)
        )

    def scaled(self, factor):
        factor = complex(factor)
        return PiecewisePolynomial(
            self.breakpoints,
            self.coeffs * factor,
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
        c = self.coeffs
        coeffs = np.zeros((c.shape[0], c.shape[1] + 1), dtype=complex)
        coeffs[:, :-1] = c * (c0 + c1 * self._midpoints())[:, None]
        coeffs[:, 1:] += c1 * c
        lt = None if self.left_tail is None else _polymul(self.left_tail, [c0 + c1 * self.breakpoints[0], c1])
        rt = None if self.right_tail is None else _polymul(self.right_tail, [c0 + c1 * self.breakpoints[-1], c1])
        atoms = tuple((x, w * (c0 + c1 * x)) for x, w in self.atoms)
        return PiecewisePolynomial(self.breakpoints, coeffs, atoms, lt, rt)

    def real_part(self):
        return PiecewisePolynomial(
            self.breakpoints,
            self.coeffs.real.astype(complex),
            tuple((x, complex(w.real)) for x, w in self.atoms),
            None if self.left_tail is None else np.real(self.left_tail).astype(complex),
            None if self.right_tail is None else np.real(self.right_tail).astype(complex),
        )

    def imag_magnitude(self):
        """Largest imaginary coefficient/atom magnitude (roundoff diagnostic)."""
        vals = [0.0, float(np.max(np.abs(self.coeffs.imag), initial=0.0))]
        for _, w in self.atoms:
            vals.append(abs(complex(w).imag))
        for t in (self.left_tail, self.right_tail):
            if t is not None and len(t):
                vals.append(float(np.max(np.abs(np.imag(t)))))
        return max(vals)

    def coefficient_scale(self):
        vals = [0.0, float(np.max(np.abs(self.coeffs), initial=0.0))]
        for _, w in self.atoms:
            vals.append(abs(complex(w)))
        return max(vals)

    def atomic_mass(self):
        return float(sum(abs(complex(w)) for _, w in self.atoms))

    # -- calculus -----------------------------------------------------

    def antiderivative(self, base=0.0):
        """Antiderivative F with F(base) = 0: F(x) is the measure of
        (base, x], signed for x < base.

        F is continuous on the density part and jumps by each atom's mass
        at its point, right-continuously; the grid is refined at the atoms
        first, so every jump lands on a breakpoint.
        """
        xs = [x for x, _ in self.atoms]
        pp = self.refined(xs) if xs else self
        bp = pp.breakpoints
        width = pp.coeffs.shape[1]
        prim = np.zeros((len(pp.coeffs), width + 1), dtype=complex)
        prim[:, 1:] = pp.coeffs / np.arange(1, width + 1)
        h = 0.5 * np.diff(bp)
        lo = _horner(prim, -h)
        # continuity constants accumulated from the leftmost finite breakpoint
        running = np.concatenate([[0.0], np.cumsum(_horner(prim, h) - lo)])
        if xs:  # plus each atom's mass from its breakpoint on: F is right-continuous
            jumps = np.zeros(len(bp), dtype=complex)
            np.add.at(jumps, np.searchsorted(bp, xs), [w for _, w in self.atoms])
            running = running + np.cumsum(jumps)
        prim[:, 0] += running[:-1] - lo
        # where a tail is missing the density vanishes, so F is constant there
        lt = _trim(_polyint(np.zeros(1) if pp.left_tail is None else pp.left_tail))
        rt = _trim(_polyint(np.zeros(1) if pp.right_tail is None else pp.right_tail))
        rt[0] += running[-1]
        shift = -complex(PiecewisePolynomial(bp, prim, (), lt, rt)(base))
        prim[:, 0] += shift
        lt[0] += shift
        rt[0] += shift
        return PiecewisePolynomial(bp, prim, (), lt, rt)

    def lebesgue_integral(self):
        """Integral of the density part over the real line (tails must vanish)."""
        _require_compact(self, "lebesgue_integral")
        return complex(np.sum(_segment_integrals([self], lambda x, p: p, [()], lambda lo, hi: math.inf)[0]))

    def l1_norm(self):
        """Integral of |real part| plus total atomic variation (exact: the
        split Gauss-Legendre rule with weight 1)."""
        _require_compact(self, "l1_norm")
        return float(_weighted_abs([self], [0])[0, 0]) + self.atomic_mass()

    # -- serialization -------------------------------------------------

    def to_json_dict(self):
        """JSON-ready dict: {breakpoints, coeffs, atoms} (real coefficients)."""
        if self.imag_magnitude() > 1e-9 * (1.0 + self.coefficient_scale()):
            raise ValidationError("refusing to serialize a density with a large imaginary part")
        out = {
            "breakpoints": [float(b) for b in self.breakpoints],
            "coeffs": self.coeffs.real.tolist(),
            "atoms": [{"x": float(x), "mass": float(complex(w).real)} for x, w in self.atoms],
        }
        if self.left_tail is not None:
            out["left_tail"] = [float(v.real) for v in self.left_tail]
        if self.right_tail is not None:
            out["right_tail"] = [float(v.real) for v in self.right_tail]
        return out

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

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


# ---------------------------------------------------------------------------
# integrals against the density


_GAUSS_NODES = 20  # per piece: error ~ rho^-40 inside a Bernstein ellipse with rho >= 8


@lru_cache(maxsize=None)
def _gauss_legendre(n):
    return np.polynomial.legendre.leggauss(n)


def _segment_integrals(pps, integrand, cuts, reach, degree=0, real=False):
    """Integrals of integrand(x, pp(x)) over the finite intervals of each
    density in ``pps``, one per segment between consecutive breakpoints and
    that density's ``cuts`` (one array per density): one array per density,
    whose last axis runs over its segments.

    Each segment [lo, hi] is cut into equal pieces no longer than
    reach(lo, hi), and each piece gets max(20, (degree + deg pp + 1)/2)
    Gauss-Legendre nodes, so the rule is exact when the integrand is a
    polynomial of that degree.  All nodes of all densities form one
    (pieces, nodes) array: the densities are one Horner pass over each
    piece's owning row, and ``integrand`` is called once; it may add
    leading axes (one per weight exponent, say).  With ``real`` the
    densities' real parts are evaluated, in real arithmetic.
    """
    grids, rows, at = [], [], 0
    for pp, c in zip(pps, cuts):
        bp, c = pp.breakpoints, np.asarray(c, dtype=float)
        grids.append(_distinct(bp, c[(c > bp[0]) & (c < bp[-1])]))
        # each segment's row among the coefficient rows of all densities, stacked
        rows.append(np.searchsorted(bp, grids[-1][:-1], side="right") + (at - 1))
        at += len(bp) - 1
    lo, hi = _joined([g[:-1] for g in grids]), _joined([g[1:] for g in grids])
    coeffs, mids = _stack_rows([pp.coeffs.real if real else pp.coeffs for pp in pps]), _joined([pp._midpoints() for pp in pps])
    count = np.maximum(1, np.ceil((hi - lo) / reach(lo, hi))).astype(int)
    seg = np.repeat(np.arange(len(lo)), count)
    first = np.cumsum(count) - count
    half = 0.5 * ((hi - lo) / count)[seg]
    centers = lo[seg] + (2 * (np.arange(len(seg)) - first[seg]) + 1) * half
    nodes, weights = _gauss_legendre(max(_GAUSS_NODES, -(-(degree + coeffs.shape[1]) // 2)))
    x = centers[:, None] + half[:, None] * nodes
    owner = _joined(rows)[seg]
    values = integrand(x, _horner(coeffs[owner], x - mids[owner, None], coeffs.dtype))
    # one product per density, so each density's pieces do not depend on the others
    out, at, a = [], 0, 0
    for grid in grids:
        n = len(grid) - 1
        b = int(first[at + n]) if at + n < len(first) else len(seg)
        pieces = (values[..., a:b, :] @ weights) * half[a:b]
        out.append(np.add.reduceat(pieces, first[at : at + n] - a, axis=-1) if n else pieces)
        at, a = at + n, b
    return out


def _weight_reach(lo, hi):
    # (1+|x|)^-w and (1+x^2)^(-w/2) are analytic at distance >= (1+|x|)/sqrt(2) from x
    nearest = np.where((lo < 0.0) & (hi > 0.0), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
    return 0.5 * (1.0 + nearest)


def _real_roots(rows, counts=None):
    """(row index, root) of the real roots of each real coefficient row,
    ascending by row.

    Batched ``eigvals`` on companion matrices give the candidates, one call
    per companion size; leading coefficients below 1e-12 of a row's largest
    are dropped as noise first, and a row of lower degree than the highest
    in its block is multiplied by a power of its variable, which only adds
    candidates at 0.  ``counts`` splits the rows into consecutive blocks
    (by default they form one), so a row's roots depend on its block alone.
    Three Newton steps on the full row then polish each real candidate,
    since a small leading coefficient leaves the companion's eigenvalues
    inaccurate.
    """
    rows = np.asarray(rows, dtype=float)
    live = np.abs(rows) > 1e-12 * np.max(np.abs(rows), axis=1, initial=0.0)[:, None]
    deg = np.where(live.any(axis=1), rows.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1), 0)
    keep = np.flatnonzero(deg > 0)
    if not len(keep):
        return np.zeros(0, dtype=int), np.zeros(0)
    if counts is None or len(counts) == 1:
        groups = [(keep, int(deg[keep].max()))]
    else:
        counts = np.array([c for c in counts if c])
        size = np.repeat(np.maximum.reduceat(deg, np.cumsum(counts) - counts), counts)[keep]
        groups = [(keep[size == top], top) for top in _distinct(size).tolist()]
    found = []
    for sel, top in groups:
        src = np.arange(top + 1) - (top - deg[sel])[:, None]
        padded = np.where(src >= 0, np.take_along_axis(rows[sel], np.maximum(src, 0), axis=1), 0.0)
        companion = np.zeros((len(sel), top, top))
        companion[:, np.arange(1, top), np.arange(top - 1)] = 1.0
        companion[:, :, -1] = -padded[:, :top] / padded[:, top:]
        roots = np.linalg.eigvals(companion)
        row, col = np.nonzero(np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots.real)))
        found.append((sel[row], roots.real[row, col]))
    (row, y), *more = found
    if more:
        row, y = np.concatenate([row] + [r for r, _ in more]), np.concatenate([y] + [v for _, v in more])
        order = np.argsort(row, kind="stable")
        row, y = row[order], y[order]
    at, slope = rows[row], rows[row, 1:] * np.arange(1, rows.shape[1])
    with np.errstate(all="ignore"):
        for _ in range(3):
            step = _horner(at, y, float) / _horner(slope, y, float)
            y = np.where(np.isfinite(step), y - step, y)
    return row, y


def _root_points(pps, rows):
    """Real roots strictly inside each interval of each density, of its real
    coefficient ``rows`` (one array per density, a multiple of its interval
    count, row i on interval i mod n), found in the scaled variable
    (x - mid)/half by one root search over all of them, each density's rows
    one block: one array per density."""
    halves = [0.5 * np.diff(pp.breakpoints) for pp in pps]
    counts = [len(r) for r in rows]
    scaled = _stack_rows([r * np.resize(h, len(r))[:, None] ** np.arange(r.shape[1]) for r, h in zip(rows, halves)])
    row, y = _real_roots(scaled, counts)
    inside = np.abs(y) < 1.0
    row, y = row[inside], y[inside]
    ends = list(itertools.accumulate(counts))
    out, a = [], 0
    for pp, h, n, end, b in zip(pps, halves, counts, ends, np.searchsorted(row, ends).tolist()):
        owner = (row[a:b] - (end - n)) % max(1, len(h))
        out.append(pp._midpoints()[owner] + h[owner] * y[a:b])
        a = b
    return out


def _require_compact(pp: PiecewisePolynomial, what):
    if any(t is not None and np.any(np.abs(t) > 0) for t in (pp.left_tail, pp.right_tail)):
        raise ValidationError(f"{what} needs a compactly supported density")


def _abs_cuts(pps):
    """0 and the real roots of Re pp inside the intervals of each density,
    where |Re pp| (1+|x|)^-w kinks, from one root search."""
    return [np.append(r, 0.0) for r in _root_points(pps, [pp.coeffs.real for pp in pps])]


def _weighted_abs(pps, ws):
    """Integrals of |Re pp| (1+|x|)^-w over the finite intervals of each
    density at each exponent, a (densities, exponents) array: the rule on
    segments split at :func:`_abs_cuts`, one pass for all of them, |.| per
    segment."""
    w = np.asarray(ws)[:, None, None]
    segs = _segment_integrals(pps, lambda x, p: (1.0 + np.abs(x)) ** -w * p, _abs_cuts(pps), _weight_reach, real=True)
    return np.array([np.sum(np.abs(seg), axis=-1) for seg in segs])


def _weighted_modulus(pp: PiecewisePolynomial, w):
    """Integral of |pp| (1+x^2)^(-w/2) over the finite intervals, split at
    the real roots of the real and of the imaginary part, where |pp| kinks."""
    cuts = _root_points([pp], [np.concatenate([pp.coeffs.real, pp.coeffs.imag])])
    seg = _segment_integrals([pp], lambda x, p: (1.0 + x * x) ** (-w / 2.0) * np.abs(p), cuts, _weight_reach)[0]
    return float(np.sum(seg.real))


def _factor_rule(f, order):
    """(reach, degree) for f^(order): pieces no longer than half the
    distance to f's nearest complex singularity (the smallest |Im pole| of
    a rational, the width of a Gaussian), and the polynomial degree of
    f^(order) between kinks (0 where it is not a polynomial)."""
    if f.kind == "rational" and f.poles():
        return 0.5 * min(abs(complex(z).imag) for z in f.poles()), 0
    if f.kind == "rational":
        return math.inf, max(0, -f.decay_order - order)
    if f.kind == "gaussian":
        return 0.5 * f.width, 0
    if f.kind == "bump":  # prefactor * ((x-a)(b-x))^(smoothness+1)
        return math.inf, max(0, len(f.prefactor) - 1 + 2 * (f.smoothness + 1) - order)
    if f.kind == "polynomial":
        return math.inf, max(0, f.degree() - order)
    raise ValidationError(f"no quadrature rule for function kind {f.kind!r}")


def _tail_by_parts(f, order, tail, edge, side):
    """Integral of f^(order)(x) tail(x - edge) over the tail beyond edge
    (side +1: [edge, inf), side -1: (-inf, edge]) by repeated integration
    by parts; the boundary terms vanish at infinity for decaying f."""
    q = _trim(tail)
    if len(q) > order:
        raise ValidationError(
            f"a tail of degree {len(q) - 1} against derivative order {order} has no by-parts closed form"
        )
    # int_edge^inf f^(o) q = -sum_j (-1)^j f^(o-1-j)(edge) q^(j)(0), q^(j)(0) = j! q_j
    total = sum((-1.0) ** j * f.eval_deriv(order - 1 - j, edge) * math.factorial(j) * q[j] for j in range(len(q)))
    return -side * complex(total)


def integral_against_derivative(f, order, pp: PiecewisePolynomial):
    """Integral of f^(order) times the density, plus atom terms.

    The finite intervals, split at f's kinks, go through the split
    Gauss-Legendre rule: pieces no longer than half the distance to f's
    nearest complex singularity, exact for bumps and polynomials (which
    are polynomial between kinks).  Tails integrate by parts in closed
    form, which needs f to decay and the tail degree to stay below the
    order.  Atoms contribute mass * f^(order)(x).
    """
    bp = pp.breakpoints
    reach, degree = _factor_rule(f, order)
    seg = _segment_integrals([pp], lambda x, p: f.eval_deriv(order, x) * p, [f.kink_points], lambda lo, hi: reach, degree)[0]
    total = complex(np.sum(seg))
    for tail, edge, side in ((pp.left_tail, bp[0], -1), (pp.right_tail, bp[-1], 1)):
        if tail is not None and np.any(np.abs(tail) > 0):
            total += _tail_by_parts(f, order, tail, edge, side)
    for x, w in pp.atoms:
        total += w * f.eval_deriv(order, x)
    return total


def weighted_abs_integral(pp: PiecewisePolynomial, weight_exponent):
    """Integral of |density(x)| * (1+|x|)^(-w) for real, compactly
    supported densities, plus |mass| (1+|x|)^(-w) per atom.

    Finite intervals are split at 0 and at the real roots of each piece
    and integrated by the split Gauss-Legendre rule, with |.| taken per
    root segment.  The batch of one of :func:`weighted_abs_integrals`.
    """
    return weighted_abs_integrals([pp], [weight_exponent])[0][0]


def weighted_abs_integrals(pps, weight_exponents):
    """:func:`weighted_abs_integral` of each density in ``pps`` at each
    exponent, one row per density, from one root search and one pass of
    the rule over all their intervals: the segments depend neither on the
    weight nor on the other densities, and each exponent of one density
    gives its values bit for bit."""
    for pp in pps:
        _require_compact(pp, "weighted_abs_integral")
    ws = [int(w) for w in weight_exponents]
    out = _weighted_abs(pps, ws).tolist()
    for row, pp in zip(out, pps):
        for j, w in enumerate(ws):
            for x, m in pp.atoms:
                row[j] += abs(complex(m)) * (1.0 + abs(x)) ** (-w)
    return out
