import importlib.util
import itertools
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from opshift import functions
from opshift.errors import ValidationError
from opshift.functions import (
    NODE_MERGE_RELTOL,
    BumpFunction,
    GaussianFunction,
    PolynomialFunction,
    bump,
    class_membership,
    divided_difference,
    leibniz_weighted_sup_bound,
    peano_kernel,
    rational_from_poles,
    _merge_rows,
    weight_multiply,
)
from opshift.piecewise import integral_against_derivative
from opshift.ensembles import rng_stream

_spec = importlib.util.spec_from_file_location("oracles", Path(__file__).resolve().parents[1] / "bench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

def recursive_divided_difference(values, nodes):
    """Independent oracle: the plain recursion for pairwise distinct nodes."""
    table = list(values)
    xs = list(nodes)
    n = len(xs)
    for j in range(1, n):
        table = [
            (table[i + 1] - table[i]) / (xs[i + j] - xs[i]) for i in range(n - j)
        ]
    return table[0]


def _merge_nodes(nodes):
    """The merge rule one row at a time: sort, chain gaps of at most
    NODE_MERGE_RELTOL * (1 + span), and give each group its common value if
    its ends are equal, else its left-to-right mean."""
    xs = sorted(float(v) for v in nodes)
    tol = NODE_MERGE_RELTOL * (1.0 + (xs[-1] - xs[0]))
    groups = [[xs[0]]]
    for v in xs[1:]:
        if v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [g[0] if g[0] == g[-1] else sum(g) / len(g) for g in groups for _ in g]


def _merge_test_rows(rng, width, count):
    """Sorted rows of ``width`` nodes: a few wide gaps set the span, and
    the other gaps are exact repeats, gaps just inside or outside the merge
    tolerance NODE_MERGE_RELTOL * (1 + span), or gaps far inside it."""
    rows = []
    for _ in range(count):
        wide = rng.uniform(0.0, 1.5, size=width - 1) * (rng.random(width - 1) < 0.3)
        tol = NODE_MERGE_RELTOL * (1.0 + wide.sum())
        small = tol * rng.choice([0.0, 0.0, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1e-3, 0.5], size=width - 1)
        gaps = np.where(wide > 0, wide, small)
        start = rng.choice([0.0, 0.1, 1.0 / 3.0, rng.uniform(-2.0, 2.0)])
        rows.append(start + np.concatenate([[0.0], np.cumsum(gaps)]))
    return np.sort(np.array(rows), axis=1)


@pytest.mark.parametrize("width", range(1, 8))
def test_merge_rows_equals_merge_nodes_row_by_row(width):
    # the fold merges all kernel rows at once; it must keep the one-row rule
    # exactly, or a group of equal nodes lands an ulp off and cuts a sliver
    rows = _merge_test_rows(np.random.default_rng(width), width, 300)
    merged = _merge_rows(rows)
    for row, got in zip(rows.tolist(), merged.tolist()):
        assert got == _merge_nodes(row)
    assert np.any(merged != rows) or width == 1


class TestDividedDifference:
    def test_quadratic_is_one(self):
        f = PolynomialFunction((0.0, 0.0, 1.0))
        for nodes in ([0.0, 1.0, 2.0], [-3.1, 0.4, 7.7], [1.0, 1.0, 1.0]):
            assert divided_difference(f, nodes) == pytest.approx(1.0)

    def test_weight_function_column(self):
        u = PolynomialFunction((-1j, 1.0))
        assert divided_difference(u, [0.2, 5.1]) == pytest.approx(1.0)
        for count in (3, 4, 5):
            nodes = np.linspace(-1, 1, count)
            assert abs(divided_difference(u, nodes)) < 1e-14

    def test_confluent_first_derivative(self):
        g = GaussianFunction(0.0, 1.0)
        val = divided_difference(g, [0.0, 0.0])
        assert val == pytest.approx(complex(g.eval_deriv(1, 0.0)))

    def test_matches_recursion_on_distinct_nodes(self):
        rng = rng_stream(3, 0)
        f = rational_from_poles([2j, -1 - 1j, 1 + 2j])
        for _ in range(20):
            nodes = np.sort(rng.uniform(-2, 2, 4))
            while np.min(np.diff(nodes)) < 1e-3:
                nodes = np.sort(rng.uniform(-2, 2, 4))
            oracle = recursive_divided_difference([complex(f.eval_deriv(0, x)) for x in nodes], nodes)
            assert divided_difference(f, nodes) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("seed", range(60))
    def test_rational_at_clustered_nodes_matches_mpmath(self, seed):
        # gaps down to 1e-7 stay unmerged; a Newton table would divide
        # rounding by them at every level
        rng = np.random.default_rng(seed)
        center, weight = rng.uniform(-1.0, 1.0), int(rng.integers(0, 4))
        log_gaps = rng.uniform(-7.0, 0.0, int(rng.integers(1, 7)))
        poles = [complex(a, b) for a, b in zip(rng.uniform(-2, 2, 3), rng.uniform(0.6, 1.5, 3))]
        f = weight_multiply(rational_from_poles(poles + [z.conjugate() for z in poles]), weight)
        nodes = center + np.concatenate([[0.0], np.cumsum(10.0 ** np.array(log_gaps))])
        with mpmath.workdps(60):
            def value(x):
                v = mpmath.mpc(f.scale)
                for z, m in f.factors:
                    v *= (mpmath.mpf(float(x)) - mpmath.mpc(z)) ** (-m)
                return v

            ref = complex(recursive_divided_difference([value(x) for x in nodes], [mpmath.mpf(float(x)) for x in nodes]))
        assert abs(divided_difference(f, nodes[::-1]) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("seed", range(60))
    def test_gaussian_at_clustered_nodes_matches_mpmath(self, seed):
        # the Newton table divided rounding by gaps down to 1e-7 at every
        # level; every third seed also repeats a node (a confluent group)
        rng = np.random.default_rng(seed)
        center, width, weight = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5), int(rng.integers(0, 4))
        gaps = 10.0 ** rng.uniform(-7.0, 0.0, int(rng.integers(1, 6)))
        if seed % 3 == 0:
            gaps[0] = 0.0
        nodes = rng.uniform(-1.5, 1.5) + np.concatenate([[0.0], np.cumsum(gaps), [2.0 + gaps.sum()] * (seed % 2)])
        f = weight_multiply(GaussianFunction(center, width), weight)
        with mpmath.workdps(60):
            gauss = oracles.gaussian_taylor(center, width)

            def taylor(k, x):  # (u^weight g)^(k)(x) / k! by Leibniz, u = x - i
                u = x - mpmath.mpc(0, 1)
                return sum(math.comb(weight, i) * u ** (weight - i) * gauss(k - i, x) for i in range(min(k, weight) + 1))

            xs = [mpmath.mpf(float(x)) for x in nodes]
            memo = {}

            def dd(lo, hi):  # symmetric recursion over the sorted nodes lo..hi
                if (lo, hi) not in memo:
                    if xs[lo] == xs[hi]:
                        memo[lo, hi] = taylor(hi - lo, xs[lo])
                    else:
                        memo[lo, hi] = (dd(lo + 1, hi) - dd(lo, hi - 1)) / (xs[hi] - xs[lo])
                return memo[lo, hi]

            ref = complex(dd(0, len(xs) - 1))
        assert abs(divided_difference(f, nodes[::-1]) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("seed", range(60))
    def test_bump_at_clustered_nodes_matches_mpmath(self, seed):
        # C^4..C^8 bumps on (-1, 1) at node windows 10^U(-7, -1): a row
        # inside, a row across a kink, or a mixed row (one node beyond the
        # support and a cluster inside); every fourth seed repeats a node
        rng = np.random.default_rng(seed)
        prefactor = rng.uniform(-1.0, 1.0, int(rng.integers(1, 4)))
        f = weight_multiply(bump(-1.0, 1.0, int(rng.integers(4, 9)), prefactor), int(rng.integers(0, 3)))
        p, window = int(rng.integers(2, 6)), 10.0 ** rng.uniform(-7.0, -1.0)
        offsets = np.sort(rng.random(p + 1))
        if seed % 4 == 0:
            offsets[1] = offsets[0]
        if seed % 3 == 0:
            nodes = rng.uniform(-0.9, 0.9) + window * offsets
        elif seed % 3 == 1:
            kink = rng.choice([-1.0, 1.0])
            nodes = kink + window * (offsets - rng.uniform(offsets[0], offsets[-1]))
            assert nodes[0] < kink < nodes[-1]
        else:
            beyond = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 1.5)
            nodes = np.append(rng.uniform(-0.9, 0.9) + window * offsets[:p], beyond)
        ref = _mp_divided_difference(f, nodes)
        assert abs(divided_difference(f, nodes[::-1]) - ref) <= (1e-12 if seed % 3 == 0 else 1e-11) * abs(ref)

    @pytest.mark.parametrize("seed", range(60))
    def test_polynomial_at_clustered_nodes_matches_mpmath(self, seed):
        # degree p to p+6 at node windows 10^U(-7, -1); every third seed
        # repeats a node
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 6))
        coeffs = rng.uniform(-1.0, 1.0, (p + 1 + int(rng.integers(0, 7)), 2)) @ [1.0, 1j]
        f = PolynomialFunction(tuple(coeffs))
        nodes = rng.uniform(-1.0, 1.0) + 10.0 ** rng.uniform(-7.0, -1.0) * np.sort(rng.random(p + 1))
        if seed % 3 == 0:
            nodes[1] = nodes[0]
        ref = _mp_divided_difference(f, nodes)
        assert abs(divided_difference(f, nodes[::-1]) - ref) <= 1e-12 * abs(ref)

    def test_permutation_invariance(self):
        rng = rng_stream(4, 0)
        f = rational_from_poles([1j, -2j, 1 + 1j])
        nodes = list(rng.uniform(-2, 2, 4))
        base = divided_difference(f, nodes)
        for perm in itertools.permutations(nodes):
            val = divided_difference(f, perm)
            assert abs(val - base) <= 1e-10 * (1.0 + abs(base))

    def test_leibniz_rule_with_weight(self):
        # (g u)^[m](l0..lm) = g^[m](l0..lm) u(lm) + g^[m-1](l0..l_{m-1})
        rng = rng_stream(5, 0)
        g = rational_from_poles([2j, -1 - 1.5j])
        for _ in range(10):
            nodes = list(rng.uniform(-2, 2, 4))
            gu = weight_multiply(g, 1)
            lhs = divided_difference(gu, nodes)
            rhs = divided_difference(g, nodes) * (nodes[-1] - 1j) + divided_difference(g, nodes[:-1])
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_swap_identity_each_slot(self):
        # g^[m] = (gu)^[m] u^-1(lj) - g^[m-1](without j) u^-1(lj)
        rng = rng_stream(6, 0)
        g = rational_from_poles([1j, 1 - 2j, -1 + 1j])
        gu = weight_multiply(g, 1)
        for _ in range(5):
            nodes = list(rng.uniform(-2, 2, 4))
            lhs = divided_difference(g, nodes)
            for j in range(len(nodes)):
                uinv = 1.0 / (nodes[j] - 1j)
                rest = nodes[:j] + nodes[j + 1 :]
                rhs = divided_difference(gu, nodes) * uinv - divided_difference(g, rest) * uinv
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_insufficient_smoothness_at_kink(self):
        f = bump(-1.0, 1.0, smoothness=2)
        with pytest.raises(ValidationError):
            divided_difference(f, [1.0, 1.0, 1.0, 1.0, 1.0])


def _mp_polynomial(coeffs):
    """k, x -> p^(k)(x) / k! for ascending coefficients, in mpmath."""
    return lambda k, x: sum(c * math.comb(n, k) * x ** (n - k) for n, c in enumerate(coeffs) if n >= k)


def _mp_polymul(p, q):
    out = [mpmath.mpc(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _mp_taylor(f):
    """k, x -> f^(k)(x) / k! in mpmath, from f's own parameters: products of
    binomial series for a rational and for a bump's three factors inside its
    closed support (and 0 outside), Hermite functions for a Gaussian."""
    if isinstance(f, GaussianFunction):
        assert f.prefactor == (1.0,)
        return oracles.gaussian_taylor(f.center, f.width)
    if isinstance(f, PolynomialFunction):
        return _mp_polynomial([mpmath.mpc(c) for c in f.coefficients])
    if isinstance(f, BumpFunction):
        a, b, r = mpmath.mpf(f.a), mpmath.mpf(f.b), f.smoothness + 1
        q = _mp_polynomial([mpmath.mpc(c) for c in f.prefactor])

        def bump_coeff(k, x):  # q(x + h - mid) (x + h - a)^r (b - x - h)^r as a series in h
            if not a <= x <= b:
                return mpmath.mpc(0)
            acc = [q(j, x - (a + b) / 2) for j in range(k + 1)]
            for base, sign in ((x - a, 1), (b - x, -1)):
                acc = _mp_polymul(acc, [math.comb(r, j) * base ** (r - j) * sign**j for j in range(k + 1)])[: k + 1]
            return acc[k]

        return bump_coeff

    def coeff(k, x):
        acc = [mpmath.mpc(f.scale)] + [mpmath.mpc(0)] * k
        for z, m in f.factors:  # (x + h - z)^(-m) = sum_j binom(-m, j) (x - z)^(-m-j) h^j
            z = mpmath.mpc(z)
            acc = _mp_polymul(acc, [mpmath.binomial(-m, j) * (x - z) ** (-m - j) for j in range(k + 1)])[: k + 1]
        return acc[k]

    return coeff


def _mp_divided_difference(f, nodes):
    """60-digit symmetric recursion over the sorted nodes, taken as given:
    only equal nodes are confluent."""
    with mpmath.workdps(60):
        taylor, xs, memo = _mp_taylor(f), [mpmath.mpf(x) for x in sorted(float(v) for v in nodes)], {}

        def dd(lo, hi):
            if (lo, hi) not in memo:
                if xs[lo] == xs[hi]:
                    memo[lo, hi] = taylor(hi - lo, xs[lo])
                else:
                    memo[lo, hi] = (dd(lo + 1, hi) - dd(lo, hi - 1)) / (xs[hi] - xs[lo])
            return memo[lo, hi]

        return complex(dd(0, len(xs) - 1))


class TestDividedDifferenceRows:
    """One call over a (rows, p+1) array against one call per row and mpmath."""

    # distinct nodes, a cluster below NODE_MERGE_RELTOL, repeated nodes, an
    # unsorted row mixing them, rows at the bump's kinks -1 and 1, rows
    # across one kink or both, and rows outside the bump's support
    ROWS = [
        [-0.7, -0.2, 0.3, 0.5, 0.9],
        [-0.4, 0.1, 0.1 + 3e-9, 0.1 + 6e-9, 0.8],
        [0.2, 0.2, 0.2, 0.6, 0.6],
        [0.9, -0.3, 0.5, -0.3, 0.5 + 1e-9],
        [-1.0, -1.0, -1.0, 0.2, 0.7],
        [0.3, 1.0 - 4e-9, 1.0, 1.0, 1.0 + 4e-9],
        [-1.3, -0.8, -0.8, 0.4, 0.6],
        [0.5, 0.9, 1.2, 1.4, 1.7],
        [-1.5, -0.3, 0.2, 0.8, 1.4],
        [-1.6, -1.4, -1.2, -1.0, -1.0],
        [1.1, 1.2, 1.2, 1.5, 2.0],
    ]
    FUNCTIONS = {
        "rational": weight_multiply(rational_from_poles([0.3 + 0.9j, 0.3 - 0.9j, -0.5 + 1.4j, -0.5 + 1.4j]), 1),
        "gaussian": GaussianFunction(0.2, 0.9),
        "bump": bump(-1.0, 1.0, smoothness=4, prefactor=(1.0, 0.5, -0.3)),
        "polynomial": PolynomialFunction((0.3, -1.0, 0.5, 0.2, -0.7, 0.1, 0.4, -0.2)),
    }

    @pytest.mark.parametrize("kind", sorted(FUNCTIONS))
    def test_rows_match_row_calls_and_mpmath(self, kind):
        f = self.FUNCTIONS[kind]
        got = divided_difference(f, np.array(self.ROWS))
        assert got.shape == (len(self.ROWS),) and got.dtype == complex
        for row, value in zip(self.ROWS, got):
            single = divided_difference(f, row)
            assert type(single) is complex and single == value  # same arithmetic per row
            ref = _mp_divided_difference(f, row)
            assert abs(value - ref) <= 1e-12 * abs(ref)

    def test_rows_needing_too_many_derivatives_at_a_kink_raise(self):
        f = bump(-1.0, 1.0, smoothness=2)
        fine = [[-0.7, -0.2, 0.3, 0.5, 0.9], [-1.0, -1.0, -1.0, 0.2, 0.7]]  # order 2 at a kink
        assert np.all(np.isfinite(divided_difference(f, np.array(fine))))
        # s+1 = 3 equal nodes at each kink: the count is per kink
        assert np.isfinite(divided_difference(f, [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]))
        # order 3 at a kink (four repeated nodes), a cluster of four around a
        # kink (order 4 across it), and distinct nodes of order s+2 = 4 across one
        for bad in (
            [0.1, 1.0, 1.0, 1.0, 1.0],
            [0.4, -1.0 - 4e-9, -1.0, -1.0 + 2e-9, -1.0 + 4e-9],
            [0.5, 0.7, 0.9, 1.1, 1.3],
        ):
            with pytest.raises(ValidationError):
                divided_difference(f, np.array(fine + [bad]))


class TestRationalResidueForm:
    """Proper simple-pole rationals take the residue form; close poles, the
    guard, multiple poles and improper rationals take the Opitz recurrence.
    Every case is checked against the 60-digit recursion."""

    @staticmethod
    def _opitz_rows(monkeypatch):
        rows = []
        opitz = functions._opitz_divided_difference
        monkeypatch.setattr(functions, "_opitz_divided_difference", lambda f, zs: rows.append(len(zs)) or opitz(f, zs))
        return rows

    @staticmethod
    def _clustered_nodes(rng, count):
        # as in test_rational_at_clustered_nodes_matches_mpmath: gaps down to 1e-7 stay unmerged
        return rng.uniform(-1.0, 1.0) + np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-7.0, 0.0, count - 1))])

    @staticmethod
    def _assert_matches_mpmath(f, nodes):
        ref = _mp_divided_difference(f, nodes)
        assert abs(divided_difference(f, nodes[::-1]) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("weight", range(4))
    @pytest.mark.parametrize("gap", [10.0**-k for k in range(1, 9)])
    def test_close_conjugate_pairs_match_mpmath(self, gap, weight):
        # a conjugate pair gap apart has residues of size 1/gap that cancel;
        # the guard hands such rows to Opitz.  A second pair keeps u^3 proper.
        rng = np.random.default_rng([round(-math.log10(gap)), weight])
        close = complex(rng.uniform(-1.0, 1.0), 0.5 * gap)
        other = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.6, 1.5))
        f = weight_multiply(rational_from_poles([close, close.conjugate(), other, other.conjugate()]), weight)
        for order in range(1, 6):
            self._assert_matches_mpmath(f, self._clustered_nodes(rng, order + 1))

    def test_well_separated_poles_take_the_residue_form(self, monkeypatch):
        rows = self._opitz_rows(monkeypatch)
        f = weight_multiply(rational_from_poles([0.3 + 0.9j, 0.3 - 0.9j, -1.1 + 1.4j, -1.1 - 1.4j]), 1)
        rng = np.random.default_rng(5)
        for order in range(1, 6):
            self._assert_matches_mpmath(f, self._clustered_nodes(rng, order + 1))
        assert rows == []

    def test_a_double_pole_takes_opitz(self, monkeypatch):
        rows = self._opitz_rows(monkeypatch)
        f = rational_from_poles([0.3 + 0.9j, 0.3 + 0.9j, 0.3 - 0.9j, -0.5 - 1.2j])
        nodes = self._clustered_nodes(np.random.default_rng(6), 5)
        self._assert_matches_mpmath(f, nodes)
        assert rows == [1]

    @pytest.mark.parametrize("weight", [2, 3])
    def test_an_improper_weighted_rational_takes_opitz(self, monkeypatch, weight):
        rows = self._opitz_rows(monkeypatch)
        f = weight_multiply(rational_from_poles([0.3 + 0.9j, 0.3 - 0.9j]), weight)  # decay 2 - weight <= 0
        assert f.decay_order <= 0
        self._assert_matches_mpmath(f, self._clustered_nodes(np.random.default_rng(7), 4))
        assert rows == [1]

    def test_a_constant_rational_takes_opitz(self, monkeypatch):
        rows = self._opitz_rows(monkeypatch)
        f = rational_from_poles([], scale=2.0)
        assert divided_difference(f, [0.3]) == 2.0 and divided_difference(f, [0.3, 0.7]) == 0.0
        assert rows == [1, 1]

    def test_cancelling_rows_take_opitz(self, monkeypatch):
        # far from six poles the terms r_j / prod (z_i - p_j) cancel to f[z] ~ |z|^-8
        rows = self._opitz_rows(monkeypatch)
        f = rational_from_poles([0.3 + 0.9j, 0.3 - 0.9j, -1.1 + 1.4j, -1.1 - 1.4j, 0.8 + 0.7j, 0.8 - 0.7j])
        near, far = np.array([0.1, 0.2, 0.45]), np.array([11.0, 11.5, 12.25])
        parts = functions._partial_fractions(f.factors, complex(f.scale))
        assert parts is not None
        got = divided_difference(f, np.array([near, far]))
        assert rows == [1]  # the far row alone
        for value, nodes in zip(got, (near, far)):
            ref = _mp_divided_difference(f, nodes)
            assert abs(value - ref) <= 1e-12 * abs(ref)

    def test_a_row_does_not_depend_on_its_batch(self):
        f = weight_multiply(rational_from_poles([0.3 + 0.9j, 0.3 - 0.9j, -1.1 + 1.4j, -1.1 - 1.4j, 1.7 + 0.6j, 1.7 - 0.6j]), 2)
        rows = np.sort(np.random.default_rng(8).uniform(-3.0, 3.0, (700, 4)), axis=1)
        rows[::7] = [11.0, 11.5, 12.25, 13.0]  # guarded rows among them
        batch = divided_difference(f, rows)
        assert [complex(v) for v in batch] == [divided_difference(f, row) for row in rows]


class TestBumpDerivatives:
    @pytest.mark.parametrize("smoothness", [6, 22])
    def test_near_kinks_match_mpmath(self, smoothness):
        # the monomial expansion of q(s) ((x-a)(b-x))^(s+1) cancels near the
        # kinks and errs by 3.7e5 (s = 6) and 8.7e52 (s = 22) on these points;
        # this prefactor keeps |q| >= 0.8 there, so the bound measures the
        # kink factors and not the rounding of q near one of its roots
        a, b = -0.9, 1.1
        pre = tuple(np.random.default_rng(5).uniform(-1.0, 1.0, 31))
        f = BumpFunction(a, b, smoothness, pre)
        with mpmath.workdps(80):
            mid = (mpmath.mpf(a) + mpmath.mpf(b)) / 2

            def exact(x):
                q = sum(mpmath.mpf(c) * (x - mid) ** n for n, c in enumerate(pre))
                return q * ((x - a) * (b - x)) ** (smoothness + 1)

            for x in (a + 1e-2, a + 1e-3, b - 1e-2, b - 1e-3):
                for order in range(4):
                    ref = complex(mpmath.diff(exact, mpmath.mpf(x), order))
                    assert abs(f.eval_deriv(order, x) - ref) <= 1e-12 * abs(ref)


class TestWeightMultiply:
    def test_gaussian_leibniz(self):
        g = GaussianFunction(0.4, 1.2)
        gu = weight_multiply(g, 1)
        for x in (-1.0, 0.3, 2.2):
            expect = complex(g.eval_deriv(1, x)) * (x - 1j) + complex(g.eval_deriv(0, x))
            assert complex(gu.eval_deriv(1, x)) == pytest.approx(expect)

    def test_rational_decay_bookkeeping(self):
        f = rational_from_poles([2j, 2j, 2j])  # (x-2i)^-3
        fw = weight_multiply(f, 2)
        assert fw.decay_order == 1
        xs = np.array([50.0, 100.0, 200.0])
        vals = np.abs(fw.eval_deriv(0, xs))
        assert np.all(vals * xs < 2.0)  # decays like 1/x
        assert np.all(vals < 1.0)  # stays bounded

    def test_bump_support_unchanged(self):
        f = bump(-1.0, 1.0, smoothness=4)
        fw = weight_multiply(f, 5)
        assert fw.support == (-1.0, 1.0)
        assert fw.eval_deriv(0, 1.5) == 0.0
        assert fw.eval_deriv(0, -1.0) == 0.0

    def test_weight_power_bookkeeping(self):
        f = GaussianFunction(0.0, 1.0)
        with pytest.raises(ValidationError):
            weight_multiply(f, -1)


class TestClassMembership:
    def test_pole_product_matches_weight(self):
        for k in (0, 1, 3):
            poles = [complex(j, 1 + j) for j in range(k + 1)]
            f = rational_from_poles(poles)
            for n in (0, 2, 5):
                assert class_membership(f, n, k).member

    def test_insufficient_decay_rejected(self):
        f = rational_from_poles([2j])  # decay order 1
        dec = class_membership(f, 2, 1)
        assert not dec.member
        assert "decay" in dec.reason

    def test_gaussian_always_member(self):
        g = GaussianFunction(1.0, 0.7, (1.0, 2.0))
        for n, k in ((0, 0), (3, 10), (6, 15)):
            assert class_membership(g, n, k).member

    def test_constant_not_member(self):
        one = PolynomialFunction((1.0,))
        dec = class_membership(one, 0, 1)
        assert not dec.member

    def test_bump_requires_smoothness(self):
        f = bump(-1.0, 1.0, smoothness=3)
        assert class_membership(f, 2, 7).member
        assert not class_membership(f, 3, 0).member

    def test_decay_proxy_of_weighted_derivatives(self):
        # members have f^(m) u^l vanishing at infinity for l <= k
        f = rational_from_poles([1j + j for j in range(4)])
        assert class_membership(f, 2, 3).member
        xs = np.array([10.0, 40.0, 160.0])
        for m in range(3):
            for l in range(4):
                vals = np.abs(f.eval_deriv(m, xs) * (xs - 1j) ** l)
                assert vals[-1] < vals[0] or vals[-1] < 1e-12


class TestPeanoKernel:
    def test_two_nodes_indicator(self):
        k = peano_kernel([0.0, 1.0])
        assert k(0.5) == pytest.approx(1.0)
        assert complex(k.lebesgue_integral()) == pytest.approx(1.0)

    def test_hat_from_divided_difference_oracle(self):
        # solve integral of f'' * kernel = f^[2] for f = x^2, x^3
        k = peano_kernel([0.0, 1.0, 2.0])
        assert complex(k.lebesgue_integral()) == pytest.approx(0.5)
        assert k(1.0) == pytest.approx(0.5)
        f2 = PolynomialFunction((0.0, 0.0, 1.0))
        f3 = PolynomialFunction((0.0, 0.0, 0.0, 1.0))
        assert integral_against_derivative(f2, 2, k) == pytest.approx(
            divided_difference(f2, [0.0, 1.0, 2.0])
        )
        assert integral_against_derivative(f3, 2, k) == pytest.approx(
            divided_difference(f3, [0.0, 1.0, 2.0])
        )

    def test_taylor_remainder_kernel(self):
        # n repeated zeros and one v: density (v-x)^(n-1)/((n-1)! v^n)
        for n, v in ((2, 1.0), (3, 1.0), (4, 2.0)):
            k = peano_kernel([0.0] * n + [v])
            xs = np.linspace(0.01, v - 0.01, 9)
            expect = (v - xs) ** (n - 1) / (math.factorial(n - 1) * v**n)
            assert np.max(np.abs(k(xs) - expect)) < 1e-12

    def test_all_equal_nodes_atom(self):
        k = peano_kernel([1.3, 1.3, 1.3])
        assert k.atoms == ((1.3, 0.5),)

    def test_kernel_consistency_random(self):
        rng = rng_stream(7, 0)
        funcs = [
            rational_from_poles([2j, -1 - 1j, 1 + 2j]),
            GaussianFunction(0.2, 1.1),
            PolynomialFunction((1.0, -0.5, 2.0, 0.25, 0.125)),
        ]
        for trial in range(100):
            f = funcs[trial % len(funcs)]
            p = int(rng.integers(1, 5))
            nodes = rng.uniform(-2, 2, p + 1)
            if rng.uniform() < 0.3:
                nodes[0] = nodes[-1]  # exercise repeated knots
            k = peano_kernel(nodes)
            val = integral_against_derivative(f, p, k)
            dd = divided_difference(f, nodes)
            assert abs(val - dd) <= 1e-9 * (1.0 + abs(dd))


class TestWeightedSupBound:
    def test_bound_over_bump_family(self):
        rng = rng_stream(8, 0)
        a = 2.0
        n, k = 4, 3
        for trial in range(6):
            pre = tuple(rng.standard_normal(3))
            f = bump(-a + 0.2, a - 0.2, smoothness=n + 1, prefactor=pre)
            fw = weight_multiply(f, k)
            sup_fn = f.sup_deriv(n)
            for p in range(n + 1):
                c = leibniz_weighted_sup_bound(n, k, a, p)
                assert fw.sup_deriv(p) <= c * sup_fn * (1.0 + 1e-9)
