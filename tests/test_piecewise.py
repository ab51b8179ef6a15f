import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from opshift.cov import WeightedTraceMeasure, eigen_tuple_density
from opshift.ensembles import random_hermitian, random_pair, rng_stream
from opshift.errors import ValidationError
from opshift.functions import GaussianFunction, PolynomialFunction, bump
from opshift import piecewise
from opshift.piecewise import PiecewisePolynomial, integral_against_derivative, weighted_abs_integral, weighted_abs_integrals
from opshift.ssf import remainder_pattern, ssf_compute


def random_pp(rng, n_intervals=4, degree=3, tails=False):
    bp = np.sort(rng.uniform(-3, 3, n_intervals + 1))
    while np.min(np.diff(bp)) < 1e-3:
        bp = np.sort(rng.uniform(-3, 3, n_intervals + 1))
    coeffs = tuple(rng.standard_normal(degree + 1) for _ in range(n_intervals))
    lt = rng.standard_normal(2) if tails else None
    rt = rng.standard_normal(2) if tails else None
    return PiecewisePolynomial(bp, coeffs, left_tail=lt, right_tail=rt)


class TestAlgebra:
    def test_eval_indicator(self):
        pp = PiecewisePolynomial.indicator(0.0, 2.0)
        assert pp(1.0) == 1.0
        assert pp(-0.5) == 0.0
        assert pp(2.5) == 0.0

    def test_add_refines_grids(self, rng):
        a = random_pp(rng)
        b = random_pp(rng)
        s = a + b
        xs = rng.uniform(-3, 3, 50)
        assert np.max(np.abs(s(xs) - (a(xs) + b(xs)))) < 1e-12

    def test_multiply_linear(self, rng):
        a = random_pp(rng)
        m = a.multiply_linear(2.0, -1.5)
        xs = rng.uniform(-3, 3, 40)
        assert np.max(np.abs(m(xs) - a(xs) * (2.0 - 1.5 * xs))) < 1e-11

    def test_antiderivative_matches_quadrature(self, rng):
        a = random_pp(rng)
        F = a.antiderivative(0.0)
        assert abs(F(0.0)) < 1e-13
        for x in (-2.5, -0.3, 1.7):
            cuts = [b for b in a.breakpoints if min(0.0, x) < b < max(0.0, x)]
            val, _ = quad(lambda t: np.real(a(t)), 0.0, x, points=cuts or None, limit=200)
            assert F(x).real == pytest.approx(val, abs=1e-9)

    def test_l1_norm_exact(self, rng):
        a = random_pp(rng)
        exact = a.l1_norm()
        val, _ = quad(lambda t: abs(np.real(a(t))), a.breakpoints[0], a.breakpoints[-1], limit=400)
        assert exact == pytest.approx(val, rel=1e-7)

    def test_l1_rejects_tails(self, rng):
        a = random_pp(rng, tails=True)
        with pytest.raises(ValidationError):
            a.l1_norm()


class TestSerialization:
    def test_round_trip(self, rng):
        a = random_pp(rng)
        b = PiecewisePolynomial.from_json(a.to_json())
        xs = rng.uniform(-3, 3, 30)
        assert np.max(np.abs(a(xs) - b(xs))) < 1e-15

    def test_atoms_serialized(self):
        a = PiecewisePolynomial.atom(0.5, 2.0)
        d = a.to_json_dict()
        assert d["atoms"] == [{"x": 0.5, "mass": 2.0}]

    def test_sample_rows(self):
        pp = PiecewisePolynomial.indicator(0.0, 1.0)
        rows = pp.sample_rows([-0.5, 0.5, 1.5])
        assert rows == [(-0.5, 0.0), (0.5, 1.0), (1.5, 0.0)]


class TestIntegralAgainstDerivative:
    def test_matches_quadrature_gaussian(self, rng):
        g = GaussianFunction(0.3, 0.9)
        pp = random_pp(rng, degree=2)
        for order in (3, 4):
            exact = integral_against_derivative(g, order, pp)
            val, _ = quad(
                lambda x: np.real(g.eval_deriv(order, x) * pp(x)),
                pp.breakpoints[0],
                pp.breakpoints[-1],
                points=list(pp.breakpoints[1:-1]),
                limit=400,
            )
            assert exact.real == pytest.approx(val, abs=1e-9)

    def test_bump_kinks_are_split(self, rng):
        f = bump(-1.0, 1.2, smoothness=6)
        pp = PiecewisePolynomial(np.array([-2.0, 2.0]), (np.array([1.0, 0.3, 0.1]),))
        exact = integral_against_derivative(f, 3, pp)
        val, _ = quad(lambda x: np.real(f.eval_deriv(3, x) * pp(x)), -2.0, 2.0, points=[-1.0, 1.2], limit=400)
        assert exact.real == pytest.approx(val, abs=1e-9)

    def test_tail_pieces_with_decaying_function(self):
        g = GaussianFunction(0.0, 1.0)
        step = PiecewisePolynomial.step(np.array([-1.0, 1.0]), [2.0], left_value=0.0, right_value=3.0)
        exact = integral_against_derivative(g, 1, step)
        val, _ = quad(lambda x: np.real(g.eval_deriv(1, x) * step(x)), -np.inf, np.inf, limit=400)
        assert exact.real == pytest.approx(val, abs=1e-9)

    def test_atoms_contribute_point_values(self):
        g = GaussianFunction(0.0, 1.0)
        a = PiecewisePolynomial.atom(0.7, 2.0)
        exact = integral_against_derivative(g, 2, a)
        assert exact == pytest.approx(2.0 * complex(g.eval_deriv(2, 0.7)))


class TestWeightedAbsIntegral:
    def test_matches_quadrature(self, rng):
        pp = random_pp(rng, degree=2)
        w = 10
        exact = weighted_abs_integral(pp, w)
        val, _ = quad(
            lambda x: abs(np.real(pp(x))) * (1 + abs(x)) ** (-w),
            pp.breakpoints[0],
            pp.breakpoints[-1],
            points=list(pp.breakpoints[1:-1]) + [0.0],
            limit=500,
        )
        assert exact == pytest.approx(val, rel=1e-7)

    def test_polynomial_tails_raise(self):
        # shift densities are compactly supported; a nonzero tail is refused
        for left, right in (([0.0], [1.0, 1.0]), ([2.0], None)):
            pp = PiecewisePolynomial(
                np.array([-1.0, 1.0]),
                (np.array([1.0]),),
                left_tail=np.array(left),
                right_tail=None if right is None else np.array(right),
            )
            with pytest.raises(ValidationError):
                weighted_abs_integral(pp, 10)


    def test_several_weights_match_one_root_search_each(self, rng):
        # the segments do not depend on the weight; each exponent keeps its own arithmetic
        pp = random_pp(rng, degree=3)
        pp = PiecewisePolynomial(pp.breakpoints, pp.coeffs, ((0.3, 0.25), (-1.2, -0.5j)))
        weights = [3, 7, 10, 11]
        alone = []
        for w in weights:
            total = piecewise._weighted_abs([pp], [w])[0, 0]  # its own root search
            for x, m in pp.atoms:
                total += abs(complex(m)) * (1.0 + abs(x)) ** (-w)
            alone.append(total)
        assert weighted_abs_integrals([pp], weights) == [alone]
        assert [weighted_abs_integral(pp, w) for w in weights] == alone


    def test_several_densities_match_each_alone_bit_for_bit(self, rng):
        # one root search and one pass for all: each density's segments, roots
        # and products depend on it alone, whatever its degree and neighbours
        pps = [random_pp(rng, n_intervals=n, degree=deg) for n, deg in ((4, 3), (1, 0), (6, 5), (3, 1))]
        pps.append(PiecewisePolynomial(pps[0].breakpoints, pps[0].coeffs, ((0.3, 0.25), (-1.2, -0.5j))))
        pps.append(PiecewisePolynomial.atom([0.5], [2.0]))  # no interval at all
        weights = [3, 7, 10]
        assert weighted_abs_integrals(pps, weights) == [[weighted_abs_integral(pp, w) for w in weights] for pp in pps]


class TestDistinct:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_for_bit_union1d_and_unique(self, seed):
        r = np.random.default_rng(seed)
        a = np.round(r.standard_normal(40), 1)
        b = np.concatenate([a[:7], r.standard_normal(13), [0.0, -0.0, 1e-300, -1e-300]])
        for got, ref in ((piecewise._distinct(a, b), np.union1d(a, b)), (piecewise._distinct(b), np.unique(b))):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
        assert piecewise._distinct(np.zeros(0), np.zeros(0)).shape == (0,)


class TestAtomicMeasure:
    def test_total_variation(self):
        mu = PiecewisePolynomial.atom(np.array([1.0, -2.0]), np.array([3.0, -1.0 + 1.0j]))
        assert mu.atomic_mass() == pytest.approx(3.0 + np.sqrt(2.0))

    def test_cumulative_is_signed_integral_from_zero(self):
        mu = PiecewisePolynomial.atom(np.array([1.0, -1.0, 2.0]), np.array([1.0, 2.0, -0.5]))
        xi = mu.antiderivative(0.0)
        # integral over (0, x]
        assert xi(1.5) == pytest.approx(1.0)
        assert xi(2.5) == pytest.approx(0.5)
        assert xi(0.5) == pytest.approx(0.0)
        # negative side carries the sign flip
        assert xi(-1.5) == pytest.approx(-2.0)

    def test_cumulative_weighting(self):
        mu = PiecewisePolynomial.atom(np.array([2.0]), np.array([1.0]))
        xi = mu.multiply_linear(-1j, 1).multiply_linear(-1j, 1).antiderivative(0.0)
        assert xi(3.0) == pytest.approx((2.0 - 1j) ** 2)

    def test_coinciding_points_add_and_no_points_give_zero(self):
        mu = PiecewisePolynomial.atom([0.5, -1.0, 0.5], [2.0, 1.0j, -0.5])
        assert mu.atoms == ((-1.0, 1.0j), (0.5, 1.5 + 0.0j))
        assert list(mu.breakpoints) == [-1.0, 0.5]
        empty = PiecewisePolynomial.atom([], [])
        assert empty.atoms == () and list(empty.breakpoints) == [0.0, 1.0]
        assert not np.any(empty.coeffs)
        with pytest.raises(ValidationError):
            PiecewisePolynomial.atom([0.0, 1.0], [1.0])

    def test_scalar_atom(self):
        a = PiecewisePolynomial.atom(1.3, 0.5)
        assert a.atoms == ((1.3, 0.5 + 0.0j),)
        assert list(a.breakpoints) == [1.3] and a.coeffs.shape == (0, 1)


def _reference_antiderivative(pp, base, x):
    """F(x) = measure of (base, x], signed for x < base: scipy quad on the
    density part plus the atom masses summed by hand."""
    lo, hi = min(base, x), max(base, x)
    cuts = [b for b in pp.breakpoints if lo < b < hi]
    dens = quad(lambda t: np.real(pp(t)), lo, hi, points=cuts or None, limit=200)[0] if hi > lo else 0.0
    jumps = sum(w for a, w in pp.atoms if lo < a <= hi)
    return (dens + jumps) * (1.0 if x >= base else -1.0)


class TestAntiderivativeWithAtoms:
    # the grid is [-1, 0, 0.5, 2]; atoms inside an interval (0.3), on a
    # breakpoint (0.5, twice), left (-2.5) and right (3.0) of the grid
    ATOMS = ([0.3, 0.5, 0.5, -2.5, 3.0], [1.5, -0.75, 0.25, 2.0, -1.25])

    def _measure(self):
        rng = np.random.default_rng(91)
        density = PiecewisePolynomial(np.array([-1.0, 0.0, 0.5, 2.0]), tuple(rng.standard_normal(3) for _ in range(3)))
        return density.real_part() + PiecewisePolynomial.atom(*self.ATOMS)

    @pytest.mark.parametrize("base", [-3.0, 0.1, 0.4, 2.5, 3.5])
    def test_matches_quadrature_plus_jumps(self, base):
        mu = self._measure()
        F = mu.antiderivative(base)
        assert abs(F(base)) < 1e-13
        xs = (-3.0, -2.5, -1.2, -0.4, 0.3, 0.35, 0.5, 1.1, 2.0, 2.7, 3.0, 4.0)
        for x in xs:
            assert F(x).real == pytest.approx(_reference_antiderivative(mu, base, x), abs=1e-9), x

    def test_base_on_either_side_of_an_atom(self):
        mu = self._measure()
        left, right = mu.antiderivative(0.3 - 1e-3), mu.antiderivative(0.3 + 1e-3)
        dens = quad(lambda t: np.real(mu(t)), 0.3 - 1e-3, 0.3 + 1e-3)[0]
        for x in (-1.5, 0.0, 1.0, 3.5):
            assert (left(x) - right(x)).real == pytest.approx(1.5 + dens, abs=1e-12)

    def test_right_continuous_at_atoms(self):
        F = self._measure().antiderivative(0.0)
        for x, mass in ((0.3, 1.5), (0.5, -0.5), (-2.5, 2.0), (3.0, -1.25)):
            step = F(x) - F(np.nextafter(x, -np.inf))
            assert step == pytest.approx(mass, abs=1e-12)
            assert F(np.nextafter(x, np.inf)) == pytest.approx(F(x), abs=1e-12)


# ---------------------------------------------------------------------------
# the split Gauss-Legendre rule against mpmath.quad


def _mp_piece(c, lo, hi):
    """The interval's polynomial in mpmath, from its midpoint-centered row."""
    mid = (mpmath.mpf(lo) + mpmath.mpf(hi)) / 2
    rev = [mpmath.mpc(complex(v)) for v in c][::-1]
    return lambda x: mpmath.polyval(rev, x - mid)


def _mp_integral(pp, integrand, extra_cuts=lambda p, lo, hi: ()):
    """Sum over the intervals of mpmath.quad of integrand(x, p(x)), split
    at the breakpoints and at extra_cuts(p, lo, hi)."""
    total = mpmath.mpf(0)
    with mpmath.workdps(30):
        for lo, hi, c in zip(pp.breakpoints[:-1], pp.breakpoints[1:], pp.coeffs):
            p = _mp_piece(c, lo, hi)
            pts = sorted({mpmath.mpf(lo), mpmath.mpf(hi), *extra_cuts(p, lo, hi)})
            total += mpmath.quad(lambda x: integrand(x, p(x)), pts)
    return complex(total)


def _sign_changes(p, lo, hi):
    """Roots of Re p where it changes sign on a fine grid, plus 0 for |x|."""
    xs = [mpmath.mpf(float(x)) for x in np.linspace(lo, hi, 401)]
    vals = [mpmath.re(p(x)) for x in xs]
    roots = [mpmath.findroot(lambda x: mpmath.re(p(x)), (a, b), solver="anderson")
             for a, b, va, vb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]) if va * vb < 0]
    return roots + ([mpmath.mpf(0)] if lo < 0.0 < hi else [])


def _small_t_density(seed, d, m, t):
    H, V = random_pair(rng_stream(seed, 0), d, 1.0, 0.5)
    return ssf_compute(H, t * V, m).density


class TestSplitGaussRule:
    @pytest.mark.parametrize("m", [5, 6])
    def test_weighted_abs_integral_at_tiny_t(self, m):
        density = _small_t_density(80 + m, 3, m, 2.0**-8)
        w = 4 * ((m + 1) // 2) + (2 if m % 2 else 3)
        got = weighted_abs_integral(density, w)
        ref = _mp_integral(density, lambda x, p: abs(mpmath.re(p)) * (1 + abs(x)) ** -w, _sign_changes).real
        assert ref > 0.0
        assert abs(got - ref) <= 1e-12 * ref

    def test_weighted_trace_measure_norm_on_a_complex_density(self):
        rng = rng_stream(85, 0)
        H, V = random_pair(rng, 3, 1.0, 0.5)
        U0 = random_hermitian(rng, 3).entries @ random_hermitian(rng, 3).entries
        ops, args = remainder_pattern(H, V, 3)
        density, _ = eigen_tuple_density(U0, list(args), list(ops))
        assert np.max(np.abs(density.coeffs.imag)) > 1e-3 * np.max(np.abs(density.coeffs))
        got = WeightedTraceMeasure(density, 5).norm()
        ref = _mp_integral(density, lambda x, p: abs(p) * (1 + x * x) ** mpmath.mpf(-2.5)).real
        assert abs(got - ref) <= 1e-12 * ref

    def test_gaussian_at_close_knots(self):
        density = _small_t_density(86, 3, 4, 2.0**-8)
        assert np.min(np.diff(density.breakpoints)) < 1e-3
        g = GaussianFunction(float(np.mean(density.breakpoints)), 0.05)
        order = 4
        got = integral_against_derivative(g, order, density)
        s2 = mpmath.sqrt(2) * mpmath.mpf(g.width)

        def g_deriv(x):  # d^k/dx^k exp(-y^2), y = (x - c)/(sqrt(2) w)
            y = (x - mpmath.mpf(g.center)) / s2
            return (-1 / s2) ** order * mpmath.hermite(order, y) * mpmath.exp(-y * y)

        ref = _mp_integral(density, lambda x, p: g_deriv(x) * p)
        scale = _mp_integral(density, lambda x, p: abs(g_deriv(x) * p)).real
        assert abs(got - ref) <= 1e-13 * scale

    def test_bump_needs_more_than_twenty_nodes(self):
        # f^(3) (degree 3 between the kinks) times x^41 has degree 44,
        # above the 39 that 20 nodes integrate exactly: 20 nodes err by 1e-9
        f = bump(-1.0, 1.2, smoothness=2)
        pp = PiecewisePolynomial(np.array([-1.5, 1.5]), (np.eye(42)[41],))
        got = integral_against_derivative(f, 3, pp)
        with mpmath.workdps(30):
            # prefactor * (half^2 - s^2)^3 in s = x - mid, differentiated three times
            mid, half, power = mpmath.mpf(0.1), mpmath.mpf(1.1), f.smoothness + 1
            poly = [0] * (2 * power + 1)
            for j in range(power + 1):
                poly[2 * j] = mpmath.mpf(f.prefactor[0].real) * math.comb(power, j) * (-1) ** j * half ** (2 * (power - j))
            deriv = [poly[i] * math.perm(i, 3) for i in range(3, len(poly))][::-1]

        def f3(x):
            return mpmath.polyval(deriv, x - mid) if f.a < x < f.b else mpmath.mpf(0)

        def kinks(p, lo, hi):
            return [mpmath.mpf(k) for k in f.kink_points]

        ref = _mp_integral(pp, lambda x, p: f3(x) * p, kinks)
        scale = _mp_integral(pp, lambda x, p: abs(f3(x) * p), kinks).real
        assert abs(got - ref) <= 1e-13 * scale

    def test_polynomial_factor(self):
        coeffs = (0.3, -1.2, 0.5, 2.0, -0.7, 0.1, 0.05, -0.02)
        f = PolynomialFunction(coeffs)
        pp = random_pp(np.random.default_rng(88), n_intervals=6, degree=4)
        got = integral_against_derivative(f, 2, pp)
        rev = [mpmath.mpf(c) for c in coeffs][::-1]
        ref = _mp_integral(pp, lambda x, p: mpmath.diff(lambda y: mpmath.polyval(rev, y), x, 2) * p)
        scale = _mp_integral(pp, lambda x, p: abs(p)).real
        assert abs(got - ref) <= 1e-13 * scale

    def test_tail_at_or_above_the_order_is_rejected(self):
        # by parts needs deg tail < order; a constant tail against f itself does not decay away
        step = PiecewisePolynomial.step(np.array([-1.0, 1.0]), [2.0], left_value=0.0, right_value=3.0)
        with pytest.raises(ValidationError):
            integral_against_derivative(GaussianFunction(0.0, 1.0), 0, step)
        ramp = step.antiderivative(0.0)
        with pytest.raises(ValidationError):
            integral_against_derivative(GaussianFunction(0.0, 1.0), 1, ramp)
        assert integral_against_derivative(GaussianFunction(0.0, 1.0), 2, ramp) == pytest.approx(
            quad(lambda x: np.real(GaussianFunction(0.0, 1.0).eval_deriv(2, x) * ramp(x)), -np.inf, np.inf)[0],
            abs=1e-9,
        )
