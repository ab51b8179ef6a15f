import math

import numpy as np
import pytest
from scipy.integrate import quad

from opshift.ensembles import admissible_family, random_hermitian, random_pair, real_rational, rng_stream
from opshift.errors import ValidationError
from opshift.functions import NODE_MERGE_RELTOL, GaussianFunction, PolynomialFunction, bump, rational_from_poles
from opshift.linalg import HermitianOperator
from opshift.moi import taylor_remainder
from opshift.piecewise import PiecewisePolynomial, weighted_abs_integral, weighted_abs_integrals
from opshift.ssf import (
    ScalingReport,
    SpectralShiftDensity,
    _poly_on_grid,
    _u_l1_norm,
    measure_weight_shift,
    reconstruct_density,
    rp_term_measures,
    shift_densities,
    ssf_compute,
    uniqueness_fit,
    verify_trace_formula,
    weight_exponent_survey,
    weighted_norm_and_scaling,
)
from reference import _ssf_counting


class TestSsfCompute:
    def test_counting_scalar_pair(self):
        eta = _ssf_counting(HermitianOperator([[0.0]]), HermitianOperator([[1.0]]))
        assert eta(0.5) == pytest.approx(1.0)
        assert eta(-0.1) == 0.0
        assert eta(1.1) == 0.0

    def test_scalar_taylor_density(self):
        for v in (0.5, 1.0, 2.0):
            for m in (2, 3, 4):
                eta = ssf_compute(HermitianOperator([[0.0]]), HermitianOperator([[v]]), m)
                xs = np.linspace(1e-3, v - 1e-3, 25)
                expect = (v - xs) ** (m - 1) / math.factorial(m - 1)
                assert np.max(np.abs(eta(xs) - expect)) <= 1e-12

    def test_trace_formula_random_20_functions(self):
        H, V = random_pair(rng_stream(50, 0), 3, 1.0, 0.6)
        eta = ssf_compute(H, V, 3)
        rng = rng_stream(50, 1)
        fam = admissible_family(rng, 20, 3, 10)
        for f in fam:
            lhs = complex(np.trace(taylor_remainder(f, H, V, 3, "direct")))
            rhs = eta.integrate_against(f)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    def test_support_inside_hull(self):
        H, V = random_pair(rng_stream(51, 0), 4, 1.2, 0.7)
        eta = ssf_compute(H, V, 3)
        eigs = np.concatenate(
            [H.decomposition().eigenvalues, (H + V).decomposition().eigenvalues]
        )
        lo, hi = eta.support()
        assert lo >= eigs.min() - 1e-12 and hi <= eigs.max() + 1e-12

    def test_real_valuedness_and_no_atoms(self):
        for seed in range(5):
            H, V = random_pair(rng_stream(60 + seed, 0), 3, 1.0, 0.6)
            for m in (3, 4):
                eta = ssf_compute(H, V, m)
                assert eta.imag_residue <= 1e-10 * eta.scale
                assert eta.density.atomic_mass() <= 1e-10

    def test_local_degree_bound(self):
        H, V = random_pair(rng_stream(52, 0), 3, 1.0, 0.6)
        eta = ssf_compute(H, V, 3)
        assert eta.density.degree() <= 2

    def test_first_order_baseline_both_constructions(self):
        # Tr(f(H+V) - f(H)) = integral of f' eta_1, counting and kernel alike
        from opshift.linalg import func_calculus

        H, V = random_pair(rng_stream(94, 0), 4, 1.0, 0.5)
        f = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        lhs = complex(np.trace(func_calculus(f, H + V) - func_calculus(f, H)))
        for eta1 in (_ssf_counting(H, V), ssf_compute(H, V, 1)):
            assert abs(lhs - eta1.integrate_against(f)) <= 1e-12 * (1.0 + abs(lhs))

    def test_shared_eigenvalue_produces_no_atom(self):
        # spectra of H and H+V may intersect; the all-equal node tuples then
        # exist but their weights vanish, keeping the density atom-free
        H = HermitianOperator(np.diag([0.0, 1.0]))
        V = HermitianOperator(np.diag([0.0, 3.0]))
        eta = ssf_compute(H, V, 3)
        assert eta.density.atomic_mass() <= 1e-14

    def test_breakpoints_have_no_sliver_interval(self):
        # repeated nodes keep their value when merged, so no interval is
        # narrower than the merge tolerance
        for seed in range(4):
            H, V = random_pair(rng_stream(55 + seed, 0), 3, 1.0, 0.5)
            for m in (3, 4):
                bp = ssf_compute(H, V, m).density.breakpoints
                assert np.min(np.diff(bp)) > NODE_MERGE_RELTOL * (1.0 + bp[-1] - bp[0])

    def test_counting_validation(self):
        H, V = random_pair(rng_stream(53, 0), 2, 1.0, 0.5)
        with pytest.raises(ValidationError):
            ssf_compute(H, V, 0)

    def test_polynomial_vanishing(self):
        H, V = random_pair(rng_stream(54, 0), 3, 1.0, 0.6)
        for m in (3, 4):
            for k in range(m):
                f = PolynomialFunction(tuple([0.0] * k + [1.0]))
                val = abs(np.trace(taylor_remainder(f, H, V, m, "direct")))
                assert val <= 1e-12


class TestVerifyTraceFormula:
    def test_dim4_ensemble(self):
        H, V = random_pair(rng_stream(55, 0), 4, 1.0, 0.6)
        fam = admissible_family(rng_stream(55, 1), 20, 3, 10)
        rep = verify_trace_formula(H, V, 2, "odd", fam)
        assert rep.max_relative_residual <= 1e-8
        assert rep.rejected == ()

    def test_even_case(self):
        H, V = random_pair(rng_stream(56, 0), 3, 1.0, 0.6)
        fam = admissible_family(rng_stream(56, 1), 12, 4, 11)
        rep = verify_trace_formula(H, V, 2, "even", fam)
        assert rep.max_relative_residual <= 1e-8

    def test_scalar_closed_form(self):
        H = HermitianOperator([[0.0]])
        V = HermitianOperator([[0.8]])
        f = GaussianFunction(0.2, 0.9)
        rep = verify_trace_formula(H, V, 2, "odd", [f])
        val, _ = quad(lambda x: np.real(f.eval_deriv(3, x)) * (0.8 - x) ** 2 / 2.0, 0.0, 0.8)
        assert rep.traces[0].real == pytest.approx(val, abs=1e-10)
        assert rep.max_relative_residual <= 1e-10

    def test_far_away_bump_gives_zero(self):
        # support far outside the spectral hull: both sides vanish
        H, V = random_pair(rng_stream(57, 0), 3, 1.0, 0.5)
        f = bump(50.0, 53.0, smoothness=6)
        rep = verify_trace_formula(H, V, 2, "odd", [f])
        assert abs(rep.traces[0]) <= 1e-12
        assert rep.max_relative_residual <= 1e-10

    def test_nonmember_rejected_with_reason(self):
        H, V = random_pair(rng_stream(58, 0), 2, 1.0, 0.5)
        weak = rational_from_poles([2j])  # decay 1, far below the gate
        rep = verify_trace_formula(H, V, 2, "odd", [weak])
        assert rep.rejected and "decay" in rep.rejected[0][1]
        assert rep.residuals == ()

    def test_higher_half_order(self):
        # n = 3: orders 5 and 6 with weight classes 14 and 15
        H, V = random_pair(rng_stream(72, 0), 2, 1.0, 0.5)
        fam = admissible_family(rng_stream(72, 1), 6, 6, 15)
        for parity, m in (("odd", 5), ("even", 6)):
            rep = verify_trace_formula(H, V, 3, parity, fam)
            assert rep.order == m
            assert rep.max_relative_residual <= 1e-8


def _family(seed, d, count):
    """H and ``count`` perturbations: V = 0, a V with a double eigenvalue of
    H + V (for d >= 2, a second cluster shape), then tV for t = 1, 1/2, ..."""
    rng = rng_stream(seed, 0)
    H, V = random_hermitian(rng, d, 1.0), random_hermitian(rng, d, 0.4)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    ev = np.linspace(-0.5, 0.5, d)
    ev[d - 1] = ev[max(d - 2, 0)]
    double = HermitianOperator(q @ np.diag(ev) @ q.conj().T - H.entries) if d >= 2 else V
    Vs = [HermitianOperator(np.zeros((d, d))), double] + [2.0**-j * V for j in range(count)]
    return H, Vs[:count]


class TestShiftDensities:
    """The stacked densities of a family against ssf_compute per member."""

    @pytest.mark.parametrize("d, m", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (3, 6), (1, 4), (5, 1), (2, 6)])
    @pytest.mark.parametrize("count", [1, 3, 9])
    def test_members_match_ssf_compute(self, count, d, m):
        H, Vs = _family(300 + 10 * d + m, d, count)
        w = 4 * ((m + 1) // 2) + (2 if m % 2 else 3)
        if d >= 2 and count > 1:
            assert len((H + Vs[1]).decomposition().eigenvalues) == d - 1
        etas = shift_densities(H, Vs, m)
        norms = weighted_abs_integrals([eta.density for eta in etas], [w, w - 3])
        for eta, V, norm in zip(etas, Vs, norms):
            ref = ssf_compute(H, V, m)
            assert np.array_equal(eta.density.breakpoints, ref.density.breakpoints)
            assert float(np.max(np.abs(eta.density.coeffs - ref.density.coeffs), initial=0.0)) <= 1e-14 * ref.scale
            assert dict(eta.density.atoms).keys() == dict(ref.density.atoms).keys()
            assert eta.scale == pytest.approx(ref.scale, rel=1e-14)
            assert eta.imag_residue <= ref.imag_residue + 1e-14 * ref.scale
            for value, v in zip(norm, (w, w - 3)):
                assert value == pytest.approx(weighted_abs_integral(ref.density, v), rel=1e-13, abs=0.0)
        if count > 1:
            assert not etas[0].density.coeffs.any() and norms[0] == [0.0, 0.0]

    def test_sweep_matches_one_density_per_scale(self):
        H, V = random_pair(rng_stream(320, 0), 3, 1.0, 0.3)
        for parity in ("odd", "even"):
            rep = weighted_norm_and_scaling(H, V, 2, parity)
            for t, value in rep.scales:
                alone = weighted_abs_integral(ssf_compute(H, t * V, rep.order).density, rep.weight_exponent)
                assert value == pytest.approx(alone, rel=1e-13, abs=0.0)
            assert rep.weighted_l1 == rep.scales[0][1]
            assert np.array_equal(rep.density.coeffs, ssf_compute(H, V, rep.order).density.coeffs)


class TestWeightedNormAndScaling:
    def test_zero_perturbation(self):
        H = random_hermitian(rng_stream(59, 0), 3, 1.0)
        rep = weighted_norm_and_scaling(H, HermitianOperator(np.zeros((3, 3))), 2, "odd")
        assert rep.weighted_l1 == pytest.approx(0.0, abs=1e-14)
        assert rep.slope is None
        # no kernels: the zero density on the spectral hull
        assert rep.density.support() == tuple(H.decomposition().eigenvalues[[0, -1]])
        assert not rep.density.coeffs.any() and rep.density.atoms == ()

    @pytest.mark.parametrize("t_count", [5, 6, 9, 12])
    def test_small_t_slope_uses_scales_up_to_one_sixteenth(self, t_count):
        # order 3 for t <= 2^-4 and order 1 above: only the small scales may count
        scales = tuple((2.0**-j, 2.0**-j if j < 4 else 2.0 ** (-3 * j + 8)) for j in range(t_count))
        rep = ScalingReport(3, 8, 1.0, 1.0, 1.0, scales, None)
        if t_count < 6:
            assert rep.small_t_slope() is None
        else:
            assert rep.small_t_slope() == pytest.approx(3.0)

    def test_scalar_exact_scaling(self):
        # 1x1: weighted norm = t^m * C(t) with C -> 1/((m-1)! * m) as t -> 0,
        # so small-t secant slopes approach m
        H = HermitianOperator([[0.0]])
        V = HermitianOperator([[1.0]])
        rep = weighted_norm_and_scaling(H, V, 2, "odd")
        ts = [t for t, _ in rep.scales]
        vals = [v for _, v in rep.scales]
        m = rep.order
        small_t_slope = (math.log(vals[-1]) - math.log(vals[-2])) / (math.log(ts[-1]) - math.log(ts[-2]))
        assert small_t_slope == pytest.approx(m, abs=0.05)
        limits = [v / t**m for t, v in rep.scales]
        assert abs(limits[-1] - limits[-2]) / limits[-1] < 0.01

    def test_dim3_slopes_in_band(self):
        slopes_odd = []
        slopes_even = []
        for seed in (61, 62, 63):
            H, V = random_pair(rng_stream(seed, 0), 3, 1.0, 0.3)
            slopes_odd.append(weighted_norm_and_scaling(H, V, 2, "odd").slope)
            slopes_even.append(weighted_norm_and_scaling(H, V, 2, "even").slope)
        # band width reflects the measured dispersion of this ensemble
        assert all(2.9 <= s <= 3.2 for s in slopes_odd)
        assert all(3.9 <= s <= 4.2 for s in slopes_even)

    def test_rhs_factor_formula(self):
        from opshift.linalg import schatten_norm

        H, V = random_pair(rng_stream(64, 0), 3, 1.0, 0.6)
        rep = weighted_norm_and_scaling(H, V, 2, "odd")
        rH = H.resolvent()
        dressed = schatten_norm(rH @ V.entries @ rH, 2)
        assert rep.rhs_factor == pytest.approx((1 + V.norm() ** 2) * V.norm() * dressed**2)


class TestWeightExponentSurvey:
    @pytest.mark.parametrize("parity", ["odd", "even"])
    def test_matches_one_weighted_norm_per_weight_bit_for_bit(self, parity):
        # the survey reuses each report's weighted_l1 and one root search for all densities
        pairs = [random_pair(rng_stream(seed, 0), 3, 1.0, 0.3) for seed in (66, 67)]
        pairs.append((pairs[0][0], HermitianOperator(np.zeros((3, 3)))))  # bound factor 0: skipped
        reports = [weighted_norm_and_scaling(H, V, 2, parity) for H, V in pairs]
        survey = weight_exponent_survey(reports)
        assert survey["reference_exponent"] == reports[0].weight_exponent
        for w, value in survey["weights"].items():
            expect = 0.0
            for rep in reports:
                if rep.rhs_factor:
                    expect = max(expect, weighted_abs_integral(rep.density, w) / rep.rhs_factor)
            assert value == expect


class TestUniquenessFit:
    def test_identical_densities(self):
        H, V = random_pair(rng_stream(65, 0), 3, 1.0, 0.6)
        eta = ssf_compute(H, V, 3)
        coeffs, res = uniqueness_fit(eta, eta, 3)
        assert np.max(np.abs(coeffs)) < 1e-12
        assert res < 1e-12

    def test_planted_polynomial(self):
        H, V = random_pair(rng_stream(66, 0), 3, 1.0, 0.6)
        eta = ssf_compute(H, V, 3)
        planted = _poly_on_grid([1.0, 2.0, 0.0], eta.density.breakpoints)
        shifted = SpectralShiftDensity(3, eta.density + planted, "bspline", 0.0, eta.scale)
        coeffs, res = uniqueness_fit(shifted, eta, 3)
        assert np.allclose(coeffs, [1.0, 2.0, 0.0], atol=1e-10)
        assert res <= 1e-10

    def test_counting_vs_kernel_constant(self):
        H, V = random_pair(rng_stream(67, 0), 3, 1.0, 0.6)
        eta_c = _ssf_counting(H, V)
        eta_b = ssf_compute(H, V, 1)
        coeffs, res = uniqueness_fit(eta_c, eta_b, 1)
        assert res <= 1e-9

    def test_reconstruction_close_after_fit(self):
        H, V = random_pair(rng_stream(68, 0), 3, 1.0, 0.6)
        eta = ssf_compute(H, V, 3)
        rec = reconstruct_density(H, V, 3)
        _, res = uniqueness_fit(eta, rec, 3)
        assert res <= 1e-6 * (1.0 + eta.l1_norm())


class TestMeasureWeightShift:
    def test_fundamental_theorem(self):
        mu = PiecewisePolynomial.atom(np.array([1.0]), np.array([1.0]))
        g = GaussianFunction(0.0, 1.0)
        rep = measure_weight_shift(mu, 0, 0, 1, 1.0, [g])
        assert rep.residuals[0] <= 1e-8
        assert rep.bound_holds

    def test_zero_measure(self):
        mu = PiecewisePolynomial.atom(np.array([]), np.array([]))
        g = GaussianFunction(0.0, 1.0)
        rep = measure_weight_shift(mu, 0, 1, 2, 0.5, [g])
        assert rep.mu_tilde_norm == pytest.approx(0.0, abs=1e-12)
        assert rep.residuals[0] <= 1e-10

    def test_spec_instance(self):
        mu = PiecewisePolynomial.atom(np.array([2.0, -1.0]), np.array([3.0, -1.0]))
        g = GaussianFunction(0.1, 1.0)
        rep = measure_weight_shift(mu, 0, 1, 2, 0.5, [g])
        assert max(rep.residuals) <= 1e-8
        assert rep.bound_holds

    def test_random_measures_family(self):
        rng = rng_stream(69, 0)
        gs = [GaussianFunction(0.2, 1.1), real_rational(rng, 10)]
        for _ in range(10):
            count = int(rng.integers(1, 5))
            mu = PiecewisePolynomial.atom(rng.uniform(-3, 3, count), rng.standard_normal(count) + 1j * rng.standard_normal(count))
            n, m, k = int(rng.integers(0, 2)), int(rng.integers(0, 3)), int(rng.integers(1, 4))
            eps = float(rng.uniform(0.25, 1.0))
            rep = measure_weight_shift(mu, n, m, k, eps, gs)
            assert max(rep.residuals) <= 1e-8 * (1.0 + mu.atomic_mass())
            assert rep.bound_holds

    def test_no_shift_keeps_the_atoms(self):
        # k = 0: the shifted measure is u^-eps mu, with norm sum |w_j| |x_j - i|^-eps
        pts, wts = np.array([2.0, -1.0, 0.5]), np.array([3.0, -1.0, 0.5j])
        mu = PiecewisePolynomial.atom(pts, wts)
        g = GaussianFunction(0.1, 1.0)
        for m in (0, 1, 2):
            rep = measure_weight_shift(mu, 1, m, 0, 0.5, [g])
            assert rep.mu_tilde_norm == pytest.approx(np.sum(np.abs(wts) * np.abs(pts - 1j) ** -0.5), rel=1e-14)
            assert rep.residuals[0] <= 1e-14
            assert rep.xi.atoms and rep.bound_holds

    def test_measure_with_a_density_part(self):
        # a compactly supported density plus atoms shifts on the same path; the bound takes its total variation
        mu = PiecewisePolynomial.indicator(-1.0, 0.5).multiply_linear(0.3, 1.0) + PiecewisePolynomial.atom([0.2, 2.0], [1.0, -0.5j])
        g = GaussianFunction(0.1, 0.9)
        for k in (0, 1, 2, 3):
            rep = measure_weight_shift(mu, 1, 1, k, 0.5, [g])
            assert rep.residuals[0] <= 1e-13
            assert rep.bound_value > 1.5 * _u_l1_norm(0.5) and rep.bound_holds

    def test_epsilon_validation(self):
        mu = PiecewisePolynomial.atom(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValidationError):
            measure_weight_shift(mu, 0, 0, 1, 0.0, [])
        with pytest.raises(ValidationError):
            measure_weight_shift(mu, 0, 0, 1, 1.5, [])


class TestRpTermMeasures:
    def test_zero_perturbation(self):
        H = random_hermitian(rng_stream(70, 0), 2, 1.0)
        V = HermitianOperator(np.zeros((2, 2)))
        fam = [GaussianFunction(0.0, 1.0)]
        rep = rp_term_measures(H, V, 2, "odd", fam)
        for term in rep["terms"]:
            assert all(abs(t) <= 1e-13 for t in term.traces)

    def test_scalar_sum(self):
        H = HermitianOperator([[0.0]])
        V = HermitianOperator([[0.7]])
        fam = [GaussianFunction(0.1, 0.9)]
        rep = rp_term_measures(H, V, 2, "odd", fam)
        assert max(rep["signed_sum_residuals"]) <= 1e-10

    def test_dim3_odd_and_even(self):
        H, V = random_pair(rng_stream(71, 0), 3, 1.0, 0.6)
        fam = [real_rational(rng_stream(71, 1), 12), GaussianFunction(0.0, 1.0)]
        for parity in ("odd", "even"):
            rep = rp_term_measures(H, V, 2, parity, fam)
            assert max(rep["signed_sum_residuals"]) <= 1e-9
            for term in rep["terms"]:
                assert max(term.trace_residuals) <= 1e-8
