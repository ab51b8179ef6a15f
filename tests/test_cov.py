import itertools
import json

import numpy as np
import pytest

from opshift import cov, moi
from opshift.cov import (
    EpsilonSignature,
    alternating_signature,
    basic_change_of_variables,
    build_check_operators,
    checked_product,
    corollary_expand,
    cov_expand,
    cov_scalar_identity,
    eigen_tuple_density,
    expansion_terms_json,
    kernel_sum_density,
    pJ_alpha,
    signature_for_J,
    trace_via_measure,
)
from opshift.ensembles import random_hermitian, rng_stream
from opshift.errors import BudgetError, ValidationError
from opshift.functions import GaussianFunction, PolynomialFunction, rational_from_poles, weight_multiply
from opshift.linalg import HermitianOperator, schatten_norm
from opshift.moi import MoiSymbol, OperatorTuple, moi_eval
from reference import cov_expand_per_term, eigen_tuples


def random_signature(rng, m):
    while True:
        ent = [str(rng.choice(["L", "0", "R"])) for _ in range(m + 1)]
        if ent[0] != "L" and ent[-1] != "R":
            return EpsilonSignature(tuple(ent))


def ops_and_args(seed, dim, m, h_norm=1.0, v_norm=0.8):
    rng = rng_stream(seed, 0)
    Hs = [random_hermitian(rng, dim, h_norm) for _ in range(m + 1)]
    Vs = [random_hermitian(rng, dim, v_norm).entries for _ in range(m)]
    return Hs, Vs


class TestSignature:
    def test_endpoint_constraints(self):
        with pytest.raises(ValidationError):
            EpsilonSignature(("L", "0"))
        with pytest.raises(ValidationError):
            EpsilonSignature(("0", "R"))
        eps = EpsilonSignature(("R", "0", "L"))
        assert eps.q == 1 and eps.zero_set() == (1,)


class TestCheckedOperators:
    def test_all_lr_with_trailing_zero_chains_resolvents(self):
        # signature (R, L, R, 0): the full product interleaves one resolvent
        # between consecutive arguments
        m = 3
        Hs, Us = ops_and_args(1, 3, m)
        Us = [random_hermitian(rng_stream(1, 1), 3, 1.0).entries] + Us[:-1] + [Us[-1]]
        eps = EpsilonSignature(("R", "L", "R", "0"))
        checked = build_check_operators(eps, Hs, Us)
        full = checked[0] @ checked[1] @ checked[2] @ checked[3]
        expect = Us[0]
        for j in range(1, m + 1):
            expect = expect @ Hs[j - 1].resolvent() @ Us[j]
        assert np.max(np.abs(full - expect)) < 1e-12

    def test_untouched_slot(self):
        m = 2
        Hs, Us = ops_and_args(2, 3, m)
        Us = [np.eye(3)] + Us
        eps = EpsilonSignature(("0", "0", "0"))
        checked = build_check_operators(eps, Hs, Us)
        for got, orig in zip(checked, Us):
            assert np.array_equal(got, orig)

    def test_double_resolvent_case(self):
        # (R, R, L, L): slot 2 is dressed on both sides
        m = 3
        Hs, Us = ops_and_args(3, 3, m)
        Us = [np.eye(3)] + Us
        eps = EpsilonSignature(("R", "R", "L", "L"))
        checked = build_check_operators(eps, Hs, Us)
        expect = Hs[1].resolvent() @ Us[2] @ Hs[2].resolvent()
        assert np.max(np.abs(checked[2] - expect)) < 1e-12

    def test_checked_product_empty_is_identity(self):
        Hs, Us = ops_and_args(4, 3, 2)
        checked = build_check_operators(EpsilonSignature(("R", "L", "L")), Hs, [np.eye(3)] + Us)
        assert np.array_equal(checked_product(checked, 1, 1, 3), np.eye(3))


class TestSignatureForJ:
    def test_examples(self):
        assert signature_for_J({2}, 3).entries == ("R", "R", "L", "L")
        eps = signature_for_J({1, 3}, 4)
        assert eps[0] == "R" and eps[1] == "L" and eps[2] == "R" and eps[3] == "L"

    def test_postcondition_constructive(self):
        # built signatures double-dress exactly the requested slots
        for m, J in ((3, {2}), (4, {1, 3}), (5, {1, 4}), (4, set())):
            eps = signature_for_J(J, m)
            Hs, Us = ops_and_args(10 + m, 2, m)
            checked = build_check_operators(eps, Hs, [np.eye(2)] + Us)
            for j in J:
                expect = Hs[j - 1].resolvent() @ Us[j - 1] @ Hs[j].resolvent()
                assert np.max(np.abs(checked[j] - expect)) < 1e-12

    def test_brute_force_search_agrees(self):
        # oracle: search {L, R}^5 for a signature meeting the postcondition
        m, J = 4, {1, 3}
        Hs, Us = ops_and_args(11, 2, m)
        found = None
        for ent in itertools.product("LR", repeat=m + 1):
            if ent[0] != "R" or ent[m] != "L":
                continue
            if all(ent[j - 1] == "R" and ent[j] == "L" for j in J):
                found = ent
                break
        assert found is not None
        eps = signature_for_J(J, m)
        for j in J:
            assert eps[j - 1] == "R" and eps[j] == "L"

    def test_distance_validation(self):
        with pytest.raises(ValidationError):
            signature_for_J({1, 2}, 3)


class TestScalarIdentity:
    def test_weight_square_example(self):
        # g = 1: (u^2)^[1](a, b) = u(a) + u(b), so the k=0 and k=1 terms cancel
        g = PolynomialFunction((1.0,))
        lam = [0.7, -1.3]
        lhs, rhs, res, scale = cov_scalar_identity(g, EpsilonSignature(("R", "L")), lam)
        assert lhs == 0.0
        assert res <= 1e-14 * scale
        u = PolynomialFunction((-1j, 1.0))
        uu = u.times_u(1)
        from opshift.functions import divided_difference

        assert divided_difference(uu, lam) == pytest.approx((lam[0] - 1j) + (lam[1] - 1j))

    def test_all_zero_signature_is_exact_single_term(self):
        g = rational_from_poles([2j, -1 - 1j])
        lam = [0.2, -0.9, 1.4]
        lhs, rhs, res, _ = cov_scalar_identity(g, EpsilonSignature(("0", "0", "0")), lam)
        assert res == 0.0

    def test_random_signatures_and_nodes(self):
        rng = rng_stream(20, 0)
        g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j, -0.5 - 1j])
        worst = 0.0
        for _ in range(500):
            m = int(rng.integers(1, 6))
            eps = random_signature(rng, m)
            lam = rng.uniform(-2.5, 2.5, m + 1)
            _, _, res, scale = cov_scalar_identity(g, eps, lam)
            worst = max(worst, res / scale)
        assert worst <= 1e-10


class TestOperatorExpansion:
    def test_all_zero_signature_single_term(self):
        m = 2
        Hs, Vs = ops_and_args(21, 3, m)
        g = rational_from_poles([2j, -1 - 1j])
        exp = cov_expand(g, EpsilonSignature(("0",) * (m + 1)), Hs, Vs)
        assert len(exp.terms) == 1
        assert exp.terms[0].weight_power == 0
        assert exp.residual == 0.0

    def test_random_instances(self):
        rng = rng_stream(22, 0)
        g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        worst = 0.0
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            m = int(rng.integers(1, 5))
            eps = random_signature(rng, m)
            Hs, Vs = ops_and_args(int(rng.integers(1 << 30)), dim, m)
            exp = cov_expand(g, eps, Hs, Vs)
            worst = max(worst, exp.residual / exp.scale)
        assert worst <= 1e-9

    def test_term_invariants(self):
        Hs, Vs = ops_and_args(23, 2, 3)
        eps = EpsilonSignature(("R", "0", "L", "L"))
        g = rational_from_poles([2j, -1 - 1j])
        exp = cov_expand(g, eps, Hs, Vs)
        q = eps.q
        for t in exp.terms:
            assert list(t.indices) == sorted(set(t.indices))
            assert set(eps.zero_set()).issubset(t.indices)
            assert t.weight_power == t.k - q + 1
        dump = json.loads(expansion_terms_json(exp))
        assert len(dump) == len(exp.terms)
        assert {"sign", "indices", "weight_power"} <= set(dump[0])


def _parity_table(m):
    """The alternating expansion's terms written out per parity: odd m takes
    every (p+1)-subset of 0..m with sign (-1)^(p+1) and weight power p+1;
    even m takes the subsets that contain m, with sign (-1)^p and power p."""
    if m % 2:
        return [((-1) ** (p + 1), p, p + 1, c) for p in range(m + 1) for c in itertools.combinations(range(m + 1), p + 1)]
    return [((-1) ** p, p, p, c + (m,)) for p in range(m + 1) for c in itertools.combinations(range(m), p)]


class TestExpansionTerms:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_alternating_signature_matches_parity_tables(self, m):
        assert list(cov._expansion_terms(alternating_signature(m))) == _parity_table(m)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_basic_signatures_give_two_terms(self, n):
        # +(f u)^[n] over every slot, then -f^[n-1] without the resolvent's slot
        full = tuple(range(n + 1))
        words = [("R",) + ("0",) * n, ("0",) * n + ("L",)] + [
            tuple("L" if i == j else "0" for i in range(n + 1)) for j in range(1, n)
        ]
        dropped = [0, n] + list(range(1, n))
        for word, slot in zip(words, dropped):
            rest = tuple(i for i in full if i != slot)
            assert list(cov._expansion_terms(EpsilonSignature(word))) == [(-1, n - 1, 0, rest), (1, n, 1, full)]

    def test_terms_are_grouped_by_ascending_order(self):
        rng = rng_stream(35, 0)
        for _ in range(50):
            eps = random_signature(rng, int(rng.integers(1, 7)))
            ks = [k for _, k, _, _ in cov._expansion_terms(eps)]
            assert ks == sorted(ks) and ks[0] == max(0, eps.q - 1) and ks[-1] == eps.m


class TestCorollary:
    def test_odd_random(self):
        g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j, -0.5 - 1j, 1.5 + 1j])
        Hs, Vs = ops_and_args(24, 3, 3)
        exp = corollary_expand(g, "odd", Hs, Vs)
        assert exp.residual <= 1e-10 * exp.scale

    def test_even_random_and_p0_term(self):
        g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j, -0.5 - 1j])
        Hs, Vs = ops_and_args(25, 3, 4)
        exp = corollary_expand(g, "even", Hs, Vs)
        assert exp.residual <= 1e-10 * exp.scale
        k0 = [t for t in exp.terms if t.k == 0]
        assert len(k0) == 1 and k0[0].indices == (4,) and k0[0].sign == 1

    def test_even_zero_arguments(self):
        Hs, _ = ops_and_args(26, 3, 4)
        Vs = [np.zeros((3, 3), dtype=complex) for _ in range(4)]
        g = rational_from_poles([2j, -1 - 1j])
        exp = corollary_expand(g, "even", Hs, Vs)
        assert np.max(np.abs(exp.lhs)) == 0.0
        assert exp.residual == 0.0

    def test_scalar_operators_reduce_to_identity(self):
        # 1x1 case: the operator identity is the scalar expansion identity
        rng = rng_stream(27, 0)
        g = rational_from_poles([2j, -1 - 1j, 1 + 1j])
        Hs = [HermitianOperator([[float(rng.uniform(-2, 2))]]) for _ in range(5)]
        Vs = [np.array([[float(rng.uniform(-1, 1))]], dtype=complex) for _ in range(4)]
        exp = corollary_expand(g, "even", Hs, Vs)
        lam = [float(np.real(h.entries[0, 0])) for h in Hs]
        lhs, rhs, res, scale = cov_scalar_identity(g, alternating_signature(4), lam)
        assert exp.residual <= 1e-12 * exp.scale
        assert res <= 1e-12 * scale

    def test_taylor_configuration(self):
        rng = rng_stream(28, 0)
        H = random_hermitian(rng, 3, 1.0)
        V = random_hermitian(rng, 3, 0.7)
        g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        for parity, m in (("odd", 3), ("even", 4)):
            Hs = [H, H + V] + [H] * (m - 1)
            Vs = [V.entries] * m
            exp = corollary_expand(g, parity, Hs, Vs)
            assert exp.residual <= 1e-9 * exp.scale

    def test_parity_validation(self):
        Hs, Vs = ops_and_args(29, 2, 3)
        g = rational_from_poles([2j])
        with pytest.raises(ValidationError):
            corollary_expand(g, "even", Hs, Vs)


class TestBasicChangeOfVariables:
    def test_all_variants(self):
        g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        for variant, j in (("left", None), ("inner", 1), ("inner", 2), ("right", None)):
            Hs, Vs = ops_and_args(30, 3, 3)
            _, _, res, scale = basic_change_of_variables(g, Hs, Vs, variant, j)
            assert res <= 1e-10 * scale

    def test_order_one_degenerate(self):
        g = rational_from_poles([2j, -1 - 1j])
        Hs, Vs = ops_and_args(31, 3, 1)
        for variant in ("left", "right"):
            _, _, res, scale = basic_change_of_variables(g, Hs, Vs, variant)
            assert res <= 1e-11 * scale


    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_hand_built_identities(self, n):
        g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        Hs, Vs = ops_and_args(40 + n, 3, n)
        lhs_ref = _integral(g, Hs, Vs)
        for variant, j in [("left", None), ("right", None)] + [("inner", j) for j in range(1, n)]:
            lhs, rhs, res, scale = basic_change_of_variables(g, Hs, Vs, variant, j)
            ref = _basic_reference(g, Hs, Vs, variant, j)
            assert np.array_equal(lhs, lhs_ref)
            assert scale == 1.0 + np.linalg.norm(lhs, 2) + np.linalg.norm(rhs, 2)
            assert np.linalg.norm(rhs - ref, 2) <= 1e-13 * scale
            assert np.linalg.norm(lhs - ref, 2) <= 1e-10 * scale
            assert res <= 1e-10 * scale

    def test_validation(self):
        g = rational_from_poles([2j, -1 - 1j])
        Hs, Vs = ops_and_args(45, 2, 2)
        with pytest.raises(ValidationError, match="n\\+1 operators"):
            basic_change_of_variables(g, Hs[:-1], Vs, "left")
        for j in (None, 0, 2):
            with pytest.raises(ValidationError, match="inner variant"):
                basic_change_of_variables(g, Hs, Vs, "inner", j)
        with pytest.raises(ValidationError, match="variant must be"):
            basic_change_of_variables(g, Hs, Vs, "middle")


def _integral(f, Hs, Vs, weight=0):
    return moi_eval(MoiSymbol(weight_multiply(f, weight), 0, len(Vs)), OperatorTuple(tuple(Hs), tuple(Vs)))


def _basic_reference(f, Hs, Vs, variant, j=None):
    """The single-step identities written out as t1 - t2, independent of the
    signature expansion: the resolvent stays outside the weighted integral
    for "left" and "right" and dresses argument j for "inner"."""
    n = len(Vs)
    if variant == "left":
        r0 = Hs[0].resolvent()
        return r0 @ _integral(f, Hs, Vs, 1) - r0 @ Vs[0] @ _integral(f, Hs[1:], Vs[1:])
    if variant == "right":
        rn = Hs[n].resolvent()
        return _integral(f, Hs, Vs, 1) @ rn - _integral(f, Hs[:-1], Vs[:-1]) @ Vs[-1] @ rn
    rj = Hs[j].resolvent()
    dressed = list(Vs)
    dressed[j - 1] = Vs[j - 1] @ rj
    merged = list(Vs)
    merged[j - 1] = Vs[j - 1] @ rj @ Vs[j]
    del merged[j]
    return _integral(f, Hs, dressed, 1) - _integral(f, Hs[:j] + Hs[j + 1 :], merged)


class TestPJAlpha:
    def test_empty_J_is_norm_product(self):
        Hs, Us = ops_and_args(32, 3, 2)
        Us = [np.eye(3)] + Us
        alphas = (np.inf, 2.0, 2.0)
        rep = pJ_alpha(Us, Hs, set(), alphas, 2)
        assert rep.r == 0.0
        expect = np.prod([schatten_norm(u, a) for u, a in zip(Us, alphas)])
        assert rep.p_value == pytest.approx(expect)

    def test_zero_argument_gives_zero(self):
        Hs, Us = ops_and_args(33, 3, 2)
        Us = [np.eye(3), np.zeros((3, 3)), Us[1]]
        rep = pJ_alpha(Us, Hs, set(), (np.inf, 1.5, 3.0), 2)
        assert rep.p_value == 0.0

    def test_scalar_hand_evaluation(self):
        # 1x1, J = {1}, n = 2: r = 1/3 and all factors are plain moduli
        h0 = HermitianOperator([[0.5]])
        h1 = HermitianOperator([[-0.25]])
        u0 = np.array([[2.0]], dtype=complex)
        u1 = np.array([[3.0]], dtype=complex)
        rep = pJ_alpha([u0, u1], [h0, h1], {1}, (1.0, np.inf), 2)
        assert rep.r == pytest.approx(1.0 / 3.0)
        dressed = abs(1.0 / (0.5 - 1j) * 3.0 * 1.0 / (-0.25 - 1j))
        expect = (2.0 * 3.0) ** (1.0 / 3.0) * dressed ** (2.0 / 3.0) * 2.0 ** (2.0 / 3.0)
        assert rep.p_value == pytest.approx(expect)

    def test_hoelder_mismatch_rejected(self):
        Hs, Us = ops_and_args(34, 2, 1)
        with pytest.raises(ValidationError):
            pJ_alpha([np.eye(2)] + Us, Hs, set(), (2.0, 3.0), 2)


class TestTraceViaMeasure:
    def test_zero_arguments(self):
        Hs, _ = ops_and_args(35, 3, 2)
        Us = [np.zeros((3, 3), dtype=complex)] * 2
        rep = trace_via_measure(np.eye(3), rational_from_poles([2j, -1 - 1j]), Us, Hs)
        assert rep.trace == 0.0
        assert rep.measure_norm == pytest.approx(0.0, abs=1e-14)

    def test_scalar_case(self):
        h = [HermitianOperator([[0.3]]), HermitianOperator([[-0.7]])]
        u0 = np.array([[1.5]], dtype=complex)
        u1 = np.array([[2.0]], dtype=complex)
        g = GaussianFunction(0.0, 1.0)
        rep = trace_via_measure(u0, g, [u1], h)
        from opshift.functions import divided_difference

        expect = 1.5 * 2.0 * divided_difference(g, [0.3, -0.7])
        assert rep.trace == pytest.approx(expect)
        assert rep.residual <= 1e-12 * rep.scale

    def test_two_paths_agree_random(self):
        rng = rng_stream(36, 0)
        g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j, -0.5 - 1j])
        for _ in range(5):
            Hs, Us = ops_and_args(int(rng.integers(1 << 30)), 3, 2)
            U0 = random_hermitian(rng, 3, 1.0).entries
            rep = trace_via_measure(U0, g, Us, Hs)
            assert rep.residual <= 1e-9 * rep.scale

    def test_measure_norm_ratio_stable_over_ensemble(self):
        # the measure norm stays a bounded multiple of the mixed-norm product
        rng = rng_stream(38, 0)
        g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        ratios = []
        for _ in range(6):
            Hs, Us = ops_and_args(int(rng.integers(1 << 30)), 3, 2)
            U0 = random_hermitian(rng, 3, 1.0).entries
            ratios.append(trace_via_measure(U0, g, Us, Hs).ratio)
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) < 1e3

    def test_identity_closing_with_matching_ends(self):
        # U0 = I with H_0 = H_m, the trace-compatible degenerate setting
        rng = rng_stream(37, 0)
        H = random_hermitian(rng, 3, 1.0)
        Hmid = random_hermitian(rng, 3, 1.0)
        Us = [random_hermitian(rng, 3, 0.8).entries for _ in range(2)]
        g = rational_from_poles([2j, -1 - 1j, 1 + 1j])
        rep = trace_via_measure(np.eye(3), g, Us, [H, Hmid, H])
        assert rep.residual <= 1e-10 * rep.scale
        assert np.isfinite(rep.ratio)


def _fold_error(got, ref):
    """Largest pointwise difference inside the intervals and on the atoms,
    relative to the reference's largest value or atom mass."""
    assert np.array_equal(got.breakpoints, ref.breakpoints)
    assert [x for x, _ in got.atoms] == [x for x, _ in ref.atoms]
    bp = ref.breakpoints
    xs = np.concatenate([bp[:-1] + f * np.diff(bp) for f in (0.1, 0.5, 0.9)])
    masses = [abs(w) for _, w in ref.atoms]
    scale = max([float(np.max(np.abs(ref(xs)))) if len(xs) else 0.0] + masses)
    diffs = [abs(a - b) for (_, a), (_, b) in zip(got.atoms, ref.atoms)]
    if len(xs):
        diffs.append(float(np.max(np.abs(got(xs) - ref(xs)))))
    return max(diffs) / scale


def _spectral(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues),) * 2) + 1j * rng.standard_normal((len(eigenvalues),) * 2))
    return HermitianOperator(q @ np.diag(eigenvalues) @ q.conj().T)


class TestKernelFold:
    """The one-pass fold against the sum of individual Peano kernels."""

    def test_repeated_knots_and_atom_keys(self):
        weights = {
            (0.0, 0.0, 1.0, 2.0): 0.7 - 0.2j,
            (0.0, 1.0, 1.0, 1.0): -1.3,
            (-0.5, 0.0, 0.0, 2.0): 0.4j,
            (0.25, 0.25, 0.25, 0.25): 2.0,  # an atom of mass w/3!
            (3.0, 3.0, 3.0, 3.0): -0.5,  # an atom off every kernel's support
            (-1.0, 0.0, 1.0, 2.0): 1.1,
        }
        nodes, values = np.array(list(weights)), np.array(list(weights.values()), dtype=complex)
        density, total = cov._fold_kernels(nodes, values, 3, (0.0, 1.0))
        assert _fold_error(density, cov._sum_kernels(nodes, values, 3, (0.0, 1.0))[0]) <= 1e-14
        assert dict(density.atoms)[0.25] == pytest.approx(2.0 / 6.0)
        assert total == pytest.approx(sum(abs(w) for w in weights.values()) / 6.0)

    def test_no_weight_gives_zero_density_on_the_hull(self):
        density, total = cov._fold_kernels(np.zeros((0, 4)), np.zeros(0, dtype=complex), 3, (-1.0, 2.0))
        assert total == 0.0 and density.support() == (-1.0, 2.0)
        assert np.all(density(np.linspace(-1.0, 2.0, 7)) == 0.0)

    @pytest.mark.parametrize("d, m", [(8, 2), (5, 3), (3, 5), (2, 6), (3, 6)])
    def test_remainder_pattern(self, d, m):
        H, V = random_hermitian(rng_stream(70 + d, m), d, 1.0), random_hermitian(rng_stream(80 + d, m), d, 0.5)
        Hs, Us = [H, H + V] + [H] * (m - 1), [V.entries] * m
        density, _ = eigen_tuple_density(np.eye(d), Us, Hs)
        assert _fold_error(density, kernel_sum_density(np.eye(d), Us, Hs)[0]) <= 1e-14

    @pytest.mark.parametrize(
        "eigenvalues, m",
        [
            # gaps of 1e-9 (one eigenvalue cluster), 1e-8 (merged nodes), 1e-7 and 1e-6
            ([-0.6, -0.6 + 1e-9, 0.1, 0.1 + 1e-8, 0.4, 0.4 + 1e-7, 0.8 + 1e-6, 0.8], 3),
            ([-0.6, -0.6 + 1e-9, 0.1 + 1e-8, 0.1, 0.4 + 1e-6], 4),
        ],
    )
    def test_clustered_spectrum(self, eigenvalues, m):
        rng = rng_stream(90, m)
        d = len(eigenvalues)
        H, V = _spectral(rng, eigenvalues), random_hermitian(rng, d, 1e-3)
        Hs, Us = [H, H + V] + [H] * (m - 1), [V.entries] * m
        density, _ = eigen_tuple_density(np.eye(d), Us, Hs)
        assert _fold_error(density, kernel_sum_density(np.eye(d), Us, Hs)[0]) <= 1e-14

    def test_general_closing_operator(self):
        # U0 != I and distinct H_k, as trace_via_measure passes them
        Hs, Us = ops_and_args(91, 3, 3)
        U0 = random_hermitian(rng_stream(91, 1), 3, 1.0).entries + 0.5j * np.eye(3)
        density, _ = eigen_tuple_density(U0, Us, Hs)
        assert _fold_error(density, kernel_sum_density(U0, Us, Hs)[0]) <= 1e-14

    def test_chunked_fold_matches_one_pass(self, monkeypatch):
        H, V = random_hermitian(rng_stream(92, 0), 4, 1.0), random_hermitian(rng_stream(92, 1), 4, 0.5)
        Hs, Us = [H, H + V, H, H], [V.entries] * 3
        whole, _ = eigen_tuple_density(np.eye(4), Us, Hs)
        monkeypatch.setattr(cov, "_FOLD_CHUNK", 1)  # one kernel per chunk
        chunked, _ = eigen_tuple_density(np.eye(4), Us, Hs)
        assert _fold_error(chunked, whole) <= 1e-14


def _reference_weights(U0, Us, Hs):
    """Tr(U_0 * product) over moi.eigen_tuples, summed by sorted node
    multiset one tuple at a time: the loop that the cycle product replaced."""
    u0_adj = np.asarray(U0, dtype=complex).conj().T  # Tr(U_0 X) = vdot(U_0^*, X)
    out = {}
    for nodes, prod in eigen_tuples(Hs, Us):
        key = tuple(sorted(nodes))
        out[key] = out.get(key, 0.0) + complex(np.vdot(u0_adj, prod))
    return out


def _pointwise_error(got, ref):
    """Largest difference of two densities inside the intervals of their
    common refinement and over their atoms, relative to the reference's
    largest value or atom mass."""
    bp = np.union1d(got.breakpoints, ref.breakpoints)
    xs = np.concatenate([bp[:-1] + f * np.diff(bp) for f in (0.1, 0.5, 0.9)])
    got_atoms, ref_atoms = dict(got.atoms), dict(ref.atoms)
    scale = max([float(np.max(np.abs(ref(xs)))) if len(xs) else 0.0] + [abs(w) for w in ref_atoms.values()])
    diffs = [abs(got_atoms.get(x, 0.0) - ref_atoms.get(x, 0.0)) for x in set(got_atoms) | set(ref_atoms)]
    if len(xs):
        diffs.append(float(np.max(np.abs(got(xs) - ref(xs)))))
    return max(diffs) / scale


def _remainder_case(seed, d, m):
    H, V = random_hermitian(rng_stream(seed, 0), d, 1.0), random_hermitian(rng_stream(seed, 1), d, 0.5)
    return np.eye(d), [V.entries] * m, [H, H + V] + [H] * (m - 1) if m else [H]


def _general_case(seed, d, m):
    # U0 != I and distinct H_k, as trace_via_measure passes them
    rng = rng_stream(seed, 2)
    Hs = [random_hermitian(rng, d, 1.0) for _ in range(m + 1)]
    Us = [random_hermitian(rng, d, 0.8).entries for _ in range(m)]
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), Us, Hs


def _degenerate_case(seed, d, m):
    # H and H + V both with repeated eigenvalues in unrelated eigenbases
    rng = rng_stream(seed, 3)
    H = _spectral(rng, np.round(np.linspace(-1.0, 1.0, d)))
    HV = _spectral(rng, 0.5 * np.round(np.linspace(-1.0, 2.0, d)))
    V = HermitianOperator(HV.entries - H.entries)
    return np.eye(d), [V.entries] * m, [H, H + V] + [H] * (m - 1) if m else [H]


def _kernel_case(seed, d, m):
    # V vanishes on half of H's eigenvectors, so those eigenvalues of H
    # are eigenvalues of H + V as well and lambda and mu nodes coincide
    rng = rng_stream(seed, 4)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    H = HermitianOperator(q @ np.diag(np.linspace(-1.0, 1.0, d)) @ q.conj().T)
    w = np.zeros((d, d), dtype=complex)
    k = d // 2
    w[k:, k:] = random_hermitian(rng, d - k, 0.5).entries
    V = HermitianOperator(q @ w @ q.conj().T)
    return np.eye(d), [V.entries] * m, [H, H + V] + [H] * (m - 1) if m else [H]


def _clustered_case(seed, d, m):
    # eigenvalue gaps of 1e-9 (one cluster), 1e-8 (merged nodes), 1e-7 and 1e-6
    rng = rng_stream(seed, 5)
    base = np.linspace(-0.8, 0.8, (d + 1) // 2)
    ev = np.sort(np.concatenate([base, base[: d // 2] + np.array([1e-9, 1e-8, 1e-7, 1e-6])[np.arange(d // 2) % 4]]))
    H, V = _spectral(rng, ev), random_hermitian(rng, d, 1e-3)
    return np.eye(d), [V.entries] * m, [H, H + V] + [H] * (m - 1) if m else [H]


# every (d, m) with d in {1, 2, 5, 8} and m in 0..6 whose reference loop and
# reference fold stay near a second: at most 2 * 10^4 tuples, so d = 5 runs
# to m = 5 and d = 8 to m = 3 (test_range covers d = 8, m = 4)
_SHAPES = [(d, m) for d in (1, 2, 5, 8) for m in range(7) if d ** (m + 1) <= 2 * 10**4]
_CASES = {
    "remainder": _remainder_case,
    "general": _general_case,
    "degenerate": _degenerate_case,
    "kernel": _kernel_case,
    "clustered": _clustered_case,
}


class TestCycleWeights:
    """The eigenbasis cycle product against the per-tuple trace loop."""

    @pytest.mark.parametrize("case", sorted(_CASES))
    @pytest.mark.parametrize("d, m", _SHAPES)
    def test_weights_and_density_match_the_tuple_loop(self, case, d, m):
        U0, Us, Hs = _CASES[case](100 + 10 * d + m, d, m)
        nodes, weights = cov._tuple_weights(U0, Us, Hs)
        ref = _reference_weights(U0, Us, Hs)
        got = {tuple(row): w for row, w in zip(nodes.tolist(), weights.tolist())}
        assert list(got) == sorted(got)  # ascending, as the fold expects
        scale = max(abs(w) for w in ref.values())
        assert max(abs(got.get(k, 0.0) - ref.get(k, 0.0)) for k in set(got) | set(ref)) <= 1e-13 * scale
        ref_nodes = np.array(list(ref), dtype=float).reshape(len(ref), m + 1)
        ref_density, _ = cov._fold_kernels(ref_nodes, np.array(list(ref.values())), m, cov._hull(Hs))
        density, _ = eigen_tuple_density(U0, Us, Hs)
        assert _pointwise_error(density, ref_density) <= 1e-12

    def test_one_cluster_per_chunk_matches_one_pass(self, monkeypatch):
        U0, Us, Hs = _general_case(93, 5, 3)
        Hs[0] = _degenerate_case(93, 5, 1)[2][0]  # eigenvalues -1, 0, 0, 0, 1
        whole, _ = eigen_tuple_density(U0, Us, Hs)
        blocks = []
        chain_block = moi._chain_block
        monkeypatch.setattr(moi, "_chain_block", lambda *a: blocks.append(a[2:]) or chain_block(*a))
        monkeypatch.setattr(moi, "_CYCLE_CHUNK", 1)
        chunked, _ = eigen_tuple_density(U0, Us, Hs)
        assert blocks == [(0, 1), (1, 4), (4, 5)]  # one chunk per cluster of H_0
        assert _fold_error(chunked, whole) <= 1e-14


def _assert_matches_per_term(exp, g, eps, Hs, Vs):
    """Every term value, lhs and rhs of the one-pass expansion within
    1e-13 * scale of one moi_eval per term."""
    lhs, values, rhs = cov_expand_per_term(g, eps, Hs, Vs)
    assert len(values) == len(exp.terms)
    errors = [np.max(np.abs(t.value - v)) for t, v in zip(exp.terms, values)]
    errors += [np.max(np.abs(exp.lhs - lhs)), np.max(np.abs(exp.rhs - rhs))]
    assert max(errors) <= 1e-13 * exp.scale


def _block_case(d, m):
    """Diagonal H_k, H_0 with a repeated eigenvalue, and arguments that are
    block diagonal on the halves of C^d with V_1 zero on the first half, so
    whole rows of the eigenbasis chains are exactly zero."""
    rng = rng_stream(77, 0)
    k = d // 2
    Hs = [HermitianOperator(np.diag(np.sort(rng.uniform(-1.0, 1.0, d)))) for _ in range(m + 1)]
    Hs[0] = HermitianOperator(np.diag(np.linspace(-1.0, 1.0, d).round()))
    Vs = []
    for j in range(m):
        v = np.zeros((d, d), dtype=complex)
        v[k:, k:] = random_hermitian(rng, d - k, 0.8).entries
        if j:
            v[:k, :k] = random_hermitian(rng, k, 0.8).entries
        Vs.append(v)
    return Hs, Vs


class TestOnePassExpansion:
    """cov_expand's batched chains against one moi_eval per term."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_random_signatures_match_per_term(self, m, dim):
        rng = rng_stream(800 + 10 * m + dim, 0)
        g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        for _ in range(2):
            eps = random_signature(rng, m)
            Hs, Vs = ops_and_args(int(rng.integers(1 << 30)), dim, m)
            _assert_matches_per_term(cov_expand(g, eps, Hs, Vs), g, eps, Hs, Vs)

    @pytest.mark.parametrize("kind", ["gaussian", "polynomial"])
    def test_other_symbols_match_per_term(self, kind):
        g = GaussianFunction(0.3, 0.9) if kind == "gaussian" else PolynomialFunction((0.5, -1.0, 0.0, 2.0, 1.0))
        rng = rng_stream(830, 0)
        for m in (1, 2, 3):
            eps = random_signature(rng, m)
            Hs, Vs = ops_and_args(int(rng.integers(1 << 30)), 3, m)
            _assert_matches_per_term(cov_expand(g, eps, Hs, Vs), g, eps, Hs, Vs)

    @pytest.mark.parametrize("chunk", [moi._CYCLE_CHUNK, 1])
    def test_repeated_eigenvalue_and_zero_blocks(self, monkeypatch, chunk):
        monkeypatch.setattr(moi, "_CYCLE_CHUNK", chunk)  # at 1, some chunks hold only zeros
        Hs, Vs = _block_case(4, 3)
        assert len(Hs[0].decomposition().eigenvalues) == 3  # -1, 0, 0, 1
        blocks = []
        chain_block = moi._chain_block
        monkeypatch.setattr(moi, "_chain_block", lambda *a: blocks.append(chain_block(*a)) or blocks[-1])
        g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        for word in (("R", "L", "R", "L"), ("R", "0", "L", "0"), ("0", "R", "L", "L")):
            eps = EpsilonSignature(word)
            _assert_matches_per_term(cov_expand(g, eps, Hs, Vs), g, eps, Hs, Vs)
        assert any(not np.any(b[i]) for b in blocks for i in range(len(b)))  # exactly zero rows
        assert chunk > 1 or any(not np.any(b) for b in blocks)

    def test_several_chunks_match_one_pass(self, monkeypatch):
        Hs, Vs = ops_and_args(840, 4, 4)
        Hs[0] = _degenerate_case(840, 4, 1)[2][0]  # eigenvalues -1, 0, 0, 1
        g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        eps = alternating_signature(4)
        calls = []
        dd = moi.divided_difference
        monkeypatch.setattr(moi, "divided_difference", lambda f, rows: calls.append(len(rows)) or dd(f, rows))
        whole = cov_expand(g, eps, Hs, Vs)
        orders = {t.k for t in whole.terms if t.k}
        assert len(calls) == 1 + len(orders)  # the left side, then one call per order
        blocks = []
        chain_block = moi._chain_block
        monkeypatch.setattr(moi, "_chain_block", lambda *a: blocks.append(a[2:]) or chain_block(*a))
        monkeypatch.setattr(moi, "_CYCLE_CHUNK", 1)
        del calls[:]
        chunked = cov_expand(g, eps, Hs, Vs)
        assert (0, 1) in blocks and (1, 3) in blocks  # one chunk per cluster of an H_0
        assert len(calls) > 1 + len(orders)  # each chunk contracted on its own
        errors = [np.max(np.abs(a.value - b.value)) for a, b in zip(whole.terms, chunked.terms)]
        assert max(errors + [np.max(np.abs(whole.rhs - chunked.rhs))]) <= 1e-14 * whole.scale
        _assert_matches_per_term(chunked, g, eps, Hs, Vs)

    def test_over_budget_expansion_builds_no_chain(self, monkeypatch):
        def guarded(*args):
            pytest.fail("an over-budget expansion built a chain block")

        Hs, Vs = ops_and_args(850, 3, 3)  # 3^4 = 81 cluster tuples
        monkeypatch.setattr(moi, "_chain_block", guarded)
        monkeypatch.setattr(moi, "TUPLE_BUDGET", 80)
        with pytest.raises(BudgetError):
            cov_expand(rational_from_poles([2j, -1 - 1j]), alternating_signature(3), Hs, Vs)
