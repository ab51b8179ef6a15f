import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from opshift.errors import BudgetError, DomainError, ValidationError
from opshift.ensembles import random_hermitian, random_pair, rng_stream
from opshift import moi
from opshift.functions import GaussianFunction, PolynomialFunction, bump, divided_difference, rational_from_poles
from opshift.linalg import HermitianOperator, func_calculus, schatten_norm
from opshift.moi import (
    MoiSymbol,
    OperatorTuple,
    frechet_derivative,
    moi_eval,
    moi_evals,
    perturbation_identities,
    perturbation_identity,
    taylor_remainder,
)
from reference import eigen_tuples, moi_eval_separated_rational
from test_functions import _mp_divided_difference


def finite_difference_derivative(f, H, V, k, step=1e-3):
    """Independent oracle: 5-point central differences of t -> f(H + tV)."""
    def mat(t):
        return func_calculus(f, HermitianOperator(H.entries + t * V))

    if k == 1:
        d = (-mat(2 * step) + 8 * mat(step) - 8 * mat(-step) + mat(-2 * step)) / (12 * step)
    elif k == 2:
        d = (-mat(2 * step) + 16 * mat(step) - 30 * mat(0.0) + 16 * mat(-step) - mat(-2 * step)) / (
            12 * step**2
        )
    else:
        raise NotImplementedError
    return d / math.factorial(k)


class TestMoiEval:
    def test_identity_symbol_returns_argument(self):
        H = random_hermitian(rng_stream(1, 0), 3, 1.0)
        V = random_hermitian(rng_stream(1, 1), 3, 0.7).entries
        sym = MoiSymbol(PolynomialFunction((0.0, 1.0)), 0, 1)
        out = moi_eval(sym, OperatorTuple((H, H), (V,)))
        assert np.max(np.abs(out - V)) < 1e-12

    def test_square_symbol_anticommutator(self):
        # oracle: d/dt (H+tV)^2 at 0 = HV + VH, expanded by the binomial
        H = HermitianOperator(np.diag([0.0, 1.0]))
        V = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sym = MoiSymbol(PolynomialFunction((0.0, 0.0, 1.0)), 0, 1)
        out = moi_eval(sym, OperatorTuple((H, H), (V,)))
        assert np.max(np.abs(out - np.array([[0.0, 1.0], [1.0, 0.0]]))) < 1e-14

    def test_zero_spectrum_cube(self):
        H = HermitianOperator(np.zeros((2, 2)))
        V = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sym = MoiSymbol(PolynomialFunction((0.0, 0.0, 0.0, 1.0)), 0, 2)
        out = moi_eval(sym, OperatorTuple((H, H, H), (V, V)))
        assert np.max(np.abs(out)) == 0.0

    def test_degenerate_order_zero(self):
        H = random_hermitian(rng_stream(2, 0), 3, 1.0)
        f = rational_from_poles([2j])
        sym = MoiSymbol(f, 0, 0)
        out = moi_eval(sym, OperatorTuple((H,), ()))
        assert np.max(np.abs(out - func_calculus(f, H))) < 1e-14

    def test_multilinearity(self):
        rng = rng_stream(3, 0)
        H = random_hermitian(rng, 3, 1.0)
        f = rational_from_poles([2j, -1 - 1j])
        sym = MoiSymbol(f, 0, 2)
        A = random_hermitian(rng, 3, 1.0).entries
        B = random_hermitian(rng, 3, 1.0).entries
        C = random_hermitian(rng, 3, 1.0).entries
        ops = (H, H, H)
        t1 = moi_eval(sym, OperatorTuple(ops, (2.0 * A + 0.5 * B, C)))
        t2 = moi_eval(sym, OperatorTuple(ops, (A, C)))
        t3 = moi_eval(sym, OperatorTuple(ops, (B, C)))
        scale = 1.0 + max(np.max(np.abs(t)) for t in (t1, t2, t3))
        assert np.max(np.abs(t1 - 2.0 * t2 - 0.5 * t3)) <= 1e-10 * scale

    def test_separated_rational_cross_check(self):
        rng = rng_stream(4, 0)
        f = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        for _ in range(3):
            H0, H1, H2 = (random_hermitian(rng, 3, 1.0) for _ in range(3))
            V1, V2 = (random_hermitian(rng, 3, 0.8).entries for _ in range(2))
            sym = MoiSymbol(f, 0, 2)
            t = OperatorTuple((H0, H1, H2), (V1, V2))
            a = moi_eval(sym, t)
            b = moi_eval_separated_rational(sym, t)
            assert np.max(np.abs(a - b)) < 1e-11 * (1.0 + np.max(np.abs(a)))

    def test_pole_on_spectrum_rejected(self):
        H = HermitianOperator([[0.5]])
        bad = rational_from_poles([0.5 + 1e-15j])
        with pytest.raises((DomainError, ValidationError)):
            moi_eval(MoiSymbol(bad, 0, 1), OperatorTuple((H, H), (np.eye(1),)))

    def test_budget_guard(self):
        H = random_hermitian(rng_stream(5, 0), 16, 1.0)
        V = np.eye(16, dtype=complex)
        sym = MoiSymbol(rational_from_poles([2j]), 0, 6)
        with pytest.raises(BudgetError):
            moi_eval(sym, OperatorTuple((H,) * 7, (V,) * 6))

    def test_schatten_bound_ratios_finite(self):
        rng = rng_stream(6, 0)
        f = rational_from_poles([2j, -1 - 1j])
        sym = MoiSymbol(f, 0, 2)
        alphas = (4.0, 4.0)  # 1/alpha = 1/2
        ratios = []
        for _ in range(8):
            H = random_hermitian(rng, 3, 1.0)
            V1 = random_hermitian(rng, 3, rng.uniform(0.2, 2.0)).entries
            V2 = random_hermitian(rng, 3, rng.uniform(0.2, 2.0)).entries
            out = moi_eval(sym, OperatorTuple((H, H, H), (V1, V2)))
            denom = schatten_norm(V1, alphas[0]) * schatten_norm(V2, alphas[1])
            ratios.append(schatten_norm(out, 2.0) / denom)
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) < 1e3


def _reference_sum(symbol, optuple, divided=divided_difference):
    """The operator integral over moi.eigen_tuples, one tuple at a time, and
    the symbol value at every distinct sorted node row that loop reaches."""
    out = np.zeros((optuple.dim, optuple.dim), dtype=complex)
    values = {}
    for nodes, prod in eigen_tuples(optuple.operators, optuple.arguments):
        row = tuple(sorted(nodes))
        if row not in values:
            values[row] = divided(symbol.weighted, row)
        out += values[row] * prod
    return out, values


_SYMBOLS = {
    "rational": rational_from_poles([0.3 + 0.9j, 0.3 - 0.9j, -0.5 + 1.4j]),
    "gaussian": GaussianFunction(0.2, 0.9, (1.0, -0.4, 0.3)),
    "bump": bump(-3.0, 3.0, smoothness=8, prefactor=(1.0, 0.5)),
    "polynomial": PolynomialFunction((0.3, -1.0, 0.5, 0.2, -0.7, 0.1, 0.4, -0.2, 0.05)),
}


def _conjugated(rng, eigenvalues):
    d = len(eigenvalues)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return HermitianOperator(q @ np.diag(eigenvalues) @ q.conj().T)


def _distinct_slots(seed, d, p):
    rng = rng_stream(seed, 0)
    return [random_hermitian(rng, d, 1.0) for _ in range(p + 1)], [random_hermitian(rng, d, 0.5).entries for _ in range(p)]


def _clustered_slots(gap):
    # pairs of eigenvalues `gap` apart in unrelated eigenbases per slot
    def build(seed, d, p):
        rng = rng_stream(seed, 1)
        base = np.linspace(-0.8, 0.8, (d + 1) // 2)
        ev = np.sort(np.concatenate([base, base[: d // 2] + gap]))
        return [_conjugated(rng, ev) for _ in range(p + 1)], [random_hermitian(rng, d, 0.5).entries for _ in range(p)]

    return build


def _diagonal_slots(seed, d, p):
    # every block off the diagonal of the eigenbasis is exactly zero
    rng = rng_stream(seed, 2)
    Hs = [HermitianOperator(np.diag(rng.uniform(-1.0, 1.0, d))) for _ in range(p + 1)]
    return Hs, [np.diag(rng.uniform(-0.5, 0.5, d)).astype(complex) for _ in range(p)]


def _commuting_slots(seed, d, p):
    H = random_hermitian(rng_stream(seed, 3), d, 1.0)
    h = H.entries
    return [H] * (p + 1), [h @ h - 0.3 * h + 0.1 * np.eye(d)] * p


def _zero_slots(seed, d, p):
    return _distinct_slots(seed, d, p)[0], [np.zeros((d, d), dtype=complex)] * p


# d in {1, 2, 5, 8} and p in 1..6 wherever the reference loop stays within
# 4096 tuples (test_range checks d = 8 up to p = 5 against mpmath)
_ENGINE_SHAPES = [(d, p) for d in (1, 2, 5, 8) for p in range(1, 7) if d ** (p + 1) <= 4096]
_SPECTRA = {
    "clustered-1e-11": _clustered_slots(1e-11),
    "separated-1e-7": _clustered_slots(1e-7),
    "diagonal": _diagonal_slots,
    "commuting": _commuting_slots,
    "zero-V": _zero_slots,
}


class TestEngineAgainstReference:
    """moi_eval's eigenbasis chain against the per-tuple projection loop."""

    @staticmethod
    def _compare(monkeypatch, kind, Hs, Vs, independent=False):
        # an independent reference takes its divided differences from 60-digit
        # mpmath at the same float eigenvalues
        symbol = MoiSymbol(_SYMBOLS[kind], 0, len(Vs))
        optuple = OperatorTuple(tuple(Hs), tuple(Vs))
        ref, ref_values = _reference_sum(symbol, optuple, _mp_divided_difference if independent else divided_difference)
        calls = []

        def counted(f, rows):  # the reference's value where it has one, to halve the run time
            keys = list(map(tuple, rows.tolist()))
            calls.extend(keys)
            if independent:
                return divided_difference(f, rows)
            return np.array([ref_values[row] if row in ref_values else divided_difference(f, row) for row in keys])

        monkeypatch.setattr(moi, "divided_difference", counted)
        got = moi_eval(symbol, optuple)
        assert np.max(np.abs(got - ref)) <= 1e-13 * (1.0 + np.max(np.abs(ref)))
        assert len(calls) <= len(ref_values)

    @pytest.mark.parametrize("kind", sorted(_SYMBOLS))
    @pytest.mark.parametrize("d, p", _ENGINE_SHAPES)
    def test_distinct_operators_per_slot(self, monkeypatch, kind, d, p):
        self._compare(monkeypatch, kind, *_distinct_slots(200 + 10 * d + p, d, p))

    @pytest.mark.parametrize("kind", sorted(_SYMBOLS))
    @pytest.mark.parametrize("spectrum", sorted(_SPECTRA))
    @pytest.mark.parametrize("d, p", [(5, 3), (8, 2)])
    def test_special_spectra(self, monkeypatch, kind, spectrum, d, p):
        # bumps and polynomials at eigenvalues 1e-7 apart check against mpmath:
        # the engine and the per-tuple loop share divided_difference
        independent = spectrum == "separated-1e-7" and kind in ("bump", "polynomial")
        self._compare(monkeypatch, kind, *_SPECTRA[spectrum](300 + 10 * d + p, d, p), independent)

    def test_remainder_peak_memory_stays_under_one_megabyte(self):
        # the chunks over H_0 clusters bound the node-code rows; with the whole
        # d^(m+1) grid in one chunk the peak is above 3 MB
        H, V = random_pair(rng_stream(18, 0), 5, 1.0, 0.1)
        f = rational_from_poles([0.3 + 0.9j, 0.3 - 0.9j])
        tracemalloc.start()
        try:
            taylor_remainder(f, H, V, 5, "moi")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestFrechetDerivative:
    def test_first_derivative_of_square(self):
        H = random_hermitian(rng_stream(8, 0), 3, 1.0)
        V = random_hermitian(rng_stream(8, 1), 3, 0.7)
        out = frechet_derivative(PolynomialFunction((0.0, 0.0, 1.0)), H, V.entries, 1)
        expect = H.entries @ V.entries + V.entries @ H.entries
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_second_derivative_of_cube(self):
        H = random_hermitian(rng_stream(9, 0), 3, 1.0)
        V = random_hermitian(rng_stream(9, 1), 3, 0.7)
        h, v = H.entries, V.entries
        out = frechet_derivative(PolynomialFunction((0.0, 0.0, 0.0, 1.0)), H, v, 2)
        assert np.max(np.abs(out - (h @ v @ v + v @ h @ v + v @ v @ h))) < 1e-12

    def test_against_finite_differences(self):
        H, V = random_pair(rng_stream(10, 0), 3, 1.0, 0.8)
        f = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        exact = frechet_derivative(f, H, V.entries, 2)
        fd = finite_difference_derivative(f, H, V.entries, 2)
        assert np.max(np.abs(exact - fd)) < 1e-6

    def test_small_t_continuity(self):
        # shifted-base derivatives converge monotonically as t -> 0
        H, V = random_pair(rng_stream(11, 0), 3, 1.0, 0.8)
        f = rational_from_poles([2j, -1 - 1.5j])
        base = frechet_derivative(f, H, V.entries, 2)
        gaps = []
        for j in range(1, 11):
            t = 2.0 ** (-j)
            shifted = frechet_derivative(f, HermitianOperator(H.entries + t * V.entries), V.entries, 2)
            gaps.append(np.linalg.norm(shifted - base, 2))
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3


class TestTaylorRemainder:
    def test_polynomial_below_order_vanishes(self):
        H, V = random_pair(rng_stream(12, 0), 3, 1.0, 0.8)
        f = PolynomialFunction((1.0, -2.0, 0.5))  # degree 2
        out = taylor_remainder(f, H, V, 3, "direct")
        assert np.max(np.abs(out)) < 1e-12

    @pytest.mark.parametrize("method", ["direct", "moi"])
    def test_polynomial_below_order_vanishes_at_close_eigenvalues(self, method):
        # R_5(x^4) = 0 exactly; two eigenvalues of H 1e-6 apart stay two
        # clusters, so the order-5 divided differences see close nodes
        rng = rng_stream(19, 0)
        H = _conjugated(rng, np.array([-0.6, 0.2, 0.2 + 1e-6, 0.7]))
        V = random_hermitian(rng, 4, 0.1)
        out = taylor_remainder(PolynomialFunction((0.0, 0.0, 0.0, 0.0, 1.0)), H, V, 5, method)
        assert np.max(np.abs(out)) < 1e-13

    def test_pure_power_leaves_vn(self):
        H, V = random_pair(rng_stream(13, 0), 3, 1.0, 0.8)
        for n in (2, 3):
            f = PolynomialFunction(tuple([0.0] * n + [1.0]))
            out = taylor_remainder(f, H, V, n, "direct")
            expect = np.linalg.matrix_power(V.entries, n)
            assert np.max(np.abs(out - expect)) < 1e-11

    def test_scalar_integral_form(self):
        # 1x1 oracle: remainder = integral of f^(n)(x) (v-x)^(n-1)/(n-1)! over [0, v]
        v = 0.8
        H = HermitianOperator([[0.0]])
        V = HermitianOperator([[v]])
        f = GaussianFunction(0.3, 0.9)
        for n in (2, 3, 4):
            val, _ = quad(
                lambda x: np.real(f.eval_deriv(n, x)) * (v - x) ** (n - 1) / math.factorial(n - 1),
                0.0,
                v,
            )
            out = taylor_remainder(f, H, V, n, "direct")
            assert complex(out[0, 0]) == pytest.approx(val, abs=1e-10)

    def test_direct_equals_moi(self):
        rng = rng_stream(14, 0)
        f = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        for dim in (2, 3, 4):
            for n in (1, 2, 3, 4):
                H, V = random_pair(rng_stream(int(rng.integers(1 << 30)), 0), dim, 1.0, 0.6)
                a = taylor_remainder(f, H, V, n, "direct")
                b = taylor_remainder(f, H, V, n, "moi")
                scale = 1.0 + np.max(np.abs(a)) + np.max(np.abs(b))
                assert np.max(np.abs(a - b)) <= 1e-9 * scale


class TestPerturbationIdentity:
    def test_equal_operators_zero(self):
        H, V = random_pair(rng_stream(15, 0), 3, 1.0, 0.8)
        A = random_hermitian(rng_stream(15, 2), 3, 1.0)
        f = rational_from_poles([2j, -1 - 1j])
        rep = perturbation_identity(f, OperatorTuple((A, H), (V.entries,)), A, A, 1)
        assert rep.residual < 1e-13 * rep.scale

    def test_scalar_slope_check(self):
        # n=0: f(A) - f(B) = f^[1](a, b)(A - B) on scalars
        f = PolynomialFunction((0.0, 0.0, 1.0))
        A = HermitianOperator([[2.0]])
        B = HermitianOperator([[1.0]])
        rep = perturbation_identity(f, OperatorTuple((A,), ()), A, B, 1)
        assert complex(rep.lhs_a[0, 0] - rep.lhs_b[0, 0]) == pytest.approx(3.0)
        assert complex(rep.rhs[0, 0]) == pytest.approx(3.0)
        assert rep.residual < 1e-13

    def test_every_slot_random(self):
        rng = rng_stream(16, 0)
        f = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        n = 2
        for slot in (1, 2, 3):
            H1, H2 = (random_hermitian(rng, 3, 1.0) for _ in range(2))
            A = random_hermitian(rng, 3, 1.0)
            B = random_hermitian(rng, 3, 1.0)
            Vs = tuple(random_hermitian(rng, 3, 0.8).entries for _ in range(n))
            ops = [H1, H2]
            ops.insert(slot - 1, A)
            rep = perturbation_identity(f, OperatorTuple(tuple(ops), Vs), A, B, slot)
            assert rep.residual <= 1e-10 * rep.scale


def _family_tuples(seed, p, dims=(1, 2, 3, 5), count=12):
    """Order-p tuples over dims {1, 2, 3, 5} mixed in one family; every
    other member of dim >= 3 has an H_0 with a double eigenvalue, so its
    group holds two cluster shapes."""
    rng = rng_stream(seed, 0)
    tuples = []
    for i in range(count):
        dim = dims[i % len(dims)]
        Hs, Vs = _distinct_slots(int(rng.integers(1 << 30)), dim, p)
        if dim >= 3 and i % 2:
            Hs[0] = _conjugated(rng, np.concatenate([[-0.5, -0.5], np.linspace(0.2, 0.9, dim - 2)]))
            assert len(Hs[0].decomposition().eigenvalues) == dim - 1
        tuples.append(OperatorTuple(tuple(Hs), tuple(Vs)))
    return tuples


def _perturbation_family(seed, dims=(1, 2, 3, 5), count=12):
    """(optuple, A, B, slot) with n = 1..3 arguments and every slot, drawn
    as the verify-identities suite draws them, dims mixed, and A clustered
    on every other member of dim >= 3."""
    rng = rng_stream(seed, 1)
    members = []
    for i in range(count):
        dim, n = dims[i % len(dims)], 1 + i % 3
        Hs, Vs = _distinct_slots(int(rng.integers(1 << 30)), dim, n)
        A = _conjugated(rng, np.concatenate([[-0.5, -0.5], np.linspace(0.2, 0.9, dim - 2)])) if dim >= 3 and i % 2 else Hs[0]
        slot = int(rng.integers(1, n + 2))
        ops = list(Hs)
        ops[slot - 1] = A
        members.append((OperatorTuple(tuple(ops), tuple(Vs)), A, random_hermitian(rng, dim, 1.0), slot))
    return members


def _assert_same_report(got, ref):
    assert got.residual == ref.residual and got.scale == ref.scale
    assert np.array_equal(got.lhs_a, ref.lhs_a) and np.array_equal(got.lhs_b, ref.lhs_b) and np.array_equal(got.rhs, ref.rhs)


class TestFamilies:
    """Each member of a stacked moi_evals or perturbation_identities family
    against its batch of one, bit for bit."""

    @pytest.mark.parametrize("kind", ["rational", "polynomial"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_moi_evals_match_moi_eval(self, p, kind):
        symbol = MoiSymbol(_SYMBOLS[kind], 1, p)
        tuples = _family_tuples(950 + p, p)
        for got, t in zip(moi_evals(symbol, tuples), tuples):
            assert np.array_equal(got, moi_eval(symbol, t))

    def test_moi_evals_take_one_chain_batch_per_dim(self, monkeypatch):
        calls = []
        chain_cores = moi._chain_cores
        monkeypatch.setattr(moi, "_chain_cores", lambda f, decs, *a: calls.append(decs[0].dim) or chain_cores(f, decs, *a))
        moi_evals(MoiSymbol(_SYMBOLS["rational"], 0, 3), _family_tuples(955, 3))
        assert sorted(calls) == [1, 2, 3, 5]

    def test_perturbation_members_match_their_batch_of_one(self):
        f = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        members = _perturbation_family(960)
        for got, member in zip(perturbation_identities(f, members), members):
            _assert_same_report(got, perturbation_identity(f, *member))

    def test_sub_stacks_match_the_batch_of_one(self, monkeypatch):
        f = rational_from_poles([2j, -1 - 1.5j, 1 + 2j])
        members = _perturbation_family(970)
        alone = [perturbation_identity(f, *member) for member in members]
        symbol = MoiSymbol(f, 0, 3)
        tuples = _family_tuples(971, 3)
        alone_evals = [moi_eval(symbol, t) for t in tuples]
        stacks = []
        chain_chunks = moi._chain_chunks
        monkeypatch.setattr(moi, "_chain_chunks", lambda factors, *a: stacks.append(len(factors[0])) or chain_chunks(factors, *a))
        monkeypatch.setattr(moi, "_CYCLE_CHUNK", 1)  # one chain per sub-stack, one cluster of H_0 per chunk
        for got, ref in zip(perturbation_identities(f, members), alone):
            _assert_same_report(got, ref)
        assert all(np.array_equal(got, ref) for got, ref in zip(moi_evals(symbol, tuples), alone_evals))
        assert stacks and set(stacks) == {1}

    def test_an_over_budget_member_stops_the_family_before_any_chain(self, monkeypatch):
        def guarded(*args):
            pytest.fail("a family with an over-budget member built a chain block")

        f = rational_from_poles([2j, -1 - 1j])
        big = random_hermitian(rng_stream(980, 9), 16, 1.0)
        tuples = _family_tuples(980, 6, dims=(1, 2)) + [OperatorTuple((big,) * 7, (np.eye(16),) * 6)]  # 16^7 cluster tuples
        members = _perturbation_family(981) + [(OperatorTuple((big,) * 5, (np.eye(16),) * 4), big, big, 3)]  # 16^5, its rhs 16^6
        monkeypatch.setattr(moi, "_chain_block", guarded)
        with pytest.raises(BudgetError):
            moi_evals(MoiSymbol(f, 0, 6), tuples)
        with pytest.raises(BudgetError):
            perturbation_identities(f, members)
