import json
import math

import numpy as np
import pytest

from opshift import (
    HermitianOperator,
    ValidationError,
    func_calculus,
    operator_from_json,
    operator_to_json,
    rational_from_poles,
    resolvent_comparability,
    schatten_norm,
    spectral_decompose,
)
from opshift.ensembles import random_hermitian, random_hermitians, rng_stream
from opshift.functions import PolynomialFunction

from conftest import hermitian


def brute_force_clusters(eigenvalues, tol):
    """Independent oracle: chain-merge a sorted eigenvalue list by gap scan."""
    eigs = sorted(eigenvalues)
    clusters = [[eigs[0]]]
    for v in eigs[1:]:
        if v - clusters[-1][-1] <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return clusters


class TestSpectralDecompose:
    def test_pauli_x(self):
        dec = spectral_decompose(HermitianOperator([[0, 1], [1, 0]]), 1e-9)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        p_minus = 0.5 * np.array([[1, -1], [-1, 1]])
        p_plus = 0.5 * np.array([[1, 1], [1, 1]])
        assert np.max(np.abs(dec.projections[0] - p_minus)) < 1e-12
        assert np.max(np.abs(dec.projections[1] - p_plus)) < 1e-12

    def test_degenerate_identity(self):
        dec = spectral_decompose(HermitianOperator(np.eye(3)), 1e-9)
        assert len(dec.eigenvalues) == 1
        assert dec.eigenvalues[0] == pytest.approx(1.0)
        assert np.max(np.abs(dec.projections[0] - np.eye(3))) < 1e-12

    def test_near_degenerate_clusters_match_gap_scan(self):
        eigs = [0.3, 0.3 + 1e-12, 5.0]
        oracle = brute_force_clusters(eigs, 1e-9)
        dec = spectral_decompose(HermitianOperator(np.diag(eigs)), 1e-9)
        assert len(dec.eigenvalues) == len(oracle) == 2
        assert dec.multiplicities() == [len(c) for c in oracle]

    def test_reconstruction_invariant(self):
        for seed in range(5):
            H = hermitian(seed, 5, norm=3.0)
            dec = H.decomposition()
            err = np.linalg.norm(dec.reconstruct() - H.entries, 2)
            assert err <= 1e-10 * (1.0 + H.norm())
            v = dec.verify()
            assert v["partition_of_unity"] < 1e-10
            assert v["idempotent"] < 1e-10
            assert v["orthogonal"] < 1e-10
            assert v["self_adjoint"] < 1e-10
            assert v["separated"]

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_mild_asymmetry_symmetrized_with_warning(self):
        with pytest.warns(UserWarning, match="symmetrizing"):
            H = HermitianOperator([[0.0, 1.0 + 1e-9], [1.0, 0.0]])
        assert np.max(np.abs(H.entries - H.entries.conj().T)) == 0.0

    def test_dim_cap(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.eye(65))


class TestNorm:
    """The 2-norm from eigvalsh against numpy's SVD norm, to 4 ulp."""

    SPECTRA = {
        "clustered": [-0.3, 0.7, 0.7 + 1e-12, 0.7 + 2e-12, 0.7 + 3e-12],
        "negative-dominant": [-2.5, -2.5 + 1e-9, -0.4, 0.1, 1.9],
        "one-by-one": [-1.7],
    }

    @staticmethod
    def _assert_4_ulp(got, matrix):
        ref = np.linalg.norm(matrix, 2)
        assert abs(got - ref) <= 4 * np.finfo(float).eps * ref

    @pytest.mark.parametrize("kind", sorted(SPECTRA))
    def test_operator_norm(self, kind):
        eigs = np.array(self.SPECTRA[kind])
        for seed in range(20):
            rng = np.random.default_rng([seed, len(eigs)])
            q, _ = np.linalg.qr(rng.standard_normal((len(eigs),) * 2) + 1j * rng.standard_normal((len(eigs),) * 2))
            H = HermitianOperator((q * eigs) @ q.conj().T)
            self._assert_4_ulp(H.norm(), H.entries)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 16])
    def test_random_hermitian_norm(self, dim):
        rng = rng_stream(dim, 9)
        for norm in (1.0, 0.8, 2.5):
            H = random_hermitian(rng, dim, norm)
            self._assert_4_ulp(H.norm(), H.entries)
            assert abs(H.norm() - norm) <= 8 * np.finfo(float).eps * norm

    @pytest.mark.parametrize("dim", [1, 3, 16])
    def test_batched_draws_equal_single_draws(self, dim):
        for norm in (1.0, 0.0):
            single, batched = rng_stream(dim, 10), rng_stream(dim, 10)
            ones = [random_hermitian(single, dim, norm).entries for _ in range(4)]
            assert all(np.array_equal(a, b.entries) for a, b in zip(ones, random_hermitians(batched, 4, dim, norm)))
            assert single.random() == batched.random()


class TestFuncCalculus:
    def test_resolvent_value_1x1(self):
        f = rational_from_poles([1j])
        out = func_calculus(f, HermitianOperator([[0.0]]))
        assert out[0, 0] == pytest.approx(1j)

    def test_square_of_pauli_x(self):
        f = PolynomialFunction((0.0, 0.0, 1.0))
        out = func_calculus(f, HermitianOperator([[0, 1], [1, 0]]))
        assert np.max(np.abs(out - np.eye(2))) < 1e-12

    def test_exp_on_diagonal(self):
        class Exp:
            def eval_deriv(self, order, x):
                return np.exp(np.asarray(x, dtype=float))

            def poles(self):
                return ()

        out = func_calculus(Exp(), HermitianOperator(np.diag([0.0, math.log(2.0)])))
        assert np.max(np.abs(out - np.diag([1.0, 2.0]))) < 1e-12

    def test_clustered_spectrum_is_the_sum_over_projections(self):
        # a pair 1e-12 apart forms one cluster; f is taken once, at its mean
        rng = rng_stream(12, 0)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        H = HermitianOperator(Q @ np.diag([0.3, 0.3 + 1e-12, 5.0]) @ Q.conj().T)
        f = rational_from_poles([2j, -1 - 1j])
        dec = H.decomposition()
        assert dec.multiplicities() == [2, 1]
        ref = sum(complex(f.eval_deriv(0, lam)) * p for lam, p in zip(dec.eigenvalues, dec.projections))
        assert np.max(np.abs(func_calculus(f, H) - ref)) < 1e-14

    def test_algebra_morphism_on_products(self):
        H = hermitian(3, 4, norm=1.5)
        f = rational_from_poles([2j, -1 - 1j])
        g = rational_from_poles([1 + 2j])
        fg = f.multiply(g)
        lhs = func_calculus(fg, H)
        rhs = func_calculus(f, H) @ func_calculus(g, H)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestSchatten:
    def test_diag_examples(self):
        A = np.diag([3.0, 4.0])
        assert schatten_norm(A, 2) == pytest.approx(5.0)
        assert schatten_norm(A, 1) == pytest.approx(7.0)
        assert schatten_norm(A, np.inf) == pytest.approx(4.0)

    def test_exponent_validation(self):
        with pytest.raises(ValidationError):
            schatten_norm(np.eye(2), 0.5)

    def test_holder_inequality(self):
        rng = rng_stream(11, 0)
        for p, q in ((2.0, 2.0), (3.0, 1.5), (4.0, 4.0 / 3.0)):
            r = 1.0 / (1.0 / p + 1.0 / q)
            for _ in range(5):
                A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                assert schatten_norm(A @ B, r) <= schatten_norm(A, p) * schatten_norm(B, q) + 1e-10

    def test_triangle_inequality(self):
        rng = rng_stream(12, 0)
        for _ in range(5):
            A = rng.standard_normal((3, 3))
            B = rng.standard_normal((3, 3))
            for p in (1.0, 2.0, 3.5, np.inf):
                assert schatten_norm(A + B, p) <= schatten_norm(A, p) + schatten_norm(B, p) + 1e-10


class TestResolventComparability:
    def test_scalar_frozen_values(self):
        # direct 1x1 complex arithmetic: (1-i)^-1 - (-i)^-1 = (1+i)/2 - i
        H = HermitianOperator([[0.0]])
        V = HermitianOperator([[1.0]])
        rep = resolvent_comparability(H, V, 1)
        assert rep.lhs_norm == pytest.approx(math.sqrt(2.0) / 2.0)
        assert rep.rhs_norm == pytest.approx(1.0)

    def test_zero_perturbation(self):
        H = hermitian(5, 3)
        rep = resolvent_comparability(H, HermitianOperator(np.zeros((3, 3))), 2)
        assert rep.lhs_norm == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs_norm == pytest.approx(0.0, abs=1e-14)

    def test_identity_residuals_random(self):
        for seed in range(4):
            H = hermitian(seed, 4, norm=2.0)
            V = hermitian(seed, 4, norm=1.0, stream=1)
            rep = resolvent_comparability(H, V, 2)
            assert max(rep.identity_residuals) < 1e-12 * rep.scale

    def test_second_resolvent_identities(self):
        for seed in range(4):
            H = hermitian(seed + 10, 4, norm=2.0)
            V = hermitian(seed + 10, 4, norm=1.0, stream=1)
            eye = np.eye(4)
            rHV = (H + V).resolvent()
            rH = H.resolvent()
            left = (eye - rHV @ V.entries) @ rH
            right = rH @ (eye - V.entries @ rHV)
            assert np.max(np.abs(rHV - left)) < 1e-12
            assert np.max(np.abs(rHV - right)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            resolvent_comparability(hermitian(1, 3), hermitian(1, 4), 1)


class TestWireFormat:
    def test_round_trip(self):
        H = hermitian(9, 4, norm=2.0)
        s = operator_to_json(H)
        d = json.loads(s)
        assert d["dim"] == 4
        H2 = operator_from_json(s)
        assert np.array_equal(H.entries, H2.entries)

    def test_dimension_check(self):
        with pytest.raises(ValidationError):
            operator_from_json(json.dumps({"dim": 2, "re": [[0.0]], "im": [[0.0]]}))
