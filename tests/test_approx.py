import numpy as np
import pytest
from scipy.integrate import quad

from opshift.approx import (
    convergence_report,
    finite_rank_sequence,
    remainder_sup_experiment,
    shift_density_convergence,
)
from opshift.ensembles import normalized_bump_family, random_hermitian, rng_stream
from opshift.errors import ValidationError
from opshift.functions import bump
from opshift.linalg import HermitianOperator, schatten_norm


def spectrum_windows(H, pad=1.0):
    eigs = np.sort(np.abs(H.decomposition().eigenvalues))
    return [float(e) + 1e-9 for e in eigs] + [float(eigs[-1]) + pad]


class TestFiniteRankSequence:
    def test_full_window_is_exact(self):
        rng = rng_stream(80, 0)
        H = random_hermitian(rng, 4, 2.0)
        V = random_hermitian(rng, 4, 0.8)
        seq = finite_rank_sequence(H, V, [H.norm() + 1.0])
        assert len(seq.terms) == 1
        assert np.array_equal(seq.terms[0].entries, V.entries)

    def test_zero_perturbation(self):
        rng = rng_stream(81, 0)
        H = random_hermitian(rng, 3, 1.0)
        V = HermitianOperator(np.zeros((3, 3)))
        seq = finite_rank_sequence(H, V, [0.5, 2.0])
        for t in seq.terms:
            assert np.max(np.abs(t.entries)) == 0.0

    def test_small_window_keeps_only_inner_block(self):
        # H = diag(0, 10), window (-1, 1): only the (0, 0) block survives
        H = HermitianOperator(np.diag([0.0, 10.0]))
        V = HermitianOperator(np.array([[0.5, 0.2], [0.2, -0.3]]))
        seq = finite_rank_sequence(H, V, [1.0, 11.0])
        vk = seq.terms[0].entries
        assert vk[0, 0] == pytest.approx(0.5)
        assert abs(vk[0, 1]) < 1e-14 and abs(vk[1, 1]) < 1e-14

    def test_invariants_every_term(self):
        rng = rng_stream(82, 0)
        H = random_hermitian(rng, 6, 2.0)
        V = random_hermitian(rng, 6, 0.9)
        seq = finite_rank_sequence(H, V, spectrum_windows(H))
        rH = H.resolvent()
        dressed_full = schatten_norm(rH @ V.entries @ rH, 2)
        for t in seq.terms:
            assert t.norm() <= V.norm() + 1e-12
            assert schatten_norm(rH @ t.entries @ rH, 2) <= 2.0 * dressed_full + 1e-10

    def test_strong_convergence_proxy(self):
        rng = rng_stream(83, 0)
        H = random_hermitian(rng, 5, 2.0)
        V = random_hermitian(rng, 5, 0.8)
        seq = finite_rank_sequence(H, V, spectrum_windows(H))
        xs = rng_stream(83, 1).standard_normal((20, 5))
        worst = [max(np.linalg.norm((t.entries - V.entries) @ x) for x in xs) for t in seq.terms]
        assert worst[-1] <= 1e-12
        assert worst[0] >= worst[-1]

    def test_window_validation(self):
        rng = rng_stream(84, 0)
        H = random_hermitian(rng, 3, 1.0)
        V = random_hermitian(rng, 3, 0.5)
        with pytest.raises(ValidationError):
            finite_rank_sequence(H, V, [])
        with pytest.raises(ValidationError):
            finite_rank_sequence(H, V, [2.0, 1.0])


class TestConvergenceReport:
    def test_defects_monotone_to_zero(self):
        rng = rng_stream(85, 0)
        H = random_hermitian(rng, 6, 2.0)
        V = random_hermitian(rng, 6, 0.8)
        seq = finite_rank_sequence(H, V, spectrum_windows(H))
        rows = convergence_report(H, V, seq, 2)
        sdef = [r.schatten_defect for r in rows]
        rdef = [r.resolvent_defect for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(sdef, sdef[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(rdef, rdef[1:]))
        assert sdef[-1] == 0.0 and rdef[-1] <= 1e-14

    def test_triple_product_defects_vanish_at_exactness(self):
        rng = rng_stream(86, 0)
        H = random_hermitian(rng, 4, 1.5)
        V = random_hermitian(rng, 4, 0.7)
        seq = finite_rank_sequence(H, V, [H.norm() + 1.0])
        rows = convergence_report(H, V, seq, 2)
        assert len(rows[-1].triple_product_defects) == 3
        assert max(rows[-1].triple_product_defects) <= 1e-13


class TestRemainderSup:
    def test_exact_term_gives_zero(self):
        rng = rng_stream(87, 0)
        H = random_hermitian(rng, 3, 1.5)
        V = random_hermitian(rng, 3, 0.6)
        seq = finite_rank_sequence(H, V, [H.norm() + 1.0])
        bumps = normalized_bump_family(rng_stream(87, 1), 3, (-4, 4), 3)
        sups = remainder_sup_experiment(H, V, seq, 3, bumps)
        assert sups[-1] == 0.0

    def test_scalar_closed_form(self):
        # 1x1: the trace difference is the difference of scalar integral remainders
        H = HermitianOperator([[0.0]])
        V = HermitianOperator([[0.8]])
        f = bump(-2.0, 2.0, smoothness=5)
        sup3 = f.sup_deriv(3)
        f = bump(-2.0, 2.0, smoothness=5, prefactor=(1.0 / sup3,))
        seq = finite_rank_sequence(H, V, [0.5, 1.0])
        sups = remainder_sup_experiment(H, V, seq, 3, [f])
        def remainder(v):
            val, _ = quad(lambda x: np.real(f.eval_deriv(3, x)) * (v - x) ** 2 / 2.0, 0.0, v)
            return val
        # window 0.5 keeps nothing of the 1x1 spectrum beyond... P contains 0-eigenvalue, so Vk = V for both windows
        for s, vk in zip(sups, seq.terms):
            expect = abs(remainder(0.8) - remainder(float(np.real(vk.entries[0, 0]))))
            assert s == pytest.approx(expect, abs=1e-12)

    def test_decreasing_to_zero_dim4(self):
        rng = rng_stream(41, 0)
        H = random_hermitian(rng, 4, 2.0)
        V = random_hermitian(rng, 4, 0.8)
        seq = finite_rank_sequence(H, V, spectrum_windows(H))
        bumps = normalized_bump_family(rng_stream(41, 3), 10, (-4, 4), 3)
        sups = remainder_sup_experiment(H, V, seq, 3, bumps)
        assert all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))
        assert sups[-1] <= 1e-10

    def test_normalization_gate(self):
        rng = rng_stream(88, 0)
        H = random_hermitian(rng, 3, 1.0)
        V = random_hermitian(rng, 3, 0.5)
        seq = finite_rank_sequence(H, V, [H.norm() + 1.0])
        wild = bump(-1.0, 1.0, smoothness=5, prefactor=(100.0,))
        with pytest.raises(ValidationError):
            remainder_sup_experiment(H, V, seq, 3, [wild])

    def test_order_gate(self):
        rng = rng_stream(89, 0)
        H = random_hermitian(rng, 3, 1.0)
        V = random_hermitian(rng, 3, 0.5)
        seq = finite_rank_sequence(H, V, [H.norm() + 1.0])
        with pytest.raises(ValidationError):
            remainder_sup_experiment(H, V, seq, 2, [])


class TestShiftDensityPipeline:
    def test_l1_convergence_on_hull(self):
        rng = rng_stream(90, 0)
        H = random_hermitian(rng, 4, 1.5)
        V = random_hermitian(rng, 4, 0.7)
        seq = finite_rank_sequence(H, V, spectrum_windows(H))
        dists = shift_density_convergence(H, V, seq, 3)
        assert dists[-1] <= 1e-8
        assert dists[0] >= dists[-1]
