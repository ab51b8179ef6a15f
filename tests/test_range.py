"""Range checks against independent oracles.

``bench/oracles.py`` evaluates remainders and their traces through
resolvent products on plain numpy arrays, sharing no evaluator with
``opshift``; it is loaded from its file so the reference stays a single
copy.  Those comparisons use the benchmark's relative tolerance, on
input classes the benchmark records as accurate.  Remainders at larger
sizes and small perturbations are checked at full precision against the
same resolvent closed form taken in 40-digit mpmath.
"""

import importlib.util
from pathlib import Path

import mpmath
import numpy as np
import pytest

from opshift import cov, moi
from opshift.errors import BudgetError, DomainError, ValidationError
from opshift.functions import GaussianFunction, PolynomialFunction, bump, rational_from_poles
from opshift.linalg import HermitianOperator
from opshift.moi import taylor_remainder
from opshift.ssf import ssf_compute

_spec = importlib.util.spec_from_file_location("oracles", Path(__file__).resolve().parents[1] / "bench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

TOLERANCE = 1e-8


def _instance(seed, d, vnorm):
    rng = np.random.default_rng(seed)

    def hermitian(norm):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = 0.5 * (a + a.conj().T)
        return h * (norm / np.linalg.norm(h, 2))

    h, v = hermitian(1.0), hermitian(vnorm)
    a, b = rng.uniform(-1.0, 1.0), rng.uniform(0.6, 1.5)
    return HermitianOperator(h), HermitianOperator(v), (complex(a, b), complex(a, -b))


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("d", [3, 5])
def test_moi_remainder_matches_resolvent_oracle(m, d):
    H, V, poles = _instance([1, m, d], d, 0.1)
    out = taylor_remainder(rational_from_poles(poles), H, V, m, method="moi")
    ref = oracles.rational_remainder(poles, H.entries, V.entries, m)
    assert oracles.relative_error(out, ref) <= TOLERANCE


# (d, m, t) with V scaled by t; the t = 1 cases keep their "d-m" ids
def _mp_rational_remainder(poles, H, V, m):
    """sum_i c_i (H+V-z_i)^-1 (-V (H-z_i)^-1)^m in 40-digit mpmath: the
    order-m Taylor remainder of sum_i c_i / (x - z_i) = prod_i 1/(x - z_i)."""
    with mpmath.workdps(40):
        h, v = mpmath.matrix(H.tolist()), mpmath.matrix(V.tolist())
        eye = mpmath.eye(len(H))
        out = mpmath.zeros(len(H))
        for i, z in enumerate(poles):
            c = mpmath.mpf(1)
            for w in poles[:i] + poles[i + 1 :]:
                c /= mpmath.mpc(z) - mpmath.mpc(w)
            term = mpmath.inverse(h + v - z * eye)
            step = -v * mpmath.inverse(h - z * eye)
            for _ in range(m):
                term = term * step
            out += c * term
        return np.array(out.tolist(), dtype=complex)


@pytest.mark.parametrize("vnorm", [1e-1, 1e-3])
@pytest.mark.parametrize("d, m", [(3, 5), (8, 3), (8, 4), (8, 5)])
def test_moi_remainder_matches_mpmath_closed_form(d, m, vnorm):
    H, V, poles = _instance([6, d, m, int(-np.log10(vnorm))], d, vnorm)
    out = taylor_remainder(rational_from_poles(poles), H, V, m, method="moi")
    ref = _mp_rational_remainder(list(poles), H.entries, V.entries, m)
    assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("vnorm", [1e-1, 1e-3])
@pytest.mark.parametrize("d, m", [(3, 5), (5, 5), (8, 4)])
def test_gaussian_moi_remainder_matches_mpmath(d, m, vnorm):
    # the oracle takes 60-digit divided differences from Hermite Taylor coefficients
    H, V, poles = _instance([7, d, m, int(-np.log10(vnorm))], d, vnorm)
    center, width = poles[0].real, poles[0].imag
    out = taylor_remainder(GaussianFunction(center, width), H, V, m, method="moi")
    ref = oracles.mp_remainder(oracles.gaussian_taylor(center, width), H.entries, V.entries, m)
    assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)


_TRACE_CASES = [(d, m, t) for t in (1.0, 2.0**-4, 2.0**-8) for d in (2, 3) for m in (3, 4, 5, 6)]


@pytest.mark.parametrize(
    "d, m, t", _TRACE_CASES, ids=[f"{d}-{m}" + ("" if t == 1.0 else f"-t{t:g}") for d, m, t in _TRACE_CASES]
)
def test_shift_density_trace_matches_resolvent_oracle(d, m, t):
    H, V, poles = _instance([2, m, d], d, 0.5)
    V = HermitianOperator(t * V.entries)
    integral = ssf_compute(H, V, m).integrate_against(rational_from_poles(poles))
    ref, scale = oracles.rational_remainder_trace(poles, H.entries, V.entries, m)
    assert scale > 0.0
    assert abs(integral - ref) / scale <= TOLERANCE


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("m, d", [(3, 5), (5, 3)])
def test_shift_density_trace_over_seeds(m, d, seed):
    # the classes where a sample-and-refit density broke on sliver intervals
    H, V, poles = _instance([4, m, d, seed], d, 0.5)
    integral = ssf_compute(H, V, m).integrate_against(rational_from_poles(poles))
    ref, scale = oracles.rational_remainder_trace(poles, H.entries, V.entries, m)
    assert abs(integral - ref) / scale <= TOLERANCE


def test_over_budget_density_enumerates_no_tuple(monkeypatch):
    def guarded(*args):
        pytest.fail("an over-budget density built a block of tuple weights")

    monkeypatch.setattr(moi, "_chain_block", guarded)
    H, V, _ = _instance([3], 16, 0.5)
    with pytest.raises(BudgetError):
        ssf_compute(H, V, 6)


def test_remainder_density_keeps_only_cycle_kernels():
    # on (H, H+V, H, H, H) with U0 = I only the cycles j_4 = j_0 carry
    # weight; a loop over all eigen-tuples also kept 560 round-off kernels
    H, V, poles = _instance([5, 4, 8], 8, 0.5)
    nodes, _ = cov._tuple_weights(np.eye(8), [V.entries] * 4, [H, H + V, H, H, H])
    lam, mu = H.decomposition().eigenvalues, (H + V).decomposition().eigenvalues
    cycles = {tuple(sorted((a, b, c, e, a))) for a in lam for b in mu for c in lam for e in lam}
    assert len(cycles) == 2080
    assert {tuple(row) for row in nodes.tolist()} == cycles
    integral = ssf_compute(H, V, 4).integrate_against(rational_from_poles(poles))
    ref, scale = oracles.rational_remainder_trace(poles, H.entries, V.entries, 4)
    assert abs(integral - ref) / scale <= TOLERANCE


# remainder_traces subtracts the Taylor terms from Tr f(H+V), so its
# round-off is about 1e-16 of sum |f(lambda_j)| whatever the size of V
def _trace_scale(f, H):
    return 1.0 + float(np.sum(np.abs(f.eval_deriv(0, np.linalg.eigvalsh(H.entries)))))


@pytest.mark.parametrize("vnorm", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("d, m", [(1, 1), (2, 3), (4, 2), (4, 5), (6, 1), (6, 4), (6, 5)])
def test_remainder_traces_match_mpmath_closed_form(d, m, vnorm):
    H, V, poles = _instance([8, d, m, int(-np.log10(vnorm))], d, vnorm)
    f = rational_from_poles(poles)
    half = HermitianOperator(0.5 * V.entries)
    got = cov.remainder_traces([f], H, [V, half], m)[:, 0]
    for value, W in zip(got, (V, half)):
        ref = np.trace(_mp_rational_remainder(list(poles), H.entries, W.entries, m))
        assert abs(value - ref) <= 1e-14 * _trace_scale(f, H)


@pytest.mark.parametrize("d, m", [(2, 2), (3, 3), (3, 4)])
def test_remainder_traces_of_gaussians_match_mpmath(d, m):
    H, V, poles = _instance([10, d, m], d, 0.3)
    fs = [GaussianFunction(poles[0].real, poles[0].imag), GaussianFunction(-0.4, 0.5)]
    got = cov.remainder_traces(fs, H, [V], m)[0]
    for value, f in zip(got, fs):
        ref = np.trace(oracles.mp_remainder(oracles.gaussian_taylor(f.center, f.width), H.entries, V.entries, m))
        assert abs(value - ref) <= 1e-14 * _trace_scale(f, H)


@pytest.mark.parametrize("d, m", [(2, 3), (4, 3), (5, 4)])
def test_remainder_traces_of_bumps_and_polynomials_match_direct_remainders(d, m):
    H, V, _ = _instance([11, d, m], d, 0.4)
    fs = [bump(-1.4, 1.1, smoothness=m + 2), bump(-0.3, 0.9, smoothness=m + 1), PolynomialFunction((0.5, 0.0, -1.0, 0.2, 0.0, 0.0, 1.0))]
    Vs = [V, HermitianOperator(0.1 * V.entries)]
    got = cov.remainder_traces(fs, H, Vs, m)
    for row, W in zip(got, Vs):
        for value, f in zip(row, fs):
            ref = np.trace(taylor_remainder(f, H, W, m, "direct"))
            assert abs(value - ref) <= 1e-14 * _trace_scale(f, H)


@pytest.mark.parametrize("d, m", [(1, 1), (3, 3), (4, 5)])
def test_remainder_traces_vanish_below_the_order(d, m):
    # R_m(x^k) = 0 for k < m: a dropped Taylor term, the k = 0 one too, leaves Tr T_{x^[k]}
    H, V, _ = _instance([12, d, m], d, 0.5)
    monos = [PolynomialFunction(tuple([0.0] * k + [1.0])) for k in range(m)]
    got = cov.remainder_traces(monos, H, [V, HermitianOperator(1e-3 * V.entries)], m)
    assert np.max(np.abs(got)) <= 1e-13 * d


def test_remainder_traces_give_identical_rows_for_a_repeated_perturbation():
    H, V, poles = _instance([13], 4, 0.5)
    fs = [rational_from_poles(poles), bump(-1.2, 1.2, smoothness=5), GaussianFunction(0.1, 0.4)]
    got = cov.remainder_traces(fs, H, [V, HermitianOperator(0.5 * V.entries), V], 3)
    assert np.array_equal(got[0], got[2])


def test_remainder_traces_reject_a_pole_on_the_perturbed_spectrum():
    H, V, _ = _instance([14], 3, 0.5)
    mu = float((H + V).decomposition().eigenvalues[1])
    f = rational_from_poles((complex(mu, 1e-14), complex(mu, -1e-14)))
    with pytest.raises(DomainError, match="pole"):
        cov.remainder_traces([f], H, [V], 2)
    with pytest.raises(ValidationError):
        cov.remainder_traces([f], H, [V], 0)
