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
from opshift.errors import BudgetError
from opshift.functions import GaussianFunction, rational_from_poles
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
