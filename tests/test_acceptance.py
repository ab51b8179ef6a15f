"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` to see them
inline.  Random ensembles are Philox-seeded and fully reproducible.
"""

import math
import time

import numpy as np

from opshift.approx import (
    finite_rank_sequence,
    remainder_sup_experiment,
    shift_density_convergence,
)
from opshift.cli import main as cli_main
from opshift.cov import EpsilonSignature, corollary_expand, cov_expand, cov_scalar_identity
from opshift.ensembles import (
    admissible_family,
    normalized_bump_family,
    random_hermitian,
    random_pair,
    real_rational,
    rng_stream,
)
from opshift.functions import GaussianFunction, PolynomialFunction, rational_from_poles
from opshift.linalg import HermitianOperator, schatten_norm
from opshift.moi import OperatorTuple, perturbation_identity, taylor_remainder
from opshift.piecewise import PiecewisePolynomial
from opshift.ssf import (
    measure_weight_shift,
    reconstruct_density,
    ssf_compute,
    uniqueness_fit,
    verify_trace_formula,
    weighted_norm_and_scaling,
)


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def random_signature(rng, m):
    while True:
        ent = [str(rng.choice(["L", "0", "R"])) for _ in range(m + 1)]
        if ent[0] != "L" and ent[-1] != "R":
            return EpsilonSignature(tuple(ent))


def test_criterion_01_scalar_closed_form():
    t0 = time.time()
    worst = 0.0
    for v in (0.5, 1.0, 2.0):
        for m in (3, 4):
            eta = ssf_compute(HermitianOperator([[0.0]]), HermitianOperator([[v]]), m)
            xs = np.linspace(1e-6, v - 1e-6, 41)
            expect = (v - xs) ** (m - 1) / math.factorial(m - 1)
            worst = max(worst, float(np.max(np.abs(eta(xs) - expect))))
    elapsed = time.time() - t0
    report(1, worst <= 1e-12 and elapsed < 1.0, f"max pointwise error {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_trace_formula_ensemble():
    t0 = time.time()
    rng = rng_stream(1002, 0)
    worst = 0.0
    for trial in range(20):
        dim = int(rng.integers(2, 5))
        H, V = random_pair(rng_stream(1002, 10 + trial), dim, 1.0, 0.6)
        for parity in ("odd", "even"):
            m = 3 if parity == "odd" else 4
            k_weight = 10 if parity == "odd" else 11
            fam = admissible_family(rng_stream(1002, 100 + trial), 20, m, k_weight)
            rep = verify_trace_formula(H, V, 2, parity, fam)
            assert rep.rejected == ()
            worst = max(worst, rep.max_relative_residual)
    elapsed = time.time() - t0
    report(2, worst <= 1e-8 and elapsed < 120.0, f"max relative residual {worst:.2e} in {elapsed:.1f}s")


def test_criterion_03_generalized_change_of_variables():
    t0 = time.time()
    rng = rng_stream(1003, 0)
    g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j, -0.5 - 1j])
    worst_op = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        eps = random_signature(rng, m)
        Hs = [random_hermitian(rng, dim, 1.0) for _ in range(m + 1)]
        Vs = [random_hermitian(rng, dim, 0.8).entries for _ in range(m)]
        exp = cov_expand(g, eps, Hs, Vs)
        worst_op = max(worst_op, exp.residual / exp.scale)
    worst_scalar = 0.0
    for _ in range(500):
        m = int(rng.integers(1, 6))
        eps = random_signature(rng, m)
        lam = rng.uniform(-2.5, 2.5, m + 1)
        _, _, res, scale = cov_scalar_identity(g, eps, lam)
        worst_scalar = max(worst_scalar, res / scale)
    elapsed = time.time() - t0
    report(
        3,
        worst_op <= 1e-9 and worst_scalar <= 1e-10 and elapsed < 120.0,
        f"operator {worst_op:.2e}, scalar {worst_scalar:.2e} in {elapsed:.1f}s",
    )


def test_criterion_04_decompositions_and_perturbation():
    t0 = time.time()
    rng = rng_stream(1004, 0)
    g = rational_from_poles([2j, -1 - 1.5j, 1 + 2j, -0.5 - 1j, 1.5 + 1j])
    worst = 0.0
    for trial in range(6):
        dim = int(rng.integers(2, 5))
        for parity, m in (("odd", 3), ("even", 4)):
            Hs = [random_hermitian(rng, dim, 1.0) for _ in range(m + 1)]
            Vs = [random_hermitian(rng, dim, 0.8).entries for _ in range(m)]
            exp = corollary_expand(g, parity, Hs, Vs)
            worst = max(worst, exp.residual / exp.scale)
    for trial in range(6):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        slot = int(rng.integers(1, n + 2))
        ops = [random_hermitian(rng, dim, 1.0) for _ in range(n + 1)]
        A = ops[slot - 1]
        B = random_hermitian(rng, dim, 1.0)
        Vs = tuple(random_hermitian(rng, dim, 0.8).entries for _ in range(n))
        rep = perturbation_identity(g, OperatorTuple(tuple(ops), Vs), A, B, slot)
        worst = max(worst, rep.residual / rep.scale)
    elapsed = time.time() - t0
    report(4, worst <= 1e-9 and elapsed < 60.0, f"max residual {worst:.2e} in {elapsed:.1f}s")


def test_criterion_05_remainder_equivalence():
    worst = 0.0
    f = rational_from_poles([2j, -1 - 1.5j, 1 + 2j, -0.5 - 1j])
    for dim in (2, 3, 4):
        for n in (1, 2, 3, 4):
            H, V = random_pair(rng_stream(1005, dim * 10 + n), dim, 1.0, 0.6)
            a = taylor_remainder(f, H, V, n, "direct")
            b = taylor_remainder(f, H, V, n, "moi")
            scale = 1.0 + float(np.max(np.abs(a)) + np.max(np.abs(b)))
            worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    report(5, worst <= 1e-9, f"max direct-vs-integral deviation {worst:.2e}")


def test_criterion_06_polynomial_vanishing():
    worst = 0.0
    for dim in (2, 3, 4):
        H, V = random_pair(rng_stream(1006, dim), dim, 1.0, 0.6)
        for m in (3, 4):
            for k in range(m):
                f = PolynomialFunction(tuple([0.0] * k + [1.0]))
                val = abs(np.trace(taylor_remainder(f, H, V, m, "direct")))
                worst = max(worst, float(val))
    report(6, worst <= 1e-12, f"max |Tr R_m(x^k)| = {worst:.2e} for k < m")


def test_criterion_07_real_valued_and_integrable():
    worst_imag = 0.0
    worst_atom = 0.0
    for trial in range(10):
        dim = 2 + trial % 3
        H, V = random_pair(rng_stream(1007, trial), dim, 1.0, 0.6)
        for m in (3, 4):
            eta = ssf_compute(H, V, m)
            worst_imag = max(worst_imag, eta.imag_residue / eta.scale)
            worst_atom = max(worst_atom, eta.density.atomic_mass())
    report(
        7,
        worst_imag <= 1e-10 and worst_atom <= 1e-10,
        f"imag residue {worst_imag:.2e}, atomic mass {worst_atom:.2e}",
    )


def test_criterion_08_uniqueness_up_to_polynomial():
    worst = 0.0
    for trial in range(4):
        dim = 2 + trial % 2
        H, V = random_pair(rng_stream(1008, trial), dim, 1.0, 0.6)
        eta = ssf_compute(H, V, 3)
        rec = reconstruct_density(H, V, 3)
        _, res = uniqueness_fit(eta, rec, 3)
        worst = max(worst, res / (1.0 + eta.l1_norm()))
    report(8, worst <= 1e-6, f"max post-fit L1 residual {worst:.2e} (relative)")


def test_criterion_09_bound_scaling():
    t0 = time.time()
    worst_odd = np.inf
    worst_even = np.inf
    for trial in range(3):
        dim = 2 + trial % 2
        H, V = random_pair(rng_stream(1009, trial), dim, 1.0, 0.3)
        worst_odd = min(worst_odd, weighted_norm_and_scaling(H, V, 2, "odd").slope)
        worst_even = min(worst_even, weighted_norm_and_scaling(H, V, 2, "even").slope)
    elapsed = time.time() - t0
    report(
        9,
        worst_odd >= 3.0 - 0.1 and worst_even >= 4.0 - 0.1 and elapsed < 120.0,
        f"min slopes odd {worst_odd:.3f} (>= 2.9), even {worst_even:.3f} (>= 3.9) in {elapsed:.1f}s",
    )


def test_criterion_10_finite_rank_convergence():
    rng = rng_stream(1010, 0)
    H = random_hermitian(rng, 4, 2.0)
    V = random_hermitian(rng, 4, 0.8)
    eigs = np.sort(np.abs(H.decomposition().eigenvalues))
    windows = [float(e) + 1e-9 for e in eigs] + [float(eigs[-1]) + 1.0]
    seq = finite_rank_sequence(H, V, windows)
    rH = H.resolvent()
    dressed_full = schatten_norm(rH @ V.entries @ rH, 2)
    invariants = all(t.norm() <= V.norm() + 1e-12 for t in seq.terms) and all(
        schatten_norm(rH @ t.entries @ rH, 2) <= 2.0 * dressed_full + 1e-10 for t in seq.terms
    )
    bumps = normalized_bump_family(rng, 10, (-4.5, 4.5), 3)
    sups = remainder_sup_experiment(H, V, seq, 3, bumps)
    mono = all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))
    dists = shift_density_convergence(H, V, seq, 3)
    ok = invariants and mono and sups[-1] < 1e-10 and dists[-1] < 1e-8
    report(
        10,
        ok,
        f"invariants {invariants}, sup monotone {mono}, final sup {sups[-1]:.1e}, final eta L1 {dists[-1]:.1e}",
    )


def test_criterion_11_partial_integration():
    rng = rng_stream(1011, 0)
    gs = [GaussianFunction(0.2, 1.1), GaussianFunction(-0.4, 0.8), real_rational(rng_stream(1011, 1), 10)]
    worst = 0.0
    bounds_ok = True
    for _ in range(50):
        count = int(rng.integers(1, 6))
        mu = PiecewisePolynomial.atom(
            rng.uniform(-3, 3, count),
            rng.standard_normal(count) + 1j * rng.standard_normal(count),
        )
        n = int(rng.integers(0, 2))
        m = int(rng.integers(0, 3))
        k = int(rng.integers(1, 4))
        epsv = float(rng.uniform(0.2, 1.0))
        rep = measure_weight_shift(mu, n, m, k, epsv, gs)
        worst = max(worst, max(rep.residuals) / (1.0 + mu.atomic_mass()))
        bounds_ok = bounds_ok and rep.bound_holds
    report(11, worst <= 1e-8 and bounds_ok, f"max residual {worst:.2e}, norm bound holds {bounds_ok}")


def test_criterion_12_determinism(tmp_path):
    blobs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"w{threads}"
        code = cli_main(["all", "--out", str(out), "--threads", str(threads)])
        assert code == 0
        blobs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    # a repeated run with the same worker count must also be identical
    out = tmp_path / "repeat"
    assert cli_main(["all", "--out", str(out), "--threads", "1"]) == 0
    blobs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    ok = all(b == blobs[0] for b in blobs[1:])
    report(12, ok, f"{len(blobs)} runs across 1/2/8 workers byte-identical: {ok}")
