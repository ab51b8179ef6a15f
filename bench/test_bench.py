"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from opshift.functions import GaussianFunction, rational_from_poles  # noqa: E402
from opshift.linalg import HermitianOperator  # noqa: E402
from opshift.moi import taylor_remainder  # noqa: E402
from opshift.piecewise import weighted_abs_integral  # noqa: E402
from opshift.ssf import ssf_compute  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _pair(seed, dim, v_norm):
    rng = np.random.default_rng(seed)
    return workloads._hermitian(rng, dim, 1.0), workloads._hermitian(rng, dim, v_norm), workloads._pole_pair(rng)


@pytest.mark.parametrize("m", [3, 4])
def test_moi_oracles_agree_with_src_when_well_separated(m):
    h, v, poles = _pair(5, 3, 0.1)
    H, V = HermitianOperator(h), HermitianOperator(v)
    src = taylor_remainder(rational_from_poles(poles), H, V, m, method="moi")
    assert oracles.relative_error(src, oracles.rational_remainder(poles, h, v, m)) < 1e-10
    gauss = taylor_remainder(GaussianFunction(0.3, 0.8, (1.0,)), H, V, m, method="moi")
    assert oracles.relative_error(gauss, oracles.mp_remainder(oracles.gaussian_taylor(0.3, 0.8), h, v, m)) < 1e-10


def test_the_two_moi_oracles_agree_with_each_other():
    h, v, poles = _pair(6, 4, 1e-3)
    by_resolvents = oracles.rational_remainder(poles, h, v, 5)
    by_mpmath = oracles.mp_remainder(oracles.rational_taylor(poles), h, v, 5)
    assert oracles.relative_error(by_mpmath, by_resolvents) < 1e-11


@pytest.mark.parametrize("m", [3, 4])
def test_eta_oracles_agree_with_src_at_unit_t(m):
    h, v, poles = _pair(7, 3, workloads.EtaDensity.V_NORM)
    eta = ssf_compute(HermitianOperator(h), HermitianOperator(v), m)
    w = workloads.EtaDensity.weight_exponent(m)
    d = eta.density
    ref_norm = oracles.weighted_abs_norm(d.breakpoints, d.coeffs, d.atoms, w)
    assert abs(weighted_abs_integral(d, w) - ref_norm) < 1e-10 * ref_norm
    trace, scale = oracles.rational_remainder_trace(poles, h, v, m)
    assert abs(eta.integrate_against(rational_from_poles(poles)) - trace) < 1e-10 * scale
    assert abs(trace) <= scale


def test_scalar_eta_matches_src():
    eta = ssf_compute(HermitianOperator([[0.5]]), HermitianOperator([[2.0]]), 4)
    xs = np.linspace(0.0, 3.0, 61)
    assert np.max(np.abs(eta(xs) - oracles.scalar_eta(0.5, 2.0, 4, xs))) < 1e-13


def _fingerprint(workload, seed, k):
    out = workload.op(seed, k).run()
    arrays = out[0].coeffs if isinstance(out, tuple) else [out]
    return np.concatenate([np.ravel(a) for a in arrays])


@pytest.mark.parametrize("workload", [workloads.MoiRemainder(), workloads.EtaDensity()])
def test_stream_is_reproducible_from_the_seed(workload):
    for k in range(2):
        first, again, other = (_fingerprint(workload, seed, k) for seed in (3, 3, 4))
        assert np.array_equal(first, again)
        assert not (first.shape == other.shape and np.array_equal(first, other))
    period = len(workload.PERIOD)
    assert [workload.op(3, k).cls for k in range(period)] == [workload.op(9, k).cls for k in range(period)]


def test_cli_cycle_seeds_cover_the_pool_then_stay_fresh(tmp_path):
    cli_all = workloads.CliAll(ROOT, tmp_path)
    pool = len(cli_all.SEED_POOL)
    for seed in (0, 1, 7):
        seeds = [cli_all.cycle_seed(seed, c) for c in range(3 * pool)]
        assert sorted(seeds[:pool]) == sorted(cli_all.SEED_POOL)
        assert len(set(seeds)) == len(seeds)
    assert cli_all.cycle_seed(1, pool) != cli_all.cycle_seed(2, pool)


def test_tracer_patches_every_import_site_and_restores_them():
    from opshift import cov, moi

    original = moi.moi_eval
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sites = tracing.patched_sites(tracer)
    finally:
        tracer.uninstall()
    expected = {
        "opshift.moi.divided_difference", "opshift.cov.divided_difference", "opshift.cov.peano_kernel",
        "opshift.cov.moi_eval", "opshift.ssf.moi_eval", "opshift.ssf.eigen_tuple_density",
        "opshift.ssf.weighted_abs_integral", "opshift.ssf.integral_against_derivative",
        "opshift.approx.ssf_compute", "opshift.approx.taylor_remainder", "opshift.cli.ssf_compute",
        "opshift.cli.taylor_remainder", "opshift.cli.suite_bounds", "PiecewisePolynomial.__add__",
        "PiecewisePolynomial.refined",
    }
    assert expected <= sites
    assert moi.moi_eval is original and cov.moi_eval is original


def _run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", tracing.WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    metrics = _result(workload, 0)
    assert {k: unit for k, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert metrics["ops_ok_share"][0] < 1.0  # the known seed-state defects show


def test_each_layer_metric_is_printed_and_nonzero_where_it_should_move():
    assert [w["name"] for w in SPEC["workloads"]] == list(tracing.WORKLOADS)
    expected = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == expected
    values = {}
    for workload in tracing.WORKLOADS:
        metrics = _result(workload, 1)
        assert {k: unit for k, (_, unit) in metrics.items()} == expected
        values[workload] = {k: value for k, (value, _) in metrics.items()}
    for name, _, moves in tracing.LAYER_METRICS:
        if moves:
            assert any(values[w][name] != 0 for w in moves), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("moi-remainder", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
