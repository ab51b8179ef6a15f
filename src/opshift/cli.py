"""Batch experiment runner.

Subcommands
    verify-identities   expansion/perturbation/change-of-variables suites
    ssf                 shift-density computation and export
    trace-formula       remainder trace vs density integral over a family
    bounds              weighted norms, scaling slopes, measure-norm ratios
    approx              finite-rank sequences and convergence
    all                 everything above

Every run writes ``report.json`` into the output directory; the ssf
suite additionally writes ``eta_<m>.json``/``eta_<m>.csv`` and the
approx suite ``convergence.csv``.  Reports are byte-identical across
repeated runs for a fixed config.  Exit code 0 means every contract
held, 1 flags a contract violation (the report lists the failing
checks), 2 signals a usage or configuration error or work beyond the
eigen-tuple budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .approx import convergence_report, finite_rank_sequence, remainder_sup_experiment, shift_density_convergence
from .cov import (
    EpsilonSignature,
    _weight_shift_signature,
    _weight_shift_values,
    alternating_signature,
    cov_expansions,
    cov_scalar_identities,
    kernel_sum_density,
    trace_via_measure,
)
from .ensembles import admissible_family, normalized_bump_family, random_hermitian, random_hermitians, random_pair, real_rational, rng_stream
from .errors import ValidationError
from .linalg import HermitianOperator
# taylor_remainder stays importable here: bench/tracing.py patches it at this import site
from .moi import OperatorTuple, perturbation_identities, remainder_pattern, taylor_remainder  # noqa: F401
from .ssf import _orders_for, ssf_compute, verify_trace_formula, weight_exponent_survey, weighted_norm_and_scaling

_PARITIES = {"odd": ("odd",), "even": ("even",), "both": ("odd", "even")}


@dataclass
class ExperimentConfig:
    seed: int
    dims: list
    n: int
    parity: str
    ensemble: int
    family: dict
    scalar_samples: int
    operator_samples: int
    tolerances: dict
    ssf: dict
    approx: dict

    def validate(self):
        for name in ("family", "tolerances", "ssf", "approx"):
            if not isinstance(getattr(self, name), dict):
                raise ValidationError(f"{name} must be an object")
        # rng_stream packs the stream index above bit 32 of the Philox key
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or not 0 <= self.seed < 2**32:
            raise ValidationError("seed must be an integer in [0, 2^32)")
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n not in (2, 3):
            raise ValidationError("n must be the integer 2 or 3")
        for name, items in (("dims", self.dims), ("ssf.orders", self.ssf["orders"])):
            if not isinstance(items, list) or not items:
                raise ValidationError(f"{name} must be a non-empty list")
        if any(isinstance(d, bool) or not isinstance(d, int) or d < 1 or d > 16 for d in self.dims):
            raise ValidationError("dims must be integers in 1..16 for full-tuple experiments")
        if self.parity not in _PARITIES:
            raise ValidationError("parity must be odd, even or both")
        for name, tol in self.tolerances.items():
            if name != "slope_margin" and not tol > 0:
                raise ValidationError(f"tolerance {name} must be positive")
        counts = [
            ("ensemble", self.ensemble, 1),
            ("scalar_samples", self.scalar_samples, 1),
            ("operator_samples", self.operator_samples, 1),
            ("family.count", self.family["count"], 1),
            ("approx.dim", self.approx["dim"], 1),
            ("approx.bumps", self.approx["bumps"], 1),
            ("approx.m", self.approx["m"], 3),
            ("ssf.grid_points", self.ssf["grid_points"], 2),
        ] + [("ssf.orders", m, 1) for m in self.ssf["orders"]]
        for name, value, low in counts:
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValidationError(f"{name} must be an integer >= {low}")
        floats = [
            ("family.spread", self.family["spread"]),
            ("approx.h_norm", self.approx["h_norm"]),
            ("approx.v_norm", self.approx["v_norm"]),
            ("tolerances.slope_margin", self.tolerances["slope_margin"]),
        ]
        for name, value in floats:
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
                raise ValidationError(f"{name} must be a finite number")
        for name in ("h", "v"):
            spec = self.ssf[name]
            dim = spec.get("dim") if isinstance(spec, dict) else None
            if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
                raise ValidationError(f"ssf.{name} must be an object with an integer dim >= 1")
            for part in ("re", "im"):
                try:
                    ok = np.asarray(spec.get(part), dtype=float).shape == (dim, dim)
                except (TypeError, ValueError):
                    ok = False
                if not ok:
                    raise ValidationError(f"ssf.{name}.{part} must be a {dim}x{dim} array of numbers")

    @staticmethod
    def load(path=None, seed_override=None):
        data = json.loads(Path(__file__).with_name("default.json").read_text())
        if path is not None:
            with open(path) as fh:
                user = json.load(fh)
            _deep_update(data, user)
        if seed_override is not None:
            data["seed"] = int(seed_override)
        cfg = ExperimentConfig(**data)
        cfg.validate()
        return cfg

    def resolved(self):
        """The fields by name, for the report; the values are the config's
        own JSON data, not copies."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _deep_update(base, extra, path=""):
    for k, v in extra.items():
        if k not in base:
            raise ValidationError(f"unknown config key {path}{k}")
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v, f"{path}{k}.")
        else:
            base[k] = v


def _check(checks, check_id, description, value, tolerance, ok=None):
    if ok is None:
        ok = bool(value <= tolerance)
    checks.append(
        {
            "id": check_id,
            "description": description,
            "value": float(value),
            "tolerance": float(tolerance),
            "pass": bool(ok),
        }
    )


def _random_signature(rng, m):
    # one integers(3) draw per letter: the stream of rng.choice(["L", "0", "R"])
    while True:
        ent = ["L0R"[rng.integers(3)] for _ in range(m + 1)]
        if ent[0] != "L" and ent[-1] != "R":
            return EpsilonSignature(tuple(ent))


def suite_verify_identities(cfg: ExperimentConfig):
    checks = []
    tol = cfg.tolerances
    rng = rng_stream(cfg.seed, 1)
    g = real_rational(rng, 8)

    # every sample is drawn first, in the stream's order; no evaluation reads
    # the stream, and each identity then runs over all of its samples at once
    scalar = []
    for _ in range(cfg.scalar_samples):
        m = int(rng.integers(1, 6))
        eps = _random_signature(rng, m)
        scalar.append((eps, rng.uniform(-2.5, 2.5, m + 1)))

    def draw(dim, m):
        Hs = random_hermitians(rng, m + 1, dim, 1.0)
        return Hs, [h.entries for h in random_hermitians(rng, m, dim, 0.8)]

    # the operator, alternating and weight-shift samples are one family of expansions
    expansions, ends = [], {}
    for _ in range(cfg.operator_samples):
        dim = int(rng.choice(cfg.dims))
        m = int(rng.integers(1, 5))
        eps = _random_signature(rng, m)
        expansions.append((eps, *draw(dim, m)))
    ends["operator"] = len(expansions)
    for parity in ("odd", "even"):
        m, _ = _orders_for(cfg.n, parity)
        for _ in range(max(1, cfg.operator_samples // 4)):
            expansions.append((alternating_signature(m), *draw(int(rng.choice(cfg.dims)), m)))
        ends[parity] = len(expansions)

    perturbations = []
    for _ in range(max(1, cfg.operator_samples // 3)):
        dim = int(rng.choice(cfg.dims))
        n_args = int(rng.integers(1, 4))
        Hs, Vs = draw(dim, n_args)
        A = Hs[0]
        B = random_hermitian(rng, dim, 1.0)
        slot = int(rng.integers(1, n_args + 2))
        ops = list(Hs)
        ops[slot - 1] = A
        perturbations.append((OperatorTuple(tuple(ops), tuple(Vs)), A, B, slot))

    for variant in ("left", "inner", "right"):
        dim = int(rng.choice(cfg.dims))
        n_args = 3
        j = 1 if variant == "inner" else None
        expansions.append((_weight_shift_signature(n_args, variant, j), *draw(dim, n_args)))

    worst = max([0.0] + [res / scale for _, _, res, scale in cov_scalar_identities(g, scalar)])
    _check(checks, "cov.scalar", "scalar expansion identity, random nodes and signatures", worst, tol["scalar"])
    done = cov_expansions(g, expansions)
    worst = max([0.0] + [exp.residual / exp.scale for exp in done[: ends["operator"]]])
    _check(checks, "cov.operator", "operator expansion along random signatures", worst, tol["identity"])
    for parity, start in (("odd", ends["operator"]), ("even", ends["odd"])):
        worst = max([0.0] + [exp.residual / exp.scale for exp in done[start : ends[parity]]])
        _check(checks, f"cov.alternating_{parity}", f"alternating-signature decomposition ({parity})", worst, tol["identity"])
    worst = max([0.0] + [rep.residual / rep.scale for rep in perturbation_identities(g, perturbations)])
    _check(checks, "moi.perturbation", "one-slot operator replacement identity", worst, tol["perturbation"])
    worst = max([0.0] + [res / scale for _, _, res, scale in map(_weight_shift_values, done[ends["even"] :])])
    _check(checks, "moi.weight_shift_single", "single-step resolvent extraction identities", worst, tol["identity"])
    return checks, {}


def suite_ssf(cfg: ExperimentConfig, out_dir: Path):
    checks = []
    tol = cfg.tolerances
    hspec, vspec = cfg.ssf["h"], cfg.ssf["v"]
    H = HermitianOperator(np.asarray(hspec["re"], dtype=float) + 1j * np.asarray(hspec["im"], dtype=float))
    V = HermitianOperator(np.asarray(vspec["re"], dtype=float) + 1j * np.asarray(vspec["im"], dtype=float))
    for m in cfg.ssf["orders"]:
        eta = ssf_compute(H, V, m)
        _check(checks, f"ssf.imag_residue.m{m}", "construction is real-valued", eta.imag_residue, tol["imag_residue"] * eta.scale)
        _check(checks, f"ssf.atom_mass.m{m}", "density carries no atomic mass", eta.density.atomic_mass(), tol["atom_mass"])
        ops, args = remainder_pattern(H, V, m)
        reference, _ = kernel_sum_density(np.eye(H.dim), list(args), list(ops))
        gap = (eta.density - reference.real_part()).coefficient_scale()
        _check(checks, f"ssf.kernel_fold.m{m}", "array fold equals the sum of its Peano kernels", gap, tol["identity"] * eta.scale)
        payload = eta.density.to_json_dict()
        payload["order"] = m
        (out_dir / f"eta_{m}.json").write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        lo, hi = eta.support()
        pad = 0.05 * (hi - lo if hi > lo else 1.0)
        xs = np.linspace(lo - pad, hi + pad, cfg.ssf["grid_points"])
        rows = eta.density.sample_rows(xs)
        csv = "x,value\n" + "\n".join(f"{x!r},{v!r}" for x, v in rows) + "\n"
        (out_dir / f"eta_{m}.csv").write_text(csv)
    return checks, {}


def suite_trace_formula(cfg: ExperimentConfig):
    checks = []
    tol = cfg.tolerances
    rng = rng_stream(cfg.seed, 2)
    worst = {p: 0.0 for p in _PARITIES[cfg.parity]}
    vanish = 0.0
    for _ in range(cfg.ensemble):
        dim = int(rng.choice(cfg.dims))
        H, V = random_pair(rng, dim, 1.0, 0.6)
        for parity in _PARITIES[cfg.parity]:
            m, k_weight = _orders_for(cfg.n, parity)
            family = admissible_family(rng, cfg.family["count"], m, k_weight, cfg.family["spread"])
            rep = verify_trace_formula(H, V, cfg.n, parity, family)
            worst[parity] = max(worst[parity], rep.max_relative_residual)
            vanish = max(vanish, rep.max_monomial_trace)
    for parity, value in worst.items():
        _check(checks, f"ssf.trace_formula_{parity}", f"remainder trace equals density integral ({parity})", value, tol["trace"])
    _check(checks, "ssf.polynomial_vanishing", "remainder trace vanishes on low-degree monomials", vanish, tol["polynomial_vanish"])
    return checks, {}


def suite_bounds(cfg: ExperimentConfig):
    checks = []
    tol = cfg.tolerances
    rng = rng_stream(cfg.seed, 3)
    slope_floor = {}
    slopes = {}
    ratio_worst = 0.0
    reports = {parity: [] for parity in _PARITIES[cfg.parity]}
    for _ in range(cfg.ensemble):
        dim = int(rng.choice([d for d in cfg.dims if d >= 2] or cfg.dims))
        # modest perturbations keep the small-t scaling regime visible
        H, V = random_pair(rng, dim, 1.0, 0.3)
        for parity in _PARITIES[cfg.parity]:
            m, _ = _orders_for(cfg.n, parity)
            rep = weighted_norm_and_scaling(H, V, cfg.n, parity)
            reports[parity].append(rep)
            slope_floor[parity] = m - tol["slope_margin"]
            order = rep.small_t_slope()
            slopes[parity] = min(slopes.get(parity, np.inf), order if order is not None else np.inf)
        g = real_rational(rng, 8)
        mlen = 2
        Hs = random_hermitians(rng, mlen + 1, dim, 1.0)
        Us = [h.entries for h in random_hermitians(rng, mlen, dim, 0.8)]
        U0 = random_hermitian(rng, dim, 1.0).entries
        tm = trace_via_measure(U0, g, Us, Hs)
        ratio_worst = max(ratio_worst, tm.residual / tm.scale)
    for parity, slope in slopes.items():
        _check(
            checks,
            f"ssf.scaling_order_{parity}",
            f"weighted-norm order under V -> tV as t -> 0, fitted over t <= 2^-4 ({parity})",
            slope_floor[parity] - slope,
            0.0,
            ok=bool(slope >= slope_floor[parity]),
        )
    _check(checks, "cov.trace_measure", "trace equals weighted measure integral", ratio_worst, tol["identity"])
    # informational: how small the weight exponent could be for this ensemble
    data = {}
    for parity in _PARITIES[cfg.parity]:
        survey = weight_exponent_survey(reports[parity])
        data[f"weight_survey_{parity}"] = {
            "reference_exponent": survey["reference_exponent"],
            "smallest_stable_exponent": survey["smallest_stable_exponent"],
            "worst_ratios": {str(w): float(v) for w, v in survey["weights"].items()},
        }
    return checks, data


def suite_approx(cfg: ExperimentConfig, out_dir: Path):
    checks = []
    tol = cfg.tolerances
    rng = rng_stream(cfg.seed, 6)
    dim = cfg.approx["dim"]
    H = random_hermitian(rng, dim, cfg.approx["h_norm"])
    V = random_hermitian(rng, dim, cfg.approx["v_norm"])
    eigs = np.sort(np.abs(H.decomposition().eigenvalues))
    windows = [float(e) + 1e-9 for e in eigs] + [float(eigs[-1]) + 1.0]
    seq = finite_rank_sequence(H, V, windows)
    norm_ok = all(t.norm() <= V.norm() + 1e-12 * (1 + V.norm()) for t in seq.terms)
    _check(checks, "approx.norm_domination", "truncations never exceed the perturbation norm", 0.0, 1.0, ok=norm_ok)
    rows = convergence_report(H, V, seq, cfg.n)
    sdef = [r.schatten_defect for r in rows]
    _check(checks, "approx.schatten_final", "dressed Schatten defect vanishes at the full window", sdef[-1], tol["sup_final"])
    m = cfg.approx["m"]
    lo = float(np.min(H.decomposition().eigenvalues)) - V.norm() - 1.0
    hi = float(np.max(H.decomposition().eigenvalues)) + V.norm() + 1.0
    bumps = normalized_bump_family(rng, cfg.approx["bumps"], (lo, hi), m)
    sups = remainder_sup_experiment(H, V, seq, m, bumps)
    _check(checks, "approx.remainder_sup_final", "remainder-trace sup vanishes at the full window", sups[-1], tol["sup_final"])
    mono = all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
    _check(checks, "approx.remainder_sup_monotone", "remainder-trace sups are nonincreasing", 0.0, 1.0, ok=mono)
    dists = shift_density_convergence(H, V, seq, m)
    _check(checks, "approx.eta_l1_final", "shift densities converge in L1", dists[-1], tol["eta_l1_final"])
    lines = ["k,window,rank,schatten_defect,resolvent_defect,remainder_sup"]
    for i, r in enumerate(rows):
        lines.append(f"{i + 1},{r.window!r},{r.rank},{r.schatten_defect!r},{r.resolvent_defect!r},{sups[i]!r}")
    (out_dir / "convergence.csv").write_text("\n".join(lines) + "\n")
    return checks, {}


SUITES = {
    "verify-identities": lambda cfg, out: suite_verify_identities(cfg),
    "ssf": lambda cfg, out: suite_ssf(cfg, out),
    "trace-formula": lambda cfg, out: suite_trace_formula(cfg),
    "bounds": lambda cfg, out: suite_bounds(cfg),
    "approx": lambda cfg, out: suite_approx(cfg, out),
}


def run(command, cfg: ExperimentConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    names = list(SUITES) if command == "all" else [command]
    suites = {}
    for name in names:
        checks, data = SUITES[name](cfg, out_dir)
        suites[name] = {"checks": checks, "pass": all(c["pass"] for c in checks)}
        if data:
            suites[name]["data"] = data
    ok = all(s["pass"] for s in suites.values())
    report = {
        "command": command,
        "config": cfg.resolved(),
        "suites": suites,
        "pass": ok,
        "failures": [
            {"suite": name, "id": c["id"], "value": c["value"], "tolerance": c["tolerance"]}
            for name, s in suites.items()
            for c in s["checks"]
            if not c["pass"]
        ],
    }
    (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="opshift", description="operator-calculus verification suites")
    parser.add_argument("command", choices=list(SUITES) + ["all"])
    parser.add_argument("--config", type=str, default=None, help="JSON config path (omitted keys take configs/default.json)")
    parser.add_argument("--out", type=str, default="out", help="output directory for reports")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    parser.add_argument("--grid", type=int, default=None, help="CSV sampling resolution for ssf export")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        cfg = ExperimentConfig.load(args.config, args.seed)
        if args.grid is not None:
            cfg.ssf["grid_points"] = args.grid
            cfg.validate()
    except (OSError, json.JSONDecodeError, ValidationError, TypeError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 2
    try:
        return run(args.command, cfg, Path(args.out))
    except ValidationError as exc:  # includes BudgetError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
