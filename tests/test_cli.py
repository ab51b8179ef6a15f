import json

import numpy as np

from opshift.cli import ExperimentConfig, main
from opshift.piecewise import PiecewisePolynomial


def run_cli(args):
    return main(args)


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig.load(None)
        cfg.validate()

    def test_n_gate(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"n": 7}))
        assert run_cli(["all", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_dims_gate(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"dims": [32]}))
        assert run_cli(["all", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run_cli(["ssf", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json_exit_2(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert run_cli(["all", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_command_exit_2(self, tmp_path):
        assert run_cli(["frobnicate", "--out", str(tmp_path / "o")]) == 2

    def test_retired_chunk_size_key_exit_2(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"chunk_size": 2048}))
        assert run_cli(["ssf", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_over_budget_exit_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"dims": [16], "n": 3}))
        assert run_cli(["trace-formula", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "exceed the budget" in capsys.readouterr().err


class TestSuites:
    def test_verify_identities_passes(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["verify-identities", "--out", str(out), "--seed", "42"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        ids = {c["id"] for c in report["suites"]["verify-identities"]["checks"]}
        assert "cov.scalar" in ids and "moi.perturbation" in ids

    def test_ssf_scalar_density_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["ssf", "--out", str(out)]) == 0
        payload = json.loads((out / "eta_3.json").read_text())
        pp = PiecewisePolynomial.from_json_dict(
            {k: payload[k] for k in ("breakpoints", "coeffs", "atoms")}
        )
        xs = np.linspace(0.01, 0.99, 21)
        assert np.max(np.abs(np.real(pp(xs)) - (1 - xs) ** 2 / 2.0)) < 1e-12
        csv = (out / "eta_3.csv").read_text().splitlines()
        assert csv[0] == "x,value"
        assert len(csv) == 202

    def test_grid_flag_controls_csv(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["ssf", "--out", str(out), "--grid", "51"]) == 0
        assert len((out / "eta_3.csv").read_text().splitlines()) == 52

    def test_contract_violation_exit_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"trace": 1e-30}}))
        out = tmp_path / "out"
        assert run_cli(["trace-formula", "--config", str(cfg), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is False
        assert report["failures"]
        assert report["failures"][0]["id"].startswith("ssf.trace_formula")

    def test_approx_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["approx", "--out", str(out)]) == 0
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[0] == "k,window,rank,schatten_defect,resolvent_defect,remainder_sup"
        assert len(rows) > 2


class TestDeterminism:
    def test_reports_byte_identical_across_runs_and_threads(self, tmp_path):
        blobs = {}
        for name, threads in (("a", 1), ("b", 1), ("c", 2), ("d", 8)):
            out = tmp_path / name
            assert run_cli(["all", "--out", str(out), "--threads", str(threads)]) == 0
            blobs[name] = {
                f.name: f.read_bytes() for f in sorted(out.iterdir())
            }
        assert blobs["a"] == blobs["b"] == blobs["c"] == blobs["d"]
