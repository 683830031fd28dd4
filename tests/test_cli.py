"""CLI subcommands: outputs, determinism, exit codes."""

import json
import math

import pytest

from ahtest.cli import main

from conftest import MODELS_DIR

BSC2 = str(MODELS_DIR / "bsc2.json")
TRI3 = str(MODELS_DIR / "tri3.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_reports_lambda_bound(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--model", BSC2)
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["lambda_bound"] == pytest.approx(math.log(9), abs=1e-9)
        assert doc["hypotheses"] == ["H1", "H2"]

    def test_bad_model_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "hypotheses": ["a", "b"],
            "experiments": ["u"],
            "observations": ["0", "1"],
            "prior": [0.5, 0.5],
            "channel": [[[1.0, 0.0]], [[0.1, 0.9]]],
        }))
        code, _, err = run_cli(capsys, "validate", "--model", str(bad))
        assert code == 3
        assert "full support" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "--model", "/nonexistent.json")
        assert code == 3


class TestDivergence:
    def test_tri3_saddle_values(self, capsys):
        code, out, _ = run_cli(capsys, "divergence", "--model", TRI3)
        assert code == 0
        doc = json.loads(out)
        by_hyp = {row["hypothesis"]: row for row in doc["saddles"]}
        assert by_hyp["H1"]["d_star"] == pytest.approx(0.42875, abs=5e-4)
        assert by_hyp["H1"]["gap"] <= 1e-6
        assert by_hyp["H1"]["alpha_star"]["u1"] == pytest.approx(0.5, abs=1e-6)
        assert sum(by_hyp["H2"]["beta_star"].values()) == pytest.approx(1.0, abs=1e-9)


class TestSimulateEnumerate:
    def test_simulate_deterministic_bytes(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            code = main([
                "simulate", "--model", BSC2, "--select", "chernoff", "--infer", "fbar",
                "--horizon", "4", "--episodes", "2000", "--seed", "9",
                "--out", str(out),
            ])
            assert code == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_enumerate_known_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--model", BSC2, "--select", "openloop:i=1",
            "--infer", "fbar:delta=0.4", "--horizon", "3",
        )
        assert code == 0
        doc = json.loads(out)
        rep = doc["report"]
        assert rep["mode"] == "exact"
        assert rep["phi"][0] == pytest.approx(0.001, abs=1e-12)
        assert rep["psi"][0] == pytest.approx(0.271, abs=1e-12)
        assert rep["paths"] == 8
        assert doc["metadata"]["delta"] == pytest.approx(0.4)

    def test_simulate_requires_episodes(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--model", BSC2, "--horizon", "3",
        )
        assert code == 4
        assert "episodes" in err

    def test_unknown_strategy_exit_code(self, capsys):
        code, _, _ = run_cli(
            capsys, "enumerate", "--model", BSC2, "--select", "oracle",
            "--infer", "map", "--horizon", "2",
        )
        assert code == 4

    @pytest.mark.parametrize("seed", ["-1", "281474976710656"])
    def test_seed_outside_key_field_exit_code(self, capsys, seed):
        code, out, err = run_cli(
            capsys, "simulate", "--model", BSC2, "--horizon", "3",
            "--episodes", "10", "--seed", seed,
        )
        assert code == 4
        assert out == ""
        assert "seed" in err

    def test_largest_seed_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--model", BSC2, "--horizon", "3",
            "--episodes", "10", "--seed", "281474976710655",
        )
        assert code == 0
        assert json.loads(out)["report"]["seed"] == 2**48 - 1

    @pytest.mark.parametrize("command, extra", [
        ("bounds", ["--infer", "map", "--horizon", "3"]),
        ("simulate", ["--infer", "map", "--horizon", "3", "--episodes", "10"]),
        ("enumerate", ["--horizon", "3"]),
        ("sweep", ["--horizons", "1,2"]),
    ])
    @pytest.mark.parametrize("delta", ["nan", "inf", "-inf", "0", "-0.1"])
    def test_delta_not_finite_and_positive_exit_code(self, capsys, command, extra, delta):
        code, out, err = run_cli(capsys, command, "--model", BSC2, *extra, f"--delta={delta}")
        assert code == 4
        assert out == ""
        assert err.startswith("configuration error:")
        assert "--delta" in err

    def test_budget_exceeded_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "enumerate", "--model", TRI3, "--select", "uniform",
            "--infer", "map", "--horizon", "13",
        )
        assert code == 4
        assert "budget" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--model", BSC2, "--select", "openloop:i=1",
            "--infer", "fbar:delta=0.4", "--horizon", "3", "--format", "csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[:6] == ["mode", "N", "seed", "episodes", "paths", "gamma"]
        assert row.startswith("exact,3,")


class TestBoundsSweep:
    def test_bounds_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--model", BSC2, "--select", "chernoff",
            "--infer", "fbar", "--horizon", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bounds"]["feasible"] is True
        assert doc["bounds"]["lower_bound"] <= doc["bounds"]["gamma"] <= doc["bounds"]["upper_bound"]

    def test_sweep_csv_columns_and_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--model", BSC2, "--select", "chernoff",
            "--infer", "fbar", "--horizons", "1,2,3,4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,gamma,gamma_stderr,achieved_exponent,dstar_min,upper_bound,lower_bound,feasible"
        assert len(lines) == 5
        assert lines[1].split(",")[0] == "1"
        feas = [line.split(",")[-1] for line in lines[1:]]
        assert feas == ["true", "true", "false", "false"]

    def test_sweep_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--model", BSC2, "--select", "chernoff",
            "--infer", "fbar", "--horizons", "1,2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 2
        assert doc["metadata"]["epsilon_rule"] == "half-inverse"

    def test_bad_horizon_list(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--model", BSC2, "--horizons", "a,b",
        )
        assert code == 4


class TestOutputErrors:
    def test_unwritable_out_is_an_output_error(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "r.json"
        code, out, err = run_cli(
            capsys, "simulate", "--model", BSC2, "--horizon", "3",
            "--episodes", "10", "--out", str(target),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("output error:")
        assert str(target) in err
        assert not target.exists()

    def test_missing_model_is_still_a_model_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--model", str(tmp_path / "absent.json"),
            "--horizon", "3", "--episodes", "10", "--out", str(tmp_path / "r.json"),
        )
        assert code == 3
        assert err.startswith("model error:")


class TestFormatFlag:
    @pytest.mark.parametrize("command", ["validate", "divergence"])
    def test_rejected_where_it_would_be_ignored(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", BSC2, "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("simulate", ["--horizon", "2", "--episodes", "10"]),
        ("enumerate", ["--horizon", "2"]),
        ("bounds", ["--horizon", "2"]),
        ("sweep", ["--horizons", "1,2"]),
    ])
    def test_accepted_where_honoured(self, capsys, command, extra):
        code, out, _ = run_cli(capsys, command, "--model", BSC2, *extra, "--format", "csv")
        assert code == 0
        assert not out.lstrip().startswith("{")
