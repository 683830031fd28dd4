"""CLI subcommands: outputs, determinism, exit codes."""

import json
import math

import pytest

from ahtest.cli import main

from conftest import MODELS_DIR, REPO_ROOT

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

    @pytest.mark.parametrize("key, value, match", [
        ("prior", "[NaN, NaN]", "is not finite"),
        ("hypotheses", '"HK"', "hypotheses must be a JSON array"),
        ("observations", '"01"', "observations must be a JSON array"),
    ])
    def test_malformed_field_exit_code(self, capsys, tmp_path, key, value, match):
        doc = {
            "hypotheses": ["a", "b"],
            "experiments": ["u"],
            "observations": ["0", "1"],
            "prior": [0.5, 0.5],
            "channel": [[[0.9, 0.1]], [[0.1, 0.9]]],
        }
        doc[key] = "@"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"@"', value))
        for argv in (["validate"], ["enumerate", "--horizon", "2"]):
            code, out, err = run_cli(capsys, *argv, "--model", str(bad))
            assert code == 3
            assert out == ""
            assert err.startswith("model error:") and match in err

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

    @pytest.mark.parametrize("argv", [
        ["bounds", "--horizon", "10", "--infer", "map", "--delta", "1000"],
        ["sweep", "--horizons", "2", "--infer", "p2:i=1", "--delta", "1e6"],
        ["bounds", "--horizon", "10", "--infer", "map", "--delta", "3"],
    ])
    def test_delta_above_dstar_min_exit_code(self, capsys, argv):
        # the upper bound overflowed here, after every episode had run
        code, out, err = run_cli(capsys, *argv, "--model", BSC2)
        assert code == 4
        assert out == ""
        assert err.startswith("configuration error: --delta must be <= min_i D*(i)")

    @pytest.mark.parametrize("flag, spec", [
        ("--select", "chernoff:foo=1"),
        ("--select", "ejs:k=3"),
        ("--infer", "map:delta=0.1"),
        ("--infer", "fbar:delta=0.1,i=2"),
        ("--select", "openloop:i=1,i=2"),
    ])
    def test_spec_parameter_not_taken_exit_code(self, capsys, flag, spec):
        code, out, err = run_cli(capsys, "enumerate", "--model", BSC2, "--horizon", "2", flag, spec)
        assert code == 4
        assert out == ""
        assert err.startswith("configuration error:")
        assert repr(spec) in err

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


class TestBoundsIsOneHorizonSweep:
    @pytest.mark.parametrize("model, extra, run_command", [
        (BSC2, ["--select", "chernoff", "--infer", "fbar", "--episodes", "2000", "--seed", "4"],
         "simulate"),
        (TRI3, ["--select", "ejs", "--infer", "map"], "enumerate"),
    ])
    def test_bounds_is_row_zero_of_sweep(self, capsys, model, extra, run_command):
        common = ["--model", model, *extra]
        outputs = [
            run_cli(capsys, "bounds", *common, "--horizon", "5"),
            run_cli(capsys, "sweep", *common, "--horizons", "5", "--format", "json"),
            run_cli(capsys, "bounds", *common, "--horizon", "5", "--format", "csv"),
            run_cli(capsys, "sweep", *common, "--horizons", "5"),
            run_cli(capsys, run_command, *common, "--horizon", "5"),
        ]
        assert [(code, err) for code, _, err in outputs] == [(0, "")] * 5
        bounds_json, sweep_json, bounds_csv, sweep_csv, run_json = (out for _, out, _ in outputs)
        bounds_doc, sweep_doc, run_doc = map(json.loads, (bounds_json, sweep_json, run_json))
        assert sweep_doc["rows"] == [bounds_doc["bounds"]]
        assert bounds_csv == sweep_csv
        assert bounds_doc["report"] == run_doc["report"]
        assert bounds_doc["metadata"] == sweep_doc["metadata"] == run_doc["metadata"]


# Each file holds the stdout of its command run from the repository root, so
# the model path echoed in the metadata is relative. Only a change that moves
# results on purpose regenerates a file (`ahtest <argv> > tests/golden/<name>`
# from the repository root), and it lists the files it regenerated.
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
GOLDEN = {
    "simulate-bsc2.json": ["simulate", "--model", "models/bsc2.json", "--horizon", "10",
                           "--episodes", "2000", "--seed", "3"],
    "simulate-tri3.csv": ["simulate", "--model", "models/tri3.json", "--select", "ejs",
                          "--infer", "p2:i=1", "--horizon", "6", "--episodes", "1000",
                          "--seed", "5", "--format", "csv"],
    "enumerate-tri3.json": ["enumerate", "--model", "models/tri3.json", "--select", "ecr:k=2",
                            "--infer", "map", "--horizon", "4"],
    "enumerate-bsc2.csv": ["enumerate", "--model", "models/bsc2.json", "--select",
                           "openloop:i=2", "--infer", "fbar:delta=0.4", "--horizon", "7",
                           "--format", "csv"],
    "bounds-bsc2.json": ["bounds", "--model", "models/bsc2.json", "--horizon", "8",
                         "--episodes", "3000", "--seed", "1"],
    "bounds-tri3.csv": ["bounds", "--model", "models/tri3.json", "--select", "uniform",
                        "--horizon", "5", "--format", "csv"],
    "bounds-tri3-one-episode.json": ["bounds", "--model", "models/tri3.json", "--select",
                                     "ejs", "--horizon", "4", "--episodes", "1", "--seed", "2"],
    "sweep-bsc2.csv": ["sweep", "--model", "models/bsc2.json", "--horizons", "2,4,6",
                       "--epsilon-rule", "fixed:0.05"],
    "sweep-tri3.json": ["sweep", "--model", "models/tri3.json", "--infer", "map",
                        "--horizons", "3,6", "--episodes", "1000", "--delta", "0.1",
                        "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(capsys, monkeypatch, name):
    monkeypatch.chdir(REPO_ROOT)
    code, out, err = run_cli(capsys, *GOLDEN[name])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / name).read_bytes().decode("utf-8")
