"""CLI subcommands: outputs, determinism, exit codes."""

import csv
import importlib
import io
import json
import math
import re
import shlex

import numpy as np
import pytest

from ahtest.cli import INFERENCE_RULES, SELECTION_RULES, _build_parser, main

from conftest import MODELS_DIR, REPO_ROOT, corrupt_mixtures, fresh_python

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


def _bsc2_with_prior(tmp_path, prior):
    path = tmp_path / "prior.json"
    path.write_text(json.dumps({
        "hypotheses": ["H1", "H2"], "experiments": ["u0"], "observations": ["0", "1"],
        "prior": prior, "channel": [[[0.9, 0.1]], [[0.1, 0.9]]],
    }))
    return str(path)


def _strict_json(text):
    def refuse(name):
        raise AssertionError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestSkewedPrior:
    """A prior entry of 1.0 (the rest within the sum tolerance) is refused;
    a skewed prior short of it runs to finite reports."""

    RUNS = [
        ["validate"],
        ["enumerate", "--horizon", "3", "--infer", "map"],
        ["simulate", "--horizon", "3", "--episodes", "50"],
        ["sweep", "--horizons", "2,3", "--format", "json"],
    ]

    @pytest.mark.parametrize("argv", RUNS[1:], ids=lambda argv: argv[0])
    def test_valid_skewed_prior_gives_finite_reports(self, capsys, tmp_path, argv):
        model = _bsc2_with_prior(tmp_path, [1.0 - 1e-10, 1e-10])
        code, out, err = run_cli(capsys, *argv, "--model", model)
        assert (code, err) == (0, "")
        doc = _strict_json(out)
        for report in [doc["report"]] if "report" in doc else doc["rows"]:
            assert math.isfinite(report["gamma"])
            assert all(math.isfinite(v) for v in report.get("phi", []))

    @pytest.mark.parametrize("argv", RUNS, ids=lambda argv: argv[0])
    def test_prior_entry_of_one_exit_code(self, capsys, tmp_path, argv):
        model = _bsc2_with_prior(tmp_path, [1.0, 1e-12])
        code, out, err = run_cli(capsys, *argv, "--model", model)
        assert (code, out) == (3, "")
        assert err.startswith("model error: prior[0] = 1.0 leaves its rivals no mass")


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

    def test_uncertified_saddle_exit_code(self, capsys, monkeypatch):
        corrupt_mixtures(monkeypatch, "alpha", np.nan)
        code, out, err = run_cli(capsys, "divergence", "--model", TRI3)
        assert code == 5
        assert out == ""
        assert err.startswith("solver error:")


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

    @pytest.mark.parametrize("flag, spec, message", [
        ("--select", "ecr:k=x", "ecr: k must be an integer, got 'x' (spec 'ecr:k=x')"),
        ("--select", "ecr:k=2.5", "ecr: k must be an integer, got '2.5' (spec 'ecr:k=2.5')"),
        ("--infer", "fbar:delta=x",
         "fbar: delta must be a number, got 'x' (spec 'fbar:delta=x')"),
        ("--infer", "fbar: delta = 1e-2x",
         "fbar: delta must be a number, got '1e-2x' (spec 'fbar: delta = 1e-2x')"),
    ])
    def test_spec_value_not_converting_exit_code(self, capsys, flag, spec, message):
        code, out, err = run_cli(capsys, "enumerate", "--model", TRI3, "--horizon", "2", flag, spec)
        assert (code, out) == (4, "")
        assert err == f"configuration error: {message}\n"

    def test_budget_exceeded_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "enumerate", "--model", TRI3, "--select", "uniform",
            "--infer", "map", "--horizon", "390",
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

    def test_csv_quotes_labels_holding_commas_and_quotes(self, capsys, tmp_path):
        labels = ["H,1", 'H"2']
        model = tmp_path / "labels.json"
        model.write_text(json.dumps({
            "hypotheses": labels, "experiments": ["u0"], "observations": ["0", "1"],
            "prior": [0.5, 0.5], "channel": [[[0.9, 0.1]], [[0.1, 0.9]]],
        }))
        for extra in (["enumerate"], ["simulate", "--episodes", "50"]):
            code, out, _ = run_cli(capsys, *extra, "--model", str(model), "--horizon", "3",
                                   "--format", "csv")
            assert code == 0
            header, row = csv.reader(io.StringIO(out))
            assert len(header) == len(row) == 7 + 3 * len(labels)
            assert header[7:] == [f"{name}_{h}" for name in ("psi", "phi", "jng") for h in labels]


# Every rule of each table, a spec as typed (odd spacing included).
SELECT_SPECS = ["chernoff", "openloop:i=1", "uniform", "ejs", "ecr:k=2", "ecr: k=2"]
INFER_SPECS = ["fbar", "map", "p2:i=1"]


class TestEveryRuleRuns:
    """Each table's constructors are wired to their rules: every selection
    rule runs with every inference rule on tri3, exactly and by Monte Carlo,
    and the metadata echoes both specs as typed."""

    def test_specs_cover_every_table_rule(self):
        for specs, rules in ((SELECT_SPECS, SELECTION_RULES), (INFER_SPECS, INFERENCE_RULES)):
            assert {spec.partition(":")[0] for spec in specs} == set(rules)

    @pytest.mark.parametrize("infer", INFER_SPECS)
    @pytest.mark.parametrize("select", SELECT_SPECS)
    def test_enumerate_and_simulate(self, capsys, select, infer):
        for extra in (["enumerate"], ["simulate", "--episodes", "20"]):
            code, out, err = run_cli(capsys, *extra, "--model", TRI3, "--horizon", "3",
                                     "--select", select, "--infer", infer)
            assert (code, err) == (0, ""), extra
            metadata = json.loads(out)["metadata"]
            assert (metadata["select"], metadata["infer"]) == (select, infer)


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
    """A subcommand takes only the flags it reads: --format, --seed, --delta
    and --epsilon-rule are usage errors where they would be ignored."""

    @pytest.mark.parametrize("command, flag, value", [
        pytest.param("validate", "--format", "csv", id="validate"),
        pytest.param("divergence", "--format", "csv", id="divergence"),
        pytest.param("validate", "--seed", "1", id="validate-seed"),
        pytest.param("validate", "--delta", "0.1", id="validate-delta"),
        pytest.param("divergence", "--seed", "1", id="divergence-seed"),
        pytest.param("divergence", "--delta", "0.1", id="divergence-delta"),
        pytest.param("divergence", "--epsilon-rule", "fixed:0.05", id="divergence-epsilon-rule"),
        pytest.param("enumerate", "--seed", "1", id="enumerate-seed"),
    ])
    def test_rejected_where_it_would_be_ignored(self, capsys, command, flag, value):
        extra = ["--horizon", "2"] if command == "enumerate" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", BSC2, *extra, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("bounds", ["--horizon", "2"]),
        ("sweep", ["--horizons", "1,2"]),
    ])
    def test_seed_accepted_without_episodes(self, capsys, command, extra):
        # bounds and sweep run Monte Carlo once --episodes is given, so they
        # take --seed without it too; the exact run does not read it, and the
        # metadata echoes no seed.
        code, out, err = run_cli(capsys, command, "--model", BSC2, *extra, "--seed", "7")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, command, "--model", BSC2, *extra)[1]

    @pytest.mark.parametrize("argv, seed", [
        (["validate", "--model", BSC2], None),
        (["divergence", "--model", BSC2], None),
        (["enumerate", "--model", BSC2, "--horizon", "2"], None),
        (["bounds", "--model", BSC2, "--horizon", "2", "--seed", "7"], None),
        (["bounds", "--model", BSC2, "--horizon", "2", "--episodes", "10", "--seed", "7"], 7),
        (["sweep", "--model", BSC2, "--horizons", "1,2", "--episodes", "10", "--format", "json"], 0),
        (["simulate", "--model", BSC2, "--horizon", "2", "--episodes", "10", "--seed", "7"], 7),
    ])
    def test_metadata_echoes_the_seed_a_monte_carlo_run_reads(self, capsys, argv, seed):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["metadata"]["seed"] == seed

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
    "divergence-bsc2.json": ["divergence", "--model", "models/bsc2.json"],
    "divergence-tri3.json": ["divergence", "--model", "models/tri3.json"],
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
    # Blank cells: paths and gamma_stderr of a one-episode run, and
    # achieved_exponent wherever gamma is 0.
    "simulate-tri3-one-episode.csv": ["simulate", "--model", "models/tri3.json", "--select",
                                      "ejs", "--horizon", "4", "--episodes", "1", "--seed", "2",
                                      "--format", "csv"],
    "sweep-bsc2-mc.csv": ["sweep", "--model", "models/bsc2.json", "--horizons", "4,8,12",
                          "--episodes", "500", "--seed", "1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(capsys, monkeypatch, name):
    monkeypatch.chdir(REPO_ROOT)
    code, out, err = run_cli(capsys, *GOLDEN[name])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / name).read_bytes().decode("utf-8")


def _golden_estimates(name):
    """[{field: value}] of a Monte Carlo golden file, one per horizon: psi,
    phi and gamma, and decision_probs where the file has them."""
    text = (GOLDEN_DIR / name).read_text()
    if name.endswith(".csv"):
        row = next(csv.DictReader(io.StringIO(text)))
        return [{"gamma": float(row["gamma"])} | {
            field: [float(row[k]) for k in row if k.startswith(field + "_")]
            for field in ("psi", "phi")}]
    doc = json.loads(text)
    return [{"gamma": r["gamma"]} for r in doc["rows"]] if "rows" in doc else [doc["report"]]


def _exact_se(report, prior, episodes):
    """{field: standard errors} an estimate from `episodes` episodes per lane
    has when the exact report's values hold (binomial, mixed over the lanes
    as monte_carlo mixes them)."""
    dm, m = report.decision_probs, len(prior)
    var = dm * (1.0 - dm) / episodes
    w = prior[:, None] / (1.0 - prior[None, :])
    np.fill_diagonal(w, 0.0)
    mis = dm[:, :m].sum(axis=1) - np.diag(dm)
    return {"decision_probs": np.sqrt(var),
            "psi": np.sqrt(np.array(report.psi) * (1.0 - np.array(report.psi)) / episodes),
            "phi": np.sqrt((w ** 2 * var[:, :m]).sum(axis=0)),
            "gamma": math.sqrt(float((prior ** 2 * mis * (1.0 - mis)).sum()) / episodes)}


@pytest.mark.parametrize("name", sorted(
    name for name, argv in GOLDEN.items()
    if "--episodes" in argv and int(argv[argv.index("--episodes") + 1]) >= 1000))
def test_monte_carlo_golden_lies_within_5_se_of_the_exact_report(name, monkeypatch):
    # The check reads no stream bits, so a biased stream cannot be pinned
    # into the goldens. The exact side is the same command's configuration
    # without --episodes; 1e-12 absorbs rounding where an se is 0.
    from ahtest import cli, load_model

    monkeypatch.chdir(REPO_ROOT)
    args = _build_parser().parse_args(GOLDEN[name])
    episodes, args.episodes = args.episodes, None
    args.command = "enumerate" if args.command == "simulate" else args.command
    _, reports, _ = cli._run(args)
    prior = load_model(args.model).prior
    estimates = _golden_estimates(name)
    assert len(estimates) == len(reports)
    for got, exact in zip(estimates, reports):
        se = _exact_se(exact, prior, episodes)
        for field in se.keys() & got.keys():
            want = exact.decision_probs if field == "decision_probs" else getattr(exact, field)
            assert np.all(np.abs(np.array(got[field]) - want) <= 5 * se[field] + 1e-12), field


class TestParserReuse:
    """main builds its parser once per process, on first use, and a usage
    error or --help leaves it as it was."""

    def test_import_builds_no_parser(self):
        built = fresh_python(
            "import json, ahtest.cli; print(json.dumps(ahtest.cli._build_parser.cache_info().currsize))")
        assert built == 0

    @pytest.mark.parametrize("name", ["enumerate-tri3.json", "sweep-bsc2.csv"])
    def test_reused_parser_gives_the_same_bytes(self, capsys, monkeypatch, name):
        from ahtest import cli

        monkeypatch.chdir(REPO_ROOT)
        argv = GOLDEN[name]
        cli._build_parser.cache_clear()
        runs = [run_cli(capsys, *argv)]                 # the first call builds the parser
        for bad, code in ((argv + ["--no-such-flag"], 2), ([argv[0], "--help"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == code
            capsys.readouterr()
            runs.append(run_cli(capsys, *argv))
        golden = (GOLDEN_DIR / name).read_bytes().decode("utf-8")
        assert runs == [(0, golden, "")] * 3
        assert cli._build_parser.cache_info().misses == 1


def _rules_and_keys(specs):
    """{rule: its keys} of spec texts such as `ecr:k=<depth>` or `fbar[:delta=V]`."""
    return {re.match(r"\s*(\w+)", spec).group(1): set(re.findall(r"(\w+)=", spec))
            for spec in specs}


def _table_rules_and_keys(rules):
    return {rule: set(keys) for rule, (keys, _) in rules.items()}


class TestSpecHelp:
    """--select and --infer help name exactly each table's rules and keys."""

    @pytest.mark.parametrize("command", ["simulate", "enumerate", "bounds", "sweep"])
    def test_help_matches_rule_tables(self, command):
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        helps = {a.dest: a.help for a in sub.choices[command]._actions}
        for dest, rules in (("select", SELECTION_RULES), ("infer", INFERENCE_RULES)):
            specs = helps[dest].split(":", 1)[1].split("|")
            assert _rules_and_keys(specs) == _table_rules_and_keys(rules)


class TestReadme:
    """README.md's CLI block runs as written, and the names it cites exist."""

    README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")

    def _cli_commands(self):
        block = self.README.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.strip()]

    def test_every_cli_command_exits_zero(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(REPO_ROOT)
        commands = self._cli_commands()
        assert len(commands) == 6
        for n, argv in enumerate(commands):
            if "--out" in argv:
                at = argv.index("--out") + 1
                argv[at] = str(tmp_path / argv[at])
            else:
                argv += ["--out", str(tmp_path / f"out-{n}")]
            code, _, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv

    def test_strategy_specs_name_each_table_rule_and_key(self):
        text = " ".join(self.README.split())
        sentence = text.split("Strategy specs:", 1)[1].split("for inference.", 1)[0]
        selection, inference = sentence.split("for selection;")
        for part, rules in ((selection, SELECTION_RULES), (inference, INFERENCE_RULES)):
            specs = re.findall(r"`([^`]+)`", part)
            assert _rules_and_keys(specs) == _table_rules_and_keys(rules)

    def test_csv_columns_name_each_table_column(self):
        from ahtest.bounds import BOUND_CSV
        from ahtest.engine import RUN_CSV

        text = " ".join(self.README.split())
        for anchor, table in (("`enumerate` has columns", RUN_CSV),
                              ("bounds CSVs have columns", BOUND_CSV)):
            columns = re.search(re.escape(anchor) + r" `([^`]+)`", text).group(1)
            assert columns.replace("…", "").split(",") == list(table)

    def test_every_cited_name_resolves(self):
        names = {m.group(0) for span in re.findall(r"`([^`\n]+)`", self.README)
                 for m in re.finditer(r"\bahtest(\.[A-Za-z_]\w*)+", span)}
        assert "ahtest.cli.main" in names
        for name in sorted(names):
            parts = name.split(".")
            obj = importlib.import_module(parts[0])
            for i, attr in enumerate(parts[1:], 2):
                if not hasattr(obj, attr) and hasattr(obj, "__path__"):
                    importlib.import_module(".".join(parts[:i]))   # a submodule not yet imported
                assert hasattr(obj, attr), f"{name} does not resolve"
                obj = getattr(obj, attr)
