"""Batch command-line front end.

Subcommands: validate, divergence, simulate, enumerate, bounds, sweep.
All four strategy runs share one run path: Monte Carlo with --episodes,
exact enumeration (trees up to 10^7 nodes) without. `bounds` is a
one-horizon `sweep` plus its run report. A strategy spec parameter the rule
does not take, or one given twice, is rejected, and the model's label fields
must be JSON arrays. Every run echoes its effective defaults (epsilon rule,
delta, solver tolerance, seed) in the output metadata, and identical
configurations produce byte-identical output files.

Exit codes: 0 success, 2 usage error, 3 model load/validation error,
4 infeasible configuration (budgets, bad strategy specs), 5 saddle solver
failure, 1 output file not writable or unexpected error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import Optional, Sequence

from . import bounds as bounds_mod
from .divergence import DEFAULT_TOL, SaddleSolverError, saddle_points
from .engine import EnumerationBudgetError, RunConfig, RunReport, enumerate_exact, monte_carlo
from .model import EpsilonSchedule, ModelError, lambda_bound, load_model
from .strategies import parse_inference, parse_selection

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_CONFIG = 4
EXIT_SOLVER = 5
EXIT_OUTPUT = 1
EXIT_UNEXPECTED = 1


class ConfigError(ValueError):
    """Mutually inconsistent or unusable run configuration."""


class OutputError(Exception):
    """The --out file could not be written."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahtest",
        description="Fixed-horizon active hypothesis testing with an inconclusive option",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, horizon=False, horizons=False, episodes=False, strategies=False,
                   formats=False):
        p.add_argument("--model", required=True, help="path to the JSON model file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if formats:
            p.add_argument("--format", choices=("json", "csv"), default=None,
                           help="output format (default json; sweep defaults to csv)")
        p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
        p.add_argument("--epsilon-rule", default="half-inverse",
                       help="epsilon schedule: half-inverse or fixed:V")
        p.add_argument("--delta", type=float, default=None,
                       help="threshold slack delta (default min_i D*(i) / 4)")
        if horizon:
            p.add_argument("--horizon", type=int, required=True, help="number of steps N")
        if horizons:
            p.add_argument("--horizons", required=True,
                           help="comma-separated horizon list, e.g. 2,4,6")
        if episodes:
            p.add_argument("--episodes", type=int, default=None,
                           help="Monte Carlo episode count per conditioning hypothesis")
        if strategies:
            p.add_argument("--select", default="chernoff",
                           help="selection spec: chernoff | openloop:i=H | uniform | ejs | ecr:k=K")
            p.add_argument("--infer", default="fbar",
                           help="inference spec: fbar[:delta=V] | p2:i=H | map")

    add_common(sub.add_parser("validate", help="check model invariants"))
    add_common(sub.add_parser("divergence", help="per-hypothesis saddle points"))
    p = sub.add_parser("simulate", help="Monte Carlo run report")
    add_common(p, horizon=True, episodes=True, strategies=True, formats=True)
    p = sub.add_parser("enumerate", help="exact run report by tree enumeration")
    add_common(p, horizon=True, strategies=True, formats=True)
    p = sub.add_parser("bounds", help="bound report for one horizon")
    add_common(p, horizon=True, episodes=True, strategies=True, formats=True)
    p = sub.add_parser("sweep", help="exponent table over a horizon list")
    add_common(p, horizons=True, episodes=True, strategies=True, formats=True)
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(exc) from exc


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _metadata(args, saddles=None, delta=None, schedule=None) -> dict:
    md = {
        "model": args.model,
        "seed": getattr(args, "seed", 0),
        "epsilon_rule": schedule.spec_string() if schedule else None,
        "delta": delta,
        "saddle_tol": DEFAULT_TOL,
    }
    if saddles is not None:
        md["d_star"] = [sp.d_star for sp in saddles]
    return md


def _resolve_delta(args, saddles, bound_rows: bool) -> float:
    d_star_min = min(sp.d_star for sp in saddles)
    if args.delta is not None:
        # A nan or infinite delta would be echoed into the JSON output, which
        # has no spelling for it, whichever rule reads it.
        if not (math.isfinite(args.delta) and args.delta > 0.0):
            raise ConfigError(f"--delta must be finite and > 0, got {args.delta!r}")
        # The upper bound takes delta up to min_i D*(i) only; checked here so
        # that no episode runs first.
        if bound_rows and args.delta > d_star_min:
            raise ConfigError(
                f"--delta must be <= min_i D*(i) = {d_star_min!r} for the bounds, "
                f"got {args.delta!r}")
        return args.delta
    return d_star_min / 4.0


def _report_csv(report: RunReport) -> str:
    cells = [
        ("mode", report.mode),
        ("N", report.horizon),
        ("seed", "" if report.seed is None else report.seed),
        ("episodes", "" if report.episodes is None else report.episodes),
        ("paths", "" if report.paths is None else report.paths),
        ("gamma", bounds_mod.csv_num(report.gamma)),
        ("gamma_stderr", bounds_mod.csv_num(report.gamma_se)),
    ]
    for name, values in (("psi", report.psi), ("phi", report.phi), ("jng", report.jng)):
        for label, v in zip(report.hypotheses, values):
            cells.append((f"{name}_{label}", bounds_mod.csv_num(v)))
    header = ",".join(k for k, _ in cells)
    row = ",".join(str(v) for _, v in cells)
    return header + "\n" + row + "\n"


def _cmd_validate(args) -> int:
    model = load_model(args.model)
    schedule = EpsilonSchedule.parse(args.epsilon_rule)
    b = lambda_bound(model)
    from .divergence import kl_matrix

    min_kl = min(
        float(kl_matrix(model, i).values.min()) for i in range(model.num_hypotheses)
    )
    doc = {
        "valid": True,
        "hypotheses": list(model.hypotheses),
        "experiments": list(model.experiments),
        "observations": list(model.observations),
        "prior": [float(x) for x in model.prior],
        "lambda_bound": b,
        "min_pairwise_kl": min_kl,
        "checks": {
            "full_support": True,
            "rows_normalized": True,
            "pairwise_kl_positive": True,
            "prior_positive_normalized": True,
        },
        "metadata": _metadata(args, schedule=schedule),
    }
    _emit(_json_text(doc), args.out)
    return EXIT_OK


def _cmd_divergence(args) -> int:
    model = load_model(args.model)
    saddles = saddle_points(model, tol=DEFAULT_TOL)
    doc = {
        "metadata": _metadata(args, saddles=saddles),
        "saddles": [
            {
                "hypothesis": model.hypotheses[sp.hypothesis],
                "d_star": sp.d_star,
                "gap": sp.gap,
                "alpha_star": {
                    model.experiments[u]: float(p) for u, p in enumerate(sp.alpha_star)
                },
                "beta_star": {
                    model.hypotheses[j]: float(p)
                    for j, p in zip(sp.rivals, sp.beta_star)
                },
            }
            for sp in saddles
        ],
    }
    _emit(_json_text(doc), args.out)
    return EXIT_OK


def _run(args, *, bound_rows: bool = False):
    """(metadata, one RunReport per horizon, their bound rows or None).

    Runs Monte Carlo when --episodes is given and exact enumeration
    otherwise. Failures surface in this order: model load, saddles, epsilon
    rule, delta, strategy specs, --episodes, horizon list, run configuration.
    """
    model = load_model(args.model)
    saddles = saddle_points(model, tol=DEFAULT_TOL)
    schedule = EpsilonSchedule.parse(args.epsilon_rule)
    delta = _resolve_delta(args, saddles, bound_rows)
    b = lambda_bound(model)
    try:
        selection = parse_selection(args.select, model, saddles)
        inference = parse_inference(args.infer, model, saddles, b, schedule, delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    episodes = getattr(args, "episodes", None)
    if args.command == "simulate" and episodes is None:
        raise ConfigError("this subcommand requires --episodes")
    # an inline fbar:delta=... overrides the --delta / default value
    delta = getattr(inference, "delta", delta)
    horizons = _horizon_list(args.horizons) if args.command == "sweep" else [args.horizon]
    run = enumerate_exact if episodes is None else monte_carlo
    reports = [
        run(RunConfig(model=model, selection=selection, inference=inference,
                      horizon=n, episodes=episodes, seed=args.seed))
        for n in horizons
    ]
    metadata = {
        **_metadata(args, saddles=saddles, delta=delta, schedule=schedule),
        "select": args.select,
        "infer": args.infer,
    }
    rows = bounds_mod.exponent_table(
        model, saddles, b, reports, [schedule.epsilon(n) for n in horizons], delta
    ) if bound_rows else None
    return metadata, reports, rows


def _horizon_list(text: str) -> list[int]:
    try:
        horizons = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad horizon list {text!r}") from exc
    if not horizons:
        raise ConfigError("horizon list is empty")
    return horizons


def _cmd_report(args) -> int:
    """simulate and enumerate: one run report."""
    metadata, (report,), _ = _run(args)
    text = _report_csv(report) if args.format == "csv" else _json_text(
        {"metadata": metadata, "report": report.to_json_dict()})
    _emit(text, args.out)
    return EXIT_OK


def _cmd_table(args) -> int:
    """sweep, and bounds as its one-horizon case: the bound rows (csv by
    default for sweep); bounds' json also carries the run report."""
    metadata, reports, rows = _run(args, bound_rows=True)
    if (args.format or ("json" if args.command == "bounds" else "csv")) == "csv":
        buf = io.StringIO()
        bounds_mod.write_exponent_csv(rows, buf)
        text = buf.getvalue()
    elif args.command == "bounds":
        text = _json_text({"metadata": metadata, "bounds": rows[0].to_json_dict(),
                           "report": reports[0].to_json_dict()})
    else:
        text = _json_text({"metadata": metadata, "rows": [r.to_json_dict() for r in rows]})
    _emit(text, args.out)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "divergence": _cmd_divergence,
    "simulate": _cmd_report,
    "enumerate": _cmd_report,
    "bounds": _cmd_table,
    "sweep": _cmd_table,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except FileNotFoundError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except SaddleSolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, EnumerationBudgetError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
