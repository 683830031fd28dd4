"""Batch command-line front end.

Subcommands: validate, divergence, simulate, enumerate, bounds, sweep.
All four strategy runs share one run path: Monte Carlo with --episodes,
exact enumeration (count lattices up to 10^7 states) without. `bounds` is a
one-horizon `sweep` plus its run report. The strategy spec language lives
here, in one rule table per kind: a key the rule does not take, or one given
twice, is rejected. A subcommand takes only the flags it reads, so any other
is a usage error: --seed only where Monte Carlo can run (simulate, bounds,
sweep), --delta and --format only on the four runs, --epsilon-rule on
validate and the runs. Every run echoes its effective defaults (epsilon rule,
delta, solver tolerance, seed: null without --episodes) in the output
metadata, and identical configurations produce byte-identical output files.
Reports are written from their dataclasses' own fields: engine.report_json
gives the JSON of RunReport and bounds.BoundReport, and engine.csv_text their
CSV through the column tables engine.RUN_CSV and bounds.BOUND_CSV.

Exit codes: 0 success, 2 usage error, 3 model load/validation error,
4 infeasible configuration (budgets, bad strategy specs), 5 saddle solver
failure, 1 output file not writable or unexpected error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence

from . import bounds as bounds_mod
from .divergence import SADDLE_TOL, SaddleSolverError, saddle_points
from .engine import (RUN_CSV, EnumerationBudgetError, RunConfig, csv_text, enumerate_exact,
                     monte_carlo)
from .model import EpsilonSchedule, ModelError, load_model
from .strategies import (ChernoffSelection, ECRLookaheadSelection, EJSGreedySelection,
                         FBarInference, MAPInference, OpenLoopSelection, P2Inference,
                         UniformSelection)

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


def _hypothesis(token: str, model) -> int:
    """A hypothesis reference: exact label first, else 1-based position."""
    if token in model.hypotheses:
        return model.hypotheses.index(token)
    try:
        pos = int(token)
    except ValueError:
        raise ConfigError(f"{token!r} is neither a hypothesis label nor a 1-based index") from None
    if not 1 <= pos <= model.num_hypotheses:
        raise ConfigError(f"hypothesis index {pos} out of range 1..{model.num_hypotheses}")
    return pos - 1


# The spec language, one table per rule kind: rule -> (its keys, its constructor).
# A key maps to what its value names (None where the rule has a default) and its
# value's type. The constructors take the typed values and the rest of the call
# parse_selection(spec, model, saddles) or parse_inference(..., schedule, delta) gets.
SELECTION_RULES = {
    "chernoff": ({}, lambda p, m, saddles: ChernoffSelection(saddles)),
    "openloop": ({"i": ("hypothesis", str)},
                 lambda p, m, saddles: OpenLoopSelection(_hypothesis(p["i"], m), saddles)),
    "uniform": ({}, lambda *_: UniformSelection()),
    "ejs": ({}, lambda *_: EJSGreedySelection()),
    "ecr": ({"k": ("depth", int)}, lambda p, *_: ECRLookaheadSelection(p["k"])),
}
INFERENCE_RULES = {
    "fbar": ({"delta": (None, float)},
             lambda p, m, saddles, eps, delta: FBarInference(saddles, float(p.get("delta", delta)))),
    "p2": ({"i": ("hypothesis", str)},
           lambda p, m, saddles, eps, _: P2Inference(i := _hypothesis(p["i"], m), saddles[i], eps)),
    "map": ({}, lambda *_: MAPInference()),
}
_TYPE_NOUNS = {int: "an integer", float: "a number"}


def _parse(kind: str, rules: dict, spec: str, *context):
    """The rule `rule[:key=value,...]` names in its kind's table, built from
    context. Errors name an unknown rule before its parameters."""
    rule, _, rest = spec.partition(":")
    rule = rule.strip()
    if rule not in rules:
        raise ConfigError(f"unknown {kind} strategy spec {spec!r}")
    keys, build = rules[rule]
    params: dict = {}
    for part in rest.split(",") if rest else ():
        key, eq, value = (s.strip() for s in part.partition("="))
        if not eq:
            raise ConfigError(f"malformed parameter {part!r} in spec {spec!r}")
        if key not in keys:
            raise ConfigError(f"{rule} takes no parameter {key!r} (spec {spec!r})")
        if key in params:   # the run's metadata echoes the spec as typed
            raise ConfigError(f"repeated parameter {key!r} in spec {spec!r}")
        convert = keys[key][1]
        try:
            params[key] = convert(value)
        except ValueError:
            raise ConfigError(f"{rule}: {key} must be {_TYPE_NOUNS[convert]}, "
                              f"got {value!r} (spec {spec!r})") from None
    for key, (noun, _) in keys.items():
        if noun and key not in params:
            raise ConfigError(f"{rule} needs a {noun}, e.g. {rule}:{key}=2")
    return build(params, *context)


parse_selection = functools.partial(_parse, "selection", SELECTION_RULES)
parse_inference = functools.partial(_parse, "inference", INFERENCE_RULES)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ahtest",
        description="Fixed-horizon active hypothesis testing with an inconclusive option",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, epsilon=False, run=False, horizon=False, horizons=False,
                   episodes=False):
        p.add_argument("--model", required=True, help="path to the JSON model file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if epsilon or run:
            p.add_argument("--epsilon-rule", default="half-inverse",
                           help="epsilon schedule: half-inverse or fixed:V")
        if run:
            p.add_argument("--format", choices=("json", "csv"), default=None,
                           help="output format (default json; sweep defaults to csv)")
            p.add_argument("--delta", type=float, default=None,
                           help="threshold slack delta (default min_i D*(i) / 4)")
            p.add_argument("--select", default="chernoff",
                           help="selection spec: chernoff | openloop:i=H | uniform | ejs | ecr:k=K")
            p.add_argument("--infer", default="fbar",
                           help="inference spec: fbar[:delta=V] | p2:i=H | map")
        if horizon:
            p.add_argument("--horizon", type=int, required=True, help="number of steps N")
        if horizons:
            p.add_argument("--horizons", required=True,
                           help="comma-separated horizon list, e.g. 2,4,6")
        if episodes:
            p.add_argument("--episodes", type=int, default=None,
                           help="Monte Carlo episode count per conditioning hypothesis")
            p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")

    add_common(sub.add_parser("validate", help="check model invariants"), epsilon=True)
    add_common(sub.add_parser("divergence", help="per-hypothesis saddle points"))
    p = sub.add_parser("simulate", help="Monte Carlo run report")
    add_common(p, run=True, horizon=True, episodes=True)
    p = sub.add_parser("enumerate", help="exact run report by count-lattice enumeration")
    add_common(p, run=True, horizon=True)
    p = sub.add_parser("bounds", help="bound report for one horizon")
    add_common(p, run=True, horizon=True, episodes=True)
    p = sub.add_parser("sweep", help="exponent table over a horizon list")
    add_common(p, run=True, horizons=True, episodes=True)
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
        "seed": args.seed if getattr(args, "episodes", None) is not None else None,
        "epsilon_rule": schedule.spec_string() if schedule else None,
        "delta": delta,
        "saddle_tol": SADDLE_TOL,
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


def _cmd_validate(args) -> int:
    model = load_model(args.model)
    schedule = EpsilonSchedule.parse(args.epsilon_rule)
    M = model.num_hypotheses
    min_kl = min(float(model.kl[i, j].min()) for i in range(M) for j in range(M) if i != j)
    doc = {
        "valid": True,
        "hypotheses": list(model.hypotheses),
        "experiments": list(model.experiments),
        "observations": list(model.observations),
        "prior": [float(x) for x in model.prior],
        "lambda_bound": model.lambda_bound,
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
    saddles = saddle_points(model)
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
    rule, delta, --select (its rule, its parameters, the rule's constructor),
    --infer (likewise), --episodes, horizon list, run configuration.
    """
    model = load_model(args.model)
    saddles = saddle_points(model)
    schedule = EpsilonSchedule.parse(args.epsilon_rule)
    delta = _resolve_delta(args, saddles, bound_rows)
    selection = parse_selection(args.select, model, saddles)
    inference = parse_inference(args.infer, model, saddles, schedule, delta)
    episodes = getattr(args, "episodes", None)
    if args.command == "simulate" and episodes is None:
        raise ConfigError("this subcommand requires --episodes")
    # an inline fbar:delta=... overrides the --delta / default value
    delta = getattr(inference, "delta", delta)
    horizons = _horizon_list(args.horizons) if args.command == "sweep" else [args.horizon]
    run = enumerate_exact if episodes is None else monte_carlo
    reports = [
        run(RunConfig(model=model, selection=selection, inference=inference,
                      horizon=n, episodes=episodes, seed=getattr(args, "seed", 0)))
        for n in horizons
    ]
    metadata = {
        **_metadata(args, saddles=saddles, delta=delta, schedule=schedule),
        "select": args.select,
        "infer": args.infer,
    }
    rows = bounds_mod.exponent_table(
        model, saddles, reports, schedule, delta) if bound_rows else None
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
    text = csv_text(RUN_CSV, [report.to_json_dict()]) if args.format == "csv" else _json_text(
        {"metadata": metadata, "report": report.to_json_dict()})
    _emit(text, args.out)
    return EXIT_OK


def _cmd_table(args) -> int:
    """sweep, and bounds as its one-horizon case: the bound rows (csv by
    default for sweep); bounds' json also carries the run report."""
    metadata, reports, rows = _run(args, bound_rows=True)
    if (args.format or ("json" if args.command == "bounds" else "csv")) == "csv":
        text = csv_text(bounds_mod.BOUND_CSV, [r.to_json_dict() for r in rows])
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
    except (ModelError, FileNotFoundError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except SaddleSolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, EnumerationBudgetError) as exc:   # ConfigError included
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
