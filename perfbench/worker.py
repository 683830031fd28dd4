"""One workload in a fresh process: run its operations in whole rounds.

run.py starts this file with BLAS/OpenMP threads pinned to 1 and `src/` on
PYTHONPATH, in two forms:

  worker.py --probe WORKLOAD --models DIR
      import ahtest, load the workload's models and solve their saddle
      points, then print "ready" and the machine speed it saw: run.py
      times this as setup_s.
  worker.py --workload W --seed S --seconds T --trace 0|1 --models DIR --out FILE
      run rounds of the workload's operations for T seconds (at least one)
      and write every output and timing to FILE. With --trace 1, half the
      time runs untraced and half with the tracer's wrappers installed.

Correctness checks are run.py's job; this process only calls the program, so
its peak resident memory is the workload's own.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

import spec
from speed import SpeedSampler

ROOT = Path(__file__).resolve().parents[1]


def _import_ahtest():
    import ahtest
    import ahtest.cli  # noqa: F401  (looked up as ahtest.cli.main below)

    src = (ROOT / "src").resolve()
    if src not in Path(ahtest.__file__).resolve().parents:
        sys.exit(f"ahtest imported from {ahtest.__file__}, not from {src}")
    return ahtest


def probe(workload: str, models: Path) -> None:
    with SpeedSampler() as speed:
        start = speed.mark()
        ahtest = _import_ahtest()
        for name in spec.SETUP_MODELS[workload]:
            ahtest.saddle_points(ahtest.load_model(models / f"{name}.json"))
        info = speed.interval(start)
    info["spent_s"] = speed.spent
    print("ready", json.dumps(info), flush=True)


def _cli(ahtest, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ahtest.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ahtest {' '.join(argv)} exited with code {code}")
    return buf.getvalue()


def _pair_expectations(ahtest, path: Path, horizon: int) -> dict:
    """No subcommand exposes pair expectations, so this drives the library."""
    model = ahtest.load_model(path)
    saddles = ahtest.saddle_points(model)
    delta = min(sp.d_star for sp in saddles) / 4.0
    config = ahtest.RunConfig(
        model=model,
        selection=ahtest.ChernoffSelection(saddles),
        inference=ahtest.FBarInference(saddles, delta),
        horizon=horizon,
    )
    lam, kl = ahtest.enumerate_pair_expectations(config)
    return {"lam": lam.tolist(), "kl": kl.tolist()}


def operations(ahtest, workload: str, seed: int, models: Path) -> list:
    """(name, zero-argument call) for each operation of one round."""
    bsc2 = str(models / "bsc2.json")
    tri3 = str(models / "tri3.json")
    strategies = ["--select", "chernoff", "--infer", "fbar"]
    if workload == "mc-chernoff-bsc2":
        argv = ["sweep", "--model", bsc2, *strategies,
                "--horizons", ",".join(str(n) for n in spec.SWEEP_HORIZONS),
                "--episodes", str(spec.SWEEP_EPISODES),
                "--seed", str(spec.ahtest_seed(seed)), "--format", "json"]
        return [("sweep-bsc2", lambda: _cli(ahtest, argv))]
    if workload == "mc-ejs-tri3":
        argv = ["simulate", "--model", tri3, "--select", "ejs", "--infer", "fbar",
                "--horizon", str(spec.EJS_HORIZON), "--episodes", str(spec.EJS_EPISODES),
                "--seed", str(spec.ahtest_seed(seed))]
        return [("simulate-tri3", lambda: _cli(ahtest, argv))]
    if workload == "exact-tree":
        tri3_argv = ["enumerate", "--model", tri3, *strategies, "--horizon", str(spec.EXACT_TRI3_N)]
        bsc2_argv = ["enumerate", "--model", bsc2, *strategies, "--horizon", str(spec.EXACT_BSC2_N)]
        return [
            ("enumerate-tri3", lambda: _cli(ahtest, tri3_argv)),
            ("enumerate-bsc2", lambda: _cli(ahtest, bsc2_argv)),
            ("pairs-tri3", lambda: _pair_expectations(ahtest, Path(tri3), spec.PAIRS_TRI3_N)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run_rounds(ops: list, seconds: float, speed: SpeedSampler) -> list[dict]:
    """As many whole rounds as fit in `seconds` at the pace so far; at least
    one. Each operation's time is recorded as measured and at the reference
    speed (speed.py)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        gc.collect()
        times, outputs = {}, {}
        for name, call in ops:
            mark = speed.mark()
            try:
                outputs[name] = call()
            except Exception as exc:  # the checks report it as a failed operation
                outputs[name] = {"error": f"{type(exc).__name__}: {exc}"}
            times[name] = speed.interval(mark)
        rounds.append({"times": times, "outputs": outputs})
    return rounds


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", default=None)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--models", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.probe:
        probe(args.probe, args.models)
        return

    ahtest = _import_ahtest()
    ops = operations(ahtest, args.workload, args.seed, args.models)
    result = {}
    with SpeedSampler() as speed:
        if args.trace:
            from tracing import Tracer

            result["rounds"] = run_rounds(ops, args.seconds / 2.0, speed)
            tracer = Tracer()
            tracer.install()
            result["traced_rounds"] = run_rounds(ops, args.seconds / 2.0, speed)
            result["trace"] = {
                "records": tracer.records(),
                "missing": tracer.missing,
                "unit_errors": tracer.unit_errors,
                "gone_spans": tracer.gone_spans(),
            }
        else:
            result["rounds"] = run_rounds(ops, args.seconds, speed)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
