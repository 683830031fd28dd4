"""Benchmark entry point: one workload, timed, traced on request, and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec      # (re)write BENCHMARK.json

Run from any directory; paths are resolved from this file. The run:

1. writes the benchmark's input models to perfbench/out/models/;
2. times SETUP_PROBES fresh processes from start to ready (ahtest import,
   load_model, saddle_points) and reports their median as setup_s;
3. runs the workload's operations in a fresh single-threaded worker process
   (worker.py) for S seconds of whole rounds; with --trace 1 the worker
   also runs traced rounds for the per-layer metrics. Times are reported
   at a reference machine speed (speed.py); raw times go to the result file;
4. checks every output of every round against the references (checks.py),
   after the worker has exited, so the checks cost the timings nothing;
5. writes the raw outputs to perfbench/out/raw-*.json and the result, with
   the git SHA, CPU count and library versions, to perfbench/out/result-*.json,
   then prints the result as the last line of standard output.

Exit code 2 means the program or an input is missing; 1 means a process
failed. Neither prints a result.
"""

from __future__ import annotations

import os

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)   # before numpy loads, here and in every child

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150


def _die(code: int, msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _setup_seconds(workload: str, models: Path, env: dict) -> list[dict]:
    """Start-to-ready time of SETUP_PROBES fresh processes, as measured and
    at the reference speed the probe saw (speed.py)."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--probe", workload, "--models", str(models)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            _die(1, "set-up probe timed out")
        word, _, info = line.partition(" ")
        if proc.returncode != 0 or word != "ready":
            _die(1, f"set-up probe failed with exit code {proc.returncode}")
        # The probe samples its speed from just after interpreter start-up;
        # the whole start-to-ready time is scaled by what it saw.
        info = json.loads(info)
        wall -= info["spent_s"]
        samples.append({"wall_s": wall, "kernel_s": info["kernel_s"],
                        "ref_s": wall * info["ref_s"] / info["wall_s"]})
    return samples


def _metadata() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _round_time(rnd: dict, key: str = "ref_s") -> float:
    return sum(t[key] for t in rnd["times"].values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args()
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.SPEC, indent=2) + "\n")
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "ahtest" / "__init__.py").is_file():
        _die(2, f"no program source at {ROOT / 'src' / 'ahtest'}")

    sys.path.insert(0, str(ROOT / "src"))
    models = OUT / "models"
    models.mkdir(parents=True, exist_ok=True)
    for name, doc in spec.MODELS.items():
        (models / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")

    env = _child_env()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    setup = _setup_seconds(args.workload, models, env)

    raw_path = OUT / f"raw-{tag}.json"
    try:
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--models", str(models), "--out", str(raw_path)],
            env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        _die(1, f"worker exceeded {WORKER_TIMEOUT_S} s")
    if worker.returncode != 0:
        _die(1, f"worker failed with exit code {worker.returncode}")
    raw = json.loads(raw_path.read_text())

    import ahtest
    import checks

    checker = checks.CHECKS[args.workload]()
    problems = checker.selftest(ahtest)
    all_rounds = raw["rounds"] + raw.get("traced_rounds", [])
    c = checks.Checker()
    for rnd in all_rounds:
        checker.round(rnd["outputs"], c)
    failed = [op for op in c.ops if not op.ok]
    unexpected = [op for op in failed if op.fault is None]
    correct = not problems and not unexpected

    wall = statistics.median(_round_time(r) for r in raw["rounds"])
    if args.trace:
        import tracing

        tr = raw["trace"]
        traced_wall = statistics.median(_round_time(r) for r in raw["traced_rounds"])
        values = tracing.layer_metrics(tr["records"], len(raw["traced_rounds"]), tr["gone_spans"])
        values["trace.overhead_pct"] = (traced_wall / wall - 1.0) * 100.0
        for target in tr["missing"]:
            print(f"perfbench: traced name {target} no longer exists; "
                  f"its metrics are reported as absent", file=sys.stderr)
        for span, err in tr["unit_errors"].items():
            print(f"perfbench: work count of {span} failed ({err}); "
                  f"its metrics are reported as absent", file=sys.stderr)
        defs = spec.SPEC["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(p["ref_s"] for p in setup),
            "wall_s": wall,
            "episode_steps_per_s": spec.episode_steps(args.workload) / wall,
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        }
        defs = spec.SPEC["end_to_end"]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs}

    result = {"correct": correct, "attempted": len(c.ops), "failed": len(failed),
              "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": _metadata(), "setup_probes": setup,
        "rounds": [r["times"] for r in raw["rounds"]],
        "traced_rounds": [r["times"] for r in raw.get("traced_rounds", [])],
        "selftest_problems": problems,
        "failed_ops": [vars(op) for op in failed],
        "ops_per_round": len(c.ops) // len(all_rounds),
    }, indent=2) + "\n")

    for msg in problems:
        print(f"SELF-TEST {msg}")
    seen = set()
    for op in failed:
        if op.name not in seen:
            seen.add(op.name)
            why = f" [known fault {op.fault}]" if op.fault else ""
            print(f"FAILED {op.name}: {op.detail}{why}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
