"""What the benchmark runs: its workloads, their inputs and its metrics.

`SPEC` is the content of BENCHMARK.json at the repository root;
`python3 perfbench/run.py --write-spec` writes it from here. The model
dictionaries are the benchmark's inputs; run.py writes them to model files
for the program and the references read the same numbers.
"""

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 15,
    "workloads": [
        {"name": "mc-chernoff-bsc2",
         "why": "Monte Carlo sweep on bsc2, chernoff/fbar, N=25..200: random streams, sampling "
                "and belief updates dominate; shows Monte Carlo kernel work, control for strategies"},
        {"name": "mc-ejs-tri3",
         "why": "Monte Carlo on tri3 with ejs/fbar at N=12: the row-by-row batch selection is 98% "
                "of the time; shows native batch selection, control for RNG and step-loop work"},
        {"name": "exact-tree",
         "why": "exact enumeration of tri3 N=8 and bsc2 N=15 plus pair expectations: tree walker "
                "and scalar strategy calls, no random streams; shows a count lattice"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "episode_steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "model.load_ms", "unit": "ms", "better": "lower"},
        {"name": "divergence.saddle_ms", "unit": "ms", "better": "lower"},
        {"name": "engine.rng_us_per_episode", "unit": "us", "better": "lower"},
        {"name": "engine.sample_us_per_step", "unit": "us", "better": "lower"},
        {"name": "belief.update_us_per_step", "unit": "us", "better": "lower"},
        {"name": "engine.chunk_self_us_per_episode", "unit": "us", "better": "lower"},
        {"name": "strategies.select_us_per_step", "unit": "us", "better": "lower"},
        {"name": "strategies.decide_us_per_episode", "unit": "us", "better": "lower"},
        {"name": "strategies.decide_us_per_leaf", "unit": "us", "better": "lower"},
        {"name": "strategies.select_us_per_node", "unit": "us", "better": "lower"},
        {"name": "belief.update_us_per_node", "unit": "us", "better": "lower"},
        {"name": "belief.confidence_us_per_leaf", "unit": "us", "better": "lower"},
        {"name": "engine.walk_self_us_per_node", "unit": "us", "better": "lower"},
        {"name": "bounds.report_ms", "unit": "ms", "better": "lower"},
        {"name": "cli.emit_ms", "unit": "ms", "better": "lower"},
        {"name": "engine.episodes", "unit": "count", "better": "lower"},
        {"name": "engine.episode_steps", "unit": "count", "better": "lower"},
        {"name": "engine.enum_leaves", "unit": "count", "better": "lower"},
        {"name": "engine.enum_nodes", "unit": "count", "better": "lower"},
        {"name": "strategies.select_calls", "unit": "count", "better": "lower"},
        {"name": "strategies.decide_calls", "unit": "count", "better": "lower"},
        {"name": "belief.update_calls", "unit": "count", "better": "lower"},
        {"name": "trace.overhead_pct", "unit": "%", "better": "lower"},
    ],
}

MODELS = {
    "bsc2": {
        "hypotheses": ["H1", "H2"],
        "experiments": ["u0"],
        "observations": ["0", "1"],
        "prior": [0.5, 0.5],
        "channel": [[[0.9, 0.1]], [[0.1, 0.9]]],
    },
    "tri3": {
        "hypotheses": ["H1", "H2", "H3"],
        "experiments": ["u1", "u2"],
        "observations": ["0", "1"],
        "prior": [1 / 3, 1 / 3, 1 / 3],
        "channel": [
            [[0.8, 0.2], [0.8, 0.2]],
            [[0.2, 0.8], [0.7, 0.3]],
            [[0.7, 0.3], [0.2, 0.8]],
        ],
    },
}

# mc-chernoff-bsc2: the engine's chunk is 32768 episodes, so this count gives
# every lane one full chunk and one partial chunk.
SWEEP_HORIZONS = (25, 50, 100, 200)
SWEEP_EPISODES = 33000

EJS_HORIZON = 12
EJS_EPISODES = 400

# exact-tree: (model, horizon) of the two enumerate runs and of the pair
# expectations run.
EXACT_TRI3_N = 8
EXACT_BSC2_N = 15
PAIRS_TRI3_N = 8

# Workload -> models whose set-up (load_model, saddle_points) it pays.
SETUP_MODELS = {
    "mc-chernoff-bsc2": ("bsc2",),
    "mc-ejs-tri3": ("tri3",),
    "exact-tree": ("tri3", "bsc2"),
}


def ahtest_seed(seed: int) -> int:
    """The program's base seed. Its key field is 48 bits wide."""
    return seed % (1 << 48)


def episode_steps(workload: str) -> int:
    """Episode-steps one round covers. Monte Carlo: episodes x horizon over
    every lane and horizon. exact-tree: the root-to-leaf paths its exact
    answers cover x their length, every (experiment, observation) branch
    having positive probability under chernoff on these models."""
    if workload == "mc-chernoff-bsc2":
        return 2 * SWEEP_EPISODES * sum(SWEEP_HORIZONS)
    if workload == "mc-ejs-tri3":
        return 3 * EJS_EPISODES * EJS_HORIZON
    if workload == "exact-tree":
        return (4**EXACT_TRI3_N * EXACT_TRI3_N + 2**EXACT_BSC2_N * EXACT_BSC2_N
                + 4**PAIRS_TRI3_N * PAIRS_TRI3_N)
    raise ValueError(f"unknown workload {workload!r}")
