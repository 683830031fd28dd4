"""Shared fixtures: the two reference models and random-instance helpers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ahtest import Model, divergence, load_model
from ahtest.belief import log_normalize
from ahtest.engine import lane_key, sample_categorical
from ahtest.strategies import SelectionStrategy

REPO_ROOT = Path(__file__).resolve().parents[1]
MODELS_DIR = REPO_ROOT / "models"


def fresh_python(script: str, *args):
    """Run `script` with JSON-encoded `args` in a new interpreter (this one
    has scipy loaded and a parser built) and return the JSON document it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(args)], capture_output=True,
                          text=True, env=env, cwd=REPO_ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile(
    "ahtest", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("ahtest")


@pytest.fixture(scope="session")
def bsc2() -> Model:
    """Two hypotheses, one experiment: symmetric binary channel, crossover 0.1."""
    return load_model(MODELS_DIR / "bsc2.json")


@pytest.fixture(scope="session")
def tri3() -> Model:
    """Three hypotheses, two experiments; each experiment pins down one rival."""
    return load_model(MODELS_DIR / "tri3.json")


def random_model(rng: np.random.Generator, m: int, u: int, y: int) -> Model:
    """Random full-support model; Dirichlet rows are distinct almost surely."""
    channel = rng.dirichlet(np.ones(y), size=(m, u)) * 0.9 + 0.1 / y
    channel /= channel.sum(axis=2, keepdims=True)
    prior = rng.dirichlet(np.ones(m)) * 0.9 + 0.1 / m
    prior /= prior.sum()
    return Model(
        hypotheses=tuple(f"h{k}" for k in range(m)),
        experiments=tuple(f"u{k}" for k in range(u)),
        observations=tuple(f"y{k}" for k in range(y)),
        channel=channel,
        prior=prior,
    )


def relabel(model: Model, hyp_perm, exp_perm) -> Model:
    """Model whose hypothesis k is model's hyp_perm[k] and experiment k is exp_perm[k]."""
    return Model(
        hypotheses=tuple(model.hypotheses[h] for h in hyp_perm),
        experiments=tuple(model.experiments[u] for u in exp_perm),
        observations=model.observations,
        channel=model.channel[np.ix_(hyp_perm, exp_perm)],
        prior=model.prior[hyp_perm],
    )


def corrupt_mixtures(monkeypatch, field, value):
    """Make every simplex solve report `value` in `field` before the mixtures
    are cleaned: "alpha" or "beta" fills that mixture, "alpha0" only alpha's
    first entry. ahtest looks `_support_mixtures` up on its module at every solve."""
    real = divergence._support_mixtures

    def corrupted(*args):
        alpha, beta = real(*args)
        if field == "alpha0":
            alpha[0] = value
        else:
            (alpha if field == "alpha" else beta)[:] = value
        return alpha, beta

    monkeypatch.setattr(divergence, "_support_mixtures", corrupted)


def random_trajectory(rng: np.random.Generator, model: Model, n: int):
    from ahtest import Trajectory

    steps = tuple(
        (int(rng.integers(model.num_experiments)), int(rng.integers(model.num_observations)))
        for _ in range(n)
    )
    return Trajectory(steps)


class SoftmaxSelection(SelectionStrategy):
    """Random but deterministic belief-to-mixture map for property tests."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights = np.asarray(weights, dtype=float)   # (U, M)
        self.bias = np.asarray(bias, dtype=float)         # (U,)

    def batch_action_distributions(self, model, log_rho, step, horizon):
        # Row by row, not a matrix product: BLAS may round a row differently
        # depending on the batch it comes in, and rows must not interact.
        # It reads probabilities, so it normalizes its rows itself.
        z = (np.exp(log_normalize(log_rho))[:, None, :] * self.weights).sum(axis=-1) + self.bias
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)


def random_selection(rng: np.random.Generator, model: Model) -> SoftmaxSelection:
    return SoftmaxSelection(
        rng.normal(size=(model.num_experiments, model.num_hypotheses)),
        rng.normal(size=model.num_experiments),
    )


def stream_blocks(horizon: int) -> int:
    """Philox blocks of four words an episode reads from each of its
    streams: ceil(N / 4)."""
    return -(-horizon // 4)


def episode_uniforms(seed: int, lane: int, episode: int, horizon: int):
    """(experiment values, observation values), N each, of one Monte Carlo
    episode under stream v3: the observation values from a fresh Philox
    generator keyed lane_key(seed, lane), the experiment values from one
    keyed (1 << 64) | lane_key(seed, lane), both from counter
    episode * stream_blocks(N). This is the one statement of the stream law
    the tests hold the engine to."""
    key, counter = lane_key(seed, lane), episode * stream_blocks(horizon)
    return tuple(np.random.Generator(np.random.Philox(key=k, counter=counter)).random(horizon)
                 for k in ((1 << 64) | key, key))


def normalized_replay(config, true_h: int, episode: int):
    """(steps, decision, final log-belief) of one Monte Carlo episode, replayed
    apart from the engine's chunk code: the uniforms of episode_uniforms, one
    belief normalized at every step, the rules called one belief at a time."""
    model, horizon = config.model, config.horizon
    act, obs = episode_uniforms(config.seed, true_h, episode, horizon)
    log_prior = np.log(model.prior)
    log_rho = log_prior
    steps = []
    for n in range(horizon):
        dist = config.selection.action_distribution(model, log_rho, n, horizon)
        u = int(sample_categorical(dist, act[n]))
        y = int(sample_categorical(model.channel[true_h, u], obs[n]))
        steps.append((u, y))
        log_rho = log_normalize(log_rho + model.log_channel[:, u, y])
    return tuple(steps), config.inference.decide(model, log_prior, log_rho, horizon), log_rho
