"""Bit-identity guards for the Monte Carlo kernel and the batch EJS rule.

The engine's random streams, its short-axis primitives, the EJS selection
scores and the reports built on them are pinned bit for bit: to the
per-episode reference generator, to frozen copies of the plain formulas, and
to float.hex values of a few small monte_carlo runs. A faster kernel has to
reproduce all of them.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ahtest import (
    Belief,
    ChernoffSelection,
    EJSGreedySelection,
    FBarInference,
    MAPInference,
    RunConfig,
    UniformSelection,
    ejs_divergence,
    episode_seed,
    monte_carlo,
    run_episode,
    saddle_points,
    select_ejs_greedy,
)
from ahtest.belief import bllr_matrix, log_normalize, logsumexp_last, normalize_belief_rows
from ahtest.engine import _uniform_block, sample_categorical, simulate_conditioned_batch
from ahtest.strategies import INCONCLUSIVE, _ejs_scores

from conftest import random_model


def _same_bits(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed, lane, start", [
    (0, 0, 0),
    (2**48 - 1, 0, 5),
    (3, 2**16 - 1, 17),
    (2**48 - 1, 2**16 - 1, 2**64 - 4),
    (12345, 2, 2**63 - 2),
])
@pytest.mark.parametrize("width", [1, 7, 50])
def test_uniform_block_rows_match_per_episode_generators(seed, lane, start, width):
    count = 4
    block = _uniform_block(seed, lane, start, count, width)
    assert block.shape == (count, width)
    for t in range(count):
        ref = np.random.Generator(
            np.random.Philox(key=episode_seed(seed, lane, start + t))
        ).random(width)
        assert _same_bits(block[t], ref)


# ---------------------------------------------------------------------------
# short-axis primitives against frozen copies of the plain numpy formulas
# ---------------------------------------------------------------------------

def _frozen_logsumexp_last(arr):
    arr = np.asarray(arr, dtype=float)
    m = np.max(arr, axis=-1, keepdims=True)
    return (m + np.log(np.sum(np.exp(arr - m), axis=-1, keepdims=True)))[..., 0]


def _frozen_sample_categorical(dists, r):
    dists = np.asarray(dists, dtype=float)
    r = np.asarray(r, dtype=float)
    cum = np.cumsum(dists, axis=-1)
    idx = np.sum(cum <= r[..., None], axis=-1)
    return np.minimum(idx, dists.shape[-1] - 1)


WIDTHS = [1, 2, 3, 8, 9]


@pytest.mark.parametrize("width", WIDTHS)
def test_logsumexp_last_matches_frozen_formula(width):
    rng = np.random.default_rng(width)
    rows = rng.normal(scale=30.0, size=(257, width))
    if width > 1:
        rows[::3, 0] = -np.inf          # the complement rows carry -inf entries
        rows[1::3, -1] = rows[1::3, 0]  # exact ties for the maximum
    for arr in (rows, rows[7], rows[:, ::-1], rows.reshape(257, 1, width)):
        assert _same_bits(logsumexp_last(arr), _frozen_logsumexp_last(arr))


@pytest.mark.parametrize("width", WIDTHS)
def test_sample_categorical_matches_frozen_formula(width):
    rng = np.random.default_rng(100 + width)
    dists = rng.dirichlet(np.ones(width), size=300)
    cum = np.cumsum(dists, axis=-1)
    r = rng.random(300)
    r[:50] = cum[np.arange(50), rng.integers(width, size=50)]  # exactly on an edge
    r[50:60] = np.nextafter(cum[50:60, -1], 2.0)               # above cum[-1]
    r[60:65] = 1.0
    r[65:70] = 0.0
    assert _same_bits(sample_categorical(dists, r), _frozen_sample_categorical(dists, r))
    for t in range(0, 300, 7):
        assert _same_bits(sample_categorical(dists[t], r[t]),
                          _frozen_sample_categorical(dists[t], r[t]))
    # one shared distribution against many uniforms
    assert _same_bits(sample_categorical(dists[0], r), _frozen_sample_categorical(dists[0], r))


def test_sample_categorical_clips_rounding_overshoot():
    dists = np.full(10, 0.1)
    top = np.cumsum(dists)[-1]
    assert top < 1.0
    r = np.array([top, np.nextafter(top, 2.0), 1.0])
    assert _same_bits(sample_categorical(dists, r), _frozen_sample_categorical(dists, r))
    assert list(sample_categorical(dists, r)) == [9, 9, 9]


# ---------------------------------------------------------------------------
# EJS selection against a frozen copy of the scalar formula
# ---------------------------------------------------------------------------

def _frozen_ejs_divergence(model, log_rho, u):
    """The scalar EJS score as first written, on a Belief's log_rho."""
    logp_u = model.log_channel[:, u, :]                    # (M, Y)
    base = bllr_matrix(log_rho)                            # (M,)
    log_post = log_normalize((log_rho[:, None] + logp_u).T)  # (Y, M)
    conf = bllr_matrix(log_post)                           # (Y, M)
    weights = np.exp(log_rho)[:, None] * np.exp(logp_u)    # (M, Y)
    return float(np.sum(weights * (conf.T - base[:, None])))


def _frozen_ejs_rows(model, rows):
    """Frozen scores and one-hot choices (lowest index within 1e-12 of the
    best) of engine log-belief rows, each read as a Belief."""
    scores = np.array([
        [_frozen_ejs_divergence(model, Belief(row).log_rho, u)
         for u in range(model.num_experiments)]
        for row in rows
    ])
    best = scores.max(axis=1)
    cutoff = best - 1e-12 * np.maximum(1.0, np.abs(best))
    choices = np.zeros_like(scores)
    choices[np.arange(len(rows)), np.argmax(scores >= cutoff[:, None], axis=1)] = 1.0
    return scores, choices


EJS_HORIZON = 12
EJS_EPISODES = 100


@pytest.fixture(scope="module")
def tri3_ejs_config(tri3):
    saddles = saddle_points(tri3)
    return RunConfig(
        model=tri3, selection=EJSGreedySelection(),
        inference=FBarInference(saddles, min(sp.d_star for sp in saddles) / 4.0),
        horizon=EJS_HORIZON, episodes=EJS_EPISODES, seed=11,
    )


@pytest.fixture(scope="module")
def tri3_ejs_lanes(tri3_ejs_config):
    """(decisions, belief path) of every conditioning lane of a tri3 ejs run."""
    lanes = []
    for h in range(tri3_ejs_config.model.num_hypotheses):
        *_, decisions, path = simulate_conditioned_batch(tri3_ejs_config, h, record_beliefs=True)
        lanes.append((decisions, path))
    return lanes


def _ejs_rows(case, request):
    """(model, engine-style log-belief rows) of one guard case."""
    rng = np.random.default_rng(sum(map(ord, case)))
    if case == "tri3-episodes":
        lanes = request.getfixturevalue("tri3_ejs_lanes")
        rows = np.concatenate([path for _, path in lanes], axis=0)
        return request.getfixturevalue("tri3"), rows.reshape(-1, rows.shape[-1])
    if case == "tri3-uniform":
        return request.getfixturevalue("tri3"), np.full((1, 3), -np.log(3.0))
    if case in ("tri3-dirichlet", "bsc2-dirichlet"):
        model = request.getfixturevalue(case.split("-")[0])
        m = model.num_hypotheses
    else:
        m, u, y = (int(v) for v in case.split("-")[1].split("x"))
        model = random_model(rng, m, u, y)
    return model, np.log(rng.dirichlet(np.ones(m), size=1000))


EJS_CASES = ["tri3-episodes", "tri3-dirichlet", "tri3-uniform", "bsc2-dirichlet",
             "random-4x3x3", "random-9x2x2", "random-3x4x5"]


@pytest.mark.parametrize("case", EJS_CASES)
def test_ejs_matches_frozen_formula(case, request):
    model, rows = _ejs_rows(case, request)
    scores, choices = _frozen_ejs_rows(model, rows)
    assert _same_bits(_ejs_scores(model, normalize_belief_rows(rows)), scores)
    got = EJSGreedySelection().batch_action_distributions(model, rows, 0, EJS_HORIZON)
    assert _same_bits(got, choices)
    for t in range(0, len(rows), 13):
        belief = Belief(rows[t])
        got = [ejs_divergence(model, belief, u) for u in range(model.num_experiments)]
        assert _same_bits(np.array(got), scores[t])
        assert _same_bits(select_ejs_greedy(model, belief), choices[t])
        assert _same_bits(
            EJSGreedySelection().action_distribution(model, rows[t], 0, EJS_HORIZON), choices[t])


@given(m=st.integers(2, 5), u=st.integers(1, 4), y=st.integers(2, 5),
       seed=st.integers(0, 2**32 - 1))
def test_ejs_batch_rows_equal_scalar_calls(m, u, y, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, m, u, y)
    spread = rng.uniform(0.1, 20.0)
    rows = np.vstack([np.full(m, -np.log(m)),
                      log_normalize(rng.normal(scale=spread, size=(7, m)))])
    scores, choices = _frozen_ejs_rows(model, rows)
    assert _same_bits(_ejs_scores(model, normalize_belief_rows(rows)), scores)
    batch = EJSGreedySelection().batch_action_distributions(model, rows, 0, 1)
    assert _same_bits(batch, choices)
    for t, row in enumerate(rows):
        assert _same_bits(EJSGreedySelection().action_distribution(model, row, 0, 1), batch[t])


def test_ejs_uniform_tri3_tie_goes_to_first_experiment(tri3):
    uniform = np.full((4, 3), -np.log(3.0))
    got = EJSGreedySelection().batch_action_distributions(tri3, uniform, 0, EJS_HORIZON)
    assert _same_bits(got, np.tile([1.0, 0.0], (4, 1)))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "mass"])
def test_ejs_batch_rejects_what_belief_rejects(tri3, bad):
    rows = np.log(np.random.default_rng(3).dirichlet(np.ones(3), size=5))
    if bad == "mass":
        rows[2] += 1e-6
    else:
        rows[2, 1] = float(bad)
    with pytest.raises(ValueError):
        Belief(rows[2])
    with pytest.raises(ValueError):
        EJSGreedySelection().batch_action_distributions(tri3, rows, 0, EJS_HORIZON)
    # the other rows are accepted on their own
    EJSGreedySelection().batch_action_distributions(tri3, np.delete(rows, 2, axis=0), 0, 1)


class TestBatchParity:
    def test_run_episode_replays_batch_decisions(self, tri3_ejs_config, tri3_ejs_lanes):
        for h, (decisions, path) in enumerate(tri3_ejs_lanes):
            for e in range(EJS_EPISODES):
                _, decision, final = run_episode(tri3_ejs_config, h, episode_seed(11, h, e))
                assert (INCONCLUSIVE if decision is None else decision) == decisions[e]
                assert _same_bits(final.log_rho, Belief(path[e, -1]).log_rho)


# ---------------------------------------------------------------------------
# pinned monte_carlo outputs
# ---------------------------------------------------------------------------

# (model, selection, inference, conditioning) -> float.hex of the report
# fields, for horizons and episode counts in CASES and seed 11.
PINNED = {
    ('bsc2', 'chernoff', 'fbar', 'each'): {
        'decision_probs': [['0x1.ecb6f46508dffp-1', '0x0.0p+0', '0x1.3490b9af72016p-5'], ['0x0.0p+0', '0x1.efc962fc962fdp-1', '0x1.0369d0369d037p-5']],
        'jng': ['0x1.c1a1b08c5f450p+0', '0x1.c1e2f7ea87bc3p+0'],
        'jng_se': ['0x1.3c9a8f6b85bbfp-8', '0x1.3960773b7d273p-8'],
    },
    ('bsc2', 'chernoff', 'fbar', 'prior'): {
        'decision_probs': [['0x1.ee25b9efd4e26p-1', '0x0.0p+0', '0x1.1da46102b1da4p-5'], ['0x0.0p+0', '0x1.f11fd3b80b120p-1', '0x1.dc0588fe9dc06p-6']],
        'jng': ['0x1.bfd4985857a2cp+0', '0x1.c20d6a4a599c9p+0'],
        'jng_se': ['0x1.be9f0748332c3p-8', '0x1.bb33b884bcf8cp-8'],
    },
    ('tri3', 'chernoff', 'fbar', 'each'): {
        'decision_probs': [['0x1.27ae147ae147bp-1', '0x0.0p+0', '0x1.0624dd2f1a9fcp-11', '0x1.b020c49ba5e35p-2'], ['0x1.89374bc6a7efap-9', '0x1.1be76c8b43958p-1', '0x1.0624dd2f1a9fcp-10', '0x1.c4189374bc6a8p-2'], ['0x1.26e978d4fdf3bp-8', '0x0.0p+0', '0x1.18d4fdf3b645ap-1', '0x1.c9ba5e353f7cfp-2']],
        'jng': ['0x1.625c0aa815985p-2', '0x1.dd3996f77dbd4p-2', '0x1.d9dc6e61278e8p-2'],
        'jng_se': ['0x1.1e397b11a7e97p-8', '0x1.7f333c3d84193p-8', '0x1.86783f17c69b8p-8'],
    },
    ('tri3', 'chernoff', 'fbar', 'prior'): {
        'decision_probs': [['0x1.1f23fe61ded66p-1', '0x1.9e2129a7d5f0ap-10', '0x1.9e2129a7d5f0ap-10', '0x1.be7bc0e8f2a77p-2'], ['0x1.23456789abcdfp-8', '0x1.2c5f92c5f92c6p-1', '0x0.0p+0', '0x1.a2b3c4d5e6f81p-2'], ['0x0.0p+0', '0x1.7ad2208e0ecc3p-10', '0x1.0ecc35458c940p-1', '0x1.e0ecc35458c94p-2']],
        'jng': ['0x1.652540d7c6da2p-2', '0x1.f1a576cbae38cp-2', '0x1.d6a41c1bc5bb8p-2'],
        'jng_se': ['0x1.087a24f7743efp-7', '0x1.54e1c69c02c87p-7', '0x1.48a05804c75e4p-7'],
    },
    ('tri3', 'ejs', 'fbar', 'each'): {
        'decision_probs': [['0x1.75810624dd2f2p-1', '0x0.0p+0', '0x1.0624dd2f1a9fcp-11', '0x1.147ae147ae148p-2'], ['0x1.89374bc6a7efap-10', '0x1.8ed916872b021p-1', '0x1.47ae147ae147bp-9', '0x1.bc6a7ef9db22dp-3'], ['0x1.0624dd2f1a9fcp-9', '0x1.0624dd2f1a9fcp-10', '0x1.7d70a3d70a3d7p-1', '0x1.020c49ba5e354p-2']],
        'jng': ['0x1.ac2127a689426p-2', '0x1.26c060b3e242ep-1', '0x1.21869140320acp-1'],
        'jng_se': ['0x1.1aeea7ddee69dp-8', '0x1.9b30b9229bf61p-8', '0x1.a3c4e703ead18p-8'],
    },
    ('tri3', 'ejs', 'fbar', 'prior'): {
        'decision_probs': [['0x1.7411cb6cca363p-1', '0x0.0p+0', '0x0.0p+0', '0x1.17dc69266b93ap-2'], ['0x1.23456789abcdfp-8', '0x1.851eb851eb852p-1', '0x0.0p+0', '0x1.e26af37c048d1p-3'], ['0x1.1c1d986a8b192p-8', '0x1.7ad2208e0ecc3p-9', '0x1.7dc7c4cf2ae9dp-1', '0x1.fa14b77dc7c4dp-3']],
        'jng': ['0x1.aec3b8f22fb93p-2', '0x1.2a593b085a71bp-1', '0x1.2812602cb85acp-1'],
        'jng_se': ['0x1.08c9548b9b3a5p-7', '0x1.686b73b8df080p-7', '0x1.707a84ec55a10p-7'],
    },
    ('tri3', 'uniform', 'map', 'each'): {
        'decision_probs': [['0x1.b95810624dd2fp-1', '0x1.22d0e56041893p-4', '0x1.126e978d4fdf4p-4', '0x0.0p+0'], ['0x1.20c49ba5e353fp-4', '0x1.c624dd2f1a9fcp-1', '0x1.5c28f5c28f5c3p-5', '0x0.0p+0'], ['0x1.2b020c49ba5e3p-4', '0x1.6872b020c49bap-5', '0x1.c4189374bc6a8p-1', '0x0.0p+0']],
        'jng': ['0x1.50c7356147194p-2', '0x1.9ce5b293d06f7p-2', '0x1.9ead2e4231c13p-2'],
        'jng_se': ['0x1.5b31dfb6065f8p-8', '0x1.95cf301b09f7dp-8', '0x1.965163680acacp-8'],
    },
    ('tri3', 'uniform', 'map', 'prior'): {
        'decision_probs': [['0x1.b6651b18ab79cp-1', '0x1.b8033c42534fbp-5', '0x1.70d589197a8a5p-4', '0x0.0p+0'], ['0x1.04ee2cc0a9e88p-4', '0x1.cc6bb5aa49939p-1', '0x1.2f684bda12f68p-5', '0x0.0p+0'], ['0x1.16324fe852ddfp-4', '0x1.6324fe852ddf7p-5', '0x1.c707661aa2c65p-1', '0x0.0p+0']],
        'jng': ['0x1.4baa20403528ep-2', '0x1.ab01b730a8e83p-2', '0x1.987b0da59ea9bp-2'],
        'jng_se': ['0x1.35665dbf6320ap-7', '0x1.57bee49c39364p-7', '0x1.4f1036f7db83ap-7'],
    },
}

CASES = {
    ("bsc2", "chernoff", "fbar"): (25, 3000),
    ("tri3", "chernoff", "fbar"): (12, 2000),
    ("tri3", "ejs", "fbar"): (12, 2000),
    ("tri3", "uniform", "map"): (9, 2000),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_monte_carlo_reports_are_pinned(key, request):
    name, sel, inf, conditioning = key
    model = request.getfixturevalue(name)
    saddles = saddle_points(model)
    delta = min(sp.d_star for sp in saddles) / 4.0
    horizon, episodes = CASES[(name, sel, inf)]
    report = monte_carlo(RunConfig(
        model=model,
        selection={"chernoff": lambda: ChernoffSelection(saddles),
                   "ejs": EJSGreedySelection, "uniform": UniformSelection}[sel](),
        inference=FBarInference(saddles, delta) if inf == "fbar" else MAPInference(),
        horizon=horizon, episodes=episodes, seed=11, conditioning=conditioning,
    ))
    pinned = PINNED[key]
    assert [[float(v).hex() for v in row] for row in report.decision_probs] == pinned["decision_probs"]
    assert [float(v).hex() for v in report.jng] == pinned["jng"]
    assert [float(v).hex() for v in report.jng_se] == pinned["jng_se"]
