"""Bit-identity guards for the Monte Carlo kernel, the strategy rules and the
exact enumerator.

The engine's random streams, its short-axis primitives, every rule's
one-belief call, the EJS and ecr:k selection scores and the reports built on
them are pinned: to the per-episode reference generator, to frozen copies of
the plain one-belief formulas, and to float.hex values of a few runs. A faster
kernel or a new interface has to reproduce all of them. The exact enumerator,
a count lattice, agrees with a frozen copy of the depth-first tree walker
within a stated bound (ROUTE_TOL), and its bits do not depend on the layout
of its levels.
"""

import dataclasses
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ahtest import (
    Belief,
    ChernoffSelection,
    ECRLookaheadSelection,
    EJSGreedySelection,
    EpsilonSchedule,
    FBarInference,
    FixedThresholdInference,
    MAPInference,
    OpenLoopSelection,
    P2Inference,
    RunConfig,
    RunReport,
    UniformSelection,
    ejs_divergence,
    enumerate_exact,
    enumerate_pair_expectations,
    monte_carlo,
    run_episode,
    saddle_points,
)
from ahtest import engine
from ahtest.belief import bllr_matrix, log_normalize, logsumexp_last, normalize_belief_rows
from ahtest.engine import _count_keys, _error_rates, _uniform_block, sample_categorical
from ahtest.strategies import INCONCLUSIVE, TIE_TOL, _ejs_scores

from conftest import (
    episode_uniforms,
    lane_run,
    normalized_replay,
    random_model,
    random_selection,
    stream_blocks,
)


def _same_bits(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

def _tile_rows(horizon):
    """Episodes in one of _uniform_block's tiles at this horizon."""
    return max(1, engine._TILE_BYTES // (32 * stream_blocks(horizon)))


# One lane's (U, Y) channel: two experiments, three observations.
CHANNEL = np.array([[0.25, 0.5, 0.25], [0.7, 0.1, 0.2]])


def _outcome_ref(channel, obs):
    """(U, ...) outcome indices u * Y + y, y drawn by sample_categorical from
    channel[u] on the observation uniforms obs."""
    n_obs = channel.shape[1]
    return np.array([u * n_obs + sample_categorical(row, obs) for u, row in enumerate(channel)])


def _matches_stream(block, t, seed, lane, episode, horizon, channel=CHANNEL):
    """Column t of an (act, outcomes) block is episode `episode`'s stream:
    act bit for bit, the outcomes those sample_categorical draws."""
    act, outcomes = block
    ref_act, ref_obs = episode_uniforms(seed, lane, episode, horizon)
    return ((act is None or _same_bits(act[:, t], ref_act))
            and np.array_equal(outcomes[:, :, t], _outcome_ref(channel, ref_obs)))


@pytest.mark.parametrize("seed, lane, start", [
    (0, 0, 0),
    (2**48 - 1, 0, 5),
    (3, 2**16 - 1, 17),
    (2**48 - 1, 2**16 - 1, 2**64 - 4),
    (12345, 2, 2**63 - 2),
])
@pytest.mark.parametrize("horizon", [1, 7, 50])
def test_uniform_block_rows_match_per_episode_generators(seed, lane, start, horizon, monkeypatch):
    # tiles of three episodes, so the four episodes cross a tile edge
    count = 4
    monkeypatch.setattr(engine, "_TILE_BYTES", 3 * 32 * stream_blocks(horizon))
    assert _tile_rows(horizon) == 3
    act, outcomes = block = _uniform_block(seed, lane, start, count, horizon, CHANNEL)
    assert act.shape == (horizon, count) and outcomes.shape == (2, horizon, count)
    for t in range(count):
        assert _matches_stream(block, t, seed, lane, start + t, horizon)


@pytest.mark.parametrize("horizon", [1, 7, 50, 401])
@pytest.mark.parametrize("cuts", [(1,), (3, 4), (5, 6, 12)])
def test_uniform_block_split_equals_whole(horizon, cuts):
    # a run's chunking must not move a bit of any episode's stream; the
    # block runs two episodes past its first tile
    tile = _tile_rows(horizon)
    start, count = 2**40 + 3, tile + 2
    whole = _uniform_block(9, 2, start, count, horizon, CHANNEL)
    edges = (0,) + cuts + (count,)
    parts = [_uniform_block(9, 2, start + a, b - a, horizon, CHANNEL)
             for a, b in zip(edges, edges[1:])]
    for k in range(2):
        assert _same_bits(np.concatenate([part[k] for part in parts], axis=-1), whole[k])
    for t in (tile - 1, tile):
        assert _matches_stream(whole, t, 9, 2, start + t, horizon)


@pytest.mark.parametrize("horizon", [1, 7, 401])
def test_uniform_block_without_actions_draws_observation_rows_only(horizon):
    # one-experiment models: no experiment rows, and the outcomes are those
    # of the same block with them
    tile = _tile_rows(horizon)
    start, count = 2**33 + 1, tile + 3
    act, outcomes = block = _uniform_block(4, 1, start, count, horizon, CHANNEL[:1])
    assert act is None
    assert _same_bits(outcomes, _uniform_block(4, 1, start, count, horizon, CHANNEL)[1][:1])
    for t in (0, tile - 1, tile, count - 1):
        assert _matches_stream(block, t, 4, 1, start + t, horizon, CHANNEL[:1])


@pytest.mark.parametrize("n_exp, n_obs, dtype", [
    (1, 2, np.uint8), (2, 3, np.uint8), (1, 256, np.uint8), (2, 128, np.uint8),
    (1, 257, np.uint16), (2, 129, np.uint16),
])
def test_uniform_block_outcome_layout_and_type(n_exp, n_obs, dtype):
    # outcomes are (U, N, count) indices u * Y + y in the smallest unsigned
    # type that holds U * Y - 1
    channel = np.random.default_rng(n_obs).dirichlet(np.ones(n_obs), size=n_exp)
    horizon, count = 9, 40
    act, outcomes = block = _uniform_block(6, 0, 11, count, horizon, channel)
    assert outcomes.dtype == dtype and outcomes.shape == (n_exp, horizon, count)
    assert (act is None) == (n_exp == 1)
    for u in range(n_exp):
        assert u * n_obs <= outcomes[u].min() and outcomes[u].max() < (u + 1) * n_obs
    for t in range(count):
        assert _matches_stream(block, t, 6, 0, 11 + t, horizon, channel)


def test_uniform_block_clips_to_the_last_observation_as_sample_categorical_does():
    # rows summing to 0.9: a tenth of the uniforms lies at or above every edge
    channel = np.array([[0.2, 0.3, 0.4], [0.5, 0.25, 0.15]])
    horizon, count = 50, 200
    _, outcomes = _uniform_block(8, 1, 0, count, horizon, channel)
    obs = np.array([episode_uniforms(8, 1, e, horizon)[1] for e in range(count)]).T
    top = obs >= channel.sum(axis=1).max()
    assert top.sum() > 500
    ref = _outcome_ref(channel, obs)
    assert _same_bits(outcomes.astype(ref.dtype), ref)
    assert (outcomes[:, top] == [[2], [5]]).all()


def test_uniform_block_edges_at_zero_and_above_one_compare_as_doubles_do():
    # outcomes compare raw Philox words: an edge of 0 holds for every value
    # and an edge rounded above 1 for none, as on the doubles
    channel = np.array([[0.0, 0.5, 0.5], [0.6, 0.4000000000000002, 0.0]])
    edges = np.cumsum(channel[:, :-1], axis=1)
    assert edges[0, 0] == 0.0 and edges[1, 1] > 1.0
    horizon, count = 9, 300
    block = _uniform_block(3, 0, 0, count, horizon, channel)
    for t in range(count):
        assert _matches_stream(block, t, 3, 0, t, horizon, channel)
    assert set(np.unique(block[1][0])) == {1, 2} and set(np.unique(block[1][1])) == {3, 4}


def _keys_of(outcomes, horizon, n_obs) -> list:
    """Python-int count-state keys sum_y c_y (N + 1)^y of a (1, N, count)
    outcome block, counted from its outcome rows."""
    counts = (outcomes[0][..., None] == np.arange(n_obs)).sum(axis=0).tolist()
    return [sum(c * (horizon + 1) ** y for y, c in enumerate(row)) for row in counts]


# One-experiment channels for the count reader: zero entries, which repeat an
# edge; running sums that reach 1 (or round above it) before the last column,
# which drop the edges after it; nine observations, whose keys at N = 200 pass
# 2**63; and random rows of every width from 2 to 9.
COUNT_CHANNELS = [
    np.array([[0.9, 0.1]]),
    np.array([[0.0, 0.5, 0.0, 0.5]]),
    np.array([[0.5, 0.25, 0.25, 0.0, 0.0]]),
    np.array([[0.6, 0.4000000000000002, 0.0]]),
    np.array([[0.2, 0.3, 0.4]]),
    np.full((1, 9), 1 / 9),
] + [np.random.default_rng(y).dirichlet(np.ones(y), size=1) for y in range(2, 10)]


@pytest.mark.parametrize("channel", COUNT_CHANNELS, ids=[
    "bsc", "zeros", "clipped", "above-one", "short-sum", "flat9", *(f"random{y}" for y in range(2, 10))])
@pytest.mark.parametrize("horizon", [1, 4, 7, 200])
def test_count_keys_are_the_outcome_rows_counted(channel, horizon, monkeypatch):
    # tiles of three episodes, so the seven episodes cross two tile edges;
    # keys wider than int64 stay Python ints
    monkeypatch.setattr(engine, "_TILE_BYTES", 3 * 32 * stream_blocks(horizon))
    start, count, n_obs = 2**40 + 3, 7, channel.shape[1]
    act, keys = _count_keys(5, 1, start, count, horizon, channel)
    wide = (horizon + 1) ** n_obs >= 2**63
    assert act is None and keys.shape == (count,) and keys.dtype == (object if wide else np.int64)
    ref = _keys_of(_uniform_block(5, 1, start, count, horizon, channel)[1], horizon, n_obs)
    assert keys.tolist() == ref and all(type(k) is int for k in keys.tolist())


@pytest.mark.parametrize("horizon", [1, 7, 200])
@pytest.mark.parametrize("cuts", [(1,), (3, 4), (5, 6, 12)])
def test_count_keys_split_equals_whole(horizon, cuts):
    # the block runs two episodes past its first tile
    tile = _tile_rows(horizon)
    start, count, channel = 2**40 + 3, tile + 2, COUNT_CHANNELS[2]
    _, whole = _count_keys(9, 2, start, count, horizon, channel)
    edges = (0,) + cuts + (count,)
    parts = [_count_keys(9, 2, start + a, b - a, horizon, channel)[1] for a, b in zip(edges, edges[1:])]
    assert _same_bits(np.concatenate(parts), whole)
    out = np.zeros(count + 2, whole.dtype)
    assert _count_keys(9, 2, start, count, horizon, channel, out=(None, out[1:-1]))[1].base is out
    assert _same_bits(out[1:-1], whole) and out[0] == out[-1] == 0
    ref = _keys_of(_uniform_block(9, 2, start + tile - 1, 2, horizon, channel)[1], horizon, 5)
    assert whole[tile - 1:tile + 1].tolist() == ref


# ---------------------------------------------------------------------------
# short-axis primitives against frozen copies of the plain numpy formulas
# ---------------------------------------------------------------------------

def _frozen_logsumexp_last(arr):
    arr = np.asarray(arr, dtype=float)
    m = np.max(arr, axis=-1, keepdims=True)
    return (m + np.log(np.sum(np.exp(arr - m), axis=-1, keepdims=True)))[..., 0]


def _frozen_tol(model, horizon):
    """The documented tie tolerance, TIE_TOL * max(1, N * B)."""
    return TIE_TOL * max(1.0, horizon * model.lambda_bound)


def _frozen_argmax_lowest(scores, tol):
    """The documented tie rule: the first index within tol of the maximum."""
    scores = np.asarray(scores)
    return np.argmax(scores >= scores.max(axis=-1, keepdims=True) - tol, axis=-1)


def _frozen_choices(model, scores, horizon):
    """One-hot rows on each row's best score by the documented tie rule."""
    choices = np.zeros_like(scores)
    choices[np.arange(len(scores)),
            _frozen_argmax_lowest(scores, _frozen_tol(model, horizon))] = 1.0
    return choices


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


def _frozen_ejs_rows(model, rows, horizon):
    """Frozen scores and one-hot choices (the documented tie rule at the
    horizon) of engine log-belief rows, each read as a Belief."""
    scores = np.array([
        [_frozen_ejs_divergence(model, Belief(row).log_rho, u)
         for u in range(model.num_experiments)]
        for row in rows
    ])
    return scores, _frozen_choices(model, scores, horizon)


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
        *_, decisions, path = lane_run(tri3_ejs_config, h)
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
    scores, choices = _frozen_ejs_rows(model, rows, EJS_HORIZON)
    assert _same_bits(_ejs_scores(model, normalize_belief_rows(rows)), scores)
    got = EJSGreedySelection().batch_action_distributions(model, rows, 0, EJS_HORIZON)
    assert _same_bits(got, choices)
    for t in range(0, len(rows), 13):
        belief = Belief(rows[t])
        got = [ejs_divergence(model, belief, u) for u in range(model.num_experiments)]
        assert _same_bits(np.array(got), scores[t])
        assert _same_bits(EJSGreedySelection().action_distribution(model, belief.log_rho, 0, 1),
                          _frozen_choices(model, scores[t:t + 1], 1)[0])
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
    scores, choices = _frozen_ejs_rows(model, rows, 1)
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
    # ejs and ecr:k, which score each distinct row once, check every row
    rows = np.log(np.random.default_rng(3).dirichlet(np.ones(3), size=5))
    if bad == "mass":
        rows[2] += 1e-6
    else:
        rows[2, 1] = float(bad)
    with pytest.raises(ValueError):
        Belief(rows[2])
    repeated = np.vstack([rows, rows[2], rows[::-1]])   # the bad row three times
    for rule in (EJSGreedySelection(), ECRLookaheadSelection(1), ECRLookaheadSelection(2)):
        if bad == "mass":
            # a row is known up to its own constant: the shifted row is
            # accepted and gets its normalized row's choice
            got = rule.batch_action_distributions(tri3, repeated, 0, EJS_HORIZON)
            want = rule.batch_action_distributions(tri3, log_normalize(rows), 0, EJS_HORIZON)
            assert all(_same_bits(got[t], want[2]) for t in (2, 5, 8)), type(rule).__name__
        else:
            for batch in (rows, repeated):
                with pytest.raises(ValueError, match="belief entries must be finite"):
                    rule.batch_action_distributions(tri3, batch, 0, EJS_HORIZON)
        # the other rows are accepted on their own
        rule.batch_action_distributions(tri3, np.delete(rows, 2, axis=0), 0, 1)


class TestBatchParity:
    def test_run_episode_replays_batch_decisions(self, tri3_ejs_config, tri3_ejs_lanes):
        # run_episode runs the chunk code on a chunk of one, so its final
        # belief has the batch row's bits; normalized_replay is the check
        # apart from that code (one-belief calls, per-step normalization).
        for h, (decisions, path) in enumerate(tri3_ejs_lanes):
            for e in range(EJS_EPISODES):
                steps, want, final = normalized_replay(tri3_ejs_config, h, e)
                trajectory, decision, belief = run_episode(tri3_ejs_config, h, e)
                assert decision == want
                assert decisions[e] == (INCONCLUSIVE if want is None else want)
                assert trajectory.steps == steps
                np.testing.assert_allclose(belief.log_rho, final, rtol=0, atol=1e-12)
                assert _same_bits(belief.log_rho, Belief(path[e, -1]).log_rho)


# ---------------------------------------------------------------------------
# every rule's scalar call against a frozen copy of its scalar method
# ---------------------------------------------------------------------------

def _frozen_decide_by_thresholds(increments, thresholds, tol):
    margins = increments - thresholds
    margins[np.abs(margins) <= tol] = 0.0
    qualified = margins >= 0.0
    if not np.any(qualified):
        return None
    return int(_frozen_argmax_lowest(np.where(qualified, margins, -np.inf), tol))


def _frozen_selections(model, saddles, horizon=5):
    """(rule, frozen scalar method) pairs of the Chernoff, open-loop and
    uniform rules, as their scalar methods were first written, with the
    documented tie rule at the horizon in place of np.argmax."""
    table = np.array([sp.alpha_star for sp in saddles], dtype=float)
    i = model.num_hypotheses - 1
    tol = _frozen_tol(model, horizon)
    return [
        (ChernoffSelection(saddles), lambda lr: table[int(_frozen_argmax_lowest(lr, tol))]),
        (OpenLoopSelection(i, saddles), lambda lr: np.array(saddles[i].alpha_star, dtype=float)),
        (UniformSelection(),
         lambda lr: np.full(model.num_experiments, 1.0 / model.num_experiments)),
    ]


def test_chernoff_with_equal_rows_has_the_argmax_bits(bsc2, tri3):
    # every alpha* row the same bits: the MAP choice cannot move a bit, and
    # the shape check still runs
    rng = np.random.default_rng(8)
    model = random_model(rng, 3, 2, 2)
    shared = saddle_points(model)
    shared = [dataclasses.replace(sp, alpha_star=np.array([0.25, 0.75])) for sp in shared]
    # equal in value, not in bits: hypothesis 1's row keeps its -0.0
    signed = [dataclasses.replace(sp, alpha_star=np.array([-0.0 if sp.hypothesis == 1 else 0.0,
                                                           1.0]))
              for sp in shared]
    for m, saddles in ((bsc2, saddle_points(bsc2)), (model, shared), (model, signed)):
        rule = ChernoffSelection(saddles)
        table = np.array([sp.alpha_star for sp in saddles], dtype=float)
        rows = rng.normal(size=(40, m.num_hypotheses)) * 3.0
        rows[:5] = 0.0                    # MAP ties
        for horizon in (1, 200):
            want = table[_frozen_argmax_lowest(rows, _frozen_tol(m, horizon))]
            assert _same_bits(rule.batch_action_distributions(m, rows, 0, horizon), want)
            assert _same_bits(rule.batch_action_distributions(m, rows[:1], 0, horizon), want[:1])
        other = tri3 if m is bsc2 else bsc2
        with pytest.raises(ValueError, match="one saddle point per hypothesis"):
            rule.batch_action_distributions(other, np.zeros((4, other.num_hypotheses)), 0, 5)
    # bsc2's two rows have one experiment, so both shapes are checked
    narrow = ChernoffSelection(saddle_points(bsc2))
    with pytest.raises(ValueError, match="one saddle point per hypothesis"):
        narrow.batch_action_distributions(random_model(rng, 2, 2, 2), np.zeros((4, 2)), 0, 5)


def _frozen_inferences(model, saddles, horizon):
    """(rule, frozen scalar method) pairs of the four inference rules, with
    the documented tie rule in place of np.argmax and of margin >= 0."""
    log_prior = np.log(model.prior)
    tol = _frozen_tol(model, horizon)
    d_star = np.array([sp.d_star for sp in saddles])
    delta = float(d_star.min()) / 4.0
    lam = model.lambda_bound
    i = model.num_hypotheses - 1
    eps = EpsilonSchedule("half-inverse").epsilon(horizon)
    p2_thr = horizon * saddles[i].d_star - 2.0 * lam * math.sqrt(
        horizon * math.log(model.num_hypotheses / eps))
    theta = 0.7

    def inc(lf):
        return bllr_matrix(lf) - bllr_matrix(log_prior)

    return [
        (FBarInference(saddles, delta),
         lambda lf: _frozen_decide_by_thresholds(inc(lf), horizon * (d_star - delta), tol)),
        (P2Inference(i, saddles[i], EpsilonSchedule("half-inverse")),
         lambda lf: i if float(bllr_matrix(lf)[i] - bllr_matrix(log_prior)[i]) - p2_thr >= -tol
         else None),
        (MAPInference(), lambda lf: int(_frozen_argmax_lowest(lf, tol))),
        (FixedThresholdInference(theta),
         lambda lf: _frozen_decide_by_thresholds(inc(lf), np.full(lf.size, theta), tol)),
    ]


def _belief_rows(model, rng, count):
    """Engine-style log-belief rows: Dirichlet draws, some sharply peaked,
    rows whose largest entries tie exactly, and rows where the last of them
    is one ulp above the first."""
    m = model.num_hypotheses
    rows = [np.log(rng.dirichlet(np.full(m, a), size=count)) for a in (1.0, 0.2)]
    ties = np.log(rng.dirichlet(np.ones(m), size=count // 4))
    ties[:, 0] = ties[:, -1] = ties.max(axis=1)             # first and last share the maximum
    ties = log_normalize(ties)
    near = ties.copy()
    near[:, -1] = np.nextafter(near[:, -1], np.inf)
    uniform = np.full((1, m), -np.log(m))
    return np.vstack(rows + [ties, near, uniform])


SCALAR_CASES = ["tri3", "bsc2", "random-4x3x3", "random-5x2x4", "random-2x1x3"]


def _case_model(case, request, rng):
    """The named reference model, or a random one for "random-MxUxY"."""
    if case.startswith("random"):
        m, u, y = (int(v) for v in case.split("-")[1].split("x"))
        return random_model(rng, m, u, y)
    return request.getfixturevalue(case)


def _scalar_case(case, request):
    rng = np.random.default_rng(sum(map(ord, case)))
    model = _case_model(case, request, rng)
    return model, saddle_points(model), _belief_rows(model, rng, 200)


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_selection_scalar_calls_match_frozen_methods(case, request):
    model, saddles, rows = _scalar_case(case, request)
    for rule, frozen in _frozen_selections(model, saddles):
        batch = rule.batch_action_distributions(model, rows, 0, 5)
        for t, row in enumerate(rows):
            want = frozen(row)
            assert _same_bits(rule.action_distribution(model, row, 0, 5), want)
            assert _same_bits(batch[t], want)


@pytest.mark.parametrize("case", SCALAR_CASES)
@pytest.mark.parametrize("horizon", [1, 3, 8])
def test_inference_scalar_calls_match_frozen_methods(case, horizon, request):
    model, saddles, rows = _scalar_case(case, request)
    for rule, frozen in _frozen_inferences(model, saddles, horizon):
        batch = rule.batch_decide(model, rows, horizon)
        assert batch.dtype == np.int64
        for t, row in enumerate(rows):
            want = frozen(row)
            assert rule.decide(model, row, horizon) == want
            assert batch[t] == (INCONCLUSIVE if want is None else want)


@given(m=st.integers(2, 5), u=st.integers(1, 4), y=st.integers(2, 5),
       horizon=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_every_rule_scalar_call_is_its_batch_row(m, u, y, horizon, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, m, u, y)
    saddles = saddle_points(model)
    spread = rng.uniform(0.1, 20.0)
    rows = np.vstack([np.full(m, -np.log(m)),
                      log_normalize(rng.normal(scale=spread, size=(5, m)))])
    selections = [rule for rule, _ in _frozen_selections(model, saddles)]
    selections += [EJSGreedySelection(), ECRLookaheadSelection(2)]
    for rule in selections:
        batch = rule.batch_action_distributions(model, rows, 0, horizon)
        for t, row in enumerate(rows):
            assert _same_bits(rule.action_distribution(model, row, 0, horizon), batch[t])
    for rule, _ in _frozen_inferences(model, saddles, horizon):
        batch = rule.batch_decide(model, rows, horizon)
        for t, row in enumerate(rows):
            d = rule.decide(model, row, horizon)
            assert (INCONCLUSIVE if d is None else d) == batch[t]


# ---------------------------------------------------------------------------
# ecr:k against a frozen copy of the recursive expectimax
# ---------------------------------------------------------------------------

def _frozen_ecr_value(model, log_rho, depth):
    if depth == 0:
        return float(np.sum(np.exp(log_rho) * bllr_matrix(log_rho)))
    best = -math.inf
    for u in range(model.num_experiments):
        log_joint = log_rho[:, None] + model.log_channel[:, u, :]
        log_py = logsumexp_last(log_joint.T)
        total = 0.0
        for y in range(model.num_observations):
            total += math.exp(log_py[y]) * _frozen_ecr_value(
                model, log_joint[:, y] - log_py[y], depth - 1)
        best = max(best, total)
    return best


def _frozen_ecr_rows(model, rows, depth, horizon):
    """Frozen first-action scores and one-hot choices (the documented tie
    rule at the horizon) of engine log-belief rows, each read as a Belief."""
    scores = []
    for row in rows:
        lr = Belief(row).log_rho
        per_u = []
        for u in range(model.num_experiments):
            log_joint = lr[:, None] + model.log_channel[:, u, :]
            log_py = logsumexp_last(log_joint.T)
            total = 0.0
            for y in range(model.num_observations):
                total += math.exp(log_py[y]) * _frozen_ecr_value(
                    model, log_joint[:, y] - log_py[y], depth - 1)
            per_u.append(total)
        scores.append(per_u)
    scores = np.array(scores)
    return scores, _frozen_choices(model, scores, horizon)


ECR_CASES = ["tri3", "bsc2", "random-4x3x3", "random-3x2x4"]


def _ecr_rows(case, request, count):
    rng = np.random.default_rng(sum(map(ord, case)))
    model = _case_model(case, request, rng)
    m = model.num_hypotheses
    rows = np.vstack([np.full((1, m), -np.log(m)),
                      np.log(rng.dirichlet(np.ones(m), size=count))])
    return model, rows


@pytest.mark.parametrize("case", ECR_CASES)
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_ecr_picks_the_frozen_recursion_choice(case, depth, request):
    model, rows = _ecr_rows(case, request, 100 if depth < 3 else 30)
    scores, choices = _frozen_ecr_rows(model, rows, depth, depth)
    rule = ECRLookaheadSelection(depth)
    assert _same_bits(rule.batch_action_distributions(model, rows, 0, depth), choices)
    # a longer horizon does not deepen the plan beyond k
    assert _same_bits(rule.batch_action_distributions(model, rows, 3, depth + 7),
                      _frozen_choices(model, scores, depth + 7))
    for t in range(0, len(rows), 7):
        assert _same_bits(rule.action_distribution(model, rows[t], 0, depth), choices[t])
        assert _same_bits(ECRLookaheadSelection(depth).action_distribution(
            model, Belief(rows[t]).log_rho, 0, depth), choices[t])


@pytest.mark.parametrize("case", ECR_CASES)
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_ecr_scores_match_the_frozen_recursion(case, depth, request):
    from ahtest.strategies import _ecr_scores

    model, rows = _ecr_rows(case, request, 100 if depth < 3 else 30)
    frozen, _ = _frozen_ecr_rows(model, rows, depth, depth)
    got = _ecr_scores(model, normalize_belief_rows(rows), depth)
    assert got.shape == frozen.shape
    # The kernel weighs outcomes with np.exp where the recursion used
    # math.exp, which may round the other way in the last bit. A score can
    # be a near-cancelling sum, so ulps are counted on the row's scale,
    # max(1, |best score|), far inside the tie tolerance.
    scale = np.maximum(1.0, np.abs(frozen).max(axis=1, keepdims=True))
    assert np.all(np.abs(got - frozen) <= 4 * np.spacing(scale))


# ---------------------------------------------------------------------------
# ejs and ecr:k score each distinct row once: batches full of repeats
# ---------------------------------------------------------------------------

def _batch_with_repeats(rng, base):
    """(batch, source) from base rows: each row three times, a shifted copy
    of each, all shuffled; batch[t] is base[source[t]] up to a constant."""
    source = np.concatenate([np.repeat(np.arange(len(base)), 3), np.arange(len(base))])
    batch = base[source]
    shifted = slice(3 * len(base), None)
    batch[shifted] += rng.uniform(-30.0, 30.0, size=(len(base), 1))
    order = rng.permutation(len(batch))
    return batch[order], source[order]


def _base_rows(drawn):
    """A uniform row, the drawn normalized rows, the first of them with its
    tail and with its head reversed (each sharing an entry's bits with it), a
    normalized row holding an exact 0.0 and the same row with -0.0 there:
    equal in value, not in bits."""
    m = drawn.shape[1]
    zero = np.concatenate([[0.0], -40.0 - 5.0 * np.arange(m - 1)])
    assert _same_bits(log_normalize(zero), zero)
    r = drawn[0]
    return np.vstack([np.full((1, m), -np.log(m)), drawn,
                      np.concatenate([r[:1], r[:0:-1]]), np.concatenate([r[-2::-1], r[-1:]]),
                      zero, np.concatenate([[-0.0], zero[1:]])])


def _assert_frozen_under_repeats(model, rng, base, depths):
    batch, source = _batch_with_repeats(rng, base)
    _, choices = _frozen_ejs_rows(model, base, EJS_HORIZON)
    got = EJSGreedySelection().batch_action_distributions(model, batch, 0, EJS_HORIZON)
    assert _same_bits(got, choices[source])
    for k in depths:
        _, choices = _frozen_ecr_rows(model, base, k, EJS_HORIZON)
        got = ECRLookaheadSelection(k).batch_action_distributions(model, batch, 0, EJS_HORIZON)
        assert _same_bits(got, choices[source]), k


@pytest.mark.parametrize("case", ECR_CASES)
def test_repeated_rows_get_the_frozen_choices(case, request):
    rng = np.random.default_rng(sum(map(ord, case)) + 2)
    model = _case_model(case, request, rng)
    base = _base_rows(np.log(rng.dirichlet(np.ones(model.num_hypotheses), size=4)))
    _assert_frozen_under_repeats(model, rng, base, depths=(1, 2, 3))


@given(m=st.integers(2, 5), u=st.integers(1, 3), y=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_repeated_rows_get_the_frozen_choices_random(m, u, y, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, m, u, y)
    base = _base_rows(log_normalize(rng.normal(scale=rng.uniform(0.1, 20.0), size=(3, m))))
    _assert_frozen_under_repeats(model, rng, base, depths=(1, 2))


# ---------------------------------------------------------------------------
# pinned monte_carlo outputs
# ---------------------------------------------------------------------------

# (model, selection, inference) -> float.hex of the report fields, for
# horizons and episode counts in CASES and seed 11, under stream v3, each
# episode scored on its final count state's row.
PINNED = {
    ('bsc2', 'chernoff', 'fbar'): {
        'decision_probs': [['0x1.ee6bdc805761ap-1', '0x0.0p+0', '0x1.194237fa89e61p-5'], ['0x0.0p+0', '0x1.ed65b7a328470p-1', '0x1.29a485cd7b901p-5']],
        'jng': ['0x1.c1644033c0b6ap+0', '0x1.c1f62b063948cp+0'],
        'jng_se': ['0x1.3bf1605fada00p-8', '0x1.3ba0dadfe3024p-8'],
    },
    ('tri3', 'chernoff', 'fbar'): {
        'decision_probs': [['0x1.1df3b645a1cacp-1', '0x1.0624dd2f1a9fcp-11', '0x1.0624dd2f1a9fcp-11', '0x1.c3126e978d4fep-2'], ['0x1.0624dd2f1a9fcp-8', '0x1.1c28f5c28f5c3p-1', '0x0.0p+0', '0x1.c395810624dd3p-2'], ['0x1.47ae147ae147bp-9', '0x1.0624dd2f1a9fcp-11', '0x1.1b645a1cac083p-1', '0x1.c624dd2f1a9fcp-2']],
        'jng': ['0x1.5afa7e6d190a2p-2', '0x1.d8dfadc967a9ap-2', '0x1.d886a3850e7cfp-2'],
        'jng_se': ['0x1.2ead8d4b15ff7p-8', '0x1.8b23d40a6e34fp-8', '0x1.85848fc0805c5p-8'],
    },
    ('tri3', 'ejs', 'fbar'): {
        'decision_probs': [['0x1.6d0e560418937p-1', '0x0.0p+0', '0x1.0624dd2f1a9fcp-10', '0x1.24dd2f1a9fbe7p-2'], ['0x1.0624dd2f1a9fcp-9', '0x1.83126e978d4fep-1', '0x1.0624dd2f1a9fcp-11', '0x1.ee978d4fdf3b6p-3'], ['0x1.0624dd2f1a9fcp-9', '0x1.89374bc6a7efap-9', '0x1.789374bc6a7f0p-1', '0x1.09ba5e353f7cfp-2']],
        'jng': ['0x1.a702db8e799ffp-2', '0x1.27c8bacc20c74p-1', '0x1.241e80587da79p-1'],
        'jng_se': ['0x1.2b6869ff116b6p-8', '0x1.a13647a95fe08p-8', '0x1.b0466dbe03784p-8'],
    },
    ('tri3', 'uniform', 'map'): {
        'decision_probs': [['0x1.ae5604189374cp-1', '0x1.24dd2f1a9fbe7p-4', '0x1.6872b020c49bap-4', '0x0.0p+0'], ['0x1.395810624dd2fp-4', '0x1.c5604189374bcp-1', '0x1.374bc6a7ef9dbp-5', '0x0.0p+0'], ['0x1.126e978d4fdf4p-4', '0x1.78d4fdf3b645ap-5', '0x1.c624dd2f1a9fcp-1', '0x0.0p+0']],
        'jng': ['0x1.44a93217dd756p-2', '0x1.9cbd48031dfa1p-2', '0x1.a13dd23073c86p-2'],
        'jng_se': ['0x1.6cf334eb859b7p-8', '0x1.9830aaab79642p-8', '0x1.9d392099f251bp-8'],
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
    name, sel, inf = key
    model = request.getfixturevalue(name)
    saddles = saddle_points(model)
    delta = min(sp.d_star for sp in saddles) / 4.0
    horizon, episodes = CASES[key]
    report = monte_carlo(RunConfig(
        model=model,
        selection={"chernoff": lambda: ChernoffSelection(saddles),
                   "ejs": EJSGreedySelection, "uniform": UniformSelection}[sel](),
        inference=FBarInference(saddles, delta) if inf == "fbar" else MAPInference(),
        horizon=horizon, episodes=episodes, seed=11,
    ))
    pinned = PINNED[key]
    assert [[float(v).hex() for v in row] for row in report.decision_probs] == pinned["decision_probs"]
    assert [float(v).hex() for v in report.jng] == pinned["jng"]
    assert [float(v).hex() for v in report.jng_se] == pinned["jng_se"]


# tri3 ecr:k=2/fbar: the exact report at N = 4, generated before ecr:k had a
# batch kernel, and Monte Carlo at N = 6 with 300 episodes and seed 11, under
# stream v3, each episode scored on its final count state's row.
ECR_PINNED = {
    'each': {
        'decision_probs': [['0x1.3f258bf258bf2p-1', '0x0.0p+0', '0x1.1111111111111p-6', '0x1.70a3d70a3d70ap-2'], ['0x1.7e4b17e4b17e5p-6', '0x1.4444444444444p-1', '0x1.b4e81b4e81b4fp-9', '0x1.5c28f5c28f5c3p-2'], ['0x1.1111111111111p-5', '0x1.b4e81b4e81b4fp-9', '0x1.3333333333333p-1', '0x1.740da740da741p-2']],
        'psi': ['0x1.81b4e81b4e81cp-2', '0x1.7777777777778p-2', '0x1.999999999999ap-2'],
        'phi': ['0x1.d0369d0369d02p-6', '0x1.b4e81b4e81b4ep-10', '0x1.47ae147ae147ap-7'],
        'gamma': '0x1.b4e81b4e81b4ep-6',
        'jng': ['0x1.948b9a4316d76p-2', '0x1.2b2a81ce63903p-1', '0x1.06976897312c7p-1'],
        'jng_se': ['0x1.22b8e0b9f8debp-6', '0x1.863dbd830b131p-6', '0x1.9ea72af504601p-6'],
    },
    'exact': {
        'decision_probs': [['0x1.6f0068db8bac8p-1', '0x1.d7dbf487fcb97p-7', '0x1.a36e2eb1c4331p-7', '0x1.0624dd2f1a9fdp-2'], ['0x1.80346dc5d6389p-4', '0x1.3a92a30553262p-1', '0x1.4467381d7dbf4p-6', '0x1.16872b020c49cp-2'], ['0x1.9ce075f6fd220p-4', '0x1.780346dc5d635p-5', '0x1.f8a0902de00d2p-2', '0x1.7126e978d4fdfp-2']],
        'psi': ['0x1.21ff2e48e8a73p-2', '0x1.8adab9f559b3dp-2', '0x1.03afb7e90ff97p-1'],
        'phi': ['0x1.8e8a71de69ad4p-4', '0x1.edfa43fe5c91ap-6', '0x1.0b0f27bb2fec6p-6'],
        'gamma': '0x1.8888888888888p-4',
        'jng': ['0x1.988cb5cdcf90cp-2', '0x1.268de1736d97fp-1', '0x1.edade823aea4ap-2'],
    },
}


@pytest.mark.parametrize("mode", sorted(ECR_PINNED))
def test_ecr_reports_are_pinned(mode, tri3):
    saddles = saddle_points(tri3)
    kw = dict(model=tri3, selection=ECRLookaheadSelection(2),
              inference=FBarInference(saddles, min(sp.d_star for sp in saddles) / 4.0))
    if mode == "exact":
        report = enumerate_exact(RunConfig(horizon=4, **kw))
    else:
        report = monte_carlo(RunConfig(horizon=6, episodes=300, seed=11, **kw))
    pinned = ECR_PINNED[mode]
    assert [[float(v).hex() for v in row] for row in report.decision_probs] == pinned["decision_probs"]
    for name in ("psi", "phi", "jng", "jng_se"):
        if name in pinned:
            assert [float(v).hex() for v in getattr(report, name)] == pinned[name]
    assert float(report.gamma).hex() == pinned["gamma"]


# ---------------------------------------------------------------------------
# every rule's row has the same bits alone and inside a large batch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", SCALAR_CASES + ["random-9x2x2"])
def test_rule_rows_do_not_depend_on_their_batch(case, request):
    model, saddles, _ = _scalar_case(case, request)
    rng = np.random.default_rng(sum(map(ord, case)) + 1)
    m = model.num_hypotheses
    rows = np.vstack([np.full((1, m), -np.log(m)),
                      log_normalize(rng.normal(scale=8.0, size=(999, m)))])
    horizon = 4
    selections = [rule for rule, _ in _frozen_selections(model, saddles)]
    selections += [EJSGreedySelection(), ECRLookaheadSelection(2), random_selection(rng, model)]
    for rule in selections:
        batch = rule.batch_action_distributions(model, rows, 0, horizon)
        for t in range(0, len(rows), 37):
            alone = rule.batch_action_distributions(model, rows[t:t + 1], 0, horizon)
            assert _same_bits(alone[0], batch[t]), type(rule).__name__
    for rule, _ in _frozen_inferences(model, saddles, horizon):
        batch = rule.batch_decide(model, rows, horizon)
        for t in range(0, len(rows), 37):
            assert rule.batch_decide(model, rows[t:t + 1], horizon)[0] == batch[t]


# ---------------------------------------------------------------------------
# a chunk run in parts on several threads has the bits of the whole chunk
# ---------------------------------------------------------------------------

SPLIT_EPISODES = 50


def _split_config(name, request):
    model = request.getfixturevalue(name)
    saddles = saddle_points(model)
    selection = EJSGreedySelection() if name == "tri3" else ChernoffSelection(saddles)
    return RunConfig(model=model, selection=selection,
                     inference=FBarInference(saddles, min(sp.d_star for sp in saddles) / 4.0),
                     horizon=6 if name == "tri3" else 25, episodes=SPLIT_EPISODES, seed=13)


def _force_parts(monkeypatch, cpus, min_part):
    """Let chunks split into min(cpus, count // min_part) parts, and return
    the (thread, rows) of every _run_chunk call from then on."""
    monkeypatch.setattr(engine, "_MIN_PART", min_part)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    calls = []
    run_chunk = engine._run_chunk

    def recorded(*args, **kw):
        calls.append((threading.get_ident(), len(args[4])))
        return run_chunk(*args, **kw)

    monkeypatch.setattr(engine, "_run_chunk", recorded)
    return calls


def _lane_bits(config, h):
    counts, gain_sum, gain_sqsum, decisions, path = lane_run(config, h)
    return (counts.tobytes(), gain_sum.tobytes(), gain_sqsum.tobytes(), decisions.tobytes(),
            path.tobytes())


@pytest.mark.parametrize("name", ["tri3", "bsc2"])
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("chunk", [None, 7])
def test_parts_move_no_bit(name, cpus, chunk, request, monkeypatch):
    config = _split_config(name, request)
    if chunk is not None:
        monkeypatch.setattr(engine, "CHUNK_SIZE", chunk)
    whole_report = monte_carlo(config)
    whole_lanes = [_lane_bits(config, h) for h in range(config.model.num_hypotheses)]
    calls = _force_parts(monkeypatch, cpus, min_part=2)
    report = monte_carlo(config)
    assert report.to_json_dict() == whole_report.to_json_dict()
    assert _same_bits(report.decision_probs, whole_report.decision_probs)
    assert [_lane_bits(config, h) for h in range(config.model.num_hypotheses)] == whole_lanes
    # every lane's 50 episodes step together: tri3's 150 rows and bsc2's 100
    # split into 2 or 3 parts; the first 7-row chunk into 3 + 4 or 2 + 2 + 3
    whole = {"tri3": {2: [75, 75], 3: [50, 50, 50]}, "bsc2": {2: [50, 50], 3: [33, 33, 34]}}
    sizes = whole[name] if chunk is None else {2: [3, 4], 3: [2, 2, 3]}
    assert sorted(n for _, n in calls[:cpus]) == sizes[cpus]
    assert len({t for t, _ in calls}) > 1
    # run_episode replays the last episode of a part that ran off the caller's thread
    *_, decisions, path = lane_run(config, 1)
    _, decision, belief = run_episode(config, 1, SPLIT_EPISODES - 2)
    assert decisions[SPLIT_EPISODES - 2] == (INCONCLUSIVE if decision is None else decision)
    assert _same_bits(belief.log_rho, Belief(path[SPLIT_EPISODES - 2, -1]).log_rho)


def test_run_episode_replays_rows_at_part_and_tile_edges(bsc2, monkeypatch):
    # bsc2 has one experiment, so its chunks draw no experiment uniforms;
    # a replay still has the batch row's bits on both sides of every edge
    saddles = saddle_points(bsc2)
    horizon, tile = 200, _tile_rows(200)
    episodes = 2 * tile + 74
    config = RunConfig(model=bsc2, selection=ChernoffSelection(saddles),
                       inference=FBarInference(saddles, min(sp.d_star for sp in saddles) / 4.0),
                       horizon=horizon, episodes=episodes, seed=31)
    calls = _force_parts(monkeypatch, 2, min_part=2)
    half = episodes // 2
    for h in range(bsc2.num_hypotheses):
        calls.clear()
        *_, decisions, path = lane_run(config, h)
        assert sorted(n for _, n in calls) == [half, half]
        # part 0's tile edge, the part edge, part 1's tile edge, the ends
        for e in (0, tile - 1, tile, half - 1, half, half + tile - 1, half + tile, episodes - 1):
            _, decision, belief = run_episode(config, h, e)
            assert decisions[e] == (INCONCLUSIVE if decision is None else decision)
            assert _same_bits(belief.log_rho, Belief(path[e, -1]).log_rho)


@pytest.mark.parametrize("name", ["tri3", "bsc2"])
def test_run_episode_replays_rows_at_lane_edges(name, request, monkeypatch):
    # Every lane's rows step together, lane-major: with 64-row chunks in two
    # parts, the edge between lanes 0 and 1 (row 50) lies inside chunk [0, 64)
    # and part [32, 64), and tri3's edge at row 100 inside chunk [64, 128) and
    # part [96, 128). A replay has the batch row's bits on both sides of each
    # part edge and at both ends of every lane, and the report is the one of
    # unpatched chunks, whose reductions stay per lane.
    config = _split_config(name, request)
    lanes, episodes = range(config.model.num_hypotheses), config.episodes
    unpatched = monte_carlo(config)
    monkeypatch.setattr(engine, "CHUNK_SIZE", 64)
    calls = _force_parts(monkeypatch, 2, min_part=2)
    report = monte_carlo(config)
    assert _hexed(report.to_json_dict()) == _hexed(unpatched.to_json_dict())
    assert _same_bits(report.decision_probs, unpatched.decision_probs)
    rows = len(lanes) * episodes
    chunks = [(s, min(s + 64, rows)) for s in range(0, rows, 64)]
    part_edges = sorted({e for lo, hi in chunks for e in (lo, (lo + hi) // 2, hi)})
    lane_edges = [h * episodes for h in lanes[1:]]
    assert not set(lane_edges) & set(part_edges)   # each lane edge lies inside a part
    calls.clear()
    *_, decisions, path = engine._simulate_lanes(config, lanes, record=True)
    assert sorted(n for _, n in calls) == sorted(np.diff(part_edges))
    ends = [e for h in lanes for e in (h * episodes, (h + 1) * episodes - 1)]
    for row in sorted(set(ends) | {r for e in part_edges[1:-1] for r in (e - 1, e)}):
        h, e = divmod(row, episodes)
        _, decision, belief = run_episode(config, h, e)
        assert decisions[row] == (INCONCLUSIVE if decision is None else decision)
        assert _same_bits(belief.log_rho, Belief(path[row, -1]).log_rho)


class _FailingInOnePart(UniformSelection):
    """Uniform selection that raises in one thread's part and is slow in the
    others, counting its calls and the calls still running."""

    def __init__(self, fail_in_caller: bool):
        self.caller = threading.get_ident()
        self.fail_in_caller = fail_in_caller
        self.lock = threading.Lock()
        self.calls = self.running = 0

    def batch_action_distributions(self, model, log_rho, step, horizon):
        with self.lock:
            self.calls += 1
            self.running += 1
        try:
            if (threading.get_ident() == self.caller) == self.fail_in_caller:
                raise ArithmeticError(f"part of {len(log_rho)} rows failed at step {step}")
            time.sleep(0.01)
            return super().batch_action_distributions(model, log_rho, step, horizon)
        finally:
            with self.lock:
                self.running -= 1


@pytest.mark.parametrize("fail_in_caller", [False, True])
def test_an_error_in_a_part_reaches_the_caller_after_every_part_stops(
        fail_in_caller, tri3, request, monkeypatch):
    _force_parts(monkeypatch, cpus=2, min_part=2)
    rule = _FailingInOnePart(fail_in_caller)
    config = RunConfig(model=tri3, selection=rule, inference=MAPInference(),
                       horizon=5, episodes=SPLIT_EPISODES, seed=13)
    # the 150 rows of tri3's three lanes step together, in two parts
    with pytest.raises(ArithmeticError, match=r"^part of 75 rows failed at step 0$"):
        monte_carlo(config)
    # the other part had run its every step to the end
    assert (rule.calls, rule.running) == (1 + config.horizon, 0)
    # and the pool still runs parts
    working = _split_config("tri3", request)
    split = monte_carlo(working).to_json_dict()
    monkeypatch.setattr(engine, "_MIN_PART", SPLIT_EPISODES + 1)
    assert split == monte_carlo(working).to_json_dict()


# ---------------------------------------------------------------------------
# exact enumeration against a frozen copy of the depth-first walker
# ---------------------------------------------------------------------------

def _frozen_leaves(model, selection, horizon):
    """The leaves (action prob, likelihoods, log-belief, lam, kl sums) of the
    depth-first walker as first written, in the order it visited them."""
    n_exp = model.num_experiments
    n_obs = model.num_observations
    m_hyp = model.num_hypotheses
    lc = model.log_channel
    kl_by_u = np.einsum("iuy,ijuy->iju", model.channel, lc[:, None] - lc[None, :])
    leaves = []

    def rec(n, aprob, lik, log_rho, lam, kls):
        if n == horizon:
            leaves.append((aprob, lik, log_rho, lam, kls))
            return
        dist = selection.action_distribution(model, log_rho, n, horizon)
        for u in range(n_exp):
            pu = float(dist[u])
            if pu <= 0.0:
                continue
            for y in range(n_obs):
                lc_uy = lc[:, u, y]
                rec(
                    n + 1,
                    aprob * pu,
                    lik * model.channel[:, u, y],
                    log_normalize(log_rho + lc_uy),
                    lam + (lc_uy[:, None] - lc_uy[None, :]),
                    kls + kl_by_u[:, :, u],
                )

    rec(0, 1.0, np.ones(m_hyp), np.log(model.prior),
        np.zeros((m_hyp, m_hyp)), np.zeros((m_hyp, m_hyp)))
    return leaves


def _frozen_report(config, leaves):
    """enumerate_exact's per-leaf visitor, as first written, over the leaves."""
    model = config.model
    m_hyp = model.num_hypotheses
    base_conf = bllr_matrix(np.log(model.prior))
    dm = np.zeros((m_hyp, m_hyp + 1))
    jacc = np.zeros(m_hyp)
    for aprob, lik, log_rho, lam, kls in leaves:
        w = aprob * lik
        d = config.inference.decide(model, log_rho, config.horizon)
        dm[:, m_hyp if d is None else d] += w
        jacc[:] += w * (bllr_matrix(log_rho) - base_conf)
    psi, phi, gamma = _error_rates(dm, model.prior)
    zeros = tuple(0.0 for _ in range(m_hyp))
    return RunReport(
        mode="exact", horizon=config.horizon, hypotheses=model.hypotheses,
        psi=tuple(psi), phi=tuple(phi), gamma=gamma,
        jng=tuple(float(jacc[i] / config.horizon) for i in range(m_hyp)),
        psi_se=zeros, phi_se=zeros, gamma_se=0.0, jng_se=zeros,
        decision_probs=dm, seed=None, paths=len(leaves),
    )


def _frozen_pairs(leaves, m_hyp):
    """enumerate_pair_expectations' per-leaf visitor, as first written."""
    lam_exp = np.zeros((m_hyp, m_hyp))
    kl_exp = np.zeros((m_hyp, m_hyp))
    for aprob, lik, _, lam, kls in leaves:
        w = aprob * lik
        lam_exp[:] += w[:, None] * lam
        kl_exp[:] += w[:, None] * kls
    return lam_exp, kl_exp


def _hexed(value):
    """A report's JSON form with every float spelled as float.hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    return value


# The count lattice merges the walker's paths by their outcome counts and sums
# their masses correctly rounded, so it rounds differently; it must agree
# within this bound. Worst case over the 140 configurations of
# test_exact_reports_match_the_frozen_walker: 2.2e-15 relative on
# decision_probs, 1.6e-15 on phi, 1.4e-15 on gamma, 9.2e-15 on jng; 1.8e-15
# absolute on psi and 3.0e-14 on the pair matrices.
ROUTE_TOL = 1e-13


def _assert_matches_frozen_walker(config, leaves):
    """The exact report and both pair matrices agree with the frozen walker:
    the same path count and zero entries, decision_probs, phi, gamma and jng
    within ROUTE_TOL relative, psi and the pair matrices within it absolute."""
    got = enumerate_exact(config)
    want = _frozen_report(config, leaves)
    assert got.paths == want.paths
    assert np.array_equal(got.decision_probs == 0.0, want.decision_probs == 0.0)
    for name in ("decision_probs", "phi", "gamma", "jng"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=ROUTE_TOL, atol=0)
    np.testing.assert_allclose(got.psi, want.psi, rtol=0, atol=ROUTE_TOL)
    lam, kls = enumerate_pair_expectations(config)
    want_lam, want_kls = _frozen_pairs(leaves, config.model.num_hypotheses)
    np.testing.assert_allclose(lam, want_lam, rtol=0, atol=ROUTE_TOL)
    np.testing.assert_allclose(kls, want_kls, rtol=0, atol=ROUTE_TOL)


# (case, horizon): leaf counts from about a hundred to a few hundred; M up to
# 9 takes the hypothesis sums past numpy's eight-term pairwise cutoff, and
# the one-experiment models branch on observations only.
WALK_CASES = [("bsc2", 7), ("tri3", 4), ("random-4x3x3", 3), ("random-9x2x2", 4),
              ("random-3x4x5", 2), ("random-2x1x3", 5), ("random-8x1x3", 4)]


def _all_selections(model, saddles):
    """Every selection rule the CLI offers; ejs and ecr:k put all mass on one
    experiment, so their trees are pruned."""
    rules = [rule for rule, _ in _frozen_selections(model, saddles)]
    return rules + [EJSGreedySelection(), ECRLookaheadSelection(2)]


@pytest.mark.parametrize("case, horizon", WALK_CASES)
def test_exact_reports_match_the_frozen_walker(case, horizon, request):
    rng = np.random.default_rng(sum(map(ord, case)))
    model = _case_model(case, request, rng)
    saddles = saddle_points(model)
    for selection in _all_selections(model, saddles):
        leaves = _frozen_leaves(model, selection, horizon)
        for inference, _ in _frozen_inferences(model, saddles, horizon):
            _assert_matches_frozen_walker(
                RunConfig(model=model, selection=selection, inference=inference,
                          horizon=horizon), leaves)


# (case, horizon, selection index in _all_selections, inference index in
# _frozen_inferences): the ejs and ecr:k=2 lattices have unreachable states.
BLOCK_CASES = [("tri3", 5, 0, 0), ("tri3", 4, 4, 0), ("bsc2", 7, 3, 3),
               ("random-3x4x5", 2, 2, 2), ("random-9x2x2", 3, 1, 1)]


# The name predates the count lattice, whose unit of work is a level, not a
# block of tree nodes: layout None keeps each level in composition rank
# order, and a seed lays every level out in a random order of its own
# through engine._slot, the one map from a state's rank to its row.
@pytest.mark.parametrize("layout", [1, 7, None])
@pytest.mark.parametrize("case, horizon, sel, inf", BLOCK_CASES)
def test_walk_block_size_moves_no_bit(case, horizon, sel, inf, layout, request, monkeypatch):
    from ahtest import engine

    rng = np.random.default_rng(sum(map(ord, case)))
    model = _case_model(case, request, rng)
    saddles = saddle_points(model)
    config = RunConfig(model=model, selection=_all_selections(model, saddles)[sel],
                       inference=_frozen_inferences(model, saddles, horizon)[inf][0],
                       horizon=horizon)
    ranked = (_hexed(enumerate_exact(config).to_json_dict()), enumerate_pair_expectations(config))
    shuffled = set()
    if layout is not None:
        k = model.num_experiments * model.num_observations

        def shuffled_slot(ranks, level):
            shuffled.add(level)
            order = np.random.default_rng([layout, level]).permutation(
                math.comb(level + k - 1, k - 1))
            return order[ranks]

        monkeypatch.setattr(engine, "_slot", shuffled_slot)
    assert _hexed(enumerate_exact(config).to_json_dict()) == ranked[0]
    lam, kls = enumerate_pair_expectations(config)
    assert _same_bits(lam, ranked[1][0]) and _same_bits(kls, ranked[1][1])
    _assert_matches_frozen_walker(config, _frozen_leaves(model, config.selection, horizon))
    # Every level past the root was laid out by the patched map.
    assert shuffled == (set() if layout is None else set(range(1, horizon + 1)))


# float.hex of the exact-tree benchmark's outputs (chernoff/fbar, default
# delta), generated with the count lattice.
EXACT_PINNED = {
    ('tri3', 8): {
        'decision_probs': [['0x1.1cf882ee7e06cp-1', '0x1.f7382b6fd473ap-9', '0x1.f94c8812f5c13p-9', '0x1.be2df0bbfe5e8p-2'], ['0x1.f39f508488c56p-7', '0x1.0f46a4ab51e86p-1', '0x1.bf66bc0d56331p-9', '0x1.ce56eead1d3cfp-2'], ['0x1.f39f508488c58p-7', '0x1.ce5c426609cf3p-9', '0x1.0ca2921834bd5p-1', '0x1.d38128c6a62c2p-2']],
        'psi': ['0x1.c60efa2303f2fp-2', '0x1.e172b6a95c2f8p-2', '0x1.e6badbcf9685fp-2'],
        'phi': ['0x1.f39f508488c56p-7', '0x1.e2ca36eaef216p-9', '0x1.dc59a21025fa1p-9'],
        'gamma': '0x1.ecf02f2cdeb2fp-7',
        'jng': ['0x1.55be57ddfcfa0p-2', '0x1.cdefb231355eap-2', '0x1.cbea8656ceeb9p-2'],
        'paths': 65536,
    },
    ('bsc2', 15): {
        'decision_probs': [['0x1.e38e366404965p-1', '0x1.7634115311ed4p-32', '0x1.c71c9990f01f8p-5'], ['0x1.7634115311ed4p-32', '0x1.e38e366404965p-1', '0x1.c71c9990f01f8p-5']],
        'psi': ['0x1.c71c99bfb6a1ap-5', '0x1.c71c99bfb6a1ap-5'],
        'phi': ['0x1.7634115311ed4p-32', '0x1.7634115311ed4p-32'],
        'gamma': '0x1.7634115311ed4p-32',
        'jng': ['0x1.c1fdd9114d1b0p+0', '0x1.c1fdd9114d1b0p+0'],
        'paths': 32768,
    },
}
PAIRS_PINNED = {  # enumerate_pair_expectations, tri3 N=8, chernoff
    'lam': [['0x0.0p+0', '0x1.b7b04543040ccp+1', '0x1.b6667e14520cep+1'], ['0x1.fa666178ccef8p+1', '0x0.0p+0', '0x1.1be6de0ef6ed9p+2'], ['0x1.f4e4649e90af3p+1', '0x1.1c117b2775335p+2', '0x0.0p+0']],
    'kl': [['0x0.0p+0', '0x1.b7b04543040ccp+1', '0x1.b6667e14520cep+1'], ['0x1.fa666178ccef7p+1', '0x0.0p+0', '0x1.1be6de0ef6ed8p+2'], ['0x1.f4e4649e90af1p+1', '0x1.1c117b2775334p+2', '0x0.0p+0']],
}

def _exact_tree_config(model, horizon):
    saddles = saddle_points(model)
    return RunConfig(model=model, selection=ChernoffSelection(saddles),
                     inference=FBarInference(saddles, min(sp.d_star for sp in saddles) / 4.0),
                     horizon=horizon)


@pytest.mark.parametrize("key", sorted(EXACT_PINNED))
def test_exact_tree_reports_are_pinned(key, request):
    name, horizon = key
    report = enumerate_exact(_exact_tree_config(request.getfixturevalue(name), horizon))
    pinned = EXACT_PINNED[key]
    assert [[float(v).hex() for v in row] for row in report.decision_probs] == pinned["decision_probs"]
    for name in ("psi", "phi", "jng"):
        assert [float(v).hex() for v in getattr(report, name)] == pinned[name]
    assert float(report.gamma).hex() == pinned["gamma"]
    assert report.paths == pinned["paths"]


def test_exact_tree_pair_expectations_are_pinned(tri3):
    lam, kls = enumerate_pair_expectations(_exact_tree_config(tri3, 8))
    assert [[float(v).hex() for v in row] for row in lam] == PAIRS_PINNED["lam"]
    assert [[float(v).hex() for v in row] for row in kls] == PAIRS_PINNED["kl"]
