"""Engine behavior: reproducible episodes, Monte Carlo vs exact enumeration,
and the enumeration-certified inequalities."""

import dataclasses
import functools
import itertools
import json
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from ahtest import (
    Belief,
    EnumerationBudgetError,
    Model,
    RunConfig,
    confidence_increment,
    enumerate_exact,
    enumerate_pair_expectations,
    lane_key,
    monte_carlo,
    run_episode,
    saddle_points,
)
from ahtest import engine
from ahtest.belief import bllr_matrix
from ahtest.bounds import BoundReport, bound_report
from ahtest.engine import _uniform_block, sample_categorical
from ahtest.strategies import (
    ChernoffSelection,
    ECRLookaheadSelection,
    EJSGreedySelection,
    FBarInference,
    FixedThresholdInference,
    MAPInference,
    OpenLoopSelection,
    P2Inference,
    SelectionStrategy,
    UniformSelection,
)
from ahtest.model import EpsilonSchedule

from conftest import (
    RecordingSelection,
    episode_uniforms,
    lane_run,
    normalized_replay,
    random_model,
    random_selection,
    relabel,
    step_counts,
    stream_blocks,
)


@pytest.fixture(scope="module")
def bsc2_saddles(bsc2):
    return saddle_points(bsc2)


@pytest.fixture(scope="module")
def tri3_saddles(tri3):
    return saddle_points(tri3)


class TestSampling:
    def test_inverse_cdf_cells(self):
        dist = np.array([0.2, 0.3, 0.5])
        assert int(sample_categorical(dist, 0.0)) == 0
        assert int(sample_categorical(dist, 0.19)) == 0
        assert int(sample_categorical(dist, 0.2)) == 1
        assert int(sample_categorical(dist, 0.49)) == 1
        assert int(sample_categorical(dist, 0.51)) == 2
        assert int(sample_categorical(dist, 0.999999)) == 2

    def test_scalar_matches_batch(self):
        rng = np.random.default_rng(0)
        dists = rng.dirichlet(np.ones(4), size=64)
        rs = rng.random(64)
        batch = sample_categorical(dists, rs)
        singles = [int(sample_categorical(dists[t], rs[t])) for t in range(64)]
        np.testing.assert_array_equal(batch, singles)

    # An episode's stream is addressed by its seed: (base seed, lane) in the
    # Philox key, the episode index in the counter.
    CHANNEL = np.array([[0.5, 0.5], [0.9, 0.1]])    # one lane's (U, Y) channel

    @classmethod
    def _episodes(cls, seed, lane, start, count, horizon):
        """(count, N + U * N): each episode's experiment uniforms, then its
        outcomes, read from the step-major block."""
        act, outcomes = _uniform_block(seed, lane, start, count, horizon, cls.CHANNEL)
        return np.vstack([act, outcomes.reshape(-1, count)]).T

    def test_episode_seed_distinct(self):
        assert len({lane_key(s, l) for s in (0, 1, 77) for l in (0, 1, 2)}) == 3 * 3
        rows = np.vstack([self._episodes(s, l, 0, 50, 5) for s in (0, 1, 77) for l in (0, 1, 2)])
        assert rows.shape == (3 * 3 * 50, 15)
        assert len({row.tobytes() for row in rows}) == 3 * 3 * 50

    def test_episode_seed_field_edges(self):
        assert lane_key(2**48 - 1, 2**16 - 1) == 2**64 - 1
        assert lane_key(0, 0) == 0
        act, outcomes = _uniform_block(2**48 - 1, 2**16 - 1, 2**64 - 1, 1, 3, self.CHANNEL)
        assert act.shape == (3, 1) and outcomes.shape == (2, 3, 1)
        # the top key and the top episode's counter, (2**64 - 1) * ceil(3 / 4)
        ref_act, ref_obs = episode_uniforms(2**48 - 1, 2**16 - 1, 2**64 - 1, 3)
        assert act[:, 0].tobytes() == ref_act.tobytes()
        for u in range(2):
            np.testing.assert_array_equal(
                outcomes[u, :, 0], 2 * u + sample_categorical(self.CHANNEL[u], ref_obs))

    @staticmethod
    def _record_philox(monkeypatch):
        """The (key words, counter words) each Philox generator starts from,
        and the generator, for every Philox built from now on."""
        made, philox = [], np.random.Philox

        def recording(*args, **kw):
            bits = philox(*args, **kw)
            state = bits.state["state"]
            made.append((state["key"].tolist(), state["counter"].tolist(), bits))
            return bits

        monkeypatch.setattr(np.random, "Philox", recording)
        return made

    @pytest.mark.parametrize("horizon", [1, 3, 4, 5, 200])
    def test_one_experiment_block_reads_ceil_n_over_4_blocks_per_episode(self, horizon,
                                                                          monkeypatch):
        # one generator, under the lane key, that ends on the block after the
        # last episode's with no word of a further block drawn; the count
        # crosses a tile edge
        made = self._record_philox(monkeypatch)
        monkeypatch.setattr(engine, "_TILE_BYTES", 3 * 32 * stream_blocks(horizon))
        start, count, nb = 2**40 + 3, 7, stream_blocks(horizon)
        act, outcomes = _uniform_block(5, 1, start, count, horizon, self.CHANNEL[:1])
        assert act is None and outcomes.shape == (1, horizon, count)
        assert [(key, counter) for key, counter, _ in made] == [
            ([lane_key(5, 1), 0], [start * nb, 0, 0, 0])]
        bits = made[0][2]
        assert bits.state["state"]["counter"].tolist() == [(start + count) * nb, 0, 0, 0]
        assert bits.state["buffer_pos"] == 4

    @pytest.mark.parametrize("horizon", [1, 3, 4, 5, 200])
    def test_count_keys_read_ceil_n_over_4_blocks_per_episode(self, horizon, monkeypatch):
        # the count reader reads the one-experiment block's words: one
        # generator, under the lane key, that ends on the block after the
        # last episode's; the count crosses a tile edge
        made = self._record_philox(monkeypatch)
        monkeypatch.setattr(engine, "_TILE_BYTES", 3 * 32 * stream_blocks(horizon))
        start, count, nb = 2**40 + 3, 7, stream_blocks(horizon)
        act, keys = engine._count_keys(5, 1, start, count, horizon, self.CHANNEL[1:])
        assert act is None and keys.shape == (count,)
        assert [(key, counter) for key, counter, _ in made] == [
            ([lane_key(5, 1), 0], [start * nb, 0, 0, 0])]
        bits = made[0][2]
        assert bits.state["state"]["counter"].tolist() == [(start + count) * nb, 0, 0, 0]
        assert bits.state["buffer_pos"] == 4

    def test_experiment_values_come_from_key_word_1(self, monkeypatch):
        made = self._record_philox(monkeypatch)
        start, count, horizon = 2**40 + 3, 5, 7
        act, _ = _uniform_block(5, 1, start, count, horizon, self.CHANNEL)
        counter = [start * stream_blocks(horizon), 0, 0, 0]
        assert [(key, c) for key, c, _ in made] == [
            ([lane_key(5, 1), 0], counter), ([lane_key(5, 1), 1], counter)]
        for t in range(count):
            ref_act, ref_obs = episode_uniforms(5, 1, start + t, horizon)
            assert act[:, t].tobytes() == ref_act.tobytes()
            assert ref_act.tobytes() != ref_obs.tobytes()

    def test_experiment_stream_is_apart_from_every_observation_stream_at_the_field_edges(
            self, monkeypatch):
        # every observation key has word 1 = 0, since lane_key stays below
        # 2**64, and every experiment key has word 1 = 1; at the top key and
        # episode the two streams hold different values
        made = self._record_philox(monkeypatch)
        top = 2**48 - 1, 2**16 - 1
        act, _ = _uniform_block(*top, 2**64 - 1, 1, 5, self.CHANNEL)
        assert [key for key, _, _ in made] == [[2**64 - 1, 0], [2**64 - 1, 1]]
        ref_act, ref_obs = episode_uniforms(*top, 2**64 - 1, 5)
        assert act[:, 0].tobytes() == ref_act.tobytes()
        observations = [ref_obs, episode_uniforms(*top, 0, 5)[1], episode_uniforms(0, 0, 0, 5)[1]]
        assert all(ref_act.tobytes() != obs.tobytes() for obs in observations)

    @pytest.mark.parametrize("seed, lane, episode", [
        (-1, 0, 0), (2**48, 0, 0),
        (0, -1, 0), (0, 2**16, 0),
        (0, 0, -1), (0, 0, 2**64),
    ])
    def test_one_experiment_block_rejects_values_outside_their_field(self, seed, lane, episode,
                                                                     monkeypatch):
        made = self._record_philox(monkeypatch)
        with pytest.raises(ValueError):
            _uniform_block(seed, lane, episode, 1, 4, self.CHANNEL[:1])
        with pytest.raises(ValueError):
            _uniform_block(0, 0, 2**64 - 2, 3, 4, self.CHANNEL[:1])
        assert made == []

    @pytest.mark.parametrize("seed, lane, episode", [
        (-1, 0, 0), (2**48, 0, 0),
        (0, -1, 0), (0, 2**16, 0),
        (0, 0, -1), (0, 0, 2**64),
    ])
    def test_count_keys_reject_values_outside_their_field(self, seed, lane, episode,
                                                          monkeypatch):
        made = self._record_philox(monkeypatch)
        with pytest.raises(ValueError):
            engine._count_keys(seed, lane, episode, 1, 4, self.CHANNEL[:1])
        with pytest.raises(ValueError):
            engine._count_keys(0, 0, 2**64 - 2, 3, 4, self.CHANNEL[:1])
        with pytest.raises(TypeError):
            engine._count_keys(0, 1, 5.0, 1, 5, self.CHANNEL[:1])
        assert made == []
        engine._count_keys(0, 0, 2**64 - 2, 2, 4, self.CHANNEL[:1])

    def test_episode_seed_numpy_integers_do_not_wrap(self):
        assert lane_key(np.int64(2**47), np.int64(1)) == lane_key(2**47, 1)
        top = self._episodes(np.int64(2**47), np.int64(1), np.uint64(2**64 - 1), 1, 5)
        assert top.tobytes() == self._episodes(2**47, 1, 2**64 - 1, 1, 5).tobytes()
        with pytest.raises(TypeError):
            lane_key(3.0, 1)
        with pytest.raises(TypeError):
            _uniform_block(0, 1, 5.0, 1, 5, self.CHANNEL)

    @pytest.mark.parametrize("seed, lane, episode", [
        (-1, 0, 0), (2**48, 0, 0),
        (0, -1, 0), (0, 2**16, 0),
        (0, 0, -1), (0, 0, 2**64),
    ])
    def test_episode_seed_rejects_values_outside_their_field(self, seed, lane, episode):
        # masking them would alias another (seed, lane, episode)'s stream
        with pytest.raises(ValueError):
            _uniform_block(seed, lane, episode, 1, 4, self.CHANNEL)

    def test_block_rejects_an_episode_range_past_the_field(self):
        _uniform_block(0, 0, 2**64 - 2, 2, 4, self.CHANNEL)
        with pytest.raises(ValueError):
            _uniform_block(0, 0, 2**64 - 2, 3, 4, self.CHANNEL)


class TestRunEpisode:
    def test_deterministic(self, tri3, tri3_saddles):
        cfg = RunConfig(
            model=tri3, selection=ChernoffSelection(tri3_saddles),
            inference=FBarInference(tri3_saddles, 0.1), horizon=4, seed=7,
        )
        a = run_episode(cfg, 1, 1)
        b = run_episode(cfg, 1, 1)
        assert a[0] == b[0] and a[1] == b[1]
        np.testing.assert_array_equal(a[2].log_rho, b[2].log_rho)

    def test_regression_fixture_bsc2(self, bsc2, bsc2_saddles):
        cfg = RunConfig(
            model=bsc2, selection=OpenLoopSelection(0, bsc2_saddles),
            inference=FBarInference(bsc2_saddles, 0.4), horizon=3,
        )
        traj, decision, final = run_episode(cfg, 0, 0)
        assert traj.steps == ((0, 0), (0, 0), (0, 0))
        assert decision == 0
        np.testing.assert_allclose(final.probs(), [729 / 730, 1 / 730], atol=1e-12)

    def test_regression_fixture_tri3(self, tri3, tri3_saddles):
        cfg = RunConfig(
            model=tri3, selection=ChernoffSelection(tri3_saddles),
            inference=FBarInference(tri3_saddles, 0.1), horizon=4, seed=7,
        )
        expected = [
            (((1, 0), (0, 1), (0, 1), (0, 1)), 1),
            (((1, 0), (0, 1), (0, 0), (0, 1)), None),
            (((0, 0), (1, 0), (1, 1), (0, 1)), None),
        ]
        for e, (steps, decision) in enumerate(expected):
            traj, dec, _ = run_episode(cfg, 1, e)
            assert traj.steps == steps
            assert dec == decision

    def test_zero_horizon_rejected(self, bsc2, bsc2_saddles):
        with pytest.raises(ValueError):
            RunConfig(
                model=bsc2, selection=OpenLoopSelection(0, bsc2_saddles),
                inference=MAPInference(), horizon=0,
            )


class TestBatchParity:
    def test_batch_reproduces_scalar_episodes(self, tri3, tri3_saddles):
        # The reference replays each episode with the one-belief rule calls
        # and a belief normalized at every step, not through the chunk code.
        cfg = RunConfig(
            model=tri3, selection=ChernoffSelection(tri3_saddles),
            inference=FBarInference(tri3_saddles, 0.1), horizon=5,
            episodes=300, seed=11,
        )
        for h in (0, 2):
            _, _, _, decisions, _ = lane_run(cfg, h)
            for e in range(0, 300, 17):
                steps, want, final = normalized_replay(cfg, h, e)
                trajectory, dec, belief = run_episode(cfg, h, e)
                assert dec == want
                assert decisions[e] == (-1 if want is None else want)
                assert trajectory.steps == steps
                np.testing.assert_allclose(belief.log_rho, final, rtol=0, atol=1e-12)

    def test_a_rule_reading_probabilities_normalizes_its_own_rows(self, tri3, tri3_saddles):
        # The test softmax rule reads exp(log_rho), so a carried row would
        # change its mixture unless normalized; normalizing its own rows, it
        # runs the policy of its one-belief calls on normalized beliefs.
        selection = random_selection(np.random.default_rng(5), tri3)
        cfg = RunConfig(model=tri3, selection=selection,
                        inference=FBarInference(tri3_saddles, 0.1), horizon=8,
                        episodes=200, seed=2)
        for h in range(3):
            decisions = lane_run(cfg, h)[3]
            for e in range(200):
                steps, want, _ = normalized_replay(cfg, h, e)
                assert run_episode(cfg, h, e)[0].steps == steps
                assert decisions[e] == (-1 if want is None else want)

    def test_chunking_moves_no_decision(self, tri3, tri3_saddles, monkeypatch):
        from ahtest import engine

        cfg = RunConfig(
            model=tri3, selection=EJSGreedySelection(),
            inference=FBarInference(tri3_saddles, 0.1), horizon=6, episodes=50, seed=3,
        )
        whole = lane_run(cfg, 1)[3]
        monkeypatch.setattr(engine, "CHUNK_SIZE", 7)
        assert np.array_equal(lane_run(cfg, 1)[3], whole)


def _chernoff_fbar(model, horizon, **kw):
    saddles = saddle_points(model)
    return RunConfig(model=model, selection=ChernoffSelection(saddles),
                     inference=FBarInference(saddles, min(sp.d_star for sp in saddles) / 4),
                     horizon=horizon, **kw)


class TestTieRule:
    """One tie rule in every route: the count lattice and the Monte Carlo
    carry decide paths on an fbar threshold, and MAP ties, the same way."""

    @pytest.mark.parametrize("horizon", [15, 20, 50, 100, 200])
    def test_bsc2_exact_psi_is_one_binomial_tail_under_each_hypothesis(self, bsc2, horizon):
        # fbar declares H1 iff the count of observation 0 reaches 4N/5; a
        # path on the threshold declares, so psi is P(count < 4N/5). The
        # lattice sums one mass per count, and the channel's symmetry maps
        # H1's masses onto H2's bit for bit.
        rep = enumerate_exact(_chernoff_fbar(bsc2, horizon))
        tail = binom.cdf(4 * horizon // 5 - 1, horizon, 0.9)
        assert rep.psi[0] == rep.psi[1]
        assert rep.psi[0] == pytest.approx(tail, rel=1e-13, abs=0)

    @pytest.mark.parametrize("horizon", [300, 500])
    def test_bsc2_exact_tails_past_horizon_200_match_log_domain_sums(self, bsc2, horizon):
        # H1 is declared iff the count k of observation 0 reaches 4N/5, H2
        # iff it is at most N/5; at k = 4N/5 the margin is zero up to
        # rounding and the tie rule declares. Under H1, k ~ Binomial(N, 0.9):
        # psi(H1) = P(k < 4N/5), and gamma = P(k <= N/5) (uniform prior,
        # symmetric channel). gamma is near 1e-298 at N = 500 and underflows
        # from N = 540 on, so the reference sums in the log domain.
        def log_tail(ks):
            terms = [math.lgamma(horizon + 1) - math.lgamma(k + 1) - math.lgamma(horizon - k + 1)
                     + k * math.log(0.9) + (horizon - k) * math.log(0.1) for k in ks]
            top = max(terms)
            return top + math.log(math.fsum(math.exp(t - top) for t in terms))

        rep = enumerate_exact(_chernoff_fbar(bsc2, horizon))
        k = 4 * horizon // 5
        assert rep.psi[0] == pytest.approx(math.exp(log_tail(range(k))), rel=1e-12, abs=0)
        assert rep.gamma == pytest.approx(
            math.exp(log_tail(range(horizon - k + 1))), rel=1e-12, abs=0)

    @pytest.mark.parametrize("horizon", [25, 50])
    def test_bsc2_monte_carlo_abstains_alike_under_each_hypothesis(self, bsc2, horizon):
        episodes = 65536
        rep = monte_carlo(_chernoff_fbar(bsc2, horizon, episodes=episodes, seed=0))
        abstain = rep.decision_probs[:, 2]
        se = math.sqrt(sum(p * (1 - p) for p in abstain) / episodes)
        assert abs(abstain[0] - abstain[1]) <= 3 * se
        k = 4 * horizon // 5
        exact = binom.cdf(k - 1, horizon, 0.9) - binom.cdf(horizon - k, horizon, 0.9)
        for p in abstain:
            assert abs(p - exact) <= 3 * math.sqrt(exact * (1 - exact) / episodes)

    @pytest.mark.parametrize("name, horizon, rule", [
        ("bsc2", 25, "fbar"), ("tri3", 12, "fbar"), ("tri3", 12, "map"), ("tri3", 12, "ejs"),
    ])
    def test_batch_decisions_equal_normalized_replays(self, name, horizon, rule, request):
        model = request.getfixturevalue(name)
        config = _chernoff_fbar(model, horizon, episodes=600, seed=4)
        if rule in ("map", "ejs"):
            selection = EJSGreedySelection() if rule == "ejs" else config.selection
            inference = MAPInference() if rule == "map" else config.inference
            config = RunConfig(model=model, selection=selection, inference=inference,
                               horizon=horizon, episodes=600, seed=4)
        for h in range(model.num_hypotheses):
            decisions = lane_run(config, h)[3]
            for e in range(600):
                steps, decision, _ = normalized_replay(config, h, e)
                assert (-1 if decision is None else decision) == decisions[e]
                if e % 10 == 0:
                    assert run_episode(config, h, e)[0].steps == steps

    @given(perm=st.permutations(range(3)), obs_perm=st.permutations(range(2)),
           horizon=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_relabelling_permutes_the_exact_tri3_report(self, tri3, perm, obs_perm, horizon, seed):
        # A Dirichlet prior has no exact MAP ties, which the lowest-index
        # rule would break differently after relabelling.
        prior = np.random.default_rng(seed).dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
        prior /= prior.sum()
        perm, obs_perm = list(perm), list(obs_perm)
        base = Model(tri3.hypotheses, tri3.experiments, tri3.observations, tri3.channel, prior)
        relabelled = Model(tuple(tri3.hypotheses[i] for i in perm), tri3.experiments,
                           tuple(tri3.observations[y] for y in obs_perm),
                           tri3.channel[perm][:, :, obs_perm], prior[perm])
        a = enumerate_exact(_chernoff_fbar(base, horizon))
        b = enumerate_exact(_chernoff_fbar(relabelled, horizon))
        assert b.hypotheses == tuple(a.hypotheses[i] for i in perm)
        np.testing.assert_allclose(b.decision_probs, a.decision_probs[perm][:, perm + [3]],
                                   rtol=0, atol=1e-12)
        for field in ("psi", "phi", "jng"):
            np.testing.assert_allclose(getattr(b, field), np.array(getattr(a, field))[perm],
                                       rtol=0, atol=1e-12)
        assert b.gamma == pytest.approx(a.gamma, rel=0, abs=1e-12)


class TestMonteCarlo:
    def test_a_one_experiment_run_calls_the_selection_once_on_the_prior_row(
            self, bsc2, tri3_saddles):
        # Its experiment is always 0, so no step reads a selection; the one
        # call still runs the rule's checks.
        seen = []

        class Recording(UniformSelection):
            def batch_action_distributions(self, model, log_rho, step, horizon):
                seen.append((log_rho.tobytes(), step))
                return super().batch_action_distributions(model, log_rho, step, horizon)

        config = RunConfig(model=bsc2, selection=Recording(), inference=MAPInference(),
                           horizon=25, episodes=30, seed=2)
        monte_carlo(config)
        assert seen == [(bsc2.log_prior.tobytes(), 0)]     # the 60 rows run as one part
        with pytest.raises(ValueError, match="one saddle point per hypothesis"):
            monte_carlo(dataclasses.replace(config, selection=ChernoffSelection(tri3_saddles)))

    def test_an_unrecorded_one_experiment_run_keeps_no_outcome_rows(self, bsc2, bsc2_saddles):
        # Read as final count-state keys, a part holds 8 bytes per episode
        # and a tile of words; N bytes of outcome rows per episode would
        # alone take N * E bytes.
        horizon, episodes = 200, 32768
        config = RunConfig(model=bsc2, selection=ChernoffSelection(bsc2_saddles),
                           inference=FBarInference(bsc2_saddles, bsc2_saddles[0].d_star / 4),
                           horizon=horizon, episodes=episodes, seed=3)
        monte_carlo(dataclasses.replace(config, episodes=100))
        tracemalloc.start()
        try:
            monte_carlo(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < horizon * episodes

    def test_always_abstain(self, bsc2, bsc2_saddles):
        cfg = RunConfig(
            model=bsc2, selection=OpenLoopSelection(0, bsc2_saddles),
            inference=FixedThresholdInference(math.inf), horizon=3, episodes=500,
        )
        rep = monte_carlo(cfg)
        assert rep.psi == (1.0, 1.0)
        assert rep.phi == (0.0, 0.0)
        assert rep.gamma == 0.0
        assert rep.misclassification_count == 0

    def test_map_forced_single_step_error(self, bsc2, bsc2_saddles):
        cfg = RunConfig(
            model=bsc2, selection=OpenLoopSelection(0, bsc2_saddles),
            inference=MAPInference(), horizon=1, episodes=40_000, seed=1,
        )
        rep = monte_carlo(cfg)
        # exact single-step error is 0.1 (the channel crossover)
        for i in (0, 1):
            assert abs(rep.psi[i] - 0.1) <= 3 * rep.psi_se[i]

    def test_gamma_identity(self, tri3, tri3_saddles):
        cfg = RunConfig(
            model=tri3, selection=ChernoffSelection(tri3_saddles),
            inference=FBarInference(tri3_saddles, 0.1), horizon=4, episodes=5_000,
        )
        rep = monte_carlo(cfg)
        assembled = sum(rep.phi[i] * (1.0 - tri3.prior[i]) for i in range(3))
        assert rep.gamma == pytest.approx(assembled, abs=1e-12)

    def test_byte_identical_reports(self, tri3, tri3_saddles):
        cfg = RunConfig(
            model=tri3, selection=ChernoffSelection(tri3_saddles),
            inference=FBarInference(tri3_saddles, 0.1), horizon=4, episodes=3_000, seed=5,
        )
        a = json.dumps(monte_carlo(cfg).to_json_dict())
        b = json.dumps(monte_carlo(cfg).to_json_dict())
        assert a.encode() == b.encode()

    def test_gamma_stderr_is_zero_without_misclassification(self, bsc2, bsc2_saddles):
        # forming each lane's rate as a difference of float rates left a
        # residue of about 1e-10 here
        cfg = RunConfig(
            model=bsc2, selection=ChernoffSelection(bsc2_saddles),
            inference=FBarInference(bsc2_saddles, min(sp.d_star for sp in bsc2_saddles) / 4),
            horizon=25, episodes=2_000, seed=11,
        )
        rep = monte_carlo(cfg)
        assert rep.misclassification_count == 0
        assert rep.gamma == 0.0
        assert rep.gamma_se == 0.0

    def test_gamma_stderr_from_lane_counts(self, tri3, tri3_saddles):
        cfg = RunConfig(
            model=tri3, selection=ChernoffSelection(tri3_saddles),
            inference=FBarInference(tri3_saddles, 0.1), horizon=12, episodes=2_000, seed=11,
        )
        rep = monte_carlo(cfg)
        e = cfg.episodes
        counts = np.rint(rep.decision_probs * e).astype(int)
        lane = [int(counts[h].sum() - counts[h, h] - counts[h, 3]) for h in range(3)]
        assert sum(lane) == rep.misclassification_count > 0
        rates = [c / e for c in lane]
        expected = math.sqrt(sum(
            tri3.prior[h] ** 2 * rates[h] * (1 - rates[h]) / (e - 1) for h in range(3)
        ))
        assert rep.gamma_se == pytest.approx(expected, rel=1e-14, abs=0)
        # psi's and phi's plug-in binomial SEs, phi's mixed as phi mixes the lane rates
        for i in range(3):
            miss = 1 - counts[i, i] / e
            assert rep.psi_se[i] == pytest.approx(
                math.sqrt(miss * (1 - miss) / (e - 1)), rel=1e-14, abs=0)
            declared = [counts[h, i] / e for h in range(3)]
            expected = math.sqrt(sum(
                (tri3.prior[h] / (1 - tri3.prior[i])) ** 2 * declared[h] * (1 - declared[h])
                / (e - 1) for h in range(3) if h != i
            ))
            assert rep.phi_se[i] == pytest.approx(expected, rel=1e-14, abs=0)

    def test_jng_and_stderr_from_replayed_episodes(self, tri3, tri3_saddles):
        # every episode replayed, its gain from the rival-sum identity rather
        # than the confidence levels the run subtracts
        cfg = RunConfig(
            model=tri3, selection=ChernoffSelection(tri3_saddles),
            inference=FBarInference(tri3_saddles, 0.1), horizon=6, episodes=300, seed=11,
        )
        rep = monte_carlo(cfg)
        for h in range(3):
            gains = np.array([
                confidence_increment(tri3, Belief(tri3.log_prior), run_episode(cfg, h, e)[0], h)
                for e in range(cfg.episodes)
            ])
            assert rep.jng[h] == pytest.approx(gains.mean() / cfg.horizon, rel=1e-12, abs=0)
            assert rep.jng_se[h] == pytest.approx(
                gains.std(ddof=1) / math.sqrt(cfg.episodes) / cfg.horizon, rel=1e-9, abs=0)

    @pytest.mark.parametrize("seed", [-1, 2**48])
    def test_seed_outside_key_field_rejected(self, bsc2, bsc2_saddles, seed):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(
                model=bsc2, selection=OpenLoopSelection(0, bsc2_saddles),
                inference=MAPInference(), horizon=2, episodes=10, seed=seed,
            )

    @pytest.mark.parametrize("seed", [0, 2**48 - 1, np.int64(2**48 - 1)])
    def test_seed_key_field_edges_accepted(self, bsc2, bsc2_saddles, seed):
        cfg = RunConfig(
            model=bsc2, selection=OpenLoopSelection(0, bsc2_saddles),
            inference=MAPInference(), horizon=2, episodes=10, seed=seed,
        )
        assert type(cfg.seed) is int and cfg.seed == seed
        assert monte_carlo(cfg).episodes == 10

    @pytest.mark.parametrize("episodes", [1, 2])
    def test_estimates_are_floats_and_stderrs_need_two_episodes(self, tri3, episodes):
        cfg = RunConfig(
            model=tri3, selection=UniformSelection(), inference=MAPInference(),
            horizon=2, episodes=episodes, seed=0,
        )
        rep = monte_carlo(cfg)
        for values in (rep.psi, rep.phi, rep.jng):
            assert [type(v) for v in values] == [float] * 3
        assert type(rep.gamma) is float
        stderrs = [*rep.psi_se, *rep.phi_se, *rep.jng_se, rep.gamma_se]
        if episodes == 1:
            assert stderrs == [None] * 10
        else:
            assert all(type(v) is float for v in stderrs)

    def test_missing_episode_count_rejected(self, bsc2, bsc2_saddles):
        cfg = RunConfig(
            model=bsc2, selection=OpenLoopSelection(0, bsc2_saddles),
            inference=MAPInference(), horizon=2,
        )
        with pytest.raises(ValueError):
            monte_carlo(cfg)

    # A part holds its outcomes as one byte per step and row, and a run
    # reduces each chunk as it finishes, so the peak allocation depends on
    # neither the horizon's float rows nor the episode count.
    @pytest.mark.parametrize("horizon, episodes", [(200, 33000), (25, 300000)])
    def test_peak_allocation_stays_small(self, bsc2, horizon, episodes):
        import tracemalloc

        cfg = _chernoff_fbar(bsc2, horizon, episodes=episodes, seed=1)
        tracemalloc.start()
        try:
            monte_carlo(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestEnumerateExact:
    def test_vacuous_p2_threshold_always_decides(self, bsc2, bsc2_saddles):
        rule = P2Inference(0, bsc2_saddles[0], EpsilonSchedule("half-inverse"))
        cfg = RunConfig(
            model=bsc2, selection=OpenLoopSelection(0, bsc2_saddles),
            inference=rule, horizon=1,
        )
        assert rule.threshold(bsc2, 1) < 0.0
        rep = enumerate_exact(cfg)
        assert rep.phi[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.psi[0] == pytest.approx(0.0, abs=1e-12)

    def test_bsc2_fbar_hand_enumeration(self, bsc2, bsc2_saddles):
        cfg = RunConfig(
            model=bsc2, selection=OpenLoopSelection(0, bsc2_saddles),
            inference=FBarInference(bsc2_saddles, 0.4), horizon=3,
        )
        rep = enumerate_exact(cfg)
        # decide 1 only on observations (0,0,0); decide 2 only on (1,1,1)
        assert rep.phi[0] == pytest.approx(0.1**3, abs=1e-12)
        assert rep.psi[0] == pytest.approx(1 - 0.9**3, abs=1e-12)
        assert rep.gamma == pytest.approx(0.001, abs=1e-12)
        assert rep.paths == 8

    def test_path_mass_conservation(self, tri3, tri3_saddles):
        cfg = RunConfig(
            model=tri3, selection=UniformSelection(),
            inference=MAPInference(), horizon=4,
        )
        rep = enumerate_exact(cfg)
        np.testing.assert_allclose(rep.decision_probs.sum(axis=1), 1.0, atol=1e-9)

    def test_budget_enforced(self, tri3, tri3_saddles):
        # The budget bounds the last level's C(N + 3, 3) states: 10 039 316
        # at N = 390, the first horizon over 10^7. It is refused at once.
        cfg = RunConfig(
            model=tri3, selection=UniformSelection(), inference=MAPInference(),
            horizon=390,
        )
        with pytest.raises(EnumerationBudgetError, match="budget"):
            enumerate_exact(cfg)

    def test_bsc2_lattice_reaches_horizon_200(self, bsc2):
        import time

        start = time.perf_counter()
        rep = enumerate_exact(_chernoff_fbar(bsc2, 200))
        assert time.perf_counter() - start < 1.0
        assert rep.paths == 2**200

    def test_memory_stays_flat_in_the_horizon(self, tri3, tri3_saddles):
        # The lattice holds one level of C(N + 3, 3) states (220 here), so
        # its peak allocation is far below the 262144 leaves of the tree.
        import tracemalloc

        cfg = RunConfig(
            model=tri3, selection=ChernoffSelection(tri3_saddles),
            inference=FBarInference(tri3_saddles, min(sp.d_star for sp in tri3_saddles) / 4.0),
            horizon=9,
        )
        tracemalloc.start()
        try:
            assert enumerate_exact(cfg).paths == 4**9
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_monte_carlo_agrees_with_enumeration(self, bsc2, tri3, bsc2_saddles, tri3_saddles):
        for model, saddles in ((bsc2, bsc2_saddles), (tri3, tri3_saddles)):
            delta = min(sp.d_star for sp in saddles) / 4
            kw = dict(
                model=model, selection=ChernoffSelection(saddles),
                inference=FBarInference(saddles, delta), horizon=4,
            )
            exact = enumerate_exact(RunConfig(**kw))
            mc = monte_carlo(RunConfig(episodes=20_000, seed=3, **kw))
            m = model.num_hypotheses
            for i in range(m):
                se = max(mc.psi_se[i], math.sqrt(exact.psi[i] * (1 - exact.psi[i]) / 20_000), 1e-9)
                assert abs(mc.psi[i] - exact.psi[i]) <= 3 * se
                sej = max(mc.jng_se[i], 1e-9)
                assert abs(mc.jng[i] - exact.jng[i]) <= 3 * sej


class TestJng:
    def test_single_step_openloop(self, bsc2, bsc2_saddles):
        cfg = RunConfig(
            model=bsc2, selection=OpenLoopSelection(0, bsc2_saddles),
            inference=MAPInference(), horizon=1,
        )
        jng = enumerate_exact(cfg).jng
        assert jng[0] == pytest.approx(0.8 * math.log(9), abs=1e-12)

    def test_jng_agrees_with_increment_fold(self, tri3, tri3_saddles):
        # second route: average the trajectory-wise confidence increments
        from ahtest.engine import walk_paths

        sel = ChernoffSelection(tri3_saddles)
        cfg = RunConfig(model=tri3, selection=sel, inference=MAPInference(), horizon=3)
        exact = enumerate_exact(cfg)

        level = walk_paths(tri3, sel, 3)
        rho = np.exp(engine._state_rows(tri3, level.counts.T))
        inc = np.log(rho / (1 - rho)) - np.log(tri3.prior / (1 - tri3.prior))
        total = (np.exp(level.log_mass) * inc).sum(axis=0)
        np.testing.assert_allclose(np.array(exact.jng), total / 3, atol=1e-9)


class TestLastLevel:
    def test_tri3_ejs_last_level_dead_states_included(self, tri3):
        from ahtest.engine import walk_paths

        config = dataclasses.replace(_chernoff_fbar(tri3, 8), selection=EJSGreedySelection())
        level = walk_paths(tri3, config.selection, 8)
        states = math.comb(8 + 3, 3)                   # K = 2 experiments x 2 observations
        assert level.counts.shape == (states, 4)
        rows = engine._state_rows(tri3, level.counts.T)
        assert level.log_mass.shape == rows.shape == (states, 3)
        assert np.all(level.counts.sum(axis=1) == 8)
        assert len({tuple(c) for c in level.counts.tolist()}) == states
        dead = np.isneginf(level.log_mass)
        assert dead.any() and not dead.all(axis=0).any()
        np.testing.assert_allclose(np.logaddexp.reduce(level.log_mass, axis=0), 0.0,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.logaddexp.reduce(rows, axis=1), 0.0,
                                   rtol=0, atol=1e-12)
        assert int(level) == level.paths == enumerate_exact(config).paths
        with pytest.raises(dataclasses.FrozenInstanceError):
            level.paths = 0


class TestPathCountWidth:
    """Path counts are int64 while K^n < 2^62 and Python ints after: exact on
    both sides of the switch (bsc2 switches at level 62, tri3 at level 31)."""

    @pytest.mark.parametrize("name, horizon", [("bsc2", n) for n in range(61, 65)]
                             + [("tri3", n) for n in range(30, 34)])
    def test_uniform_counts_every_path(self, name, horizon, request):
        model = request.getfixturevalue(name)
        paths = enumerate_exact(RunConfig(model=model, selection=UniformSelection(),
                                          inference=MAPInference(), horizon=horizon)).paths
        assert type(paths) is int
        assert paths == (model.num_experiments * model.num_observations) ** horizon

    @pytest.mark.parametrize("horizon", [32, 33])
    def test_chernoff_counts_match_a_python_int_forward_count(self, tri3, tri3_saddles, horizon):
        selection = ChernoffSelection(tri3_saddles)
        lc_uy = np.moveaxis(tri3.log_channel, 0, 2).reshape(-1, tri3.num_hypotheses)
        n_out, n_obs = len(lc_uy), tri3.num_observations
        level = {(0,) * n_out: 1}            # reachable count vector -> its paths
        for n in range(horizon):
            states = list(level)
            counts = np.array(states)
            # The engine's rows: log-likelihoods added in outcome order.
            rows = np.log(tri3.prior) + functools.reduce(
                operator.add, [counts[:, k:k + 1] * lc_uy[k] for k in range(n_out)])
            dist = selection.batch_action_distributions(tri3, rows, n, horizon)
            children = {}
            for state, d in zip(states, dist):
                for k in range(n_out):
                    if d[k // n_obs] > 0.0:
                        child = state[:k] + (state[k] + 1,) + state[k + 1:]
                        children[child] = children.get(child, 0) + level[state]
            level = children
        paths = enumerate_exact(RunConfig(model=tri3, selection=selection,
                                          inference=MAPInference(), horizon=horizon)).paths
        assert type(paths) is int and paths == sum(level.values())


class TestLiveStates:
    """The count lattice calls the selection on the states that some path of
    positive probability reaches, each once, and on no other state."""

    @pytest.mark.parametrize("rule", ["ejs", "ecr", "chernoff"])
    def test_selection_sees_exactly_the_live_rows(self, tri3, tri3_saddles, rule):
        inner = {"ejs": EJSGreedySelection(), "ecr": ECRLookaheadSelection(2),
                 "chernoff": ChernoffSelection(tri3_saddles)}[rule]
        horizon = 8
        seen = {}

        class Recording(SelectionStrategy):
            def batch_action_distributions(self, model, log_rho, step, horizon):
                seen.setdefault(step, []).extend(row.tobytes() for row in log_rho)
                return inner.batch_action_distributions(model, log_rho, step, horizon)

        report = enumerate_exact(RunConfig(model=tri3, selection=Recording(),
                                           inference=MAPInference(), horizon=horizon))
        assert report.to_json_dict() == enumerate_exact(RunConfig(
            model=tri3, selection=inner, inference=MAPInference(), horizon=horizon)).to_json_dict()
        lc_uy = np.moveaxis(tri3.log_channel, 0, 2).reshape(-1, tri3.num_hypotheses)
        n_out, n_obs = len(lc_uy), tri3.num_observations
        level = {(0,) * n_out}                 # count vectors a positive path reaches
        dead = 0
        for n in range(horizon):
            states = sorted(level)
            counts = np.array(states)
            # The engine's rows: log-likelihoods added in outcome order.
            rows = np.log(tri3.prior) + functools.reduce(
                operator.add, [counts[:, k:k + 1] * lc_uy[k] for k in range(n_out)])
            assert sorted(seen[n]) == sorted(row.tobytes() for row in rows), n
            dead += math.comb(n + n_out - 1, n_out - 1) - len(states)
            dist = inner.batch_action_distributions(tri3, rows, n, horizon)
            level = {state[:k] + (state[k] + 1,) + state[k + 1:]
                     for state, d in zip(states, dist)
                     for k in range(n_out) if d[k // n_obs] > 0.0}
        # the one-hot rules leave states no path reaches; chernoff's mixtures do not
        assert (dead > 0) == (rule != "chernoff")


class TestEnumeratedInequalities:
    """The identities and bounds certified by exact enumeration at desk scale."""

    def test_conditional_expectation_identity(self, tri3, tri3_saddles):
        rng = np.random.default_rng(21)
        strategies = [
            ChernoffSelection(tri3_saddles),
            UniformSelection(),
            EJSGreedySelection(),
            random_selection(rng, tri3),
        ]
        for sel in strategies:
            cfg = RunConfig(model=tri3, selection=sel, inference=MAPInference(), horizon=4)
            lam_exp, kl_exp = enumerate_pair_expectations(cfg)
            np.testing.assert_allclose(lam_exp, kl_exp, atol=1e-9)

    def test_confidence_rate_bound(self, tri3, tri3_saddles):
        # J(i) <= D*(i) - sum_j beta*(j) log(rho1(j)/(1-rho1(i))) / N
        rng = np.random.default_rng(25)
        for sel in (ChernoffSelection(tri3_saddles), UniformSelection(),
                    random_selection(rng, tri3)):
            for n in (1, 3, 5):
                cfg = RunConfig(model=tri3, selection=sel, inference=MAPInference(), horizon=n)
                rep = enumerate_exact(cfg)
                for i, sp in enumerate(tri3_saddles):
                    rho = tri3.prior
                    log_tilde = np.log(np.delete(rho, i) / (1 - rho[i]))
                    bound = sp.d_star - float(np.dot(sp.beta_star, log_tilde)) / n
                    assert rep.jng[i] <= bound + 1e-9

    def test_threshold_misclassification_bound(self, bsc2, tri3, bsc2_saddles, tri3_saddles):
        for model, saddles in ((bsc2, bsc2_saddles), (tri3, tri3_saddles)):
            for theta in (0.5, 2.0):
                cfg = RunConfig(
                    model=model, selection=ChernoffSelection(saddles),
                    inference=FixedThresholdInference(theta), horizon=4,
                )
                rep = enumerate_exact(cfg)
                for i in range(model.num_hypotheses):
                    assert rep.phi[i] <= math.exp(-theta) + 1e-12

    def test_converse_rate_inequality(self, tri3, tri3_saddles):
        # with eps set to the exact psi, the rate of phi is capped by
        # J + 2 B eps/(1-eps) - log(1-eps)/N
        b = tri3.lambda_bound
        rng = np.random.default_rng(27)
        for sel in (ChernoffSelection(tri3_saddles), random_selection(rng, tri3)):
            for n in (2, 4):
                cfg = RunConfig(model=tri3, selection=sel, inference=MAPInference(), horizon=n)
                rep = enumerate_exact(cfg)
                for i in range(3):
                    eps = rep.psi[i]
                    if not (0.0 < eps < 1.0) or rep.phi[i] <= 0.0:
                        continue
                    lhs = -math.log(rep.phi[i]) / n
                    rhs = rep.jng[i] + 2 * b * eps / (1 - eps) - math.log(1 - eps) / n
                    assert lhs <= rhs + 1e-9


# Throwaway reports with fields the schema has not seen: one plain, one that
# nests under stderr, and one limited to a mode.
@dataclasses.dataclass(frozen=True)
class _ExtendedRunReport(engine.RunReport):
    log_gamma: float = 0.0
    log_gamma_se: float = dataclasses.field(default=0.0, metadata={"json": "stderr.log_gamma"})
    tail_paths: int = dataclasses.field(default=0, metadata={"modes": ("exact",)})


@dataclasses.dataclass(frozen=True)
class _ExtendedBoundReport(BoundReport):
    log_upper: float = dataclasses.field(default=0.0, metadata={"json": "log_upper_bound"})


def _extended(cls, report, **extra):
    return cls(**{f.name: getattr(report, f.name) for f in dataclasses.fields(report)}, **extra)


class TestReportSchema:
    """A report's JSON and CSV are read from its dataclass fields and the
    column tables: a new field needs no other edit to reach the JSON, and
    reaches the CSV only through its table."""

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_a_new_run_report_field_appears_at_its_position_in_its_modes(self, bsc2, mode):
        base = (enumerate_exact if mode == "exact" else monte_carlo)(
            _chernoff_fbar(bsc2, 3, **({"episodes": 40, "seed": 1} if mode == "mc" else {})))
        report = _extended(_ExtendedRunReport, base, log_gamma=-6.9, log_gamma_se=0.25,
                           tail_paths=2**70)
        doc, base_doc = report.to_json_dict(), base.to_json_dict()
        tail = ["log_gamma", "tail_paths"] if mode == "exact" else ["log_gamma"]
        assert list(doc) == list(base_doc) + tail
        assert list(doc["stderr"]) == list(base_doc["stderr"]) + ["log_gamma"]
        assert (doc["log_gamma"], doc["stderr"]["log_gamma"]) == (-6.9, 0.25)
        # the CSV moves only once its table lists the fields
        assert engine.csv_text(engine.RUN_CSV, [doc]) == engine.csv_text(engine.RUN_CSV, [base_doc])
        columns = {**engine.RUN_CSV, "log_gamma": "log_gamma",
                   "log_gamma_stderr": "stderr.log_gamma", "tail_paths": "tail_paths"}
        header, row = engine.csv_text(columns, [doc]).splitlines()
        base_header, base_row = engine.csv_text(engine.RUN_CSV, [base_doc]).splitlines()
        assert header == base_header + ",log_gamma,log_gamma_stderr,tail_paths"
        assert row == base_row + ",-6.9,0.25," + (str(2**70) if mode == "exact" else "")
        # and no other key moves
        del doc["stderr"]["log_gamma"]
        assert {k: doc[k] for k in base_doc} == base_doc

    def test_a_new_bound_report_field_appears_under_its_key(self, bsc2, bsc2_saddles):
        from ahtest.bounds import BOUND_CSV

        run = enumerate_exact(_chernoff_fbar(bsc2, 3))
        base = bound_report(bsc2, bsc2_saddles, run, 1 / 6, 0.4)
        doc = _extended(_ExtendedBoundReport, base, log_upper=-2.5).to_json_dict()
        base_doc = base.to_json_dict()
        assert list(doc) == list(base_doc) + ["log_upper_bound"]
        assert doc["log_upper_bound"] == -2.5
        assert engine.csv_text(BOUND_CSV, [doc]) == engine.csv_text(BOUND_CSV, [base_doc])
        text = engine.csv_text({**BOUND_CSV, "log_upper_bound": "log_upper_bound"}, [doc, doc])
        assert text.splitlines()[0].endswith(",feasible,log_upper_bound")
        assert [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]] == ["-2.5", "-2.5"]

    @pytest.mark.parametrize("value, cell", [
        (None, ""),
        (True, "true"),
        (False, "false"),
        (1208925819614629174706176, "1208925819614629174706176"),   # paths of tri3 at N=40
        (0.1, "0.1"),
        (np.float64(2.5e-310), "2.5e-310"),
        (np.float64(0.0), "0.0"),
        ("exact", "exact"),
    ])
    def test_cell_rule(self, value, cell):
        assert engine.csv_cell(value) == cell


def _perfbench_module(name):
    """perfbench/<name>.py, imported from its file; importing it runs nothing.
    Its dataclasses look their module up in sys.modules, so it goes there."""
    import importlib.util
    import sys

    from conftest import REPO_ROOT

    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fbar_report(model, rule, horizon):
    """Exact report of chernoff/fbar or ejs/fbar with delta = min D* / 4."""
    config = _chernoff_fbar(model, horizon)
    if rule == "ejs":
        config = dataclasses.replace(config, selection=EJSGreedySelection())
    return enumerate_exact(config)


def _assert_same_report(a, b):
    """Every figure of two exact reports agrees within 1e-12 relative."""
    assert b.paths == a.paths
    np.testing.assert_allclose(b.decision_probs, a.decision_probs, rtol=1e-12, atol=0)
    for field in ("psi", "phi", "jng"):
        np.testing.assert_allclose(getattr(b, field), getattr(a, field), rtol=1e-12, atol=0)
    assert b.gamma == pytest.approx(a.gamma, rel=1e-12, abs=0)


def _tri3_permutations(xfail, also=""):
    """The permutations of tri3's hypotheses, those in xfail marked strict."""
    reason = ("the lowest-index MAP tie at tri3's uniform prior picks hypothesis 0's "
              "alpha*, so the exact report moves" + also)
    mark = pytest.mark.xfail(strict=True, reason=reason)
    return [pytest.param(list(perm), id="".join(map(str, perm)), marks=[mark] if perm in xfail else [])
            for perm in itertools.permutations(range(3))]


def _final_states(config, episodes):
    """The first `episodes` episodes of every lane stepped in one chunk by
    the run's chunk code: (true_h, decisions, gains, final log-beliefs, final
    outcome counts (K, rows)), the counts read off the recorded steps. The
    chunk run without record has the same decisions and gains."""
    model, horizon = config.model, config.horizon
    blocks = [_uniform_block(config.seed, h, 0, episodes, horizon, model.channel[h])
              for h in range(model.num_hypotheses)]
    act = None if blocks[0][0] is None else np.concatenate([a for a, _ in blocks], axis=1)
    true_h = np.repeat(np.arange(model.num_hypotheses), episodes)
    args = (model, config.selection, config.inference, horizon, true_h, act,
            np.concatenate([o for _, o in blocks], axis=2))
    decisions, gains, (path, steps) = engine._run_chunk(*args, record=True)
    unrecorded, unrecorded_gains, _ = engine._run_chunk(*args)
    assert np.array_equal(unrecorded, decisions) and unrecorded_gains.tobytes() == gains.tobytes()
    outcome = steps[..., 0] * model.num_observations + steps[..., 1]
    counts = (outcome[..., None] == np.arange(model.channel[0].size)).sum(axis=1).T
    return true_h, decisions, gains, path[:, -1], counts


def _one_experiment_model(rng, m_hyp, n_obs) -> Model:
    """A random (M, 1, Y) model whose rows are either full-support Dirichlet
    draws or dyadic masses on a random support with 1e-300 elsewhere. 1e-300
    adds nothing to a running sum, so such a row repeats sample_categorical's
    edges (an outcome never drawn, as for a zero entry), and its running sum
    reaches 1 exactly at the support's last column, dropping every edge after."""
    while True:
        rows = []
        for _ in range(m_hyp):
            if rng.random() < 0.3:
                rows.append(rng.dirichlet(np.ones(n_obs)))
                continue
            support = rng.choice(n_obs, size=rng.integers(1, n_obs + 1), replace=False)
            row = np.full(n_obs, 1e-300)
            row[support] = (rng.multinomial(64 - support.size, np.ones(support.size) / support.size)
                            + 1) / 64
            rows.append(row)
        if len({row.tobytes() for row in rows}) == m_hyp:
            break
    return Model(hypotheses=tuple(f"h{k}" for k in range(m_hyp)), experiments=("u0",),
                 observations=tuple(f"y{k}" for k in range(n_obs)),
                 channel=np.array(rows)[:, None, :], prior=rng.dirichlet(np.ones(m_hyp)) * 0.9 + 0.1 / m_hyp)


def _assert_count_keys_route_is_the_step_route(config, label):
    """An unrecorded one-experiment run, which reads final count-state keys
    straight off the words, counts and sums exactly as the recorded run, which
    steps the outcome rows: decision counts and both gain sums, bit for bit."""
    lanes = range(config.model.num_hypotheses)
    read = engine._simulate_lanes(config, lanes)
    stepped = engine._simulate_lanes(config, lanes, record=True)
    assert read[3] is None and stepped[3] is not None, label
    assert np.array_equal(read[0], stepped[0]), label
    for r, s in zip(read[1:3], stepped[1:3]):
        assert r.tobytes() == s.tobytes(), label


def _built_in_pairs(model, saddles):
    """(selection spec, rule, inference spec, rule) of every built-in rule
    pair, each hypothesis of openloop and p2, and ecr at k = 2."""
    from ahtest.cli import INFERENCE_RULES, SELECTION_RULES, parse_inference, parse_selection

    ids = [str(i) for i in range(1, model.num_hypotheses + 1)]
    selections = ["chernoff", "uniform", "ejs", "ecr:k=2"] + [f"openloop:i={i}" for i in ids]
    inferences = ["fbar", "map"] + [f"p2:i={i}" for i in ids]
    assert {spec.partition(":")[0] for spec in selections} == set(SELECTION_RULES)
    assert {spec.partition(":")[0] for spec in inferences} == set(INFERENCE_RULES)
    delta = min(sp.d_star for sp in saddles) / 4
    return [(sel, parse_selection(sel, model, saddles), inf,
             parse_inference(inf, model, saddles, EpsilonSchedule(), delta))
            for sel in selections for inf in inferences]


def _assert_episodes_end_on_the_lattice(config, episodes, label):
    """Every episode's final count state is a live lattice state, and its
    decision, gain and final log-belief are that state's, bit for bit."""
    model, horizon = config.model, config.horizon
    true_h, decisions, gains, final, counts = _final_states(config, episodes)
    level = engine.walk_paths(model, config.selection, horizon)
    rows = engine._state_rows(model, level.counts.T)
    state = {c: s for s, c in enumerate(map(tuple, level.counts.tolist()))}
    at = np.array([state[c] for c in map(tuple, counts.T.tolist())])
    assert np.all(np.isfinite(level.log_mass[at, true_h])), label
    assert np.array_equal(decisions, config.inference.batch_decide(model, rows, horizon)[at]), label
    lattice_gains = (bllr_matrix(rows) - model.prior_confidence)[at, true_h]
    assert gains.tobytes() == lattice_gains.tobytes(), label
    assert final.tobytes() == rows[at].tobytes(), label


def _assert_steps_select_as_the_lattice(config, episodes, label, lattice=True):
    """Every Monte Carlo step's experiment distribution is, bit for bit, the
    one the rule gives the lattice's row for the episode's count state: the
    lattice level's own, or with lattice False, the row built on its own."""
    model, horizon = config.model, config.horizon
    seen, real = [], engine.sample_categorical
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "sample_categorical", lambda d, r: seen.append(np.array(d)) or real(d, r))
        counts = step_counts(config, episodes)
    if lattice:
        recorder = RecordingSelection(config.selection)
        engine.walk_paths(model, recorder, horizon)
        levels = [{row.tobytes(): d for row, d in zip(*call)} for call in recorder.calls]
    assert len(seen) == horizon, label
    for n in range(horizon):
        rows = engine._count_rows(model, counts[n])
        want = (np.array([levels[n][row.tobytes()] for row in rows]) if lattice
                else config.selection.batch_action_distributions(model, rows, n, horizon))
        assert seen[n].tobytes() == want.tobytes(), (label, n)


class TestRouteAgreement:
    """Exact results do not depend on the route that computes them."""

    @pytest.mark.parametrize("rule", ["chernoff", "ejs"])
    def test_lattice_agrees_with_the_reference_lattice(self, tri3, tri3_saddles, rule):
        ref = _perfbench_module("reference")
        d_star = np.array([sp.d_star for sp in tri3_saddles])
        alpha = np.array([sp.alpha_star for sp in tri3_saddles])
        lat = ref.lattice(tri3.channel, tri3.prior, rule, 8, d_star, alpha)
        assert lat.near_boundary == 0
        selection = ChernoffSelection(tri3_saddles) if rule == "chernoff" else EJSGreedySelection()
        rep = enumerate_exact(RunConfig(
            model=tri3, selection=selection,
            inference=FBarInference(tri3_saddles, float(d_star.min()) / 4), horizon=8))
        np.testing.assert_allclose(rep.decision_probs, lat.decision_probs, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rep.jng, lat.jng, rtol=0, atol=1e-14)

    @given(shape=st.sampled_from([(2, 1, 3), (3, 2, 2), (4, 2, 3)]), horizon=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_permuting_hypotheses_permutes_the_exact_report(self, shape, horizon, seed, data):
        from conftest import SoftmaxSelection

        m = shape[0]
        perm = data.draw(st.permutations(range(m)))
        rng = np.random.default_rng(seed)
        model = random_model(rng, *shape)
        selection = random_selection(rng, model)
        permuted = Model(tuple(model.hypotheses[i] for i in perm), model.experiments,
                         model.observations, model.channel[perm], model.prior[perm])
        a = enumerate_exact(RunConfig(model=model, selection=selection,
                                      inference=MAPInference(), horizon=horizon))
        b = enumerate_exact(RunConfig(
            model=permuted, selection=SoftmaxSelection(selection.weights[:, perm], selection.bias),
            inference=MAPInference(), horizon=horizon))
        assert b.paths == a.paths
        np.testing.assert_allclose(b.decision_probs, a.decision_probs[perm][:, perm + [m]],
                                   rtol=1e-13, atol=1e-16)
        for field in ("psi", "phi", "jng"):
            np.testing.assert_allclose(getattr(b, field), np.array(getattr(a, field))[perm],
                                       rtol=1e-13, atol=1e-16)
        assert b.gamma == pytest.approx(a.gamma, rel=1e-13, abs=1e-16)

    def test_relabelling_experiments_keeps_the_exact_tri3_chernoff_report(self, tri3):
        _assert_same_report(_fbar_report(tri3, "chernoff", 8),
                            _fbar_report(relabel(tri3, [0, 1, 2], [1, 0]), "chernoff", 8))

    @pytest.mark.parametrize("rule", ["chernoff", "ejs"])
    @settings(max_examples=8)
    @given(horizon=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_relabelling_experiments_keeps_the_exact_tri3_report(self, tri3, rule, horizon, seed):
        # A Dirichlet prior leaves no exact MAP or ejs score ties, which the
        # lowest-index rules would break differently after relabelling. (The
        # uniform prior ties ejs's two experiments at the root.)
        prior = np.random.default_rng(seed).dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
        prior /= prior.sum()
        base = Model(tri3.hypotheses, tri3.experiments, tri3.observations, tri3.channel, prior)
        _assert_same_report(_fbar_report(base, rule, horizon),
                            _fbar_report(relabel(base, [0, 1, 2], [1, 0]), rule, horizon))

    @pytest.mark.parametrize("rule", ["chernoff", "ejs"])
    @settings(max_examples=15)
    @given(shape=st.sampled_from([(2, 2, 3), (3, 2, 2), (3, 3, 2), (4, 3, 3), (3, 4, 2)]),
           horizon=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_relabelling_experiments_keeps_the_exact_report(self, rule, shape, horizon, seed):
        # Random channels and priors have no exact score ties almost surely.
        rng = np.random.default_rng(seed)
        model = random_model(rng, *shape)
        exp_perm = rng.permutation(shape[1])
        _assert_same_report(_fbar_report(model, rule, horizon),
                            _fbar_report(relabel(model, np.arange(shape[0]), exp_perm), rule, horizon))

    @pytest.mark.parametrize("perm", _tri3_permutations(
        xfail=((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))))
    def test_permuting_hypotheses_permutes_the_exact_tri3_report(self, tri3, perm):
        a = enumerate_exact(_chernoff_fbar(tri3, 12))
        b = enumerate_exact(_chernoff_fbar(relabel(tri3, perm, [0, 1]), 12))
        assert b.hypotheses == tuple(a.hypotheses[i] for i in perm) and b.paths == a.paths
        np.testing.assert_allclose(b.decision_probs, a.decision_probs[perm][:, perm + [3]],
                                   rtol=1e-13, atol=0)
        for field in ("psi", "phi", "jng"):
            np.testing.assert_allclose(getattr(b, field), np.array(getattr(a, field))[perm],
                                       rtol=1e-13, atol=0)
        assert b.gamma == pytest.approx(a.gamma, rel=1e-13, abs=0)

    # The exact leg above is the defect's guard. At seed 1 and 20 000
    # episodes this leg misses by more than 3 se only where it is marked.
    @pytest.mark.parametrize("perm", _tri3_permutations(
        xfail=((2, 0, 1), (2, 1, 0)), also=", and this leg misses at seed 1"))
    def test_permuting_hypotheses_permutes_the_monte_carlo_report(self, tri3, perm):
        # Lanes are keyed by hypothesis index, so the permuted run reads other
        # streams; the standard errors of the difference are those the two
        # estimates have if the exact values hold.
        horizon, episodes = 12, 20_000
        exact = enumerate_exact(_chernoff_fbar(tri3, horizon))
        a = monte_carlo(_chernoff_fbar(tri3, horizon, episodes=episodes, seed=1))
        b = monte_carlo(_chernoff_fbar(relabel(tri3, perm, [0, 1]), horizon,
                                       episodes=episodes, seed=1))
        dm = exact.decision_probs
        w = tri3.prior[:, None] / (1.0 - tri3.prior[None, :])
        for k, i in enumerate(perm):
            psi_se = math.sqrt(2 * exact.psi[i] * (1 - exact.psi[i]) / episodes)
            phi_se = math.sqrt(2 * sum(w[h, i] ** 2 * dm[h, i] * (1 - dm[h, i])
                                       for h in range(3) if h != i) / episodes)
            assert abs(b.psi[k] - a.psi[i]) <= 3 * psi_se
            assert abs(b.phi[k] - a.phi[i]) <= 3 * phi_se
            assert abs(b.jng[k] - a.jng[i]) <= 3 * math.hypot(a.jng_se[i], b.jng_se[k])

    @pytest.mark.parametrize("name, horizon", [("bsc2", 50), ("tri3", 25)])
    def test_exact_and_monte_carlo_agree_within_3_se(self, name, horizon, request):
        model = request.getfixturevalue(name)
        episodes = 20_000
        exact = enumerate_exact(_chernoff_fbar(model, horizon))
        mc = monte_carlo(_chernoff_fbar(model, horizon, episodes=episodes, seed=1))
        # The standard errors the estimates have if the exact values hold.
        dm = exact.decision_probs
        w = model.prior[:, None] / (1.0 - model.prior[None, :])
        for i in range(model.num_hypotheses):
            psi_se = math.sqrt(exact.psi[i] * (1 - exact.psi[i]) / episodes)
            phi_var = sum(w[h, i] ** 2 * dm[h, i] * (1 - dm[h, i])
                          for h in range(model.num_hypotheses) if h != i)
            assert abs(mc.psi[i] - exact.psi[i]) <= 3 * psi_se
            assert abs(mc.phi[i] - exact.phi[i]) <= 3 * math.sqrt(phi_var / episodes)
            assert abs(mc.jng[i] - exact.jng[i]) <= 3 * mc.jng_se[i]

    # One terminal for both routes: a Monte Carlo episode ends in its count
    # state and is decided and scored on the lattice's own row for it.
    @pytest.mark.parametrize("name, horizon", [("bsc2", 12), ("tri3", 12)])
    def test_each_episode_ends_on_its_lattice_state(self, name, horizon, request):
        model = request.getfixturevalue(name)
        for sel, selection, inf, inference in _built_in_pairs(model, saddle_points(model)):
            config = RunConfig(model=model, selection=selection, inference=inference,
                               horizon=horizon, seed=7)
            _assert_episodes_end_on_the_lattice(config, 400, f"{sel}/{inf}")

    @settings(max_examples=30)
    @given(shape=st.sampled_from([(2, 1, 3), (3, 2, 2), (4, 2, 3), (3, 3, 2)]),
           horizon=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           rules=st.sampled_from([("chernoff", "fbar"), ("ejs", "map"), ("random", "p2"),
                                  ("uniform", "fbar")]))
    def test_each_random_episode_ends_on_its_lattice_state(self, shape, horizon, seed, rules):
        rng = np.random.default_rng(seed)
        model = random_model(rng, *shape)
        saddles = saddle_points(model)
        selection = {"chernoff": ChernoffSelection(saddles), "ejs": EJSGreedySelection(),
                     "random": random_selection(rng, model),
                     "uniform": UniformSelection()}[rules[0]]
        inference = {"fbar": FBarInference(saddles, min(sp.d_star for sp in saddles) / 4),
                     "map": MAPInference(),
                     "p2": P2Inference(1, saddles[1], EpsilonSchedule())}[rules[1]]
        config = RunConfig(model=model, selection=selection, inference=inference,
                           horizon=horizon, seed=seed)
        _assert_episodes_end_on_the_lattice(config, 100, rules)

    def test_wide_state_keys_decide_as_their_rows_do(self):
        # 4 experiments x 4 observations at N = 20: (N + 1)^K >= 2^63, so the
        # keys are Python ints. A key past int64 would name another state.
        # The lattice is out of reach, so each row is rebuilt on its own.
        model = random_model(np.random.default_rng(16), 3, 4, 4)
        horizon, saddles = 20, saddle_points(model)
        assert (horizon + 1) ** model.channel[0].size >= 2**63
        config = RunConfig(model=model, selection=UniformSelection(),
                           inference=FBarInference(saddles, min(sp.d_star for sp in saddles) / 4),
                           horizon=horizon, seed=5)
        true_h, decisions, gains, final, counts = _final_states(config, 200)
        assert counts[-1].max() > 0     # a key of at least (N + 1)^(K - 1) > 2^63
        for r in range(len(true_h)):
            row = engine._state_rows(model, counts[:, r:r + 1])
            assert decisions[r] == config.inference.batch_decide(model, row, horizon)[0]
            gain = bllr_matrix(row)[0, true_h[r]] - model.prior_confidence[true_h[r]]
            assert gains[r].tobytes() == gain.tobytes()
            assert final[r].tobytes() == row[0].tobytes()


    def test_one_experiment_wide_keys_decide_as_their_recorded_steps_do(self):
        # 1 experiment x 9 observations at N = 200: (N + 1)^K >= 2^63, so an
        # unrecorded run reads Python-int keys off the words. An int64 tally
        # times a radix step past 2^63 / N would wrap and name another state.
        model = random_model(np.random.default_rng(16), 3, 1, 9)
        horizon, episodes, saddles = 200, 300, saddle_points(model)
        assert (horizon + 1) ** model.channel[0].size >= 2**63
        config = RunConfig(model=model, selection=UniformSelection(),
                           inference=FBarInference(saddles, min(sp.d_star for sp in saddles) / 4),
                           horizon=horizon, episodes=episodes, seed=5)
        lanes = range(model.num_hypotheses)
        _, _, _, decisions, path = engine._simulate_lanes(config, lanes, record=True)
        # the recorded episodes, decided and scored one by one on their final rows
        final, true_h = path[:, -1], np.repeat(lanes, episodes)
        assert np.array_equal(decisions, config.inference.batch_decide(model, final, horizon))
        gains = (bllr_matrix(final) - model.prior_confidence)[np.arange(true_h.size), true_h]
        cols = np.where(decisions == engine.INCONCLUSIVE, model.num_hypotheses, decisions)
        counts = np.array([np.bincount(c, minlength=model.num_hypotheses + 1)
                           for c in cols.reshape(-1, episodes)])
        assert (np.diag(counts) > episodes // 2).all()
        report = monte_carlo(config)
        assert np.array_equal(report.decision_probs, counts / episodes)
        read_counts, gain_sum, gain_sqsum, _, _ = engine._simulate_lanes(config, lanes)
        assert np.array_equal(read_counts, counts)
        for h, g in enumerate(gains.reshape(-1, episodes)):
            assert gain_sum[h].tobytes() == g.sum().tobytes()
            assert gain_sqsum[h].tobytes() == (g * g).sum().tobytes()

    @settings(max_examples=40)
    @given(n_obs=st.integers(2, 9), m_hyp=st.integers(2, 3),
           horizon=st.sampled_from([*range(1, 10), 200]), episodes=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1))
    def test_one_experiment_count_keys_equal_the_steps(self, n_obs, m_hyp, horizon, episodes,
                                                       seed):
        # Tiles of three episodes, chunks of 50 rows and parts of 8 or more:
        # most runs cross tiles, chunks and parts, and a lane boundary inside one.
        model = _one_experiment_model(np.random.default_rng(seed), m_hyp, n_obs)
        config = RunConfig(model=model, selection=UniformSelection(), inference=MAPInference(),
                           horizon=horizon, episodes=episodes, seed=seed % 2**48)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_TILE_BYTES", 3 * 32 * stream_blocks(horizon))
            mp.setattr(engine, "CHUNK_SIZE", 50)
            mp.setattr(engine, "_MIN_PART", 8)
            _assert_count_keys_route_is_the_step_route(config, (n_obs, horizon, episodes))

    @pytest.mark.parametrize("horizon, episodes", [(3, 20_000), (200, 400)])
    def test_one_experiment_count_keys_equal_the_steps_at_full_size(self, horizon, episodes):
        # Real tiles (16384 episodes at N = 3, 327 at N = 200), a real chunk
        # of 32768 rows, and at N = 3 a lane boundary at row 20000, inside
        # the chunk's last part.
        model = _one_experiment_model(np.random.default_rng(horizon), 2, 5)
        assert episodes > engine._TILE_BYTES // (32 * stream_blocks(horizon))
        config = RunConfig(model=model, selection=UniformSelection(), inference=MAPInference(),
                           horizon=horizon, episodes=episodes, seed=11)
        _assert_count_keys_route_is_the_step_route(config, horizon)

    # A scored rule selects on the lattice's own rows in both routes.
    @pytest.mark.parametrize("rule", [EJSGreedySelection(), ECRLookaheadSelection(2)],
                             ids=["ejs", "ecr:k=2"])
    def test_each_tri3_step_selects_as_its_lattice_state(self, tri3, tri3_saddles, rule):
        config = RunConfig(model=tri3, selection=rule, horizon=12, seed=7,
                           inference=FBarInference(tri3_saddles, tri3_saddles[0].d_star / 4))
        _assert_steps_select_as_the_lattice(config, 400, rule)

    @settings(max_examples=10)
    @given(shape=st.sampled_from([(3, 2, 2), (4, 2, 3), (3, 3, 2), (2, 4, 2)]),
           horizon=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           rule=st.sampled_from(["ejs", "ecr:k=2"]))
    def test_each_random_step_selects_as_its_lattice_state(self, shape, horizon, seed, rule):
        model = random_model(np.random.default_rng(seed), *shape)
        selection = EJSGreedySelection() if rule == "ejs" else ECRLookaheadSelection(2)
        config = RunConfig(model=model, selection=selection, inference=MAPInference(),
                           horizon=horizon, seed=seed)
        _assert_steps_select_as_the_lattice(config, 50, (shape, rule))

    def test_wide_state_keys_select_as_their_rows_do(self):
        # The wide-key model of the test above, under ejs: the step's states
        # are read back from Python-int keys.
        model = random_model(np.random.default_rng(16), 3, 4, 4)
        config = RunConfig(model=model, selection=EJSGreedySelection(), inference=MAPInference(),
                           horizon=20, seed=5)
        assert (20 + 1) ** model.channel[0].size >= 2**63
        _assert_steps_select_as_the_lattice(config, 50, "wide", lattice=False)


class TestTracerNames:
    """perfbench/tracing.py wraps program names by their paths; a renamed one
    would turn its per-layer metrics into nulls."""

    def test_every_traced_name_resolves(self):
        import importlib

        for module_name, attr_path, _ in _perfbench_module("tracing").TARGETS:
            owner = importlib.import_module(module_name)
            for name in attr_path.split("."):
                assert hasattr(owner, name), f"{module_name}.{attr_path} is gone"
                owner = getattr(owner, name)
            assert callable(owner)

    def test_walk_paths_returns_the_path_count_as_an_int(self, bsc2, tri3):
        from ahtest.engine import walk_paths

        level = walk_paths(bsc2, UniformSelection(), 3)
        assert int(level) == 8 and type(level.paths) is int
        # only paths of positive probability count: (UY)^N under uniform, Y^N one-hot
        assert int(walk_paths(tri3, UniformSelection(), 4)) == 4 ** 4
        level = walk_paths(tri3, EJSGreedySelection(), 4)
        assert int(level) == 2 ** 4 and type(level.paths) is int

    def test_work_counts_read_the_real_arguments(self, tri3, monkeypatch):
        # A reordered signature would leave the names resolving but turn
        # engine.episodes, engine.episode_steps and engine.enum_leaves null.
        from ahtest import engine

        def recording(fn, calls):
            def wrapper(*args, **kw):
                result = fn(*args, **kw)
                calls.append((args, result))
                return result
            return wrapper

        chunks, walks = [], []
        monkeypatch.setattr(engine, "_run_chunk", recording(engine._run_chunk, chunks))
        monkeypatch.setattr(engine, "walk_paths", recording(engine.walk_paths, walks))
        units = _perfbench_module("tracing").UNITS
        horizon, episodes = 4, 30
        monte_carlo(_chernoff_fbar(tri3, horizon, episodes=episodes, seed=3))
        exact = enumerate_exact(_chernoff_fbar(tri3, horizon))
        # every lane's rows step through one chunk; the units add up over the run
        rows = tri3.num_hypotheses * episodes
        chunk_units = [units["engine.chunk"](args, result) for args, result in chunks]
        assert tuple(map(sum, zip(*chunk_units))) == (rows, rows * horizon)
        assert [units["engine.walk"](args, result) for args, result in walks] == [(exact.paths, 0)]
