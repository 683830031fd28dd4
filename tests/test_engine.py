"""Engine behavior: reproducible episodes, Monte Carlo vs exact enumeration,
and the enumeration-certified inequalities."""

import json
import math

import numpy as np
import pytest

from ahtest import (
    Belief,
    EnumerationBudgetError,
    RunConfig,
    enumerate_exact,
    enumerate_pair_expectations,
    episode_seed,
    lambda_bound,
    monte_carlo,
    run_episode,
    saddle_points,
)
from ahtest.engine import sample_categorical, simulate_conditioned_batch
from ahtest.strategies import (
    ChernoffSelection,
    EJSGreedySelection,
    FBarInference,
    FixedThresholdInference,
    MAPInference,
    OpenLoopSelection,
    P2Inference,
    UniformSelection,
)
from ahtest.model import EpsilonSchedule

from conftest import random_model, random_selection


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

    def test_episode_seed_distinct(self):
        seen = {episode_seed(s, l, e) for s in (0, 1, 77) for l in (0, 1, 2) for e in range(50)}
        assert len(seen) == 3 * 3 * 50

    def test_episode_seed_field_edges(self):
        top = episode_seed(2**48 - 1, 2**16 - 1, 2**64 - 1)
        assert top == 2**128 - 1
        assert episode_seed(0, 0, 0) == 0

    def test_episode_seed_numpy_integers_do_not_wrap(self):
        assert episode_seed(np.int64(2**47), np.int64(1), np.uint64(5)) == episode_seed(2**47, 1, 5)
        with pytest.raises(TypeError):
            episode_seed(3.0, 1, 5)

    @pytest.mark.parametrize("seed, lane, episode", [
        (-1, 0, 0), (2**48, 0, 0),
        (0, -1, 0), (0, 2**16, 0),
        (0, 0, -1), (0, 0, 2**64),
    ])
    def test_episode_seed_rejects_values_outside_their_field(self, seed, lane, episode):
        # masking them would alias another (seed, lane, episode)'s stream
        with pytest.raises(ValueError):
            episode_seed(seed, lane, episode)


class TestRunEpisode:
    def test_deterministic(self, tri3, tri3_saddles):
        cfg = RunConfig(
            model=tri3, selection=ChernoffSelection(tri3_saddles),
            inference=FBarInference(tri3_saddles, 0.1), horizon=4,
        )
        key = episode_seed(7, 1, 1)
        a = run_episode(cfg, 1, key)
        b = run_episode(cfg, 1, key)
        assert a[0] == b[0] and a[1] == b[1]
        np.testing.assert_array_equal(a[2].log_rho, b[2].log_rho)

    def test_regression_fixture_bsc2(self, bsc2, bsc2_saddles):
        cfg = RunConfig(
            model=bsc2, selection=OpenLoopSelection(0, bsc2_saddles),
            inference=FBarInference(bsc2_saddles, 0.4), horizon=3,
        )
        traj, decision, final = run_episode(cfg, 0, episode_seed(0, 0, 0))
        assert traj.steps == ((0, 0), (0, 0), (0, 0))
        assert decision == 0
        np.testing.assert_allclose(final.probs(), [729 / 730, 1 / 730], atol=1e-12)

    def test_regression_fixture_tri3(self, tri3, tri3_saddles):
        cfg = RunConfig(
            model=tri3, selection=ChernoffSelection(tri3_saddles),
            inference=FBarInference(tri3_saddles, 0.1), horizon=4,
        )
        expected = [
            (((0, 1), (1, 1), (0, 1), (1, 1)), None),
            (((0, 1), (0, 1), (0, 0), (0, 1)), 1),
            (((0, 0), (0, 1), (1, 1), (0, 0)), 2),
        ]
        for e, (steps, decision) in enumerate(expected):
            traj, dec, _ = run_episode(cfg, 1, episode_seed(7, 1, e))
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
        cfg = RunConfig(
            model=tri3, selection=ChernoffSelection(tri3_saddles),
            inference=FBarInference(tri3_saddles, 0.1), horizon=5,
            episodes=300, seed=11,
        )
        for h in (0, 2):
            _, _, _, decisions, _ = simulate_conditioned_batch(cfg, h)
            for e in range(0, 300, 17):
                _, dec, _ = run_episode(cfg, h, episode_seed(11, h, e))
                want = -1 if dec is None else dec
                assert decisions[e] == want


class TestMonteCarlo:
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
        assert rep.gamma_se == pytest.approx(expected, rel=1e-14)

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


class TestEnumerateExact:
    def test_vacuous_p2_threshold_always_decides(self, bsc2, bsc2_saddles):
        rule = P2Inference(0, bsc2_saddles[0], lambda_bound(bsc2), 2,
                           EpsilonSchedule("half-inverse"))
        cfg = RunConfig(
            model=bsc2, selection=OpenLoopSelection(0, bsc2_saddles),
            inference=rule, horizon=1,
        )
        assert rule.threshold(1) < 0.0
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
        cfg = RunConfig(
            model=tri3, selection=UniformSelection(), inference=MAPInference(),
            horizon=13,
        )
        with pytest.raises(EnumerationBudgetError):
            enumerate_exact(cfg)

    def test_memory_stays_flat_in_the_horizon(self, tri3, tri3_saddles):
        # The walk splits wide blocks of nodes, so its peak allocation is a
        # few blocks (about 1.5 MB here), not the 262144 leaves of the tree.
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

        total = np.zeros(3)

        def visit(aprob, lik, log_rho, lam, kls):
            rho = np.exp(log_rho)
            inc = np.log(rho / (1 - rho)) - np.log(tri3.prior / (1 - tri3.prior))
            total[:] += (aprob[:, None] * lik * inc).sum(axis=0)

        walk_paths(tri3, sel, 3, visit)
        np.testing.assert_allclose(np.array(exact.jng), total / 3, atol=1e-9)


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
        b = lambda_bound(tri3)
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
