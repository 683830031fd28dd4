"""Belief updates, confidence levels, and the rival-sum increment identity."""

import math

import numpy as np
import pytest

from ahtest import (
    Belief,
    Trajectory,
    bllr,
    confidence_increment,
    posterior_from_trajectory,
    update_belief,
)
from ahtest.model import STRICT_BOUND_SLACK

from conftest import random_model, random_trajectory


def linear_bayes(model, rho, steps):
    """Independent oracle: posterior by plain linear-domain arithmetic."""
    rho = np.array(rho, dtype=float)
    for u, y in steps:
        rho = rho * model.channel[:, u, y]
        rho = rho / rho.sum()
    return rho


class TestBllr:
    def test_symmetric_belief_is_zero(self):
        assert bllr(Belief.from_probs([0.5, 0.5]), 0) == pytest.approx(0.0, abs=1e-15)

    def test_direct_value(self):
        assert bllr(Belief.from_probs([0.9, 0.1]), 0) == pytest.approx(math.log(9), abs=1e-12)

    def test_three_way_uniform(self):
        b = Belief.from_probs([1 / 3, 1 / 3, 1 / 3])
        assert bllr(b, 1) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Belief(np.array([0.0, -np.inf]))

    def test_extreme_confidence_stays_finite(self):
        # rho(0) -> 1 up to 1e-60 complement; 1 - exp(log rho) would lose it.
        b = Belief(np.array([-1e-60, math.log(1e-60)]))
        assert bllr(b, 0) == pytest.approx(-math.log(1e-60), rel=1e-12)


class TestUpdateBelief:
    def test_bsc2_single_step(self, bsc2):
        post = update_belief(bsc2, Belief.from_probs([0.5, 0.5]), 0, 0)
        np.testing.assert_allclose(post.probs(), [0.9, 0.1], atol=1e-12)

    def test_bsc2_step_back_to_uniform(self, bsc2):
        post = update_belief(bsc2, Belief.from_probs([0.9, 0.1]), 0, 1)
        np.testing.assert_allclose(post.probs(), [0.5, 0.5], atol=1e-12)

    def test_matches_linear_bayes(self, tri3):
        rng = np.random.default_rng(3)
        b = Belief(tri3.log_prior)
        steps = []
        for _ in range(12):
            u = int(rng.integers(2))
            y = int(rng.integers(2))
            steps.append((u, y))
            b = update_belief(tri3, b, u, y)
        np.testing.assert_allclose(b.probs(), linear_bayes(tri3, tri3.prior, steps), atol=1e-12)

    def test_normalization_survives_long_chains(self, tri3):
        rng = np.random.default_rng(11)
        b = Belief(tri3.log_prior)
        for _ in range(10_000):
            b = update_belief(tri3, b, int(rng.integers(2)), int(rng.integers(2)))
            # Belief construction would raise beyond 1e-9; assert explicitly anyway.
        from ahtest.belief import logsumexp_last

        assert abs(logsumexp_last(b.log_rho)) <= 1e-9


class TestPosteriorFromTrajectory:
    def test_empty_is_identity(self, bsc2):
        prior = Belief(bsc2.log_prior)
        post = posterior_from_trajectory(bsc2, prior, Trajectory(()))
        np.testing.assert_allclose(post.log_rho, prior.log_rho)

    def test_two_favorable_steps(self, bsc2):
        post = posterior_from_trajectory(
            bsc2, Belief(bsc2.log_prior), Trajectory(((0, 0), (0, 0)))
        )
        np.testing.assert_allclose(post.probs(), [81 / 82, 1 / 82], atol=1e-12)

    def test_observation_flip_swaps_hypotheses(self, bsc2):
        rng = np.random.default_rng(5)
        traj = random_trajectory(rng, bsc2, 9)
        flipped = Trajectory(tuple((u, 1 - y) for u, y in traj.steps))
        p1 = posterior_from_trajectory(bsc2, Belief(bsc2.log_prior), traj).probs()
        p2 = posterior_from_trajectory(bsc2, Belief(bsc2.log_prior), flipped).probs()
        np.testing.assert_allclose(p1, p2[::-1], atol=1e-12)

    def test_matches_direct_sum(self, tri3):
        rng = np.random.default_rng(17)
        traj = random_trajectory(rng, tri3, 40)
        post = posterior_from_trajectory(tri3, Belief(tri3.log_prior), traj)
        logs = np.log(tri3.prior).copy()
        for u, y in traj.steps:
            logs = logs + tri3.log_channel[:, u, y]
        logs = logs - np.log(np.exp(logs - logs.max()).sum()) - logs.max()
        np.testing.assert_allclose(post.log_rho, logs, atol=1e-9)


class TestConfidenceIncrement:
    def test_empty_trajectory_is_zero(self, tri3):
        assert confidence_increment(tri3, Belief(tri3.log_prior), Trajectory(()), 0) == pytest.approx(0.0, abs=1e-12)

    def test_bsc2_single_step(self, bsc2):
        inc = confidence_increment(bsc2, Belief(bsc2.log_prior), Trajectory(((0, 0),)), 0)
        assert inc == pytest.approx(math.log(9), abs=1e-12)

    def test_identity_against_posterior_route(self, tri3):
        rng = np.random.default_rng(23)
        prior = Belief(tri3.log_prior)
        for _ in range(200):
            traj = random_trajectory(rng, tri3, int(rng.integers(1, 100)))
            i = int(rng.integers(3))
            via_posterior = bllr(posterior_from_trajectory(tri3, prior, traj), i) - bllr(prior, i)
            assert confidence_increment(tri3, prior, traj, i) == pytest.approx(
                via_posterior, abs=1e-9
            )

    def test_bounded_increments(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            model = random_model(rng, int(rng.integers(2, 5)), 2, 3)
            b = model.lambda_bound * (1.0 + STRICT_BOUND_SLACK)
            prior = Belief(model.log_prior)
            n = int(rng.integers(1, 60))
            traj = random_trajectory(rng, model, n)
            for i in range(model.num_hypotheses):
                total = confidence_increment(model, prior, traj, i)
                assert abs(total) <= n * b
                # per-step form
                cur = prior
                for u, y in traj.steps:
                    nxt = update_belief(model, cur, u, y)
                    assert abs(bllr(nxt, i) - bllr(cur, i)) <= b
                    cur = nxt

    def test_threshold_implication(self):
        # whenever every rival's evidence sum clears theta, so does the increment
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 25:
            model = random_model(rng, 3, 2, 3)
            prior = Belief(model.log_prior)
            traj = random_trajectory(rng, model, int(rng.integers(1, 30)))
            i = int(rng.integers(3))
            lam = np.zeros(3)
            for u, y in traj.steps:
                lam += model.log_channel[:, u, y]
            rival_evidence = np.delete(lam[i] - lam, i)
            theta = float(rival_evidence.min())
            inc = confidence_increment(model, prior, traj, i)
            assert inc >= theta - 1e-9
            checked += 1


class TestIdentity:
    """Beliefs compare and hash by identity: their arrays have no single truth value."""

    def test_equal_copies_compare_unequal_and_hash(self, tri3):
        a, b = Belief(tri3.log_prior), Belief(tri3.log_prior)
        assert np.array_equal(a.log_rho, b.log_rho)
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
        assert {a: 0, b: 1}[b] == 1


class TestTrajectory:
    def test_dump_format(self):
        traj = Trajectory(((1, 0), (0, 2)))
        assert traj.dump() == "0\t1\t0\n1\t0\t2"
