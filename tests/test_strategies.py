"""Selection and inference rules against brute-force and hand oracles."""

import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ahtest import (
    Belief,
    Model,
    RunConfig,
    bllr,
    ejs_divergence,
    monte_carlo,
    saddle_points,
)
from ahtest import engine, strategies
from ahtest.belief import bllr_matrix, log_normalize
from ahtest.model import EpsilonSchedule
from ahtest.strategies import (
    ChernoffSelection,
    ECRLookaheadSelection,
    EJSGreedySelection,
    FBarInference,
    FixedThresholdInference,
    MAPInference,
    OpenLoopSelection,
    P2Inference,
    UniformSelection,
)
from ahtest.cli import parse_inference, parse_selection

from conftest import RecordingSelection, random_model, step_counts


def brute_expectimax_action(model, rho, depth):
    """Independent oracle: linear-domain expectimax over the full action tree,
    maximizing the expected terminal confidence on the (random) truth."""

    def conf(r):
        return np.array([math.log(r[i]) - math.log(1.0 - r[i]) for i in range(len(r))])

    def value(r, d):
        if d == 0:
            return float(np.dot(r, conf(r)))
        best = -math.inf
        for u in range(model.num_experiments):
            total = 0.0
            for y in range(model.num_observations):
                py = float(np.dot(r, model.channel[:, u, y]))
                post = r * model.channel[:, u, y] / py
                total += py * value(post, d - 1)
            best = max(best, total)
        return best

    scores = []
    for u in range(model.num_experiments):
        total = 0.0
        for y in range(model.num_observations):
            py = float(np.dot(rho, model.channel[:, u, y]))
            post = rho * model.channel[:, u, y] / py
            total += py * value(post, depth - 1)
        scores.append(total)
    return int(np.argmax(scores))


@pytest.fixture(scope="module")
def tri3_saddles(tri3):
    return saddle_points(tri3)


@pytest.fixture(scope="module")
def bsc2_saddles(bsc2):
    return saddle_points(bsc2)


def _select(rule, model, belief):
    return rule.action_distribution(model, belief.log_rho, 0, 1)


def _decide(rule, model, final, horizon):
    return rule.decide(model, final.log_rho, horizon)


def _rule_classes():
    """Every built-in selection and inference rule class."""
    return [
        cls for cls in vars(strategies).values()
        if isinstance(cls, type)
        and issubclass(cls, (strategies.SelectionStrategy, strategies.InferenceStrategy))
        and cls not in (strategies.SelectionStrategy, strategies.InferenceStrategy)
    ]


class TestInterface:
    def test_rules_define_only_the_batch_form(self):
        rules = _rule_classes()
        assert len(rules) == 9
        for cls in rules:
            assert "action_distribution" not in vars(cls), cls
            assert "decide" not in vars(cls), cls
            assert {"batch_action_distributions", "batch_decide"} & set(vars(cls)), cls

    def test_an_interface_is_one_batch_method_and_its_batch_of_one(self):
        def public_methods(cls):
            return {name for name in dir(cls)
                    if not name.startswith("_") and callable(getattr(cls, name))}

        assert public_methods(strategies.SelectionStrategy) == {
            "action_distribution", "batch_action_distributions"}
        assert public_methods(strategies.InferenceStrategy) == {"decide", "batch_decide"}


class TestConstantRows:
    @pytest.mark.parametrize("batch", [1, 16, 16384])
    def test_constant_rules_return_one_read_only_row(self, tri3, tri3_saddles, batch):
        # openloop and uniform return their one row for every belief, read-only
        rows = np.random.default_rng(batch).normal(size=(batch, 3))
        for rule, row in ((OpenLoopSelection(1, tri3_saddles), tri3_saddles[1].alpha_star),
                          (UniformSelection(), np.full(2, 0.5))):
            got = rule.batch_action_distributions(tri3, rows, 0, 10)
            want = np.broadcast_to(np.asarray(row, dtype=float), (batch, 2))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable


class TestRowContract:
    @given(m=st.integers(2, 4), u=st.integers(1, 3), y=st.integers(2, 4),
           horizon=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_shifting_each_row_moves_no_choice_and_no_decision(self, m, u, y, horizon, seed):
        # A row is a log-belief known only up to its own additive constant:
        # every built-in rule chooses and decides alike on a row and the row
        # moved by any constant, here one in [-1e3, 1e3] per row.
        rng = np.random.default_rng(seed)
        model = random_model(rng, m, u, y)
        saddles = saddle_points(model)
        rows = log_normalize(rng.normal(scale=rng.uniform(0.1, 20.0), size=(16, m)))
        shifted = rows + rng.uniform(-1e3, 1e3, size=(16, 1))
        selections = [
            ChernoffSelection(saddles), OpenLoopSelection(m - 1, saddles), UniformSelection(),
            EJSGreedySelection(), ECRLookaheadSelection(2),
        ]
        inferences = [
            FBarInference(saddles, min(sp.d_star for sp in saddles) / 4),
            P2Inference(m - 1, saddles[m - 1], EpsilonSchedule("half-inverse")),
            MAPInference(),
            FixedThresholdInference(0.7),
        ]
        assert {type(rule) for rule in selections + inferences} == set(_rule_classes())
        for rule in selections:
            want = rule.batch_action_distributions(model, rows, 0, horizon)
            got = rule.batch_action_distributions(model, shifted, 0, horizon)
            assert np.array_equal(got, want), type(rule).__name__
        for rule in inferences:
            want = rule.batch_decide(model, rows, horizon)
            got = rule.batch_decide(model, shifted, horizon)
            assert np.array_equal(got, want), type(rule).__name__


class TestChernoff:
    def test_map_picks_matching_mixture(self, tri3, tri3_saddles):
        rule = ChernoffSelection(tri3_saddles)
        dist = _select(rule, tri3, Belief.from_probs([0.6, 0.2, 0.2]))
        np.testing.assert_allclose(dist, tri3_saddles[0].alpha_star)
        dist = _select(rule, tri3, Belief.from_probs([0.1, 0.8, 0.1]))
        np.testing.assert_allclose(dist, tri3_saddles[1].alpha_star)

    def test_uniform_belief_breaks_tie_low(self, tri3, tri3_saddles):
        dist = _select(ChernoffSelection(tri3_saddles), tri3, Belief.uniform(3))
        np.testing.assert_allclose(dist, tri3_saddles[0].alpha_star)

    def test_other_model_is_rejected_after_first_use(self, tri3, bsc2, tri3_saddles):
        log_rho = np.log(np.full(2, 0.5))
        with pytest.raises(ValueError):
            ChernoffSelection(tri3_saddles).action_distribution(bsc2, log_rho, 0, 3)
        used = ChernoffSelection(tri3_saddles)
        used.batch_action_distributions(tri3, np.log(np.full((4, 3), 1 / 3)), 0, 3)
        with pytest.raises(ValueError):
            used.action_distribution(bsc2, log_rho, 0, 3)
        with pytest.raises(ValueError):
            used.batch_action_distributions(bsc2, np.tile(log_rho, (4, 1)), 0, 3)
        # and the model it fits still works afterwards
        dist = used.action_distribution(tri3, np.log([0.1, 0.8, 0.1]), 0, 3)
        np.testing.assert_array_equal(dist, tri3_saddles[1].alpha_star)


class TestOpenLoop:
    def test_constant_mixture(self, tri3, tri3_saddles):
        d1 = _select(OpenLoopSelection(0, tri3_saddles), tri3, Belief.uniform(3))
        d2 = _select(OpenLoopSelection(0, tri3_saddles), tri3, Belief.from_probs([0.1, 0.8, 0.1]))
        np.testing.assert_allclose(d1, tri3_saddles[0].alpha_star, atol=1e-6)
        np.testing.assert_array_equal(d1, d2)

    def test_bsc2_is_point_mass(self, bsc2, bsc2_saddles):
        np.testing.assert_allclose(
            _select(OpenLoopSelection(0, bsc2_saddles), bsc2, Belief.uniform(2)), [1.0])


class TestEJS:
    def test_bsc2_uniform_value(self, bsc2):
        ejs = ejs_divergence(bsc2, Belief.uniform(2), 0)
        assert ejs == pytest.approx(0.8 * math.log(9), abs=1e-9)

    def test_tri3_symmetric_tie_goes_low(self, tri3):
        dist = EJSGreedySelection().action_distribution(tri3, Belief.uniform(3).log_rho, 0, 1)
        np.testing.assert_array_equal(dist, [1.0, 0.0])

    def test_single_experiment_point_mass(self, bsc2):
        np.testing.assert_array_equal(
            EJSGreedySelection().action_distribution(bsc2, Belief.uniform(2).log_rho, 0, 1), [1.0])

    def test_matches_direct_expectation(self, tri3):
        rng = np.random.default_rng(42)
        for _ in range(20):
            rho = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
            rho /= rho.sum()
            b = Belief.from_probs(rho)
            for u in range(2):
                # independent oracle: brute sum over (h, y) in linear domain
                expect = 0.0
                base = [math.log(r / (1 - r)) for r in rho]
                for h in range(3):
                    for y in range(2):
                        post = rho * tri3.channel[:, u, y]
                        post = post / post.sum()
                        ch = math.log(post[h] / (1 - post[h]))
                        expect += rho[h] * tri3.channel[h, u, y] * (ch - base[h])
                assert ejs_divergence(tri3, b, u) == pytest.approx(expect, abs=1e-9)


def _near_twin_experiments() -> Model:
    """Two experiments, the second a shade more informative: their EJS and
    depth-1 ECR scores differ by about 1e-7, above the tie tolerance of a
    horizon-1 run (about 1.4e-9) and below that of a horizon-1000 run."""
    e = 1e-7
    channel = np.array([[[0.8, 0.2], [0.8 + e, 0.2 - e]], [[0.2, 0.8], [0.2 - e, 0.8 + e]]])
    return Model(("h0", "h1"), ("u0", "u1"), ("y0", "y1"), channel, np.array([0.6, 0.4]))


class TestHelpersTieAsTheRunDoes:
    """A one-belief call through a rule object judges ties at the tolerance
    of the horizon it is given, at the first step and at the last."""

    @pytest.mark.parametrize("horizon, best", [(1, 1), (1000, 0)])
    def test_near_tie_follows_the_run_horizon(self, horizon, best):
        model = _near_twin_experiments()
        b = Belief.from_probs(np.array([0.6, 0.4]))
        for rule in (EJSGreedySelection(), ECRLookaheadSelection(1)):
            for step in (0, horizon - 1):
                dist = rule.action_distribution(model, b.log_rho, step, horizon)
                assert int(np.argmax(dist)) == best


class TestECRLookahead:
    def test_depth_one_equals_ejs_choice(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            model = random_model(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)), 3)
            rho = rng.dirichlet(np.ones(model.num_hypotheses)) * 0.9 + 0.1 / model.num_hypotheses
            rho /= rho.sum()
            b = Belief.from_probs(rho)
            d_ecr = ECRLookaheadSelection(1).action_distribution(model, b.log_rho, 0, 10)
            d_ejs = EJSGreedySelection().action_distribution(model, b.log_rho, 0, 1)
            assert int(np.argmax(d_ecr)) == int(np.argmax(d_ejs))

    def test_depth_one_is_ejs_up_to_a_constant_of_the_belief(self):
        # ecr:1 scores sum_h rho(h) E[C_h(rho')], EJS the gain over
        # sum_h rho(h) C_h(rho): the lookahead heuristic at depth one is EJS
        # (Naghshvar & Javidi, Ann. Stat. 2013), score for score.
        rng = np.random.default_rng(28)
        for _ in range(300):
            m, u, y = (int(v) for v in rng.integers([2, 1, 2], [6, 5, 6]))
            model = random_model(rng, m, u, y)
            b = Belief.from_probs(rng.dirichlet(np.ones(m)))
            base = float(np.sum(np.exp(b.log_rho) * bllr_matrix(b.log_rho)))
            scores = strategies._ecr_scores(model, b.log_rho[None, :], 1)[0]
            for a, score in enumerate(scores):
                assert abs(ejs_divergence(model, b, a) + base - score) <= 1e-12 * max(1.0, abs(score))

    def test_depth_two_symmetric_tie_goes_low(self, tri3):
        # swapping hypotheses 2 and 3 maps one experiment onto the other, so
        # the two depth-2 scores tie exactly; the tie rule picks u1
        choice = ECRLookaheadSelection(2).action_distribution(tri3, Belief.uniform(3).log_rho, 0, 10)
        assert int(np.argmax(choice)) == 0

    def test_depth_two_matches_brute_oracle(self, tri3):
        rho = np.array([0.5, 0.3, 0.2])
        choice = ECRLookaheadSelection(2).action_distribution(
            tri3, Belief.from_probs(rho).log_rho, 0, 10)
        oracle = brute_expectimax_action(tri3, rho, 2)
        assert int(np.argmax(choice)) == oracle

    def test_depth_two_matches_oracle_random(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            model = random_model(rng, 3, 2, 2)
            rho = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
            rho /= rho.sum()
            got = int(np.argmax(ECRLookaheadSelection(2).action_distribution(
                model, Belief.from_probs(rho).log_rho, 0, 10)))
            assert got == brute_expectimax_action(model, rho, 2)

    def test_depth_clipped_to_remaining(self, tri3):
        uniform = Belief.uniform(3).log_rho
        d_deep = ECRLookaheadSelection(5).action_distribution(tri3, uniform, 0, 1)
        d_one = ECRLookaheadSelection(1).action_distribution(tri3, uniform, 0, 1)
        np.testing.assert_array_equal(d_deep, d_one)

    def test_no_remaining_step_rejected(self, tri3):
        with pytest.raises(ValueError):
            ECRLookaheadSelection(1).action_distribution(tri3, Belief.uniform(3).log_rho, 0, 0)

    def test_node_budget_enforced(self, tri3):
        with pytest.raises(ValueError, match="budget"):
            ECRLookaheadSelection(12).action_distribution(tri3, Belief.uniform(3).log_rho, 0, 12)


class TestDistinctRowsScoredOnce:
    """In Monte Carlo, ejs and ecr:k are called once a step on the step's
    distinct count states, with the lattice's own rows for them."""

    @pytest.mark.parametrize("rule, scores, total", [
        (EJSGreedySelection(), "_ejs_scores", 409),
        (ECRLookaheadSelection(2), "_ecr_scores", 411),
    ], ids=["ejs", "ecr:k=2"])
    def test_monte_carlo_scores_distinct_rows_only(self, tri3, tri3_saddles, monkeypatch,
                                                   rule, scores, total):
        horizon, episodes = 12, 400
        delta = min(sp.d_star for sp in tri3_saddles) / 4.0
        config = RunConfig(model=tri3, selection=rule, inference=FBarInference(tri3_saddles, delta),
                           horizon=horizon, episodes=episodes, seed=5)
        counts = step_counts(config, episodes)
        lattice = RecordingSelection(rule)
        engine.walk_paths(tri3, lattice, horizon)
        scored = []
        inside = threading.local()   # _ecr_scores recurses on child beliefs
        real = getattr(strategies, scores)

        def spy(model, rows, *args):
            if getattr(inside, "busy", False):
                return real(model, rows, *args)
            scored.append(len(rows))
            inside.busy = True
            try:
                return real(model, rows, *args)
            finally:
                inside.busy = False

        monkeypatch.setattr(strategies, scores, spy)
        counting = RecordingSelection(rule)
        monte_carlo(dataclasses.replace(config, selection=counting))
        assert scored == [len(rows) for rows, _ in counting.calls] and len(scored) == horizon
        radix = (horizon + 1) ** np.arange(counts.shape[1])
        for n, (rows, _) in enumerate(counting.calls):
            _, first = np.unique(radix @ counts[n], return_index=True)
            assert rows.tobytes() == engine._count_rows(tri3, counts[n][:, first]).tobytes()
            assert len({row.tobytes() for row in rows}) == len(rows)
            assert {row.tobytes() for row in rows} <= {row.tobytes() for row in lattice.calls[n][0]}
        # The episodes take 3 * 400 * 12 = 14400 steps and carry 666 (ejs) and
        # 669 (ecr:k=2) bitwise-distinct float rows; they are in 409 and 411 count states.
        assert sum(scored) == total


class TestFBar:
    def test_conclusive_run_decides(self, bsc2, bsc2_saddles):
        final = Belief.from_probs([729 / 730, 1 / 730])  # three favorable steps
        assert _decide(FBarInference(bsc2_saddles, 0.4), bsc2, final, 3) == 0

    def test_mixed_run_abstains(self, bsc2, bsc2_saddles):
        final = Belief.from_probs([0.9, 0.1])  # net one favorable step
        assert _decide(FBarInference(bsc2_saddles, 0.4), bsc2, final, 3) is None

    def test_no_evidence_abstains(self, tri3, tri3_saddles):
        prior = Belief(tri3.log_prior)
        for n in (1, 2, 5, 20):
            assert _decide(FBarInference(tri3_saddles, 0.1), tri3, prior, n) is None

    def test_delta_range_enforced(self, bsc2, bsc2_saddles):
        with pytest.raises(ValueError):
            FBarInference(bsc2_saddles, 0.0)
        with pytest.raises(ValueError):
            FBarInference(bsc2_saddles, 5.0)

    def test_multiple_qualifiers_resolved_by_margin(self):
        from ahtest.strategies import _decide_by_thresholds

        thr = np.array([1.0, 1.0, 1.0])
        tol = 1e-9
        assert int(_decide_by_thresholds(np.array([5.0, 3.0, 0.0]), thr, tol)) == 0
        assert int(_decide_by_thresholds(np.array([3.0, 5.0, 0.0]), thr, tol)) == 1
        # margins within tol of each other tie toward the lowest index
        assert int(_decide_by_thresholds(np.array([4.0, 4.0, 0.0]), thr, tol)) == 0
        assert int(_decide_by_thresholds(np.array([4.0, 4.0 + 5e-10, 0.0]), thr, tol)) == 0
        assert int(_decide_by_thresholds(np.array([0.0, 0.5, 0.9]), thr, tol)) == -1

    def test_margin_within_tolerance_counts_as_zero(self):
        from ahtest.strategies import _decide_by_thresholds

        thr = np.array([1.0, 1.0])
        tol = 1e-9
        assert int(_decide_by_thresholds(np.array([1.0 - 5e-10, 0.0]), thr, tol)) == 0
        assert int(_decide_by_thresholds(np.array([1.0 - 2e-9, 0.0]), thr, tol)) == -1
        # a margin snapped to zero ties with a margin of zero, lowest index wins
        assert int(_decide_by_thresholds(np.array([1.0, 1.0 - 5e-10]), thr, tol)) == 0
        assert int(_decide_by_thresholds(np.array([1.0 - 5e-10, 1.0]), thr, tol)) == 0

    def test_abstains_whenever_no_threshold_cleared(self, tri3, tri3_saddles):
        # sound abstention: if the best increment is below the lowest
        # threshold, no hypothesis can qualify
        rng = np.random.default_rng(37)
        inf = FBarInference(tri3_saddles, 0.05)
        prior = Belief(tri3.log_prior)
        n = 6
        min_thr = float(np.min(inf._thresholds(n)))
        seen = 0
        while seen < 20:
            rho = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
            rho /= rho.sum()
            final = Belief.from_probs(rho)
            inc = [bllr(final, i) - bllr(prior, i) for i in range(3)]
            if max(inc) < min_thr:
                assert inf.decide(tri3, final.log_rho, n) is None
                seen += 1


class TestP2:
    def test_vacuous_small_horizon_decides(self, bsc2, bsc2_saddles):
        # threshold is negative at N=1 with eps = 1/2, so zero evidence decides
        prior = Belief(bsc2.log_prior)
        rule = P2Inference(0, bsc2_saddles[0], EpsilonSchedule("fixed", 0.5))
        got = _decide(rule, bsc2, prior, 1)
        assert got == 0

    def test_threshold_formula(self, bsc2, bsc2_saddles):
        b = bsc2.lambda_bound
        sched = EpsilonSchedule("fixed", 0.005)
        rule = P2Inference(0, bsc2_saddles[0], sched)
        expect = 100 * 0.8 * math.log(9) - 2 * b * math.sqrt(100 * math.log(2 / 0.005))
        assert rule.threshold(bsc2, 100) == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(68.2130, abs=1e-3)

    def test_unfavorable_evidence_abstains(self, bsc2, bsc2_saddles):
        final = Belief.from_probs([1e-8, 1.0 - 1e-8])
        rule = P2Inference(0, bsc2_saddles[0], EpsilonSchedule("fixed", 0.005))
        got = _decide(rule, bsc2, final, 100)
        assert got is None

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            EpsilonSchedule("fixed", 0.0)


class TestMAPForced:
    def test_uniform_ties_low(self, tri3):
        assert _decide(MAPInference(), tri3, Belief.uniform(3), 1) == 0

    def test_argmax(self, tri3):
        assert _decide(MAPInference(), tri3, Belief.from_probs([0.2, 0.7, 0.1]), 1) == 1

    def test_scaling_free(self, tri3):
        rho = np.array([0.2, 0.7, 0.1])
        assert _decide(MAPInference(), tri3, Belief.from_probs(rho), 1) == _decide(
            MAPInference(), tri3, Belief.from_probs(rho * 3.0), 1
        )


class TestEmittedDistributions:
    def test_all_rules_emit_simplex_points(self, tri3, tri3_saddles):
        rng = np.random.default_rng(19)
        rules = [
            ChernoffSelection(tri3_saddles),
            OpenLoopSelection(1, tri3_saddles),
            UniformSelection(),
            EJSGreedySelection(),
            ECRLookaheadSelection(2),
        ]
        for _ in range(25):
            rho = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
            rho /= rho.sum()
            lr = np.log(rho)
            for rule in rules:
                dist = rule.action_distribution(tri3, lr, 0, 4)
                assert dist.shape == (2,)
                assert np.all(dist >= 0.0)
                assert abs(dist.sum() - 1.0) <= 1e-12


class TestSpecStrings:
    def test_selection_round_trip(self, tri3, tri3_saddles):
        for spec, cls in [
            ("chernoff", ChernoffSelection),
            ("openloop:i=2", OpenLoopSelection),
            ("uniform", UniformSelection),
            ("ejs", EJSGreedySelection),
            ("ecr:k=2", ECRLookaheadSelection),
        ]:
            rule = parse_selection(spec, tri3, tri3_saddles)
            assert isinstance(rule, cls), spec

    def test_openloop_label_reference(self, tri3, tri3_saddles):
        rule = parse_selection("openloop:i=H3", tri3, tri3_saddles)
        assert rule.i == 2

    def test_inference_parsing(self, tri3, tri3_saddles):
        sched = EpsilonSchedule("half-inverse")
        assert isinstance(parse_inference("fbar:delta=0.1", tri3, tri3_saddles, sched, 0.05), FBarInference)
        p2 = parse_inference("p2:i=1", tri3, tri3_saddles, sched, 0.05)
        assert isinstance(p2, P2Inference) and p2.i == 0
        assert isinstance(parse_inference("map", tri3, tri3_saddles, sched, 0.05), MAPInference)

    def test_unknown_specs_rejected(self, tri3, tri3_saddles):
        sched = EpsilonSchedule("half-inverse")
        with pytest.raises(ValueError):
            parse_selection("thompson", tri3, tri3_saddles)
        with pytest.raises(ValueError):
            parse_inference("bayes", tri3, tri3_saddles, sched, 0.05)
        with pytest.raises(ValueError):
            parse_selection("openloop:i=9", tri3, tri3_saddles)

    @pytest.mark.parametrize("spec, match", [
        ("chernoff:foo=1", "chernoff takes no parameter 'foo'"),
        ("ejs:k=3", "ejs takes no parameter 'k'"),
        ("uniform:i=1", "uniform takes no parameter 'i'"),
        ("ecr:k=2,depth=3", "ecr takes no parameter 'depth'"),
        ("openloop:i=1,i=2", "repeated parameter 'i'"),
        ("ecr:k=2, k=3", "repeated parameter 'k'"),
    ])
    def test_selection_parameters_it_does_not_take_rejected(self, tri3, tri3_saddles, spec, match):
        with pytest.raises(ValueError, match=match):
            parse_selection(spec, tri3, tri3_saddles)

    @pytest.mark.parametrize("spec, match", [
        ("map:delta=0.1", "map takes no parameter 'delta'"),
        ("fbar:delta=0.1,i=2", "fbar takes no parameter 'i'"),
        ("p2:i=1,delta=0.1", "p2 takes no parameter 'delta'"),
        ("fbar:delta=0.1,delta=0.2", "repeated parameter 'delta'"),
    ])
    def test_inference_parameters_it_does_not_take_rejected(self, tri3, tri3_saddles, spec, match):
        sched = EpsilonSchedule("half-inverse")
        with pytest.raises(ValueError, match=match):
            parse_inference(spec, tri3, tri3_saddles, sched, 0.05)

    def test_unknown_rule_named_before_its_parameters(self, tri3, tri3_saddles):
        with pytest.raises(ValueError, match="unknown selection strategy spec 'oracle:x=1,x=2'"):
            parse_selection("oracle:x=1,x=2", tri3, tri3_saddles)
