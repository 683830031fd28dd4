"""Bit-identity guards for the Monte Carlo kernel, the strategy rules and the
exact enumerator.

The engine's random streams, its short-axis primitives, every rule's
one-belief call, the EJS and ecr:k selection scores and the reports built on
them are pinned: to the per-episode reference generator, to frozen copies of
the plain one-belief formulas and of the depth-first tree walker, and to
float.hex values of a few runs. A faster kernel or a new interface has to
reproduce all of them.
"""

import math

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
    episode_seed,
    lambda_bound,
    monte_carlo,
    run_episode,
    saddle_points,
    select_ecr_lookahead,
    select_ejs_greedy,
)
from ahtest.belief import bllr_matrix, log_normalize, logsumexp_last, normalize_belief_rows
from ahtest.engine import (
    _error_rates,
    _uniform_block,
    sample_categorical,
    simulate_conditioned_batch,
)
from ahtest.strategies import INCONCLUSIVE, _ejs_scores

from conftest import random_model, random_selection


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
# every rule's scalar call against a frozen copy of its scalar method
# ---------------------------------------------------------------------------

def _frozen_decide_by_thresholds(increments, thresholds):
    margins = increments - thresholds
    qualified = margins >= 0.0
    if not np.any(qualified):
        return None
    return int(np.argmax(np.where(qualified, margins, -np.inf)))


def _frozen_selections(model, saddles):
    """(rule, frozen scalar method) pairs of the Chernoff, open-loop and
    uniform rules, as their scalar methods were first written."""
    table = np.array([sp.alpha_star for sp in saddles], dtype=float)
    i = model.num_hypotheses - 1
    return [
        (ChernoffSelection(saddles), lambda lr: table[int(np.argmax(lr))]),
        (OpenLoopSelection(i, saddles), lambda lr: np.array(saddles[i].alpha_star, dtype=float)),
        (UniformSelection(),
         lambda lr: np.full(model.num_experiments, 1.0 / model.num_experiments)),
    ]


def _frozen_inferences(model, saddles, horizon):
    """(rule, frozen scalar method) pairs of the four inference rules."""
    log_prior = np.log(model.prior)
    d_star = np.array([sp.d_star for sp in saddles])
    delta = float(d_star.min()) / 4.0
    lam = lambda_bound(model)
    i = model.num_hypotheses - 1
    eps = EpsilonSchedule("half-inverse").epsilon(horizon)
    p2_thr = horizon * saddles[i].d_star - 2.0 * lam * math.sqrt(
        horizon * math.log(model.num_hypotheses / eps))
    theta = 0.7

    def inc(lf):
        return bllr_matrix(lf) - bllr_matrix(log_prior)

    return [
        (FBarInference(saddles, delta),
         lambda lf: _frozen_decide_by_thresholds(inc(lf), horizon * (d_star - delta))),
        (P2Inference(i, saddles[i], lam, model.num_hypotheses, EpsilonSchedule("half-inverse")),
         lambda lf: i if float(bllr_matrix(lf)[i] - bllr_matrix(log_prior)[i]) >= p2_thr else None),
        (MAPInference(), lambda lf: int(np.argmax(lf))),
        (FixedThresholdInference(theta),
         lambda lf: _frozen_decide_by_thresholds(inc(lf), np.full(lf.size, theta))),
    ]


def _belief_rows(model, rng, count):
    """Engine-style log-belief rows: Dirichlet draws, some sharply peaked,
    and rows whose largest entries tie exactly."""
    m = model.num_hypotheses
    rows = [np.log(rng.dirichlet(np.full(m, a), size=count)) for a in (1.0, 0.2)]
    ties = np.log(rng.dirichlet(np.ones(m), size=count // 4))
    ties[:, 0] = ties[:, -1] = ties.max(axis=1)             # first and last share the maximum
    uniform = np.full((1, m), -np.log(m))
    return np.vstack(rows + [log_normalize(ties), uniform])


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
    log_prior = np.log(model.prior)
    for rule, frozen in _frozen_inferences(model, saddles, horizon):
        batch = rule.batch_decide(model, log_prior, rows, horizon)
        assert batch.dtype == np.int64
        for t, row in enumerate(rows):
            want = frozen(row)
            assert rule.decide(model, log_prior, row, horizon) == want
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
    log_prior = np.log(model.prior)
    for rule, _ in _frozen_inferences(model, saddles, horizon):
        batch = rule.batch_decide(model, log_prior, rows, horizon)
        for t, row in enumerate(rows):
            d = rule.decide(model, log_prior, row, horizon)
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


def _frozen_ecr_rows(model, rows, depth):
    """Frozen first-action scores and one-hot choices (lowest index within
    1e-12 of the best) of engine log-belief rows, each read as a Belief."""
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
    best = scores.max(axis=1)
    cutoff = best - 1e-12 * np.maximum(1.0, np.abs(best))
    choices = np.zeros_like(scores)
    choices[np.arange(len(rows)), np.argmax(scores >= cutoff[:, None], axis=1)] = 1.0
    return scores, choices


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
    _, choices = _frozen_ecr_rows(model, rows, depth)
    rule = ECRLookaheadSelection(depth)
    assert _same_bits(rule.batch_action_distributions(model, rows, 0, depth), choices)
    # a longer horizon does not deepen the plan beyond k
    assert _same_bits(rule.batch_action_distributions(model, rows, 3, depth + 7), choices)
    for t in range(0, len(rows), 7):
        assert _same_bits(rule.action_distribution(model, rows[t], 0, depth), choices[t])
        assert _same_bits(select_ecr_lookahead(model, Belief(rows[t]), depth, depth), choices[t])


@pytest.mark.parametrize("case", ECR_CASES)
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_ecr_scores_match_the_frozen_recursion(case, depth, request):
    from ahtest.strategies import _ecr_scores

    model, rows = _ecr_rows(case, request, 100 if depth < 3 else 30)
    frozen, _ = _frozen_ecr_rows(model, rows, depth)
    got = _ecr_scores(model, normalize_belief_rows(rows), depth)
    assert got.shape == frozen.shape
    # The kernel weighs outcomes with np.exp where the recursion used
    # math.exp, which may round the other way in the last bit. A score can
    # be a near-cancelling sum, so ulps are counted on the row's scale, the
    # scale on which _argmax_lowest snaps ties: max(1, |best score|).
    scale = np.maximum(1.0, np.abs(frozen).max(axis=1, keepdims=True))
    assert np.all(np.abs(got - frozen) <= 4 * np.spacing(scale))


# ---------------------------------------------------------------------------
# pinned monte_carlo outputs
# ---------------------------------------------------------------------------

# (model, selection, inference) -> float.hex of the report
# fields, for horizons and episode counts in CASES and seed 11.
PINNED = {
    ('bsc2', 'chernoff', 'fbar'): {
        'decision_probs': [['0x1.ecb6f46508dffp-1', '0x0.0p+0', '0x1.3490b9af72016p-5'], ['0x0.0p+0', '0x1.efc962fc962fdp-1', '0x1.0369d0369d037p-5']],
        'jng': ['0x1.c1a1b08c5f450p+0', '0x1.c1e2f7ea87bc3p+0'],
        'jng_se': ['0x1.3c9a8f6b85bbfp-8', '0x1.3960773b7d273p-8'],
    },
    ('tri3', 'chernoff', 'fbar'): {
        'decision_probs': [['0x1.27ae147ae147bp-1', '0x0.0p+0', '0x1.0624dd2f1a9fcp-11', '0x1.b020c49ba5e35p-2'], ['0x1.89374bc6a7efap-9', '0x1.1be76c8b43958p-1', '0x1.0624dd2f1a9fcp-10', '0x1.c4189374bc6a8p-2'], ['0x1.26e978d4fdf3bp-8', '0x0.0p+0', '0x1.18d4fdf3b645ap-1', '0x1.c9ba5e353f7cfp-2']],
        'jng': ['0x1.625c0aa815985p-2', '0x1.dd3996f77dbd4p-2', '0x1.d9dc6e61278e8p-2'],
        'jng_se': ['0x1.1e397b11a7e97p-8', '0x1.7f333c3d84193p-8', '0x1.86783f17c69b8p-8'],
    },
    ('tri3', 'ejs', 'fbar'): {
        'decision_probs': [['0x1.75810624dd2f2p-1', '0x0.0p+0', '0x1.0624dd2f1a9fcp-11', '0x1.147ae147ae148p-2'], ['0x1.89374bc6a7efap-10', '0x1.8ed916872b021p-1', '0x1.47ae147ae147bp-9', '0x1.bc6a7ef9db22dp-3'], ['0x1.0624dd2f1a9fcp-9', '0x1.0624dd2f1a9fcp-10', '0x1.7d70a3d70a3d7p-1', '0x1.020c49ba5e354p-2']],
        'jng': ['0x1.ac2127a689426p-2', '0x1.26c060b3e242ep-1', '0x1.21869140320acp-1'],
        'jng_se': ['0x1.1aeea7ddee69dp-8', '0x1.9b30b9229bf61p-8', '0x1.a3c4e703ead18p-8'],
    },
    ('tri3', 'uniform', 'map'): {
        'decision_probs': [['0x1.b95810624dd2fp-1', '0x1.22d0e56041893p-4', '0x1.126e978d4fdf4p-4', '0x0.0p+0'], ['0x1.20c49ba5e353fp-4', '0x1.c624dd2f1a9fcp-1', '0x1.5c28f5c28f5c3p-5', '0x0.0p+0'], ['0x1.2b020c49ba5e3p-4', '0x1.6872b020c49bap-5', '0x1.c4189374bc6a8p-1', '0x0.0p+0']],
        'jng': ['0x1.50c7356147194p-2', '0x1.9ce5b293d06f7p-2', '0x1.9ead2e4231c13p-2'],
        'jng_se': ['0x1.5b31dfb6065f8p-8', '0x1.95cf301b09f7dp-8', '0x1.965163680acacp-8'],
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


# tri3 ecr:k=2/fbar, generated before ecr:k had a batch kernel: Monte Carlo
# at N = 6 with 300 episodes and seed 11, and the exact report at N = 4.
ECR_PINNED = {
    'each': {
        'decision_probs': [['0x1.681b4e81b4e82p-1', '0x1.b4e81b4e81b4fp-9', '0x1.b4e81b4e81b4fp-7', '0x1.1eb851eb851ecp-2'], ['0x1.1111111111111p-6', '0x1.47ae147ae147bp-1', '0x1.b4e81b4e81b4fp-9', '0x1.5c28f5c28f5c3p-2'], ['0x1.eb851eb851eb8p-6', '0x1.b4e81b4e81b4fp-9', '0x1.5555555555555p-1', '0x1.3333333333333p-2']],
        'psi': ['0x1.2fc962fc962fcp-2', '0x1.70a3d70a3d70ap-2', '0x1.5555555555556p-2'],
        'phi': ['0x1.7e4b17e4b17e4p-6', '0x1.b4e81b4e81b4ep-9', '0x1.1111111111111p-7'],
        'gamma': '0x1.7e4b17e4b17e5p-6',
        'jng': ['0x1.b60be41a86805p-2', '0x1.31bdfdc83229ap-1', '0x1.1ab68911c1d8dp-1'],
        'jng_se': ['0x1.26cbbc3f4610dp-6', '0x1.85992320e880cp-6', '0x1.6b1ae1ddeb5b1p-6'],
    },
    'exact': {
        'decision_probs': [['0x1.6f0068db8bac9p-1', '0x1.d7dbf487fcb95p-7', '0x1.a36e2eb1c432fp-7', '0x1.0624dd2f1a9fdp-2'], ['0x1.80346dc5d6388p-4', '0x1.3a92a30553263p-1', '0x1.4467381d7dbf5p-6', '0x1.16872b020c49cp-2'], ['0x1.9ce075f6fd21fp-4', '0x1.780346dc5d638p-5', '0x1.f8a0902de00d2p-2', '0x1.7126e978d4fe0p-2']],
        'psi': ['0x1.21ff2e48e8a6ep-2', '0x1.8adab9f559b3ap-2', '0x1.03afb7e90ff97p-1'],
        'phi': ['0x1.8e8a71de69ad2p-4', '0x1.edfa43fe5c91cp-6', '0x1.0b0f27bb2fec6p-6'],
        'gamma': '0x1.8888888888888p-4',
        'jng': ['0x1.988cb5cdcf911p-2', '0x1.268de1736d97fp-1', '0x1.edade823aea4ap-2'],
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
            assert _same_bits(alone[0], batch[t]), rule.spec_string()
    log_prior = np.log(model.prior)
    for rule, _ in _frozen_inferences(model, saddles, horizon):
        batch = rule.batch_decide(model, log_prior, rows, horizon)
        for t in range(0, len(rows), 37):
            assert rule.batch_decide(model, log_prior, rows[t:t + 1], horizon)[0] == batch[t]


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
    log_prior = np.log(model.prior)
    base_conf = bllr_matrix(log_prior)
    dm = np.zeros((m_hyp, m_hyp + 1))
    jacc = np.zeros(m_hyp)
    for aprob, lik, log_rho, lam, kls in leaves:
        w = aprob * lik
        d = config.inference.decide(model, log_prior, log_rho, config.horizon)
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


def _assert_matches_frozen_walker(config, leaves):
    """The exact report and both pair matrices have the frozen walker's bits."""
    assert _hexed(enumerate_exact(config).to_json_dict()) == \
        _hexed(_frozen_report(config, leaves).to_json_dict())
    lam, kls = enumerate_pair_expectations(config)
    want_lam, want_kls = _frozen_pairs(leaves, config.model.num_hypotheses)
    assert _same_bits(lam, want_lam) and _same_bits(kls, want_kls)


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
# _frozen_inferences): blocks of 1 and 7 rows split every level of these
# trees, and the ejs and ecr:k=2 trees are pruned.
BLOCK_CASES = [("tri3", 5, 0, 0), ("tri3", 4, 4, 0), ("bsc2", 7, 3, 3),
               ("random-3x4x5", 2, 2, 2), ("random-9x2x2", 3, 1, 1)]


@pytest.mark.parametrize("block_rows", [1, 7, None])
@pytest.mark.parametrize("case, horizon, sel, inf", BLOCK_CASES)
def test_walk_block_size_moves_no_bit(case, horizon, sel, inf, block_rows, request, monkeypatch):
    from ahtest import engine

    if block_rows is not None:
        monkeypatch.setattr(engine, "_WALK_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(sum(map(ord, case)))
    model = _case_model(case, request, rng)
    saddles = saddle_points(model)
    config = RunConfig(model=model, selection=_all_selections(model, saddles)[sel],
                       inference=_frozen_inferences(model, saddles, horizon)[inf][0],
                       horizon=horizon)
    _assert_matches_frozen_walker(config, _frozen_leaves(model, config.selection, horizon))


# float.hex of the exact-tree benchmark's outputs (chernoff/fbar, default
# delta), generated with the depth-first walker.
EXACT_PINNED = {
    ('tri3', 8): {
        'decision_probs': [['0x1.1cf882ee7e0acp-1', '0x1.f6a7b499ddb9cp-9', '0x1.f9dcfee8ec84ep-9', '0x1.be2df0bbfe894p-2'], ['0x1.f39f508488c94p-7', '0x1.0ec99c9a15e77p-1', '0x1.c1dd99152dd6ep-9', '0x1.cf4c11158581fp-2'], ['0x1.f39f508488cf1p-7', '0x1.cbe5655e32283p-9', '0x1.0d1f9a2970b7ep-1', '0x1.d28c065e3dbd5p-2']],
        'psi': ['0x1.c60efa2303ea8p-2', '0x1.e26cc6cbd4312p-2', '0x1.e5c0cbad1e904p-2'],
        'phi': ['0x1.f39f508488cc2p-7', '0x1.e1468cfc07f0ep-9', '0x1.dddd4bff0d2ddp-9'],
        'gamma': '0x1.ecf02f2cdeb7fp-7',
        'jng': ['0x1.55be57ddfd0cap-2', '0x1.cd94ad0496260p-2', '0x1.cc458b836e1f8p-2'],
        'paths': 65536,
    },
    ('bsc2', 15): {
        'decision_probs': [['0x1.c34f10505575cp-1', '0x1.86eb0cde7a80bp-33', '0x1.e5877d711c178p-4'], ['0x1.86eb0cde7a80cp-33', '0x1.c34f1050556e2p-1', '0x1.e5877d711d1b9p-4']],
        'psi': ['0x1.e5877d7d54520p-4', '0x1.e5877d7d548f0p-4'],
        'phi': ['0x1.86eb0cde7a80cp-33', '0x1.86eb0cde7a80bp-33'],
        'gamma': '0x1.86eb0cde7a80cp-33',
        'jng': ['0x1.c1fdd9114d297p+0', '0x1.c1fdd9114d1dfp+0'],
        'paths': 32768,
    },
}
PAIRS_PINNED = {  # enumerate_pair_expectations, tri3 N=8, chernoff
    'lam': [['0x0.0p+0', '0x1.b7633040a6b86p+1', '0x1.b6b39316af632p+1'], ['0x1.f97c485834ccfp+1', '0x0.0p+0', '0x1.1bedf14781b3ep+2'], ['0x1.f5ce7dbf28d2fp+1', '0x1.1c0a67eeea69ap+2', '0x0.0p+0']],
    'kl': [['0x0.0p+0', '0x1.b7633040a696cp+1', '0x1.b6b39316af9dfp+1'], ['0x1.f97c485834d49p+1', '0x0.0p+0', '0x1.1bedf14781d78p+2'], ['0x1.f5ce7dbf28d8ap+1', '0x1.1c0a67eeea5bep+2', '0x0.0p+0']],
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
