"""Experiment-selection and inference strategies.

Selection strategies map an information state (belief, step, horizon) to a
distribution over experiments; inference strategies map the final belief to
a hypothesis index or None for the inconclusive declaration, measuring
confidence gains from the model's prior (model.prior_confidence). Both are
deterministic: all sampling randomness lives in the engine, which lets the
exact enumerator reuse the same strategy objects.

Every rule implements one batch method, and only that, over a matrix of
log-beliefs, one row per episode or lattice state, each known only up to
its own additive constant (a rule reading probabilities, as ejs and ecr:k
do, normalizes its rows itself): batch_action_distributions(model, log_rho,
step, horizon) for selection, batch_decide(model, log_final, horizon) for
inference. Rules know no spec syntax: the CLI parses specs by its rule
tables and echoes them as typed. The one-belief calls action_distribution
and decide are defined once, on the base classes, as a batch of one, so a
scalar call returns row 0 of the batch computation and cannot drift from it.
Rows never interact, so a row's result does not depend on its batch. Monte
Carlo gives a by_state rule (ejs, ecr:k) the lattice's own row of each
distinct count state of a step, and any other rule each episode's carried
row, concurrently on disjoint row blocks: a rule keeps no mutable state.

One tie rule serves every rule and route: scores within tie_tolerance of
the best tie, the lowest index winning, and a threshold margin within it of
zero counts as zero, so the path qualifies.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .belief import Belief, bllr_matrix, log_normalize, logsumexp_last, normalize_belief_rows
from .divergence import SaddlePoint
from .model import EpsilonSchedule, Model

INCONCLUSIVE = -1  # batch encoding of the abstain decision

_DEFAULT_ECR_NODE_BUDGET = 10**6
_ECR_BLOCK_ROWS = 1 << 15   # child beliefs expanded at once by _ecr_scores
TIE_TOL = 1e-9              # the tie rule's tolerance per unit of N * B; see tie_tolerance


def tie_tolerance(model: Model, horizon: int) -> float:
    """TIE_TOL * max(1, N * B), B = model.lambda_bound: N * B bounds an
    episode's summed log-likelihood ratios, the scale of what the rules
    compare. Tied scores differ by a few of its ulps (summation order, a
    carried row's shift), distinct ones by far more; not depending on the
    row, the tolerance lets a row and the row shifted decide alike."""
    return TIE_TOL * max(1.0, horizon * model.lambda_bound)


def _argmax_lowest(scores: np.ndarray, tol: float) -> np.ndarray:
    """Along the last axis, the first index whose score is within tol of the
    maximum, one column at a time (the axis is short; see logsumexp_last)."""
    best = scores[..., 0]
    for j in range(1, scores.shape[-1]):
        best = np.maximum(best, scores[..., j])
    cutoff = best - tol
    below = scores[..., 0] < cutoff
    idx = below.astype(np.intp)
    for j in range(1, scores.shape[-1] - 1):
        below &= scores[..., j] < cutoff
        idx += below
    return idx


# ---------------------------------------------------------------------------
# selection rules
# ---------------------------------------------------------------------------

def _ejs_scores(model: Model, log_rho: np.ndarray) -> np.ndarray:
    """Expected one-step confidence gain of every experiment on the (random)
    true hypothesis, (B, M) -> (B, U).

    Entry (b, u) is sum_h rho(h) sum_y p_h^u(y) [C_h(rho') - C_h(rho)], with
    rho = exp(log_rho[b]) a normalized belief (see normalize_belief_rows) and
    rho' its Bayes update after (u, y). Each (b, u) block is laid out as
    tests/test_bit_identity.py's frozen one-belief _frozen_ejs_divergence
    lays out its (M, Y) block: the posterior's hypothesis axis strided, the
    M*Y gains summed as one contiguous run, keeping each row bit-identical to
    it whatever the batch.
    """
    lr = log_rho                                             # (B, M)
    logp = np.moveaxis(model.log_channel, 1, 0)              # (U, M, Y)
    base = bllr_matrix(lr)[:, None, :, None]                 # (B, 1, M, 1)
    joint = lr[:, None, :, None] + logp                      # (B, U, M, Y)
    conf = bllr_matrix(log_normalize(np.swapaxes(joint, 2, 3)))  # (B, U, Y, M)
    weights = np.exp(lr)[:, None, :, None] * np.exp(logp)    # (B, U, M, Y)
    gains = weights * (np.swapaxes(conf, 2, 3) - base)       # (B, U, M, Y)
    return gains.reshape(gains.shape[:2] + (-1,)).sum(axis=-1)


def _one_hot_best(model: Model, log_rho: np.ndarray, horizon: int,
                  score: Callable[..., np.ndarray], *args) -> np.ndarray:
    """One-hot rows on the tie rule's best experiment by score(model, normalized rows, *args)."""
    scores = score(model, normalize_belief_rows(log_rho), *args)
    return np.eye(model.num_experiments)[_argmax_lowest(scores, tie_tolerance(model, horizon))]


def ejs_divergence(model: Model, belief: Belief, u: int) -> float:
    """Expected one-step confidence gain of experiment u on the (random) true
    hypothesis: _ejs_scores of a batch of one."""
    return float(_ejs_scores(model, belief.log_rho[None, :])[0, u])


def _ecr_scores(model: Model, log_rho: np.ndarray, depth: int) -> np.ndarray:
    """Expected terminal confidence on the (random) true hypothesis of each
    first experiment, the next depth - 1 chosen optimally (belief-MDP
    expectimax), (B, M) -> (B, U).

    Rows of log_rho are normalized beliefs. A node's value is the maximum of
    its scores; a leaf's is sum_h rho(h) C_h(rho). Outcome terms are added in
    observation order, and rows are independent, so a row's scores do not
    depend on the batch it comes in.
    """
    b, m = log_rho.shape
    n_exp, n_obs = model.num_experiments, model.num_observations
    # Each level multiplies the rows by U * Y; split wide batches so that no
    # level expands more than _ECR_BLOCK_ROWS child beliefs at once.
    step = max(1, _ECR_BLOCK_ROWS // (n_exp * n_obs))
    if b > step:
        return np.concatenate([
            _ecr_scores(model, log_rho[s:s + step], depth) for s in range(0, b, step)
        ])
    joint = np.swapaxes(
        log_rho[:, None, :, None] + np.moveaxis(model.log_channel, 1, 0), 2, 3
    )                                                        # (B, U, Y, M)
    log_py = logsumexp_last(joint)                           # (B, U, Y)
    children = (joint - log_py[..., None]).reshape(-1, m)
    if depth == 1:
        values = np.sum(np.exp(children) * bllr_matrix(children), axis=-1)
    else:
        values = _ecr_scores(model, children, depth - 1).max(axis=-1)
    terms = np.exp(log_py) * values.reshape(b, n_exp, n_obs)
    total = 0.0
    for y in range(n_obs):
        total = total + terms[..., y]
    return total


# ---------------------------------------------------------------------------
# inference rules
# ---------------------------------------------------------------------------

def _decide_by_thresholds(increments: np.ndarray, thresholds: np.ndarray, tol: float) -> np.ndarray:
    """Batch threshold decision: pick the qualifying hypothesis with the
    largest margin (increment minus threshold) by the tie rule, INCONCLUSIVE
    when none qualifies. increments has shape (..., M)."""
    margins = increments - thresholds
    margins = np.where(np.abs(margins) <= tol, 0.0, margins)
    qualified = margins >= 0.0
    winner = _argmax_lowest(np.where(qualified, margins, -np.inf), tol)
    return np.where(np.any(qualified, axis=-1), winner, INCONCLUSIVE).astype(np.int64)


# ---------------------------------------------------------------------------
# strategy objects (engine interface)
# ---------------------------------------------------------------------------

def _same_rows(row: np.ndarray, count: int) -> np.ndarray:
    """count read-only rows, each `row`: one zero-stride view of it, made
    without numpy's broadcasting checks, which cost more than the view."""
    rows = np.ndarray((count, row.size), buffer=row, strides=(0, row.itemsize))
    rows.setflags(write=False)
    return rows


class SelectionStrategy:
    """Deterministic map (belief, step, horizon) -> distribution over experiments.
    Each row it gets is a log-belief known only up to its own additive
    constant; a rule that reads probabilities normalizes its rows itself."""
    by_state = False    # Monte Carlo passes a step's distinct count states, not carried rows

    def action_distribution(
        self, model: Model, log_rho: np.ndarray, step: int, horizon: int
    ) -> np.ndarray:
        """One belief's distribution: row 0 of a batch of one."""
        return self.batch_action_distributions(model, log_rho[None, :], step, horizon)[0]

    def batch_action_distributions(
        self, model: Model, log_rho: np.ndarray, step: int, horizon: int
    ) -> np.ndarray:
        """(B, M) log-beliefs -> (B, U) experiment distributions."""
        raise NotImplementedError


class ChernoffSelection(SelectionStrategy):
    """MAP-phase rule: the current MAP estimate's optimal experiment mixture,
    lowest index on MAP ties."""

    def __init__(self, saddles: Sequence[SaddlePoint]):
        self.saddles = tuple(saddles)
        for i, sp in enumerate(self.saddles):
            if sp.hypothesis != i:
                raise ValueError("saddle points must be ordered by hypothesis index")
        self._table = np.array([sp.alpha_star for sp in self.saddles], dtype=float)
        # With every row the same bits (bsc2: one experiment), the MAP choice
        # cannot matter; the batch is then that row read with a zero stride.
        self._row = self._table[0] if len({row.tobytes() for row in self._table}) == 1 else None

    def batch_action_distributions(self, model, log_rho, step, horizon):
        # Saddles that do not fit are rejected on every model they meet.
        if self._table.shape != (model.num_hypotheses, model.num_experiments):
            raise ValueError("need one saddle point per hypothesis of the model")
        if self._row is not None:
            return _same_rows(self._row, log_rho.shape[0])
        # take costs a fraction of fancy indexing on small batches, such as
        # run_episode's one-row chunks.
        choice = _argmax_lowest(log_rho, tie_tolerance(model, horizon))
        return self._table.take(choice, axis=0)


class OpenLoopSelection(SelectionStrategy):
    """Constant mixture: hypothesis i's optimal experiment distribution."""

    def __init__(self, i: int, saddles: Sequence[SaddlePoint]):
        self.i = int(i)
        self.alpha = np.array(saddles[self.i].alpha_star, dtype=float)

    def batch_action_distributions(self, model, log_rho, step, horizon):
        return _same_rows(self.alpha, log_rho.shape[0])


class UniformSelection(SelectionStrategy):
    def batch_action_distributions(self, model, log_rho, step, horizon):
        u = model.num_experiments
        return _same_rows(np.full(u, 1.0 / u), log_rho.shape[0])


class EJSGreedySelection(SelectionStrategy):
    by_state = True

    def batch_action_distributions(self, model, log_rho, step, horizon):
        return _one_hot_best(model, log_rho, horizon, _ejs_scores)


class ECRLookaheadSelection(SelectionStrategy):
    by_state = True

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("lookahead depth must be >= 1")
        self.k = int(k)

    def batch_action_distributions(self, model, log_rho, step, horizon):
        remaining = horizon - step
        if remaining < 1:
            raise ValueError("no remaining step to plan")
        depth = min(self.k, remaining)
        branch = model.num_experiments * model.num_observations
        nodes = sum(branch**d for d in range(1, depth + 1))
        if nodes > _DEFAULT_ECR_NODE_BUDGET:
            raise ValueError(f"lookahead tree has {nodes} nodes, exceeding the budget "
                             f"{_DEFAULT_ECR_NODE_BUDGET}")
        return _one_hot_best(model, log_rho, horizon, _ecr_scores, depth)


class InferenceStrategy:
    """Deterministic map from the final belief to a hypothesis or abstention.
    Each row it gets is a log-belief known only up to its own additive
    constant; a rule must decide alike on a row and the row shifted (the tie
    rule makes the built-in rules do)."""

    def decide(self, model: Model, log_final: np.ndarray, horizon: int) -> Optional[int]:
        """One final belief's decision, None for abstain: a batch of one."""
        d = int(self.batch_decide(model, log_final[None, :], horizon)[0])
        return None if d == INCONCLUSIVE else d

    def batch_decide(self, model: Model, log_final: np.ndarray, horizon: int) -> np.ndarray:
        """(B, M) final log-beliefs, each up to its own constant, -> (B,)
        int64 hypothesis indices, INCONCLUSIVE for abstain. Confidence gains
        are measured from the prior's levels, model.prior_confidence."""
        raise NotImplementedError


class FBarInference(InferenceStrategy):
    """Threshold rule with per-hypothesis thresholds N(D*(i) - delta).

    With several qualifying hypotheses (possible at small horizons) the one
    with the largest margin wins, lowest index on ties; with none, abstain.
    Requires 0 < delta < min_i D*(i).
    """

    def __init__(self, saddles: Sequence[SaddlePoint], delta: float):
        self.saddles = tuple(saddles)
        self.d_star = np.array([sp.d_star for sp in self.saddles])
        if not (0.0 < delta < float(np.min(self.d_star))):
            raise ValueError(
                f"delta must lie in (0, min_i D*(i)) = (0, {float(np.min(self.d_star))!r})"
            )
        self.delta = float(delta)

    def _thresholds(self, horizon: int) -> np.ndarray:
        return horizon * (self.d_star - self.delta)

    def batch_decide(self, model, log_final, horizon):
        inc = bllr_matrix(log_final) - model.prior_confidence
        return _decide_by_thresholds(inc, self._thresholds(horizon), tie_tolerance(model, horizon))


class P2Inference(InferenceStrategy):
    """One-hypothesis test: declare i iff the confidence gain on i reaches
    N D*(i) - 2B sqrt(N log(M/eps_N)), else abstain. B = model.lambda_bound
    and M = model.num_hypotheses come from the model the rule runs on, eps_N
    from the epsilon schedule.

    The rule is applied verbatim; at small horizons the threshold can be
    negative, in which case i is always declared.
    """

    def __init__(self, i: int, saddle_i: SaddlePoint, epsilon_schedule: EpsilonSchedule):
        if saddle_i.hypothesis != i:
            raise ValueError("saddle point does not belong to the tested hypothesis")
        self.i = int(i)
        self.saddle = saddle_i
        self.epsilon_schedule = epsilon_schedule

    def threshold(self, model: Model, horizon: int) -> float:
        eps = self.epsilon_schedule.epsilon(horizon)
        return horizon * self.saddle.d_star - 2.0 * model.lambda_bound * math.sqrt(
            horizon * math.log(model.num_hypotheses / eps)
        )

    def batch_decide(self, model, log_final, horizon):
        # Rivals get a threshold of +inf: i alone qualifies, by fbar's tie rule.
        thresholds = np.full(model.num_hypotheses, np.inf)
        thresholds[self.i] = self.threshold(model, horizon)
        inc = bllr_matrix(log_final) - model.prior_confidence
        return _decide_by_thresholds(inc, thresholds, tie_tolerance(model, horizon))


class MAPInference(InferenceStrategy):
    """Baseline forced decision: the MAP hypothesis, lowest index on ties."""

    def batch_decide(self, model, log_final, horizon):
        return _argmax_lowest(log_final, tie_tolerance(model, horizon)).astype(np.int64)


class FixedThresholdInference(InferenceStrategy):
    """Diagnostic rule: declare any hypothesis whose confidence gain reaches a
    fixed theta, largest margin winning. Used to certify the e^{-theta}
    misclassification bound of threshold rules."""

    def __init__(self, theta: float):
        self.theta = float(theta)

    def batch_decide(self, model, log_final, horizon):
        inc = bllr_matrix(log_final) - model.prior_confidence
        return _decide_by_thresholds(inc, self.theta, tie_tolerance(model, horizon))
