"""Episode simulation and exact enumeration under (selection, inference) pairs.

Monte Carlo runs are vectorized across episodes but each episode consumes its
own counter-based random stream keyed by (base seed, lane, episode index),
one lane per true hypothesis. That makes every estimate independent of
batching and worker count, lets run_episode reproduce any single episode of
a large run exactly, and keeps reports byte-stable across repeated runs.
run_episode builds a Philox generator from the key; the vectorized path
re-keys one Philox bit generator per episode, which yields the same streams
at a fraction of the cost.

Exact enumeration walks the full (experiment, observation) tree a level at a
time, in blocks of nodes with batch strategy calls, carrying per-hypothesis
path masses; its leaves come in depth-first order. It is the oracle the
Monte Carlo path is tested against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .belief import Belief, Trajectory, bllr_matrix, log_normalize
from .model import Model
from .strategies import INCONCLUSIVE, InferenceStrategy, SelectionStrategy

# Fixed so floating-point accumulation order never depends on run parameters.
CHUNK_SIZE = 32768

# Largest tree exact enumeration walks: (experiments x observations)^horizon.
DEFAULT_NODE_BUDGET = 10**7

# Tree nodes expanded at once by walk_paths: wider blocks are split, so the
# walk's memory does not grow with the horizon.
_WALK_BLOCK_ROWS = 1 << 10


class EnumerationBudgetError(RuntimeError):
    """The (experiments x observations)^horizon tree exceeds the node budget."""


_SEED_BITS = 48
_LANE_BITS = 16


def _key_field(name: str, value: int, bits: int) -> int:
    """value as a Python int that fits an unsigned field of the given width.

    numpy integers are converted first: shifted as fixed-width integers they
    would wrap and alias other keys.
    """
    value = operator.index(value)
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{name} {value} is outside [0, 2**{bits})")
    return value


def episode_seed(base_seed: int, lane: int, episode: int) -> int:
    """Deterministic 128-bit counter-RNG key for one episode stream.

    Packs (base seed, lane, episode index) into disjoint bit fields
    (48 + 16 + 64), so distinct episodes get provably distinct keys
    regardless of scheduling. A value that does not fit its field is
    rejected rather than masked, since a masked value would share its
    streams with another. The lane is the index of the episode's true
    hypothesis.
    """
    base_seed = _key_field("seed", base_seed, _SEED_BITS)
    lane = _key_field("lane", lane, _LANE_BITS)
    episode = _key_field("episode index", episode, 64)
    return (((base_seed << _LANE_BITS) | lane) << 64) | episode


def _episode_rng(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def sample_categorical(dists: np.ndarray, r) -> np.ndarray:
    """Inverse-CDF draw: smallest index k with r < cumsum(dists)[k].

    Shared by the scalar and vectorized paths so both consume uniforms with
    identical edge behavior. The clip guards the r > cumsum[-1] corner opened
    by rounding in the cumulative sum.
    """
    dists = np.asarray(dists, dtype=float)
    r = np.asarray(r, dtype=float)
    # One column at a time: the category axis is short, and a running sum
    # adds in the same order as np.cumsum, so the edges are the same bits.
    k = dists.shape[-1]
    cum = dists[..., 0]
    idx = (cum <= r).astype(np.intp)
    for j in range(1, k):
        cum = cum + dists[..., j]
        idx += cum <= r
    return np.minimum(idx, k - 1)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run: model, strategies, horizon, seeding.

    episodes selects Monte Carlo, which runs that many episodes under each
    true hypothesis; leaving it None selects exact enumeration, which refuses
    trees over DEFAULT_NODE_BUDGET leaves.
    """

    model: Model
    selection: SelectionStrategy
    inference: InferenceStrategy
    horizon: int
    episodes: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.episodes is not None and self.episodes < 1:
            raise ValueError("episode count must be >= 1")
        object.__setattr__(self, "seed", _key_field("seed", self.seed, _SEED_BITS))


@dataclass(frozen=True)
class RunReport:
    """Error probabilities and confidence rates for one run.

    Monte Carlo standard errors are None below two episodes; exact reports
    have zero standard errors.
    """

    mode: str                     # "mc" | "exact"
    horizon: int
    hypotheses: tuple[str, ...]
    psi: tuple[float, ...]
    phi: tuple[float, ...]
    gamma: float
    jng: tuple[float, ...]
    psi_se: tuple[Optional[float], ...]
    phi_se: tuple[Optional[float], ...]
    gamma_se: Optional[float]
    jng_se: tuple[Optional[float], ...]
    decision_probs: np.ndarray = field(repr=False)   # (M, M+1), last col abstain
    seed: Optional[int] = None
    episodes: Optional[int] = None
    paths: Optional[int] = None
    misclassification_count: Optional[int] = None

    def to_json_dict(self) -> dict:
        d = {
            "mode": self.mode,
            "horizon": self.horizon,
            "hypotheses": list(self.hypotheses),
            "psi": list(self.psi),
            "phi": list(self.phi),
            "gamma": self.gamma,
            "jng": list(self.jng),
            "stderr": {
                "psi": list(self.psi_se),
                "phi": list(self.phi_se),
                "gamma": self.gamma_se,
                "jng": list(self.jng_se),
            },
            "decision_probs": [list(row) for row in self.decision_probs],
            "seed": self.seed,
        }
        if self.mode == "mc":
            d["episodes"] = self.episodes
            d["misclassification_count"] = self.misclassification_count
        else:
            d["paths"] = self.paths
        return d


def run_episode(
    config: RunConfig, true_h: int, episode_seed_value: int
) -> tuple[Trajectory, Optional[int], Belief]:
    """Simulate one episode; fully determined by (config, true_h, seed value)."""
    model = config.model
    n_steps = config.horizon
    if not (0 <= true_h < model.num_hypotheses):
        raise ValueError(f"hypothesis index {true_h} out of range")
    u01 = _episode_rng(episode_seed_value).random(2 * n_steps)
    log_prior = np.log(model.prior)
    log_rho = log_prior.copy()
    steps = []
    for n in range(n_steps):
        dist = config.selection.action_distribution(model, log_rho, n, n_steps)
        u = int(sample_categorical(dist, u01[2 * n]))
        y = int(sample_categorical(model.channel[true_h, u], u01[2 * n + 1]))
        steps.append((u, y))
        log_rho = log_normalize(log_rho + model.log_channel[:, u, y])
    decision = config.inference.decide(model, log_prior, log_rho, n_steps)
    return Trajectory(tuple(steps)), decision, Belief(log_rho)


def _run_chunk(
    model: Model,
    selection: SelectionStrategy,
    inference: InferenceStrategy,
    horizon: int,
    true_h: np.ndarray,
    uniforms: np.ndarray,
    record_beliefs: bool = False,
):
    """Advance a chunk of episodes through all steps and decide.

    true_h is a per-episode array of true hypotheses; uniforms has
    shape (chunk, 2 * horizon) laid out as (action, observation) per step.
    """
    m = uniforms.shape[0]
    n_exp = model.num_experiments
    n_obs = model.num_observations
    # Per-step gathers take rows of 2-D tables by one flat index: np.take is
    # several times faster than indexing a 3-D array with two index arrays.
    channel_by_hu = model.channel.reshape(-1, n_obs)          # row h * U + u
    log_channel_by_uy = np.moveaxis(model.log_channel, 0, 2).reshape(
        -1, model.num_hypotheses)                             # row u * Y + y
    hu_base = true_h * n_exp
    log_prior = np.log(model.prior)
    log_rho = np.tile(log_prior, (m, 1))
    path = None
    if record_beliefs:
        path = np.empty((m, horizon + 1, model.num_hypotheses))
        path[:, 0, :] = log_rho
    for n in range(horizon):
        dists = selection.batch_action_distributions(model, log_rho, n, horizon)
        u = sample_categorical(dists, uniforms[:, 2 * n])
        y = sample_categorical(
            np.take(channel_by_hu, hu_base + u, axis=0), uniforms[:, 2 * n + 1])
        log_rho = log_normalize(log_rho + np.take(log_channel_by_uy, u * n_obs + y, axis=0))
        if record_beliefs:
            path[:, n + 1, :] = log_rho
    decisions = inference.batch_decide(model, log_prior, log_rho, horizon)
    increments = bllr_matrix(log_rho) - bllr_matrix(log_prior)[None, :]
    return decisions, increments, path


def _uniform_block(base_seed: int, lane: int, start: int, count: int, width: int) -> np.ndarray:
    """Row t holds episode start + t's first width uniforms.

    Each row equals _episode_rng(episode_seed(base_seed, lane, start + t))
    .random(width) bit for bit. Building a Philox per episode costs more than
    drawing its uniforms, so one bit generator is re-keyed per episode: its
    state is reset to that of a fresh Philox with the episode's key (counter
    zero, empty buffer).
    """
    out = np.empty((count, width))
    if count == 0:
        return out
    # The keys of one block differ only in their low word, the episode index,
    # so checking the first and the last key checks every key in between.
    high = episode_seed(base_seed, lane, start) >> 64
    episode_seed(base_seed, lane, start + count - 1)
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    state = bit_gen.state
    for t in range(count):
        state["state"]["key"] = (start + t, high)
        bit_gen.state = state
        gen.random(out=out[t])
    return out


def simulate_conditioned_batch(
    config: RunConfig, true_h: int, record_beliefs: bool = False
):
    """All episodes of one true hypothesis's lane, chunked.

    Returns (decision_counts (M+1,), inc_sum, inc_sqsum, decisions (E,),
    belief_path or None). The decisions array is always materialized; the
    belief path only on request and only for desk-scale batches.
    """
    model = config.model
    episodes = config.episodes
    horizon = config.horizon
    m_hyp = model.num_hypotheses
    counts = np.zeros(m_hyp + 1, dtype=np.int64)
    inc_sum = 0.0
    inc_sqsum = 0.0
    all_decisions = np.empty(episodes, dtype=np.int64)
    paths = [] if record_beliefs else None
    for start in range(0, episodes, CHUNK_SIZE):
        count = min(CHUNK_SIZE, episodes - start)
        uniforms = _uniform_block(config.seed, true_h, start, count, 2 * horizon)
        decisions, increments, path = _run_chunk(
            model, config.selection, config.inference, horizon,
            np.full(count, true_h), uniforms, record_beliefs,
        )
        all_decisions[start:start + count] = decisions
        cols = np.where(decisions == INCONCLUSIVE, m_hyp, decisions)
        counts += np.bincount(cols, minlength=m_hyp + 1)
        own = increments[:, true_h]
        inc_sum += float(own.sum())
        inc_sqsum += float((own * own).sum())
        if record_beliefs:
            paths.append(path)
    belief_path = np.concatenate(paths, axis=0) if record_beliefs else None
    return counts, inc_sum, inc_sqsum, all_decisions, belief_path


def _bernoulli_se(p_hat: float, n: int) -> float:
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / (n - 1))


def _mean_se(total: float, sqtotal: float, n: int) -> float:
    var = max(sqtotal - total * total / n, 0.0) / (n - 1)
    return math.sqrt(var / n)


def monte_carlo(config: RunConfig) -> RunReport:
    """Monte Carlo estimates of the error probabilities and confidence rates.

    Each hypothesis runs `episodes` episodes on its own lane; psi is the
    lane's rate of not declaring it, and phi and gamma mix the lanes' rates
    of declaring each hypothesis through the prior, as the paper's gamma_N =
    sum_i (1 - rho1(i)) phi_N(i) does.
    """
    episodes = config.episodes
    if episodes is None:
        raise ValueError("monte_carlo needs an episode count")
    prior = config.model.prior
    m_hyp = prior.size
    horizon = config.horizon
    lanes = [simulate_conditioned_batch(config, h)[:3] for h in range(m_hyp)]
    counts, inc_sum, inc_sqsum = (np.array(col) for col in zip(*lanes))

    decision_probs = counts / episodes
    psi, phi, gamma = _error_rates(decision_probs, prior)
    jng = [float(inc_sum[i] / (episodes * horizon)) for i in range(m_hyp)]
    if episodes < 2:
        psi_se = phi_se = jng_se = [None] * m_hyp
        gamma_se = None
    else:
        psi_se = [_bernoulli_se(p, episodes) for p in psi]
        jng_se = [_mean_se(float(inc_sum[i]), float(inc_sqsum[i]), episodes) / horizon
                  for i in range(m_hyp)]
        weights = _phi_weights(prior)
        phi_se = [math.sqrt(sum(
            (weights[h, i] ** 2) * decision_probs[h, i] * (1.0 - decision_probs[h, i])
            / (episodes - 1)
            for h in range(m_hyp)
        )) for i in range(m_hyp)]
        mis_rate = (counts[:, :m_hyp].sum(axis=1) - np.diag(counts)) / episodes
        gamma_se = math.sqrt(sum(
            (prior[h] ** 2) * mis_rate[h] * (1.0 - mis_rate[h]) / (episodes - 1)
            for h in range(m_hyp)
        ))

    return RunReport(
        mode="mc",
        horizon=horizon,
        hypotheses=config.model.hypotheses,
        psi=tuple(psi),
        phi=tuple(phi),
        gamma=gamma,
        jng=tuple(jng),
        psi_se=tuple(psi_se),
        phi_se=tuple(phi_se),
        gamma_se=gamma_se,
        jng_se=tuple(jng_se),
        decision_probs=decision_probs,
        seed=config.seed,
        episodes=episodes,
        misclassification_count=int(counts[:, :m_hyp].sum() - np.trace(counts)),
    )


def _phi_weights(prior: np.ndarray) -> np.ndarray:
    """w[h, i] = P(H = h | H != i) = prior[h] / (1 - prior[i]), zero on the
    diagonal: phi_i mixes the rates of declaring i under the other hypotheses."""
    w = prior[:, None] / (1.0 - prior[None, :])
    np.fill_diagonal(w, 0.0)
    return w


def _error_rates(decision_probs: np.ndarray, prior: np.ndarray):
    """(psi, phi, gamma) from an (M, M+1) matrix of per-hypothesis decision
    probabilities, last column abstain, and the prior."""
    m_hyp = prior.size
    psi = [float(1.0 - decision_probs[i, i]) for i in range(m_hyp)]
    # A column sum over axis 0 adds the hypotheses in index order.
    phi = [float(v) for v in (_phi_weights(prior) * decision_probs[:, :m_hyp]).sum(axis=0)]
    gamma = float(sum(phi[i] * (1.0 - prior[i]) for i in range(m_hyp)))
    return psi, phi, gamma


def walk_paths(model: Model, selection: SelectionStrategy, horizon: int, visit) -> int:
    """Level-by-level walk of the full (experiment, observation) tree.

    Each block of nodes, one row each, takes one batch selection call; its
    children are laid out parent-major, then by experiment, then by
    observation, and those with zero action probability are pruned. A block
    wider than _WALK_BLOCK_ROWS // (U * Y) rows is split into slices walked
    in turn, so leaves come in depth-first order. Calls visit(action_prob
    (L,), obs_likelihood (L, M), final_log_rho (L, M), lam (L, M, M),
    kl_sums (L, M, M)) on each block of L reachable leaves, where lam[l, i, j]
    is the summed per-step log-likelihood ratio of i against j along leaf l's
    path and kl_sums[l, i, j] the summed divergences D(p_i^u || p_j^u) over
    its experiments. Returns the number of leaves visited.
    """
    n_exp = model.num_experiments
    n_obs = model.num_observations
    m_hyp = model.num_hypotheses
    if (n_exp * n_obs) ** horizon > DEFAULT_NODE_BUDGET:
        raise EnumerationBudgetError(
            f"({n_exp} experiments x {n_obs} observations)^{horizon} exceeds "
            f"the node budget {DEFAULT_NODE_BUDGET}"
        )
    lc = model.log_channel
    kl_by_u = np.einsum("iuy,ijuy->iju", model.channel, lc[:, None] - lc[None, :])
    # What one step adds to a node's row, by (u, y) at row u * Y + y.
    lik_uy = np.moveaxis(model.channel, 0, 2).reshape(-1, m_hyp)
    lc_uy = np.moveaxis(lc, 0, 2).reshape(-1, m_hyp)
    lam_uy = lc_uy[:, :, None] - lc_uy[:, None, :]
    kls_uy = np.repeat(np.moveaxis(kl_by_u, 2, 0), n_obs, axis=0)
    step = max(1, _WALK_BLOCK_ROWS // (n_exp * n_obs))

    def walk(n, aprob, lik, log_rho, lam, kls) -> int:
        if n == horizon:
            visit(aprob, lik, log_rho, lam, kls)
            return aprob.size
        if aprob.size > step:
            return sum(walk(n, *(a[s:s + step] for a in (aprob, lik, log_rho, lam, kls)))
                       for s in range(0, aprob.size, step))
        dist = selection.batch_action_distributions(model, log_rho, n, horizon)
        parent, uy = np.divmod(np.flatnonzero(np.repeat(dist > 0.0, n_obs, axis=1)),
                               n_exp * n_obs)
        return walk(
            n + 1,
            aprob[parent] * dist[parent, uy // n_obs],
            lik[parent] * lik_uy[uy],
            log_normalize(log_rho[parent] + lc_uy[uy]),
            lam[parent] + lam_uy[uy],
            kls[parent] + kls_uy[uy],
        )

    zeros = np.zeros((1, m_hyp, m_hyp))
    return walk(0, np.ones(1), np.ones((1, m_hyp)), np.log(model.prior)[None, :], zeros, zeros)


def enumerate_exact(config: RunConfig) -> RunReport:
    """Exact error probabilities and confidence rates by full tree traversal:
    one batch decision and one confidence call per block of leaves."""
    model = config.model
    m_hyp = model.num_hypotheses
    horizon = config.horizon
    log_prior = np.log(model.prior)
    base_conf = bllr_matrix(log_prior)

    dm = np.zeros((m_hyp, m_hyp + 1))
    jacc = np.zeros((1, m_hyp))

    # np.add.at adds a block's leaves one by one in leaf order, so the sums
    # are those of a per-leaf walk; summing the block first would re-round.
    def visit(aprob, lik, log_rho, lam, kls):
        w = aprob[:, None] * lik
        d = config.inference.batch_decide(model, log_prior, log_rho, horizon)
        np.add.at(dm.T, np.where(d == INCONCLUSIVE, m_hyp, d), w)
        np.add.at(jacc, np.zeros_like(d), w * (bllr_matrix(log_rho) - base_conf))

    paths = walk_paths(model, config.selection, horizon, visit)

    mass = dm.sum(axis=1)
    if np.any(np.abs(mass - 1.0) > 1e-9):
        raise RuntimeError(
            f"path probability mass per hypothesis deviates from 1: {mass!r}"
        )

    psi, phi, gamma = _error_rates(dm, model.prior)
    jng = [float(jacc[0, i] / horizon) for i in range(m_hyp)]
    zeros = tuple(0.0 for _ in range(m_hyp))

    return RunReport(
        mode="exact",
        horizon=horizon,
        hypotheses=model.hypotheses,
        psi=tuple(psi),
        phi=tuple(phi),
        gamma=gamma,
        jng=tuple(jng),
        psi_se=zeros,
        phi_se=zeros,
        gamma_se=0.0,
        jng_se=zeros,
        decision_probs=dm,
        seed=None,
        paths=paths,
    )


def enumerate_pair_expectations(config: RunConfig):
    """Exact E_i[sum_n lambda(i over j)] and E_i[sum_n D(p_i^u || p_j^u)].

    Returns two (M, M) matrices (rows condition on the true hypothesis i,
    columns index the rival j); the diagonal is zero.
    """
    model = config.model
    m_hyp = model.num_hypotheses
    lam_exp = np.zeros((1, m_hyp, m_hyp))
    kl_exp = np.zeros((1, m_hyp, m_hyp))

    def visit(aprob, lik, log_rho, lam, kls):
        w = (aprob[:, None] * lik)[:, :, None]
        first = np.zeros(aprob.size, dtype=np.intp)
        np.add.at(lam_exp, first, w * lam)
        np.add.at(kl_exp, first, w * kls)

    walk_paths(model, config.selection, config.horizon, visit)
    return lam_exp[0], kl_exp[0]
