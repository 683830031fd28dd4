"""Episode simulation and exact enumeration under (selection, inference) pairs.

Monte Carlo runs are vectorized across episodes, one lane per true
hypothesis. A lane's Philox key packs (base seed, lane), and episode e of a
horizon-N run reads its 2N uniforms from counter e * ceil(2N / 4) on: a
chunk of episodes is one block, estimates do not depend on batching, and
run_episode replays any episode exactly. Episodes carry log-prior plus summed
log-likelihoods, unnormalized, and every rule gets those rows as they are:
it reads a row only up to the row's own constant (see strategies). A chunk
runs in contiguous parts of episodes, one per CPU, each drawing and stepping
its own rows; rows never interact and the joined parts are reduced as one
chunk, so no result depends on the CPU count.

Exact enumeration merges the (experiment, observation) tree's paths by their
outcome counts, which fix the belief (the method of types): a forward pass
over the count lattice, one batch selection call per level and one batch
decision on the last, with masses in the log domain. It is the oracle the
Monte Carlo path is tested against.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .belief import Belief, Trajectory, bllr_matrix, log_normalize
from .model import Model
from .strategies import INCONCLUSIVE, InferenceStrategy, SelectionStrategy

# Fixed so floating-point accumulation order never depends on run parameters.
CHUNK_SIZE = 32768

# Largest count lattice exact enumeration builds: its last level has
# C(N + K - 1, K - 1) states, K = experiments x observations.
DEFAULT_NODE_BUDGET = 10**7

# At most _MAX_PARTS parts of at least _MIN_PART episodes; no thread starts before one is needed.
_MIN_PART = 4096
_MAX_PARTS = 8
_POOL = ThreadPoolExecutor(_MAX_PARTS - 1, thread_name_prefix="ahtest-part")


def _in_parts(fn, count: int) -> list:
    """[fn(lo, hi) for each even contiguous part [lo, hi) of range(count)], one per CPU,
    part 0 in the calling thread; every part has stopped before this returns or raises."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    p = max(1, min(cpus, count // _MIN_PART, _MAX_PARTS))
    edges = [count * i // p for i in range(p + 1)]
    rest = [_POOL.submit(fn, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        first = fn(edges[0], edges[1])
    finally:
        wait(rest)
    return [first] + [f.result() for f in rest]


class EnumerationBudgetError(RuntimeError):
    """The count lattice's last level exceeds the node budget."""


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


def lane_key(base_seed: int, lane: int) -> int:
    """Philox key of one lane's streams: (base seed << 16) | lane, the lane
    being the true hypothesis. A value outside its 48- or 16-bit field is
    rejected, not masked into another's streams."""
    seed = _key_field("seed", base_seed, _SEED_BITS)
    return (seed << _LANE_BITS) | _key_field("lane", lane, _LANE_BITS)


def sample_categorical(dists: np.ndarray, r) -> np.ndarray:
    """Inverse-CDF draw: smallest index k with r < cumsum(dists)[k], else the
    last index (rounding can leave cumsum[-1] <= r). Only the first K - 1
    edges are counted, none when K = 1: a running sum of nonnegative entries
    never decreases, so the last edge could only lift an index past K - 1."""
    dists = np.asarray(dists, dtype=float)
    r = np.asarray(r, dtype=float)
    # One column at a time: the category axis is short, and a running sum
    # adds in the same order as np.cumsum, so the edges are the same bits.
    idx = np.zeros(np.broadcast_shapes(dists.shape[:-1], r.shape), dtype=np.intp)
    cum = 0.0
    for j in range(dists.shape[-1] - 1):
        cum = cum + dists[..., j]
        idx += cum <= r
    return idx


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run: model, strategies, horizon, seeding.

    episodes selects Monte Carlo, which runs that many episodes under each
    true hypothesis; leaving it None selects exact enumeration, which refuses
    count lattices over DEFAULT_NODE_BUDGET states at the horizon.
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
    config: RunConfig, true_h: int, episode: int
) -> tuple[Trajectory, Optional[int], Belief]:
    """Replay episode `episode` of true hypothesis true_h's lane: the run's
    chunk code on a chunk of one, so it has the bits of the batch row."""
    if not (0 <= true_h < config.model.num_hypotheses):
        raise ValueError(f"hypothesis index {true_h} out of range")
    uniforms = _uniform_block(config.seed, true_h, episode, 1, 2 * config.horizon)
    decisions, _, (path, steps) = _run_chunk(
        config.model, config.selection, config.inference, config.horizon,
        np.array([true_h]), uniforms, record=True,
    )
    d = int(decisions[0])
    return Trajectory(steps[0]), None if d == INCONCLUSIVE else d, Belief(path[0, -1])


def _run_chunk(
    model: Model,
    selection: SelectionStrategy,
    inference: InferenceStrategy,
    horizon: int,
    true_h: np.ndarray,
    uniforms: np.ndarray,
    record: bool = False,
):
    """Advance a chunk of episodes through all steps and decide.

    true_h is a per-episode array of true hypotheses; uniforms has
    shape (chunk, 2 * horizon) laid out as (action, observation) per step.
    Returns (decisions, increments, (path, steps)); with record, the
    normalized log-beliefs (chunk, horizon + 1, M) and (u, y) steps.
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
    log_rho = np.tile(log_prior, (m, 1))    # log-prior plus summed log-likelihoods
    path = steps = None
    if record:
        path = np.empty((m, horizon + 1, model.num_hypotheses))
        steps = np.empty((m, horizon, 2), dtype=np.intp)
        path[:, 0] = log_normalize(log_rho)
    for n in range(horizon):
        dists = selection.batch_action_distributions(model, log_rho, n, horizon)
        u = sample_categorical(dists, uniforms[:, 2 * n])
        y = sample_categorical(
            np.take(channel_by_hu, hu_base + u, axis=0), uniforms[:, 2 * n + 1])
        log_rho += np.take(log_channel_by_uy, u * n_obs + y, axis=0)
        if record:
            path[:, n + 1] = log_normalize(log_rho)
            steps[:, n] = np.column_stack((u, y))
    decisions = inference.batch_decide(model, log_prior, log_rho, horizon)
    increments = bllr_matrix(log_rho) - bllr_matrix(log_prior)[None, :]
    return decisions, increments, (path, steps)


def _uniform_block(base_seed: int, lane: int, start: int, count: int, width: int) -> np.ndarray:
    """Row t holds episode start + t's first width uniforms.

    Episode e reads from counter e * nb on, nb = ceil(width / 4) Philox
    blocks of four doubles, so row t equals Generator(Philox(key=lane_key(
    base_seed, lane), counter=(start + t) * nb)).random(width) bit for bit.
    One buffer, allocated here, is filled in parts (see _in_parts) from each
    part's first counter; the block is a view, since a copy would double it.
    """
    nb = -(-width // 4)
    # The first and the last index bound every index in between.
    start = _key_field("episode index", start, 64)
    _key_field("episode index", start + max(count, 1) - 1, 64)
    block = np.empty((count, nb * 4))
    _in_parts(lambda lo, hi: np.random.Generator(np.random.Philox(
        key=lane_key(base_seed, lane), counter=(start + lo) * nb)).random(out=block[lo:hi]), count)
    return block[:, :width]


def simulate_conditioned_batch(
    config: RunConfig, true_h: int, record_beliefs: bool = False
):
    """All episodes of one true hypothesis's lane, in chunks run in parts.

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
        parts = _in_parts(lambda lo, hi: _run_chunk(
            model, config.selection, config.inference, horizon,
            np.full(hi - lo, true_h), uniforms[lo:hi], record_beliefs,
        ), count)
        decisions = all_decisions[start:start + count] = np.concatenate([d for d, _, _ in parts])
        increments = np.concatenate([inc for _, inc, _ in parts])
        cols = np.where(decisions == INCONCLUSIVE, m_hyp, decisions)
        counts += np.bincount(cols, minlength=m_hyp + 1)
        own = increments[:, true_h]
        inc_sum += float(own.sum())
        inc_sqsum += float((own * own).sum())
        if record_beliefs:
            paths.extend(path for _, _, (path, _) in parts)
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


def _count_loglik(counts: np.ndarray, lc_uy: np.ndarray) -> np.ndarray:
    """(S, K) outcome counts -> (S, M) summed log-likelihoods, added in
    outcome order: a matrix product may round a row differently in another
    batch."""
    total = counts[:, :1] * lc_uy[0]
    for k in range(1, counts.shape[1]):
        total = total + counts[:, k:k + 1] * lc_uy[k]
    return total


def _fsum(values: np.ndarray) -> float:
    """Correctly rounded sum: the same bits in any order of the terms."""
    return math.fsum(values.tolist())


def _composition_rank(counts: np.ndarray, rank_terms: np.ndarray) -> np.ndarray:
    """Rank of each count vector among those with its sum, by the
    combinatorial number system: the sum of C(s_j + j, j + 1) =
    rank_terms[s_j, j] over the prefix sums s_j = c_0 + ... + c_j, j < K - 1."""
    return rank_terms[np.cumsum(counts[:, :-1], axis=1), np.arange(counts.shape[1] - 1)].sum(axis=1)


def walk_paths(model: Model, selection: SelectionStrategy, horizon: int, visit) -> int:
    """Forward pass over the count lattice: the (experiment, observation)
    tree with the paths of equal outcome counts merged.

    After n steps the belief is fixed by the counts c of the K = U * Y
    outcomes (u, y), k = u * Y + y, so level n has C(n + K - 1, K - 1)
    states, laid out by composition rank. Under h the paths into c have
    probability A(c) prod_k p_h(k)^c_k, A(c) the sum of their action
    probability products. Each level takes one batch selection call on its
    unnormalized rows; a child adds its parents' log A terms in outcome order,
    so no result depends on a level's layout, and counts its paths of
    positive probability exactly. Calls visit(counts (S, K), log_mass (S, M),
    log_rho (S, M)) once, on the last level: log_mass[s, h] is the log
    probability under h of the paths into s, log_rho their normalized
    belief. Returns the number of root-to-leaf paths of positive probability.
    """
    n_obs = model.num_observations
    n_out = model.num_experiments * n_obs
    states = math.comb(horizon + n_out - 1, n_out - 1)
    if states > DEFAULT_NODE_BUDGET:
        raise EnumerationBudgetError(
            f"the count lattice of {model.num_experiments} experiments x {n_obs} observations "
            f"has {states} states at horizon {horizon}, over the node budget {DEFAULT_NODE_BUDGET}")
    lc_uy = np.moveaxis(model.log_channel, 0, 2).reshape(n_out, -1)
    log_prior = np.log(model.prior)
    rank_terms = np.array([[math.comb(s + j, j + 1) for j in range(n_out - 1)]
                           for s in range(horizon + 1)], dtype=np.int64)
    unit = np.eye(n_out, dtype=np.int64)
    counts = np.zeros((1, n_out), dtype=np.int64)
    log_a = np.zeros(1)
    paths = np.ones(1, dtype=object)      # Python ints: 2**200 paths at bsc2 N=200
    for n in range(horizon):
        rows = log_prior + _count_loglik(counts, lc_uy)
        dist = selection.batch_action_distributions(model, rows, n, horizon)
        with np.errstate(divide="ignore"):
            log_dist = np.log(dist)
        size = math.comb(n + n_out, n_out - 1)
        child_counts = np.empty((size, n_out), dtype=np.int64)
        child_log_a = np.full(size, -np.inf)
        child_paths = np.zeros(size, dtype=object)
        # One outcome at a time: c -> c + e_k is one-to-one, so each scatter
        # writes every child once.
        for k in range(n_out):
            moved = counts + unit[k]
            child = _composition_rank(moved, rank_terms)
            child_counts[child] = moved
            u = k // n_obs
            child_log_a[child] = np.logaddexp(child_log_a[child], log_a + log_dist[:, u])
            child_paths[child] += np.where(dist[:, u] > 0.0, paths, 0)
        counts, log_a, paths = child_counts, child_log_a, child_paths
    loglik = _count_loglik(counts, lc_uy)
    visit(counts, log_a[:, None] + loglik, log_normalize(log_prior + loglik))
    return int(paths.sum())


def enumerate_exact(config: RunConfig) -> RunReport:
    """Exact error probabilities and confidence rates on the count lattice:
    one batch decision over its last level. Masses are summed correctly
    rounded, and psi(i) sums hypothesis i's masses over the states not
    declaring i, so nothing cancels deep in the tail."""
    model = config.model
    m_hyp = model.num_hypotheses
    horizon = config.horizon
    log_prior = np.log(model.prior)
    dm = np.zeros((m_hyp, m_hyp + 1))
    psi = np.zeros(m_hyp)
    jng = np.zeros(m_hyp)

    def visit(counts, log_mass, log_rho):
        d = config.inference.batch_decide(model, log_prior, log_rho, horizon)
        col = np.where(d == INCONCLUSIVE, m_hyp, d)
        mass = np.exp(log_mass)
        gain = mass * (bllr_matrix(log_rho) - bllr_matrix(log_prior))
        for h in range(m_hyp):
            dm[h] = [_fsum(mass[col == c, h]) for c in range(m_hyp + 1)]
            psi[h] = _fsum(mass[col != h, h])
            jng[h] = _fsum(gain[:, h]) / horizon

    paths = walk_paths(model, config.selection, horizon, visit)

    mass = dm.sum(axis=1)
    if np.any(np.abs(mass - 1.0) > 1e-9):
        raise RuntimeError(
            f"path probability mass per hypothesis deviates from 1: {mass!r}"
        )

    _, phi, gamma = _error_rates(dm, model.prior)
    zeros = tuple(0.0 for _ in range(m_hyp))

    return RunReport(
        mode="exact",
        horizon=horizon,
        hypotheses=model.hypotheses,
        psi=tuple(psi.tolist()),
        phi=tuple(phi),
        gamma=gamma,
        jng=tuple(jng.tolist()),
        psi_se=zeros,
        phi_se=zeros,
        gamma_se=0.0,
        jng_se=zeros,
        decision_probs=dm,
        seed=None,
        paths=paths,
    )


def enumerate_pair_expectations(config: RunConfig):
    """Exact E_i[sum_n lambda(i over j)] and E_i[sum_n D(p_i^u || p_j^u)],
    both linear in the expected outcome counts E_i[c_(u, y)].

    Returns two (M, M) matrices (rows condition on the true hypothesis i,
    columns index the rival j); the diagonal is zero.
    """
    model = config.model
    lc = model.log_channel
    expected = np.zeros((lc.shape[0], lc[0].size))

    def visit(counts, log_mass, log_rho):
        mass = np.exp(log_mass)
        for i, k in np.ndindex(expected.shape):
            expected[i, k] = _fsum(mass[:, i] * counts[:, k])

    walk_paths(model, config.selection, config.horizon, visit)
    lam = lc[:, None] - lc[None, :]                            # (M, M, U, Y)
    kl_by_u = np.einsum("iuy,ijuy->iju", model.channel, lam)
    expected = expected.reshape(lc.shape)                      # E_i[c_(u, y)]
    return (np.einsum("iuy,ijuy->ij", expected, lam),
            np.einsum("iu,iju->ij", expected.sum(axis=2), kl_by_u))
