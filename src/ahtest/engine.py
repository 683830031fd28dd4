"""Episode simulation and exact enumeration under (selection, inference) pairs.

Monte Carlo runs are vectorized across episodes, one lane per true
hypothesis. Under stream v3 a lane's Philox key packs (base seed, lane), and
episode e of a horizon-N run reads its N observation values under that key
from counter e * ceil(N / 4) on, and its N experiment values from the same
counter under the key with word 1 set: a lane's episodes are one block in
each stream, estimates do not depend on batching, and run_episode replays
any episode exactly. Step n reads value n of each. A lane fixes the true
hypothesis, so each observation value becomes an outcome u * Y + y per
experiment u as it is drawn, one byte each, kept step-major with the
experiment values; a model with one experiment draws no experiment values,
since its experiment is always 0. Selection reads each episode's carried
unnormalized log-belief, or by_state its count state's lattice row (see
strategies). An episode ends in its outcome counts, which fix its belief
(the method of types), and is decided and scored on the lattice's row; with
one experiment and no record, that state is read off its words and no step
is taken. All lanes step together in one lane-major row space of chunks,
each run in contiguous parts, one per CPU, that read their rows' words lane
by lane. Rows never interact and every chunk is reduced per lane as it
finishes, so no result depends on layout or CPU count.

Exact enumeration merges the (experiment, observation) tree's paths by their
outcome counts: a forward pass over the count lattice, one batch selection
call per level, that returns its last level, with masses in the log domain;
a report takes one batch decision over that level. A level advances as whole
arrays, its path counts int64 until (U * Y)^n reaches 2^62 and Python ints
after. It is the oracle the Monte Carlo path is tested against.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields
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

# Bytes of one stream's Philox words that _stream_words draws at a time, a
# tile of whole episodes of ceil(N / 4) blocks of 32 bytes each: small enough
# to stay in cache while its readers turn it into step rows or count keys.
_TILE_BYTES = 1 << 19

# At most _MAX_PARTS parts of at least _MIN_PART episodes; no thread starts before one is needed.
_MIN_PART = 4096
_MAX_PARTS = 8
_POOL = ThreadPoolExecutor(_MAX_PARTS - 1, thread_name_prefix="ahtest-part")


def _in_parts(fn, count: int) -> list:
    """[fn(lo, hi) for each even contiguous part [lo, hi) of range(count)], one per CPU,
    part 0 in the calling thread; every part has stopped before this returns or raises.
    A Monte Carlo part reads its own rows' words in its own thread and decides them."""
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


def report_json(report) -> dict:
    """The JSON object of a report dataclass, from its fields in order. Field
    metadata may rename a key ("json"; "outer.key" nests it in the object outer)
    and list the modes it appears in ("modes"). Tuples and arrays become lists."""
    doc: dict = {}
    mode = getattr(report, "mode", None)
    for f in fields(report):
        modes = f.metadata.get("modes")
        if modes is not None and mode not in modes:
            continue
        outer, _, key = f.metadata.get("json", f.name).rpartition(".")
        value = getattr(report, f.name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        (doc.setdefault(outer, {}) if outer else doc)[key] = value
    return doc


def csv_cell(value) -> str:
    """The one CSV cell rule: empty for None, true/false for a bool, the
    digits of an int, repr(float(value)) for a float, a string as it is."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):      # np.float64 included
        return repr(float(value))
    return "" if value is None else str(value)


def csv_text(columns: dict, docs: list) -> str:
    """CSV of report_json objects: a header, then a row of csv_cell cells per
    object. columns maps a column to its key ("outer.key" reads in outer); a
    "<label>" column stands for one per hypothesis. A missing key leaves a blank."""
    def cells(doc):
        for column, path in columns.items():
            outer, _, key = path.rpartition(".")
            value = (doc[outer] if outer else doc).get(key)
            if "<label>" in column:
                yield from ((column.replace("<label>", h), v)
                            for h, v in zip(doc["hypotheses"], value))
            else:
                yield column, value

    rows = [list(cells(doc)) for doc in docs]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([column for column, _ in rows[0]])
    writer.writerows([csv_cell(v) for _, v in row] for row in rows)
    return buf.getvalue()


@dataclass(frozen=True)
class RunReport:
    """Error probabilities and confidence rates for one run.

    Monte Carlo standard errors are None below two episodes; exact reports
    have zero standard errors. The fields are the JSON schema (report_json).
    """

    mode: str                     # "mc" | "exact"
    horizon: int
    hypotheses: tuple[str, ...]
    psi: tuple[float, ...]
    phi: tuple[float, ...]
    gamma: float
    jng: tuple[float, ...]
    psi_se: tuple[Optional[float], ...] = field(metadata={"json": "stderr.psi"})
    phi_se: tuple[Optional[float], ...] = field(metadata={"json": "stderr.phi"})
    gamma_se: Optional[float] = field(metadata={"json": "stderr.gamma"})
    jng_se: tuple[Optional[float], ...] = field(metadata={"json": "stderr.jng"})
    decision_probs: np.ndarray = field(repr=False)   # (M, M+1), last col abstain
    seed: Optional[int] = None
    episodes: Optional[int] = field(default=None, metadata={"modes": ("mc",)})
    paths: Optional[int] = field(default=None, metadata={"modes": ("exact",)})
    misclassification_count: Optional[int] = field(default=None, metadata={"modes": ("mc",)})

    to_json_dict = report_json


# simulate and enumerate --format csv: column -> key of RunReport.to_json_dict.
RUN_CSV = {"mode": "mode", "N": "horizon", "seed": "seed", "episodes": "episodes",
           "paths": "paths", "gamma": "gamma", "gamma_stderr": "stderr.gamma",
           "psi_<label>": "psi", "phi_<label>": "phi", "jng_<label>": "jng"}


def run_episode(
    config: RunConfig, true_h: int, episode: int
) -> tuple[Trajectory, Optional[int], Belief]:
    """Replay episode `episode` of true hypothesis true_h's lane: the run's
    chunk code on a chunk of one, drawing that episode's stream v3 values
    (see _uniform_block), so it has the bits of the batch row."""
    if not (0 <= true_h < config.model.num_hypotheses):
        raise ValueError(f"hypothesis index {true_h} out of range")
    decisions, _, (path, steps) = _run_chunk(
        config.model, config.selection, config.inference, config.horizon, np.array([true_h]),
        *_uniform_block(config.seed, true_h, episode, 1, config.horizon, config.model.channel[true_h]),
        record=True)
    d = int(decisions[0])
    return Trajectory(steps[0]), None if d == INCONCLUSIVE else d, Belief(path[0, -1])


def _radix(horizon: int, n_out: int) -> np.ndarray:
    """(N + 1)^k, k < K: key sum_k c_k (N + 1)^k is int64 while (N + 1)^K < 2^63, else int."""
    return np.array([(horizon + 1)**k for k in range(n_out)],
                    np.int64 if (horizon + 1)**n_out < 1 << 63 else object)


def _run_chunk(
    model: Model,
    selection: SelectionStrategy,
    inference: InferenceStrategy,
    horizon: int,
    true_h: np.ndarray,
    act: Optional[np.ndarray],
    outcomes: np.ndarray,
    record: bool = False,
):
    """Advance a chunk of episodes through all steps and decide.

    true_h holds each episode's true hypothesis; act and outcomes are
    _uniform_block's, drawn under it, or _count_keys', whose final keys leave
    no step to take. Each row carries its count state's key (see _radix). Step
    n reads outcomes[u, n] of the experiment u the selection draws on a float
    carry, or by_state on the _count_rows of the step's distinct keys; with act
    None (one experiment) it runs once, on the prior row, for its checks. A
    row is decided and scored once per final state, on its _state_rows row.
    Returns (decisions, gains, (path, steps)): gains[r] is row r's gain
    on true_h[r]; with record, path (chunk, N + 1, M) and steps are the
    log-beliefs of an episode's states and its (u, y) steps.
    """
    m, base, radix = len(true_h), horizon + 1, _radix(horizon, model.log_outcome.shape[0])

    def counts(keys):       # (S,) keys -> (K, S) outcome counts
        return (keys // radix[:, None] % base).astype(np.int64)
    key, rows = np.zeros(m, radix.dtype) if outcomes.ndim > 1 else outcomes, np.arange(m)
    # With record, every step's key; else a view of the last, as key moves in place.
    trail = np.zeros((m, base), radix.dtype) if record else key[:, None]
    steps = np.empty((m, horizon, 2), dtype=np.intp) if record else None
    log_rho = None if act is None or selection.by_state else np.tile(model.log_prior, (m, 1))
    if act is None:
        selection.batch_action_distributions(model, model.log_prior[None, :], 0, horizon)
    for n in range(horizon if outcomes.ndim > 1 else 0):
        if act is None:
            k = outcomes[0, n]
        elif log_rho is None:     # a by_state rule: no float carry
            states, inverse = np.unique(key, return_inverse=True)
            dists = selection.batch_action_distributions(
                model, _count_rows(model, counts(states)), n, horizon)
            k = outcomes[sample_categorical(np.take(dists, inverse, axis=0), act[n]), n, rows]
        else:
            dists = selection.batch_action_distributions(model, log_rho, n, horizon)
            k = outcomes[sample_categorical(dists, act[n]), n, rows]
            # np.take is several times faster than fancy indexing here.
            log_rho += np.take(model.log_outcome, k, axis=0)
        key += np.take(radix, k)
        if record:
            trail[:, n + 1] = key
            steps[:, n] = np.column_stack(np.divmod(k, model.num_observations))
    states, inverse = np.unique(trail, return_inverse=True)
    state_rows = _state_rows(model, counts(states))
    inverse = inverse.reshape(trail.shape)
    decisions = inference.batch_decide(model, state_rows, horizon)[inverse[:, -1]]
    gains = (bllr_matrix(state_rows) - model.prior_confidence)[inverse[:, -1], true_h]
    return decisions, gains, (state_rows[inverse] if record else None, steps)


def _stream_words(base_seed: int, lane: int, start: int, count: int, horizon: int, experiment=False):
    """Stream v3's one word source: (cols, words) per tile of whole episodes of about
    _TILE_BYTES, in order. With k = lane_key(base_seed, lane) and nb = ceil(horizon / 4),
    words[t] is the first horizon of the 4 * nb raw words of Philox(key=k, counter=(start
    + cols[t]) * nb), or with experiment, of Generator(Philox(key=(1 << 64) | k, ...)).random()."""
    nb = -(-horizon // 4)
    # The first and the last index bound every index in between.
    start = _key_field("episode index", start, 64)
    _key_field("episode index", start + max(count, 1) - 1, 64)
    bits = np.random.Philox(key=(experiment << 64) | lane_key(base_seed, lane), counter=start * nb)
    draw = np.random.Generator(bits).random if experiment else bits.random_raw
    rows = max(1, _TILE_BYTES // (32 * nb))
    for lo in range(0, count, rows):
        size = min(rows, count - lo)
        yield slice(lo, lo + size), draw(4 * nb * size).reshape(size, 4 * nb)[:, :horizon]


def _word_edges(channel: np.ndarray) -> list:
    """sample_categorical's edges of each channel row, a running sum as np.cumsum
    adds, on the raw words: random()'s double (w >> 11) * 2**-53 >= c exactly
    when w >= ceil(c * 2**53) << 11, and an edge c >= 1 never holds, so it goes."""
    return [np.array([math.ceil(c * 2**53) << 11 for c in cum if c < 1.0], np.uint64)
            for cum in np.cumsum(channel[:, :-1], axis=1)]


def _uniform_block(base_seed: int, lane: int, start: int, count: int, horizon: int,
                   channel: np.ndarray, out=None):
    """(act, outcomes) of episodes start .. start + count - 1 of a lane whose true
    hypothesis has the (U, Y) channel, off _stream_words: the step-major (horizon,
    count) experiment values, None (none read) when U = 1, and (U, horizon, count)
    outcomes u * Y + y, y drawn from channel[u] as sample_categorical draws it on
    the observation values, by _word_edges, in the smallest unsigned type holding
    U * Y - 1. With out, an (act or None, outcomes) pair of views, fills those."""
    n_exp, n_obs = channel.shape
    act, outcomes = out or (np.empty((horizon, count)) if n_exp > 1 else None,
                            np.empty((n_exp, horizon, count), np.min_scalar_type(channel.size - 1)))
    edges = _word_edges(channel)
    for cols, words in _stream_words(base_seed, lane, start, count, horizon):
        for u, cum in enumerate(edges):
            outcomes[u, :, cols] = u * n_obs
            for c in cum:
                outcomes[u, :, cols] += words.T >= c
    if act is not None:
        for cols, values in _stream_words(base_seed, lane, start, count, horizon, experiment=True):
            act[:, cols] = values.T
    return act, outcomes


def _count_keys(base_seed: int, lane: int, start: int, count: int, horizon: int,
                channel: np.ndarray, out=None):
    """(None, keys) for _uniform_block's (None, outcomes) of a (1, Y) channel:
    each episode's final count-state key (see _radix), read off the tiles with no
    outcome rows. With T_j its words at or above edge j, T_0 = N, outcome y
    counts T_y - T_(y+1), so the key is N + sum_(j>=1) T_j (radix[j] - radix[j-1])."""
    radix = _radix(horizon, channel.size)
    keys = np.empty(count, radix.dtype) if out is None else out[1]
    (edges,) = _word_edges(channel)
    for cols, words in _stream_words(base_seed, lane, start, count, horizon):
        keys[cols] = horizon
        for c, rise in zip(edges, np.diff(radix)):     # Python ints where radix holds them
            keys[cols] += np.count_nonzero(words >= c, axis=1).astype(radix.dtype) * rise
    return None, keys


def _simulate_lanes(config: RunConfig, lanes, record: bool = False):
    """Every episode of the given lanes, stepped together: row r is episode
    r % E of lane lanes[r // E], and a part reads each lane's segment of its
    rows in place, by _count_keys unrecorded with one experiment, else by
    _uniform_block. Each chunk's counts are added as it finishes, and a lane's
    gains are summed over its blocks of CHUNK_SIZE, in order, as each ends.
    Returns (decision_counts (L, M+1), gain_sum (L,), gain_sqsum (L,), decisions
    (L * E,), belief_path (L * E, N + 1, M)); without record, the last two are None."""
    model, episodes, horizon = config.model, config.episodes, config.horizon
    m_hyp, n_exp, n_obs = model.num_hypotheses, model.num_experiments, model.num_observations
    lanes = np.asarray(lanes)
    rows = lanes.size * episodes
    counts = np.zeros((lanes.size, m_hyp + 1), dtype=np.int64)
    gain_sum, gain_sqsum = np.zeros(lanes.size), np.zeros(lanes.size)
    # Lane i's block k holds its rows i * E + [k, min(k + CHUNK_SIZE, E)).
    ends = [i * episodes + min(k + CHUNK_SIZE, episodes)
            for i in range(lanes.size) for k in range(0, episodes, CHUNK_SIZE)]
    gains, first = np.empty(0), 0     # gains of rows first, first + 1, ... not yet summed
    kept, paths = [], []
    for start in range(0, rows, CHUNK_SIZE):
        count = min(CHUNK_SIZE, rows - start)
        lane = np.arange(start, start + count) // episodes
        true_h = lanes[lane]

        def part(lo, hi):
            act = np.empty((horizon, hi - lo)) if n_exp > 1 else None
            outcomes = (np.empty(hi - lo, _radix(horizon, n_obs).dtype) if n_exp == 1 and not record
                        else np.empty((n_exp, horizon, hi - lo), np.min_scalar_type(n_exp * n_obs - 1)))
            for i in range((start + lo) // episodes, -(-(start + hi) // episodes)):
                a, b = max(start + lo, i * episodes), min(start + hi, (i + 1) * episodes)
                seg = slice(a - start - lo, b - start - lo)
                (_count_keys if outcomes.ndim == 1 else _uniform_block)(
                    config.seed, lanes[i], a - i * episodes, b - a, horizon, model.channel[lanes[i]],
                    out=(None if act is None else act[:, seg], outcomes[..., seg]))
            return _run_chunk(model, config.selection, config.inference, horizon,
                              true_h[lo:hi], act, outcomes, record)

        parts = _in_parts(part, count)
        decisions = np.concatenate([d for d, _, _ in parts])
        cols = np.where(decisions == INCONCLUSIVE, m_hyp, decisions)
        counts += np.bincount(lane * (m_hyp + 1) + cols, minlength=counts.size).reshape(counts.shape)
        gains = np.concatenate([gains, *(g for _, g, _ in parts)])
        while ends and ends[0] <= start + count:
            block, gains = np.split(gains, [ends[0] - first])
            gain_sum[first // episodes] += block.sum()
            gain_sqsum[first // episodes] += (block * block).sum()
            first = ends.pop(0)
        if record:
            kept.append(decisions)
            paths.extend(path for _, _, (path, _) in parts)
    if not record:
        return counts, gain_sum, gain_sqsum, None, None
    return counts, gain_sum, gain_sqsum, np.concatenate(kept), np.concatenate(paths)


def monte_carlo(config: RunConfig) -> RunReport:
    """Monte Carlo estimates of the error probabilities and confidence rates.

    Each hypothesis runs `episodes` episodes on its own lane; psi is the
    lane's rate of not declaring it, and phi and gamma mix the lanes' rates
    of declaring each hypothesis through the prior, as the paper's gamma_N =
    sum_i (1 - rho1(i)) phi_N(i) does. Their standard errors are the plug-in
    binomial ones of those lane rates, mixed through the same weights, and
    jng's is the sample standard error of the lane's mean gain, over N.
    """
    episodes = config.episodes
    if episodes is None:
        raise ValueError("monte_carlo needs an episode count")
    prior = config.model.prior
    m_hyp = prior.size
    horizon = config.horizon
    counts, gain_sum, gain_sqsum, _, _ = _simulate_lanes(config, range(m_hyp))

    decision_probs = counts / episodes
    misclassified = counts[:, :m_hyp].sum(axis=1) - np.diag(counts)    # per lane
    psi, phi, gamma = _error_rates(decision_probs, prior)
    jng = (gain_sum / (episodes * horizon)).tolist()
    if episodes < 2:
        psi_se = phi_se = jng_se = [None] * m_hyp
        gamma_se = None
    else:
        missed, declared = np.array(psi), decision_probs[:, :m_hyp]
        psi_se = np.sqrt(np.maximum(missed * (1.0 - missed), 0.0) / (episodes - 1)).tolist()
        # A column sum over axis 0 adds the hypotheses in index order.
        phi_se = np.sqrt((_phi_weights(prior) ** 2 * declared * (1.0 - declared) / (episodes - 1))
                         .sum(axis=0)).tolist()
        wrong = misclassified / episodes
        gamma_se = math.sqrt(sum((prior ** 2 * wrong * (1.0 - wrong) / (episodes - 1)).tolist()))
        var = np.maximum(gain_sqsum - gain_sum * gain_sum / episodes, 0.0) / (episodes - 1)
        jng_se = (np.sqrt(var / episodes) / horizon).tolist()

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
        misclassification_count=int(misclassified.sum()),
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


def _count_rows(model: Model, counts: np.ndarray, start=None) -> np.ndarray:
    """(K, S) outcome counts -> (S, M) start (default the log-prior) plus summed
    log-likelihoods, in outcome order: a matrix product may round a row differently."""
    start = model.log_prior if start is None else start
    return start + functools.reduce(operator.add, counts[:, :, None] * model.log_outcome[:, None, :])


def _state_rows(model: Model, counts: np.ndarray) -> np.ndarray:
    """(K, S) outcome counts -> (S, M) normalized log-beliefs, one formula for both routes."""
    return log_normalize(_count_rows(model, counts))


def _fsum(values: np.ndarray) -> float:
    """Correctly rounded sum: the same bits in any order of the terms."""
    return math.fsum(values.tolist())


def _slot(ranks: np.ndarray, level: int) -> np.ndarray:
    """Row of each state of a level, given its composition rank: the rank."""
    return ranks


@dataclass(frozen=True)
class LastLevel:
    """The count lattice's last level, one row per state: counts[s, k] of
    outcome k = u * Y + y, log_mass[s, h] the log probability under h of the
    paths into s (-inf where none has positive probability), and paths the
    number of root-to-leaf paths of positive probability, which int()
    returns. State s's belief is row s of _state_rows(model, counts.T)."""

    counts: np.ndarray      # (S, K)
    log_mass: np.ndarray    # (S, M)
    paths: int

    def __int__(self) -> int:
        return self.paths


def walk_paths(model: Model, selection: SelectionStrategy, horizon: int) -> LastLevel:
    """Forward pass over the count lattice: the (experiment, observation)
    tree with the paths of equal outcome counts merged.

    After n steps the belief is fixed by the counts c of the K = U * Y
    outcomes (u, y), k = u * Y + y, so level n has C(n + K - 1, K - 1)
    states, each in the row _slot gives its composition rank. Under h the
    paths into c have probability A(c) prod_k p_h(k)^c_k, A(c) the sum of
    their action probability products. A level takes one batch selection
    call on the unnormalized rows of its live states, those with A(c) > 0;
    the others get an all-zero distribution, so their children get neither
    paths nor mass. It advances as whole (outcome, state)
    arrays: all K child ranks from the prefix sums, one scatter of the
    counts, and each child's log A terms merged in outcome order from -inf,
    so no result depends on a level's layout. Paths of positive probability
    are counted in int64 while K^n < 2^62, in Python ints after. Returns the
    last level, dead states included (see LastLevel).
    """
    n_obs = model.num_observations
    n_out = model.num_experiments * n_obs
    states = math.comb(horizon + n_out - 1, n_out - 1)
    if states > DEFAULT_NODE_BUDGET:
        raise EnumerationBudgetError(
            f"the count lattice of {model.num_experiments} experiments x {n_obs} observations "
            f"has {states} states at horizon {horizon}, over the node budget {DEFAULT_NODE_BUDGET}")
    # A rank sums C(s_j + j, j + 1) over the prefix sums s_j = c_0 + ... + c_j, j < K - 1;
    # c + e_k steps each s_j, j >= k, by rise[s_j, j] = C(s_j + j, j) (0 for j = K - 1).
    rise = np.array([[math.comb(s + j, j) for j in range(n_out - 1)] + [0]
                     for s in range(horizon)], dtype=np.int64)
    outcomes = np.arange(n_out)[:, None]
    unit = np.eye(n_out, dtype=np.int64)[:, :, None]
    # Levels are outcome-major (K, S) tables: a sum over outcomes adds whole rows.
    counts = np.zeros((n_out, 1), dtype=np.int64)
    ranks = np.zeros(1, dtype=np.int64)
    log_a, paths = np.zeros(1), np.ones(1, dtype=np.int64)
    for n in range(horizon):
        rows = _count_rows(model, counts)
        if log_a.min() > -np.inf:
            dist = selection.batch_action_distributions(model, rows, n, horizon).T
        else:
            # States no path of positive probability reaches get no selection call:
            # an all-zero distribution gives their children no paths and no mass.
            live = log_a > -np.inf
            dist = np.zeros((model.num_experiments, log_a.size))
            dist[:, live] = selection.batch_action_distributions(model, rows[live], n, horizon).T
        with np.errstate(divide="ignore"):
            log_dist = np.log(dist)
        if paths.dtype != object and n_out ** (n + 1) >= 1 << 62:
            paths = paths.astype(object)
        size = math.comb(n + n_out, n_out - 1)
        steps = rise[counts.cumsum(axis=0), outcomes]
        child_ranks = ranks + steps[::-1].cumsum(axis=0)[::-1]
        # c -> c + e_k is one-to-one, so each (k, child) cell is written at most once.
        child = _slot(child_ranks, n + 1)
        ranks = np.empty(size, dtype=np.int64)
        ranks[child] = child_ranks
        next_counts = np.empty((n_out, size), dtype=np.int64)
        next_counts[:, child] = counts[:, None, :] + unit
        log_in = np.full((n_out, size), -np.inf)
        log_in[outcomes, child] = (log_a + log_dist).repeat(n_obs, axis=0)
        paths_in = np.zeros((n_out, size), dtype=paths.dtype)
        paths_in[outcomes, child] = np.where(dist > 0.0, paths, 0).repeat(n_obs, axis=0)
        counts, log_a, paths = next_counts, np.logaddexp.reduce(log_in), paths_in.sum(axis=0)
    return LastLevel(counts.T, _count_rows(model, counts, log_a[:, None]), int(paths.sum()))


def enumerate_exact(config: RunConfig) -> RunReport:
    """Exact error probabilities and confidence rates on the count lattice:
    one batch decision over its last level. Masses are summed correctly
    rounded, and psi(i) sums hypothesis i's masses over the states not
    declaring i, so nothing cancels deep in the tail."""
    model = config.model
    m_hyp = model.num_hypotheses
    horizon = config.horizon
    level = walk_paths(model, config.selection, horizon)
    rows = _state_rows(model, level.counts.T)
    d = config.inference.batch_decide(model, rows, horizon)
    col = np.where(d == INCONCLUSIVE, m_hyp, d)
    mass = np.exp(level.log_mass)
    gain = mass * (bllr_matrix(rows) - model.prior_confidence)
    picks = [col == c for c in range(m_hyp + 1)]     # one mask per decision column
    dm = np.array([[_fsum(mass[pick, h]) for pick in picks] for h in range(m_hyp)])
    psi = [_fsum(mass[~picks[h], h]) for h in range(m_hyp)]
    jng = [_fsum(gain[:, h]) / horizon for h in range(m_hyp)]

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
        paths=level.paths,
    )


def enumerate_pair_expectations(config: RunConfig):
    """Exact E_i[sum_n lambda(i over j)] and E_i[sum_n D(p_i^u || p_j^u)],
    both linear in the expected outcome counts E_i[c_(u, y)].

    Returns two (M, M) matrices (rows condition on the true hypothesis i,
    columns index the rival j); the diagonal is zero.
    """
    model = config.model
    level = walk_paths(model, config.selection, config.horizon)
    mass = np.exp(level.log_mass)
    expected = np.array([[_fsum(mass[:, i] * c) for c in level.counts.T]
                         for i in range(model.num_hypotheses)]).reshape(model.channel.shape)
    return (np.einsum("iuy,ijuy->ij", expected, model.llr),
            np.einsum("iu,iju->ij", expected.sum(axis=2), model.kl))
