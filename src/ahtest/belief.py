"""Log-domain posterior beliefs, confidence levels, and trajectory bookkeeping.

Beliefs are kept as log-probability vectors throughout: at horizons near a
hundred steps with per-step evidence of a couple of nats, linear-domain
posteriors underflow. The complement mass 1 - rho(i) is always formed by
log-sum-exp over the other hypotheses, never as 1 - exp(log rho_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:    # model imports this module; a Model is only annotated here
    from .model import Model

NORMALIZATION_TOL = 1e-9


def logsumexp_last(arr: np.ndarray) -> np.ndarray:
    """Log-sum-exp along the last axis, max-shifted for stability.

    The last axis is the hypothesis axis, two or three entries long in
    practice, where a numpy reduction pays a cost per row; the maximum is
    therefore taken one column at a time (exact for any length). The sum
    stays a numpy reduction: a column-by-column sum rounds differently from
    numpy's pairwise summation from eight terms up.
    """
    arr = np.asarray(arr, dtype=float)
    m = arr[..., 0]
    for k in range(1, arr.shape[-1]):
        m = np.maximum(m, arr[..., k])
    m = m[..., None]
    # A row of all -inf would propagate nan through the shift; callers only
    # pass rows with at least one finite entry.
    return (m + np.log(np.sum(np.exp(arr - m), axis=-1, keepdims=True)))[..., 0]


def log_normalize(arr: np.ndarray) -> np.ndarray:
    """Shift log weights along the last axis so they sum to one in linear domain."""
    return arr - logsumexp_last(arr)[..., None]


def normalize_belief_rows(log_rho: np.ndarray) -> np.ndarray:
    """Rows of log weights, each known only up to its own additive constant,
    checked and shifted to sum to one along the last axis.

    The checks are a Belief's, for one belief or for a batch of rows: at
    least two hypotheses and every entry finite, else ValueError.
    """
    lr = np.asarray(log_rho, dtype=float)
    if lr.shape[-1] < 2:
        raise ValueError("a belief needs at least two hypotheses")
    if not np.all(np.isfinite(lr)):
        raise ValueError("belief entries must be finite log probabilities")
    return log_normalize(lr)


def bllr_matrix(log_rho: np.ndarray) -> np.ndarray:
    """Confidence level of every hypothesis: log rho_i - log(1 - rho_i), vectorized,
    the complement log sum_{j != i} rho_j summed with entry i masked to -inf."""
    lr = np.asarray(log_rho, dtype=float)
    m = lr.shape[-1]
    tiled = np.repeat(lr[..., None, :], m, axis=-2)
    idx = np.arange(m)
    tiled[..., idx, idx] = -np.inf
    return lr - logsumexp_last(tiled)


@dataclass(frozen=True, eq=False)
class Belief:
    """Posterior over hypotheses stored as log probabilities summing to one.
    Compares and hashes by identity, as Model does."""

    log_rho: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.log_rho, dtype=float).reshape(-1)
        lr = normalize_belief_rows(raw)
        z = float(logsumexp_last(raw))
        if abs(z) > NORMALIZATION_TOL:
            raise ValueError(f"belief is not normalized: log mass = {z!r} exceeds "
                             f"tolerance {NORMALIZATION_TOL}")
        lr.setflags(write=False)
        object.__setattr__(self, "log_rho", lr)

    @classmethod
    def from_probs(cls, rho) -> "Belief":
        rho = np.asarray(rho, dtype=float)
        if np.any(rho <= 0.0):
            raise ValueError("belief probabilities must be strictly positive")
        return cls(np.log(rho / rho.sum()))

    @classmethod
    def uniform(cls, m: int) -> "Belief":
        return cls(np.full(m, -np.log(m)))

    def probs(self) -> np.ndarray:
        return np.exp(self.log_rho)

    def __len__(self) -> int:
        return self.log_rho.size


@dataclass(frozen=True)
class Trajectory:
    """Realized experiment/observation index pairs, one per step."""

    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "steps", tuple((int(u), int(y)) for u, y in self.steps)
        )

    def __len__(self) -> int:
        return len(self.steps)

    def dump(self) -> str:
        """Debug dump: one line per step, tab-separated `n u y`, zero-based."""
        return "\n".join(f"{n}\t{u}\t{y}" for n, (u, y) in enumerate(self.steps))


def bllr(belief: Belief, i: int) -> float:
    """Confidence level on hypothesis i: log rho(i) - log(1 - rho(i)), in nats."""
    lr = belief.log_rho
    if not (0 <= i < lr.size):
        raise ValueError(f"hypothesis index {i} out of range")
    if not np.isfinite(lr[i]):
        raise ValueError("degenerate belief: rho(i) is 0 or 1")
    others = np.delete(lr, i)
    return float(lr[i] - logsumexp_last(others))


def update_belief(model: Model, belief: Belief, u: int, y: int) -> Belief:
    """One Bayes step: log rho'(h) = log rho(h) + log p_h^u(y) - normalizer."""
    lr = belief.log_rho + model.log_channel[:, u, y]
    return Belief(log_normalize(lr))


def posterior_from_trajectory(model: Model, prior: Belief, traj: Trajectory) -> Belief:
    """Fold update_belief over the trajectory steps."""
    b = prior
    for u, y in traj.steps:
        b = update_belief(model, b, u, y)
    return b


def confidence_increment(
    model: Model, prior: Belief, traj: Trajectory, i: int
) -> float:
    """Total confidence gain on i over a trajectory, via the rival-sum identity.

    Computes -log sum_{j != i} exp(log rho1(j)/(1 - rho1(i)) + sum_n lambda(j over i))
    where lambda(j over i) is the per-step log-likelihood ratio of rival j
    against i. Agrees with the confidence difference obtained by folding the
    posterior, but needs only the per-step ratios.
    """
    lr1 = prior.log_rho
    m = lr1.size
    if not (0 <= i < m):
        raise ValueError(f"hypothesis index {i} out of range")
    # sum over steps of log p_j^{u}(y) for every j at once
    lam = np.zeros(m)
    for u, y in traj.steps:
        lam = lam + model.log_channel[:, u, y]
    rivals = np.arange(m) != i
    log_rho_tilde = lr1[rivals] - logsumexp_last(lr1[rivals])
    terms = log_rho_tilde + (lam[rivals] - lam[i])
    return float(-logsumexp_last(terms))
