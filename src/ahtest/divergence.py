"""KL divergence matrices and the per-hypothesis experiment-selection game.

For hypothesis i the payoff matrix K[u][j] = D(p_i^u || p_j^u) defines a
finite zero-sum game: a maximizing player mixes over experiments, a
minimizing player mixes over rival hypotheses. Its value D*(i) is the best
guaranteed per-step confidence growth rate for i, and the optimizers are the
sampling distribution used by the MAP-phase strategy and the worst-case
rival mixture entering the confidence-rate bound. One linear program per game
yields both: alpha from its solution, beta from its duals (LP duality), and
both are certified by direct evaluation to a duality gap of at most SADDLE_TOL.
scipy.optimize is imported at the first game that needs an LP, not before.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass

import numpy as np

from .model import Model

SADDLE_TOL = 1e-6   # largest duality gap a certified saddle point may carry


class SaddleSolverError(RuntimeError):
    """Solver failed to certify a saddle point; carries the best gap achieved."""

    def __init__(self, message: str, best_gap: float | None = None):
        super().__init__(message)
        self.best_gap = best_gap


def kl_divergence(p, q) -> float:
    """D(p || q) = sum_y p(y) log(p(y)/q(y)) in nats, for full-support distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same support size")
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        raise ValueError("kl_divergence requires strictly positive entries")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("kl_divergence requires normalized distributions")
    return float(np.sum(p * (np.log(p) - np.log(q))))


@dataclass(frozen=True)
class KLMatrix:
    """Payoff matrix of the experiment-selection game for one hypothesis.

    values[u][k] = D(p_i^u || p_j^u) with j = rivals[k]; rivals are the other
    hypotheses in declaration order.
    """

    hypothesis: int
    rivals: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "rivals", tuple(int(j) for j in self.rivals))


def kl_matrix(model: Model, i: int) -> KLMatrix:
    if not (0 <= i < model.num_hypotheses):
        raise ValueError(f"hypothesis index {i} out of range")
    rivals = tuple(j for j in range(model.num_hypotheses) if j != i)
    p_i = model.channel[i]          # (U, Y)
    lp = model.log_channel
    vals = np.empty((model.num_experiments, len(rivals)))
    for k, j in enumerate(rivals):
        vals[:, k] = np.sum(p_i * (lp[i] - lp[j]), axis=1)
    return KLMatrix(hypothesis=i, rivals=rivals, values=vals)


@dataclass(frozen=True)
class SaddlePoint:
    """Certified solution of the experiment-selection game for one hypothesis.

    alpha_star guarantees min_j (alpha K)_j >= d_star - gap/2 and beta_star
    guarantees max_u (K beta)_u <= d_star + gap/2; d_star is the midpoint of
    the two certified values.
    """

    hypothesis: int
    d_star: float
    alpha_star: np.ndarray
    beta_star: np.ndarray
    rivals: tuple[int, ...]
    gap: float

    def __post_init__(self):
        for name in ("alpha_star", "beta_star"):
            v = np.asarray(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        object.__setattr__(self, "rivals", tuple(int(j) for j in self.rivals))


def _clean_simplex(x: np.ndarray) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=float), 0.0, None)
    s = x.sum()
    if not s > 0.0:   # also rejects NaN
        raise SaddleSolverError("solver returned an empty mixed strategy")
    return x / s


@functools.cache
def _scipy_optimize():
    """scipy.optimize, imported at the first LP; gc.freeze() then keeps full
    collections from walking its objects, as in ahtest/__init__.py."""
    import scipy.optimize

    gc.freeze()
    return scipy.optimize


def solve_matrix_game(payoff: np.ndarray):
    """Value and optimal mixtures of a finite zero-sum game.

    The row player maximizes min over columns of (alpha^T payoff); the column
    player minimizes max over rows of (payoff beta). Returns
    (value, alpha, beta, gap) where gap is the certified duality gap computed
    by direct evaluation of both mixtures against the matrix; a gap above
    SADDLE_TOL, or one that is not a number, raises SaddleSolverError.

    Degenerate shapes (a single row or a single column) are solved exactly,
    ties breaking toward the lowest index. Otherwise one LP is solved for
    alpha, and beta is read from the duals of its n_cols column constraints.
    """
    K = np.asarray(payoff, dtype=float)
    if K.ndim != 2 or K.size == 0:
        raise ValueError("payoff must be a non-empty 2-dim matrix")
    n_rows, n_cols = K.shape

    if n_cols == 1:
        r = int(np.argmax(K[:, 0]))
        alpha = np.zeros(n_rows)
        alpha[r] = 1.0
        return float(K[r, 0]), alpha, np.array([1.0]), 0.0
    if n_rows == 1:
        c = int(np.argmin(K[0, :]))
        beta = np.zeros(n_cols)
        beta[c] = 1.0
        return float(K[0, c]), np.array([1.0]), beta, 0.0

    # Maximize v subject to (alpha^T K)_j >= v, alpha on the simplex.
    c_row = np.zeros(n_rows + 1)
    c_row[-1] = -1.0
    a_ub = np.hstack([-K.T, np.ones((n_cols, 1))])
    a_eq = np.hstack([np.ones((1, n_rows)), np.zeros((1, 1))])
    res = _scipy_optimize().linprog(
        c_row, A_ub=a_ub, b_ub=np.zeros(n_cols), A_eq=a_eq, b_eq=[1.0],
        bounds=[(0.0, None)] * n_rows + [(None, None)], method="highs",
    )
    if not res.success:
        raise SaddleSolverError(f"row LP failed: {res.message}")

    alpha = _clean_simplex(res.x[:n_rows])
    beta = _clean_simplex(-res.ineqlin.marginals)
    lower = float(np.min(alpha @ K))
    upper = float(np.max(K @ beta))
    gap = upper - lower
    if not gap <= SADDLE_TOL:   # also rejects NaN
        raise SaddleSolverError(
            f"duality gap {gap:.3e} exceeds tolerance {SADDLE_TOL:.1e}", best_gap=gap
        )
    return (lower + upper) / 2.0, alpha, beta, max(gap, 0.0)


def solve_saddle(kl: KLMatrix) -> SaddlePoint:
    """Certified saddle point (gap <= SADDLE_TOL) of one hypothesis's game."""
    value, alpha, beta, gap = solve_matrix_game(kl.values)
    return SaddlePoint(
        hypothesis=kl.hypothesis,
        d_star=value,
        alpha_star=alpha,
        beta_star=beta,
        rivals=kl.rivals,
        gap=gap,
    )


def saddle_points(model: Model) -> tuple[SaddlePoint, ...]:
    """Certified saddle point of every hypothesis's game, in hypothesis order."""
    return tuple(solve_saddle(kl_matrix(model, i)) for i in range(model.num_hypotheses))
