"""The per-hypothesis experiment-selection game and its certified solver.

For hypothesis i the payoff matrix K[u][j] = D(p_i^u || p_j^u), read from the
model's KL table (`Model.kl`), defines a finite zero-sum game: a maximizing
player mixes over experiments, a minimizing player mixes over rival
hypotheses. Its value D*(i) is the best guaranteed per-step confidence growth
rate for i, and the optimizers are the sampling distribution used by the
MAP-phase strategy and the worst-case rival mixture entering the
confidence-rate bound. A small simplex finds the support of an optimal
solution, cofactors of that support give both mixtures exactly, and direct
evaluation certifies them to a gap of at most SADDLE_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Model

SADDLE_TOL = 1e-6   # largest duality gap a certified saddle point may carry


class SaddleSolverError(RuntimeError):
    """Solver failed to certify a saddle point; carries the best gap achieved."""

    def __init__(self, message: str, best_gap: float | None = None):
        super().__init__(message)
        self.best_gap = best_gap


@dataclass(frozen=True, eq=False)
class SaddlePoint:
    """Certified solution of the experiment-selection game for one hypothesis.

    alpha_star guarantees min_j (alpha K)_j >= d_star - gap/2 and beta_star
    guarantees max_u (K beta)_u <= d_star + gap/2; d_star is the midpoint of
    the two certified values. Compares and hashes by identity, as Model does.
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


def _simplex_support(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of an optimal basis's square support.

    Dense tableau simplex with Bland's rule on the classic game LP: K is
    mapped affinely onto [1, 2], which keeps the optimal mixtures, and
    1^T y is maximized subject to K' y <= 1, y >= 0. The support is the rows
    whose slack is nonbasic and the basic columns, both in index order.
    """
    m, n = K.shape
    eps = 1e-12
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = (K - K.min()) / (float(np.ptp(K)) or 1.0) + 1.0
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = 1.0
    T[m, :n] = -1.0
    basis = np.arange(n, n + m)
    for _ in range(100 * (m + n)):   # Bland's rule ends; the cap stops a rounding stall
        entering = np.flatnonzero(T[m, :-1] < -eps)
        if entering.size == 0:
            return np.setdiff1d(np.arange(m), basis - n), np.sort(basis[basis < n])
        j = entering[0]
        rows = np.flatnonzero(T[:m, j] > eps)
        if rows.size == 0:   # K' > 0 bounds the LP, so only rounding gets here
            break
        ratios = np.maximum(T[rows, -1], 0.0) / T[rows, j]
        tied = rows[ratios <= ratios.min() + eps]
        r = tied[np.argmin(basis[tied])]
        pivot = T[r] / T[r, j]
        T -= np.outer(T[:, j], pivot)
        T[r] = pivot
        basis[r] = j
    raise SaddleSolverError("simplex found no optimal basis")


def _cofactor_row_sums(A: np.ndarray) -> np.ndarray:
    """Row sums of the cofactors of a square matrix; for 2x2 they are
    differences of entries, taken as such because det is inexact even on 1x1."""
    k = len(A)
    if k == 1:
        return np.ones(1)
    if k == 2:
        return np.array([A[1, 1] - A[1, 0], A[0, 0] - A[0, 1]])
    keep = np.array([np.delete(np.arange(k), i) for i in range(k)])
    signs = (-1.0) ** np.add.outer(np.arange(k), np.arange(k))
    return (signs * np.linalg.det(A[keep[:, None, :, None], keep[None, :, None, :]])).sum(axis=1)


def _support_mixtures(K: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """alpha and beta that equalize the square support K[rows, cols].

    alpha is proportional to the cofactor row sums of the support, beta to
    those of its transpose; adding a constant to K leaves both unchanged. The
    last support entry is one minus the others.
    """
    support = K[np.ix_(rows, cols)]
    alpha, beta = np.zeros(K.shape[0]), np.zeros(K.shape[1])
    for mix, index, A in ((alpha, rows, support), (beta, cols, support.T)):
        w = _cofactor_row_sums(A)
        w = w / w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        mix[index] = w
    return alpha, beta


def solve_matrix_game(payoff: np.ndarray):
    """Value and optimal mixtures of a finite zero-sum game.

    The row player maximizes min over columns of (alpha^T payoff); the column
    player minimizes max over rows of (payoff beta). Returns
    (value, alpha, beta, gap) where gap is the certified duality gap computed
    by direct evaluation of both mixtures against the matrix; a gap above
    SADDLE_TOL, or one that is not a number, raises SaddleSolverError.

    Degenerate shapes (a single row or a single column) are solved exactly,
    ties breaking toward the lowest index. Otherwise one simplex run picks an
    optimal basis, and both mixtures are read off its square support.
    """
    K = np.asarray(payoff, dtype=float)
    if K.ndim != 2 or K.size == 0:
        raise ValueError("payoff must be a non-empty 2-dim matrix")
    if not np.all(np.isfinite(K)):
        raise ValueError("payoff entries must be finite")
    n_rows, n_cols = K.shape

    # Closed forms for one column (two hypotheses) or one row (one experiment).
    # The simplex path gives the same bits on such games but costs over ten
    # times as much on a 1x1 game, and every two-hypothesis model solves two.
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

    alpha, beta = map(_clean_simplex, _support_mixtures(K, *_simplex_support(K)))
    lower = float(np.min(alpha @ K))
    upper = float(np.max(K @ beta))
    gap = upper - lower
    if not gap <= SADDLE_TOL:   # also rejects NaN
        raise SaddleSolverError(
            f"duality gap {gap:.3e} exceeds tolerance {SADDLE_TOL:.1e}", best_gap=gap
        )
    return (lower + upper) / 2.0, alpha, beta, max(gap, 0.0)


def saddle_points(model: Model) -> tuple[SaddlePoint, ...]:
    """Certified saddle point of every hypothesis's game, in hypothesis order.

    Hypothesis i's payoff is its slice of the KL table without rival i,
    K[u][k] = model.kl[i, rivals[k], u], copied C-contiguous: the simplex's
    rounding follows the memory order of the matrix it is given.
    """
    saddles = []
    for i in range(model.num_hypotheses):
        rivals = [j for j in range(model.num_hypotheses) if j != i]
        value, alpha, beta, gap = solve_matrix_game(model.kl[i, rivals].T.copy())
        saddles.append(SaddlePoint(i, value, alpha, beta, tuple(rivals), gap))
    return tuple(saddles)
