"""Independent reference computations for the benchmark's correctness checks.

Everything here is written from the definitions in the paper and the model
file format, with numpy and scipy only. Nothing imports `ahtest`: the checks
compare the program against these figures, so they must not share its code.

- `Bsc2`: closed forms for the symmetric binary channel with one experiment.
- `dstar_grid`: D*(i) = max over experiment mixtures of min over rivals of
  the mixed KL divergence, by a grid search refined on the concave envelope.
- `lattice`: exact enumeration over count vectors instead of paths. Every
  selection rule used here is a function of the belief, and the belief after
  n steps is fixed by the counts of (experiment, observation) outcomes, so
  merging paths with equal counts is exact.
- `chernoff_bracket`: the range of the chernoff/fbar decision matrix and
  J_N over every way of breaking MAP ties, by dynamic programming on the
  same count vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import logsumexp
from scipy.stats import binom

# Scores within this relative distance of the maximum count as tied; ties go
# to the lowest index. Mathematically tied scores of these models differ by a
# few ulps, while distinct ones differ by far more than this.
TIE_REL_TOL = 1e-9


def argmax_lowest(scores) -> int:
    scores = np.asarray(scores, dtype=float)
    best = float(scores.max())
    return int(np.argmax(scores >= best - TIE_REL_TOL * max(1.0, abs(best))))


def kl(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(np.sum(p * np.log(p / q)))


def kl_table(channel: np.ndarray) -> np.ndarray:
    """kl[i, j, u] = D(p_i^u || p_j^u)."""
    m, n_exp, _ = channel.shape
    out = np.zeros((m, m, n_exp))
    for i in range(m):
        for j in range(m):
            for u in range(n_exp):
                out[i, j, u] = kl(channel[i, u], channel[j, u])
    return out


def confidence(log_rho: np.ndarray) -> np.ndarray:
    """C_i = log rho_i - log sum_{j != i} rho_j, for every i (last axis)."""
    m = log_rho.shape[-1]
    out = np.empty_like(log_rho)
    for i in range(m):
        others = np.delete(log_rho, i, axis=-1)
        out[..., i] = log_rho[..., i] - logsumexp(others, axis=-1)
    return out


# ---------------------------------------------------------------------------
# saddle values by grid search
# ---------------------------------------------------------------------------

def dstar_grid(channel: np.ndarray, grid: int = 20001) -> tuple[np.ndarray, np.ndarray]:
    """D*(i) and a maximizing experiment mixture alpha*(i), for one or two
    experiments. min_j of linear functions of the mixture weight is concave,
    so a ternary search around the best grid point pins the maximum down to
    rounding."""
    m, n_exp, _ = channel.shape
    if n_exp > 2:
        raise ValueError("grid search implemented for at most two experiments")
    kls = kl_table(channel)
    d_star = np.empty(m)
    alpha = np.empty((m, n_exp))
    for i in range(m):
        rivals = [j for j in range(m) if j != i]
        if n_exp == 1:
            d_star[i] = min(kls[i, j, 0] for j in rivals)
            alpha[i] = [1.0]
            continue

        def value(a, i=i, rivals=rivals):
            return min(a * kls[i, j, 0] + (1.0 - a) * kls[i, j, 1] for j in rivals)

        ts = np.linspace(0.0, 1.0, grid)
        vals = np.min(
            ts[:, None] * kls[i, rivals, 0][None, :]
            + (1.0 - ts)[:, None] * kls[i, rivals, 1][None, :],
            axis=1,
        )
        k = int(np.argmax(vals))
        lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, grid - 1)]
        for _ in range(200):
            a1 = lo + (hi - lo) / 3.0
            a2 = hi - (hi - lo) / 3.0
            if value(a1) < value(a2):
                lo = a1
            else:
                hi = a2
        a = (lo + hi) / 2.0
        d_star[i] = value(a)
        alpha[i] = [a, 1.0 - a]
    return d_star, alpha


# ---------------------------------------------------------------------------
# bsc2 closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bsc2:
    """Two hypotheses, one experiment, observation y = hypothesis index with
    probability p. With the fbar rule at delta = D*/4, hypothesis H1 is
    declared iff the count n0 of observation 0 satisfies
    (2 n0 - N) ln(p/q) >= N (D* - delta), i.e. n0 >= k(N) with
    k(N) = N (1 + (3/4)(p - q)) / 2. When k(N) is an integer the path lands
    exactly on the threshold and the two tie rules give the two ends of a
    bracket."""

    p: Fraction = Fraction(9, 10)
    delta_frac: Fraction = Fraction(1, 4)

    @property
    def q(self) -> Fraction:
        return 1 - self.p

    @property
    def log_ratio(self) -> float:
        """B = ln(p/q), the largest per-step log-likelihood ratio."""
        return math.log(self.p / self.q)

    @property
    def d_star(self) -> float:
        """D* = J = (p - q) ln(p/q) for both hypotheses."""
        return float(self.p - self.q) * self.log_ratio

    @property
    def delta(self) -> float:
        return float(self.delta_frac) * self.d_star

    def threshold_count(self, n: int) -> Fraction:
        return n * (1 + (1 - self.delta_frac) * (self.p - self.q)) / 2

    def on_boundary(self, n: int) -> bool:
        return self.threshold_count(n).denominator == 1

    def _k_range(self, n: int) -> tuple[int, int]:
        """(k declaring on the boundary, k abstaining on the boundary)."""
        k = self.threshold_count(n)
        k_incl = math.ceil(k)
        k_excl = k.numerator // k.denominator + 1
        return k_incl, k_excl

    def tail(self, n: int, prob: Fraction, k: int) -> float:
        """P(Bin(n, prob) >= k)."""
        return float(binom.sf(k - 1, n, float(prob)))

    def decision_rows(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(lowest, highest) decision matrix over the two boundary rules, in
        the report's layout: rows are the true hypothesis, columns H1, H2,
        abstain. Entry-wise the boundary-declaring rule gives the larger
        declaration probabilities and the smaller abstention."""
        rows = []
        for k in self._k_range(n):
            right = self.tail(n, self.p, k)
            wrong = self.tail(n, self.q, k)
            abstain = float(binom.cdf(k - 1, n, float(self.p))) - wrong
            rows.append(np.array([[right, wrong, abstain], [wrong, right, abstain]]))
        declare_side, abstain_side = rows
        return np.minimum(declare_side, abstain_side), np.maximum(declare_side, abstain_side)

    def psi_bracket(self, n: int) -> tuple[float, float]:
        """psi_N(i) = P(n_i < k): type-i error, same for both hypotheses."""
        k_incl, k_excl = self._k_range(n)
        return (float(binom.cdf(k_incl - 1, n, float(self.p))),
                float(binom.cdf(k_excl - 1, n, float(self.p))))

    def misclass_bracket(self, n: int) -> tuple[float, float]:
        """gamma_N = phi_N(i) = P(n_wrong >= k) with n_wrong ~ Bin(N, q)."""
        k_incl, k_excl = self._k_range(n)
        return self.tail(n, self.q, k_excl), self.tail(n, self.q, k_incl)

    def increment_sd(self, n: int) -> float:
        """Standard deviation of the total confidence increment (n0 - n1) B."""
        return 2.0 * self.log_ratio * math.sqrt(n * float(self.p * self.q))

    def upper_bound(self, n: int) -> float:
        """sum_i (1 - rho(i)) exp(-N (D*(i) - delta)) with rho = (1/2, 1/2)."""
        return math.exp(-n * (self.d_star - self.delta))

    def lower_bound(self, n: int, eps: float, jng=None) -> float:
        """sum_i (1 - rho(i)) exp(-N J(i) - N 2B eps/(1-eps) + log(1-eps))."""
        jng = (self.d_star, self.d_star) if jng is None else jng
        corr = n * 2.0 * self.log_ratio * eps / (1.0 - eps) - math.log1p(-eps)
        return sum(0.5 * math.exp(-n * j - corr) for j in jng)

    def p2_rate(self, n: int, eps: float) -> float:
        return self.d_star - 2.0 * self.log_ratio * math.sqrt(math.log(2 / eps) / n)


# ---------------------------------------------------------------------------
# count lattice
# ---------------------------------------------------------------------------

def _ejs_scores(log_rho: np.ndarray, log_channel: np.ndarray) -> np.ndarray:
    """Expected one-step confidence gain on the true hypothesis, per experiment:
    sum_h rho(h) sum_y p_h^u(y) [C_h(rho') - C_h(rho)], rho' the posterior."""
    base = confidence(log_rho)
    rho = np.exp(log_rho)
    scores = []
    for u in range(log_channel.shape[1]):
        lc = log_channel[:, u, :]                                 # (M, Y)
        post = log_rho[:, None] + lc
        post = post - logsumexp(post, axis=0, keepdims=True)      # (M, Y)
        gain = confidence(post.T).T - base[:, None]               # (M, Y)
        scores.append(float(np.sum(rho[:, None] * np.exp(lc) * gain)))
    return np.array(scores)


@dataclass
class LatticeResult:
    """Exact outcome of a (selection, fbar) pair at one horizon.

    decision_probs[h, d] with d = M meaning abstain; jng[h] = E_h[C_h gain]/N;
    inc_var[h] the variance of the total gain on h under h. near_boundary counts
    terminal states with an fbar margin within 1e-9 of zero, which would make
    the exact decision depend on rounding.
    """

    decision_probs: np.ndarray
    jng: np.ndarray
    inc_var: np.ndarray
    near_boundary: int


class _Counts:
    """Beliefs and fbar decisions as functions of outcome counts."""

    def __init__(self, channel, prior, horizon, d_star):
        self.channel = channel
        self.m, n_exp, n_obs = channel.shape
        self.log_channel = np.log(channel)
        self.log_prior = np.log(prior)
        self.outcomes = [(u, y) for u in range(n_exp) for y in range(n_obs)]
        self.thresholds = horizon * (d_star - float(np.min(d_star)) / 4.0)
        self.base = confidence(self.log_prior)

    def log_belief(self, counts) -> np.ndarray:
        lr = self.log_prior.copy()
        for (u, y), c in zip(self.outcomes, counts):
            lr += c * self.log_channel[:, u, y]
        return lr - logsumexp(lr)

    def children(self, counts):
        """(experiment, observation, child counts)."""
        for k, (u, y) in enumerate(self.outcomes):
            yield u, y, counts[:k] + (counts[k] + 1,) + counts[k + 1:]

    def terminal(self, counts) -> tuple[int, np.ndarray, bool]:
        """(fbar decision, confidence gains, whether a margin is within 1e-9)."""
        inc = confidence(self.log_belief(counts)) - self.base
        margins = inc - self.thresholds
        qualified = margins >= 0.0
        d = argmax_lowest(np.where(qualified, margins, -np.inf)) if qualified.any() else self.m
        return d, inc, bool(np.any(np.abs(margins) <= 1e-9))


def lattice(channel: np.ndarray, prior: np.ndarray, selection: str, horizon: int,
            d_star: np.ndarray, alpha: np.ndarray | None = None) -> LatticeResult:
    """Forward recursion over count vectors for `selection` in {"ejs",
    "chernoff"} with fbar inference at delta = min D*/4."""
    cs = _Counts(channel, prior, horizon, d_star)
    m, n_exp = cs.m, channel.shape[1]

    def action_dist(lr):
        if selection == "ejs":
            out = np.zeros(n_exp)
            out[argmax_lowest(_ejs_scores(lr, cs.log_channel))] = 1.0
            return out
        if selection == "chernoff":
            return alpha[argmax_lowest(lr)]
        raise ValueError(f"unknown selection {selection!r}")

    level = {tuple([0] * len(cs.outcomes)): np.ones(m)}
    for _ in range(horizon):
        nxt: dict = {}
        for counts, mass in level.items():
            dist = action_dist(cs.log_belief(counts))
            for u, y, child in cs.children(counts):
                if dist[u] <= 0.0:
                    continue
                add = mass * dist[u] * channel[:, u, y]
                nxt[child] = nxt[child] + add if child in nxt else add
        level = nxt

    dm = np.zeros((m, m + 1))
    inc_sum = np.zeros(m)
    inc_sq = np.zeros(m)
    near = 0
    for counts, mass in level.items():
        d, inc, on_threshold = cs.terminal(counts)
        near += on_threshold
        dm[:, d] += mass
        inc_sum += mass * inc
        inc_sq += mass * inc * inc
    return LatticeResult(
        decision_probs=dm,
        jng=inc_sum / horizon,
        inc_var=inc_sq - inc_sum**2,
        near_boundary=near,
    )


def chernoff_bracket(channel: np.ndarray, prior: np.ndarray, horizon: int,
                     d_star: np.ndarray, alpha: np.ndarray):
    """Smallest and largest decision matrix and J_N over every way of breaking
    MAP ties in chernoff selection (fbar inference).

    Each entry is its own finite-horizon decision problem on count vectors:
    at a state whose MAP is tied, choose among the tied hypotheses' mixtures
    to minimize (or maximize) the expected terminal value. Choices that
    depend on the state alone attain the extremes over choices that depend
    on the whole path, so the bracket holds for the tree walker too.
    Returns ((dm_lo, jng_lo), (dm_hi, jng_hi)).
    """
    cs = _Counts(channel, prior, horizon, d_star)
    m, k = cs.m, len(cs.outcomes)

    def level(n):
        return list(_compositions(n, k))

    # value[h, t]: t < m + 1 the probability of decision t, t = m + 1 the gain on h / N
    lo, hi = {}, {}
    for counts in level(horizon):
        d, inc, _ = cs.terminal(counts)
        v = np.zeros((m, m + 2))
        v[:, d] = 1.0
        v[:, m + 1] = inc / horizon
        lo[counts] = hi[counts] = v
    for n in range(horizon - 1, -1, -1):
        new_lo, new_hi = {}, {}
        for counts in level(n):
            lr = cs.log_belief(counts)
            best = float(lr.max())
            tied = np.flatnonzero(lr >= best - TIE_REL_TOL * max(1.0, abs(best)))
            conts_lo, conts_hi = [], []
            for j in tied:
                a = alpha[j]
                c_lo = np.zeros((m, m + 2))
                c_hi = np.zeros((m, m + 2))
                for u, y, child in cs.children(counts):
                    w = (a[u] * channel[:, u, y])[:, None]
                    c_lo += w * lo[child]
                    c_hi += w * hi[child]
                conts_lo.append(c_lo)
                conts_hi.append(c_hi)
            new_lo[counts] = np.min(conts_lo, axis=0)
            new_hi[counts] = np.max(conts_hi, axis=0)
        lo, hi = new_lo, new_hi
    root = tuple([0] * k)
    return ((lo[root][:, :m + 1], lo[root][:, m + 1]),
            (hi[root][:, :m + 1], hi[root][:, m + 1]))


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest
