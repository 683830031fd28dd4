"""Closed-form misclassification bounds, exponents, and sweep tables.

Evaluates the achievability upper bound and the explicit-constant lower
bound on the misclassification probability, the asymptotic exponent
min_i D*(i), and the finite-horizon rate achievable by the one-hypothesis
Hoeffding construction, then lines them up against measured engine output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .divergence import SaddlePoint
from .engine import RunReport
from .model import Model, lambda_bound

# Exponent estimates from fewer misclassification events than this are
# flagged unreliable: the log of a rare-event estimate is too noisy.
MIN_RELIABLE_COUNTS = 10

CSV_COLUMNS = (
    "N", "gamma", "gamma_stderr", "achieved_exponent",
    "dstar_min", "upper_bound", "lower_bound", "feasible",
)


def misclassification_upper_bound(
    model: Model, saddles: Sequence[SaddlePoint], horizon: int, delta: float
) -> float:
    """sum_i (1 - rho1(i)) exp(-N (D*(i) - delta)): the achievable
    misclassification level of the MAP-phase/threshold strategy pair at
    large horizons.

    delta must lie in (0, min_i D*(i)]: there no exponent is positive, so the
    bound cannot overflow, and above it the bound exceeds 1 and says nothing.
    """
    d_star_min = min(sp.d_star for sp in saddles)
    if not 0.0 < delta <= d_star_min:
        raise ValueError(f"delta must lie in (0, min_i D*(i)] = (0, {d_star_min!r}], "
                         f"got {delta!r}")
    total = 0.0
    for i, sp in enumerate(saddles):
        total += (1.0 - model.prior[i]) * math.exp(-horizon * (sp.d_star - delta))
    return total


def misclassification_lower_bound(
    model: Model,
    jng: Sequence[float],
    horizon: int,
    epsilon: float,
) -> float:
    """Explicit-constant lower bound on the misclassification probability of
    any strategy pair meeting the type-error caps, from measured confidence
    rates: sum_i (1-rho1(i)) exp(-N J(i) - N 2B eps/(1-eps) + log(1-eps))."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    b = lambda_bound(model)
    correction = horizon * 2.0 * b * epsilon / (1.0 - epsilon) - math.log1p(-epsilon)
    total = 0.0
    for i in range(model.num_hypotheses):
        total += (1.0 - model.prior[i]) * math.exp(-horizon * jng[i] - correction)
    return total


def p2_achievable_rates(
    saddles: Sequence[SaddlePoint],
    lam_bound: float,
    num_hypotheses: int,
    horizon: int,
    epsilon: float,
) -> np.ndarray:
    """Per-hypothesis finite-horizon exponent D*(i) - 2B sqrt(log(M/eps)/N)
    guaranteed by the one-hypothesis Hoeffding construction."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    margin = 2.0 * lam_bound * math.sqrt(math.log(num_hypotheses / epsilon) / horizon)
    return np.array([sp.d_star - margin for sp in saddles])


@dataclass(frozen=True)
class BoundReport:
    """One horizon's bound evaluation against a measured run."""

    horizon: int
    d_star: tuple[float, ...]
    d_star_min: float
    upper_bound: float
    lower_bound: float
    gamma: float
    gamma_se: Optional[float]
    achieved_exponent: Optional[float]
    p2_rates: tuple[float, ...]
    feasible: bool                    # psi_N(i) <= eps_N for every i
    reliable: bool                    # enough events to trust the exponent
    epsilon: float
    delta: float

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "d_star": list(self.d_star),
            "d_star_min": self.d_star_min,
            "upper_bound": self.upper_bound,
            "lower_bound": self.lower_bound,
            "gamma": self.gamma,
            "gamma_stderr": self.gamma_se,
            "achieved_exponent": self.achieved_exponent,
            "p2_rates": list(self.p2_rates),
            "feasible": self.feasible,
            "reliable": self.reliable,
            "epsilon": self.epsilon,
            "delta": self.delta,
        }

    def csv_row(self) -> dict:
        return {
            "N": self.horizon,
            "gamma": csv_num(self.gamma),
            "gamma_stderr": csv_num(self.gamma_se),
            "achieved_exponent": csv_num(self.achieved_exponent),
            "dstar_min": csv_num(self.d_star_min),
            "upper_bound": csv_num(self.upper_bound),
            "lower_bound": csv_num(self.lower_bound),
            "feasible": str(self.feasible).lower(),
        }


def csv_num(v) -> str:
    """A CSV cell for an optional number: its repr, or empty for None."""
    return "" if v is None else repr(float(v))


def bound_report(
    model: Model,
    saddles: Sequence[SaddlePoint],
    lam_bound: float,
    report: RunReport,
    epsilon: float,
    delta: float,
    min_counts: int = MIN_RELIABLE_COUNTS,
) -> BoundReport:
    """Evaluate all bounds for one run report."""
    d_star = tuple(sp.d_star for sp in saddles)
    d_star_min = min(d_star)
    upper = misclassification_upper_bound(model, saddles, report.horizon, delta)
    lower = misclassification_lower_bound(model, report.jng, report.horizon, epsilon)
    p2 = tuple(p2_achievable_rates(saddles, lam_bound, model.num_hypotheses,
                                   report.horizon, epsilon))

    if report.mode == "exact":
        reliable = True
    else:
        reliable = (report.misclassification_count or 0) >= min_counts

    gamma = report.gamma
    achieved = None
    if gamma > 0.0 and reliable:
        achieved = -math.log(gamma) / report.horizon

    feasible = all(v <= epsilon for v in report.psi)

    return BoundReport(
        horizon=report.horizon,
        d_star=d_star,
        d_star_min=d_star_min,
        upper_bound=upper,
        lower_bound=lower,
        gamma=gamma,
        gamma_se=report.gamma_se,
        achieved_exponent=achieved,
        p2_rates=p2,
        feasible=feasible,
        reliable=reliable,
        epsilon=epsilon,
        delta=delta,
    )


def exponent_table(
    model: Model,
    saddles: Sequence[SaddlePoint],
    lam_bound: float,
    reports: Sequence[RunReport],
    epsilons: Sequence[float],
    delta: float,
) -> list[BoundReport]:
    """Bound rows for a horizon sweep, in report order.

    Rows whose misclassification estimate is zero or backed by too few
    events keep achieved_exponent = None and are flagged through
    `reliable` rather than being dropped.
    """
    if len(reports) != len(epsilons):
        raise ValueError("need one epsilon per report")
    return [
        bound_report(model, saddles, lam_bound, rep, eps, delta)
        for rep, eps in zip(reports, epsilons)
    ]


def write_exponent_csv(rows: Sequence[BoundReport], fh) -> None:
    """Write the sweep table with the documented column set."""
    writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.csv_row())
