"""Closed-form misclassification bounds, exponents, and sweep tables.

Evaluates the achievability upper bound and the explicit-constant lower
bound on the misclassification probability, the asymptotic exponent
min_i D*(i), and the finite-horizon rate achievable by the one-hypothesis
Hoeffding construction, then lines them up against measured engine output.
BoundReport's fields are a bound row's schema and BOUND_CSV its CSV columns;
engine.report_json and engine.csv_text write them as they write run reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .divergence import SaddlePoint
from .engine import RunReport, report_json
from .model import EpsilonSchedule, Model

# Exponent estimates from fewer misclassification events than this are
# flagged unreliable: the log of a rare-event estimate is too noisy.
MIN_RELIABLE_COUNTS = 10

# sweep and bounds --format csv: column -> key of BoundReport.to_json_dict.
BOUND_CSV = {"N": "horizon", "gamma": "gamma", "gamma_stderr": "gamma_stderr",
             "achieved_exponent": "achieved_exponent", "dstar_min": "d_star_min",
             "upper_bound": "upper_bound", "lower_bound": "lower_bound", "feasible": "feasible"}


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
    correction = horizon * 2.0 * model.lambda_bound * epsilon / (1.0 - epsilon) - math.log1p(-epsilon)
    total = 0.0
    for i in range(model.num_hypotheses):
        total += (1.0 - model.prior[i]) * math.exp(-horizon * jng[i] - correction)
    return total


def p2_achievable_rates(
    model: Model, saddles: Sequence[SaddlePoint], horizon: int, epsilon: float
) -> np.ndarray:
    """Per-hypothesis finite-horizon exponent D*(i) - 2B sqrt(log(M/eps)/N)
    guaranteed by the one-hypothesis Hoeffding construction, with
    B = model.lambda_bound and M = model.num_hypotheses."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    margin = 2.0 * model.lambda_bound * math.sqrt(
        math.log(model.num_hypotheses / epsilon) / horizon)
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
    gamma_se: Optional[float] = field(metadata={"json": "gamma_stderr"})
    achieved_exponent: Optional[float]
    p2_rates: tuple[float, ...]
    feasible: bool                    # psi_N(i) <= eps_N for every i
    reliable: bool                    # enough events to trust the exponent
    epsilon: float
    delta: float

    to_json_dict = report_json


def bound_report(
    model: Model, saddles: Sequence[SaddlePoint], report: RunReport, epsilon: float,
    delta: float,
) -> BoundReport:
    """Evaluate all bounds for one run report at the type-error cap epsilon."""
    d_star = tuple(sp.d_star for sp in saddles)
    d_star_min = min(d_star)
    upper = misclassification_upper_bound(model, saddles, report.horizon, delta)
    lower = misclassification_lower_bound(model, report.jng, report.horizon, epsilon)
    p2 = tuple(p2_achievable_rates(model, saddles, report.horizon, epsilon))

    if report.mode == "exact":
        reliable = True
    else:
        reliable = (report.misclassification_count or 0) >= MIN_RELIABLE_COUNTS

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
    model: Model, saddles: Sequence[SaddlePoint], reports: Sequence[RunReport],
    schedule: EpsilonSchedule, delta: float,
) -> list[BoundReport]:
    """Bound rows for a horizon sweep, in report order, each at its own
    horizon's epsilon, schedule.epsilon(report.horizon).

    Rows whose misclassification estimate is zero or backed by too few
    events keep achieved_exponent = None and are flagged through
    `reliable` rather than being dropped.
    """
    return [
        bound_report(model, saddles, rep, schedule.epsilon(rep.horizon), delta)
        for rep in reports
    ]
