"""Closed-form bound evaluation and the sweep table."""

import math

import numpy as np
import pytest

from ahtest import (
    EpsilonSchedule,
    RunConfig,
    bound_report,
    enumerate_exact,
    lambda_bound,
    p2_achievable_rates,
    misclassification_lower_bound,
    saddle_points,
    misclassification_upper_bound,
)
from ahtest.bounds import BOUND_CSV
from ahtest.engine import csv_text
from ahtest.strategies import ChernoffSelection, FBarInference, P2Inference


@pytest.fixture(scope="module")
def bsc2_saddles(bsc2):
    return saddle_points(bsc2)


@pytest.fixture(scope="module")
def tri3_saddles(tri3):
    return saddle_points(tri3)


class TestMisclassificationUpperBound:
    def test_formula_value(self, bsc2, bsc2_saddles):
        got = misclassification_upper_bound(bsc2, bsc2_saddles, 10, 0.4)
        expect = 2 * 0.5 * math.exp(-10 * (0.8 * math.log(9) - 0.4))
        assert got == pytest.approx(expect, rel=1e-12, abs=0)
        assert got == pytest.approx(1.2683e-06, rel=1e-4)

    def test_monotone_decreasing_in_horizon(self, bsc2, bsc2_saddles):
        vals = [misclassification_upper_bound(bsc2, bsc2_saddles, n, 0.4) for n in range(1, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-20

    def test_zero_exponent_at_delta_equal_dstar(self, bsc2, bsc2_saddles):
        dmin = min(sp.d_star for sp in bsc2_saddles)
        for n in (1, 5, 50):
            assert misclassification_upper_bound(bsc2, bsc2_saddles, n, dmin) >= 0.5

    def test_delta_positive_required(self, bsc2, bsc2_saddles):
        with pytest.raises(ValueError):
            misclassification_upper_bound(bsc2, bsc2_saddles, 5, 0.0)

    def test_delta_above_dstar_min_rejected(self, bsc2, bsc2_saddles):
        # exp(-N (D* - delta)) overflowed here instead
        dmin = min(sp.d_star for sp in bsc2_saddles)
        for delta in (math.nextafter(dmin, math.inf), 3.0, 1000.0):
            with pytest.raises(ValueError, match="delta must lie in"):
                misclassification_upper_bound(bsc2, bsc2_saddles, 10, delta)


class TestRemark1Lower:
    def test_small_epsilon_limit(self, bsc2, bsc2_saddles):
        jng = [1.0, 1.2]
        base = sum(0.5 * math.exp(-3 * j) for j in jng)
        got = misclassification_lower_bound(bsc2, jng, 3, 1e-12)
        assert got == pytest.approx(base, rel=1e-9)

    def test_concrete_value_over_enumeration(self, bsc2, bsc2_saddles):
        cfg = RunConfig(
            model=bsc2, selection=ChernoffSelection(bsc2_saddles),
            inference=FBarInference(bsc2_saddles, 0.4), horizon=3,
        )
        rep = enumerate_exact(cfg)
        b = lambda_bound(bsc2)
        eps = 1 / 6
        got = misclassification_lower_bound(bsc2, rep.jng, 3, eps)
        expect = sum(
            0.5 * math.exp(-3 * rep.jng[i] - 3 * 2 * b * eps / (1 - eps) + math.log(1 - eps))
            for i in (0, 1)
        )
        assert got == pytest.approx(expect, rel=1e-12, abs=0)

    def test_lower_bounds_exact_gamma_when_feasible(self, bsc2, bsc2_saddles):
        # discover horizons where the enumerated type-error caps hold at
        # eps = 1/(2N); at delta = D*/4 the N=5 threshold ties the k=4
        # evidence level exactly, so only N in {1, 2} is robustly feasible
        feasible = []
        for n in range(1, 9):
            cfg = RunConfig(
                model=bsc2, selection=ChernoffSelection(bsc2_saddles),
                inference=FBarInference(bsc2_saddles, min(sp.d_star for sp in bsc2_saddles) / 4),
                horizon=n,
            )
            rep = enumerate_exact(cfg)
            eps = 1 / (2 * n)
            if all(p <= eps for p in rep.psi):
                feasible.append(n)
                assert misclassification_lower_bound(bsc2, rep.jng, n, eps) <= rep.gamma + 1e-12
        assert {1, 2} <= set(feasible)

    def test_epsilon_range(self, bsc2):
        with pytest.raises(ValueError):
            misclassification_lower_bound(bsc2, [1.0, 1.0], 3, 0.0)


class TestSandwich:
    def test_exact_gamma_between_the_bounds_where_the_caps_hold(self, bsc2, bsc2_saddles):
        # The paper's sandwich for chernoff/fbar at delta = D*/4: at every
        # horizon where the exact type-error caps psi(i) <= 1/(2N) hold, the
        # exact gamma_N lies between the lower and the upper bound. c08 stops
        # at N = 12; the lattice reaches N = 200 in milliseconds.
        delta = min(sp.d_star for sp in bsc2_saddles) / 4
        selection = ChernoffSelection(bsc2_saddles)
        inference = FBarInference(bsc2_saddles, delta)
        feasible = []
        for n in [*range(1, 13), 25, 50, 100, 200]:
            rep = enumerate_exact(RunConfig(
                model=bsc2, selection=selection, inference=inference, horizon=n))
            eps = 1 / (2 * n)
            if all(p <= eps for p in rep.psi):
                feasible.append(n)
                lower = misclassification_lower_bound(bsc2, rep.jng, n, eps)
                upper = misclassification_upper_bound(bsc2, bsc2_saddles, n, delta)
                assert 0.0 < lower <= rep.gamma <= upper, n
        # not vacuous: the caps hold deep in the tail
        assert {1, 2, 50, 100, 200} <= set(feasible)


class TestP2Rates:
    def test_formula(self, bsc2, bsc2_saddles):
        b = lambda_bound(bsc2)
        rates = p2_achievable_rates(bsc2, bsc2_saddles, 100, 0.005)
        expect = 0.8 * math.log(9) - 2 * b * math.sqrt(math.log(400) / 100)
        np.testing.assert_allclose(rates, [expect, expect], atol=1e-12)

    def test_rates_approach_dstar(self, tri3, tri3_saddles):
        r_small = p2_achievable_rates(tri3, tri3_saddles, 10, 1 / 20)
        r_large = p2_achievable_rates(tri3, tri3_saddles, 10_000, 1 / 20_000)
        d = np.array([sp.d_star for sp in tri3_saddles])
        assert np.all(r_large > r_small)
        np.testing.assert_allclose(r_large, d, atol=0.2)


    @pytest.mark.parametrize("rule", ["half-inverse", "fixed:0.05"])
    @pytest.mark.parametrize("name", ["bsc2", "tri3"])
    def test_p2_rule_threshold_is_horizon_times_its_rate(self, name, rule, request):
        # P2Inference.threshold and p2_achievable_rates write one formula twice
        model = request.getfixturevalue(name)
        saddles = request.getfixturevalue(f"{name}_saddles")
        sched = EpsilonSchedule.parse(rule)
        for n in (1, 2, 5, 25, 1000, 10**5):
            rates = p2_achievable_rates(model, saddles, n, sched.epsilon(n))
            for i in range(model.num_hypotheses):
                got = P2Inference(i, saddles[i], sched).threshold(model, n)
                assert abs(got - n * rates[i]) <= 1e-12 * n * lambda_bound(model), (i, n)


class TestBoundReportAndCsv:
    def test_exact_report_fields(self, bsc2, bsc2_saddles):
        cfg = RunConfig(
            model=bsc2, selection=ChernoffSelection(bsc2_saddles),
            inference=FBarInference(bsc2_saddles, 0.4), horizon=3,
        )
        rep = enumerate_exact(cfg)
        br = bound_report(bsc2, bsc2_saddles, rep, 1 / 6, 0.4)
        assert br.reliable
        assert br.feasible is False          # psi = 0.271 > 1/6
        assert br.gamma == pytest.approx(0.001, abs=1e-12)
        assert br.achieved_exponent == pytest.approx(-math.log(0.001) / 3, rel=1e-12)
        assert br.d_star_min == pytest.approx(0.8 * math.log(9), abs=1e-9)

    def test_csv_columns(self, bsc2, bsc2_saddles):
        cfg = RunConfig(
            model=bsc2, selection=ChernoffSelection(bsc2_saddles),
            inference=FBarInference(bsc2_saddles, 0.4), horizon=2,
        )
        rep = enumerate_exact(cfg)
        br = bound_report(bsc2, bsc2_saddles, rep, 0.25, 0.4)
        lines = csv_text(BOUND_CSV, [br.to_json_dict()]).splitlines()
        assert lines[0] == "N,gamma,gamma_stderr,achieved_exponent,dstar_min,upper_bound,lower_bound,feasible"
        assert lines[1].startswith("2,")
        assert len(lines) == 2

    def test_exponent_table_rows_and_flags(self, bsc2, bsc2_saddles):
        from ahtest import exponent_table, monte_carlo

        delta = min(sp.d_star for sp in bsc2_saddles) / 4
        horizons = [2, 4]
        runs = [
            enumerate_exact(RunConfig(
                model=bsc2, selection=ChernoffSelection(bsc2_saddles),
                inference=FBarInference(bsc2_saddles, delta), horizon=n,
            ))
            for n in horizons
        ]
        rows = exponent_table(bsc2, bsc2_saddles, runs, EpsilonSchedule("half-inverse"), delta)
        assert [r.horizon for r in rows] == horizons
        assert all(r.reliable for r in rows)
        # a zero-event Monte Carlo run keeps its exponent blank but stays a row
        mc = monte_carlo(RunConfig(
            model=bsc2, selection=ChernoffSelection(bsc2_saddles),
            inference=FBarInference(bsc2_saddles, delta), horizon=25,
            episodes=200, seed=0,
        ))
        row = exponent_table(bsc2, bsc2_saddles, [mc], EpsilonSchedule("fixed", 0.02), delta)[0]
        assert row.achieved_exponent is None
        assert not row.reliable

    def test_exponent_capped_by_dstar_min(self, bsc2, bsc2_saddles):
        # exact runs at growing horizons: achieved exponent stays below the
        # asymptotic rate plus the vanishing prior-odds offset log(1)/N = 0
        dmin = min(sp.d_star for sp in bsc2_saddles)
        delta = dmin / 4
        for n in (6, 8, 10, 12):
            cfg = RunConfig(
                model=bsc2, selection=ChernoffSelection(bsc2_saddles),
                inference=FBarInference(bsc2_saddles, delta), horizon=n,
            )
            rep = enumerate_exact(cfg)
            br = bound_report(bsc2, bsc2_saddles, rep, 1 / (2 * n), delta)
            assert br.gamma > 0
            # the threshold rule may overshoot the asymptotic exponent at
            # finite N (it fires only above N(D*-delta)); check the threshold
            # cap instead: gamma <= sum(1-rho) e^{-N(D*-delta)}
            assert br.gamma <= br.upper_bound + 1e-15
