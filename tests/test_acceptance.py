"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The exponent-trend sweep
(criterion 9) simulates 10^6 episodes per conditioning hypothesis at four
horizons and takes a few minutes; everything else is fast.
"""

import json
import math
import time

import numpy as np
import pytest

from ahtest import (
    Belief,
    RunConfig,
    Trajectory,
    bllr,
    bound_report,
    confidence_increment,
    ejs_divergence,
    enumerate_exact,
    enumerate_pair_expectations,
    kl_matrix,
    lambda_bound,
    monte_carlo,
    posterior_from_trajectory,
    prior_belief,
    misclassification_lower_bound,
    saddle_points,
    solve_saddle,
    misclassification_upper_bound,
)
from ahtest.engine import simulate_conditioned_batch
from ahtest.model import STRICT_BOUND_SLACK
from ahtest.belief import bllr_matrix
from ahtest.strategies import (
    ChernoffSelection,
    ECRLookaheadSelection,
    EJSGreedySelection,
    FBarInference,
    FixedThresholdInference,
    MAPInference,
    UniformSelection,
)

from conftest import random_model, random_selection, random_trajectory


def _report(criterion, detail):
    print(f"\n[acceptance] criterion {criterion}: PASS  {detail}")


@pytest.fixture(scope="module")
def bsc2_saddles(bsc2):
    return saddle_points(bsc2)


@pytest.fixture(scope="module")
def tri3_saddles(tri3):
    return saddle_points(tri3)


def test_c01_confidence_increment_identity():
    """Rival-sum identity vs the posterior route on 10^3 random pairs, N <= 100."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        model = random_model(
            rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
        )
        traj = random_trajectory(rng, model, int(rng.integers(1, 101)))
        i = int(rng.integers(model.num_hypotheses))
        prior = prior_belief(model)
        via_identity = confidence_increment(model, prior, traj, i)
        via_posterior = bllr(posterior_from_trajectory(model, prior, traj), i) - bllr(prior, i)
        worst = max(worst, abs(via_identity - via_posterior))
        assert abs(via_identity - via_posterior) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, f"1000 pairs, max deviation {worst:.2e}, {elapsed:.1f}s")


def test_c02_bounded_increments(bsc2, tri3, bsc2_saddles, tri3_saddles):
    """Per-step and total confidence moves capped by B and N B on 10^4 episodes."""
    jobs = [
        (bsc2, ChernoffSelection(bsc2_saddles), 30, 2500),
        (tri3, ChernoffSelection(tri3_saddles), 20, 1000),
        (tri3, EJSGreedySelection(), 10, 667),
    ]
    episodes_total = 0
    for model, selection, horizon, per_h in jobs:
        cap = lambda_bound(model) * (1.0 + STRICT_BOUND_SLACK)
        cfg = RunConfig(
            model=model, selection=selection, inference=MAPInference(),
            horizon=horizon, episodes=per_h, seed=2,
        )
        for h in range(model.num_hypotheses):
            *_, path = simulate_conditioned_batch(cfg, h, record_beliefs=True)
            conf = bllr_matrix(path)                    # (E, N+1, M)
            steps = np.abs(np.diff(conf, axis=1))
            total = np.abs(conf[:, -1, :] - conf[:, 0, :])
            assert np.all(steps <= cap), f"per-step bound violated on {model.hypotheses}"
            assert np.all(total <= horizon * cap)
            episodes_total += per_h
    assert episodes_total >= 10_000
    _report(2, f"{episodes_total} episodes, zero violations")


def test_c03_saddle_certification(bsc2, tri3):
    start = time.monotonic()
    sp_b = solve_saddle(kl_matrix(bsc2, 0))
    assert sp_b.d_star == pytest.approx(0.8 * math.log(9), abs=1e-6)
    assert sp_b.gap <= 1e-6

    km = kl_matrix(tri3, 0)
    sp_t = solve_saddle(km)
    # grid-search oracle over alpha = (t, 1-t) at step 1e-5
    t = np.arange(0.0, 1.0 + 5e-6, 1e-5)
    mixed = t[:, None] * km.values[0][None, :] + (1 - t)[:, None] * km.values[1][None, :]
    oracle = float(mixed.min(axis=1).max())
    assert sp_t.d_star == pytest.approx(oracle, abs=5e-4)
    assert sp_t.gap <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(3, f"d*(BSC2)={sp_b.d_star:.7f}, d*(TRI3,1)={sp_t.d_star:.7f} vs grid {oracle:.7f}, {elapsed:.2f}s")


def test_c04_threshold_misclassification_bound(bsc2, tri3, bsc2_saddles, tri3_saddles):
    """phi_N(i) <= e^-theta for threshold rules, exact enumeration, N = 1..6."""
    cases = 0
    for model, saddles in ((bsc2, bsc2_saddles), (tri3, tri3_saddles)):
        selection = ChernoffSelection(saddles)
        for n in range(1, 7):
            for theta in (0.5, 1.0, 2.0, 4.0):
                cfg = RunConfig(
                    model=model, selection=selection,
                    inference=FixedThresholdInference(theta), horizon=n,
                )
                rep = enumerate_exact(cfg)
                for i in range(model.num_hypotheses):
                    assert rep.phi[i] <= math.exp(-theta)
                    cases += 1
    _report(4, f"{cases} (model, N, theta, i) cases, all within e^-theta")


def _random_pairs(seed, count):
    """Random (model, selection, horizon) triples kept at enumerable size."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        m = int(rng.integers(2, 5))
        u = int(rng.integers(1, 4))
        y = int(rng.integers(2, 4))
        model = random_model(rng, m, u, y)
        branch = u * y
        horizon = 6
        while branch**horizon > 10_000:
            horizon -= 1
        if horizon < 2:
            continue
        roll = rng.random()
        if roll < 0.5:
            sel = random_selection(rng, model)
        elif roll < 0.75:
            sel = ChernoffSelection(saddle_points(model))
        else:
            sel = UniformSelection()
        out.append((model, sel, horizon))
    return out


def test_c05_converse_rate_inequality():
    """-log(phi)/N <= J + 2B eps/(1-eps) - log(1-eps)/N at eps = exact psi."""
    checked = 0
    for model, sel, horizon in _random_pairs(505, 10):
        b = lambda_bound(model)
        cfg = RunConfig(model=model, selection=sel, inference=MAPInference(), horizon=horizon)
        rep = enumerate_exact(cfg)
        for i in range(model.num_hypotheses):
            eps = rep.psi[i]
            if not (0.0 < eps < 1.0) or rep.phi[i] <= 0.0:
                continue
            lhs = -math.log(rep.phi[i]) / horizon
            rhs = rep.jng[i] + 2 * b * eps / (1 - eps) - math.log(1 - eps) / horizon
            assert rhs - lhs >= -1e-9
            checked += 1
    assert checked >= 10
    _report(5, f"{checked} (pair, hypothesis) cases, slack never below -1e-9")


def test_c06_confidence_rate_bound():
    """J(i) <= D*(i) - sum_j beta*(j) log rho~1(j) / N for every tested strategy."""
    checked = 0
    for model, sel, horizon in _random_pairs(606, 10):
        saddles = saddle_points(model)
        cfg = RunConfig(model=model, selection=sel, inference=MAPInference(), horizon=horizon)
        rep = enumerate_exact(cfg)
        rho = model.prior
        for i, sp in enumerate(saddles):
            log_tilde = np.log(np.delete(rho, i) / (1.0 - rho[i]))
            bound = sp.d_star - float(np.dot(sp.beta_star, log_tilde)) / horizon
            assert rep.jng[i] <= bound + 1e-9
            checked += 1
    _report(6, f"{checked} (pair, hypothesis) cases within 1e-9")


def test_c07_conditional_expectation_identity():
    """E_i[sum lambda] equals E_i[sum per-step KL] under enumeration."""
    worst = 0.0
    for model, sel, horizon in _random_pairs(707, 8):
        cfg = RunConfig(model=model, selection=sel, inference=MAPInference(), horizon=horizon)
        lam_exp, kl_exp = enumerate_pair_expectations(cfg)
        dev = float(np.max(np.abs(lam_exp - kl_exp)))
        worst = max(worst, dev)
        assert dev <= 1e-9
    _report(7, f"8 strategy/model pairs, max deviation {worst:.2e}")


def test_c08_bound_sandwich(bsc2, bsc2_saddles):
    """lower <= exact gamma <= upper for the MAP-phase/threshold pair at
    horizons where the enumerated type-error caps hold with eps = 1/(2N)."""
    dmin = min(sp.d_star for sp in bsc2_saddles)
    delta = dmin / 4
    selection = ChernoffSelection(bsc2_saddles)
    inference = FBarInference(bsc2_saddles, delta)
    feasible = []
    rows = []
    for n in range(1, 13):
        eps = 1.0 / (2 * n)
        rep = enumerate_exact(RunConfig(
            model=bsc2, selection=selection, inference=inference, horizon=n,
        ))
        ok = all(p <= eps for p in rep.psi)
        rows.append((n, max(rep.psi), eps, ok, rep))
        if ok:
            lower = misclassification_lower_bound(bsc2, rep.jng, n, eps)
            upper = misclassification_upper_bound(bsc2, bsc2_saddles, n, delta)
            assert lower <= rep.gamma <= upper, (
                f"N={n}: {lower} <= {rep.gamma} <= {upper} fails"
            )
            feasible.append((n, lower, rep.gamma, upper))
    if feasible:
        detail = "; ".join(
            f"N={n}: {lo:.3e} <= {g:.3e} <= {up:.3e}" for n, lo, g, up in feasible
        )
        _report(8, f"feasible horizons {[n for n, *_ in feasible]}  {detail}")
    else:
        # fallback gate: the worst type error must be trending down toward eps
        tail = [max_psi - eps for _, max_psi, eps, _, _ in rows[-6:]]
        assert all(a > b for a, b in zip(tail, tail[1:])), "no feasibility trend"
        _report(8, "no feasible N <= 12; type-error gap strictly decreasing")


def test_c09_exponent_trend(bsc2, bsc2_saddles):
    """Monte Carlo sweep at N in {25, 50, 100, 200}, 10^6 episodes per
    hypothesis: achieved exponents nondecreasing and capped by min_i D*(i)
    within 3 sigma; zero-event rows must be consistent with the upper bound."""
    episodes = 1_000_000
    dmin = min(sp.d_star for sp in bsc2_saddles)
    delta = dmin / 4
    selection = ChernoffSelection(bsc2_saddles)
    inference = FBarInference(bsc2_saddles, delta)
    min_prior = float(min(bsc2.prior))

    rows = []
    for n in (25, 50, 100, 200):
        rep = monte_carlo(RunConfig(
            model=bsc2, selection=selection, inference=inference,
            horizon=n, episodes=episodes, seed=0,
        ))
        br = bound_report(bsc2, bsc2_saddles, rep, 1.0 / (2 * n), delta)
        rows.append((n, rep, br))

    lines = []
    reliable = []
    for n, rep, br in rows:
        count = rep.misclassification_count
        if br.achieved_exponent is not None:
            se = rep.gamma_se / (rep.gamma * n) if rep.gamma and rep.gamma_se else 0.0
            reliable.append((n, br.achieved_exponent, se))
            assert br.achieved_exponent <= dmin + 3 * se + 1e-12
            lines.append(f"N={n}: exponent {br.achieved_exponent:.4f} (se {se:.1e})")
        else:
            # No usable events. That is only acceptable when the theory says
            # events are too rare to see at this episode count.
            expected_events = episodes * br.upper_bound / min_prior
            assert count < 10
            assert expected_events < 0.01, (
                f"N={n}: zero/low events but bound predicts {expected_events:.3f}"
            )
            lines.append(f"N={n}: {count} events (bound predicts <= {expected_events:.1e})")
    for (n1, e1, s1), (n2, e2, s2) in zip(reliable, reliable[1:]):
        assert e2 >= e1 - 3 * math.hypot(s1, s2), f"exponent drop {n1}->{n2}"
    _report(9, f"min D* = {dmin:.4f}; " + "; ".join(lines))


def test_c10_monte_carlo_vs_enumeration(bsc2, tri3, bsc2_saddles, tri3_saddles):
    """Every estimate within 3 standard errors of the exact value at N=4, E=1e5."""
    episodes = 100_000
    checked = 0
    for model, saddles in ((bsc2, bsc2_saddles), (tri3, tri3_saddles)):
        delta = min(sp.d_star for sp in saddles) / 4
        kw = dict(
            model=model, selection=ChernoffSelection(saddles),
            inference=FBarInference(saddles, delta), horizon=4,
        )
        exact = enumerate_exact(RunConfig(**kw))
        mc = monte_carlo(RunConfig(episodes=episodes, seed=0, **kw))
        m = model.num_hypotheses
        prior = model.prior

        def se_binom(p):
            return math.sqrt(max(p * (1.0 - p), 0.0) / episodes)

        for i in range(m):
            se = max(mc.psi_se[i], se_binom(exact.psi[i]), 1e-12)
            assert abs(mc.psi[i] - exact.psi[i]) <= 3 * se
            w = [prior[h] / (1 - prior[i]) for h in range(m) if h != i]
            p_exact = [exact.decision_probs[h, i] for h in range(m) if h != i]
            se_phi_exact = math.sqrt(sum(
                (wi**2) * pe * (1 - pe) / episodes for wi, pe in zip(w, p_exact)
            ))
            se = max(mc.phi_se[i], se_phi_exact, 1e-12)
            assert abs(mc.phi[i] - exact.phi[i]) <= 3 * se
            se = max(mc.jng_se[i], 1e-12)
            assert abs(mc.jng[i] - exact.jng[i]) <= 3 * se
            checked += 3
        mis_exact = [
            float(exact.decision_probs[h, :m].sum() - exact.decision_probs[h, h])
            for h in range(m)
        ]
        se_gamma_exact = math.sqrt(sum(
            (prior[h] ** 2) * mh * (1 - mh) / episodes for h, mh in enumerate(mis_exact)
        ))
        se = max(mc.gamma_se, se_gamma_exact, 1e-12)
        assert abs(mc.gamma - exact.gamma) <= 3 * se
        checked += 1
    _report(10, f"{checked} quantities within 3 standard errors on BSC2 and TRI3")


def test_c11_one_step_lookahead_matches_greedy(bsc2):
    ejs_val = ejs_divergence(bsc2, Belief.uniform(2), 0)
    assert ejs_val == pytest.approx(0.8 * math.log(9), abs=1e-9)

    rng = np.random.default_rng(1111)
    agreements = 0
    for _ in range(1000):
        model = random_model(
            rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
        )
        rho = rng.dirichlet(np.ones(model.num_hypotheses)) * 0.9 + 0.1 / model.num_hypotheses
        rho /= rho.sum()
        belief = Belief.from_probs(rho)
        a = int(np.argmax(ECRLookaheadSelection(1).action_distribution(model, belief.log_rho, 0, 5)))
        b = int(np.argmax(EJSGreedySelection().action_distribution(model, belief.log_rho, 0, 1)))
        assert a == b
        agreements += 1
    _report(11, f"EJS at uniform = {ejs_val:.7f}; {agreements}/1000 argmax agreements")


def test_c12_determinism(bsc2, tri3, bsc2_saddles, tri3_saddles):
    for model, saddles in ((bsc2, bsc2_saddles), (tri3, tri3_saddles)):
        delta = min(sp.d_star for sp in saddles) / 4
        cfg = lambda: RunConfig(
            model=model, selection=ChernoffSelection(saddles),
            inference=FBarInference(saddles, delta), horizon=5,
            episodes=10_000, seed=42,
        )
        a = json.dumps(monte_carlo(cfg()).to_json_dict(), sort_keys=True)
        b = json.dumps(monte_carlo(cfg()).to_json_dict(), sort_keys=True)
        assert a.encode("utf-8") == b.encode("utf-8")
        cfg_exact = lambda: RunConfig(
            model=model, selection=ChernoffSelection(saddles),
            inference=FBarInference(saddles, delta), horizon=4,
        )
        x = json.dumps(enumerate_exact(cfg_exact()).to_json_dict(), sort_keys=True)
        y = json.dumps(enumerate_exact(cfg_exact()).to_json_dict(), sort_keys=True)
        assert x.encode("utf-8") == y.encode("utf-8")
    _report(12, "byte-identical Monte Carlo and enumeration reports on both models")
