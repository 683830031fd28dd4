"""KL matrices and certified saddle points, cross-checked against grid search."""

import math
import time

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ahtest import (
    divergence,
    kl_divergence,
    kl_matrix,
    lambda_bound,
    saddle_points,
    solve_matrix_game,
    solve_saddle,
)
from ahtest.divergence import SADDLE_TOL, KLMatrix, SaddleSolverError

from conftest import MODELS_DIR, corrupt_mixtures, fresh_python, random_model, relabel


def grid_saddle_value_2rows(payoff: np.ndarray, step: float) -> float:
    """Oracle for games with two rows: scan alpha = (t, 1-t) on a grid."""
    t = np.arange(0.0, 1.0 + step / 2, step)
    mixed = t[:, None] * payoff[0][None, :] + (1 - t)[:, None] * payoff[1][None, :]
    return float(mixed.min(axis=1).max())


def grid_saddle_value_3rows(payoff: np.ndarray, step: float) -> float:
    """Oracle for games with three rows: scan the 2-simplex on a grid."""
    ts = np.arange(0.0, 1.0 + step / 2, step)
    best = -np.inf
    for a in ts:
        b = np.arange(0.0, 1.0 - a + step / 2, step)
        c = 1.0 - a - b
        alpha = np.stack([np.full_like(b, a), b, c], axis=1)
        vals = (alpha @ payoff).min(axis=1)
        best = max(best, float(vals.max()))
    return best


class TestKLDivergence:
    def test_identical_is_zero(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_bsc_pair(self):
        # 0.9 log(9) + 0.1 log(1/9)
        assert kl_divergence([0.9, 0.1], [0.1, 0.9]) == pytest.approx(0.8 * math.log(9), abs=1e-12)

    def test_mild_pair(self):
        expect = 0.8 * math.log(8 / 7) + 0.2 * math.log(2 / 3)
        assert kl_divergence([0.8, 0.2], [0.7, 0.3]) == pytest.approx(expect, abs=1e-12)

    def test_nonnegative_and_zero_only_at_equality(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4)) + 1e-3
            q = rng.dirichlet(np.ones(4)) + 1e-3
            p, q = p / p.sum(), q / q.sum()
            assert kl_divergence(p, q) > 0.0

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])


class TestKLMatrix:
    def test_bsc2(self, bsc2):
        km = kl_matrix(bsc2, 0)
        assert km.rivals == (1,)
        assert km.values.shape == (1, 1)
        assert km.values[0, 0] == pytest.approx(0.8 * math.log(9), abs=1e-12)

    def test_tri3_by_direct_summation(self, tri3):
        km = kl_matrix(tri3, 0)
        assert km.rivals == (1, 2)
        big = kl_divergence([0.8, 0.2], [0.2, 0.8])
        small = kl_divergence([0.8, 0.2], [0.7, 0.3])
        assert big == pytest.approx(0.6 * math.log(4), abs=1e-12)
        np.testing.assert_allclose(km.values, [[big, small], [small, big]], atol=1e-12)

    def test_entries_bounded_by_lambda_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            model = random_model(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)), 3)
            b = lambda_bound(model)
            for i in range(model.num_hypotheses):
                vals = kl_matrix(model, i).values
                assert np.all(vals > 0.0)
                assert np.all(vals <= b + 1e-12)


class TestSolveSaddle:
    def test_two_hypotheses_closed_form(self, bsc2):
        sp = solve_saddle(kl_matrix(bsc2, 0))
        assert sp.d_star == pytest.approx(0.8 * math.log(9), abs=1e-12)
        np.testing.assert_allclose(sp.alpha_star, [1.0])
        np.testing.assert_allclose(sp.beta_star, [1.0])
        assert sp.gap == 0.0

    def test_single_experiment_closed_form(self):
        # one row: value is the worst rival, mixtures are pure
        km = KLMatrix(hypothesis=0, rivals=(1, 2), values=np.array([[0.7, 0.4]]))
        sp = solve_saddle(km)
        assert sp.d_star == pytest.approx(0.4)
        np.testing.assert_allclose(sp.alpha_star, [1.0])
        np.testing.assert_allclose(sp.beta_star, [0.0, 1.0])

    def test_tri3_against_grid_oracle(self, tri3):
        sp = solve_saddle(kl_matrix(tri3, 0))
        oracle = grid_saddle_value_2rows(kl_matrix(tri3, 0).values, 1e-5)
        assert sp.d_star == pytest.approx(oracle, abs=5e-4)
        assert sp.gap <= 1e-6
        np.testing.assert_allclose(sp.alpha_star, [0.5, 0.5], atol=1e-6)
        np.testing.assert_allclose(sp.beta_star, [0.5, 0.5], atol=1e-6)

    def test_duality_sandwich_random_matrices(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            payoff = rng.uniform(0.05, 2.0, size=(rng.integers(2, 5), rng.integers(2, 5)))
            value, alpha, beta, gap = solve_matrix_game(payoff)
            lower = float((alpha @ payoff).min())
            upper = float((payoff @ beta).max())
            assert lower - 1e-9 <= value <= upper + 1e-9
            assert upper - lower <= 1e-6
            assert abs(alpha.sum() - 1.0) <= 1e-12 and np.all(alpha >= 0)
            assert abs(beta.sum() - 1.0) <= 1e-12 and np.all(beta >= 0)

    def test_2x2_mixtures_are_the_equalizers_bit_for_bit(self):
        # Run reports pin these bits. A 2x2 support's cofactors are its own
        # entries, never 1x1 determinants, which np.linalg.det can round.
        rng = np.random.default_rng(18)
        for _ in range(200):
            (a, d), (b, c) = rng.uniform(1.0, 2.0, 2), rng.uniform(0.0, 1.0, 2)
            _, alpha, beta, _ = solve_matrix_game(np.array([[a, b], [c, d]]))
            for got, first, second in ((alpha, d - c, a - b), (beta, d - b, a - c)):
                want = np.array([first / (first + second), 0.0])
                want[1] = 1.0 - want[0]
                np.testing.assert_array_equal(got, want / want.sum())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_payoff_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            solve_matrix_game([[bad, 1.0], [1.0, 0.0]])

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(8)
        payoff = rng.uniform(0.1, 1.0, size=(3, 3))
        v1, *_ = solve_matrix_game(payoff)
        for c in (0.3, 2.0, 17.5):
            vc, *_ = solve_matrix_game(c * payoff)
            assert vc == pytest.approx(c * v1, abs=1e-6 * max(1.0, c))

    def test_value_in_zero_b_range(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            model = random_model(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)), 3)
            b = lambda_bound(model)
            for sp in saddle_points(model):
                assert 0.0 < sp.d_star <= b + 1e-9

    def test_cross_validation_against_3row_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            payoff = rng.uniform(0.05, 1.5, size=(3, 3))
            value, *_ = solve_matrix_game(payoff)
            oracle = grid_saddle_value_3rows(payoff, 1e-3)
            assert value == pytest.approx(oracle, abs=5e-3)


def count_simplex(monkeypatch) -> list:
    calls = []
    real = divergence._simplex_support

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(divergence, "_simplex_support", counted)
    return calls


def highs_value(payoff: np.ndarray) -> float:
    """Oracle: the game's value from scipy's HiGHS, maximizing v subject to
    (alpha^T payoff)_j >= v with alpha on the simplex."""
    n_rows, n_cols = payoff.shape
    res = scipy.optimize.linprog(
        np.r_[np.zeros(n_rows), -1.0], A_ub=np.hstack([-payoff.T, np.ones((n_cols, 1))]),
        b_ub=np.zeros(n_cols), A_eq=np.r_[np.ones(n_rows), 0.0][None, :], b_eq=[1.0],
        bounds=[(0.0, None)] * n_rows + [(None, None)], method="highs",
    )
    assert res.success, res.message
    return -res.fun


class TestAgainstHighs:
    """The in-package simplex agrees with HiGHS and certifies a zero gap."""

    def test_random_games(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            payoff = rng.uniform(0.0, 2.0, size=rng.integers(2, 7, size=2))
            value, _, _, gap = solve_matrix_game(payoff)
            assert abs(value - highs_value(payoff)) <= 1e-12
            assert gap <= 1e-12

    @example(np.zeros((3, 3)))
    @example(np.full((2, 4), 2.0))
    @example(np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 2.0], [0.0, 2.0, 1.0]]))   # duplicate rows
    @example(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]))                    # duplicate columns
    @example(np.array([[2.0, 2.0, 2.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]]))   # dominated rows
    @example(np.array([[0.0, 2.0, 2.0], [2.0, 0.0, 2.0]]))                    # dominated column
    @given(arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 6)),
                  elements=st.sampled_from([0.0, 1.0, 2.0])))
    def test_degenerate_integer_games(self, payoff):
        value, alpha, beta, gap = solve_matrix_game(payoff)
        assert abs(value - highs_value(payoff)) <= 1e-12
        assert gap <= 1e-12
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12) and np.all(alpha >= 0)
        assert beta.sum() == pytest.approx(1.0, abs=1e-12) and np.all(beta >= 0)

    def test_large_game_terminates(self):
        # Far larger than any model's game, which is U x (M - 1).
        payoff = np.random.default_rng(16).uniform(0.0, 1.0, size=(40, 39))
        start = time.perf_counter()
        value, _, _, gap = solve_matrix_game(payoff)
        assert time.perf_counter() - start < 1.0
        assert abs(value - highs_value(payoff)) <= 1e-12
        assert gap <= 1e-12


class TestCertification:
    # "alpha0" = inf leaves alpha = (nan, 0) (inf / inf, numpy's warning muted):
    # it passes the simplex check and only the NaN gap can stop it.
    @pytest.mark.parametrize("field,value", [("alpha", np.nan), ("beta", np.nan), ("alpha0", np.inf)])
    def test_non_finite_solver_output_raises(self, monkeypatch, field, value):
        corrupt_mixtures(monkeypatch, field, value)
        with np.errstate(invalid="ignore"), pytest.raises(SaddleSolverError):
            solve_matrix_game([[1.0, 2.0], [2.0, 1.0]])


class TestOneSolvePerGame:
    @pytest.mark.parametrize("name,lps", [("tri3", 3), ("bsc2", 0)])
    def test_reference_models(self, monkeypatch, request, name, lps):
        # tri3 has three 2x2 games; bsc2's one 1x1 game has a closed form.
        model = request.getfixturevalue(name)
        calls = count_simplex(monkeypatch)
        saddle_points(model)
        assert len(calls) == lps

    @pytest.mark.parametrize("m,u", [(3, 2), (4, 3), (2, 3), (4, 1)])
    def test_one_lp_per_game_of_two_rows_and_two_columns(self, monkeypatch, m, u):
        # Hypothesis i's game has u rows and m - 1 columns.
        model = random_model(np.random.default_rng(m * 10 + u), m, u, 3)
        calls = count_simplex(monkeypatch)
        saddle_points(model)
        assert len(calls) == (m if u >= 2 and m >= 3 else 0)


class TestRelabelling:
    """The saddle route does not depend on the order of experiments or hypotheses.

    Values and certified guarantees are compared, not mixture bits: optimal
    mixtures need not be unique.
    """

    @settings(max_examples=25)
    @given(m=st.integers(2, 4), u=st.integers(1, 4), y=st.integers(2, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_relabelled_games_keep_values_and_guarantees(self, m, u, y, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, m, u, y)
        hyp_perm = rng.permutation(m)
        exp_perm = rng.permutation(u)
        base = saddle_points(model)
        by_exp = saddle_points(relabel(model, np.arange(m), exp_perm))
        by_hyp = saddle_points(relabel(model, hyp_perm, np.arange(u)))
        new_index = np.argsort(hyp_perm)   # hypothesis i of model is new_index[i]
        for i, sp in enumerate(base):
            kl = kl_matrix(model, i)
            for other, exp_map, hyp_map in ((by_exp[i], exp_perm, np.arange(m)),
                                            (by_hyp[new_index[i]], np.arange(u), hyp_perm)):
                assert abs(other.d_star - sp.d_star) <= (sp.gap + other.gap) / 2 + 1e-12
                # Both mixtures, mapped back to the original labels, keep their
                # guarantees on the original game.
                alpha = np.zeros(u)
                alpha[exp_map] = other.alpha_star
                by_rival = dict(zip(hyp_map[list(other.rivals)], other.beta_star))
                beta = np.array([by_rival[j] for j in kl.rivals])
                assert float(np.min(alpha @ kl.values)) >= sp.d_star - SADDLE_TOL
                assert float(np.max(kl.values @ beta)) <= sp.d_star + SADDLE_TOL


NO_SCIPY_RUNS = """
import contextlib, io, json, sys
import numpy as np
import ahtest, ahtest.cli
tri3, models = json.loads(sys.argv[1])
loaded = {"import": "scipy" in sys.modules}
ahtest.saddle_points(ahtest.load_model(tri3))
loaded["saddle_points"] = "scipy" in sys.modules
for argv in (["divergence"], ["enumerate", "--horizon", "4"],
             ["simulate", "--horizon", "4", "--episodes", "200"],
             ["sweep", "--horizons", "2,4", "--episodes", "200"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert ahtest.cli.main([*argv, "--model", tri3]) == 0
    loaded[argv[0]] = "scipy" in sys.modules
for k, (channel, prior) in enumerate(models):
    m, u, y = np.shape(channel)
    ahtest.saddle_points(ahtest.Model(
        tuple(f"h{i}" for i in range(m)), tuple(f"u{i}" for i in range(u)),
        tuple(f"y{i}" for i in range(y)), np.array(channel), np.array(prior)))
    loaded[f"random-{k}"] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


class TestNoScipy:
    """The package solves its games itself; scipy is a test oracle only."""

    def test_no_model_loads_scipy(self):
        rng = np.random.default_rng(21)
        # Every game of a (4, 3, 3) model is 3x3 and needs the simplex.
        models = [random_model(rng, 4, 3, 3) for _ in range(2)]
        loaded = fresh_python(NO_SCIPY_RUNS, str(MODELS_DIR / "tri3.json"),
                              [(m.channel.tolist(), m.prior.tolist()) for m in models])
        assert loaded == dict.fromkeys(
            ["import", "saddle_points", "divergence", "enumerate", "simulate", "sweep",
             "random-0", "random-1"], False)
