"""Model loading, validation, log-likelihood ratios, and the evidence bound."""

import json
import math

import numpy as np
import pytest

from ahtest import (
    EpsilonSchedule,
    Model,
    ModelError,
    ModelFormatError,
    ModelValidationError,
    lambda_bound,
    load_model,
    log_likelihood_ratio,
)

from conftest import MODELS_DIR, random_model


def _bsc2_doc():
    return {
        "hypotheses": ["H1", "H2"],
        "experiments": ["u0"],
        "observations": ["0", "1"],
        "prior": [0.5, 0.5],
        "channel": [[[0.9, 0.1]], [[0.1, 0.9]]],
    }


class TestLoadModel:
    def test_round_trip_declared_fields(self):
        model = load_model(json.dumps(_bsc2_doc()).encode())
        assert model.hypotheses == ("H1", "H2")
        assert model.experiments == ("u0",)
        assert model.observations == ("0", "1")
        np.testing.assert_allclose(model.prior, [0.5, 0.5])
        np.testing.assert_allclose(model.channel[0, 0], [0.9, 0.1])
        np.testing.assert_allclose(model.channel[1, 0], [0.1, 0.9])

    def test_loads_from_path_and_file_object(self):
        m1 = load_model(MODELS_DIR / "bsc2.json")
        with open(MODELS_DIR / "bsc2.json", "rb") as fh:
            m2 = load_model(fh)
        np.testing.assert_array_equal(m1.channel, m2.channel)

    def test_zero_channel_entry_rejected(self):
        doc = _bsc2_doc()
        doc["channel"][0][0] = [1.0, 0.0]
        with pytest.raises(ModelValidationError, match="full support"):
            load_model(json.dumps(doc).encode())

    def test_identical_rows_rejected(self):
        doc = _bsc2_doc()
        doc["channel"][1][0] = [0.9, 0.1]
        with pytest.raises(ModelValidationError, match="cannot distinguish"):
            load_model(json.dumps(doc).encode())

    def test_bad_row_sum_rejected_not_renormalized(self):
        doc = _bsc2_doc()
        doc["channel"][0][0] = [0.9, 0.2]
        with pytest.raises(ModelValidationError, match="sums to"):
            load_model(json.dumps(doc).encode())

    def test_row_sum_message_prints_a_plain_number(self):
        doc = _bsc2_doc()
        doc["channel"][0][0] = [0.9, 0.2]
        with pytest.raises(ModelValidationError) as exc:
            load_model(json.dumps(doc).encode())
        assert "sums to 1.1," in str(exc.value)
        doc = _bsc2_doc()
        doc["prior"] = [0.6, 0.5]
        with pytest.raises(ModelValidationError) as exc:
            load_model(json.dumps(doc).encode())
        assert "prior sums to 1.1," in str(exc.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_prior_rejected(self, literal):
        # json accepts these literals; a NaN prior passes every other check.
        text = json.dumps(_bsc2_doc()).replace("[0.5, 0.5]", f"[{literal}, {literal}]")
        with pytest.raises(ModelValidationError, match=r"prior\[0\] = .* is not finite"):
            load_model(text.encode())

    @pytest.mark.parametrize("key, value", [
        ("hypotheses", "HK"), ("experiments", "u"), ("observations", "01"),
        ("hypotheses", {"H": 1, "K": 2}),
    ])
    def test_label_fields_must_be_arrays(self, key, value):
        doc = _bsc2_doc()
        doc[key] = value
        with pytest.raises(ModelFormatError, match=f"{key} must be a JSON array"):
            load_model(json.dumps(doc).encode())

    def test_bad_prior_rejected(self):
        doc = _bsc2_doc()
        doc["prior"] = [1.0, 0.0]
        with pytest.raises(ModelValidationError, match="prior"):
            load_model(json.dumps(doc).encode())

    @pytest.mark.parametrize("prior", [[1.0, 1e-12], [1e-12, 1.0], [1.0 + 5e-10, 1e-12]])
    def test_prior_entry_leaving_no_rival_mass_rejected(self, prior):
        # Positive, and normalized within tolerance, yet 1 - prior[i] <= 0:
        # the decision weights would divide by zero.
        doc = _bsc2_doc()
        doc["prior"] = prior
        with pytest.raises(ModelValidationError, match=r"prior\[\d\] = .* leaves its rivals no mass"):
            load_model(json.dumps(doc).encode())

    def test_skewed_prior_keeps_every_bit(self):
        doc = _bsc2_doc()
        doc["prior"] = [1.0 - 1e-10, 1e-10]
        assert load_model(json.dumps(doc).encode()).prior.tolist() == [1.0 - 1e-10, 1e-10]

    def test_single_hypothesis_rejected(self):
        doc = {
            "hypotheses": ["only"],
            "experiments": ["u0"],
            "observations": ["0", "1"],
            "prior": [1.0],
            "channel": [[[0.5, 0.5]]],
        }
        with pytest.raises(ModelValidationError, match="hypotheses"):
            load_model(json.dumps(doc).encode())

    def test_malformed_json_is_format_error(self):
        with pytest.raises(ModelFormatError):
            load_model(b"{not json")

    def test_missing_key_is_format_error(self):
        doc = _bsc2_doc()
        del doc["prior"]
        with pytest.raises(ModelFormatError, match="prior"):
            load_model(json.dumps(doc).encode())

    def test_shape_mismatch_is_error(self):
        doc = _bsc2_doc()
        doc["observations"] = ["0", "1", "2"]
        with pytest.raises(ModelError):
            load_model(json.dumps(doc).encode())


class TestLogLikelihoodRatio:
    def test_bsc2_value(self, bsc2):
        # log(0.9 / 0.1)
        assert log_likelihood_ratio(bsc2, 0, 1, 0, 0) == pytest.approx(math.log(9), abs=1e-12)

    def test_antisymmetry_exact(self, bsc2, tri3):
        rng = np.random.default_rng(7)
        for model in (bsc2, tri3, random_model(rng, 4, 3, 5)):
            for _ in range(50):
                i, j = rng.choice(model.num_hypotheses, size=2, replace=False)
                u = rng.integers(model.num_experiments)
                y = rng.integers(model.num_observations)
                a = log_likelihood_ratio(model, int(i), int(j), int(u), int(y))
                b = log_likelihood_ratio(model, int(j), int(i), int(u), int(y))
                assert a == -b  # same expression negated, exact in IEEE

    def test_equal_hypotheses_rejected(self, bsc2):
        with pytest.raises(ValueError):
            log_likelihood_ratio(bsc2, 1, 1, 0, 0)


class TestLambdaBound:
    def test_bsc2(self, bsc2):
        assert lambda_bound(bsc2) == pytest.approx(math.log(9), abs=1e-12)

    def test_tri3(self, tri3):
        assert lambda_bound(tri3) == pytest.approx(math.log(4), abs=1e-12)

    def test_dominates_all_ratios(self, tri3):
        b = lambda_bound(tri3)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                for u in range(2):
                    for y in range(2):
                        assert abs(log_likelihood_ratio(tri3, i, j, u, y)) <= b


class TestEpsilonSchedule:
    def test_half_inverse_meets_cap_everywhere(self):
        sched = EpsilonSchedule("half-inverse")
        for n in [1, 2, 3, 10, 100, 10_000]:
            assert sched.epsilon(n) == pytest.approx(1.0 / (2 * n))

    def test_half_inverse_log_rate_vanishes(self):
        # (-log eps_N) / N is decreasing from N0 = 2 onward.
        sched = EpsilonSchedule("half-inverse")
        ns = [2, 3, 5, 10, 50, 200, 1000, 50_000]
        rates = [-math.log(sched.epsilon(n)) / n for n in ns]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 1e-3

    def test_parse(self):
        assert EpsilonSchedule.parse("half-inverse").rule == "half-inverse"
        fixed = EpsilonSchedule.parse("fixed:0.01")
        assert fixed.rule == "fixed" and fixed.epsilon(7) == 0.01
        with pytest.raises(ValueError):
            EpsilonSchedule.parse("linear")
        with pytest.raises(ValueError):
            EpsilonSchedule("fixed", 1.5)
