"""Hypothesis-testing models: channel tensors, validation, and the log-likelihood-ratio bound.

A model is the triple (hypotheses, experiments, observations) together with
the observation channel p[h][u][y] and a strictly positive prior. All
computation downstream works with dense integer indices in declaration
order; labels exist only at the file-format and CLI boundary.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO, Union

import numpy as np

# Tolerance for "sums to one" checks on channel rows and the prior.
ROW_SUM_TOL = 1e-9

# Relative cushion applied wherever a strict inequality against the
# log-likelihood-ratio bound B must be checked with floating point.
STRICT_BOUND_SLACK = 1e-12


class ModelError(ValueError):
    """Base class for model construction failures."""


class ModelFormatError(ModelError):
    """The model document is malformed (bad JSON, missing keys, wrong shapes)."""


class ModelValidationError(ModelError):
    """A structurally well-formed model violates one of the invariants."""


@dataclass(frozen=True)
class Model:
    """Validated hypothesis-testing model.

    channel has shape (M, U, Y) with channel[h, u] the distribution of the
    observation under hypothesis h and experiment u. Every entry is strictly
    positive, every row sums to one, and every experiment distinguishes every
    ordered pair of hypotheses (positive KL divergence). Instances are
    immutable and safe to share across workers.
    """

    hypotheses: tuple[str, ...]
    experiments: tuple[str, ...]
    observations: tuple[str, ...]
    channel: np.ndarray
    prior: np.ndarray
    log_channel: np.ndarray = field(init=False, repr=False, compare=False)
    _lambda_bound: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        channel = np.asarray(self.channel, dtype=float)
        prior = np.asarray(self.prior, dtype=float)
        object.__setattr__(self, "hypotheses", tuple(str(h) for h in self.hypotheses))
        object.__setattr__(self, "experiments", tuple(str(u) for u in self.experiments))
        object.__setattr__(self, "observations", tuple(str(y) for y in self.observations))
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "prior", prior)
        _validate(self)
        object.__setattr__(self, "log_channel", np.log(channel))
        lc = self.log_channel
        object.__setattr__(self, "_lambda_bound", float(np.max(np.abs(lc[:, None] - lc[None, :]))))
        for arr in (self.channel, self.prior, self.log_channel):
            arr.setflags(write=False)

    @property
    def num_hypotheses(self) -> int:
        return len(self.hypotheses)

    @property
    def num_experiments(self) -> int:
        return len(self.experiments)

    @property
    def num_observations(self) -> int:
        return len(self.observations)


def _validate(model: Model) -> None:
    M = len(model.hypotheses)
    U = len(model.experiments)
    Y = len(model.observations)
    if M < 2:
        raise ModelValidationError(f"need at least 2 hypotheses, got {M}")
    if U < 1:
        raise ModelValidationError("need at least 1 experiment")
    if Y < 2:
        raise ModelValidationError(f"need at least 2 observations, got {Y}")
    if len(set(model.hypotheses)) != M:
        raise ModelValidationError("hypothesis labels must be unique")
    if len(set(model.experiments)) != U:
        raise ModelValidationError("experiment labels must be unique")
    if len(set(model.observations)) != Y:
        raise ModelValidationError("observation labels must be unique")

    if model.channel.shape != (M, U, Y):
        raise ModelFormatError(
            f"channel shape {model.channel.shape} does not match "
            f"(hypotheses, experiments, observations) = {(M, U, Y)}"
        )
    if model.prior.shape != (M,):
        raise ModelFormatError(
            f"prior has shape {model.prior.shape}, expected ({M},)"
        )

    if not np.all(np.isfinite(model.channel)):
        h, u, y = np.argwhere(~np.isfinite(model.channel))[0]
        raise ModelValidationError(f"channel[h={h},u={u},y={y}] is not finite")
    bad = np.argwhere(model.channel <= 0.0)
    if bad.size:
        h, u, y = bad[0]
        raise ModelValidationError(
            f"full support violated: channel[h={h},u={u},y={y}] = "
            f"{model.channel[h, u, y]} is not strictly positive "
            f"(hypothesis {model.hypotheses[h]!r}, experiment {model.experiments[u]!r}, "
            f"observation {model.observations[y]!r})"
        )

    row_sums = model.channel.sum(axis=2)
    off = np.argwhere(np.abs(row_sums - 1.0) > ROW_SUM_TOL)
    if off.size:
        h, u = off[0]
        # Deliberately an error rather than a silent renormalization: a bad
        # row sum almost always means a typo in the model file.
        raise ModelValidationError(
            f"channel row (h={h},u={u}) sums to {float(row_sums[h, u])!r}, "
            f"violating normalization beyond tolerance {ROW_SUM_TOL}"
        )

    if not np.all(np.isfinite(model.prior)):
        i = int(np.argwhere(~np.isfinite(model.prior))[0, 0])
        raise ModelValidationError(f"prior[{i}] = {model.prior[i]} is not finite")
    if np.any(model.prior <= 0.0):
        i = int(np.argwhere(model.prior <= 0.0)[0, 0])
        raise ModelValidationError(
            f"prior[{i}] = {model.prior[i]} must be strictly positive"
        )
    if abs(model.prior.sum() - 1.0) > ROW_SUM_TOL:
        raise ModelValidationError(
            f"prior sums to {float(model.prior.sum())!r}, violating normalization "
            f"beyond tolerance {ROW_SUM_TOL}"
        )
    if np.any(model.prior >= 1.0):   # 1 - prior[i] <= 0: no mass left for i's rivals
        i = int(np.argmax(model.prior))
        raise ModelValidationError(f"prior[{i}] = {float(model.prior[i])!r} leaves its rivals no mass")

    # Every experiment must discriminate every ordered pair of hypotheses.
    logc = np.log(model.channel)
    for u in range(U):
        p = model.channel[:, u, :]
        lp = logc[:, u, :]
        kl = np.einsum("iy,ijy->ij", p, lp[:, None, :] - lp[None, :, :])
        np.fill_diagonal(kl, 1.0)
        if np.any(kl <= 0.0):
            i, j = np.argwhere(kl <= 0.0)[0]
            raise ModelValidationError(
                f"experiment u={u} ({model.experiments[u]!r}) cannot distinguish "
                f"hypotheses i={i} and j={j}: D(p_i^u || p_j^u) = {kl[i, j]}"
            )


Source = Union[str, os.PathLike, bytes, IO]


def load_model(source: Source) -> Model:
    """Load and validate a model from the JSON model file format.

    Accepts a filesystem path, raw bytes, or a readable file object. The
    document must carry the keys `hypotheses`, `experiments`, `observations`
    (arrays of labels; a string is not split into characters), `prior` (array
    of numbers), and `channel` (3-dim array indexed
    [hypothesis][experiment][observation]).
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            raw = fh.read()
    elif isinstance(source, bytes):
        raw = source
    else:
        raw = source.read()
        if isinstance(raw, str):
            raw = raw.encode("utf-8")
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"model file is not valid UTF-8 JSON: {exc}") from exc

    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    missing = [k for k in ("hypotheses", "experiments", "observations", "prior", "channel") if k not in doc]
    if missing:
        raise ModelFormatError(f"model document missing keys: {', '.join(missing)}")
    for key in ("hypotheses", "experiments", "observations"):
        if not isinstance(doc[key], list):
            raise ModelFormatError(
                f"{key} must be a JSON array of labels, got {type(doc[key]).__name__}")

    try:
        channel = np.asarray(doc["channel"], dtype=float)
        prior = np.asarray(doc["prior"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"channel/prior are not numeric arrays: {exc}") from exc
    if channel.ndim != 3:
        raise ModelFormatError(
            f"channel must be a 3-dim array [hypothesis][experiment][observation], "
            f"got {channel.ndim} dimensions"
        )

    return Model(
        hypotheses=tuple(doc["hypotheses"]),
        experiments=tuple(doc["experiments"]),
        observations=tuple(doc["observations"]),
        channel=channel,
        prior=prior,
    )


def log_likelihood_ratio(model: Model, i: int, j: int, u: int, y: int) -> float:
    """log p_i^u(y) / p_j^u(y) in nats. Requires i != j."""
    if i == j:
        raise ValueError("log-likelihood ratio requires two distinct hypotheses")
    return float(model.log_channel[i, u, y] - model.log_channel[j, u, y])


def lambda_bound(model: Model) -> float:
    """Largest absolute per-step log-likelihood ratio over all (i != j, u, y).

    Every single-step evidence increment lies in [-B, B] for the returned B.
    Callers that need the strict form of the bound should compare against
    B * (1 + STRICT_BOUND_SLACK). Computed once, when the model is built.
    """
    return model._lambda_bound


@dataclass(frozen=True)
class EpsilonSchedule:
    """Named rule producing the per-horizon cap on type-i error probability.

    Rules:
      half-inverse: eps_N = 1 / (2N), the least restrictive choice compatible
        with the type-error cap at every horizon.
      fixed: eps_N = value for every N. Useful for bound evaluation; note a
        fixed value exceeds the 1/(2N) cap once N > 1/(2 value).
    """

    rule: str = "half-inverse"
    value: float | None = None

    def __post_init__(self):
        if self.rule not in ("half-inverse", "fixed"):
            raise ValueError(f"unknown epsilon rule {self.rule!r}")
        if self.rule == "fixed":
            if self.value is None or not (0.0 < self.value < 1.0):
                raise ValueError("fixed epsilon rule needs a value in (0, 1)")
        elif self.value is not None:
            raise ValueError("half-inverse rule takes no value")

    def epsilon(self, horizon: int) -> float:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.rule == "half-inverse":
            return 1.0 / (2.0 * horizon)
        return float(self.value)

    @classmethod
    def parse(cls, spec: str) -> "EpsilonSchedule":
        """Parse a CLI rule string: `half-inverse` or `fixed:V`."""
        if spec == "half-inverse":
            return cls("half-inverse")
        if spec.startswith("fixed:"):
            try:
                v = float(spec.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad fixed epsilon value in {spec!r}") from None
            return cls("fixed", v)
        raise ValueError(f"unknown epsilon rule spec {spec!r}")

    def spec_string(self) -> str:
        if self.rule == "half-inverse":
            return "half-inverse"
        return f"fixed:{self.value!r}"
