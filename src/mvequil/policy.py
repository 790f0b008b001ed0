"""Shared policy and failure types used by all three solvers, and the mixed strategy part."""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np


class PolicyKind(enum.Enum):
    """The equilibrium notion, named by the part P of each later control re-applied after a deviation.

    P is 0 (OPEN_LOOP), the control's own gain K (FEEDBACK) or the strategy part (MIXED).
    """

    OPEN_LOOP = "open_loop"
    FEEDBACK = "feedback"
    MIXED = "mixed"


class FailingCondition(enum.Enum):
    """Which stage condition broke, certifying why no solution exists.

    RANGE_CONDITION: mean excess return not in the column space of its
    covariance (the exact open-loop existence test). PSD_CONDITION: a stage
    gain matrix failed positive semidefiniteness. GAIN_SOLVABILITY /
    OFFSET_SOLVABILITY: the stage gain or offset equation has no solution
    (right-hand side outside the gain matrix's column space).
    """

    RANGE_CONDITION = "range_condition"
    PSD_CONDITION = "psd_condition"
    GAIN_SOLVABILITY = "gain_solvability"
    OFFSET_SOLVABILITY = "offset_solvability"


@dataclass(frozen=True)
class NonexistenceReport:
    failing_stage: int
    failing_condition: FailingCondition
    residual: float

    def describe(self) -> str:
        return (
            f"no solution: {self.failing_condition.value} failed at stage "
            f"{self.failing_stage} (residual {self.residual:.3e})"
        )


class InternalInconsistencyError(RuntimeError):
    """A condition the theory guarantees was violated numerically.

    Raised, for example, when the feedback recursion fails a solvability
    check on an instance whose range conditions all hold; that combination
    indicates a numerics bug rather than genuine nonexistence.
    """


@dataclass(frozen=True)
class AffinePolicy:
    """Stagewise affine control rule u_k = gains[k - start_stage] * x + offsets[...].

    gains and offsets have one row per stage from start_stage through the
    final trading stage. The rule is wealth-affine with vector coefficients:
    scalar wealth times a gain vector plus an offset vector.
    """

    kind: PolicyKind
    start_stage: int
    gains: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        # private copies: freezing them must not freeze the caller's arrays
        gains = np.atleast_2d(np.array(self.gains, dtype=float))
        offsets = np.atleast_2d(np.array(self.offsets, dtype=float))
        if gains.shape != offsets.shape:
            raise ValueError("gains and offsets must have matching shapes")
        if not (np.all(np.isfinite(gains)) and np.all(np.isfinite(offsets))):
            raise ValueError("policy coefficients must be finite")
        gains.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "offsets", offsets)

    @property
    def horizon(self) -> int:
        return self.start_stage + self.gains.shape[0]

    @property
    def num_assets(self) -> int:
        return self.gains.shape[1]

    def row(self, k: int) -> int:
        """Row of stage k in gains and offsets; ValueError outside the policy's stages."""
        if not self.start_stage <= k < self.horizon:
            raise ValueError(
                f"stage {k} is outside the policy's stages {self.start_stage}..{self.horizon - 1}"
            )
        return k - self.start_stage

    def gain(self, k: int) -> np.ndarray:
        return self.gains[self.row(k)]

    def offset(self, k: int) -> np.ndarray:
        return self.offsets[self.row(k)]

    def control(self, k: int, x: float) -> np.ndarray:
        """Prescribed asset allocation at stage k and wealth x."""
        return self.gain(k) * x + self.offset(k)


@dataclass(frozen=True)
class PureFeedbackPart:
    """The prescribed wealth-proportional strategy part, one gain row per stage."""

    gains: np.ndarray

    def __post_init__(self):
        gains = np.atleast_2d(np.array(self.gains, dtype=float))  # private copy
        if not np.all(np.isfinite(gains)):
            raise ValueError("strategy gains must be finite")
        gains.flags.writeable = False
        object.__setattr__(self, "gains", gains)

    @property
    def horizon(self) -> int:
        return self.gains.shape[0]

    @property
    def num_assets(self) -> int:
        return self.gains.shape[1]


def sample_pure_feedback(seed: int, horizon: int, num_assets: int) -> PureFeedbackPart:
    """Standard-normal strategy part from a seeded generator; reproducible."""
    rng = np.random.default_rng(seed)
    return PureFeedbackPart(gains=rng.standard_normal((horizon, num_assets)))


def zero_pure_feedback(horizon: int, num_assets: int) -> PureFeedbackPart:
    return PureFeedbackPart(gains=np.zeros((horizon, num_assets)))


def load_pure_feedback(path, horizon: int, num_assets: int) -> PureFeedbackPart:
    """Read a strategy part from a JSON file: an array of horizon rows of num_assets."""
    with open(path) as fh:
        gains = np.asarray(json.load(fh), dtype=float)
    if gains.shape != (horizon, num_assets):
        raise ValueError(
            f"strategy part must have shape ({horizon}, {num_assets}), got {gains.shape}"
        )
    return PureFeedbackPart(gains=gains)
