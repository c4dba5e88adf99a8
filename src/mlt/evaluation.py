"""Trust-level classification and scoring.

Aggregated trust values are bucketed into three levels.  The boundaries are
half-open upward: a value exactly on a cut goes to the upper bucket.  Scoring
compares predicted levels against ground-truth levels and reports per-level
precision, recall, and accuracy, their macro averages, and the overall
fraction of correctly classified samples.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .session import require_unit, require_unit_array
from .trust import left_sum


class TrustLevel(enum.Enum):
    LOWLY = "lowly"
    MODERATELY = "moderately"
    HIGHLY = "highly"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Thresholds:
    """Cut points separating the three trust levels."""

    low_cut: float = 1.0 / 3.0
    high_cut: float = 2.0 / 3.0

    def __post_init__(self):
        if not 0.0 < self.low_cut < self.high_cut < 1.0:
            raise ValueError(
                f"need 0 < low_cut < high_cut < 1, got ({self.low_cut}, {self.high_cut})"
            )


DEFAULT_THRESHOLDS = Thresholds()


def classify(trust: float, thresholds: Thresholds = DEFAULT_THRESHOLDS) -> TrustLevel:
    """Bucket a trust value in [0, 1] into one of the three levels."""
    require_unit("trust", trust)
    if trust < thresholds.low_cut:
        return TrustLevel.LOWLY
    if trust < thresholds.high_cut:
        return TrustLevel.MODERATELY
    return TrustLevel.HIGHLY


_LEVELS = tuple(TrustLevel)  # a level index's TrustLevel


def levels(trust, thresholds: Thresholds) -> np.ndarray:
    """classify over an array: the level index (into TrustLevel) of each
    trust value; one outside [0, 1], NaN included, raises ValueError."""
    cuts = [thresholds.low_cut, thresholds.high_cut]
    return np.searchsorted(cuts, require_unit_array("trust", trust), side="right")


@dataclass(frozen=True)
class LevelCounts:
    """Confusion counts for one level: it plays the role of the positive class."""

    correct: int = 0      # predicted this level and it was this level
    detected: int = 0     # predicted this level
    actual: int = 0       # was this level
    correct_not: int = 0  # neither predicted nor was this level


@dataclass(frozen=True)
class ConfusionCounts:
    samples: int
    per_level: dict[TrustLevel, LevelCounts]


def _level_indices(labels) -> np.ndarray:
    """A non-empty flat integer array of level indices, as intp; anything
    else raises ValueError."""
    if not (isinstance(labels, np.ndarray) and labels.dtype.kind in "iu" and labels.ndim == 1
            and 0 <= labels.min() <= labels.max() < 3):
        raise ValueError("level indices must be a flat integer array of 0, 1 and 2")
    return labels.astype(np.intp, copy=False)  # mixed signedness would add as floats


def confusion(predicted, actual) -> ConfusionCounts:
    """Tally per-level confusion counts from paired labels: two integer
    arrays of level indices into TrustLevel."""
    if len(predicted) != len(actual):
        raise ValueError(
            f"predicted and actual differ in length: {len(predicted)} vs {len(actual)}"
        )
    n = len(predicted)
    if not n:
        raise ValueError("need at least one sample to score")
    # one pass: pairs[p, a] counts the samples predicted p that were a
    pairs = np.bincount(3 * _level_indices(predicted) + _level_indices(actual), minlength=9)
    pairs = pairs.reshape(3, 3)
    per_level = {}
    for level, correct, detected, actual_n in zip(
            _LEVELS, pairs.diagonal().tolist(), pairs.sum(axis=1).tolist(),
            pairs.sum(axis=0).tolist()):
        # neither predicted nor was this level: what the three counts above leave
        correct_not = n - detected - actual_n + correct
        per_level[level] = LevelCounts(correct, detected, actual_n, correct_not)
    return ConfusionCounts(samples=n, per_level=per_level)


@dataclass(frozen=True)
class LevelMetrics:
    """Precision and recall are None when their denominator is zero."""

    precision: float | None
    recall: float | None
    accuracy: float


@dataclass(frozen=True)
class ExperimentResult:
    """Scored outcome of one experiment arm plus the configuration that produced it."""

    config: dict
    n_samples: int
    counts: ConfusionCounts
    per_level: dict[TrustLevel, LevelMetrics]
    macro_precision: float
    macro_recall: float
    macro_accuracy: float
    accuracy: float          # overall fraction of correctly classified samples
    stderr_accuracy: float   # binomial standard error of that fraction


def _macro(values: list[float | None]) -> float:
    """Unweighted mean over the levels where the metric is defined; on a
    non-empty tally at least one level has each metric defined."""
    defined = [v for v in values if v is not None]
    return left_sum(defined) / len(defined)


def score(predicted, actual, config: dict | None = None) -> ExperimentResult:
    """Score predicted against actual level indices, given as confusion takes them.

    Per-level precision is correct/detected and recall is correct/actual;
    either is undefined (None) when its denominator is zero and is then left
    out of the macro mean.  Per-level accuracy also credits true negatives,
    so it is always defined.
    """
    counts = confusion(predicted, actual)
    n = counts.samples
    per_level = {}
    for level, c in counts.per_level.items():
        precision = c.correct / c.detected if c.detected else None
        recall = c.correct / c.actual if c.actual else None
        accuracy = (c.correct + c.correct_not) / n
        per_level[level] = LevelMetrics(precision, recall, accuracy)

    overall = sum(c.correct for c in counts.per_level.values()) / n
    stderr = math.sqrt(overall * (1.0 - overall) / n)
    return ExperimentResult(
        config=dict(config or {}),
        n_samples=n,
        counts=counts,
        per_level=per_level,
        macro_precision=_macro([m.precision for m in per_level.values()]),
        macro_recall=_macro([m.recall for m in per_level.values()]),
        macro_accuracy=_macro([m.accuracy for m in per_level.values()]),
        accuracy=overall,
        stderr_accuracy=stderr,
    )
