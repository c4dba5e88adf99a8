"""Session-local trust math.

Everything here is memoryless: a service's trustworthiness is computed from
reports gathered inside the current session only, never from provider history.

Two report flavours exist.  Bystanders probe the service briefly and hand in a
single instantaneous trust value with the probe's timestamp.  Consumers use
the service for a stretch of time and hand in an accumulated trust value, an
exponential moving average over their instantaneous samples, together with how
long they used the service.

Aggregation weighs bystanders by freshness (later probes say more about the
service right now), consumers by coverage (longer usage says more overall),
and every reporter by credibility (closeness to the pooled mean report).  The
"verbatim" mode combines the weighted sums exactly as stated above; since the
per-group weight mass Σ credibility·weight is below 1 whenever reporters
disagree, verbatim scores sag slightly even for unanimous honest crowds.  The
"normalized" mode divides each group sum by its weight mass, which makes a
unanimous crowd reporting t score exactly t and keeps fixed classification
thresholds meaningful.

The aggregate is a few whole-list passes, not a loop per report.  Its float
order is fixed: sums run left to right with the built-in sum(), a term is
(credibility * weight) * trust, a weight is value / total, and a credibility
is 1.0 - abs(value - mean).  A weight sum that passes the float range is
taken over the values divided by their largest one.  The per-reporter terms
of a TrustBreakdown are built only when they are first read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from operator import mul

import numpy as np

from .session import PerformanceVector

VERBATIM = "verbatim"
NORMALIZED = "normalized"

DEFAULT_ALPHA = 0.7  # EWMA retention for accumulated trust
DEFAULT_BETA = 0.5   # consumer share in the final blend


class SchemaMismatchError(ValueError):
    """Observation and promise do not share an attribute schema."""


class UndefinedRatioError(ValueError):
    """A promised value of zero makes the observed-to-promised ratio undefined."""


class NoEvidenceError(ValueError):
    """No reports at all were available to aggregate."""


def _check_unit(label: str, x: float) -> None:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{label} must be in [0, 1], got {x}")


def _check_unit_array(label: str, x) -> None:
    """_check_unit for every element of an array (or a scalar), naming the first one out of range."""
    x = np.asarray(x, dtype=float)
    outside = ~((0.0 <= x) & (x <= 1.0))
    if outside.any():
        raise ValueError(f"{label} must be in [0, 1], got {x[outside].flat[0]}")


@dataclass(frozen=True)
class InstantaneousReport:
    """A bystander's single-probe trust value, stamped with the probe offset."""

    reporter_id: str
    trust: float
    timestamp_offset: float  # seconds since session start

    def __post_init__(self):
        if not self.reporter_id:
            raise ValueError("reporter_id must be non-empty")
        _check_unit(f"report from {self.reporter_id!r}: trust", self.trust)
        if not math.isfinite(self.timestamp_offset) or self.timestamp_offset < 0:
            raise ValueError(
                f"report from {self.reporter_id!r}: timestamp_offset must be finite and >= 0"
            )


@dataclass(frozen=True)
class AccumulatedReport:
    """A consumer's EWMA trust over its usage window."""

    reporter_id: str
    trust: float
    coverage_duration: float  # seconds of usage inside the session
    update_count: int = 1

    def __post_init__(self):
        if not self.reporter_id:
            raise ValueError("reporter_id must be non-empty")
        _check_unit(f"report from {self.reporter_id!r}: trust", self.trust)
        if not math.isfinite(self.coverage_duration) or self.coverage_duration <= 0:
            raise ValueError(
                f"report from {self.reporter_id!r}: coverage_duration must be finite and positive"
            )
        count = self.update_count
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError(
                f"report from {self.reporter_id!r}: update_count must be an integer >= 1, "
                f"got {count!r}"
            )


@dataclass(frozen=True)
class AggregationParams:
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    mode: str = VERBATIM

    def __post_init__(self):
        _check_unit("alpha", self.alpha)
        _check_unit("beta", self.beta)
        if self.mode not in (VERBATIM, NORMALIZED):
            raise ValueError(f"mode must be {VERBATIM!r} or {NORMALIZED!r}, got {self.mode!r}")


@dataclass(frozen=True)
class ReporterTerm:
    """One reporter's contribution to an aggregate: value, weight, credibility."""

    reporter_id: str
    trust: float
    weight: float  # coverage weight for consumers, freshness weight for bystanders
    credibility: float


@dataclass(frozen=True)
class TrustBreakdown:
    """An aggregated trust value plus the evidence behind it.

    consumer_term and bystander_term are the group aggregates before the
    beta blend (0.0 for an absent group).  degenerate_freshness flags that
    every bystander probed at offset zero and freshness fell back to uniform.
    reports, weights and credibilities run in parallel, consumers first;
    per_reporter zips them into ReporterTerms on its first read, so a caller
    that needs only the overall value never builds them.  Equality and the
    hash cover all seven fields, the per-reporter data included.
    """

    overall: float
    consumer_term: float
    bystander_term: float
    degenerate_freshness: bool
    reports: tuple[AccumulatedReport | InstantaneousReport, ...]
    weights: tuple[float, ...]  # coverage weights for consumers, freshness for bystanders
    credibilities: tuple[float, ...]

    @cached_property
    def per_reporter(self) -> tuple[ReporterTerm, ...]:
        return tuple([
            ReporterTerm(r.reporter_id, r.trust, w, c)
            for r, w, c in zip(self.reports, self.weights, self.credibilities)
        ])


def instantaneous_trust(observation, promise: PerformanceVector):
    """Single-probe trust: the mean of capped observed-to-promised ratios.

    Each attribute contributes min(1, observed / promised), so overdelivering
    on one attribute cannot paper over underdelivering on another.  A
    PerformanceVector observation gives one float; an (events x attributes)
    array of values on the promise's schema gives one trust value per row.
    The ratios are added left to right, starting from 0.0.
    """
    single = isinstance(observation, PerformanceVector)
    if single:
        if observation.schema != promise.schema:
            raise SchemaMismatchError("observation and promise use different attribute schemas")
        values = np.array([observation.values])
    else:
        values = np.asarray(observation, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(promise.values):
            raise SchemaMismatchError(
                f"expected an (events x {len(promise.values)}) array, got shape {values.shape}"
            )
    for spec, p in zip(promise.schema.attributes, promise.values):
        if p == 0:
            raise UndefinedRatioError(
                f"promised value for {spec.name!r} is 0; the ratio is undefined"
            )
    with np.errstate(over="ignore"):
        ratios = values / promise.values
    np.minimum(1.0, ratios, out=ratios)
    total = 0.0
    for column in ratios.T:
        total = total + column
    trust = total / len(promise.values)
    return float(trust[0]) if single else trust


def update_accumulated(previous: float | np.ndarray, instantaneous: float | np.ndarray,
                       alpha: float | np.ndarray = DEFAULT_ALPHA):
    """Fold one instantaneous sample into an accumulated trust value.

    alpha is the retention: the result is alpha * previous plus
    (1 - alpha) * instantaneous, a convex blend of the two inputs.  Any of
    the three may be an array, which folds elementwise; every element is
    held to the same bounds.
    """
    if (isinstance(previous, np.ndarray) or isinstance(instantaneous, np.ndarray)
            or isinstance(alpha, np.ndarray)):
        for label, x in (("previous", previous), ("instantaneous", instantaneous), ("alpha", alpha)):
            _check_unit_array(label, x)
    # one chained comparison holds all three bounds (NaN fails it); the named
    # checks run only to raise the message for the first input out of range
    elif not 0.0 <= previous <= 1.0 >= instantaneous >= 0.0 <= alpha <= 1.0:
        _check_unit("previous", previous)
        _check_unit("instantaneous", instantaneous)
        _check_unit("alpha", alpha)
    return alpha * previous + (1.0 - alpha) * instantaneous


def _shares(values: list[float], total: float) -> list[float]:
    """Each value over total, their sum.  A sum past the float range (+inf) would
    make every share 0.0, so the values are then first divided by the largest."""
    if total == math.inf:
        top = max(values)
        values = [v / top for v in values]
        total = sum(values)
    return [v / total for v in values]


def freshness_weights(reports: list[InstantaneousReport]) -> tuple[list[float], bool]:
    """Per-bystander weights proportional to probe recency.

    Returns (weights, uniform_fallback).  Weights are each report's timestamp
    offset divided by the sum of all offsets, so later probes weigh more.  If
    every offset is zero the split is undefined; the weights fall back to
    uniform and the flag is set instead of raising.
    """
    if not reports:
        raise ValueError("freshness weights need at least one report")
    offsets = [r.timestamp_offset for r in reports]
    total = sum(offsets)
    if total <= 0:
        n = len(reports)
        return [1.0 / n] * n, True
    return _shares(offsets, total), False


def coverage_weights(reports: list[AccumulatedReport]) -> list[float]:
    """Per-consumer weights proportional to usage duration."""
    if not reports:
        raise ValueError("coverage weights need at least one report")
    durations = [r.coverage_duration for r in reports]
    return _shares(durations, sum(durations))


def credibilities(values: list[float]) -> list[float]:
    """Credibility of each trust value: one minus its distance from the pooled mean.

    The pool is every reporter's value, consumers and bystanders together,
    so a value can never be more than distance 1 from the mean and
    credibilities always land in [0, 1].
    """
    if not values:
        raise ValueError("credibilities need at least one value")
    # min() and max() step over a NaN that is not first; the sum does not
    total = sum(values) if 0.0 <= min(values) and max(values) <= 1.0 else math.nan
    if total != total:
        for v in values:
            _check_unit("trust value", v)
    mean = total / len(values)
    return [1.0 - abs(v - mean) for v in values]


def _group_term(trusts, weights: list[float], creds, normalized: bool) -> float:
    """Sum of (credibility * weight) * trust, over the weight mass when normalized."""
    damped = list(map(mul, creds, weights))
    weighted = sum(map(mul, damped, trusts))
    return weighted / sum(damped) if normalized else weighted


def aggregate(
    consumer_reports: list[AccumulatedReport],
    bystander_reports: list[InstantaneousReport],
    params: AggregationParams = AggregationParams(),
    *,
    use_credibility: bool = True,
) -> TrustBreakdown:
    """Blend consumer and bystander reports into one session trust value.

    Consumers are coverage-weighted, bystanders freshness-weighted, and both
    are damped by credibility; beta sets the consumer share of the blend.
    When one group has no reports its term is dropped and the other group's
    blend factor is rescaled to 1.

    use_credibility=False forces every credibility to 1 (for ablations).
    With it, equal weights within each group, and beta equal to the consumer
    share of the pool, the result reduces to the plain mean of every report.
    """
    consumers = tuple(consumer_reports)
    bystanders = tuple(bystander_reports)
    if not consumers and not bystanders:
        raise NoEvidenceError("no consumer or bystander reports to aggregate")
    reports = consumers + bystanders
    pooled = [r.trust for r in reports]
    creds = credibilities(pooled) if use_credibility else [1.0] * len(pooled)
    weights_c = coverage_weights(consumers) if consumers else []
    weights_b, degenerate = freshness_weights(bystanders) if bystanders else ([], False)

    normalized = params.mode == NORMALIZED
    n_c = len(consumers)
    # map() stops at the shortest list, so the consumer term reads the first n_c entries
    consumer_term = _group_term(pooled, weights_c, creds, normalized) if consumers else 0.0
    bystander_term = (
        _group_term(pooled[n_c:], weights_b, creds[n_c:], normalized) if bystanders else 0.0
    )

    if consumers and bystanders:
        overall = params.beta * consumer_term + (1.0 - params.beta) * bystander_term
    elif consumers:
        overall = consumer_term
    else:
        overall = bystander_term

    # positional: keyword arguments cost a frozen dataclass about 1 us more
    return TrustBreakdown(
        overall, consumer_term, bystander_term, degenerate,
        reports, (*weights_c, *weights_b), tuple(creds),
    )
