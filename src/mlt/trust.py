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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if self.update_count < 1:
            raise ValueError(
                f"report from {self.reporter_id!r}: update_count must be >= 1"
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
    """An aggregated trust value plus the per-reporter terms behind it.

    consumer_term and bystander_term are the group aggregates before the
    beta blend (0.0 for an absent group).  degenerate_freshness flags that
    every bystander probed at offset zero and freshness fell back to uniform.
    """

    overall: float
    per_reporter: tuple[ReporterTerm, ...]
    consumer_term: float
    bystander_term: float
    degenerate_freshness: bool = False


def instantaneous_trust(observation: PerformanceVector, promise: PerformanceVector) -> float:
    """Single-probe trust: the mean of capped observed-to-promised ratios.

    Each attribute contributes min(1, observed / promised), so overdelivering
    on one attribute cannot paper over underdelivering on another.
    """
    if observation.schema != promise.schema:
        raise SchemaMismatchError("observation and promise use different attribute schemas")
    for spec, p in zip(promise.schema.attributes, promise.values):
        if p == 0:
            raise UndefinedRatioError(
                f"promised value for {spec.name!r} is 0; the ratio is undefined"
            )
    ratios = [min(1.0, o / p) for o, p in zip(observation.values, promise.values)]
    return sum(ratios) / len(ratios)


def update_accumulated(previous: float, instantaneous: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Fold one instantaneous sample into an accumulated trust value.

    alpha is the retention: the result is alpha * previous plus
    (1 - alpha) * instantaneous, a convex blend of the two inputs.
    """
    _check_unit("previous", previous)
    _check_unit("instantaneous", instantaneous)
    _check_unit("alpha", alpha)
    return alpha * previous + (1.0 - alpha) * instantaneous


def freshness_weights(reports: list[InstantaneousReport]) -> tuple[list[float], bool]:
    """Per-bystander weights proportional to probe recency.

    Returns (weights, uniform_fallback).  Weights are each report's timestamp
    offset divided by the sum of all offsets, so later probes weigh more.  If
    every offset is zero the split is undefined; the weights fall back to
    uniform and the flag is set instead of raising.
    """
    if not reports:
        raise ValueError("freshness weights need at least one report")
    total = sum(r.timestamp_offset for r in reports)
    if total <= 0:
        n = len(reports)
        return [1.0 / n] * n, True
    return [r.timestamp_offset / total for r in reports], False


def coverage_weights(reports: list[AccumulatedReport]) -> list[float]:
    """Per-consumer weights proportional to usage duration."""
    if not reports:
        raise ValueError("coverage weights need at least one report")
    total = sum(r.coverage_duration for r in reports)
    return [r.coverage_duration / total for r in reports]


def credibilities(values: list[float]) -> list[float]:
    """Credibility of each trust value: one minus its distance from the pooled mean.

    The pool is every reporter's value, consumers and bystanders together,
    so a value can never be more than distance 1 from the mean and
    credibilities always land in [0, 1].
    """
    if not values:
        raise ValueError("credibilities need at least one value")
    for v in values:
        _check_unit("trust value", v)
    mean = sum(values) / len(values)
    return [1.0 - abs(v - mean) for v in values]


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
    consumer_reports = list(consumer_reports)
    bystander_reports = list(bystander_reports)
    if not consumer_reports and not bystander_reports:
        raise NoEvidenceError("no consumer or bystander reports to aggregate")

    pooled = [r.trust for r in consumer_reports] + [r.trust for r in bystander_reports]
    if use_credibility:
        creds = credibilities(pooled)
    else:
        creds = [1.0] * len(pooled)
    cred_c = creds[: len(consumer_reports)]
    cred_b = creds[len(consumer_reports):]

    degenerate = False
    weights_c: list[float] = []
    weights_b: list[float] = []
    if consumer_reports:
        weights_c = coverage_weights(consumer_reports)
    if bystander_reports:
        weights_b, degenerate = freshness_weights(bystander_reports)

    def group_term(trusts: list[float], weights: list[float], creds_: list[float]) -> float:
        weighted = sum(c * w * t for c, w, t in zip(creds_, weights, trusts))
        if params.mode == NORMALIZED:
            mass = sum(c * w for c, w in zip(creds_, weights))
            return weighted / mass
        return weighted

    consumer_term = 0.0
    bystander_term = 0.0
    if consumer_reports:
        consumer_term = group_term([r.trust for r in consumer_reports], weights_c, cred_c)
    if bystander_reports:
        bystander_term = group_term([r.trust for r in bystander_reports], weights_b, cred_b)

    if consumer_reports and bystander_reports:
        overall = params.beta * consumer_term + (1.0 - params.beta) * bystander_term
    elif consumer_reports:
        overall = consumer_term
    else:
        overall = bystander_term

    per_reporter = tuple(
        [
            ReporterTerm(r.reporter_id, r.trust, w, c)
            for r, w, c in zip(consumer_reports, weights_c, cred_c)
        ]
        + [
            ReporterTerm(r.reporter_id, r.trust, w, c)
            for r, w, c in zip(bystander_reports, weights_b, cred_b)
        ]
    )
    return TrustBreakdown(
        overall=overall,
        per_reporter=per_reporter,
        consumer_term=consumer_term,
        bystander_term=bystander_term,
        degenerate_freshness=degenerate,
    )
