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
disagree, verbatim scores sag slightly even for unanimous honest crowds; as
a group's weights can add up to a few ulps past 1, its sum is capped at 1.0.
The "normalized" mode divides each group sum by its weight mass, which makes
a unanimous crowd reporting t score exactly t and keeps fixed classification
thresholds meaningful.  Either way each term and their blend are in [0, 1].

The aggregate is a few whole-list passes, not a loop per report.  Its float
order is fixed: every sum adds left to right from 0.0 (left_sum), a term is
(credibility * weight) * trust, a weight is value / total, and a credibility
is 1.0 - abs(value - mean).  A weight sum that passes the float range is
taken over the values divided by their largest one.

An array kernel (_terms) does the same arithmetic elementwise over rows of
trust values, adding each row left to right in one fold (_row_sums), so its
results equal the list code's bit for bit.  aggregate_overall scores many
sessions over one set of weights as the beta blend of its terms.  aggregate
picks by size: a set of _ARRAY_MIN reports or more, a crowd, is read into
arrays once, its weights taken on them (_array_shares) and its terms on the
kernel as one row; a smaller set is scored on lists.  Each numpy call has
a fixed cost, so the lists are faster below about 200 reports, and the
arrays take half their time at 2000.

Every session builds its reports again, so a report is cheap to build.  The
two report classes and ReporterTerm are frozen dataclasses with slots: no
__dict__, no weakrefs, and no attribute beyond their fields (any other name
is refused with FrozenInstanceError, as before slots).  A report's checks
format its label only when one fails, and a plain int update_count passes
on its type.  On CPython 3.11 an AccumulatedReport takes 64 bytes beside
its field values and an InstantaneousReport 56, 40 fewer than with an
instance dict, and they build in about 0.9 and 0.7 us (timeit, best of 5, on
a shared 2-core machine).
"""

from __future__ import annotations

import math
import sys
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from operator import mul

import numpy as np

from .session import PerformanceVector, is_integer, require_unit, require_unit_array

VERBATIM = "verbatim"
NORMALIZED = "normalized"

DEFAULT_ALPHA = 0.7  # EWMA retention for accumulated trust
DEFAULT_BETA = 0.5   # consumer share in the final blend

# aggregate scores a set of this many reports or more on arrays; the measured
# crossover, where the list passes stop being faster, is 192-224
_ARRAY_MIN = 224


class SchemaMismatchError(ValueError):
    """An observation array's width differs from the promise's attribute count."""


class UndefinedRatioError(ValueError):
    """A promised value of zero makes the observed-to-promised ratio undefined."""


class NoEvidenceError(ValueError):
    """No reports at all were available to aggregate."""


def _sum_left(values):
    """values added left to right from 0.0, one rounding per addition; an
    iterable of arrays is added elementwise."""
    total = 0.0
    for x in values:
        total = total + x
    return total


# Through CPython 3.11 the built-in sum() adds floats exactly so, at C speed.
# From 3.12 it compensates the rounding (Neumaier), which can change the last
# bit, so the loop stands in for it there.
left_sum = sum if sys.version_info < (3, 12) else _sum_left


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row of x added left to right.  accumulate adds strictly in order
    (np.sum adds pairwise and can differ in the last bit); it starts from the
    first element, not 0.0, and the + 0.0 turns a row of -0.0s' sum into the
    0.0 that a sum from 0.0 gives."""
    return np.add.accumulate(x, axis=-1)[..., -1] + 0.0


def _refuse_every_name(cls):
    """cls, a frozen dataclass with slots, refusing any attribute name as a
    frozen dataclass without slots does: with FrozenInstanceError.  Through
    CPython 3.13 the slotted class refuses a name that is not a field with a
    TypeError from super() instead."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


@_refuse_every_name
@dataclass(frozen=True, slots=True)
class InstantaneousReport:
    """A bystander's single-probe trust value, stamped with the probe offset."""

    reporter_id: str
    trust: float
    timestamp_offset: float  # seconds since session start

    def __post_init__(self):
        if not self.reporter_id:
            raise ValueError("reporter_id must be non-empty")
        require_unit("report from {!r}: trust", self.trust, self.reporter_id)
        if not 0.0 <= self.timestamp_offset <= sys.float_info.max:
            raise ValueError(f"report from {self.reporter_id!r}: "
                             "timestamp_offset must be finite and >= 0")


@_refuse_every_name
@dataclass(frozen=True, slots=True)
class AccumulatedReport:
    """A consumer's EWMA trust over its usage window."""

    reporter_id: str
    trust: float
    coverage_duration: float  # seconds of usage inside the session
    update_count: int = 1

    def __post_init__(self):
        if not self.reporter_id:
            raise ValueError("reporter_id must be non-empty")
        require_unit("report from {!r}: trust", self.trust, self.reporter_id)
        if not 0.0 < self.coverage_duration <= sys.float_info.max:
            raise ValueError(f"report from {self.reporter_id!r}: "
                             "coverage_duration must be finite and positive")
        count = self.update_count
        if not is_integer(count) or count < 1:
            raise ValueError(f"report from {self.reporter_id!r}: "
                             f"update_count must be an integer >= 1, got {count!r}")


@dataclass(frozen=True)
class AggregationParams:
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    mode: str = VERBATIM

    def __post_init__(self):
        require_unit("alpha", self.alpha)
        require_unit("beta", self.beta)
        if self.mode not in (VERBATIM, NORMALIZED):
            raise ValueError(f"mode must be {VERBATIM!r} or {NORMALIZED!r}, got {self.mode!r}")


@_refuse_every_name
@dataclass(frozen=True, slots=True)
class ReporterTerm:
    """One reporter's contribution to an aggregate: value, weight, credibility."""

    reporter_id: str
    trust: float
    weight: float  # coverage weight for consumers, freshness weight for bystanders
    credibility: float


class _TupleOnRead:
    """A TrustBreakdown field kept as given under _name, made a tuple on first read."""

    def __set_name__(self, owner, name):
        self.name, self.kept = name, f"_{name}"

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # so the dataclass field has no default
        kept = obj.__dict__[self.kept]
        obj.__dict__[self.name] = tuple(kept.tolist() if isinstance(kept, np.ndarray) else kept)
        return obj.__dict__[self.name]


@dataclass(frozen=True, init=False)
class TrustBreakdown:
    """An aggregated trust value plus the evidence behind it.

    overall and the group terms before the beta blend, consumer_term and
    bystander_term (0.0 for an absent group), are in [0, 1].
    degenerate_freshness flags that every bystander probed at offset zero
    and freshness fell back to uniform.  reports, weights and credibilities
    run in parallel, consumers first.  weights and credibilities are kept as
    computed (lists, or arrays for a crowd) and, like per_reporter (their
    ReporterTerms), become tuples on first read, so a caller that reads only
    overall never builds them.  Equality, hash and repr cover all seven fields.
    """

    overall: float
    consumer_term: float
    bystander_term: float
    degenerate_freshness: bool
    reports: tuple[AccumulatedReport | InstantaneousReport, ...]
    weights: tuple[float, ...] = _TupleOnRead()  # consumers' coverage, bystanders' freshness
    credibilities: tuple[float, ...] = _TupleOnRead()

    def __init__(self, overall, consumer_term, bystander_term, degenerate_freshness, reports,
                 weights, credibilities):
        # one update: a frozen dataclass's own __init__ sets each field through object.__setattr__
        self.__dict__.update(overall=overall, consumer_term=consumer_term,
                             bystander_term=bystander_term, degenerate_freshness=degenerate_freshness,
                             reports=reports, _weights=weights, _credibilities=credibilities)

    @cached_property
    def per_reporter(self) -> tuple[ReporterTerm, ...]:
        return tuple([
            ReporterTerm(r.reporter_id, r.trust, w, c)
            for r, w, c in zip(self.reports, self.weights, self.credibilities)
        ])


def instantaneous_trust(observation, promise: PerformanceVector) -> np.ndarray:
    """Single-probe trust: the mean of capped observed-to-promised ratios.

    Each attribute contributes min(1, observed / promised), so overdelivering
    on one attribute cannot paper over underdelivering on another.
    observation is an (events x attributes) array of values on the promise's
    schema, each finite and >= 0; the result holds one trust value per row.
    The ratios are added left to right, starting from 0.0.
    """
    values = np.asarray(observation, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(promise.values):
        raise SchemaMismatchError(
            f"expected an (events x {len(promise.values)}) array, got shape {values.shape}"
        )
    bad = ~((0.0 <= values) & (values < math.inf))
    if bad.any():
        raise ValueError(f"observed values must be finite and >= 0, got {values[bad][0]}")
    for spec, p in zip(promise.schema.attributes, promise.values):
        if p == 0:
            raise UndefinedRatioError(
                f"promised value for {spec.name!r} is 0; the ratio is undefined"
            )
    with np.errstate(over="ignore"):
        ratios = values / promise.values
    np.minimum(1.0, ratios, out=ratios)
    return _sum_left(ratios.T) / len(promise.values)


def update_accumulated(previous: float | np.ndarray, instantaneous: float | np.ndarray,
                       alpha: float | np.ndarray = DEFAULT_ALPHA):
    """Fold one instantaneous sample into an accumulated trust value.

    alpha is the retention: the result is alpha * previous plus
    (1 - alpha) * instantaneous, a convex blend of the two inputs.  Any of
    the three may be an array, which folds elementwise; every element is
    held to the same bounds.
    """
    for label, x in (("previous", previous), ("instantaneous", instantaneous), ("alpha", alpha)):
        require_unit_array(label, x)
    return alpha * previous + (1.0 - alpha) * instantaneous


def _shares(values: list[float], total: float) -> list[float]:
    """Each value over total, their sum.  A sum past the float range (+inf) would
    make every share 0.0, so the values are then first divided by the largest."""
    if total == math.inf:
        top = float(max(values))  # so an int value is divided as the float it is on an array
        values = [v / top for v in values]
        total = left_sum(values)
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
    total = left_sum(offsets)
    if total <= 0:
        n = len(reports)
        return [1.0 / n] * n, True
    return _shares(offsets, total), False


def coverage_weights(reports: list[AccumulatedReport]) -> list[float]:
    """Per-consumer weights proportional to usage duration."""
    if not reports:
        raise ValueError("coverage weights need at least one report")
    durations = [r.coverage_duration for r in reports]
    return _shares(durations, left_sum(durations))


def _array_shares(values: list[float]) -> tuple[np.ndarray, bool]:
    """freshness_weights on an array of these values, bit for bit; [0] is coverage_weights."""
    x = np.fromiter(values, float, len(values))
    with np.errstate(over="ignore"):  # a sum past the float range is rescaled below
        total = _row_sums(x)
    if total <= 0:
        return np.full(len(x), 1.0 / len(x)), True
    if total == math.inf:
        x = x / x.max()
        total = _row_sums(x)
    return x / total, False


def credibilities(values: list[float]) -> list[float]:
    """Credibility of each trust value: one minus its distance from the pooled mean.

    The pool is every reporter's value, consumers and bystanders together,
    so a value can never be more than distance 1 from the mean and
    credibilities always land in [0, 1].
    """
    if not values:
        raise ValueError("credibilities need at least one value")
    # min() and max() step over a NaN that is not first; the sum does not
    total = left_sum(values) if 0.0 <= min(values) and max(values) <= 1.0 else math.nan
    if total != total:
        for v in values:
            require_unit("trust value", v)
    mean = total / len(values)
    return [1.0 - abs(v - mean) for v in values]


def _group_term(trusts, weights: list[float], creds, normalized: bool) -> float:
    """Sum of (credibility * weight) * trust: over the weight mass if normalized, else at most 1."""
    damped = list(map(mul, creds, weights))
    weighted = left_sum(map(mul, damped, trusts))
    return weighted / left_sum(damped) if normalized else min(weighted, 1.0)


def _blend(consumer, bystander, beta):
    """The beta blend of the group terms, or the one there is when the other is None."""
    if consumer is None:
        return bystander
    if bystander is None:
        return consumer
    return beta * consumer + (1.0 - beta) * bystander


def _terms(values: np.ndarray, weights_c, weights_b, normalized: bool, use_credibility: bool):
    """The array kernel: (credibilities, [consumer term, bystander term]) of
    each row of values, aggregate's arithmetic elementwise over the rows.

    values is (rows x reports), consumers first, and each group's weights
    are an array (or () for an absent group, whose term is None); the
    credibilities are None without credibility.  A group weight mass of
    zero when normalized raises ZeroDivisionError, as a float division does.
    """
    n_c = len(weights_c)
    creds = None
    if use_credibility:
        mean = _row_sums(values) / values.shape[1]
        creds = 1.0 - np.abs(values - mean[:, np.newaxis])
    terms = []
    for group, weights in ((slice(0, n_c), weights_c), (slice(n_c, None), weights_b)):
        if len(weights) == 0:
            terms.append(None)
            continue
        trusts = values[:, group]
        if use_credibility:
            damped = creds[:, group] * weights
        else:
            damped = np.broadcast_to(weights, trusts.shape)
        term = _row_sums(damped * trusts)
        if normalized:
            mass = _row_sums(damped)
            if not mass.all():
                raise ZeroDivisionError("float division by zero")
            term = term / mass
        else:
            np.minimum(term, 1.0, out=term)
        terms.append(term)
    return creds, terms


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
    normalized = params.mode == NORMALIZED
    if len(reports) >= _ARRAY_MIN:
        weights_c = _array_shares([r.coverage_duration for r in consumers])[0] if consumers else ()
        weights_b, degenerate = (_array_shares([r.timestamp_offset for r in bystanders])
                                 if bystanders else ((), False))
        row = np.fromiter([r.trust for r in reports], float, len(reports))[np.newaxis]
        row_creds, terms = _terms(row, weights_c, weights_b, normalized, use_credibility)
        terms = [None if t is None else float(t[0]) for t in terms]
        creds = row_creds[0] if use_credibility else np.ones(len(reports))
        weights = np.concatenate((weights_c, weights_b))
    else:
        pooled = [r.trust for r in reports]
        weights_c = coverage_weights(consumers) if consumers else []
        weights_b, degenerate = freshness_weights(bystanders) if bystanders else ([], False)
        creds = credibilities(pooled) if use_credibility else [1.0] * len(pooled)
        n_c = len(consumers)
        # map() stops at the shortest list, so the consumer term reads the first n_c entries
        terms = [_group_term(pooled, weights_c, creds, normalized) if consumers else None,
                 _group_term(pooled[n_c:], weights_b, creds[n_c:], normalized) if bystanders
                 else None]
        weights = weights_c + weights_b
    overall = _blend(*terms, params.beta)
    consumer_term, bystander_term = (0.0 if t is None else t for t in terms)
    return TrustBreakdown(overall, consumer_term, bystander_term, degenerate, reports, weights, creds)


def aggregate_overall(values, weights_c, weights_b, params: AggregationParams = AggregationParams(),
                      use_credibility: bool = True) -> np.ndarray:
    """aggregate(...).overall of each row of values, bit for bit.

    values is (rows x reports), each in [0, 1]: the trust values of
    len(weights_c) consumer reports, then of len(weights_b) bystander
    reports, whose 1-D coverage and freshness weights those are, so every
    row shares one set of weights; another shape, or a weight outside
    [0, 1], raises ValueError.  It beta-blends the array kernel's group
    terms; like aggregate's, a zero normalized group mass raises ZeroDivisionError.
    """
    values = require_unit_array("trust", values)
    weights_c, weights_b = (require_unit_array("weight", w) for w in (weights_c, weights_b))
    if weights_c.ndim != 1 or weights_b.ndim != 1:
        raise ValueError("each group's weights must be one-dimensional")
    width = len(weights_c) + len(weights_b)
    if values.ndim != 2 or values.shape[1] != width:
        raise ValueError(f"trust values must be (rows x {width}), got shape {values.shape}")
    if values.shape[1] == 0:
        raise NoEvidenceError("no consumer or bystander reports to aggregate")
    _, terms = _terms(values, weights_c, weights_b, params.mode == NORMALIZED, use_credibility)
    return _blend(*terms, params.beta)
